"""The benchmark under bench/ reaches into the package by name; those names must resolve.

``bench/gate.py`` imports the full-space reference from ``detuned_tls.quantum``
and ``bench/tracer.py`` wraps functions by name and binds some of their
arguments by keyword.  A refactor that renames any of them would break the
benchmark without failing another test.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """Import ``bench/<name>.py`` from its file, as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_gate_imports_resolve():
    gate = _load("gate")
    assert callable(gate.check_lasing)


def test_traced_functions_exist_on_their_layers():
    tracer = _load("tracer")
    for table in (tracer.SPANNED, tracer.COUNTED):
        for layer, names in table.items():
            module = importlib.import_module(f"detuned_tls.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize(
    ("layer", "function", "parameter"),
    [
        ("quantum", "steady_state", "liouvillian"),
        ("quantum", "evolve_quantum", "liouvillian"),
        ("thermo", "find_violation_with_bare_energies", "max_samples"),
    ],
)
def test_arguments_the_tracer_binds_by_name_exist(layer, function, parameter):
    module = importlib.import_module(f"detuned_tls.{layer}")
    assert parameter in inspect.signature(getattr(module, function)).parameters
