"""The benchmark under bench/ reaches into the package by name; those names must resolve.

``bench/gate.py`` imports the full-space reference from ``detuned_tls.quantum``
and ``bench/tracer.py`` wraps functions by name and binds some of their
arguments by keyword.  Some uses happen only when a traced run or the gate
calls them: the gate builds a ``SweepResult`` positionally and rechecks it,
and the tracer iterates what ``thermo.sweep`` returns.  A refactor that breaks
any of them would break the benchmark without failing another test.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from detuned_tls import cli, quantum, thermo
from detuned_tls.config import build_system_spec, parse_config

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


def test_gate_flags_violations_at_the_programs_tolerance():
    assert _load("gate").SDOT_TOL == thermo.VIOLATION_TOL


def test_gate_rechecks_a_find_violation_row():
    # check_violation_row builds thermo.SweepResult(index, params, None, None,
    # True, None) from the row, takes params from DEFAULT_VIOLATION_RANGES and
    # calls recheck_with_effective_energies on it.
    gate = _load("gate")
    result = thermo.SweepResult(3, {"drive.omega": 1.0}, None, None, True, None)
    assert (result.index, result.params, result.violation) == (3, {"drive.omega": 1.0}, True)
    assert result.flux is result.entropy_total is result.error is None
    assert result.regime is result.spec is None
    assert isinstance(thermo.DEFAULT_VIOLATION_RANGES, dict)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["find-violation", "--seed", "1"]) == 0
    verdict = gate.check_violation_row(out.getvalue())
    assert verdict.samples == 1 and not verdict.errors and not verdict.wrong


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


_PUMPED_EMITTER = """\
e_upper = 1.0
e_lower = 0.0
reservoir_u.mu = 0.9
reservoir_u.temperature = 0.2
reservoir_u.occupation = fixed:0.95
reservoir_l.mu = 0.1
reservoir_l.temperature = 0.2
reservoir_l.occupation = fixed:0.02
"""


# Cutoff 6 runs the dense propagator and cutoff 121 the sparse Taylor loop
# (test_quantum.py checks that they straddle the size between them).  The gate
# propagates the full space over the first segment, so the large cutoff stores
# more rows to keep that segment short.
@pytest.mark.parametrize(("cutoff", "n_store"), [(6, 4), (121, 61)], ids=("dense", "sparse"))
def test_gate_checks_a_quantum_evolve_trajectory(tmp_path, cutoff, n_store):
    # check_evolution reads build_liouvillian(...).matrix, observables,
    # thermal_product_state and quantum_steady_state(spec).ops and .state.rho.
    gate = _load("gate")
    text = _PUMPED_EMITTER + (
        f"cavity.omega_cav = 1.05\ncavity.g = 0.2\ncavity.fock_cutoff = {cutoff}\n"
        "reservoir_u.gamma = 0.5\nreservoir_l.gamma = 0.5\n"
        "bath.gamma = 0.5\nbath.temperature = 0.3\nbath.occupation = effective\n"
    )
    path = tmp_path / "evolve.cfg"
    path.write_text(text)
    output = _cli_output(
        ["quantum-evolve", "--config", str(path), "--t-final", "30", "--n-store", str(n_store)]
    )
    spec = build_system_spec(parse_config(text))
    verdict = gate.check_evolution(output, spec, n_store, 30.0)
    assert verdict.samples == 1 and not verdict.errors and not verdict.wrong


def test_gate_checks_the_exact_laser_against_mean_field(tmp_path):
    # Above threshold (mean-field intensity 13.69 at g = 0.3), so the
    # photon-number comparison runs on both points.
    gate = _load("gate")
    path = tmp_path / "laser.cfg"
    path.write_text(_PUMPED_EMITTER + (
        "cavity.omega_cav = 1.05\ncavity.g = 0.3\n"
        "reservoir_u.gamma = 0.3\nreservoir_l.gamma = 0.3\n"
        "bath.gamma = 0.01\nbath.temperature = 0.05\nbath.occupation = effective\n"
    ))
    sweep = ["--config", str(path), "--sweep", "cavity.g=0.28:0.3:2"]
    exact = _cli_output(["quantum-ss", "--fock-cutoff", "40"] + sweep)
    mean_field = _cli_output(["laser"] + sweep)
    assert all(float(row["intensity"]) >= gate.LASING_MIN_PHOTONS for row in gate.rows(mean_field))
    verdict = gate.check_lasing(exact, mean_field, 2)
    assert verdict.samples == 2 and not verdict.errors and not verdict.wrong


def test_tracer_counts_the_error_rows_of_a_sweep():
    # --trace 1 iterates the result of thermo.sweep and reads .error on each item.
    tracer = _load("tracer")
    spec = thermo.default_violation_scenario()
    results = thermo.sweep(spec, {"drive.omega": (-1.0, 1.0, 5)})
    fake = SimpleNamespace(counts=Counter())
    tracer._count_sweep_errors(fake, (), {}, results)
    assert fake.counts == Counter({"thermo.sweep.errors.other": 3})
    assert [r.error is not None for r in results] == [True, True, True, False, False]


def test_the_tracer_hooks_run_on_real_arguments():
    # _count_unknowns and _count_matvecs bind the generator of steady_state and
    # evolve_quantum by name; _count_matvecs hands on replace(liouv, matrix=...) with
    # its counting CSR.  _count_nnz reads build_liouvillian(...).matrix.nnz and
    # _count_search the index of a find-violation result or the sample budget.
    tracer = _load("tracer")
    bound = (quantum.steady_state, quantum.evolve_quantum, thermo.find_violation_with_bare_energies)
    fake = SimpleNamespace(counts=Counter(), signatures={
        f"{f.__module__.rpartition('.')[2]}.{f.__name__}": inspect.signature(f) for f in bound
    })
    spec = build_system_spec(parse_config(_PUMPED_EMITTER + (
        "cavity.omega_cav = 1.05\ncavity.g = 0.2\ncavity.fock_cutoff = 4\n"
        "reservoir_u.gamma = 0.5\nreservoir_l.gamma = 0.5\n"
        "bath.gamma = 0.5\nbath.temperature = 0.3\nbath.occupation = effective\n"
    )))
    layout = quantum.HilbertLayout(4)
    liouv = quantum.build_sector_liouvillian(layout, spec)
    assert tracer._count_unknowns(fake, (liouv,), {}) == ((liouv,), {})
    state0 = quantum.thermal_state(layout, 0.0, 0.0, 0.0)
    args, kwargs = tracer._count_matvecs(fake, (state0,), {"liouvillian": liouv, "t_final": 1.0})
    counting = args[1].matrix
    assert isinstance(counting, tracer._CountingCSR) and counting.tracer is fake
    assert (counting != liouv.matrix).nnz == 0
    evolved = quantum.evolve_quantum(*args, **kwargs)
    assert np.array_equal(evolved.vector, quantum.evolve_quantum(state0, liouv, 1.0).vector)
    ops = quantum.build_operators(layout, spec)
    full = quantum.build_liouvillian(ops, spec)
    tracer._count_nnz(fake, (ops, spec), {}, full)
    result = thermo.find_violation_with_bare_energies(seed=1)
    tracer._count_search(fake, (), {"seed": 1}, result)
    tracer._count_search(fake, (), {"max_samples": 3}, None)
    assert fake.counts == Counter({
        "quantum.unknowns": 6 * 4 + 4,
        "quantum.liouvillian_nnz": full.matrix.nnz,
        "thermo.search.samples_tried": result.index + 1 + 3,
    })
