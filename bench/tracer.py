"""Span tracer that instruments the detuned_tls package from outside.

``Tracer.install`` replaces each function listed in ``SPANNED`` with a wrapper
that records a span (name, start, end, parent span, command id) and each
function in ``COUNTED`` with a wrapper that only counts calls.  The wrapper is
bound in every ``detuned_tls.*`` namespace that holds the original: ``cli`` and
``thermo`` import functions by name, so patching only the defining module would
miss their calls.  ``uninstall`` restores the originals.

Spans stay in memory; ``write_spans`` writes them out when the run ends.  A
span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace

import scipy.sparse as sp

PACKAGE = "detuned_tls"

# Layer module -> public functions recorded as spans.  ``gain`` is left out on
# purpose; see README.md.
SPANNED = {
    "cli": ("main",),
    "config": ("config_from_system_spec",),
    "model": ("with_parameter", "resolve_occupations"),
    "classical": ("steady_state_closed_form", "fluxes_classical"),
    "quantum": (
        "build_operators",
        "build_liouvillian",
        "steady_state",
        "quantum_steady_state",
        "fluxes_quantum",
        "observables",
        "evolve_quantum",
    ),
    "laser": ("solve_lasing",),
    "thermo": (
        "entropy_report",
        "classify_regime",
        "sweep",
        "find_violation_with_bare_energies",
    ),
}

# Called too often for a span each; only the calls are counted.
COUNTED = {"config": ("format_number",)}

# Per-layer metrics reported by a traced run, with their units.  Keep in step
# with the ``per_layer`` list of BENCHMARK.json.
PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "config.format_number.calls": "count",
    "config.config_from_system_spec.self_s": "s",
    "model.with_parameter.calls": "count",
    "model.with_parameter.self_s": "s",
    "model.resolve_occupations.calls": "count",
    "model.resolve_occupations.self_s": "s",
    "classical.steady_state_closed_form.calls": "count",
    "classical.steady_state_closed_form.self_s": "s",
    "classical.fluxes_classical.calls": "count",
    "classical.fluxes_classical.self_s": "s",
    "thermo.entropy_report.calls": "count",
    "thermo.entropy_report.self_s": "s",
    "thermo.classify_regime.calls": "count",
    "thermo.classify_regime.self_s": "s",
    "thermo.sweep.self_s": "s",
    "thermo.search.samples_tried": "count",
    "thermo.sweep.errors.FockCutoffError": "count",
    "thermo.sweep.errors.RuntimeError": "count",
    "thermo.sweep.errors.other": "count",
    "quantum.build_operators.self_s": "s",
    "quantum.build_liouvillian.calls": "count",
    "quantum.build_liouvillian.self_s": "s",
    "quantum.steady_state.calls": "count",
    "quantum.steady_state.self_s": "s",
    "quantum.unknowns": "count",
    "quantum.liouvillian_nnz": "count",
    "quantum.quantum_steady_state.calls": "count",
    "quantum.quantum_steady_state.p50_ms": "ms",
    "quantum.quantum_steady_state.p90_ms": "ms",
    "quantum.enlargements": "count",
    "quantum.attempt_yield": "ratio",
    "quantum.fluxes_quantum.self_s": "s",
    "quantum.observables.self_s": "s",
    "quantum.evolve_quantum.self_s": "s",
    "quantum.rk4_steps": "count",
    "quantum.matvec_bytes": "bytes",
    "laser.solve_lasing.calls": "count",
    "laser.solve_lasing.self_s": "s",
    "trace.overhead_s": "s",
}

_SPANNED_NAMES = frozenset(f"{layer}.{fn}" for layer, fns in SPANNED.items() for fn in fns)

# Metrics that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes"))

_SWEEP_ERROR_TYPES = ("FockCutoffError", "RuntimeError")

# Span record fields.
NAME, START, END, PARENT, COMMAND, ERROR, CHILD = range(7)


class _CountingCSR(sp.csr_matrix):
    """CSR matrix that counts its sparse matrix-vector products.

    Matrices derived from it (``abs``, sums) do not count: ``tracer`` is set
    on the instance handed to the program only.
    """

    tracer = None

    def __matmul__(self, other):
        result = super().__matmul__(other)
        if self.tracer is not None:
            counts = self.tracer.counts
            counts["quantum.matvecs"] += 1
            counts["quantum.matvec_bytes"] += (
                self.data.nbytes
                + self.indices.nbytes
                + self.indptr.nbytes
                + other.nbytes
                + result.nbytes
            )
        return result


def _count_matvecs(tracer, args, kwargs):
    bound = tracer.signatures["quantum.evolve_quantum"].bind(*args, **kwargs)
    liouv = bound.arguments["liouvillian"]
    matrix = _CountingCSR(liouv.matrix)
    matrix.tracer = tracer
    bound.arguments["liouvillian"] = replace(liouv, matrix=matrix)
    return bound.args, bound.kwargs


def _count_unknowns(tracer, args, kwargs):
    liouv = tracer.signatures["quantum.steady_state"].bind(*args, **kwargs).arguments[
        "liouvillian"
    ]
    tracer.counts["quantum.unknowns"] += liouv.matrix.shape[0]
    return args, kwargs


def _count_nnz(tracer, args, kwargs, result):
    tracer.counts["quantum.liouvillian_nnz"] += result.matrix.nnz


def _count_sweep_errors(tracer, args, kwargs, result):
    for res in result:
        if res.error is not None:
            kind = res.error.split(":", 1)[0]
            bucket = kind if kind in _SWEEP_ERROR_TYPES else "other"
            tracer.counts[f"thermo.sweep.errors.{bucket}"] += 1


def _count_search(tracer, args, kwargs, result):
    bound = tracer.signatures["thermo.find_violation_with_bare_energies"].bind(*args, **kwargs)
    bound.apply_defaults()
    tried = bound.arguments["max_samples"] if result is None else result.index + 1
    tracer.counts["thermo.search.samples_tried"] += tried


# name -> hook run before the call; it may substitute the arguments.
_BEFORE = {
    "quantum.evolve_quantum": _count_matvecs,
    "quantum.steady_state": _count_unknowns,
}
# name -> hook run on the result of a call that returned.
_AFTER = {
    "quantum.build_liouvillian": _count_nnz,
    "thermo.sweep": _count_sweep_errors,
    "thermo.find_violation_with_bare_energies": _count_search,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.command = 0
        self.signatures: dict[str, inspect.Signature] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, names in SPANNED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                self.signatures[name] = inspect.signature(original)
                self._rebind(modules, original, self._spanned(name, original))
        for layer, names in COUNTED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                self._rebind(modules, original, self._counted(f"{layer}.{fname}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _counted(self, name, fn):
        key = f"{name}.calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        spans = self.spans
        stack = self._stack
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.command, None, 0]
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
                if record[PARENT] >= 0:
                    spans[record[PARENT]][CHILD] += record[END] - record[START]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counts recorded since the last call; resets both."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list[list], counts: Counter) -> tuple[dict[str, float], list[float]]:
    """Per-layer metrics of one traced pass, plus its quantum_steady_state times (ms).

    Times are seconds of self time summed over the pass.  ``cli.bytes_out``
    and ``trace.overhead_s`` are filled in by the caller.
    """
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for record in spans:
        calls[record[NAME]] += 1
        self_ns[record[NAME]] += record[END] - record[START] - record[CHILD]

    solve_ms = []
    enlargements = 0
    attempts = sum(1 for r in spans if r[NAME] == "quantum.steady_state")
    solved = sum(1 for r in spans if r[NAME] == "quantum.steady_state" and r[ERROR] is None)
    children: Counter = Counter(
        r[PARENT] for r in spans if r[NAME] == "quantum.steady_state" and r[PARENT] >= 0
    )
    for index, record in enumerate(spans):
        if record[NAME] == "quantum.quantum_steady_state":
            solve_ms.append((record[END] - record[START]) / 1e6)
            enlargements += max(0, children[index] - 1)

    metrics: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        function, _, stat = name.rpartition(".")
        if stat == "self_s":
            metrics[name] = self_ns[function] / 1e9
        elif stat == "calls" and function in _SPANNED_NAMES:
            metrics[name] = calls[function]
        else:
            metrics[name] = counts.get(name, 0)
    metrics["quantum.enlargements"] = enlargements
    metrics["quantum.attempt_yield"] = solved / attempts if attempts else 0.0
    metrics["quantum.rk4_steps"] = counts.get("quantum.matvecs", 0) // 4
    return metrics, solve_ms


def percentile_ms(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def write_spans(path, spans: list[list]) -> None:
    """Write spans as gzipped CSV.

    Columns: index, name, start_ns, end_ns, parent, command, error, self_ns.
    """
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("index,name,start_ns,end_ns,parent,command,error,self_ns\n")
        for index, r in enumerate(spans):
            self_ns = r[END] - r[START] - r[CHILD]
            fh.write(
                f"{index},{r[NAME]},{r[START]},{r[END]},{r[PARENT]},{r[COMMAND]},"
                f"{r[ERROR] or ''},{self_ns}\n"
            )
