"""Command-line front end: scenario files in, CSV out.

Exit codes: 0 success, 2 configuration error, 3 solver error (no steady
state, or a state that is not stationary), 4 counterexample search
exhausted its budget.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import classical
from . import gain as gain_mod
from . import thermo
from .config import (
    ConfigError,
    build_system_spec,
    config_from_system_spec,
    format_cells,
    parse_config,
    resolve_parameter_key,
)
from .laser import solve_lasing
from .model import (
    SCENARIO_KEYS,
    EvolutionError,
    SteadyStateError,
    SystemSpec,
    raise_first,
    spec_columns,
    with_parameter,
)
FLUX_COLUMNS = (
    "R_ss",
    "Ndot_u",
    "Ndot_l",
    "Edot_u",
    "Edot_l",
    "Edot_b_or_P_S",
    "Eeff_u",
    "Eeff_l",
    "Eeff_ph",
    "Sdot_total",
    "law1_residual",
    "flags",
)


# Rows per block of the table writer: a block of a classical audit's rows takes
# about 1 MB.
_BLOCK_ROWS = 2048


def _table_bytes(header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterable[bytes]:
    """A CSV table as UTF-8 bytes: the header line, then one line per cell of ``columns[0]``.

    Each column holds one cell per row, or one 0-d cell that every row shares:
    floats, formatted here by ``config.format_cells``, or NumPy bytes (dtype
    ``S``) NUL padded to the column's width; NUL is no cell's text.  The cells
    of a block of rows are laid side by side in one buffer with the commas
    and newlines in place, and the padding of the block is stripped at once:
    no Python object is made per cell.
    """
    columns = [np.asarray(c) for c in columns]
    columns = [c if c.dtype.kind == "S" else format_cells(c.ravel()).reshape(c.shape)
               for c in columns]
    n = len(columns[0])
    cells = [np.ascontiguousarray(c).view(np.uint8).reshape(-1, c.itemsize) for c in columns]
    ends = np.cumsum([c.shape[1] + 1 for c in cells])  # one past each cell's separator
    rows = np.empty((min(n, _BLOCK_ROWS), ends[-1]), np.uint8)
    rows[:, ends - 1] = ord(",")
    rows[:, -1] = ord("\n")
    yield (",".join(header) + "\n").encode()
    for start in range(0, n, _BLOCK_ROWS):
        block = rows[: n - start]
        for c, end in zip(cells, ends):
            part = c if len(c) == 1 else c[start : start + len(block)]  # shared, or one a row
            block[:, end - 1 - c.shape[1] : end - 1] = part
        yield block.tobytes().translate(None, b"\0")


def _write_table(out: str | None, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write ``_table_bytes`` to the --out file, or else to standard output."""
    blocks = _table_bytes(header, columns)
    if out is None:
        for block in blocks:
            sys.stdout.write(block.decode("utf-8"))
        return
    try:
        with open(out, "wb") as file:
            file.writelines(blocks)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out!r}: {exc}") from exc


def _text(cells: Iterable[str]) -> np.ndarray:
    """A column of text cells, encoded as UTF-8."""
    return np.array([cell.encode("utf-8") for cell in cells], "S")


def _ids(n: int) -> np.ndarray:
    """The sample_id column: 0 to n - 1."""
    return np.arange(n).astype(f"S{len(str(n))}")


def _load_spec(args: argparse.Namespace) -> SystemSpec:
    """The scenario of --config, with any --fock-cutoff override applied to its cavity."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    spec = build_system_spec(parse_config(text))
    if getattr(args, "fock_cutoff", None) is not None and spec.cavity is not None:
        spec = with_parameter(spec, "cavity.fock_cutoff", args.fock_cutoff)
    return spec


_SECTIONS = {"classical": (("drive",), "a drive section"),
             "quantum": (("cavity", "bath"), "cavity and bath sections")}


def _require_sections(spec: SystemSpec, treatment: str, command: str | None = None) -> None:
    """ConfigError unless ``spec`` has the sections that ``treatment`` solves with.

    The message names ``command``, or else every command of the treatment.
    """
    names, sections = _SECTIONS[treatment]
    if any(getattr(spec, name) is None for name in names):
        subject = f"{command} command requires" if command else f"{treatment} commands require"
        raise ConfigError(f"{subject} {sections}")


def _parse_points(text: str, what: str, form: str) -> tuple[float, float, int]:
    """``lo:hi:n`` with n >= 1 as (lo, hi, n); ``what`` and ``form`` word the errors."""
    try:
        lo, hi, n = text.split(":")
        bounds = (float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigError(f"bad {what} (expected {form})") from exc
    if bounds[2] < 1:
        raise ConfigError(f"bad {what}: n must be at least 1")
    return bounds


def _parse_sweep(arg: str) -> tuple[str, tuple[float, float, int]]:
    key, _, rng = arg.partition("=")
    return resolve_parameter_key(key.strip()), _parse_points(
        rng, f"sweep spec {arg!r}", "key=lo:hi:n"
    )


def _parse_range(arg: str) -> tuple[str, tuple[float, float]]:
    try:
        key, _, rng = arg.partition("=")
        lo, hi = rng.split(":")
        bounds = (float(lo), float(hi))
    except ValueError as exc:
        raise ConfigError(f"bad range spec {arg!r} (expected key=lo:hi)") from exc
    return resolve_parameter_key(key.strip()), bounds


def _ranges(args: argparse.Namespace) -> dict[str, tuple]:
    """The one place that turns sampling flags into sampling ranges.

    --sweep key=lo:hi:n gives a grid axis, --range key=lo:hi a random
    interval.  ``audit`` samples --range keys only with --random N >= 1, and
    never together with --sweep; ``find-violation`` draws --max-samples
    N >= 1.  A key may be sampled once.
    """
    sweeps = getattr(args, "sweep", None) or []
    intervals = getattr(args, "range", None) or []
    if args.command == "audit":
        if args.random is None and intervals:
            raise ConfigError("--range requires --random N")
        if args.random is not None:
            if args.random < 1:
                raise ConfigError("--random N requires N >= 1")
            if sweeps:
                raise ConfigError("--random cannot be combined with --sweep")
            if not intervals:
                raise ConfigError("--random requires at least one --range key=lo:hi")
    if args.command == "find-violation" and args.max_samples < 1:
        raise ConfigError("--max-samples N requires N >= 1")
    ranges: dict[str, tuple] = {}
    for key, bounds in [_parse_sweep(a) for a in sweeps] + [_parse_range(a) for a in intervals]:
        if key in ranges:
            raise ConfigError(f"parameter {key!r} is sampled more than once")
        ranges[key] = bounds
    return ranges


def _param_columns(
    base: SystemSpec, ranges: dict[str, tuple], table: np.ndarray
) -> tuple[list[str], list[np.ndarray]]:
    """Parameter columns: the sampled columns of ``table`` overlaid on the base scenario's cells.

    The overlay is textual, so rows whose parameters do not form a valid
    spec still serialize.  A sampled cell shows the value as the solve used
    it, cast to its key's type; the base scenario's cell is every row's.
    """
    base_cfg = config_from_system_spec(base)
    keys = [k for k in SCENARIO_KEYS if k in base_cfg or k in ranges]
    sampled = dict(zip(ranges, table.T))
    cells = [
        (format_cells(sampled[k], int) if SCENARIO_KEYS[k] is int else sampled[k])
        if k in sampled else _text([base_cfg.get(k, "")]).reshape(())
        for k in keys
    ]
    return keys, cells


_FLAGS = ("violation", "cooling", "sign_law_violated", "carnot_violated")


def _flags_text(regime: str, marks: int) -> str:
    """The flags cell: the regime, then each flag whose bit is set in ``marks``."""
    return ";".join([f"regime={regime}"] + [f for bit, f in enumerate(_FLAGS) if marks >> bit & 1])


# The flags cell of regime r and flag bits m is entry 16 r + m.
_FLAGS_CELLS = [_flags_text(r, m) for r in thermo.REGIMES for m in range(1 << len(_FLAGS))]


def _flux_columns(table: thermo.SweepColumns) -> list[np.ndarray]:
    """The FLUX_COLUMNS cells; a failed sample reads nan and its error."""
    n = len(table)
    failed = []
    if table.errors.count(None) < n:
        failed = [i for i, error in enumerate(table.errors) if error is not None]
    columns, flags = [math.nan] * (len(FLUX_COLUMNS) - 1), np.zeros(n, np.intp)
    if table.flux is not None:
        flux, regime = table.flux, table.regime
        names = ("rate", "ndot_u", "ndot_l", "edot_u", "edot_l", "edot_opt",
                 "e_eff_u", "e_eff_l", "e_eff_ph")
        columns = [getattr(flux, f) for f in names]
        columns += [table.entropy_total, flux.first_law_residual]
        if failed:
            ok = np.bincount(failed, minlength=n) == 0
            columns = [np.where(ok, column, math.nan) for column in columns]
        # The checks are None where they do not apply; only False is a violation.
        checks = (table.entropy_total < -thermo.VIOLATION_TOL, regime.cooling,
                  regime.sign_law_ok == False, regime.carnot_ok == False)  # noqa: E712
        labels = np.broadcast_to(regime.regime, n)
        for i, label in enumerate(thermo.REGIMES):
            flags += (labels == label) * (i << len(_FLAGS))
        for bit, check in enumerate(checks):
            flags += np.broadcast_to(check, n).astype(np.intp) << bit
    errors = ["error=" + thermo.describe(table.errors[i]).replace(",", ";") for i in failed]
    flags[failed] = len(_FLAGS_CELLS) + np.arange(len(failed))
    # Only the cells in use are encoded, so the column is as wide as its longest.
    used = np.bincount(flags, minlength=len(_FLAGS_CELLS) + len(failed)) > 0
    cells = _text(itertools.compress(_FLAGS_CELLS + errors, used))
    return columns + [cells.take(np.cumsum(used).take(flags) - 1)]


def _write_audit(args: argparse.Namespace, ids, keys, param_cells, table) -> None:
    columns = [ids] + param_cells + _flux_columns(table)
    _write_table(args.out, ["sample_id"] + keys + list(FLUX_COLUMNS), columns)


def _cmd_audit(args: argparse.Namespace, solve: str | None = None) -> int:
    """Audit the sampled points, one row each.

    ``classical-ss`` and ``quantum-ss`` pass their treatment as ``solve``;
    a point that fails is then the command's error, not an error row.
    """
    base = _load_spec(args)
    treatment = solve or args.treatment or ("quantum" if base.cavity is not None else "classical")
    if treatment == "classical" and getattr(args, "fock_cutoff", None) is not None:
        raise ConfigError("--fock-cutoff applies to the quantum treatment only")
    _require_sections(base, treatment)
    ranges = _ranges(args)
    table = thermo.sweep(base, ranges, treatment, getattr(args, "random", None),
                         getattr(args, "seed", 0))
    if solve:
        raise_first(table.errors)
    keys, param_cells = _param_columns(base, ranges, table.values)
    _write_audit(args, _ids(len(table)), keys, param_cells, table)
    return 0


def _evolve_times(args: argparse.Namespace) -> list[float]:
    """The --n-store evenly spaced times from 0 to --t-final.

    Each time is the running sum of the segments before it, so the t column
    reads the same whatever advances the state.
    """
    if args.n_store < 2:
        raise ConfigError("--n-store must be at least 2 (the initial and the final state)")
    if not (math.isfinite(args.t_final) and args.t_final >= 0):
        raise ConfigError(f"--t-final must be finite and non-negative, not {args.t_final!r}")
    seg = args.t_final / (args.n_store - 1)
    return list(itertools.accumulate(itertools.repeat(seg, args.n_store - 1), initial=0.0))


def _cmd_classical_evolve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    _require_sections(spec, "classical")
    times = _evolve_times(args)
    state0 = classical.BlochState(args.sigma_uu0, args.sigma_ll0, 0.0 + 0.0j)
    rows = classical.trajectory(state0, spec, args.t_final, args.n_store)
    header = ["t", "sigma_uu", "sigma_ll", "re_sigma_ul", "im_sigma_ul"]
    _write_table(args.out, header, [times, *rows.T])
    return 0


def _cmd_quantum_evolve(args: argparse.Namespace) -> int:
    from .quantum import (
        HilbertLayout,
        build_sector_liouvillian,
        stacked_observables,
        thermal_state,
        trajectory,
    )

    spec = _load_spec(args)
    _require_sections(spec, "quantum")
    times = _evolve_times(args)
    layout = HilbertLayout(spec.cavity.fock_cutoff)
    liouv = build_sector_liouvillian(layout, spec)
    states = trajectory(thermal_state(layout, 0.0, 0.0, 0.0), liouv, args.t_final, args.n_store)
    obs = stacked_observables(states, liouv.pattern, spec)
    columns = [times, obs.sigma_uu, obs.sigma_ll, obs.n_ph, obs.rate]
    _write_table(args.out, ["t", "sigma_uu", "sigma_ll", "n_ph", "rate"], columns)
    return 0


def _cmd_laser(args: argparse.Namespace) -> int:
    base = _load_spec(args)
    _require_sections(base, "quantum", "laser")
    ranges = _ranges(args)
    keys, table = thermo.sample_table(ranges)
    names, param_cells = _param_columns(base, ranges, table)
    spec = spec_columns(base, keys, table)
    sol = solve_lasing(spec)
    raise_first(spec.errors)
    columns = [sol.omega, abs(sol.a_ss), sol.intensity, np.where(sol.above_threshold, b"1", b"0")]
    header = ["sample_id"] + names + ["omega", "a_ss", "intensity", "above_threshold"]
    _write_table(args.out, header, [_ids(len(table)), *param_cells, *columns])
    return 0


def _parse_occupation_arg(text: str) -> gain_mod.SubbandOccupation:
    kind, _, params = text.partition(":")
    fields: dict[str, float] = {}
    if params:
        for item in params.split(","):
            name, _, value = item.partition("=")
            if not value:
                raise ConfigError(f"bad occupation parameter {item!r}")
            fields[name.strip()] = float(value)
    try:
        if kind == "fermi":
            occupation = gain_mod.FermiOccupation(temperature=fields.pop("T"), mu=fields.pop("mu"))
        elif kind == "linear":
            occupation = gain_mod.LinearOccupation(f0=fields.pop("f0"), slope=fields.pop("slope"))
        else:
            raise ConfigError(f"unknown occupation form {kind!r} (use fermi:... or linear:...)")
    except KeyError as exc:
        raise ConfigError(f"occupation {text!r} is missing parameter {exc}") from exc
    if fields:
        raise ConfigError(f"occupation {text!r} has unknown parameter(s) {', '.join(fields)}")
    return occupation


def _cmd_bloch_gain(args: argparse.Namespace) -> int:
    if args.equal_occupations:
        f_up = f_low = _parse_occupation_arg(args.equal_occupations)
    elif args.f_upper and args.f_lower:
        f_up, f_low = _parse_occupation_arg(args.f_upper), _parse_occupation_arg(args.f_lower)
    else:
        raise ConfigError("provide --equal-occupations or both --f-upper and --f-lower")
    lo, hi, n = _parse_points(args.grid, f"grid spec {args.grid!r}", "lo:hi:n")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"bad grid spec {args.grid!r}: bounds must be finite")
    grid = np.linspace(lo, hi, n)
    spectrum = gain_mod.gain_spectrum(args.e_k0, grid, args.gamma_u, args.gamma_l, f_up, f_low)
    columns = [_ids(len(grid)), spectrum.detunings, spectrum.rates]
    _write_table(args.out, ["sample_id", "delta", "rate"], columns)
    return 0


def _cmd_find_violation(args: argparse.Namespace) -> int:
    result = thermo.find_violation_with_bare_energies(
        ranges=_ranges(args) or None,
        seed=args.seed,
        base=_load_spec(args) if args.config else None,
        max_samples=args.max_samples,
    )
    if result is None:
        sys.stderr.write("no second-law violation found within the sample budget\n")
        return 4
    cfg = config_from_system_spec(result.spec)
    table = thermo.SweepColumns(
        (), np.empty((1, 0)), [None], result.flux, result.entropy_total, result.regime
    )
    cells = [_text([v]) for v in cfg.values()]
    _write_audit(args, _text([str(result.index)]), list(cfg), cells, table)
    return 0


@functools.cache  # every ``append`` option defaults to None: no list is shared between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detuned-tls",
        description="Steady states, fluxes, and thermodynamic audits of a "
        "detuned two-level emitter coupled to reservoirs and an optical mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True, seed: bool = False,
               cutoff: bool = False) -> None:
        p.add_argument("--config", required=config_required, help="scenario file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
        if cutoff:
            p.add_argument("--fock-cutoff", type=int, default=None, help="override Fock cutoff")

    def sweep_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sweep", action="append", metavar="KEY=LO:HI:N")

    p = sub.add_parser("classical-ss", help="classical steady state and fluxes")
    common(p)
    sweep_flag(p)

    def evolve_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--t-final", type=float, required=True)
        p.add_argument("--n-store", type=int, default=51, help="number of stored rows")

    p = sub.add_parser("classical-evolve", help="classical time evolution")
    common(p)
    evolve_flags(p)
    p.add_argument("--sigma-uu0", type=float, default=0.0)
    p.add_argument("--sigma-ll0", type=float, default=0.0)

    p = sub.add_parser("quantum-ss", help="quantum steady state and fluxes")
    common(p, cutoff=True)
    sweep_flag(p)

    p = sub.add_parser("quantum-evolve", help="quantum time evolution from vacuum")
    common(p, cutoff=True)
    evolve_flags(p)

    p = sub.add_parser("laser", help="mean-field lasing solution")
    common(p)
    sweep_flag(p)

    p = sub.add_parser("bloch-gain", help="net transition rate over a detuning grid")
    p.add_argument("--out", default=None)
    p.add_argument("--e-k0", type=float, required=True, help="in-plane energy")
    p.add_argument("--gamma-u", type=float, required=True)
    p.add_argument("--gamma-l", type=float, required=True)
    p.add_argument("--grid", required=True, metavar="LO:HI:N")
    p.add_argument("--equal-occupations", default=None, metavar="SPEC")
    p.add_argument("--f-upper", default=None, metavar="SPEC")
    p.add_argument("--f-lower", default=None, metavar="SPEC")

    p = sub.add_parser("audit", help="entropy audit over a parameter sweep")
    common(p, seed=True, cutoff=True)
    p.add_argument("--treatment", choices=("classical", "quantum"), default=None)
    sweep_flag(p)
    p.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--range", action="append", metavar="KEY=LO:HI")

    p = sub.add_parser(
        "find-violation", help="search for a second-law violation with bare occupations"
    )
    common(p, config_required=False, seed=True)
    p.add_argument("--max-samples", type=int, default=2000)
    p.add_argument("--range", action="append", metavar="KEY=LO:HI")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classical-ss": lambda a: _cmd_audit(a, "classical"),
        "classical-evolve": _cmd_classical_evolve,
        "quantum-ss": lambda a: _cmd_audit(a, "quantum"),
        "quantum-evolve": _cmd_quantum_evolve,
        "laser": _cmd_laser,
        "bloch-gain": _cmd_bloch_gain,
        "audit": _cmd_audit,
        "find-violation": _cmd_find_violation,
    }
    try:
        return handlers[args.command](args)
    except (SteadyStateError, EvolutionError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
