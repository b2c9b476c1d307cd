"""Command-line front end: scenario files in, CSV out.

Exit codes: 0 success, 2 configuration error, 3 solver error (no steady
state, or a state that is not stationary), 4 counterexample search
exhausted its budget.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import gain as gain_mod
from . import thermo
from .classical import BlochState, evolve
from .config import (
    ConfigError,
    build_system_spec,
    config_from_system_spec,
    format_column,
    format_number,
    parse_config,
    resolve_parameter_key,
)
from .laser import solve_lasing
from .model import (
    SCENARIO_KEYS,
    SystemSpec,
    with_parameter,
    with_parameters,
)
from .quantum import (
    EvolutionError,
    HilbertLayout,
    SteadyStateError,
    build_sector_liouvillian,
    evolve_quantum,
    sector_observables,
    thermal_state,
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


def _write_rows(out: str | None, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_spec(args: argparse.Namespace) -> SystemSpec:
    """The scenario of --config, with the --fock-cutoff override applied to its cavity."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    spec = build_system_spec(parse_config(text))
    if args.fock_cutoff is not None and spec.cavity is not None:
        spec = with_parameter(spec, "cavity.fock_cutoff", args.fock_cutoff)
    return spec


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
    """The one place that turns sampling flags into sampler ranges.

    --sweep key=lo:hi:n gives a grid axis, --range key=lo:hi a random
    interval.  ``audit`` samples --range keys only with --random N >= 1, and
    never together with --sweep.  A key may be sampled once.
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
    ranges: dict[str, tuple] = {}
    for key, bounds in [_parse_sweep(a) for a in sweeps] + [_parse_range(a) for a in intervals]:
        if key in ranges:
            raise ConfigError(f"parameter {key!r} is sampled more than once")
        ranges[key] = bounds
    return ranges


def _param_columns(
    base: SystemSpec, ranges: dict[str, tuple], table: np.ndarray
) -> tuple[list[str], list[list[str]]]:
    """Parameter columns: the sampled columns of ``table`` overlaid on the base scenario's cells.

    The overlay is textual, so rows whose parameters do not form a valid
    spec still serialize.  A sampled cell shows the value as the solve used
    it, cast to its key's type.
    """
    base_cfg = config_from_system_spec(base)
    keys = [k for k in SCENARIO_KEYS if k in base_cfg or k in ranges]
    sampled, n = dict(zip(ranges, table.T)), len(table)
    cells = [
        format_column(sampled[k], SCENARIO_KEYS[k]) if k in sampled else [base_cfg.get(k, "")] * n
        for k in keys
    ]
    return keys, cells


_FLAGS = ("violation", "cooling", "sign_law_violated", "carnot_violated")


@functools.cache  # three regimes times 16 flag sets at most
def _flags_text(regime: str, marks: int) -> str:
    """The flags cell: the regime, then each flag whose bit is set in ``marks``."""
    return ";".join([f"regime={regime}"] + [f for bit, f in enumerate(_FLAGS) if marks >> bit & 1])


def _flux_columns(table: thermo.SweepColumns, tol: float) -> list[list[str]]:
    """The FLUX_COLUMNS cells, one column at a time; a failed sample reads nan and its error."""
    n = len(table)
    columns = [["nan"] * n for _ in FLUX_COLUMNS]
    if table.flux is not None:
        flux, regime = table.flux, table.regime
        names = ("rate", "ndot_u", "ndot_l", "edot_u", "edot_l", "edot_opt",
                 "e_eff_u", "e_eff_l", "e_eff_ph")
        numbers = [getattr(flux, f) for f in names]
        numbers += [table.entropy_total, flux.first_law_residual]
        columns = [format_column(np.broadcast_to(v, n)) for v in numbers]
        # The checks are None where they do not apply; only False is a violation.
        flagged = (table.entropy_total < -tol, regime.cooling,
                   regime.sign_law_ok == False, regime.carnot_ok == False)  # noqa: E712
        marks = sum(np.broadcast_to(f, n).astype(int) << bit for bit, f in enumerate(flagged))
        labels = np.broadcast_to(regime.regime, n).tolist()
        columns.append(list(map(_flags_text, labels, marks.tolist())))
    for i, error in enumerate(table.errors):
        if error is not None:
            for column in columns:
                column[i] = "nan"
            columns[-1][i] = "error=" + thermo.describe(error).replace(",", ";")
    return columns


def _write_audit(args: argparse.Namespace, ids, keys, param_cells, table) -> None:
    columns = [ids] + param_cells + _flux_columns(table, args.tolerance)
    _write_rows(args.out, ["sample_id"] + keys + list(FLUX_COLUMNS), zip(*columns))


def _cmd_audit(args: argparse.Namespace, solve: str | None = None) -> int:
    """Audit the sampled points, one row each.

    ``classical-ss`` and ``quantum-ss`` pass their treatment as ``solve``;
    a point that fails is then the command's error, not an error row.
    """
    base = _load_spec(args)
    if solve == "classical" and base.drive is None:
        raise ConfigError("classical commands require a drive section")
    if solve == "quantum" and (base.cavity is None or base.bath is None):
        raise ConfigError("quantum commands require cavity and bath sections")
    treatment = solve or args.treatment or ("quantum" if base.cavity is not None else "classical")
    ranges = _ranges(args)
    n_random = getattr(args, "random", None)
    sampler = "grid" if n_random is None else "random"
    table = thermo.sweep(base, ranges, treatment, sampler, n_random, args.seed, args.tolerance)
    failure = next((e for e in table.errors if e is not None), None)
    if solve and failure is not None:
        raise failure
    keys, param_cells = _param_columns(base, ranges, table.values)
    _write_audit(args, list(map(str, range(len(table)))), keys, param_cells, table)
    return 0


def _evolve_rows(args: argparse.Namespace, state, step, observe) -> list[list[str]]:
    """Rows at --n-store evenly spaced times from 0 to --t-final.

    ``step(state, seg)`` advances the state by one segment; a row is t
    followed by ``observe(state)``.
    """
    if args.n_store < 2:
        raise ConfigError("--n-store must be at least 2 (the initial and the final state)")
    if not (math.isfinite(args.t_final) and args.t_final >= 0):
        raise ConfigError(f"--t-final must be finite and non-negative, not {args.t_final!r}")
    seg = args.t_final / (args.n_store - 1)
    rows = []
    t = 0.0
    for i in range(args.n_store):
        if i > 0:
            state = step(state, seg)
            t += seg
        rows.append([format_number(t)] + [format_number(v) for v in observe(state)])
    return rows


def _cmd_classical_evolve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if spec.drive is None:
        raise ConfigError("classical commands require a drive section")
    rows = _evolve_rows(
        args,
        BlochState(args.sigma_uu0, args.sigma_ll0, 0.0 + 0.0j),
        lambda state, seg: evolve(state, spec, seg),
        lambda s: (s.sigma_uu, s.sigma_ll, s.sigma_ul.real, s.sigma_ul.imag),
    )
    _write_rows(args.out, ["t", "sigma_uu", "sigma_ll", "re_sigma_ul", "im_sigma_ul"], rows)
    return 0


def _cmd_quantum_evolve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if spec.cavity is None or spec.bath is None:
        raise ConfigError("quantum commands require cavity and bath sections")
    layout = HilbertLayout(spec.cavity.fock_cutoff)
    liouv = build_sector_liouvillian(layout, spec)

    def observe(state):
        obs = sector_observables(state, spec)
        return obs.sigma_uu, obs.sigma_ll, obs.n_ph, obs.rate

    rows = _evolve_rows(
        args,
        thermal_state(layout, 0.0, 0.0, 0.0),
        lambda state, seg: evolve_quantum(state, liouv, seg),
        observe,
    )
    _write_rows(args.out, ["t", "sigma_uu", "sigma_ll", "n_ph", "rate"], rows)
    return 0


def _cmd_laser(args: argparse.Namespace) -> int:
    base = _load_spec(args)
    if base.cavity is None or base.bath is None:
        raise ConfigError("laser command requires cavity and bath sections")
    ranges = _ranges(args)
    keys, table = thermo.sample_table(ranges, "grid", None, 0)
    names, param_cells = _param_columns(base, ranges, table)
    sols = [solve_lasing(with_parameters(base, dict(zip(keys, map(float, row))))) for row in table]
    columns = [format_column([getattr(s, f) for s in sols]) for f in ("omega", "intensity")]
    columns.insert(1, format_column([abs(s.a_ss) for s in sols]))
    columns.append(["1" if s.above_threshold else "0" for s in sols])
    header = ["sample_id"] + names + ["omega", "a_ss", "intensity", "above_threshold"]
    _write_rows(args.out, header, zip(map(str, range(len(table))), *param_cells, *columns))
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
    else:
        if not (args.f_upper and args.f_lower):
            raise ConfigError("provide --equal-occupations or both --f-upper and --f-lower")
        f_up = _parse_occupation_arg(args.f_upper)
        f_low = _parse_occupation_arg(args.f_lower)
    grid = np.linspace(*_parse_points(args.grid, f"grid spec {args.grid!r}", "lo:hi:n"))
    spectrum = gain_mod.gain_spectrum(args.e_k0, grid, args.gamma_u, args.gamma_l, f_up, f_low)
    columns = map(format_column, (spectrum.detunings, spectrum.rates))
    ids = map(str, range(len(grid)))
    _write_rows(args.out, ["sample_id", "delta", "rate"], zip(ids, *columns))
    return 0


def _cmd_find_violation(args: argparse.Namespace) -> int:
    result = thermo.find_violation_with_bare_energies(
        ranges=_ranges(args) or None,
        seed=args.seed,
        base=_load_spec(args) if args.config else None,
        max_samples=args.max_samples,
        tolerance=args.tolerance,
    )
    if result is None:
        sys.stderr.write("no second-law violation found within the sample budget\n")
        return 4
    cfg = config_from_system_spec(result.spec)
    table = thermo.SweepColumns.stack(
        [(result.flux, result.entropy_total, result.regime)], args.tolerance
    )
    _write_audit(args, [str(result.index)], list(cfg), [[v] for v in cfg.values()], table)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detuned-tls",
        description="Steady states, fluxes, and thermodynamic audits of a "
        "detuned two-level emitter coupled to reservoirs and an optical mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required, help="scenario file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
        p.add_argument("--fock-cutoff", type=int, default=None, help="override Fock cutoff")
        p.add_argument(
            "--tolerance", type=float, default=1e-10, help="entropy-violation tolerance"
        )

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
    common(p)
    sweep_flag(p)

    p = sub.add_parser("quantum-evolve", help="quantum time evolution from vacuum")
    common(p)
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
    common(p)
    p.add_argument("--treatment", choices=("classical", "quantum"), default=None)
    sweep_flag(p)
    p.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--range", action="append", metavar="KEY=LO:HI")

    p = sub.add_parser(
        "find-violation", help="search for a second-law violation with bare occupations"
    )
    common(p, config_required=False)
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
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (SteadyStateError, EvolutionError, RuntimeError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
