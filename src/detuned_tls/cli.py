"""Command-line front end: scenario files in, CSV out.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 counterexample search exhausted its budget.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import gain as gain_mod
from . import thermo
from .classical import BlochState, evolve
from .config import (
    ConfigError,
    build_system_spec,
    config_from_system_spec,
    format_number,
    parse_config,
    resolve_parameter_key,
)
from .laser import solve_lasing
from .model import SCENARIO_KEYS, SystemSpec, resolve_occupations, with_parameters
from .quantum import (
    EvolutionError,
    HilbertLayout,
    SteadyStateError,
    build_liouvillian,
    build_operators,
    evolve_quantum,
    observables,
    thermal_product_state,
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


def _write_rows(out: str | None, header: list[str], rows: list[list[str]]) -> None:
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_spec(path: str) -> SystemSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return build_system_spec(parse_config(text))


def _parse_sweep(arg: str) -> tuple[str, tuple[float, float, int]]:
    try:
        key, _, rng = arg.partition("=")
        lo, hi, n = rng.split(":")
        bounds = (float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigError(f"bad sweep spec {arg!r} (expected key=lo:hi:n)") from exc
    if bounds[2] < 1:
        raise ConfigError(f"bad sweep spec {arg!r}: n must be at least 1")
    return resolve_parameter_key(key.strip()), bounds


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


def _grid_specs(base: SystemSpec, args: argparse.Namespace) -> list[SystemSpec]:
    """The --sweep grid applied to ``base``; just ``base`` without --sweep."""
    points = thermo.sample_points(_ranges(args), "grid", None, 0)
    return [with_parameters(base, params) for params in points]


def _param_columns(specs: Sequence[SystemSpec]) -> tuple[list[str], list[list[str]]]:
    configs = [config_from_system_spec(s).values for s in specs]
    keys = list(configs[0])
    cells = [[cfg[k] for k in keys] for cfg in configs]
    return keys, cells


def _flags_text(total: float, regime: thermo.RegimeReport, tol: float) -> str:
    flags = [f"regime={regime.regime}"]
    if total < -tol:
        flags.append("violation")
    if regime.cooling:
        flags.append("cooling")
    if regime.sign_law_ok is False:
        flags.append("sign_law_violated")
    if regime.carnot_ok is False:
        flags.append("carnot_violated")
    return ";".join(flags)


def _flux_row(sample_id: int, params: list[str], flux, total, regime, tol: float) -> list[str]:
    return (
        [str(sample_id)]
        + params
        + [
            format_number(flux.rate),
            format_number(flux.ndot_u),
            format_number(flux.ndot_l),
            format_number(flux.edot_u),
            format_number(flux.edot_l),
            format_number(flux.edot_opt),
            format_number(flux.e_eff_u),
            format_number(flux.e_eff_l),
            format_number(flux.e_eff_ph),
            format_number(total),
            format_number(flux.first_law_residual),
            _flags_text(total, regime, tol),
        ]
    )


def _cmd_steady_state(args: argparse.Namespace, treatment: str) -> int:
    base = _load_spec(args.config)
    if treatment == "classical" and base.drive is None:
        raise ConfigError("classical commands require a drive section")
    if treatment == "quantum" and (base.cavity is None or base.bath is None):
        raise ConfigError("quantum commands require cavity and bath sections")
    specs = _grid_specs(base, args)
    keys, param_cells = _param_columns(specs)
    rows = []
    for sample_id, (spec, cells) in enumerate(zip(specs, param_cells)):
        flux, entropy, regime = thermo.audit_point(spec, treatment, args.fock_cutoff)
        rows.append(_flux_row(sample_id, cells, flux, entropy.total, regime, args.tolerance))
    _write_rows(args.out, ["sample_id"] + keys + list(FLUX_COLUMNS), rows)
    return 0


def _cmd_classical_evolve(args: argparse.Namespace) -> int:
    spec = _load_spec(args.config)
    if spec.drive is None:
        raise ConfigError("classical commands require a drive section")
    state0 = BlochState(args.sigma_uu0, args.sigma_ll0, 0.0 + 0.0j)
    traj = evolve(state0, spec, args.t_final, dt=args.dt)
    rows = [
        [
            format_number(float(t)),
            format_number(float(uu)),
            format_number(float(ll)),
            format_number(complex(ul).real),
            format_number(complex(ul).imag),
        ]
        for t, uu, ll, ul in zip(traj.t, traj.sigma_uu, traj.sigma_ll, traj.sigma_ul)
    ]
    _write_rows(args.out, ["t", "sigma_uu", "sigma_ll", "re_sigma_ul", "im_sigma_ul"], rows)
    return 0


def _cmd_quantum_evolve(args: argparse.Namespace) -> int:
    spec = _load_spec(args.config)
    if spec.cavity is None or spec.bath is None:
        raise ConfigError("quantum commands require cavity and bath sections")
    cutoff = args.fock_cutoff if args.fock_cutoff is not None else spec.cavity.fock_cutoff
    layout = HilbertLayout(cutoff)
    ops = build_operators(layout, spec)
    occ = resolve_occupations(spec, "quantum")
    liouv = build_liouvillian(ops, spec, occ)
    rho = thermal_product_state(layout, 0.0, 0.0, 0.0)

    n_segments = max(1, args.n_store - 1)
    seg = args.t_final / n_segments
    rows = []
    t = 0.0
    for i in range(args.n_store):
        if i > 0:
            rho = evolve_quantum(rho, liouv, seg, dt=args.dt).rho
            t += seg
        obs = observables(rho, ops, spec)
        rows.append(
            [
                format_number(t),
                format_number(obs.sigma_uu),
                format_number(obs.sigma_ll),
                format_number(obs.n_ph),
                format_number(obs.rate),
            ]
        )
    _write_rows(args.out, ["t", "sigma_uu", "sigma_ll", "n_ph", "rate"], rows)
    return 0


def _cmd_laser(args: argparse.Namespace) -> int:
    base = _load_spec(args.config)
    if base.cavity is None or base.bath is None:
        raise ConfigError("laser command requires cavity and bath sections")
    specs = _grid_specs(base, args)
    keys, param_cells = _param_columns(specs)
    rows = []
    for sample_id, (spec, cells) in enumerate(zip(specs, param_cells)):
        sol = solve_lasing(spec)
        rows.append(
            [str(sample_id)]
            + cells
            + [
                format_number(sol.omega),
                format_number(abs(sol.a_ss)),
                format_number(sol.intensity),
                "1" if sol.above_threshold else "0",
            ]
        )
    _write_rows(
        args.out,
        ["sample_id"] + keys + ["omega", "a_ss", "intensity", "above_threshold"],
        rows,
    )
    return 0


def _parse_occupation_arg(text: str) -> gain_mod.SubbandOccupation:
    kind, _, params = text.partition(":")
    fields = {}
    if params:
        for item in params.split(","):
            name, _, value = item.partition("=")
            if not value:
                raise ConfigError(f"bad occupation parameter {item!r}")
            fields[name.strip()] = float(value)
    try:
        if kind == "fermi":
            return gain_mod.FermiOccupation(temperature=fields.pop("T"), mu=fields.pop("mu"))
        if kind == "linear":
            return gain_mod.LinearOccupation(f0=fields.pop("f0"), slope=fields.pop("slope"))
    except KeyError as exc:
        raise ConfigError(f"occupation {text!r} is missing parameter {exc}") from exc
    raise ConfigError(f"unknown occupation form {kind!r} (use fermi:... or linear:...)")


def _cmd_bloch_gain(args: argparse.Namespace) -> int:
    if args.equal_occupations:
        f_up = f_low = _parse_occupation_arg(args.equal_occupations)
    else:
        if not (args.f_upper and args.f_lower):
            raise ConfigError("provide --equal-occupations or both --f-upper and --f-lower")
        f_up = _parse_occupation_arg(args.f_upper)
        f_low = _parse_occupation_arg(args.f_lower)
    try:
        lo, hi, n = args.grid.split(":")
        grid = np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {args.grid!r} (expected lo:hi:n)") from exc
    spectrum = gain_mod.gain_spectrum(args.e_k0, grid, args.gamma_u, args.gamma_l, f_up, f_low)
    rows = [
        [str(i), format_number(float(d)), format_number(float(r))]
        for i, (d, r) in enumerate(zip(spectrum.detunings, spectrum.rates))
    ]
    _write_rows(args.out, ["sample_id", "delta", "rate"], rows)
    return 0


def _nan_row(sample_id: int, params: list[str], error: str) -> list[str]:
    return [str(sample_id)] + params + ["nan"] * 11 + [f"error={error.replace(',', ';')}"]


def _cmd_audit(args: argparse.Namespace) -> int:
    base = _load_spec(args.config)
    treatment = args.treatment or ("quantum" if base.cavity is not None else "classical")
    ranges = _ranges(args)
    results = thermo.sweep(
        base,
        ranges,
        treatment=treatment,
        sampler="grid" if args.random is None else "random",
        n_samples=args.random,
        seed=args.seed,
        tolerance=args.tolerance,
        fock_cutoff=args.fock_cutoff,
    )

    # Parameter columns are overlaid on the base scenario textually, so rows
    # whose parameters do not form a valid spec still serialize.
    base_cfg = config_from_system_spec(base).values
    keys = [k for k in SCENARIO_KEYS if k in base_cfg or k in ranges]

    rows = []
    for res in results:
        cells_map = dict(base_cfg)
        for key, value in res.params.items():
            cells_map[key] = format_number(value)
        cells = [cells_map.get(k, "") for k in keys]
        if res.error is not None:
            rows.append(_nan_row(res.index, cells, res.error))
        else:
            rows.append(
                _flux_row(res.index, cells, res.flux, res.entropy_total, res.regime, args.tolerance)
            )
    _write_rows(args.out, ["sample_id"] + keys + list(FLUX_COLUMNS), rows)
    return 0


def _cmd_find_violation(args: argparse.Namespace) -> int:
    result = thermo.find_violation_with_bare_energies(
        ranges=_ranges(args) or None,
        seed=args.seed,
        base=_load_spec(args.config) if args.config else None,
        max_samples=args.max_samples,
        tolerance=args.tolerance,
    )
    if result is None:
        sys.stderr.write("no second-law violation found within the sample budget\n")
        return 4
    keys, param_cells = _param_columns([result.spec])
    row = _flux_row(
        result.index, param_cells[0], result.flux, result.entropy_total, result.regime,
        args.tolerance,
    )
    _write_rows(args.out, ["sample_id"] + keys + list(FLUX_COLUMNS), [row])
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

    p = sub.add_parser("classical-ss", help="classical steady state and fluxes")
    common(p)
    p.add_argument("--sweep", action="append", metavar="KEY=LO:HI:N")

    p = sub.add_parser("classical-evolve", help="classical time evolution")
    common(p)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--sigma-uu0", type=float, default=0.0)
    p.add_argument("--sigma-ll0", type=float, default=0.0)

    p = sub.add_parser("quantum-ss", help="quantum steady state and fluxes")
    common(p)
    p.add_argument("--sweep", action="append", metavar="KEY=LO:HI:N")

    p = sub.add_parser("quantum-evolve", help="quantum time evolution from vacuum")
    common(p)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--n-store", type=int, default=51, help="number of stored rows")

    p = sub.add_parser("laser", help="mean-field lasing solution")
    common(p)
    p.add_argument("--sweep", action="append", metavar="KEY=LO:HI:N")

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
    p.add_argument("--sweep", action="append", metavar="KEY=LO:HI:N")
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
        "classical-ss": lambda a: _cmd_steady_state(a, "classical"),
        "classical-evolve": _cmd_classical_evolve,
        "quantum-ss": lambda a: _cmd_steady_state(a, "quantum"),
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
