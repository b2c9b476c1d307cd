"""First/second-law bookkeeping, regime classification, and sweeps.

Entropy production is accounted per reservoir from the steady-state fluxes.
With occupations thermal at the effective energies the total is non-negative;
with occupations thermal at the bare energies it can turn negative at finite
detuning, and ``find_violation_with_bare_energies`` searches for a concrete
counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .classical import fluxes_classical, steady_state_closed_form
from .model import (
    OCC_EFFECTIVE,
    FluxReport,
    ClassicalDrive,
    EnergyLevels,
    FermionicReservoir,
    OccupationSpec,
    SystemSpec,
    Treatment,
    resolve_occupations,
    with_parameters,
)
from .quantum import fluxes_quantum, quantum_steady_state

_RATE_DEADBAND = 1e-12


@dataclass(frozen=True)
class EntropyReport:
    """Per-reservoir entropy production rates and the first-law residual.

    ``s_dot_b`` is zero in the classical treatment, where the optical field
    carries no entropy.
    """

    s_dot_u: float
    s_dot_l: float
    s_dot_b: float
    total: float
    law1_residual: float
    regime: str


@dataclass(frozen=True)
class RegimeReport:
    """Operating-regime label plus the sign-law and bound checks.

    The sign law and the Carnot bound are only asserted where they are
    guaranteed: equal fermionic temperatures and occupations thermal at the
    effective energies (for the quantum treatment including the bath).
    Non-applicable checks are None.
    """

    regime: str
    sign_law_ok: bool | None
    carnot_ok: bool | None
    cooling: bool
    bias_excess: float | None


@dataclass(frozen=True)
class SweepResult:
    """One audited sample; ``flux``, ``entropy_total`` and ``regime`` are None on error.

    Only the violation search fills ``spec``, the scenario it solved; a sweep
    keeps no spec per sample.
    """

    index: int
    params: dict[str, float]
    flux: FluxReport | None
    entropy_total: float | None
    violation: bool
    error: str | None
    regime: RegimeReport | None = None
    spec: SystemSpec | None = None


def _regime(rate: float) -> str:
    if rate > _RATE_DEADBAND:
        return "emission"
    if rate < -_RATE_DEADBAND:
        return "absorption"
    return "idle"


def entropy_report(flux: FluxReport, spec: SystemSpec) -> EntropyReport:
    """Entropy production per reservoir: -Edot/T + mu Ndot/T."""
    res_u = spec.reservoir_u
    res_l = spec.reservoir_l
    s_u = (-flux.edot_u + res_u.mu * flux.ndot_u) / res_u.temperature
    s_l = (-flux.edot_l + res_l.mu * flux.ndot_l) / res_l.temperature
    if flux.treatment == "quantum":
        if spec.bath is None:
            raise ValueError("quantum flux report requires a bath in the scenario")
        s_b = -flux.edot_opt / spec.bath.temperature
    else:
        s_b = 0.0
    return EntropyReport(
        s_dot_u=s_u,
        s_dot_l=s_l,
        s_dot_b=s_b,
        total=s_u + s_l + s_b,
        law1_residual=flux.first_law_residual,
        regime=_regime(flux.rate),
    )


def _sign_laws_apply(flux: FluxReport, spec: SystemSpec) -> bool:
    if spec.reservoir_u.occupation.kind != OCC_EFFECTIVE:
        return False
    if spec.reservoir_l.occupation.kind != OCC_EFFECTIVE:
        return False
    if abs(spec.reservoir_u.temperature - spec.reservoir_l.temperature) > 1e-12:
        return False
    if flux.treatment == "quantum":
        return spec.bath is not None and spec.bath.occupation.kind == OCC_EFFECTIVE
    return True


def classify_regime(flux: FluxReport, spec: SystemSpec) -> RegimeReport:
    """Label the operating point and check the equal-temperature sign laws.

    Classical: the rate has the sign of the bias excess mu_u - mu_l - hbar
    omega.  Quantum: the excess is mu_u - mu_l - E_ph_eff (1 - T/T_b), and
    emission below the photon energy flags electroluminescent cooling.  For
    absorption against a warmer bath the extracted electrical power is
    checked against the Carnot bound on the incoming heat.
    """
    regime = _regime(flux.rate)
    bias = spec.reservoir_u.mu - spec.reservoir_l.mu
    temperature = spec.reservoir_u.temperature

    cooling = flux.treatment == "quantum" and regime == "emission" and bias < flux.e_eff_ph

    if not _sign_laws_apply(flux, spec):
        return RegimeReport(regime, None, None, cooling, None)

    if flux.treatment == "classical":
        excess = bias - flux.e_eff_ph
    else:
        excess = bias - flux.e_eff_ph * (1.0 - temperature / spec.bath.temperature)

    sign_law_ok: bool | None = None
    if regime != "idle" and abs(excess) > 1e-9:
        sign_law_ok = (flux.rate > 0) == (excess > 0)

    carnot_ok: bool | None = None
    if (
        flux.treatment == "quantum"
        and regime == "absorption"
        and spec.bath.temperature > temperature
    ):
        p_el = -flux.rate * bias
        carnot_bound = flux.edot_opt * (spec.bath.temperature - temperature) / spec.bath.temperature
        carnot_ok = p_el <= carnot_bound + 1e-10

    return RegimeReport(regime, sign_law_ok, carnot_ok, cooling, excess)


def audit_point(
    spec: SystemSpec, treatment: Treatment
) -> tuple[FluxReport, EntropyReport, RegimeReport]:
    """Solve one scenario and return fluxes, entropy account, and regime."""
    occ = resolve_occupations(spec, treatment)
    if treatment == "classical":
        flux = fluxes_classical(steady_state_closed_form(spec, occ), spec, occ)
    else:
        solution = quantum_steady_state(spec, occ)
        flux = fluxes_quantum(solution.state, solution.liouvillian, spec, occ)
    return flux, entropy_report(flux, spec), classify_regime(flux, spec)


def sample_points(
    ranges: dict[str, tuple], sampler: str, n_samples: int | None, seed: int
) -> list[dict[str, float]]:
    """Parameter points for a sweep or a search.

    ``grid``: the Cartesian product of ``linspace(lo, hi, n)`` over the keys
    of ``ranges`` (last key fastest); no keys give the one empty point.
    ``random``: ``n_samples`` points drawn uniformly in [lo, hi) from
    ``default_rng(seed)``, key by key within a point.
    """
    keys = list(ranges)
    if sampler == "grid":
        table = itertools.product(*(np.linspace(lo, hi, int(n)) for lo, hi, n in ranges.values()))
    elif sampler == "random":
        if n_samples is None:
            raise ValueError("random sampling requires n_samples")
        bounds = np.array([r[:2] for r in ranges.values()], dtype=float).reshape(-1, 2)
        rng = np.random.default_rng(seed)
        table = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n_samples, len(keys)))
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    return [dict(zip(keys, map(float, row))) for row in table]


def _audits(
    base: SystemSpec,
    points: list[dict[str, float]],
    treatment: Treatment,
    tolerance: float,
) -> Iterator[tuple[SweepResult, SystemSpec | None]]:
    """Audit each point on ``base``: its result and the spec solved (None on error)."""
    for index, params in enumerate(points):
        try:
            spec = with_parameters(base, params)
            flux, entropy, regime = audit_point(spec, treatment)
        except (ValueError, ArithmeticError, RuntimeError) as exc:  # recorded, the caller continues
            error = f"{type(exc).__name__}: {exc}"
            yield SweepResult(index, params, None, None, False, error), None
            continue
        total = entropy.total
        yield SweepResult(index, params, flux, total, total < -tolerance, None, regime), spec


def sweep(
    base: SystemSpec,
    ranges: dict[str, tuple],
    treatment: Treatment = "classical",
    sampler: str = "random",
    n_samples: int | None = None,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> list[SweepResult]:
    """Audit the scenario over a parameter grid or random sample.

    ``ranges`` maps dotted parameter keys to (lo, hi) for random sampling or
    (lo, hi, n) for grids.  Results are deterministic for a given seed;
    per-sample solver failures are recorded and the sweep continues.
    """
    points = sample_points(ranges, sampler, n_samples, seed)
    return [result for result, _ in _audits(base, points, treatment, tolerance)]


def _with_fermionic_occupations(spec: SystemSpec, occupation: OccupationSpec) -> SystemSpec:
    return replace(
        spec,
        reservoir_u=replace(spec.reservoir_u, occupation=occupation),
        reservoir_l=replace(spec.reservoir_l, occupation=occupation),
    )


def default_violation_scenario() -> SystemSpec:
    reservoir = FermionicReservoir(
        gamma=0.2,
        occupation=OccupationSpec.thermal_bare(),
        mu=0.5,
        temperature=0.2,
    )
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=reservoir,
        reservoir_l=reservoir,
        drive=ClassicalDrive(omega=1.0, epsilon=0.2),
    )


DEFAULT_VIOLATION_RANGES: dict[str, tuple] = {
    "drive.omega": (0.05, 2.0),
    "reservoir_u.gamma": (0.05, 0.5),
    "reservoir_l.gamma": (0.05, 0.5),
    "reservoir_u.temperature": (0.05, 0.5),
    "reservoir_l.temperature": (0.05, 0.5),
    "reservoir_u.mu": (-1.0, 2.0),
    "reservoir_l.mu": (-1.0, 2.0),
}


def find_violation_with_bare_energies(
    ranges: dict[str, tuple] | None = None,
    seed: int = 0,
    base: SystemSpec | None = None,
    max_samples: int = 2000,
    tolerance: float = 1e-10,
) -> SweepResult | None:
    """Search for negative total entropy production under bare occupations.

    Both fermionic occupations are forced to thermal-at-bare-energy and
    random classical scenarios are audited until one shows total entropy
    production below -tolerance; samples that fail to solve are skipped.
    The result carries the spec it solved.  Returns None when the budget is
    exhausted (absence is reported, not asserted).
    """
    if base is None:
        base = default_violation_scenario()
    base = _with_fermionic_occupations(base, OccupationSpec.thermal_bare())
    if ranges is None:
        ranges = DEFAULT_VIOLATION_RANGES
    points = sample_points(ranges, "random", max_samples, seed)
    for result, spec in _audits(base, points, "classical", tolerance):
        if result.violation:
            return replace(result, spec=spec)
    return None


def recheck_with_effective_energies(
    result: SweepResult, base: SystemSpec | None = None
) -> float:
    """Re-audit a violating sample with effective-energy occupations."""
    if base is None:
        base = default_violation_scenario()
    base = _with_fermionic_occupations(base, OccupationSpec.thermal_effective())
    _, entropy, _ = audit_point(with_parameters(base, result.params), "classical")
    return entropy.total
