"""First/second-law bookkeeping, regime classification, and sweeps.

Entropy production is accounted per reservoir from the steady-state fluxes.
With occupations thermal at the effective energies the total is non-negative;
with occupations thermal at the bare energies it can turn negative at finite
detuning, and ``find_violation_with_bare_energies`` searches for a concrete
counterexample.

The entropy account and the regime are elementwise, like the closed form
and the batched steady-state solve they follow.  A sweep or search turns its
drawn table into one ``SpecColumns`` and audits all samples in one pass;
``sweep`` returns a ``SweepColumns``, whose items are the ``SweepResult`` of
each sample, built when read.  A quantum sweep solves its samples in batches
of one Fock cutoff (``quantum.steady_state_fluxes``); a sample without a
bath, or with gamma_b <= 0, shares its cutoff's batch with zero photon rates.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .classical import fluxes_classical, steady_state_closed_form
from .model import (
    OCC_EFFECTIVE,
    RATE_DEADBAND,
    FluxReport,
    ClassicalDrive,
    EnergyLevels,
    FermionicReservoir,
    OccupationSpec,
    SystemSpec,
    Treatment,
    any_of,
    plain,
    spec_columns,
    where,
    with_parameters,
)
from .quantum import steady_state_fluxes

# A total entropy production below -VIOLATION_TOL is a second-law violation.
VIOLATION_TOL = 1e-10


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


def _regime(rate):
    below = where(rate < -RATE_DEADBAND, "absorption", "idle")
    return where(rate > RATE_DEADBAND, "emission", below)


def entropy_report(flux: FluxReport, spec: SystemSpec) -> EntropyReport:
    """Entropy production per reservoir: -Edot/T + mu Ndot/T, elementwise."""
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
    total = s_u + s_l + s_b
    return EntropyReport(s_u, s_l, s_b, total, flux.first_law_residual, _regime(flux.rate))


def classify_regime(flux: FluxReport, spec: SystemSpec) -> RegimeReport:
    """Label the operating point and check the equal-temperature sign laws, elementwise.

    Classical: the rate has the sign of the bias excess mu_u - mu_l - hbar
    omega.  Quantum: the excess is mu_u - mu_l - E_ph_eff (1 - T/T_b), and
    emission below the photon energy flags electroluminescent cooling.  For
    absorption against a warmer bath the extracted electrical power is
    checked against the Carnot bound on the incoming heat.
    """
    regime = _regime(flux.rate)
    bias = spec.reservoir_u.mu - spec.reservoir_l.mu
    temperature = spec.reservoir_u.temperature
    quantum = flux.treatment == "quantum"
    cooling = plain(quantum & (regime == "emission") & (bias < flux.e_eff_ph))

    kinds = [spec.reservoir_u.occupation.kind, spec.reservoir_l.occupation.kind]
    if quantum:
        kinds.append(spec.bath and spec.bath.occupation.kind)
    unequal = abs(temperature - spec.reservoir_l.temperature) > 1e-12
    applies = where(unequal, False, all(kind == OCC_EFFECTIVE for kind in kinds))
    if not any_of(applies):
        return RegimeReport(regime, None, None, cooling, None)

    if quantum:
        excess = bias - flux.e_eff_ph * (1.0 - temperature / spec.bath.temperature)
    else:
        excess = bias - flux.e_eff_ph
    checked = applies & (regime != "idle") & (abs(excess) > 1e-9)
    sign_law_ok = where(checked, (flux.rate > 0) == (excess > 0), None)

    carnot_ok = None
    if quantum:
        p_el = -flux.rate * bias
        t_bath = spec.bath.temperature
        carnot_bound = flux.edot_opt * (t_bath - temperature) / t_bath
        checked = applies & (regime == "absorption") & (t_bath > temperature)
        carnot_ok = plain(where(checked, p_el <= carnot_bound + 1e-10, None))

    excess = where(applies, excess, None)
    return RegimeReport(regime, plain(sign_law_ok), carnot_ok, cooling, excess)


def audit_point(
    spec: SystemSpec, treatment: Treatment
) -> tuple[FluxReport, EntropyReport, RegimeReport]:
    """Solve one scenario and return fluxes, entropy account, and regime.

    A ``SpecColumns`` is solved and audited in one pass over its columns,
    each report holding one entry per sample; a sample that fails keeps its
    error in ``spec.errors``.
    """
    if treatment == "classical":
        flux = fluxes_classical(steady_state_closed_form(spec), spec)
    elif treatment == "quantum":
        flux = steady_state_fluxes(spec)
    else:
        raise ValueError(f"unknown treatment {treatment!r}")
    return flux, entropy_report(flux, spec), classify_regime(flux, spec)


# A sample that raises one of these fails and becomes an error row; any other
# exception is a fault of the program and propagates.
_SAMPLE_FAILURES = (ValueError, ArithmeticError, RuntimeError)


def describe(error: Exception) -> str:
    """The text an error row shows: ``<type>: <message>``."""
    return f"{type(error).__name__}: {error}"


def _entry(column, index: int):
    """Entry ``index`` of a column as a Python value; a shared value is every sample's."""
    if isinstance(column, np.ndarray):
        column = column[index]
    return column.item() if isinstance(column, np.generic) else column


def _row(report, index: int):
    return type(report)(*[_entry(column, index) for column in vars(report).values()])


@dataclass(frozen=True, eq=False)
class SweepColumns(Sequence):
    """Audited samples as columns; item ``i`` is sample i's SweepResult, built when read.

    ``values`` holds the sampled parameters, one row per sample and one
    column per key.  Each field of ``flux`` and ``regime`` and
    ``entropy_total`` holds one entry per sample, or one value every sample
    shares; the entries of a sample with an ``errors`` entry mean nothing.
    """

    keys: tuple[str, ...]
    values: np.ndarray
    errors: list[Exception | None]
    flux: FluxReport | None = None
    entropy_total: np.ndarray | float | None = None
    regime: RegimeReport | None = None

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index = range(len(self))[index]
        params = dict(zip(self.keys, map(float, self.values[index])))
        error = self.errors[index]
        if error is not None:
            return SweepResult(index, params, None, None, False, describe(error))
        flux, regime = _row(self.flux, index), _row(self.regime, index)
        total = _entry(self.entropy_total, index)
        return SweepResult(index, params, flux, total, total < -VIOLATION_TOL, None, regime)


def sample_table(
    ranges: dict[str, tuple], sampler: str, n_samples: int | None, seed: int
) -> tuple[list[str], np.ndarray]:
    """Parameter points for a sweep or a search: the keys and one row per point.

    ``grid``: the Cartesian product of ``linspace(lo, hi, n)`` over the keys
    of ``ranges`` (last key fastest); no keys give the one empty point.
    ``random``: ``n_samples`` points drawn uniformly in [lo, hi) from
    ``default_rng(seed)``, key by key within a point.
    """
    keys = list(ranges)
    if sampler == "grid":
        axes = (np.linspace(lo, hi, int(n)) for lo, hi, n in ranges.values())
        table = np.array(list(itertools.product(*axes)), dtype=float)
    elif sampler == "random":
        if n_samples is None:
            raise ValueError("random sampling requires n_samples")
        bounds = np.array([r[:2] for r in ranges.values()], dtype=float).reshape(-1, 2)
        rng = np.random.default_rng(seed)
        table = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n_samples, len(keys)))
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    return keys, table


def _audit_columns(base: SystemSpec, keys: list, table: np.ndarray,
                   treatment: Treatment = "classical") -> SweepColumns:
    """Audit of every row of ``table`` on ``base``, one column at a time."""
    spec = spec_columns(base, keys, table)
    try:
        flux, entropy, regime = audit_point(spec, treatment)
    except _SAMPLE_FAILURES as exc:  # every sample fails alike
        errors = [exc if e is None else e for e in spec.errors]
        return SweepColumns(tuple(keys), table, errors)
    return SweepColumns(tuple(keys), table, spec.errors, flux, entropy.total, regime)


def sweep(
    base: SystemSpec,
    ranges: dict[str, tuple],
    treatment: Treatment = "classical",
    sampler: str = "random",
    n_samples: int | None = None,
    seed: int = 0,
) -> SweepColumns:
    """Audit the scenario over a parameter grid or random sample.

    ``ranges`` maps dotted parameter keys to (lo, hi) for random sampling or
    (lo, hi, n) for grids.  Results are deterministic for a given seed;
    per-sample solver failures are recorded and the sweep continues.  Either
    treatment audits all samples at once over arrays; the quantum one solves
    them in batches of one Fock cutoff.
    """
    return _audit_columns(base, *sample_table(ranges, sampler, n_samples, seed), treatment)


def _violation_base(base: SystemSpec | None, occupation: OccupationSpec) -> SystemSpec:
    """``base`` (the default violation scenario if None) with both fermionic occupations set."""
    base = default_violation_scenario() if base is None else base
    return replace(
        base,
        reservoir_u=replace(base.reservoir_u, occupation=occupation),
        reservoir_l=replace(base.reservoir_l, occupation=occupation),
    )


def default_violation_scenario() -> SystemSpec:
    reservoir = FermionicReservoir(0.2, OccupationSpec.thermal_bare(), mu=0.5, temperature=0.2)
    drive = ClassicalDrive(omega=1.0, epsilon=0.2)
    return SystemSpec(EnergyLevels(1.0, 0.0), reservoir, reservoir, drive=drive)


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
) -> SweepResult | None:
    """Search for negative total entropy production under bare occupations.

    Both fermionic occupations are forced to thermal-at-bare-energy and
    random classical scenarios are audited until one shows total entropy
    production below -VIOLATION_TOL; samples that fail to solve are skipped.
    The result carries the spec it solved.  Returns None when the budget is
    exhausted (absence is reported, not asserted).
    """
    base = _violation_base(base, OccupationSpec.thermal_bare())
    if ranges is None:
        ranges = DEFAULT_VIOLATION_RANGES
    audited = _audit_columns(base, *sample_table(ranges, "random", max_samples, seed))
    negative = audited.flux is not None and audited.entropy_total < -VIOLATION_TOL
    for index in np.flatnonzero(np.broadcast_to(negative, len(audited))):
        if audited.errors[index] is None:
            result = audited[index]
            return replace(result, spec=with_parameters(base, result.params))
    return None


def recheck_with_effective_energies(
    result: SweepResult, base: SystemSpec | None = None
) -> float:
    """Re-audit a violating sample with effective-energy occupations."""
    base = _violation_base(base, OccupationSpec.thermal_effective())
    _, entropy, _ = audit_point(with_parameters(base, result.params), "classical")
    return entropy.total
