"""Shared parameter types, occupation functions, and effective energies.

Natural units throughout: hbar = k_B = 1, so energies, angular frequencies,
rates and temperatures all carry the same (arbitrary) energy unit, and
occupations are dimensionless.

When the drive or cavity frequency is detuned from the bare transition, the
energy carried per transition is not the bare level splitting.  Steady-state
energy bookkeeping assigns each level (and, with a lossy cavity, the photon)
an effective energy obtained by distributing the detuning over the bare
energies in proportion to each partner's contribution to the total
broadening.  Reservoir occupations evaluated at these effective energies keep
the steady state consistent with both energy conservation and non-negative
entropy production; occupations evaluated at the bare energies do not.

``spec_columns`` turns a table of sampled parameters into one scenario per
sample, a ``SpecColumns``; the occupation functions work elementwise on it.

The occupations are a function of the scenario and the treatment, so a spec
resolves them itself: ``SystemSpec.classical_occupations`` and
``quantum_occupations`` call ``resolve_occupations`` on first read and keep
the result on the frozen spec.  The solvers read them there and take no
occupations of their own.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
from typing import Literal, NamedTuple, Sequence

import numpy as np

Treatment = Literal["classical", "quantum"]

OCC_FIXED = "fixed"
OCC_BARE = "bare"
OCC_EFFECTIVE = "effective"

# Rates of magnitude below this count as zero: the regime reads idle and
# flux ratios are not formed.
RATE_DEADBAND = 1e-12


class SteadyStateError(RuntimeError):
    """A solver did not reach a steady state, or its state is not stationary."""


@dataclass(frozen=True)
class OccupationSpec:
    """How a reservoir occupation number is produced.

    kind "fixed":     use ``value`` as given.
    kind "bare":      thermal function at the bare level / photon energy.
    kind "effective": thermal function at the detuning-shifted effective
                      energy of the treatment at hand.
    """

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (OCC_FIXED, OCC_BARE, OCC_EFFECTIVE):
            raise ValueError(f"unknown occupation kind {self.kind!r}")
        if self.kind == OCC_FIXED:
            if self.value is None:
                raise ValueError("fixed occupation requires a value")
        elif self.value is not None:
            raise ValueError(f"{self.kind!r} occupation takes no value")

    @classmethod
    def fixed(cls, value: float) -> "OccupationSpec":
        return cls(OCC_FIXED, float(value))

    @classmethod
    def thermal_bare(cls) -> "OccupationSpec":
        return cls(OCC_BARE)

    @classmethod
    def thermal_effective(cls) -> "OccupationSpec":
        return cls(OCC_EFFECTIVE)


class _Section:
    """A scenario section.  ``RULES`` pairs each condition on its values with
    the message its violation raises; they hold elementwise, so they check a
    column of samples in ``spec_columns`` as they check one scenario here."""

    RULES: tuple = ()

    def __post_init__(self) -> None:
        for holds, message in self.RULES:
            ok = holds(self)
            if not (ok.all() if isinstance(ok, np.ndarray) else ok):
                raise ValueError(message)


def _finite(message: str, *names: str) -> tuple:
    """A rule that each named value of a section is finite."""
    return (
        lambda s: functools.reduce(operator.and_, (np.isfinite(getattr(s, n)) for n in names)),
        message,
    )


@dataclass(frozen=True)
class EnergyLevels(_Section):
    """Bare energies of the two electronic levels, e_upper > e_lower."""

    e_upper: float
    e_lower: float

    RULES = (
        (lambda s: s.e_upper > s.e_lower, "e_upper must be strictly above e_lower"),
        _finite("energy levels must be finite", "e_upper", "e_lower"),
    )

    @property
    def gap(self) -> float:
        return self.e_upper - self.e_lower


@dataclass(frozen=True)
class ClassicalDrive(_Section):
    """Monochromatic classical field: angular frequency and complex amplitude.

    Only |epsilon|^2 enters steady-state results; the phase rotates the
    coherence.
    """

    omega: float
    epsilon: complex

    RULES = (
        (lambda s: s.omega > 0, "drive frequency must be positive"),
        (lambda s: np.isfinite(abs(s.epsilon)), "drive amplitude must be finite"),
        _finite("drive frequency must be finite", "omega"),
    )


@dataclass(frozen=True)
class CavitySpec(_Section):
    """Quantized mode: frequency, complex coupling, Fock-space truncation."""

    omega_cav: float
    g: complex
    fock_cutoff: int = 12

    RULES = (
        (lambda s: s.omega_cav > 0, "cavity frequency must be positive"),
        (lambda s: s.fock_cutoff >= 1, "fock_cutoff must be at least 1"),
        _finite("cavity frequency and coupling must be finite", "omega_cav", "g"),
    )


@dataclass(frozen=True)
class FermionicReservoir(_Section):
    """Electronic reservoir attached to one level."""

    gamma: float
    occupation: OccupationSpec
    mu: float
    temperature: float

    RULES = (
        (lambda s: s.gamma > 0, "reservoir coupling gamma must be positive"),
        (lambda s: s.temperature > 0, "reservoir temperature must be positive"),
        (
            lambda s: s.occupation.kind != OCC_FIXED or 0.0 <= s.occupation.value <= 1.0,
            "fixed fermionic occupation must lie in [0, 1]",
        ),
        _finite(
            "reservoir gamma, mu and temperature must be finite", "gamma", "mu", "temperature"
        ),
    )


@dataclass(frozen=True)
class BosonicBath(_Section):
    """Thermal bath coupled to the cavity mode."""

    gamma: float
    occupation: OccupationSpec
    temperature: float

    RULES = (
        (lambda s: np.logical_not(s.gamma < 0), "bath coupling must be non-negative"),
        (lambda s: s.temperature > 0, "bath temperature must be positive"),
        (
            lambda s: s.occupation.kind != OCC_FIXED or not s.occupation.value < 0,
            "fixed bosonic occupation must be non-negative",
        ),
        _finite("bath coupling and temperature must be finite", "gamma", "temperature"),
        (
            lambda s: s.occupation.kind != OCC_FIXED or np.isfinite(s.occupation.value),
            "fixed bosonic occupation must be finite",
        ),
    )


@dataclass(frozen=True)
class SystemSpec:
    """Single source of truth for one scenario.

    ``drive`` is used by the classical treatment, ``cavity`` and ``bath`` by
    the quantum and semiclassical treatments.  A spec may carry all of them.
    """

    levels: EnergyLevels
    reservoir_u: FermionicReservoir
    reservoir_l: FermionicReservoir
    drive: ClassicalDrive | None = None
    cavity: CavitySpec | None = None
    bath: BosonicBath | None = None

    # Resolved on first read and kept: the spec is frozen, so they cannot go
    # stale, and ``dataclasses.replace`` builds a spec that resolves afresh.
    @functools.cached_property
    def classical_occupations(self) -> Occupations:
        """``resolve_occupations(self, "classical")``, once per spec."""
        return resolve_occupations(self, "classical")

    @functools.cached_property
    def quantum_occupations(self) -> Occupations:
        """``resolve_occupations(self, "quantum")``, once per spec."""
        return resolve_occupations(self, "quantum")

    def reject(self, bad, error: type[Exception], message: str, *values) -> None:
        """Raise ``error(message.format(*values))`` if ``bad`` holds."""
        if bad:
            raise error(message.format(*values))


@dataclass(frozen=True)
class SpecColumns(SystemSpec):
    """One scenario per sample: the sampled fields are arrays, one entry each.

    ``errors[i]`` is the exception sample i failed with, else None.  A failed
    sample's entries hold stand-in values, so evaluation runs on whole columns.
    """

    errors: list[Exception | None] = field(default_factory=list)

    def reject(self, bad, error: type[Exception], message: str, *values) -> None:
        """Fail each sample where ``bad`` holds that has not failed yet."""
        n = len(self.errors)
        for i in np.flatnonzero(np.broadcast_to(bad, n)):
            if self.errors[i] is None:
                self.errors[i] = error(message.format(*(np.broadcast_to(v, n)[i] for v in values)))


@dataclass(frozen=True)
class EffectiveEnergies:
    """Detuning-shifted energies; e_upper - e_lower == e_photon holds."""

    e_upper: float
    e_lower: float
    e_photon: float


class Occupations(NamedTuple):
    """Concrete occupation numbers entering the dissipators."""

    f_u: float
    f_l: float
    n_b: float | None


@dataclass(frozen=True)
class FluxReport:
    """Steady-state particle/energy flows and effective-energy extraction.

    ``edot_opt`` is the absorbed optical power P_S for the classical
    treatment and the energy flow from the bosonic bath for the quantum one.
    ``e_eff_*`` are the closed-form effective energies; ``e_flux_*`` are the
    same quantities read off from flux ratios (nan when the rate vanishes).
    """

    treatment: str
    rate: float
    ndot_u: float
    ndot_l: float
    edot_u: float
    edot_l: float
    edot_opt: float
    e_eff_u: float
    e_eff_l: float
    e_eff_ph: float
    e_flux_u: float
    e_flux_l: float
    e_flux_ph: float
    first_law_residual: float
    f_u: float
    f_l: float
    n_b: float | None


def plain(x):
    """A 0-d result as a Python scalar; a column stays an array."""
    return x.item() if isinstance(x, (np.ndarray, np.generic)) and x.ndim == 0 else x


def any_of(mask) -> bool:
    """Whether ``mask`` holds for any sample; a scalar mask is its own answer."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def where(cond, a, b):
    """``np.where`` over columns; a scalar condition picks ``a`` or ``b`` as it is."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def elementwise(fn, x):
    """``fn`` (``math.exp`` and the like) of each entry of ``x``: NumPy's own exp
    may round differently from libm's, which a scalar spec is evaluated with."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def flux_report(treatment, occ, eff, rate, ndot_u, ndot_l, edot_u, edot_l, edot_opt) -> FluxReport:
    """The FluxReport of these steady-state flows, elementwise: the flux-ratio
    energies (nan where the rate lies in the dead band) and the first-law
    residual follow from them."""
    idle = abs(rate) < RATE_DEADBAND
    nonzero = where(idle, 1.0, rate)
    ratios = (edot_u / nonzero, -edot_l / nonzero, -edot_opt / nonzero)
    e_flux = (plain(where(idle, math.nan, ratio)) for ratio in ratios)
    flows = map(plain, (rate, ndot_u, ndot_l, edot_u, edot_l, edot_opt))
    return FluxReport(
        treatment, *flows, eff.e_upper, eff.e_lower, eff.e_photon, *e_flux,
        plain(edot_u + edot_l + edot_opt), occ.f_u, occ.f_l, occ.n_b,
    )


def detuning(levels: EnergyLevels, omega: float) -> float:
    """Detuning of an angular frequency from the bare transition."""
    return omega - levels.gap


def effective_energies_classical(
    levels: EnergyLevels,
    drive: ClassicalDrive,
    gamma_u: float,
    gamma_l: float,
) -> EffectiveEnergies:
    """Effective level energies for the classically driven system.

    The detuning is split over the two levels in proportion to their
    reservoir couplings; the photon energy is the drive quantum itself.
    """
    return _effective_energies(levels, drive.omega, gamma_u, gamma_l, 0.0)


def effective_energies_quantum(
    levels: EnergyLevels,
    cavity: CavitySpec,
    gamma_u: float,
    gamma_l: float,
    gamma_b: float,
) -> EffectiveEnergies:
    """Effective energies when the photon mode is itself broadened.

    The cavity loss contributes to the total broadening, so the photon
    energy is pulled away from the bare cavity quantum as well.  Reduces to
    the classical result for gamma_b = 0.
    """
    return _effective_energies(levels, cavity.omega_cav, gamma_u, gamma_l, gamma_b)


def _effective_energies(levels, omega, gamma_u, gamma_l, gamma_b) -> EffectiveEnergies:
    total = gamma_u + gamma_l + gamma_b
    if any_of(total <= 0):
        raise ValueError("gamma_u + gamma_l + gamma_b must be positive")
    shift = detuning(levels, omega) / total
    return EffectiveEnergies(
        e_upper=levels.e_upper + gamma_u * shift,
        e_lower=levels.e_lower - gamma_l * shift,
        e_photon=omega - gamma_b * shift,
    )


def fermi(e: float, mu: float, temperature: float) -> float:
    """Fermi function 1/(exp((e - mu)/T) + 1), overflow safe, elementwise."""
    if any_of(temperature <= 0):
        raise ValueError("temperature must be positive")
    x = (e - mu) / temperature
    z = elementwise(math.exp, -abs(x))
    return where(x >= 0, z / (1.0 + z), 1.0 / (1.0 + z))


def bose(e: float, temperature: float) -> float:
    """Bose function 1/(exp(e/T) - 1) for a mode of positive energy, elementwise.

    Rejects e <= 0: a non-positive effective photon energy has no thermal
    occupation and signals an unphysical parameter combination.
    """
    if any_of(temperature <= 0):
        raise ValueError("temperature must be positive")
    if any_of(e <= 0):
        raise ValueError("Bose occupation requires a positive mode energy")
    x = e / temperature
    tail = x > 700.0  # expm1 would overflow; the Boltzmann tail underflows smoothly
    body = 1.0 / elementwise(math.expm1, np.minimum(x, 700.0))
    return where(tail, elementwise(math.exp, -x), body)


def resolve_occupations(spec: SystemSpec, treatment: Treatment) -> Occupations:
    """Turn the occupation specs of a scenario into concrete numbers, elementwise.

    Thermal-at-effective-energy occupations use the classical or quantum
    effective energies according to ``treatment``.  n_b is None when the
    scenario has no bosonic bath.
    """
    if treatment not in ("classical", "quantum"):
        raise ValueError(f"unknown treatment {treatment!r}")
    res_u, res_l, bath = spec.reservoir_u, spec.reservoir_l, spec.bath
    if treatment == "classical":
        if spec.drive is None:
            raise ValueError("classical treatment requires a drive")
        eff = effective_energies_classical(spec.levels, spec.drive, res_u.gamma, res_l.gamma)
        e_ph_bare = spec.drive.omega
    else:
        if spec.cavity is None:
            raise ValueError("quantum treatment requires a cavity")
        gamma_b = bath.gamma if bath is not None else 0.0
        eff = effective_energies_quantum(
            spec.levels, spec.cavity, res_u.gamma, res_l.gamma, gamma_b
        )
        e_ph_bare = spec.cavity.omega_cav

    def thermal(occ: OccupationSpec, e_bare, e_eff, function):
        if occ.kind == OCC_FIXED:
            return occ.value
        return function(e_bare if occ.kind == OCC_BARE else e_eff)

    f_u = thermal(res_u.occupation, spec.levels.e_upper, eff.e_upper,
                  lambda e: fermi(e, res_u.mu, res_u.temperature))
    f_l = thermal(res_l.occupation, spec.levels.e_lower, eff.e_lower,
                  lambda e: fermi(e, res_l.mu, res_l.temperature))
    n_b = None if bath is None else thermal(
        bath.occupation, e_ph_bare, eff.e_photon, lambda e: bose(e, bath.temperature)
    )
    return Occupations(f_u=f_u, f_l=f_l, n_b=n_b)


# Scenario keys in canonical order, with the type of their value.  The one key
# table: it fixes the scenario-file schema and its order, sweep-key
# resolution, and the conversion with_parameter() applies to numeric values.
SCENARIO_KEYS: dict[str, type] = {
    "e_upper": float,
    "e_lower": float,
    "drive.omega": float,
    "drive.epsilon": complex,
    "cavity.omega_cav": float,
    "cavity.g": complex,
    "cavity.fock_cutoff": int,
    "reservoir_u.gamma": float,
    "reservoir_u.mu": float,
    "reservoir_u.temperature": float,
    "reservoir_u.occupation": OccupationSpec,
    "reservoir_l.gamma": float,
    "reservoir_l.mu": float,
    "reservoir_l.temperature": float,
    "reservoir_l.occupation": OccupationSpec,
    "bath.gamma": float,
    "bath.temperature": float,
    "bath.occupation": OccupationSpec,
}


def _parameter(key: str) -> tuple[type, str, str]:
    """Type, section and field of a numeric parameter key.

    Undotted keys name a field of ``levels``; dotted keys are section.field.
    """
    kind = SCENARIO_KEYS.get(key)
    if kind is None or kind is OccupationSpec:
        raise KeyError(f"unknown parameter key {key!r}")
    group, _, name = key.rpartition(".")
    return kind, group or "levels", name


def with_parameter(spec: SystemSpec, key: str, value: complex) -> SystemSpec:
    """Return a copy of ``spec`` with one numeric parameter replaced."""
    return with_parameters(spec, {key: value})


def with_parameters(spec: SystemSpec, params: dict[str, complex]) -> SystemSpec:
    """Return a copy of ``spec`` with every ``key: value`` of ``params`` applied.

    Each key is resolved and its value converted in order; then each section
    takes all of its new values at once and is checked once, in the order
    the sections first appear.  A point is refused only for its final
    values, whatever the order of its keys.
    """
    updates: dict[str, dict] = {}
    for key, value in params.items():
        kind, group, name = _parameter(key)
        if getattr(spec, group) is None:
            raise ValueError(f"scenario has no {group} section to update")
        updates.setdefault(group, {})[name] = kind(value)
    return replace(
        spec, **{group: replace(getattr(spec, group), **new) for group, new in updates.items()}
    )


def spec_columns(base: SystemSpec, keys: Sequence[str], table: np.ndarray) -> SpecColumns:
    """``base`` with column j of ``table`` as parameter ``keys[j]``, one sample per row.

    A row fails with the error ``with_parameters`` raises for it: the keys
    are resolved and converted in order, then each sampled section is
    checked once by its ``RULES`` on its final values, in the order the
    sections first appear.  A failed row takes ``base``'s values.
    """
    unchanged = {f.name: getattr(base, f.name) for f in fields(base)}
    spec = SpecColumns(**unchanged, errors=[None] * len(table))
    sections: dict[str, dict] = {}  # the sampled sections' fields, some now columns
    for j, key in enumerate(keys):
        kind, group, name = _parameter(key)
        section = getattr(base, group)
        if section is None:
            spec.reject(True, ValueError, f"scenario has no {group} section to update")
            continue
        column = np.array(table[:, j], dtype=kind if kind is complex else float)
        if kind is int:  # int() of a float: NaN and infinity have no value
            spec.reject(np.isnan(column), ValueError, "cannot convert float NaN to integer")
            message = "cannot convert float infinity to integer"
            spec.reject(np.isinf(column), OverflowError, message)
            column = np.trunc(column)
        sections.setdefault(group, dict(vars(section)))[name] = column
    for group, values in sections.items():
        for holds, message in getattr(base, group).RULES:
            spec.reject(np.logical_not(holds(SimpleNamespace(**values))), ValueError, message)
    failed = np.array([e is not None for e in spec.errors], dtype=bool)
    for group, values in sections.items():
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value[failed] = getattr(getattr(base, group), name)
    return replace(spec, **{g: type(getattr(base, g))(**v) for g, v in sections.items()})
