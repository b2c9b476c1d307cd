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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, NamedTuple

Treatment = Literal["classical", "quantum"]

OCC_FIXED = "fixed"
OCC_BARE = "bare"
OCC_EFFECTIVE = "effective"


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


@dataclass(frozen=True)
class EnergyLevels:
    """Bare energies of the two electronic levels, e_upper > e_lower."""

    e_upper: float
    e_lower: float

    def __post_init__(self) -> None:
        if not self.e_upper > self.e_lower:
            raise ValueError("e_upper must be strictly above e_lower")

    @property
    def gap(self) -> float:
        return self.e_upper - self.e_lower


@dataclass(frozen=True)
class ClassicalDrive:
    """Monochromatic classical field: angular frequency and complex amplitude.

    Only |epsilon|^2 enters steady-state results; the phase rotates the
    coherence.
    """

    omega: float
    epsilon: complex

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError("drive frequency must be positive")
        if not math.isfinite(abs(self.epsilon)):
            raise ValueError("drive amplitude must be finite")


@dataclass(frozen=True)
class CavitySpec:
    """Quantized mode: frequency, complex coupling, Fock-space truncation."""

    omega_cav: float
    g: complex
    fock_cutoff: int = 12

    def __post_init__(self) -> None:
        if not self.omega_cav > 0:
            raise ValueError("cavity frequency must be positive")
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be at least 1")


@dataclass(frozen=True)
class FermionicReservoir:
    """Electronic reservoir attached to one level."""

    gamma: float
    occupation: OccupationSpec
    mu: float
    temperature: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError("reservoir coupling gamma must be positive")
        if not self.temperature > 0:
            raise ValueError("reservoir temperature must be positive")
        if self.occupation.kind == OCC_FIXED and not 0.0 <= self.occupation.value <= 1.0:
            raise ValueError("fixed fermionic occupation must lie in [0, 1]")


@dataclass(frozen=True)
class BosonicBath:
    """Thermal bath coupled to the cavity mode."""

    gamma: float
    occupation: OccupationSpec
    temperature: float

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("bath coupling must be non-negative")
        if not self.temperature > 0:
            raise ValueError("bath temperature must be positive")
        if self.occupation.kind == OCC_FIXED and self.occupation.value < 0:
            raise ValueError("fixed bosonic occupation must be non-negative")


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
    total = gamma_u + gamma_l
    if total <= 0:
        raise ValueError("gamma_u + gamma_l must be positive")
    shift = detuning(levels, drive.omega) / total
    return EffectiveEnergies(
        e_upper=levels.e_upper + gamma_u * shift,
        e_lower=levels.e_lower - gamma_l * shift,
        e_photon=drive.omega,
    )


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
    total = gamma_u + gamma_l + gamma_b
    if total <= 0:
        raise ValueError("gamma_u + gamma_l + gamma_b must be positive")
    shift = detuning(levels, cavity.omega_cav) / total
    return EffectiveEnergies(
        e_upper=levels.e_upper + gamma_u * shift,
        e_lower=levels.e_lower - gamma_l * shift,
        e_photon=cavity.omega_cav - gamma_b * shift,
    )


def fermi(e: float, mu: float, temperature: float) -> float:
    """Fermi function 1/(exp((e - mu)/T) + 1), overflow safe."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    x = (e - mu) / temperature
    if x >= 0:
        z = math.exp(-x)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(x))


def bose(e: float, temperature: float) -> float:
    """Bose function 1/(exp(e/T) - 1) for a mode of positive energy.

    Rejects e <= 0: a non-positive effective photon energy has no thermal
    occupation and signals an unphysical parameter combination.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if e <= 0:
        raise ValueError("Bose occupation requires a positive mode energy")
    x = e / temperature
    if x > 700.0:  # expm1 would overflow; the Boltzmann tail underflows smoothly
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def resolve_occupations(spec: SystemSpec, treatment: Treatment) -> Occupations:
    """Turn the occupation specs of a scenario into concrete numbers.

    Thermal-at-effective-energy occupations use the classical or quantum
    effective energies according to ``treatment``.  n_b is None when the
    scenario has no bosonic bath.
    """
    if treatment not in ("classical", "quantum"):
        raise ValueError(f"unknown treatment {treatment!r}")

    gamma_u = spec.reservoir_u.gamma
    gamma_l = spec.reservoir_l.gamma
    if treatment == "classical":
        if spec.drive is None:
            raise ValueError("classical treatment requires a drive")
        eff = effective_energies_classical(spec.levels, spec.drive, gamma_u, gamma_l)
        e_ph_bare = spec.drive.omega
    else:
        if spec.cavity is None:
            raise ValueError("quantum treatment requires a cavity")
        gamma_b = spec.bath.gamma if spec.bath is not None else 0.0
        eff = effective_energies_quantum(spec.levels, spec.cavity, gamma_u, gamma_l, gamma_b)
        e_ph_bare = spec.cavity.omega_cav

    def _fermionic(res: FermionicReservoir, e_bare: float, e_eff: float) -> float:
        occ = res.occupation
        if occ.kind == OCC_FIXED:
            return occ.value
        e = e_bare if occ.kind == OCC_BARE else e_eff
        return fermi(e, res.mu, res.temperature)

    f_u = _fermionic(spec.reservoir_u, spec.levels.e_upper, eff.e_upper)
    f_l = _fermionic(spec.reservoir_l, spec.levels.e_lower, eff.e_lower)

    n_b: float | None = None
    if spec.bath is not None:
        occ = spec.bath.occupation
        if occ.kind == OCC_FIXED:
            n_b = occ.value
        else:
            e = e_ph_bare if occ.kind == OCC_BARE else eff.e_photon
            n_b = bose(e, spec.bath.temperature)

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


def with_parameter(spec: SystemSpec, key: str, value: complex) -> SystemSpec:
    """Return a copy of ``spec`` with one numeric parameter replaced.

    Undotted keys name a field of ``levels``; dotted keys are section.field.
    """
    kind = SCENARIO_KEYS.get(key)
    if kind is None or kind is OccupationSpec:
        raise KeyError(f"unknown parameter key {key!r}")
    group, _, field = key.rpartition(".")
    group = group or "levels"
    target = getattr(spec, group)
    if target is None:
        raise ValueError(f"scenario has no {group} section to update")
    return replace(spec, **{group: replace(target, **{field: kind(value)})})


def with_parameters(spec: SystemSpec, params: dict[str, complex]) -> SystemSpec:
    """Return a copy of ``spec`` with every ``key: value`` of ``params`` applied."""
    for key, value in params.items():
        spec = with_parameter(spec, key, value)
    return spec
