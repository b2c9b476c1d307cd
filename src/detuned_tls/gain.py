"""Net inter-subband transition rate versus detuning.

Two broadened subbands with energy-dependent occupations exchange photons at
a rate given by a Lorentzian line shape times a weighted occupation
difference whose energy arguments are shifted by the detuning.  The weighted
difference equals the plain difference evaluated at rate-weighted average
energies, which reproduces the effective-energy shifts of the two-level
treatment.  Rates are reported in arbitrary units (unit prefactor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import fermi

SubbandOccupation = Callable[[float], float]


@dataclass(frozen=True)
class FermiOccupation:
    """Fermi function of the in-plane energy."""

    temperature: float
    mu: float

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    def __call__(self, e: float) -> float:
        return fermi(e, self.mu, self.temperature)


@dataclass(frozen=True)
class LinearOccupation:
    """Affine occupation f0 + slope * E, clamped to [0, 1]."""

    f0: float
    slope: float

    def __call__(self, e: float) -> float:
        return min(1.0, max(0.0, self.f0 + self.slope * e))


@dataclass(frozen=True)
class TabulatedOccupation:
    """Linear interpolation between nodes, flat beyond the endpoints."""

    energies: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.energies) != len(self.values) or len(self.energies) < 2:
            raise ValueError("need at least two (energy, value) nodes")
        if not all(a < b for a, b in zip(self.energies, self.energies[1:])):
            raise ValueError("node energies must be strictly increasing")
        if not all(0.0 <= v <= 1.0 for v in self.values):
            raise ValueError("node values must lie in [0, 1]")

    def __call__(self, e: float) -> float:
        return float(np.interp(e, self.energies, self.values))


@dataclass(frozen=True)
class GainSpectrum:
    """Sampled net transition rate over a detuning grid (arbitrary units)."""

    detunings: np.ndarray
    rates: np.ndarray
    k0_energy: float


class AverageEnergyCheck(NamedTuple):
    bracket_value: float
    at_average_energies: float
    difference: float


def _weighted_bracket(
    e_k0: float,
    delta: float,
    gamma_u: float,
    gamma_l: float,
    f_upper: SubbandOccupation,
    f_lower: SubbandOccupation,
) -> tuple[float, float]:
    """Total broadening and the rate-weighted, detuning-shifted occupation difference."""
    gamma_sum = gamma_u + gamma_l
    if gamma_sum <= 0:
        raise ValueError("gamma_u + gamma_l must be positive")
    bracket = (
        gamma_l * (f_upper(e_k0) - f_lower(e_k0 - delta))
        + gamma_u * (f_upper(e_k0 + delta) - f_lower(e_k0))
    ) / gamma_sum
    return gamma_sum, bracket


def bloch_rate(
    e_k0: float,
    delta: float,
    gamma_u: float,
    gamma_l: float,
    f_upper: SubbandOccupation,
    f_lower: SubbandOccupation,
) -> float:
    """Net u -> l rate at in-plane energy ``e_k0`` and detuning ``delta``.

    Lorentzian broadening times the rate-weighted occupation differences
    with detuning-shifted arguments.  Positive for net emission.
    """
    gamma_sum, bracket = _weighted_bracket(e_k0, delta, gamma_u, gamma_l, f_upper, f_lower)
    lorentz = gamma_sum / (delta**2 + gamma_sum**2 / 4.0)
    return lorentz * bracket


def gain_spectrum(
    e_k0: float,
    detunings: np.ndarray,
    gamma_u: float,
    gamma_l: float,
    f_upper: SubbandOccupation,
    f_lower: SubbandOccupation,
) -> GainSpectrum:
    """Pointwise rate over a detuning grid."""
    grid = np.asarray(detunings, dtype=float)
    rates = np.array(
        [bloch_rate(e_k0, d, gamma_u, gamma_l, f_upper, f_lower) for d in grid]
    )
    return GainSpectrum(detunings=grid, rates=rates, k0_energy=e_k0)


def average_energy_equivalence(
    e_k0: float,
    delta: float,
    gamma_u: float,
    gamma_l: float,
    f_upper: SubbandOccupation,
    f_lower: SubbandOccupation,
) -> AverageEnergyCheck:
    """Weighted occupation bracket versus the average-energy reading.

    The upper/lower occupation is evaluated at e_k0 shifted by the detuning
    weighted with gamma_u/(gamma_u+gamma_l) and gamma_l/(gamma_u+gamma_l);
    these shifts match the effective-energy shifts of the driven two-level
    system.  The two readings agree exactly for occupations affine in energy
    and to second order in the detuning otherwise.
    """
    gamma_sum, bracket = _weighted_bracket(e_k0, delta, gamma_u, gamma_l, f_upper, f_lower)
    e_avg_u = e_k0 + delta * gamma_u / gamma_sum
    e_avg_l = e_k0 - delta * gamma_l / gamma_sum
    at_average = f_upper(e_avg_u) - f_lower(e_avg_l)
    return AverageEnergyCheck(bracket, at_average, bracket - at_average)
