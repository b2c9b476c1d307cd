"""Mean-field laser treatment: pulled frequency, intensity, field dynamics.

Treating the cavity amplitude as a classical variable closes the equations
of motion.  Demanding a time-independent steady state in a frame rotating at
the oscillation frequency fixes that frequency to a rate-weighted mean of the
cavity and transition frequencies (frequency pulling) and yields a closed
form for the saturated intensity.  ``evolve_meanfield`` checks that a seeded
field settles there, integrating the same equations with adaptive DOP853.
Both read the reservoir occupations from ``spec.quantum_occupations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CavitySpec, EnergyLevels, SystemSpec


# Tolerances of the adaptive integrator, and the field magnitude taken as divergence.
_RTOL = 1e-10
_ATOL = 1e-12
_DIVERGENCE_BOUND = 1e6


@dataclass(frozen=True)
class LaserSolution:
    """Oscillation frequency and saturated field of the mean-field laser.

    The oscillation frequency depends only on rates and energies, never on
    the reservoir occupations.  Below threshold the field is zero; above it
    the global phase is fixed so that the amplitude is real and positive.
    ``small_signal_gain`` is the unsaturated gain-to-loss ratio; threshold
    sits at 1.
    """

    omega: float
    a_ss: complex
    sigma_ul_ss: complex
    intensity: float
    above_threshold: bool
    small_signal_gain: float


@dataclass(frozen=True)
class MeanFieldState:
    sigma_uu: float
    sigma_ll: float
    sigma_ul: complex
    field: complex


@dataclass(frozen=True)
class MeanFieldTrajectory:
    t: np.ndarray
    sigma_uu: np.ndarray
    sigma_ll: np.ndarray
    sigma_ul: np.ndarray
    field: np.ndarray

    @property
    def final(self) -> MeanFieldState:
        return MeanFieldState(
            float(self.sigma_uu[-1]),
            float(self.sigma_ll[-1]),
            complex(self.sigma_ul[-1]),
            complex(self.field[-1]),
        )


def pulled_frequency(
    levels: EnergyLevels,
    cavity: CavitySpec,
    gamma_u: float,
    gamma_l: float,
    gamma_b: float,
) -> float:
    """Oscillation frequency pulled between cavity and transition.

    Rate-weighted mean of the cavity frequency (weight: atomic broadening)
    and the transition frequency (weight: cavity loss).  Coincides with the
    effective photon energy of the quantum treatment.
    """
    total = gamma_u + gamma_l + gamma_b
    if total <= 0:
        raise ValueError("gamma_u + gamma_l + gamma_b must be positive")
    return ((gamma_u + gamma_l) * cavity.omega_cav + gamma_b * levels.gap) / total


def _laser_coefficients(spec: SystemSpec) -> tuple[float, float, float, float, float]:
    """omega, delta (vs transition), delta_c (vs cavity), loss term A, saturation S."""
    gamma_u = spec.reservoir_u.gamma
    gamma_l = spec.reservoir_l.gamma
    gamma_b = spec.bath.gamma
    omega = pulled_frequency(spec.levels, spec.cavity, gamma_u, gamma_l, gamma_b)
    delta = omega - spec.levels.gap
    delta_c = omega - spec.cavity.omega_cav
    gamma_sum = gamma_u + gamma_l
    a_coeff = delta_c * delta - gamma_b * gamma_sum / 4.0
    saturation = gamma_sum**2 / (gamma_u * gamma_l * (gamma_sum**2 / 4.0 + delta**2))
    return omega, delta, delta_c, a_coeff, saturation


def solve_lasing(spec: SystemSpec) -> LaserSolution:
    """Closed-form lasing solution from the gain-saturation balance.

    An inversion-free medium (f_u <= f_l) is below threshold, not an error.
    """
    if spec.cavity is None or spec.bath is None:
        raise ValueError("lasing requires a cavity and a bosonic bath")
    if spec.bath.gamma <= 0:
        raise ValueError("lasing requires a lossy cavity (bath gamma > 0)")
    occ = spec.quantum_occupations

    omega, _, delta_c, a_coeff, saturation = _laser_coefficients(spec)
    g = complex(spec.cavity.g)
    g2 = abs(g) ** 2
    if g2 <= 0:
        raise ValueError("lasing requires a non-zero coupling")

    # Unsaturated gain over loss; the field balance reads
    # a_coeff = -|g|^2 (f_u - f_l) / (1 + saturation |g a|^2) with a_coeff < 0.
    gain = -g2 * (occ.f_u - occ.f_l) / a_coeff
    if gain <= 1.0:
        return LaserSolution(
            omega=omega,
            a_ss=0.0 + 0.0j,
            sigma_ul_ss=0.0 + 0.0j,
            intensity=0.0,
            above_threshold=False,
            small_signal_gain=gain,
        )

    intensity = (gain - 1.0) / (saturation * g2)
    amplitude = math.sqrt(intensity)
    sigma_ul = (delta_c + 0.5j * spec.bath.gamma) * g * amplitude / g2
    return LaserSolution(
        omega=omega,
        a_ss=complex(amplitude),
        sigma_ul_ss=sigma_ul,
        intensity=intensity,
        above_threshold=True,
        small_signal_gain=gain,
    )


def evolve_meanfield(
    state0: MeanFieldState, spec: SystemSpec, t_final: float
) -> MeanFieldTrajectory:
    """Adaptive DOP853 integration of the factorized equations in the pulled frame.

    The rows are the solver's accepted steps from 0 to ``t_final``.  The
    zero-field state is an exact (unstable) fixed point, so driving the laser
    up from below requires a small seed amplitude.  A field beyond 1e6, at
    the start or on the way, raises RuntimeError.
    """
    if spec.cavity is None or spec.bath is None:
        raise ValueError("mean-field dynamics requires a cavity and a bath")
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be finite and positive")
    # Imported here: scipy.integrate adds about 0.09 s to the package import,
    # and no CLI command integrates the mean-field equations.
    from scipy.integrate import solve_ivp

    occ = spec.quantum_occupations
    _, delta, delta_c, _, _ = _laser_coefficients(spec)

    gamma_u = spec.reservoir_u.gamma
    gamma_l = spec.reservoir_l.gamma
    gamma_b = spec.bath.gamma
    g = complex(spec.cavity.g)
    gamma_sum = gamma_u + gamma_l

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        s_uu, s_ll, s_ul, field = y
        corr = g.conjugate() * field.conjugate() * s_ul  # Y under factorization
        rate = 2.0 * corr.imag
        return np.array(
            [
                gamma_u * (occ.f_u - s_uu.real) - rate,
                gamma_l * (occ.f_l - s_ll.real) + rate,
                1j * delta * s_ul + 1j * g * field * (s_uu - s_ll) - 0.5 * gamma_sum * s_ul,
                1j * delta_c * field - 1j * g.conjugate() * s_ul - 0.5 * gamma_b * field,
            ],
            dtype=complex,
        )

    def diverged(_t: float, y: np.ndarray) -> float:
        return abs(y[3]) - _DIVERGENCE_BOUND

    diverged.terminal = True
    diverged.direction = 1.0

    y0 = np.array(
        [state0.sigma_uu, state0.sigma_ll, state0.sigma_ul, state0.field], dtype=complex
    )
    if not abs(y0[3]) <= _DIVERGENCE_BOUND:
        raise RuntimeError("field diverged at t = 0")
    sol = solve_ivp(
        rhs, (0.0, t_final), y0, method="DOP853", rtol=_RTOL, atol=_ATOL, events=diverged
    )
    if sol.status == 1:
        raise RuntimeError(f"field diverged at t = {sol.t_events[0][0]:.6g}")
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    return MeanFieldTrajectory(sol.t, sol.y[0].real, sol.y[1].real, sol.y[2], sol.y[3])
