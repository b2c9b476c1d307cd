"""Rotating-frame dynamics of the classically driven two-level system.

The reduced density matrix (sigma_uu, sigma_ll, sigma_ul) obeys a linear
affine ODE in the frame co-rotating with the drive.  This module provides the
equations of motion, their exact flow (the matrix exponential of the
augmented affine generator), the closed-form steady state, and the
steady-state particle/energy fluxes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    FluxReport,
    Occupations,
    SystemSpec,
    detuning,
    effective_energies_classical,
    resolve_occupations,
)

# Populations may leave [0, 1] by at most this much, in the initial state
# and in the propagated one.  The slack admits rounding in a propagated state,
# which a trajectory feeds back as the start of its next segment.
_POPULATION_SLACK = 1e-6


class PositivityWarning(UserWarning):
    """Coherence exceeds the positivity bound of the reduced state."""


@dataclass(frozen=True)
class BlochState:
    """Reduced density-matrix elements; also used for their derivatives."""

    sigma_uu: float
    sigma_ll: float
    sigma_ul: complex


@dataclass(frozen=True)
class ClassicalSteadyState:
    """Closed-form steady state with its rate decomposition.

    rate == alpha * saturation_h * (f_u - f_l): a Lorentzian absorption rate
    ``alpha`` times a saturation factor ``saturation_h`` in (0, 1] times the
    occupation imbalance.
    """

    bloch: BlochState
    rate: float
    alpha: float
    saturation_h: float


def check_physical(state: BlochState) -> None:
    """Warn when the state violates the two-level positivity bound.

    The bound |sigma_ul|^2 <= sigma_uu * sigma_ll is monitored rather than
    enforced: the two-reservoir equations of motion do not guarantee it for
    arbitrary transients.
    """
    if abs(state.sigma_ul) ** 2 > state.sigma_uu * state.sigma_ll + 1e-9:
        warnings.warn(
            f"|sigma_ul|^2 = {abs(state.sigma_ul) ** 2:.3e} exceeds "
            f"sigma_uu*sigma_ll = {state.sigma_uu * state.sigma_ll:.3e}",
            PositivityWarning,
            stacklevel=2,
        )


def bloch_rhs(
    state: BlochState, spec: SystemSpec, occupations: Occupations | None = None
) -> BlochState:
    """Time derivative of the reduced density matrix in the rotating frame."""
    if spec.drive is None:
        raise ValueError("classical dynamics requires a drive")
    occ = occupations or resolve_occupations(spec, "classical")
    gamma_u = spec.reservoir_u.gamma
    gamma_l = spec.reservoir_l.gamma
    eps = complex(spec.drive.epsilon)
    delta = detuning(spec.levels, spec.drive.omega)

    # Instantaneous u -> l transition rate, 2 Im(eps* sigma_ul).
    rate = 2.0 * (eps.conjugate() * state.sigma_ul).imag
    d_uu = gamma_u * (occ.f_u - state.sigma_uu) - rate
    d_ll = gamma_l * (occ.f_l - state.sigma_ll) + rate
    d_ul = (
        1j * delta * state.sigma_ul
        + 1j * eps * (state.sigma_uu - state.sigma_ll)
        - 0.5 * (gamma_u + gamma_l) * state.sigma_ul
    )
    return BlochState(d_uu, d_ll, d_ul)


def _as_vector(state: BlochState) -> np.ndarray:
    return np.array(
        [state.sigma_uu, state.sigma_ll, state.sigma_ul.real, state.sigma_ul.imag]
    )


def _from_vector(y: np.ndarray) -> BlochState:
    return BlochState(float(y[0]), float(y[1]), complex(y[2], y[3]))


def _affine_generator(spec: SystemSpec, occ: Occupations) -> np.ndarray:
    """Augmented 5x5 generator G = [[M, b], [0, 0]] of y' = M y + b.

    With z = [y, 1] the affine equations read z' = G z, so exp(G t) is their
    exact flow (Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  M and
    b are obtained by probing bloch_rhs on basis states, so the flow is tied
    to the equations of motion by construction.
    """
    gen = np.zeros((5, 5))
    b = _as_vector(bloch_rhs(_from_vector(np.zeros(4)), spec, occ))
    gen[:4, 4] = b
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        gen[:4, j] = _as_vector(bloch_rhs(_from_vector(e), spec, occ)) - b
    return gen


def _populations_in_range(y: np.ndarray) -> bool:
    """Both populations within [0, 1] up to the slack; False if either is NaN."""
    return bool(np.all((y[:2] >= -_POPULATION_SLACK) & (y[:2] <= 1.0 + _POPULATION_SLACK)))


def evolve(
    state0: BlochState,
    spec: SystemSpec,
    t_final: float,
    occupations: Occupations | None = None,
) -> BlochState:
    """exp(G t_final) applied to [y0, 1]: the exact flow of the Bloch equations.

    ``scipy.linalg.expm`` evaluates the exponential of the augmented
    generator to rounding (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
    970 (2009)).  Negative ``t_final`` evolves backwards.  A non-finite
    initial state or an initial population outside [0, 1] raises ValueError;
    a propagated population outside [0, 1] raises RuntimeError.
    """
    if spec.drive is None:
        raise ValueError("classical dynamics requires a drive")
    y0 = _as_vector(state0)
    if not (np.all(np.isfinite(y0)) and _populations_in_range(y0)):
        raise ValueError(
            f"initial populations ({y0[0]:.6g}, {y0[1]:.6g}) must lie in [0, 1] "
            "with a finite coherence"
        )
    occ = occupations or resolve_occupations(spec, "classical")
    y = (scipy.linalg.expm(_affine_generator(spec, occ) * t_final) @ np.append(y0, 1.0))[:4]
    if not _populations_in_range(y):
        raise RuntimeError(f"population left [0, 1] at t = {t_final:.6g}")
    return _from_vector(y)


def steady_state_closed_form(
    spec: SystemSpec, occupations: Occupations | None = None
) -> ClassicalSteadyState:
    """Explicit steady state of the rotating-frame equations.

    alpha is the power-broadened Lorentzian rate, saturation_h in (0, 1]
    quenches the population imbalance at strong driving, and the transition
    rate is alpha * saturation_h * (f_u - f_l).
    """
    if spec.drive is None:
        raise ValueError("classical steady state requires a drive")
    occ = occupations or resolve_occupations(spec, "classical")
    gamma_u = spec.reservoir_u.gamma
    gamma_l = spec.reservoir_l.gamma
    if gamma_u <= 0 or gamma_l <= 0:
        raise ValueError("both reservoir rates must be positive")
    eps = complex(spec.drive.epsilon)
    delta = detuning(spec.levels, spec.drive.omega)
    gamma_sum = gamma_u + gamma_l

    alpha = abs(eps) ** 2 * gamma_sum / (gamma_sum**2 / 4.0 + delta**2)
    h = gamma_u * gamma_l / (gamma_u * gamma_l + alpha * gamma_sum)
    pumped = alpha * (gamma_u * occ.f_u + gamma_l * occ.f_l)
    denom = gamma_u * gamma_l + alpha * gamma_sum
    sigma_uu = (pumped + gamma_u * gamma_l * occ.f_u) / denom
    sigma_ll = (pumped + gamma_u * gamma_l * occ.f_l) / denom
    sigma_ul = -eps * (sigma_uu - sigma_ll) / (delta + 0.5j * gamma_sum)
    rate = alpha * h * (occ.f_u - occ.f_l)

    state = BlochState(sigma_uu, sigma_ll, sigma_ul)
    check_physical(state)
    return ClassicalSteadyState(bloch=state, rate=rate, alpha=alpha, saturation_h=h)


def fluxes_classical(
    ss: ClassicalSteadyState, spec: SystemSpec, occupations: Occupations | None = None
) -> FluxReport:
    """Steady-state fluxes and the effective energies they encode.

    Energy flows are evaluated from the general trace formulas; the closed
    forms E_eff * rate emerge identically and are reported both ways.
    """
    occ = occupations or resolve_occupations(spec, "classical")
    residual_state = bloch_rhs(ss.bloch, spec, occ)
    residual = max(
        abs(residual_state.sigma_uu),
        abs(residual_state.sigma_ll),
        abs(residual_state.sigma_ul),
    )
    if residual > 1e-9:
        raise ValueError(f"state is not stationary (residual {residual:.3e})")

    gamma_u = spec.reservoir_u.gamma
    gamma_l = spec.reservoir_l.gamma
    eps = complex(spec.drive.epsilon)
    omega = spec.drive.omega
    z = eps.conjugate() * ss.bloch.sigma_ul

    rate = 2.0 * z.imag
    ndot_u = gamma_u * (occ.f_u - ss.bloch.sigma_uu)
    ndot_l = gamma_l * (occ.f_l - ss.bloch.sigma_ll)
    edot_u = spec.levels.e_upper * ndot_u - gamma_u * z.real
    edot_l = spec.levels.e_lower * ndot_l - gamma_l * z.real
    power = -omega * rate

    eff = effective_energies_classical(spec.levels, spec.drive, gamma_u, gamma_l)
    if abs(rate) < 1e-12:
        e_flux_u = e_flux_l = e_flux_ph = math.nan
    else:
        e_flux_u = edot_u / rate
        e_flux_l = -edot_l / rate
        e_flux_ph = -power / rate

    return FluxReport(
        treatment="classical",
        rate=rate,
        ndot_u=ndot_u,
        ndot_l=ndot_l,
        edot_u=edot_u,
        edot_l=edot_l,
        edot_opt=power,
        e_eff_u=eff.e_upper,
        e_eff_l=eff.e_lower,
        e_eff_ph=eff.e_photon,
        e_flux_u=e_flux_u,
        e_flux_l=e_flux_l,
        e_flux_ph=e_flux_ph,
        first_law_residual=edot_u + edot_l + power,
        f_u=occ.f_u,
        f_l=occ.f_l,
        n_b=occ.n_b,
    )


def entropy_production_classical(report: FluxReport, spec: SystemSpec) -> float:
    """Total entropy production rate; the classical field carries none."""
    return report.rate * (
        (report.e_eff_l - spec.reservoir_l.mu) / spec.reservoir_l.temperature
        - (report.e_eff_u - spec.reservoir_u.mu) / spec.reservoir_u.temperature
    )
