"""Rotating-frame dynamics of the classically driven two-level system.

The reduced density matrix (sigma_uu, sigma_ll, sigma_ul) obeys a linear
affine ODE in the frame co-rotating with the drive.  This module provides the
equations of motion, their exact flow (the matrix exponential of the
augmented affine generator, formed once per ``trajectory`` of evenly spaced
rows), the closed-form steady state, and the steady-state particle/energy
fluxes.

The equations of motion, the closed form and the fluxes are written once, as
elementwise NumPy arithmetic: a ``SystemSpec`` is the scalar case and a
``SpecColumns`` (``model.spec_columns``) gives one entry per sample.  Powers
and complex quotients follow libm and CPython, so every sample of a column
equals its scalar evaluation bit for bit.  Each function reads the
reservoir occupations from ``spec.classical_occupations``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    EvolutionError,
    FluxReport,
    SteadyStateError,
    SystemSpec,
    any_of,
    detuning,
    energy_flow,
    expm,
    flux_report,
    lorentz_denominator,
    plain,
    quotient,
    square,
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
    """Warn for each sample that violates the two-level positivity bound.

    The bound |sigma_ul|^2 <= sigma_uu * sigma_ll is monitored rather than
    enforced: the two-reservoir equations of motion do not guarantee it for
    arbitrary transients.
    """
    coherence = np.abs(state.sigma_ul) ** 2
    product = state.sigma_uu * state.sigma_ll
    offending = coherence > product + 1e-9
    if not any_of(offending):
        return
    shape = np.shape(offending)
    for c, p in zip(*(np.broadcast_to(v, shape)[offending] for v in (coherence, product))):
        warnings.warn(
            f"|sigma_ul|^2 = {c:.3e} exceeds sigma_uu*sigma_ll = {p:.3e}",
            PositivityWarning,
            stacklevel=2,
        )


def bloch_equations(sigma_uu, sigma_ll, sigma_ul, eps, delta, gamma_u, gamma_l, f_u, f_l):
    """d(sigma_uu, sigma_ll, sigma_ul)/dt at the complex drive ``eps``, elementwise; the
    atom of the mean-field laser (``laser.evolve_meanfield``) sees eps = g a."""
    # Instantaneous u -> l transition rate, 2 Im(eps* sigma_ul).
    rate = 2.0 * (eps.conjugate() * sigma_ul).imag
    d_uu = gamma_u * (f_u - sigma_uu) - rate
    d_ll = gamma_l * (f_l - sigma_ll) + rate
    d_ul = (
        1j * delta * sigma_ul
        + 1j * eps * (sigma_uu - sigma_ll)
        - 0.5 * (gamma_u + gamma_l) * sigma_ul
    )
    return d_uu, d_ll, d_ul


def bloch_rhs(state: BlochState, spec: SystemSpec) -> BlochState:
    """Time derivative of the reduced density matrix in the rotating frame."""
    occ, delta = spec.classical_occupations, detuning(spec.levels, spec.drive.omega)
    drift = bloch_equations(state.sigma_uu, state.sigma_ll, state.sigma_ul, spec.drive.epsilon + 0j,
                            delta, spec.reservoir_u.gamma, spec.reservoir_l.gamma, occ.f_u, occ.f_l)
    return BlochState(*drift)


def _as_vector(state: BlochState) -> np.ndarray:
    return np.array(
        [state.sigma_uu, state.sigma_ll, state.sigma_ul.real, state.sigma_ul.imag]
    )


def _from_vector(y: np.ndarray) -> BlochState:
    return BlochState(float(y[0]), float(y[1]), complex(y[2], y[3]))


@np.errstate(all="ignore")  # an overflowed generator fails the population check
def _affine_generator(spec: SystemSpec) -> np.ndarray:
    """Augmented 5x5 generator G = [[M, b], [0, 0]] of y' = M y + b.

    With z = [y, 1] the affine equations read z' = G z, so exp(G t) is their
    exact flow (Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  M and
    b are obtained by probing bloch_rhs on the zero state and the four basis
    states at once, so the flow is tied to the equations of motion.
    """
    probes = np.vstack([np.zeros(4), np.eye(4)])
    state = BlochState(probes[:, 0], probes[:, 1], probes[:, 2] + 1j * probes[:, 3])
    drift = bloch_rhs(state, spec)
    columns = np.array([drift.sigma_uu, drift.sigma_ll, drift.sigma_ul.real, drift.sigma_ul.imag])
    gen = np.zeros((5, 5))
    gen[:4] = np.column_stack([columns[:, 1:] - columns[:, :1], columns[:, 0]])
    return gen


def _populations_in_range(y: np.ndarray) -> bool:
    """Both populations within [0, 1] up to the slack; False if either is NaN."""
    return bool(np.all((y[:2] >= -_POPULATION_SLACK) & (y[:2] <= 1.0 + _POPULATION_SLACK)))


def trajectory(state0: BlochState, spec: SystemSpec, t_final: float, n_store: int) -> np.ndarray:
    """The states at ``n_store`` evenly spaced times from 0 to ``t_final``, as an
    (n_store, 4) stack of (sigma_uu, sigma_ll, Re sigma_ul, Im sigma_ul) whose
    row 0 is ``state0``.

    The one-segment propagator exp(G seg), seg = t_final / (n_store - 1),
    is the exact flow of the Bloch equations; ``model.expm`` forms it once,
    to rounding, by scaling and squaring with a Pade approximant (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)), and each later row
    is it applied to [y, 1] of the row before.  A propagator that overflows
    is NaN.  Negative ``t_final`` evolves backwards.  A non-finite
    ``t_final``, a non-finite initial state or an initial population
    outside [0, 1] raises ValueError; the first row whose population leaves
    [0, 1] raises EvolutionError naming its time.
    """
    if n_store < 2:
        raise ValueError("n_store must be at least 2 (the initial and the final state)")
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, not {t_final!r}")
    rows = np.empty((n_store, 4))
    rows[0] = _as_vector(state0)
    if not (np.all(np.isfinite(rows[0])) and _populations_in_range(rows[0])):
        raise ValueError(
            f"initial populations ({rows[0, 0]:.6g}, {rows[0, 1]:.6g}) must lie in [0, 1] "
            "with a finite coherence"
        )
    seg = t_final / (n_store - 1)
    with np.errstate(all="ignore"):  # an overflowed propagator fails the population check
        propagator = expm(_affine_generator(spec) * seg)
    for i in range(1, n_store):
        rows[i] = (propagator @ np.append(rows[i - 1], 1.0))[:4]
        if not _populations_in_range(rows[i]):
            raise EvolutionError(f"population left [0, 1] at t = {i * seg:.6g}")
    return rows


def evolve(state0: BlochState, spec: SystemSpec, t_final: float) -> BlochState:
    """exp(G t_final) applied to [y0, 1]: the last row of a two-row ``trajectory``."""
    return _from_vector(trajectory(state0, spec, t_final, 2)[-1])


@np.errstate(all="ignore")  # a sample that overflows fails the stationarity check
def steady_state_closed_form(spec: SystemSpec) -> ClassicalSteadyState:
    """Explicit steady state of the rotating-frame equations, elementwise.

    alpha is the power-broadened Lorentzian rate, saturation_h in (0, 1]
    quenches the population imbalance at strong driving, and the transition
    rate is alpha * saturation_h * (f_u - f_l).
    """
    occ = spec.classical_occupations
    gamma_u = spec.reservoir_u.gamma
    gamma_l = spec.reservoir_l.gamma
    eps = spec.drive.epsilon + 0j
    delta = detuning(spec.levels, spec.drive.omega)
    gamma_sum = gamma_u + gamma_l

    alpha = square(np.abs(eps)) * gamma_sum / lorentz_denominator(delta, gamma_sum)
    h = gamma_u * gamma_l / (gamma_u * gamma_l + alpha * gamma_sum)
    pumped = alpha * (gamma_u * occ.f_u + gamma_l * occ.f_l)
    denom = gamma_u * gamma_l + alpha * gamma_sum
    sigma_uu = (pumped + gamma_u * gamma_l * occ.f_u) / denom
    sigma_ll = (pumped + gamma_u * gamma_l * occ.f_l) / denom
    sigma_ul = quotient(-eps * (sigma_uu - sigma_ll), delta, 0.5 * gamma_sum)
    rate = alpha * h * (occ.f_u - occ.f_l)

    state = BlochState(plain(sigma_uu), plain(sigma_ll), plain(sigma_ul))
    check_physical(state)
    return ClassicalSteadyState(state, plain(rate), plain(alpha), plain(h))


@np.errstate(all="ignore")  # a sample that overflowed fails the stationarity check
def fluxes_classical(ss: ClassicalSteadyState, spec: SystemSpec) -> FluxReport:
    """Steady-state fluxes and the effective energies they encode, elementwise.

    Energy flows are evaluated from the general trace formulas; the closed
    forms E_eff * rate emerge identically and are reported both ways.  A
    sample whose state is not stationary fails with SteadyStateError.
    """
    occ = spec.classical_occupations
    drift = bloch_rhs(ss.bloch, spec)
    residual = np.maximum.reduce(np.abs([drift.sigma_uu, drift.sigma_ll, drift.sigma_ul]))
    message = "state is not stationary (residual {:.3e})"
    spec.reject(np.logical_not(residual <= 1e-9), SteadyStateError, message, residual)

    gamma_u = spec.reservoir_u.gamma
    gamma_l = spec.reservoir_l.gamma
    omega = spec.drive.omega
    # z = eps* sigma_ul, multiplied out in CPython's order of operations
    eps = np.conjugate(spec.drive.epsilon + 0j)
    eps_re, eps_im = np.real(eps), np.imag(eps)
    s_re, s_im = np.real(ss.bloch.sigma_ul), np.imag(ss.bloch.sigma_ul)
    z_re = eps_re * s_re - eps_im * s_im
    z_im = eps_re * s_im + eps_im * s_re

    rate = 2.0 * z_im
    ndot_u = gamma_u * (occ.f_u - ss.bloch.sigma_uu)
    ndot_l = gamma_l * (occ.f_l - ss.bloch.sigma_ll)
    edot_u = energy_flow(spec.levels.e_upper, ndot_u, gamma_u, z_re)
    edot_l = energy_flow(spec.levels.e_lower, ndot_l, gamma_l, z_re)
    return flux_report(spec, "classical", rate, ndot_u, ndot_l, edot_u, edot_l, -omega * rate)


def entropy_production_classical(report: FluxReport, spec: SystemSpec) -> float:
    """Total entropy production rate; the classical field carries none."""
    return report.rate * (
        (report.e_eff_l - spec.reservoir_l.mu) / spec.reservoir_l.temperature
        - (report.e_eff_u - spec.reservoir_u.mu) / spec.reservoir_u.temperature
    )
