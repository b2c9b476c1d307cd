"""Exact treatment of the two-level emitter coupled to a lossy quantized mode.

Everything lives on the truncated product space (two fermionic modes) x
(Fock ladder up to a cutoff).  The generator of the master equation is built
as a sparse superoperator in row-major vectorization, the steady state is
obtained from a direct linear solve with the trace condition substituted for
one row, and fixed-step RK4 on the vectorized equation serves as the
time-evolution route and as an independent oracle for the steady state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .model import (
    FluxReport,
    Occupations,
    SystemSpec,
    effective_energies_quantum,
    resolve_occupations,
)

_RESIDUAL_TOL = 1e-10
_FOCK_TAIL_TOL = 1e-6


class SteadyStateError(RuntimeError):
    """Steady-state solve failed or left a residual above tolerance."""


class FockCutoffError(SteadyStateError):
    """Population of the top Fock levels shows the truncation is inadequate."""


class EvolutionError(RuntimeError):
    """Time evolution violated a conserved-quantity invariant."""


@dataclass(frozen=True)
class HilbertLayout:
    """Index bookkeeping for the fermion x photon product basis.

    Basis states are |n_l, n_u, n_ph> with flat index
    (2 n_l + n_u) (N + 1) + n_ph where N is the Fock cutoff.
    """

    fock_cutoff: int

    def __post_init__(self) -> None:
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be at least 1")

    @property
    def n_photon_states(self) -> int:
        return self.fock_cutoff + 1

    @property
    def dim(self) -> int:
        return 4 * (self.fock_cutoff + 1)

    def flat_index(self, n_l: int, n_u: int, n_ph: int) -> int:
        if n_l not in (0, 1) or n_u not in (0, 1):
            raise ValueError("fermionic occupations must be 0 or 1")
        if not 0 <= n_ph <= self.fock_cutoff:
            raise ValueError("photon number outside the truncated ladder")
        return (2 * n_l + n_u) * self.n_photon_states + n_ph

    def labels(self, index: int) -> tuple[int, int, int]:
        if not 0 <= index < self.dim:
            raise ValueError("flat index out of range")
        fermion, n_ph = divmod(index, self.n_photon_states)
        n_l, n_u = divmod(fermion, 2)
        return n_l, n_u, n_ph


@dataclass(frozen=True)
class OperatorSet:
    """Dense matrices of the elementary operators and the Hamiltonian."""

    c_u: np.ndarray
    c_l: np.ndarray
    a: np.ndarray
    n_u: np.ndarray
    n_l: np.ndarray
    n_ph: np.ndarray
    hamiltonian: np.ndarray


@dataclass(frozen=True)
class Liouvillian:
    """Sparse vectorized generator together with its basis layout."""

    matrix: sp.csr_matrix
    layout: HilbertLayout


@dataclass(frozen=True)
class QuantumState:
    """Density matrix on the truncated product space."""

    rho: np.ndarray

    def validate(self) -> None:
        rho = self.rho
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > 1e-12:
            raise ValueError(f"state not Hermitian (deviation {herm:.3e})")
        tr = np.trace(rho)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"state trace {tr} differs from 1")
        lowest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
        if lowest < -1e-10:
            raise ValueError(f"state has negative eigenvalue {lowest:.3e}")


@dataclass(frozen=True)
class QuantumObservables:
    """Single-time expectation values entering rates and fluxes.

    ``y`` is the field-coherence correlator whose imaginary part sets the
    transition rate; ``f_exact`` is the emission correlator and ``f_hf`` its
    mean-field factorization.
    """

    sigma_uu: float
    sigma_ll: float
    n_ph: float
    y: complex
    f_exact: float
    f_hf: float
    rate: float


class SignCondition(NamedTuple):
    lhs_sign: int
    rhs_sign: int
    agree: bool


@dataclass(frozen=True)
class QuantumSolution:
    """Steady state together with the objects used to produce it."""

    state: QuantumState
    layout: HilbertLayout
    ops: OperatorSet
    liouvillian: Liouvillian
    occupations: Occupations
    residual: float
    fock_tail: float


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_PARITY = np.diag([1.0, -1.0]).astype(complex)  # (-1)^n on one mode
_ID2 = np.eye(2, dtype=complex)


def build_operators(
    layout: HilbertLayout,
    spec: SystemSpec,
    ordering: tuple[str, str] = ("l", "u"),
) -> OperatorSet:
    """Jordan-Wigner fermion operators tensored with the photon ladder.

    ``ordering`` fixes which mode carries the parity string; observables are
    independent of the choice, which is exercised by the tests.
    """
    if spec.cavity is None:
        raise ValueError("quantum treatment requires a cavity")
    if ordering == ("l", "u"):
        # n_l is the high bit of the fermion index.
        c_l_f = np.kron(_LOWER, _ID2)
        c_u_f = np.kron(_PARITY, _LOWER)
    elif ordering == ("u", "l"):
        c_u_f = np.kron(_ID2, _LOWER)
        c_l_f = np.kron(_LOWER, _PARITY)
    else:
        raise ValueError(f"unknown fermion ordering {ordering!r}")

    n_fock = layout.n_photon_states
    a_ph = np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), k=1).astype(complex)
    id_ph = np.eye(n_fock, dtype=complex)
    id_f = np.eye(4, dtype=complex)

    c_u = np.kron(c_u_f, id_ph)
    c_l = np.kron(c_l_f, id_ph)
    a = np.kron(id_f, a_ph)
    n_u = c_u.conj().T @ c_u
    n_l = c_l.conj().T @ c_l
    n_ph = a.conj().T @ a

    g = complex(spec.cavity.g)
    h = (
        spec.levels.e_upper * n_u
        + spec.levels.e_lower * n_l
        + spec.cavity.omega_cav * n_ph
        + g * (c_u.conj().T @ c_l @ a)
        + g.conjugate() * (c_l.conj().T @ c_u @ a.conj().T)
    )
    return OperatorSet(c_u=c_u, c_l=c_l, a=a, n_u=n_u, n_l=n_l, n_ph=n_ph, hamiltonian=h)


def _spre(m: np.ndarray) -> sp.csr_matrix:
    # Row-major vectorization: vec(A X B) = kron(A, B^T) vec(X).
    d = m.shape[0]
    return sp.kron(sp.csr_matrix(m), sp.identity(d, dtype=complex, format="csr"), format="csr")


def _spost(m: np.ndarray) -> sp.csr_matrix:
    d = m.shape[0]
    return sp.kron(sp.identity(d, dtype=complex, format="csr"), sp.csr_matrix(m.T), format="csr")


def _dissipator_super(m: np.ndarray) -> sp.csr_matrix:
    md = m.conj().T
    mdm = md @ m
    sandwich = sp.kron(sp.csr_matrix(m), sp.csr_matrix(m.conj()), format="csr")
    return sandwich - 0.5 * (_spre(mdm) + _spost(mdm))


def build_liouvillian(
    ops: OperatorSet, spec: SystemSpec, occupations: Occupations | None = None
) -> Liouvillian:
    """Vectorized generator of the master equation as a sparse matrix."""
    occ = occupations or resolve_occupations(spec, "quantum")
    layout = HilbertLayout(ops.a.shape[0] // 4 - 1)

    h = ops.hamiltonian
    lmat = -1j * (_spre(h) - _spost(h))
    lmat = lmat + spec.reservoir_u.gamma * (
        occ.f_u * _dissipator_super(ops.c_u.conj().T)
        + (1.0 - occ.f_u) * _dissipator_super(ops.c_u)
    )
    lmat = lmat + spec.reservoir_l.gamma * (
        occ.f_l * _dissipator_super(ops.c_l.conj().T)
        + (1.0 - occ.f_l) * _dissipator_super(ops.c_l)
    )
    if spec.bath is not None and spec.bath.gamma > 0:
        if occ.n_b is None:
            raise ValueError("bosonic bath present but no occupation resolved")
        lmat = lmat + spec.bath.gamma * (
            (occ.n_b + 1.0) * _dissipator_super(ops.a)
            + occ.n_b * _dissipator_super(ops.a.conj().T)
        )
    return Liouvillian(matrix=lmat.tocsr(), layout=layout)


def photon_populations(rho: np.ndarray, layout: HilbertLayout) -> np.ndarray:
    """Diagonal photon-number distribution traced over the fermions."""
    diag = np.real(np.diag(rho)).reshape(4, layout.n_photon_states)
    return diag.sum(axis=0)


def fock_tail(rho: np.ndarray, layout: HilbertLayout) -> float:
    """Population of the top two Fock levels; the truncation-error monitor."""
    pops = photon_populations(rho, layout)
    return float(pops[-2:].sum())


def steady_state(liouvillian: Liouvillian) -> QuantumState:
    """Null vector of the generator, normalized to unit trace.

    One row of the vectorized generator is replaced by the trace condition
    and the resulting linear system is solved directly.  Raises
    SteadyStateError when the residual exceeds tolerance and FockCutoffError
    when the top of the Fock ladder is populated.
    """
    layout = liouvillian.layout
    d = layout.dim
    n = d * d

    a = liouvillian.matrix.tolil(copy=True)
    trace_row = np.zeros(n, dtype=complex)
    trace_row[np.arange(d) * (d + 1)] = 1.0
    a[0] = trace_row
    b = np.zeros(n, dtype=complex)
    b[0] = 1.0
    try:
        x = splu(a.tocsc()).solve(b)
    except RuntimeError as exc:  # singular factorization
        raise SteadyStateError(f"steady-state solve failed: {exc}") from exc

    rho = x.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    residual = float(np.max(np.abs(liouvillian.matrix @ rho.ravel())))
    if not math.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise SteadyStateError(f"steady-state residual {residual:.3e} above tolerance")

    tail = fock_tail(rho, layout)
    if tail > _FOCK_TAIL_TOL:
        raise FockCutoffError(
            f"top Fock levels hold population {tail:.3e}; increase the cutoff"
        )

    state = QuantumState(rho)
    state.validate()
    return state


def quantum_steady_state(
    spec: SystemSpec,
    occupations: Occupations | None = None,
    fock_cutoff: int | None = None,
    ordering: tuple[str, str] = ("l", "u"),
    max_enlargements: int = 2,
) -> QuantumSolution:
    """Solve for the steady state, enlarging the Fock cutoff on demand.

    On a FockCutoffError the cutoff is raised by 4 and the solve is retried,
    up to ``max_enlargements`` times.
    """
    if spec.cavity is None:
        raise ValueError("quantum treatment requires a cavity")
    occ = occupations or resolve_occupations(spec, "quantum")
    cutoff = fock_cutoff if fock_cutoff is not None else spec.cavity.fock_cutoff

    last_error: FockCutoffError | None = None
    for attempt in range(max_enlargements + 1):
        layout = HilbertLayout(cutoff + 4 * attempt)
        ops = build_operators(layout, spec, ordering=ordering)
        liouv = build_liouvillian(ops, spec, occ)
        try:
            state = steady_state(liouv)
        except FockCutoffError as exc:
            last_error = exc
            continue
        residual = float(np.max(np.abs(liouv.matrix @ state.rho.ravel())))
        return QuantumSolution(
            state=state,
            layout=layout,
            ops=ops,
            liouvillian=liouv,
            occupations=occ,
            residual=residual,
            fock_tail=fock_tail(state.rho, layout),
        )
    raise last_error


def liouvillian_norm_estimate(liouvillian: Liouvillian) -> float:
    """Infinity-norm upper bound used for the RK4 step-size rule."""
    return float(np.max(np.abs(liouvillian.matrix).sum(axis=1)))


def evolve_quantum(
    rho0: np.ndarray,
    liouvillian: Liouvillian,
    t_final: float,
    dt: float | None = None,
) -> QuantumState:
    """Fixed-step RK4 on the vectorized master equation.

    Trace and Hermiticity are monitored along the run and must stay within
    1e-9; the returned state is symmetrized and renormalized.
    """
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    d = liouvillian.layout.dim
    if rho0.shape != (d, d):
        raise ValueError(f"initial state must be {d}x{d}")

    norm = liouvillian_norm_estimate(liouvillian)
    bound = 0.05 / norm if norm > 0 else math.inf
    if dt is None:
        dt = bound if math.isfinite(bound) else max(t_final, 1.0)
    elif dt > bound * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt:.3g} exceeds the stability bound {bound:.3g}")

    if t_final == 0.0:
        state = QuantumState(rho0.astype(complex))
        state.validate()
        return state

    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    h = t_final / n_steps
    m = liouvillian.matrix
    y = rho0.astype(complex).ravel()

    check_stride = max(1, n_steps // 64)
    for step in range(1, n_steps + 1):
        k1 = m @ y
        k2 = m @ (y + 0.5 * h * k1)
        k3 = m @ (y + 0.5 * h * k2)
        k4 = m @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % check_stride == 0 or step == n_steps:
            rho = y.reshape(d, d)
            trace_drift = abs(np.trace(rho) - 1.0)
            herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
            if trace_drift > 1e-9 or herm_drift > 1e-9:
                raise EvolutionError(
                    f"invariant drift at step {step}/{n_steps}: "
                    f"|tr-1| = {trace_drift:.3e}, hermiticity = {herm_drift:.3e}"
                )

    rho = y.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    state = QuantumState(rho)
    state.validate()
    return state


def thermal_product_state(
    layout: HilbertLayout, f_u: float, f_l: float, n_b: float
) -> np.ndarray:
    """Uncorrelated state with given level fillings and a thermal photon tail.

    This is the exact steady state at zero emitter-photon coupling (the
    photon distribution is the truncated geometric one).
    """
    rho_l = np.diag([1.0 - f_l, f_l]).astype(complex)
    rho_u = np.diag([1.0 - f_u, f_u]).astype(complex)
    n = np.arange(layout.n_photon_states, dtype=float)
    if n_b > 0:
        weights = (n_b / (1.0 + n_b)) ** n
    else:
        weights = np.where(n == 0, 1.0, 0.0)
    rho_ph = np.diag(weights / weights.sum()).astype(complex)
    return np.kron(np.kron(rho_l, rho_u), rho_ph)


def _trace(op: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.einsum("ij,ji->", op, rho))


def observables(rho: np.ndarray, ops: OperatorSet, spec: SystemSpec) -> QuantumObservables:
    """Populations, photon number, coherence correlator, and rate."""
    g = complex(spec.cavity.g)
    sigma_uu = _trace(ops.n_u, rho).real
    sigma_ll = _trace(ops.n_l, rho).real
    n_ph = _trace(ops.n_ph, rho).real
    y = g.conjugate() * _trace(ops.c_l.conj().T @ ops.c_u @ ops.a.conj().T, rho)
    eye = np.eye(rho.shape[0], dtype=complex)
    f_exact = (
        _trace(ops.n_u @ (eye - ops.n_l), rho).real
        + _trace((ops.n_u - ops.n_l) @ ops.n_ph, rho).real
    )
    f_hf = sigma_uu * (1.0 - sigma_ll) + (sigma_uu - sigma_ll) * n_ph
    return QuantumObservables(
        sigma_uu=sigma_uu,
        sigma_ll=sigma_ll,
        n_ph=n_ph,
        y=y,
        f_exact=f_exact,
        f_hf=f_hf,
        rate=2.0 * y.imag,
    )


def _dissipator_action(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    md = m.conj().T
    mdm = md @ m
    return m @ rho @ md - 0.5 * (mdm @ rho + rho @ mdm)


def _reservoir_actions(
    rho: np.ndarray, ops: OperatorSet, spec: SystemSpec, occ: Occupations
) -> dict[str, np.ndarray]:
    actions = {
        "u": spec.reservoir_u.gamma
        * (
            occ.f_u * _dissipator_action(ops.c_u.conj().T, rho)
            + (1.0 - occ.f_u) * _dissipator_action(ops.c_u, rho)
        ),
        "l": spec.reservoir_l.gamma
        * (
            occ.f_l * _dissipator_action(ops.c_l.conj().T, rho)
            + (1.0 - occ.f_l) * _dissipator_action(ops.c_l, rho)
        ),
    }
    if spec.bath is not None and spec.bath.gamma > 0:
        actions["b"] = spec.bath.gamma * (
            (occ.n_b + 1.0) * _dissipator_action(ops.a, rho)
            + occ.n_b * _dissipator_action(ops.a.conj().T, rho)
        )
    else:
        actions["b"] = np.zeros_like(rho)
    return actions


def fluxes_quantum(
    rho_ss: np.ndarray,
    ops: OperatorSet,
    spec: SystemSpec,
    occupations: Occupations | None = None,
) -> FluxReport:
    """Per-reservoir energy and particle flows in the steady state.

    Each energy flow is evaluated both as the trace against the Hamiltonian
    and through its closed form in terms of populations and the coherence
    correlator; disagreement beyond 1e-9 raises, since it signals an
    inconsistent generator.
    """
    occ = occupations or resolve_occupations(spec, "quantum")
    h = ops.hamiltonian
    actions = _reservoir_actions(rho_ss, ops, spec, occ)

    rhs = -1j * (h @ rho_ss - rho_ss @ h) + actions["u"] + actions["l"] + actions["b"]
    residual = float(np.max(np.abs(rhs)))
    if residual > _RESIDUAL_TOL:
        raise ValueError(f"state is not stationary (residual {residual:.3e})")

    number_op = ops.n_u + ops.n_l
    edot = {name: _trace(h, act).real for name, act in actions.items()}
    ndot_u = _trace(number_op, actions["u"]).real
    ndot_l = _trace(number_op, actions["l"]).real

    obs = observables(rho_ss, ops, spec)
    two_re_y = 2.0 * obs.y.real
    gamma_b = spec.bath.gamma if spec.bath is not None else 0.0
    n_b = occ.n_b if occ.n_b is not None else 0.0
    closed = {
        "u": spec.levels.e_upper * spec.reservoir_u.gamma * (occ.f_u - obs.sigma_uu)
        - 0.5 * spec.reservoir_u.gamma * two_re_y,
        "l": spec.levels.e_lower * spec.reservoir_l.gamma * (occ.f_l - obs.sigma_ll)
        - 0.5 * spec.reservoir_l.gamma * two_re_y,
        "b": spec.cavity.omega_cav * gamma_b * (n_b - obs.n_ph)
        - 0.5 * gamma_b * two_re_y,
    }
    for name in ("u", "l", "b"):
        mismatch = abs(edot[name] - closed[name])
        if mismatch > 1e-9 * max(1.0, abs(edot[name])):
            raise RuntimeError(
                f"energy flow {name}: trace form {edot[name]:.12e} and closed form "
                f"{closed[name]:.12e} disagree"
            )

    eff = effective_energies_quantum(
        spec.levels, spec.cavity, spec.reservoir_u.gamma, spec.reservoir_l.gamma, gamma_b
    )
    rate = obs.rate
    if abs(rate) < 1e-12:
        e_flux_u = e_flux_l = e_flux_ph = math.nan
    else:
        e_flux_u = edot["u"] / rate
        e_flux_l = -edot["l"] / rate
        e_flux_ph = -edot["b"] / rate

    return FluxReport(
        treatment="quantum",
        rate=rate,
        ndot_u=ndot_u,
        ndot_l=ndot_l,
        edot_u=edot["u"],
        edot_l=edot["l"],
        edot_opt=edot["b"],
        e_eff_u=eff.e_upper,
        e_eff_l=eff.e_lower,
        e_eff_ph=eff.e_photon,
        e_flux_u=e_flux_u,
        e_flux_l=e_flux_l,
        e_flux_ph=e_flux_ph,
        first_law_residual=edot["u"] + edot["l"] + edot["b"],
        f_u=occ.f_u,
        f_l=occ.f_l,
        n_b=occ.n_b,
    )


def _sign_with_deadband(x: float, deadband: float) -> int:
    if abs(x) < deadband:
        return 0
    return 1 if x > 0 else -1


def sign_condition(
    obs: QuantumObservables, occupations: Occupations, deadband: float = 1e-12
) -> SignCondition:
    """Mean-field sign prediction for the rate against the exact sign.

    The prediction compares the emission odds f_u/(1-f_u) with the
    absorption odds f_l/(1-f_l) * n_b/(1+n_b).  When the exact rate lies in
    the dead band both sides are treated as zero.
    """
    f_u, f_l, n_b = occupations
    if n_b is None:
        raise ValueError("sign condition requires a bosonic bath occupation")
    if f_u >= 1.0 or f_l >= 1.0:
        raise ValueError("occupations must be strictly below 1")

    lhs_sign = _sign_with_deadband(obs.rate, deadband)
    if lhs_sign == 0:
        return SignCondition(0, 0, True)
    rhs = f_u / (1.0 - f_u) - (f_l / (1.0 - f_l)) * (n_b / (1.0 + n_b))
    rhs_sign = _sign_with_deadband(rhs, deadband)
    return SignCondition(lhs_sign, rhs_sign, lhs_sign == rhs_sign)
