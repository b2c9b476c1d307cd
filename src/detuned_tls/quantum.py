"""Exact treatment of the two-level emitter coupled to a lossy quantized mode.

The model lives on the truncated product space (two fermionic modes) x (Fock
ladder up to a cutoff N).  Its Hamiltonian conserves Q1 = N_u + N_l and
Q2 = N_u + N_ph, and every jump operator shifts Q by the same amount on both
sides of rho, so the generator of the master equation has no elements
between blocks of different charge difference ΔQ, and the steady state lies
in the ΔQ = 0 block (a weak U(1) symmetry: Buča & Prosen, New J. Phys. 14,
073007 (2012); Albert & Jiang, Phys. Rev. A 89, 022118 (2014)).  That sector
holds the 4(N+1) populations and the coherences <1,0,n+1|rho|0,1,n> with
their conjugates: 6N + 4 entries.

The generator on the sector is sum_k c_k B_k: nine coefficients c_k (g,
g*, the level split and the six jump rates) times fixed sparse matrices
B_k whose entries couple photon numbers at most one apart.  Everything
that depends only on the Fock cutoff and on whether the bath channel
exists is built once from index arithmetic and cached (``sector_pattern``):
the pattern of the generator and the map from the c_k onto its values,
the stack of the B_k, and the pattern of the steady-state system.
``build_sector_liouvillian`` only fills in the values of a scenario.  The
steady state comes from a direct sparse solve with the trace condition in
place of one row.  The generator is linear and time independent, so time
evolution is the action of its exponential, exp(L t) rho0 (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 488 (2011)); it never factorizes L and is
an independent oracle for the steady state.  Each flow is an O(N) trace of
H or N against one channel's action, read off one product with the stack.
Positivity is checked on the 2x2 blocks that the coherences form with
their two populations.  The cached arrays are read-only, so threads may
share them.

The full-space construction (dense ``build_operators``, the row-major
superoperator of ``build_liouvillian``, dense ``observables`` and
``thermal_product_state``) is only the reference the sector is tested
against; ``steady_state`` and ``evolve_quantum`` refuse its generator.

Both generators, the steady-state solve and the flows read the reservoir
occupations from ``spec.quantum_occupations``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, splu

from .model import (
    RATE_DEADBAND,
    FluxReport,
    Occupations,
    SteadyStateError,
    SystemSpec,
    effective_energies_quantum,
    flux_report,
)

_RESIDUAL_TOL = 1e-10
_FOCK_TAIL_TOL = 1e-6
_HERMITICITY_TOL = 1e-12
_MAX_ENLARGEMENTS = 2  # cutoff raises of 4 before a FockCutoffError stands

logger = logging.getLogger(__name__)


class FockCutoffError(SteadyStateError):
    """Population of the top Fock levels shows the truncation is inadequate."""

    def __init__(self, message: str, tail: float = math.nan) -> None:
        super().__init__(message)
        self.tail = tail


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

    @property
    def sector_size(self) -> int:
        """Entries of the ΔQ = 0 sector: 4(N+1) populations and 2N coherences."""
        return 6 * self.fock_cutoff + 4

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

    def basis_labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``labels`` of every flat index, as read-only arrays n_l, n_u, n_ph."""
        ix = _indices(self.fock_cutoff)
        return ix.n_l, ix.n_u, ix.n_ph

    def coherence_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of |1,0,n+1> and |0,1,n> for n < N: the states the coupling mixes."""
        ix = _indices(self.fock_cutoff)
        return ix.upper, ix.lower

    def sector_indices(self) -> np.ndarray:
        """Positions in row-major vec(rho) of the sector entries, in sector order."""
        return _indices(self.fock_cutoff).sector


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
    """Sparse generator of the master equation, with its basis layout.

    ``build_sector_liouvillian`` gives it on the ΔQ = 0 sector, together
    with the ``pattern`` it was assembled on and the ``coefficients`` that
    filled it.  The full-space reference of ``build_liouvillian`` acts on
    row-major vec(rho) and has neither.
    """

    matrix: sp.csr_matrix
    layout: HilbertLayout
    pattern: SectorPattern | None = None
    coefficients: np.ndarray | None = None

    @cached_property
    def channels(self) -> dict[str, sp.csr_matrix]:
        """The piece of each channel (``h``: Hamiltonian, ``u``, ``l``:
        reservoirs, ``b``: bath) of a sector generator; they sum to
        ``matrix``.  Built on first access: the solve and the flows never
        need them."""
        if self.pattern is None:
            return {}
        size, terms = self.pattern.size, self.pattern.terms
        empty = sp.csr_matrix((size, size), dtype=complex)
        return {  # sum of c_k B_k over the channel's run of coefficients
            name: sum(
                (self.coefficients[k] * terms[k * size : (k + 1) * size] for k in range(9)[part]),
                empty,
            )
            for name, part in _CHANNELS.items()
        }


@dataclass(frozen=True)
class QuantumState:
    """Density matrix in the ΔQ = 0 sector, as the vector a sector ``Liouvillian`` acts on.

    ``vector`` holds the populations in flat-index order, then the coherences
    c_n = <1,0,n+1|rho|0,1,n> for n < N, then their conjugates; the dense
    ``rho`` is built on first access only.
    """

    vector: np.ndarray
    layout: HilbertLayout

    def __post_init__(self) -> None:
        if self.vector.shape != (self.layout.sector_size,):
            raise ValueError(f"state vector of shape {self.vector.shape} is not a sector vector")

    @cached_property
    def rho(self) -> np.ndarray:
        d = self.layout.dim
        flat = np.zeros(d * d, dtype=complex)
        flat[self.layout.sector_indices()] = self.vector
        return flat.reshape(d, d)

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal of rho in flat-index order."""
        return self.vector[: self.layout.dim].real

    def trace(self) -> complex:
        return complex(self.vector[: self.layout.dim].sum())

    def adjoint(self) -> np.ndarray:
        """The vector of rho^dagger: the populations conjugated, each c_n swapped with c_n*."""
        return self.vector[_indices(self.layout.fock_cutoff).adjoint].conj()

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.vector - self.adjoint())))

    def hermitian_part(self) -> QuantumState:
        """(rho + rho^dagger) / 2, scaled to unit trace."""
        herm = QuantumState(0.5 * (self.vector + self.adjoint()), self.layout)
        return QuantumState(herm.vector / herm.trace().real, self.layout)

    def lowest_eigenvalue(self) -> float:
        """Lowest eigenvalue of (rho + rho^dagger) / 2.

        rho is block diagonal: a 2x2 block [[p(1,0,n+1), c_n], [c_n*, p(0,1,n)]]
        for each n < N and a 1x1 block for every other population.
        """
        ix = _indices(self.layout.fock_cutoff)
        herm = 0.5 * (self.vector + self.adjoint())
        d = self.layout.dim
        pops = herm[:d].real
        upper, lower = ix.upper, ix.lower
        mean, half_gap = 0.5 * (pops[upper] + pops[lower]), 0.5 * (pops[upper] - pops[lower])
        pairs = mean - np.hypot(half_gap, np.abs(herm[d : d + self.layout.fock_cutoff]))
        return float(min(pops[ix.single].min(), pairs.min()))

    def validate(self) -> None:
        herm = self.hermiticity_error()
        if not herm <= _HERMITICITY_TOL:
            raise ValueError(f"state not Hermitian (deviation {herm:.3e})")
        tr = self.trace()
        if not abs(tr - 1.0) <= 1e-12:
            raise ValueError(f"state trace {tr} differs from 1")
        lowest = self.lowest_eigenvalue()
        if not lowest >= -1e-10:
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
    """Steady state together with the objects used to produce it.

    ``fock_tail`` and ``ops`` (the dense full-space operators) are computed
    on first access only: ``steady_state`` has checked the first, and the
    solve never needs the last.  The occupations the generator was built
    with are ``spec.quantum_occupations``.
    """

    state: QuantumState
    layout: HilbertLayout
    liouvillian: Liouvillian
    spec: SystemSpec

    @cached_property
    def fock_tail(self) -> float:
        return fock_tail(self.state)

    @cached_property
    def ops(self) -> OperatorSet:
        return build_operators(self.layout, self.spec)


# -- the ΔQ = 0 sector ---------------------------------------------------------

# Cached structures kept per process: one per cutoff (and bath flag).  The
# audit uses three cutoffs with and without a bath, lasing one or three.
_CACHE_SIZE = 16


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


class _Indices(NamedTuple):
    """Index arrays of one Fock cutoff, read-only and shared by every state of it."""

    n_l: np.ndarray  # basis labels of each flat index
    n_u: np.ndarray
    n_ph: np.ndarray
    upper: np.ndarray  # flat indices of |1,0,n+1> and |0,1,n> for n < N
    lower: np.ndarray
    single: np.ndarray  # populations outside the 2x2 blocks
    adjoint: np.ndarray  # sector positions read by the vector of rho^dagger
    sector: np.ndarray  # positions in row-major vec(rho) of the sector entries
    photons: np.ndarray  # 0, 1, ..., N
    root: np.ndarray  # sqrt(n + 1) for n < N
    charge: np.ndarray  # Tr((N_u + N_l) X) = charge @ x


@lru_cache(maxsize=_CACHE_SIZE)
def _indices(fock_cutoff: int) -> _Indices:
    m, n = fock_cutoff + 1, fock_cutoff
    d = 4 * m
    fermion, n_ph = np.divmod(np.arange(d), m)
    n_l, n_u = fermion // 2, fermion % 2
    upper, lower = 2 * m + np.arange(n) + 1, m + np.arange(n)
    single = np.ones(d, dtype=bool)
    single[upper] = single[lower] = False
    return _Indices(*_read_only(
        n_l, n_u, n_ph, upper, lower, single,
        np.r_[:d, d + n : d + 2 * n, d : d + n],
        np.concatenate([np.arange(d) * (d + 1), upper * d + lower, lower * d + upper]),
        np.arange(m, dtype=float),
        np.sqrt(np.arange(1, m)),
        np.concatenate([n_u + n_l, np.zeros(2 * n)]),
    ))


Entries = tuple[np.ndarray, np.ndarray, np.ndarray]  # rows, columns, values

# The generator is linear in these coefficients: g, g*, the level split
# E(1,0,n+1) - E(0,1,n) = omega_cav - (e_upper - e_lower), and the rate of
# each jump operator.  Each channel owns a contiguous run of them.
_CHANNELS = {"h": slice(0, 3), "u": slice(3, 5), "l": slice(5, 7), "b": slice(7, 9)}
_JUMPS = ("c_u+", "c_u", "c_l+", "c_l", "a", "a+")  # coefficients 3..8


def _hamiltonian_entries(ix: _Indices, d: int, n: int) -> list[Entries]:
    """-i[H, rho] on the sector, per unit of g, of g* and of the level split.

    With A = |1,0,n+1>, B = |0,1,n>, c = rho_AB and t = <B|H|A> = g sqrt(n+1):
    dp_A/dt = i t c - i t* c*, dp_B/dt = -dp_A/dt and
    dc/dt = -i (E_A - E_B) c + i t* (p_A - p_B).
    """
    upper, lower, s = ix.upper, ix.lower, ix.root
    coh = d + np.arange(n)
    conj = coh + n
    one = np.ones(n)
    parts = (
        ((upper, lower, conj, conj), (coh, coh, upper, lower), (1j * s, -1j * s, -1j * s, 1j * s)),
        ((upper, lower, coh, coh), (conj, conj, upper, lower), (-1j * s, 1j * s, 1j * s, -1j * s)),
        ((coh, conj), (coh, conj), (-1j * one, 1j * one)),
    )
    return [tuple(np.concatenate(part) for part in entries) for entries in parts]


def _jumps(ix: _Indices, m: int) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each jump operator L as the map L|source> = amplitude |target> on flat indices.

    The Jordan-Wigner signs are left out.  They are a phase of +-1 per basis
    state, and no fermionic jump maps a sector coherence onto another, so in
    the sector they only ever enter squared.
    """
    index = np.arange(4 * m)
    filled_u, filled_l, excited = index[ix.n_u == 1], index[ix.n_l == 1], index[ix.n_ph > 0]
    unit = np.ones(2 * m)
    root = np.sqrt(ix.n_ph[excited])
    return {
        "c_u": (filled_u, filled_u - 1 * m, unit),
        "c_u+": (filled_u - 1 * m, filled_u, unit),
        "c_l": (filled_l, filled_l - 2 * m, unit),
        "c_l+": (filled_l - 2 * m, filled_l, unit),
        "a": (excited, excited - 1, root),
        "a+": (excited - 1, excited, root),
    }


def _dissipator_entries(
    ix: _Indices, d: int, n: int, jump: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Entries:
    """L rho L^dagger - {L^dagger L, rho} / 2 on the sector, per unit rate."""
    source, target, amplitude = jump
    upper, lower = ix.upper, ix.lower
    coh = np.arange(n)
    decay = np.zeros(d)  # diagonal of L^dagger L
    decay[source] = amplitude**2
    coherence_decay = -0.5 * (decay[upper] + decay[lower])
    rows = [target, source, d + coh, d + n + coh]
    cols = [source, source, d + coh, d + n + coh]
    vals = [amplitude**2, -(amplitude**2), coherence_decay, coherence_decay]

    # <A_i| L rho L^dagger |B_i> = amplitude(A_j) amplitude(B_j) c_j when
    # L|A_j> ~ |A_i> and L|B_j> ~ |B_i>; only the photon jumps do this.
    origin = np.full(d, -1)
    origin[target] = source
    gain = np.zeros(d)
    gain[target] = amplitude
    pair_of = np.full(d, -1)
    pair_of[upper] = coh
    from_upper, from_lower = origin[upper], origin[lower]
    j = np.where(from_upper >= 0, pair_of[from_upper], -1)
    keep = (j >= 0) & (from_lower >= 0) & (lower[j] == from_lower)
    i, j = coh[keep], j[keep]
    feed = gain[upper[keep]] * gain[lower[keep]]
    rows += [d + i, d + n + i]
    cols += [d + j, d + n + j]
    vals += [feed, feed]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


@dataclass(frozen=True, eq=False)
class SectorPattern:
    """What the sector generator owes to its Fock cutoff and bath flag alone.

    The generator is sum_k coefficient_k B_k over fixed matrices B_k.
    ``indptr``/``indices`` are its CSR pattern and ``weights`` (nnz x 9)
    maps the coefficients onto its CSR data; ``terms`` stacks the B_k, so
    ``terms @ x`` gives every coefficient's action on x at once.  The
    ``system_*`` arrays are the CSC pattern of the steady-state system:
    generator rows 1.. followed by the running-sum rows of the trace, with
    the generator's data from ``data_start`` on landing at ``system_slots``.
    Built once per key by ``sector_pattern``; every array is read-only.
    """

    size: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: sp.csr_matrix
    terms: sp.csr_matrix
    data_start: int
    system_indptr: np.ndarray
    system_indices: np.ndarray
    system_template: np.ndarray  # the running-sum entries, zeros at the slots
    system_slots: np.ndarray

    def matrix(self, coefficients: np.ndarray) -> sp.csr_matrix:
        """The generator for these coefficients."""
        return sp.csr_matrix(
            (self.weights @ coefficients, self.indices, self.indptr), shape=(self.size, self.size)
        )

    def system(self, data: np.ndarray) -> sp.csc_matrix:
        """The steady-state system of the generator whose CSR data is ``data``."""
        values = self.system_template.copy()
        values[self.system_slots] = data[self.data_start :]
        size = len(self.system_indptr) - 1
        return sp.csc_matrix(
            (values, self.system_indices, self.system_indptr), shape=(size, size)
        )


@lru_cache(maxsize=_CACHE_SIZE)
def sector_pattern(fock_cutoff: int, bath: bool) -> SectorPattern:
    """The ``SectorPattern`` of a cutoff, with or without the bath channel; cached."""
    ix = _indices(fock_cutoff)
    m, n = fock_cutoff + 1, fock_cutoff
    d, size = 4 * m, 6 * fock_cutoff + 4
    jumps = _jumps(ix, m)
    per_coefficient = _hamiltonian_entries(ix, d, n) + [
        _dissipator_entries(ix, d, n, jumps[name]) for name in _JUMPS[: 6 if bath else 4]
    ]
    k = np.concatenate([np.full(len(part[0]), c) for c, part in enumerate(per_coefficient)])
    rows, cols, vals = (np.concatenate(part) for part in zip(*per_coefficient))
    nonzero = vals != 0
    k, rows, cols, vals = k[nonzero], rows[nonzero], cols[nonzero], vals[nonzero]

    key, slot = np.unique(rows * size + cols, return_inverse=True)  # row-major: CSR order
    pattern_rows, indices = np.divmod(key, size)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pattern_rows, minlength=size))])
    weights = sp.csr_matrix((vals, (slot, k)), shape=(len(key), 9), dtype=complex)
    terms = sp.csr_matrix((vals, (k * size + rows, cols)), shape=(9 * size, size), dtype=complex)

    # The steady-state system drops the first population row and imposes the
    # trace through running sums: unknown size + j is s_j, and row
    # size - 1 + j reads s_j - s_(j-1) - p_j = 0; the last row is s_last = 1.
    start = int(indptr[1])
    j = np.arange(d)
    running, last = size - 1 + j, size + d - 1
    sys_rows = np.concatenate([pattern_rows[start:] - 1, running, running[1:], running, [last]])
    sys_cols = np.concatenate([indices[start:], size + j, size + j[:-1], j, [last]])
    order = np.lexsort((sys_rows, sys_cols))  # column-major: CSC order
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    slots = position[: len(key) - start]
    template = np.zeros(len(order), dtype=complex)
    template[position[len(key) - start :]] = np.concatenate(
        [np.ones(d), -np.ones(d - 1), -np.ones(d), [1.0]]
    )
    sys_indptr = np.concatenate([[0], np.cumsum(np.bincount(sys_cols, minlength=size + d))])

    _read_only(weights.data, weights.indices, weights.indptr)
    _read_only(terms.data, terms.indices, terms.indptr)
    index = np.int32 if len(order) < 2**31 and 9 * size < 2**31 else np.int64
    indptr, indices, sys_indptr, sys_indices, template, slots = _read_only(
        indptr.astype(index), indices.astype(index), sys_indptr.astype(index),
        sys_rows[order].astype(index), template, slots,
    )
    return SectorPattern(
        size, indptr, indices, weights, terms, start, sys_indptr, sys_indices, template, slots
    )


def build_sector_liouvillian(layout: HilbertLayout, spec: SystemSpec) -> Liouvillian:
    """Generator of the master equation on the ΔQ = 0 sector.

    The cached ``sector_pattern`` of the cutoff holds the index arithmetic;
    this fills its values from the nine coefficients of the scenario.  No
    dense operator and no full-space superoperator is formed.  It equals
    the ΔQ = 0 slice of ``build_liouvillian`` entry for entry, for either
    fermion ordering.
    """
    if spec.cavity is None:
        raise ValueError("quantum treatment requires a cavity")
    occ = spec.quantum_occupations
    bath = spec.bath is not None and spec.bath.gamma > 0
    gamma_b, n_b = (spec.bath.gamma, occ.n_b) if bath else (0.0, 0.0)
    g = complex(spec.cavity.g)
    split = spec.levels.e_lower + spec.cavity.omega_cav - spec.levels.e_upper
    gamma_u, gamma_l = spec.reservoir_u.gamma, spec.reservoir_l.gamma
    rates = (  # of the jumps in _JUMPS order
        gamma_u * occ.f_u, gamma_u * (1.0 - occ.f_u), gamma_l * occ.f_l,
        gamma_l * (1.0 - occ.f_l), gamma_b * (n_b + 1.0), gamma_b * n_b,
    )
    coefficients = np.array([g, g.conjugate(), split, *rates], dtype=complex)
    pattern = sector_pattern(layout.fock_cutoff, bath)
    return Liouvillian(pattern.matrix(coefficients), layout, pattern, coefficients)


def thermal_state(layout: HilbertLayout, f_u: float, f_l: float, n_b: float) -> QuantumState:
    """Uncorrelated state with given level fillings and a thermal photon tail.

    This is the exact steady state at zero emitter-photon coupling (the
    photon distribution is the truncated geometric one).  It is diagonal, so
    it lies in the ΔQ = 0 sector.
    """
    n = np.arange(layout.n_photon_states, dtype=float)
    if n_b > 0:
        weights = (n_b / (1.0 + n_b)) ** n
    else:
        weights = np.where(n == 0, 1.0, 0.0)
    vector = np.zeros(layout.sector_size, dtype=complex)
    vector[: layout.dim] = np.kron(
        np.kron([1.0 - f_l, f_l], [1.0 - f_u, f_u]), weights / weights.sum()
    )
    return QuantumState(vector, layout)


def thermal_product_state(
    layout: HilbertLayout, f_u: float, f_l: float, n_b: float
) -> np.ndarray:
    """``thermal_state`` as a dense density matrix."""
    return thermal_state(layout, f_u, f_l, n_b).rho


def sector_observables(state: QuantumState, spec: SystemSpec) -> QuantumObservables:
    """``observables`` of a sector state, from its populations and coherences."""
    layout = state.layout
    d, n = layout.dim, layout.fock_cutoff
    ix = _indices(n)
    # rows: (n_l, n_u) = (0, 0), (0, 1), (1, 0), (1, 1)
    p = state.populations.reshape(4, layout.n_photon_states)
    photons = ix.photons
    sigma_uu = float(p[1].sum() + p[3].sum())
    sigma_ll = float(p[2].sum() + p[3].sum())
    n_ph = float(p.sum(axis=0) @ photons)
    # Y = conj(g) Tr{c_l^+ c_u a^+ rho} = conj(g) sum_n sqrt(n+1) <0,1,n|rho|1,0,n+1>
    y = complex(spec.cavity.g).conjugate() * complex(ix.root @ state.vector[d + n :])
    f_exact = float(p[1].sum() + (p[1] - p[2]) @ photons)
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


# -- full space: the reference the sector is tested against --------------------

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


def build_liouvillian(ops: OperatorSet, spec: SystemSpec) -> Liouvillian:
    """Vectorized generator of the master equation as a sparse matrix."""
    occ = spec.quantum_occupations
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
        lmat = lmat + spec.bath.gamma * (
            (occ.n_b + 1.0) * _dissipator_super(ops.a)
            + occ.n_b * _dissipator_super(ops.a.conj().T)
        )
    return Liouvillian(matrix=lmat.tocsr(), layout=layout)


def _trace(op: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.einsum("ij,ji->", op, rho))


def observables(rho: np.ndarray, ops: OperatorSet, spec: SystemSpec) -> QuantumObservables:
    """Populations, photon number, coherence correlator, and rate of a dense rho."""
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


# -- solving and evolving -------------------------------------------------------


def photon_populations(state: QuantumState) -> np.ndarray:
    """Diagonal photon-number distribution traced over the fermions."""
    return state.populations.reshape(4, state.layout.n_photon_states).sum(axis=0)


def fock_tail(state: QuantumState) -> float:
    """Population of the top two Fock levels; the truncation-error monitor."""
    return float(photon_populations(state)[-2:].sum())


def _sector_matrix(liouvillian: Liouvillian) -> sp.csr_matrix:
    """The generator's matrix; ValueError unless it acts on the ΔQ = 0 sector."""
    size = liouvillian.layout.sector_size
    if liouvillian.matrix.shape != (size, size):
        raise ValueError(f"generator of shape {liouvillian.matrix.shape} is not a sector generator")
    return liouvillian.matrix


def steady_state(liouvillian: Liouvillian) -> QuantumState:
    """Null vector of a sector generator, normalized to unit trace.

    The population rows of the generator sum to zero, so the first is
    dropped, the trace condition takes its place and the system is solved
    directly.  The trace enters through running sums s_k = s_(k-1) + p_k
    with s_last = 1: a dense trace row would fill the LU factors, O(N^2),
    where the running sums keep the system as sparse as the generator.  The
    system's pattern is the cached one of ``SectorPattern``; only its values
    come from the generator.  Raises ValueError for a generator not
    assembled by ``build_sector_liouvillian``, SteadyStateError when the
    residual exceeds tolerance and FockCutoffError when the top of the Fock
    ladder is populated.
    """
    layout = liouvillian.layout
    matrix = _sector_matrix(liouvillian)
    pattern = liouvillian.pattern
    if pattern is None or not (
        np.array_equal(matrix.indptr, pattern.indptr)
        and np.array_equal(matrix.indices, pattern.indices)
    ):
        raise ValueError("generator lacks the pattern build_sector_liouvillian gives it")
    n = matrix.shape[0]
    system = pattern.system(matrix.data)
    b = np.zeros(system.shape[0], dtype=complex)
    b[-1] = 1.0
    try:
        x = splu(system).solve(b)[:n]
    except RuntimeError as exc:  # singular factorization
        raise SteadyStateError(f"steady-state solve failed: {exc}") from exc

    state = QuantumState(x, layout).hermitian_part()
    residual = float(np.max(np.abs(matrix @ state.vector)))
    if not math.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise SteadyStateError(f"steady-state residual {residual:.3e} above tolerance")

    tail = fock_tail(state)
    if tail > _FOCK_TAIL_TOL:
        raise FockCutoffError(
            f"top Fock levels hold population {tail:.3e}; increase the cutoff", tail
        )

    state.validate()
    return state


def quantum_steady_state(spec: SystemSpec) -> QuantumSolution:
    """Solve for the steady state in the ΔQ = 0 sector, enlarging the Fock cutoff on demand.

    The solve starts at ``spec.cavity.fock_cutoff``.  On a FockCutoffError
    the cutoff is raised by 4 and the solve is retried, at most twice.  Each
    enlargement is logged at INFO level with the old and new cutoff and the
    tail that triggered it.
    """
    if spec.cavity is None:
        raise ValueError("quantum treatment requires a cavity")

    for attempt in range(_MAX_ENLARGEMENTS + 1):
        layout = HilbertLayout(spec.cavity.fock_cutoff + 4 * attempt)
        liouv = build_sector_liouvillian(layout, spec)
        try:
            state = steady_state(liouv)
        except FockCutoffError as exc:
            if attempt == _MAX_ENLARGEMENTS:
                raise
            logger.info(
                "Fock cutoff %d -> %d: top two levels hold %.3e",
                layout.fock_cutoff,
                layout.fock_cutoff + 4,
                exc.tail,
            )
            continue
        return QuantumSolution(state=state, layout=layout, liouvillian=liouv, spec=spec)


def evolve_quantum(
    state0: QuantumState,
    liouvillian: Liouvillian,
    t_final: float,
) -> QuantumState:
    """exp(L t_final) applied to a sector state; a full-space generator raises ValueError.

    The propagated state must have unit trace and be Hermitian to 1e-9,
    else EvolutionError; the returned state is symmetrized, renormalized
    and validated.
    """
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    y = expm_multiply(_sector_matrix(liouvillian) * t_final, state0.vector)
    current = QuantumState(y, liouvillian.layout)
    trace_drift = abs(current.trace() - 1.0)
    herm_drift = current.hermiticity_error()
    if not (trace_drift <= 1e-9 and herm_drift <= 1e-9):
        raise EvolutionError(
            f"invariant drift at t = {t_final:.6g}: "
            f"|tr-1| = {trace_drift:.3e}, hermiticity = {herm_drift:.3e}"
        )
    state = current.hermitian_part()
    state.validate()
    return state


# -- flows ------------------------------------------------------------------------


def _trace_weights(layout: HilbertLayout, spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sector vectors h, q with Tr(H X) = h @ x and Tr((N_u + N_l) X) = q @ x."""
    ix = _indices(layout.fock_cutoff)
    levels = spec.levels
    energies = levels.e_upper * ix.n_u + levels.e_lower * ix.n_l + spec.cavity.omega_cav * ix.n_ph
    t = complex(spec.cavity.g) * ix.root  # Tr(H X) picks <B|H|A> X_AB + <A|H|B> X_BA
    return np.concatenate([energies, t, t.conj()]), ix.charge


def fluxes_quantum(state: QuantumState, liouvillian: Liouvillian, spec: SystemSpec) -> FluxReport:
    """Per-reservoir energy and particle flows in the steady state.

    ``state`` and ``liouvillian`` belong to the ΔQ = 0 sector
    (``build_sector_liouvillian``).  Each flow is the trace of H or
    N_u + N_l against its channel's action on the state; one product with
    the pattern's stack of terms gives the action of every coefficient.
    Each energy flow is also evaluated through its closed form in terms of
    populations and the coherence correlator; disagreement beyond 1e-9
    raises, since it signals an inconsistent generator.  A state that is
    not stationary raises SteadyStateError.
    """
    pattern = liouvillian.pattern
    if pattern is None:
        raise ValueError("fluxes_quantum needs the sector generator with its channels")
    occ = spec.quantum_occupations
    actions = (pattern.terms @ state.vector).reshape(-1, pattern.size)
    actions *= liouvillian.coefficients[:, None]  # row k: coefficient k's term of L x

    residual = float(np.max(np.abs(actions.sum(axis=0))))
    if residual > _RESIDUAL_TOL:
        raise SteadyStateError(f"state is not stationary (residual {residual:.3e})")

    h, q = _trace_weights(state.layout, spec)
    energy, charge = actions @ h, actions @ q
    edot = {name: float(energy[_CHANNELS[name]].sum().real) for name in ("u", "l", "b")}
    ndot_u = float(charge[_CHANNELS["u"]].sum().real)
    ndot_l = float(charge[_CHANNELS["l"]].sum().real)

    obs = sector_observables(state, spec)
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
    return flux_report(
        "quantum", occ, eff, obs.rate, ndot_u, ndot_l, edot["u"], edot["l"], edot["b"]
    )


def _sign_with_deadband(x: float) -> int:
    if abs(x) < RATE_DEADBAND:
        return 0
    return 1 if x > 0 else -1


def sign_condition(obs: QuantumObservables, occupations: Occupations) -> SignCondition:
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

    lhs_sign = _sign_with_deadband(obs.rate)
    if lhs_sign == 0:
        return SignCondition(0, 0, True)
    rhs = f_u / (1.0 - f_u) - (f_l / (1.0 - f_l)) * (n_b / (1.0 + n_b))
    rhs_sign = _sign_with_deadband(rhs)
    return SignCondition(lhs_sign, rhs_sign, lhs_sign == rhs_sign)
