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
B_k whose entries couple photon numbers at most one apart.  Without a
bath, or with gamma_b <= 0, the two photon rates are zero, so the B_k
depend on the Fock cutoff alone.  Built once per cutoff from index
arithmetic and cached (``sector_pattern``) are the pattern of the
generator and the map from the c_k onto its values, the stack of the B_k,
and the place of each value in the Q2 blocks.
``build_sector_liouvillian`` only fills in the values of a scenario.

H, the c_l jumps and the Q2-conserving parts of the dissipators keep
Q2 = N_u + N_ph; every c_u jump and every photon jump moves it by one.
Ordered by Q2, the generator is block tridiagonal, with blocks of six
slots (Albert & Jiang, above), so its null vector is a matrix continued
fraction computed downwards from the top of the Fock ladder (Risken, *The
Fokker-Planck Equation*, 2nd ed. (1989), ch. 9; ``_null_vectors``).  The
blocks are linear in the c_k, so one product builds them for a whole
(S, 9) table of coefficients, and each step of the recursion is one
stacked 6x6 solve over all S samples.  ``steady_state_fluxes`` audits the
samples of a ``SpecColumns`` this way, in batches of one cutoff; a
scenario, ``quantum_steady_state`` and ``steady_state`` are its
one-sample case.  The generator is linear and time independent, so a
trajectory of evenly spaced rows applies one propagator exp(L seg) per
segment.  L maps Hermitian matrices to Hermitian ones, so ``trajectory``
works in the real coordinates of the sector, the populations and the real
and imaginary parts of the c_n (the coherence vector of Alicki & Lendi,
*Quantum Dynamical Semigroups and Applications*, LNP 286 (1987); T and
T^-1 of ``_Indices``), where the generator is a real matrix of the same size.
It forms the real propagator once by scaling and squaring while the
sector is small enough for a dense matrix, and above that size applies
each segment with ``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)).  Neither solves L x = 0, so the evolution is an
independent oracle for the steady state.  Each flow is an O(N) trace
of H or N against one channel's action, read off one product with the
stack of the B_k, which also gives the residual.  Positivity is checked on
the 2x2 blocks that the coherences form with their two populations.  The
cached arrays are read-only, so threads may share them.

The full-space construction (dense ``build_operators``, the row-major
superoperator of ``build_liouvillian``, dense ``observables`` and
``thermal_product_state``) is only the reference the sector is tested
against; ``steady_state``, ``trajectory`` and ``evolve_quantum`` refuse its
generator.

Both generators, the steady-state solve and the flows read the reservoir
occupations from ``spec.quantum_occupations``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .model import (
    RATE_DEADBAND,
    FluxReport,
    Occupations,
    SpecColumns,
    SteadyStateError,
    SystemSpec,
    effective_energies_quantum,
    fail_samples,
    flux_report,
    plain,
    raise_first,
    where,
)

_RESIDUAL_TOL = 1e-10
_FOCK_TAIL_TOL = 1e-6
_HERMITICITY_TOL = 1e-12
_MAX_ENLARGEMENTS = 2  # cutoff raises of 4 before a FockCutoffError stands
_BATCH_ENTRIES = 2**19  # block entries (16 bytes each) a batch may hold; larger audits take several
# Sector entries up to which ``trajectory`` forms the dense real propagator: its
# O(size^3) cost met that of one real expm_multiply per segment at 724-748 entries
# (cutoff 120-124) on the quantum-evolve scenario, 41 rows over t = 30, one BLAS thread.
_DENSE_SIZE = 724

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

    def lowest_eigenvalue(self) -> float:
        """Lowest eigenvalue of (rho + rho^dagger) / 2 (see ``_lowest_eigenvalues``)."""
        return float(_lowest_eigenvalues(self.vector, self.layout.fock_cutoff))

    def validate(self) -> None:
        errors = [None]
        _validate(self.vector, self.layout.fock_cutoff, errors, [0])
        raise_first(errors)


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
        """Population of the top two Fock levels; the truncation-error monitor."""
        return float(_fock_tails(self.state.vector, self.layout.fock_cutoff))

    @cached_property
    def ops(self) -> OperatorSet:
        return build_operators(self.layout, self.spec)


# -- the ΔQ = 0 sector ---------------------------------------------------------

# Cached structures kept per process: one per Fock cutoff.  The audit uses
# three cutoffs, lasing one or three.
_CACHE_SIZE = 16


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


class _Indices(NamedTuple):
    """Index arrays and real basis of one Fock cutoff, read-only and shared by its states."""

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
    slot: np.ndarray  # 6 Q2 + place in the Q2 block, of each sector entry
    empty: np.ndarray  # the slots outside the ladder
    # The real coordinates y = [p; u; v] of a Hermitian sector vector x = forward @ y:
    # p are the populations and c_n = u_n + i v_n, so c_n* = u_n - i v_n (sparse T, T^-1).
    forward: sp.csr_array
    inverse: sp.csr_array


@lru_cache(maxsize=_CACHE_SIZE)
def _indices(fock_cutoff: int) -> _Indices:
    m, n = fock_cutoff + 1, fock_cutoff
    d, blocks = 4 * m, fock_cutoff + 2
    fermion, n_ph = np.divmod(np.arange(d), m)
    n_l, n_u = fermion // 2, fermion % 2
    upper, lower = 2 * m + np.arange(n) + 1, m + np.arange(n)
    single = np.ones(d, dtype=bool)
    single[upper] = single[lower] = False
    coherent = 6 * np.arange(1, m)  # c_n sits in block Q2 = n + 1
    slot = np.concatenate([6 * (n_u + n_ph) + n_l + 2 * n_u, coherent + 4, coherent + 5])
    p, c = np.arange(d), d + np.arange(n)
    rows, cols = np.concatenate([p, c, c, c + n, c + n]), np.concatenate([p, c, c + n, c, c + n])
    one = np.ones(n)
    forward, inverse = (
        sp.csr_array((np.concatenate(values), (rows, cols)), shape=(d + 2 * n,) * 2)
        for values in ((np.ones(d), one, 1j * one, one, -1j * one),
                       (np.ones(d), 0.5 * one, 0.5 * one, -0.5j * one, 0.5j * one))
    )
    for matrix in (forward, inverse):
        _read_only(matrix.data, matrix.indices, matrix.indptr)
    return _Indices(*_read_only(
        n_l, n_u, n_ph, upper, lower, single,
        np.r_[:d, d + n : d + 2 * n, d : d + n],
        np.concatenate([np.arange(d) * (d + 1), upper * d + lower, lower * d + upper]),
        np.arange(m, dtype=float),
        np.sqrt(np.arange(1, m)),
        np.concatenate([n_u + n_l, np.zeros(2 * n)]),
        slot,
        np.setdiff1d(np.arange(6 * blocks), slot),
    ), forward, inverse)


def _block_positions(fock_cutoff: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Place of each generator entry in the blocks, flat in (3, N + 2, 36).

    Stack 0 holds the blocks A_k that couple block Q2 = k to k - 1, stack 1
    the diagonal blocks D_k and stack 2 the blocks C_k that couple k to k + 1.
    """
    slot = _indices(fock_cutoff).slot
    (block, place), (other, column) = np.divmod(slot[rows], 6), np.divmod(slot[cols], 6)
    side = other - block + 1
    if not np.all((side >= 0) & (side <= 2)):
        raise ValueError("generator couples Q2 blocks more than one apart")
    return ((side * (fock_cutoff + 2) + block) * 6 + place) * 6 + column


def _scatter(positions: np.ndarray, values: np.ndarray, fock_cutoff: int) -> np.ndarray:
    """The (3, N + 2, S, 6, 6) blocks holding the (entries, S) ``values`` at their
    distinct ``positions`` (``_block_positions``), zero elsewhere."""
    count = fock_cutoff + 2
    blocks = np.zeros((3 * count, values.shape[1], 36), dtype=complex)
    block, entry = np.divmod(positions, 36)
    blocks[block, :, entry] = values
    return blocks.reshape(3, count, -1, 6, 6)


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
    """What the sector generator owes to its Fock cutoff alone.

    The generator is sum_k coefficient_k B_k over fixed matrices B_k.
    ``indptr``/``indices`` are its CSR pattern and ``weights`` (nnz x 9)
    maps the coefficients onto its CSR data; ``terms`` stacks the B_k, so
    ``terms @ x`` gives every coefficient's action on x at once.  All six
    jumps are in the pattern; without a bath the photon rates are zero.

    Ordered by Q2 = N_u + N_ph the generator is block tridiagonal, with one
    block of six slots per Q2 = 0 ... N + 1: |0,0,Q2>, |1,0,Q2>, |0,1,Q2-1>,
    |1,1,Q2-1>, c_(Q2-1) and its conjugate; the slots that fall outside the
    ladder (four in the first block, four in the last) stay empty.
    ``positions`` says where each CSR entry sits in the sub-diagonal,
    diagonal and super-diagonal blocks (``_block_positions``), so the
    values of ``weights`` fill the blocks too.  Built once per cutoff by
    ``sector_pattern``; every array is read-only.
    """

    size: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: sp.csr_matrix
    terms: sp.csr_matrix
    positions: np.ndarray

    def matrix(self, coefficients: np.ndarray) -> sp.csr_matrix:
        """The generator for these coefficients."""
        return sp.csr_matrix(
            (self.weights @ coefficients, self.indices, self.indptr), shape=(self.size, self.size)
        )


@lru_cache(maxsize=_CACHE_SIZE)
def sector_pattern(fock_cutoff: int) -> SectorPattern:
    """The ``SectorPattern`` of a cutoff; cached."""
    ix = _indices(fock_cutoff)
    m, n = fock_cutoff + 1, fock_cutoff
    d, size = 4 * m, 6 * fock_cutoff + 4
    jumps = _jumps(ix, m)
    per_coefficient = _hamiltonian_entries(ix, d, n) + [
        _dissipator_entries(ix, d, n, jumps[name]) for name in _JUMPS
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
    positions = _block_positions(fock_cutoff, pattern_rows, indices)

    for matrix in (weights, terms):
        _read_only(matrix.data, matrix.indices, matrix.indptr)
    index = np.int32 if len(key) < 2**31 and 9 * size < 2**31 else np.int64
    indptr, indices, positions = _read_only(indptr.astype(index), indices.astype(index), positions)
    return SectorPattern(size, indptr, indices, weights, terms, positions)


def _coefficients(spec: SystemSpec) -> np.ndarray:
    """The nine coefficients of the generator, elementwise: (9,) for a scenario, (S, 9) for columns."""
    occ = spec.quantum_occupations
    gamma_b = n_b = 0.0
    if spec.bath is not None:
        bath = spec.bath.gamma > 0
        gamma_b, n_b = where(bath, spec.bath.gamma, 0.0), where(bath, occ.n_b, 0.0)
    g = spec.cavity.g
    split = spec.levels.e_lower + spec.cavity.omega_cav - spec.levels.e_upper
    gamma_u, gamma_l = spec.reservoir_u.gamma, spec.reservoir_l.gamma
    rates = (  # of the jumps in _JUMPS order
        gamma_u * occ.f_u, gamma_u * (1.0 - occ.f_u), gamma_l * occ.f_l,
        gamma_l * (1.0 - occ.f_l), gamma_b * (n_b + 1.0), gamma_b * n_b,
    )
    values = np.broadcast_arrays(g, np.conj(g), split, *rates)
    return np.stack(values, axis=-1).astype(complex)


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
    coefficients = _coefficients(spec)
    pattern = sector_pattern(layout.fock_cutoff)
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
    return stacked_observables(state.vector, state.layout.fock_cutoff, spec)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the last axis of ``a``.  Over rows it is an explicit
    sum, since BLAS may round a row differently with other rows beside it;
    one vector keeps the BLAS dot of the one-state observables."""
    return a @ b if a.ndim == 1 else (a * b).sum(axis=-1)


def stacked_observables(
    vectors: np.ndarray, fock_cutoff: int, spec: SystemSpec
) -> QuantumObservables:
    """``sector_observables`` of each sector vector along the last axis (the rows of a
    ``trajectory``, or a batch of steady states), elementwise in ``spec``."""
    ix = _indices(fock_cutoff)
    d, n = 4 * (fock_cutoff + 1), fock_cutoff
    # rows: (n_l, n_u) = (0, 0), (0, 1), (1, 0), (1, 1)
    p = vectors[..., :d].real.reshape(*vectors.shape[:-1], 4, fock_cutoff + 1)
    photons = ix.photons
    sigma_uu = p[..., 1, :].sum(axis=-1) + p[..., 3, :].sum(axis=-1)
    sigma_ll = p[..., 2, :].sum(axis=-1) + p[..., 3, :].sum(axis=-1)
    n_ph = _dot(p.sum(axis=-2), photons)
    # Y = conj(g) Tr{c_l^+ c_u a^+ rho} = conj(g) sum_n sqrt(n+1) <0,1,n|rho|1,0,n+1>
    y = np.conj(spec.cavity.g) * _dot(vectors[..., d + n :], ix.root)
    f_exact = p[..., 1, :].sum(axis=-1) + _dot(p[..., 1, :] - p[..., 2, :], photons)
    f_hf = sigma_uu * (1.0 - sigma_ll) + (sigma_uu - sigma_ll) * n_ph
    return QuantumObservables(*map(plain, (sigma_uu, sigma_ll, n_ph, y, f_exact, f_hf, 2.0 * y.imag)))


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


def _fock_tails(vectors: np.ndarray, fock_cutoff: int) -> np.ndarray:
    """Population of the top two Fock levels of each sector vector along the last axis."""
    m = fock_cutoff + 1
    populations = vectors[..., : 4 * m].real.reshape(*vectors.shape[:-1], 4, m)
    return populations.sum(axis=-2)[..., -2:].sum(axis=-1)


def _sector_matrix(liouvillian: Liouvillian) -> sp.csr_matrix:
    """The generator's matrix; ValueError unless it acts on the ΔQ = 0 sector."""
    size = liouvillian.layout.sector_size
    if liouvillian.matrix.shape != (size, size):
        raise ValueError(f"generator of shape {liouvillian.matrix.shape} is not a sector generator")
    return liouvillian.matrix


def _adjoint(vectors: np.ndarray, fock_cutoff: int) -> np.ndarray:
    """The vector of rho^dagger for each sector vector along the last axis: the
    populations conjugated, each c_n swapped with c_n*."""
    return np.take(vectors, _indices(fock_cutoff).adjoint, axis=-1).conj()


def _lowest_eigenvalues(vectors: np.ndarray, fock_cutoff: int) -> np.ndarray:
    """Lowest eigenvalue of (rho + rho^dagger) / 2 for each sector vector along the last axis.

    rho is block diagonal: a 2x2 block [[p(1,0,n+1), c_n], [c_n*, p(0,1,n)]]
    for each n < N and a 1x1 block for every other population.
    """
    ix = _indices(fock_cutoff)
    d, n = 4 * (fock_cutoff + 1), fock_cutoff
    herm = (0.5 * (vectors + _adjoint(vectors, fock_cutoff))).T  # entries first: one index for all
    pops = herm[:d].real
    upper, lower = pops[ix.upper], pops[ix.lower]
    mean, half_gap = 0.5 * (upper + lower), 0.5 * (upper - lower)
    pairs = mean - np.hypot(half_gap, np.abs(herm[d : d + n]))
    return np.minimum(pops[ix.single].min(axis=0), pairs.min(axis=0))


def _validate(vectors: np.ndarray, fock_cutoff: int, errors: list, index) -> None:
    """``QuantumState.validate`` of each sector vector along the last axis."""
    herm = np.max(np.abs(vectors - _adjoint(vectors, fock_cutoff)), axis=-1)
    fail_samples(errors, index, ~(herm <= _HERMITICITY_TOL),
                 lambda h: ValueError(f"state not Hermitian (deviation {h:.3e})"), herm)
    trace = vectors[..., : 4 * (fock_cutoff + 1)].sum(axis=-1)
    fail_samples(errors, index, ~(abs(trace - 1.0) <= 1e-12),
                 lambda t: ValueError(f"state trace {complex(t)} differs from 1"), trace)
    lowest = _lowest_eigenvalues(vectors, fock_cutoff)
    fail_samples(errors, index, ~(lowest >= -1e-10),
                 lambda e: ValueError(f"state has negative eigenvalue {e:.3e}"), lowest)


def _check(vectors: np.ndarray, residuals: np.ndarray, fock_cutoff: int, errors: list, index):
    """The residual L x, the Fock tail and ``validate``, in this order, per sample."""
    residual = np.max(np.abs(residuals), axis=-1)
    fail_samples(errors, index, ~(residual <= _RESIDUAL_TOL), lambda r: SteadyStateError(
        f"steady-state residual {r:.3e} above tolerance"), residual)
    tail = _fock_tails(vectors, fock_cutoff)
    message = "top Fock levels hold population {:.3e}; increase the cutoff"
    fail_samples(errors, index, tail > _FOCK_TAIL_TOL,
                 lambda t: FockCutoffError(message.format(t), t), tail)
    _validate(vectors, fock_cutoff, errors, index)


def _solve(matrices: np.ndarray, rhs: np.ndarray, errors: list, index) -> np.ndarray:
    """``np.linalg.solve`` over a stack; a singular matrix fails its own sample only."""
    try:
        return np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError:
        matrices = matrices.copy()
        for j, matrix in enumerate(matrices):
            try:
                np.linalg.solve(matrix, rhs[j])
            except np.linalg.LinAlgError as exc:
                fail_samples(errors, index[j : j + 1], True,
                             lambda: SteadyStateError(f"steady-state solve failed: {exc}"))
                matrices[j] = np.eye(len(matrix))
        return np.linalg.solve(matrices, rhs)


def _null_vectors(blocks: np.ndarray, fock_cutoff: int, errors: list, index) -> np.ndarray:
    """The null vector of each generator of a stack, as the Hermitian part of unit trace.

    ``blocks`` (3, K, S, 6, 6), K = N + 2, holds the sub-diagonal, diagonal
    and super-diagonal blocks of S generators (``_scatter``); the
    recursion writes into it.  Row k of L x = 0 reads A_k x_(k-1) + D_k x_k
    + C_k x_(k+1) = 0, so x_k = S_k x_(k-1) with the matrix continued
    fraction S_K = -D_K^-1 A_K, S_k = -(D_k + C_k S_(k+1))^-1 A_k, taken
    downwards from the top of the Fock ladder; x_0 spans the null space of
    the 2x2 population block of D_0 + C_0 S_1.  An empty slot has a unit
    diagonal and no coupling, so it stays zero.  Each step is one stacked
    solve; a sample whose step is singular fails with SteadyStateError.
    """
    # C-contiguous (S, ...) stacks, here and below, keep each sample's
    # arithmetic (the order of every sum) independent of the number S
    ix = _indices(fock_cutoff)
    count, top, d = blocks.shape[2], fock_cutoff + 1, 4 * (fock_cutoff + 1)
    lower, diagonal, upper = blocks
    diagonal[ix.empty // 6, :, ix.empty % 6, ix.empty % 6] = 1.0
    ratios = np.empty_like(lower)
    schur = diagonal[top]
    with np.errstate(all="ignore"):  # a failed sample may run through inf and nan
        for k in range(top, 0, -1):
            ratios[k] = -_solve(schur, lower[k], errors, index)
            schur = diagonal[k - 1] + upper[k - 1] @ ratios[k]
        a, b = schur[:, 0, :2].T, schur[:, 1, :2].T  # the rows of the 2x2 block, S_1 x_0 = 0
        row = np.where(abs(a[0]) ** 2 + abs(a[1]) ** 2 >= abs(b[0]) ** 2 + abs(b[1]) ** 2, a, b)
        x = np.zeros((top + 1, count, 6), dtype=complex)
        x[0, :, 0], x[0, :, 1] = -row[1], row[0]
        for k in range(1, top + 1):
            x[k] = (ratios[k] * x[k - 1, :, None, :]).sum(axis=-1)
        vectors = np.ascontiguousarray(x[ix.slot // 6, :, ix.slot % 6].T)
        vectors /= vectors[:, :d].sum(axis=1, keepdims=True)
        herm = 0.5 * (vectors + _adjoint(vectors, fock_cutoff))
        return herm / herm[:, :d].sum(axis=1, keepdims=True).real


def steady_state(liouvillian: Liouvillian) -> QuantumState:
    """Null vector of a sector generator, normalized to unit trace.

    The generator's CSR entries are scattered into its Q2 blocks and
    ``_null_vectors`` solves them, so a generator assembled elsewhere solves
    as well as one of ``build_sector_liouvillian``; duplicate entries count
    as their sum.  Raises SteadyStateError when a step of the recursion is
    singular or the residual exceeds tolerance and FockCutoffError when the
    top of the Fock ladder is populated.
    """
    layout = liouvillian.layout
    cutoff = layout.fock_cutoff
    matrix = _sector_matrix(liouvillian)
    entries = matrix.tocoo(copy=True)  # summing its duplicates leaves the caller's matrix as it is
    entries.sum_duplicates()
    positions = _block_positions(cutoff, entries.row, entries.col)
    errors, index = [None], [0]
    vectors = _null_vectors(_scatter(positions, entries.data[:, None], cutoff), cutoff, errors, index)
    _check(vectors, (matrix @ vectors.T).T, cutoff, errors, index)
    raise_first(errors)
    return QuantumState(vectors[0], layout)


def _actions(pattern: SectorPattern, coefficients: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each coefficient's term of L x, (..., 9, size), from one product with ``terms``."""
    products = (pattern.terms @ vectors.T).T
    return products.reshape(*vectors.shape[:-1], 9, pattern.size) * coefficients[..., :, None]


def _steady_states(spec: SystemSpec, errors: list):
    """Solve every sample of ``spec`` that has no error yet, batched by Fock cutoff.

    A batch holds at most ``_BATCH_ENTRIES`` block entries.  Each is one
    ``_null_vectors`` solve and one product with the pattern's ``terms``,
    whose sum is the residual.  A sample whose Fock tail fails is solved
    again with a later batch at its cutoff + 4, at most twice, and each
    enlargement is logged at INFO level with the old and new cutoff and the
    tail that triggered it.  Yields the solved samples of each batch:
    (index, layout, vectors, actions).  The others keep their first error
    in ``errors``.
    """
    if spec.cavity is None:
        raise ValueError("quantum treatment requires a cavity")
    n = len(errors)
    coefficients = np.broadcast_to(_coefficients(spec), (n, 9))
    cutoffs = np.broadcast_to(spec.cavity.fock_cutoff, n).astype(int)
    attempts = np.zeros(n, dtype=int)
    pending = np.array([i for i, error in enumerate(errors) if error is None], dtype=int)
    while pending.size:
        cutoff = int(cutoffs[pending].min())
        chosen = np.flatnonzero(cutoffs[pending] == cutoff)
        chosen = chosen[: max(1, _BATCH_ENTRIES // (108 * (cutoff + 2)))]
        batch, pending = pending[chosen], np.delete(pending, chosen)
        pattern = sector_pattern(cutoff)
        batch_coefficients = coefficients[batch]
        vectors = _null_vectors(  # unnamed, so the product and the blocks are freed early
            _scatter(pattern.positions, pattern.weights @ batch_coefficients.T, cutoff),
            cutoff, errors, batch)
        actions = _actions(pattern, batch_coefficients, vectors)
        _check(vectors, actions.sum(axis=-2), cutoff, errors, batch)
        retry = np.array([
            isinstance(errors[i], FockCutoffError) and attempts[i] < _MAX_ENLARGEMENTS
            for i in batch
        ])
        for i in batch[retry]:
            logger.info("Fock cutoff %d -> %d: top two levels hold %.3e",
                        cutoff, cutoff + 4, errors[i].tail)
            errors[i] = None
        cutoffs[batch[retry]] += 4
        attempts[batch[retry]] += 1
        pending = np.sort(np.concatenate([pending, batch[retry]]))
        solved = np.array([errors[i] is None for i in batch]) & ~retry
        if solved.any():
            yield batch[solved], HilbertLayout(cutoff), vectors[solved], actions[solved]


def quantum_steady_state(spec: SystemSpec) -> QuantumSolution:
    """Solve for the steady state in the ΔQ = 0 sector, enlarging the Fock cutoff on demand.

    The one-sample case of the batched solve (``_steady_states``): it starts
    at ``spec.cavity.fock_cutoff`` and raises the cutoff by 4 on a
    FockCutoffError, at most twice, logging each enlargement at INFO level.
    """
    errors = [None]
    for _, layout, vectors, _ in _steady_states(spec, errors):
        liouv = build_sector_liouvillian(layout, spec)
        return QuantumSolution(QuantumState(vectors[0], layout), layout, liouv, spec)
    raise errors[0]


def _real_part(values, bound: float, name: str):
    """The real part of a generator or state in the real basis (``_Indices``);
    EvolutionError unless its imaginary part is at most ``bound`` (NaN fails)."""
    drift = abs(values.imag).max()
    if not drift <= bound:
        raise EvolutionError(f"Hermiticity drift of the {name} in the real basis: "
                             f"imaginary part {drift:.3e}")
    return values.real


def trajectory(
    state0: QuantumState, liouvillian: Liouvillian, t_final: float, n_store: int
) -> np.ndarray:
    """The states at ``n_store`` evenly spaced times from 0 to ``t_final``, as an
    (n_store, sector size) stack whose row 0 is ``state0``.

    L maps Hermitian matrices to Hermitian ones, so the rows are propagated
    in the real coordinates y = T^-1 x = [p; u; v] of ``_Indices``, with
    c_n = u_n + i v_n, where the generator L_r = T^-1 L T is a real matrix
    of the sector's size.  Before any row is formed, the imaginary part of
    L_r must be at most 1e-12 of its largest entry and that of T^-1 x_0 at
    most 1e-9, else EvolutionError.  Each later row is the one-segment
    propagator P = exp(L_r seg), seg = t_final / (n_store - 1), applied to
    the row before it.  Up to ``_DENSE_SIZE`` sector entries P is formed
    once by scaling and squaring (``scipy.linalg.expm``; Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009)); above it each segment is
    one ``expm_multiply`` call.  Every propagated row must have unit trace
    to 1e-9, else EvolutionError; it is renormalized before the next step.
    The real rows are turned back into sector vectors once, and each is
    validated.  The first failing row raises its error; so does a
    propagator of L seg that overflows.  A full-space generator raises
    ValueError.
    """
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    if n_store < 2:
        raise ValueError("n_store must be at least 2 (the initial and the final state)")
    matrix = _sector_matrix(liouvillian)
    cutoff, d = liouvillian.layout.fock_cutoff, liouvillian.layout.dim
    basis = _indices(cutoff)
    seg = t_final / (n_store - 1)
    rows = np.empty((n_store, matrix.shape[0]))
    propagated = np.empty_like(rows[1:])  # row i - 1 holds P applied to row i - 1
    # L seg, or a squaring of expm, may overflow: P is then NaN, and so are the rows it
    # gives, which fail the drift check.
    with np.errstate(all="ignore"):
        dense = matrix.shape[0] <= _DENSE_SIZE
        generator = basis.inverse @ (matrix.toarray() if dense else matrix) @ basis.forward
        bound = _HERMITICITY_TOL * abs(generator).max()
        generator = _real_part(generator, bound, "generator") * seg
        rows[0] = _real_part(basis.inverse @ state0.vector, 1e-9, "initial state")
        if dense:
            step = scipy.linalg.expm(generator).__matmul__
        else:
            step = partial(expm_multiply, generator)
        for i in range(1, n_store):
            try:
                y = propagated[i - 1] = step(rows[i - 1])
            except (OverflowError, ValueError) as exc:  # int() of a step count from ||L seg||
                raise EvolutionError(f"propagator overflows at t = {i * seg:.6g}: {exc}") from exc
            rows[i] = y / y[:d].sum()

        errors, index = [None] * (n_store - 1), range(n_store - 1)
        trace_drift = abs(propagated[:, :d].sum(axis=1) - 1.0)
        message = "invariant drift at t = {:.6g}: |tr-1| = {:.3e}"
        fail_samples(errors, index, ~(trace_drift <= 1e-9),
                     lambda *v: EvolutionError(message.format(*v)),
                     seg * np.arange(1, n_store), trace_drift)
        states = np.empty(rows.shape, dtype=complex)
        states[0] = state0.vector
        states[1:] = (basis.forward @ rows[1:].T).T
        _validate(states[1:], cutoff, errors, index)
    raise_first(errors)
    return states


def evolve_quantum(
    state0: QuantumState,
    liouvillian: Liouvillian,
    t_final: float,
) -> QuantumState:
    """exp(L t_final) applied to a sector state: the last row of a two-row ``trajectory``."""
    return QuantumState(trajectory(state0, liouvillian, t_final, 2)[-1], liouvillian.layout)


# -- flows ------------------------------------------------------------------------


def _trace_weights(fock_cutoff: int, spec: SystemSpec) -> np.ndarray:
    """Sector vectors h with Tr(H X) = h @ x, elementwise in ``spec``: (..., size)."""
    ix = _indices(fock_cutoff)
    d, n = 4 * (fock_cutoff + 1), fock_cutoff
    levels, cavity = spec.levels, spec.cavity
    energies = (
        np.multiply.outer(levels.e_upper, ix.n_u)
        + np.multiply.outer(levels.e_lower, ix.n_l)
        + np.multiply.outer(cavity.omega_cav, ix.n_ph)
    )
    t = np.multiply.outer(cavity.g, ix.root)  # Tr(H X) picks <B|H|A> X_AB + <A|H|B> X_BA
    h = np.empty(np.broadcast_shapes(energies.shape[:-1], t.shape[:-1]) + (d + 2 * n,), complex)
    h[..., :d], h[..., d : d + n], h[..., d + n :] = energies, t, t.conj()
    return h


def _flows(vectors, actions, fock_cutoff: int, spec: SystemSpec, errors: list, index) -> tuple:
    """Rate and per-reservoir flows (rate, ndot_u, ndot_l, edot_u, edot_l, edot_b)
    of sector vectors along the last axis, from each coefficient's term of L x.

    A sample fails with RuntimeError when an energy flow's trace form and
    closed form disagree beyond 1e-9, since that signals an inconsistent
    generator.
    """
    occ = spec.quantum_occupations
    energy = (actions * _trace_weights(fock_cutoff, spec)[..., None, :]).sum(axis=-1)
    charge = (actions * _indices(fock_cutoff).charge).sum(axis=-1)
    edot = {name: energy[..., _CHANNELS[name]].sum(axis=-1).real for name in ("u", "l", "b")}
    ndot_u = charge[..., _CHANNELS["u"]].sum(axis=-1).real
    ndot_l = charge[..., _CHANNELS["l"]].sum(axis=-1).real

    obs = stacked_observables(vectors, fock_cutoff, spec)
    two_re_y = 2.0 * np.real(obs.y)
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
        fail_samples(
            errors, index, mismatch > 1e-9 * np.maximum(1.0, abs(edot[name])),
            lambda trace, form: RuntimeError(
                f"energy flow {name}: trace form {trace:.12e} and closed form {form:.12e} disagree"
            ),
            edot[name], closed[name],
        )
    return obs.rate, ndot_u, ndot_l, edot["u"], edot["l"], edot["b"]


def _flux_report(spec: SystemSpec, rate, ndot_u, ndot_l, edot_u, edot_l, edot_b) -> FluxReport:
    gamma_b = spec.bath.gamma if spec.bath is not None else 0.0
    eff = effective_energies_quantum(
        spec.levels, spec.cavity, spec.reservoir_u.gamma, spec.reservoir_l.gamma, gamma_b
    )
    return flux_report(
        "quantum", spec.quantum_occupations, eff, rate, ndot_u, ndot_l, edot_u, edot_l, edot_b
    )


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
    actions = _actions(pattern, liouvillian.coefficients, state.vector)
    residual = np.max(np.abs(actions.sum(axis=0)))
    if residual > _RESIDUAL_TOL:
        raise SteadyStateError(f"state is not stationary (residual {residual:.3e})")
    errors = [None]
    flows = _flows(state.vector, actions, state.layout.fock_cutoff, spec, errors, [0])
    raise_first(errors)
    return _flux_report(spec, *flows)


def steady_state_fluxes(spec: SystemSpec) -> FluxReport:
    """``fluxes_quantum`` of the steady state of every sample, solved in batches.

    A batch holds samples of one Fock cutoff, with or without a bath: a
    sample without one has zero photon rates.  A scenario is the one-sample
    case and raises its first error.  For a ``SpecColumns`` each field holds
    one entry per sample; a sample that fails keeps its first error in
    ``spec.errors`` and NaN entries.  The order of the errors is that of
    ``quantum_steady_state`` followed by ``fluxes_quantum``.
    """
    columns = isinstance(spec, SpecColumns)
    errors = spec.errors if columns else [None]
    flows = np.full((6, len(errors)), np.nan)
    for index, layout, vectors, actions in _steady_states(spec, errors):
        part = spec.take(index)
        flows[:, index] = _flows(vectors, actions, layout.fock_cutoff, part, errors, index)
    if not columns:
        raise_first(errors)
        flows = flows[:, 0]
    return _flux_report(spec, *flows)


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
