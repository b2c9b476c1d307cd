"""Exact treatment of the two-level emitter coupled to a lossy quantized mode.

The model lives on the truncated product space (two fermionic modes) x (Fock
ladder up to a cutoff N).  Its Hamiltonian conserves Q1 = N_u + N_l and
Q2 = N_u + N_ph, and every jump operator shifts Q by the same amount on both
sides of rho, so the generator of the master equation has no elements
between blocks of different charge difference ΔQ, and the steady state lies
in the ΔQ = 0 block (a weak U(1) symmetry: Buča & Prosen, New J. Phys. 14,
073007 (2012); Albert & Jiang, Phys. Rev. A 89, 022118 (2014)).  That sector
holds the 4(N+1) populations and the N coherences c_n = <1,0,n+1|rho|0,1,n>
with their conjugates.

The generator on the sector is sum_k c_k B_k: nine real coefficients c_k
(Re g, Im g, the level split and the six jump rates) times fixed matrices
B_k whose entries couple photon numbers at most one apart.  L maps
Hermitian matrices to Hermitian ones, so in the real coordinates of the
sector, y = [p; u; v]: the populations p and the real and imaginary parts
of c_n = u_n + i v_n (the coherence vector of Alicki & Lendi, *Quantum
Dynamical Semigroups and Applications*, LNP 286 (1987)), every B_k is
real.  These 6N + 4 real entries are the one format of a sector state
(``QuantumState.vector``) and of the sector generator
(``Liouvillian.matrix``); only ``QuantumState.rho`` forms the complex
density matrix.  H, the c_l jumps and the Q2-conserving parts of the
dissipators keep Q2 = N_u + N_ph; every c_u jump and every photon jump
moves it by one.  Ordered by Q2, the B_k are block tridiagonal, with
blocks of six slots (Albert & Jiang, above).  The index arrays of the
basis and these real blocks are built once per cutoff and cached
(``sector_pattern``): without a bath, or with gamma_b <= 0, the two photon
rates are zero, so they depend on the Fock cutoff alone.

The null vector of a block-tridiagonal generator is a matrix continued
fraction computed downwards from the top of the Fock ladder (Risken, *The
Fokker-Planck Equation*, 2nd ed. (1989), ch. 9; ``_null_vectors``).  The
blocks of a whole (S, 9) table of coefficients are summed from the cached
ones, and each step of the recursion is one stacked real 6x6 solve over
all S samples.  ``steady_state_fluxes`` audits the samples of a
``SpecColumns`` this way, in batches of one cutoff; a scenario,
``quantum_steady_state`` and ``steady_state`` are its one-sample case.
Each flow is an O(N) trace of H or N against one channel's action, which
the blocks give, and so does the residual.  Positivity is checked on the
2x2 blocks that the coherences form with their two populations.  The
generator is linear and time independent, so ``trajectory`` applies one
real propagator exp(L seg) per segment of evenly spaced rows: formed once
by scaling and squaring (``model.expm``) while the sector is small enough
for a dense matrix, a truncated Taylor series on the sparse generator above
that size, its degree and step count chosen once per trajectory from the
exact 1-norm (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011);
``_taylor_propagator``).  Neither solves L y = 0, so
the evolution is an independent oracle for the steady state.  The cached
arrays are read-only, so threads may share them.

The full-space construction (dense ``build_operators``, the row-major
superoperator of ``build_liouvillian``, dense ``observables`` and
``thermal_product_state``) is only the reference the sector is tested
against; ``steady_state``, ``trajectory`` and ``evolve_quantum`` refuse its
generator.

Both generators, the steady-state solve and the flows read the reservoir
occupations from ``spec.quantum_occupations``.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import (
    BATCH_ENTRIES as _BATCH_ENTRIES,
    MAX_ENLARGEMENTS as _MAX_ENLARGEMENTS,
    EvolutionError,
    FluxReport,
    Occupations,
    SpecColumns,
    SteadyStateError,
    SystemSpec,
    energy_flow,
    expm,
    fail_samples,
    flux_report,
    in_deadband,
    photon_mode,
    plain,
    raise_first,
    where,
)

# SciPy is imported by the functions that call it, so that importing the package
# (and every classical command) loads none of it.
if TYPE_CHECKING:
    import scipy.sparse as sp

_RESIDUAL_TOL = 1e-10
_FOCK_TAIL_TOL = 1e-6
# Sector entries up to which ``trajectory`` forms the dense real propagator: its
# O(size^3) cost met that of one real expm_multiply per segment at 700-712 entries
# (cutoff 116-118) on the quantum-evolve scenario, 41 rows over t = 30, one BLAS thread.
_DENSE_SIZE = 700
# CSR products (segments x Taylor steps x degree) past which a trajectory above
# ``_DENSE_SIZE`` is refused before its first product: a product took 7.3 us at
# cutoff 121 and 17.5 us at cutoff 400 (best of 1,000, one BLAS thread), so the
# budget's products take about 7 s and 18 s there.  One segment of 300 time units
# at cutoff 200 with g = 5 needs 0.77e6.
_TAYLOR_BUDGET = 10**6
# theta_m: a Taylor series of degree m applied s times approximates exp(A) to the
# unit roundoff 2**-53 when ||A||_1 / s <= theta_m (Al-Mohy & Higham, SIAM J. Sci.
# Comput. 33, 488 (2011), table 3.1; Higham, Functions of Matrices (2008), table A.3).
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}

logger = logging.getLogger(__name__)


class FockCutoffError(SteadyStateError):
    """Population of the top Fock levels shows the truncation is inadequate."""

    def __init__(self, message: str, tail: float = math.nan) -> None:
        super().__init__(message)
        self.tail = tail


class FlowMismatchError(SteadyStateError):
    """An energy flow's trace form and closed form disagree beyond 1e-9."""


@dataclass(frozen=True)
class HilbertLayout:
    """Index bookkeeping for the fermion x photon product basis.

    Basis states are |n_l, n_u, n_ph> with flat index (2 n_l + n_u) (N + 1)
    + n_ph where N is the Fock cutoff; its ΔQ = 0 sector is ``sector_pattern(N)``.
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


class _SectorMatrix:
    """``Liouvillian.matrix``.  Given as None, the real CSR sum_k c_k B_k of a sector generator,
    its one sparse form, is formed from its ``pattern`` and ``coefficients`` on first read; such
    a CSR, handed on by ``dataclasses.replace``, is dropped, and the new generator forms its own."""

    def __get__(self, liouv, owner=None):
        if liouv is None:
            raise AttributeError("matrix")  # no class default: the field stays required
        if liouv.__dict__["matrix"] is None:
            import scipy.sparse as sp

            at, values = _entries(liouv.pattern, liouv.coefficients)
            matrix = sp.csr_matrix((values, at), shape=(liouv.pattern.size,) * 2)
            matrix.eliminate_zeros()
            matrix.formed = True
            liouv.__dict__["matrix"] = matrix
        return liouv.__dict__["matrix"]

    def __set__(self, liouv, matrix) -> None:
        liouv.__dict__["matrix"] = None if getattr(matrix, "formed", False) else matrix


@dataclass(frozen=True)
class Liouvillian:
    """Sparse generator of the master equation, with its basis layout.

    ``build_sector_liouvillian`` gives it on the ΔQ = 0 sector: ``matrix`` is
    then real and acts on the real coordinates [p; u; v] of
    ``QuantumState.vector``, and the ``pattern`` and ``coefficients`` it was
    assembled from are what the solve, the flows and ``trajectory`` read.  Its CSR
    ``matrix`` is formed on first read only, by no solve and by a ``trajectory`` only above
    ``_DENSE_SIZE`` entries (``dataclasses.replace`` forms it; the new generator drops it).
    The full-space reference of ``build_liouvillian`` acts on row-major
    vec(rho) and has neither pattern nor coefficients.
    """

    matrix: sp.csr_matrix | None = _SectorMatrix()
    layout: HilbertLayout
    pattern: SectorPattern | None = None
    coefficients: np.ndarray | None = None


@dataclass(frozen=True)
class QuantumState:
    """Density matrix in the ΔQ = 0 sector, as the vector a sector ``Liouvillian`` acts on.

    ``vector`` is real: the populations p in flat-index order, then u and v,
    the real and imaginary parts of the coherences c_n = <1,0,n+1|rho|0,1,n>
    for n < N, laid out by ``pattern``, the ``SectorPattern`` of the cutoff.
    Every such vector is a Hermitian rho; a complex one is refused.  The dense
    ``rho``, the one place the complex form is built, is formed on first access.
    """

    vector: np.ndarray
    layout: HilbertLayout

    def __post_init__(self) -> None:
        if self.vector.shape != (self.pattern.size,):
            raise ValueError(f"state vector of shape {self.vector.shape} is not a sector vector")
        if np.iscomplexobj(self.vector):
            raise ValueError("a sector vector holds the real coordinates [p; u; v], not complex entries")

    @property
    def pattern(self) -> SectorPattern:
        return sector_pattern(self.layout.fock_cutoff)

    @cached_property
    def rho(self) -> np.ndarray:
        d, pattern = self.layout.dim, self.pattern
        p, u, v = np.split(self.vector, pattern.split)
        flat = np.zeros(d * d, dtype=complex)
        flat[pattern.sector] = np.concatenate([p, u + 1j * v, u - 1j * v])
        return flat.reshape(d, d)

    def lowest_eigenvalue(self) -> float:
        """Lowest eigenvalue of rho (see ``_lowest_eigenvalues``)."""
        return float(_lowest_eigenvalues(self.vector, self.pattern))

    def validate(self) -> None:
        errors = [None]
        _validate(self.vector, self.pattern, errors, [0])
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
    """Steady state together with the scenario it solves.

    ``liouvillian`` (the sector generator at the cutoff of the state),
    ``fock_tail`` and ``ops`` (the dense full-space operators) are computed
    on first access only: the solve reads none of them.  The occupations
    the generator is built with are ``spec.quantum_occupations``.
    """

    state: QuantumState
    spec: SystemSpec

    @property
    def layout(self) -> HilbertLayout:
        return self.state.layout

    @cached_property
    def liouvillian(self) -> Liouvillian:
        return build_sector_liouvillian(self.layout, self.spec)

    @cached_property
    def fock_tail(self) -> float:
        """Population of the top two Fock levels; the truncation-error monitor."""
        return float(_fock_tails(self.state.vector, self.state.pattern))

    @cached_property
    def ops(self) -> OperatorSet:
        return build_operators(self.layout, self.spec)


# -- the ΔQ = 0 sector ---------------------------------------------------------

# Patterns kept per process: one per Fock cutoff.  The audit uses three
# cutoffs, lasing one or three.
_CACHE_SIZE = 16


Entries = tuple[np.ndarray, np.ndarray, np.ndarray]  # rows, columns, values

# The generator is linear in these real coefficients: Re g, Im g, the level
# split E(1,0,n+1) - E(0,1,n) = omega_cav - (e_upper - e_lower), and the rate
# of each jump operator.  Each channel owns a contiguous run of them.
_CHANNELS = {"h": slice(0, 3), "u": slice(3, 5), "l": slice(5, 7), "b": slice(7, 9)}
_JUMPS = ("c_u+", "c_u", "c_l+", "c_l", "a", "a+")  # coefficients 3..8


def _hamiltonian_entries(upper: np.ndarray, lower: np.ndarray, root: np.ndarray,
                         d: int) -> list[Entries]:
    """-i[H, rho] on the sector in the real coordinates, per unit of Re g, Im g and split.

    With A = |1,0,n+1>, B = |0,1,n>, c = rho_AB = u + i v and t = <B|H|A> = g sqrt(n+1):
    dp_A/dt = i t c - i t* c* = -dp_B/dt and dc/dt = -i (E_A - E_B) c + i t* (p_A - p_B).
    """
    n, s = len(upper), root
    u, v, one = d + np.arange(n), d + n + np.arange(n), np.ones(n)
    parts = (
        ((upper, lower, v, v), (v, v, upper, lower), (-2 * s, 2 * s, s, -s)),
        ((upper, lower, u, u), (u, u, upper, lower), (-2 * s, 2 * s, s, -s)),
        ((u, v), (v, u), (one, -one)),
    )
    return [tuple(np.concatenate(part) for part in entries) for entries in parts]


def _jumps(n_l: np.ndarray, n_u: np.ndarray, n_ph: np.ndarray
           ) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each jump operator L as the map L|source> = amplitude |target> on flat indices.

    The Jordan-Wigner signs are left out.  They are a phase of +-1 per basis
    state, and no fermionic jump maps a sector coherence onto another, so in
    the sector they only ever enter squared.
    """
    index, m = np.arange(len(n_ph)), len(n_ph) // 4
    filled_u, filled_l, excited = index[n_u == 1], index[n_l == 1], index[n_ph > 0]
    unit = np.ones(2 * m)
    root = np.sqrt(n_ph[excited])
    return {
        "c_u": (filled_u, filled_u - 1 * m, unit),
        "c_u+": (filled_u - 1 * m, filled_u, unit),
        "c_l": (filled_l, filled_l - 2 * m, unit),
        "c_l+": (filled_l - 2 * m, filled_l, unit),
        "a": (excited, excited - 1, root),
        "a+": (excited - 1, excited, root),
    }


def _dissipator_entries(
    upper: np.ndarray, lower: np.ndarray, d: int, jump: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Entries:
    """L rho L^dagger - {L^dagger L, rho} / 2 on the sector, per unit rate; it acts
    alike on the c_n and on their conjugates, so also on the u_n and the v_n."""
    source, target, amplitude = jump
    n = len(upper)
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
    """What the ΔQ = 0 sector owes to its Fock cutoff alone: its ``size``, the
    positions of its entries in vec(rho) and the offsets of u and v (``split``).

    The generator is sum_k coefficient_k B_k over fixed real matrices B_k
    on the coordinates y = [p; u; v] of a sector state: p are the
    populations and c_n = u_n + i v_n the coherences.  Ordered by
    Q2 = N_u + N_ph they are block tridiagonal, with one block of six slots
    per Q2 = 0 ... N + 1: |0,0,Q2>, |1,0,Q2>, |0,1,Q2-1>, |1,1,Q2-1>, then
    u_(Q2-1) and v_(Q2-1); the slots outside the ladder (four in the first
    block, four in the last) stay empty.  ``blocks[k]`` holds B_k: stack 0
    the blocks A that couple block Q2 = q to q - 1, stack 1 the diagonal
    blocks D and stack 2 the blocks C that couple q to q + 1.  All six jumps
    are in it; without a bath the photon rates are zero.  Built once per
    cutoff by ``sector_pattern``; every array is read-only.
    """

    fock_cutoff: int
    n_l: np.ndarray  # basis labels of each flat index
    n_u: np.ndarray
    n_ph: np.ndarray
    upper: np.ndarray  # flat indices of |1,0,n+1> and |0,1,n> for n < N
    lower: np.ndarray
    single: np.ndarray  # populations outside the 2x2 blocks
    sector: np.ndarray  # positions in row-major vec(rho) of the sector entries
    photons: np.ndarray  # 0, 1, ..., N
    root: np.ndarray  # sqrt(n + 1) for n < N
    charge: np.ndarray  # Tr((N_u + N_l) X) = charge @ y
    slot: np.ndarray  # 6 Q2 + place in the Q2 block, of each sector entry
    position: np.ndarray  # sector position of slot s at 6 + s, -1 outside the ladder
    blocks: np.ndarray  # (9, 3, N + 2, 6, 6): coefficient, stack, Q2, row slot, column slot
    # Set from blocks: the coefficient, sector row, sector column and flat index in blocks
    # of each nonzero entry, (4, nonzeros), ordered by coefficient
    support: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        k, side, q, row, column = np.nonzero(self.blocks)
        rows, cols = self.position[6 * (q + 1) + row], self.position[6 * (q + side) + column]
        if np.any(rows < 0) or np.any(cols < 0):
            raise ValueError("a B_k couples a slot outside the ladder")
        flat = np.ravel_multi_index((k, side, q, row, column), self.blocks.shape)
        object.__setattr__(self, "support", np.stack([k, rows, cols, flat]))

    @property
    def size(self) -> int:
        return len(self.slot)

    @property
    def split(self) -> tuple[int, int]:  # where u and v start in y = [p; u; v]
        return len(self.n_ph), len(self.n_ph) + self.fock_cutoff


@lru_cache(maxsize=_CACHE_SIZE)
def sector_pattern(fock_cutoff: int) -> SectorPattern:
    """The ``SectorPattern`` of a cutoff; cached."""
    m, n = fock_cutoff + 1, fock_cutoff
    d, count = 4 * m, fock_cutoff + 2
    fermion, n_ph = np.divmod(np.arange(d), m)
    n_l, n_u = fermion // 2, fermion % 2
    upper, lower = 2 * m + np.arange(n) + 1, m + np.arange(n)
    single = np.ones(d, dtype=bool)
    single[upper] = single[lower] = False
    root = np.sqrt(np.arange(1, m))
    coherent = 6 * np.arange(1, m)  # c_n sits in block Q2 = n + 1
    slot = np.concatenate([6 * (n_u + n_ph) + n_l + 2 * n_u, coherent + 4, coherent + 5])
    position = np.full(6 * (count + 2), -1)  # one empty block before and one after the ladder
    position[6 + slot] = np.arange(len(slot))

    jumps = _jumps(n_l, n_u, n_ph)
    per_coefficient = _hamiltonian_entries(upper, lower, root, d) + [
        _dissipator_entries(upper, lower, d, jumps[name]) for name in _JUMPS
    ]
    blocks = np.zeros((9, 3, count, 6, 6))
    for k, (rows, cols, vals) in enumerate(per_coefficient):
        (block, place), (other, column) = np.divmod(slot[rows], 6), np.divmod(slot[cols], 6)
        side = other - block + 1
        if not np.all((side >= 0) & (side <= 2)):
            raise ValueError("generator couples Q2 blocks more than one apart")
        np.add.at(blocks[k], (side, block, place, column), vals)

    pattern = SectorPattern(
        fock_cutoff, n_l, n_u, n_ph, upper, lower, single,
        np.concatenate([np.arange(d) * (d + 1), upper * d + lower, lower * d + upper]),
        np.arange(m, dtype=float), root, np.concatenate([n_u + n_l, np.zeros(2 * n)]),
        slot, position, blocks,
    )
    for field in dataclasses.fields(pattern):
        value = getattr(pattern, field.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return pattern


def _coefficients(spec: SystemSpec) -> np.ndarray:
    """The nine coefficients of the generator, elementwise: (9,) for a scenario, (S, 9) for columns."""
    occ = spec.quantum_occupations
    omega, gamma_b = photon_mode(spec, "quantum")
    bath = gamma_b > 0
    gamma_b, n_b = where(bath, gamma_b, 0.0), where(bath, occ.n_b, 0.0)
    g = spec.cavity.g
    split = spec.levels.e_lower + omega - spec.levels.e_upper
    gamma_u, gamma_l = spec.reservoir_u.gamma, spec.reservoir_l.gamma
    rates = (  # of the jumps in _JUMPS order
        gamma_u * occ.f_u, gamma_u * (1.0 - occ.f_u), gamma_l * occ.f_l,
        gamma_l * (1.0 - occ.f_l), gamma_b * (n_b + 1.0), gamma_b * n_b,
    )
    values = np.broadcast_arrays(np.real(g), np.imag(g), split, *rates)
    return np.stack(values, axis=-1).astype(float)


def _assemble(pattern: SectorPattern, coefficients: np.ndarray) -> np.ndarray:
    """The (3, N + 2, S, 6, 6) Q2 blocks of sum_k c_k B_k for an (S, 9) table of ``coefficients``,
    summed in a fixed order: BLAS may round a sample apart from the same one in a stack."""
    k, _, _, flat = pattern.support
    stack, entry = np.divmod(flat % pattern.blocks[0].size, 36)  # 3 Q2 blocks, 36 entries each
    values = pattern.blocks.ravel()[flat, None] * coefficients.T[k]
    blocks = np.zeros((3 * (pattern.fock_cutoff + 2), len(coefficients), 36))
    runs = np.searchsorted(k, np.arange(10))
    for c in range(9):
        run = slice(runs[c], runs[c + 1])
        blocks[stack[run], :, entry[run]] += values[run]
    return blocks.reshape(3, pattern.fock_cutoff + 2, -1, 6, 6)


def _entries(pattern: SectorPattern, coefficients: np.ndarray
             ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """(rows, columns) and values of sum_k c_k B_k for one row of ``coefficients``: each
    entry b of a B_k as c_k b, so a position that several B_k share appears once per B_k."""
    k, rows, cols, flat = pattern.support
    return (rows, cols), coefficients[k] * pattern.blocks.ravel()[flat]


def build_sector_liouvillian(layout: HilbertLayout, spec: SystemSpec) -> Liouvillian:
    """Generator of the master equation on the ΔQ = 0 sector.

    The cached ``sector_pattern`` of the cutoff holds the real blocks; this
    takes the nine coefficients of the scenario.  ``matrix``, the real CSR
    generator sum_k c_k B_k on the coordinates [p; u; v], is formed when it
    is first read.  With the change of basis T of ``QuantumState.rho``,
    T matrix T^-1 equals the ΔQ = 0 slice of ``build_liouvillian`` to
    rounding, for either fermion ordering.
    """
    return Liouvillian(None, layout, sector_pattern(layout.fock_cutoff), _coefficients(spec))


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
    vector = np.zeros(sector_pattern(layout.fock_cutoff).size)
    vector[: layout.dim] = np.kron(
        np.kron([1.0 - f_l, f_l], [1.0 - f_u, f_u]), weights / weights.sum()
    )
    return QuantumState(vector, layout)


def thermal_product_state(
    layout: HilbertLayout, f_u: float, f_l: float, n_b: float
) -> np.ndarray:
    """``thermal_state`` as a dense density matrix."""
    return thermal_state(layout, f_u, f_l, n_b).rho


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the last axis of ``a``, as an explicit sum: BLAS may round a
    row differently with other rows beside it, so one state would read apart from
    the same state in a stack."""
    return (a * b).sum(axis=-1)


def stacked_observables(
    vectors: np.ndarray, pattern: SectorPattern, spec: SystemSpec
) -> QuantumObservables:
    """``observables`` of each sector vector of ``pattern`` along the last axis (a state,
    the rows of a ``trajectory``, or a batch of steady states), elementwise in ``spec``."""
    (d, e), photons = pattern.split, pattern.photons
    # rows: (n_l, n_u) = (0, 0), (0, 1), (1, 0), (1, 1)
    p = vectors[..., :d].reshape(*vectors.shape[:-1], 4, len(photons))
    sigma_uu = p[..., 1, :].sum(axis=-1) + p[..., 3, :].sum(axis=-1)
    sigma_ll = p[..., 2, :].sum(axis=-1) + p[..., 3, :].sum(axis=-1)
    n_ph = _dot(p.sum(axis=-2), photons)
    # Y = conj(g) Tr{c_l^+ c_u a^+ rho} = conj(g) sum_n sqrt(n+1) c_n*, c_n* = u_n - i v_n
    y = np.conj(spec.cavity.g) * _dot(vectors[..., d:e] - 1j * vectors[..., e:], pattern.root)
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
    import scipy.sparse as sp

    d = m.shape[0]
    return sp.kron(sp.csr_matrix(m), sp.identity(d, dtype=complex, format="csr"), format="csr")


def _spost(m: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp

    d = m.shape[0]
    return sp.kron(sp.identity(d, dtype=complex, format="csr"), sp.csr_matrix(m.T), format="csr")


def _dissipator_super(m: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp

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


def _fock_tails(vectors: np.ndarray, pattern: SectorPattern) -> np.ndarray:
    """Population of the top two Fock levels of each sector vector along the last axis."""
    d, m = pattern.split[0], len(pattern.photons)
    populations = vectors[..., :d].reshape(*vectors.shape[:-1], 4, m)
    return populations.sum(axis=-2)[..., -2:].sum(axis=-1)


def _sector_generator(liouvillian: Liouvillian, reader: str) -> tuple[SectorPattern, np.ndarray]:
    """The pattern and coefficients of a sector generator; ValueError without them."""
    if liouvillian.pattern is None:
        shape = liouvillian.matrix.shape
        size = sector_pattern(liouvillian.layout.fock_cutoff).size
        if shape != (size, size):
            raise ValueError(f"generator of shape {shape} is not a sector generator")
        raise ValueError(f"{reader} needs the sector generator with its channels")
    return liouvillian.pattern, liouvillian.coefficients


def _moduli(vectors: np.ndarray, pattern: SectorPattern) -> np.ndarray:
    """|c_n| = |u_n + i v_n| of each sector vector along the last axis."""
    d, e = pattern.split
    return np.abs(vectors[..., d:e] + 1j * vectors[..., e:])


def _largest_entries(vectors: np.ndarray, pattern: SectorPattern) -> np.ndarray:
    """The largest modulus of the entries p, c and c* of each sector vector along the last axis."""
    populations = np.abs(vectors[..., : pattern.split[0]]).max(axis=-1)
    return np.maximum(populations, _moduli(vectors, pattern).max(axis=-1))


def _lowest_eigenvalues(vectors: np.ndarray, pattern: SectorPattern) -> np.ndarray:
    """Lowest eigenvalue of rho for each sector vector along the last axis.

    rho is block diagonal: a 2x2 block [[p(1,0,n+1), c_n], [c_n*, p(0,1,n)]]
    for each n < N and a 1x1 block for every other population.
    """
    pops = vectors[..., : pattern.split[0]].T  # entries first: one index for all
    upper, lower = pops[pattern.upper], pops[pattern.lower]
    mean, half_gap = 0.5 * (upper + lower), 0.5 * (upper - lower)
    pairs = mean - np.hypot(half_gap, _moduli(vectors, pattern).T)
    return np.minimum(pops[pattern.single].min(axis=0), pairs.min(axis=0))


def _validate(vectors: np.ndarray, pattern: SectorPattern, errors: list, index) -> None:
    """``QuantumState.validate`` of each sector vector along the last axis."""
    trace = vectors[..., : pattern.split[0]].sum(axis=-1)
    fail_samples(errors, index, ~(abs(trace - 1.0) <= 1e-12),
                 lambda t: ValueError(f"state trace {t} differs from 1"), trace)
    lowest = _lowest_eigenvalues(vectors, pattern)
    fail_samples(errors, index, ~(lowest >= -1e-10),
                 lambda e: ValueError(f"state has negative eigenvalue {e:.3e}"), lowest)


def _check(vectors: np.ndarray, residuals: np.ndarray, pattern: SectorPattern, errors: list, index):
    """The residual L y, the Fock tail and ``validate``, in this order, per sample.
    The residual is the largest entry of L y as a complex sector vector
    (``_largest_entries``), so that |c_n| bounds each coherence pair."""
    residual = _largest_entries(residuals, pattern)
    fail_samples(errors, index, ~(residual <= _RESIDUAL_TOL), lambda r: SteadyStateError(
        f"steady-state residual {r:.3e} above tolerance"), residual)
    tail = _fock_tails(vectors, pattern)
    message = "top Fock levels hold population {:.3e}; increase the cutoff"
    fail_samples(errors, index, tail > _FOCK_TAIL_TOL,
                 lambda t: FockCutoffError(message.format(t), t), tail)
    _validate(vectors, pattern, errors, index)


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


def _null_vectors(blocks: np.ndarray, pattern: SectorPattern, errors: list, index) -> np.ndarray:
    """The null vector of each generator of a stack, in the real coordinates, of unit trace.

    ``blocks`` (3, K, S, 6, 6), K = N + 2, holds the sub-diagonal, diagonal
    and super-diagonal blocks of S generators (``_assemble``); the
    recursion writes into it, each S_k over A_k and each Schur complement
    D_k + C_k S_(k+1) over D_k.  Row k of L y = 0 reads A_k y_(k-1) + D_k y_k
    + C_k y_(k+1) = 0, so y_k = S_k y_(k-1) with the matrix continued
    fraction S_K = -D_K^-1 A_K, S_k = -(D_k + C_k S_(k+1))^-1 A_k, taken
    downwards from the top of the Fock ladder; y_0 spans the null space of
    the 2x2 population block of D_0 + C_0 S_1.  An empty slot has a unit
    diagonal and no coupling, so it stays zero.  Each step is one stacked
    solve; a sample whose step is singular fails with SteadyStateError.
    """
    # C-contiguous (S, ...) stacks, here and below, keep each sample's
    # arithmetic (the order of every sum) independent of the number S
    count, top, d = blocks.shape[2], pattern.fock_cutoff + 1, pattern.split[0]
    lower, diagonal, upper = blocks
    empty, place = np.divmod(np.flatnonzero(pattern.position[6:-6] < 0), 6)
    diagonal[empty, :, place, place] = 1.0
    with np.errstate(all="ignore"):  # a failed sample may run through inf and nan
        for k in range(top, 0, -1):
            lower[k] = -_solve(diagonal[k], lower[k], errors, index)
            diagonal[k - 1] += upper[k - 1] @ lower[k]
        schur = diagonal[0]
        a, b = schur[:, 0, :2].T, schur[:, 1, :2].T  # the rows of the 2x2 block, S_1 y_0 = 0
        row = np.where(a[0] ** 2 + a[1] ** 2 >= b[0] ** 2 + b[1] ** 2, a, b)
        y = np.zeros((top + 1, count, 6))
        y[0, :, 0], y[0, :, 1] = -row[1], row[0]
        for k in range(1, top + 1):
            y[k] = (lower[k] * y[k - 1, :, None, :]).sum(axis=-1)
        vectors = np.ascontiguousarray(y[pattern.slot // 6, :, pattern.slot % 6].T)
        return vectors / vectors[:, :d].sum(axis=1, keepdims=True)


def steady_state(liouvillian: Liouvillian) -> QuantumState:
    """Null vector of a sector generator, normalized to unit trace.

    The one-sample case of the batched solve (``_solve_batch``): it reads
    the generator's ``pattern`` and ``coefficients``, not its ``matrix``,
    so the vector is bit for bit the one ``quantum_steady_state`` and the
    audit give.  A full-space generator, and a sector one without its
    pattern, raise ValueError.  Raises SteadyStateError when a step of the
    recursion is singular or the residual exceeds tolerance and
    FockCutoffError when the top of the Fock ladder is populated.
    """
    pattern, coefficients = _sector_generator(liouvillian, "steady_state")
    errors = [None]
    vectors, _ = _solve_batch(pattern, coefficients[None], errors, [0])
    raise_first(errors)
    return QuantumState(vectors[0], liouvillian.layout)


def _actions(pattern: SectorPattern, coefficients: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each coefficient's term of L y, (S, 9, size), for an (S, size) stack of real
    coordinates y: the entries of a row of B_k times y, summed in a fixed order."""
    k, rows, cols, flat = pattern.support
    count = 9 * pattern.size
    products = pattern.blocks.ravel()[flat] * np.take(vectors, cols, axis=1)
    at = np.arange(len(vectors))[:, None] * count + k * pattern.size + rows
    terms = np.bincount(at.ravel(), products.ravel(), minlength=len(vectors) * count)
    return terms.reshape(-1, 9, pattern.size) * coefficients[:, :, None]


def _solve_batch(pattern: SectorPattern, coefficients: np.ndarray,
                 errors: list, index) -> tuple[np.ndarray, np.ndarray]:
    """The steady states of an (S, 9) table of ``coefficients`` and their ``_actions``,
    whose sum is the residual that ``_check`` reads; failed samples keep their error."""
    vectors = _null_vectors(_assemble(pattern, coefficients), pattern, errors, index)
    actions = _actions(pattern, coefficients, vectors)
    _check(vectors, actions.sum(axis=-2), pattern, errors, index)
    return vectors, actions


def _steady_states(spec: SystemSpec, errors: list):
    """Solve every sample of ``spec`` that has no error yet, batched by Fock cutoff.

    A batch holds at most ``_BATCH_ENTRIES`` block entries; each is one
    ``_solve_batch``.  A sample whose Fock tail fails is solved again with a
    later batch at its cutoff + 4, at most twice, and each enlargement is
    logged at INFO level with the old and new cutoff and the tail that
    triggered it.  Yields the solved samples of each batch:
    (index, pattern, vectors, actions), with the ``SectorPattern`` of the
    cutoff they were solved at.  The others keep their first error in
    ``errors``.  A sample's enlargements are read off its cutoff.
    """
    n = len(errors)
    coefficients = np.broadcast_to(_coefficients(spec), (n, 9))
    cutoffs = np.broadcast_to(spec.cavity.fock_cutoff, n).astype(int)
    last = cutoffs + 4 * _MAX_ENLARGEMENTS
    pending = np.array([i for i, error in enumerate(errors) if error is None], dtype=int)
    while pending.size:
        cutoff = int(cutoffs[pending].min())
        chosen = np.flatnonzero(cutoffs[pending] == cutoff)
        chosen = chosen[: _BATCH_ENTRIES // (108 * (cutoff + 2))]
        batch, pending = pending[chosen], np.delete(pending, chosen)
        pattern = sector_pattern(cutoff)
        vectors, actions = _solve_batch(pattern, coefficients[batch], errors, batch)
        retry = np.array([isinstance(errors[i], FockCutoffError) and cutoff < last[i]
                          for i in batch])
        for i in batch[retry]:
            logger.info("Fock cutoff %d -> %d: top two levels hold %.3e",
                        cutoff, cutoff + 4, errors[i].tail)
            errors[i] = None
        cutoffs[batch[retry]] += 4
        pending = np.sort(np.concatenate([pending, batch[retry]]))
        solved = np.array([errors[i] is None for i in batch]) & ~retry
        if solved.any():
            yield batch[solved], pattern, vectors[solved], actions[solved]


def quantum_steady_state(spec: SystemSpec) -> QuantumSolution:
    """Solve for the steady state in the ΔQ = 0 sector, enlarging the Fock cutoff on demand.

    The one-sample case of the batched solve (``_steady_states``): it starts
    at ``spec.cavity.fock_cutoff`` and raises the cutoff by 4 on a
    FockCutoffError, at most twice, logging each enlargement at INFO level.
    """
    errors = [None]
    for _, pattern, vectors, _ in _steady_states(spec, errors):
        return QuantumSolution(QuantumState(vectors[0], HilbertLayout(pattern.fock_cutoff)), spec)
    raise errors[0]


def trajectory(
    state0: QuantumState, liouvillian: Liouvillian, t_final: float, n_store: int
) -> np.ndarray:
    """The states at ``n_store`` evenly spaced times from 0 to ``t_final``, as an
    (n_store, sector size) stack of real sector vectors whose row 0 is ``state0``.

    Each later row is the one-segment propagator P = exp(L seg), seg =
    t_final / (n_store - 1), of the real generator L (``_entries``) applied
    to the row before it.  Up to ``_DENSE_SIZE`` sector entries P is formed
    once, in NumPy, by scaling and squaring with a Pade approximant whose
    degree and scaling the exact 1-norms of the powers of L seg pick
    (``model.expm``; Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009)); above it each segment is the truncated Taylor series of
    ``_taylor_propagator`` on the CSR ``liouvillian.matrix`` times seg, its
    degree and step count chosen once, and refused with EvolutionError when
    its CSR products would exceed ``_TAYLOR_BUDGET``.  Every propagated row must have unit
    trace to 1e-9, else EvolutionError; it is renormalized before the next step, and
    validated.  The first failing row raises its error; so does a propagator
    of L seg that overflows.  A full-space generator, a sector one without
    its pattern, and a ``t_final`` that is negative or not finite, raise
    ValueError.
    """
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and non-negative, not {t_final!r}")
    if n_store < 2:
        raise ValueError("n_store must be at least 2 (the initial and the final state)")
    pattern, coefficients = _sector_generator(liouvillian, "trajectory")
    d, size = pattern.split[0], pattern.size
    seg = t_final / (n_store - 1)
    rows = np.empty((n_store, size))
    propagated = np.empty_like(rows[1:])  # row i - 1 holds P applied to row i - 1
    # L seg, or a squaring of expm, may overflow: P is then NaN, and so are the rows it
    # gives, which fail the drift check.
    with np.errstate(all="ignore"):
        rows[0] = state0.vector
        if size <= _DENSE_SIZE:
            at, values = _entries(pattern, coefficients)
            generator = np.zeros((size, size))
            np.add.at(generator, at, values * seg)
            step = expm(generator).__matmul__
        else:
            try:
                step = _taylor_propagator(liouvillian.matrix * seg, n_store - 1)
            except (OverflowError, ValueError) as exc:  # a step count from ||L seg||
                raise EvolutionError(f"propagator overflows at t = {seg:.6g}: {exc}") from exc
        for i in range(1, n_store):
            y = propagated[i - 1] = step(rows[i - 1])
            rows[i] = y / y[:d].sum()

        errors, index = [None] * (n_store - 1), range(n_store - 1)
        trace_drift = abs(propagated[:, :d].sum(axis=1) - 1.0)
        message = "invariant drift at t = {:.6g}: |tr-1| = {:.3e}"
        fail_samples(errors, index, ~(trace_drift <= 1e-9),
                     lambda *v: EvolutionError(message.format(*v)),
                     seg * np.arange(1, n_store), trace_drift)
        _validate(rows[1:], pattern, errors, index)
    raise_first(errors)
    return rows


def _taylor_propagator(a: sp.csr_matrix, segments: int):
    """y -> exp(a) y for a sparse real ``a``, by algorithm 3.2 of Al-Mohy & Higham
    (2011), as SciPy's ``expm_multiply`` runs it for one vector, ``segments`` times.

    The trace shift mu = tr(a) / size is taken out, and s steps of the Taylor
    series of degree m of the shifted a / s each stop early once two terms in
    a row fall below the unit roundoff of the sum.  m and s are chosen once,
    from the exact 1-norm of the shifted a by bound (3.13): the m of
    ``_THETA`` that minimises m s, s = ceil(||a||_1 / theta_m).  No norm is
    estimated, so no random vector is drawn.  A norm that is not finite raises
    OverflowError or ValueError, and ``segments`` m s products past
    ``_TAYLOR_BUDGET`` raise EvolutionError.
    """
    import scipy.sparse as sp

    size = a.shape[0]
    mu = a.diagonal().sum() / size
    a = (a - mu * sp.identity(size, format="csr")).tocsr()
    norm = abs(a).sum(axis=0).max()
    degree, steps = 0, 1
    if norm != 0:  # a NaN norm raises in ceil
        degree, steps = min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()),
                            key=lambda choice: choice[0] * choice[1])
    work = segments * degree * float(steps)  # a float: it may pass every int64
    if work > _TAYLOR_BUDGET:
        raise EvolutionError(f"the Taylor propagator needs {work:.3g} sparse products "
                             f"(segments x steps x degree = {segments} x {steps:.3g} x {degree}), "
                             f"more than its budget of {_TAYLOR_BUDGET:.3g}")
    eta = math.exp(mu / steps)

    def step(y: np.ndarray) -> np.ndarray:
        for _ in range(steps):
            term, before = y, np.abs(y).max()
            for j in range(degree):
                term = (a @ term) * (1.0 / (steps * (j + 1)))
                after = np.abs(term).max()
                y = y + term
                if before + after <= 2.0**-53 * np.abs(y).max():
                    break
                before = after
            y = eta * y
        return y

    return step


def evolve_quantum(
    state0: QuantumState,
    liouvillian: Liouvillian,
    t_final: float,
) -> QuantumState:
    """exp(L t_final) applied to a sector state: the last row of a two-row ``trajectory``."""
    return QuantumState(trajectory(state0, liouvillian, t_final, 2)[-1], liouvillian.layout)


# -- flows ------------------------------------------------------------------------


def _trace_weights(pattern: SectorPattern, spec: SystemSpec) -> np.ndarray:
    """Vectors h with Tr(H X) = h @ y, y the real coordinates of X, elementwise in ``spec``."""
    d, e = pattern.split
    levels, cavity = spec.levels, spec.cavity
    energies = (
        np.multiply.outer(levels.e_upper, pattern.n_u)
        + np.multiply.outer(levels.e_lower, pattern.n_l)
        + np.multiply.outer(cavity.omega_cav, pattern.n_ph)
    )
    # Tr(H X) picks <B|H|A> X_AB + <A|H|B> X_BA = t c + t* c* = 2 Re t u - 2 Im t v
    t = np.multiply.outer(cavity.g, pattern.root)
    h = np.empty(np.broadcast_shapes(energies.shape[:-1], t.shape[:-1]) + (pattern.size,))
    h[..., :d], h[..., d:e], h[..., e:] = energies, 2.0 * t.real, -2.0 * t.imag
    return h


def _flows(vectors, actions, pattern: SectorPattern, spec: SystemSpec, errors: list, index
           ) -> tuple:
    """Rate and per-reservoir flows (rate, ndot_u, ndot_l, edot_u, edot_l, edot_b)
    of sector vectors along the last axis, from each coefficient's term of L y.

    A sample fails with FlowMismatchError when an energy flow's trace form and
    closed form disagree beyond 1e-9: a Fock ladder too short for the flows,
    or an inconsistent generator.
    """
    occ = spec.quantum_occupations
    energy = (actions * _trace_weights(pattern, spec)[..., None, :]).sum(axis=-1)
    charge = (actions * pattern.charge).sum(axis=-1)
    edot = {name: energy[..., _CHANNELS[name]].sum(axis=-1) for name in ("u", "l", "b")}
    ndot_u = charge[..., _CHANNELS["u"]].sum(axis=-1)
    ndot_l = charge[..., _CHANNELS["l"]].sum(axis=-1)

    obs = stacked_observables(vectors, pattern, spec)
    re_y = np.real(obs.y)
    omega, gamma_b = photon_mode(spec, "quantum")
    n_b = occ.n_b if occ.n_b is not None else 0.0
    gamma_u, gamma_l = spec.reservoir_u.gamma, spec.reservoir_l.gamma
    closed = {
        "u": energy_flow(spec.levels.e_upper, gamma_u * (occ.f_u - obs.sigma_uu), gamma_u, re_y),
        "l": energy_flow(spec.levels.e_lower, gamma_l * (occ.f_l - obs.sigma_ll), gamma_l, re_y),
        "b": energy_flow(omega, gamma_b * (n_b - obs.n_ph), gamma_b, re_y),
    }
    for name in ("u", "l", "b"):
        mismatch = abs(edot[name] - closed[name])
        fail_samples(
            errors, index, mismatch > 1e-9 * np.maximum(1.0, abs(edot[name])),
            lambda trace, form: FlowMismatchError(
                f"energy flow {name}: trace form {trace:.12e} and closed form {form:.12e} disagree"
            ),
            edot[name], closed[name],
        )
    return obs.rate, ndot_u, ndot_l, edot["u"], edot["l"], edot["b"]


def fluxes_quantum(state: QuantumState, liouvillian: Liouvillian, spec: SystemSpec) -> FluxReport:
    """Per-reservoir energy and particle flows in the steady state.

    ``state`` and ``liouvillian`` belong to the ΔQ = 0 sector
    (``build_sector_liouvillian``).  Each flow is the trace of H or
    N_u + N_l against its channel's action on the state's real coordinates
    [p; u; v], which the pattern's blocks give.  Each energy
    flow is also evaluated through its closed form in terms of populations
    and the coherence correlator; disagreement beyond 1e-9 raises, since it
    signals an inconsistent generator.  A state that is not stationary
    raises SteadyStateError.
    """
    pattern, coefficients = _sector_generator(liouvillian, "fluxes_quantum")
    actions = _actions(pattern, coefficients[None], state.vector[None])[0]
    residual = _largest_entries(actions.sum(axis=0), pattern)
    if residual > _RESIDUAL_TOL:
        raise SteadyStateError(f"state is not stationary (residual {residual:.3e})")
    errors = [None]
    flows = _flows(state.vector, actions, pattern, spec, errors, [0])
    raise_first(errors)
    return flux_report(spec, "quantum", *flows)


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
    for index, pattern, vectors, actions in _steady_states(spec, errors):
        flows[:, index] = _flows(vectors, actions, pattern, spec.take(index), errors, index)
    if not columns:
        raise_first(errors)
        flows = flows[:, 0]
    return flux_report(spec, "quantum", *flows)


def _sign_with_deadband(x: float) -> int:
    return 0 if in_deadband(x) else 1 if x > 0 else -1


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
