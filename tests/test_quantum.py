"""Truncated-space solver: operators, Liouvillian, steady state, fluxes."""

import cmath
import dataclasses
import logging
import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply, splu

from detuned_tls import (
    BosonicBath,
    CavitySpec,
    EnergyLevels,
    EvolutionError,
    FermionicReservoir,
    FockCutoffError,
    HilbertLayout,
    OccupationSpec,
    QuantumState,
    SteadyStateError,
    SystemSpec,
    build_sector_liouvillian,
    effective_energies_quantum,
    evolve_quantum,
    fluxes_quantum,
    quantum_steady_state,
    sector_observables,
    sign_condition,
    steady_state,
    thermal_state,
    with_parameter,
    with_parameters,
)
from detuned_tls import quantum
from detuned_tls.model import Occupations, spec_columns
from detuned_tls.quantum import (
    Liouvillian,
    build_liouvillian,
    build_operators,
    observables,
    sector_pattern,
    steady_state_fluxes,
    thermal_product_state,
)


def make_spec(
    gamma_u=0.3,
    gamma_l=0.2,
    gamma_b=0.25,
    omega_cav=1.2,
    g=0.05 + 0.0j,
    f_u=0.7,
    f_l=0.2,
    n_b=0.15,
    cutoff=8,
):
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(gamma_u, OccupationSpec.fixed(f_u), 0.9, 0.2),
        reservoir_l=FermionicReservoir(gamma_l, OccupationSpec.fixed(f_l), 0.1, 0.2),
        cavity=CavitySpec(omega_cav=omega_cav, g=g, fock_cutoff=cutoff),
        bath=BosonicBath(gamma=gamma_b, occupation=OccupationSpec.fixed(n_b), temperature=0.3),
    )


def _flat_index(layout, n_l, n_u, n_ph):
    """Flat index of |n_l, n_u, n_ph>: (2 n_l + n_u) (N + 1) + n_ph."""
    return (2 * n_l + n_u) * layout.n_photon_states + n_ph


def test_layout_index_maps_are_inverse_bijections():
    layout = HilbertLayout(5)
    assert layout.dim == 24
    ix = quantum._indices(5)
    seen = set()
    for n_l in (0, 1):
        for n_u in (0, 1):
            for n_ph in range(6):
                idx = _flat_index(layout, n_l, n_u, n_ph)
                assert (ix.n_l[idx], ix.n_u[idx], ix.n_ph[idx]) == (n_l, n_u, n_ph)
                seen.add(idx)
    assert seen == set(range(layout.dim)) and len(ix.n_ph) == layout.dim


def test_operator_algebra():
    layout = HilbertLayout(6)
    spec = make_spec(cutoff=6, g=0.07 + 0.03j)
    ops = build_operators(layout, spec)
    dim = layout.dim
    eye = np.eye(dim)

    def anticomm(x, y):
        return x @ y + y @ x

    for c in (ops.c_u, ops.c_l):
        assert np.max(np.abs(anticomm(c, c))) < 1e-14
        assert np.max(np.abs(anticomm(c, c.conj().T) - eye)) < 1e-14
    assert np.max(np.abs(anticomm(ops.c_u, ops.c_l))) < 1e-14
    assert np.max(np.abs(anticomm(ops.c_u, ops.c_l.conj().T))) < 1e-14

    # [a, a dagger] = 1 away from the truncation edge
    comm = ops.a @ ops.a.conj().T - ops.a.conj().T @ ops.a
    for idx in range(dim):
        if quantum._indices(6).n_ph[idx] < layout.fock_cutoff:
            row = comm[idx].copy()
            row[idx] -= 1.0
            assert np.max(np.abs(row)) < 1e-14

    h = ops.hamiltonian
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    vacuum = np.zeros(dim)
    vacuum[_flat_index(layout, 0, 0, 0)] = 1.0
    assert abs(vacuum @ h @ vacuum) < 1e-15


def _full_steady_state(liouv):
    """Dense steady state of a full-space generator, as the reference for the sector.

    The first population row of the generator is replaced by the trace row
    and the system is solved by sparse LU; the result is symmetrized and
    scaled to unit trace, as the sector solve does.
    """
    d = liouv.layout.dim
    system = liouv.matrix.tolil()
    system[0, :] = 0.0
    system[0, np.arange(d) * (d + 1)] = 1.0
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = splu(system.tocsc()).solve(b).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _dense_fock_tail(rho, layout):
    """Population of the top two Fock levels of a dense rho."""
    return float(np.diag(rho).real.reshape(4, layout.n_photon_states).sum(axis=0)[-2:].sum())


def test_jordan_wigner_ordering_swap_leaves_observables_invariant():
    # Full-space reference at the cutoff the sector solve settled on; the
    # sector itself carries no ordering.
    spec = make_spec(g=0.08 + 0.04j)
    sol = quantum_steady_state(spec)
    layout = sol.layout
    obs = sector_observables(sol.state, spec)
    results = [(obs.sigma_uu, obs.sigma_ll, obs.n_ph, obs.rate, obs.f_exact)]
    for ordering in (("l", "u"), ("u", "l")):
        ops = build_operators(layout, spec, ordering=ordering)
        rho = _full_steady_state(build_liouvillian(ops, spec))
        obs = observables(rho, ops, spec)
        results.append((obs.sigma_uu, obs.sigma_ll, obs.n_ph, obs.rate, obs.f_exact))
    for values in zip(*results):
        assert max(values) - min(values) < 1e-10


def _dissipator(sigma, state):
    sd = sigma.conj().T
    return sigma @ state @ sd - 0.5 * (sd @ sigma @ state + state @ sd @ sigma)


def _dense_actions(rho, ops, spec, occ):
    """Each channel's term of the master equation, written out with dense operators."""
    h = ops.hamiltonian
    actions = {
        "h": -1j * (h @ rho - rho @ h),
        "u": spec.reservoir_u.gamma * occ.f_u * _dissipator(ops.c_u.conj().T, rho)
        + spec.reservoir_u.gamma * (1 - occ.f_u) * _dissipator(ops.c_u, rho),
        "l": spec.reservoir_l.gamma * occ.f_l * _dissipator(ops.c_l.conj().T, rho)
        + spec.reservoir_l.gamma * (1 - occ.f_l) * _dissipator(ops.c_l, rho),
        "b": np.zeros_like(rho),
    }
    if spec.bath is not None:
        actions["b"] = spec.bath.gamma * (occ.n_b + 1) * _dissipator(ops.a, rho) + (
            spec.bath.gamma * occ.n_b * _dissipator(ops.a.conj().T, rho)
        )
    return actions


def _dense_master_rhs(rho, ops, spec, occ):
    """Term-by-term master equation, written independently of the superoperator."""
    return sum(_dense_actions(rho, ops, spec, occ).values())


def test_liouvillian_matches_dense_master_equation():
    spec = make_spec(cutoff=4, g=0.06 + 0.02j)
    layout = HilbertLayout(4)
    ops = build_operators(layout, spec)
    occ = spec.quantum_occupations
    liouv = build_liouvillian(ops, spec)

    rng = np.random.default_rng(5)
    x = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho)

    via_super = (liouv.matrix @ rho.ravel()).reshape(layout.dim, layout.dim)
    direct = _dense_master_rhs(rho, ops, spec, occ)
    assert np.max(np.abs(via_super - direct)) < 1e-12


def test_liouvillian_annihilates_trace_row():
    spec = make_spec(cutoff=5)
    layout = HilbertLayout(5)
    ops = build_operators(layout, spec)
    liouv = build_liouvillian(ops, spec)
    d = layout.dim
    trace_vec = np.zeros(d * d, dtype=complex)
    trace_vec[np.arange(d) * (d + 1)] = 1.0
    assert np.max(np.abs(trace_vec @ liouv.matrix)) < 1e-12


def test_decoupled_steady_state_is_thermal_product():
    spec = make_spec(g=0.0 + 0.0j, f_u=0.35, f_l=0.6, n_b=0.1, cutoff=12)
    sol = quantum_steady_state(spec)
    expected = thermal_product_state(sol.layout, 0.35, 0.6, 0.1)
    assert np.max(np.abs(sol.state.rho - expected)) < 1e-12
    obs = observables(sol.state.rho, sol.ops, spec)
    assert obs.sigma_uu == pytest.approx(0.35, abs=1e-12)
    assert obs.sigma_ll == pytest.approx(0.6, abs=1e-12)
    # photon number equals the bath value up to the truncated-ladder tail
    q = 0.1 / 1.1
    weights = (1 - q) * q ** np.arange(sol.layout.n_photon_states)
    truncated_mean = float(np.arange(sol.layout.n_photon_states) @ weights / weights.sum())
    assert obs.n_ph == pytest.approx(truncated_mean, abs=1e-12)
    assert obs.n_ph == pytest.approx(0.1, abs=1e-8)
    flux = fluxes_quantum(sol.state, sol.liouvillian, spec)
    assert abs(flux.rate) < 1e-13
    assert abs(flux.edot_u) < 1e-12
    assert abs(flux.edot_opt) < 1e-11


def test_steady_state_matches_time_evolution():
    spec = make_spec(gamma_u=0.5, gamma_l=0.4, gamma_b=0.4, g=0.1, cutoff=8)
    sol = quantum_steady_state(spec)
    rho0 = thermal_state(sol.layout, 0.5, 0.5, 0.1)
    evolved = evolve_quantum(rho0, sol.liouvillian, 110.0)
    assert np.max(np.abs(evolved.rho - sol.state.rho)) < 1e-7


def test_doubling_cutoff_changes_observables_below_tail():
    spec = make_spec(cutoff=10, n_b=0.12)
    sol10 = quantum_steady_state(spec)
    sol20 = quantum_steady_state(with_parameter(spec, "cavity.fock_cutoff", 20))
    obs10 = observables(sol10.state.rho, sol10.ops, spec)
    obs20 = observables(sol20.state.rho, sol20.ops, spec)
    assert abs(obs10.n_ph - obs20.n_ph) < max(sol10.fock_tail, 1e-12)
    for name in ("sigma_uu", "sigma_ll", "rate", "f_exact"):
        assert abs(getattr(obs10, name) - getattr(obs20, name)) < 1e-8


def test_inadequate_cutoff_raises_and_wrapper_enlarges():
    spec = make_spec(cutoff=2, n_b=0.25)
    with pytest.raises(FockCutoffError):
        steady_state(build_sector_liouvillian(HilbertLayout(2), spec))
    sol = quantum_steady_state(spec)
    assert sol.layout.fock_cutoff > 2
    assert sol.fock_tail < 1e-6


def test_observables_vacuum_and_product_states():
    spec = make_spec(cutoff=6)
    layout = HilbertLayout(6)
    ops = build_operators(layout, spec)
    vacuum = thermal_product_state(layout, 0.0, 0.0, 0.0)
    obs = observables(vacuum, ops, spec)
    assert obs.sigma_uu == 0.0
    assert obs.n_ph == 0.0
    assert obs.y == 0.0
    assert obs.f_exact == 0.0
    assert obs.rate == 0.0

    # diagonal product state: the factorized correlator is exact
    product = thermal_product_state(layout, 0.55, 0.3, 0.25)
    obs = observables(product, ops, spec)
    assert obs.f_exact == pytest.approx(obs.f_hf, abs=1e-12)


def test_observables_match_elementwise_traces():
    # Independent oracle: expectation values assembled state-by-state from
    # the basis labels, including the parity string of the hopping operator.
    spec = make_spec(cutoff=5, g=0.09 + 0.05j)
    layout = HilbertLayout(5)
    ops = build_operators(layout, spec)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    # the labels (n_l, n_u, n_ph) of each flat index, written out
    labels = [(*divmod(i // layout.n_photon_states, 2), i % layout.n_photon_states)
              for i in range(layout.dim)]

    sigma_uu = sum(rho[i, i].real for i in range(layout.dim) if labels[i][1] == 1)
    sigma_ll = sum(rho[i, i].real for i in range(layout.dim) if labels[i][0] == 1)
    n_ph = sum(rho[i, i].real * labels[i][2] for i in range(layout.dim))
    f_spont = sum(
        rho[i, i].real for i in range(layout.dim) if labels[i][1] == 1 and labels[i][0] == 0
    )
    f_stim = sum(
        rho[i, i].real * labels[i][2] * (labels[i][1] - labels[i][0]) for i in range(layout.dim)
    )
    # Y = conj(g) Tr{c_l^+ c_u a^+ rho}: the operator maps |0,1,n> -> sqrt(n+1)|1,0,n+1>
    y = 0.0 + 0.0j
    for i in range(layout.dim):
        n_l, n_u, n_ph_i = labels[i]
        if n_l == 0 and n_u == 1 and n_ph_i < layout.fock_cutoff:
            j = _flat_index(layout, 1, 0, n_ph_i + 1)
            y += math.sqrt(n_ph_i + 1) * rho[i, j]
    y *= complex(spec.cavity.g).conjugate()

    obs = observables(rho, ops, spec)
    assert obs.sigma_uu == pytest.approx(sigma_uu, abs=1e-12)
    assert obs.sigma_ll == pytest.approx(sigma_ll, abs=1e-12)
    assert obs.n_ph == pytest.approx(n_ph, abs=1e-12)
    assert obs.f_exact == pytest.approx(f_spont + f_stim, abs=1e-12)
    assert abs(obs.y - y) < 1e-12
    assert obs.rate == pytest.approx(2 * y.imag, abs=1e-12)


def test_stationarity_relations_and_flux_ratios_on_grid():
    # gamma grid; rate balance, coherence relation, and the flux-ratio
    # readings of the effective energies.
    gammas = (0.15, 0.45)
    for gamma_u in gammas:
        for gamma_l in gammas:
            for gamma_b in gammas:
                spec = make_spec(gamma_u, gamma_l, gamma_b, g=0.04, cutoff=12)
                sol = quantum_steady_state(spec)
                obs = observables(sol.state.rho, sol.ops, spec)
                occ = sol.spec.quantum_occupations
                rate = obs.rate
                assert spec.reservoir_u.gamma * (occ.f_u - obs.sigma_uu) == pytest.approx(
                    rate, abs=1e-9
                )
                assert spec.reservoir_l.gamma * (occ.f_l - obs.sigma_ll) == pytest.approx(
                    -rate, abs=1e-9
                )
                assert spec.bath.gamma * (occ.n_b - obs.n_ph) == pytest.approx(
                    -rate, abs=1e-9
                )
                delta_cav = spec.cavity.omega_cav - spec.levels.gap
                total = gamma_u + gamma_l + gamma_b
                assert obs.y.real == pytest.approx(-delta_cav * rate / total, abs=1e-9)

                flux = fluxes_quantum(sol.state, sol.liouvillian, spec)
                assert abs(flux.first_law_residual) < 1e-9 * max(1.0, abs(flux.edot_u))
                eff = effective_energies_quantum(
                    spec.levels, spec.cavity, gamma_u, gamma_l, gamma_b
                )
                assert flux.e_flux_u == pytest.approx(eff.e_upper, rel=1e-6)
                assert flux.e_flux_l == pytest.approx(eff.e_lower, rel=1e-6)
                assert flux.e_flux_ph == pytest.approx(eff.e_photon, rel=1e-6)


def test_coupling_phase_invariance():
    base = make_spec(g=0.07)
    sol0 = quantum_steady_state(base)
    obs0 = observables(sol0.state.rho, sol0.ops, base)
    for phi in (0.9, -1.8):
        spec = make_spec(g=0.07 * cmath.exp(1j * phi))
        sol = quantum_steady_state(spec)
        obs = observables(sol.state.rho, sol.ops, spec)
        for name in ("sigma_uu", "sigma_ll", "n_ph", "rate", "f_exact", "f_hf"):
            assert getattr(obs, name) == pytest.approx(getattr(obs0, name), abs=1e-10)


def test_evolve_preserves_trace_and_matches_zero_generator():
    layout = HilbertLayout(4)
    liouv = build_sector_liouvillian(layout, make_spec(cutoff=4))

    rho0 = thermal_state(layout, 0.3, 0.4, 0.2)
    out = evolve_quantum(rho0, liouv, 5.0)
    assert abs(np.trace(out.rho) - 1.0) < 1e-12
    out.validate()

    size = layout.sector_size
    frozen = replace(liouv, matrix=sp.csr_matrix((size, size), dtype=complex))
    unchanged = evolve_quantum(rho0, frozen, 3.0)
    assert np.max(np.abs(unchanged.rho - rho0.rho)) < 1e-14


def test_evolve_has_no_step_size():
    layout = HilbertLayout(4)
    liouv = build_sector_liouvillian(layout, make_spec(cutoff=4))
    rho0 = thermal_state(layout, 0.3, 0.4, 0.2)
    with pytest.raises(TypeError):
        evolve_quantum(rho0, liouv, 1.0, dt=0.01)


def test_evolve_is_a_semigroup():
    layout = HilbertLayout(6)
    liouv = build_sector_liouvillian(layout, make_spec(g=0.2, cutoff=6))
    rho0 = thermal_state(layout, 0.0, 0.0, 0.0)
    stepped = evolve_quantum(evolve_quantum(rho0, liouv, 1.3), liouv, 2.1)
    direct = evolve_quantum(rho0, liouv, 3.4)
    assert np.max(np.abs(stepped.vector - direct.vector)) < 1e-12


def test_evolve_rejects_trace_drift():
    layout = HilbertLayout(3)
    size = layout.sector_size
    lossy = build_sector_liouvillian(layout, make_spec(cutoff=3))
    lossy = replace(lossy, matrix=lossy.matrix - 1e-6 * sp.identity(size, format="csr"))
    rho0 = thermal_state(layout, 0.3, 0.4, 0.2)
    with pytest.raises(EvolutionError, match="drift"):
        evolve_quantum(rho0, lossy, 1.0)


def test_evolve_rejects_a_generator_with_nan_coefficients():
    # what a scenario with cavity.g = nan would assemble
    layout = HilbertLayout(4)
    liouv = build_sector_liouvillian(layout, make_spec(cutoff=4))
    coefficients = liouv.coefficients.copy()
    coefficients[:2] = math.nan
    nan_liouv = replace(liouv, matrix=liouv.pattern.matrix(coefficients), coefficients=coefficients)
    with pytest.raises(EvolutionError, match="drift"):
        evolve_quantum(thermal_state(layout, 0.3, 0.4, 0.2), nan_liouv, 1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        QuantumState(np.full(layout.sector_size, math.nan + 0j), layout).validate()


def test_fluxes_reject_non_stationary_state():
    spec = make_spec(cutoff=6)
    layout = HilbertLayout(6)
    state = thermal_state(layout, 0.9, 0.1, 0.3)  # not the steady state
    with pytest.raises(SteadyStateError):
        fluxes_quantum(state, build_sector_liouvillian(layout, spec), spec)


def test_sign_condition_examples():
    spec = make_spec(g=0.01, n_b=0.0, f_u=0.4, f_l=0.3)
    sol = quantum_steady_state(spec)
    obs = observables(sol.state.rho, sol.ops, spec)
    check = sign_condition(obs, sol.spec.quantum_occupations)
    # empty bath, occupied upper feed: net emission
    assert check.rhs_sign == 1
    assert check.lhs_sign == 1
    assert check.agree

    with pytest.raises(ValueError):
        sign_condition(obs, Occupations(1.0, 0.3, 0.1))
    with pytest.raises(ValueError):
        sign_condition(obs, Occupations(0.5, 0.3, None))

    # dead band: a vanishing rate is treated as agreement
    idle = sign_condition(
        obs.__class__(0.5, 0.5, 0.1, 0j, 0.0, 0.0, rate=1e-14), Occupations(0.5, 0.2, 0.1)
    )
    assert idle == (0, 0, True)


def test_sign_condition_balanced_odds_gives_small_rate():
    # occupations tuned so the emission and absorption odds cancel:
    # f_u/(1-f_u) = f_l/(1-f_l) * n_b/(1+n_b)
    f_l, n_b = 0.6, 0.4
    odds = (f_l / (1 - f_l)) * (n_b / (1 + n_b))
    f_u = odds / (1.0 + odds)
    balanced = make_spec(g=0.01, f_u=f_u, f_l=f_l, n_b=n_b, cutoff=8)
    sol = quantum_steady_state(balanced)
    rate_balanced = observables(sol.state.rho, sol.ops, balanced).rate

    perturbed = make_spec(g=0.01, f_u=min(0.99, f_u + 0.1), f_l=f_l, n_b=n_b, cutoff=8)
    sol_p = quantum_steady_state(perturbed)
    rate_perturbed = observables(sol_p.state.rho, sol_p.ops, perturbed).rate
    assert abs(rate_balanced) < 0.05 * abs(rate_perturbed)

    check = sign_condition(
        observables(sol.state.rho, sol.ops, balanced), sol.spec.quantum_occupations
    )
    assert check.rhs_sign == 0 or check.agree


def test_sign_condition_weak_coupling_sweep_statistics():
    # Mean-field sign versus exact sign; mismatches are reported, not failed.
    rng = np.random.default_rng(42)
    n_points, mismatches = 60, []
    for _ in range(n_points):
        gamma_u, gamma_l, gamma_b = rng.uniform(0.1, 0.5, 3)
        spec = make_spec(
            gamma_u,
            gamma_l,
            gamma_b,
            omega_cav=1.0 + rng.uniform(-0.3, 0.3),
            g=0.05 * min(gamma_u, gamma_l, gamma_b),
            f_u=rng.uniform(0.05, 0.9),
            f_l=rng.uniform(0.05, 0.9),
            n_b=rng.uniform(0.0, 0.2),
            cutoff=10,
        )
        sol = quantum_steady_state(spec)
        obs = observables(sol.state.rho, sol.ops, spec)
        check = sign_condition(obs, sol.spec.quantum_occupations)
        if not check.agree:
            mismatches.append((spec, check))
    print(f"sign-condition agreement: {n_points - len(mismatches)}/{n_points}")
    assert len(mismatches) < n_points  # statistics recorded, not judged


def test_entropy_condition_weak_coupling_sweep():
    # All three baths thermal at the effective energies: the rate times the
    # entropy bracket stays non-negative at weak coupling.
    rng = np.random.default_rng(77)
    worst = math.inf
    for _ in range(1000):
        gamma_u, gamma_l, gamma_b = rng.uniform(0.2, 0.6, 3)
        spec = SystemSpec(
            levels=EnergyLevels(1.0, 0.0),
            reservoir_u=FermionicReservoir(
                gamma_u,
                OccupationSpec.thermal_effective(),
                mu=rng.uniform(0.2, 1.2),
                temperature=rng.uniform(0.1, 0.4),
            ),
            reservoir_l=FermionicReservoir(
                gamma_l,
                OccupationSpec.thermal_effective(),
                mu=rng.uniform(-0.3, 0.5),
                temperature=rng.uniform(0.1, 0.4),
            ),
            cavity=CavitySpec(
                omega_cav=rng.uniform(0.95, 1.2),
                g=0.05 * min(gamma_u, gamma_l, gamma_b) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                fock_cutoff=8,
            ),
            bath=BosonicBath(
                gamma=gamma_b,
                occupation=OccupationSpec.thermal_effective(),
                temperature=rng.uniform(0.1, 0.25),
            ),
        )
        sol = quantum_steady_state(spec)
        flux = fluxes_quantum(sol.state, sol.liouvillian, spec)
        eff = effective_energies_quantum(spec.levels, spec.cavity, gamma_u, gamma_l, gamma_b)
        bracket = (
            eff.e_photon / spec.bath.temperature
            + (eff.e_lower - spec.reservoir_l.mu) / spec.reservoir_l.temperature
            - (eff.e_upper - spec.reservoir_u.mu) / spec.reservoir_u.temperature
        )
        worst = min(worst, flux.rate * bracket)
    print(f"worst entropy production over sweep: {worst:.3e}")
    assert worst >= -1e-10


# -- the ΔQ = 0 sector against the full-space reference -------------------------

ORDERINGS = (("l", "u"), ("u", "l"))


def _oracle_spec(bath):
    # Both settle below the Fock-tail bound from cutoff 5 on; at cutoffs 1
    # and 2 both solves must stop at the same tail.
    if bath:
        return make_spec(g=0.08 + 0.04j, n_b=0.01)
    return replace(make_spec(g=0.08 + 0.04j, f_u=0.1, f_l=0.9), bath=None)


def _dense_flux_fields(rho, ops, spec, occ):
    """Every FluxReport field of a dense steady state, from dense channel actions."""
    actions = _dense_actions(rho, ops, spec, occ)
    number = ops.n_u + ops.n_l
    edot = {k: np.trace(ops.hamiltonian @ actions[k]).real for k in ("u", "l", "b")}
    rate = observables(rho, ops, spec).rate
    ratio = rate if abs(rate) >= 1e-12 else math.nan  # the program's dead band
    gamma_b = spec.bath.gamma if spec.bath is not None else 0.0
    eff = effective_energies_quantum(
        spec.levels, spec.cavity, spec.reservoir_u.gamma, spec.reservoir_l.gamma, gamma_b
    )
    return {
        "treatment": "quantum",
        "rate": rate,
        "ndot_u": np.trace(number @ actions["u"]).real,
        "ndot_l": np.trace(number @ actions["l"]).real,
        "edot_u": edot["u"],
        "edot_l": edot["l"],
        "edot_opt": edot["b"],
        "e_eff_u": eff.e_upper,
        "e_eff_l": eff.e_lower,
        "e_eff_ph": eff.e_photon,
        "e_flux_u": edot["u"] / ratio,
        "e_flux_l": -edot["l"] / ratio,
        "e_flux_ph": -edot["b"] / ratio,
        "first_law_residual": edot["u"] + edot["l"] + edot["b"],
        "f_u": occ.f_u,
        "f_l": occ.f_l,
        "n_b": occ.n_b,
    }


@pytest.mark.parametrize("bath", (True, False), ids=("bath", "no-bath"))
@pytest.mark.parametrize("ordering", ORDERINGS, ids=("lu", "ul"))
@pytest.mark.parametrize("cutoff", (1, 2, 5, 10))
def test_full_liouvillian_has_no_elements_across_charge_blocks(cutoff, ordering, bath):
    spec = _oracle_spec(bath)
    layout = HilbertLayout(cutoff)
    full = build_liouvillian(build_operators(layout, spec, ordering), spec).matrix.tocoo()
    ix = quantum._indices(cutoff)
    charges = np.stack([ix.n_u + ix.n_l, ix.n_u + ix.n_ph])
    d = layout.dim

    def delta_q(index):
        row, col = np.divmod(index, d)
        return charges[:, row] - charges[:, col]

    assert full.nnz > 0
    assert np.array_equal(delta_q(full.row), delta_q(full.col))
    in_sector = np.zeros(d * d, dtype=bool)
    in_sector[layout.sector_indices()] = True
    assert np.array_equal(in_sector, np.all(delta_q(np.arange(d * d)) == 0, axis=0))


def _sum_of_terms(liouv):
    """sum_k c_k B_k, dense, over the stack of terms that the flows read."""
    size, terms = liouv.pattern.size, liouv.pattern.terms
    pieces = (liouv.coefficients[k] * terms[k * size : (k + 1) * size] for k in range(9))
    return sum(piece.toarray() for piece in pieces)


@pytest.mark.parametrize("bath", (True, False), ids=("bath", "no-bath"))
@pytest.mark.parametrize("ordering", ORDERINGS, ids=("lu", "ul"))
@pytest.mark.parametrize("cutoff", (1, 2, 5, 10))
def test_sector_generator_equals_full_space_slice(cutoff, ordering, bath):
    # Both orderings give <1,0,n+1| c_l^+ c_u a^+ |0,1,n> = +sqrt(n+1), so the
    # coherence sign is +1 and the slice must match as it stands.
    spec = _oracle_spec(bath)
    layout = HilbertLayout(cutoff)
    ops = build_operators(layout, spec, ordering)
    hop = ops.c_l.conj().T @ ops.c_u @ ops.a.conj().T
    ix = quantum._indices(cutoff)
    upper, lower = ix.upper, ix.lower
    assert np.array_equal(hop[upper, lower], np.sqrt(np.arange(1, cutoff + 1)))

    full = build_liouvillian(ops, spec).matrix
    index = layout.sector_indices()
    reference = full[index][:, index].toarray()
    sector = build_sector_liouvillian(layout, spec)
    assert sector.matrix.shape == (6 * cutoff + 4,) * 2
    assert np.max(np.abs(sector.matrix.toarray() - reference)) < 1e-14 * np.max(np.abs(reference))
    assert np.max(np.abs(_sum_of_terms(sector) - sector.matrix.toarray())) < 1e-15
    # one pattern per cutoff: without a bath the two photon rates are zero
    assert sector.pattern is sector_pattern(cutoff)
    assert np.array_equal(sector.coefficients[7:] != 0, [bath] * 2)


_rate = st.floats(1e-3, 3.0)
_filling = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)  # 0 and 1 zero a jump rate


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(1, 10),
    g=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    e_upper=st.floats(0.0, 2.0),
    gap=st.floats(1e-3, 2.0),
    omega_cav=st.floats(0.1, 3.0),
    gamma_u=_rate,
    gamma_l=_rate,
    f_u=_filling,
    f_l=_filling,
    bath=st.sampled_from(["none", "gamma-zero", "on"]),
    gamma_b=_rate,
    n_b=st.just(0.0) | st.floats(0.0, 3.0),
)
def test_sector_generator_equals_full_space_slice_for_random_parameters(
    cutoff, g, e_upper, gap, omega_cav, gamma_u, gamma_l, f_u, f_l, bath, gamma_b, n_b
):
    spec = SystemSpec(
        levels=EnergyLevels(e_upper, e_upper - gap),
        reservoir_u=FermionicReservoir(gamma_u, OccupationSpec.fixed(f_u), 0.9, 0.2),
        reservoir_l=FermionicReservoir(gamma_l, OccupationSpec.fixed(f_l), 0.1, 0.2),
        cavity=CavitySpec(omega_cav=omega_cav, g=g, fock_cutoff=cutoff),
        bath=None
        if bath == "none"
        else BosonicBath(0.0 if bath == "gamma-zero" else gamma_b, OccupationSpec.fixed(n_b), 0.3),
    )
    layout = HilbertLayout(cutoff)
    index = layout.sector_indices()
    reference = build_liouvillian(build_operators(layout, spec), spec).matrix[index][:, index]
    reference = reference.toarray()
    sector = build_sector_liouvillian(layout, spec)
    matrix = sector.matrix.toarray()
    largest = np.max(np.abs(reference))
    assert np.max(np.abs(matrix - reference)) < 1e-14 * largest
    # 1e-15 as in the fixed-parameter test, scaled only where entries exceed 1
    assert np.max(np.abs(_sum_of_terms(sector) - matrix)) < 1e-15 * max(1.0, largest)
    assert sector.pattern is sector_pattern(cutoff)
    assert (sector.coefficients[7] != 0) == (bath == "on")


@pytest.mark.parametrize("bath", (True, False), ids=("bath", "no-bath"))
@pytest.mark.parametrize("ordering", ORDERINGS, ids=("lu", "ul"))
@pytest.mark.parametrize("cutoff", (1, 2, 5, 10))
def test_sector_steady_state_matches_full_space(cutoff, ordering, bath):
    spec = _oracle_spec(bath)
    occ = spec.quantum_occupations
    layout = HilbertLayout(cutoff)
    ops = build_operators(layout, spec, ordering)
    sector = build_sector_liouvillian(layout, spec)
    full = build_liouvillian(ops, spec)
    reference = _full_steady_state(full)
    if cutoff < 5:  # the tail check refuses the sector solve at the full-space tail
        with pytest.raises(FockCutoffError) as sector_error:
            steady_state(sector)
        full_tail = _dense_fock_tail(reference, layout)
        assert full_tail > 1e-6
        assert abs(sector_error.value.tail - full_tail) < 1e-12
        return

    state = steady_state(sector)
    assert np.max(np.abs(state.rho - reference)) < 1e-12

    obs = sector_observables(state, spec)
    expected = observables(reference, ops, spec)
    for name in ("sigma_uu", "sigma_ll", "n_ph", "y", "f_exact", "f_hf", "rate"):
        assert abs(getattr(obs, name) - getattr(expected, name)) < 1e-12, name

    flux = fluxes_quantum(state, sector, spec)
    expected = _dense_flux_fields(reference, ops, spec, occ)
    for f in dataclasses.fields(flux):
        value, want = getattr(flux, f.name), expected[f.name]
        if isinstance(want, float) and math.isnan(want):
            assert math.isnan(value), f.name
        elif isinstance(want, float):
            assert abs(value - want) < 1e-12, f.name
        else:
            assert value == want, f.name


@pytest.mark.parametrize("bath", (True, False), ids=("bath", "no-bath"))
@pytest.mark.parametrize("ordering", ORDERINGS, ids=("lu", "ul"))
@pytest.mark.parametrize("cutoff", (1, 2, 5, 10))
def test_sector_evolution_matches_full_space(cutoff, ordering, bath):
    spec = _oracle_spec(bath)
    layout = HilbertLayout(cutoff)
    full = build_liouvillian(build_operators(layout, spec, ordering), spec)
    sector = build_sector_liouvillian(layout, spec)
    rho0 = thermal_state(layout, 0.6, 0.3, 0.2)
    reference = expm_multiply(full.matrix * 3.0, rho0.rho.ravel())
    evolved = evolve_quantum(rho0, sector, 3.0)
    assert np.max(np.abs(evolved.rho.ravel() - reference)) < 1e-12


@pytest.mark.parametrize("bath", (True, False), ids=("bath", "no-bath"))
@pytest.mark.parametrize("cutoff", (1, 2, 5))
def test_evolution_matches_dense_matrix_exponential(cutoff, bath):
    # scipy.linalg.expm (Pade) of the dense full-space generator, independent
    # of the truncated Taylor series behind expm_multiply.
    spec = _oracle_spec(bath)
    layout = HilbertLayout(cutoff)
    full = build_liouvillian(build_operators(layout, spec), spec)
    rho0 = thermal_state(layout, 0.6, 0.3, 0.2)
    exact = scipy.linalg.expm(3.0 * full.matrix.toarray()) @ rho0.rho.ravel()
    reference = expm_multiply(full.matrix * 3.0, rho0.rho.ravel())
    evolved = evolve_quantum(rho0, build_sector_liouvillian(layout, spec), 3.0)
    for vec_rho in (reference, evolved.rho.ravel()):
        assert np.max(np.abs(vec_rho - exact)) < 1e-12


def _per_segment_trajectory(state0, liouv, t_final, n_store):
    """One ``expm_multiply`` per segment, each state symmetrized and renormalized."""
    d, cutoff = liouv.layout.dim, liouv.layout.fock_cutoff
    rows = [state0.vector]
    for _ in range(n_store - 1):
        y = expm_multiply(liouv.matrix * (t_final / (n_store - 1)), rows[-1])
        assert abs(y[:d].sum() - 1.0) <= 1e-9
        assert np.max(np.abs(y - quantum._adjoint(y, cutoff))) <= 1e-9
        herm = 0.5 * (y + quantum._adjoint(y, cutoff))
        rows.append(herm / herm[:d].sum().real)
    return np.array(rows)


# The dense propagator serves cutoff 6 and one expm_multiply per segment cutoff 121.
SIDES_OF_THE_DENSE_SIZE = (6, 121)


def test_the_sides_straddle_the_dense_size():
    small, large = (HilbertLayout(c).sector_size for c in SIDES_OF_THE_DENSE_SIZE)
    assert small <= quantum._DENSE_SIZE < large


@pytest.mark.parametrize("bath", (True, False), ids=("bath", "no-bath"))
@pytest.mark.parametrize("cutoff", SIDES_OF_THE_DENSE_SIZE)
def test_trajectory_matches_one_expm_multiply_per_segment(monkeypatch, cutoff, bath):
    spec = replace(_oracle_spec(bath), cavity=CavitySpec(1.2, 0.2, cutoff))
    layout = HilbertLayout(cutoff)
    liouv = build_sector_liouvillian(layout, spec)
    rho0 = thermal_state(layout, 0.0, 0.0, 0.0)
    calls = []
    monkeypatch.setattr(quantum, "expm_multiply", lambda *a: calls.append(a) or expm_multiply(*a))
    rows = quantum.trajectory(rho0, liouv, 6.0, 5)
    assert len(calls) == (0 if layout.sector_size <= quantum._DENSE_SIZE else 4)
    assert rows.shape == (5, layout.sector_size)
    assert np.array_equal(rows[0], rho0.vector)
    assert np.max(np.abs(rows - _per_segment_trajectory(rho0, liouv, 6.0, 5))) < 1e-12
    last = evolve_quantum(rho0, liouv, 6.0)
    assert np.array_equal(last.vector, quantum.trajectory(rho0, liouv, 6.0, 2)[-1])


def test_trajectory_raises_the_error_of_its_first_failing_row():
    # Each row is renormalized, so every segment drifts by about 1e-6 and
    # every row fails; the first, at t = 1, raises.
    layout = HilbertLayout(3)
    lossy = build_sector_liouvillian(layout, make_spec(cutoff=3))
    lossy = replace(lossy, matrix=lossy.matrix - 1e-6 * sp.identity(layout.sector_size))
    with pytest.raises(EvolutionError, match="drift at t = 1:"):
        quantum.trajectory(thermal_state(layout, 0.3, 0.4, 0.2), lossy, 4.0, 5)


@pytest.mark.parametrize("bath", (True, False), ids=("bath", "no-bath"))
@pytest.mark.parametrize("g", (0.2, 0.15 - 0.1j), ids=("real-g", "complex-g"))
@pytest.mark.parametrize("cutoff", (1, 6, 12))
def test_the_generator_is_real_in_the_real_basis(cutoff, g, bath):
    spec = replace(_oracle_spec(bath), cavity=CavitySpec(1.2, g, cutoff))
    matrix = build_sector_liouvillian(HilbertLayout(cutoff), spec).matrix
    basis = quantum._indices(cutoff)
    for generator in (matrix, matrix.toarray()):  # the sparse and the dense propagator's
        real = basis.inverse @ generator @ basis.forward
        assert sp.issparse(real) == sp.issparse(generator)
        assert abs(real.imag).max() == 0.0 < abs(real).max()


@pytest.mark.parametrize("cutoff", (1, 6, 12))
def test_the_real_basis_round_trip_leaves_hermitian_vectors_unchanged(cutoff):
    layout = HilbertLayout(cutoff)
    d, n = layout.dim, cutoff
    basis = quantum._indices(cutoff)
    rng = np.random.default_rng(cutoff)
    vectors = np.empty((50, layout.sector_size), dtype=complex)
    vectors[:, :d] = rng.normal(size=(50, d)) * 10.0 ** rng.uniform(-300, 300, size=(50, d))
    re, im = (rng.normal(size=(50, n)) * 10.0 ** rng.uniform(-300, 300, size=(50, n)) for _ in "ri")
    coherences = re + 1j * im
    vectors[:, d : d + n], vectors[:, d + n :] = coherences, coherences.conj()
    for x in (*vectors, thermal_state(layout, 0.3, 0.4, 0.2).vector):
        y = basis.inverse @ x
        assert np.all(y.imag == 0.0)
        assert np.array_equal(basis.forward @ y.real, x)


@pytest.mark.parametrize("cutoff", SIDES_OF_THE_DENSE_SIZE)
def test_a_generator_that_breaks_hermiticity_raises_before_any_row(monkeypatch, cutoff):
    # 1e-6j on the diagonal entries of the c_n but not of their conjugates
    layout = HilbertLayout(cutoff)
    spec = replace(_oracle_spec(True), cavity=CavitySpec(1.2, 0.2, cutoff))
    liouv = build_sector_liouvillian(layout, spec)
    coherences = layout.dim + np.arange(cutoff)
    broken = liouv.matrix + sp.csr_matrix(
        (np.full(cutoff, 1e-6j), (coherences, coherences)), shape=liouv.matrix.shape)
    calls = []
    monkeypatch.setattr(scipy.linalg, "expm", lambda *a: calls.append(a))
    monkeypatch.setattr(quantum, "expm_multiply", lambda *a: calls.append(a))
    with pytest.raises(EvolutionError, match="drift of the generator"):
        quantum.trajectory(thermal_state(layout, 0.0, 0.0, 0.0), replace(liouv, matrix=broken), 6, 5)
    assert calls == []


def test_a_state_that_is_not_hermitian_raises_before_any_row():
    layout = HilbertLayout(4)
    liouv = build_sector_liouvillian(layout, make_spec(cutoff=4))
    vector = thermal_state(layout, 0.3, 0.4, 0.2).vector.copy()
    vector[layout.dim] = 1e-3  # c_0 without its conjugate
    with pytest.raises(EvolutionError, match="drift of the initial state"):
        quantum.trajectory(QuantumState(vector, layout), liouv, 1.0, 3)


def test_quantum_state_rejects_a_full_space_vector():
    layout = HilbertLayout(3)
    rho = thermal_product_state(layout, 0.6, 0.3, 0.2)
    with pytest.raises(ValueError, match="not a sector vector"):
        QuantumState(rho.ravel(), layout)


def test_steady_state_rejects_a_full_space_generator():
    spec = make_spec(cutoff=5)
    full = build_liouvillian(build_operators(HilbertLayout(5), spec), spec)
    with pytest.raises(ValueError, match="not a sector generator"):
        steady_state(full)


@pytest.mark.parametrize("bath", (True, False), ids=("bath", "no-bath"))
def test_steady_state_solves_a_generator_assembled_elsewhere(bath):
    # The solve reads only the matrix and its layout: the sliced full-space
    # generator has the sector generator's entries but no pattern.
    spec = _oracle_spec(bath)
    layout = HilbertLayout(10)
    full = build_liouvillian(build_operators(layout, spec), spec)
    index = layout.sector_indices()
    sliced = Liouvillian(full.matrix[index][:, index].tocsr(), layout)
    expected = steady_state(build_sector_liouvillian(layout, spec)).vector
    assert np.max(np.abs(steady_state(sliced).vector - expected)) < 1e-12


def test_steady_state_sums_duplicate_entries_on_a_copy():
    # Each off-diagonal entry of the cutoff-10 generator stored as two halves,
    # which sum back to it exactly, so the solve must give the canonical
    # generator's vector.  (Halving every entry would halve the generator and
    # keep its null vector, so a solve that kept one half would pass.)
    layout = HilbertLayout(10)
    canonical = build_sector_liouvillian(layout, _oracle_spec(True)).matrix
    rows = np.repeat(np.arange(layout.sector_size), np.diff(canonical.indptr))
    counts = np.where(rows == canonical.indices, 1, 2)
    split = sp.csr_matrix(
        (np.repeat(canonical.data / counts, counts), np.repeat(canonical.indices, counts),
         np.concatenate([[0], np.cumsum(counts)])[canonical.indptr]),
        shape=canonical.shape,
    )
    assert not split.has_canonical_format and split.nnz == counts.sum() > canonical.nnz
    before = [getattr(split, name).copy() for name in ("data", "indices", "indptr")]
    state = steady_state(Liouvillian(split, layout))
    assert np.array_equal(state.vector, steady_state(Liouvillian(canonical, layout)).vector)
    for name, array in zip(("data", "indices", "indptr"), before):
        assert np.array_equal(getattr(split, name), array), name
    assert not split.has_canonical_format


def test_evolve_rejects_a_full_space_generator():
    spec = make_spec(cutoff=3)
    layout = HilbertLayout(3)
    full = build_liouvillian(build_operators(layout, spec), spec)
    with pytest.raises(ValueError, match="not a sector generator"):
        evolve_quantum(thermal_state(layout, 0.6, 0.3, 0.2), full, 1.0)


def test_sector_positivity_check_matches_dense_eigenvalues():
    # The 2x2-block rule against eigvalsh of the embedded dense matrix, on
    # random sector states with and without a negative eigenvalue.
    layout = HilbertLayout(6)
    d, n = layout.dim, layout.fock_cutoff
    rng = np.random.default_rng(3)
    for scale in (0.01, 0.3, 3.0):
        pops = rng.uniform(0.0, 1.0, d)
        coherences = scale * (rng.normal(size=n) + 1j * rng.normal(size=n)) / d
        vector = np.concatenate([pops, coherences, coherences.conj()]) / pops.sum()
        state = QuantumState(vector.astype(complex), layout)
        lowest = np.linalg.eigvalsh(state.rho)[0]
        assert abs(state.lowest_eigenvalue() - lowest) < 1e-15
        if lowest < -1e-10:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                state.validate()
        else:
            state.validate()


def test_fock_cutoff_enlargements_are_logged(caplog):
    spec = make_spec(n_b=0.1, cutoff=1)
    with caplog.at_level(logging.INFO, logger="detuned_tls.quantum"):
        sol = quantum_steady_state(spec)
    assert sol.layout.fock_cutoff == 9
    records = [r for r in caplog.records if r.name == "detuned_tls.quantum"]
    assert [r.args[:2] for r in records] == [(1, 5), (5, 9)]
    for record in records:
        assert record.levelno == logging.INFO
        assert record.args[2] > 1e-6
        assert "Fock cutoff" in record.getMessage()


# -- the batched solve ----------------------------------------------------------


def _audit_scenario(cutoff=12):
    """The quantum-audit scenario of the benchmark: inverted fixed fillings, effective bath."""
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(0.3, OccupationSpec.fixed(0.95), 0.9, 0.2),
        reservoir_l=FermionicReservoir(0.3, OccupationSpec.fixed(0.02), 0.1, 0.2),
        cavity=CavitySpec(omega_cav=1.05, g=0.1, fock_cutoff=cutoff),
        bath=BosonicBath(0.1, OccupationSpec.thermal_effective(), temperature=0.3),
    )


def test_batched_solve_equals_one_sample_solves():
    # 100 samples of the benchmark's ranges in one batch per cutoff, against
    # the one-sample solve of each; the enlarged cutoffs agree as well.
    base, keys = _audit_scenario(), ["cavity.g", "bath.gamma"]
    table = np.random.default_rng(12).uniform([0.05, 0.02], [0.3, 0.15], size=(100, 2))
    spec = spec_columns(base, keys, table)
    solved = {}
    for index, layout, vectors, _ in quantum._steady_states(spec, spec.errors):
        solved.update((i, (layout.fock_cutoff, v)) for i, v in zip(index, vectors))
    assert len(solved) > 90 and len({c for c, _ in solved.values()}) > 1
    for i, row in enumerate(table):
        point = with_parameters(base, dict(zip(keys, row)))
        try:
            sol = quantum_steady_state(point)
        except SteadyStateError as exc:
            assert (type(spec.errors[i]), str(spec.errors[i])) == (type(exc), str(exc))
            continue
        cutoff, vector = solved[i]
        assert cutoff == sol.layout.fock_cutoff
        assert np.max(np.abs(vector - sol.state.vector)) < 1e-14


def test_small_batches_give_the_rows_of_one_batch(monkeypatch):
    # A batch holds at most _BATCH_ENTRIES block entries; a sample's result
    # does not depend on the batch it was solved in.
    base, keys = _audit_scenario(), ["cavity.g", "bath.gamma"]
    table = np.random.default_rng(5).uniform([0.05, 0.02], [0.3, 0.15], size=(40, 2))
    whole = steady_state_fluxes(spec_columns(base, keys, table))
    monkeypatch.setattr(quantum, "_BATCH_ENTRIES", 3 * 108 * 14)  # 3 samples at cutoff 12
    spec = spec_columns(base, keys, table)
    assert repr(steady_state_fluxes(spec)) == repr(whole)
    assert all(error is None or isinstance(error, RuntimeError) for error in spec.errors)


def test_a_singular_step_fails_its_own_sample_only():
    # f_u = 1 and f_l = 0 (Fermi functions that round to 1 and 0) without
    # a bath channel leave |0,1,N> without any transition: the first step
    # of the recursion is singular for that sample alone.
    base = replace(
        _audit_scenario(cutoff=8),
        reservoir_u=FermionicReservoir(0.3, OccupationSpec.thermal_bare(), 0.9, 0.2),
        reservoir_l=FermionicReservoir(0.2, OccupationSpec.thermal_bare(), 0.1, 0.2),
        bath=BosonicBath(0.0, OccupationSpec.fixed(0.1), 0.3),
    )
    keys = ["reservoir_u.mu", "reservoir_l.mu"]
    table = np.array([[-1.0, 1.5], [100.0, -200.0], [-0.5, 1.2]])
    spec = spec_columns(base, keys, table)
    flux = steady_state_fluxes(spec)
    assert [type(e) for e in spec.errors] == [type(None), SteadyStateError, type(None)]
    assert str(spec.errors[1]) == "steady-state solve failed: Singular matrix"
    with pytest.raises(SteadyStateError, match="Singular matrix"):
        quantum_steady_state(with_parameters(base, dict(zip(keys, table[1]))))
    for i in (0, 2):
        point = with_parameters(base, dict(zip(keys, table[i])))
        sol = quantum_steady_state(point)
        expected = fluxes_quantum(sol.state, sol.liouvillian, point)
        for name in ("rate", "ndot_u", "ndot_l", "edot_u", "edot_l", "edot_opt"):
            assert getattr(flux, name)[i] == pytest.approx(getattr(expected, name), abs=1e-15)
    assert np.isnan(flux.rate[1])


# -- the per-cutoff pattern cache ----------------------------------------------


def _cache_scenarios():
    """Scenarios with different parameters, interleaved at equal and at different cutoffs."""
    return [
        make_spec(g=0.05, n_b=0.01, cutoff=3),
        make_spec(g=0.08 + 0.04j, n_b=0.01, cutoff=5),
        replace(make_spec(g=0.08 + 0.04j, f_u=0.1, f_l=0.9, cutoff=3), bath=None),
        make_spec(g=0.04j, f_u=0.3, n_b=0.02, gamma_b=0.5, cutoff=8),
        make_spec(g=0.06, f_u=0.0, f_l=1.0, gamma_b=0.0, cutoff=5),  # zero rates, no bath channel
        make_spec(g=0.1, n_b=0.05, cutoff=3),
        make_spec(g=0.03, n_b=0.02, gamma_u=0.6, cutoff=8),
    ]


def _assert_same_generator(a, b):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a.matrix, name), getattr(b.matrix, name)), name
    assert np.array_equal(a.coefficients, b.coefficients)


def _steady_outcome(liouv):
    try:
        return steady_state(liouv).vector
    except SteadyStateError as exc:
        return type(exc).__name__, str(exc)


def test_cached_builds_equal_fresh_builds():
    specs = _cache_scenarios()
    cached = []
    for spec in specs + specs[::-1]:  # every key is built from a warm cache too
        layout = HilbertLayout(spec.cavity.fock_cutoff)
        cached.append((layout, spec, build_sector_liouvillian(layout, spec)))
    for layout, spec, liouv in cached:
        sector_pattern.cache_clear()
        fresh = build_sector_liouvillian(layout, spec)
        _assert_same_generator(liouv, fresh)
        for name in ("weights", "terms"):
            cached_matrix, fresh_matrix = getattr(liouv.pattern, name), getattr(fresh.pattern, name)
            assert np.array_equal(cached_matrix.toarray(), fresh_matrix.toarray()), name
        assert np.array_equal(liouv.pattern.positions, fresh.pattern.positions)
        outcome, expected = _steady_outcome(liouv), _steady_outcome(fresh)
        if isinstance(expected, tuple):
            assert outcome == expected
        else:
            assert np.array_equal(outcome, expected)


def test_cached_arrays_are_read_only():
    layout = HilbertLayout(10)
    liouv = build_sector_liouvillian(layout, _oracle_spec(True))
    pattern, ix = liouv.pattern, quantum._indices(10)
    shared = [
        pattern.indptr,
        pattern.indices,
        pattern.weights.data,
        pattern.weights.indices,
        pattern.weights.indptr,
        pattern.terms.data,
        pattern.terms.indices,
        pattern.terms.indptr,
        pattern.positions,
        liouv.matrix.indices,
        liouv.matrix.indptr,
        layout.sector_indices(),
        *ix[:-2],  # the index arrays, then the CSR arrays of T and T^-1
        *(getattr(matrix, name) for matrix in (ix.forward, ix.inverse)
          for name in ("data", "indices", "indptr")),
    ]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    state = steady_state(liouv)  # the solve writes into none of them
    again = build_sector_liouvillian(layout, _oracle_spec(True))
    _assert_same_generator(again, liouv)
    assert np.array_equal(steady_state(again).vector, state.vector)


def test_sector_pattern_is_built_once_per_key():
    # the key is the cutoff alone: a scenario with, with zero and without a bath share it
    sector_pattern.cache_clear()
    for repeat in range(3):
        for cutoff in (3, 5):
            for spec in (make_spec(g=0.05 * (repeat + 1), gamma_b=gamma_b, cutoff=cutoff)
                         for gamma_b in (0.25, 0.0)):
                build_sector_liouvillian(HilbertLayout(cutoff), spec)
                build_sector_liouvillian(HilbertLayout(cutoff), replace(spec, bath=None))
    info = sector_pattern.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 22, 2)
    assert info.maxsize is not None  # bounded


def _solve_record(spec):
    layout = HilbertLayout(spec.cavity.fock_cutoff)
    liouv = build_sector_liouvillian(layout, spec)
    try:
        sol = quantum_steady_state(spec)
        flux = fluxes_quantum(sol.state, sol.liouvillian, spec)
    except RuntimeError as exc:  # the solver's failures, bath-flow mismatch included
        return liouv, type(exc).__name__, str(exc)
    return liouv, sol.layout.fock_cutoff, sol.state.vector, dataclasses.astuple(flux)


def _assert_same_record(got, want):
    _assert_same_generator(got[0], want[0])
    if isinstance(want[1], str):
        assert got[1:] == want[1:]
        return
    assert got[1] == want[1]
    assert np.max(np.abs(got[2] - want[2])) <= 1e-14 * np.max(np.abs(want[2]))
    for value, expected in zip(got[3], want[3]):
        if isinstance(expected, float):
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-15, nan_ok=True)
        else:
            assert value == expected


def test_concurrent_builds_and_solves_equal_the_serial_ones():
    # More threads than cores, GIL handed over every microsecond, and one
    # thread emptying the cache now and then, so that builds race each other.
    specs = _cache_scenarios() + [make_spec(cutoff=2, n_b=0.25)]  # enlarges, then fails
    serial = [_solve_record(spec) for spec in specs]
    failures, done = [], []
    deadline = time.monotonic() + 1.0

    def work(offset):
        count = 0
        while time.monotonic() < deadline:
            if offset == 0 and count % 5 == 0:
                sector_pattern.cache_clear()
            j = (offset + count) % len(specs)
            try:
                _assert_same_record(_solve_record(specs[j]), serial[j])
            except Exception as exc:  # reported below, with the scenario
                failures.append((j, exc))
                return
            count += 1
        done.append(count)

    threads = [threading.Thread(target=work, args=(k,)) for k in range((os.cpu_count() or 1) + 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert len(done) == len(threads) and min(done) > 0
