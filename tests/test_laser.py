"""Mean-field laser: frequency pulling, threshold, saturation, dynamics."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from detuned_tls import (
    BosonicBath,
    CavitySpec,
    ClassicalDrive,
    EnergyLevels,
    EvolutionError,
    FermionicReservoir,
    MeanFieldState,
    OccupationSpec,
    SteadyStateError,
    SystemSpec,
    effective_energies,
    evolve_meanfield,
    pulled_frequency,
    resolve_occupations,
    solve_lasing,
    steady_state_closed_form,
    with_parameters,
)
from detuned_tls import laser
from detuned_tls.model import spec_columns

LEVELS = EnergyLevels(1.0, 0.0)


def make_spec(f_u=0.95, f_l=0.05, gamma_u=0.4, gamma_l=0.4, gamma_b=0.25, omega_cav=1.15, g=0.35):
    return SystemSpec(
        levels=LEVELS,
        reservoir_u=FermionicReservoir(gamma_u, OccupationSpec.fixed(f_u), 1.2, 0.2),
        reservoir_l=FermionicReservoir(gamma_l, OccupationSpec.fixed(f_l), 0.0, 0.2),
        cavity=CavitySpec(omega_cav=omega_cav, g=g),
        bath=BosonicBath(gamma=gamma_b, occupation=OccupationSpec.fixed(0.0), temperature=0.2),
    )


def test_pulled_frequency_limits():
    cavity = CavitySpec(omega_cav=1.3, g=0.1)
    assert pulled_frequency(LEVELS, cavity, 0.2, 0.3, 0.0) == pytest.approx(1.3, abs=1e-15)
    # equal atomic and cavity broadening: plain midpoint
    assert pulled_frequency(LEVELS, cavity, 0.2, 0.3, 0.5) == pytest.approx(
        (1.3 + 1.0) / 2.0, abs=1e-15
    )
    with pytest.raises(ValueError):
        pulled_frequency(LEVELS, cavity, 0.0, 0.0, 0.0)


def test_pulled_frequency_equals_effective_photon_energy():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        e_lower = rng.uniform(-1, 1)
        levels = EnergyLevels(e_lower + rng.uniform(0.2, 2.0), e_lower)
        cavity = CavitySpec(omega_cav=rng.uniform(0.1, 3.0), g=0.1)
        gamma_u, gamma_l, gamma_b = rng.uniform(1e-3, 2.0, 3)
        omega = pulled_frequency(levels, cavity, gamma_u, gamma_l, gamma_b)
        eff = effective_energies(levels, cavity.omega_cav, gamma_u, gamma_l, gamma_b)
        assert abs(omega - eff.e_photon) <= 1e-14 * max(1.0, abs(omega))


def test_effective_energies_agree_between_treatments_at_pulled_frequency():
    rng = np.random.default_rng(29)
    for _ in range(200):
        levels = EnergyLevels(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.3))
        cavity = CavitySpec(omega_cav=rng.uniform(0.5, 2.0), g=0.1)
        gamma_u, gamma_l, gamma_b = rng.uniform(0.01, 1.0, 3)
        omega = pulled_frequency(levels, cavity, gamma_u, gamma_l, gamma_b)
        quantum = effective_energies(levels, cavity.omega_cav, gamma_u, gamma_l, gamma_b)
        classical = effective_energies(levels, omega, gamma_u, gamma_l, 0.0)
        assert classical.e_upper == pytest.approx(quantum.e_upper, abs=1e-12)
        assert classical.e_lower == pytest.approx(quantum.e_lower, abs=1e-12)
        assert classical.e_photon == pytest.approx(quantum.e_photon, abs=1e-12)


def test_pulled_frequency_matches_q_factor_weighting():
    # Quality-factor form: omega = (omega_cav Q_c + omega_atom Q_a)/(Q_c + Q_a)
    # with Q_c = omega/gamma_b and Q_a = omega/(gamma_u + gamma_l).
    rng = np.random.default_rng(31)
    for _ in range(200):
        levels = EnergyLevels(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.3))
        cavity = CavitySpec(omega_cav=rng.uniform(0.5, 2.0), g=0.1)
        gamma_u, gamma_l, gamma_b = rng.uniform(0.01, 1.0, 3)
        omega = pulled_frequency(levels, cavity, gamma_u, gamma_l, gamma_b)
        q_cav = omega / gamma_b
        q_atom = omega / (gamma_u + gamma_l)
        weighted = (cavity.omega_cav * q_cav + levels.gap * q_atom) / (q_cav + q_atom)
        assert omega == pytest.approx(weighted, rel=1e-13)


def test_no_inversion_is_below_threshold():
    sol = solve_lasing(make_spec(f_u=0.4, f_l=0.4))
    assert not sol.above_threshold
    assert sol.a_ss == 0
    assert sol.intensity == 0.0
    assert sol.sigma_ul_ss == 0

    sol = solve_lasing(make_spec(f_u=0.2, f_l=0.8))  # absorbing medium
    assert not sol.above_threshold


def test_lossless_cavity_rejected():
    with pytest.raises(ValueError):
        solve_lasing(make_spec(gamma_b=0.0))


def test_threshold_located_by_root_finder_matches_analytic_balance():
    # Root of the small-signal gain crossing 1, searched on the upper feed.
    spec0 = make_spec()
    occ_l = 0.05

    def excess_gain(f_u):
        return solve_lasing(make_spec(f_u=f_u, f_l=occ_l)).small_signal_gain - 1.0

    f_threshold = brentq(excess_gain, occ_l + 1e-9, 1.0, xtol=1e-14)
    # at the root the unsaturated balance holds: |g|^2 (f_u - f_l) = -A
    occ = resolve_occupations(make_spec(f_u=f_threshold, f_l=occ_l), "quantum")
    omega = pulled_frequency(LEVELS, spec0.cavity, 0.4, 0.4, 0.25)
    delta = omega - LEVELS.gap
    delta_c = omega - spec0.cavity.omega_cav
    a_coeff = delta_c * delta - 0.25 * (0.8) / 4.0
    balance = abs(spec0.cavity.g) ** 2 * (occ.f_u - occ.f_l) + a_coeff
    assert abs(balance) < 1e-10

    assert not solve_lasing(make_spec(f_u=f_threshold - 1e-6, f_l=occ_l)).above_threshold
    assert solve_lasing(make_spec(f_u=f_threshold + 1e-6, f_l=occ_l)).above_threshold


def test_both_coherence_representations_agree_above_threshold():
    spec = make_spec(g=0.35 * cmath.exp(0.7j))
    sol = solve_lasing(spec)
    assert sol.above_threshold
    occ = resolve_occupations(spec, "quantum")
    g = complex(spec.cavity.g)
    delta = sol.omega - LEVELS.gap
    delta_c = sol.omega - spec.cavity.omega_cav
    gamma_sum = 0.8

    from_field = (delta_c + 0.5j * spec.bath.gamma) * g * sol.a_ss / abs(g) ** 2
    saturation = gamma_sum**2 / (0.16 * (gamma_sum**2 / 4.0 + delta**2))
    h_factor = 1.0 / (1.0 + saturation * abs(g * sol.a_ss) ** 2)
    from_gain = -h_factor * (occ.f_u - occ.f_l) * g * sol.a_ss / (delta + 0.5j * gamma_sum)
    assert abs(from_field - from_gain) < 1e-10
    assert abs(sol.sigma_ul_ss - from_field) < 1e-14


@pytest.mark.parametrize(
    "spec",
    [make_spec(), make_spec(g=0.3 + 0.2j), make_spec(g=0.25, omega_cav=1.05),
     make_spec(g=0.35 * cmath.exp(0.7j), f_u=0.8, f_l=0.1, gamma_l=0.3)],
    ids=("real-g", "complex-g", "near-resonant", "rotated-g"),
)
def test_classical_drive_at_g_a_reproduces_the_laser_steady_state(spec):
    # The mean-field atom is the classically driven one at eps = g a_ss in the
    # frame of the pulled frequency; what it emits leaves through the cavity loss.
    sol = solve_lasing(spec)
    assert sol.above_threshold
    driven = replace(spec, drive=ClassicalDrive(sol.omega, spec.cavity.g * sol.a_ss))
    ss = steady_state_closed_form(driven)
    assert ss.rate == pytest.approx(spec.bath.gamma * sol.intensity, rel=1e-12, abs=0)
    assert abs(ss.bloch.sigma_ul - sol.sigma_ul_ss) <= 1e-12 * abs(sol.sigma_ul_ss)


def test_oscillation_frequency_independent_of_occupations():
    a = solve_lasing(make_spec(f_u=0.9, f_l=0.1))
    b = solve_lasing(make_spec(f_u=0.6, f_l=0.4))
    assert a.omega == b.omega


def test_intensity_monotone_in_inversion():
    intensities = [
        solve_lasing(make_spec(f_u=f_u, f_l=0.05)).intensity for f_u in (0.6, 0.75, 0.9)
    ]
    assert intensities == sorted(intensities)
    assert intensities[0] > 0.0


def test_meanfield_zero_field_is_fixed_point():
    spec = make_spec()
    traj = evolve_meanfield(MeanFieldState(0.3, 0.3, 0.0j, 0.0j), spec, 80.0)
    assert np.all(np.abs(traj.field) == 0.0)
    assert np.all(np.abs(traj.sigma_ul) == 0.0)
    # populations still relax to the feeds
    assert traj.final.sigma_uu == pytest.approx(0.95, abs=1e-9)


def test_meanfield_seed_grows_to_lasing_amplitude():
    spec = make_spec()
    sol = solve_lasing(spec)
    assert sol.above_threshold
    occ = resolve_occupations(spec, "quantum")
    traj = evolve_meanfield(MeanFieldState(occ.f_u, occ.f_l, 0.0j, 1e-3 + 0.0j), spec, 500.0)
    assert abs(abs(traj.final.field) - abs(sol.a_ss)) < 1e-6


def test_meanfield_seed_decays_below_threshold():
    spec = make_spec(f_u=0.5, f_l=0.4)
    assert not solve_lasing(spec).above_threshold
    traj = evolve_meanfield(MeanFieldState(0.5, 0.4, 0.0j, 1e-3 + 0.0j), spec, 300.0)
    assert abs(traj.final.field) < 1e-7


def test_meanfield_divergence_detected(monkeypatch):
    # The seeded field grows towards |a_ss| = 0.606; with the bound at half of
    # that it crosses the bound on the way up (at t of about 68.5).
    spec = make_spec()
    a_ss = abs(solve_lasing(spec).a_ss)
    monkeypatch.setattr(laser, "_DIVERGENCE_BOUND", 0.5 * a_ss)
    with pytest.raises(RuntimeError, match="field diverged at t = ") as excinfo:
        evolve_meanfield(MeanFieldState(0.95, 0.05, 0.0j, 1e-3 + 0.0j), spec, 500.0)
    assert excinfo.type is EvolutionError
    with pytest.raises(RuntimeError, match="field diverged at t = 0"):
        evolve_meanfield(MeanFieldState(0.95, 0.05, 0.0j, a_ss + 0.0j), spec, 500.0)


def test_evolve_meanfield_has_no_step_size():
    spec = make_spec()
    state0 = MeanFieldState(0.95, 0.05, 0.0j, 1e-3 + 0.0j)
    for option in ("dt", "max_store"):
        with pytest.raises(TypeError):
            evolve_meanfield(state0, spec, 10.0, **{option: 0.01})
    for t_final in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_final"):
            evolve_meanfield(state0, spec, t_final)


@pytest.mark.parametrize("g", [0.35, 0.35 * cmath.exp(0.7j)], ids=("real-g", "complex-g"))
@pytest.mark.parametrize(
    ("keys", "rows"),
    [
        # the last loss puts the laser below threshold; zero loss fails in the solve,
        # negative loss when the sample is built
        (["bath.gamma", "cavity.omega_cav"],
         [[0.25, 1.15], [0.05, 0.9], [2.5, 1.3], [0.0, 1.15], [-0.1, 1.0], [0.1, 1.0]]),
        # g = 0 fails; the inversion sets the threshold
        (["cavity.g", "reservoir_u.gamma"],
         [[0.35, 0.4], [0.0, 0.4], [-0.2, 0.7], [0.05, 0.3], [0.5, 0.05]]),
    ],
    ids=("loss-sweep", "coupling-sweep"),
)
def test_solve_lasing_on_columns_equals_each_scalar_solve(g, keys, rows):
    base = make_spec(g=g)
    table = np.array(rows, dtype=float)
    spec = spec_columns(base, keys, table)
    sol = solve_lasing(spec)
    assert {True, False} <= set(sol.above_threshold.tolist())
    assert any(e is not None for e in spec.errors)
    for i, row in enumerate(table.tolist()):
        try:
            expected = solve_lasing(with_parameters(base, dict(zip(keys, row))))
        except ValueError as exc:
            assert (type(spec.errors[i]), str(spec.errors[i])) == (type(exc), str(exc))
            continue
        assert spec.errors[i] is None
        for name, value in vars(expected).items():
            assert repr(getattr(sol, name)[i].item()) == repr(value), name


def test_only_the_sample_whose_intensity_overflows_fails():
    # |g|^2 = inf above threshold makes the intensity inf / inf; a rate of 1e200
    # only puts the laser below threshold, with finite values
    keys = ["cavity.g", "reservoir_u.gamma"]
    table = np.array([[0.35, 0.4], [1e200, 0.4], [0.35, 1e200], [0.3, 0.4]])
    spec = spec_columns(make_spec(), keys, table)
    sol = solve_lasing(spec)
    assert [type(e) for e in spec.errors] == [type(None), SteadyStateError, type(None), type(None)]
    assert str(spec.errors[1]) == "lasing intensity is not finite (nan)"
    with pytest.raises(SteadyStateError, match=r"^lasing intensity is not finite \(nan\)$"):
        solve_lasing(with_parameters(make_spec(), {"cavity.g": 1e200}))
    for i in (0, 2, 3):
        expected = solve_lasing(with_parameters(make_spec(), dict(zip(keys, table[i].tolist()))))
        for name, value in vars(expected).items():
            assert repr(getattr(sol, name)[i].item()) == repr(value), name
    assert sol.above_threshold.tolist() == [True, True, False, True]
    assert math.isfinite(sol.intensity[2]) and sol.intensity[2] == 0.0
