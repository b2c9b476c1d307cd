"""Rotating-frame Bloch dynamics: equations, exact flow, steady state, fluxes."""

import cmath
import math
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detuned_tls import (
    BlochState,
    ClassicalDrive,
    EnergyLevels,
    EvolutionError,
    FermionicReservoir,
    OccupationSpec,
    PositivityWarning,
    SystemSpec,
    bloch_rhs,
    entropy_production_classical,
    evolve,
    fluxes_classical,
    steady_state_closed_form,
)
from detuned_tls import classical, quantum
from detuned_tls.classical import check_physical, trajectory
from detuned_tls.model import SteadyStateError, effective_energies_classical, expm


def make_spec(gamma_u=0.3, gamma_l=0.2, omega=1.1, epsilon=0.1 + 0.0j, f_u=0.8, f_l=0.2):
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(gamma_u, OccupationSpec.fixed(f_u), 0.0, 0.1),
        reservoir_l=FermionicReservoir(gamma_l, OccupationSpec.fixed(f_l), 0.0, 0.1),
        drive=ClassicalDrive(omega=omega, epsilon=epsilon),
    )


def random_spec(rng):
    gamma_u, gamma_l = rng.uniform(0.01, 1.0, 2)
    eps = rng.uniform(0.0, 0.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    omega = 1.0 + rng.uniform(-0.95, 1.0)
    f_u, f_l = rng.uniform(0.0, 1.0, 2)
    return make_spec(gamma_u, gamma_l, omega, eps, f_u, f_l)


def test_rhs_uncoupled_fixed_point():
    spec = make_spec(epsilon=0.0 + 0.0j, f_u=0.7, f_l=0.4)
    deriv = bloch_rhs(BlochState(0.7, 0.4, 0.0j), spec)
    assert deriv.sigma_uu == pytest.approx(0.0, abs=1e-15)
    assert deriv.sigma_ll == pytest.approx(0.0, abs=1e-15)
    assert abs(deriv.sigma_ul) == pytest.approx(0.0, abs=1e-15)


def test_rhs_coherence_source_term():
    spec = make_spec(epsilon=0.2 + 0.1j)
    deriv = bloch_rhs(BlochState(0.9, 0.3, 0.0j), spec)
    assert deriv.sigma_ul == pytest.approx(1j * (0.2 + 0.1j) * 0.6, abs=1e-15)


def test_rhs_matches_finite_difference_of_evolve():
    # Central difference of the flow at h = 1e-6 is the independent oracle.
    rng = np.random.default_rng(3)
    spec = make_spec(epsilon=0.15 + 0.05j)
    for _ in range(5):
        state = BlochState(
            rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.3, 0.3)
        )
        h = 1e-6
        fwd = evolve(state, spec, h)
        bwd = evolve(state, spec, -h)
        deriv = bloch_rhs(state, spec)
        assert (fwd.sigma_uu - bwd.sigma_uu) / (2 * h) == pytest.approx(
            deriv.sigma_uu, abs=1e-8
        )
        assert (fwd.sigma_ll - bwd.sigma_ll) / (2 * h) == pytest.approx(
            deriv.sigma_ll, abs=1e-8
        )
        assert abs((fwd.sigma_ul - bwd.sigma_ul) / (2 * h) - deriv.sigma_ul) < 1e-8


def test_evolve_undriven_relaxation_is_exponential():
    spec = make_spec(gamma_u=0.4, gamma_l=0.25, epsilon=0.0 + 0.0j, f_u=0.9, f_l=0.1)
    for t in np.linspace(0.0, 6.0, 13):
        state = evolve(BlochState(0.2, 0.6, 0.0j), spec, t)
        assert state.sigma_uu == pytest.approx(0.9 + (0.2 - 0.9) * math.exp(-0.4 * t), abs=1e-6)
        assert state.sigma_ll == pytest.approx(0.1 + (0.6 - 0.1) * math.exp(-0.25 * t), abs=1e-6)


def test_evolve_long_time_matches_closed_form():
    spec = make_spec(gamma_u=0.3, gamma_l=0.15, omega=1.2, epsilon=0.2 + 0.1j)
    ss = steady_state_closed_form(spec)
    final = evolve(BlochState(0.0, 0.0, 0.0j), spec, 400.0)
    assert final.sigma_uu == pytest.approx(ss.bloch.sigma_uu, abs=1e-8)
    assert final.sigma_ll == pytest.approx(ss.bloch.sigma_ll, abs=1e-8)
    assert abs(final.sigma_ul - ss.bloch.sigma_ul) < 1e-8


def _bloch_vector(state):
    return np.array([state.sigma_uu, state.sigma_ll, state.sigma_ul.real, state.sigma_ul.imag])


@pytest.mark.parametrize("seed", range(4))
def test_evolve_matches_an_ode_solver_on_bloch_rhs(seed):
    # DOP853 on the equations of motion themselves is the independent oracle.
    spec = random_spec(np.random.default_rng(seed))
    state0 = BlochState(0.1, 0.8, 0.05 - 0.02j)

    def rhs(_, y):
        return _bloch_vector(bloch_rhs(BlochState(y[0], y[1], complex(y[2], y[3])), spec))

    sol = solve_ivp(
        rhs, (0.0, 5.0), _bloch_vector(state0), method="DOP853", rtol=1e-12, atol=1e-12
    )
    assert sol.success
    exact = _bloch_vector(evolve(state0, spec, 5.0))
    assert np.max(np.abs(sol.y[:, -1] - exact)) < 1e-9


def test_evolve_is_a_semigroup():
    spec = make_spec(gamma_u=0.5, gamma_l=0.3, omega=1.4, epsilon=0.3 + 0.2j)
    state0 = BlochState(0.1, 0.8, 0.05 - 0.02j)
    stepped = evolve(evolve(state0, spec, 1.3), spec, 2.1)
    direct = evolve(state0, spec, 3.4)
    assert np.max(np.abs(_bloch_vector(stepped) - _bloch_vector(direct))) < 1e-12


@pytest.mark.parametrize(
    "spec",
    (
        make_spec(),
        make_spec(gamma_u=0.3, gamma_l=0.15, omega=1.2, epsilon=0.2 + 0.1j),
        make_spec(gamma_u=1.0, gamma_l=1.0, omega=1.0, epsilon=0.1 + 0.0j, f_u=1.0, f_l=0.0),
    ),
    ids=("default", "detuned", "resonant-inverted"),
)
def test_evolve_from_vacuum_reaches_the_closed_form(spec):
    ss = steady_state_closed_form(spec).bloch
    final = evolve(BlochState(0.0, 0.0, 0.0j), spec, 400.0)
    assert np.max(np.abs(_bloch_vector(final) - _bloch_vector(ss))) < 1e-12


def test_evolve_has_no_step_size():
    with pytest.raises(TypeError):
        evolve(BlochState(0.0, 0.0, 0.0j), make_spec(), 1.0, dt=0.01)


def test_evolve_rejects_runaway_populations():
    spec = make_spec()
    with pytest.raises(ValueError):
        evolve(BlochState(5.0, 0.0, 0.0j), spec, 10.0)


def test_evolve_rejects_a_non_finite_initial_state():
    with pytest.raises(ValueError):
        evolve(BlochState(0.5, 0.5, complex(math.nan, 0.0)), make_spec(), 1.0)


def test_evolve_checks_propagated_populations():
    # A coherence far beyond the positivity bound drives sigma_uu below 0.
    with pytest.raises(RuntimeError, match="population left"):
        evolve(BlochState(0.5, 0.5, 5j), make_spec(), 1.0)


def test_a_population_leaving_its_range_raises_evolution_error():
    # the error type the quantum trajectory raises for its invariants; a RuntimeError,
    # so the CLI still reports it as a solver error with exit code 3
    assert EvolutionError is quantum.EvolutionError
    assert EvolutionError.__module__ == "detuned_tls.model"
    assert issubclass(EvolutionError, RuntimeError)
    with pytest.raises(EvolutionError, match=r"population left \[0, 1\] at t = "):
        trajectory(BlochState(0.5, 0.5, 5j), make_spec(), 2.0, 41)


def test_trajectory_rows_are_the_flow_of_the_row_before():
    spec = make_spec(gamma_u=0.5, gamma_l=0.3, omega=1.4, epsilon=0.3 + 0.2j)
    state0 = BlochState(0.1, 0.8, 0.05 - 0.02j)
    rows = trajectory(state0, spec, 6.0, 7)
    assert rows.shape == (7, 4)
    assert np.array_equal(rows[0], _bloch_vector(state0))
    for before, after in zip(rows, rows[1:]):
        state = BlochState(before[0], before[1], complex(before[2], before[3]))
        assert np.array_equal(after, _bloch_vector(evolve(state, spec, 1.0)))
    last = trajectory(state0, spec, 6.0, 2)[-1]
    assert np.array_equal(last, _bloch_vector(evolve(state0, spec, 6.0)))


def test_trajectory_error_names_the_failing_row():
    # A coherence far beyond the positivity bound drives sigma_uu below 0 after
    # some segments; the error names that row's time, not the segment.
    spec, state, seg = make_spec(), BlochState(0.5, 0.5, 5j), 0.05
    for failing in range(1, 41):
        try:
            state = evolve(state, spec, seg)
        except RuntimeError:
            break
    assert 1 < failing < 40
    with pytest.raises(RuntimeError, match=rf"population left \[0, 1\] at t = {failing * seg:.6g}$"):
        trajectory(BlochState(0.5, 0.5, 5j), spec, 40 * seg, 41)


@pytest.mark.parametrize("t_final", (math.nan, math.inf, -math.inf))
def test_trajectory_refuses_a_non_finite_time(monkeypatch, t_final):
    def no_propagator(*args, **kwargs):
        raise AssertionError("propagator formed")

    monkeypatch.setattr(classical, "expm", no_propagator)
    with pytest.raises(ValueError, match="t_final must be finite"):
        trajectory(BlochState(0.0, 0.0, 0.0j), make_spec(), t_final, 3)


@pytest.mark.parametrize("sign", (1.0, -1.0), ids=("forward", "backward"))
def test_the_propagator_matches_scipy_expm(sign):
    import scipy.linalg

    generator = classical._affine_generator(make_spec(epsilon=0.3 - 0.2j))
    norm = np.abs(generator).sum(axis=0).max()
    for seg in sign * np.geomspace(1e-3, 1e3 / norm, 16):
        reference = scipy.linalg.expm(generator * seg)
        error = np.abs(expm(generator * seg) - reference).max()
        assert error <= 1e-12 * np.abs(reference).max(), (seg * norm, error)


def test_a_very_long_trajectory_ends_in_the_steady_state():
    # The last row of the affine generator is zero, so each squaring of the
    # propagator must keep its last row [0 0 0 0 1] exactly: 1 - 1e-16 squared
    # 100 times is 0.
    spec = make_spec(epsilon=0.2 + 0.1j)
    ss = steady_state_closed_form(spec).bloch
    for t_final in (1e10, 1e30):
        propagator = expm(classical._affine_generator(spec) * t_final)
        assert np.array_equal(propagator[-1], [0.0, 0.0, 0.0, 0.0, 1.0])
        final = trajectory(BlochState(0.0, 0.0, 0.0j), spec, t_final, 2)[-1]
        assert np.max(np.abs(final - _bloch_vector(ss))) < 1e-12


def test_trajectory_needs_two_rows():
    with pytest.raises(ValueError, match="n_store"):
        trajectory(BlochState(0.0, 0.0, 0.0j), make_spec(), 1.0, 1)


def test_closed_form_equal_occupations_is_dark():
    spec = make_spec(f_u=0.6, f_l=0.6)
    ss = steady_state_closed_form(spec)
    assert ss.rate == pytest.approx(0.0, abs=1e-15)
    assert ss.bloch.sigma_uu == pytest.approx(0.6, abs=1e-14)
    assert ss.bloch.sigma_ll == pytest.approx(0.6, abs=1e-14)


def test_closed_form_frozen_example():
    # gamma_u = gamma_l = 1, eps = 0.1, resonant, full inversion of the feeds:
    # alpha = 0.02, H = 1/1.04, rate = 0.02/1.04; confirmed by evolution below.
    spec = make_spec(gamma_u=1.0, gamma_l=1.0, omega=1.0, epsilon=0.1 + 0.0j, f_u=1.0, f_l=0.0)
    ss = steady_state_closed_form(spec)
    assert ss.alpha == pytest.approx(0.02, rel=1e-12)
    assert ss.saturation_h == pytest.approx(1.0 / 1.04, rel=1e-12)
    assert ss.rate == pytest.approx(0.019230769230769232, rel=1e-12)
    assert ss.bloch.sigma_uu == pytest.approx(0.9807692307692307, rel=1e-12)
    assert ss.bloch.sigma_ll == pytest.approx(0.019230769230769232, rel=1e-12)
    assert abs(ss.bloch.sigma_ul - 0.09615384615384615j) < 1e-14

    final = evolve(BlochState(0.0, 0.0, 0.0j), spec, 200.0)
    assert final.sigma_uu == pytest.approx(ss.bloch.sigma_uu, abs=1e-9)
    assert final.sigma_ll == pytest.approx(ss.bloch.sigma_ll, abs=1e-9)
    assert abs(final.sigma_ul - ss.bloch.sigma_ul) < 1e-9


def test_closed_form_linear_response_limit():
    spec = make_spec(epsilon=1e-6 + 0.0j, f_u=0.9, f_l=0.2)
    ss = steady_state_closed_form(spec)
    assert ss.saturation_h == pytest.approx(1.0, abs=1e-9)
    assert ss.rate == pytest.approx(ss.alpha * 0.7, rel=1e-8)


def test_oracle_equivalence_random_sample():
    rng = np.random.default_rng(11)
    for _ in range(25):
        spec = random_spec(rng)
        occ = spec.classical_occupations
        ss = steady_state_closed_form(spec)
        t_final = 50.0 / min(spec.reservoir_u.gamma, spec.reservoir_l.gamma)
        final = evolve(BlochState(occ.f_u, occ.f_l, 0.0j), spec, t_final)
        assert final.sigma_uu == pytest.approx(ss.bloch.sigma_uu, abs=1e-7)
        assert final.sigma_ll == pytest.approx(ss.bloch.sigma_ll, abs=1e-7)
        assert abs(final.sigma_ul - ss.bloch.sigma_ul) < 1e-7


def test_phase_invariance():
    base = make_spec(epsilon=0.2 + 0.0j)
    ss0 = steady_state_closed_form(base)
    for phi in (0.3, 1.7, -2.2):
        spec = make_spec(epsilon=0.2 * cmath.exp(1j * phi))
        ss = steady_state_closed_form(spec)
        assert ss.bloch.sigma_uu == pytest.approx(ss0.bloch.sigma_uu, abs=1e-14)
        assert ss.bloch.sigma_ll == pytest.approx(ss0.bloch.sigma_ll, abs=1e-14)
        assert ss.rate == pytest.approx(ss0.rate, abs=1e-14)
        assert abs(ss.bloch.sigma_ul - ss0.bloch.sigma_ul * cmath.exp(1j * phi)) < 1e-14


@given(
    f_u=st.floats(0, 1, allow_nan=False),
    f_l=st.floats(0, 1, allow_nan=False),
    gamma_u=st.floats(0.01, 1, allow_nan=False),
    gamma_l=st.floats(0.01, 1, allow_nan=False),
    delta=st.floats(-0.9, 1, allow_nan=False),
    eps_mag=st.floats(0.001, 0.5, allow_nan=False),
)
# a subnormal imbalance: alpha * h * (f_u - f_l) underflows to 0
@example(f_u=5e-324, f_l=0.0, gamma_u=0.5, gamma_l=0.5, delta=0.5, eps_mag=0.1)
@settings(max_examples=150, deadline=None)
def test_rate_sign_follows_occupation_imbalance(f_u, f_l, gamma_u, gamma_l, delta, eps_mag):
    spec = make_spec(gamma_u, gamma_l, 1.0 + delta, eps_mag, f_u, f_l)
    ss = steady_state_closed_form(spec)
    sign = (f_u > f_l) - (f_u < f_l)
    rate_sign = (ss.rate > 0) - (ss.rate < 0)
    if abs(f_u - f_l) >= sys.float_info.min:  # alpha * h >= ~1e-9 keeps the product nonzero
        assert rate_sign == sign
    else:  # the rate may underflow to 0, never to the wrong sign
        assert rate_sign in (0, sign)
    assert ss.alpha >= 0
    assert 0 < ss.saturation_h <= 1
    assert ss.rate == pytest.approx(ss.alpha * ss.saturation_h * (f_u - f_l), abs=1e-12)


def test_fluxes_dark_state_all_zero():
    spec = make_spec(f_u=0.4, f_l=0.4)
    report = fluxes_classical(steady_state_closed_form(spec), spec)
    assert report.rate == pytest.approx(0.0, abs=1e-14)
    assert report.ndot_u == pytest.approx(0.0, abs=1e-14)
    assert report.edot_u == pytest.approx(0.0, abs=1e-14)
    assert report.edot_opt == pytest.approx(0.0, abs=1e-14)
    assert math.isnan(report.e_flux_u)


def test_fluxes_first_law_and_ratio_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        spec = random_spec(rng)
        report = fluxes_classical(steady_state_closed_form(spec), spec)
        scale = abs(spec.drive.omega * report.rate)
        assert abs(report.first_law_residual) < 1e-10 * scale + 1e-14
        eff = effective_energies_classical(
            spec.levels, spec.drive, spec.reservoir_u.gamma, spec.reservoir_l.gamma
        )
        if abs(report.rate) > 1e-12:
            assert report.e_flux_u == pytest.approx(eff.e_upper, rel=1e-9, abs=1e-9)
            assert report.e_flux_l == pytest.approx(eff.e_lower, rel=1e-9, abs=1e-9)
            assert report.e_flux_ph == pytest.approx(eff.e_photon, rel=1e-12)


def test_fluxes_reject_non_stationary_state():
    spec = make_spec()
    ss = steady_state_closed_form(spec)
    bad = ss.__class__(
        bloch=BlochState(min(1.0, ss.bloch.sigma_uu + 0.05), ss.bloch.sigma_ll, ss.bloch.sigma_ul),
        rate=ss.rate,
        alpha=ss.alpha,
        saturation_h=ss.saturation_h,
    )
    with pytest.raises(SteadyStateError):
        fluxes_classical(bad, spec)


def _thermal_spec(rng):
    gamma_u, gamma_l = rng.uniform(0.01, 1.0, 2)
    eps = rng.uniform(0.01, 0.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    omega = 1.0 + rng.uniform(-0.95, 1.0)
    t_u, t_l = rng.uniform(0.05, 0.5, 2)
    mu_u, mu_l = rng.uniform(-1.0, 2.0, 2)
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(
            gamma_u, OccupationSpec.thermal_effective(), mu_u, t_u
        ),
        reservoir_l=FermionicReservoir(
            gamma_l, OccupationSpec.thermal_effective(), mu_l, t_l
        ),
        drive=ClassicalDrive(omega=omega, epsilon=eps),
    )


def test_entropy_zero_at_dark_state():
    spec = make_spec(f_u=0.5, f_l=0.5)
    report = fluxes_classical(steady_state_closed_form(spec), spec)
    assert entropy_production_classical(report, spec) == pytest.approx(0.0, abs=1e-15)


def test_entropy_non_negative_with_effective_occupations():
    # 1e4-point random sweep over rates, detuning, temperatures, potentials.
    rng = np.random.default_rng(91)
    worst = math.inf
    for _ in range(10_000):
        spec = _thermal_spec(rng)
        report = fluxes_classical(steady_state_closed_form(spec), spec)
        total = entropy_production_classical(report, spec)
        worst = min(worst, total)
    assert worst >= -1e-12


def test_entropy_sign_tracks_bias_excess_at_equal_temperature():
    rng = np.random.default_rng(17)
    for _ in range(200):
        spec = _thermal_spec(rng)
        temp = float(rng.uniform(0.05, 0.5))
        spec = SystemSpec(
            levels=spec.levels,
            reservoir_u=FermionicReservoir(
                spec.reservoir_u.gamma, OccupationSpec.thermal_effective(), spec.reservoir_u.mu, temp
            ),
            reservoir_l=FermionicReservoir(
                spec.reservoir_l.gamma, OccupationSpec.thermal_effective(), spec.reservoir_l.mu, temp
            ),
            drive=spec.drive,
        )
        report = fluxes_classical(steady_state_closed_form(spec), spec)
        total = entropy_production_classical(report, spec)
        excess = spec.reservoir_u.mu - spec.reservoir_l.mu - spec.drive.omega
        if abs(report.rate) > 1e-12 and abs(excess) > 1e-9:
            assert (report.rate > 0) == (excess > 0)
            assert total >= 0.0


def test_positivity_bound_is_monitored_not_enforced():
    with pytest.warns(PositivityWarning):
        check_physical(BlochState(0.1, 0.1, 0.5 + 0.0j))
