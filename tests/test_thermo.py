"""Entropy accounting, regime classification, sweeps, counterexample search."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from detuned_tls import (
    BosonicBath,
    CavitySpec,
    ClassicalDrive,
    EnergyLevels,
    FermionicReservoir,
    OccupationSpec,
    SystemSpec,
    audit_point,
    classify_regime,
    entropy_production_classical,
    entropy_report,
    find_violation_with_bare_energies,
    fluxes_classical,
    recheck_with_effective_energies,
    steady_state_closed_form,
    sweep,
    with_parameters,
)
from detuned_tls import model, quantum, thermo
from detuned_tls.model import effective_energies
from detuned_tls.quantum import FockCutoffError
from detuned_tls.thermo import DEFAULT_VIOLATION_RANGES, default_violation_scenario


def classical_spec(occ_kind="effective", omega=1.2, mu_u=1.5, mu_l=0.0, t_u=0.2, t_l=0.2):
    occ = {
        "effective": OccupationSpec.thermal_effective,
        "bare": OccupationSpec.thermal_bare,
    }[occ_kind]
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(0.3, occ(), mu_u, t_u),
        reservoir_l=FermionicReservoir(0.2, occ(), mu_l, t_l),
        drive=ClassicalDrive(omega=omega, epsilon=0.15),
    )


def quantum_spec(mu_u=1.1, mu_l=0.0, temp=0.2, t_b=0.25, omega_cav=1.1, g=0.02, cutoff=10):
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(0.35, OccupationSpec.thermal_effective(), mu_u, temp),
        reservoir_l=FermionicReservoir(0.3, OccupationSpec.thermal_effective(), mu_l, temp),
        cavity=CavitySpec(omega_cav=omega_cav, g=g, fock_cutoff=cutoff),
        bath=BosonicBath(gamma=0.3, occupation=OccupationSpec.thermal_effective(), temperature=t_b),
    )


def test_entropy_zero_without_transitions():
    spec = classical_spec()
    dark = replace(
        spec,
        reservoir_u=replace(spec.reservoir_u, occupation=OccupationSpec.fixed(0.4)),
        reservoir_l=replace(spec.reservoir_l, occupation=OccupationSpec.fixed(0.4)),
    )
    flux = fluxes_classical(steady_state_closed_form(dark), dark)
    report = entropy_report(flux, dark)
    assert report.total == pytest.approx(0.0, abs=1e-15)
    assert classify_regime(flux, dark).regime == "idle"


def test_classical_entropy_report_matches_closed_form():
    spec = classical_spec()
    flux = fluxes_classical(steady_state_closed_form(spec), spec)
    report = entropy_report(flux, spec)
    assert report.s_dot_b == 0.0
    assert report.total == pytest.approx(
        entropy_production_classical(flux, spec), abs=1e-12
    )


def test_quantum_entropy_report_matches_rate_bracket_form():
    spec = quantum_spec()
    flux, report, _ = audit_point(spec, "quantum")
    eff = effective_energies(spec.levels, spec.cavity.omega_cav, 0.35, 0.3, 0.3)
    bracket = (
        eff.e_photon / spec.bath.temperature
        + (eff.e_lower - spec.reservoir_l.mu) / spec.reservoir_l.temperature
        - (eff.e_upper - spec.reservoir_u.mu) / spec.reservoir_u.temperature
    )
    assert report.total == pytest.approx(flux.rate * bracket, abs=1e-9)


def test_a_quantum_report_needs_the_bath_of_its_scenario():
    spec = quantum_spec()
    flux, _, _ = audit_point(spec, "quantum")
    with pytest.raises(ValueError, match="^quantum flux report requires a bath in the scenario$"):
        entropy_report(flux, replace(spec, bath=None))


def test_an_unknown_treatment_is_refused():
    with pytest.raises(ValueError, match="^unknown treatment 'mean-field'$"):
        audit_point(classical_spec(), "mean-field")


def test_balanced_bias_gives_no_transitions():
    # equal temperatures and bias equal to the photon quantum: detailed balance
    spec = classical_spec(mu_u=1.2, mu_l=0.0, omega=1.2)
    flux = fluxes_classical(steady_state_closed_form(spec), spec)
    assert flux.rate == pytest.approx(0.0, abs=1e-12)
    assert classify_regime(flux, spec).regime == "idle"


def test_classical_sign_law_checked_only_when_applicable():
    led = classical_spec(mu_u=1.5, omega=1.2)  # bias above the photon energy
    flux, _, regime = audit_point(led, "classical")
    assert flux.rate > 0
    assert regime.regime == "emission"
    assert regime.sign_law_ok is True

    solar = classical_spec(mu_u=0.8, omega=1.2)
    flux, _, regime = audit_point(solar, "classical")
    assert flux.rate < 0
    assert regime.sign_law_ok is True

    unequal = classical_spec(t_u=0.2, t_l=0.35)
    _, _, regime = audit_point(unequal, "classical")
    assert regime.sign_law_ok is None

    fixed = replace(
        led,
        reservoir_u=replace(led.reservoir_u, occupation=OccupationSpec.fixed(0.9)),
        reservoir_l=replace(led.reservoir_l, occupation=OccupationSpec.fixed(0.1)),
    )
    _, _, regime = audit_point(fixed, "classical")
    assert regime.sign_law_ok is None


def test_quantum_cooling_flag_and_sign_law():
    # hot bath tilts the balance: emission persists below the photon energy
    spec = quantum_spec(mu_u=0.9, mu_l=0.0, temp=0.15, t_b=0.6, cutoff=14)
    flux, _, regime = audit_point(spec, "quantum")
    assert flux.rate > 0
    assert spec.reservoir_u.mu - spec.reservoir_l.mu < flux.e_eff_ph
    assert regime.cooling
    assert regime.sign_law_ok is True


def test_quantum_carnot_bound_in_solar_mode():
    # absorption against a warmer bath; extracted power under the Carnot cap
    spec = quantum_spec(mu_u=0.35, mu_l=0.0, temp=0.15, t_b=0.5)
    flux, report, regime = audit_point(spec, "quantum")
    assert flux.rate < 0
    assert regime.regime == "absorption"
    assert regime.carnot_ok is True
    p_el = -flux.rate * 0.35
    heat_in = flux.edot_opt
    assert heat_in > 0
    assert p_el <= heat_in * (0.5 - 0.15) / 0.5 + 1e-10
    assert report.total >= -1e-10


def test_sweep_singleton_reproduces_direct_audit():
    spec = classical_spec()
    direct_flux, direct_report, _ = audit_point(spec, "classical")
    results = sweep(spec, {"drive.omega": (1.2, 1.2, 1)}, treatment="classical")
    assert len(results) == 1
    assert results[0].error is None
    assert results[0].flux.rate == pytest.approx(direct_flux.rate, abs=1e-15)
    assert results[0].entropy_total == pytest.approx(direct_report.total, abs=1e-15)


def test_sweep_is_deterministic_for_a_seed():
    spec = classical_spec()
    ranges = {"drive.omega": (0.8, 1.6), "reservoir_u.mu": (-0.5, 1.5)}
    a = sweep(spec, ranges, n_samples=40, seed=1234)
    b = sweep(spec, ranges, n_samples=40, seed=1234)
    assert [r.params for r in a] == [r.params for r in b]
    assert [r.entropy_total for r in a] == [r.entropy_total for r in b]
    c = sweep(spec, ranges, n_samples=40, seed=77)
    assert [r.params for r in a] != [r.params for r in c]
    # the table drawn at once equals the scalar draws, point by point, key by key
    rng = np.random.default_rng(1234)
    scalar = [{k: float(rng.uniform(lo, hi)) for k, (lo, hi) in ranges.items()} for _ in range(40)]
    assert [r.params for r in a] == scalar


def test_sweep_records_per_sample_failures():
    spec = classical_spec()
    # e_upper below e_lower for part of the range: those samples must fail
    results = sweep(spec, {"e_upper": (-0.5, 1.5, 5)}, treatment="classical")
    errors = [r for r in results if r.error is not None]
    ok = [r for r in results if r.error is None]
    assert errors and ok
    assert all(r.flux is None and r.regime is None for r in errors)


def test_a_sample_without_a_positive_photon_energy_fails_alone():
    # At gamma_u = 1e-300 the effective photon energy rounds to 0, which has no
    # Bose occupation: that sample fails, and its neighbours read as they do alone.
    base = SystemSpec(
        levels=EnergyLevels(1e-20, 0.0),
        reservoir_u=FermionicReservoir(0.3, OccupationSpec.fixed(0.5), 0.0, 0.2),
        reservoir_l=FermionicReservoir(1e-300, OccupationSpec.fixed(0.5), 0.0, 0.2),
        cavity=CavitySpec(omega_cav=1.0, g=0.05, fock_cutoff=12),
        bath=BosonicBath(1.0, OccupationSpec.thermal_effective(), 0.3),
    )
    rows = sweep(base, {"reservoir_u.gamma": (1e-300, 0.5, 3)}, treatment="quantum")
    alone = sweep(base, {"reservoir_u.gamma": (0.25, 0.5, 2)}, treatment="quantum")
    assert rows[0].error == "ValueError: Bose occupation requires a positive mode energy"
    assert [replace(r, index=0) for r in rows[1:]] == [replace(r, index=0) for r in alone]
    with pytest.raises(ValueError, match="^Bose occupation requires a positive mode energy$"):
        audit_point(with_parameters(base, rows[0].params), "quantum")


def test_an_axis_wider_than_the_largest_float_draws_the_same_numbers_at_half_scale():
    ranges = {"drive.omega": (0.5, 1.5), "reservoir_u.mu": (-1e308, 1e308)}
    _, drawn = thermo.sample_table(ranges, 50, seed=3)
    _, half = thermo.sample_table({**ranges, "reservoir_u.mu": (-5e307, 5e307)}, 50, seed=3)
    assert np.isfinite(drawn).all()
    assert drawn[:, 0].tolist() == half[:, 0].tolist()
    assert drawn[:, 1].tolist() == (2 * half[:, 1]).tolist()


@pytest.mark.parametrize(
    "ranges",
    [
        {},
        {"drive.omega": (0.5, 1.5, 4)},
        {"drive.omega": (0.5, 1.5, 3), "reservoir_u.mu": (2.0, -1.0, 4), "e_upper": (1.0, 1.0, 1)},
        {"reservoir_u.mu": (-1e308, 1e308, 3), "drive.omega": (0.1, 0.3, 2)},
    ],
    ids=("no-keys", "one-key", "three-keys", "half-scale-axis"),
)
def test_the_grid_is_the_cartesian_product_with_the_last_key_fastest(ranges):
    keys, table = thermo.sample_table(ranges)
    axes = [np.linspace(lo, hi, n) if math.isfinite(hi - lo) else 2 * np.linspace(lo / 2, hi / 2, n)
            for lo, hi, n in ranges.values()]
    expected = np.array(list(itertools.product(*axes)), dtype=float)
    assert keys == list(ranges)
    assert table.shape == expected.shape == (math.prod(len(a) for a in axes), len(ranges))
    assert table.tobytes() == expected.tobytes()


def test_only_solver_failures_are_recorded_as_rows(monkeypatch):
    # A FockCutoffError fails its sample and becomes an error row; a TypeError,
    # or a RuntimeError that is not a SteadyStateError, is a fault of the
    # program and leaves both the sweep and the search.
    spec = classical_spec()
    ranges = {"drive.omega": (1.0, 1.4)}

    def raising(exc):
        def audit_point(spec, treatment):
            raise exc

        return audit_point

    monkeypatch.setattr(thermo, "audit_point", raising(FockCutoffError("tail too big", 1e-3)))
    results = sweep(spec, ranges, n_samples=3, seed=1)
    assert [r.error for r in results] == ["FockCutoffError: tail too big"] * 3
    assert find_violation_with_bare_energies(max_samples=3) is None

    for fault in (TypeError("not a spec"), RuntimeError("not a solver failure")):
        monkeypatch.setattr(thermo, "audit_point", raising(fault))
        with pytest.raises(type(fault), match=str(fault)):
            sweep(spec, ranges, n_samples=3, seed=1)
        with pytest.raises(type(fault), match=str(fault)):
            find_violation_with_bare_energies(max_samples=3)


def test_effective_energy_sweep_has_no_violations():
    spec = classical_spec()
    results = sweep(
        spec,
        {
            "drive.omega": (0.3, 1.9),
            "reservoir_u.mu": (-1.0, 2.0),
            "reservoir_l.mu": (-1.0, 2.0),
            "reservoir_u.temperature": (0.05, 0.5),
            "reservoir_l.temperature": (0.05, 0.5),
        },
        n_samples=1000,
        seed=5,
    )
    assert all(r.error is None for r in results)
    assert not any(r.violation for r in results)
    for r in results:
        assert r.spec is None  # a sweep keeps no spec per sample
        assert r.regime == classify_regime(r.flux, with_parameters(spec, r.params))


def test_find_violation_with_bare_occupations_and_effective_recheck():
    result = find_violation_with_bare_energies(seed=2024)
    assert result is not None
    assert result.violation
    assert result.entropy_total < -1e-10

    # same parameter point, occupations switched to the effective energies
    total_eff = recheck_with_effective_energies(result)
    assert total_eff >= -1e-12

    # reproducibility from the recorded seed
    again = find_violation_with_bare_energies(seed=2024)
    assert again.params == result.params
    assert again.entropy_total == result.entropy_total

    # the search draws the same points as a random sweep on the bare base
    base = default_violation_scenario()
    rows = sweep(base, DEFAULT_VIOLATION_RANGES, n_samples=result.index + 1, seed=2024)
    assert not any(r.violation for r in rows[:-1])
    assert rows[-1].params == result.params
    assert rows[-1].flux == result.flux
    assert rows[-1].entropy_total == result.entropy_total
    assert rows[-1].regime == result.regime
    assert result.spec == with_parameters(base, result.params)


def test_recheck_reads_the_scenario_the_violation_was_found_on():
    base = with_parameters(default_violation_scenario(), {"drive.epsilon": 0.6})
    result = find_violation_with_bare_energies(seed=1, base=base)
    effective = OccupationSpec.thermal_effective()
    spec = replace(result.spec, reservoir_u=replace(result.spec.reservoir_u, occupation=effective),
                   reservoir_l=replace(result.spec.reservoir_l, occupation=effective))
    total = audit_point(spec, "classical")[1].total
    assert recheck_with_effective_energies(result) == total == pytest.approx(0.013352, abs=1e-6)
    # without a spec, the default scenario at the result's parameters
    default = recheck_with_effective_energies(replace(result, spec=None))
    assert default == pytest.approx(0.005795, abs=1e-6)


@pytest.mark.parametrize("rate", [model.RATE_DEADBAND, -model.RATE_DEADBAND,
                                  0.5 * model.RATE_DEADBAND, -0.0, math.nan])
def test_flux_ratios_regime_and_sign_agree_on_the_dead_band(rate):
    idle = not abs(rate) >= model.RATE_DEADBAND
    assert model.in_deadband(rate) == idle
    spec = classical_spec()
    flux = model.flux_report(spec, "classical", rate, 0.0, 0.0, 1.0, -1.0, 0.5)
    assert [math.isnan(e) for e in (flux.e_flux_u, flux.e_flux_l, flux.e_flux_ph)] == [idle] * 3
    assert (classify_regime(flux, spec).regime == "idle") == idle
    obs = quantum.QuantumObservables(0.5, 0.5, 0.1, 0j, 0.0, 0.0, rate=rate)
    assert (quantum.sign_condition(obs, model.Occupations(0.5, 0.2, 0.1)).lhs_sign == 0) == idle


# Near resonance violations are rare: on seeds 0-4 the first lies at 937, 226,
# 482, 79 and 331, so in each block the search audits after the first; seed 5
# has none in 2,000 samples.
_NEAR_RESONANCE = dict(DEFAULT_VIOLATION_RANGES, **{"drive.omega": (0.98, 1.02)})


@pytest.mark.parametrize("seed", range(6))
def test_the_search_finds_the_first_violation_of_the_whole_table(seed):
    result = find_violation_with_bare_energies(ranges=_NEAR_RESONANCE, seed=seed, max_samples=2000)
    base = thermo._violation_base(None, OccupationSpec.thermal_bare())
    whole = thermo._audit_columns(base, *thermo.sample_table(_NEAR_RESONANCE, 2000, seed))
    first = next((r for r in whole if r.error is None and r.violation), None)
    if first is None:
        assert result is None
    else:
        assert replace(result, spec=None) == first
        assert result.spec == with_parameters(base, first.params)


def test_the_search_stops_at_the_block_that_holds_a_violation(monkeypatch):
    sizes = []
    audit = thermo._audit_columns

    def recording(base, keys, table, *args):
        sizes.append(len(table))
        return audit(base, keys, table, *args)

    monkeypatch.setattr(thermo, "_audit_columns", recording)
    assert find_violation_with_bare_energies(seed=1).index == 3
    assert sizes == [64]
    sizes.clear()
    result = find_violation_with_bare_energies(ranges=_NEAR_RESONANCE, seed=0, max_samples=2000)
    assert result.index == 937
    assert sizes == [64, 192, 768]
    sizes.clear()
    assert find_violation_with_bare_energies(ranges=_NEAR_RESONANCE, seed=5) is None
    assert sizes == [64, 192, 768, 976]


def test_no_violation_at_resonance_even_with_bare_occupations():
    ranges = {
        "drive.omega": (1.0, 1.0),
        "reservoir_u.temperature": (0.05, 0.5),
        "reservoir_l.temperature": (0.05, 0.5),
        "reservoir_u.mu": (-1.0, 2.0),
        "reservoir_l.mu": (-1.0, 2.0),
    }
    assert find_violation_with_bare_energies(ranges=ranges, seed=9, max_samples=400) is None


# Intervals that reach past the validity bounds: e_upper below e_lower = 0,
# rates, temperatures and the drive frequency at or below zero.
_STRADDLING = {
    "e_upper": (-0.5, 2.0),
    "drive.omega": (-0.3, 2.0),
    "reservoir_u.gamma": (-0.1, 0.5),
    "reservoir_l.gamma": (-0.1, 0.5),
    "reservoir_u.temperature": (-0.1, 0.5),
    "reservoir_l.temperature": (-0.1, 0.5),
    "reservoir_u.mu": (-1.0, 2.0),
    "drive.epsilon": (0.0, 0.5),
}


@given(
    keys=st.lists(st.sampled_from(sorted(_STRADDLING)), min_size=1, max_size=5, unique=True),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    occupation=st.sampled_from(["effective", "bare"]),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batched_sweep_equals_one_point_sweeps(keys, n, seed, occupation):
    # A sweep evaluates its samples as columns; each of its rows must equal a
    # sweep of that one point, cell for cell, and an invalid point must fail
    # with the error with_parameters raises for it.
    spec = classical_spec(occupation)
    batched = sweep(spec, {k: _STRADDLING[k] for k in keys}, n_samples=n, seed=seed)
    assert len(batched) == n
    for row in batched:
        single = sweep(spec, {k: (v, v, 1) for k, v in row.params.items()})
        (alone,) = single
        assert alone.params == row.params
        assert alone.error == row.error
        assert repr(alone.flux) == repr(row.flux)
        assert repr(alone.entropy_total) == repr(row.entropy_total)
        assert alone.regime == row.regime
        try:
            point = with_parameters(spec, row.params)
        except ValueError as exc:
            assert row.error == f"{type(exc).__name__}: {exc}"
            continue
        flux, entropy, regime = audit_point(point, "classical")
        assert row.error is None
        assert repr(row.flux) == repr(flux)
        assert row.entropy_total == entropy.total
        assert row.regime == regime


def _column_scale(values):
    finite = [abs(v) for v in values if v is not None and np.isfinite(v)]
    return max(finite, default=0.0)


@given(
    cutoffs=st.tuples(st.integers(1, 4), st.integers(1, 8)),
    g=st.floats(0.0, 0.4),
    omega_cav=st.floats(0.6, 1.6),
    t_b=st.floats(0.05, 1.0),
    mu_u=st.floats(-0.5, 2.0),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_quantum_sweep_equals_one_point_audits(cutoffs, g, omega_cav, t_b, mu_u):
    # One sweep mixes cutoffs, and bath.gamma = 0 and > 0 in the batch of each
    # cutoff; a negative one is refused by with_parameters, and low cutoffs
    # enlarge or fail.  Each row must equal the audit of its point.
    ranges = {
        "cavity.fock_cutoff": (*cutoffs, 3),
        "bath.gamma": (-0.1, 0.3, 5),
        "cavity.g": (0.0, g, 2),
        "cavity.omega_cav": (omega_cav, omega_cav, 1),
        "bath.temperature": (t_b, t_b, 1),
        "reservoir_u.mu": (mu_u, mu_u, 1),
    }
    rows = sweep(quantum_spec(), ranges, treatment="quantum")
    expected = []
    for row in rows:
        try:
            expected.append(audit_point(with_parameters(quantum_spec(), row.params), "quantum"))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            expected.append(f"{type(exc).__name__}: {exc}")
    assert [r.error for r in rows] == [e if isinstance(e, str) else None for e in expected]
    solved = [(r, e) for r, e in zip(rows, expected) if r.error is None]
    for name in ("rate", "ndot_u", "ndot_l", "edot_u", "edot_l", "edot_opt", "e_eff_ph",
                 "e_flux_u", "e_flux_l", "e_flux_ph", "first_law_residual", "n_b"):
        got = [getattr(r.flux, name) for r, _ in solved]
        want = [getattr(e[0], name) for _, e in solved]
        scale = _column_scale(want)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=0, abs=1e-12 * scale, nan_ok=True), name
    totals = [e[1].total for _, e in solved]
    for (r, e), total in zip(solved, totals):
        assert r.entropy_total == pytest.approx(total, rel=0, abs=1e-12 * _column_scale(totals))
        assert r.regime.regime == e[2].regime


def test_quantum_sweep_mixing_bath_rates_equals_one_point_audits_exactly():
    # gamma_b = 0 (zero photon rates) and gamma_b > 0 share the batch of each
    # cutoff, and neither changes the other's arithmetic: repr for repr.
    base = quantum_spec(mu_u=0.5)  # absorbing, so the Fock tail stays small at gamma_b = 0
    ranges = {"bath.gamma": (0.0, 0.3, 4), "cavity.g": (0.01, 0.05, 3),
              "cavity.fock_cutoff": (6, 10, 2)}
    rows = sweep(base, ranges, treatment="quantum")
    assert len(rows) == 24 and {row.params["bath.gamma"] for row in rows} >= {0.0, 0.3}
    for row in rows:
        flux, entropy, regime = audit_point(with_parameters(base, row.params), "quantum")
        assert row.error is None
        assert repr(row.flux) == repr(flux)
        assert repr(row.entropy_total) == repr(entropy.total)
        assert repr(row.regime) == repr(regime)


def test_classical_sweep_solves_its_samples_as_columns(monkeypatch):
    # One audit over arrays, with no spec rebuilt per sample; the results are
    # SweepResults built when an item is read.
    calls = {"audit_point": 0, "with_parameter": 0}
    audit, rebuild = thermo.audit_point, model.with_parameter

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(thermo, "audit_point", counted("audit_point", audit))
    monkeypatch.setattr(model, "with_parameter", counted("with_parameter", rebuild))
    ranges = {"drive.omega": (0.6, 1.6), "reservoir_u.mu": (0.0, 1.5)}
    results = sweep(classical_spec(), ranges, n_samples=500, seed=3)
    assert calls == {"audit_point": 1, "with_parameter": 0}
    assert isinstance(results, thermo.SweepColumns)
    assert results.flux.rate.shape == (500,)
    assert isinstance(results[7], thermo.SweepResult)
    assert results[-1].index == 499
    assert [r.index for r in results[2:5]] == [2, 3, 4]
    assert sum(1 for _ in results) == 500


def test_an_audit_resolves_its_occupations_once(monkeypatch):
    # once for a whole classical column audit, and once for a quantum point
    # whose solve is retried at an enlarged cutoff
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(model, "resolve_occupations", counted("resolve", model.resolve_occupations))
    ranges = {"drive.omega": (0.6, 1.6), "reservoir_u.mu": (0.0, 1.5)}
    assert len(sweep(classical_spec(), ranges, n_samples=500, seed=3)) == 500
    assert calls == ["resolve"]
    calls.clear()
    quantum.sector_pattern.cache_clear()
    audit_point(quantum_spec(cutoff=1), "quantum")
    assert calls == ["resolve"]
    assert quantum.sector_pattern.cache_info().misses == 2  # one build per attempted cutoff
