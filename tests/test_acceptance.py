"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one pass/fail line.  Criteria 2 and 10 audit the runs
produced for criteria 1 and 4, so those runs are shared module fixtures.
"""

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from detuned_tls import (
    BlochState,
    BosonicBath,
    CavitySpec,
    ClassicalDrive,
    EnergyLevels,
    FermionicReservoir,
    LinearOccupation,
    FermiOccupation,
    MeanFieldState,
    OccupationSpec,
    SystemSpec,
    average_energy_equivalence,
    classify_regime,
    effective_energies_quantum,
    entropy_report,
    evolve,
    evolve_meanfield,
    evolve_quantum,
    find_violation_with_bare_energies,
    fluxes_classical,
    fluxes_quantum,
    gain_spectrum,
    pulled_frequency,
    quantum_steady_state,
    recheck_with_effective_energies,
    sign_condition,
    solve_lasing,
    steady_state_closed_form,
    thermal_state,
)
from detuned_tls.quantum import observables

LEVELS = EnergyLevels(1.0, 0.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class ClassicalRun:
    spec: SystemSpec
    flux: object
    max_state_dev: float
    equal_t_thermal: bool


@dataclass
class QuantumRun:
    spec: SystemSpec
    flux: object
    state_dev: float
    occupancy_residual: float
    coherence_residual: float
    fock_tail: float
    equal_t_thermal: bool


@pytest.fixture(scope="module")
def classical_runs():
    rng = np.random.default_rng(101)
    runs = []
    t0 = time.monotonic()
    for k in range(100):
        gamma_u, gamma_l = rng.uniform(0.01, 1.0, 2)
        eps = rng.uniform(0.0, 0.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        omega = LEVELS.gap + rng.uniform(-0.95, 1.0)
        if k < 50:
            occ_u = OccupationSpec.fixed(rng.uniform(0, 1))
            occ_l = OccupationSpec.fixed(rng.uniform(0, 1))
            temp_u = temp_l = 0.2
            mu_u, mu_l = 0.0, 0.0
            equal_t_thermal = False
        else:
            occ_u = occ_l = OccupationSpec.thermal_effective()
            temp_u = temp_l = rng.uniform(0.05, 0.5)
            mu_u = rng.uniform(-0.5, 1.8)
            mu_l = rng.uniform(-0.8, 1.0)
            equal_t_thermal = True
        spec = SystemSpec(
            levels=LEVELS,
            reservoir_u=FermionicReservoir(gamma_u, occ_u, mu_u, temp_u),
            reservoir_l=FermionicReservoir(gamma_l, occ_l, mu_l, temp_l),
            drive=ClassicalDrive(omega=omega, epsilon=eps),
        )
        occ = spec.classical_occupations
        ss = steady_state_closed_form(spec)
        t_final = 50.0 / min(gamma_u, gamma_l)
        final = evolve(BlochState(occ.f_u, occ.f_l, 0.0j), spec, t_final)
        dev = max(
            abs(final.sigma_uu - ss.bloch.sigma_uu),
            abs(final.sigma_ll - ss.bloch.sigma_ll),
            abs(final.sigma_ul - ss.bloch.sigma_ul),
        )
        flux = fluxes_classical(ss, spec)
        runs.append(ClassicalRun(spec, flux, dev, equal_t_thermal))
    elapsed = time.monotonic() - t0
    return runs, elapsed


def _quantum_case_specs():
    return [
        SystemSpec(  # fixed occupations, moderate coupling
            levels=LEVELS,
            reservoir_u=FermionicReservoir(0.5, OccupationSpec.fixed(0.8), 1.0, 0.25),
            reservoir_l=FermionicReservoir(0.4, OccupationSpec.fixed(0.15), 0.1, 0.25),
            cavity=CavitySpec(omega_cav=1.1, g=0.1, fock_cutoff=10),
            bath=BosonicBath(0.4, OccupationSpec.fixed(0.1), 0.3),
        ),
        SystemSpec(  # thermal at effective energies, equal temperatures, emitting
            levels=LEVELS,
            reservoir_u=FermionicReservoir(0.45, OccupationSpec.thermal_effective(), 1.3, 0.25),
            reservoir_l=FermionicReservoir(0.35, OccupationSpec.thermal_effective(), 0.05, 0.25),
            cavity=CavitySpec(omega_cav=1.15, g=0.02, fock_cutoff=10),
            bath=BosonicBath(0.3, OccupationSpec.thermal_effective(), 0.2),
        ),
        SystemSpec(  # hot bath, absorbing: solar-cell regime
            levels=LEVELS,
            reservoir_u=FermionicReservoir(0.4, OccupationSpec.thermal_effective(), 0.35, 0.15),
            reservoir_l=FermionicReservoir(0.35, OccupationSpec.thermal_effective(), 0.0, 0.15),
            cavity=CavitySpec(omega_cav=1.1, g=0.02, fock_cutoff=12),
            bath=BosonicBath(0.3, OccupationSpec.thermal_effective(), 0.5),
        ),
    ]


@pytest.fixture(scope="module")
def quantum_runs():
    runs = []
    for spec in _quantum_case_specs():
        occ = spec.quantum_occupations
        sol = quantum_steady_state(spec)
        obs = observables(sol.state.rho, sol.ops, spec)

        rates = (spec.reservoir_u.gamma, spec.reservoir_l.gamma, spec.bath.gamma)
        rho0 = thermal_state(sol.layout, 0.5, 0.5, 0.05)
        evolved = evolve_quantum(rho0, sol.liouvillian, 40.0 / min(rates))
        state_dev = float(np.max(np.abs(evolved.rho - sol.state.rho)))

        occupancy_residual = max(
            abs(spec.reservoir_u.gamma * (occ.f_u - obs.sigma_uu) - obs.rate),
            abs(spec.reservoir_l.gamma * (occ.f_l - obs.sigma_ll) + obs.rate),
            abs(spec.bath.gamma * (occ.n_b - obs.n_ph) + obs.rate),
        )
        delta_cav = spec.cavity.omega_cav - LEVELS.gap
        total = sum(rates)
        coherence_residual = abs(obs.y.real + delta_cav * obs.rate / total)

        flux = fluxes_quantum(sol.state, sol.liouvillian, spec)
        equal_t_thermal = spec.reservoir_u.occupation.kind == "effective"
        runs.append(
            QuantumRun(
                spec,
                flux,
                state_dev,
                occupancy_residual,
                coherence_residual,
                sol.fock_tail,
                equal_t_thermal,
            )
        )
    return runs


def test_criterion_1_classical_oracle_equivalence(classical_runs):
    runs, elapsed = classical_runs
    worst = max(r.max_state_dev for r in runs)
    ok = worst < 1e-7 and elapsed < 10.0
    _report(
        1,
        ok,
        f"100 random scenarios: max |evolved - closed form| = {worst:.2e} "
        f"(tol 1e-7), runtime {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_first_law_both_treatments(classical_runs, quantum_runs):
    runs, _ = classical_runs
    worst = 0.0
    for r in runs:
        scale = max(1.0, abs(r.spec.drive.omega * r.flux.rate))
        worst = max(worst, abs(r.flux.first_law_residual) / scale)
    for r in quantum_runs:
        scale = max(1.0, abs(r.flux.e_eff_ph * r.flux.rate))
        worst = max(worst, abs(r.flux.first_law_residual) / scale)
    ok = worst < 1e-9
    _report(
        2,
        ok,
        f"energy-flux sums on {len(runs)} classical + {len(quantum_runs)} quantum "
        f"steady states: worst relative residual {worst:.2e} (tol 1e-9)",
    )


def test_criterion_3_effective_energy_extraction():
    t0 = time.monotonic()
    worst = 0.0
    for gamma_u in (0.1, 0.25, 0.5):
        for gamma_l in (0.1, 0.25, 0.5):
            for gamma_b in (0.1, 0.25, 0.5):
                spec = SystemSpec(
                    levels=LEVELS,
                    reservoir_u=FermionicReservoir(gamma_u, OccupationSpec.fixed(0.7), 0.9, 0.2),
                    reservoir_l=FermionicReservoir(gamma_l, OccupationSpec.fixed(0.2), 0.1, 0.2),
                    cavity=CavitySpec(omega_cav=LEVELS.gap + 0.2, g=0.02, fock_cutoff=12),
                    bath=BosonicBath(gamma_b, OccupationSpec.fixed(0.15), 0.3),
                )
                sol = quantum_steady_state(spec)
                flux = fluxes_quantum(sol.state, sol.liouvillian, spec)
                eff = effective_energies_quantum(
                    spec.levels, spec.cavity, gamma_u, gamma_l, gamma_b
                )
                worst = max(
                    worst,
                    abs(flux.e_flux_u / eff.e_upper - 1.0),
                    abs(flux.e_flux_l / eff.e_lower - 1.0),
                    abs(flux.e_flux_ph / eff.e_photon - 1.0),
                )
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 120.0
    _report(
        3,
        ok,
        f"27-point rate grid at detuning 0.2: worst relative deviation of "
        f"flux-ratio energies from the closed forms {worst:.2e} (tol 1e-6), "
        f"runtime {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_4_quantum_steady_state(quantum_runs):
    worst_dev = max(r.state_dev for r in quantum_runs)
    worst_occ = max(r.occupancy_residual for r in quantum_runs)
    worst_coh = max(r.coherence_residual for r in quantum_runs)
    worst_tail = max(r.fock_tail for r in quantum_runs)
    ok = worst_dev < 1e-7 and worst_occ < 1e-9 and worst_coh < 1e-9 and worst_tail < 1e-6
    _report(
        4,
        ok,
        f"{len(quantum_runs)} cases: null-space vs evolution {worst_dev:.2e} (tol 1e-7); "
        f"occupancy balance {worst_occ:.2e}, coherence relation {worst_coh:.2e} "
        f"(tol 1e-9); Fock tail {worst_tail:.2e} (tol 1e-6)",
    )


def test_criterion_5_second_law_with_effective_energies():
    rng = np.random.default_rng(505)
    worst_classical = math.inf
    for _ in range(1000):
        gamma_u, gamma_l = rng.uniform(0.05, 1.0, 2)
        spec = SystemSpec(
            levels=LEVELS,
            reservoir_u=FermionicReservoir(
                gamma_u, OccupationSpec.thermal_effective(),
                rng.uniform(-1.0, 2.0), rng.uniform(0.05, 0.5),
            ),
            reservoir_l=FermionicReservoir(
                gamma_l, OccupationSpec.thermal_effective(),
                rng.uniform(-1.0, 2.0), rng.uniform(0.05, 0.5),
            ),
            drive=ClassicalDrive(
                omega=LEVELS.gap + rng.uniform(-0.95, 1.0),
                epsilon=rng.uniform(0.02, 0.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            ),
        )
        flux = fluxes_classical(steady_state_closed_form(spec), spec)
        worst_classical = min(worst_classical, entropy_report(flux, spec).total)

    worst_quantum = math.inf
    for _ in range(200):
        gamma_u, gamma_l, gamma_b = rng.uniform(0.1, 0.5, 3)
        spec = SystemSpec(
            levels=LEVELS,
            reservoir_u=FermionicReservoir(
                gamma_u, OccupationSpec.thermal_effective(),
                rng.uniform(0.2, 1.2), rng.uniform(0.1, 0.4),
            ),
            reservoir_l=FermionicReservoir(
                gamma_l, OccupationSpec.thermal_effective(),
                rng.uniform(-0.3, 0.5), rng.uniform(0.1, 0.4),
            ),
            cavity=CavitySpec(
                omega_cav=rng.uniform(0.9, 1.3),
                g=0.05 * min(gamma_u, gamma_l, gamma_b)
                * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                fock_cutoff=10,
            ),
            bath=BosonicBath(gamma_b, OccupationSpec.thermal_effective(), rng.uniform(0.1, 0.3)),
        )
        sol = quantum_steady_state(spec)
        flux = fluxes_quantum(sol.state, sol.liouvillian, spec)
        worst_quantum = min(worst_quantum, entropy_report(flux, spec).total)

    ok = worst_classical >= -1e-10 and worst_quantum >= -1e-10
    _report(
        5,
        ok,
        f"entropy production with effective-energy occupations: classical min "
        f"{worst_classical:.2e} over 1000 samples, quantum min {worst_quantum:.2e} "
        f"over 200 weak-coupling samples (tol -1e-10)",
    )


def test_criterion_6_bare_energy_counterexample():
    t0 = time.monotonic()
    found = find_violation_with_bare_energies(seed=7)
    elapsed = time.monotonic() - t0
    ok = found is not None and found.entropy_total < -1e-10
    detail = "no violation found"
    if found is not None:
        total_eff = recheck_with_effective_energies(found)
        ok = ok and total_eff >= -1e-12 and elapsed < 30.0
        detail = (
            f"bare-occupation sample {found.index} violates with total "
            f"{found.entropy_total:.3e}; same point with effective energies gives "
            f"{total_eff:.3e} (>= -1e-12); runtime {elapsed:.2f}s (limit 30s)"
        )
    _report(6, ok, detail)


LASING_CASES = [
    # (gamma_u, gamma_l, gamma_b, omega_cav, g, f_u, f_l)
    (0.40, 0.40, 0.25, 1.15, 0.35, 0.95, 0.05),
    (0.30, 0.40, 0.20, 1.10, 0.30, 0.90, 0.10),
    (0.50, 0.30, 0.30, 1.25, 0.45, 0.95, 0.05),
    (0.40, 0.20, 0.15, 1.00, 0.25, 0.92, 0.08),
    (0.25, 0.25, 0.20, 0.90, 0.30, 0.95, 0.10),
    (0.60, 0.50, 0.35, 1.20, 0.50, 0.90, 0.05),
    (0.35, 0.45, 0.25, 1.05, 0.35, 0.85, 0.05),
    (0.45, 0.35, 0.30, 1.30, 0.50, 0.95, 0.05),
    (0.30, 0.30, 0.15, 1.12, 0.28, 0.93, 0.07),
    (0.55, 0.40, 0.20, 1.08, 0.35, 0.88, 0.06),
]


def test_criterion_7_frequency_pulling_and_lasing_dynamics():
    rng = np.random.default_rng(707)
    worst_pull = 0.0
    for _ in range(1000):
        e_lower = rng.uniform(-1.0, 1.0)
        levels = EnergyLevels(e_lower + rng.uniform(0.2, 2.0), e_lower)
        cavity = CavitySpec(omega_cav=rng.uniform(0.1, 3.0), g=0.1)
        gamma_u, gamma_l, gamma_b = rng.uniform(1e-3, 2.0, 3)
        omega = pulled_frequency(levels, cavity, gamma_u, gamma_l, gamma_b)
        eff = effective_energies_quantum(levels, cavity, gamma_u, gamma_l, gamma_b)
        worst_pull = max(worst_pull, abs(omega - eff.e_photon) / max(1.0, abs(omega)))

    worst_amp = 0.0
    for gamma_u, gamma_l, gamma_b, omega_cav, g, f_u, f_l in LASING_CASES:
        spec = SystemSpec(
            levels=LEVELS,
            reservoir_u=FermionicReservoir(gamma_u, OccupationSpec.fixed(f_u), 1.2, 0.2),
            reservoir_l=FermionicReservoir(gamma_l, OccupationSpec.fixed(f_l), 0.0, 0.2),
            cavity=CavitySpec(omega_cav=omega_cav, g=g),
            bath=BosonicBath(gamma_b, OccupationSpec.fixed(0.0), 0.2),
        )
        sol = solve_lasing(spec)
        assert sol.above_threshold, "lasing case unexpectedly below threshold"
        traj = evolve_meanfield(MeanFieldState(f_u, f_l, 0.0j, 1e-3 + 0.0j), spec, 500.0)
        worst_amp = max(worst_amp, abs(abs(traj.final.field) - abs(sol.a_ss)))

    ok = worst_pull <= 1e-14 and worst_amp < 1e-6
    _report(
        7,
        ok,
        f"pulled frequency vs effective photon energy: {worst_pull:.2e} over 1000 "
        f"samples (tol 1e-14); mean-field amplitude vs closed form: {worst_amp:.2e} "
        f"over {len(LASING_CASES)} above-threshold cases (tol 1e-6)",
    )


def test_criterion_8_dispersive_gain_and_average_energies():
    fermi = FermiOccupation(temperature=0.1, mu=0.2)
    grid = np.linspace(-1.0, 1.0, 201)
    spectrum = gain_spectrum(0.3, grid, 0.05, 0.05, fermi, fermi)
    sign_ok = bool(np.all(spectrum.rates * spectrum.detunings <= 1e-15))
    zero_ok = abs(spectrum.rates[100]) <= 1e-14

    lin_up = LinearOccupation(0.55, -0.21)
    lin_low = LinearOccupation(0.45, -0.13)
    worst_eq = max(
        abs(average_energy_equivalence(0.3, d, 0.05, 0.11, lin_up, lin_low).difference)
        for d in grid
    )
    ok = sign_ok and zero_ok and worst_eq < 1e-14
    _report(
        8,
        ok,
        f"201-point equal-occupation spectrum: rate*detuning <= 0 {sign_ok}, "
        f"rate(0) = {spectrum.rates[100]:.1e} (tol 1e-14); linear average-energy "
        f"equivalence worst difference {worst_eq:.2e} (tol 1e-14)",
    )


def test_criterion_9_sign_condition_agreement():
    rng = np.random.default_rng(909)
    n_points = 200
    mismatches = []
    for k in range(n_points):
        gamma_u, gamma_l, gamma_b = rng.uniform(0.1, 0.5, 3)
        spec = SystemSpec(
            levels=LEVELS,
            reservoir_u=FermionicReservoir(
                gamma_u, OccupationSpec.fixed(rng.uniform(0.05, 0.9)), 0.9, 0.2
            ),
            reservoir_l=FermionicReservoir(
                gamma_l, OccupationSpec.fixed(rng.uniform(0.05, 0.9)), 0.1, 0.2
            ),
            cavity=CavitySpec(
                omega_cav=LEVELS.gap + rng.uniform(-0.3, 0.3),
                g=0.05 * min(gamma_u, gamma_l, gamma_b),
                fock_cutoff=10,
            ),
            bath=BosonicBath(gamma_b, OccupationSpec.fixed(rng.uniform(0.0, 0.2)), 0.3),
        )
        occ = spec.quantum_occupations
        sol = quantum_steady_state(spec)
        obs = observables(sol.state.rho, sol.ops, spec)
        check = sign_condition(obs, occ)
        if not check.agree:
            mismatches.append((k, occ, obs.rate))
    for k, occ, rate in mismatches:
        print(
            f"  factorized-sign mismatch at sample {k}: f_u={occ.f_u:.4f} "
            f"f_l={occ.f_l:.4f} n_b={occ.n_b:.4f} exact rate={rate:.3e}"
        )
    agreement = (n_points - len(mismatches)) / n_points
    ok = agreement >= 0.95
    _report(
        9,
        ok,
        f"factorized sign prediction vs exact rate sign: {100 * agreement:.1f}% "
        f"agreement on {n_points} weak-coupling samples (threshold 95%), "
        f"{len(mismatches)} mismatches logged",
    )


def test_criterion_10_regime_checks(classical_runs, quantum_runs):
    runs, _ = classical_runs
    checked = 0
    failed = 0
    for r in runs:
        if not r.equal_t_thermal:
            continue
        regime = classify_regime(r.flux, r.spec)
        if regime.sign_law_ok is not None:
            checked += 1
            failed += 0 if regime.sign_law_ok else 1
    for r in quantum_runs:
        if not r.equal_t_thermal:
            continue
        regime = classify_regime(r.flux, r.spec)
        for verdict in (regime.sign_law_ok, regime.carnot_ok):
            if verdict is not None:
                checked += 1
                failed += 0 if verdict else 1
    ok = failed == 0 and checked > 0
    _report(
        10,
        ok,
        f"equal-temperature regime laws (emission/absorption sign, Carnot bound): "
        f"{checked} applicable checks, {failed} failures",
    )
