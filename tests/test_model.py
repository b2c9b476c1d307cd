"""Parameter types, occupation functions, and effective-energy formulas."""

import math
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detuned_tls import (
    BosonicBath,
    CavitySpec,
    ClassicalDrive,
    EnergyLevels,
    FermionicReservoir,
    OccupationSpec,
    SystemSpec,
    bloch_rhs,
    bose,
    build_sector_liouvillian,
    detuning,
    effective_energies_classical,
    effective_energies_quantum,
    evolve,
    evolve_meanfield,
    fermi,
    fluxes_classical,
    fluxes_quantum,
    quantum_steady_state,
    resolve_occupations,
    solve_lasing,
    steady_state_closed_form,
    with_parameter,
    with_parameters,
)
from detuned_tls.model import spec_columns
from detuned_tls.quantum import build_liouvillian

finite = dict(allow_nan=False, allow_infinity=False)


def test_detuning_examples():
    assert detuning(EnergyLevels(1.0, 0.0), 1.0) == 0.0
    assert detuning(EnergyLevels(1.0, 0.0), 1.1) == pytest.approx(0.1, abs=1e-15)
    assert detuning(EnergyLevels(2.5, 1.0), 1.2) == pytest.approx(-0.3, abs=1e-15)


def test_levels_ordering_enforced():
    with pytest.raises(ValueError):
        EnergyLevels(0.0, 0.0)
    with pytest.raises(ValueError):
        EnergyLevels(-1.0, 1.0)


def test_effective_classical_equal_couplings():
    levels = EnergyLevels(1.0, 0.0)
    drive = ClassicalDrive(omega=1.1, epsilon=0.1)
    eff = effective_energies_classical(levels, drive, 0.1, 0.1)
    assert eff.e_upper == pytest.approx(1.05, abs=1e-15)
    assert eff.e_lower == pytest.approx(-0.05, abs=1e-15)
    assert eff.e_photon == pytest.approx(1.1, abs=1e-15)


def test_effective_classical_resonant_is_bare():
    levels = EnergyLevels(1.3, 0.2)
    drive = ClassicalDrive(omega=1.1, epsilon=0.3)
    eff = effective_energies_classical(levels, drive, 0.7, 0.2)
    assert eff.e_upper == pytest.approx(1.3, abs=1e-15)
    assert eff.e_lower == pytest.approx(0.2, abs=1e-15)
    assert eff.e_photon == pytest.approx(1.1, abs=1e-15)


def test_effective_classical_asymmetric_couplings():
    # gamma_u = 0.3 takes 3/4 of the 0.1 detuning, gamma_l = 0.1 takes 1/4.
    levels = EnergyLevels(1.0, 0.0)
    drive = ClassicalDrive(omega=1.1, epsilon=0.1)
    eff = effective_energies_classical(levels, drive, 0.3, 0.1)
    assert eff.e_upper == pytest.approx(1.075, abs=1e-14)
    assert eff.e_lower == pytest.approx(-0.025, abs=1e-14)
    assert eff.e_upper - eff.e_lower == pytest.approx(1.1, abs=1e-14)


def test_effective_classical_rejects_zero_rates():
    with pytest.raises(ValueError):
        effective_energies_classical(
            EnergyLevels(1.0, 0.0), ClassicalDrive(1.1, 0.1), 0.0, 0.0
        )


def test_effective_quantum_resonant_is_bare():
    levels = EnergyLevels(1.0, 0.0)
    cavity = CavitySpec(omega_cav=1.0, g=0.1)
    eff = effective_energies_quantum(levels, cavity, 0.2, 0.3, 0.4)
    assert eff.e_upper == pytest.approx(1.0, abs=1e-15)
    assert eff.e_lower == pytest.approx(0.0, abs=1e-15)
    assert eff.e_photon == pytest.approx(1.0, abs=1e-15)


def test_effective_quantum_example():
    # Equal rates split the 0.2 detuning in thirds: 16/15, -1/15, 17/15.
    levels = EnergyLevels(1.0, 0.0)
    cavity = CavitySpec(omega_cav=1.2, g=0.1)
    eff = effective_energies_quantum(levels, cavity, 0.1, 0.1, 0.1)
    assert eff.e_upper == pytest.approx(16.0 / 15.0, abs=1e-14)
    assert eff.e_lower == pytest.approx(-1.0 / 15.0, abs=1e-14)
    assert eff.e_photon == pytest.approx(17.0 / 15.0, abs=1e-14)
    assert eff.e_upper == pytest.approx(eff.e_lower + eff.e_photon, abs=1e-14)


def test_effective_quantum_rejects_zero_rates():
    with pytest.raises(ValueError):
        effective_energies_quantum(
            EnergyLevels(1.0, 0.0), CavitySpec(1.2, 0.1), 0.0, 0.0, 0.0
        )


@given(
    e_lower=st.floats(-2, 2, **finite),
    gap=st.floats(0.1, 3, **finite),
    omega=st.floats(0.05, 4, **finite),
    gamma_u=st.floats(1e-3, 2, **finite),
    gamma_l=st.floats(1e-3, 2, **finite),
)
@settings(max_examples=200, deadline=None)
def test_classical_sum_rule(e_lower, gap, omega, gamma_u, gamma_l):
    levels = EnergyLevels(e_lower + gap, e_lower)
    eff = effective_energies_classical(levels, ClassicalDrive(omega, 0.1), gamma_u, gamma_l)
    scale = max(abs(levels.e_upper), abs(omega), 1.0)
    assert abs(eff.e_upper - eff.e_lower - omega) < 1e-12 * scale


@given(
    e_lower=st.floats(-2, 2, **finite),
    gap=st.floats(0.1, 3, **finite),
    omega=st.floats(0.05, 4, **finite),
    gamma_u=st.floats(1e-3, 2, **finite),
    gamma_l=st.floats(1e-3, 2, **finite),
    gamma_b=st.floats(0, 2, **finite),
)
@settings(max_examples=200, deadline=None)
def test_quantum_sum_rule_and_classical_limit(e_lower, gap, omega, gamma_u, gamma_l, gamma_b):
    levels = EnergyLevels(e_lower + gap, e_lower)
    cavity = CavitySpec(omega, 0.1)
    eff = effective_energies_quantum(levels, cavity, gamma_u, gamma_l, gamma_b)
    scale = max(abs(levels.e_upper), abs(omega), 1.0)
    assert abs(eff.e_upper - eff.e_lower - eff.e_photon) < 1e-12 * scale

    limit = effective_energies_quantum(levels, cavity, gamma_u, gamma_l, 0.0)
    classical = effective_energies_classical(
        levels, ClassicalDrive(omega, 0.1), gamma_u, gamma_l
    )
    assert limit.e_upper == pytest.approx(classical.e_upper, abs=1e-14)
    assert limit.e_lower == pytest.approx(classical.e_lower, abs=1e-14)
    assert limit.e_photon == pytest.approx(classical.e_photon, abs=1e-14)


def test_fermi_examples():
    assert fermi(0.7, 0.7, 0.2) == pytest.approx(0.5, abs=1e-15)
    assert fermi(0.5 + 0.2 * math.log(3.0), 0.5, 0.2) == pytest.approx(0.25, abs=1e-14)
    assert fermi(1e4, 0.0, 1.0) == 0.0  # saturation
    assert fermi(-1e4, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        fermi(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        fermi(1.0, 0.0, -0.1)


@given(
    e1=st.floats(-50, 50, **finite),
    de=st.floats(1e-6, 50, **finite),
    mu=st.floats(-5, 5, **finite),
    temp=st.floats(0.01, 10, **finite),
)
@settings(max_examples=200, deadline=None)
def test_fermi_decreasing(e1, de, mu, temp):
    assert fermi(e1 + de, mu, temp) <= fermi(e1, mu, temp)


@given(
    x=st.floats(-5, 5, **finite),
    dx=st.floats(1e-3, 10, **finite),
    mu=st.floats(-5, 5, **finite),
    temp=st.floats(0.01, 10, **finite),
)
@settings(max_examples=200, deadline=None)
def test_fermi_strictly_decreasing_in_resolvable_regime(x, dx, mu, temp):
    # arguments scaled by T so both points sit away from float saturation
    assert fermi(mu + (x + dx) * temp, mu, temp) < fermi(mu + x * temp, mu, temp)


@given(x_u=st.floats(-30, 30, **finite), x_l=st.floats(-30, 30, **finite))
@settings(max_examples=300, deadline=None)
def test_fermi_form_difference_sign(x_u, x_l):
    # The occupation-difference sign is set by the argument ordering alone.
    diff = 1.0 / (math.exp(x_u) + 1.0) - 1.0 / (math.exp(x_l) + 1.0)
    if x_l > x_u:
        assert diff >= 0.0
    elif x_l < x_u:
        assert diff <= 0.0


def test_bose_examples():
    assert bose(0.2 * math.log(2.0), 0.2) == pytest.approx(1.0, abs=1e-13)
    # frozen high-precision value of 1/(e - 1)
    assert bose(1.0, 1.0) == pytest.approx(0.5819767068693265, abs=1e-15)
    assert bose(30.0, 1.0) == pytest.approx(math.exp(-30.0), rel=1e-12)
    with pytest.raises(ValueError):
        bose(0.0, 1.0)
    with pytest.raises(ValueError):
        bose(-1.0, 1.0)
    with pytest.raises(ValueError):
        bose(1.0, 0.0)


@given(
    e1=st.floats(0.01, 10, **finite),
    de=st.floats(1e-6, 10, **finite),
    temp=st.floats(0.05, 5, **finite),
)
@settings(max_examples=200, deadline=None)
def test_bose_strictly_decreasing(e1, de, temp):
    assert bose(e1 + de, temp) < bose(e1, temp)


def _spec(occ_u, occ_l, omega=1.1, gamma_u=0.1, gamma_l=0.1, mu_u=1.05, mu_l=0.0, temp=0.1):
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(gamma_u, occ_u, mu=mu_u, temperature=temp),
        reservoir_l=FermionicReservoir(gamma_l, occ_l, mu=mu_l, temperature=temp),
        drive=ClassicalDrive(omega=omega, epsilon=0.1),
        cavity=CavitySpec(omega_cav=omega, g=0.05),
        bath=BosonicBath(gamma=0.1, occupation=OccupationSpec.fixed(0.2), temperature=0.2),
    )


def test_resolve_fixed_passthrough():
    spec = _spec(OccupationSpec.fixed(0.31), OccupationSpec.fixed(0.72))
    occ = resolve_occupations(spec, "classical")
    assert occ.f_u == 0.31
    assert occ.f_l == 0.72
    assert occ.n_b == 0.2


def test_resolve_bare_equals_effective_at_resonance():
    bare = _spec(OccupationSpec.thermal_bare(), OccupationSpec.thermal_bare(), omega=1.0)
    eff = _spec(
        OccupationSpec.thermal_effective(), OccupationSpec.thermal_effective(), omega=1.0
    )
    for treatment in ("classical", "quantum"):
        occ_bare = resolve_occupations(bare, treatment)
        occ_eff = resolve_occupations(eff, treatment)
        assert occ_bare.f_u == pytest.approx(occ_eff.f_u, abs=1e-15)
        assert occ_bare.f_l == pytest.approx(occ_eff.f_l, abs=1e-15)


def test_resolve_effective_hits_half_filling():
    # Effective upper energy 1 + 0.1*0.1/0.2 = 1.05 equals mu_u.
    spec = _spec(OccupationSpec.thermal_effective(), OccupationSpec.fixed(0.0))
    occ = resolve_occupations(spec, "classical")
    assert occ.f_u == pytest.approx(0.5, abs=1e-14)


def test_resolve_requires_matching_sections():
    spec = SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(0.1, OccupationSpec.fixed(0.5), 0.0, 0.1),
        reservoir_l=FermionicReservoir(0.1, OccupationSpec.fixed(0.5), 0.0, 0.1),
    )
    with pytest.raises(ValueError):
        resolve_occupations(spec, "classical")
    with pytest.raises(ValueError):
        resolve_occupations(spec, "quantum")
    with pytest.raises(ValueError):
        resolve_occupations(_spec(OccupationSpec.fixed(0.5), OccupationSpec.fixed(0.5)), "other")


def test_spec_keeps_the_occupations_of_each_treatment():
    # the drive and the cavity share a frequency, but the lossy cavity moves
    # the quantum effective energies: the two treatments resolve differently
    spec = _spec(OccupationSpec.thermal_effective(), OccupationSpec.thermal_effective())
    spec = replace(spec, bath=replace(spec.bath, occupation=OccupationSpec.thermal_effective()))
    classical, quantum = spec.classical_occupations, spec.quantum_occupations
    assert classical == resolve_occupations(spec, "classical")
    assert quantum == resolve_occupations(spec, "quantum")
    assert classical.f_u != quantum.f_u and classical.n_b != quantum.n_b
    assert spec.classical_occupations is classical and spec.quantum_occupations is quantum


def test_replaced_spec_resolves_afresh():
    spec = _spec(OccupationSpec.fixed(0.3), OccupationSpec.fixed(0.6))
    assert spec.classical_occupations.f_u == spec.quantum_occupations.f_u == 0.3
    moved = replace(spec, reservoir_u=replace(spec.reservoir_u, occupation=OccupationSpec.fixed(0.9)))
    assert moved.classical_occupations.f_u == moved.quantum_occupations.f_u == 0.9
    assert spec.classical_occupations.f_u == 0.3


def test_concurrent_first_reads_of_the_memo_agree():
    # More threads than cores, GIL handed over every microsecond, all reading
    # the occupations of the same fresh specs for the first time.
    base = _spec(OccupationSpec.thermal_effective(), OccupationSpec.thermal_effective())
    specs = [with_parameters(base, {"drive.omega": 1.0 + 0.01 * k}) for k in range(100)]
    want = [(resolve_occupations(s, "classical"), resolve_occupations(s, "quantum")) for s in specs]
    n = (os.cpu_count() or 1) + 3
    got = [None] * n
    barrier = threading.Barrier(n, timeout=30)

    def work(k):
        barrier.wait()
        got[k] = [(s.classical_occupations, s.quantum_occupations) for s in specs]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(n)]
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
    assert got == [want] * n
    assert [(s.classical_occupations, s.quantum_occupations) for s in specs] == want


@pytest.mark.parametrize(
    "solver, n_args",
    [
        (bloch_rhs, 2), (evolve, 3), (steady_state_closed_form, 1), (fluxes_classical, 2),
        (build_sector_liouvillian, 2), (build_liouvillian, 2), (quantum_steady_state, 1),
        (fluxes_quantum, 3), (solve_lasing, 1), (evolve_meanfield, 3),
    ],
    ids=lambda p: getattr(p, "__name__", ""),
)
def test_solvers_take_no_occupations(solver, n_args):
    occ = _spec(OccupationSpec.fixed(0.3), OccupationSpec.fixed(0.6)).quantum_occupations
    with pytest.raises(TypeError, match="unexpected keyword argument 'occupations'"):
        solver(*[None] * n_args, occupations=occ)


def test_occupation_spec_validation():
    with pytest.raises(ValueError):
        OccupationSpec("fixed")
    with pytest.raises(ValueError):
        OccupationSpec("bare", 0.3)
    with pytest.raises(ValueError):
        OccupationSpec("mystery")
    with pytest.raises(ValueError):
        FermionicReservoir(0.1, OccupationSpec.fixed(1.2), 0.0, 0.1)
    with pytest.raises(ValueError):
        BosonicBath(0.1, OccupationSpec.fixed(-0.5), 0.1)


def test_with_parameter_updates():
    spec = _spec(OccupationSpec.fixed(0.5), OccupationSpec.fixed(0.5))
    assert with_parameter(spec, "drive.omega", 1.3).drive.omega == 1.3
    assert with_parameter(spec, "reservoir_u.gamma", 0.7).reservoir_u.gamma == 0.7
    assert with_parameter(spec, "e_upper", 1.4).levels.e_upper == 1.4
    assert with_parameter(spec, "cavity.g", 0.1 + 0.2j).cavity.g == 0.1 + 0.2j
    with pytest.raises(KeyError):
        with_parameter(spec, "nope", 1.0)
    bare = SystemSpec(
        levels=spec.levels, reservoir_u=spec.reservoir_u, reservoir_l=spec.reservoir_l
    )
    with pytest.raises(ValueError):
        with_parameter(bare, "drive.omega", 1.0)


def test_with_parameters_checks_each_section_on_its_final_values():
    # e_upper = -0.5 lies below the base e_lower = 0 but above the new -1.0:
    # the point is valid, and must be accepted in either key order.
    spec = _spec(OccupationSpec.fixed(0.5), OccupationSpec.fixed(0.5))
    for params in ({"e_upper": -0.5, "e_lower": -1.0}, {"e_lower": -1.0, "e_upper": -0.5}):
        levels = with_parameters(spec, params).levels
        assert (levels.e_upper, levels.e_lower) == (-0.5, -1.0)
    for params in ({"e_upper": -1.0, "e_lower": -0.5}, {"e_lower": -0.5, "e_upper": -1.0}):
        with pytest.raises(ValueError, match="e_upper must be strictly above e_lower"):
            with_parameters(spec, params)


def test_spec_columns_check_each_section_on_its_final_values():
    spec = _spec(OccupationSpec.fixed(0.5), OccupationSpec.fixed(0.5))
    table = np.array([[-0.5, -1.0], [-1.0, -0.5], [2.0, 0.0], [0.0, 2.0]])
    for keys, rows in ((["e_upper", "e_lower"], table), (["e_lower", "e_upper"], table[:, ::-1])):
        columns = spec_columns(spec, keys, rows)
        for row, error in zip(rows, columns.errors):
            try:
                with_parameters(spec, dict(zip(keys, row)))
            except ValueError as exc:
                assert repr(error) == repr(exc)
            else:
                assert error is None
        assert [e is None for e in columns.errors] == [True, False, True, False]
