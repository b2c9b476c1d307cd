"""Dispersive inter-subband gain: line shape, sign structure, average energies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detuned_tls import (
    EnergyLevels,
    FermiOccupation,
    LinearOccupation,
    TabulatedOccupation,
    average_energy_equivalence,
    bloch_rate,
    effective_energies,
    gain_spectrum,
)

finite = dict(allow_nan=False, allow_infinity=False)


def test_occupation_variants_stay_in_range():
    fermi = FermiOccupation(temperature=0.1, mu=0.2)
    assert fermi(0.2) == pytest.approx(0.5, abs=1e-15)
    assert 0.0 <= fermi(-100.0) <= 1.0 and 0.0 <= fermi(100.0) <= 1.0

    linear = LinearOccupation(f0=0.5, slope=-0.4)
    assert linear(0.0) == 0.5
    assert linear(10.0) == 0.0  # clamped
    assert linear(-10.0) == 1.0

    table = TabulatedOccupation(energies=(0.0, 0.5, 1.0), values=(0.9, 0.5, 0.1))
    assert table(0.25) == pytest.approx(0.7, abs=1e-15)
    assert table(-5.0) == 0.9  # flat extrapolation
    assert table(5.0) == pytest.approx(0.1, abs=1e-15)

    with pytest.raises(ValueError):
        TabulatedOccupation(energies=(0.0, 0.0), values=(0.5, 0.5))
    with pytest.raises(ValueError):
        TabulatedOccupation(energies=(0.0, 1.0), values=(0.5, 1.5))
    with pytest.raises(ValueError):
        FermiOccupation(temperature=0.0, mu=0.0)


def test_rate_zero_for_equal_occupations_at_zero_detuning():
    f = FermiOccupation(0.1, 0.2)
    assert bloch_rate(0.3, 0.0, 0.05, 0.07, f, f) == 0.0


def test_rate_is_lorentzian_at_full_inversion():
    up = LinearOccupation(1.0, 0.0)
    low = LinearOccupation(0.0, 0.0)
    for delta in (-0.7, 0.0, 0.4):
        gamma_sum = 0.12
        expected = gamma_sum / (delta**2 + gamma_sum**2 / 4.0)
        assert bloch_rate(0.3, delta, 0.05, 0.07, up, low) == pytest.approx(
            expected, rel=1e-14
        )


def test_dispersive_sign_structure_for_equal_fermi_occupations():
    # Oracle: the sign is carried by the sampled occupation differences.
    f = FermiOccupation(0.1, 0.2)
    gamma_u, gamma_l = 0.05, 0.08
    for delta in np.linspace(-1.0, 1.0, 101):
        rate = bloch_rate(0.3, delta, gamma_u, gamma_l, f, f)
        diff_sum = gamma_l * (f(0.3) - f(0.3 - delta)) + gamma_u * (f(0.3 + delta) - f(0.3))
        if delta > 0:
            assert diff_sum <= 0 and rate <= 0
        elif delta < 0:
            assert diff_sum >= 0 and rate >= 0


def test_single_sided_broadening_limit():
    up = FermiOccupation(0.15, 0.4)
    low = FermiOccupation(0.1, 0.1)
    e, delta = 0.3, 0.25
    gamma_l = 0.07
    rate = bloch_rate(e, delta, 0.0, gamma_l, up, low)
    lorentz = gamma_l / (delta**2 + gamma_l**2 / 4.0)
    assert rate == pytest.approx(lorentz * (up(e) - low(e - delta)), rel=1e-14)


def test_spectrum_is_pointwise_pure():
    f = FermiOccupation(0.1, 0.2)
    coarse = gain_spectrum(0.3, np.linspace(-1, 1, 11), 0.05, 0.05, f, f)
    fine = gain_spectrum(0.3, np.linspace(-1, 1, 21), 0.05, 0.05, f, f)
    assert np.allclose(coarse.rates, fine.rates[::2], rtol=0, atol=0)


def test_spectrum_odd_for_symmetric_broadening():
    f = FermiOccupation(0.12, 0.3)
    grid = np.linspace(-1, 1, 41)
    spectrum = gain_spectrum(0.3, grid, 0.06, 0.06, f, f)
    assert np.max(np.abs(spectrum.rates + spectrum.rates[::-1])) < 1e-12


def test_average_energy_equivalence_exact_for_linear():
    lin_up = LinearOccupation(0.55, -0.21)
    lin_low = LinearOccupation(0.45, -0.13)
    for delta in (0.0, 0.17, -0.42):
        check = average_energy_equivalence(0.3, delta, 0.05, 0.11, lin_up, lin_low)
        assert abs(check.difference) < 1e-14


def test_average_energy_equivalence_curvature_remainder():
    f = FermiOccupation(0.1, 0.2)
    assert average_energy_equivalence(0.3, 0.0, 0.04, 0.07, f, f).difference == 0.0

    check = average_energy_equivalence(0.3, 0.05, 0.04, 0.07, f, f)
    assert math.isfinite(check.difference)
    print(f"fermi average-energy remainder at 0.5 T detuning: {check.difference:.3e}")

    # quadratic shrinkage in the detuning (Taylor remainder)
    big = average_energy_equivalence(0.3, 0.05, 0.04, 0.07, f, f).difference
    small = average_energy_equivalence(0.3, 0.025, 0.04, 0.07, f, f).difference
    assert abs(small) < abs(big)


@given(
    delta=st.floats(-1, 1, **finite),
    gamma_u=st.floats(0.01, 1, **finite),
    gamma_l=st.floats(0.01, 1, **finite),
    e_k0=st.floats(-1, 1, **finite),
    gap=st.floats(0.2, 2, **finite),
)
@settings(max_examples=200, deadline=None)
def test_average_energy_shifts_close_the_energy_balance(delta, gamma_u, gamma_l, e_k0, gap):
    gamma_sum = gamma_u + gamma_l
    e_avg_u = e_k0 + delta * gamma_u / gamma_sum
    e_avg_l = e_k0 - delta * gamma_l / gamma_sum
    levels = EnergyLevels(gap, 0.0)
    omega = gap + delta
    lhs = (levels.e_upper + e_avg_u) - (levels.e_lower + e_avg_l)
    assert abs(lhs - omega) < 1e-14 * max(1.0, abs(omega))

    # the shifts coincide with the driven two-level effective-energy shifts
    if omega > 0:
        eff = effective_energies(levels, omega, gamma_u, gamma_l, 0.0)
        assert abs((e_avg_u - e_k0) - (eff.e_upper - levels.e_upper)) < 1e-14
        assert abs((e_avg_l - e_k0) - (eff.e_lower - levels.e_lower)) < 1e-14


def test_rejects_zero_broadening():
    f = FermiOccupation(0.1, 0.2)
    with pytest.raises(ValueError):
        bloch_rate(0.3, 0.1, 0.0, 0.0, f, f)
    with pytest.raises(ValueError):
        average_energy_equivalence(0.3, 0.1, 0.0, 0.0, f, f)


@pytest.mark.parametrize(
    "f_upper, f_lower",
    [
        (FermiOccupation(0.1, 0.2), FermiOccupation(0.15, 0.05)),
        (LinearOccupation(0.8, -0.5), LinearOccupation(0.3, 0.9)),
        (TabulatedOccupation((0.0, 0.5, 1.0), (0.9, 0.5, 0.1)), FermiOccupation(0.1, 0.2)),
    ],
    ids=("fermi", "linear", "tabulated"),
)
def test_spectrum_entries_equal_the_rate_at_each_detuning(f_upper, f_lower):
    grid = np.linspace(-1.5, 1.5, 301)
    rates = gain_spectrum(0.3, grid, 0.05, 0.08, f_upper, f_lower).rates
    for d, rate in zip(grid.tolist(), rates.tolist()):
        assert rate == bloch_rate(0.3, d, 0.05, 0.08, f_upper, f_lower)
