"""CSV float cells: ``format_cells`` equals CPython's per-cell ``format(v, ".17g")``."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detuned_tls import cli
from detuned_tls.cli import format_cells

# Column lengths on both sides of the array kernel's cutoff.
SIZES = (cli._KERNEL_SIZE - 1, cli._KERNEL_SIZE)


def format_column(values) -> list[str]:
    """The cells of ``format_cells``, as text: each is 24 bytes, its text then NUL padding."""
    cells = format_cells(values)
    assert cells.dtype == np.dtype("S24")
    raw = cells.tobytes()
    return [raw[i : i + 24].rstrip(b"\0").decode("ascii") for i in range(0, len(raw), 24)]


def _reference(values) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def _assert_identical(values) -> None:
    # The cells equal the reference on both sides of the kernel's cutoff.
    for size in SIZES:
        column = np.resize(np.asarray(values, dtype=float), size)
        assert format_column(column) == _reference(column)


@given(st.lists(st.floats(), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_cells_equal_per_cell_format_on_any_floats(drawn):
    _assert_identical(drawn)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_cells_equal_per_cell_format_on_any_bit_pattern(drawn):
    _assert_identical(np.array(drawn, dtype=np.uint64).view(np.float64))


def test_cells_equal_per_cell_format_on_many_random_bit_patterns():
    bits = np.random.default_rng(15).integers(0, 2**64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert format_column(values) == _reference(values)


def test_cells_equal_per_cell_format_on_wide_magnitudes():
    rng = np.random.default_rng(16)
    values = rng.choice([-1.0, 1.0], 100_000) * 10 ** rng.uniform(-300, 300, 100_000)
    assert format_column(values) == _reference(values)


def _neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


EXPLICIT = {
    "signed zeros": [0.0, -0.0],
    "not finite": [math.nan, math.inf, -math.inf],
    "short and widest cells": [0.0, 1.0, math.nan, -math.inf, -1.2345678901234567e-100],
    "extremes": [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    "the %g switch to exponents": [1e-5, 9.9999999999999995e-05, 1e-4, -1e-4],
    "1e16 and 1e17": _neighbours(1e16) + _neighbours(1e17) + [99999999999999999.0],
    "powers of two": [2.0**e for e in range(-1074, 1024)],
    "powers of ten": [x for e in range(-323, 309) for x in _neighbours(float(f"1e{e}"))],
}


@pytest.mark.parametrize("values", EXPLICIT.values(), ids=EXPLICIT.keys())
def test_cells_equal_per_cell_format_on_edge_cases(values):
    _assert_identical(values)


@pytest.mark.parametrize("denominator", (4, 8))
def test_exact_ties_round_half_to_even(denominator):
    # m / 4 and m / 8 with m odd lie exactly halfway between two 17-digit
    # numbers; CPython rounds them half to even.
    m = np.random.default_rng(denominator).integers(4 * 10**15, 9 * 10**15, 2_000) | 1
    values = m / denominator
    assert format_column(values) == _reference(values)


def test_a_rounding_that_carries_into_the_next_power_of_ten():
    # The double 1e-14 lies below 10**-14 by less than half a unit of the
    # 17th digit, so its 17 digits 99999999999999999.8... round up to 1e-14.
    assert Fraction(1e-14) < Fraction(1, 10**14)
    _assert_identical([1e-14, -1e-14, 1e153])
    assert format_column(np.full(cli._KERNEL_SIZE, 1e-14))[0] == "1e-14"


def _significant_digits(text: str) -> int:
    """The digits of a nonzero ``%.17g`` cell, less its leading and trailing zeros."""
    return len(text.lstrip("-").split("e")[0].replace(".", "").strip("0"))


# Decimal exponents k of both notations: two- and three-digit exponents, near
# the ends of the kernel's range too, and the fixed notation of -4 <= k < 17.
# At each of them a float of one significant digit exists.
EXPONENTS = (-279, -100, -99, -8, -4, -3, -1, 0, 1, 5, 15, 16, 17, 98, 100, 279)


def _values_with_trailing_zeros() -> list[float]:
    """For each count z of trailing zeros of the 17 digits, 0 to 16, each
    exponent of EXPONENTS and each sign: a float whose cell has 17 - z digits."""
    rng = np.random.default_rng(31)
    values = []
    for n in range(1, 18):
        for k in EXPONENTS:
            for sign in ("", "-"):
                for _ in range(1000):
                    digits = str(rng.integers(10 ** (n - 1), 10**n)).rstrip("0")
                    v = float(f"{sign}{digits}e{k - len(digits) + 1}")
                    if _significant_digits(format(v, ".17g")) == n:
                        values.append(v)
                        break
                else:
                    pytest.fail(f"no float of {n} digits found at exponent {k}")
    return values


def test_cells_of_every_trailing_zero_count_equal_per_cell_format():
    # Each count ends the significant digits at a place within a 4-digit group
    # or at one of its boundaries (4, 8, 12 and 16 zeros).
    values = _values_with_trailing_zeros()
    assert len(values) >= cli._KERNEL_SIZE
    reference = _reference(values)
    zeros = {17 - _significant_digits(text) for text in reference}
    assert zeros == set(range(17))
    assert format_column(values) == reference
    assert format_column(values[::-1]) == reference[::-1]
