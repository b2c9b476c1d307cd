"""CSV tables: the writer's bytes equal a per-row ``",".join`` of each cell's text."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detuned_tls import cli, thermo
from detuned_tls.model import (
    ClassicalDrive,
    EnergyLevels,
    FermionicReservoir,
    OccupationSpec,
    SystemSpec,
)

# Row counts: none, one, and both sides of the float kernel's cutoff.
SIZES = (0, 1, cli._KERNEL_SIZE - 1, cli._KERNEL_SIZE)
# Any text that UTF-8 encodes but NUL, the writer's pad; commas and non-ASCII
# characters drawn often.  No cell holds a lone surrogate: scenario files are
# read as strict UTF-8, and the other cells are program text and numbers.
TEXT = st.text(st.one_of(st.sampled_from(",;é→μ"),
                         st.characters(codec="utf-8", exclude_characters="\0")),
               max_size=12)


def _reference(header, columns) -> bytes:
    """The table the per-row way: each row's cells joined by commas."""
    lines = [",".join(header)] + [",".join(row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _written(header, columns) -> bytes:
    return b"".join(cli._table_bytes(header, columns))


def _float_text(v: float) -> str:
    return format(v, ".17g")


def _int_text(v: float) -> str:
    return str(int(v)) if math.isfinite(v) else format(v, ".17g")


@st.composite
def _column(draw, n: int):
    """One column of n rows as (cells for the writer, the text of each row)."""
    kind = draw(st.sampled_from(
        ("float", "shared", "raw", "raw shared", "int", "text", "shared text")
    ))
    if kind in ("shared", "raw shared"):
        v = draw(st.floats())
        cells = np.array(v) if kind == "raw shared" else cli.format_cells([v]).reshape(())
        return cells, [_float_text(v)] * n
    if kind == "shared text":
        text = draw(TEXT)
        return cli._text([text]).reshape(()), [text] * n
    if kind == "text":
        texts = [draw(TEXT) for _ in range(min(n, 8))]
        texts = [texts[i % len(texts)] for i in range(n)]
        return cli._text(texts), texts
    drawn = draw(st.lists(st.floats(), min_size=1, max_size=16))
    if kind == "int":
        drawn.append(math.nan)
    values = np.resize(np.array(drawn), n)
    if kind == "int":
        return cli._int_cells(values), list(map(_int_text, values.tolist()))
    cells = values if kind == "raw" else cli.format_cells(values)  # the writer formats raw floats
    return cells, list(map(_float_text, values.tolist()))


@st.composite
def _tables(draw):
    n = draw(st.sampled_from(SIZES))
    columns, texts = [cli._ids(n)], [list(map(str, range(n)))]
    for _ in range(draw(st.integers(0, 5))):
        cells, text = draw(_column(n))
        columns.append(cells)
        texts.append(text)
    header = [f"c{j}" for j in range(len(columns))]
    return header, columns, texts


@given(_tables())
@settings(max_examples=60, deadline=None)
def test_a_table_is_its_rows_joined(table):
    header, columns, texts = table
    assert _written(header, columns) == _reference(header, texts)


def test_zero_and_one_row_tables():
    empty = np.array([], "S")
    assert _written(["a", "b"], [empty, np.array(b"x")]) == b"a,b\n"
    assert _written(["a", "b"], [np.array([b"7"]), np.array(b"")]) == b"a,b\n7,\n"


@pytest.mark.parametrize("n", (0, 1, 9, 10, 11, 99, 100, 101, 10_000, 10_001, 100_001))
def test_ids_read_their_row_numbers(n):
    assert [cell.decode() for cell in cli._ids(n).tolist()] == list(map(str, range(n)))


def test_blocks_join_into_one_table():
    n = 2 * cli._BLOCK_ROWS + 3
    values = np.random.default_rng(3).standard_normal(n)
    columns = [cli._ids(n), cli.format_cells(values), np.array(b"s")]
    texts = [list(map(str, range(n))), list(map(_float_text, values.tolist())), ["s"] * n]
    assert _written(["i", "v", "s"], columns) == _reference(["i", "v", "s"], texts)


_NAMES = ("rate", "ndot_u", "ndot_l", "edot_u", "edot_l", "edot_opt",
          "e_eff_u", "e_eff_l", "e_eff_ph")


def _flux_texts(result: thermo.SweepResult) -> list[str]:
    """The FLUX_COLUMNS cells of one audited sample, formatted on their own."""
    if result.error is not None:
        return ["nan"] * (len(cli.FLUX_COLUMNS) - 1) + ["error=" + result.error.replace(",", ";")]
    flux, regime = result.flux, result.regime
    numbers = [getattr(flux, f) for f in _NAMES] + [result.entropy_total, flux.first_law_residual]
    marks = (result.violation, regime.cooling, regime.sign_law_ok is False,
             regime.carnot_ok is False)
    flags = [f"regime={regime.regime}"] + [f for f, m in zip(cli._FLAGS, marks) if m]
    return [_float_text(float(v)) for v in numbers] + [";".join(flags)]


def _spec(occupation: OccupationSpec) -> SystemSpec:
    return SystemSpec(
        levels=EnergyLevels(1.0, 0.0),
        reservoir_u=FermionicReservoir(0.3, occupation, 1.5, 0.2),
        reservoir_l=FermionicReservoir(0.2, occupation, 0.0, 0.2),
        drive=ClassicalDrive(omega=1.2, epsilon=0.15),
    )


# e_upper below e_lower = 0 fails a sample; bare occupations give violations.
_RANGES = {"e_upper": (-0.5, 2.0), "drive.omega": (0.3, 1.9), "reservoir_u.mu": (-1.0, 2.0)}


@given(
    n=st.sampled_from(SIZES[1:]),
    seed=st.integers(0, 2**16),
    bare=st.booleans(),
    injected=st.lists(st.tuples(st.integers(0, 2**16), TEXT), max_size=4),
    every_sample_fails=st.booleans(),
)
@example(n=1, seed=0, bare=False, injected=[(0, "a, b → ü")], every_sample_fails=False)
@example(n=1, seed=0, bare=False, injected=[(0, "\U0001d707, \U0001f600")],
         every_sample_fails=True)
@settings(max_examples=40, deadline=None)
def test_audit_rows_equal_the_cells_of_each_sample(n, seed, bare, injected, every_sample_fails):
    occupation = OccupationSpec.thermal_bare() if bare else OccupationSpec.thermal_effective()
    table = thermo.sweep(_spec(occupation), _RANGES, n_samples=n, seed=seed)
    for row, text in injected:
        table.errors[row % n] = ValueError(text)
    if every_sample_fails:
        errors = [e or ValueError(f"sample {i}, ü") for i, e in enumerate(table.errors)]
        table = thermo.SweepColumns(table.keys, table.values, errors)
    columns = [cli._ids(n)] + cli._flux_columns(table)
    texts = [list(map(str, range(n)))] + [list(c) for c in zip(*map(_flux_texts, table))]
    header = ["sample_id", *cli.FLUX_COLUMNS]
    assert _written(header, columns) == _reference(header, texts)
