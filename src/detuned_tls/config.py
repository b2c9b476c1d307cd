"""Plain-text scenario files: ``key = value`` lines mapped to SystemSpec.

Format: UTF-8, one assignment per line, ``#`` starts a comment, blank lines
ignored, nesting through dotted keys (``reservoir_u.gamma``).  Unknown and
duplicate keys are rejected with the offending line number.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .model import (
    OCC_BARE,
    OCC_EFFECTIVE,
    OCC_FIXED,
    BosonicBath,
    CavitySpec,
    ClassicalDrive,
    EnergyLevels,
    FermionicReservoir,
    OccupationSpec,
    SCENARIO_KEYS,
    SystemSpec,
)

class ConfigError(ValueError):
    """Malformed scenario file; carries the line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def parse_config(text: str) -> dict[str, str]:
    """Parse a scenario document, rejecting unknown or duplicate keys.

    Values are kept as their stripped text, in the canonical key order of
    ``SCENARIO_KEYS``.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCENARIO_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        values[key] = value
    return {k: values[k] for k in SCENARIO_KEYS if k in values}


# Canonical number text: 17 significant digits read back as the same float.
_DIGITS = ".17g"


def format_number(value) -> str:
    """Canonical text for config values and CSV cells."""
    if isinstance(value, complex):
        if value.imag == 0.0:
            return format(value.real, _DIGITS)
        return format(value.real, _DIGITS) + format(value.imag, "+" + _DIGITS) + "j"
    if isinstance(value, float):
        return format(value, _DIGITS)
    return str(value)


# Columns of at least this many cells take the array kernel of ``format_cells``.
# The kernel takes 100-140 us plus 0.15 us a cell, the per-cell loop 0.7-1 us a
# cell: they met at 160 cells, and at 192 the kernel is 1.2x as fast (2-core
# Intel Xeon host, medians of 300 interleaved runs on classical-audit columns).
_KERNEL_SIZE = 192
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_E8, _E16, _E17 = 10**8, 10**16, 10**17
_POWERS = range(-270, 301)  # the exponents e of 10**e the kernel scales by
_EXPONENTS = range(-300, 301)  # holds every decimal exponent k of a kernel cell
_WIDTH = 24  # the longest cell, "-1.2345678901234567e-100"
# Cells per gather of the text: its index takes 8 bytes a byte of the cell, and a
# 20,000-cell column gathered at once raised a classical audit's peak RSS 7%.
_GATHER_ROWS = 2048
# A cell's source bytes: the 17 digits as 4-digit groups (the first is "000" and
# the leading digit), ".-0e", the exponent sign and three exponent digits, and
# NUL, the pad of short cells.
_DIGIT0, _POINT, _MINUS, _ZERO, _E, _EXP_SIGN, _EXP0, _NUL = 3, 20, 21, 22, 23, 24, 25, 28
_SOURCE = 32  # source bytes a cell
_CODES = 23 * 18  # layout codes of each sign: 23 notations times 0 to 17 digits


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits each."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _kind(k: int) -> int:
    """k + 4 for the fixed notation of -4 <= k < 17, 21 for a two-digit and 22
    for a three-digit exponent."""
    return k + 4 if -4 <= k < 17 else 21 if abs(k) < 100 else 22


def _layout(negative: bool, kind: int, n: int) -> list[int]:
    """The source bytes that spell a cell of n significant digits, the ``%g`` way."""
    digits = [_DIGIT0 + i for i in range(n)]
    out = [_MINUS] if negative else []
    k = kind - 4
    if kind > 20:
        out += digits[:1] + ([_POINT] + digits[1:] if n > 1 else []) + [_E, _EXP_SIGN]
        out += [_EXP0 + i for i in range(0 if kind == 22 else 1, 3)]
    elif k < 0:
        out += [_ZERO, _POINT] + [_ZERO] * (-k - 1) + digits
    else:
        digits += [_DIGIT0 + i for i in range(n, k + 1)]  # the integer part keeps its zeros
        out += digits[: k + 1] + ([_POINT] + digits[k + 1 :] if n > k + 1 else [])
    return out + [_NUL] * (_WIDTH - len(out))


class _Tables(NamedTuple):
    powers: tuple  # 10**e as hi, hi split in two, and lo, for e in _POWERS
    groups: np.ndarray  # the text of 0 to 9999 as 4-digit groups
    zeros: np.ndarray  # the trailing zeros of each group
    exponents: np.ndarray  # the sign and three digits of each k in _EXPONENTS
    kinds: np.ndarray  # 18 times the notation of each k in _EXPONENTS
    layouts: np.ndarray  # the source bytes of each layout code, NUL padded
    lengths: np.ndarray  # the length of each layout


@functools.cache
def _kernel_tables() -> _Tables:
    """The kernel's tables.

    The powers are built from exact integers: ``float`` of an int and
    int / int are correctly rounded.
    """
    hi, lo = [], []
    for e in _POWERS:
        if e >= 0:
            hi.append(float(10**e))
            lo.append(float(10**e - int(hi[-1])))
        else:
            hi.append(1 / 10**-e)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-e) / (den * 10**-e))
    text = [f"{i:04d}" for i in range(10**4)]
    layouts = [_layout(*key) for key in itertools.product((False, True), range(23), range(18))]
    return _Tables(
        powers=(np.array(hi), *_split(np.array(hi)), np.array(lo)),
        groups=np.frombuffer("".join(text).encode(), "<u4"),
        zeros=np.array([len(t) - len(t.rstrip("0")) for t in text], np.intp),
        exponents=np.frombuffer("".join(f"{k:+04d}" for k in _EXPONENTS).encode(), "<u4"),
        kinds=np.array([18 * _kind(k) for k in _EXPONENTS], np.intp),
        layouts=np.array(layouts, np.intp),
        lengths=np.array([_WIDTH - layout.count(_NUL) for layout in layouts]),
    )


# Up to 0.55 MB a width: a classical audit's float columns have four widths.
@functools.lru_cache(maxsize=8)
def _gather_tables(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The layouts cut to ``width`` bytes, and the offset of each cell's source
    row for each byte of a gather block, both contiguous: NumPy then adds and
    gathers in one pass over the block, not a row at a time.  Building them
    for each column took longer than the gather."""
    offsets = np.repeat(np.arange(0, _SOURCE * _GATHER_ROWS, _SOURCE), width)
    return np.ascontiguousarray(_kernel_tables().layouts[:, :width]), offsets.reshape(-1, width)


def _scaled(a, k, powers):
    """Floor and fraction of a * 10**(16 - k), exact to about 1e-14.

    Dekker's product of ``a`` with the hi part is exact (Numer. Math. 18,
    224 (1971)); the lo part and the roundings add less than 1e-14.
    """
    at = 16 - _POWERS.start - k
    hi, hi_high, hi_low, lo = (p.take(at) for p in powers)
    a_high, a_low = _split(a)
    p = a * hi
    t = a_high * hi_high
    t -= p
    t += a_high * hi_low
    t += a_low * hi_high
    t += a_low * hi_low
    t += a * lo
    whole = np.floor(p)
    p -= whole
    t += p
    t_floor = np.floor(t)
    t -= t_floor
    whole = whole.astype(np.int64)
    whole += t_floor.astype(np.int64)
    return whole, t


def format_cells(values, kind: type = float) -> np.ndarray:
    """``format_number`` of each entry of a float column, cast to ``kind`` first.

    The cells come back as ASCII bytes, one entry of a NumPy ``S`` array
    as wide as the widest cell, the others padded with NUL.  A real column
    cast to complex reads as its floats.  Cast to int, an entry that is NaN
    or infinite has no int and keeps its float text.

    A float column of ``_KERNEL_SIZE`` cells or more is formatted with array
    arithmetic, byte for byte as ``format(v, ".17g")``: D = round(|v| 10**(16-k))
    with k = floor(log10 |v|), its digits from a table of 4-digit groups, laid
    out by the ``%g`` rule.  A cell whose D lies within 1e-9 of a tie, zero,
    NaN, infinity and |v| outside [1e-280, 1e280] are formatted one by one.
    """
    values = np.asarray(values, dtype=float)
    if kind is int:
        cells = [str(int(v)) if math.isfinite(v) else format(v, _DIGITS) for v in values.tolist()]
        return np.array(cells, "S")
    if len(values) < _KERNEL_SIZE:
        return np.array(list(map(format, values.tolist(), itertools.repeat(_DIGITS))), "S")
    tables = _kernel_tables()
    a = np.abs(values)
    decided = (a >= 1e-280) & (a <= 1e280)
    a[~decided] = 1.0
    with np.errstate(all="ignore"):  # a cell whose arithmetic strays fails the checks below
        k = np.floor(np.log10(a)).astype(np.int64)
        whole, frac = _scaled(a, k, tables.powers)
        step = (whole >= _E17).astype(np.int64) - (whole < _E16)
        if step.any():
            k += step
            whole, frac = _scaled(a, k, tables.powers)
    decided &= (whole >= _E16) & (whole < _E17) & (np.abs(frac - 0.5) > 1e-9)
    d = whole + (frac > 0.5)
    carry = d == _E17
    d[carry] = _E16
    k += carry
    # The leading digit and four 4-digit groups.  NumPy divides an int64 by a
    # scalar fast, but takes four times as long for ``%``: a remainder is x - q s.
    high = d // _E8
    low = d - high * _E8
    lead = high // _E8
    high -= lead * _E8
    groups = [lead]
    for half in (high, low):
        quotient = half // 10**4
        groups += [quotient, half - quotient * 10**4]
    words = np.empty((len(a), _SOURCE // 4), "<u4")
    for i, group in enumerate(groups):
        words[:, i] = tables.groups.take(group)
    words[:, 5] = np.frombuffer(b".-0e", "<u4")
    words[:, 6] = tables.exponents.take(k - _EXPONENTS.start)
    words[:, 7] = 0  # NUL pads short cells
    source = words.view(np.uint8)
    # n significant digits: 17 less the trailing zeros, counted a group at a
    # time over the cells whose last digit is 0.
    codes = tables.kinds.take(k - _EXPONENTS.start)
    codes += 17
    pending = np.flatnonzero(source[:, _DIGIT0 + 16] == ord("0"))
    for group in groups[:0:-1]:
        zeros = tables.zeros.take(group.take(pending))
        codes[pending] -= zeros
        pending = pending[zeros == 4]
    codes += np.signbit(values) * _CODES
    # The column is as wide as its widest cell; an undecided cell is laid out
    # as one digit, then given its own text.
    undecided = np.flatnonzero(~decided).tolist()
    texts = [format(values[i].item(), _DIGITS).encode() for i in undecided]
    codes[undecided] = 18 * _kind(0) + 1
    width = max([tables.lengths.take(codes).max(), *map(len, texts)])
    layouts, offsets = _gather_tables(width)
    cells = np.empty((len(a), width), np.uint8)
    at = np.empty_like(offsets[: len(a)])
    for start in range(0, len(a), _GATHER_ROWS):
        block = slice(start, start + _GATHER_ROWS)
        part = at[: len(codes[block])]
        layouts.take(codes[block], axis=0, out=part, mode="clip")
        part += offsets[: len(part)]
        source[block].take(part, out=cells[block], mode="clip")
    cells = cells.view(f"S{width}").ravel()
    cells[undecided] = texts
    return cells


def _parse(config: dict[str, str], key: str):
    """The value of ``key``, parsed as its type in SCENARIO_KEYS."""
    raw = config[key]
    kind = SCENARIO_KEYS[key]
    if kind is OccupationSpec:
        if raw in (OCC_BARE, OCC_EFFECTIVE):
            return OccupationSpec(raw)
        if raw.startswith("fixed:"):
            try:
                return OccupationSpec.fixed(float(raw.split(":", 1)[1]))
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: bad fixed occupation {raw!r}") from exc
        raise ConfigError(
            f"key {key!r}: occupation must be 'bare', 'effective', or 'fixed:<value>'"
        )
    try:
        return kind(raw.replace(" ", "")) if kind is complex else kind(raw)
    except ValueError as exc:
        noun = {int: "an integer", complex: "a complex number"}.get(kind, "a number")
        raise ConfigError(f"key {key!r}: not {noun}: {raw!r}") from exc


# Scenario sections in the order they are read; drive, cavity and bath may be
# left out as a whole.  Keys with a default may be left out of a section.
_SECTIONS = {
    "levels": EnergyLevels,
    "reservoir_u": FermionicReservoir,
    "reservoir_l": FermionicReservoir,
    "drive": ClassicalDrive,
    "cavity": CavitySpec,
    "bath": BosonicBath,
}
_OPTIONAL_SECTIONS = ("drive", "cavity", "bath")
_DEFAULTED = ("cavity.fock_cutoff",)


def build_system_spec(config: dict[str, str]) -> SystemSpec:
    """Build a SystemSpec from the keys present in the scenario.

    The drive, cavity, and bath sections are optional as a whole but must be
    complete when any of their keys appears.  Semantic range errors from the
    parameter types are re-raised as ConfigError.
    """
    sections = {}
    for group, section in _SECTIONS.items():
        keys = [k for k in SCENARIO_KEYS if (k.rpartition(".")[0] or "levels") == group]
        if group in _OPTIONAL_SECTIONS and not any(k in config for k in keys):
            continue
        missing = [k for k in keys if k not in config and k not in _DEFAULTED]
        if missing:
            raise ConfigError(f"{group} section incomplete: missing {', '.join(missing)}")
        try:
            sections[group] = section(
                **{k.rpartition(".")[2]: _parse(config, k) for k in keys if k in config}
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return SystemSpec(**sections)


def config_from_system_spec(spec: SystemSpec) -> dict[str, str]:
    """Canonical scenario text for a SystemSpec (inverse of build)."""
    values: dict[str, str] = {}
    for key, kind in SCENARIO_KEYS.items():
        group, _, name = key.rpartition(".")
        section = getattr(spec, group or "levels")
        if section is None:
            continue
        value = getattr(section, name)
        if kind is not OccupationSpec:
            values[key] = format_number(kind(value))
        elif value.kind == OCC_FIXED:
            values[key] = f"fixed:{format_number(value.value)}"
        else:
            values[key] = value.kind
    return values


def resolve_parameter_key(name: str) -> str:
    """Resolve a possibly-unqualified sweep key to its canonical dotted form.

    A bare leaf name is accepted when it identifies exactly one numeric
    parameter (``omega_cav`` -> ``cavity.omega_cav``).
    """
    numeric = [k for k, kind in SCENARIO_KEYS.items() if kind is not OccupationSpec]
    if name in numeric:
        return name
    matches = [k for k in numeric if k.split(".")[-1] == name]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ConfigError(f"unknown parameter {name!r}")
    raise ConfigError(f"parameter {name!r} is ambiguous: {', '.join(matches)}")
