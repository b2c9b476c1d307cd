"""Plain-text scenario files: ``key = value`` lines mapped to SystemSpec.

Format: UTF-8, one assignment per line, ``#`` starts a comment, blank lines
ignored, nesting through dotted keys (``reservoir_u.gamma``).  Unknown and
duplicate keys are rejected with the offending line number.
"""

from __future__ import annotations

import functools
import itertools
import math

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
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        if value.imag == 0.0:
            return format(value.real, _DIGITS)
        return format(value.real, _DIGITS) + format(value.imag, "+" + _DIGITS) + "j"
    if isinstance(value, float):
        return format(value, _DIGITS)
    return str(value)


# Columns of at least this many cells take the array kernel of ``format_column``.
# Its fixed cost of about 120 us and the per-cell loop's 0.8-1 us a cell met at
# 224-320 cells (2-core Intel Xeon host, median of interleaved runs).
_KERNEL_SIZE = 256
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_E16, _E17 = 10**16, 10**17
_POWERS = range(-270, 301)  # the exponents e of 10**e the kernel scales by
_WIDTH = 25  # the longest cell, "-1.2345678901234567e-100", and its newline
# Cells per gather of the text: its index takes 8 * _WIDTH bytes a cell, and a
# 20,000-cell column gathered at once raised a classical audit's peak RSS 7%.
_GATHER_ROWS = 2048
# A cell's source bytes: the 17 digits as 4-digit groups (the first is "000" and
# the leading digit), ".-0e", the exponent sign and three exponent digits, NUL
# (the pad of short cells) and newline.
_DIGIT0, _POINT, _MINUS, _ZERO, _E, _EXP_SIGN, _EXP0, _NUL, _NEWLINE = (
    3, 20, 21, 22, 23, 24, 25, 28, 29
)


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits each."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _layout(negative: bool, kind: int, n: int) -> list[int]:
    """The source bytes that spell a cell of n significant digits, the ``%g`` way.

    ``kind`` is k + 4 for the fixed notation of the exponents -4 <= k < 17,
    21 for a two-digit and 22 for a three-digit exponent.
    """
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
    return out + [_NUL] * (_WIDTH - 1 - len(out)) + [_NEWLINE]


@functools.cache
def _kernel_tables():
    """10**e as hi + lo doubles, with hi split; the 4-digit groups; the cell layouts.

    Built from exact integers: ``float`` of an int and int / int are
    correctly rounded.
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
    groups = np.frombuffer("".join(f"{i:04d}" for i in range(10**4)).encode(), "<u4")
    layouts = np.array(
        [_layout(*key) for key in itertools.product((False, True), range(23), range(18))],
        np.intp,
    )
    return (np.array(hi), *_split(np.array(hi)), np.array(lo)), groups, layouts


def _scaled(a, k, powers):
    """Floor and fraction of a * 10**(16 - k), exact to about 1e-14.

    Dekker's product of ``a`` with the hi part is exact (Numer. Math. 18,
    224 (1971)); the lo part and the roundings add less than 1e-14.
    """
    hi, hi_high, hi_low, lo = (p.take(16 - k - _POWERS.start) for p in powers)
    a_high, a_low = _split(a)
    p = a * hi
    t = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low + a * lo
    whole = np.floor(p)
    t += p - whole
    t_floor = np.floor(t)
    return whole.astype(np.int64) + t_floor.astype(np.int64), t - t_floor


def format_column(values, kind: type = float) -> list[str]:
    """``format_number`` of each entry of a float column, cast to ``kind`` first.

    A real column cast to complex reads as its floats.  Cast to int, an
    entry that is NaN or infinite has no int and keeps its float text.

    A float column of ``_KERNEL_SIZE`` cells or more is formatted with array
    arithmetic, byte for byte as ``format(v, ".17g")``: D = round(|v| 10**(16-k))
    with k = floor(log10 |v|), its digits from a table of 4-digit groups, laid
    out by the ``%g`` rule.  A cell whose D lies within 1e-9 of a tie, zero,
    NaN, infinity and |v| outside [1e-280, 1e280] are formatted one by one.
    """
    values = np.asarray(values, dtype=float)
    if kind is int:
        return [str(int(v)) if math.isfinite(v) else format(v, _DIGITS) for v in values.tolist()]
    if len(values) < _KERNEL_SIZE:
        return list(map(format, values.tolist(), itertools.repeat(_DIGITS)))
    powers, groups, layouts = _kernel_tables()
    a = np.abs(values)
    decided = (a >= 1e-280) & (a <= 1e280)
    a[~decided] = 1.0
    with np.errstate(all="ignore"):  # a cell whose arithmetic strays fails the checks below
        k = np.floor(np.log10(a)).astype(np.int64)
        whole, frac = _scaled(a, k, powers)
        step = (whole >= _E17).astype(np.int64) - (whole < _E16)
        if step.any():
            k += step
            whole, frac = _scaled(a, k, powers)
    decided &= (whole >= _E16) & (whole < _E17) & (np.abs(frac - 0.5) > 1e-9)
    d = whole + (frac > 0.5)
    carry = d == _E17
    d[carry] = _E16
    k += carry
    words = np.empty((len(a), 8), "<u4")
    words[:, 0] = groups.take(d // _E16)
    for i, scale in enumerate((10**12, 10**8, 10**4, 1), start=1):
        words[:, i] = groups.take(d // scale % 10**4)
    words[:, 5] = np.frombuffer(b".-0e", "<u4")
    words[:, 6] = groups.take(np.abs(k))
    words[:, 7] = np.frombuffer(b"\0\n\0\0", "<u4")
    source = words.view(np.uint8)
    source[:, _EXP_SIGN] = np.where(k < 0, ord("-"), ord("+"))
    n = 17 - np.argmax(source[:, _DIGIT0 + 16 : _DIGIT0 - 1 : -1] != ord("0"), axis=1)
    kinds = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, 21, 22))
    codes = ((values < 0) * 23 + kinds) * 18 + n
    cells = []
    for start in range(0, len(codes), _GATHER_ROWS):
        at = layouts.take(codes[start : start + _GATHER_ROWS], axis=0)
        at += source.shape[1] * np.arange(len(at))[:, None]
        text = source[start : start + _GATHER_ROWS].take(at).tobytes().translate(None, b"\0")
        cells += text.decode("ascii").splitlines()
    for i in np.flatnonzero(~decided).tolist():
        cells[i] = format(values[i].item(), _DIGITS)
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
    if kind is int:
        return int(raw)
    try:
        return kind(raw.replace(" ", "")) if kind is complex else kind(raw)
    except ValueError as exc:
        noun = "a complex number" if kind is complex else "a number"
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
