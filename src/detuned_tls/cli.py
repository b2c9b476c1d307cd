"""Command-line front end: scenario files in, CSV out.

Exit codes: 0 success, 1 standard output closed by its reader before the
table was written, 2 configuration error, 3 solver error (no steady state, or
a state that is not stationary), 4 counterexample search exhausted its budget.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import classical
from . import gain as gain_mod
from . import thermo
from .config import (
    _DIGITS,
    ConfigError,
    build_system_spec,
    config_from_system_spec,
    parse_config,
    resolve_parameter_key,
)
from .laser import solve_lasing
from .model import (
    SCENARIO_KEYS,
    EvolutionError,
    SteadyStateError,
    SystemSpec,
    raise_first,
    spec_columns,
    with_parameter,
)
FLUX_COLUMNS = (
    "R_ss",
    "Ndot_u",
    "Ndot_l",
    "Edot_u",
    "Edot_l",
    "Edot_b_or_P_S",
    "Eeff_u",
    "Eeff_l",
    "Eeff_ph",
    "Sdot_total",
    "law1_residual",
    "flags",
)


# Rows per block of the table writer, and cells per gather of the float kernel:
# a block of a classical audit's rows takes about 1 MB, its float cells (about
# 30,000) 5.6 MB of kernel temporaries, and the index of a gather 8 bytes a byte
# of its cells (a 20,000-cell column gathered at once raised a classical audit's
# peak RSS 7%).
_BLOCK_ROWS = 2048
# Calls of at least this many cells take the array kernel of ``format_cells``.
# The kernel takes 100-140 us plus 0.15 us a cell, the per-cell loop 0.7-1 us a
# cell: they met at 160 cells, and at 192 the kernel is 1.2x as fast (2-core
# Intel Xeon host, medians of 300 interleaved runs on classical-audit columns).
_KERNEL_SIZE = 192
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_E8, _E16, _E17 = 10**8, 10**16, 10**17
_POWERS = range(-270, 301)  # the exponents e of 10**e the kernel scales by
_EXPONENTS = range(-300, 301)  # holds every decimal exponent k of a kernel cell
_WIDTH = 24  # the longest cell, "-1.2345678901234567e-100"
_CELL = np.dtype(f"S{_WIDTH}")  # every float cell, NUL padded
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
    kinds: np.ndarray  # 18 times the notation of each k in _EXPONENTS, plus 17 digits
    layouts: np.ndarray  # the source bytes of each layout code, NUL padded
    offsets: np.ndarray  # each byte's offset of its cell's source row, for a gather block


@functools.cache
def _kernel_tables() -> _Tables:
    """The kernel's tables; the powers are built from exact integers, since
    ``float`` of an int and int / int are correctly rounded."""
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
        kinds=np.array([18 * _kind(k) + 17 for k in _EXPONENTS], np.intp),
        layouts=np.array(layouts, np.intp),
        offsets=np.repeat(np.arange(0, _SOURCE * _BLOCK_ROWS, _SOURCE), _WIDTH).reshape(-1, _WIDTH),
    )


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


def format_cells(values) -> np.ndarray:
    """``config.format_number`` of each entry of a float column.

    The cells come back as ASCII bytes, one entry each of a NumPy array of
    dtype ``_CELL``, padded with NUL.

    A call of ``_KERNEL_SIZE`` cells or more is formatted with array
    arithmetic, byte for byte as ``format(v, ".17g")``: D = round(|v| 10**(16-k))
    with k = floor(log10 |v|), its digits from a table of 4-digit groups, laid
    out by the ``%g`` rule.  A cell whose D lies within 1e-9 of a tie, zero,
    NaN, infinity and |v| outside [1e-280, 1e280] are formatted one by one.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < _KERNEL_SIZE:
        return np.array(list(map(format, values.tolist(), itertools.repeat(_DIGITS))), _CELL)
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
    pending = np.flatnonzero(source[:, _DIGIT0 + 16] == ord("0"))
    for group in groups[:0:-1]:
        zeros = tables.zeros.take(group.take(pending))
        codes[pending] -= zeros
        pending = pending[zeros == 4]
    codes += np.signbit(values) * _CODES
    # An undecided cell is laid out as one digit, then given its own text.
    undecided = np.flatnonzero(~decided).tolist()
    codes[undecided] = 18 * _kind(0) + 1
    cells = np.empty((len(a), _WIDTH), np.uint8)
    at = np.empty_like(tables.offsets[: len(a)])
    for start in range(0, len(a), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        part = at[: len(codes[block])]
        tables.layouts.take(codes[block], axis=0, out=part, mode="clip")
        part += tables.offsets[: len(part)]
        source[block].take(part, out=cells[block], mode="clip")
    cells = cells.view(_CELL).ravel()
    cells[undecided] = [format(values[i].item(), _DIGITS) for i in undecided]
    return cells


def _rows(columns: Sequence[np.ndarray], size: int):
    """A record array of ``size`` rows, laid out as the text of a row: each
    column's cell, then its separator.  The separators and the 0-d cells are
    written once, as the bytes of one row repeated, and lie outside every
    field; each 1-d column is a field, of dtype ``_CELL`` for floats.
    The view of each field comes back with it, by column index."""
    fields, template, at = {}, [], 0  # the dtype and offset of each 1-d column
    for j, c in enumerate(columns):
        kind = c.dtype if c.dtype.kind == "S" else _CELL
        if c.ndim:
            fields[j] = kind, at
        template += [c.tobytes() if c.ndim == 0 else bytes(kind.itemsize),
                     b"," if j < len(columns) - 1 else b"\n"]
        at += kind.itemsize + 1
    kinds, offsets = zip(*fields.values())
    dtype = np.dtype({"names": [f"c{j}" for j in fields], "formats": kinds, "offsets": offsets,
                      "itemsize": at})
    rows = np.frombuffer(bytearray(b"".join(template) * size), dtype)
    return rows, {j: rows[f"c{j}"] for j in fields}


def _table_bytes(header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterable[bytes]:
    """A CSV table as UTF-8 bytes: the header line, then one line per cell of ``columns[0]``.

    Each column holds one cell per row, or one 0-d cell that every row shares:
    floats, formatted here by ``format_cells``, or NumPy bytes (dtype ``S``)
    NUL padded to the column's width; NUL is no cell's text.  The 0-d float
    cells are formatted once, by one call.  The rows go in blocks of
    ``_BLOCK_ROWS`` through one record array (``_rows``), built once per
    table; one ``format_cells`` call formats a block's 1-d float columns, and
    the block's padding is stripped at once: no Python object is made per
    cell, and only one block's text is held.
    """
    columns = list(map(np.asarray, columns))
    floats = [j for j, c in enumerate(columns) if c.dtype.kind != "S"]
    shared = [j for j in floats if columns[j].ndim == 0]
    for j, cell in zip(shared, format_cells([columns[j] for j in shared])):
        columns[j] = np.array(cell)
    per_row = [j for j in floats if columns[j].ndim]
    n = len(columns[0])
    rows, views = _rows(columns, min(n, _BLOCK_ROWS))
    yield (",".join(header) + "\n").encode()
    for start in range(0, n, _BLOCK_ROWS):
        block, m = slice(start, start + _BLOCK_ROWS), min(n - start, _BLOCK_ROWS)
        cells = format_cells(np.concatenate([columns[j][block] for j in per_row] or [[]]))
        formatted = dict(zip(per_row, cells.reshape(-1, m)))
        for j, view in views.items():
            view[:m] = formatted[j] if j in formatted else columns[j][block]
        del cells, formatted  # this block's text goes before the next block's is made
        yield rows[:m].tobytes().translate(None, b"\0")


def _write_table(out: str | None, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write ``_table_bytes`` to the --out file, or else to standard output."""
    blocks = _table_bytes(header, columns)
    if out is None:
        for block in blocks:
            sys.stdout.write(block.decode("utf-8"))
        return
    try:
        with open(out, "wb") as file:
            file.writelines(blocks)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out!r}: {exc}") from exc


def _text(cells: Iterable[str]) -> np.ndarray:
    """A column of text cells, encoded as UTF-8."""
    return np.array([cell.encode("utf-8") for cell in cells], "S")


def _ids(n: int) -> np.ndarray:
    """The sample_id column: 0 to n - 1.

    The ids of d digits, 10**(d-1) to 10**d - 1, are one run of rows; their
    digits are taken off by integer division, the last first.
    """
    width = len(str(n))
    cells = np.zeros((n, width), np.uint8)
    for d in range(1, width + 1):
        start, stop = (10 ** (d - 1) if d > 1 else 0), min(10**d, n)
        ids = np.arange(start, stop)
        for column in range(d - 1, -1, -1):
            rest = ids // 10
            cells[start:stop, column] = ids - rest * 10 + ord("0")
            ids = rest
    return cells.view(f"S{width}").ravel()


def _int_cells(values: np.ndarray) -> np.ndarray:
    """A column of an int-typed key: each float's int, or its float text where it has none."""
    return np.array([str(int(v)) if math.isfinite(v) else format(v, _DIGITS)
                     for v in values.tolist()], "S")


def _load_spec(args: argparse.Namespace) -> SystemSpec:
    """The scenario of --config, with any --fock-cutoff override applied to its cavity."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    spec = build_system_spec(parse_config(text))
    if getattr(args, "fock_cutoff", None) is not None and spec.cavity is not None:
        spec = with_parameter(spec, "cavity.fock_cutoff", args.fock_cutoff)
    return spec


_SECTIONS = {"classical": (("drive",), "a drive section"),
             "quantum": (("cavity", "bath"), "cavity and bath sections")}


def _require_sections(spec: SystemSpec, treatment: str, command: str | None = None) -> None:
    """ConfigError unless ``spec`` has the sections that ``treatment`` solves with.

    The message names ``command``, or else every command of the treatment.
    """
    names, sections = _SECTIONS[treatment]
    if any(getattr(spec, name) is None for name in names):
        subject = f"{command} command requires" if command else f"{treatment} commands require"
        raise ConfigError(f"{subject} {sections}")


def _parse_points(text: str, what: str, form: str) -> tuple[float, float, int]:
    """``lo:hi:n`` with n >= 1 as (lo, hi, n); ``what`` and ``form`` word the errors."""
    try:
        lo, hi, n = text.split(":")
        bounds = (float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigError(f"bad {what} (expected {form})") from exc
    if bounds[2] < 1:
        raise ConfigError(f"bad {what}: n must be at least 1")
    return bounds


def _parse_sweep(arg: str) -> tuple[str, tuple[float, float, int]]:
    key, _, rng = arg.partition("=")
    return resolve_parameter_key(key.strip()), _parse_points(
        rng, f"sweep spec {arg!r}", "key=lo:hi:n"
    )


def _finite_bounds(bounds: tuple, what: str) -> tuple:
    """``bounds`` if its lo and hi are finite; ``what`` words the error."""
    if not (math.isfinite(bounds[0]) and math.isfinite(bounds[1])):
        raise ConfigError(f"bad {what}: bounds must be finite")
    return bounds


def _parse_range(arg: str) -> tuple[str, tuple[float, float]]:
    try:
        key, _, rng = arg.partition("=")
        lo, hi = rng.split(":")
        bounds = (float(lo), float(hi))
    except ValueError as exc:
        raise ConfigError(f"bad range spec {arg!r} (expected key=lo:hi)") from exc
    key, what = resolve_parameter_key(key.strip()), f"range spec {arg!r}"
    lo, hi = _finite_bounds(bounds, what)
    if lo > hi:
        raise ConfigError(f"bad {what}: lo must not exceed hi")
    return key, bounds


def _ranges(args: argparse.Namespace) -> dict[str, tuple]:
    """The one place that turns sampling flags into sampling ranges.

    --sweep key=lo:hi:n gives a grid axis, --range key=lo:hi a random
    interval.  ``audit`` samples --range keys only with --random N >= 1, and
    never together with --sweep; ``find-violation`` draws --max-samples
    N >= 1.  A key may be sampled once.
    """
    sweeps = getattr(args, "sweep", None) or []
    intervals = getattr(args, "range", None) or []
    if args.command == "audit":
        if args.random is None and intervals:
            raise ConfigError("--range requires --random N")
        if args.random is not None:
            if args.random < 1:
                raise ConfigError("--random N requires N >= 1")
            if sweeps:
                raise ConfigError("--random cannot be combined with --sweep")
            if not intervals:
                raise ConfigError("--random requires at least one --range key=lo:hi")
    if args.command == "find-violation" and args.max_samples < 1:
        raise ConfigError("--max-samples N requires N >= 1")
    ranges: dict[str, tuple] = {}
    for key, bounds in [_parse_sweep(a) for a in sweeps] + [_parse_range(a) for a in intervals]:
        if key in ranges:
            raise ConfigError(f"parameter {key!r} is sampled more than once")
        ranges[key] = bounds
    return ranges


def _param_columns(
    base: SystemSpec, ranges: dict[str, tuple], table: np.ndarray
) -> tuple[list[str], list[np.ndarray]]:
    """Parameter columns: the sampled columns of ``table`` overlaid on the base scenario's cells.

    The overlay is textual, so rows whose parameters do not form a valid
    spec still serialize.  A sampled cell shows the value as the solve used
    it, cast to its key's type; the base scenario's cell is every row's.
    """
    base_cfg = config_from_system_spec(base)
    keys = [k for k in SCENARIO_KEYS if k in base_cfg or k in ranges]
    sampled = dict(zip(ranges, table.T))
    return keys, [
        (_int_cells(sampled[k]) if SCENARIO_KEYS[k] is int else sampled[k])
        if k in sampled else _text([base_cfg.get(k, "")]).reshape(())
        for k in keys
    ]


_FLAGS = ("violation", "cooling", "sign_law_violated", "carnot_violated")


def _flags_text(regime: str, marks: int) -> str:
    """The flags cell: the regime, then each flag whose bit is set in ``marks``."""
    return ";".join([f"regime={regime}"] + [f for bit, f in enumerate(_FLAGS) if marks >> bit & 1])


# The flags cell of regime r and flag bits m is entry 16 r + m.
_FLAGS_CELLS = [_flags_text(r, m) for r in thermo.REGIMES for m in range(1 << len(_FLAGS))]


def _flux_columns(table: thermo.SweepColumns) -> list[np.ndarray]:
    """The FLUX_COLUMNS cells; a failed sample reads nan and its error."""
    n = len(table)
    failed = []
    if table.errors.count(None) < n:
        failed = [i for i, error in enumerate(table.errors) if error is not None]
    columns, flags = [math.nan] * (len(FLUX_COLUMNS) - 1), np.zeros(n, np.intp)
    if table.flux is not None:
        flux, regime = table.flux, table.regime
        names = ("rate", "ndot_u", "ndot_l", "edot_u", "edot_l", "edot_opt",
                 "e_eff_u", "e_eff_l", "e_eff_ph")
        columns = [getattr(flux, f) for f in names]
        columns += [table.entropy_total, flux.first_law_residual]
        if failed:
            ok = np.bincount(failed, minlength=n) == 0
            columns = [np.where(ok, column, math.nan) for column in columns]
        # The checks are None where they do not apply; only False is a violation.
        checks = (table.entropy_total < -thermo.VIOLATION_TOL, regime.cooling,
                  regime.sign_law_ok == False, regime.carnot_ok == False)  # noqa: E712
        labels = np.broadcast_to(regime.regime, n)
        for i, label in enumerate(thermo.REGIMES):
            flags += (labels == label) * (i << len(_FLAGS))
        for bit, check in enumerate(checks):
            flags += np.broadcast_to(check, n).astype(np.intp) << bit
    errors = ["error=" + thermo.describe(table.errors[i]).replace(",", ";") for i in failed]
    flags[failed] = len(_FLAGS_CELLS) + np.arange(len(failed))
    # Only the cells in use are encoded, so the column is as wide as its longest.
    used = np.bincount(flags, minlength=len(_FLAGS_CELLS) + len(failed)) > 0
    cells = _text(itertools.compress(_FLAGS_CELLS + errors, used))
    return columns + [cells.take(np.cumsum(used).take(flags) - 1)]


def _write_audit(args: argparse.Namespace, ids, keys, param_cells, table) -> None:
    columns = [ids] + param_cells + _flux_columns(table)
    _write_table(args.out, ["sample_id"] + keys + list(FLUX_COLUMNS), columns)


def _cmd_audit(args: argparse.Namespace, solve: str | None = None) -> int:
    """Audit the sampled points, one row each.

    ``classical-ss`` and ``quantum-ss`` pass their treatment as ``solve``;
    a point that fails is then the command's error, not an error row.
    """
    base = _load_spec(args)
    treatment = solve or args.treatment or ("quantum" if base.cavity is not None else "classical")
    if treatment == "classical" and getattr(args, "fock_cutoff", None) is not None:
        raise ConfigError("--fock-cutoff applies to the quantum treatment only")
    _require_sections(base, treatment)
    ranges = _ranges(args)
    table = thermo.sweep(base, ranges, treatment, getattr(args, "random", None),
                         getattr(args, "seed", 0))
    if solve:
        raise_first(table.errors)
    keys, param_cells = _param_columns(base, ranges, table.values)
    _write_audit(args, _ids(len(table)), keys, param_cells, table)
    return 0


def _evolve_times(args: argparse.Namespace) -> list[float]:
    """The --n-store evenly spaced times from 0 to --t-final.

    Each time is the running sum of the segments before it, so the t column
    reads the same whatever advances the state.
    """
    if args.n_store < 2:
        raise ConfigError("--n-store must be at least 2 (the initial and the final state)")
    if not (math.isfinite(args.t_final) and args.t_final >= 0):
        raise ConfigError(f"--t-final must be finite and non-negative, not {args.t_final!r}")
    seg = args.t_final / (args.n_store - 1)
    return list(itertools.accumulate(itertools.repeat(seg, args.n_store - 1), initial=0.0))


def _cmd_classical_evolve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    _require_sections(spec, "classical")
    times = _evolve_times(args)
    state0 = classical.BlochState(args.sigma_uu0, args.sigma_ll0, 0.0 + 0.0j)
    rows = classical.trajectory(state0, spec, args.t_final, args.n_store)
    header = ["t", "sigma_uu", "sigma_ll", "re_sigma_ul", "im_sigma_ul"]
    _write_table(args.out, header, [times, *rows.T])
    return 0


def _cmd_quantum_evolve(args: argparse.Namespace) -> int:
    from .quantum import (
        HilbertLayout,
        build_sector_liouvillian,
        stacked_observables,
        thermal_state,
        trajectory,
    )

    spec = _load_spec(args)
    _require_sections(spec, "quantum")
    times = _evolve_times(args)
    layout = HilbertLayout(spec.cavity.fock_cutoff)
    liouv = build_sector_liouvillian(layout, spec)
    states = trajectory(thermal_state(layout, 0.0, 0.0, 0.0), liouv, args.t_final, args.n_store)
    obs = stacked_observables(states, liouv.pattern, spec)
    columns = [times, obs.sigma_uu, obs.sigma_ll, obs.n_ph, obs.rate]
    _write_table(args.out, ["t", "sigma_uu", "sigma_ll", "n_ph", "rate"], columns)
    return 0


def _cmd_laser(args: argparse.Namespace) -> int:
    base = _load_spec(args)
    _require_sections(base, "quantum", "laser")
    ranges = _ranges(args)
    keys, table = thermo.sample_table(ranges)
    names, param_cells = _param_columns(base, ranges, table)
    spec = spec_columns(base, keys, table)
    sol = solve_lasing(spec)
    raise_first(spec.errors)
    columns = [sol.omega, abs(sol.a_ss), sol.intensity, np.where(sol.above_threshold, b"1", b"0")]
    header = ["sample_id"] + names + ["omega", "a_ss", "intensity", "above_threshold"]
    _write_table(args.out, header, [_ids(len(table)), *param_cells, *columns])
    return 0


def _parse_occupation_arg(text: str) -> gain_mod.SubbandOccupation:
    kind, _, params = text.partition(":")
    fields: dict[str, float] = {}
    if params:
        for item in params.split(","):
            name, _, value = item.partition("=")
            if not value:
                raise ConfigError(f"bad occupation parameter {item!r}")
            fields[name.strip()] = float(value)
    try:
        if kind == "fermi":
            occupation = gain_mod.FermiOccupation(temperature=fields.pop("T"), mu=fields.pop("mu"))
        elif kind == "linear":
            occupation = gain_mod.LinearOccupation(f0=fields.pop("f0"), slope=fields.pop("slope"))
        else:
            raise ConfigError(f"unknown occupation form {kind!r} (use fermi:... or linear:...)")
    except KeyError as exc:
        raise ConfigError(f"occupation {text!r} is missing parameter {exc}") from exc
    if fields:
        raise ConfigError(f"occupation {text!r} has unknown parameter(s) {', '.join(fields)}")
    return occupation


def _cmd_bloch_gain(args: argparse.Namespace) -> int:
    if args.equal_occupations:
        f_up = f_low = _parse_occupation_arg(args.equal_occupations)
    elif args.f_upper and args.f_lower:
        f_up, f_low = _parse_occupation_arg(args.f_upper), _parse_occupation_arg(args.f_lower)
    else:
        raise ConfigError("provide --equal-occupations or both --f-upper and --f-lower")
    what = f"grid spec {args.grid!r}"
    points = _finite_bounds(_parse_points(args.grid, what, "lo:hi:n"), what)
    grid = thermo.sample_table({"delta": points})[1][:, 0]
    rates = gain_mod.bloch_rate(args.e_k0, grid, args.gamma_u, args.gamma_l, f_up, f_low)
    _write_table(args.out, ["sample_id", "delta", "rate"], [_ids(len(grid)), grid, rates])
    return 0


def _cmd_find_violation(args: argparse.Namespace) -> int:
    result = thermo.find_violation_with_bare_energies(
        ranges=_ranges(args) or None,
        seed=args.seed,
        base=_load_spec(args) if args.config else None,
        max_samples=args.max_samples,
    )
    if result is None:
        sys.stderr.write("no second-law violation found within the sample budget\n")
        return 4
    table = thermo.SweepColumns((), np.empty((1, 0)), [None], result.flux,
                                result.entropy_total, result.regime)
    keys, cells = _param_columns(result.spec, {}, table.values)
    _write_audit(args, _text([str(result.index)]), keys, cells, table)
    return 0


@functools.cache  # every ``append`` option defaults to None: no list is shared between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detuned-tls",
        description="Steady states, fluxes, and thermodynamic audits of a "
        "detuned two-level emitter coupled to reservoirs and an optical mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True, seed: bool = False,
               cutoff: bool = False) -> None:
        p.add_argument("--config", required=config_required, help="scenario file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
        if cutoff:
            p.add_argument("--fock-cutoff", type=int, default=None, help="override Fock cutoff")

    def sweep_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sweep", action="append", metavar="KEY=LO:HI:N")

    p = sub.add_parser("classical-ss", help="classical steady state and fluxes")
    common(p)
    sweep_flag(p)

    def evolve_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--t-final", type=float, required=True)
        p.add_argument("--n-store", type=int, default=51, help="number of stored rows")

    p = sub.add_parser("classical-evolve", help="classical time evolution")
    common(p)
    evolve_flags(p)
    p.add_argument("--sigma-uu0", type=float, default=0.0)
    p.add_argument("--sigma-ll0", type=float, default=0.0)

    p = sub.add_parser("quantum-ss", help="quantum steady state and fluxes")
    common(p, cutoff=True)
    sweep_flag(p)

    p = sub.add_parser("quantum-evolve", help="quantum time evolution from vacuum")
    common(p, cutoff=True)
    evolve_flags(p)

    p = sub.add_parser("laser", help="mean-field lasing solution")
    common(p)
    sweep_flag(p)

    p = sub.add_parser("bloch-gain", help="net transition rate over a detuning grid")
    p.add_argument("--out", default=None)
    p.add_argument("--e-k0", type=float, required=True, help="in-plane energy")
    p.add_argument("--gamma-u", type=float, required=True)
    p.add_argument("--gamma-l", type=float, required=True)
    p.add_argument("--grid", required=True, metavar="LO:HI:N")
    p.add_argument("--equal-occupations", default=None, metavar="SPEC")
    p.add_argument("--f-upper", default=None, metavar="SPEC")
    p.add_argument("--f-lower", default=None, metavar="SPEC")

    p = sub.add_parser("audit", help="entropy audit over a parameter sweep")
    common(p, seed=True, cutoff=True)
    p.add_argument("--treatment", choices=("classical", "quantum"), default=None)
    sweep_flag(p)
    p.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--range", action="append", metavar="KEY=LO:HI")

    p = sub.add_parser(
        "find-violation", help="search for a second-law violation with bare occupations"
    )
    common(p, config_required=False, seed=True)
    p.add_argument("--max-samples", type=int, default=2000)
    p.add_argument("--range", action="append", metavar="KEY=LO:HI")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classical-ss": lambda a: _cmd_audit(a, "classical"),
        "classical-evolve": _cmd_classical_evolve,
        "quantum-ss": lambda a: _cmd_audit(a, "quantum"),
        "quantum-evolve": _cmd_quantum_evolve,
        "laser": _cmd_laser,
        "bloch-gain": _cmd_bloch_gain,
        "audit": _cmd_audit,
        "find-violation": _cmd_find_violation,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone (``| head``): what is left of the output goes to
        # the null device, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SteadyStateError, EvolutionError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
