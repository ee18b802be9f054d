"""File formats: trace CSV, model CSV, and the JSON/JSONL sidecars.

Times are exact rationals serialized as decimal strings whenever they
terminate (falling back to p/q), so reading a written file reproduces the
values bit for bit. Empty CSV cells mean absent.

Both CSV readers share one block reader, which transposes up to BLOCK_ROWS
rows at a time and parses each column with the parser bound once to its
type. A time cell is read as an exact numerator and denominator (a plain
decimal directly, any other form through `Fraction`), and the times go on
the lcm of their denominators as integer ticks. The writers mirror this:
`write_model` formats BLOCK_ROWS rows at a time, each column through one
formatter bound once from its type, and joins the cells into CSV rows
itself rather than through `csv.writer`, since no model cell ever needs
quoting. The plan log and violation lines render the JSON that repeats
from line to line once per distinct value.

Every reader reports a file that is not UTF-8, and a CSV row that `csv`
cannot split (a cell over its field size limit), as a SpecSyntaxError at
the file's line.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress, islice, repeat
from operator import is_not, lt
from pathlib import Path
from typing import Callable, Optional

from .analysis import AnalyzedSpec
from .ast import BOOL, INT64, UINT64, TupleType, Type
from .engine import ABSENT, EvaluationModel, TriggerReport
from .errors import NonMonotonicTime, SpecSyntaxError
from .schedule import task_key
from .sim import SensorTrace, tick_array

BLOCK_ROWS = 1024  # CSV rows parsed or written per block


# ---------------------------------------------------------------------------
# scalar cells


def _decimal_format(quantum: int) -> Optional[Callable[[int], str]]:
    """`format_time` of tick / quantum for any tick, at one decimal scale,
    when the quantum divides a power of ten; None for any other quantum.
    Trailing zeros are dropped, so each time gets its fewest digits."""
    rest, twos, fives = quantum, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    digits = max(twos, fives)
    if digits == 0:
        return str
    scale = 10 ** digits
    mult = scale // quantum

    def decimal(tick: int) -> str:
        sign = "-" if tick < 0 else ""
        whole, frac = divmod(abs(tick) * mult, scale)
        if not frac:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{str(frac).zfill(digits).rstrip('0')}"
    return decimal


def format_time(t: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else p/q."""
    decimal = _decimal_format(t.denominator)
    if decimal is None:
        return f"{t.numerator}/{t.denominator}"
    return decimal(t.numerator)


def _time_parts(cell: str) -> tuple[int, int]:
    """(numerator, denominator) of a time cell, exact but not reduced.

    A plain decimal (an optional minus, ASCII digits, an optional point
    and more digits) is read directly; every other cell goes through
    Fraction(cell), so the cells accepted and their values are Fraction's.
    A time beyond float range is rejected, since monitors read time as a
    float.
    """
    negative = cell[:1] == "-"
    body = cell[1:] if negative else cell
    whole, point, frac = body.partition(".")
    parts = None
    if body.isascii() and whole.isdigit() and (frac.isdigit() or not point):
        try:
            n = int(whole + frac)
        except ValueError:  # beyond int()'s digit limit; Fraction decides
            pass
        else:
            parts = (-n if negative else n), 10 ** len(frac)
    if parts is None:
        t = Fraction(cell)
        parts = t.numerator, t.denominator
    try:
        parts[0] / parts[1]
    except OverflowError:
        raise ValueError(f"time {cell} is beyond float range") from None
    return parts


_BOOLS = {"": ABSENT, "true": True, "false": False}
_BOOL_CELLS = {value: cell for cell, value in _BOOLS.items()}


def _parse_bool(cell: str):
    value = _BOOLS.get(cell)
    if value is None:
        raise ValueError(f"invalid Bool cell {cell!r}")
    return value


def _parse_int(cell: str):
    return int(cell) if cell else ABSENT


def _parse_float(cell: str):
    return float(cell) if cell else ABSENT


def _cell_parser(ty: Type) -> Callable[[str], object]:
    """The parser of one column's cells, bound once per type: ABSENT for an
    empty cell, else the value; a malformed cell raises ValueError."""
    if isinstance(ty, TupleType):
        parts = tuple(_cell_parser(el) for el in ty.elements)

        def parse_tuple(cell: str):
            if not cell:
                return ABSENT
            cells = cell.split(";")
            if len(cells) != len(parts):
                raise ValueError(
                    f"expected {len(parts)} tuple parts, got {cell!r}")
            return tuple(parse(c) for parse, c in zip(parts, cells))
        return parse_tuple
    if ty == BOOL:
        return _parse_bool
    if ty in (INT64, UINT64):
        return _parse_int
    return _parse_float


_NUMBERS = {_parse_float: float, _parse_int: int}


def _parse_column(parse, cells) -> list:
    """A column's cells parsed in one pass, a Bool column by one dict lookup
    per cell and a number column with no Python call per cell; a malformed
    cell raises ValueError or KeyError."""
    if parse is _parse_bool:
        return list(map(_BOOLS.__getitem__, cells))
    number = _NUMBERS.get(parse)
    if number is None:
        return list(map(parse, cells))
    if "" not in cells:
        return list(map(number, cells))
    return [number(c) if c else ABSENT for c in cells]


def _format_numbers(values) -> list:
    return [repr(v) if v is not ABSENT else "" for v in values]


def _column_formatter(ty: Type) -> Callable[[list], list]:
    """The formatter of a run of one column's values, bound once per type,
    the mirror of `_cell_parser`: an empty cell for ABSENT, else text that
    parser reads back exactly. A tuple column formats each part's column of
    its present values at once and joins them with ';'."""
    if isinstance(ty, TupleType):
        parts = [_column_formatter(el) for el in ty.elements]

        def format_tuples(values) -> list:
            present = [v for v in values if v is not ABSENT]
            cells = map(";".join, zip(*[
                fmt(column) for fmt, column in zip(parts, zip(*present))]))
            if len(present) == len(values):
                return list(cells)
            return [next(cells) if v is not ABSENT else "" for v in values]
        return format_tuples
    if ty == BOOL:
        return lambda values: list(map(_BOOL_CELLS.__getitem__, values))
    return _format_numbers


# ---------------------------------------------------------------------------
# text files


@contextmanager
def _utf8(path):
    """Reads of `path` within: a byte that is not UTF-8 becomes a
    SpecSyntaxError at its line and its column in bytes."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            at = err.start
            line = data.count(b"\n", 0, at) + 1
            column = at - data.rfind(b"\n", 0, at)
            raise SpecSyntaxError(
                f"not UTF-8 text: {err.reason} 0x{data[at]:02x}", str(path),
                line, column) from None
        raise


def read_text(path) -> str:
    """A UTF-8 text file's contents."""
    with _utf8(path):
        return Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# the block reader


def _header(reader, path, kind: str, what: str, known, complete: bool):
    """The column names after `time` in a `kind` CSV: each once, each one
    of the spec's `what`, `known`, and if `complete` all of them."""
    header = next(reader, None)
    if not header or header[0] != "time":
        raise SpecSyntaxError(f"{kind} header must start with 'time'",
                              str(path), 1, 1)
    names = header[1:]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise SpecSyntaxError(f"{kind} header repeats column '{name}'",
                                  str(path), 1, k + 2)
    unknown = set(names) - set(known)
    if unknown:
        raise SpecSyntaxError(
            f"{kind} columns are not spec {what}: {sorted(unknown)}",
            str(path), 1, 1)
    missing = set(known) - set(names) if complete else ()
    if missing:
        raise SpecSyntaxError(
            f"{kind} lacks columns for spec {what}: {sorted(missing)}",
            str(path), 1, 1)
    return names


def _parse_block(rows: list, lines, parsers: list, path) -> list:
    """Each column's cells parsed, short rows padded with empty cells. A
    row longer than the header or a malformed cell is a SpecSyntaxError
    naming its line and column, the first in row order."""
    width = len(parsers)
    widths = set(map(len, rows))
    if widths != {width}:
        for row in rows:
            row += [""] * (width - len(row))
    if max(widths, default=0) <= width:
        try:
            return [_parse_column(parse, cells)
                    for parse, cells in zip(parsers, zip(*rows))]
        except (ValueError, ZeroDivisionError, KeyError):
            pass
    for line, row in zip(lines, rows):
        if len(row) > width:
            raise SpecSyntaxError(
                f"row has {len(row)} cells, the header has {width}",
                str(path), line, width + 1)
        for column, (parse, cell) in enumerate(zip(parsers, row), start=1):
            try:
                parse(cell)
            except (ValueError, ZeroDivisionError) as err:
                raise SpecSyntaxError(f"bad cell: {err}", str(path), line,
                                      column) from err


def _read_columns(path, kind: str, what: str, types: dict, known,
                  complete: bool) -> tuple:
    """(names, lines, quantum, ticks, columns) of a `kind` CSV, its header
    checked by `_header`: the names after `time`; the line and the tick of
    each nonempty row, its time on the lcm of all time denominators; and
    each name's column of values, missing trailing cells ABSENT."""
    with _utf8(path), open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = _header(reader, path, kind, what, known, complete)
            parsers = [_time_parts,
                       *(_cell_parser(types[name]) for name in names)]
            lines: list = []
            times, *columns = parsed = [[] for _ in parsers]
            start = 2
            while block := list(islice(reader, BLOCK_ROWS)):
                rows = [row for row in block if row]
                lines.extend(n for n, row in enumerate(block, start) if row)
                for column, cells in zip(parsed, _parse_block(
                        rows, lines[len(lines) - len(rows):], parsers, path)):
                    column.extend(cells)
                start += len(block)
        except csv.Error as err:
            raise SpecSyntaxError(str(err), str(path), reader.line_num,
                                  1) from None
    quantum = math.lcm(*{d for _, d in times})
    return (names, lines, quantum, [n * (quantum // d) for n, d in times],
            columns)


# ---------------------------------------------------------------------------
# trace CSV (inputs only)


def read_trace(path, analyzed: AnalyzedSpec) -> SensorTrace:
    """Each input's non-absent samples, on the smallest quantum of their
    times. Times must strictly increase over every nonempty row, an
    all-empty one included; a column without samples is left out. The
    columns sampled at every row share one tick array, and keep their
    parsed values as they are."""
    inputs = analyzed.spec.input_names()
    names, lines, quantum, ticks, columns = _read_columns(
        path, "trace", "inputs", analyzed.types, inputs, complete=False)
    if not all(map(lt, ticks, islice(ticks, 1, None))):
        k = next(k for k in range(1, len(ticks)) if ticks[k] <= ticks[k - 1])
        raise NonMonotonicTime(
            f"{path}:{lines[k]}: time {Fraction(ticks[k], quantum)} does not "
            f"advance past {Fraction(ticks[k - 1], quantum)}")
    sparse, values = {}, {}
    for name, column in zip(names, columns):
        if ABSENT not in column:
            values[name] = column
            continue
        present = list(map(is_not, column, repeat(ABSENT)))
        if any(present):
            sparse[name] = list(compress(ticks, present))
            values[name] = list(compress(column, present))
    # a header-only trace has empty columns, which hold no ABSENT either
    if not ticks or not values:
        raise SpecSyntaxError("trace has no events", str(path), 1, 1)
    # the smallest quantum of the sampled times divides the lcm of all
    # times; a column sampled at every row has all of them
    dense = len(values) > len(sparse)
    seqs = [ticks] if dense else sparse.values()
    common = math.gcd(quantum, *(math.gcd(*seq) for seq in seqs))

    def scaled(seq):
        return tick_array([t // common for t in seq] if common > 1 else seq)

    every = scaled(ticks) if dense else None
    return SensorTrace(quantum // common, {
        name: scaled(sparse[name]) if name in sparse else every
        for name in values}, values)


# ---------------------------------------------------------------------------
# model CSV (all streams)


def write_model(path, model: EvaluationModel, analyzed: AnalyzedSpec) -> None:
    """The model's columns of every stream of `analyzed`, in spec order.

    The rows are the ones `csv.writer` writes, joined directly: no cell
    ever needs quoting, since names are identifiers, numbers are written by
    `repr`, Bools as true/false, tuples as ';'-joined parts and times as
    decimals or p/q. They are formatted and written BLOCK_ROWS at a time.
    """
    q = model.quantum
    time = _decimal_format(q) or (lambda tick: format_time(Fraction(tick, q)))
    names = analyzed.spec.stream_names()
    columns = [(_column_formatter(analyzed.types[name]), model.streams[name])
               for name in names]
    ticks = model.ticks
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["time", *names]) + "\r\n")
        for lo in range(0, len(ticks), BLOCK_ROWS):
            hi = lo + BLOCK_ROWS
            cells = [fmt(values[lo:hi]) for fmt, values in columns]
            fh.write("\r\n".join(map(",".join, zip(map(time, ticks[lo:hi]),
                                                   *cells))))
            fh.write("\r\n")


def read_model(path, analyzed: AnalyzedSpec) -> EvaluationModel:
    names, _, quantum, ticks, columns = _read_columns(
        path, "model", "streams", analyzed.types, analyzed.types,
        complete=True)
    # EvaluationModel makes the quantum canonical
    return EvaluationModel(ticks, dict(zip(names, columns)), quantum)


# ---------------------------------------------------------------------------
# JSONL sidecars


def trigger_json(report: TriggerReport) -> str:
    return json.dumps({
        "trigger": report.trigger,
        "time": float(report.time),
        "message": report.message,
    })


def write_triggers(path, reports) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(trigger_json(r) + "\n")


# the detail of a missed obligation
MISSED = "obligated task left unsatisfied"


def violation_lines(violations, missed=(), model=None, inputs=()):
    """One JSON line per violation, newline included: {kind, step, time,
    detail, stream (if any), task (if any)}; then one "schedule" line per
    missed obligation. `missed` holds (step, task) pairs flat, as
    `check_scheduled_model` spools them: a miss is timed by its step in
    `model`, and `inputs` names the bits of its task."""
    parts: dict = {}  # (kind, detail, stream, task) -> JSON around step, time
    time = text = None  # the last time rendered, shared by one step's lines
    for v in violations:
        key = (v.kind, v.detail, v.stream, v.task)
        if key not in parts:
            tail = {"detail": v.detail, "stream": v.stream, "task": v.task}
            tail = {k: x for k, x in tail.items() if x is not None}
            parts[key] = (f'{{"kind": {json.dumps(v.kind)}, "step": ',
                          json.dumps(tail)[1:])
        head, tail = parts[key]
        if v.time is not time:
            # JSON writes a finite float as its repr
            time, text = v.time, repr(float(v.time))
        yield f'{head}{v.step}, "time": {text}, {tail}\n'
    if not missed:
        return
    ticks, q = model.ticks, model.quantum
    tails: dict = {}  # task -> the line after its step's time
    last = None
    pairs = iter(missed)
    for step, task in zip(pairs, pairs):
        if step != last:
            # int / int is correctly rounded, as float(Fraction) is
            last, head = step, (f'{{"kind": "schedule", "step": {step}, '
                                f'"time": {ticks[step] / q!r}, ')
        tail = tails.get(task)
        if tail is None:
            tail = tails[task] = json.dumps(
                {"detail": MISSED, "task": task_key(task, inputs)})[1:] + "\n"
        yield head + tail


def write_plan_log(path, plans, mode, inputs) -> None:
    """Per-event audit records {time, queried, selected, mode}; `inputs`
    names the bits of the selected tasks."""
    tails: dict = {}  # (queried, selected) -> the record after its time
    with open(path, "w", encoding="utf-8") as fh:
        for p in plans:
            tail = tails.get((p.flat, p.selected))
            if tail is None:
                tail = tails[p.flat, p.selected] = json.dumps({
                    "queried": sorted(p.flat),
                    "selected": sorted(list(task_key(task, inputs))
                                       for task in p.selected),
                    "mode": mode,
                })[1:]
            # int / int is correctly rounded, as float(Fraction) is
            fh.write(f'{{"time": {p.tick / p.quantum!r}, {tail}\n')


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with _utf8(path), open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise SpecSyntaxError(err.msg, str(path), err.lineno, err.colno) from err


__all__ = [
    "BLOCK_ROWS", "MISSED", "format_time", "read_json", "read_model",
    "read_text", "read_trace", "trigger_json", "violation_lines",
    "write_json", "write_model", "write_plan_log", "write_triggers",
]
