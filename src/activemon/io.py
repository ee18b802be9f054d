"""File formats: trace CSV, model CSV, and the JSON/JSONL sidecars.

Times are exact rationals serialized as decimal strings whenever they
terminate (falling back to p/q), so reading a written file reproduces the
values bit for bit. Empty CSV cells mean absent.

Both CSV readers share one block reader, which holds up to BLOCK_ROWS raw
rows at a time, transposes them and parses each column with the parser
bound once to its type, a tuple column once per distinct cell. A block
whose time cells are all unsigned plain ASCII decimals becomes integer
ticks on 10**(its most fraction digits) at once; any other block reads
each time cell through `Fraction(cell)`. Either way each block's times
become integer ticks on the least quantum of that block. A reader keeps
every tick on the lcm of the blocks' quanta so far and scales what it holds
only when that lcm grows. Line numbers live only as long as their block, as
a range when the block has no blank row, so nothing per row outlives its
block but the values and ticks kept; a bad cell, or a time that does not
advance (`engine.backward_rows`, which `check` shares), takes its line from
there. `read_model_blocks` hands a model's blocks out as they are parsed,
for `check` to verify each one as it is read; `read_model` keeps them all.
The writers mirror this:
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
import re
import sys
from array import array
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress, islice, repeat
from operator import is_not
from pathlib import Path
from typing import Callable, Optional

from .analysis import AnalyzedSpec
from .ast import BOOL, INT64, UINT64, TupleType, Type
from .engine import (ABSENT, EvaluationModel, Timeline, TriggerReport,
                     backward_rows, extend_ticks)
from .errors import NonMonotonicTime, SpecSyntaxError
from .schedule import task_key
from .sim import SensorTrace

BLOCK_ROWS = 256  # CSV rows parsed or written per block


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
    """(numerator, denominator) of a time cell, read by Fraction(cell), so
    the cells accepted and their values are Fraction's. A time beyond float
    range is rejected, since monitors read time as a float."""
    t = Fraction(cell)
    try:
        float(t)
    except OverflowError:
        raise ValueError(f"time {cell} is beyond float range") from None
    return t.numerator, t.denominator


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
    per cell, a number column with no Python call per cell, and a tuple
    column once per distinct cell, equal cells sharing one value; a
    malformed cell raises ValueError or KeyError."""
    if parse is _parse_bool:
        return list(map(_BOOLS.__getitem__, cells))
    number = _NUMBERS.get(parse)
    if number is None:
        values = {cell: parse(cell) for cell in set(cells)}
        return list(map(values.__getitem__, cells))
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


def _parse_block(rows: list, lines, parsers: list, path) -> tuple:
    """(quantum, ticks, columns) of a block: its times by `_block_ticks`,
    and each later column's cells parsed, short rows padded with empty
    cells. A row longer than the header or a malformed cell is a
    SpecSyntaxError naming its line and column, the first in row order."""
    width = len(parsers)
    widths = set(map(len, rows))
    if widths != {width}:
        for row in rows:
            row += [""] * (width - len(row))
    if max(widths, default=0) <= width:
        cells = zip(*rows)
        try:
            return (*_block_ticks(next(cells)),
                    [_parse_column(parse, column)
                     for parse, column in zip(parsers[1:], cells)])
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


# a block's time cells joined by commas, each an unsigned plain decimal
_PLAIN_TIMES = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:,[0-9]+(?:\.[0-9]+)?)*")


def _block_ticks(cells) -> tuple:
    """(quantum, ticks): the least quantum on which every time cell of a
    block is an integer, and each time as a tick on it.

    A block whose cells are all unsigned plain ASCII decimals is read on
    10**(its most fraction digits) at once. Any other block, or one whose
    ticks read that way pass int()'s digit limit or float range, goes
    through `_time_parts` cell by cell, which keeps each cell's exact value
    and raises ValueError at the first bad one.
    """
    text = ",".join(cells)
    ticks = None
    if _PLAIN_TIMES.fullmatch(text) and text.count(",") == len(cells) - 1:
        parts = [cell.partition(".") for cell in cells]
        lengths = {len(frac) for _, _, frac in parts}
        digits = max(lengths)
        quantum = 10 ** digits
        pad = {k: "0" * (digits - k) for k in lengths}
        try:
            ticks = [int(whole + frac + pad[len(frac)])
                     for whole, _, frac in parts]
            max(ticks) / quantum
        except (ValueError, OverflowError):
            ticks = None
    if ticks is None:
        times = list(map(_time_parts, cells))
        quantum = math.lcm(*{d for _, d in times})
        ticks = [n * (quantum // d) for n, d in times]
    common = math.gcd(quantum, *ticks)
    if common > 1:
        quantum //= common
        ticks = [t // common for t in ticks]
    return quantum, ticks


def _blocks(reader, parsers: list, path):
    """Per block of up to BLOCK_ROWS raw rows that has a nonempty one,
    (lines, quantum, ticks, columns): the line of each nonempty row, a
    range when none is blank; the block's times as ticks on their least
    quantum; and each later column's cells parsed. Only the block being
    parsed holds raw rows, and nothing per row is kept between blocks."""
    start = 2
    while block := list(islice(reader, BLOCK_ROWS)):
        lines = range(start, start + len(block))
        start += len(block)
        if not all(block):
            lines = [line for line, row in zip(lines, block) if row]
            block = [row for row in block if row]
        if block:
            parsed = _parse_block(block, lines, parsers, path)
            block = None  # so that the next block's rows replace these
            yield (lines, *parsed)


@contextmanager
def _read_blocks(path, kind: str, what: str, types: dict, known,
                 complete: bool):
    """(names, blocks) of a `kind` CSV: the names after `time`, the header
    checked by `_header`, and `_blocks` over its rows, each name's cells
    parsed by its type's parser."""
    with _utf8(path), open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = _header(reader, path, kind, what, known, complete)
            parsers = [_time_parts,
                       *(_cell_parser(types[name]) for name in names)]
            yield names, _blocks(reader, parsers, path)
        except csv.Error as err:
            raise SpecSyntaxError(str(err), str(path), reader.line_num,
                                  1) from None


# ---------------------------------------------------------------------------
# trace CSV (inputs only)


def read_trace(path, analyzed: AnalyzedSpec) -> SensorTrace:
    """Each input's non-absent samples, on the smallest quantum of their
    times. Times must strictly increase over every nonempty row, an
    all-empty one included; a column without samples is left out. The
    columns sampled at every row share one tick array, and keep their
    parsed values as they are.

    Each block's samples join the columns as it is read. A column shares
    the ticks of every row until a block lacks one of its cells, and then
    gets a copy of them as its own. The quantum is the lcm of the blocks'
    sampled ones, and the ticks kept are scaled up only when it grows.
    """
    inputs = analyzed.spec.input_names()
    with _read_blocks(path, "trace", "inputs", analyzed.types, inputs,
                      complete=False) as (names, blocks):
        quantum, last, backwards = 1, None, None
        values: list = [[] for _ in names]
        own: list = [None] * len(names)  # ticks of a column lacking a row
        every = array("q")  # of every row, while some column has them all
        for lines, q, ticks, columns in blocks:
            if backwards is None:
                backwards = next(((lines[k], time, before) for k, time, before
                                  in backward_rows(q, ticks, last)), None)
                last = Fraction(ticks[-1], q)
            # per column, the rows that it has; None when it has them all
            present = [list(map(is_not, column, repeat(ABSENT)))
                       if ABSENT in column else None for column in columns]
            if None not in present:
                # a row without samples leaves the quantum out; the ticks
                # of such rows are not kept, so they may lose exactness
                common = math.gcd(q, *compress(ticks, map(any, zip(*present))))
                q //= common
                ticks = [t // common for t in ticks]
            grow = q // math.gcd(quantum, q)
            if grow > 1:
                quantum *= grow
                every = every and extend_ticks(array("q"),
                                               [t * grow for t in every])
                own = [seq and extend_ticks(array("q"), [t * grow for t in seq])
                       for seq in own]
            if quantum > q:
                ticks = [t * (quantum // q) for t in ticks]
            for k, (column, rows) in enumerate(zip(columns, present)):
                if rows is None:
                    values[k].extend(column)
                    if own[k] is not None:
                        own[k] = extend_ticks(own[k], ticks)
                    continue
                if own[k] is None:
                    own[k] = every[:]
                values[k].extend(compress(column, rows))
                own[k] = extend_ticks(own[k], list(compress(ticks, rows)))
            every = extend_ticks(every, ticks) if None in own else None
    if backwards is not None:
        line, time, before = backwards
        raise NonMonotonicTime(f"{path}:{line}: time {time} does not "
                               f"advance past {before}")
    if not any(values):
        raise SpecSyntaxError("trace has no events", str(path), 1, 1)
    return SensorTrace(quantum, {
        name: every if seq is None else seq
        for name, seq, column in zip(names, own, values) if column}, {
        name: column for name, column in zip(names, values) if column})


# ---------------------------------------------------------------------------
# model CSV (all streams)


def _time_cells(quantum: int) -> Callable[[list], list]:
    """`format_time` of tick / quantum for a run of ticks. When the quantum
    divides a power of ten, a tick's cell is its whole seconds and the
    suffix of its remainder, found once per distinct remainder, so no
    Python function runs per tick; a negative tick goes through
    `_decimal_format`."""
    decimal = _decimal_format(quantum)
    if decimal is None:
        return lambda ticks: [format_time(Fraction(t, quantum)) for t in ticks]
    suffixes: dict = {}  # remainder -> "" or "." and its digits

    def cells(ticks) -> list:
        pairs = list(map(divmod, ticks, repeat(quantum)))
        for r in {r for _, r in pairs} - suffixes.keys():
            suffixes[r] = decimal(r)[1:]
        return [str(whole) + suffixes[r] if whole >= 0
                else decimal(whole * quantum + r) for whole, r in pairs]
    return cells


def write_model(path, model: EvaluationModel, analyzed: AnalyzedSpec) -> None:
    """The model's columns of every stream of `analyzed`, in spec order.

    The rows are the ones `csv.writer` writes, joined directly: no cell
    ever needs quoting, since names are identifiers, numbers are written by
    `repr`, Bools as true/false, tuples as ';'-joined parts and times as
    decimals or p/q. They are formatted and written BLOCK_ROWS at a time.
    """
    times = _time_cells(model.quantum)
    names = analyzed.spec.stream_names()
    columns = [(_column_formatter(analyzed.types[name]), model.streams[name])
               for name in names]
    ticks = model.ticks
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["time", *names]) + "\r\n")
        for lo in range(0, len(ticks), BLOCK_ROWS):
            hi = lo + BLOCK_ROWS
            cells = [fmt(values[lo:hi]) for fmt, values in columns]
            fh.write("\r\n".join(map(",".join, zip(times(ticks[lo:hi]),
                                                   *cells))))
            fh.write("\r\n")


@contextmanager
def read_model_blocks(path, analyzed: AnalyzedSpec):
    """The blocks of a model CSV, parsed one at a time as they are drawn,
    for `engine.walk_model`: per block of up to BLOCK_ROWS rows, (quantum,
    ticks, columns), its times as ticks on the block's least quantum and
    every stream's column in the order of `stream_names()`. The file stays
    open within, and a bad cell raises SpecSyntaxError when its block is
    drawn."""
    with _read_blocks(path, "model", "streams", analyzed.types,
                      analyzed.types, complete=True) as (names, blocks):
        at = [names.index(name) for name in analyzed.spec.stream_names()]
        yield ((quantum, ticks, [columns[k] for k in at])
               for _, quantum, ticks, columns in blocks)


def read_model(path, analyzed: AnalyzedSpec) -> EvaluationModel:
    """Every stream's column and every row's tick, the blocks' ticks kept
    on a `Timeline`."""
    timeline = Timeline()
    names = analyzed.spec.stream_names()
    columns: list = [[] for _ in names]
    with read_model_blocks(path, analyzed) as blocks:
        for _, _, cells in timeline.follow(blocks):
            for column, part in zip(columns, cells):
                column.extend(part)
    # EvaluationModel makes the quantum canonical
    return EvaluationModel(list(timeline.ticks), dict(zip(names, columns)),
                           timeline.quantum)


# ---------------------------------------------------------------------------
# JSONL sidecars


def trigger_json(report: TriggerReport) -> str:
    return json.dumps({
        "trigger": report.trigger,
        "time": report.tick / report.quantum,
        "message": report.message,
    })


def write_triggers(path, reports) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(trigger_json(r) + "\n")


# the detail of a missed obligation
MISSED = "obligated task left unsatisfied"


def violation_lines(violations, steps=(), missed=(), ticks=(), quantum=1,
                    inputs=()):
    """One JSON line per violation, newline included: {kind, step, time,
    detail, stream (if any), task (if any)}; then one "schedule" line per
    missed obligation, all the lines of one step in one string. `steps`
    and `missed` are `check_scheduled_model`'s spool: the steps that miss
    an obligation and per step the tuple of its missed tasks. A step is
    timed by its tick in `ticks`, on `quantum`, and `inputs` names the
    bits of its tasks."""
    for v in violations:
        tail = {"detail": v.detail, "stream": v.stream, "task": v.task}
        yield json.dumps({"kind": v.kind, "step": v.step,
                          "time": float(v.time),
                          **{k: x for k, x in tail.items()
                             if x is not None}}) + "\n"
    tails: dict = {}  # task -> the line after its step's time
    # tuple of tasks -> "" and the tail of each, which the head of a step
    # joins into its lines
    rests: dict = {}
    for step, tasks in zip(steps, missed):
        rest = rests.get(tasks)
        if rest is None:
            rest = rests[tasks] = [""]
            for task in tasks:
                tail = tails.get(task)
                if tail is None:
                    tail = tails[task] = json.dumps(
                        {"detail": MISSED,
                         "task": task_key(task, inputs)})[1:] + "\n"
                rest.append(tail)
        # int / int is correctly rounded, as float(Fraction) is
        yield (f'{{"kind": "schedule", "step": {step}, '
               f'"time": {ticks[step] / quantum!r}, ').join(rest)


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


# a JSON string, or an integer that is not part of a float
_JSON_INT = re.compile(
    r'"(?:[^"\\]|\\.)*"|(?<![0-9.eE+-])-?([0-9]+)(?![.eE0-9])')


def read_json(path):
    """A JSON file's value; a SpecSyntaxError at its line and column when
    it is not JSON, or holds an integer of more digits than int() reads."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecSyntaxError(err.msg, str(path), err.lineno, err.colno) from err
    except ValueError:
        # json read every value before the first such integer, so the
        # strings before it are whole and its digits lie outside them
        limit = sys.get_int_max_str_digits()
        at = next((m.start() for m in _JSON_INT.finditer(text)
                   if m.group(1) and len(m.group(1)) > limit), 0)
        raise SpecSyntaxError(
            f"integer has more than {limit} digits", str(path),
            text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)) from None


__all__ = [
    "BLOCK_ROWS", "MISSED", "format_time", "read_json", "read_model",
    "read_model_blocks", "read_text", "read_trace", "trigger_json",
    "violation_lines", "write_json", "write_model", "write_plan_log",
    "write_triggers",
]
