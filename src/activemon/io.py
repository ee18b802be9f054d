"""File formats: trace CSV, model CSV, and the JSON/JSONL sidecars.

Times are exact rationals serialized as decimal strings whenever they
terminate (falling back to p/q), so reading a written file reproduces the
values bit for bit. Empty CSV cells mean absent.

Each column's cells go through one parser bound to the column's type once
per file; `parse_value` calls the same parsers. A time cell is read into an
exact numerator and denominator: a plain decimal directly, any other form
through `Fraction`, which decides what is accepted. `read_model` puts the
model's times on the lcm of those denominators as integer ticks, and
`write_model` formats the ticks of a model whose quantum divides a power of
ten at one decimal scale, each with its fewest digits, exactly as
`format_time` formats the time.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from typing import Callable, Optional

from .analysis import AnalyzedSpec
from .ast import BOOL, INT64, UINT64, TupleType, Type
from .engine import ABSENT, Event, EvaluationModel, TriggerReport, Violation
from .errors import NonMonotonicTime, SpecSyntaxError


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
    """
    negative = cell[:1] == "-"
    body = cell[1:] if negative else cell
    whole, point, frac = body.partition(".")
    if body.isascii() and whole.isdigit() and (frac.isdigit() or not point):
        try:
            n = int(whole + frac)
        except ValueError:  # beyond int()'s digit limit; Fraction decides
            pass
        else:
            return (-n if negative else n), 10 ** len(frac)
    t = Fraction(cell)
    return t.numerator, t.denominator


def _parse_time(cell: str) -> tuple[int, int]:
    """`_time_parts`, rejecting times beyond float range, since monitors
    read time as a float."""
    n, d = parts = _time_parts(cell)
    try:
        n / d
    except OverflowError:
        raise ValueError(f"time {cell} is beyond float range") from None
    return parts


def parse_time(cell: str) -> Fraction:
    return Fraction(*_time_parts(cell))


def format_value(v) -> str:
    if v is ABSENT:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ";".join(format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


_BOOLS = {"": ABSENT, "true": True, "false": False}


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


def parse_value(cell: str, ty: Type):
    return _cell_parser(ty)(cell)


def _parsed_rows(reader, names: list, types: dict, path):
    """(line, cells) of every nonempty CSV row: the time's (numerator,
    denominator), then a value or ABSENT per column, missing trailing cells
    ABSENT.

    A malformed cell, a time beyond float range or a row longer than the
    header is a SpecSyntaxError naming its line and column.
    """
    parsers = [_parse_time, *(_cell_parser(types[name]) for name in names)]
    width = len(parsers)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) > width:
            raise SpecSyntaxError(
                f"row has {len(row)} cells, the header has {width}",
                str(path), lineno, width + 1)
        if len(row) < width:
            row += [""] * (width - len(row))
        cells = []
        append = cells.append
        try:
            for parse, cell in zip(parsers, row):
                append(parse(cell))
        except (ValueError, ZeroDivisionError) as err:
            raise SpecSyntaxError(f"bad cell: {err}", str(path), lineno,
                                  len(cells) + 1) from err
        yield lineno, cells


# ---------------------------------------------------------------------------
# trace CSV (inputs only)


def write_trace(path, events: list[Event], input_names) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *input_names])
        for ev in events:
            row = [format_time(ev.time)]
            for name in input_names:
                row.append(format_value(ev.values.get(name, ABSENT)))
            writer.writerow(row)


def read_trace(path, analyzed: AnalyzedSpec) -> list[Event]:
    types = analyzed.types
    known = set(analyzed.spec.input_names())
    events: list[Event] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "time":
            raise SpecSyntaxError("trace header must start with 'time'", str(path), 1, 1)
        names = header[1:]
        missing = set(names) - known
        if missing:
            raise SpecSyntaxError(
                f"trace columns are not spec inputs: {sorted(missing)}",
                str(path), 1, 1)
        previous = None
        for lineno, (time, *cells) in _parsed_rows(reader, names, types, path):
            t = Fraction(*time)
            if previous is not None and t <= previous:
                raise NonMonotonicTime(
                    f"{path}:{lineno}: time {t} does not advance past {previous}")
            previous = t
            values = {name: v for name, v in zip(names, cells) if v is not ABSENT}
            if values:
                events.append(Event(t, values))
    if not events:
        raise SpecSyntaxError("trace has no events", str(path), 1, 1)
    return events


# ---------------------------------------------------------------------------
# model CSV (all streams)


def write_model(path, model: EvaluationModel, stream_names) -> None:
    q = model.quantum
    time = _decimal_format(q) or (lambda tick: format_time(Fraction(tick, q)))
    columns = [model.streams[name] for name in stream_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *stream_names])
        writer.writerows([time(tick), *map(format_value, cells)]
                         for tick, *cells in zip(model.ticks, *columns))


def read_model(path, analyzed: AnalyzedSpec) -> EvaluationModel:
    types = analyzed.types
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "time":
            raise SpecSyntaxError("model header must start with 'time'", str(path), 1, 1)
        names = header[1:]
        unknown = set(names) - set(types)
        if unknown:
            raise SpecSyntaxError(
                f"model columns are not spec streams: {sorted(unknown)}",
                str(path), 1, 1)
        missing = set(types) - set(names)
        if missing:
            raise SpecSyntaxError(
                f"model lacks columns for spec streams: {sorted(missing)}",
                str(path), 1, 1)
        rows = [cells for _, cells in _parsed_rows(reader, names, types, path)]
    columns = zip(*rows)  # one column at a time
    times = next(columns, ())
    # one quantum for the whole model; EvaluationModel makes it canonical
    q = math.lcm(*{d for _, d in times})
    return EvaluationModel([n * (q // d) for n, d in times],
                           {name: list(next(columns, ())) for name in names}, q)


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


def violation_json(v: Violation) -> str:
    record = {"kind": v.kind, "step": v.step,
              "time": float(v.time) if isinstance(v.time, Fraction) else v.time,
              "detail": v.detail}
    if v.stream is not None:
        record["stream"] = v.stream
    if v.task is not None:
        record["task"] = list(v.task)
    return json.dumps(record)


def write_plan_log(path, plans, mode) -> None:
    """Per-event audit records {time, queried, selected, mode}."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in plans:
            fh.write(json.dumps({
                "time": float(p.time),
                "queried": sorted(p.flat),
                "selected": [sorted(task) for task in
                             sorted(p.selected, key=sorted)],
                "mode": mode,
            }) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise SpecSyntaxError(err.msg, str(path), err.lineno, err.colno) from err


__all__ = [
    "format_time", "format_value", "parse_time", "parse_value", "read_json",
    "read_model", "read_trace", "trigger_json", "violation_json",
    "write_json", "write_model", "write_plan_log", "write_trace",
    "write_triggers",
]
