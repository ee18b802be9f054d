"""File formats: trace CSV, model CSV, and the JSON/JSONL sidecars.

Times are exact rationals serialized as decimal strings whenever they
terminate (falling back to p/q), so reading a written file reproduces the
values bit for bit. Empty CSV cells mean absent.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction

from .analysis import AnalyzedSpec
from .ast import BOOL, INT64, UINT64, TupleType, Type
from .engine import ABSENT, Event, EvaluationModel, TriggerReport, Violation
from .errors import NonMonotonicTime, SpecSyntaxError


# ---------------------------------------------------------------------------
# scalar cells


def format_time(t: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else p/q."""
    den = t.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den != 1:
        return f"{t.numerator}/{t.denominator}"
    if t.denominator == 1:
        return str(t.numerator)
    scale = 1
    digits = 0
    while scale % t.denominator != 0:
        scale *= 10
        digits += 1
    units = t.numerator * (scale // t.denominator)
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, scale)
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def parse_time(cell: str) -> Fraction:
    return Fraction(cell)


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


def parse_value(cell: str, ty: Type):
    if cell == "":
        return ABSENT
    if isinstance(ty, TupleType):
        parts = cell.split(";")
        if len(parts) != len(ty.elements):
            raise ValueError(f"expected {len(ty.elements)} tuple parts, got {cell!r}")
        return tuple(parse_value(p, el) for p, el in zip(parts, ty.elements))
    if ty == BOOL:
        if cell == "true":
            return True
        if cell == "false":
            return False
        raise ValueError(f"invalid Bool cell {cell!r}")
    if ty in (INT64, UINT64):
        return int(cell)
    return float(cell)


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


def _parse_row(row: list, names: list, types: dict, path, lineno: int):
    """(time, cell values) of one CSV row, padding missing cells with ABSENT.

    A malformed cell, a time beyond float range (monitors read time as a
    float) or a row longer than the header is a SpecSyntaxError naming its
    line and column.
    """
    if len(row) > len(names) + 1:
        raise SpecSyntaxError(
            f"row has {len(row)} cells, the header has {len(names) + 1}",
            str(path), lineno, len(names) + 2)
    col = 1
    try:
        t = parse_time(row[0])
        try:
            float(t)
        except OverflowError:
            raise ValueError(f"time {row[0]} is beyond float range") from None
        cells = []
        for col, (name, cell) in enumerate(zip(names, row[1:]), start=2):
            cells.append(parse_value(cell, types[name]))
    except (ValueError, ZeroDivisionError) as err:
        raise SpecSyntaxError(f"bad cell: {err}", str(path), lineno, col) from err
    cells.extend(ABSENT for _ in names[len(cells):])
    return t, cells


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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            t, cells = _parse_row(row, names, types, path, lineno)
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *stream_names])
        for t in range(len(model.times)):
            row = [format_time(model.times[t])]
            row.extend(format_value(model.streams[name][t]) for name in stream_names)
            writer.writerow(row)


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
        model = EvaluationModel(streams={name: [] for name in names})
        columns = [model.streams[name] for name in names]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            t, cells = _parse_row(row, names, types, path, lineno)
            model.times.append(t)
            for column, v in zip(columns, cells):
                column.append(v)
    return model


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
