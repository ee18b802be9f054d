"""Exact round trips for the trace, model, and JSON file formats."""

import math
from fractions import Fraction

import pytest

from activemon.analysis import analyze
from activemon.ast import BOOL, FLOAT64, INT64, UINT64, TupleType
from activemon.engine import ABSENT, Violation
from activemon.errors import NonMonotonicTime, SpecSyntaxError
from activemon.parser import parse_spec
from activemon.io import (
    BLOCK_ROWS,
    format_time,
    read_json,
    read_model,
    read_trace,
    violation_lines,
    write_json,
    write_model,
)
from events import (Event, format_value, parse_time, parse_value, run_events,
                    sensor_trace, write_trace)

SPEC = ("input g : (Float64, Float64)\n"
        "input ok : Bool\n"
        "output first := g.0\n")


@pytest.mark.parametrize("t,cell", [
    (Fraction(1, 2), "0.5"),
    (Fraction(3, 8), "0.375"),
    (Fraction(-5, 4), "-1.25"),
    (Fraction(7), "7"),
    (Fraction(1, 3), "1/3"),
    (Fraction(0), "0"),
])
def test_time_cells_are_exact(t, cell):
    assert format_time(t) == cell
    assert parse_time(cell) == t


def test_value_cells_round_trip():
    assert format_value(ABSENT, FLOAT64) == ""
    assert parse_value("", FLOAT64) is ABSENT
    assert format_value(True, BOOL) == "true"
    assert parse_value("false", BOOL) is False
    assert parse_value(format_value(0.1, FLOAT64), FLOAT64) == 0.1
    pair = TupleType((FLOAT64, FLOAT64))
    assert format_value((47.0, 9.5), pair) == "47.0;9.5"
    assert parse_value("47.0;9.5", pair) == (47.0, 9.5)


_PAIR = TupleType((FLOAT64, BOOL))


@pytest.mark.parametrize("cell,ty,value", [
    ("", BOOL, ABSENT), ("true", BOOL, True), ("false", BOOL, False),
    ("", FLOAT64, ABSENT), ("1", FLOAT64, 1.0), ("-2", FLOAT64, -2.0),
    (" 7 ", FLOAT64, 7.0), ("1e3", FLOAT64, 1000.0),
    ("", INT64, ABSENT), ("-2", INT64, -2), (" 7 ", INT64, 7),
    ("", UINT64, ABSENT), ("1", UINT64, 1),
    ("", _PAIR, ABSENT), ("1;true", _PAIR, (1.0, True)),
    (";true", _PAIR, (ABSENT, True)), ("1;", _PAIR, (1.0, ABSENT)),
])
def test_value_cells_of_every_type(cell, ty, value):
    assert parse_value(cell, ty) == value
    assert type(parse_value(cell, ty)) is type(value)
    assert parse_value(format_value(value, ty), ty) == value


def test_float_cells_keep_nan():
    assert math.isnan(parse_value("nan", FLOAT64))


@pytest.mark.parametrize("cell,ty,message", [
    ("1", BOOL, "invalid Bool cell '1'"),
    (" true", BOOL, "invalid Bool cell ' true'"),
    ("abc", FLOAT64, "could not convert string to float: 'abc'"),
    ("1.5", INT64, "invalid literal for int() with base 10: '1.5'"),
    ("nan", UINT64, "invalid literal for int() with base 10: 'nan'"),
    ("1;2;3", _PAIR, "expected 2 tuple parts, got '1;2;3'"),
    ("1;yes", _PAIR, "invalid Bool cell 'yes'"),
])
def test_malformed_value_cells_name_the_cell(cell, ty, message):
    with pytest.raises(ValueError) as err:
        parse_value(cell, ty)
    assert str(err.value) == message


def test_value_cells_reject_malformed_input():
    with pytest.raises(ValueError):
        parse_value("maybe", BOOL)
    with pytest.raises(ValueError):
        parse_value("1.0;2.0;3.0", TupleType((FLOAT64, FLOAT64)))


def test_trace_round_trip_keeps_absences(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    events = [
        Event(Fraction(0), {"g": (1.0, 2.0), "ok": True}),
        Event(Fraction(1, 2), {"ok": False}),
        Event(Fraction(2), {"g": (3.5, -1.0)}),
    ]
    path = tmp_path / "trace.csv"
    write_trace(path, events, analyzed)
    assert read_trace(path, analyzed) == sensor_trace(
        events, analyzed.spec.input_names())


def test_trace_rejects_bad_header(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "trace.csv"
    path.write_text("when,g,ok\n0,1.0;2.0,true\n")
    with pytest.raises(SpecSyntaxError):
        read_trace(path, analyzed)
    path.write_text("time,g,bogus\n0,1.0;2.0,true\n")
    with pytest.raises(SpecSyntaxError):
        read_trace(path, analyzed)


def test_trace_rejects_empty_traces(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "trace.csv"
    path.write_text("time,g,ok\n")
    with pytest.raises(SpecSyntaxError):
        read_trace(path, analyzed)
    path.write_text("time,g,ok\n0,,\n")
    with pytest.raises(SpecSyntaxError):
        read_trace(path, analyzed)


def test_trace_rejects_non_monotonic_times(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "trace.csv"
    path.write_text("time,ok\n1,true\n1,false\n")
    with pytest.raises(NonMonotonicTime):
        read_trace(path, analyzed)


def test_model_round_trip(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    events = [
        Event(Fraction(0), {"g": (1.0, 2.0), "ok": True}),
        Event(Fraction(1), {"ok": False}),
    ]
    model = run_events(analyzed, events)[0]
    path = tmp_path / "model.csv"
    write_model(path, model, analyzed)
    back = read_model(path, analyzed)
    assert back.times == model.times
    assert back.streams == model.streams
    assert back.streams["first"][1] is ABSENT


def _ok_events(times) -> list:
    return [Event(t, {"ok": k % 2 == 0} if k % 3 else
                  {"g": (float(k), -0.5), "ok": True})
            for k, t in enumerate(times)]


@pytest.mark.parametrize("times", [
    [Fraction(k, 7) for k in range(1, 20)],
    [Fraction(k, 3) - 2 for k in range(12)],
    [Fraction(k, 8) + Fraction(k * k, 10) for k in range(15)],
    [Fraction(k, 3) + Fraction(k, 7) + Fraction(k, 10) for k in range(9)],
    [Fraction(5, 2)],
    [],
], ids=["sevenths", "thirds", "decimals", "mixed", "single", "empty"])
def test_model_round_trip_keeps_ticks_and_quantum(tmp_path, times):
    analyzed = analyze(parse_spec(SPEC))
    model = run_events(analyzed, _ok_events(times))[0]
    assert model.times == times
    assert model.quantum == math.lcm(*(t.denominator for t in times))
    path = tmp_path / "model.csv"
    write_model(path, model, analyzed)
    cells = [row.split(",")[0] for row in path.read_text().splitlines()[1:]]
    assert cells == [format_time(t) for t in times]
    back = read_model(path, analyzed)
    assert (back.quantum, back.ticks) == (model.quantum, model.ticks)
    assert back.streams == model.streams
    assert back == model


@pytest.mark.parametrize("cell", [
    "1e-3", "2.5E1", "7/3", " 1.5 ", "-0.5", "-12", "0.250", "+3", "1_0",
    "5.", ".5", "007.50", "-0",
])
def test_model_time_cells_read_as_fraction_reads_them(tmp_path, cell):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "model.csv"
    path.write_text(f"time,g,ok,first\n0.1,,true,\n{cell},,false,\n")
    back = read_model(path, analyzed)
    assert back.times == [Fraction(1, 10), Fraction(cell)]
    assert back.quantum == math.lcm(10, Fraction(cell).denominator)
    assert parse_time(cell) == Fraction(cell)


@pytest.mark.parametrize("cell,message", [
    ("nan", "bad cell: Invalid literal for Fraction: 'nan'"),
    ("1/0", "bad cell: Fraction(1, 0)"),
    ("1e400", "bad cell: time 1e400 is beyond float range"),
    ("-1" + "0" * 400, "bad cell: time -1" + "0" * 400
     + " is beyond float range"),
])
def test_malformed_model_times_name_line_and_column(tmp_path, cell, message):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "model.csv"
    path.write_text(f"time,g,ok,first\n0,,true,\n{cell},,false,\n")
    with pytest.raises(SpecSyntaxError) as err:
        read_model(path, analyzed)
    assert str(err.value) == f"{path}:3:1: {message}"


def test_model_pads_short_rows_with_absent(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "model.csv"
    path.write_text("time,g,ok,first\n0,1.0;2.0,true,1.0\n1,3.0;4.0\n")
    back = read_model(path, analyzed)
    assert back.streams["g"] == [(1.0, 2.0), (3.0, 4.0)]
    assert back.streams["ok"] == [True, ABSENT]
    assert back.streams["first"] == [1.0, ABSENT]


def test_model_rejects_rows_longer_than_the_header(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "model.csv"
    path.write_text("time,g,ok,first\n0,1.0;2.0,true,1.0\n"
                    "1,3.0;4.0,false,3.0,9.0\n")
    with pytest.raises(SpecSyntaxError, match=r"model\.csv:3:"):
        read_model(path, analyzed)


def test_model_rejects_a_header_without_every_stream(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "model.csv"
    path.write_text("time,g,ok\n0,1.0;2.0,true\n")
    with pytest.raises(SpecSyntaxError,
                       match=r"model\.csv:1:1: .*spec streams: \['first'\]"):
        read_model(path, analyzed)


def test_malformed_cells_name_their_line(tmp_path):
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path / "trace.csv"
    path.write_text("time,g,ok\n0,1.0;2.0,true\n1,1.0;abc,true\n")
    with pytest.raises(SpecSyntaxError, match=r"trace\.csv:3:2: bad cell"):
        read_trace(path, analyzed)


AB = "input a : Float64\ninput b : Float64\n"


def test_trace_all_empty_rows_take_part_in_the_time_order(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("time,a,b\n0,1,2\n2,,\n1,3,4\n")
    with pytest.raises(NonMonotonicTime) as err:
        read_trace(path, analyze(parse_spec(AB)))
    assert str(err.value) == f"{path}:4: time 1 does not advance past 2"


def test_trace_bad_cells_after_a_blank_line_name_their_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,a,b\n0,1,2\n\n1,2,x\n")
    with pytest.raises(SpecSyntaxError) as err:
        read_trace(path, analyze(parse_spec(AB)))
    assert str(err.value) == (f"{path}:4:3: bad cell: could not convert "
                              "string to float: 'x'")


@pytest.mark.parametrize("spec,text,message", [
    # a Bool column, and a number column with empty cells, parse a whole
    # column at a time; a bad cell in either still names its place
    (SPEC, "time,g,ok\n0,1.0;2.0,true\n1,,\n2,,yes\n",
     "4:3: bad cell: invalid Bool cell 'yes'"),
    (AB, "time,a,b\n0,1,\n1,,2\n2,x,\n",
     "4:2: bad cell: could not convert string to float: 'x'"),
])
def test_bad_cells_in_column_parsed_types_name_their_place(tmp_path, spec,
                                                           text, message):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(SpecSyntaxError) as err:
        read_trace(path, analyze(parse_spec(spec)))
    assert str(err.value) == f"{path}:{message}"


def test_trace_columns_without_samples_are_dropped(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,a,b\n0,1,\n1,2,\n")
    trace = read_trace(path, analyze(parse_spec(AB)))
    assert list(trace.ticks) == ["a"]
    assert trace.values == {"a": [1.0, 2.0]}


@pytest.mark.parametrize("kind,header,row", [
    ("trace", "time,a,a,b", "0,1,2,3"),
    ("model", "time,a,a,b,c", "0,1,2,3,5"),
])
def test_headers_reject_a_repeated_column(tmp_path, kind, header, row):
    analyzed = analyze(parse_spec(AB + "output c := a + b\n"))
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(SpecSyntaxError) as err:
        (read_trace if kind == "trace" else read_model)(path, analyzed)
    assert str(err.value) == f"{path}:1:3: {kind} header repeats column 'a'"


def _long_events(rows: int) -> list:
    # thirds, tenths and sevenths; every sixth row lacks a, every fourth b
    return [Event(k + (Fraction(1, 3), Fraction(3, 10), Fraction(2, 7))[k % 3],
                  {name: float(k) for name, skip in (("a", 6), ("b", 4))
                   if k % skip})
            for k in range(1, rows + 1)]


def test_traces_longer_than_a_block_read_as_their_samples(tmp_path):
    analyzed = analyze(parse_spec(AB))
    events = _long_events(2 * BLOCK_ROWS + 5)
    path = tmp_path / "trace.csv"
    write_trace(path, events, analyzed)
    assert read_trace(path, analyzed) == sensor_trace(events, ("a", "b"))


def test_time_order_is_checked_across_blocks(tmp_path):
    analyzed = analyze(parse_spec(AB))
    path = tmp_path / "trace.csv"
    write_trace(path, _long_events(BLOCK_ROWS + 5), analyzed)
    lines = path.read_text().splitlines()
    last = lines[BLOCK_ROWS].split(",")[0]
    lines[BLOCK_ROWS + 1] = f"{last},1,1"  # the first row of block two
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonMonotonicTime) as err:
        read_trace(path, analyzed)
    assert str(err.value).startswith(f"{path}:{BLOCK_ROWS + 2}: time ")


def test_a_long_row_before_a_bad_cell_is_reported_first(tmp_path):
    analyzed = analyze(parse_spec(AB))
    path = tmp_path / "trace.csv"
    path.write_text("time,a,b\n1,1,1\n2,1,1,1\n3,x,1\n")
    with pytest.raises(SpecSyntaxError, match=r"trace\.csv:3:4: row has 4"):
        read_trace(path, analyzed)


def test_violation_json_fields():
    semantic = Violation("semantic", 3, Fraction(3, 2), "wrong", stream="x")
    assert list(violation_lines([semantic])) == [
        '{"kind": "semantic", "step": 3, "time": 1.5,'
        ' "detail": "wrong", "stream": "x"}\n']
    schedule = Violation("schedule", 1, Fraction(1), "missed",
                         task=("a", "b"))
    assert '"task": ["a", "b"]' in next(violation_lines([schedule]))


def test_json_round_trip(tmp_path):
    payload = {"b": [1, 2], "a": {"nested": True}}
    path = tmp_path / "data.json"
    write_json(path, payload)
    assert read_json(path) == payload
    assert path.read_text().endswith("\n")


def test_malformed_json_names_its_line(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"seed": 1,\n "duration": }\n')
    with pytest.raises(SpecSyntaxError, match=r"data\.json:2:14:"):
        read_json(path)
