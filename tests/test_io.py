"""Exact round trips for the trace, model, and JSON file formats."""

from fractions import Fraction

import pytest

from activemon.analysis import analyze
from activemon.ast import BOOL, FLOAT64, TupleType
from activemon.engine import ABSENT, Event, Violation, run_monitor_full
from activemon.errors import NonMonotonicTime, SpecSyntaxError
from activemon.parser import parse_spec
from activemon.io import (
    format_time,
    format_value,
    parse_time,
    parse_value,
    read_json,
    read_model,
    read_trace,
    violation_json,
    write_json,
    write_model,
    write_trace,
)

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
    assert format_value(ABSENT) == ""
    assert parse_value("", FLOAT64) is ABSENT
    assert format_value(True) == "true"
    assert parse_value("false", BOOL) is False
    assert parse_value(format_value(0.1), FLOAT64) == 0.1
    pair = TupleType((FLOAT64, FLOAT64))
    assert format_value((47.0, 9.5)) == "47.0;9.5"
    assert parse_value("47.0;9.5", pair) == (47.0, 9.5)


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
    write_trace(path, events, analyzed.spec.input_names())
    assert read_trace(path, analyzed) == events


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
    model = run_monitor_full(analyzed, events)[0]
    path = tmp_path / "model.csv"
    write_model(path, model, analyzed.spec.stream_names())
    back = read_model(path, analyzed)
    assert back.times == model.times
    assert back.streams == model.streams
    assert back.streams["first"][1] is ABSENT


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


def test_violation_json_fields():
    semantic = Violation("semantic", 3, Fraction(3, 2), "wrong", stream="x")
    assert violation_json(semantic) == (
        '{"kind": "semantic", "step": 3, "time": 1.5,'
        ' "detail": "wrong", "stream": "x"}')
    schedule = Violation("schedule", 1, Fraction(1), "missed",
                         task=("a", "b"))
    assert '"task": ["a", "b"]' in violation_json(schedule)


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
