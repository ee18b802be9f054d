"""Exact round trips for the trace, model, and JSON file formats."""

import csv
import gc
import io
import math
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activemon.analysis import analyze
from activemon.ast import BOOL, FLOAT64, INT64, UINT64, TupleType
from activemon.engine import ABSENT, EvaluationModel, Violation
from activemon.errors import NonMonotonicTime, SpecSyntaxError
from activemon.parser import parse_spec
from activemon.io import (
    BLOCK_ROWS,
    _block_ticks,
    _time_cells,
    _time_parts,
    format_time,
    read_json,
    read_model,
    read_trace,
    violation_lines,
    write_json,
    write_model,
)
from activemon.sim import TraceSource
from events import (Event, format_value, model_at, parse_time, parse_value,
                    run_events, sensor_trace, write_trace)

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


# every column type, a nested tuple included, over inputs and an output
WIDE = ("input f : Float64\ninput i : Int64\ninput u : UInt64\n"
        "input b : Bool\ninput p : (Float64, Bool)\n"
        "input n : ((Int64, Float64), Bool)\n"
        "output o := f + 1.0\n")
_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, -2.5, 1e300,
           5e-324, 1e16, 123456789.125)
_INTS = (0, -1, 7, -2**63, 2**63 - 1)


def _reference_cell(value, ty) -> str:
    if value is ABSENT:
        return ""
    if isinstance(ty, TupleType):
        return ";".join(_reference_cell(v, el)
                        for v, el in zip(value, ty.elements))
    if ty == BOOL:
        return "true" if value else "false"
    return repr(value)


def _reference_model_text(model, analyzed) -> str:
    """The model as csv.writer writes it, one cell at a time."""
    names = analyzed.spec.stream_names()
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["time", *names])
    for step, time in enumerate(model.times):
        writer.writerow([format_time(time), *(
            _reference_cell(model.streams[name][step], analyzed.types[name])
            for name in names)])
    return out.getvalue()


def _random_value(rng: Random, ty):
    if isinstance(ty, TupleType):
        return tuple(ABSENT if rng.random() < 0.1 else _random_value(rng, el)
                     for el in ty.elements)
    if ty == BOOL:
        return rng.random() < 0.5
    if ty == FLOAT64:
        return rng.choice(_FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if ty == UINT64:
        return rng.choice((0, 1, 2**64 - 1, rng.randrange(2**64)))
    return rng.choice(_INTS) if rng.random() < 0.5 else rng.randrange(-10**9, 10**9)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       rows=st.one_of(st.integers(0, 5),
                      st.sampled_from([BLOCK_ROWS - 1, BLOCK_ROWS,
                                       BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7])),
       quantum=st.sampled_from([1, 2, 10, 8, 3, 7, 6, 1000]))
@settings(max_examples=25, deadline=None)
def test_written_models_are_what_csv_writer_writes(tmp_path_factory, seed,
                                                   rows, quantum):
    analyzed = analyze(parse_spec(WIDE))
    rng = Random(seed)
    tick = rng.randrange(-50, 50)
    times = []
    for _ in range(rows):
        times.append(Fraction(tick, quantum))
        tick += rng.randrange(1, 5)
    streams = {}
    for name in analyzed.spec.stream_names():
        ty = analyzed.types[name]
        absent = rng.choice((0.0, 0.3, 1.0))
        streams[name] = [ABSENT if rng.random() < absent
                         else _random_value(rng, ty) for _ in times]
    model = model_at(times, streams) if times else EvaluationModel([], streams, quantum)
    path = tmp_path_factory.mktemp("model") / "model.csv"
    write_model(path, model, analyzed)
    assert path.read_bytes() == _reference_model_text(model, analyzed).encode()


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


# cells that are not unsigned plain decimals, each read by `_time_parts`
_OTHER_TIMES = ("+1", " 1", "1e3", "1/3", "-0.5", "1e-400", "-12", "5.",
                ".5", "1_0", "2.5E1", "007.50", "-0")
_PLAIN_TIME = st.builds(
    lambda whole, frac: f"{whole}.{frac}" if frac else str(whole),
    st.integers(0, 10**12), st.text("0123456789", max_size=8))
_BAD_TIMES = ("nan", "x", "", "1/0", "1e400", "1.2.3", "1,5", "²")


def _cell_error(cell: str) -> str:
    try:
        _time_parts(cell)
    except (ValueError, ZeroDivisionError) as err:
        return f"bad cell: {err}"
    raise AssertionError(f"{cell!r} is not a bad time cell")


@pytest.mark.parametrize("cell", ["-0.50", "007.5", "10"])
def test_time_parts_are_the_parts_of_fraction(cell):
    time = Fraction(cell)
    assert _time_parts(cell) == (time.numerator, time.denominator)


def test_a_time_of_more_digits_than_int_reads_is_a_bad_cell():
    cell = "1" * 5000
    assert _cell_error(cell).startswith("bad cell: ")
    with pytest.raises(ValueError):
        _block_ticks([cell])


@given(rows=st.sampled_from([BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
       cells=st.lists(_PLAIN_TIME, min_size=BLOCK_ROWS + 1,
                      max_size=BLOCK_ROWS + 1),
       others=st.lists(st.tuples(st.integers(0, BLOCK_ROWS),
                                 st.sampled_from(_OTHER_TIMES)), max_size=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_block_time_parse_is_time_parts_per_cell(rows, cells, others):
    cells = cells[:rows]
    for k, cell in others:
        cells[k % rows] = cell
    quantum, ticks = _block_ticks(cells)
    times = [Fraction(*_time_parts(cell)) for cell in cells]
    assert [Fraction(t, quantum) for t in ticks] == times
    # the least quantum on which every time is an integer
    assert quantum == math.lcm(*(t.denominator for t in times))


@given(rows=st.sampled_from([BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
       cells=st.lists(_PLAIN_TIME, min_size=BLOCK_ROWS + 1,
                      max_size=BLOCK_ROWS + 1),
       other=st.sampled_from(("",) + _OTHER_TIMES),
       bad=st.sampled_from(_BAD_TIMES), at=st.integers(0, BLOCK_ROWS),
       before=st.integers(0, BLOCK_ROWS))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_bad_time_cell_is_reported_as_the_cell_parse_reports_it(
        tmp_path_factory, rows, cells, other, bad, at, before):
    # one bad cell at a random row, after an optional other form of time
    cells = cells[:rows]
    if other:
        cells[before % rows] = other
    cells[at % rows] = bad
    analyzed = analyze(parse_spec(SPEC))
    path = tmp_path_factory.mktemp("model") / "model.csv"
    path.write_text("time,g,ok,first\n" + "".join(
        f'"{cell}",,true,\n' for cell in cells))
    with pytest.raises(SpecSyntaxError) as err:
        read_model(path, analyzed)
    assert str(err.value) == f"{path}:{at % rows + 2}:1: {_cell_error(bad)}"


@pytest.mark.parametrize("quantum", [1, 2, 4, 5, 8, 10, 16, 125, 1000, 3])
def test_time_cells_are_format_time_per_tick(quantum):
    ticks = [*range(-3 * quantum - 2, 3 * quantum + 3), 10**20 + 1,
             -(10**20) - 1, 2**63 - 1, -(2**63)]
    times = _time_cells(quantum)
    expected = [format_time(Fraction(t, quantum)) for t in ticks]
    assert times(ticks) == expected
    assert times(ticks[::-1]) == expected[::-1]  # suffixes found before


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


ABCD = AB + "input c : Bool\ninput d : Float64\n"


@pytest.mark.parametrize("times,quantum,ticks", [
    (("0.5", "1", "1.5"), 2, [1, 2, 3]),
    # ticks beyond 64 bits stay a list of ints, shared too
    (("1e-30", "5", "10"), 10**30, [1, 5 * 10**30, 10**31]),
])
def test_trace_columns_sampled_at_every_row_share_one_tick_array(
        tmp_path, times, quantum, ticks):
    path = tmp_path / "trace.csv"
    t0, t1, t2 = times
    path.write_text(f"time,a,b,c,d\n{t0},1,2,,\n{t1},3,4,true,\n"
                    f"{t2},5,6,,\n")
    trace = read_trace(path, analyze(parse_spec(ABCD)))
    assert trace.quantum == quantum
    assert list(trace.ticks) == ["a", "b", "c"]
    assert trace.ticks["a"] is trace.ticks["b"]
    assert trace.ticks["c"] is not trace.ticks["a"]
    assert list(trace.ticks["a"]) == ticks
    assert list(trace.ticks["c"]) == ticks[1:2]
    assert trace.values == {"a": [1.0, 3.0, 5.0], "b": [2.0, 4.0, 6.0],
                            "c": [True]}
    source = TraceSource(trace)
    for tick, sensors in zip(ticks, [("b", "a"), ("c", "b", "a"), ("a",)]):
        assert source.read(sensors, tick, quantum) == {
            s: source.query(s, tick, quantum) for s in sensors}


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


def _growing_events(empty_rows: bool) -> list:
    """A block of whole seconds, one of thirds and one of sevenths, so that
    the quantum grows from block to block. a and d have every row and b
    lacks every fifth from the second block on; with `empty_rows`, a lacks
    every fourth row of the last block and d every twentieth, and each
    twentieth has no sample at all but lies at an eleventh."""
    events, t = [], Fraction(0)
    for block, step in enumerate((Fraction(1), Fraction(1, 3),
                                  Fraction(2, 7))):
        for k in range(BLOCK_ROWS):
            values = {"a": float(k), "b": -float(k), "d": k / 4}
            if block and k % 5 == 0:
                del values["b"]
            if empty_rows and block == 2 and k % 4 == 0:
                del values["a"]
                if k % 20 == 0:
                    events.append(Event(t + Fraction(1, 11), {}))
                    values.pop("d")
            t += step
            if values:
                events.append(Event(t, values))
    return events


@pytest.mark.parametrize("empty_rows", [False, True])
def test_reads_whose_quantum_grows_from_block_to_block(tmp_path,
                                                       empty_rows):
    analyzed = analyze(parse_spec(AB + "input d : Float64\n"
                                       "output c := a + b\n"))
    events = _growing_events(empty_rows)
    path = tmp_path / "trace.csv"
    write_trace(path, events, analyzed)
    trace = read_trace(path, analyzed)
    # the rows without samples leave the quantum
    assert trace == sensor_trace(events, ("a", "b", "d"))
    assert trace.quantum == 21
    assert (trace.ticks["a"] is trace.ticks["d"]) != empty_rows
    assert trace.ticks["b"] is not trace.ticks["a"]
    model = run_events(analyzed, [e for e in events if e.values])[0]
    write_model(path, model, analyzed)
    assert read_model(path, analyzed) == model


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


def _transient(read, path, analyzed) -> int:
    """The tracemalloc peak of one `read` above the memory its result
    keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = read(path, analyzed)  # alive while its memory is measured
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return peak - current


def test_reads_hold_no_memory_per_row_beyond_what_they_keep(tmp_path):
    # a and b lack rows, so every block has gaps in them, and d has none;
    # what a read holds beyond its result is one block's worth, so it is
    # the same at 4N rows as at N
    analyzed = analyze(parse_spec(AB + "input d : Float64\n"
                                       "output c := a + b\n"))
    rows = 4 * BLOCK_ROWS
    transient = {}
    for n in (rows, 4 * rows):
        events = _long_events(n)
        for k, event in enumerate(events):
            event.values["d"] = k / 8
        trace, model = tmp_path / f"trace{n}.csv", tmp_path / f"model{n}.csv"
        write_trace(trace, events, analyzed)
        write_model(model, run_events(analyzed, events)[0], analyzed)
        transient[n] = (_transient(read_trace, trace, analyzed),
                        _transient(read_model, model, analyzed))
    for short, long in zip(transient[rows], transient[4 * rows]):
        # less than a pointer per added row; a reader that kept each row's
        # time as a (numerator, denominator) pair and its line number until
        # the end of the file held about 150 bytes per row
        assert long - short < 8 * 3 * rows, transient


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
