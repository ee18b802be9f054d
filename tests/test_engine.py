"""Evaluation engine tests against hand-computed step tables."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from activemon.analysis import analyze
from activemon.engine import (ABSENT, MonitorState, TriggerReport,
                              backward_rows, eval_event, run_monitor_full,
                              values_equal, verify_model)
from activemon.parser import parse_spec
from events import Event, run_events
from reference_eval import triggers_from_model


def monitor(text, events):
    analyzed = analyze(parse_spec(text))
    return analyzed, run_events(analyzed, events)[0]


def test_offset_difference_and_trigger():
    # alt_diff compares each altitude with its predecessor; the first
    # step has no history so the default kicks in and the diff is zero
    text = ("input altitude : Float64\n"
            "output alt_diff := altitude - "
            "altitude.offset(by:-1).defaults(to: altitude)\n"
            "output climb := alt_diff > 5.0\n"
            'trigger climb "climbing fast"\n')
    analyzed = analyze(parse_spec(text))
    events = [Event(Fraction(0), {"altitude": 5.0}),
              Event(Fraction(1), {"altitude": 15.0})]
    model, reports = run_events(analyzed, events)
    assert model.streams["alt_diff"] == [0.0, 10.0]
    assert model.streams["climb"] == [False, True]
    assert len(reports) == 1
    assert reports[0].trigger == "climb"
    assert reports[0].step == 1
    assert reports[0].time == 1.0
    assert reports[0].message == "climbing fast"


def test_pacing_gates_evaluation():
    # num_high counts only on steps where alt arrives
    text = ("input alt : Float64\ninput spd : Float64\n"
            "output num_high\n"
            "    eval |@alt| when alt > 100.0 with "
            "num_high.offset(by:-1).defaults(to: 0) + 1\n"
            "    eval |@alt| with num_high.offset(by:-1).defaults(to: 0)\n")
    _, model = monitor(text, [
        Event(Fraction(0), {"alt": 150.0, "spd": 1.0}),
        Event(Fraction(1), {"spd": 2.0}),
        Event(Fraction(2), {"alt": 200.0}),
    ])
    assert model.streams["num_high"] == [1, ABSENT, 2]


def test_absent_propagates_through_sync_reads():
    # any-paced streams may only read the past, so they fire every event
    text = ("input a : Float64\ninput b : Float64\n"
            "output both |@a&&b| := a + b\n"
            "output loose\n"
            "    eval |@any| with a.offset(by:-1).defaults(to: 0.0) + 1.0\n")
    _, model = monitor(text, [
        Event(Fraction(0), {"a": 1.0}),
        Event(Fraction(1), {"a": 2.0, "b": 3.0}),
    ])
    assert model.streams["both"] == [ABSENT, 5.0]
    assert model.streams["loose"] == [1.0, 2.0]


def test_offset_skips_absent_steps():
    # offsets index the stream's own history, not the global step count
    text = ("input a : Float64\ninput b : Float64\n"
            "output prev_b |@b| := b.offset(by:-1).defaults(to: -1.0)\n")
    _, model = monitor(text, [
        Event(Fraction(0), {"b": 10.0}),
        Event(Fraction(1), {"a": 1.0}),
        Event(Fraction(2), {"b": 20.0}),
    ])
    assert model.streams["prev_b"] == [-1.0, ABSENT, 10.0]


def test_first_match_clause_order():
    text = ("input x : Float64\n"
            "output grade\n"
            "    eval |@x| when x < 2.0 with 1\n"
            "    eval |@x| when x < 5.0 with 2\n"
            "    eval |@x| with 3\n")
    _, model = monitor(text, [
        Event(Fraction(0), {"x": 1.0}),
        Event(Fraction(1), {"x": 3.0}),
        Event(Fraction(2), {"x": 9.0}),
    ])
    assert model.streams["grade"] == [1, 2, 3]


def test_division_and_sqrt_are_total():
    text = ("input x : Float64\n"
            "output ratio := 1.0 / x\noutput root := sqrt(x)\n")
    _, model = monitor(text, [Event(Fraction(0), {"x": 0.0}),
                              Event(Fraction(1), {"x": -4.0})])
    assert math.isnan(model.streams["ratio"][0])
    assert math.isnan(model.streams["root"][1])


def test_nan_comparisons_are_false():
    text = ("input x : Float64\n"
            "output bad := (1.0 / x) > 0.0\n"
            "output same := (1.0 / x) == (1.0 / x)\n")
    _, model = monitor(text, [Event(Fraction(0), {"x": 0.0})])
    assert model.streams["bad"] == [False]
    assert model.streams["same"] == [False]


def test_values_equal_treats_nan_as_stable():
    nan = float("nan")
    assert values_equal(nan, nan)
    assert values_equal((1.0, nan), (1.0, nan))
    assert not values_equal(nan, 0.0)
    assert values_equal(ABSENT, ABSENT)
    assert not values_equal(ABSENT, 0.0)


def test_now_reflects_event_time():
    text = "input a : Float64\noutput seen |@a| := now\n"
    _, model = monitor(text, [Event(Fraction(1, 2), {"a": 1.0}),
                              Event(Fraction(7, 4), {"a": 1.0})])
    assert model.streams["seen"] == [0.5, 1.75]


def test_tuple_projection():
    text = ("input gps : (Float64, Float64)\n"
            "output lat := gps.0\noutput lon := gps.1\n")
    _, model = monitor(text, [Event(Fraction(0), {"gps": (47.0, 9.5)})])
    assert model.streams["lat"] == [47.0]
    assert model.streams["lon"] == [9.5]


def test_verify_model_accepts_own_output():
    text = ("input a : Float64\ninput b : Float64\n"
            "output s := a + b\n"
            "output m\n    eval |@a| when a > 0.0 with a\n"
            "    eval |@a| with -a\n")
    analyzed, model = monitor(text, [
        Event(Fraction(0), {"a": 1.0, "b": 2.0}),
        Event(Fraction(1), {"a": -3.0}),
        Event(Fraction(2), {"b": 4.0}),
    ])
    assert verify_model(analyzed, model) == []


def test_verify_model_flags_wrong_value():
    text = "input a : Float64\noutput x := a + 1.0\n"
    analyzed, model = monitor(text, [Event(Fraction(0), {"a": 1.0})])
    model.streams["x"][0] = 99.0
    violations = verify_model(analyzed, model)
    assert violations
    assert violations[0].stream == "x"


def test_verify_model_flags_wrong_presence():
    text = "input a : Float64\ninput b : Float64\noutput x |@a| := a\n"
    analyzed, model = monitor(text, [Event(Fraction(0), {"b": 1.0})])
    model.streams["x"][0] = 1.0  # pacing says this step must be absent
    assert verify_model(analyzed, model)


def reference_backward_rows(quantum, ticks, before):
    """Each row's time as a Fraction, compared with the time before it."""
    times = [Fraction(t, quantum) for t in ticks]
    return [(k, time, prior) for k, (time, prior)
            in enumerate(zip(times, [before, *times[:-1]]))
            if prior is not None and time <= prior]


@given(quantum=st.sampled_from([1, 3, 10, 2**64 * 3]),
       ticks=st.lists(st.integers(-4, 12), min_size=1, max_size=12),
       shape=st.sampled_from(["as drawn", "sorted", "strictly increasing"]),
       before=st.none() | st.fractions(-5, 5, max_denominator=6))
@example(quantum=2, ticks=[1, 2, 2, 1, 3], shape="as drawn",
         before=Fraction(1, 2))
@example(quantum=1, ticks=[1, 2], shape="as drawn", before=Fraction(2))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_backward_rows_compares_each_row_with_the_one_before(
        quantum, ticks, shape, before):
    # sorted blocks have ties; strictly increasing ones only their first row
    # can fall behind `before`
    if shape != "as drawn":
        ticks = sorted(set(ticks) if shape == "strictly increasing" else ticks)
    assert list(backward_rows(quantum, ticks, before)) == \
        reference_backward_rows(quantum, ticks, before)


def test_triggers_from_model_match_live_run():
    text = ("input a : Float64\noutput high := a > 1.0\n"
            'trigger high "over"\n')
    analyzed = analyze(parse_spec(text))
    events = [Event(Fraction(k), {"a": float(k)}) for k in range(4)]
    model, live = run_events(analyzed, events)
    replayed = triggers_from_model(analyzed, model)
    assert [(r.step, r.trigger) for r in replayed] == \
        [(r.step, r.trigger) for r in live]
    assert [r.step for r in live] == [2, 3]


# a sync sum that is absent without b, an offset into b's own history and a
# trigger, so the rows mix values, ABSENT cells and reports
LOOP_TEXT = ("input a : Float64\ninput b : Float64\n"
             "output s := a + b\n"
             "output prev_b |@b| := b.offset(by:-1).defaults(to: -1.0)\n"
             "output high := a > 5.0\n"
             'trigger high "over"\n')


def loop_events(count):
    """`count` events at ticks 0, 2, 4, ..., with b on every third."""
    return [(2 * k, {"a": float(k % 11), "b": float(k)} if k % 3 == 0
             else {"a": float(k % 11)}) for k in range(count)]


@pytest.mark.parametrize("count", [0, 1, 2, 31, 32, 33, 1025, 3079])
def test_model_columns_equal_the_rows_of_each_event(count):
    analyzed = analyze(parse_spec(LOOP_TEXT))
    events = loop_events(count)
    model, reports = run_monitor_full(analyzed, events, 2)

    state = MonitorState(analyzed, 2)
    rows, fired = [], []
    for tick, values in events:
        row, now = eval_event(state, tick, values)
        rows.append(row)
        fired.extend(now)
    names = analyzed.spec.stream_names()
    # every stream has a column, an empty one when no event ran
    assert model.streams == {name: [row[i] for row in rows]
                             for i, name in enumerate(names)}
    assert len(model) == count
    assert model.times == [Fraction(k) for k in range(count)]
    assert reports == fired


def test_an_event_only_evaluates_observes_and_records():
    # from the first event drawn until the events run out, the loop calls
    # nothing but the events, eval_event, observe and the list appends, so
    # no cycle of a closed loop pays for building the model's columns
    analyzed = analyze(parse_spec(LOOP_TEXT))
    loop = run_monitor_full.__code__
    looping = False
    called = set()

    def events():
        nonlocal looping
        looping = True
        yield from loop_events(100)
        looping = False

    def observe(row):
        pass

    def profile(frame, event, arg):
        if not looping:
            return
        if event == "call" and frame.f_back.f_code is loop:
            called.add(frame.f_code.co_name)
        elif event == "c_call" and frame.f_code is loop:
            called.add(arg.__name__)

    sys.setprofile(profile)
    try:
        model, _ = run_monitor_full(analyzed, events(), 2, observe)
    finally:
        sys.setprofile(None)
    assert len(model) == 100
    assert called == {"events", "eval_event", "observe", "append", "extend"}


# ---------------------------------------------------------------------------
# trigger reports

# ticks and quanta up to and beyond 64 bits, and pairs with a common factor
TICKS = st.one_of(st.integers(-2**70, 2**70), st.integers(-10**400, 10**400))
QUANTA = st.one_of(st.integers(1, 2**70), st.integers(1, 10**400))
FACTORS = st.sampled_from([1, 2, 6, 10**3, 2**64, 3**50])
REPORTS = st.builds(
    lambda trigger, step, tick, quantum, factor, message: (
        trigger, step, tick * factor, quantum * factor, message),
    st.sampled_from(["t", "u"]), st.integers(0, 3), TICKS, QUANTA, FACTORS,
    st.sampled_from([None, "m"]))


def _float_or_overflow(f):
    try:
        return f()
    except OverflowError:
        return OverflowError


@given(REPORTS)
@example(("t", 0, 6, 4, None))
@example(("t", 0, 10**400, 3, None))
@example(("t", 0, 1, 10**400, None))
@example(("t", 0, -(2**64) * 3, 2**64, "m"))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_a_report_keeps_its_exact_time_and_float(fields):
    trigger, step, tick, quantum, message = fields
    report = TriggerReport.at(trigger, step, tick, quantum, message)
    exact = Fraction(tick, quantum)
    assert report.time == exact
    assert (report.tick, report.quantum) == (exact.numerator,
                                             exact.denominator)
    assert _float_or_overflow(lambda: report.tick / report.quantum) == \
        _float_or_overflow(lambda: float(exact))


@given(REPORTS, REPORTS, st.tuples(*[st.booleans()] * 4))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_reports_are_equal_exactly_when_what_they_report_is(a, b, keep):
    # b takes a's trigger, step, time (on another multiple of a's pair) and
    # message where `keep` says so
    b = (a[0] if keep[0] else b[0], a[1] if keep[1] else b[1],
         *((a[2] * 7, a[3] * 7) if keep[2] else b[2:4]),
         a[4] if keep[3] else b[4])
    x, y = TriggerReport.at(*a), TriggerReport.at(*b)
    same = (a[0], a[1], Fraction(a[2], a[3]), a[4]) == \
        (b[0], b[1], Fraction(b[2], b[3]), b[4])
    assert (x == y) is same
    assert (hash(x) == hash(y)) or not same


@pytest.mark.parametrize("quantum", [1, 6, 2**64 * 3])
def test_eval_event_reports_equal_reports_built_at_their_time(quantum):
    analyzed = analyze(parse_spec(
        "input a : Float64\noutput high := a > 1.0\ntrigger high \"high\"\n"))
    state = MonitorState(analyzed, quantum)
    for step, tick in enumerate(sorted({0, 2, 3, quantum + 3, 4 * quantum})):
        _, fired = eval_event(state, tick, {"a": 2.0})
        assert fired == [TriggerReport.at("high", step, tick, quantum, "high")]
        assert fired[0].time == Fraction(tick, quantum)
