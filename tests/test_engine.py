"""Evaluation engine tests against hand-computed step tables."""

import math
from fractions import Fraction

from activemon.analysis import analyze
from activemon.engine import (ABSENT, Event, run_monitor_full,
                              values_equal, verify_model)
from activemon.parser import parse_spec
from reference_eval import triggers_from_model


def monitor(text, events):
    analyzed = analyze(parse_spec(text))
    return analyzed, run_monitor_full(analyzed, events)[0]


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
    model, reports = run_monitor_full(analyzed, events)
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


def test_triggers_from_model_match_live_run():
    text = ("input a : Float64\noutput high := a > 1.0\n"
            'trigger high "over"\n')
    analyzed = analyze(parse_spec(text))
    events = [Event(Fraction(k), {"a": float(k)}) for k in range(4)]
    model, live = run_monitor_full(analyzed, events)
    replayed = triggers_from_model(analyzed, model)
    assert [(r.step, r.trigger) for r in replayed] == \
        [(r.step, r.trigger) for r in live]
    assert [r.step for r in live] == [2, 3]
