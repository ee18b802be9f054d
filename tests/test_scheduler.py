"""Bandwidth packing, split bounds, and closed-loop scheduling runs."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen_specs
from activemon.analysis import analyze
from activemon.engine import values_equal
from activemon.errors import PreconditionViolation, UniverseTooLarge
from activemon.parser import parse_spec
from activemon.schedule import check_scheduled_model
from activemon.scheduler import (
    build_precondition_report,
    run_scheduled,
    selected_tasks,
    split_bound_range,
    take_event,
)
from activemon.sim import FlightScenario, TraceSource, compute_metrics, generate_flight
from activemon.translate import translate
from reference_eval import present_inputs
from reference_scheduler import reference_run

A = frozenset({"a"})
B = frozenset({"b"})
C = frozenset({"c"})
AB = frozenset({"a", "b"})


class ConstSource:
    """Minimal sensor backend; anything with query(sensor, at) works."""

    def __init__(self, values):
        self.values = values

    def query(self, sensor, at):
        return self.values[sensor]


def _translated(text, mode):
    return translate(analyze(parse_spec(text)), mode)


# ---------------------------------------------------------------------------
# event packing


def test_take_event_packs_prefix():
    assert take_event([AB, A, B], 2) == {"a", "b"}


def test_take_event_is_skip_free():
    # b fits after the break point, but packing must not jump the queue
    assert take_event([A, frozenset({"b", "c"}), B], 2) == {"a"}


def test_take_event_oversized_head_blocks_everything():
    assert take_event([frozenset({"a", "b", "c"}), A], 2) == frozenset()


def test_selected_tasks_upward_closure():
    universe = frozenset({A, B, AB})
    assert selected_tasks(universe, frozenset({"a", "b"})) == {A, B, AB}
    assert selected_tasks(universe, frozenset({"a"})) == {A}


# ---------------------------------------------------------------------------
# split bounds


@pytest.mark.parametrize("universe,bound,expected", [
    ({A, B}, 1, (2, 2)),
    ({A, B}, 2, (1, 1)),
    ({A, B, AB}, 2, (1, 1)),
    ({A, B, C, AB}, 2, (2, 3)),
])
def test_split_bound_range(universe, bound, expected):
    assert split_bound_range(frozenset(universe), bound) == expected


def test_split_bound_is_worst_case():
    assert split_bound_range(frozenset({A, B, C, AB}), 2)[1] == 3


def test_split_bound_rejects_oversized_task():
    with pytest.raises(PreconditionViolation):
        split_bound_range(frozenset({A, B, AB}), 1)


def test_split_bound_caps_universe_size():
    singles = frozenset(frozenset({f"s{i}"}) for i in range(9))
    with pytest.raises(UniverseTooLarge):
        split_bound_range(singles, 2)


# ---------------------------------------------------------------------------
# mode-specific queue orders, frozen against hand-simulated runs


DEADLINE_PAIR = (
    '#![frequency="1Hz"]\n'
    '#[deadline="3s"]\ninput x : Float64\n'
    '#[deadline="100s"]\ninput y : Float64\n'
)

DP_PAIR = (
    '#![frequency="1Hz"]\n'
    '#[priority="medium", deadline="2s"]\ninput x : Float64\n'
    '#[priority="medium", deadline="2s"]\ninput y : Float64\n'
)


def _queried(run):
    return [sorted(p.flat) for p in run.plans]


def test_deadline_queue_follows_earliest_deadline():
    tr = _translated(DEADLINE_PAIR, "deadline")
    run = run_scheduled(tr, ConstSource({"x": 1.0, "y": 1.0}), 6, bound=1)
    # bootstrap serves both once, then the 3s deadline dominates
    assert _queried(run) == [["x"], ["y"], ["x"], ["x"], ["x"], ["x"]]


def test_dp_queue_preempts_on_staleness():
    tr = _translated(DP_PAIR, "dp")
    run = run_scheduled(tr, ConstSource({"x": 1.0, "y": 1.0}), 6, bound=1)
    # equal priorities tie toward x; y jumps the queue when 2s stale
    assert _queried(run) == [["x"], ["y"], ["x"], ["x"], ["y"], ["x"]]
    checked = check_scheduled_model(tr.plain, tr.schedule, 1, run.model)
    assert checked == []


def test_empty_plans_produce_no_events():
    text = ('#![frequency="1Hz"]\n'
            "input a : Float64\ninput b : Float64\n"
            "output z\n"
            '    #[priority="high"]\n'
            "    eval |@a && b| with a + b\n")
    tr = _translated(text, "priority")
    run = run_scheduled(tr, ConstSource({"a": 1.0, "b": 1.0}), 10, bound=1)
    assert not run.report.ok
    assert len(run.plans) == 10
    assert all(p.flat == frozenset() for p in run.plans)
    assert len(run.model) == 0
    assert run.triggers == []


# ---------------------------------------------------------------------------
# the bundled conflict spec


def test_conflict_union_scheduled_at_full_bandwidth(conflict_text):
    tr = _translated(conflict_text, "priority")
    run = run_scheduled(tr, ConstSource({"a": 20.0, "b": 1.0}), 10)
    assert run.report.ok
    assert all(p.flat == {"a", "b"} for p in run.plans)
    assert all(AB in p.selected for p in run.plans)
    assert check_scheduled_model(tr.plain, tr.schedule, 2, run.model) == []


def test_conflict_starves_cleanly_below_bandwidth(conflict_text):
    tr = _translated(conflict_text, "priority")
    run = run_scheduled(tr, ConstSource({"a": 20.0, "b": 1.0}), 10, bound=1)
    assert not run.report.ok
    assert run.report.oversized == (AB,)
    # the high-priority singleton wins every cycle; no inversion results
    assert all(p.flat == {"a"} for p in run.plans)
    assert check_scheduled_model(tr.plain, tr.schedule, 1, run.model) == []


# ---------------------------------------------------------------------------
# precondition reports


def test_drone_report_flags_oversized_unions(drone_text):
    tr = _translated(drone_text, "dp")
    report = build_precondition_report(tr.schedule, 2, Fraction(1, 2))
    assert not report.ok
    assert report.max_task_size == 4
    assert len(report.oversized) == 5  # the 3- and 4-sensor unions
    assert report.split_error is not None and "15 tasks" in report.split_error
    assert any("split bound unavailable" in line for line in report.lines())
    assert "deadline and staleness warnings skipped: they need the split " \
        "bound" in report.lines()


def test_drone_report_ok_once_bound_covers_tasks(drone_text):
    tr = _translated(drone_text, "dp")
    report = build_precondition_report(tr.schedule, 4, Fraction(1, 2))
    assert report.ok
    assert report.oversized == ()


def test_deadline_report_warns_on_tight_deadline():
    text = ('#![frequency="1Hz"]\n'
            '#[deadline="1s"]\ninput x : Float64\n')
    tr = _translated(text, "deadline")
    report = build_precondition_report(tr.schedule, 1, Fraction(1))
    # a deadline inside one worst-case round can always be missed
    assert (report.split_min, report.split_max) == (1, 1)
    assert any("deadline 1.0s" in w for w in report.deadline_warnings)
    assert not any("skipped" in line for line in report.lines())
    assert report.ok  # warnings do not invalidate the run


def test_report_skips_warnings_without_split_bound():
    tr = _translated(DEADLINE_PAIR, "deadline")
    report = build_precondition_report(tr.schedule, 1, Fraction(1))
    assert report.oversized == (frozenset({"x", "y"}),)
    assert report.split_error is not None
    assert report.deadline_warnings == ()
    assert not report.ok


# ---------------------------------------------------------------------------
# closed-loop runs on a synthetic flight


@pytest.fixture(scope="module")
def flight_run(drone_text):
    tr = _translated(drone_text, "dp")
    trace = generate_flight(FlightScenario(seed=137))
    return tr, trace, run_scheduled(tr, TraceSource(trace), 60)


def test_flight_run_respects_bandwidth(flight_run):
    tr, _, run = flight_run
    inputs = tr.plain.spec.input_names()
    assert all(len(p.flat) <= 2 for p in run.plans)
    for step in range(len(run.model)):
        assert len(present_inputs(run.model, inputs, step)) <= 2


def test_flight_run_logs_one_plan_per_cycle(flight_run):
    _, _, run = flight_run
    assert len(run.plans) == 120
    assert run.model.times == [p.time for p in run.plans if p.flat]


def test_flight_run_total_bandwidth(flight_run):
    tr, _, run = flight_run
    metrics = compute_metrics(run.model, tr.plain.spec.input_names(), 60.0)
    assert metrics.total_values == 240
    assert metrics.values_per_second == 4.0


def test_flight_run_is_deterministic(flight_run):
    tr, trace, run = flight_run
    again = run_scheduled(tr, TraceSource(trace), 60)
    assert again.plans == run.plans
    assert again.model.times == run.model.times
    assert again.model.streams == run.model.streams
    assert [(t.trigger, t.step) for t in again.triggers] == \
        [(t.trigger, t.step) for t in run.triggers]


def test_hover_flight_is_fully_clean(drone_text):
    tr = _translated(drone_text, "dp")
    source = ConstSource({
        "gps_lat_long": (47.0, 9.0),
        "gps_altitude": 1.5,
        "barometer_pressure": 1013.25,
        "barometer_altitude": 1.5,
    })
    run = run_scheduled(tr, source, 60)
    assert len(run.model) == 120
    assert run.triggers == []
    assert check_scheduled_model(tr.plain, tr.schedule, 2, run.model) == []


def test_gps_tasks_never_starve(drone_text):
    tr = _translated(drone_text, "dp")
    run = run_scheduled(tr, TraceSource(generate_flight(FlightScenario(seed=42))), 60)
    for sensor in ("gps_lat_long", "gps_altitude"):
        times = [p.time for p in run.plans if sensor in p.flat]
        assert times, sensor
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) <= Fraction(7, 2), sensor


# ---------------------------------------------------------------------------
# cycle-indexed urgency against the time-based reference


def _assert_matches_reference(tr, trace, horizon, bound):
    run = run_scheduled(tr, TraceSource(trace), horizon, bound)
    plans, model = reference_run(tr, TraceSource(trace), horizon, bound)
    assert run.plans == plans
    assert run.model.times == model.times
    assert run.model.streams.keys() == model.streams.keys()
    for name, column in model.streams.items():
        assert all(values_equal(a, b)
                   for a, b in zip(run.model.streams[name], column, strict=True))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES),
       st.sampled_from([(9, 20), (1, 4)]))
@settings(max_examples=200, deadline=None)
def test_scheduler_matches_the_time_based_reference(seed, mode, deadlines):
    text, bound, horizon, trace = gen_specs.gen_instance(
        Random(seed), mode, deadlines)
    tr = _translated(text, mode)
    # bound 1 ranks singletons only and the instance bound packs every
    # task, so the bounds between are where unions compete for the event
    for b in range(1, bound + 1):
        _assert_matches_reference(tr, trace, horizon, b)


# 3 Hz against bounds of 1.2 s and 0.5 s: 3.6 and 1.5 cycles, so the
# staleness limit is floor(bound / period) and not a whole quotient
FRACTIONAL_DP = (
    '#![frequency="3Hz"]\n'
    '#[priority="high", deadline="1.2s"]\ninput x : Float64\n'
    '#[priority="low", deadline="0.5s"]\ninput y : Float64\n'
    '#[priority="medium"]\ninput z : Float64\n'
    "output s\n"
    '    #[priority="low"]\n'
    "    eval |@x && y| when x > 0.0 with x + y\n"
    "    eval |@x && y| with x - y\n"
)

FRACTIONAL_DEADLINE = (
    '#![frequency="3Hz"]\n'
    '#[deadline="1.2s"]\ninput x : Float64\n'
    '#[deadline="0.5s"]\ninput y : Float64\n'
    '#[deadline="2s"]\ninput z : Float64\n'
)


@pytest.mark.parametrize("text,mode", [
    (FRACTIONAL_DP, "dp"), (FRACTIONAL_DP, "priority"),
    (FRACTIONAL_DEADLINE, "deadline"), (DP_PAIR, "dp"),
    (DEADLINE_PAIR, "deadline"),
])
@pytest.mark.parametrize("bound", [1, 2])
def test_scheduler_matches_the_reference_on_fractional_bounds(text, mode, bound):
    tr = _translated(text, mode)
    trace = gen_specs.gen_source_trace(Random(bound), ("x", "y", "z"),
                                       Fraction(12))
    _assert_matches_reference(tr, trace, Fraction(23, 2), bound)


def test_scheduler_matches_the_reference_on_a_drone_flight(drone_text):
    tr = _translated(drone_text, "dp")
    trace = generate_flight(FlightScenario(seed=42))
    for bound in (1, 2, 3):
        _assert_matches_reference(tr, trace, 60, bound)
