"""Bandwidth packing, precondition reports, and closed-loop scheduling runs."""

import gc
import math
import weakref
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen_specs
from activemon import scheduler
from activemon.analysis import analyze
from activemon.ast import Pacing
from activemon.engine import values_equal, walk_model
from activemon.parser import parse_spec
from activemon.schedule import (MODE_DEADLINE, DecisionOracle,
                                build_static_schedule,
                                task_names, task_of, union_closure)
from activemon.scheduler import (
    SchedulerState,
    build_precondition_report,
    run_scheduled,
    take_event,
)
from activemon.sim import (FlightScenario, TraceSource, compute_metrics,
                          generate_flight)
from activemon.translate import translate
from checks import check_violations, time_at
from events import trace_from_samples
from reference_eval import present_inputs, triggers_from_model
from reference_scheduler import reference_run
from test_golden_translate import wide_text

# tasks over the inputs a, b, c
INPUTS = ("a", "b", "c")
A, B, C = 0b001, 0b010, 0b100
AB = A | B


class ConstSource:
    """Minimal sensor backend; anything with read(sensors, tick, quantum)
    works, and a live one answers that one request per cycle."""

    def __init__(self, values):
        self.values = values

    def read(self, sensors, tick, quantum):
        return {s: self.values[s] for s in sensors}


def _translated(text, mode):
    return translate(analyze(parse_spec(text)), mode)


# ---------------------------------------------------------------------------
# event packing


def test_take_event_packs_prefix():
    assert take_event([AB, A, B], 2) == AB


def test_take_event_is_skip_free():
    # b fits after the break point, but packing must not jump the queue
    assert take_event([A, B | C, B], 2) == A


def test_take_event_oversized_head_blocks_everything():
    assert take_event([A | B | C, A], 2) == 0


def test_selected_tasks_upward_closure():
    # an event selects the tasks inside its inputs: the unions of the base
    # tasks inside them
    schedule = _translated(gen_specs.paced_spec([A, B], INPUTS), "dp").schedule
    assert schedule.tasks(AB) == {A, B, AB}
    assert schedule.tasks(A) == {A}
    assert schedule.tasks(A | B | C) == {A, B, AB}
    assert _translated(gen_specs.paced_spec([A], INPUTS),
                       "dp").schedule.tasks(A | B | C) == {A}


# ---------------------------------------------------------------------------
# split bounds: the universe is union-closed, so the split bound is one event
# when its widest task fits and diverges at the first oversized task

ONE_EVENT = "split bound: worst 1, best 1"


def _paced_report(tasks, bound):
    tr = _translated(gen_specs.paced_spec(tasks, INPUTS), "dp")
    return build_precondition_report(tr.schedule, bound, Fraction(1))


def _diverges(task, bound):
    return [f"unschedulable task {task}: wider than bandwidth {bound}",
            f"split bound unavailable: task {task} exceeds bandwidth {bound}; "
            "the split bound diverges",
            "deadline and staleness warnings skipped: they need the split "
            "bound"]


@pytest.mark.parametrize("universe,bound,expected", [
    ({A, B}, 1, _diverges("{a,b}", 1)),
    ({A, B}, 2, [ONE_EVENT]),
    ({A, B, AB}, 2, [ONE_EVENT]),
    ({A, B, C, AB}, 2, _diverges("{a,b,c}", 2)),
])
def test_split_bound_range(universe, bound, expected):
    # the paced tasks span their union closure, which the report reads
    assert _paced_report(universe, bound).lines()[1:] == expected


def test_split_bound_rejects_oversized_task():
    report = _paced_report({A, B, AB}, 1)
    assert report.oversized == (AB,)
    assert not report.ok
    assert report.lines()[1:] == _diverges("{a,b}", 1)


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
    checked = check_violations(tr.plain, tr.schedule, 1, run.model)
    assert checked == []


def test_empty_plans_produce_no_events():
    text = ('#![frequency="1Hz"]\n'
            "input a : Float64\ninput b : Float64\n"
            "output z\n"
            '    #[priority="high"]\n'
            "    eval |@a && b| with a + b\n")
    tr = _translated(text, "priority")
    assert not build_precondition_report(tr.schedule, 1, Fraction(1)).ok
    run = run_scheduled(tr, ConstSource({"a": 1.0, "b": 1.0}), 10, bound=1)
    assert len(run.plans) == 10
    assert all(p.flat == frozenset() for p in run.plans)
    assert len(run.model) == 0
    assert run.triggers == []


# ---------------------------------------------------------------------------
# the bundled conflict spec


def test_conflict_union_scheduled_at_full_bandwidth(conflict_text):
    tr = _translated(conflict_text, "priority")
    assert build_precondition_report(tr.schedule, 2, Fraction(1)).ok
    run = run_scheduled(tr, ConstSource({"a": 20.0, "b": 1.0}), 10)
    assert all(p.flat == {"a", "b"} for p in run.plans)
    assert all(AB in p.selected for p in run.plans)
    assert check_violations(tr.plain, tr.schedule, 2, run.model) == []


def test_conflict_starves_cleanly_below_bandwidth(conflict_text):
    tr = _translated(conflict_text, "priority")
    report = build_precondition_report(tr.schedule, 1, Fraction(1))
    assert not report.ok
    assert report.oversized == (AB,)
    run = run_scheduled(tr, ConstSource({"a": 20.0, "b": 1.0}), 10, bound=1)
    # the high-priority singleton wins every cycle; no inversion results
    assert all(p.flat == {"a"} for p in run.plans)
    assert check_violations(tr.plain, tr.schedule, 1, run.model) == []


# ---------------------------------------------------------------------------
# precondition reports


def test_drone_report_flags_oversized_unions(drone_text):
    tr = _translated(drone_text, "dp")
    report = build_precondition_report(tr.schedule, 2, Fraction(1, 2))
    assert not report.ok
    assert report.max_task_size == 4
    assert len(report.oversized) == 5  # the 3- and 4-sensor unions
    # the first oversized task in task_key order names the divergence
    lines = report.lines()
    assert "split bound unavailable: task {barometer_altitude," \
        "barometer_pressure,gps_altitude} exceeds bandwidth 2; the split " \
        "bound diverges" in lines
    assert "deadline and staleness warnings skipped: they need the split " \
        "bound" in lines


def test_drone_report_ok_once_bound_covers_tasks(drone_text):
    tr = _translated(drone_text, "dp")
    report = build_precondition_report(tr.schedule, 4, Fraction(1, 2))
    assert report.ok
    assert report.oversized == ()
    assert ONE_EVENT in report.lines()


def test_deadline_report_warns_on_tight_deadline():
    text = ('#![frequency="1Hz"]\n'
            '#[deadline="1s"]\ninput x : Float64\n')
    tr = _translated(text, "deadline")
    report = build_precondition_report(tr.schedule, 1, Fraction(1))
    # a deadline inside one worst-case round can always be missed
    assert ONE_EVENT in report.lines()
    assert any("deadline 1.0s" in w for w in report.deadline_warnings)
    assert not any("skipped" in line for line in report.lines())
    assert report.ok  # warnings do not invalidate the run


def test_deadline_report_warns_on_a_union_at_its_least_deadline():
    text = ('#![frequency="1Hz"]\n'
            '#[deadline="1s"]\ninput x : Float64\n'
            '#[deadline="5s"]\ninput y : Float64\n'
            "output s := x + y\n")
    tr = _translated(text, "deadline")
    report = build_precondition_report(tr.schedule, 2, Fraction(1))
    assert ONE_EVENT in report.lines()
    # {x,y} has no table of its own; its shortest region deadline is x's
    assert [w.split(" is ")[0] for w in report.deadline_warnings] == [
        "deadline 1.0s on {x}", "deadline 1.0s on {x,y}"]


def test_report_skips_warnings_without_split_bound():
    tr = _translated(DEADLINE_PAIR, "deadline")
    report = build_precondition_report(tr.schedule, 1, Fraction(1))
    assert report.oversized == (task_of("xy", tr.schedule.inputs),)
    assert report.lines()[2:] == [
        "split bound unavailable: task {x,y} exceeds bandwidth 1; the split "
        "bound diverges",
        "deadline and staleness warnings skipped: they need the split bound"]
    assert report.deadline_warnings == ()
    assert not report.ok


def test_deadline_report_skips_a_task_without_regions():
    # {y} is paced but unannotated: it has no regions and so no deadline,
    # and the header's default, which is within the period, is not its
    # bound; {x} and the union {x,y} warn at x's deadline
    text = ('#![frequency="1Hz", deadline="1s"]\n'
            '#[deadline="1s"]\ninput x : Float64\n'
            "input y : Float64\n"
            "output o\n    eval |@y| with y\n")
    tr = _translated(text, "deadline")
    schedule = tr.schedule
    y = task_of("y", schedule.inputs)
    assert schedule.bound(y) is None and schedule.joint(y) == ()
    report = build_precondition_report(schedule, 2, Fraction(1))
    assert report.lines() == [
        "mode=deadline bound=2 max_task_size=2 ok=True",
        ONE_EVENT,
        "deadline 1.0s on {x} is within the worst-case round of 1.0s; it can "
        "be missed",
        "deadline 1.0s on {x,y} is within the worst-case round of 1.0s; it "
        "can be missed"]


def _reference_report_lines(schedule, bound, period):
    """The report as the split-bound search and the per-chain deadline scan
    defined it, for a universe whose union fits or that has an oversized
    task (every union-closed one)."""
    inputs = schedule.inputs
    tasks = sorted(schedule.universe,
                   key=lambda t: sorted(task_names(t, inputs)))

    def fmt(task):
        return "{" + ",".join(sorted(task_names(task, inputs))) + "}"

    oversized = [t for t in tasks if t.bit_count() > bound]
    lines = [f"mode={schedule.mode} bound={bound} max_task_size="
             f"{max((t.bit_count() for t in tasks), default=0)} "
             f"ok={not oversized}"]
    lines += [f"unschedulable task {fmt(t)}: wider than bandwidth {bound}"
              for t in oversized]
    if oversized:
        return lines + [
            f"split bound unavailable: task {fmt(oversized[0])} exceeds "
            f"bandwidth {bound}; the split bound diverges",
            "deadline and staleness warnings skipped: they need the split "
            "bound"]
    union = 0
    for task in tasks:
        union |= task
    assert union.bit_count() <= bound
    window = 1 * period  # the union fits: every task in one event
    lines.append("split bound: worst 1, best 1")
    for task in tasks:
        if schedule.mode == MODE_DEADLINE:
            least = min((v for k, chains in enumerate(schedule.chains)
                         if schedule.inside(task) >> k & 1
                         for chain in chains for _, v in chain),
                        default=None)
            if least is not None and least <= window:
                lines.append(
                    f"deadline {float(least)}s on {fmt(task)} is within the "
                    f"worst-case round of {float(window)}s; it can be missed")
        else:
            b = schedule.bound(task)
            if b is not None and b <= window:
                lines.append(
                    f"staleness bound {float(b)}s on {fmt(task)} is within "
                    f"the worst-case round of {float(window)}s")
    return lines


def test_report_matches_the_split_bound_and_chain_scan_definitions():
    warned = 0
    for seed in range(50):
        for mode in gen_specs.MODES:
            for off_grid in (False, True):
                rng = Random(f"{seed} {mode} {off_grid}")
                analyzed = analyze(parse_spec(gen_specs.gen_spec(
                    rng, mode, annotate=True, deadlines=(1, 2),
                    off_grid=off_grid)))
                schedule = build_static_schedule(analyzed, mode)
                assert union_closure(schedule.universe) == schedule.universe
                period = analyzed.config.period
                for bound in range(1, 5):
                    report = build_precondition_report(schedule, bound,
                                                       period)
                    assert report.lines() == _reference_report_lines(
                        schedule, bound, period), (seed, mode, off_grid)
                    warned += len(report.deadline_warnings)
    assert warned > 100


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
    assert check_violations(tr.plain, tr.schedule, 2, run.model) == []


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
    assert (run.model.ticks, run.model.quantum) == (model.ticks, model.quantum)
    assert run.triggers == triggers_from_model(tr.plain, model)
    assert run.model.streams.keys() == model.streams.keys()
    for name, column in model.streams.items():
        assert all(values_equal(a, b)
                   for a, b in zip(run.model.streams[name], column, strict=True))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES),
       st.sampled_from([(9, 20), (1, 4)]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_scheduler_matches_the_time_based_reference(seed, mode, deadlines,
                                                    bounds):
    # `bounds` adds a header default deadline and deadline-only inputs,
    # whose direct tasks take their staleness limit from `bound(task)`
    # without regions; the reference samples through the per-sensor
    # `query`, so this also compares `read` with `query`
    text, bound, horizon, trace = gen_specs.gen_instance(
        Random(seed), mode, deadlines, bounds=bounds)
    tr = _translated(text, mode)
    # bound 1 ranks singletons only and the instance bound packs every
    # task, so the bounds between are where unions compete for the event
    for b in range(1, bound + 1):
        _assert_matches_reference(tr, trace, horizon, b)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["priority", "dp"]))
# o4's unannotated clause `when s0 <= -1.3` lies between its annotated
# ones, so s0's second region needs s0 > -1.3; at the first step no region
# of s0 holds, so the scheduler must leave s0 without a value
@example(12, "priority")
@settings(max_examples=60, derandomize=True, deadline=None)
def test_the_scheduler_values_tasks_as_the_oracle_does(seed, mode):
    # after every step of a closed-loop run, each working task's value in
    # `SchedulerState.values`, read back from the helpers, is the current
    # value that `DecisionOracle` decides from the annotation guards;
    # deadline mode keeps expiries instead of current values
    rng = Random(seed)
    analyzed = analyze(parse_spec(gen_specs.gen_spec(rng, mode, annotate=True)))
    trace = gen_specs.gen_source_trace(rng, analyzed.spec.input_names(),
                                       Fraction(20))
    tr = translate(analyzed, mode)
    for bound in (1, 2):
        values = []

        class Recording(SchedulerState):
            def observe(self, row):
                super().observe(row)
                values.append(dict(self.values))

        with mock.patch.object(scheduler, "SchedulerState", Recording):
            run = run_scheduled(tr, TraceSource(trace), 20, bound)
        model = run.model
        working = tr.schedule.tasks(width=bound)
        guards = tr.schedule.distinct_guards
        oracle = DecisionOracle(tr.plain, tr.schedule, model.quantum)
        nexts = list(model.ticks[1:]) + [None]
        for step, ((present, holding), tick, nxt, held) in enumerate(zip(
                walk_model(tr.plain, model, [], guards), model.ticks, nexts,
                values, strict=True)):
            oracle.decide(tick, present, holding, nxt)
            assert {t: held.get(t) for t in working} == \
                {t: oracle.current.get(t) for t in working}, (bound, step)


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


# cycles at 0.7, 3 and 7 Hz over samples in thirds, sevenths and tenths; the
# trigger fires at exact cycle times
MIXED_DP = (
    '#![frequency="{freq}Hz"]\n'
    '#[priority="high", deadline="1.2s"]\ninput x : Float64\n'
    '#[priority="low", deadline="0.5s"]\ninput y : Float64\n'
    '#[priority="medium"]\ninput z : Float64\n'
    "output s |@x && y| := x + y + now\n"
    "output late |@x| := x + now > 8.0\n"
    'trigger late "late"\n'
)
MIXED_TRACE = trace_from_samples({
    "x": [(Fraction(k, 3), float(k % 7)) for k in range(37)],
    "y": [(Fraction(k, 7), float(k % 5)) for k in range(85)],
    "z": [(Fraction(k, 10), k / 20) for k in range(121)],
})


@pytest.mark.parametrize("freq", ["0.7", "3", "7"])
@pytest.mark.parametrize("mode,bound", [("dp", 1), ("dp", 2), ("priority", 2)])
def test_scheduler_ticks_match_the_reference_on_mixed_denominators(
        freq, mode, bound):
    tr = _translated(MIXED_DP.format(freq=freq), mode)
    _assert_matches_reference(tr, MIXED_TRACE, Fraction(23, 2), bound)
    run = run_scheduled(tr, TraceSource(MIXED_TRACE), Fraction(23, 2), bound)
    assert run.triggers
    period = tr.analyzed.config.period
    assert all(r.time == time_at(run.model, r.step) for r in run.triggers)
    assert all(r.time / period == int(r.time / period) for r in run.triggers)


# ---------------------------------------------------------------------------
# observe reads only the direct tasks inside the event


def _assert_direct_helpers_paced_by_their_inputs(tr):
    """Each direct task's `schedule_*` and `last_*` helpers fire exactly
    when all the task's inputs are present, and so only in an event that
    queries them all."""
    inputs = tr.schedule.inputs
    checked = 0
    for task in tr.schedule.direct:
        own = Pacing.of(task_names(task, inputs))
        for kind in ("schedule", "last"):
            name = tr.names[task].get(kind)
            if name is not None:
                pacings = {c.pacing for c in tr.plain.spec.output_decl(name).clauses}
                assert pacings == {own}, (name, pacings)
                checked += 1
    return checked


@pytest.mark.parametrize("spec", ["drone_experiment.lola", "geofence_priority.lola",
                                  "priority_conflict.lola", "wide"])
@pytest.mark.parametrize("mode", ["priority", "dp"])
def test_direct_helpers_are_paced_by_the_task_inputs_on_bundled_specs(
        spec_dir, spec, mode):
    # the bundled specs carry priorities, which deadline mode rejects
    text = wide_text() if spec == "wide" else (spec_dir / spec).read_text()
    assert _assert_direct_helpers_paced_by_their_inputs(_translated(text, mode))


@pytest.mark.parametrize("text", [FRACTIONAL_DEADLINE, DEADLINE_PAIR])
def test_direct_helpers_are_paced_by_the_task_inputs_in_deadline_mode(text):
    assert _assert_direct_helpers_paced_by_their_inputs(
        _translated(text, "deadline"))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES))
@settings(max_examples=100, deadline=None)
def test_direct_helpers_are_paced_by_the_task_inputs_on_generated_specs(
        seed, mode):
    text, _, _, _ = gen_specs.gen_instance(Random(seed), mode)
    _assert_direct_helpers_paced_by_their_inputs(_translated(text, mode))


# ---------------------------------------------------------------------------
# the kept rank order against a full re-sort


def _keys_from_scratch(state, schedule) -> list:
    """Every working task's rank key, from the state's values, satisfaction
    cycles and current cycle alone, sorted."""
    period = state.period
    direct = set(schedule.direct)
    keys = []
    for i, task in enumerate(state.working):
        ranked = bool(schedule.joint(task))
        value = state.values.get(task)
        seen = state.seen.get(task)
        age = seen if seen is not None else -math.inf
        urgency = -(value if value is not None else math.inf)
        bound = schedule.bound(task)
        if schedule.mode == "deadline":
            if not ranked:
                key = (3, 0, age)
            elif value is None or seen is None:
                key = (0, 0, age)
            else:
                key = (1, seen * period + value, 0)
        elif (schedule.mode == "dp" and bound is not None
              and (seen is None or state.cycle - seen > bound // period)):
            key = (0, urgency, age)
        elif not ranked:
            key = (3, 0, age)
        elif task not in direct:
            key = (4, urgency, 0)
        elif value is not None:
            key = (1, -value, 0)
        else:
            key = (2, 0, 0)
        keys.append(key + (i, task))
    return sorted(keys)


def _run_checking_order(tr, source, horizon, bound):
    """`run_scheduled`, with the kept rank order compared after every plan
    with a full re-sort of keys computed from scratch, and the planned event
    (reused or packed afresh) with a packing of that re-sort; (the run, the
    number of times a task was overdue at a plan after it had been
    served)."""
    states = []
    stale = [0]

    class Checked(SchedulerState):
        def __init__(self, translation, bound):
            super().__init__(translation, bound)
            states.append(self)

        def plan(self, tick):
            event = super().plan(tick)
            full = _keys_from_scratch(self, tr.schedule)
            assert self.order == full, f"cycle {self.cycle}"
            flat = take_event([key[-1] for key in full], self.bound)
            assert event.flat == frozenset(task_names(flat, tr.schedule.inputs)), \
                f"cycle {self.cycle}"
            stale[0] += sum(1 for key in full
                            if key[0] == 0 and key[2] != -math.inf)
            return event

    with mock.patch.object(scheduler, "SchedulerState", Checked):
        run = run_scheduled(tr, source, horizon, bound)
    assert len(states) == 1 and states[0].cycle == len(run.plans) - 1
    return run, stale[0]


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES),
       st.sampled_from([(9, 20), (1, 4)]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_kept_order_equals_a_full_resort_on_generated_specs(seed, mode,
                                                            deadlines, bounds):
    text, bound, horizon, trace = gen_specs.gen_instance(
        Random(seed), mode, deadlines, bounds=bounds)
    tr = _translated(text, mode)
    for b in range(1, bound + 1):
        _run_checking_order(tr, TraceSource(trace), horizon, b)


@pytest.mark.parametrize("mode", ["dp", "priority"])
def test_kept_order_equals_a_full_resort_on_a_drone_flight(drone_text, mode):
    tr = _translated(drone_text, mode)
    trace = generate_flight(FlightScenario(seed=42))
    for bound in (1, 2, 3):
        run, stale = _run_checking_order(tr, TraceSource(trace), 60, bound)
        assert stale > 0 or mode == "priority"


def _assert_same_run(a, b):
    assert a.plans == b.plans
    assert (a.model.ticks, a.model.quantum) == (b.model.ticks, b.model.quantum)
    assert all(values_equal(x, y) for name, column in a.model.streams.items()
               for x, y in zip(column, b.model.streams[name], strict=True))
    assert a.triggers == b.triggers


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES), st.booleans())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_a_run_plans_alike_on_a_shared_and_a_fresh_translation(seed, mode,
                                                               tight):
    # the scheduler's tables are cached on the translation per bound; a run
    # after three others on different traces plans as one on a translation
    # that has served no run
    rng = Random(seed)
    text, bound, horizon, trace = gen_specs.gen_instance(
        rng, mode, (1, 4) if tight else (9, 20))
    shared = _translated(text, mode)
    inputs = shared.analyzed.spec.input_names()
    for b in range(1, bound + 1):
        for _ in range(3):
            other = gen_specs.gen_source_trace(rng, inputs, horizon)
            run_scheduled(shared, TraceSource(other), horizon, b)
        _assert_same_run(
            run_scheduled(shared, TraceSource(trace), horizon, b),
            run_scheduled(_translated(text, mode), TraceSource(trace),
                          horizon, b))


@pytest.mark.parametrize("mode", ["dp", "priority"])
def test_a_drone_run_plans_alike_on_a_shared_and_a_fresh_translation(
        drone_text, mode):
    shared = _translated(drone_text, mode)
    flights = [generate_flight(FlightScenario(seed=s)) for s in (3, 5, 7, 9)]
    for trace in flights[:3]:
        run_scheduled(shared, TraceSource(trace), 60, 2)
    _assert_same_run(
        run_scheduled(shared, TraceSource(flights[3]), 60, 2),
        run_scheduled(_translated(drone_text, mode),
                      TraceSource(flights[3]), 60, 2))
    # the runs shared the static tables, each re-keying its own copies
    a, b = SchedulerState(shared, 2), SchedulerState(shared, 2)
    assert a._static is b._static and a._events is b._events
    assert a.order == b.order and a.order is not b.order
    assert a._keys is not b._keys and a._aging is not b._aging


def test_a_translation_dies_after_its_runs(drone_text):
    # the tables live on the translation: no cache outside it keeps it alive
    tr = _translated(drone_text, "dp")
    trace = generate_flight(FlightScenario(seed=3, duration=10.0))
    runs = [run_scheduled(tr, TraceSource(trace), 10, b) for b in (1, 2, 2)]
    assert set(tr.scheduler_tables) == {1, 2}
    dead = weakref.ref(tr)
    del tr, runs
    gc.collect()
    assert dead() is None


# at 2 Hz a 0.3 s staleness bound is 0 whole cycles: x is overdue again at
# the cycle after each of its satisfactions
SUB_PERIOD_DP = (
    '#![frequency="2Hz"]\n'
    '#[priority="low", deadline="0.3s"]\ninput x : Float64\n'
    '#[priority="high", deadline="2s"]\ninput y : Float64\n'
    '#[priority="medium"]\ninput z : Float64\n'
    "output s\n"
    '    #[priority="medium"]\n'
    "    eval |@x && y| when x > 0.0 with x + y\n"
)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_kept_order_with_a_staleness_bound_below_one_period(bound):
    tr = _translated(SUB_PERIOD_DP, "dp")
    x = task_of(["x"], tr.schedule.inputs)
    assert tr.schedule.bound(x) // tr.analyzed.config.period == 0
    trace = gen_specs.gen_source_trace(Random(bound), ("x", "y", "z"),
                                       Fraction(20))
    run, stale = _run_checking_order(tr, TraceSource(trace), 20, bound)
    assert stale > 0
    assert sum("x" in p.flat for p in run.plans) > len(run.plans) // 2
    _assert_matches_reference(tr, trace, 20, bound)


def _random_walk(rng: Random, sensors, seconds: int, hz: int = 10):
    """A mean-reverting random walk per sensor (stationary std 1), `hz`
    samples a second over [0, seconds]."""
    samples = {}
    for sensor in sensors:
        x = rng.gauss(0.0, 1.0)
        points = []
        for k in range(seconds * hz + 1):
            points.append((Fraction(k, hz), round(x, 4)))
            x += -0.02 * x + 0.2 * rng.gauss(0.0, 1.0)
        samples[sensor] = tuple(points)
    return trace_from_samples(samples)


# deadline mode rejects the wide spec's priorities
@pytest.mark.parametrize("mode", ["priority", "dp"])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_wide_spec_matches_the_reference_over_a_long_walk(mode, bound):
    tr = _translated(wide_text(), mode)
    assert len([t for t in tr.schedule.universe if t.bit_count() <= 2]) == 45
    trace = _random_walk(Random(f"wide-walk:{bound}"), tr.schedule.inputs,
                         150)
    _assert_matches_reference(tr, trace, 150, bound)
    run, stale = _run_checking_order(tr, TraceSource(trace), 150, bound)
    assert len(run.plans) == 300
    assert stale > 0 or mode == "priority"
