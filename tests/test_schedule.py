"""Task universe, region tables, and the per-step decision oracle."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen_specs
from activemon.analysis import analyze
from activemon.engine import Event, run_monitor_full
from activemon.errors import MixedAnnotationKinds, PreconditionViolation
from activemon.io import write_model
from activemon.parser import parse_spec
from activemon.schedule import (DecisionOracle, build_static_schedule,
                                build_task_universe, check_scheduled_model,
                                task_key, union_closure)
from activemon.scheduler import run_scheduled
from activemon.sim import FlightScenario, TraceSource, generate_flight
from activemon.translate import translate
from reference_eval import present_inputs
from reference_oracle import ReferenceOracle

GL = "gps_lat_long"
GA = "gps_altitude"
BP = "barometer_pressure"
BA = "barometer_altitude"


def schedule_for(text, mode):
    analyzed = analyze(parse_spec(text))
    return analyzed, build_static_schedule(analyzed, mode)


def tasks(*groups):
    return {frozenset(g) for g in groups}


# -- universe ----------------------------------------------------------------


def test_union_closure():
    base = {frozenset("a"), frozenset("b")}
    assert union_closure(base) == tasks("a", "b", "ab")
    assert union_closure({frozenset("ab"), frozenset("bc")}) == \
        tasks("ab", "bc", "abc")


@given(st.lists(st.frozensets(st.sampled_from("abcde")), max_size=6))
def test_union_closure_is_every_union_of_base_tasks(base):
    expected = {frozenset().union(*subset)
                for k in range(1, len(base) + 1)
                for subset in combinations(base, k)} - {frozenset()}
    assert union_closure(set(base)) == expected


def test_geofence_universe(geofence_text):
    analyzed = analyze(parse_spec(geofence_text))
    assert build_task_universe(analyzed) == tasks(
        ("lat", "lon"), ("alt",), ("lat", "lon", "alt"))


def test_conflict_universe(conflict_text):
    analyzed = analyze(parse_spec(conflict_text))
    assert build_task_universe(analyzed) == tasks("a", "b", "ab")


def test_drone_universe_is_full_closure(drone_text):
    analyzed = analyze(parse_spec(drone_text))
    universe = build_task_universe(analyzed)
    assert len(universe) == 15  # every nonempty subset of four singletons
    assert frozenset({GL, GA, BP, BA}) in universe


# -- static schedule construction ---------------------------------------------


def test_conflict_region_values(conflict_text):
    _, sched = schedule_for(conflict_text, "priority")
    values = {t: [e.value for e in es] for t, es in sched.entries.items()}
    assert values[frozenset({"a"})] == [10]
    assert values[frozenset({"b"})] == [5]
    # the union region combines all three contributors at max priority
    assert values[frozenset({"a", "b"})] == [10]


def test_drone_direct_tasks_and_bounds(drone_text):
    analyzed, sched = schedule_for(drone_text, "dp")
    assert sched.direct == (
        frozenset({GL}), frozenset({GA}), frozenset({BP}), frozenset({BA}))
    assert all(sched.bounds[t] == Fraction(3) for t in sched.universe)
    assert sched.tracked == frozenset(sched.direct)

    prio = build_static_schedule(analyzed, "priority")
    assert all(prio.bounds[t] is None for t in prio.universe)


def test_drone_gps_singleton_regions(drone_text):
    _, sched = schedule_for(drone_text, "dp")
    chain = sched.entries[frozenset({GL})]
    assert [e.value for e in chain] == [10, 5, 1]  # most urgent first
    assert chain[0].sources == (("scheduled_geofence", 2),)
    assert chain[-1].sources == (("scheduled_geofence", 0),)


def test_drone_union_regions_cross_product(drone_text):
    _, sched = schedule_for(drone_text, "dp")
    quad = sched.entries[frozenset({GL, GA})]
    expected = sorted(
        (max(g, a) for g, a in product([1, 5, 10], repeat=2)), reverse=True)
    assert [e.value for e in quad] == expected
    assert len(quad) == 9
    assert sched.joint[frozenset({GL, GA})] == tasks((GL,), (GA,))
    # distinct regions never share their full source signature
    signatures = [e.sources for e in quad]
    assert len(set(signatures)) == len(signatures)


def test_deadline_mode_combines_by_min():
    text = ('#[deadline="3s"]\ninput x : Float64\n'
            '#[deadline="100s"]\ninput y : Float64\n'
            "output s := x + y\n")
    _, sched = schedule_for(text, "deadline")
    pair = sched.entries[frozenset({"x", "y"})]
    assert [e.value for e in pair] == [Fraction(3)]
    assert sched.bounds[frozenset({"x", "y"})] == Fraction(3)


def test_unannotated_pacing_has_no_regions():
    text = ('#[priority="high"]\ninput a : Float64\ninput u : Float64\n'
            "output x := a\noutput y := u\n")
    _, sched = schedule_for(text, "priority")
    assert sched.entries[frozenset({"u"})] == ()
    assert sched.entries[frozenset({"a", "u"})] != ()


def test_deadline_mode_rejects_priorities(drone_text):
    analyzed = analyze(parse_spec(drone_text))
    with pytest.raises(MixedAnnotationKinds):
        build_static_schedule(analyzed, "deadline")


@pytest.mark.parametrize("mode", ["priority", "dp"])
def test_priority_modes_reject_clause_deadlines(mode):
    text = ("input a : Float64\n"
            "output x\n"
            '    #[deadline="2s"]\n'
            "    eval |@a| with a\n")
    analyzed = analyze(parse_spec(text))
    with pytest.raises(MixedAnnotationKinds):
        build_static_schedule(analyzed, mode)


def test_priority_mode_allows_input_deadlines():
    text = ('#[priority="high", deadline="3s"]\ninput a : Float64\n'
            "output x := a\n")
    analyzed = analyze(parse_spec(text))
    sched = build_static_schedule(analyzed, "priority")
    assert sched.bounds[frozenset({"a"})] is None  # staleness is ignored here


def test_any_paced_annotation_rejected():
    text = ("input a : Float64\n"
            "output x\n"
            '    #[priority="high"]\n'
            "    eval |@any| with now\n")
    analyzed = analyze(parse_spec(text))
    with pytest.raises(PreconditionViolation):
        build_static_schedule(analyzed, "priority")


def test_default_deadline_fills_missing_bounds():
    text = ('#![deadline="5s"]\n#[priority="low"]\ninput a : Float64\n'
            "output x := a\n")
    analyzed = analyze(parse_spec(text))
    sched = build_static_schedule(analyzed, "dp")
    assert sched.bounds[frozenset({"a"})] == Fraction(5)


# -- the decision oracle -------------------------------------------------------

PRIORITY_PAIR = """\
#[priority="high"]
input a : Float64
#[priority="medium"]
input b : Float64
output x := a
output y := b
"""


def oracle_for(text, mode, events):
    analyzed = analyze(parse_spec(text))
    sched = build_static_schedule(analyzed, mode)
    model = run_monitor_full(analyzed, events)[0]
    return DecisionOracle(analyzed, sched, model), sched, model, analyzed


def test_priority_inversion_is_flagged():
    events = [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
              Event(Fraction(1), {"b": 2.0})]
    oracle, sched, model, analyzed = oracle_for(PRIORITY_PAIR, "priority", events)
    verdicts = oracle.decide(0)
    assert verdicts[frozenset({"a"})] == "Y"
    assert verdicts[frozenset({"a", "b"})] == "Y"
    assert verdicts[frozenset({"b"})] == "M"
    violations = check_scheduled_model(analyzed, sched, 2, model)
    flagged = {(v.task, v.step) for v in violations}
    assert flagged == {(("a",), 1), (("a", "b"), 1)}


def test_priority_serving_the_higher_task_is_clean():
    events = [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
              Event(Fraction(1), {"a": 2.0})]
    oracle, sched, model, analyzed = oracle_for(PRIORITY_PAIR, "priority", events)
    assert all(v == "M" for v in oracle.decide(0).values())
    assert check_scheduled_model(analyzed, sched, 2, model) == []


DP_PAIR = """\
#![frequency="1Hz"]
#[priority="medium", deadline="2s"]
input x : Float64
#[priority="medium", deadline="2s"]
input y : Float64
output sx := x
output sy := y
"""


def test_dp_alternation_within_staleness_is_clean():
    events = [Event(Fraction(t), {"x": 1.0} if t % 2 == 0 else {"y": 1.0})
              for t in range(4)]
    oracle, sched, model, analyzed = oracle_for(DP_PAIR, "dp", events)
    assert check_scheduled_model(analyzed, sched, 1, model) == []


def test_dp_staleness_claims_the_starved_task():
    events = [Event(Fraction(0), {"x": 1.0})] + \
        [Event(Fraction(t), {"y": 1.0}) for t in range(1, 4)]
    oracle, sched, model, analyzed = oracle_for(DP_PAIR, "dp", events)
    # x was last served at 0; strictly past its 2s bound only at t=3,
    # and y is freshly satisfied there
    assert oracle.decide(1)[frozenset({"x"})] == "M"
    assert oracle.decide(2)[frozenset({"x"})] == "Y"
    violations = check_scheduled_model(analyzed, sched, 1, model)
    assert {(v.task, v.step) for v in violations} == {(("x",), 3)}


DEADLINE_PAIR = """\
#![frequency="1Hz"]
#[deadline="3s"]
input x : Float64
#[deadline="100s"]
input y : Float64
output s := x + y
"""


def test_deadline_window_extrapolates_past_the_model():
    events = [Event(Fraction(0), {"x": 1.0, "y": 1.0})] + \
        [Event(Fraction(t), {"y": 1.0}) for t in range(1, 4)]
    oracle, sched, model, analyzed = oracle_for(DEADLINE_PAIR, "deadline", events)
    x = frozenset({"x"})
    assert oracle.decide(1)[x] == "M"  # refresh can still happen at t=3
    assert oracle.decide(2)[x] == "Y"
    violations = check_scheduled_model(analyzed, sched, 2, model)
    assert {(v.task, v.step) for v in violations} == \
        {(("x",), 3), (("x", "y"), 3)}


def test_deadline_served_in_time_is_clean():
    events = [Event(Fraction(0), {"x": 1.0, "y": 1.0}),
              Event(Fraction(1), {"y": 1.0}),
              Event(Fraction(2), {"y": 1.0}),
              Event(Fraction(3), {"x": 1.0, "y": 1.0})]
    _, sched, model, analyzed = oracle_for(DEADLINE_PAIR, "deadline", events)
    assert check_scheduled_model(analyzed, sched, 2, model) == []


def test_bandwidth_overrun_is_flagged():
    text = ('#[priority="low"]\ninput a : Float64\ninput b : Float64\n'
            "input c : Float64\noutput s := a + b + c\n")
    analyzed = analyze(parse_spec(text))
    sched = build_static_schedule(analyzed, "priority")
    model = run_monitor_full(analyzed, [
        Event(Fraction(0), {"a": 1.0, "b": 1.0, "c": 1.0})])[0]
    violations = check_scheduled_model(analyzed, sched, 2, model)
    assert any(v.kind == "bandwidth" for v in violations)


def test_priority_tie_is_not_a_witness():
    # a value equal to the floor of the satisfied tasks obliges nothing
    text = PRIORITY_PAIR.replace('"medium"', '"high"')
    events = [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
              Event(Fraction(1), {"b": 2.0})]
    oracle, sched, model, analyzed = oracle_for(text, "priority", events)
    assert oracle.current[frozenset({"a"})][0] == \
        oracle.current[frozenset({"b"})][0]
    assert all(v == "M" for v in oracle.decide(0).values())
    assert check_scheduled_model(analyzed, sched, 2, model) == []


def test_dp_overdue_without_a_fresh_satisfied_task_is_free():
    # x served at 0 and again at 3 is overdue there, like the never served
    # y, so nothing satisfied at step 1 is fresh and nothing is obliged
    events = [Event(Fraction(0), {"x": 1.0}), Event(Fraction(3), {"x": 2.0})]
    oracle, sched, model, analyzed = oracle_for(DP_PAIR, "dp", events)
    assert all(oracle.overdue_at(1).values())
    assert all(v == "M" for v in oracle.decide(0).values())
    assert check_scheduled_model(analyzed, sched, 1, model) == []


def test_dp_task_never_served_since_step_0_is_overdue_throughout():
    events = [Event(Fraction(t), {"x": 1.0}) for t in range(4)]
    oracle, sched, model, analyzed = oracle_for(DP_PAIR, "dp", events)
    x, y, xy = frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})
    for step in range(4):
        over = oracle.overdue_at(step)
        assert over[y]
        # the union is refreshed by its tracked subtask x from step 1 on
        assert over[xy] == over[x] == (step == 0)
    assert all(oracle.decide(step)[y] == "Y" for step in range(3))
    violations = check_scheduled_model(analyzed, sched, 1, model)
    assert {(v.task, v.step) for v in violations} == \
        {(("y",), 1), (("y",), 2), (("y",), 3)}


def test_dp_bound_without_a_tracked_subtask_is_always_overdue():
    # y keeps its staleness bound but nothing can refresh it
    events = [Event(Fraction(t), {"x": 1.0, "y": 1.0}) for t in range(3)]
    analyzed = analyze(parse_spec(DP_PAIR))
    sched = build_static_schedule(analyzed, "dp")
    sched = replace(sched, tracked=frozenset({frozenset({"x"})}))
    model = run_monitor_full(analyzed, events)[0]
    oracle = DecisionOracle(analyzed, sched, model)
    reference = ReferenceOracle(analyzed, sched, model)
    y = frozenset({"y"})
    assert sched.bounds[y] is not None
    for step in range(3):
        assert oracle.overdue_at(step)[y]
        assert oracle.overdue_at(step) == \
            {t: reference.overdue(t, step) for t in sched.universe}
    for step in range(2):
        assert oracle.decide(step) == reference.decide(step)


def test_check_lists_violations_by_step_then_sorted_task(tmp_path):
    # the inversion of test_priority_inversion_is_flagged: two violations
    # at step 1, printed in one order whatever the string hash
    tr = translate(analyze(parse_spec(PRIORITY_PAIR)), "priority")
    model = run_monitor_full(tr.plain, [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
                                        Event(Fraction(1), {"b": 2.0})])[0]
    spec = tmp_path / "pair.lola"
    spec.write_text(PRIORITY_PAIR)
    path = tmp_path / "model.csv"
    write_model(path, model, tr.plain.spec.stream_names())
    argv = [sys.executable, "-m", "activemon.cli", "check", str(spec),
            "--model", str(path), "--mode", "priority", "--bound", "2"]
    outs = [subprocess.run(argv, capture_output=True, timeout=60,
                           env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("1", "2")]
    assert [o.returncode for o in outs] == [1, 1]
    assert outs[0].stdout == outs[1].stdout
    lines = [json.loads(line) for line in outs[0].stdout.splitlines()]
    assert [(v["step"], v["task"]) for v in lines] == \
        [(1, ["a"]), (1, ["a", "b"])]


def test_oracle_verdicts_follow_the_sorted_universe(drone_text):
    analyzed = analyze(parse_spec(drone_text))
    tr = translate(analyzed, "dp")
    trace = generate_flight(FlightScenario(seed=3, duration=10.0))
    model = run_scheduled(tr, TraceSource(trace), 10, 2).model
    oracle = DecisionOracle(tr.plain, tr.schedule, model)
    expected = sorted(tr.schedule.universe, key=task_key)
    assert all(list(oracle.decide(step)) == expected
               for step in range(len(model) - 1))


def _differential_models(seed, mode, off_grid=False):
    """Models of one generated instance: scheduled at bound 1 and at the
    instance bound, and one monitor run over a free generated trace. Off
    the grid, the spec may run at 3 Hz with deadlines that are not whole
    seconds, and the free trace mixes tenths, thirds and sevenths."""
    rng = Random(seed)
    text, bound, horizon, trace = gen_specs.gen_instance(rng, mode,
                                                         off_grid=off_grid)
    tr = translate(analyze(parse_spec(text)), mode)
    for b in (1, bound):
        yield tr, run_scheduled(tr, TraceSource(trace), horizon, b).model
    events = gen_specs.gen_trace(rng, tr.plain.spec.input_names(), 25,
                                 mixed=off_grid)
    yield tr, run_monitor_full(tr.plain, events)[0]


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES), st.booleans())
# deadline instances whose joint tasks see a region hold again before they
# are satisfied, so the first onset and the latest one give other verdicts
@example(6, "deadline", False)
@example(60, "deadline", False)
# off the grid: a deadline and a staleness bound between two ticks, and a
# deadline that runs out within the period after the model's last step
@example(20, "deadline", True)
@example(26, "dp", True)
@example(114, "deadline", True)
@settings(max_examples=100, deadline=None)
def test_oracle_matches_the_per_task_reference(seed, mode, off_grid):
    for tr, model in _differential_models(seed, mode, off_grid):
        if len(model) < 2:
            continue
        oracle = DecisionOracle(tr.plain, tr.schedule, model)
        reference = ReferenceOracle(tr.plain, tr.schedule, model)
        assert oracle.sat_sets == reference.sat_sets
        assert oracle.sat_steps == reference.sat_steps
        for step in range(len(model) - 1):
            assert oracle.decide(step) == reference.decide(step)


def valid_tasks(universe: frozenset, model, inputs, step: int,
                selected: frozenset) -> bool:
    """Selected tasks are exactly the satisfied ones, closed upward and
    under union."""
    present = present_inputs(model, inputs, step)
    for task in selected:
        if not task <= present:
            return False
    for task in universe - selected:
        if task <= present:
            return False
    for task in selected:
        for sup in universe:
            if task <= sup and sup <= present and sup not in selected:
                return False
    for a, b in combinations(selected, 2):
        if (a | b) not in selected:
            return False
    return True


def test_valid_tasks_requires_union_closure_selection():
    universe = frozenset(tasks("a", "b", "ab"))
    analyzed = analyze(parse_spec(
        "input a : Float64\ninput b : Float64\noutput s := a + b\n"))
    model = run_monitor_full(analyzed, [Event(Fraction(0), {"a": 1.0, "b": 1.0})])[0]
    inputs = ("a", "b")
    full = frozenset(tasks("a", "b", "ab"))
    assert valid_tasks(universe, model, inputs, 0, full)
    # dropping the union from the selection breaks closure
    assert not valid_tasks(universe, model, inputs, 0, frozenset(tasks("a", "b")))
