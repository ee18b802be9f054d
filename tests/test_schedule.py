"""Task universe, region tables, and the per-step decision oracle."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import or_
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen_specs
from activemon.analysis import analyze
from activemon.engine import walk_model
from activemon.errors import MixedAnnotationKinds, PreconditionViolation
from activemon.io import write_model
from activemon.parser import parse_spec
from activemon.schedule import (DecisionOracle, build_static_schedule,
                                build_task_universe, task_names, task_of,
                                union_closure)
from activemon.scheduler import run_scheduled
from activemon.sim import FlightScenario, TraceSource, generate_flight
from activemon.translate import translate
from checks import check_violations
from events import Event, run_events
from reference_eval import present_inputs
from reference_oracle import (ReferenceOracle, reference_schedule,
                              reference_violations)

GL = "gps_lat_long"
GA = "gps_altitude"
BP = "barometer_pressure"
BA = "barometer_altitude"


def schedule_for(text, mode):
    analyzed = analyze(parse_spec(text))
    return analyzed, build_static_schedule(analyzed, mode)


def tasks(*groups):
    return {frozenset(g) for g in groups}


def named(masks, inputs):
    """Mask tasks as frozensets of input names."""
    return {frozenset(task_names(t, inputs)) for t in masks}


def mask(sched, *names):
    return task_of(names, sched.inputs)


# -- universe ----------------------------------------------------------------


def test_union_closure():
    assert union_closure({0b01, 0b10}) == {0b01, 0b10, 0b11}
    assert union_closure({0b011, 0b110}) == {0b011, 0b110, 0b111}


@given(st.lists(st.integers(min_value=0, max_value=31), max_size=6))
def test_union_closure_is_every_union_of_base_tasks(base):
    expected = {reduce(or_, subset)
                for k in range(1, len(base) + 1)
                for subset in combinations(base, k)} - {0}
    assert union_closure(set(base)) == expected


def test_geofence_universe(geofence_text):
    analyzed = analyze(parse_spec(geofence_text))
    inputs = analyzed.spec.input_names()
    assert named(build_task_universe(analyzed), inputs) == tasks(
        ("lat", "lon"), ("alt",), ("lat", "lon", "alt"))


def test_conflict_universe(conflict_text):
    analyzed = analyze(parse_spec(conflict_text))
    inputs = analyzed.spec.input_names()
    assert named(build_task_universe(analyzed), inputs) == \
        tasks("a", "b", "ab")


def test_drone_universe_is_full_closure(drone_text):
    analyzed = analyze(parse_spec(drone_text))
    universe = build_task_universe(analyzed)
    assert len(universe) == 15  # every nonempty subset of four singletons
    assert task_of({GL, GA, BP, BA}, analyzed.spec.input_names()) in universe


# -- static schedule construction ---------------------------------------------


def test_conflict_region_values(conflict_text):
    _, sched = schedule_for(conflict_text, "priority")
    values = {t: [e.value for e in es] for t, es in sched.entries.items()}
    a, b = mask(sched, "a"), mask(sched, "b")
    assert values[a] == [10]
    assert values[b] == [5]
    # the union region combines all three contributors at max priority
    assert values[a | b] == [10]
    assert sched.joint(a | b) == (a, b, a | b)


def test_drone_direct_tasks_and_bounds(drone_text):
    analyzed, sched = schedule_for(drone_text, "dp")
    assert sched.direct == tuple(mask(sched, n) for n in (GL, GA, BP, BA))
    assert all(sched.bound(t) == Fraction(3) for t in sched.universe)
    assert sched.tracked == frozenset(sched.direct)

    prio = build_static_schedule(analyzed, "priority")
    assert all(prio.bound(t) is None for t in prio.universe)


def test_drone_gps_singleton_regions(drone_text):
    _, sched = schedule_for(drone_text, "dp")
    chain = sched.entries[mask(sched, GL)]
    assert [e.value for e in chain] == [10, 5, 1]  # most urgent first
    assert chain[0].sources == (("scheduled_geofence", 2),)
    assert chain[-1].sources == (("scheduled_geofence", 0),)


def test_drone_union_regions_cross_product(drone_text):
    analyzed, sched = schedule_for(drone_text, "dp")
    # the literal product of the two chains, which the schedule derives by
    # rule and does not build for a task that is not direct
    quad = reference_schedule(analyzed, "dp").entries[frozenset({GL, GA})]
    expected = sorted(
        (max(g, a) for g, a in product([1, 5, 10], repeat=2)), reverse=True)
    assert [e.value for e in quad] == expected
    assert len(quad) == 9
    gl, ga = mask(sched, GL), mask(sched, GA)
    assert gl | ga not in sched.entries
    assert sched.joint(gl | ga) == (gl, ga)
    k = sched.direct.index(gl)
    assert [[v for _, v in chain] for chain in sched.chains[k]] == [[1, 5, 10]]
    # distinct regions never share their full source signature
    signatures = [e.sources for e in quad]
    assert len(set(signatures)) == len(signatures)


def test_deadline_mode_combines_by_min():
    text = ('#[deadline="3s"]\ninput x : Float64\n'
            '#[deadline="100s"]\ninput y : Float64\n'
            "output s := x + y\n")
    analyzed, sched = schedule_for(text, "deadline")
    pair = reference_schedule(analyzed, "deadline").entries[frozenset("xy")]
    assert [e.value for e in pair] == [Fraction(3)]
    xy = mask(sched, "x", "y")
    assert sched.bound(xy) == Fraction(3)
    # the pair's region holds while both guards do, at the lesser deadline
    oracle = DecisionOracle(analyzed, sched, 1)
    oracle.decide(0, xy, (1 << len(oracle.guards)) - 1)
    assert oracle.expiry[xy] == 3 * oracle.quantum


def test_unannotated_pacing_has_no_regions():
    text = ('#[priority="high"]\ninput a : Float64\ninput u : Float64\n'
            "output x := a\noutput y := u\n")
    _, sched = schedule_for(text, "priority")
    a, u = mask(sched, "a"), mask(sched, "u")
    assert u in sched.universe and sched.joint(u) == ()
    assert sched.entries.get(u, ()) == ()
    assert sched.joint(a | u) == (a,)


def test_deadline_only_input_bounds_its_tasks_without_regions():
    text = ('#[priority="high"]\ninput a : Float64\n'
            '#[deadline="2s"]\ninput u : Float64\n'
            "output x := a + u\n")
    _, sched = schedule_for(text, "dp")
    a, u = mask(sched, "a"), mask(sched, "u")
    assert sched.direct == (a, u)
    assert sched.entries[u] == () and sched.joint(u) == ()
    assert sched.joint(a | u) == (a,)
    assert sched.bound(u) == sched.bound(a | u) == Fraction(2)
    assert sched.bound(a) is None
    # a through its regions, u through its staleness bound
    assert sched.tracked == {a, u}


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
    assert sched.bound(mask(sched, "a")) is None  # staleness is ignored here


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
    assert sched.bound(mask(sched, "a")) == Fraction(5)


def test_union_bound_is_its_first_direct_task_least_deadline_first():
    # the header's default applies only where no contained direct task has
    # a deadline of its own: {a,b} takes b's 7 s, not min(5, 7)
    text = ('#![frequency="1Hz", deadline="5s"]\n'
            '#[priority="low"]\ninput a : Float64\n'
            '#[deadline="7s"]\ninput b : Float64\n'
            "output x := a\noutput y := b\noutput z := a + b\n")
    analyzed = analyze(parse_spec(text))
    sched = build_static_schedule(analyzed, "dp")
    a, b = mask(sched, "a"), mask(sched, "b")
    assert sched.universe == {a, b, a | b}
    assert {t: sched.bound(t) for t in sched.universe} == \
        {a: Fraction(5), b: Fraction(7), a | b: Fraction(7)}
    prio = build_static_schedule(analyzed, "priority")
    assert {t: prio.bound(t) for t in prio.universe} == \
        {a: None, b: None, a | b: None}


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES))
@settings(max_examples=150, deadline=None)
def test_mask_schedule_matches_the_reference_schedule(seed, mode):
    # every mask maps one to one onto the reference's frozenset of input
    # names: the universe, the bounds, the direct tasks inside each task
    # (by subset test on the names), the joint sources of the tasks with
    # regions, the tracked set and the direct tasks' literal tables; and the
    # value by rule under any set of holding guards is the literal product's
    # most restrictive holding region
    rng = Random(seed)
    analyzed = analyze(parse_spec(gen_specs.gen_spec(rng, mode, annotate=True,
                                                     bounds=True)))
    sched = build_static_schedule(analyzed, mode)
    ref = reference_schedule(analyzed, mode)
    names = {t: frozenset(task_names(t, sched.inputs)) for t in sched.universe}
    assert len(set(names.values())) == len(names)
    assert set(names.values()) == ref.universe
    assert {names[t]: sched.bound(t) for t in sched.universe} == ref.bounds
    assert {names[t]: sched.inside(t) for t in sched.universe} == \
        {t: sum(1 << k for k, sub in enumerate(ref.direct) if sub <= t)
         for t in ref.universe}
    assert {names[t]: frozenset(names[s] for s in sources)
            for t in sched.universe if (sources := sched.joint(t))} == \
        {t: sources for t, sources in ref.joint.items() if sources}
    assert {names[t] for t in sched.tracked} == ref.tracked
    assert tuple(names[t] for t in sched.direct) == ref.direct
    assert {names[t]: [(e.condition, e.pacing, e.value, e.sources)
                       for e in regions]
            for t, regions in sched.entries.items()} == \
        {t: [(r.condition, r.pacing, r.value, r.sources) for r in ref.entries[t]]
         for t in ref.direct}

    combine = sched.restrictive()
    for _ in range(4):
        oracle = DecisionOracle(analyzed, sched, 1)
        held = {g for g in oracle.guards if rng.random() < 0.6}
        oracle.decide(0, 0, sum(1 << i for i, g in enumerate(oracle.guards)
                                if g in held))
        for task in sched.universe:
            hold = [r.value for r in ref.entries[names[task]]
                    if all(sched.guards[s] in held for s in r.sources)]
            if mode == "deadline":
                expected = min(hold) * oracle.quantum // 1 if hold else None
                assert oracle.expiry.get(task) == expected
            else:
                assert oracle.current.get(task) == \
                    (combine(hold) if hold else None)


# -- the decision oracle -------------------------------------------------------

PRIORITY_PAIR = """\
#[priority="high"]
input a : Float64
#[priority="medium"]
input b : Float64
output x := a
output y := b
"""


def stream_oracle(analyzed, schedule, model):
    """Feed a model to a `DecisionOracle` one step at a time, as
    `check_scheduled_model` does, and record per step the satisfied set,
    the overdue flags (priority modes) and the sticky current values, and
    per step but the last the obliged tasks and every task's verdict; the
    tasks as frozensets of input names, in the oracle's order."""
    oracle = DecisionOracle(analyzed, schedule, model.quantum)
    ticks = model.ticks
    names = {t: frozenset(task_names(t, schedule.inputs))
             for t in schedule.ordered}
    order = [names[t] for t in schedule.ordered]
    record = SimpleNamespace(oracle=oracle, tasks=order, sat_sets=[],
                             overdue=[], current=[], obliged=[], verdicts=[])
    walk = walk_model(analyzed, model, [], oracle.guards)
    for step, (present, holding) in enumerate(walk):
        nxt = ticks[step + 1] if step + 1 < len(ticks) else None
        obliged = [names[t] for t in
                   oracle.decide(ticks[step], present, holding, nxt)]
        if step:
            record.obliged.append(obliged)
            record.verdicts.append(
                {t: "Y" if t in obliged else "M" for t in order})
        else:
            assert obliged == []
        record.sat_sets.append(frozenset(names[t] for t in oracle.satisfied))
        record.overdue.append({names[t]: t in oracle.overdue
                               for t in schedule.ordered})
        record.current.append({names[t]: oracle.current.get(t)
                               for t in schedule.ordered})
    return record


def oracle_for(text, mode, events):
    analyzed = analyze(parse_spec(text))
    sched = build_static_schedule(analyzed, mode)
    model = run_events(analyzed, events)[0]
    return stream_oracle(analyzed, sched, model), sched, model, analyzed


def test_priority_inversion_is_flagged():
    events = [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
              Event(Fraction(1), {"b": 2.0})]
    oracle, sched, model, analyzed = oracle_for(PRIORITY_PAIR, "priority", events)
    verdicts = oracle.verdicts[0]
    assert verdicts[frozenset({"a"})] == "Y"
    assert verdicts[frozenset({"a", "b"})] == "Y"
    assert verdicts[frozenset({"b"})] == "M"
    violations = check_violations(analyzed, sched, 2, model)
    flagged = {(v.task, v.step) for v in violations}
    assert flagged == {(("a",), 1), (("a", "b"), 1)}


def test_priority_serving_the_higher_task_is_clean():
    events = [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
              Event(Fraction(1), {"a": 2.0})]
    oracle, sched, model, analyzed = oracle_for(PRIORITY_PAIR, "priority", events)
    assert all(v == "M" for v in oracle.verdicts[0].values())
    assert check_violations(analyzed, sched, 2, model) == []


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
    assert check_violations(analyzed, sched, 1, model) == []


def test_dp_staleness_claims_the_starved_task():
    events = [Event(Fraction(0), {"x": 1.0})] + \
        [Event(Fraction(t), {"y": 1.0}) for t in range(1, 4)]
    oracle, sched, model, analyzed = oracle_for(DP_PAIR, "dp", events)
    # x was last served at 0; strictly past its 2s bound only at t=3,
    # and y is freshly satisfied there
    assert oracle.verdicts[1][frozenset({"x"})] == "M"
    assert oracle.verdicts[2][frozenset({"x"})] == "Y"
    violations = check_violations(analyzed, sched, 1, model)
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
    assert oracle.verdicts[1][x] == "M"  # refresh can still happen at t=3
    assert oracle.verdicts[2][x] == "Y"
    violations = check_violations(analyzed, sched, 2, model)
    assert {(v.task, v.step) for v in violations} == \
        {(("x",), 3), (("x", "y"), 3)}


def test_deadline_served_in_time_is_clean():
    events = [Event(Fraction(0), {"x": 1.0, "y": 1.0}),
              Event(Fraction(1), {"y": 1.0}),
              Event(Fraction(2), {"y": 1.0}),
              Event(Fraction(3), {"x": 1.0, "y": 1.0})]
    _, sched, model, analyzed = oracle_for(DEADLINE_PAIR, "deadline", events)
    assert check_violations(analyzed, sched, 2, model) == []


def test_bandwidth_overrun_is_flagged():
    text = ('#[priority="low"]\ninput a : Float64\ninput b : Float64\n'
            "input c : Float64\noutput s := a + b + c\n")
    analyzed = analyze(parse_spec(text))
    sched = build_static_schedule(analyzed, "priority")
    model = run_events(analyzed, [
        Event(Fraction(0), {"a": 1.0, "b": 1.0, "c": 1.0})])[0]
    violations = check_violations(analyzed, sched, 2, model)
    assert any(v.kind == "bandwidth" for v in violations)


def test_priority_tie_is_not_a_witness():
    # a value equal to the floor of the satisfied tasks obliges nothing
    text = PRIORITY_PAIR.replace('"medium"', '"high"')
    events = [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
              Event(Fraction(1), {"b": 2.0})]
    oracle, sched, model, analyzed = oracle_for(text, "priority", events)
    assert oracle.current[0][frozenset({"a"})] == \
        oracle.current[0][frozenset({"b"})]
    assert all(v == "M" for v in oracle.verdicts[0].values())
    assert check_violations(analyzed, sched, 2, model) == []


def test_dp_overdue_without_a_fresh_satisfied_task_is_free():
    # x served at 0 and again at 3 is overdue there, like the never served
    # y, so nothing satisfied at step 1 is fresh and nothing is obliged
    events = [Event(Fraction(0), {"x": 1.0}), Event(Fraction(3), {"x": 2.0})]
    oracle, sched, model, analyzed = oracle_for(DP_PAIR, "dp", events)
    assert all(oracle.overdue[1].values())
    assert all(v == "M" for v in oracle.verdicts[0].values())
    assert check_violations(analyzed, sched, 1, model) == []


def test_dp_task_never_served_since_step_0_is_overdue_throughout():
    events = [Event(Fraction(t), {"x": 1.0}) for t in range(4)]
    oracle, sched, model, analyzed = oracle_for(DP_PAIR, "dp", events)
    x, y, xy = frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})
    for step in range(4):
        over = oracle.overdue[step]
        assert over[y]
        # the union is refreshed by its tracked subtask x from step 1 on
        assert over[xy] == over[x] == (step == 0)
    assert all(oracle.verdicts[step][y] == "Y" for step in range(3))
    violations = check_violations(analyzed, sched, 1, model)
    assert {(v.task, v.step) for v in violations} == \
        {(("y",), 1), (("y",), 2), (("y",), 3)}


def test_dp_bound_without_a_tracked_subtask_is_always_overdue():
    # y keeps its staleness bound but nothing can refresh it
    events = [Event(Fraction(t), {"x": 1.0, "y": 1.0}) for t in range(3)]
    analyzed = analyze(parse_spec(DP_PAIR))
    sched = build_static_schedule(analyzed, "dp")
    sched = replace(sched, tracked=frozenset({mask(sched, "x")}))
    ref = replace(reference_schedule(analyzed, "dp"),
                  tracked=frozenset({frozenset({"x"})}))
    model = run_events(analyzed, events)[0]
    oracle = stream_oracle(analyzed, sched, model)
    reference = ReferenceOracle(analyzed, ref, model)
    y = frozenset({"y"})
    assert sched.bound(mask(sched, "y")) is not None
    for step in range(3):
        assert oracle.overdue[step][y]
        assert oracle.overdue[step] == \
            {t: reference.overdue(t, step) for t in ref.universe}
    for step in range(2):
        assert oracle.verdicts[step] == reference.decide(step)


def test_check_lists_violations_by_step_then_sorted_task(tmp_path):
    # the inversion of test_priority_inversion_is_flagged: two violations
    # at step 1, printed in one order whatever the string hash
    tr = translate(analyze(parse_spec(PRIORITY_PAIR)), "priority")
    model = run_events(tr.plain, [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
                                        Event(Fraction(1), {"b": 2.0})])[0]
    spec = tmp_path / "pair.lola"
    spec.write_text(PRIORITY_PAIR)
    path = tmp_path / "model.csv"
    write_model(path, model, tr.plain)
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


def test_overdue_tasks_are_obliged_in_sorted_order():
    # declared c, b, a, so the masks of {a}, {a,b} and {b} do not follow
    # their sorted order; all three go stale while only c is served
    text = ('#![frequency="1Hz"]\n'
            '#[priority="low", deadline="1s"]\ninput c : Float64\n'
            '#[priority="low", deadline="1s"]\ninput b : Float64\n'
            '#[priority="low", deadline="1s"]\ninput a : Float64\n'
            "output s := a + b\n")
    events = [Event(Fraction(t), {"c": 1.0}) for t in range(3)]
    oracle, sched, model, analyzed = oracle_for(text, "dp", events)
    stale = [frozenset("a"), frozenset("ab"), frozenset("b")]
    assert oracle.obliged == [stale, stale]
    violations = check_violations(analyzed, sched, 1, model)
    assert [(v.step, v.task) for v in violations] == [
        (step, task) for step in (1, 2) for task in (("a",), ("a", "b"), ("b",))]


def test_oracle_verdicts_follow_the_sorted_universe(drone_text):
    analyzed = analyze(parse_spec(drone_text))
    tr = translate(analyzed, "dp")
    trace = generate_flight(FlightScenario(seed=3, duration=10.0))
    model = run_scheduled(tr, TraceSource(trace), 10, 2).model
    oracle = stream_oracle(tr.plain, tr.schedule, model)
    expected = sorted(tr.schedule.universe, key=tr.schedule.key)
    assert list(tr.schedule.ordered) == expected
    named_order = sorted(oracle.tasks, key=sorted)
    assert oracle.tasks == named_order
    assert all(list(verdicts) == named_order for verdicts in oracle.verdicts)
    assert len(oracle.verdicts) == len(model) - 1
    assert all(obliged == sorted(obliged, key=sorted)
               for obliged in oracle.obliged)


def _differential_models(seed, mode, off_grid=False, bounds=False):
    """Models of one generated instance: scheduled at bound 1 and at the
    instance bound, and one monitor run over a free generated trace. Off
    the grid, the spec may run at 3 Hz with deadlines that are not whole
    seconds, and the free trace mixes tenths, thirds and sevenths. With
    `bounds`, the header may set a default deadline and an input may carry
    a deadline only."""
    rng = Random(seed)
    text, bound, horizon, trace = gen_specs.gen_instance(
        rng, mode, off_grid=off_grid, bounds=bounds)
    tr = translate(analyze(parse_spec(text)), mode)
    for b in (1, bound):
        yield tr, run_scheduled(tr, TraceSource(trace), horizon, b).model
    events = gen_specs.gen_trace(rng, tr.plain.spec.input_names(), 25,
                                 mixed=off_grid)
    yield tr, run_events(tr.plain, events)[0]


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
    _assert_oracle_matches_the_reference(seed, mode, off_grid)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES), st.booleans())
@settings(max_examples=40, deadline=None)
def test_oracle_matches_the_reference_under_default_and_input_deadlines(
        seed, mode, off_grid):
    # the staleness bounds that the header's default and deadline-only
    # inputs give, which the oracle groups its bounded tasks by
    _assert_oracle_matches_the_reference(seed, mode, off_grid, bounds=True)


def _assert_oracle_matches_the_reference(seed, mode, off_grid, bounds=False):
    for tr, model in _differential_models(seed, mode, off_grid, bounds):
        if len(model) < 2:
            continue
        oracle = stream_oracle(tr.plain, tr.schedule, model)
        reference = ReferenceOracle(
            tr.plain, reference_schedule(tr.analyzed, mode), model)
        assert oracle.sat_sets == reference.sat_sets
        for step in range(len(model)):
            if mode != "deadline":
                assert oracle.current[step] == \
                    {t: reference.current[t][step] for t in oracle.tasks}
            if mode == "dp":
                assert oracle.overdue[step] == \
                    {t: reference.overdue(t, step) for t in oracle.tasks}
        for step in range(len(model) - 1):
            assert oracle.verdicts[step] == reference.decide(step)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES), st.booleans())
@settings(max_examples=60, deadline=None)
def test_check_matches_the_reference_violation_list(seed, mode, off_grid):
    # some output cells take another step's value of their column, and a
    # time may repeat the one before, so every kind of violation shows
    rng = Random(-seed)
    for tr, model in _differential_models(seed, mode, off_grid):
        outputs = tr.plain.spec.output_names()
        for _ in range(rng.randint(0, 3)):
            column = model.streams[rng.choice(outputs)]
            column[rng.randrange(len(column))] = rng.choice(column)
        if len(model) > 1 and rng.random() < 0.2:
            k = rng.randrange(1, len(model))
            model.ticks[k] = model.ticks[k - 1]
        reference = reference_schedule(tr.analyzed, mode)
        for bound in (1, 2):
            assert check_violations(tr.plain, tr.schedule, bound, model) \
                == reference_violations(tr.plain, reference, bound, model)


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
    model = run_events(analyzed, [Event(Fraction(0), {"a": 1.0, "b": 1.0})])[0]
    inputs = ("a", "b")
    full = frozenset(tasks("a", "b", "ab"))
    assert valid_tasks(universe, model, inputs, 0, full)
    # dropping the union from the selection breaks closure
    assert not valid_tasks(universe, model, inputs, 0, frozenset(tasks("a", "b")))
