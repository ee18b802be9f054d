"""Acceptance gate: one test per shipped guarantee.

Each test prints a single "criterion N: ..." line on success (visible
under pytest -s) and enforces its own wall-clock budget.
"""

import itertools
import time
from fractions import Fraction
from functools import reduce
from operator import or_
from random import Random

import pytest

import gen_specs
from activemon.analysis import analyze
from activemon.ast import format_spec
from activemon.cli import main
from activemon.engine import ABSENT, values_equal, verify_model
from activemon.io import read_json
from activemon.parser import parse_spec
from activemon.schedule import task_names, task_of, union_closure
from activemon.scheduler import build_precondition_report, run_scheduled
from activemon.sim import (
    FlightScenario,
    TraceSource,
    generate_flight,
    run_experiment,
    run_fixed,
    trace_fingerprint,
)
from activemon.translate import translate

from checks import check_violations
from events import Event, run_events, write_trace
from test_translate import GOLDEN_PRIORITY


def _pass(n, detail):
    print(f"criterion {n}: PASS  {detail}")


class _Clock:
    def __init__(self, budget):
        self.budget = budget
        self.t0 = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.budget, \
            f"took {elapsed:.1f}s, budget {self.budget}s"
        return elapsed


@pytest.fixture(scope="module")
def experiment(spec_dir):
    config = read_json(spec_dir / "experiment.json")
    analyzed = analyze(parse_spec(
        (spec_dir / config["spec"]).read_text(encoding="utf-8")))
    tr = translate(analyzed, config["mode"])
    t0 = time.monotonic()
    result = run_experiment(config, analyzed, tr)
    return result, time.monotonic() - t0


def test_criterion_1_golden_priority_translation(geofence_text):
    clock = _Clock(1.0)
    analyzed = analyze(parse_spec(geofence_text))
    tr = translate(analyzed, "priority")
    text = format_spec(tr.spec)
    assert text.split() == GOLDEN_PRIORITY.split()  # equal up to whitespace
    helpers = [n for n in tr.spec.output_names()
               if n not in analyzed.spec.output_names()]
    assert helpers == [
        "schedule_lat_lon", "last_lat_lon", "schedule_alt", "last_alt"]
    elapsed = clock.done()
    _pass(1, f"golden translation with exactly 4 helper streams "
             f"({elapsed:.2f}s)")


def test_criterion_2_translation_preserves_semantics():
    clock = _Clock(30.0)
    traces = 0
    for i in range(50):
        rng = Random(20_000 + i)
        mode = gen_specs.MODES[i % 3]
        analyzed = analyze(parse_spec(gen_specs.gen_annotated_spec(rng, mode)))
        tr = translate(analyzed, mode)
        names = analyzed.spec.stream_names()
        for _ in range(10):
            events = gen_specs.gen_trace(
                rng, analyzed.spec.input_names(), rng.randint(1, 200))
            base = run_events(analyzed, events)[0]
            lowered = run_events(tr.plain, events)[0]
            assert base.times == lowered.times
            for name in names:
                assert all(
                    values_equal(a, b) for a, b in
                    zip(base.streams[name], lowered.streams[name])), name
            traces += 1
    assert traces == 500
    elapsed = clock.done()
    _pass(2, f"50 annotated specs x 10 traces, all original streams exact "
             f"({elapsed:.1f}s)")


def test_criterion_3_scheduler_validity_when_preconditions_hold():
    clock = _Clock(120.0)
    violations = 0
    for i in range(100):
        rng = Random(30_000 + i)
        mode = gen_specs.MODES[i % 3]
        text, bound, horizon, trace = gen_specs.gen_instance(rng, mode)
        tr = translate(analyze(parse_spec(text)), mode)
        assert max(t.bit_count() for t in tr.schedule.universe) <= bound
        if mode == "deadline":
            # every deadline exceeds the worst-case round: the universe is
            # union-closed and fits the bound, so a round is one period
            window = tr.analyzed.config.period
            for entries in tr.schedule.entries.values():
                assert all(e.value > window for e in entries)
        run = run_scheduled(tr, TraceSource(trace), horizon, bound)
        violations += len(
            check_violations(tr.plain, tr.schedule, bound, run.model))
    assert violations == 0
    elapsed = clock.done()
    _pass(3, f"100 randomized instances across all modes, zero violations "
             f"({elapsed:.1f}s)")


def _brute_force_split_range(universe, bound):
    """Minimal contiguous segmentations over every permutation; None when a
    task is wider than the bound, where the split bound diverges."""
    tasks = sorted(universe)
    if any(t.bit_count() > bound for t in tasks):
        return None

    def min_segments(seq):
        best = {len(seq): 0}

        def solve(i):
            if i in best:
                return best[i]
            flat = 0
            out = None
            for j in range(i, len(seq)):
                flat |= seq[j]
                if flat.bit_count() > bound:
                    break
                tail = 1 + solve(j + 1)
                out = tail if out is None or tail < out else out
            best[i] = out
            return out

        return solve(0)

    counts = [min_segments(list(p)) for p in itertools.permutations(tasks)]
    return (min(counts), max(counts)) if counts else (1, 1)


def test_criterion_4_split_bound_matches_brute_force():
    clock = _Clock(10.0)
    ground = ("a", "b", "c")
    # every family of 1-4 nonempty subsets of the ground set, as masks over
    # it, each written as one explicitly paced output per task; the
    # universe is the family's union closure
    atoms = range(1, 8)
    oracle: dict = {}
    cases = fits = 0
    for size in (1, 2, 3, 4):
        for family in itertools.combinations(atoms, size):
            universe = union_closure(family)
            tr = translate(analyze(parse_spec(
                gen_specs.paced_spec(family, ground))), "dp")
            assert tr.schedule.universe == universe
            for bound in (1, 2, 3):
                if (universe, bound) not in oracle:
                    oracle[universe, bound] = _brute_force_split_range(
                        universe, bound)
                lines = build_precondition_report(
                    tr.schedule, bound, Fraction(1)).lines()
                if oracle[universe, bound] == (1, 1):
                    assert "split bound: worst 1, best 1" in lines
                    fits += 1
                else:
                    # the witness is the widest task, the union of them all
                    widest = reduce(or_, universe)
                    assert (
                        f"split bound unavailable: task "
                        f"{{{','.join(task_names(widest, ground))}}} exceeds "
                        f"bandwidth {bound}; the split bound diverges"
                    ) in lines
                    assert not any(line.startswith("split bound:")
                                   for line in lines)
                cases += 1
    elapsed = clock.done()
    assert 0 < fits < cases
    _pass(4, f"split bounds equal the brute-force oracle on {cases} "
             f"union-closed universes, {fits} within the bound "
             f"({elapsed:.1f}s)")


def test_criterion_5_scheduled_bandwidth_halves_the_fast_baseline(drone_text):
    clock = _Clock(5.0)
    analyzed = analyze(parse_spec(drone_text))
    tr = translate(analyzed, "dp")
    trace = generate_flight(FlightScenario(seed=137))
    inputs = analyzed.spec.input_names()

    run = run_scheduled(tr, TraceSource(trace), 60, 2)
    from activemon.sim import compute_metrics
    sched = compute_metrics(run.model, inputs, 60.0,
                            fingerprint=trace_fingerprint(trace))
    slow = compute_metrics(run_fixed(analyzed, trace, 1, horizon=60.0).model,
                           inputs, 60.0)
    fast = compute_metrics(run_fixed(analyzed, trace, 2, horizon=60.0).model,
                           inputs, 60.0)

    assert abs(sched.total_values - 240) <= 2
    assert sched.values_per_second == 4.0
    assert slow.total_values == 240 and slow.values_per_second == 4.0
    assert fast.total_values == 480 and fast.values_per_second == 8.0
    assert sched.total_values * 2 == fast.total_values
    elapsed = clock.done()
    _pass(5, f"scheduled run uses {sched.total_values} values in 60s "
             f"(4.0/s, half of the 2Hz baseline's 8.0/s) ({elapsed:.1f}s)")


def test_criterion_6_detection_beats_the_equal_bandwidth_baseline(experiment):
    result, elapsed = experiment
    assert elapsed < 60.0
    for res in result.results:
        assert len(res.crossings["geofence"]) >= 1
        assert len(res.crossings["altitude"]) >= 1
    monitors = result.summary["monitors"]
    sched = monitors["scheduled_dp"]["median_delay"]
    fast = monitors["fixed_2hz"]["median_delay"]
    slow = monitors["fixed_1hz"]["median_delay"]
    assert sched is not None and fast is not None and slow is not None
    assert sched <= fast + 0.5
    assert sched < slow
    assert monitors["scheduled_dp"]["missed"] == 0
    _pass(6, f"10 scenarios: scheduled median {sched:.2f}s vs 2Hz "
             f"{fast:.2f}s and 1Hz {slow:.2f}s ({elapsed:.1f}s)")


def test_criterion_7_safety_tasks_never_go_stale(experiment):
    result, _ = experiment
    limit = Fraction(3) + Fraction(1, 2)  # staleness bound + one period
    checked = 0
    for res in result.results:
        plans = res.scheduled_run.plans
        for sensor in ("gps_lat_long", "gps_altitude"):
            times = [p.time for p in plans if sensor in p.flat]
            assert times, sensor
            for a, b in zip(times, times[1:]):
                assert b - a <= limit, (res.scenario.seed, sensor, a, b)
                checked += 1
    _pass(7, f"gps plan-log gaps <= 3.5s across {checked} consecutive "
             f"satisfactions in 10 scenarios")


def test_criterion_8_conflict_resolution_and_precondition(
        spec_dir, conflict_text, tmp_path, capsys):
    class Source:
        def read(self, sensors, tick, quantum):
            return {s: 20.0 if s == "a" else 1.0 for s in sensors}

    tr = translate(analyze(parse_spec(conflict_text)), "priority")
    assert build_precondition_report(tr.schedule, 2, Fraction(1)).ok
    run = run_scheduled(tr, Source(), 10, 2)
    union = task_of("ab", tr.schedule.inputs)
    assert all(union in p.selected for p in run.plans)
    assert check_violations(tr.plain, tr.schedule, 2, run.model) == []

    # the same instance at bandwidth 1 fails b >= max|task| and the CLI
    # surfaces the unschedulable task
    events = [Event(Fraction(t), {"a": 20.0, "b": 1.0}) for t in range(10)]
    trace_path = tmp_path / "trace.csv"
    write_trace(trace_path, events, tr.analyzed)
    rc = main(["run", str(spec_dir / "priority_conflict.lola"),
               "--trace", str(trace_path), "--mode", "priority",
               "--bound", "1"])
    err = capsys.readouterr().err
    assert rc == 0
    assert "ok=False" in err
    assert "unschedulable task {a,b}" in err
    _pass(8, "union task scheduled at b=2 and rejected with a report at b=1")


def test_criterion_9_models_verify_and_mutations_are_caught():
    clock = _Clock(60.0)
    pairs = 0
    for i in range(100):
        rng = Random(90_000 + i)
        analyzed = analyze(parse_spec(gen_specs.gen_spec(rng)))
        inputs = analyzed.spec.input_names()
        for _ in range(10):
            events = gen_specs.gen_trace(rng, inputs, rng.randint(1, 30))
            model = run_events(analyzed, events)[0]
            assert verify_model(analyzed, model) == []
            pairs += 1
    assert pairs == 1000

    caught = 0
    trials = 0
    i = 0
    while trials < 100:
        rng = Random(95_000 + i)
        i += 1
        analyzed = analyze(parse_spec(gen_specs.gen_spec(rng)))
        events = gen_specs.gen_trace(
            rng, analyzed.spec.input_names(), rng.randint(5, 30))
        model = run_events(analyzed, events)[0]
        cells = [(name, step)
                 for name in analyzed.spec.output_names()
                 for step in range(len(model))
                 if model.streams[name][step] is not ABSENT]
        if not cells:
            continue
        name, step = rng.choice(cells)
        old = model.streams[name][step]
        if isinstance(old, bool):
            model.streams[name][step] = not old
        elif isinstance(old, float) and old != old:
            model.streams[name][step] = 1.0
        else:
            model.streams[name][step] = old + 1.0
        trials += 1
        if any(v.stream == name and v.step == step
               for v in verify_model(analyzed, model)):
            caught += 1
    assert caught == 100
    elapsed = clock.done()
    _pass(9, f"1000 models verified, 100/100 single-cell mutations caught "
             f"({elapsed:.1f}s)")
