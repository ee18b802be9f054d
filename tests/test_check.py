"""`check` on an annotated spec: reused verdicts and spooled misses.

In the priority modes the `DecisionOracle` keeps a verdict per (present
mask, overdue tasks) until some task's current value changes, and skips a
holding update whose mask it applied last. `RecomputingOracle` decides
every step afresh, and the two must give the same verdicts at every step.

`check_scheduled_model` spools each missed obligation as a (step, task)
pair of ints. The lines that `violation_lines` renders from the spool must
equal the lines of the spool expanded into `Violation`s, each at its step's
exact time.

The verifier compares each step's recomputed outputs with the recorded
ones as two tuples, once; only when they differ does it compare each
output by `values_equal`. Its findings must be those of `values_equal` on
every output, in the same order.

`check` verifies each block of model.csv as it is read. Its lines and exit
code must be those of the model read whole and walked as one block, and
what it holds per step must be a few words.
"""

import contextlib
import gc
import json
import math
import os
import tracemalloc
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen_specs
from activemon.analysis import analyze
from activemon.cli import main
from activemon.engine import ABSENT, values_equal, verify_model, walk_model
from activemon.errors import SpecSyntaxError
from activemon.io import BLOCK_ROWS, read_model, violation_lines, write_model
from activemon.parser import parse_spec
from activemon.schedule import (DecisionOracle, build_static_schedule,
                                check_scheduled_model)
from activemon.scheduler import run_scheduled
from activemon.sim import FlightScenario, TraceSource, generate_flight
from activemon.translate import translate
from checks import missed_violations
from events import Event, run_events
from test_golden_check import BOUNDS, SPECS, _off_grid_models, _source
from test_schedule import _differential_models


class RecomputingOracle(DecisionOracle):
    """A `DecisionOracle` that reuses no verdict and applies every step's
    holding update: each priority verdict comes from `_priority` afresh."""

    def decide(self, tick, present, holding, next_tick=None):
        self._verdicts.clear()
        self._held = None
        return super().decide(tick, present, holding, next_tick)


def same_verdicts(analyzed, schedule, model) -> int:
    """Feed `model` to a `DecisionOracle` and a `RecomputingOracle` in
    step, require the same verdicts and current values at every step, and
    return how many verdicts the oracle decided afresh."""
    oracle = DecisionOracle(analyzed, schedule, model.quantum)
    fresh = RecomputingOracle(analyzed, schedule, model.quantum)
    decided = 0
    priority = oracle._priority

    def counted(over):
        nonlocal decided
        decided += 1
        return priority(over)

    oracle._priority = counted
    ticks = model.ticks
    walk = walk_model(analyzed, model, [], oracle.guards)
    for step, (present, holding) in enumerate(walk):
        nxt = ticks[step + 1] if step + 1 < len(ticks) else None
        assert oracle.decide(ticks[step], present, holding, nxt) == \
            fresh.decide(ticks[step], present, holding, nxt), step
        assert oracle.current == fresh.current, step
        assert oracle.expiry == fresh.expiry, step
    return decided


# -- reused verdicts ---------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES), st.booleans())
@settings(max_examples=100, deadline=None)
def test_reused_verdicts_equal_recomputed_ones(seed, mode, off_grid):
    for tr, model in _differential_models(seed, mode, off_grid):
        same_verdicts(tr.plain, tr.schedule, model)


def _golden_models(spec_dir, tmp_path):
    """(translation, model) of each model that golden_check's `run`s write
    and of each off-grid model, the spec with a 2/3 s default deadline
    included, in the mode that wrote it."""
    for spec in SPECS:
        source = _source(spec, tmp_path)
        analyzed = analyze(parse_spec((spec_dir / spec).read_text()))
        for mode, bound in product(("priority", "dp"), BOUNDS):
            out = tmp_path / f"{spec}-{mode}-{bound}"
            assert main(["run", str(spec_dir / spec), *source, "--mode", mode,
                         "--bound", str(bound), "--out-dir", str(out)]) == 0
            tr = translate(analyzed, mode)
            yield tr, read_model(out / "model.csv", tr.plain)
    conflict = spec_dir / "priority_conflict.lola"
    stale = tmp_path / "stale.lola"
    stale.write_text(conflict.read_text().replace(
        'bound="2"]', 'bound="2", deadline="2/3s"]'))
    for spec, mode in product((conflict, stale), ("priority", "dp")):
        tr = translate(analyze(parse_spec(spec.read_text())), mode)
        for path in _off_grid_models(spec, mode, tmp_path).values():
            yield tr, read_model(path, tr.plain)


def test_reused_verdicts_on_the_bundled_specs(spec_dir, tmp_path):
    for tr, model in _golden_models(spec_dir, tmp_path):
        same_verdicts(tr.plain, tr.schedule, model)


@pytest.mark.parametrize("mode", ["priority", "dp"])
def test_reused_verdicts_over_a_long_drone_flight(drone_text, mode):
    tr = translate(analyze(parse_spec(drone_text)), mode)
    trace = generate_flight(FlightScenario(seed=7, duration=1800.0))
    model = run_scheduled(tr, TraceSource(trace), Fraction(1800), 2).model
    assert len(model) == 3600
    decided = same_verdicts(tr.plain, tr.schedule, model)
    # the current values move at few steps, so few verdicts are decided
    assert decided * 10 < len(model)


REGIONS = """\
input a : Float64
input b : Float64
output x
    #[priority="high"]
    eval |@a| when a > 10.0 with a
    #[priority="low"]
    eval |@a| when a <= 10.0 with a
output y
    #[priority="medium"]
    eval |@b| with b
"""


@pytest.mark.parametrize("mode", ["priority", "dp"])
def test_a_value_change_between_equal_keys_is_decided_again(mode):
    # steps 1 and 3 serve b alone, with nothing overdue; a's value climbs
    # from low to high at step 2, between them, so only step 3 obliges a
    analyzed = analyze(parse_spec(REGIONS))
    sched = build_static_schedule(analyzed, mode)
    model = run_events(analyzed, [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
                                  Event(Fraction(1), {"b": 2.0}),
                                  Event(Fraction(2), {"a": 20.0}),
                                  Event(Fraction(3), {"b": 3.0})])[0]
    oracle = DecisionOracle(analyzed, sched, model.quantum)
    a = 1
    keys, verdicts, values = [], [], []
    walk = walk_model(analyzed, model, [], oracle.guards)
    for step, (present, holding) in enumerate(walk):
        verdicts.append(oracle.decide(model.ticks[step], present, holding))
        keys.append((present, oracle.overdue))
        values.append(oracle.current[a])
    assert keys[1] == keys[3]
    assert values[1] < values[2] == values[3]
    assert a not in verdicts[1] and a in verdicts[3]
    assert same_verdicts(analyzed, sched, model) == 3
    violations, missed, _, _ = check_scheduled_model(analyzed, sched, 2,
                                                     model)
    assert violations == [] and (3, a) in zip(*[iter(missed)] * 2)


# -- spooled misses ----------------------------------------------------------


def rendered(analyzed, schedule, bound, model) -> tuple:
    """The lines rendered from the spool, and from the spool expanded into
    `Violation`s; and the violations and misses."""
    violations, missed, ticks, quantum = check_scheduled_model(
        analyzed, schedule, bound, model)
    expanded = violations + missed_violations(missed, model, schedule.inputs)
    return (list(violation_lines(violations, missed, ticks, quantum,
                                 schedule.inputs)),
            list(violation_lines(expanded)), violations, missed)


def test_spooled_lines_equal_the_expanded_ones_on_the_golden_models(
        spec_dir, tmp_path):
    kinds = set()
    for tr, model in _golden_models(spec_dir, tmp_path):
        for bound in BOUNDS:
            spooled, expanded, _, _ = rendered(tr.plain, tr.schedule, bound,
                                               model)
            assert spooled == expanded
            kinds |= {json.loads(line)["kind"] for line in spooled}
    assert kinds == {"semantic", "bandwidth", "schedule"}


TRIPLE = """\
#[priority="high"]
input a : Float64
#[priority="medium"]
input b : Float64
#[priority="low"]
input c : Float64
output x := a
output y := b
output z := c
"""


def test_a_step_with_a_bandwidth_finding_and_misses():
    # b and c arrive at step 1 over a bound of 1 while a is unserved
    analyzed = analyze(parse_spec(TRIPLE))
    sched = build_static_schedule(analyzed, "priority")
    model = run_events(analyzed, [
        Event(Fraction(0), {"a": 1.0, "b": 1.0, "c": 1.0}),
        Event(Fraction(1), {"b": 2.0, "c": 2.0})])[0]
    spooled, expanded, violations, missed = rendered(analyzed, sched, 1,
                                                     model)
    assert spooled == expanded
    assert [(v.kind, v.step) for v in violations] == \
        [("bandwidth", 0), ("bandwidth", 1)]
    lines = [json.loads(line) for line in spooled]
    assert {line["kind"] for line in lines if line["step"] == 1} == \
        {"bandwidth", "schedule"}
    assert [line["kind"] for line in lines][-1] == "schedule"


PAIR = """\
#[priority="high"]
input a : Float64
#[priority="medium"]
input b : Float64
output x := a
output y := b
"""


def test_miss_times_above_2_53_on_a_quantum_of_thirds():
    # float(n) / 3 rounds twice; n / 3 rounds once, as float(Fraction) does
    n = next(n for n in range(2**55, 2**55 + 100)
             if n % 3 and float(n) / 3 != n / 3)
    assert n / 3 == float(Fraction(n, 3))
    analyzed = analyze(parse_spec(PAIR))
    sched = build_static_schedule(analyzed, "priority")
    model = run_events(analyzed, [
        Event(Fraction(n - 3, 3), {"a": 1.0, "b": 1.0}),
        Event(Fraction(n, 3), {"b": 2.0})])[0]
    assert (model.quantum, model.ticks[1]) == (3, n)
    spooled, expanded, _, missed = rendered(analyzed, sched, 2, model)
    assert len(missed) == 4  # {a} and {a, b} at step 1
    assert spooled == expanded
    assert {json.loads(line)["time"] for line in spooled} == {n / 3}


def test_tasks_beyond_64_bits_spool_as_python_ints():
    # 63 unannotated inputs put a and b at bits 63 and 64
    fillers = "".join(f"input u{i} : Float64\n" for i in range(63))
    analyzed = analyze(parse_spec(fillers + PAIR))
    sched = build_static_schedule(analyzed, "priority")
    model = run_events(analyzed, [Event(Fraction(0), {"a": 1.0, "b": 1.0}),
                                  Event(Fraction(1), {"b": 2.0})])[0]
    spooled, expanded, _, missed = rendered(analyzed, sched, 2, model)
    assert list(missed) == [1, 1 << 63, 1, 3 << 63]
    assert spooled == expanded
    assert [json.loads(line)["task"] for line in spooled] == \
        [["a"], ["a", "b"]]


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(gen_specs.MODES), st.booleans())
@settings(max_examples=40, deadline=None)
def test_spooled_lines_equal_the_expanded_ones_on_generated_models(
        seed, mode, off_grid):
    rng = Random(-seed)
    for tr, model in _differential_models(seed, mode, off_grid):
        if len(model) > 1 and rng.random() < 0.3:
            k = rng.randrange(1, len(model))
            model.ticks[k] = model.ticks[k - 1]
        for bound in (1, 2):
            spooled, expanded, _, _ = rendered(tr.plain, tr.schedule, bound,
                                               model)
            assert spooled == expanded


# -- one comparison per step -------------------------------------------------


CELLS = """\
input s : Float64
input g : (Float64, Float64)
input n : Int64
output k |@s| := s + 1.0
output f := s
output t := g
output i := n
"""

# s is NaN at step 0, -0.0 at step 1, absent at step 2 and 4.0 at step 3
CELL_EVENTS = [
    Event(Fraction(0), {"s": math.nan, "g": (math.nan, 1.0), "n": 1}),
    Event(Fraction(1), {"s": -0.0, "n": 2}),
    Event(Fraction(2), {"g": (2.0, 3.0)}),
    Event(Fraction(3), {"s": 4.0, "n": 5}),
]


def per_output(analyzed, model, recomputed) -> list:
    """(step, stream, detail) where `values_equal` fails on a recomputed
    and a recorded cell, by step and then in evaluation order."""
    outputs = [name for name in analyzed.eval_order
               if name in analyzed.spec.output_names()]
    return [(step, name, f"stream '{name}' holds {held!r}, "
             f"recomputation gives {again!r}")
            for step in range(len(model)) for name in outputs
            if not values_equal(again := recomputed[name][step],
                                held := model.streams[name][step])]


@pytest.mark.parametrize("edits,wrong", [
    # a recomputed NaN against a distinct recorded NaN
    ({("f", 0): float("nan")}, []),
    ({("f", 1): 0.0}, []),  # -0.0 recomputed, 0.0 recorded
    ({("i", 0): True}, []),  # 1 recomputed
    ({("k", 2): 5.0}, [(2, "k")]),  # ABSENT recomputed
    ({("k", 3): ABSENT}, [(3, "k")]),
    ({("t", 0): (float("nan"), 1.0)}, []),
    ({("t", 0): (float("nan"), 2.0)}, [(0, "t")]),
    # two wrong cells in one row come in evaluation order
    ({("i", 3): 4, ("f", 3): 1.0}, [(3, "f"), (3, "i")]),
    ({("t", 2): ABSENT, ("k", 1): -0.0, ("f", 2): math.nan},
     [(1, "k"), (2, "f"), (2, "t")]),
], ids=["nan", "signed-zero", "int-bool", "absent-value", "value-absent",
        "tuple-nan", "tuple-wrong", "two-in-a-row", "three-rows"])
def test_one_comparison_per_step_finds_what_values_equal_finds(edits, wrong):
    analyzed = analyze(parse_spec(CELLS))
    # no output reads another, so the monitor's cells are the recomputation
    recomputed = run_events(analyzed, CELL_EVENTS)[0].streams
    model = run_events(analyzed, CELL_EVENTS)[0]
    for (name, step), value in edits.items():
        model.streams[name][step] = value
    found = [(v.step, v.stream, v.detail)
             for v in verify_model(analyzed, model)]
    assert found == per_output(analyzed, model, recomputed)
    assert [(step, name) for step, name, _ in found] == wrong


# -- one forward pass over model.csv -----------------------------------------


STREAMED = """\
#[priority="high"]
input a : Float64
#[priority="medium"]
input b : (Float64, Float64)
output x := a
output y := b.0
output s |@a| := s.offset(by:-1).defaults(to: 0.0) + a
"""


def _streamed_model(path, blocks) -> list:
    """A model of STREAMED written to `path`, BLOCK_ROWS rows per block,
    each block's times a step of its own (1, 1/2, 1/3, ...) so that the
    quantum grows from block to block; returns the file's lines."""
    tr = translate(analyze(parse_spec(STREAMED)), "dp")
    events, t = [], Fraction(0)
    for block, step in enumerate(blocks):
        for k in range(BLOCK_ROWS):
            values = {}
            if k % 3 != 1:
                values["a"] = float(k % 7)
            if k % 3 != 2:
                values["b"] = (float(block), -float(k))
            events.append(Event(t, values))
            t += step
    write_model(path, run_events(tr.plain, events)[0], tr.plain)
    return path.read_text().splitlines()


def _set_cell(lines, row: int, name: str, cell: str) -> None:
    """Cell `name` of data row `row` (0 the first) of a model's lines."""
    at = lines[0].split(",").index(name)
    cells = lines[row + 1].split(",")
    cells[at] = cell
    lines[row + 1] = ",".join(cells)


def _in_memory_check(spec, path) -> tuple:
    """`check`'s stdout and exit code through `read_model`, the model then
    walked as one block."""
    tr = translate(analyze(parse_spec(spec.read_text())), "dp")
    model = read_model(path, tr.plain)
    violations, missed, ticks, quantum = check_scheduled_model(
        tr.plain, tr.schedule, 2, model)
    return ("".join(violation_lines(violations, missed, ticks, quantum,
                                    tr.schedule.inputs)),
            1 if violations or missed else 0)


def _check(spec, path) -> list:
    return ["check", str(spec), "--model", str(path), "--mode", "dp",
            "--bound", "2"]


def test_streaming_check_prints_what_the_in_memory_check_prints(
        tmp_path, capsys):
    spec = tmp_path / "streamed.lola"
    spec.write_text(STREAMED)
    path = tmp_path / "model.csv"
    lines = _streamed_model(path, (Fraction(1), Fraction(1, 2),
                                   Fraction(1, 3)))
    assert [line.split(",")[0] for line in lines[BLOCK_ROWS:BLOCK_ROWS + 3]
            ] == ["255", "256", "256.5"]
    last = BLOCK_ROWS + Fraction(BLOCK_ROWS, 2) + Fraction(BLOCK_ROWS - 2, 3)
    assert lines[-2].startswith(f"{last.numerator}/3,")
    # the first row of the second block at the time of the last of the first
    _set_cell(lines, BLOCK_ROWS, "time", "255")
    # two wrong cells in the last block, one of them read by an offset later
    _set_cell(lines, 2 * BLOCK_ROWS + 3, "x", "99.0")
    _set_cell(lines, 3 * BLOCK_ROWS - 9, "s", "-1.0")
    path.write_text("\n".join(lines) + "\n")

    expected, code = _in_memory_check(spec, path)
    assert main(_check(spec, path)) == code == 1
    assert capsys.readouterr().out == expected
    found = [json.loads(line) for line in expected.splitlines()]
    semantic = [(v["step"], v.get("stream")) for v in found
                if v["kind"] == "semantic"]
    assert semantic[0] == (BLOCK_ROWS, None)  # the time map's, first
    assert (2 * BLOCK_ROWS + 3, "x") in semantic
    assert (3 * BLOCK_ROWS - 9, "s") in semantic
    assert {v["kind"] for v in found} == {"semantic", "schedule"}


def test_a_bad_cell_in_the_last_block_exits_2_with_no_line(tmp_path,
                                                           capsys):
    spec = tmp_path / "streamed.lola"
    spec.write_text(STREAMED)
    path = tmp_path / "model.csv"
    lines = _streamed_model(path, (Fraction(1), Fraction(1, 2),
                                   Fraction(1, 3)))
    _set_cell(lines, 0, "x", "99.0")  # a semantic violation at step 0
    _set_cell(lines, 3 * BLOCK_ROWS - 2, "y", "nope")
    path.write_text("\n".join(lines) + "\n")
    tr = translate(analyze(parse_spec(STREAMED)), "dp")
    with pytest.raises(SpecSyntaxError) as err:
        read_model(path, tr.plain)
    assert main(_check(spec, path)) == 2
    out, stderr = capsys.readouterr()
    assert out == ""
    assert stderr == f"error: {err.value}\n"
    column = lines[0].split(",").index("y") + 1
    assert f":{3 * BLOCK_ROWS}:{column}: bad cell" in stderr


def _check_transient(argv) -> int:
    """The tracemalloc peak of one `check` above the memory it leaves,
    its stdout written to the null device as it is rendered."""
    gc.collect()
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            assert main(argv) == 1
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


def test_check_holds_a_few_words_per_step_beyond_one_block(tmp_path):
    # what `check` holds per step is its tick, its two masks and its
    # misses; a check that held the model's columns held hundreds of
    # bytes per step
    spec = tmp_path / "streamed.lola"
    spec.write_text(STREAMED)
    transient, misses = {}, {}
    for blocks in (4, 16):
        path = tmp_path / f"model{blocks}.csv"
        _streamed_model(path, [Fraction(1, 2)] * blocks)
        out, _ = _in_memory_check(spec, path)
        misses[blocks] = out.count('"schedule"')
        transient[blocks] = _check_transient(_check(spec, path))
    rows = 12 * BLOCK_ROWS
    # three arrays of 8-byte ints per step and two per miss, each grown by
    # at most an eighth
    need = 8 * (3 * rows + 2 * (misses[16] - misses[4])) * 9 // 8
    assert transient[16] - transient[4] < need + 4096, (transient, misses)
