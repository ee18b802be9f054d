"""Differential tests: the compiled evaluator against the tree-walking reference.

The monitor, `verify_model`, `triggers_from_model` and the `DecisionOracle`
all evaluate through one compiled form, so they cannot catch a compiler bug
by checking each other. These tests compare every path with
`reference_eval`, which reads the expression tree directly.
"""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen_specs
import reference_eval
from activemon.analysis import analyze
from activemon.ast import (
    Binary, Const, EvalClause, MinMax, Now, OffsetAccess, OutputDecl, Pacing,
    Proj, StreamRef, Unary,
)
from activemon.engine import (
    ABSENT,
    CompiledSpec,
    Event,
    EvaluationModel,
    MonitorState,
    compile_expr,
    eval_event,
    replay,
    run_monitor_full,
    values_equal,
    verify_model,
)
from activemon.parser import parse_spec
from activemon.schedule import DecisionOracle
from activemon.translate import translate
from reference_eval import ModelReader, present_inputs, triggers_from_model

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

BINARY_OPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||")
UNARY_OPS = ("neg", "not", "abs", "sqrt")
EDGE_VALUES = (0, 3, -7, 2, 2.5, -4.0, 0.0, -0.0, math.nan, math.inf,
               True, False, ABSENT)


def reference_run(analyzed, events):
    """Columns and trigger tuples computed with the reference evaluator.

    Offsets read the k-th previous non-absent cell of the columns built so
    far, independently of the monitor's bounded history.
    """
    spec = analyzed.spec
    names = spec.stream_names()
    columns = {name: [] for name in names}
    fired = []

    def offset_read(name, k):
        past = [v for v in columns[name] if v is not ABSENT]
        return past[-k] if len(past) >= k else None

    for step, event in enumerate(events):
        now = float(event.time)
        current = {name: event.values.get(name, ABSENT) for name in names}
        read = current.__getitem__
        present = frozenset(event.values)
        for name in analyzed.eval_order:
            current[name] = reference_eval.eval_clauses(
                spec.output_decl(name), present, read, offset_read, now)
        for name, trig in zip(analyzed.trigger_names, spec.triggers):
            if reference_eval.eval_expr(trig.expr, read, offset_read, now) is True:
                fired.append((name, step, event.time, trig.message))
        for name in names:
            columns[name].append(current[name])
    return columns, fired


def _as_tuples(reports):
    return [(r.trigger, r.step, r.time, r.message) for r in reports]


def _generated(seed, annotate, off_grid=False):
    rng = Random(seed)
    mode = gen_specs.MODES[seed % 3]
    analyzed = analyze(parse_spec(gen_specs.gen_spec(
        rng, mode, annotate=annotate, off_grid=off_grid)))
    events = gen_specs.gen_trace(rng, analyzed.spec.input_names(), 30,
                                 mixed=off_grid)
    return analyzed, translate(analyzed, mode), events


@given(SEEDS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_compiled_paths_match_the_reference(seed, annotate):
    analyzed, tr, events = _generated(seed, annotate)
    for spec in (analyzed, tr.plain):
        model, reports = run_monitor_full(spec, events)
        columns, fired = reference_run(spec, events)
        for name, column in columns.items():
            assert all(values_equal(a, b)
                       for a, b in zip(model.streams[name], column, strict=True)), name
        assert _as_tuples(reports) == fired
        assert _as_tuples(triggers_from_model(spec, model)) == fired
        reference = EvaluationModel.from_times([e.time for e in events],
                                               columns)
        assert verify_model(spec, reference) == []


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_oracle_region_truth_matches_the_reference(seed):
    _, tr, events = _generated(seed, annotate=True)
    model, _ = run_monitor_full(tr.plain, events)
    oracle = DecisionOracle(tr.plain, tr.schedule, model)
    reader = ModelReader(model)
    inputs = tr.plain.spec.input_names()
    for task, chain in tr.schedule.entries.items():
        for entry, steps in zip(chain, oracle.true_steps[task], strict=True):
            expected = [
                s for s in range(len(model))
                if entry.pacing.satisfied_by(present_inputs(model, inputs, s))
                and reference_eval.eval_expr(
                    entry.condition, *reader.at_step(s),
                    float(model.times[s])) is True
            ]
            assert steps == expected


@given(SEEDS, st.booleans(), st.booleans())
# times in tenths, thirds and sevenths, read as tick / quantum
@example(5, True, True)
@settings(max_examples=60, deadline=None)
def test_replay_matches_the_model_and_the_reference_reader(seed, annotate,
                                                          off_grid):
    analyzed, tr, events = _generated(seed, annotate, off_grid)
    times = [e.time for e in events]
    for spec in (analyzed, tr.plain):
        model, _ = run_monitor_full(spec, events)
        assert model.times == times
        assert model.quantum == math.lcm(*(t.denominator for t in times))
        inputs = spec.spec.input_names()
        reader = ModelReader(model)
        steps = []
        for step, present, read, offset_read, now in replay(spec, model):
            steps.append(step)
            assert present == present_inputs(model, inputs, step)
            assert now == float(times[step])
            _, reference = reader.at_step(step)
            for name, column in model.streams.items():
                assert read(name) is column[step]
                for k in range(1, spec.max_offset[name] + 1):
                    assert offset_read(name, k) is reference(name, k), (name, k)
        assert steps == list(range(len(model)))


def test_an_absent_when_makes_the_output_absent():
    # x is absent whenever a <= 0, so o's first guard is undecided there
    text = ("input a : Float64\n"
            "output x\n    eval |@a| when a > 0.0 with a\n"
            "output o\n    eval |@a| when x > 1.0 with 1.0\n"
            "    eval |@a| with 2.0\n")
    analyzed = analyze(parse_spec(text))
    events = [Event(Fraction(t), {"a": a})
              for t, a in enumerate((5.0, -1.0, 0.5))]
    model, _ = run_monitor_full(analyzed, events)
    columns, _ = reference_run(analyzed, events)
    assert model.streams["o"] == columns["o"] == [1.0, ABSENT, 2.0]


# ---------------------------------------------------------------------------
# activation plans

# a `when` over an output that is absent at that step (x where a <= 0), a
# conjunctive pacing with a guard, an @any output, and outputs of one input
PLANNED = ("input a : Float64\ninput b : Float64\n"
           "output x\n    eval |@a| when a > 0.0 with a\n"
           "output both\n"
           "    eval |@a && b| when x > 1.0 with a + b\n"
           "    eval |@a && b| when b < 0.0 with a - b\n"
           "output nb |@b| := b * 2.0\n"
           "output count\n"
           "    eval |@any| with count.offset(by:-1).defaults(to: 0) + 1\n"
           'trigger both > 3.0 "both large"\n')

PLANNED_EVENTS = [
    Event(Fraction(t, 2), values) for t, values in enumerate((
        {"a": 2.0, "b": 1.5}, {"a": -1.0, "b": 4.0}, {"b": 3.0},
        {"a": 0.5}, {"a": 0.5, "b": -2.0}, {"a": 3.0, "b": -1.0},
        {"b": 1.0}, {"a": 5.0, "b": 2.0}))
]


def _assert_matches_reference(analyzed, events):
    model, reports = run_monitor_full(analyzed, events)
    columns, fired = reference_run(analyzed, events)
    for name, column in columns.items():
        assert all(values_equal(a, b)
                   for a, b in zip(model.streams[name], column, strict=True)), name
    assert _as_tuples(reports) == fired
    assert verify_model(analyzed, model) == []
    return model


def test_plans_match_the_reference_on_guards_over_absent_outputs():
    analyzed = analyze(parse_spec(PLANNED))
    model = _assert_matches_reference(analyzed, PLANNED_EVENTS)
    # x is absent at step 1 and both's first guard with it
    assert model.streams["both"][:3] == [3.5, ABSENT, ABSENT]
    assert model.streams["count"] == list(range(1, 9))


def test_plans_keep_any_clauses_after_paced_ones():
    # analysis gives every clause of an output one pacing; a plan filters
    # clause by clause, which this output with mixed pacings shows
    a, b = StreamRef("a"), StreamRef("b")
    mixed = OutputDecl("nb", (
        EvalClause(Pacing.of(["a", "b"]), Binary(">", a, Const(1.0)),
                   Binary("+", a, b)),
        EvalClause(Pacing.of(["b"]), Binary("<", b, Const(0.0)), b),
        EvalClause(Pacing.any_event(), Binary(">", Now(), Const(2.0)),
                   Const(7.0)),
        EvalClause(Pacing.of(["a"]), None, Unary("neg", a)),
        EvalClause(Pacing.any_event(), None, Const(9.0)),
    ))
    base = analyze(parse_spec(PLANNED))
    spec = replace(base.spec, outputs=tuple(
        mixed if o.name == "nb" else o for o in base.spec.outputs))
    analyzed = replace(base, spec=spec)
    model = _assert_matches_reference(analyzed, PLANNED_EVENTS)
    # each clause fires somewhere, the last @any one at step 2
    assert model.streams["nb"] == [3.5, 1.0, 9.0, -0.5, -2.0, 2.0, 7.0, 7.0]
    plan = analyzed.compiled.plan(frozenset({"a"}))
    assert sorted(name for name, _ in plan.outputs) == ["count", "nb", "x"]


def test_verify_flags_a_value_where_the_plan_leaves_an_output_out():
    analyzed = analyze(parse_spec(PLANNED))
    model, _ = run_monitor_full(analyzed, PLANNED_EVENTS)
    model.streams["nb"][3] = 1.0  # step 3 carries a alone
    violations = verify_model(analyzed, model)
    assert [(v.kind, v.step, v.stream, v.detail) for v in violations] == [
        ("semantic", 3, "nb", "stream 'nb' holds 1.0, recomputation gives ABSENT")]


def test_an_undeclared_input_raises_on_every_event():
    analyzed = analyze(parse_spec(PLANNED))
    state = MonitorState(analyzed)
    for t in range(3):
        with pytest.raises(ValueError, match=r"undeclared inputs: \['c'\]"):
            eval_event(state, Event(Fraction(t), {"a": 1.0, "c": 2.0}))
    assert state.step == 0
    eval_event(state, Event(Fraction(0), {"a": 1.0}))
    assert state.step == 1


def test_unactivated_outputs_cost_no_call():
    analyzed = analyze(parse_spec(PLANNED))
    calls = Counter()

    def counted(name, closure):
        def call(*args):
            calls[name] += 1
            return closure(*args)
        return call

    compiled = analyzed.compiled
    state = MonitorState(analyzed)
    state.compiled = CompiledSpec(tuple(
        (name, tuple((inputs, when and counted(name, when),
                      counted(name, expr)) for inputs, when, expr in clauses))
        for name, clauses in compiled.outputs),
        compiled.triggers, compiled.names, compiled.inputs)
    for t in range(4):
        eval_event(state, Event(Fraction(t), {"a": 2.0}))
    # with a alone, `both` (a && b) and `nb` (b) are never called
    assert calls == {"x": 8, "count": 4}
    eval_event(state, Event(Fraction(4), {"b": 2.0}))
    assert calls == {"x": 8, "count": 5, "nb": 1}


def _same(form, env, offset_read=None, now=0.0):
    read = env.__getitem__
    got = compile_expr(form)(read, offset_read, now)
    want = reference_eval.eval_expr(form, read, offset_read, now)
    assert values_equal(got, want) and type(got) is type(want), (form, env, got, want)


def test_every_operator_matches_the_reference_on_edge_values():
    a, b = StreamRef("a"), StreamRef("b")
    # stream/stream, stream/constant and constant/stream compile to their
    # own closures; a negated operand takes the general path
    forms = [Binary(op, x, y) for op in BINARY_OPS
             for x, y in ((a, b), (a, Const(2)), (Const(2.5), b),
                          (Unary("neg", a), b))]
    forms += [MinMax("min", (a, b)), MinMax("max", (a, Const(1.0), b))]
    for form in forms:
        for x in EDGE_VALUES:
            for y in EDGE_VALUES:
                _same(form, {"a": x, "b": y})
    for op in UNARY_OPS:
        for x in EDGE_VALUES:
            _same(Unary(op, a), {"a": x})


def test_leaf_forms_match_the_reference():
    history = {"h": 4.5}

    def offset_read(name, k):
        return history.get(name) if k == 1 else None

    for x in ((1.0, -2.0), ABSENT):
        _same(Proj(StreamRef("p"), 1), {"p": x})
    for stream, k in (("h", 1), ("h", 2), ("g", 1)):
        for d in (0.5, ABSENT):
            _same(OffsetAccess(stream, k, StreamRef("d")), {"d": d}, offset_read)
    _same(Binary("-", Now(), Const(2)), {}, now=float(Fraction(7, 2)))
