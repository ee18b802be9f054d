"""Differential tests: the compiled evaluator against the tree-walking reference.

The monitor, `verify_model`, `triggers_from_model` and the `DecisionOracle`
all evaluate through one compiled form, so they cannot catch a compiler bug
by checking each other. These tests compare every path with
`reference_eval`, which reads the expression tree directly.
"""

import math
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import gen_specs
import reference_eval
from activemon.analysis import analyze
from activemon.ast import (
    Binary, Const, MinMax, Now, OffsetAccess, Proj, StreamRef, Unary,
)
from activemon.engine import (
    ABSENT,
    Event,
    EvaluationModel,
    ModelReader,
    compile_expr,
    run_monitor_full,
    triggers_from_model,
    values_equal,
    verify_model,
)
from activemon.parser import parse_spec
from activemon.schedule import DecisionOracle
from activemon.translate import translate

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


def _generated(seed, annotate):
    rng = Random(seed)
    mode = gen_specs.MODES[seed % 3]
    analyzed = analyze(parse_spec(gen_specs.gen_spec(rng, mode, annotate=annotate)))
    events = gen_specs.gen_trace(rng, analyzed.spec.input_names(), 30)
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
        reference = EvaluationModel([e.time for e in events], columns)
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
                if entry.pacing.satisfied_by(model.present_inputs(inputs, s))
                and reference_eval.eval_expr(
                    entry.condition, *reader.at_step(s),
                    float(model.times[s])) is True
            ]
            assert steps == expected


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


def _same(form, env, offset_read=None, now=0.0):
    read = env.__getitem__
    got = compile_expr(form)(read, offset_read, now)
    want = reference_eval.eval_expr(form, read, offset_read, now)
    assert values_equal(got, want) and type(got) is type(want), (form, env, got, want)


def test_every_operator_matches_the_reference_on_edge_values():
    a, b = StreamRef("a"), StreamRef("b")
    forms = [Binary(op, a, b) for op in BINARY_OPS]
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
