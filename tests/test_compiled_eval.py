"""Differential tests: the generated evaluator against the tree-walking
reference.

The monitor, `verify_model` and the guards that `check_scheduled_model`
feeds the `DecisionOracle` all evaluate through code from one source
generator, so they cannot catch a generator bug by checking each other.
These tests compare every path with `reference_eval`, which reads the
expression tree directly.
"""

import ast
import io
import keyword
import math
import os
import re
import subprocess
import sys
import tokenize
from collections import deque
from dataclasses import fields, is_dataclass, replace
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
    Proj, StreamRef, Unary, expr_depth,
)
from activemon.engine import (
    ABSENT,
    EvaluationModel,
    MonitorState,
    TriggerReport,
    compile_verifier,
    eval_event,
    values_equal,
    verify_model,
    walk_model,
)
from activemon.errors import SpecSyntaxError
from activemon.parser import MAX_DEPTH, MAX_NESTING, parse_spec
from activemon.translate import translate
from checks import offset_refs
from events import Event, model_at, run_events
from reference_eval import (ModelReader, present_inputs, satisfied_by,
                            triggers_from_model)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

BINARY_OPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||")
UNARY_OPS = ("neg", "not", "abs", "sqrt")
EDGE_VALUES = (0, 3, -7, 2, 2.5, -4.0, 0.0, -0.0, math.nan, math.inf,
               True, False, ABSENT)


def reference_run(analyzed, events):
    """Columns and trigger reports computed with the reference evaluator.

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
                fired.append(TriggerReport.at(
                    name, step, event.time.numerator, event.time.denominator,
                    trig.message))
        for name in names:
            columns[name].append(current[name])
    return columns, fired


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
        model, reports = run_events(spec, events)
        columns, fired = reference_run(spec, events)
        for name, column in columns.items():
            assert all(values_equal(a, b)
                       for a, b in zip(model.streams[name], column, strict=True)), name
        assert reports == fired
        assert triggers_from_model(spec, model) == fired
        reference = model_at([e.time for e in events], columns)
        assert verify_model(spec, reference) == []


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_region_truth_from_guards_matches_the_reference(seed):
    # a region holds where every guard named in its sources holds; the
    # verifier decides each distinct guard once, and the regions hold where
    # the reference finds their pacing present and their conjoined
    # condition True
    _, tr, events = _generated(seed, annotate=True)
    model, _ = run_events(tr.plain, events)
    schedule = tr.schedule
    guards = list(dict.fromkeys(schedule.guards.values()))
    bit = {guard: 1 << i for i, guard in enumerate(guards)}
    holding = [h for _, h in walk_model(tr.plain, model, [], guards)]
    reader = ModelReader(model)
    inputs = tr.plain.spec.input_names()
    for chain in schedule.entries.values():
        for entry in chain:
            mask = sum({bit[schedule.guards[s]] for s in entry.sources})
            expected = [
                s for s in range(len(model))
                if satisfied_by(entry.pacing, present_inputs(model, inputs, s))
                and reference_eval.eval_expr(
                    entry.condition, *reader.at_step(s),
                    float(model.times[s])) is True
            ]
            assert [s for s, h in enumerate(holding)
                    if h & mask == mask] == expected


def _probed(analyzed, model):
    """The spec and model with one @any output per stream and offset
    depth up to its `max_offset`, which reads that offset (the stream
    itself while history is short), and one that reads `now`; the probe
    cells are computed through `ModelReader` at the model's exact times."""
    reader = ModelReader(model)
    forms = {f"probe{j}": OffsetAccess(name, k, StreamRef(name))
             for j, (name, k) in enumerate(
                 (name, k) for name, depth in analyzed.max_offset.items()
                 for k in range(1, depth + 1))}
    forms["probe_now"] = Now()
    columns = {name: [] for name in forms}
    for step, time in enumerate(model.times):
        read, offset_read = reader.at_step(step)
        for name, form in forms.items():
            columns[name].append(
                reference_eval.eval_expr(form, read, offset_read, float(time)))
    probes = tuple(OutputDecl(name, (EvalClause(Pacing.any_event(), None, form),))
                   for name, form in forms.items())
    spec = replace(analyzed, spec=replace(
        analyzed.spec, outputs=analyzed.spec.outputs + probes),
        eval_order=analyzed.eval_order + tuple(forms))
    return spec, EvaluationModel(model.ticks, {**model.streams, **columns},
                                 model.quantum)


@given(SEEDS, st.booleans(), st.booleans())
# times in tenths, thirds and sevenths, read as tick / quantum
@example(5, True, True)
@settings(max_examples=60, deadline=None)
def test_the_walk_matches_the_model_and_the_reference_reader(seed, annotate,
                                                             off_grid):
    analyzed, tr, events = _generated(seed, annotate, off_grid)
    times = [e.time for e in events]
    for spec in (analyzed, tr.plain):
        model, _ = run_events(spec, events)
        assert model.times == times
        assert model.quantum == math.lcm(*(t.denominator for t in times))
        inputs = spec.spec.input_names()
        violations = []
        masks = [present for present, _ in walk_model(spec, model, violations)]
        assert violations == []
        assert masks == [
            sum(1 << i for i, name in enumerate(inputs)
                if name in present_inputs(model, inputs, step))
            for step in range(len(model))]
        # the verifier's history serves every offset the spec may read, and
        # `now`, as the reference reader does
        assert verify_model(*_probed(spec, model)) == []


def test_an_absent_when_makes_the_output_absent():
    # x is absent whenever a <= 0, so o's first guard is undecided there
    text = ("input a : Float64\n"
            "output x\n    eval |@a| when a > 0.0 with a\n"
            "output o\n    eval |@a| when x > 1.0 with 1.0\n"
            "    eval |@a| with 2.0\n")
    analyzed = analyze(parse_spec(text))
    events = [Event(Fraction(t), {"a": a})
              for t, a in enumerate((5.0, -1.0, 0.5))]
    model, _ = run_events(analyzed, events)
    columns, _ = reference_run(analyzed, events)
    assert model.streams["o"] == columns["o"] == [1.0, ABSENT, 2.0]


# ---------------------------------------------------------------------------
# pacing-guarded evaluation

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
    model, reports = run_events(analyzed, events)
    columns, fired = reference_run(analyzed, events)
    for name, column in columns.items():
        assert all(values_equal(a, b)
                   for a, b in zip(model.streams[name], column, strict=True)), name
    assert reports == fired
    assert verify_model(analyzed, model) == []
    return model


def test_plans_match_the_reference_on_guards_over_absent_outputs():
    analyzed = analyze(parse_spec(PLANNED))
    model = _assert_matches_reference(analyzed, PLANNED_EVENTS)
    # x is absent at step 1 and both's first guard with it
    assert model.streams["both"][:3] == [3.5, ABSENT, ABSENT]
    assert model.streams["count"] == list(range(1, 9))


def test_plans_keep_any_clauses_after_paced_ones():
    # analysis gives every clause of an output one pacing; the generated
    # code guards clause by clause, which this output with mixed pacings
    # shows
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
    # with a alone after 2 s, nb still reaches its @any clause past the
    # clauses paced on b
    state = MonitorState(analyzed)
    row, _ = eval_event(state, 5, {"a": 0.5})
    current = dict(zip(spec.stream_names(), row))
    assert sorted(name for name, v in current.items()
                  if v is not ABSENT and name not in ("a", "b")) == [
        "count", "nb", "x"]
    assert current["nb"] == 7.0


def test_verify_flags_a_value_where_the_plan_leaves_an_output_out():
    analyzed = analyze(parse_spec(PLANNED))
    model, _ = run_events(analyzed, PLANNED_EVENTS)
    model.streams["nb"][3] = 1.0  # step 3 carries a alone
    violations = verify_model(analyzed, model)
    assert [(v.kind, v.step, v.stream, v.detail) for v in violations] == [
        ("semantic", 3, "nb", "stream 'nb' holds 1.0, recomputation gives ABSENT")]


def test_an_undeclared_input_raises_on_every_event():
    analyzed = analyze(parse_spec(PLANNED))
    state = MonitorState(analyzed)
    for t in range(3):
        with pytest.raises(ValueError, match=r"undeclared inputs: \['c'\]"):
            eval_event(state, t, {"a": 1.0, "c": 2.0})
    assert state.step == 0
    eval_event(state, 0, {"a": 1.0})
    assert state.step == 1


def test_unactivated_outputs_cost_no_call():
    # each output multiplies a's last value, a float that records every
    # multiplication, by its own factor; pb and pab are paced on b, which
    # the first four events lack
    products = []

    class Recorded(float):
        def __mul__(self, other):
            products.append(other)
            return float(self) * other

    text = ("input a : Float64\ninput b : Float64\n"
            "output pa |@a| := a.offset(by:-1).defaults(to: 1.0) * 2.0\n"
            "output pb |@b| := a.offset(by:-1).defaults(to: 1.0) * 3.0\n"
            "output pab |@a && b| := a.offset(by:-1).defaults(to: 1.0) * 5.0\n")
    state = MonitorState(analyze(parse_spec(text)))
    for t in range(4):
        eval_event(state, t, {"a": Recorded(2.0)})
    assert products == [2.0] * 3  # step 0 multiplies the default
    eval_event(state, 4, {"b": 2.0})
    assert products == [2.0] * 3 + [3.0]


def _same(form, envs, history=None, now=0.0):
    """`form`, the one clause of an @any output, evaluated by the generated
    monitor at each env (input -> value, or ABSENT for none) with the
    offsets' deques holding `history` (stream -> past values, oldest
    first), equals the reference in value and type."""
    history = history or {}
    names = sorted({"z", *(n for env in envs for n in env), *history,
                    *offset_refs(form)})
    base = analyze(parse_spec("".join(f"input {n} : Float64\n" for n in names)
                              + "output o := z\n"))
    output = OutputDecl("o", (EvalClause(Pacing.any_event(), None, form),))
    spec = replace(base.spec, outputs=(output,))
    compiled = replace(base, spec=spec,
                       max_offset={**base.max_offset, **offset_refs(form)}
                       ).compiled

    def offset_read(name, k):
        past = history.get(name, ())
        return past[-k] if len(past) >= k else None

    for env in envs:
        step = compiled.make(*(deque(history.get(n, ()), maxlen=d)
                               for n, d in compiled.history))
        present = {n: v for n, v in env.items() if v is not ABSENT}
        got = dict(zip(spec.stream_names(), step(present, now)[0]))["o"]
        want = reference_eval.eval_expr(form, env.__getitem__, offset_read, now)
        assert values_equal(got, want) and type(got) is type(want), \
            (form, env, got, want)


def test_every_operator_matches_the_reference_on_edge_values():
    a, b = StreamRef("a"), StreamRef("b")
    # operands that are streams, constants and a compound operand
    forms = [Binary(op, x, y) for op in BINARY_OPS
             for x, y in ((a, b), (a, Const(2)), (Const(2.5), b),
                          (Unary("neg", a), b))]
    forms += [MinMax("min", (a, b)), MinMax("max", (a, Const(1.0), b))]
    for form in forms:
        _same(form, [{"a": x, "b": y} for x in EDGE_VALUES for y in EDGE_VALUES])
    for op in UNARY_OPS:
        _same(Unary(op, a), [{"a": x} for x in EDGE_VALUES])


def test_leaf_forms_match_the_reference():
    history = {"h": [4.5]}
    _same(Proj(StreamRef("p"), 1), [{"p": x} for x in ((1.0, -2.0), ABSENT)])
    for stream, k in (("h", 1), ("h", 2), ("g", 1)):
        _same(OffsetAccess(stream, k, StreamRef("d")),
              [{"d": d} for d in (0.5, ABSENT)], history)
    _same(Binary("-", Now(), Const(2)), [{}], now=float(Fraction(7, 2)))


# ---------------------------------------------------------------------------
# generated source: names, constants, nesting


def _rename(node, old, new):
    """A copy of an AST with every string equal to `old` replaced."""
    if isinstance(node, str):
        return new if node == old else node
    if isinstance(node, (tuple, frozenset)):
        return type(node)(_rename(x, old, new) for x in node)
    if is_dataclass(node):
        return replace(node, **{f.name: _rename(getattr(node, f.name), old, new)
                                for f in fields(node) if f.init})
    return node


def _events(rng, analyzed, n, mixed=True):
    """Events in tenths, thirds and sevenths; Bool inputs get bools."""
    events = gen_specs.gen_trace(rng, analyzed.spec.input_names(), n, mixed)
    bools = [name for name, t in analyzed.types.items() if str(t) == "Bool"]
    for event in events:
        for name in bools:
            if name in event.values:
                event.values[name] = event.values[name] > 0
    return events


# stream names that are Python keywords, names of the engine's runtime
# (ABSENT, values_equal, len), the generator's own locals and parameters
# (_v0, _w, _e, _bad, _c0, _h0, _p0, values, get, row, now), other plain
# names (read, offset_read), and names apart only by a suffix; `nowx`
# becomes `now` below, since the parser reserves it
CAPTURE = (
    "input ABSENT : Float64\ninput None : Float64\ninput nowx : Float64\n"
    "input ev : Bool\ninput x : Float64\ninput x_ : Float64\n"
    "output _v0 |@ABSENT| := ABSENT + nowx.offset(by:-1).defaults(to: 1.0)\n"
    "output lambda |@None && nowx| := "
    "None * nowx - _v0.offset(by:-1).defaults(to: 0.5)\n"
    "output if |@ev| := ev && lambda.offset(by:-1).defaults(to: 0.0) > 1.0\n"
    "output values |@x| := x + x_.offset(by:-1).defaults(to: 0.0)\n"
    "output x0 |@x_| := x_ * 2.0\n"
    "output x00\n"
    "    eval |@x| when values > 3.0 with x0.offset(by:-2).defaults(to: x)\n"
    "    eval |@x| with values.offset(by:-1).defaults(to: -1.0)\n"
    "output get |@any| := now\n"
    "output _bad |@nowx| := nowx > get.offset(by:-1).defaults(to: 0.0)\n"
    "output _w |@x| := x * 3.0\noutput _e |@x_| := x_ - 1.0\n"
    "output read |@any| := _w.offset(by:-1).defaults(to: 2.5)\n"
    "output offset_read |@any| := _e.offset(by:-1).defaults(to: 2.0)\n"
    "output _c0 |@ev| := 5.0\noutput _p0 |@x && x_| := x + x_\n"
    "output _h0 |@any| := _h0.offset(by:-1).defaults(to: 0) + 1\n"
    "output row |@x && x_| := max(x, x_.offset(by:-1).defaults(to: x), _p0)\n"
    "output len |@any| := values_equal.offset(by:-1).defaults(to: 0.0)\n"
    "output values_equal |@None| := -None\n"
    'trigger if "if fired"\ntrigger _bad\n'
)

_GENERATED = re.compile(r"_[vpqhcrt]\d+|_w|_e|_g|_m|_bad|_fired|_monitor|_verifier")
_RUNTIME_NAMES = {
    "ABSENT", "_div", "_sqrt", "_min", "_max", "_undeclared", "_inputs",
    "values_equal", "abs", "len", "values", "get", "keys", "append", "now",
    "row", "step",
}


def _source_names(source):
    """The NAME tokens and string literals of a generated source."""
    names, strings = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and not keyword.iskeyword(tok.string):
            names.add(tok.string)
        elif tok.type == tokenize.STRING:
            strings.add(ast.literal_eval(tok.string))
    return names, strings


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_stream_names_cannot_capture_generated_names(seed):
    analyzed = analyze(_rename(parse_spec(CAPTURE), "nowx", "now"))
    assert "now" in analyzed.spec.input_names()
    events = _events(Random(seed), analyzed, 40)
    _assert_matches_reference(analyzed, events)
    model, reports = run_events(analyzed, events)
    assert triggers_from_model(analyzed, model) == reports
    # stream names occur only as string literals, in the monitor (which
    # names only the inputs it reads, its row being a tuple) and in the
    # verifier, here deciding the spec's when conditions as guards
    guards = [(c.when, c.pacing) for o in analyzed.spec.outputs
              for c in o.clauses if c.when is not None]
    verifier = compile_verifier(analyzed, guards).source
    assert verifier.count("_g |=") == len(guards) > 0
    for source, named in ((analyzed.compiled.source, analyzed.spec.input_names()),
                          (verifier, analyzed.spec.output_names())):
        names, strings = _source_names(source)
        assert all(_GENERATED.fullmatch(n) or n in _RUNTIME_NAMES
                   for n in names), \
            sorted(n for n in names
                   if not (_GENERATED.fullmatch(n) or n in _RUNTIME_NAMES))
        assert strings == set(named)


def test_the_parser_reserves_now_as_a_stream_name():
    with pytest.raises(SpecSyntaxError, match="'now' is reserved"):
        parse_spec("input now : Float64\n")


CONSTANTS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 2**63, 2**64 + 1,
             -(2**80), True, False, 0, 1, 1.0)


def test_constants_keep_their_value_and_type():
    # outputs of constants, and of constants combined with a stream, over
    # a spec with as many outputs; -0.0 and 0.0, 0 and False, 1, 1.0 and
    # True are distinct constants
    a = StreamRef("a")
    forms = [Const(c) for c in CONSTANTS]
    forms += [Binary("*", Const(c), a) for c in (math.inf, -0.0, math.nan)]
    forms += [Binary("+", Const(2**64 + 1), Const(c)) for c in (1, True, -(2**80))]
    forms += [Binary("/", Const(2**70), Const(c)) for c in (3, -7, 0)]
    forms += [Binary("==", Const(c), Const(0)) for c in (-0.0, False, 0.0)]
    forms += [MinMax("max", (Const(math.nan), a)), Unary("neg", Const(0.0)),
              Unary("not", Const(False)), Unary("neg", Const(2**63))]
    text = "input a : Float64\n" + "".join(
        f"output o{i} |@a| := a\n" for i in range(len(forms)))
    base = analyze(parse_spec(text))
    outputs = tuple(
        replace(o, clauses=(replace(o.clauses[0], expr=form),))
        for o, form in zip(base.spec.outputs, forms))
    analyzed = replace(base, spec=replace(base.spec, outputs=outputs))
    events = [Event(Fraction(t), {"a": v})
              for t, v in enumerate((2.0, -0.0, math.inf, -3.5))]
    model, _ = run_events(analyzed, events)
    columns, _ = reference_run(analyzed, events)
    for i, form in enumerate(forms):
        got, want = model.streams[f"o{i}"], columns[f"o{i}"]
        assert [(type(v), repr(v)) for v in got] == \
            [(type(v), repr(v)) for v in want], form
    assert verify_model(analyzed, model) == []
    for form in forms:
        _same(form, [{"a": -0.0}])


def _nested(shape, levels):
    """An expression of `o` that nests exactly `levels` deep; `m` is
    absent whenever a <= 0.5."""
    n = levels - 1
    if shape == "parens":
        return "(" * n + "a" + " + m)" * n
    if shape == "chain":
        return " - ".join(["a"] + ["m"] * n)
    if shape == "unary":
        return "-" * n + "a"
    # offset defaults, alternating a stream that is sometimes absent
    streams = ("m", "o", "a")
    return "".join(f"{streams[k % 3]}.offset(by:-{k % 2 + 1}).defaults(to: "
                   for k in range(n)) + "m" + ")" * n


@pytest.mark.parametrize("shape,cap,message", [
    ("parens", MAX_NESTING, "nests more than 100"),
    ("unary", MAX_NESTING, "nests more than 100"),
    ("offsets", MAX_NESTING, "nests more than 100"),
    ("chain", MAX_DEPTH, "tree is more than 500"),
])
def test_expressions_at_the_nesting_caps_evaluate_like_the_reference(
        shape, cap, message):
    def spec(levels):
        return ("input a : Float64\ninput b : Float64\n"
                "output m\n    eval |@a| when a > 0.5 with a\n"
                f"output o |@a| := {_nested(shape, levels)}\n"
                "output t |@a| := o > 1.0\ntrigger t\n")

    with pytest.raises(SpecSyntaxError, match=message):
        parse_spec(spec(cap + 1))
    analyzed = analyze(parse_spec(spec(cap)))
    assert expr_depth(analyzed.spec.output_decl("o").clauses[0].expr) == cap
    events = _events(Random(7), analyzed, 40)
    model = _assert_matches_reference(analyzed, events)
    assert any(v is ABSENT for v in model.streams["o"][1:])
    assert any(v is not ABSENT for v in model.streams["o"])


def test_trees_deeper_than_the_caps_still_compile():
    # translation builds trees the parser never sees, such as conjunctions
    # over many clauses; the generator binds deep subtrees to temporaries
    a, m, o = StreamRef("a"), StreamRef("m"), StreamRef("o")
    chain = a
    for k in range(MAX_DEPTH + 100):
        chain = Binary("+" if k % 2 else "-", chain, m)
    offsets = m
    for k in range(250):
        offsets = OffsetAccess(("m", "o", "a")[k % 3], k % 2 + 1, offsets)
    conjunction = Binary("&&", Binary(">", a, Const(0.0)), Const(True))
    for k in range(300):
        conjunction = Binary("&&", conjunction, Binary("<", m, Const(float(k))))
    base = analyze(parse_spec(
        "input a : Float64\noutput m\n    eval |@a| when a > 0.5 with a\n"
        "output o |@a| := a\noutput d |@a| := a\noutput c |@a| := a > 0.0\n"))
    forms = {"o": chain, "d": offsets, "c": conjunction}
    analyzed = analyze(replace(base.spec, outputs=tuple(
        replace(out, clauses=(replace(out.clauses[0],
                                      expr=forms.get(out.name, out.clauses[0].expr)),))
        for out in base.spec.outputs)))
    events = _events(Random(3), analyzed, 30)
    model = _assert_matches_reference(analyzed, events)
    assert {v is ABSENT for v in model.streams["o"]} == {True, False}
    # as an annotation guard, the conjunction and its negation hold where
    # the reference finds it True and False, and neither where ABSENT
    reader = ModelReader(model)
    a_paced = Pacing.of(["a"])
    guards = [(conjunction, a_paced), (Unary("not", conjunction), a_paced)]
    seen = set()
    for step, (_, holding) in enumerate(walk_model(analyzed, model, [], guards)):
        read, offset_read = reader.at_step(step)
        now = float(model.times[step])
        value = reference_eval.eval_expr(conjunction, read, offset_read, now)
        assert holding == {True: 1, False: 2, ABSENT: 0}[value]
        seen.add(holding)
    assert len(seen) > 1


def test_first_match_chains_of_many_clauses():
    # CPython's compiler recurses per elif, so long chains restart
    clauses = "".join(f"    eval |@a| when a < {k / 10} with {k}\n"
                      for k in range(-250, 250))
    analyzed = analyze(parse_spec(
        "input a : Float64\noutput grade\n" + clauses +
        "    eval |@a| with -1\n"))
    events = [Event(Fraction(t), {"a": v})
              for t, v in enumerate((-30.0, -24.95, 0.0, 19.96, 24.85, 30.0))]
    model = _assert_matches_reference(analyzed, events)
    assert model.streams["grade"] == [-250, -249, 1, 200, 249, -1]


def test_the_generated_source_is_the_same_under_any_string_hash():
    # the monitor's source, and the verifier's with the guards `check`
    # gives it, which come from a schedule over a frozenset universe
    script = (
        "import hashlib\n"
        "from activemon.cli import SPEC_DIR\n"
        "from activemon.engine import compile_verifier\n"
        "from activemon.parser import parse_spec\n"
        "from activemon.analysis import analyze\n"
        "from activemon.schedule import DecisionOracle\n"
        "from activemon.translate import translate\n"
        "for name in ('drone_experiment', 'geofence_priority', "
        "'priority_conflict'):\n"
        "    a = analyze(parse_spec((SPEC_DIR / (name + '.lola')).read_text()))\n"
        "    for mode in ('dp', 'priority'):\n"
        "        tr = translate(a, mode)\n"
        "        guards = DecisionOracle(tr.plain, tr.schedule, 1).guards\n"
        "        assert guards\n"
        "        for source in (tr.plain.compiled.source,\n"
        "                       compile_verifier(tr.plain, guards).source):\n"
        "            print(name, mode,\n"
        "                  hashlib.sha256(source.encode()).hexdigest())\n")
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].splitlines()) == 12
