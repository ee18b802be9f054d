"""Pacing inference, type checking, annotation extraction, trigger naming."""

from fractions import Fraction

import pytest

from activemon.analysis import analyze, derive_annotation_map
from activemon.ast import Const
from activemon.engine import compile_expr
from activemon.errors import (CyclicDependency, EmptyPacing, PacingConflict,
                              TypeError_)
from activemon.parser import parse_spec


def resolved_inputs(spec, name) -> frozenset:
    """Inputs pacing a whole output: the union over its eval clauses."""
    return frozenset().union(
        *(c.pacing.inputs for c in spec.output_decl(name).clauses))


def test_inferred_pacing_unions_sync_deps():
    spec = parse_spec("input a : Float64\ninput b : Float64\n"
                      "output x := a\noutput y := b\noutput z := x + y\n")
    analyzed = analyze(spec)
    assert resolved_inputs(analyzed.spec, "z") == frozenset({"a", "b"})


def test_offset_targets_do_not_pace():
    spec = parse_spec("input a : Float64\ninput b : Float64\n"
                      "output x := a + b.offset(by:-1).defaults(to: 0.0)\n")
    analyzed = analyze(spec)
    assert resolved_inputs(analyzed.spec, "x") == frozenset({"a"})


def test_transitive_resolution_through_outputs():
    spec = parse_spec("input a : Float64\ninput b : Float64\n"
                      "output x |@a&&b| := a + b\noutput y := x * 2.0\n")
    analyzed = analyze(spec)
    assert resolved_inputs(analyzed.spec, "y") == frozenset({"a", "b"})


def test_empty_pacing_rejected():
    with pytest.raises(EmptyPacing):
        analyze(parse_spec("input a : Float64\noutput x := 1.0\n"))


def test_clauses_must_share_one_pacing():
    text = ("input a : Float64\ninput b : Float64\n"
            "output x\n"
            "    eval |@a| when a > 0.0 with a\n"
            "    eval |@b| with b\n")
    with pytest.raises(PacingConflict):
        analyze(parse_spec(text))


def test_any_pacing_cannot_read_paced_streams():
    text = ("input a : Float64\n"
            "output x\n    eval |@any| with a + 1.0\n")
    with pytest.raises(PacingConflict):
        analyze(parse_spec(text))


def test_sync_cycle_rejected():
    text = ("input a : Float64\n"
            "output x |@a| := y + a\noutput y |@a| := x + a\n")
    with pytest.raises(CyclicDependency):
        analyze(parse_spec(text))


def test_offset_breaks_cycles():
    text = ("input a : Float64\n"
            "output x |@a| := x.offset(by:-1).defaults(to: 0.0) + a\n")
    analyzed = analyze(parse_spec(text))
    assert analyzed.max_offset["x"] == 1


def test_type_check_results():
    text = ("input a : Float64\ninput n : Int64\n"
            "input gps : (Float64, Float64)\n"
            "output s := a + 1.0\noutput flag := a > 0.0\n"
            "output lat := gps.0\noutput c := n + 1\n")
    analyzed = analyze(parse_spec(text))
    names = {n: str(t) for n, t in analyzed.types.items()}
    assert names["s"] == "Float64"
    assert names["flag"] == "Bool"
    assert names["lat"] == "Float64"
    assert names["c"] == "Int64"


@pytest.mark.parametrize("bad", [
    "input a : Float64\noutput x := a && true\n",
    "input a : Float64\ninput n : Int64\noutput x := a + n\n",
    "input a : Float64\noutput x\n    eval |@a| when a with a\n",
    "input a : Float64\noutput x := a.0\n",
])
def test_type_errors(bad):
    with pytest.raises(TypeError_):
        analyze(parse_spec(bad))


def test_trigger_named_after_stream():
    text = ("input a : Float64\noutput high := a > 1.0\n"
            'trigger high "over"\ntrigger a > 5.0 "way over"\n')
    analyzed = analyze(parse_spec(text))
    assert analyzed.trigger_names == ("high", "trigger_1")


def test_eval_order_is_topological():
    text = ("input a : Float64\n"
            "output z := y + 1.0\noutput y := x + 1.0\noutput x := a\n")
    analyzed = analyze(parse_spec(text))
    order = list(analyzed.eval_order)
    assert order.index("x") < order.index("y") < order.index("z")


# -- annotation extraction ---------------------------------------------------


GUARDED = """\
input d : Float64
output ranked
    #[priority="low"]
    eval |@d| when d <= 4.0 with d
    #[priority="medium"]
    eval |@d| when d <= 6.0 with d
    #[priority="high"]
    eval |@d| with d
"""


def entry_conditions(text, stream):
    spec = analyze(parse_spec(text)).spec
    return derive_annotation_map(spec)[stream]


def test_annotation_guards_stack_negations():
    chain = entry_conditions(GUARDED, "ranked")
    assert [e.priority for e in chain] == [1, 5, 10]
    assert [e.clause_index for e in chain] == [0, 1, 2]

    def active(d):
        read = lambda name: d
        hits = [e.priority for e in chain
                if compile_expr(e.condition)(read, None, 0.0) is True]
        return hits

    # guards are exclusive: exactly one region claims any given value
    assert active(3.0) == [1]
    assert active(5.0) == [5]
    assert active(9.0) == [10]


def test_input_annotation_guard_is_true():
    text = '#[priority="high", deadline="3s"]\ninput p : Float64\noutput x := p\n'
    chain = entry_conditions(text, "p")
    assert len(chain) == 1
    entry = chain[0]
    assert entry.condition == Const(True)
    assert entry.priority == 10
    assert entry.deadline == Fraction(3)
    assert entry.clause_index == -1
    assert entry.pacing.inputs == frozenset({"p"})
