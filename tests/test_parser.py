"""Parser and formatter tests: structure, errors, and round trips."""

from fractions import Fraction

import pytest

from activemon.ast import (Const, GlobalConfig, OffsetAccess, Pacing, Proj,
                           StreamRef, format_spec)
from activemon.errors import DuplicateStream, SpecSyntaxError, UnknownStream
from activemon.parser import parse_spec

GEOFENCE = """\
input lat : Float64
input lon : Float64
input alt : Float64
output distance_to_bound
    eval |@lat && lon| with min(lat - 3.0, 48.0 - lat, lon - 5.0, 52.0 - lon)
output bound_violation
    #[priority="high"]
    eval |@lat && lon| when distance_to_bound < 12.0 with distance_to_bound < 0.0
    #[priority="low"]
    eval |@lat && lon| when distance_to_bound >= 12.0 with false
output altitude_violation
    #[priority="medium"]
    eval |@alt| with alt > 50.0
"""


def test_geofence_structure():
    spec = parse_spec(GEOFENCE)
    assert spec.input_names() == ("lat", "lon", "alt")
    assert spec.output_names() == (
        "distance_to_bound", "bound_violation", "altitude_violation")
    bv = spec.outputs[1]
    assert len(bv.clauses) == 2
    assert bv.clauses[0].annotation.priority == 10
    assert bv.clauses[1].annotation.priority == 1
    assert bv.clauses[0].pacing.inputs == frozenset({"lat", "lon"})
    assert spec.outputs[2].clauses[0].annotation.priority == 5


def test_config_header():
    spec = parse_spec('#![frequency="2Hz", bound="2", deadline="3s"]\n'
                      "input a : Float64\noutput x := a\n")
    cfg = spec.config
    assert cfg.event_frequency == 2
    assert cfg.bandwidth == 2
    assert cfg.default_deadline == 3
    assert cfg.period == Fraction(1, 2)


def test_config_defaults():
    cfg = GlobalConfig()
    assert cfg.event_frequency == 1
    assert cfg.bandwidth == 1
    assert cfg.default_deadline is None


def test_fractional_frequency():
    spec = parse_spec('#![frequency="0.5Hz"]\ninput a : Float64\noutput x := a\n')
    assert spec.config.event_frequency == Fraction(1, 2)
    assert spec.config.period == 2


def test_offset_access():
    spec = parse_spec("input a : Float64\n"
                      "output x := a.offset(by:-2).defaults(to: 0.0)\n")
    expr = spec.outputs[0].clauses[0].expr
    assert isinstance(expr, OffsetAccess)
    assert expr.stream == "a"
    assert expr.offset == 2
    assert expr.default == Const(0.0, is_float=True)


def test_self_offset_is_legal():
    spec = parse_spec("input a : Float64\n"
                      "output x |@a| := x.offset(by:-1).defaults(to: a)\n")
    assert spec.outputs[0].clauses[0].pacing.inputs == frozenset({"a"})


def test_tuple_input_and_projection():
    spec = parse_spec("input gps : (Float64, Float64)\noutput lat := gps.0\n")
    expr = spec.outputs[0].clauses[0].expr
    assert isinstance(expr, Proj)
    assert expr.index == 0
    assert isinstance(expr.operand, StreamRef)


def test_import_and_trigger():
    spec = parse_spec('import math\ninput a : Float64\n'
                      'output high := a > 5.0\ntrigger high "too high"\n')
    assert spec.imports == ("math",)
    assert spec.triggers[0].message == "too high"


def test_any_pacing():
    spec = parse_spec("input a : Float64\ninput b : Float64\n"
                      "output tick\n    eval |@any| with now\n")
    assert spec.outputs[0].clauses[0].pacing.is_any


def test_annotated_input_with_both_kinds():
    spec = parse_spec('#[priority="medium", deadline="3s"]\n'
                      "input p : Float64\noutput x := p\n")
    ann = spec.inputs[0].annotation
    assert ann.priority == 5
    assert ann.deadline == 3


def test_integer_priority():
    spec = parse_spec('#[priority="7"]\ninput p : Float64\noutput x := p\n')
    assert spec.inputs[0].annotation.priority == 7


@pytest.mark.parametrize("bad", [
    "input a : Float64\ninput a : Float64\noutput x := a\n",
    "input a : Float64\noutput x := a\noutput x := a\n",
])
def test_duplicate_stream(bad):
    with pytest.raises(DuplicateStream):
        parse_spec(bad)


def test_unknown_stream():
    with pytest.raises(UnknownStream):
        parse_spec("input a : Float64\noutput x := missing\n")


def _name_error(text: str) -> str:
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text, filename="q.lola")
    return str(err.value)


@pytest.mark.parametrize("text,message", [
    # two undeclared names in one pacing, whatever the string-hash seed
    ("input a : Float64\noutput x\n    eval |@qq && zz| with a\n",
     "q.lola:3:12: reference to undeclared stream 'qq'"),
    ("input a : Float64\noutput x\n    eval |@zz && qq| with a\n",
     "q.lola:3:12: reference to undeclared stream 'zz'"),
    # a pacing that names an output, at that name
    ("input a : Float64\noutput y := a\noutput x\n"
     "    eval |@a && y| with a\n",
     "q.lola:4:17: pacing may only name input streams, not 'y'"),
    # a trigger before the output that also uses an undeclared name
    ("input a : Float64\ntrigger b > 1.0\noutput x := c\n",
     "q.lola:2:9: reference to undeclared stream 'b'"),
    # an offset's stream, then a name in its default
    ("input a : Float64\noutput x := m.offset(by: -1).defaults(to: n)\n",
     "q.lola:2:13: reference to undeclared stream 'm'"),
    # the second declaration, even when an output comes first
    ("output x := a\ninput a : Float64\ninput x : Float64\n",
     "q.lola:3:7: stream 'x' declared more than once"),
    ("input a, b, a : Float64\noutput x := zz\n",
     "q.lola:1:13: stream 'a' declared more than once"),
])
def test_name_errors_report_the_first_name_at_its_token(text, message):
    assert _name_error(text) == message


def test_name_errors_carry_their_place():
    with pytest.raises(UnknownStream) as err:
        parse_spec("input a : Float64\noutput x := missing\n", "m.lola")
    assert (err.value.name, err.value.filename, err.value.line,
            err.value.col) == ("missing", "m.lola", 2, 13)
    with pytest.raises(DuplicateStream) as err:
        parse_spec("input a : Float64\noutput a := 1.0\n", "m.lola")
    assert (err.value.name, err.value.line, err.value.col) == ("a", 2, 8)


def test_syntax_error_has_location():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("input a : Float64\noutput := a\n", filename="bad.lola")
    msg = str(err.value)
    assert "bad.lola" in msg
    assert ":2:" in msg


@pytest.mark.parametrize("bad", [
    '#[priority="zero"]\ninput a : Float64\noutput x := a\n',
    '#[priority="0"]\ninput a : Float64\noutput x := a\n',
    '#[deadline="-1s"]\ninput a : Float64\noutput x := a\n',
    '#[cadence="3s"]\ninput a : Float64\noutput x := a\n',
])
def test_bad_annotations(bad):
    with pytest.raises(SpecSyntaxError):
        parse_spec(bad)


def test_reserved_names_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec("input now : Float64\noutput x := now\n")


def test_offset_requires_default():
    with pytest.raises(SpecSyntaxError):
        parse_spec("input a : Float64\noutput x := a.offset(by:-1)\n")


def test_format_parse_fixed_point():
    """format(parse(format(parse(text)))) settles after one pass."""
    once = format_spec(parse_spec(GEOFENCE))
    twice = format_spec(parse_spec(once))
    assert once == twice


def test_format_preserves_annotations():
    # named levels are stored numerically, so they print numerically
    text = format_spec(parse_spec(GEOFENCE))
    assert '#[priority="10"]' in text
    assert '#[priority="5"]' in text
    reparsed = parse_spec(text)
    assert reparsed.outputs[1].clauses[0].annotation.priority == 10
