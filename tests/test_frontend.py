"""The front end against its references.

`parse_spec` runs side by side with the recursive-descent parser kept in
`reference_parser.py`: on the bundled specs, the golden translate specs,
the generated specs of `gen_specs` and seeded random edits of all of them.
Both must give equal specifications, or the same exception type and
message, line and column included. They differ on purpose only in three
number literals that the reference gets wrong, each with a test of its own,
and in name errors: the reference reports them without a place, walking
the names by kind and in hash order, while `parse_spec` reports the first
in source order at its token (pinned in `test_parser.py`).
Every edited text that parses also survives a round trip through
`format_spec`, and the plain analysis that `translate` builds equals
`analyze` of the plain spec, field by field, in every mode.
"""

import dataclasses
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen_specs
import reference_parser
from activemon.analysis import analyze
from activemon.ast import (Const, Specification, StreamRef, Unary,
                           format_spec)
from activemon.errors import (DuplicateStream, SpecError, SpecSyntaxError,
                              UnknownStream)
from activemon.parser import parse_spec
from activemon.schedule import MODES
from activemon.translate import translate
from conftest import SPEC_DIR
from test_golden_translate import BUNDLED, DEADLINES, wide_text

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

TEXTS = {name: (SPEC_DIR / name).read_text(encoding="utf-8")
         for name in BUNDLED}
TEXTS["deadlines.lola"] = DEADLINES
TEXTS["wide.lola"] = wide_text()

PUNCTUATORS = ("#![", "#[", ":=", "|@", "&&", "||", "==", "!=", "<=", ">=",
               "(", ")", "[", "]", ",", ":", ".", "|", "!", "=", "<", ">",
               "+", "-", "*", "/")
KEYWORDS = ("input", "output", "trigger", "eval", "when", "with", "import",
            "now", "true", "false", "any", "min", "max", "abs", "sqrt",
            "offset", "by", "defaults", "to")
ALPHABET = PUNCTUATORS + KEYWORDS + (
    # comments, whitespace and strings
    "// note\n", "//", " //x", "\r", "\t", "\r\n", " ", "\n", '"', '"open',
    '"msg"',
    # Unicode letters and digits, and a digit that int() does not read
    "é", "λx", "Ωmega", "x٣", "٣", "١٢", "٣.٥", "²", "x²", "2²", "1.²",
    "1e²",
    # numbers, long digit runs among them
    "7", "0", "1", "0.5", "1e3", "2.5E-3", "1e+2", "1e400", "1.5e-400",
    "1" * 40, "9" * 4301, "1" * 5000 + ".5", "0" * 5000 + "1.5",
    # deep parentheses and long operator chains
    "(" * 120, ")" * 120, "(" * 60 + "1" + ")" * 60, " + 1" * 510,
    " * 2.0" * 260, " && true" * 300, "-" * 150, "!" * 120,
)
EDITS_PER_TEXT = 300
SPANS = (1, 2, 5, 20, 80)


def edit(rng: Random, text: str) -> str:
    """One to three random edits: delete, duplicate or insert a span."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.choice(SPANS))
        roll = rng.random()
        if roll < 0.25:
            text = text[:i] + text[j:]
        elif roll < 0.4:
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
    return text


def edited(name: str) -> list:
    rng = Random(name)
    return [edit(rng, TEXTS[name]) for _ in range(EDITS_PER_TEXT)]


def outcome(parse, text: str):
    """The specification, or the exception's type and message."""
    try:
        return parse(text, "edit.lola")
    except Exception as exc:  # the reference crashes on some literals
        return type(exc), str(exc)


def reference_numbers(text: str) -> list:
    """The NUMBER tokens that the reference scanner makes before its first
    error, if it has one."""
    try:
        tokens = reference_parser._tokenize(text, "edit.lola")
    except SpecSyntaxError as exc:
        lines = text.split("\n")
        offset = sum(len(line) + 1 for line in lines[:exc.line - 1])
        tokens = reference_parser._tokenize(text[:offset + exc.col - 1],
                                            "edit.lola")
    return [t.text for t in tokens if t.kind == "NUMBER"]


def name_error(outcome) -> bool:
    return isinstance(outcome, tuple) and (
        outcome[0] in (DuplicateStream, UnknownStream)
        or "pacing may only name input streams" in outcome[1])


def named_at_its_token(text: str, message: str) -> bool:
    """The name that an error message quotes starts at its line and column
    and is a whole word there."""
    place, _, rest = message.partition(": ")
    line, col = map(int, place.split(":")[-2:])
    name = rest.split("'")[1]
    source = text.split("\n")[line - 1]
    return source[col - 1:].startswith(name) and not (
        source[col - 1 + len(name):col + len(name)].isidentifier()
        or source[col - 2:col - 1].isidentifier())


def differs_on_purpose(text: str, ref, new) -> bool:
    """One of the three literals that the reference gets wrong, which
    `parse_spec` rejects as a syntax error, or a name error, which the
    reference reports without a place."""
    if name_error(ref) and name_error(new):
        return named_at_its_token(text, new[1])
    if not (isinstance(new, tuple) and new[0] is SpecSyntaxError):
        return False
    numbers = reference_numbers(text)
    if any(not (c.isdecimal() or c in ".eE+-") for n in numbers for c in n):
        return True  # a non-decimal digit, which int() does not read
    if isinstance(ref, tuple) and ref[0] is ValueError:
        return "digits" in ref[1] and "more than" in new[1]
    return "beyond float range" in new[1] and any(
        ("." in n or "e" in n or "E" in n) and math.isinf(float(n))
        for n in numbers)


def same_as_reference(text: str):
    """parse_spec's outcome, after checking it against the reference's."""
    ref = outcome(reference_parser.parse_spec, text)
    new = outcome(parse_spec, text)
    if new != ref:
        assert differs_on_purpose(text, ref, new), (text, ref, new)
    return new


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_the_bundled_and_golden_specs_parse_like_the_reference(name):
    spec = same_as_reference(TEXTS[name])
    assert isinstance(spec, Specification)


@given(SEEDS, st.sampled_from(gen_specs.MODES), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_generated_specs_and_their_edits_parse_like_the_reference(
        seed, mode, annotate, off_grid):
    rng = Random(seed)
    text = gen_specs.gen_spec(rng, mode, annotate=annotate, off_grid=off_grid)
    assert isinstance(same_as_reference(text), Specification)
    for _ in range(10):
        same_as_reference(edit(rng, text))


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_edited_specs_parse_like_the_reference(name):
    outcomes = [same_as_reference(text) for text in edited(name)]
    parsed = sum(isinstance(o, Specification) for o in outcomes)
    # the edits reach both sides of the parser
    assert 0 < parsed < len(outcomes)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_edited_specs_that_parse_round_trip(name):
    for text in edited(name):
        try:
            spec = parse_spec(text)
        except SpecError:
            continue
        assert parse_spec(format_spec(spec)) == spec, text


@pytest.mark.parametrize("expr", [
    "(a < b) == (a > b)", "(a < b) < a", "(g.0).1", "(1).0", "(-a).0",
    "-(1).0",
])
def test_nested_comparisons_and_projections_round_trip(expr):
    spec = parse_spec("input a : Float64\ninput b : Float64\n"
                      "input g : (Float64, Float64)\n"
                      f"output o |@a| := {expr}\n")
    assert parse_spec(format_spec(spec)) == spec


def _error(text: str) -> SpecSyntaxError:
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text, "lit.lola")
    return err.value


def test_a_number_takes_only_decimal_digits():
    err = _error("input a : Float64\noutput b := a + 2²\n")
    assert str(err) == "lit.lola:2:18: unexpected character '²'"
    assert "unexpected character '²'" in str(
        _error("input a : Float64\noutput b := ² + a\n"))
    # Unicode decimal digits read as int() reads them, and a letter
    # followed by ² stays one identifier
    spec = parse_spec("input x² : Float64\noutput b := x² + ٣ * ١٢.٥\n")
    expr = spec.outputs[0].clauses[0].expr
    assert expr.left == StreamRef("x²")
    assert expr.right.left == Const(3)
    assert expr.right.right == Const(12.5, is_float=True)


def test_an_integer_beyond_int_reading_is_a_syntax_error():
    digits = "9" * 5000
    err = _error(f"input a : Float64\noutput b := a +\n  {digits}\n")
    assert (err.line, err.col) == (3, 3)
    assert "integer literal has more than" in str(err)
    # an offset count of that length keeps its own message
    err = _error("input a : Float64\n"
                 f"output b := a.offset(by:-{digits}).defaults(to: 0.0)\n")
    assert str(err) == "lit.lola:2:26: offset must be a negative integer"
    # a float literal has no digit limit
    spec = parse_spec(f"input a : Float64\noutput b := a + {'0' * 5000}1.5\n")
    assert spec.outputs[0].clauses[0].expr.right == Const(1.5, is_float=True)


def test_a_float_beyond_float_range_is_a_syntax_error():
    err = _error("input a : Float64\noutput b := a + 1e400\n")
    assert str(err) == "lit.lola:2:17: float literal is beyond float range"
    # underflow reads as zero, as float() reads it
    spec = parse_spec("input a : Float64\noutput b := a + 1e-400\n")
    assert spec.outputs[0].clauses[0].expr.right == Const(0.0, is_float=True)
    # the largest finite float still parses, and prints back to itself
    spec = parse_spec("input a : Float64\noutput b := -1.7976931348623157e308"
                      " + a\n")
    assert spec.outputs[0].clauses[0].expr.left == Unary(
        "neg", Const(1.7976931348623157e308, is_float=True))
    assert parse_spec(format_spec(spec)) == spec


def _plain_analysis_matches(analyzed, mode) -> bool:
    """translate's plain analysis equals analyze of its plain spec, field by
    field and dict keys in order; False if the mode rejects the spec."""
    try:
        tr = translate(analyzed, mode)
    except SpecError:
        return False
    want = analyze(tr.spec)
    for field in dataclasses.fields(want):
        got, expected = getattr(tr.plain, field.name), getattr(want, field.name)
        assert got == expected, field.name
        if isinstance(expected, dict):
            assert list(got) == list(expected), field.name
    return True


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_the_plain_analysis_of_a_translation_is_analyze_of_its_spec(name):
    analyzed = analyze(parse_spec(TEXTS[name]))
    assert any([_plain_analysis_matches(analyzed, mode) for mode in MODES])


@given(SEEDS, st.sampled_from(gen_specs.MODES), st.booleans())
@settings(max_examples=60, deadline=None)
def test_the_plain_analysis_of_generated_translations(seed, mode, off_grid):
    rng = Random(seed)
    text = gen_specs.gen_spec(rng, mode, annotate=rng.random() < 0.8,
                              off_grid=off_grid)
    assert _plain_analysis_matches(analyze(parse_spec(text)), mode)
