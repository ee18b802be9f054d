"""Scanner and parser for the specification language.

The surface grammar covers stream declarations with eval clauses, scheduling
annotations (#[...] on inputs and clauses, #![...] for the global header),
offset accesses with defaults, tuple types and projections, and triggers
with optional messages.

The scanner is one compiled regular expression, matched over the whole text
before parsing starts. Declarations and operands are parsed by recursive
descent, binary operators by one binding-power loop (Pratt, "Top Down
Operator Precedence", 1973) over the precedence table that the printer
shares: comparisons do not chain, and every other operator associates to
the left.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .ast import (
    BINARY_PREC, BOOL, FLOAT64, INT64, UINT64,
    Annotation, Binary, Const, EvalClause, GlobalConfig, InputDecl, MinMax,
    Now, OffsetAccess, OutputDecl, Pacing, Proj, Specification,
    StreamRef, TriggerDecl, TupleType, Unary, PRIORITY_LEVELS,
    expr_depth,
)
from .errors import DuplicateStream, SpecSyntaxError, UnknownStream

_SCALARS = {"Float64": FLOAT64, "Int64": INT64, "UInt64": UINT64, "Bool": BOOL}

_KEYWORDS = {
    "input", "output", "trigger", "eval", "when", "with", "import",
    "now", "true", "false", "any",
}
_BUILTIN_FUNCS = {"min", "max", "abs", "sqrt"}

# How deep an expression may nest. The parser recurses once for the
# expression and once more for each pair of parentheses, function argument
# list, offset default and prefix operator open around a token: at most
# MAX_NESTING. Every pass over the tree recurses once per level, leaves
# included (a chain of n binary operators is n + 1 deep): at most
# MAX_DEPTH. A deeper expression is a syntax error, not a RecursionError.
MAX_NESTING = 100
MAX_DEPTH = 500
_RESERVED = _KEYWORDS | _BUILTIN_FUNCS | {"offset", "by", "defaults", "to"}
_COMPARISON = BINARY_PREC["<"]
_TIGHTEST = max(BINARY_PREC.values())

# Blanks, then one alternative per token kind, tried in order. A NUMBER has
# only the decimal digits that int() and float() read, so a word that starts
# with another digit, such as ², starts no token; nor does a `bad`
# character: the quote of an unterminated string, or an unexpected one.
# Every position after the blanks matches one alternative, `end` the end of
# the text, so the blanks are never given back.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>//[^\n]*)"
    r"|(?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<IDENT>\w+)"
    r'|(?P<STRING>"[^"\n]*")'
    r"|(?P<PUNCT>#!\[|#\[|:=|\|@|&&|\|\||[=!<>]=|[()\[\],:.|!=<>+\-*/])"
    r"|(?P<end>\Z)|(?P<bad>.))")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # IDENT NUMBER STRING PUNCT EOF
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r})"


def _tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, comment = 1, 0, -1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        if kind == "comment":
            comment = m.start(kind)
            continue
        if kind == "end":
            break
        word = m.group(kind)
        col = m.start(kind) - line_start + 1
        if kind == "STRING":
            word = word[1:-1]
        elif kind == "bad" or kind == "IDENT" and not (
                word[0].isalpha() or word[0] == "_"):
            message = ("unterminated string" if word == '"'
                       else f"unexpected character {word[0]!r}")
            raise SpecSyntaxError(message, filename, line, col)
        tokens.append(Token(kind, word, line, col))
    # a text that ends in a comment ends where the comment starts
    end = comment if comment >= line_start else len(text)
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens


class Parser:
    def __init__(self, text: str, filename: str = "<spec>"):
        self.filename = filename
        self.tokens = _tokenize(text, filename)  # ends with the EOF token
        self.pos = 0
        self.nesting = 0  # expression levels open at the current token
        # name tokens in source order: each declared stream's, and each
        # stream name used, with whether a pacing uses it
        self.declared: list[Token] = []
        self.used: list[tuple[Token, bool]] = []

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def at_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "PUNCT" and tok.text == text

    def at_ident(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "IDENT" and tok.text == text

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {tok.text or tok.kind!r}", tok)
        return self.advance()

    def error(self, message: str, tok: Token | None = None) -> SpecSyntaxError:
        tok = tok or self.tokens[self.pos]
        return SpecSyntaxError(message, self.filename, tok.line, tok.col)

    # -- top level ---------------------------------------------------------

    def parse(self) -> Specification:
        config = None
        imports: list[str] = []
        inputs: list[InputDecl] = []
        outputs: list[OutputDecl] = []
        triggers: list[TriggerDecl] = []
        pending: Annotation | None = None

        if self.at_punct("#!["):
            config = self.parse_config()

        while not self.at("EOF"):
            if self.at_punct("#!["):
                raise self.error("global config must appear once, before declarations")
            if self.at_punct("#["):
                if pending is not None:
                    raise self.error("annotation not attached to a declaration")
                pending = self.parse_annotation()
                continue
            if self.at_ident("import"):
                if pending is not None:
                    raise self.error("annotations do not apply to imports")
                self.advance()
                imports.append(self.expect("IDENT").text)
                continue
            if self.at_ident("input"):
                for decl in self.parse_input(pending):
                    inputs.append(decl)
                pending = None
                continue
            if self.at_ident("output"):
                outputs.append(self.parse_output(pending))
                pending = None
                continue
            if self.at_ident("trigger"):
                if pending is not None:
                    raise self.error("annotations do not apply to triggers")
                self.advance()
                expr = self.parse_expr()
                message = None
                if self.at("STRING"):
                    message = self.advance().text
                triggers.append(TriggerDecl(expr, message))
                continue
            raise self.error(f"unexpected token {self.tokens[self.pos].text!r}")

        if pending is not None:
            raise self.error("annotation not attached to a declaration")
        if not inputs and not outputs and not triggers:
            raise self.error("empty specification")

        spec = Specification(config, tuple(imports), tuple(inputs),
                             tuple(outputs), tuple(triggers))
        self.check_names(spec)
        return spec

    def parse_config(self) -> GlobalConfig:
        self.expect("PUNCT", "#![")
        fields = self.parse_key_values()
        self.expect("PUNCT", "]")
        freq = Fraction(1)
        bound = 1
        default_deadline = None
        for key, (value, tok) in fields.items():
            if key == "frequency":
                freq = self.parse_frequency(value, tok)
            elif key == "bound":
                try:
                    bound = int(value)
                except ValueError:
                    raise self.error(f"invalid bound {value!r}", tok)
            elif key == "deadline":
                default_deadline = self.parse_seconds(value, tok)
            else:
                raise self.error(f"unknown config key {key!r}", tok)
        try:
            return GlobalConfig(freq, bound, default_deadline)
        except ValueError as exc:
            raise self.error(str(exc))

    def parse_key_values(self) -> dict[str, tuple[str, Token]]:
        fields: dict[str, tuple[str, Token]] = {}
        while True:
            key_tok = self.expect("IDENT")
            self.expect("PUNCT", "=")
            val_tok = self.expect("STRING")
            if key_tok.text in fields:
                raise self.error(f"duplicate key {key_tok.text!r}", key_tok)
            fields[key_tok.text] = (val_tok.text, key_tok)
            if self.at_punct(","):
                self.advance()
                continue
            return fields

    def parse_frequency(self, value: str, tok: Token) -> Fraction:
        body = value[:-2] if value.endswith("Hz") else value
        try:
            freq = Fraction(body)
        except (ValueError, ZeroDivisionError):
            raise self.error(f"invalid frequency {value!r}", tok)
        # a frequency that is not positive is GlobalConfig's to reject
        if freq > 0 and not (positive_finite(freq)
                             and positive_finite(1 / freq)):
            raise self.error(f"frequency {value!r} must be a positive finite "
                             "number with a finite period", tok)
        return freq

    def parse_seconds(self, value: str, tok: Token) -> Fraction:
        body = value[:-1] if value.endswith("s") else value
        try:
            sec = Fraction(body)
        except (ValueError, ZeroDivisionError):
            raise self.error(f"invalid duration {value!r}", tok)
        if sec <= 0:
            raise self.error(f"duration must be positive, got {value!r}", tok)
        # a duration finer than float resolution is kept, as it is exact;
        # one beyond float range has no float to compare or report with
        try:
            float(sec)
        except OverflowError:
            raise self.error(f"duration {value!r} is beyond float range",
                             tok) from None
        return sec

    def parse_annotation(self) -> Annotation:
        self.expect("PUNCT", "#[")
        fields = self.parse_key_values()
        self.expect("PUNCT", "]")
        priority = None
        deadline = None
        for key, (value, tok) in fields.items():
            if key == "priority":
                if value in PRIORITY_LEVELS:
                    priority = PRIORITY_LEVELS[value]
                else:
                    try:
                        priority = int(value)
                    except ValueError:
                        raise self.error(f"invalid priority {value!r}", tok)
                    if priority < 1:
                        raise self.error("priority must be a positive integer", tok)
            elif key == "deadline":
                deadline = self.parse_seconds(value, tok)
            else:
                raise self.error(f"unknown annotation key {key!r}", tok)
        return Annotation(priority, deadline)

    # -- declarations ------------------------------------------------------

    def parse_input(self, annotation: Annotation | None) -> list[InputDecl]:
        self.expect("IDENT", "input")
        names = [self.parse_stream_name()]
        while self.at_punct(","):
            self.advance()
            names.append(self.parse_stream_name())
        self.expect("PUNCT", ":")
        ty = self.parse_type()
        # a shared declaration line applies the annotation to every name
        return [InputDecl(name, ty, annotation) for name in names]

    def parse_stream_name(self) -> str:
        tok = self.expect("IDENT")
        if tok.text in _RESERVED:
            raise self.error(f"{tok.text!r} is reserved and cannot name a stream", tok)
        self.declared.append(tok)
        return tok.text

    def parse_type(self):
        if self.at_punct("("):
            self.advance()
            first = self.parse_type()
            self.expect("PUNCT", ",")
            second = self.parse_type()
            self.expect("PUNCT", ")")
            return TupleType((first, second))
        tok = self.expect("IDENT")
        if tok.text not in _SCALARS:
            raise self.error(f"unknown type {tok.text!r}", tok)
        return _SCALARS[tok.text]

    def parse_output(self, annotation: Annotation | None = None) -> OutputDecl:
        self.expect("IDENT", "output")
        name = self.parse_stream_name()

        pacing = None
        if self.at_punct("|@"):
            pacing = self.parse_pacing()
        if self.at_punct(":="):
            self.advance()
            expr = self.parse_expr()
            return OutputDecl(name, (EvalClause(pacing, None, expr, annotation),))
        if pacing is not None:
            raise self.error("expected ':=' after pacing in shorthand output")
        if annotation is not None:
            raise self.error("annotations on multi-clause outputs belong on eval clauses")

        clauses: list[EvalClause] = []
        while True:
            annotation = None
            if self.at_punct("#["):
                # only consume the annotation if an eval clause follows it
                mark = self.pos
                annotation = self.parse_annotation()
                if not self.at_ident("eval"):
                    self.pos = mark
                    break
            if not self.at_ident("eval"):
                break
            self.advance()
            clause_pacing = None
            if self.at_punct("|@"):
                clause_pacing = self.parse_pacing()
            when = None
            if self.at_ident("when"):
                self.advance()
                when = self.parse_expr()
            self.expect("IDENT", "with")
            expr = self.parse_expr()
            clauses.append(EvalClause(clause_pacing, when, expr, annotation))
        if not clauses:
            raise self.error(f"output '{name}' has no eval clause")
        return OutputDecl(name, tuple(clauses))

    def parse_pacing(self) -> Pacing:
        self.expect("PUNCT", "|@")
        if self.at_ident("any"):
            self.advance()
            self.expect("PUNCT", "|")
            return Pacing.any_event()
        names = [self.pacing_name()]
        while True:
            if self.at_punct("&&"):
                self.advance()
                names.append(self.pacing_name())
                continue
            if self.at_punct("||"):
                raise self.error("disjunctive pacing is not supported; use |@any| or a conjunction")
            break
        self.expect("PUNCT", "|")
        return Pacing.of(names)

    def pacing_name(self) -> str:
        tok = self.expect("IDENT")
        self.used.append((tok, True))
        return tok.text

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        start = self.pos
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise self._too_deep(start)
        expr = self.parse_binary(1)
        self.nesting -= 1
        # each level of the tree takes a token of its own, so only an
        # expression of more tokens than levels allowed can be too deep
        if (not self.nesting and self.pos - start > MAX_DEPTH
                and expr_depth(expr) > MAX_DEPTH):
            raise self.error(f"expression tree is more than {MAX_DEPTH} "
                             "levels deep", self.tokens[start])
        return expr

    def _too_deep(self, pos: int) -> SpecSyntaxError:
        return self.error(f"expression nests more than {MAX_NESTING} "
                          "levels deep", self.tokens[pos])

    def parse_binary(self, min_prec: int):
        """Operands joined by operators of precedence `min_prec` or higher.

        An operator's right operand takes every operator that binds more
        tightly. After an operator, the loop takes only operators of its
        precedence or lower, and after a comparison only lower ones, so that
        a second comparison is left for the caller to reject.
        """
        left = self.parse_unary()
        tokens = self.tokens
        limit = _TIGHTEST
        while True:
            tok = tokens[self.pos]
            prec = BINARY_PREC.get(tok.text, 0) if tok.kind == "PUNCT" else 0
            if prec < min_prec or prec > limit:
                return left
            self.pos += 1
            left = Binary(tok.text, left, self.parse_binary(prec + 1))
            limit = prec - 1 if prec == _COMPARISON else prec

    def parse_unary(self):
        """Prefix operators, then an atom with its postfix projections and
        offset accesses."""
        tok = self.tokens[self.pos]
        if tok.kind == "PUNCT" and (tok.text == "-" or tok.text == "!"):
            start = self.pos
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                raise self._too_deep(start)
            self.pos += 1
            expr = Unary("neg" if tok.text == "-" else "not", self.parse_unary())
            self.nesting -= 1
            return expr
        expr = self.parse_atom()
        while self.at_punct("."):
            dot = self.advance()
            if self.at("NUMBER"):
                tok = self.advance()
                if tok.text not in ("0", "1"):
                    raise self.error("tuple projection index must be 0 or 1", tok)
                expr = Proj(expr, int(tok.text))
                continue
            if self.at_ident("offset"):
                expr = self.parse_offset(expr, dot)
                continue
            raise self.error("expected projection index or 'offset' after '.'")
        return expr

    def parse_offset(self, target, dot: Token):
        if not isinstance(target, StreamRef):
            raise self.error("offset access applies directly to a stream", dot)
        self.expect("IDENT", "offset")
        self.expect("PUNCT", "(")
        self.expect("IDENT", "by")
        self.expect("PUNCT", ":")
        self.expect("PUNCT", "-")
        count_tok = self.expect("NUMBER")
        try:
            count = int(count_tok.text)
        except ValueError:
            raise self.error("offset must be a negative integer", count_tok)
        if count < 1:
            raise self.error("offset must be at least 1 step back", count_tok)
        self.expect("PUNCT", ")")
        self.expect("PUNCT", ".")
        self.expect("IDENT", "defaults")
        self.expect("PUNCT", "(")
        self.expect("IDENT", "to")
        self.expect("PUNCT", ":")
        default = self.parse_expr()
        self.expect("PUNCT", ")")
        return OffsetAccess(target.name, count, default)

    def parse_atom(self):
        tok = self.tokens[self.pos]
        if tok.kind == "NUMBER":
            self.pos += 1
            text = tok.text
            if "." in text or "e" in text or "E" in text:
                value = float(text)
                if value == math.inf:
                    raise self.error("float literal is beyond float range", tok)
                return Const(value, is_float=True)
            try:
                return Const(int(text))
            except ValueError:  # more digits than int() reads
                raise self.error("integer literal has more than "
                                 f"{sys.get_int_max_str_digits()} digits",
                                 tok) from None
        if tok.kind == "IDENT":
            if tok.text == "true":
                self.advance()
                return Const(True)
            if tok.text == "false":
                self.advance()
                return Const(False)
            if tok.text == "now":
                self.advance()
                return Now()
            if tok.text in _BUILTIN_FUNCS:
                self.advance()
                self.expect("PUNCT", "(")
                args = [self.parse_expr()]
                while self.at_punct(","):
                    self.advance()
                    args.append(self.parse_expr())
                self.expect("PUNCT", ")")
                if tok.text in ("abs", "sqrt"):
                    if len(args) != 1:
                        raise self.error(f"{tok.text} takes exactly one argument", tok)
                    return Unary(tok.text, args[0])
                return MinMax(tok.text, tuple(args))
            if tok.text in _KEYWORDS:
                raise self.error(f"unexpected keyword {tok.text!r}", tok)
            self.advance()
            if self.at_punct("("):
                raise self.error(f"unknown function {tok.text!r}", tok)
            self.used.append((tok, False))
            return StreamRef(tok.text)
        if tok.kind == "PUNCT" and tok.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect("PUNCT", ")")
            return expr
        raise self.error(f"expected expression, found {tok.text or tok.kind!r}")

    # -- name checks -------------------------------------------------------

    def check_names(self, spec: Specification) -> None:
        """Each stream is declared once, each name used is declared, and a
        pacing names inputs only. The first repeated declaration in source
        order is reported, else the first name used against a rule, each at
        its token."""
        declared: set[str] = set()
        for tok in self.declared:
            if tok.text in declared:
                raise DuplicateStream(tok.text, self.filename, tok.line, tok.col)
            declared.add(tok.text)
        inputs = set(spec.input_names())
        for tok, paces in self.used:
            if tok.text not in declared:
                raise UnknownStream(tok.text, self.filename, tok.line, tok.col)
            if paces and tok.text not in inputs:
                raise self.error(
                    f"pacing may only name input streams, not '{tok.text}'", tok)


def positive_finite(value) -> bool:
    """Whether `value`, an int, float or Fraction, has a positive finite
    float; a value beyond float range has none."""
    try:
        return 0 < float(value) < math.inf
    except OverflowError:
        return False


def parse_spec(text: str, filename: str = "<spec>") -> Specification:
    """Parse specification source text into an AST."""
    return Parser(text, filename).parse()


__all__ = ["parse_spec", "Parser", "positive_finite"]
