"""Scanner and recursive-descent parser for the specification language.

The surface grammar covers stream declarations with eval clauses, scheduling
annotations (#[...] on inputs and clauses, #![...] for the global header),
offset accesses with defaults, tuple types and projections, and triggers
with optional messages.
"""

from __future__ import annotations

from fractions import Fraction

from .ast import (
    BOOL, FLOAT64, INT64, UINT64,
    Annotation, Binary, Const, EvalClause, GlobalConfig, InputDecl, MinMax,
    Now, OffsetAccess, OutputDecl, Pacing, Proj, Specification,
    StreamRef, TriggerDecl, TupleType, Unary, PRIORITY_LEVELS, children,
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

_PUNCT = [
    "#![", "#[", ":=", "|@", "&&", "||", "==", "!=", "<=", ">=",
    "(", ")", "[", "]", ",", ":", ".", "|", "!", "=", "<", ">",
    "+", "-", "*", "/",
]


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
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise SpecSyntaxError("unterminated string", filename, line, col)
                j += 1
            if j >= n:
                raise SpecSyntaxError("unterminated string", filename, line, col)
            tokens.append(Token("STRING", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("PUNCT", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise SpecSyntaxError(f"unexpected character {c!r}", filename, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class Parser:
    def __init__(self, text: str, filename: str = "<spec>"):
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0
        self.nesting = 0  # expression levels open at the current token

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def at_punct(self, text: str) -> bool:
        return self.at("PUNCT", text)

    def at_ident(self, text: str) -> bool:
        return self.at("IDENT", text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {tok.text or tok.kind!r}", tok)
        return self.advance()

    def error(self, message: str, tok: Token | None = None) -> SpecSyntaxError:
        tok = tok or self.peek()
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
            raise self.error(f"unexpected token {self.peek().text!r}")

        if pending is not None:
            raise self.error("annotation not attached to a declaration")
        if not inputs and not outputs and not triggers:
            tok = self.peek()
            raise SpecSyntaxError("empty specification", self.filename, tok.line, tok.col)

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
        return freq

    def parse_seconds(self, value: str, tok: Token) -> Fraction:
        body = value[:-1] if value.endswith("s") else value
        try:
            sec = Fraction(body)
        except (ValueError, ZeroDivisionError):
            raise self.error(f"invalid duration {value!r}", tok)
        if sec <= 0:
            raise self.error(f"duration must be positive, got {value!r}", tok)
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
        names = [self.expect("IDENT").text]
        while True:
            if self.at_punct("&&"):
                self.advance()
                names.append(self.expect("IDENT").text)
                continue
            if self.at_punct("||"):
                raise self.error("disjunctive pacing is not supported; use |@any| or a conjunction")
            break
        self.expect("PUNCT", "|")
        return Pacing.of(names)

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        start = self.pos
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise self._too_deep(start)
        expr = self.parse_or()
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

    def parse_or(self):
        left = self.parse_and()
        while self.at_punct("||"):
            self.advance()
            left = Binary("||", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_cmp()
        while self.at_punct("&&"):
            self.advance()
            left = Binary("&&", left, self.parse_cmp())
        return left

    def parse_cmp(self):
        left = self.parse_add()
        for op in ("<=", ">=", "==", "!=", "<", ">"):
            if self.at_punct(op):
                self.advance()
                return Binary(op, left, self.parse_add())
        return left

    def parse_add(self):
        left = self.parse_mul()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().text
            left = Binary(op, left, self.parse_mul())
        return left

    def parse_mul(self):
        left = self.parse_unary()
        while self.at_punct("*") or self.at_punct("/"):
            op = self.advance().text
            left = Binary(op, left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.at_punct("-") or self.at_punct("!"):
            start = self.pos
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                raise self._too_deep(start)
            op = "neg" if self.advance().text == "-" else "not"
            expr = Unary(op, self.parse_unary())
            self.nesting -= 1
            return expr
        return self.parse_postfix()

    def parse_postfix(self):
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
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                return Const(float(tok.text), is_float=True)
            return Const(int(tok.text))
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
            return StreamRef(tok.text)
        if tok.kind == "PUNCT" and tok.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect("PUNCT", ")")
            return expr
        raise self.error(f"expected expression, found {tok.text or tok.kind!r}")

    # -- name checks -------------------------------------------------------

    def check_names(self, spec: Specification) -> None:
        seen: set[str] = set()
        for name in spec.stream_names():
            if name in seen:
                raise DuplicateStream(name)
            seen.add(name)
        inputs = set(spec.input_names())

        def check_expr(expr) -> None:
            if isinstance(expr, StreamRef) and expr.name not in seen:
                raise UnknownStream(expr.name)
            if isinstance(expr, OffsetAccess) and expr.stream not in seen:
                raise UnknownStream(expr.stream)
            for child in children(expr):
                check_expr(child)

        def check_pacing(pacing: Pacing | None) -> None:
            if pacing is None or pacing.is_any:
                return
            for name in pacing.inputs:
                if name not in seen:
                    raise UnknownStream(name)
                if name not in inputs:
                    raise SpecSyntaxError(
                        f"pacing may only name input streams, not '{name}'",
                        self.filename, 0, 0)

        for out in spec.outputs:
            for clause in out.clauses:
                check_pacing(clause.pacing)
                if clause.when is not None:
                    check_expr(clause.when)
                check_expr(clause.expr)
        for trig in spec.triggers:
            check_expr(trig.expr)


def parse_spec(text: str, filename: str = "<spec>") -> Specification:
    """Parse specification source text into an AST."""
    return Parser(text, filename).parse()


__all__ = ["parse_spec", "Parser"]
