"""AST for the monitoring specification language.

All nodes are frozen dataclasses, so parsed specifications can be shared
freely between analysis passes. `format_spec` renders a specification back
to source text; parsing that text again yields an equal AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class ScalarType:
    name: str  # Float64 | Int64 | UInt64 | Bool

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TupleType:
    elements: tuple["Type", ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


Type = Union[ScalarType, TupleType]

FLOAT64 = ScalarType("Float64")
INT64 = ScalarType("Int64")
UINT64 = ScalarType("UInt64")
BOOL = ScalarType("Bool")

# pseudo-type for integer literals before unification settles them
INTLIT = ScalarType("IntLit")

NUMERIC = (FLOAT64, INT64, UINT64, INTLIT)


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class Const:
    value: object  # float | int | bool
    is_float: bool = False


@dataclass(frozen=True)
class StreamRef:
    name: str


@dataclass(frozen=True)
class Now:
    pass


@dataclass(frozen=True)
class OffsetAccess:
    """s.offset(by:-k).defaults(to:d); k >= 1, default is a full expression."""

    stream: str
    offset: int  # positive magnitude, access is -offset
    default: "Expr"


@dataclass(frozen=True)
class Proj:
    """Tuple projection e.0 / e.1 (depth one)."""

    operand: "Expr"
    index: int


@dataclass(frozen=True)
class Unary:
    op: str  # neg | not | abs | sqrt
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / < <= > >= == != && ||
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class MinMax:
    op: str  # min | max
    args: tuple["Expr", ...]


Expr = Union[Const, StreamRef, Now, OffsetAccess, Proj, Unary, Binary, MinMax]

TRUE = Const(True)


# ---------------------------------------------------------------------------
# pacing and annotations


@dataclass(frozen=True)
class Pacing:
    """Conjunctive pacing over input streams, or the any-event pacing.

    `inputs` is empty exactly when `is_any` is true. The any-event form is
    produced by the translator for helper streams that must evaluate at
    every event; user specifications may also write |@any| explicitly.
    """

    inputs: frozenset[str] = frozenset()
    is_any: bool = False

    def __post_init__(self):
        if not self.is_any and not self.inputs:
            raise ValueError("conjunctive pacing needs at least one input")

    def satisfied_by(self, present: frozenset[str]) -> bool:
        return True if self.is_any else self.inputs <= present

    @staticmethod
    def any_event() -> "Pacing":
        return Pacing(frozenset(), True)

    @staticmethod
    def of(names) -> "Pacing":
        return Pacing(frozenset(names), False)


PRIORITY_LEVELS = {"high": 10, "medium": 5, "low": 1}


@dataclass(frozen=True)
class Annotation:
    """Scheduling annotation attached to an input or an eval clause.

    Exactly one of priority/deadline per source #[...] key; both keys on one
    declaration produce one Annotation with both fields set.
    """

    priority: Optional[int] = None
    deadline: Optional[Fraction] = None  # seconds

    def is_empty(self) -> bool:
        return self.priority is None and self.deadline is None


@dataclass(frozen=True)
class GlobalConfig:
    """#![frequency=...,bound=...,deadline=...] header."""

    event_frequency: Fraction = Fraction(1)  # events per second
    bandwidth: int = 1
    default_deadline: Optional[Fraction] = None

    def __post_init__(self):
        if self.event_frequency <= 0:
            raise ValueError("event frequency must be positive")
        if self.bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")

    @property
    def period(self) -> Fraction:
        return 1 / self.event_frequency


# ---------------------------------------------------------------------------
# declarations


@dataclass(frozen=True)
class InputDecl:
    name: str
    type: Type
    annotation: Optional[Annotation] = None


@dataclass(frozen=True)
class EvalClause:
    pacing: Optional[Pacing]  # None until inferred, unless written explicitly
    when: Optional[Expr]
    expr: Expr
    annotation: Optional[Annotation] = None


@dataclass(frozen=True)
class OutputDecl:
    name: str
    clauses: tuple[EvalClause, ...]


@dataclass(frozen=True)
class TriggerDecl:
    expr: Expr
    message: Optional[str] = None


@dataclass(frozen=True)
class Specification:
    config: Optional[GlobalConfig]
    imports: tuple[str, ...]
    inputs: tuple[InputDecl, ...]
    outputs: tuple[OutputDecl, ...]
    triggers: tuple[TriggerDecl, ...]

    def input_names(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.inputs)

    def output_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.outputs)

    def stream_names(self) -> tuple[str, ...]:
        return self.input_names() + self.output_names()

    def output_decl(self, name: str) -> OutputDecl:
        for o in self.outputs:
            if o.name == name:
                return o
        raise KeyError(name)


# ---------------------------------------------------------------------------
# expression helpers


def children(expr: Expr) -> tuple:
    """Direct subexpressions; an offset access's default is one, its
    target stream is not."""
    if isinstance(expr, OffsetAccess):
        return (expr.default,)
    if isinstance(expr, (Proj, Unary)):
        return (expr.operand,)
    if isinstance(expr, Binary):
        return (expr.left, expr.right)
    if isinstance(expr, MinMax):
        return expr.args
    return ()


def expr_depth(expr: Expr) -> int:
    """The height of an expression tree, found level by level, without
    recursion."""
    depth, level = 0, [expr]
    while level:
        depth += 1
        level = [c for e in level for c in children(e)]
    return depth


def conjoin(parts: list[Expr]) -> Expr:
    """Conjunction of parts, dropping literal-true and repeated conjuncts."""
    real: list[Expr] = []
    for p in parts:
        if p != TRUE and p not in real:
            real.append(p)
    if not real:
        return TRUE
    out = real[0]
    for p in real[1:]:
        out = Binary("&&", out, p)
    return out


_NEGATED_CMP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def negate(expr: Expr) -> Expr:
    """Logical negation, folding comparisons so printed conditions stay flat."""
    if isinstance(expr, Const) and isinstance(expr.value, bool):
        return Const(not expr.value)
    if isinstance(expr, Unary) and expr.op == "not":
        return expr.operand
    if isinstance(expr, Binary) and expr.op in _NEGATED_CMP:
        return Binary(_NEGATED_CMP[expr.op], expr.left, expr.right)
    return Unary("not", expr)


# ---------------------------------------------------------------------------
# pretty printer

# binding power of each binary operator, shared with the parser
BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5,
}
_UNARY_PREC = 6
_POSTFIX_PREC = 7


def format_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if expr.is_float:
            return repr(float(expr.value))
        return repr(int(expr.value))
    if isinstance(expr, StreamRef):
        return expr.name
    if isinstance(expr, Now):
        return "now"
    if isinstance(expr, OffsetAccess):
        return (f"{expr.stream}.offset(by:-{expr.offset})"
                f".defaults(to: {format_expr(expr.default)})")
    if isinstance(expr, Proj):
        base = format_expr(expr.operand, _POSTFIX_PREC)
        # an index after an integer or another index would scan as a number
        if isinstance(expr.operand, Proj) or (
                isinstance(expr.operand, Const) and type(expr.operand.value) is int):
            base = f"({base})"
        return f"{base}.{expr.index}"
    if isinstance(expr, Unary):
        if expr.op in ("abs", "sqrt"):
            return f"{expr.op}({format_expr(expr.operand)})"
        sym = "-" if expr.op == "neg" else "!"
        inner = format_expr(expr.operand, _UNARY_PREC)
        if _UNARY_PREC < parent_prec:
            return f"({sym}{inner})"
        return f"{sym}{inner}"
    if isinstance(expr, MinMax):
        return f"{expr.op}(" + ", ".join(format_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Binary):
        prec = BINARY_PREC[expr.op]
        # left-associative: the right child needs parens at equal
        # precedence, and so does a comparison's left child, since
        # comparisons do not chain
        left = format_expr(expr.left,
                           prec + 1 if prec == BINARY_PREC["<"] else prec)
        right = format_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node {expr!r}")


def format_pacing(pacing: Pacing, input_order: tuple[str, ...]) -> str:
    if pacing.is_any:
        return "|@any|"
    ordered = [n for n in input_order if n in pacing.inputs]
    # names not in declaration order (shouldn't happen) keep set order
    ordered += sorted(pacing.inputs - set(ordered))
    return "|@" + "&&".join(ordered) + "|"


def _format_quantity(value: Fraction, unit: str) -> str:
    """An integer, a round-tripping decimal or a ratio, then the unit."""
    if value.denominator == 1:
        return f"{value.numerator}{unit}"
    as_float = float(value)
    if Fraction(str(as_float)) == value:
        return f"{as_float}{unit}"
    return f"{value.numerator}/{value.denominator}{unit}"


def _format_annotation(ann: Annotation) -> str:
    parts = []
    if ann.priority is not None:
        parts.append(f'priority="{ann.priority}"')
    if ann.deadline is not None:
        parts.append(f'deadline="{_format_quantity(ann.deadline, "s")}"')
    return "#[" + ",".join(parts) + "]"


def format_spec(spec: Specification) -> str:
    """Render a specification as source text."""
    order = spec.input_names()
    lines: list[str] = []
    if spec.config is not None:
        cfg = spec.config
        parts = [f'frequency="{_format_quantity(cfg.event_frequency, "Hz")}"',
                 f'bound="{cfg.bandwidth}"']
        if cfg.default_deadline is not None:
            deadline = _format_quantity(cfg.default_deadline, "s")
            parts.append(f'deadline="{deadline}"')
        lines.append("#![" + ",".join(parts) + "]")
    for mod in spec.imports:
        lines.append(f"import {mod}")
    for inp in spec.inputs:
        if inp.annotation is not None and not inp.annotation.is_empty():
            lines.append(_format_annotation(inp.annotation))
        lines.append(f"input {inp.name} : {inp.type}")
    for out in spec.outputs:
        lines.append(f"output {out.name}")
        for clause in out.clauses:
            if clause.annotation is not None and not clause.annotation.is_empty():
                lines.append("    " + _format_annotation(clause.annotation))
            bits = ["eval"]
            if clause.pacing is not None:
                bits.append(format_pacing(clause.pacing, order))
            if clause.when is not None:
                bits.append("when " + format_expr(clause.when))
            bits.append("with " + format_expr(clause.expr))
            lines.append("    " + " ".join(bits))
    for trig in spec.triggers:
        line = "trigger " + format_expr(trig.expr)
        if trig.message is not None:
            line += f' "{trig.message}"'
        lines.append(line)
    return "\n".join(lines) + "\n"


__all__ = [
    "ScalarType", "TupleType", "Type", "FLOAT64", "INT64", "UINT64", "BOOL",
    "INTLIT", "NUMERIC",
    "Const", "StreamRef", "Now", "OffsetAccess", "Proj", "Unary", "Binary",
    "MinMax", "Expr", "TRUE",
    "Pacing", "Annotation", "GlobalConfig", "PRIORITY_LEVELS",
    "InputDecl", "EvalClause", "OutputDecl", "TriggerDecl", "Specification",
    "BINARY_PREC", "children", "conjoin", "expr_depth", "negate", "format_expr",
    "format_pacing", "format_spec",
]
