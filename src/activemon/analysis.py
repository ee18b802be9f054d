"""Static analysis passes over parsed specifications.

Three passes run before anything can be scheduled or evaluated:

* pacing inference fills in the event pattern each eval clause reacts to,
* type checking assigns every stream a scalar or pair type,
* annotation extraction turns #[...] markers into guarded entries that the
  static schedule builder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .ast import (
    BOOL, FLOAT64, INT64, INTLIT, NUMERIC, TRUE, UINT64,
    Binary, Const, EvalClause, Expr, GlobalConfig, MinMax, Now,
    OffsetAccess, OutputDecl, Pacing, Proj, Specification, StreamRef,
    TupleType, Type, Unary, children, conjoin, negate,
)
from .errors import (
    CyclicDependency, EmptyPacing, PacingConflict, TypeError_,
)


# ---------------------------------------------------------------------------
# expression walks


def _nodes(expr: Expr):
    """Every node of the expression, in preorder."""
    yield expr
    for child in children(expr):
        yield from _nodes(child)


def sync_refs(expr: Expr) -> set[str]:
    """Streams read at the current step.

    Offset targets are excluded (they read history), offset defaults are
    included (they evaluate at the current step when history is missing).
    """
    return {e.name for e in _nodes(expr) if isinstance(e, StreamRef)}


def offset_refs(expr: Expr) -> dict[str, int]:
    """Map of stream name to the deepest offset used against it."""
    acc: dict[str, int] = {}
    for e in _nodes(expr):
        if isinstance(e, OffsetAccess):
            acc[e.stream] = max(acc.get(e.stream, 0), e.offset)
    return acc


def _clause_exprs(clause: EvalClause) -> list[Expr]:
    return [clause.expr] if clause.when is None else [clause.when, clause.expr]


# ---------------------------------------------------------------------------
# pacing inference


def _union_pacing(parts: list[Pacing]) -> Pacing:
    names: set[str] = set()
    for p in parts:
        if not p.is_any:
            names |= p.inputs
    return Pacing.of(names) if names else Pacing.any_event()


def _resolve_pacing(spec: Specification) -> tuple[Specification, tuple[str, ...]]:
    """Fill in every eval clause pacing and sort outputs for evaluation.

    A clause's requirement is the union of the resolved pacings of every
    stream it reads synchronously. Explicit pacings must cover their
    requirement; missing pacings are inferred as exactly the requirement.
    The order lists outputs so synchronous dependencies come first.
    """
    inputs = set(spec.input_names())
    out_decls = {o.name: o for o in spec.outputs}
    resolved: dict[str, Pacing] = {i: Pacing.of([i]) for i in inputs}
    filled: dict[str, OutputDecl] = {}
    state: dict[str, int] = {}  # 1 visiting, 2 done
    stack: list[str] = []
    order: list[str] = []

    def requirement(name: str, exprs: list[Expr]) -> set[str]:
        req: set[str] = set()
        for e in exprs:
            for dep in sorted(sync_refs(e)):
                req |= resolve(dep).inputs  # any-paced deps contribute nothing
        return req

    def resolve(name: str) -> Pacing:
        if name in resolved:
            return resolved[name]
        if state.get(name) == 1:
            cycle = stack[stack.index(name):] + [name]
            raise CyclicDependency(cycle)
        state[name] = 1
        stack.append(name)
        decl = out_decls[name]
        new_clauses: list[EvalClause] = []
        for idx, clause in enumerate(decl.clauses):
            req = requirement(name, _clause_exprs(clause))
            if clause.pacing is None:
                if not req:
                    raise EmptyPacing(
                        f"cannot infer pacing for '{name}' clause {idx}: "
                        f"no synchronous stream access; write an explicit pacing")
                new_clauses.append(replace(clause, pacing=Pacing.of(req)))
            elif clause.pacing.is_any:
                if req:
                    raise PacingConflict(
                        f"'{name}' clause {idx} is paced |@any| but synchronously "
                        f"reads streams paced by {sorted(req)}")
                new_clauses.append(clause)
            else:
                missing = req - clause.pacing.inputs
                if missing:
                    raise PacingConflict(
                        f"'{name}' clause {idx} pacing omits required inputs "
                        f"{sorted(missing)}")
                new_clauses.append(clause)
        # every clause of one output must settle on one pacing
        if len({c.pacing for c in new_clauses}) > 1:
            raise PacingConflict(
                f"'{name}' clauses resolve to different pacings; "
                "split the output or align the clause pacings")
        filled[name] = OutputDecl(name, tuple(new_clauses))
        resolved[name] = _union_pacing([c.pacing for c in new_clauses])
        state[name] = 2
        stack.pop()
        order.append(name)
        return resolved[name]

    for out in spec.outputs:
        resolve(out.name)

    new_spec = replace(spec, outputs=tuple(filled[o.name] for o in spec.outputs))
    return new_spec, tuple(order)


# ---------------------------------------------------------------------------
# type checking


def _unify(a: Optional[Type], b: Optional[Type], ctx: str) -> Optional[Type]:
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if a == INTLIT and b in NUMERIC:
        return b
    if b == INTLIT and a in NUMERIC:
        return a
    raise TypeError_(f"type mismatch in {ctx}: {a} vs {b}")


def _finalize(ty: Optional[Type]) -> Optional[Type]:
    return INT64 if ty == INTLIT else ty


def type_check(spec: Specification) -> dict[str, Type]:
    """Infer a type for every stream; raise TypeError_ on any inconsistency.

    Integer literals unify with any numeric type and settle to Int64 when
    nothing constrains them. Output types may refer to themselves through
    offset accesses, so inference runs to a fixed point.
    """
    types: dict[str, Optional[Type]] = {i.name: i.type for i in spec.inputs}
    for o in spec.outputs:
        types[o.name] = None

    def expr_type(e: Expr, strict: bool) -> Optional[Type]:
        if isinstance(e, Const):
            if isinstance(e.value, bool):
                return BOOL
            return FLOAT64 if e.is_float else INTLIT
        if isinstance(e, Now):
            return FLOAT64
        if isinstance(e, StreamRef):
            ty = types[e.name]
            if ty is None and strict:
                raise TypeError_(f"cannot infer a type for stream '{e.name}'")
            return ty
        if isinstance(e, OffsetAccess):
            base = types[e.stream]
            if base is None and strict:
                raise TypeError_(f"cannot infer a type for stream '{e.stream}'")
            dflt = expr_type(e.default, strict)
            return _unify(base, dflt, f"offset access on '{e.stream}'")
        if isinstance(e, Proj):
            ty = expr_type(e.operand, strict)
            if ty is None:
                return None
            if not isinstance(ty, TupleType):
                raise TypeError_(f"projection .{e.index} applied to non-tuple {ty}")
            if e.index >= len(ty.elements):
                raise TypeError_(f"projection .{e.index} out of range for {ty}")
            return ty.elements[e.index]
        if isinstance(e, Unary):
            ty = expr_type(e.operand, strict)
            if e.op == "not":
                if ty not in (BOOL, None):
                    raise TypeError_(f"'!' needs Bool, got {ty}")
                return BOOL
            if ty is None:
                return FLOAT64 if e.op == "sqrt" else None
            if ty not in NUMERIC:
                raise TypeError_(f"'{e.op}' needs a numeric operand, got {ty}")
            if e.op == "neg" and ty == UINT64:
                raise TypeError_("cannot negate a UInt64 value")
            return FLOAT64 if e.op == "sqrt" else ty
        if isinstance(e, Binary):
            lt = expr_type(e.left, strict)
            rt = expr_type(e.right, strict)
            if e.op in ("&&", "||"):
                for side in (lt, rt):
                    if side not in (BOOL, None):
                        raise TypeError_(f"'{e.op}' needs Bool operands, got {side}")
                return BOOL
            if e.op in ("<", "<=", ">", ">=", "==", "!="):
                merged = _unify(lt, rt, f"comparison '{e.op}'")
                if e.op in ("==", "!="):
                    if merged is not None and merged not in NUMERIC and merged != BOOL:
                        raise TypeError_(f"'{e.op}' cannot compare {merged} values")
                elif merged is not None and merged not in NUMERIC:
                    raise TypeError_(f"'{e.op}' needs numeric operands, got {merged}")
                return BOOL
            merged = _unify(lt, rt, f"operator '{e.op}'")
            if merged is not None and merged not in NUMERIC:
                raise TypeError_(f"'{e.op}' needs numeric operands, got {merged}")
            return merged
        if isinstance(e, MinMax):
            merged: Optional[Type] = None
            for a in e.args:
                merged = _unify(merged, expr_type(a, strict), f"{e.op}(...)")
            if merged is not None and merged not in NUMERIC:
                raise TypeError_(f"{e.op} needs numeric arguments, got {merged}")
            return merged
        raise TypeError_(f"unsupported expression {e!r}")

    def output_type(decl: OutputDecl, strict: bool) -> Optional[Type]:
        merged = types[decl.name]
        for clause in decl.clauses:
            merged = _unify(merged, expr_type(clause.expr, strict),
                            f"clauses of '{decl.name}'")
        return merged

    # fixed point over self-referential outputs; each pass can only refine
    for _ in range(len(spec.outputs) + 1):
        changed = False
        for decl in spec.outputs:
            ty = output_type(decl, strict=False)
            if ty != types[decl.name]:
                types[decl.name] = ty
                changed = True
        if not changed:
            break

    # strict pass: everything must now be known and consistent
    final: dict[str, Type] = {}
    for i in spec.inputs:
        final[i.name] = i.type
    for decl in spec.outputs:
        ty = _finalize(output_type(decl, strict=True))
        if ty is None:
            raise TypeError_(f"cannot infer a type for stream '{decl.name}'")
        final[decl.name] = ty
        types[decl.name] = ty
        for clause in decl.clauses:
            if clause.when is not None:
                wt = expr_type(clause.when, strict=True)
                if wt != BOOL:
                    raise TypeError_(
                        f"when condition of '{decl.name}' must be Bool, got {wt}")
    for idx, trig in enumerate(spec.triggers):
        tt = expr_type(trig.expr, strict=True)
        if tt != BOOL:
            raise TypeError_(f"trigger {idx} condition must be Bool, got {tt}")
    return final


# ---------------------------------------------------------------------------
# annotation entries


@dataclass(frozen=True)
class AnnEntry:
    """One guarded scheduling entry extracted from an annotation.

    For an annotated input the guard is literally true. For an annotated
    eval clause the guard is that clause's when condition conjoined with the
    negations of every earlier when in the same output, so the guards of one
    stream are mutually exclusive by construction.
    """

    pacing: Pacing
    condition: Expr
    priority: Optional[int]
    deadline: Optional[Fraction]
    source: str
    clause_index: int  # -1 for input annotations


def derive_annotation_map(spec: Specification) -> dict[str, tuple[AnnEntry, ...]]:
    """Collect the chained annotation entries per annotated stream.

    The specification must already be pacing-filled. Unannotated clauses
    produce no entries but their when conditions still join the negation
    chain of later entries.
    """
    entries: dict[str, tuple[AnnEntry, ...]] = {}
    for decl in spec.inputs:
        ann = decl.annotation
        if ann is not None and not ann.is_empty():
            entries[decl.name] = (AnnEntry(
                Pacing.of([decl.name]), TRUE, ann.priority, ann.deadline,
                decl.name, -1),)
    for out in spec.outputs:
        chain: list[Expr] = []
        collected: list[AnnEntry] = []
        for idx, clause in enumerate(out.clauses):
            parts = [] if clause.when is None else [clause.when]
            parts.extend(negate(w) for w in reversed(chain))
            ann = clause.annotation
            if ann is not None and not ann.is_empty():
                if clause.pacing is None:
                    raise ValueError("annotation map needs a pacing-filled spec")
                collected.append(AnnEntry(
                    clause.pacing, conjoin(parts), ann.priority, ann.deadline,
                    out.name, idx))
            chain.append(TRUE if clause.when is None else clause.when)
        if collected:
            entries[out.name] = tuple(collected)
    return entries


# ---------------------------------------------------------------------------
# the combined result


@dataclass(frozen=True)
class AnalyzedSpec:
    """A specification with every static analysis result attached.

    `spec` is the pacing-filled form; `types` covers every stream;
    `eval_order` sorts outputs so synchronous reads resolve; `max_offset`
    bounds how much history the engine keeps per stream; `trigger_names`
    gives each trigger a stable stream-like name for reports.
    """

    spec: Specification
    types: dict[str, Type]
    eval_order: tuple[str, ...]
    max_offset: dict[str, int]
    annotations: dict[str, tuple[AnnEntry, ...]]
    trigger_names: tuple[str, ...]

    @property
    def config(self) -> GlobalConfig:
        return self.spec.config if self.spec.config is not None else GlobalConfig()

    @cached_property
    def compiled(self):
        """The engine's compiled form, built on first use and then shared."""
        from .engine import compile_spec  # the engine imports this module

        return compile_spec(self)


def analyze(spec: Specification) -> AnalyzedSpec:
    """Run every static pass; raise the first error encountered."""
    filled, order = _resolve_pacing(spec)
    types = type_check(filled)
    max_offset: dict[str, int] = {name: 0 for name in filled.stream_names()}
    for out in filled.outputs:
        for clause in out.clauses:
            for e in _clause_exprs(clause):
                for name, depth in offset_refs(e).items():
                    max_offset[name] = max(max_offset[name], depth)
    for trig in filled.triggers:
        for name, depth in offset_refs(trig.expr).items():
            max_offset[name] = max(max_offset[name], depth)

    # a trigger on a bare stream is reported under that stream's name
    used: set[str] = set()
    trigger_names: list[str] = []
    for idx, trig in enumerate(filled.triggers):
        if isinstance(trig.expr, StreamRef):
            name = trig.expr.name
        else:
            name = f"trigger_{idx}"
        while name in used:
            name += "_"
        used.add(name)
        trigger_names.append(name)

    annotations = derive_annotation_map(filled)
    return AnalyzedSpec(filled, types, order, max_offset, annotations,
                        tuple(trigger_names))


__all__ = [
    "AnalyzedSpec", "AnnEntry", "analyze", "derive_annotation_map",
    "offset_refs", "sync_refs", "type_check",
]
