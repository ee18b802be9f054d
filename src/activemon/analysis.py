"""Static analysis of parsed specifications.

Three passes run before anything can be scheduled or evaluated, each over
every expression once:

* pacing inference fills in the event pattern each eval clause reacts to
  and orders the outputs so that synchronous reads resolve,
* type checking assigns every stream a scalar or pair type,
* annotation extraction turns #[...] markers into guarded entries that the
  static schedule builder consumes.

One walk of each expression beforehand collects the streams it reads and
its offsets, which the passes share. `analyze` runs them over a whole
specification; `extend_analysis` runs them over the outputs that a
specification adds to one already analysed, as translation does.
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


def _collect(expr: Expr, names: set, offsets: dict) -> None:
    """Add to `names` the streams that `expr` reads at the current step, and
    to `offsets` the deepest offset it uses against each stream.

    Offset targets are not read at the current step (they read history),
    offset defaults are (they evaluate when history is missing).
    """
    stack = [expr]
    while stack:
        e = stack.pop()
        if type(e) is StreamRef:
            names.add(e.name)
        elif type(e) is OffsetAccess:
            if e.offset > offsets.get(e.stream, 0):
                offsets[e.stream] = e.offset
            stack.append(e.default)
        else:
            stack.extend(children(e))


def offset_refs(expr: Expr) -> dict[str, int]:
    """Map of stream name to the deepest offset used against it."""
    offsets: dict[str, int] = {}
    _collect(expr, set(), offsets)
    return offsets


def _clause_exprs(clause: EvalClause) -> list[Expr]:
    return [clause.expr] if clause.when is None else [clause.when, clause.expr]


def _read_outputs(outputs) -> tuple[dict, dict, dict]:
    """One walk of every expression of `outputs`.

    Returns, per output, the streams each clause reads at the current step
    in the order pacing inference visits them (each expression's, sorted,
    the when condition's first); per output, every stream its expressions
    read, now or through an offset, on which its type depends; and the
    deepest offset used against each stream.
    """
    visits: dict[str, list] = {}
    reads: dict[str, tuple] = {}
    offsets: dict[str, int] = {}
    for out in outputs:
        clause_visits = []
        read: set[str] = set()
        deepest: dict[str, int] = {}
        for clause in out.clauses:
            visit: list[str] = []
            for e in _clause_exprs(clause):
                names: set[str] = set()
                _collect(e, names, deepest)
                visit += sorted(names)
                read |= names
            clause_visits.append(visit)
        visits[out.name] = clause_visits
        read.update(deepest)
        reads[out.name] = tuple(read)
        _deepen(offsets, deepest)
    return visits, reads, offsets


def _deepen(offsets: dict[str, int], more: dict[str, int]) -> None:
    for name, depth in more.items():
        if depth > offsets.get(name, 0):
            offsets[name] = depth


# ---------------------------------------------------------------------------
# pacing inference


def _resolve_pacing(outputs, resolved: dict[str, Pacing],
                    visits: dict) -> tuple[tuple[OutputDecl, ...], tuple[str, ...]]:
    """Fill in every eval clause pacing and sort outputs for evaluation.

    A clause's requirement is the union of the resolved pacings of every
    stream it reads synchronously. Explicit pacings must cover their
    requirement; missing pacings are inferred as exactly the requirement.
    The order lists outputs so synchronous dependencies come first.
    `resolved` holds the pacing of every stream settled before, the inputs
    at least, and gains those of `outputs`; `visits` is `_read_outputs`'.
    """
    out_decls = {o.name: o for o in outputs}
    filled: dict[str, OutputDecl] = {}
    state: dict[str, int] = {}  # 1 visiting, 2 done
    stack: list[str] = []
    order: list[str] = []

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
        for idx, (clause, visit) in enumerate(zip(decl.clauses, visits[name])):
            req: set[str] = set()
            for dep in visit:
                req |= resolve(dep).inputs  # any-paced deps contribute nothing
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
        resolved[name] = new_clauses[0].pacing
        state[name] = 2
        stack.pop()
        order.append(name)
        return resolved[name]

    for out in outputs:
        resolve(out.name)
    return tuple(filled[o.name] for o in outputs), tuple(order)


# ---------------------------------------------------------------------------
# type checking


def _unify(a: Optional[Type], b: Optional[Type], ctx: str,
           arg: str) -> Optional[Type]:
    """The type that both `a` and `b` settle on. A mismatch names its
    context, `ctx` formatted with `arg` only then."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    if a == INTLIT and b in NUMERIC:
        return b
    if b == INTLIT and a in NUMERIC:
        return a
    raise TypeError_(f"type mismatch in {ctx.format(arg)}: {a} vs {b}")


def _finalize(ty: Optional[Type]) -> Optional[Type]:
    return INT64 if ty == INTLIT else ty


def _infer_types(known: dict[str, Type], outputs, triggers,
                 reads: dict) -> dict[str, Type]:
    """`known` and a type for every output; raise TypeError_ on any
    inconsistency in `outputs` or `triggers`.

    Integer literals unify with any numeric type and settle to Int64 when
    nothing constrains them. Output types may refer to themselves through
    offset accesses, so inference runs to a fixed point. An output's clauses
    are walked again only when a stream they read (`reads`, from
    `_read_outputs`) has changed its type since their last walk.
    """
    types: dict[str, Optional[Type]] = dict(known)
    for o in outputs:
        types[o.name] = None
    walked: dict[str, tuple] = {}  # output -> (types it read, clause types)
    unknown = False  # whether a walk of this pass read an unknown type

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
            return _unify(base, dflt, "offset access on '{}'", e.stream)
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
                merged = _unify(lt, rt, "comparison '{}'", e.op)
                if e.op in ("==", "!="):
                    if merged is not None and merged not in NUMERIC and merged != BOOL:
                        raise TypeError_(f"'{e.op}' cannot compare {merged} values")
                elif merged is not None and merged not in NUMERIC:
                    raise TypeError_(f"'{e.op}' needs numeric operands, got {merged}")
                return BOOL
            merged = _unify(lt, rt, "operator '{}'", e.op)
            if merged is not None and merged not in NUMERIC:
                raise TypeError_(f"'{e.op}' needs numeric operands, got {merged}")
            return merged
        if isinstance(e, MinMax):
            merged: Optional[Type] = None
            for a in e.args:
                merged = _unify(merged, expr_type(a, strict), "{}(...)",
                                e.op)
            if merged is not None and merged not in NUMERIC:
                raise TypeError_(f"{e.op} needs numeric arguments, got {merged}")
            return merged
        raise TypeError_(f"unsupported expression {e!r}")

    def output_type(decl: OutputDecl, strict: bool) -> Optional[Type]:
        # a walk is a function of the types it reads, and a strict walk
        # differs from a lenient one only where one of them is unknown
        nonlocal unknown
        seen = tuple(types[r] for r in reads[decl.name])
        blind = None in seen
        unknown = unknown or blind
        last = walked.get(decl.name)
        again = last is None or last[0] != seen or strict and blind
        merged = types[decl.name]
        clause_types = []
        for k, clause in enumerate(decl.clauses):
            ty = expr_type(clause.expr, strict) if again else last[1][k]
            clause_types.append(ty)
            merged = _unify(merged, ty, "clauses of '{}'", decl.name)
        walked[decl.name] = (seen, clause_types)
        return merged

    # fixed point over outputs that read one another before their types
    # are known, through offsets or ahead of their declaration; each pass
    # can only refine. A first pass that read only known types has reached
    # it.
    for rounds in range(len(outputs) + 1):
        changed = unknown = False
        for decl in outputs:
            ty = output_type(decl, strict=False)
            if ty != types[decl.name]:
                types[decl.name] = ty
                changed = True
        if not changed or rounds == 0 and not unknown:
            break

    # strict pass: everything must now be known and consistent
    final: dict[str, Type] = dict(known)
    for decl in outputs:
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
    for idx, trig in enumerate(triggers):
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
            ann = clause.annotation
            if ann is not None and not ann.is_empty():
                if clause.pacing is None:
                    raise ValueError("annotation map needs a pacing-filled spec")
                parts = [] if clause.when is None else [clause.when]
                parts.extend(negate(w) for w in reversed(chain))
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
    visits, reads, offsets = _read_outputs(spec.outputs)
    outputs, order = _resolve_pacing(
        spec.outputs, {i: Pacing.of([i]) for i in spec.input_names()}, visits)
    filled = replace(spec, outputs=outputs)
    types = _infer_types({i.name: i.type for i in spec.inputs}, outputs,
                         spec.triggers, reads)
    for trig in spec.triggers:
        _collect(trig.expr, set(), offsets)
    max_offset: dict[str, int] = {name: 0 for name in spec.stream_names()}
    max_offset.update(offsets)

    # a trigger on a bare stream is reported under that stream's name
    used: set[str] = set()
    trigger_names: list[str] = []
    for idx, trig in enumerate(spec.triggers):
        if isinstance(trig.expr, StreamRef):
            name = trig.expr.name
        else:
            name = f"trigger_{idx}"
        while name in used:
            name += "_"
        used.add(name)
        trigger_names.append(name)

    return AnalyzedSpec(filled, types, order, max_offset,
                        derive_annotation_map(filled), tuple(trigger_names))


def extend_analysis(analyzed: AnalyzedSpec, spec: Specification) -> AnalyzedSpec:
    """`analyze(spec)` for a spec that adds outputs to `analyzed.spec`.

    `spec` has the inputs, outputs and triggers of `analyzed.spec` in the
    same order, with the same types, pacings and expressions (annotations
    may differ), and then its new outputs. Only the new outputs are walked;
    what `analyzed` holds of the others is reused.
    """
    known = len(analyzed.spec.outputs)
    added = spec.outputs[known:]
    resolved = {i: Pacing.of([i]) for i in spec.input_names()}
    for out in analyzed.spec.outputs:
        resolved[out.name] = out.clauses[0].pacing
    visits, reads, offsets = _read_outputs(added)
    outputs, order = _resolve_pacing(added, resolved, visits)
    filled = replace(spec, outputs=spec.outputs[:known] + outputs)
    types = _infer_types(analyzed.types, outputs, (), reads)
    max_offset = dict(analyzed.max_offset)
    max_offset.update((out.name, 0) for out in added)
    _deepen(max_offset, offsets)
    return AnalyzedSpec(filled, types, analyzed.eval_order + order, max_offset,
                        derive_annotation_map(filled), analyzed.trigger_names)


__all__ = [
    "AnalyzedSpec", "AnnEntry", "analyze", "derive_annotation_map",
    "extend_analysis", "offset_refs",
]
