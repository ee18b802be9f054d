"""Tree-walking expression evaluator and model reader, kept as test-only
references.

The engine compiles expressions into closures once per specification and
shares them between the monitor, `verify_model` and the `DecisionOracle`,
so a compiler bug would pass the engine's own membership oracle. This
module is the direct recursive reading of the semantics that the
differential tests compare the compiled form against.

`engine.replay` serves offsets from the monitor's bounded history as it
walks a model forward. `ModelReader` is the random-access reading it is
tested against: per-stream indexes of present steps over the whole model.
`present_inputs` and `triggers_from_model` read a finished model for the
tests; the latter walks `replay` with the compiled trigger conditions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable

from activemon.ast import (
    Binary, Const, Expr, MinMax, Now, OffsetAccess, OutputDecl, Proj,
    StreamRef, Unary,
)
from activemon.engine import (ABSENT, EvaluationModel, TriggerReport, replay,
                              values_equal)

_NAN = float("nan")


def _is_nan(v) -> bool:
    return isinstance(v, float) and v != v


def _int_div(a: int, b: int) -> int:
    # truncate toward zero, matching 64-bit integer semantics
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def eval_expr(expr: Expr, read: Callable, offset_read: Callable, now: float):
    """Evaluate an expression to a value or ABSENT.

    `read(name)` gives the current-step value of a stream; `offset_read(name,
    k)` gives the k-th previous non-absent value or None when history is too
    short. Division by zero and sqrt of negatives yield NaN so evaluation is
    total over numeric inputs.
    """

    def ev(e: Expr):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Now):
            return now
        if isinstance(e, StreamRef):
            return read(e.name)
        if isinstance(e, OffsetAccess):
            past = offset_read(e.stream, e.offset)
            return ev(e.default) if past is None else past
        if isinstance(e, Proj):
            v = ev(e.operand)
            return v if v is ABSENT else v[e.index]
        if isinstance(e, Unary):
            v = ev(e.operand)
            if v is ABSENT:
                return ABSENT
            if e.op == "neg":
                return -v
            if e.op == "not":
                return not v
            if e.op == "abs":
                return abs(v)
            # sqrt
            if _is_nan(v) or v < 0:
                return _NAN
            return math.sqrt(v)
        if isinstance(e, Binary):
            lv = ev(e.left)
            if lv is ABSENT:
                return ABSENT
            rv = ev(e.right)
            if rv is ABSENT:
                return ABSENT
            op = e.op
            if op == "&&":
                return bool(lv) and bool(rv)
            if op == "||":
                return bool(lv) or bool(rv)
            if op in ("<", "<=", ">", ">="):
                if _is_nan(lv) or _is_nan(rv):
                    return False
                return {"<": lv < rv, "<=": lv <= rv,
                        ">": lv > rv, ">=": lv >= rv}[op]
            if op == "==":
                return values_equal(lv, rv) and not (_is_nan(lv) and _is_nan(rv))
            if op == "!=":
                return not (values_equal(lv, rv) and not (_is_nan(lv) and _is_nan(rv)))
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            # division is total: zero divisors yield NaN
            if rv == 0 and not _is_nan(rv):
                return _NAN
            if _is_nan(lv) or _is_nan(rv):
                return _NAN
            if isinstance(lv, int) and isinstance(rv, int) \
                    and not isinstance(lv, bool) and not isinstance(rv, bool):
                return _int_div(lv, rv)
            return lv / rv
        if isinstance(e, MinMax):
            vals = []
            for a in e.args:
                v = ev(a)
                if v is ABSENT:
                    return ABSENT
                vals.append(v)
            if any(_is_nan(v) for v in vals):
                return _NAN
            return min(vals) if e.op == "min" else max(vals)
        raise AssertionError(f"unhandled expression {e!r}")

    return ev(expr)


def eval_clauses(decl: OutputDecl, present: frozenset[str], read, offset_read,
                 now: float):
    """First-match clause evaluation for one output at one step.

    A clause fires when its pacing is satisfied and its when condition holds;
    a when condition that evaluates to ABSENT makes the whole output absent
    for the step, since later clauses assume the earlier conditions were
    decided false.
    """
    for clause in decl.clauses:
        if clause.pacing is None or not clause.pacing.satisfied_by(present):
            continue
        if clause.when is not None:
            w = eval_expr(clause.when, read, offset_read, now)
            if w is ABSENT:
                return ABSENT
            if w is not True:
                continue
        return eval_expr(clause.expr, read, offset_read, now)
    return ABSENT


class ModelReader:
    """Random access into a finished model, with offset reads by history.

    Offsets address a stream's own non-absent values strictly before a step,
    which this resolves through per-stream indexes of present steps.
    """

    def __init__(self, model: EvaluationModel):
        self.model = model
        self._present: dict[str, list[int]] = {
            name: [t for t, v in enumerate(col) if v is not ABSENT]
            for name, col in model.streams.items()
        }

    def at_step(self, step: int):
        def read(name: str):
            return self.model.streams[name][step]

        def offset_read(name: str, k: int):
            steps = self._present[name]
            pos = bisect_left(steps, step)  # first present index >= step
            if pos < k:
                return None
            return self.model.streams[name][steps[pos - k]]

        return read, offset_read


def present_inputs(model: EvaluationModel, input_names,
                   step: int) -> frozenset:
    """The inputs with a value at `step`, read off the model's cells."""
    return frozenset(
        i for i in input_names if model.streams[i][step] is not ABSENT)


def triggers_from_model(analyzed, model: EvaluationModel) -> list:
    """Every trigger evaluated over a finished model, walked by `replay`."""
    reports: list[TriggerReport] = []
    for t, _, read, offset_read, now in replay(analyzed, model):
        for name, message, condition in analyzed.compiled.triggers:
            if condition(read, offset_read, now) is True:
                reports.append(TriggerReport(name, t, model.time_at(t), message))
    return reports
