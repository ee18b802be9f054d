"""Stream evaluation engine and the semantic oracle.

The engine executes an analyzed specification over timed events. Values are
either concrete or the ABSENT marker; absence propagates strictly through
every expression form except offset accesses, whose defaults apply when the
accessed history is too short. Expressions are compiled once per
specification (`compile_spec`) and the compiled form is shared by the
monitor and both oracles.

`verify_model` recomputes every output of a finished model from the model
itself, not from the monitor's state, and is the membership oracle every
scheduling test checks against.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .analysis import AnalyzedSpec
from .ast import (
    Binary, Const, Expr, MinMax, Now, OffsetAccess, Proj, StreamRef, Unary,
)
from .errors import NonMonotonicTime


class _Absent:
    """Singleton marker for steps where a stream holds no value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABSENT"

    def __bool__(self):
        return False


ABSENT = _Absent()

_NAN = float("nan")


def _is_nan(v) -> bool:
    return isinstance(v, float) and v != v


def values_equal(a, b) -> bool:
    """Model-cell equality: ABSENT matches ABSENT, NaN matches NaN."""
    if a is ABSENT or b is ABSENT:
        return a is b
    if _is_nan(a) or _is_nan(b):
        return _is_nan(a) and _is_nan(b)
    if isinstance(a, tuple) != isinstance(b, tuple):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    return a == b


@dataclass(frozen=True)
class Event:
    """One timed bundle of input values; only present inputs are listed."""

    time: Fraction
    values: dict[str, object]


@dataclass(frozen=True)
class TriggerReport:
    trigger: str
    step: int
    time: Fraction
    message: Optional[str]


@dataclass
class EvaluationModel:
    """Every stream's value (or ABSENT) at every step plus exact timestamps."""

    times: list[Fraction] = field(default_factory=list)
    streams: dict[str, list[object]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    def present_inputs(self, input_names, step: int) -> frozenset[str]:
        return frozenset(
            i for i in input_names if self.streams[i][step] is not ABSENT)


@dataclass(frozen=True)
class Violation:
    kind: str  # semantic | schedule | bandwidth
    step: int
    time: object
    detail: str
    stream: Optional[str] = None
    task: Optional[tuple[str, ...]] = None


# ---------------------------------------------------------------------------
# expression compilation


def _int_div(a: int, b: int) -> int:
    # truncate toward zero, matching 64-bit integer semantics
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _div(a, b):
    # division is total: zero divisors yield NaN (NaN operands already do)
    if b == 0:
        return _NAN
    if type(a) is int and type(b) is int:
        return _int_div(a, b)
    return a / b


def _sqrt(v):
    if v < 0:  # math.sqrt passes NaN through
        return _NAN
    return math.sqrt(v)


def _and(a, b) -> bool:
    return bool(a) and bool(b)


def _or(a, b) -> bool:
    return bool(a) or bool(b)


_UNARY = {"neg": operator.neg, "not": operator.not_, "abs": abs, "sqrt": _sqrt}

# The type checker admits only scalar operands for comparisons, and Python's
# float comparisons are already false on NaN (and != is true), which is the
# language's NaN rule.
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne, "&&": _and, "||": _or,
}


def compile_expr(expr: Expr) -> Callable:
    """Compile an expression into `f(read, offset_read, now)`.

    `read(name)` gives the current-step value of a stream; `offset_read(name,
    k)` gives the k-th previous non-absent value or None when history is too
    short. The result is a value or ABSENT: absence propagates strictly
    through every form except offset accesses, whose default applies when
    history is missing. Division by zero and sqrt of negatives yield NaN, so
    evaluation is total over numeric inputs. Node kinds, operators and
    constants are resolved here, once, so evaluation does no dispatch.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda read, offset_read, now: value
    if isinstance(expr, Now):
        return lambda read, offset_read, now: now
    if isinstance(expr, StreamRef):
        name = expr.name
        return lambda read, offset_read, now: read(name)
    if isinstance(expr, OffsetAccess):
        stream, k = expr.stream, expr.offset
        default = compile_expr(expr.default)

        def offset(read, offset_read, now):
            past = offset_read(stream, k)
            return default(read, offset_read, now) if past is None else past
        return offset
    if isinstance(expr, Proj):
        operand, index = compile_expr(expr.operand), expr.index

        def proj(read, offset_read, now):
            v = operand(read, offset_read, now)
            return v if v is ABSENT else v[index]
        return proj
    if isinstance(expr, Unary):
        operand, fn = compile_expr(expr.operand), _UNARY[expr.op]

        def unary(read, offset_read, now):
            v = operand(read, offset_read, now)
            return v if v is ABSENT else fn(v)
        return unary
    if isinstance(expr, Binary):
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        fn = _BINARY[expr.op]

        def binary(read, offset_read, now):
            a = left(read, offset_read, now)
            if a is ABSENT:
                return ABSENT
            b = right(read, offset_read, now)
            if b is ABSENT:
                return ABSENT
            return fn(a, b)
        return binary
    if isinstance(expr, MinMax):
        args = tuple(compile_expr(a) for a in expr.args)
        pick = min if expr.op == "min" else max

        def minmax(read, offset_read, now):
            vals = []
            for arg in args:
                v = arg(read, offset_read, now)
                if v is ABSENT:
                    return ABSENT
                vals.append(v)
            if any(v != v for v in vals):
                return _NAN
            return pick(vals)
        return minmax
    raise AssertionError(f"unhandled expression {expr!r}")


@dataclass(frozen=True)
class CompiledSpec:
    """Every expression of an analyzed specification, compiled once.

    `outputs` lists (name, clauses) in evaluation order, each clause being
    (pacing inputs, or None for @any; when closure or None; expr closure).
    `triggers` lists (report name, message, condition closure). `names` is
    every stream, inputs first; `inputs` the set of input names.
    """

    outputs: tuple
    triggers: tuple
    names: tuple[str, ...]
    inputs: frozenset[str]


def compile_spec(analyzed: AnalyzedSpec) -> CompiledSpec:
    """Compile a specification; use `analyzed.compiled`, which caches this."""
    spec = analyzed.spec
    decls = {o.name: o for o in spec.outputs}
    outputs = tuple(
        (name, tuple(
            (None if c.pacing.is_any else c.pacing.inputs,
             None if c.when is None else compile_expr(c.when),
             compile_expr(c.expr))
            for c in decls[name].clauses))
        for name in analyzed.eval_order)
    triggers = tuple(
        (name, trig.message, compile_expr(trig.expr))
        for name, trig in zip(analyzed.trigger_names, spec.triggers))
    return CompiledSpec(outputs, triggers, spec.stream_names(),
                        frozenset(spec.input_names()))


def _first_match(clauses, present, read, offset_read, now):
    """First-match clause evaluation for one output at one step.

    A clause fires when its pacing is satisfied and its when condition holds;
    a when condition that evaluates to ABSENT makes the whole output absent
    for the step, since later clauses assume the earlier conditions were
    decided false.
    """
    for inputs, when, expr in clauses:
        if inputs is not None and not inputs <= present:
            continue
        if when is not None:
            w = when(read, offset_read, now)
            if w is ABSENT:
                return ABSENT
            if w is not True:
                continue
        return expr(read, offset_read, now)
    return ABSENT


# ---------------------------------------------------------------------------
# the online monitor


class MonitorState:
    """Single-owner incremental monitor with bounded per-stream history."""

    def __init__(self, analyzed: AnalyzedSpec):
        self.analyzed = analyzed
        self.step = 0
        self.time: Optional[Fraction] = None
        self.compiled = analyzed.compiled
        # history keeps only the non-absent values still reachable by offsets
        self._history: dict[str, deque] = {
            name: deque(maxlen=depth)
            for name, depth in analyzed.max_offset.items() if depth > 0
        }

    def offset_read(self, name: str, k: int):
        h = self._history.get(name)
        if h is None or len(h) < k:
            return None
        return h[-k]

    def _push_history(self, values: dict[str, object]) -> None:
        for name, h in self._history.items():
            v = values[name]
            if v is not ABSENT:
                h.append(v)


def eval_event(state: MonitorState, event: Event):
    """Advance the monitor one step.

    Returns (values, reports): the value or ABSENT of every stream at this
    step, and the triggers that fired. The state is updated in place.
    """
    if state.time is not None and event.time <= state.time:
        raise NonMonotonicTime(
            f"event at {event.time} does not advance past {state.time}")
    if not event.values:
        raise ValueError("an event must carry at least one input value")
    compiled = state.compiled
    present = frozenset(event.values)
    if not present <= compiled.inputs:
        raise ValueError("event values for undeclared inputs: "
                         f"{sorted(present - compiled.inputs)}")

    now = float(event.time)
    current = dict.fromkeys(compiled.names, ABSENT)
    current.update(event.values)
    read = current.__getitem__
    offset_read = state.offset_read
    for name, clauses in compiled.outputs:
        current[name] = _first_match(clauses, present, read, offset_read, now)

    reports = [
        TriggerReport(name, state.step, event.time, message)
        for name, message, condition in compiled.triggers
        if condition(read, offset_read, now) is True
    ]

    state._push_history(current)
    state.step += 1
    state.time = event.time
    return current, reports


def run_monitor_full(analyzed: AnalyzedSpec, events):
    """Execute the monitor over a whole trace: its model and triggers."""
    state = MonitorState(analyzed)
    names = analyzed.spec.stream_names()
    model = EvaluationModel(streams={name: [] for name in names})
    reports: list[TriggerReport] = []
    for event in events:
        values, fired = eval_event(state, event)
        model.times.append(event.time)
        for name in names:
            model.streams[name].append(values[name])
        reports.extend(fired)
    return model, reports


# ---------------------------------------------------------------------------
# the semantic oracle


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


def verify_model(analyzed: AnalyzedSpec, model: EvaluationModel) -> list[Violation]:
    """Recompute every output at every step; report every disagreement.

    An empty result means the model is a member of the specification's
    semantics: timestamps strictly increase and each output cell equals the
    first-match clause evaluation over the model itself.
    """
    violations: list[Violation] = []
    n = len(model.times)
    for t in range(1, n):
        if model.times[t] <= model.times[t - 1]:
            violations.append(Violation(
                "semantic", t, model.times[t],
                f"time map not strictly increasing: {model.times[t]} after "
                f"{model.times[t - 1]}"))

    compiled = analyzed.compiled
    input_names = analyzed.spec.input_names()
    reader = ModelReader(model)
    for t in range(n):
        present = model.present_inputs(input_names, t)
        now = float(model.times[t])
        read, offset_read = reader.at_step(t)
        for name, clauses in compiled.outputs:
            expected = _first_match(clauses, present, read, offset_read, now)
            actual = model.streams[name][t]
            # == implies values_equal; only unequal cells need the NaN rules
            if expected != actual and not values_equal(expected, actual):
                violations.append(Violation(
                    "semantic", t, model.times[t],
                    f"stream '{name}' holds {actual!r}, recomputation gives "
                    f"{expected!r}", stream=name))
    return violations


def triggers_from_model(analyzed: AnalyzedSpec, model: EvaluationModel):
    """Evaluate all triggers over a finished model."""
    reports: list[TriggerReport] = []
    reader = ModelReader(model)
    for t in range(len(model.times)):
        read, offset_read = reader.at_step(t)
        now = float(model.times[t])
        for name, message, condition in analyzed.compiled.triggers:
            if condition(read, offset_read, now) is True:
                reports.append(TriggerReport(name, t, model.times[t], message))
    return reports


__all__ = [
    "ABSENT", "CompiledSpec", "Event", "EvaluationModel", "ModelReader",
    "MonitorState", "TriggerReport", "Violation", "compile_expr",
    "compile_spec", "eval_event", "run_monitor_full",
    "triggers_from_model", "values_equal", "verify_model",
]
