"""Stream evaluation engine and the semantic oracle.

The engine executes an analyzed specification over timed events. Values are
either concrete or the ABSENT marker; absence propagates strictly through
every expression form except offset accesses, whose defaults apply when the
accessed history is too short. Expressions are compiled once per
specification (`compile_spec`) and the compiled form is shared by the
monitor and both oracles.

An output is evaluated only when its pacing is activated. Each distinct set
of present inputs gets an activation plan, built once on first use: the
outputs that set can activate, in evaluation order, each with only its
activated clauses. The monitor calls nothing else, so every other output
stays ABSENT; `verify_model` recomputes through the same plans and checks
that every output a plan leaves out is ABSENT in the model.

`replay` walks a finished model forward through a monitor's own bounded
history, filled only with the model's rows. `verify_model` recomputes every
output of the model through it and is the membership oracle every
scheduling test checks against; the `DecisionOracle` decides its region
conditions through the same walk.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .analysis import AnalyzedSpec
from .ast import (
    Binary, Const, Expr, MinMax, Now, OffsetAccess, Proj, StreamRef, Unary,
)
from .errors import NonMonotonicTime, TooManySteps


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
    """Every stream's value (or ABSENT) at every step plus exact timestamps.

    Step s lies at ticks[s] / quantum seconds. The quantum is canonical: the
    smallest on which every time of the model is an integer, 1 when there
    are none, so models with equal times have equal ticks and quanta.
    """

    ticks: list[int] = field(default_factory=list)
    streams: dict[str, list[object]] = field(default_factory=dict)
    quantum: int = 1

    def __post_init__(self):
        g = math.gcd(self.quantum, *self.ticks)
        if g != 1:
            self.quantum //= g
            self.ticks = [t // g for t in self.ticks]

    @classmethod
    def from_times(cls, times, streams: dict) -> EvaluationModel:
        """A model at exact times, each an int or a Fraction."""
        q = math.lcm(*{t.denominator for t in times})
        return cls([t.numerator * (q // t.denominator) for t in times],
                   streams, q)

    @property
    def times(self) -> list[Fraction]:
        """Every step's time as an exact Fraction, for reports and tests."""
        return [Fraction(t, self.quantum) for t in self.ticks]

    def time_at(self, step: int) -> Fraction:
        return Fraction(self.ticks[step], self.quantum)

    def __len__(self) -> int:
        return len(self.ticks)


# models and traces are held in memory whole, which bounds a run's length
MAX_STEPS = 10**6


def check_steps(count: int, what: str) -> None:
    """Reject a run of `count` steps above MAX_STEPS before it starts."""
    if count > MAX_STEPS:
        shown = (count if count < 10**12
                 else f"about 10^{math.log10(count):.0f}")
        raise TooManySteps(f"{what} would take {shown} steps, more than the "
                           f"cap of {MAX_STEPS}")


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
        return _compile_binary(expr)
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


def _compile_binary(expr: Binary) -> Callable:
    """A binary node; stream/stream, stream/constant and constant/stream
    operands are read in the node's own closure, in the same order and with
    the same ABSENT checks as the general form."""
    fn = _BINARY[expr.op]
    left, right = expr.left, expr.right
    if isinstance(left, StreamRef) and isinstance(right, StreamRef):
        a_name, b_name = left.name, right.name

        def refs(read, offset_read, now):
            a = read(a_name)
            if a is ABSENT:
                return ABSENT
            b = read(b_name)
            if b is ABSENT:
                return ABSENT
            return fn(a, b)
        return refs
    if isinstance(left, StreamRef) and isinstance(right, Const):
        a_name, b = left.name, right.value

        def ref_const(read, offset_read, now):
            a = read(a_name)
            return ABSENT if a is ABSENT else fn(a, b)
        return ref_const
    if isinstance(left, Const) and isinstance(right, StreamRef):
        a, b_name = left.value, right.name

        def const_ref(read, offset_read, now):
            b = read(b_name)
            return ABSENT if b is ABSENT else fn(a, b)
        return const_ref
    left, right = compile_expr(left), compile_expr(right)

    def binary(read, offset_read, now):
        a = left(read, offset_read, now)
        if a is ABSENT:
            return ABSENT
        b = right(read, offset_read, now)
        if b is ABSENT:
            return ABSENT
        return fn(a, b)
    return binary


@dataclass(frozen=True)
class ActivationPlan:
    """What one set of present inputs activates, in evaluation order.

    `outputs` lists (name, evaluate) for each output with a clause whose
    pacing the set satisfies; `evaluate` runs first-match over only those
    clauses. `checks` lists every output as (name, evaluate), with None for
    an output the plan leaves ABSENT. `template` maps every stream to ABSENT.
    """

    outputs: tuple
    checks: tuple
    template: dict


def _first_match(clauses) -> Callable:
    """First-match evaluation of one output over its activated clauses,
    given as (when closure or None, expr closure).

    A clause fires when its when condition holds; a when condition that
    evaluates to ABSENT makes the whole output absent for the step, since
    later clauses assume the earlier conditions were decided false.
    """
    if clauses[0][0] is None:  # an unguarded first clause always fires
        return clauses[0][1]

    def first_match(read, offset_read, now):
        for when, expr in clauses:
            if when is not None:
                w = when(read, offset_read, now)
                if w is ABSENT:
                    return ABSENT
                if w is not True:
                    continue
            return expr(read, offset_read, now)
        return ABSENT
    return first_match


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
    _plans: dict = field(default_factory=dict, compare=False, repr=False)

    def plan(self, present: frozenset) -> ActivationPlan:
        """The activation plan of a set of present inputs, built on first
        use. An output keeps the clauses whose pacing `present` satisfies
        (@any clauses always) up to its first one without a when condition.
        A set with undeclared inputs raises ValueError and is not kept.
        """
        plan = self._plans.get(present)
        if plan is not None:
            return plan
        if not present <= self.inputs:
            raise ValueError("event values for undeclared inputs: "
                             f"{sorted(present - self.inputs)}")
        checks = []
        for name, clauses in self.outputs:
            kept = []
            for inputs, when, expr in clauses:
                if inputs is None or inputs <= present:
                    kept.append((when, expr))
                    if when is None:
                        break
            checks.append((name, _first_match(kept) if kept else None))
        template = dict.fromkeys(self.names, ABSENT)
        plan = self._plans[present] = ActivationPlan(
            tuple(c for c in checks if c[1] is not None), tuple(checks),
            template)
        return plan


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
    plan = compiled.plan(frozenset(event.values))

    now = float(event.time)
    current = plan.template.copy()
    current.update(event.values)
    read = current.__getitem__
    offset_read = state.offset_read
    for name, evaluate in plan.outputs:
        current[name] = evaluate(read, offset_read, now)

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
    streams = {name: [] for name in analyzed.spec.stream_names()}
    appends = [(name, col.append) for name, col in streams.items()]
    times = []
    reports: list[TriggerReport] = []
    for event in events:
        values, fired = eval_event(state, event)
        times.append(event.time)
        for name, append in appends:
            append(values[name])
        reports.extend(fired)
    return EvaluationModel.from_times(times, streams), reports


# ---------------------------------------------------------------------------
# the semantic oracle


def replay(analyzed: AnalyzedSpec, model: EvaluationModel):
    """Walk a finished model forward, one step at a time.

    Yields (step, present, read, offset_read, now): the inputs present at
    the step, a read over the step's row, and its time as a float, rounded
    once from the exact tick / quantum. Offsets
    go through a `MonitorState` whose history takes each row after the step
    is yielded, so it holds only the model's own values, kept as deep as
    the spec's `max_offset`, as the monitor keeps them. That serves exactly
    the offsets the spec's expressions use; the `DecisionOracle`'s region
    conditions are built from the spec's own `when` guards, so they are
    covered too. A deeper offset reads as missing history.
    """
    state = MonitorState(analyzed)
    inputs = analyzed.spec.input_names()
    names = tuple(model.streams)
    rows = zip(*model.streams.values())
    q = model.quantum
    for step, (tick, row) in enumerate(zip(model.ticks, rows)):
        values = dict(zip(names, row))
        present = frozenset(i for i in inputs if values[i] is not ABSENT)
        yield step, present, values.__getitem__, state.offset_read, tick / q
        state._push_history(values)


def verify_model(analyzed: AnalyzedSpec, model: EvaluationModel) -> list[Violation]:
    """Recompute every output at every step; report every disagreement.

    An empty result means the model is a member of the specification's
    semantics: timestamps strictly increase and each output cell equals the
    first-match clause evaluation over the model itself, read forward by
    `replay`. Time-map violations come first, then the cells in step order.
    """
    violations: list[Violation] = []
    ticks = model.ticks
    for t in range(1, len(ticks)):
        if ticks[t] <= ticks[t - 1]:
            time = model.time_at(t)
            violations.append(Violation(
                "semantic", t, time,
                f"time map not strictly increasing: {time} after "
                f"{model.time_at(t - 1)}"))

    compiled = analyzed.compiled
    for t, present, read, offset_read, now in replay(analyzed, model):
        for name, evaluate in compiled.plan(present).checks:
            # an output the plan leaves out must be ABSENT
            expected = (ABSENT if evaluate is None
                        else evaluate(read, offset_read, now))
            actual = read(name)
            # == implies values_equal; only unequal cells need the NaN rules
            if expected != actual and not values_equal(expected, actual):
                violations.append(Violation(
                    "semantic", t, model.time_at(t),
                    f"stream '{name}' holds {actual!r}, recomputation gives "
                    f"{expected!r}", stream=name))
    return violations


__all__ = [
    "ABSENT", "ActivationPlan", "CompiledSpec", "Event", "EvaluationModel",
    "MAX_STEPS", "MonitorState", "TriggerReport", "Violation", "check_steps",
    "compile_expr", "compile_spec", "eval_event", "replay", "run_monitor_full",
    "values_equal", "verify_model",
]
