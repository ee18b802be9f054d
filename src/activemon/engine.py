"""Stream evaluation engine and the semantic oracle.

The engine executes an analyzed specification over timed events. Values are
either concrete or the ABSENT marker; absence propagates strictly through
every expression form except offset accesses, whose defaults apply when the
accessed history is too short.

Each specification is generated once, on first use (`analyzed.compiled`),
as straight-line Python source and compiled in one call: one local per
stream, one presence flag per input, and each output as first-match
conditionals guarded by its clauses' pacing flags, so an output whose
pacing an event does not activate stays ABSENT without evaluating anything.
Each expression runs its ABSENT checks in evaluation order before computing
its value; offsets read the history deques directly, and triggers and
history pushes are inline. The same generator emits two step functions,
kept with their source on the `CompiledSpec`: the monitor's, over an
event's values, and `verify_model`'s, which recomputes every output from a
model row. `compile_expr` emits conditions for the `DecisionOracle` over
`read`/`offset_read` callbacks.

The monitor keeps time as integer ticks on a quantum fixed per run: a step
at tick lies at tick / quantum seconds, passed to expressions as that
correctly rounded float, and a trigger report builds its exact time only
when the trigger fires.

`replay` walks a finished model forward through a monitor's own bounded
history, filled only with the model's rows; the `DecisionOracle` decides its
region conditions through it. `verify_model` recomputes every output of the
model the same way and is the membership oracle every scheduling test
checks against.
"""
from __future__ import annotations

import itertools
import math
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
# code generation


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


def _pick(pick):
    def minmax(*vals):
        if any(v != v for v in vals):
            return _NAN
        return pick(vals)
    return minmax


def _undeclared(values, inputs) -> None:
    raise ValueError("event values for undeclared inputs: "
                     f"{sorted(values.keys() - inputs)}")


# what generated source may name besides its own locals and bound constants
_RUNTIME = {"ABSENT": ABSENT, "_div": _div, "_sqrt": _sqrt,
            "_min": _pick(min), "_max": _pick(max),
            "_undeclared": _undeclared, "values_equal": values_equal}

# each form as a template over its operands' source. The type checker
# admits only scalar operands for comparisons, and Python's float
# comparisons are already false on NaN (and != is true), which is the
# language's NaN rule.
_UNARY = {"neg": "(-{})", "not": "(not {})", "abs": "abs({})",
          "sqrt": "_sqrt({})"}
_BINARY = {op: f"({{}} {op} {{}})"
           for op in ("+", "-", "*", "<", "<=", ">", ">=", "==", "!=")}
_BINARY.update({"/": "_div({}, {})",
                "&&": "(not not {} and not not {})",
                "||": "(not not {} or not not {})"})

# CPython parses at most 200 nested brackets; a subexpression this deep is
# bound to a temporary instead
_HOIST_DEPTH = 40
# CPython's compiler recurses once per elif; longer first-match chains
# restart every this many clauses
_CHAIN = 200


def _chain(tests) -> str:
    """One condition that holds when any test does, in order, or ''."""
    parts = []
    for guards, text in dict.fromkeys(tests):
        parts.append(f"({' and '.join(guards)} and {text})" if guards
                     else text)
    return f"({' or '.join(parts)})" if parts else ""


class _Source:
    """Python source for the expressions of one specification.

    An expression compiles to (tests, value, depth). `tests` lists, in
    evaluation order, checks that hold when a stream read is ABSENT; each
    is (guards, text) and runs only while its guards hold, so the reads of
    an offset default run only when history is short. `value` computes the
    expression once no test holds, and `depth` is its bracket nesting.
    Streams are read from locals (`streams`: name -> local, with `history`:
    name -> deque local) or, without them, through `read` and `offset_read`.
    Constants are bound in `ns`, the namespace the source runs in.
    """

    def __init__(self, streams=None, history=None):
        self.streams = streams
        self.history = history
        self.ns = dict(_RUNTIME)
        self._bound: dict = {}
        self._temps = itertools.count()

    def bind(self, value, prefix: str = "_c") -> str:
        # repr tells -0.0 from 0.0 and NaN from itself; type tells 1 from True
        key = (prefix, type(value), repr(value))
        name = self._bound.get(key)
        if name is None:
            name = self._bound[key] = f"{prefix}{len(self._bound)}"
            self.ns[name] = value
        return name

    def _temp(self) -> str:
        return f"_t{next(self._temps)}"

    def _node(self, tests, text, depth):
        if depth < _HOIST_DEPTH:
            return tests, text, depth
        temp = self._temp()  # never ABSENT: the test only binds it
        return tests + [((), f"(({temp} := {text}) is ABSENT)")], temp, 0

    def expr(self, e: Expr, known: frozenset):
        """(tests, value, depth) of `e`, whose `known` inputs are present."""
        if isinstance(e, Const):
            return [], self.bind(e.value), 0
        if isinstance(e, Now):
            return [], "now", 0
        if isinstance(e, StreamRef):
            if self.streams is None:
                temp = self._temp()
                test = f"(({temp} := read({e.name!r})) is ABSENT)"
                return [((), test)], temp, 0
            local = self.streams[e.name]
            return ([] if e.name in known else [((), f"{local} is ABSENT")],
                    local, 0)
        if isinstance(e, OffsetAccess):
            return self._offset(e, known)
        if isinstance(e, (Proj, Unary)):
            tests, v, depth = self.expr(e.operand, known)
            text = (f"{v}[{e.index}]" if isinstance(e, Proj)
                    else _UNARY[e.op].format(v))
            return self._node(tests, text, depth + 1)
        if isinstance(e, Binary):
            tests, a, da = self.expr(e.left, known)
            more, b, db = self.expr(e.right, known)
            return self._node(tests + more, _BINARY[e.op].format(a, b),
                              max(da, db) + 1)
        if isinstance(e, MinMax):
            tests, args, depth = [], [], 0
            for arg in e.args:
                more, v, d = self.expr(arg, known)
                tests += more
                args.append(v)
                depth = max(depth, d)
            return self._node(tests, f"_{e.op}({', '.join(args)})", depth + 1)
        raise AssertionError(f"unhandled expression {e!r}")

    def _offset(self, e: OffsetAccess, known):
        # the default, and its tests, only when the history is too short
        tests, default, depth = self.expr(e.default, known)
        k = e.offset
        if self.streams is None:
            past = self._temp()
            short = f"{past} is None"
            read = f"offset_read({e.stream!r}, {k})"
            first = [((), f"(({past} := {read}) is ABSENT)")]
            text = f"({default} if {short} else {past})"
        else:
            h = self.history[e.stream]
            short = f"not {h}" if k == 1 else f"len({h}) < {k}"
            first = []
            text = f"({default} if {short} else {h}[-{k}])"
        tests = first + [((short, *guards), t) for guards, t in tests]
        return self._node(tests, text, depth + 1)

    def code(self, e: Expr, known: frozenset = frozenset()):
        """(source for the value of `e` or ABSENT, whether it can be
        ABSENT)."""
        tests, value, _ = self.expr(e, known)
        if not tests or tests == [((), f"{value} is ABSENT")]:
            return value, bool(tests)  # a stream read as it is
        return f"(ABSENT if {_chain(tests)} else {value})", True

    def run(self, source: str) -> dict:
        exec(compile(source, "<activemon spec>", "exec"), self.ns)
        return self.ns


def compile_expr(expr: Expr) -> Callable:
    """Compile an expression into `f(read, offset_read, now)`.

    `read(name)` gives the current-step value of a stream; `offset_read(name,
    k)` gives the k-th previous non-absent value or None when history is too
    short. The result is a value or ABSENT: absence propagates strictly
    through every form except offset accesses, whose default applies when
    history is missing. Division by zero and sqrt of negatives yield NaN, so
    evaluation is total over numeric inputs.
    """
    source = _Source()
    return source.run("def condition(read, offset_read, now):\n"
                      f"    return {source.code(expr)[0]}\n")["condition"]


@dataclass(frozen=True)
class CompiledSpec:
    """One specification as generated Python source, compiled once.

    `monitor(*deques)` and `verifier(*deques)` each take one history deque
    per entry of `history` ((stream, depth), in order) and return the
    specification's step function over them. The monitor's
    `step(values, now)` evaluates one event and returns (every stream's
    value or ABSENT, in the spec's stream order, as a dict; the (trigger,
    message) pairs that fired). The verifier's `check(row, now)` recomputes
    every output from a model row and returns (stream, recomputed, held)
    for each that disagrees. Both push each step's values into their
    deques.
    """

    source: str
    history: tuple
    monitor: Callable
    verifier: Callable


def compile_spec(analyzed: AnalyzedSpec) -> CompiledSpec:
    """Generate and compile the step functions of a specification; use
    `analyzed.compiled`, which caches this.

    Each stream is a local and each input has a presence flag; each output
    is first-match conditionals guarded by its clauses' pacing flags, in
    evaluation order, so an output whose pacing an event does not satisfy
    is ABSENT without evaluating anything.
    """
    spec = analyzed.spec
    names = spec.stream_names()
    inputs = spec.input_names()
    history = tuple((n, d) for n, d in analyzed.max_offset.items() if d > 0)
    local = {name: f"_v{i}" for i, name in enumerate(names)}
    source = _Source(local, {n: f"_h{j}" for j, (n, _) in enumerate(history)})
    decls = {o.name: o for o in spec.outputs}
    outputs = [(name, decls[name].clauses) for name in analyzed.eval_order]

    # a presence flag per input some pacing names, and one per conjunction
    order = {name: i for i, name in enumerate(inputs)}
    paced = {c.pacing.inputs for _, clauses in outputs for c in clauses}
    flags: dict = {frozenset(): None}  # @any
    presence = []
    for name in sorted({n for p in paced for n in p}, key=order.get):
        flags[frozenset([name])] = flag = f"_p{order[name]}"
        presence.append(f"{flag} = {local[name]} is not ABSENT")
    for p in sorted((p for p in paced if len(p) > 1),
                    key=lambda p: sorted(map(order.get, p))):
        flags[p] = flag = f"_q{len(presence)}"
        presence.append(f"{flag} = " + " and ".join(
            flags[frozenset([n])] for n in sorted(p, key=order.get)))

    def clauses_code(clauses) -> list:
        """(condition, value) per clause, the condition None for a clause
        that always fires, after which no clause runs."""
        out = []
        for c in clauses:
            known = c.pacing.inputs
            value, _ = source.code(c.expr, known)
            cond = flags[known]
            if c.when is not None:
                when, absent = source.code(c.when, known)
                if absent:  # an ABSENT condition leaves the output ABSENT
                    test = f"((_w := {when}) is True or _w is ABSENT)"
                    value = f"ABSENT if _w is ABSENT else {value}"
                else:
                    test = f"{when} is True"
                cond = test if cond is None else f"{cond} and {test}"
            out.append((cond, value))
            if cond is None:
                break
        return out

    def first_match(target, coded) -> list:
        out = []
        for i, (cond, value) in enumerate(coded):
            if cond is None:
                return out + ([f"{target} = {value}"] if not i
                              else ["else:", f"    {target} = {value}"])
            if i and i % _CHAIN == 0:
                out += ["else:", f"    {target} = None",
                        f"if {target} is not None:", "    pass"]
            out += [f"{'elif' if i else 'if'} {cond}:",
                    f"    {target} = {value}"]
        return out + ["else:", f"    {target} = ABSENT"]

    pushes = []
    for j, (name, _) in enumerate(history):
        pushes += [f"if {local[name]} is not ABSENT:",
                   f"    _h{j}.append({local[name]})"]
    monitor = ["if not values.keys() <= _inputs:",
               "    _undeclared(values, _inputs)",
               "get = values.get"]
    monitor += [f"{local[n]} = get({n!r}, ABSENT)" for n in inputs]
    monitor += presence
    check = [f"{', '.join(local.values())}, = row", *presence, "_bad = []"]
    for name, clauses in outputs:
        v, coded = local[name], clauses_code(clauses)
        monitor += [f"# {name!r}", *first_match(v, coded)]
        check += [f"# {name!r}", *first_match("_e", coded),
                  f"if _e != {v} and not values_equal(_e, {v}):",
                  f"    _bad.append(({name!r}, _e, {v}))"]
    monitor.append("_fired = []")
    for name, trig in zip(analyzed.trigger_names, spec.triggers):
        fired = source.bind((name, trig.message), "_r")
        monitor += [f"if {source.code(trig.expr)[0]} is True:",
                    f"    _fired.append({fired})"]
    monitor += pushes
    row = ", ".join(f"{n!r}: {v}" for n, v in local.items())
    monitor.append(f"return {{{row}}}, _fired")
    check += [*pushes, "return _bad"]

    deques = ", ".join(f"_h{j}" for j in range(len(history)))
    text = "\n".join(
        [f"def _monitor({deques}):", "    def step(values, now):",
         *_indent(monitor, 8), "    return step", "", "",
         f"def _verifier({deques}):", "    def check(row, now):",
         *_indent(check, 8), "    return check", ""])
    source.ns["_inputs"] = frozenset(inputs)
    ns = source.run(text)
    return CompiledSpec(text, history, ns["_monitor"], ns["_verifier"])


def _indent(lines, n: int) -> list:
    return [" " * n + line for line in lines]


# ---------------------------------------------------------------------------
# the online monitor


class MonitorState:
    """Single-owner incremental monitor with bounded per-stream history.

    Time is integer ticks on `quantum`: a step at tick lies at
    tick / quantum seconds.
    """

    def __init__(self, analyzed: AnalyzedSpec, quantum: int = 1):
        self.analyzed = analyzed
        self.quantum = quantum
        self.step = 0
        self.tick = -math.inf  # the tick of the last step
        compiled = analyzed.compiled
        # history keeps only the non-absent values still reachable by offsets
        self._history: dict[str, deque] = {
            name: deque(maxlen=depth) for name, depth in compiled.history}
        self.evaluate = compiled.monitor(*self._history.values())

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


def eval_event(state: MonitorState, tick: int, values: dict):
    """Advance the monitor one step, to tick / state.quantum seconds.

    `values` maps each present input to its value. Returns (values,
    reports): the value or ABSENT of every stream at this step, and the
    triggers that fired. The state is updated in place.
    """
    if tick <= state.tick:
        q = state.quantum
        raise NonMonotonicTime(f"event at {Fraction(tick, q)} does not "
                               f"advance past {Fraction(state.tick, q)}")
    if not values:
        raise ValueError("an event must carry at least one input value")
    current, fired = state.evaluate(values, tick / state.quantum)
    step = state.step
    state.step = step + 1
    state.tick = tick
    if fired:
        time = Fraction(tick, state.quantum)
        fired = [TriggerReport(name, step, time, message)
                 for name, message in fired]
    return current, fired


# rows a run keeps before folding them into its columns: each row is a
# dict of every stream, so keeping many would raise a long run's peak memory
FOLD_ROWS = 32


def fold_rows(columns: list, rows: list) -> None:
    """Append each row dict's values (in column order) to the columns, in
    one transpose, and empty `rows`."""
    for column, values in zip(columns, zip(*map(dict.values, rows))):
        column.extend(values)
    rows.clear()


def run_monitor_full(analyzed: AnalyzedSpec, events, quantum: int):
    """Execute the monitor over a whole trace: its model and triggers.

    `events` are (tick, values) pairs at tick / quantum seconds.
    """
    state = MonitorState(analyzed, quantum)
    names = analyzed.spec.stream_names()
    columns: list = [[] for _ in names]
    ticks: list = []
    rows: list = []
    reports: list[TriggerReport] = []
    for tick, values in events:
        current, fired = eval_event(state, tick, values)
        ticks.append(tick)
        rows.append(current)
        if len(rows) == FOLD_ROWS:
            fold_rows(columns, rows)
        if fired:
            reports.extend(fired)
    fold_rows(columns, rows)
    return EvaluationModel(ticks, dict(zip(names, columns)), quantum), reports


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
    first-match clause evaluation over the model itself, recomputed by the
    specification's `verifier`, whose offsets read a history that takes the
    model's own rows, as `replay` does. Time-map violations come first, then
    the cells in step order.
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
    check = compiled.verifier(*(deque(maxlen=d) for _, d in compiled.history))
    rows = zip(*(model.streams[name] for name in analyzed.spec.stream_names()))
    q = model.quantum
    for t, (tick, row) in enumerate(zip(model.ticks, rows)):
        wrong = check(row, tick / q)
        if wrong:
            time = model.time_at(t)
            violations.extend(Violation(
                "semantic", t, time, f"stream '{name}' holds {actual!r}, "
                f"recomputation gives {expected!r}", stream=name)
                for name, expected, actual in wrong)
    return violations


__all__ = [
    "ABSENT", "CompiledSpec", "EvaluationModel", "FOLD_ROWS",
    "MAX_STEPS",
    "MonitorState", "TriggerReport", "Violation", "check_steps",
    "compile_expr", "compile_spec", "eval_event",
    "fold_rows", "replay", "run_monitor_full", "values_equal", "verify_model",
]
