"""Stream evaluation engine and the semantic oracle.

The engine executes an analyzed specification over timed events. Values are
either concrete or the ABSENT marker; absence propagates strictly through
every expression form except offset accesses, whose defaults apply when the
accessed history is too short.

A specification runs as straight-line Python source, generated and
compiled in one call: one local per stream, one presence flag per input,
and each output as first-match conditionals guarded by its clauses' pacing
flags, so an output whose pacing an event does not activate stays ABSENT
without evaluating anything. Each expression runs its ABSENT checks in
evaluation order before computing its value; offsets read the history
deques directly, and triggers and history pushes are inline. One generator
emits two step functions, each only where it is used: the monitor's
(`compile_spec`, cached as `analyzed.compiled`), over an event's values,
and the verifier's (`compile_verifier`), which recomputes every output from
a model row and, behind their pacing flags, decides the annotation guards
it is given.

The monitor keeps time as integer ticks on a quantum fixed per run: a step
at tick lies at tick / quantum seconds, passed to expressions as that
correctly rounded float, and a trigger report keeps that tick and quantum
and builds its exact time only when it is read. `run_monitor_full` is the
one loop that evaluates and records a run: the fixed-frequency baseline
hands it its events, and the closed loop a generator that plans each
cycle, with the scheduler's `observe`, which takes each row before the
next event is drawn.

`walk_model` walks a finished model forward once through the verifier,
whose history takes only the model's own rows. It takes the model a block
of rows at a time, as `io.read_model_blocks` parses them from `model.csv`,
and verifies each block as it is drawn; a model held in memory is one
block. `backward_rows` finds the rows whose time does not advance, which
are the walk's time-map violations and `io.read_trace`'s error.
`verify_model` is that walk with no guards and is the membership
oracle every scheduling test checks against; `schedule.check_scheduled_model`
drives it with the schedule's guards, keeps each step's tick on a
`Timeline` and its two masks, and feeds them to the `DecisionOracle` once
the walk is done.
"""
from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import lt
from typing import Callable, NamedTuple, Optional

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


class TriggerReport(NamedTuple):
    """A trigger that fired at a step, which lies at tick / quantum seconds.

    Build one with `at`, which reduces the pair by its gcd, so two reports
    are equal exactly when their triggers, steps, exact times and messages
    are. The exact time is built only when `time` is read; `tick /
    quantum` is its float, correctly rounded, as `float(time)` is.
    """

    trigger: str
    step: int
    tick: int
    quantum: int
    message: Optional[str]

    @classmethod
    def at(cls, trigger: str, step: int, tick: int, quantum: int,
           message: Optional[str]) -> "TriggerReport":
        g = math.gcd(tick, quantum)
        return cls(trigger, step, tick // g, quantum // g, message)

    @property
    def time(self) -> Fraction:
        return Fraction(self.tick, self.quantum)


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
        # gcd(quantum, *ticks) would first copy the ticks into a tuple
        g = functools.reduce(math.gcd, self.ticks, self.quantum)
        if g != 1:
            self.quantum //= g
            self.ticks = [t // g for t in self.ticks]

    @property
    def times(self) -> list[Fraction]:
        """Every step's time as an exact Fraction, for reports and tests."""
        return [Fraction(t, self.quantum) for t in self.ticks]

    def __len__(self) -> int:
        return len(self.ticks)


def model_blocks(analyzed: AnalyzedSpec, model):
    """The blocks that `walk_model` takes: an EvaluationModel as its one
    block, any other model (already blocks) as it is."""
    if not isinstance(model, EvaluationModel):
        return model
    names = analyzed.spec.stream_names()
    return [(model.quantum, model.ticks, [model.streams[n] for n in names])]


def extend_ticks(seq, ticks):
    """`seq` with `ticks` appended: an array('q') while every tick fits in
    64 bits, else a list."""
    if isinstance(seq, array):
        try:
            seq.extend(array("q", ticks))
            return seq
        except OverflowError:
            seq = list(seq)
    seq.extend(ticks)
    return seq


class Timeline:
    """Every step's tick, kept block by block on the lcm of the blocks'
    quanta so far, as `extend_ticks` keeps them. The ticks kept are scaled
    up only when that lcm grows."""

    def __init__(self):
        self.quantum = 1
        self.ticks = array("q")

    def extend(self, quantum: int, ticks) -> None:
        grow = quantum // math.gcd(self.quantum, quantum)
        if grow > 1:
            self.quantum *= grow
            self.ticks = extend_ticks(array("q"),
                                      [t * grow for t in self.ticks])
        if self.quantum > quantum:
            ticks = [t * (self.quantum // quantum) for t in ticks]
        self.ticks = extend_ticks(self.ticks, ticks)

    def follow(self, blocks):
        """`blocks` as they are, each one's ticks kept as it passes."""
        for block in blocks:
            self.extend(block[0], block[1])
            yield block


# a run's model and trace are held in memory whole, which bounds its length
MAX_STEPS = 10**6


def check_steps(count: int, what: str) -> None:
    """Reject a run of `count` steps above MAX_STEPS before it starts."""
    if count > MAX_STEPS:
        shown = (count if count < 10**12
                 else f"about 10^{math.log10(count):.0f}")
        raise TooManySteps(f"{what} would take {shown} steps, more than the "
                           f"cap of {MAX_STEPS}")


class Violation(NamedTuple):
    """One finding of a check; a tuple, cheap to build in the thousands."""

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
    """Python source for the step functions of one specification.

    Each stream is a local (`local`: name -> local), and each input that a
    clause's pacing, or one of `pacings`, names has a presence flag
    (`flags`: pacing inputs -> flag, None for @any), set by the lines of
    `presence`. Offsets read history deques, one per (stream, depth) of
    `history`. `outputs` holds each output's clauses as (condition, value)
    source, in evaluation order, and `pushes` the lines that push a step's
    values into the deques. Constants are bound in `ns`, the namespace the
    source runs in.

    An expression compiles to (tests, value, depth). `tests` lists, in
    evaluation order, checks that hold when a stream read is ABSENT; each
    is (guards, text) and runs only while its guards hold, so the reads of
    an offset default run only when history is short. `value` computes the
    expression once no test holds, and `depth` is its bracket nesting.
    """

    def __init__(self, analyzed: AnalyzedSpec, pacings=()):
        spec = analyzed.spec
        self.inputs = spec.input_names()
        self.history = tuple(
            (n, d) for n, d in analyzed.max_offset.items() if d > 0)
        self.local = {name: f"_v{i}" for i, name in enumerate(spec.stream_names())}
        self._deque = {n: f"_h{j}" for j, (n, _) in enumerate(self.history)}
        self.ns = dict(_RUNTIME)
        self._bound: dict = {}
        self._temps = itertools.count()

        # a presence flag per input some pacing names, and one per conjunction
        decls = {o.name: o for o in spec.outputs}
        outputs = [(name, decls[name].clauses) for name in analyzed.eval_order]
        order = {name: i for i, name in enumerate(self.inputs)}
        paced = {c.pacing.inputs for _, clauses in outputs for c in clauses}
        paced.update(pacings)
        self.flags: dict = {frozenset(): None}  # @any
        self.presence = []
        for name in sorted({n for p in paced for n in p}, key=order.get):
            self.flags[frozenset([name])] = flag = f"_p{order[name]}"
            self.presence.append(f"{flag} = {self.local[name]} is not ABSENT")
        for p in sorted((p for p in paced if len(p) > 1),
                        key=lambda p: sorted(map(order.get, p))):
            self.flags[p] = flag = f"_q{len(self.presence)}"
            self.presence.append(f"{flag} = " + " and ".join(
                self.flags[frozenset([n])] for n in sorted(p, key=order.get)))

        self.outputs = [(name, self._clauses(clauses))
                        for name, clauses in outputs]
        self.pushes = []
        for n, h in self._deque.items():
            self.pushes += [f"if {self.local[n]} is not ABSENT:",
                            f"    {h}.append({self.local[n]})"]

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
            local = self.local[e.name]
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
        h, k = self._deque[e.stream], e.offset
        short = f"not {h}" if k == 1 else f"len({h}) < {k}"
        tests = [((short, *guards), t) for guards, t in tests]
        return self._node(tests, f"({default} if {short} else {h}[-{k}])",
                          depth + 1)

    def code(self, e: Expr, known: frozenset = frozenset()):
        """(source for the value of `e` or ABSENT, whether it can be
        ABSENT)."""
        tests, value, _ = self.expr(e, known)
        if not tests or tests == [((), f"{value} is ABSENT")]:
            return value, bool(tests)  # a stream read as it is
        return f"(ABSENT if {_chain(tests)} else {value})", True

    def _clauses(self, clauses) -> list:
        """(condition, value) per clause, the condition None for a clause
        that always fires, after which no clause runs."""
        out = []
        for c in clauses:
            known = c.pacing.inputs
            value, _ = self.code(c.expr, known)
            cond = self.flags[known]
            if c.when is not None:
                when, absent = self.code(c.when, known)
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

    def compile(self, name: str, params: str, body: list) -> CompiledSpec:
        """`body` compiled as `step(params)`, made by `name` over the
        history deques."""
        deques = ", ".join(self._deque.values())
        text = "\n".join([f"def {name}({deques}):", f"    def step({params}):",
                          *_indent(body, 8), "    return step", ""])
        exec(compile(text, "<activemon spec>", "exec"), self.ns)
        return CompiledSpec(text, self.history, self.ns[name])


def _first_match(target, coded) -> list:
    """Lines that set `target` by the first clause of `coded` that fires,
    else to ABSENT: one conditional expression for one conditional clause."""
    if len(coded) == 1 and coded[0][0] is not None:
        cond, value = coded[0]
        return [f"{target} = ({value}) if {cond} else ABSENT"]
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


@dataclass(frozen=True)
class CompiledSpec:
    """One step function of a specification, as generated Python source
    compiled once.

    `make(*deques)` takes one history deque per entry of `history`
    ((stream, depth), in order) and returns the step function over them,
    which pushes each step's values into its deques. The monitor's
    `step(values, now)` evaluates one event and returns (its row tuple in
    stream order: every stream's value or ABSENT, in the order of
    `stream_names()`; the (trigger, message) pairs that fired). The
    verifier's `step(row, now)` recomputes every output from a model row
    and returns (the (stream, recomputed, held) of each that disagrees; the
    inputs present, bit i for input i in declaration order; the guards that
    hold, bit i for guard i).
    """

    source: str
    history: tuple
    make: Callable


def compile_spec(analyzed: AnalyzedSpec) -> CompiledSpec:
    """Generate and compile the monitor's step function; use
    `analyzed.compiled`, which caches this.

    Each stream is a local and each input has a presence flag; each output
    is first-match conditionals guarded by its clauses' pacing flags, in
    evaluation order, so an output whose pacing an event does not satisfy
    is ABSENT without evaluating anything.
    """
    source = _Source(analyzed)
    local, inputs = source.local, source.inputs
    lines = ["if not values.keys() <= _inputs:",
             "    _undeclared(values, _inputs)",
             "get = values.get"]
    lines += [f"{local[n]} = get({n!r}, ABSENT)" for n in inputs]
    lines += source.presence
    for name, coded in source.outputs:
        lines += [f"# {name!r}", *_first_match(local[name], coded)]
    lines.append("_fired = []")
    for name, trig in zip(analyzed.trigger_names, analyzed.spec.triggers):
        fired = source.bind((name, trig.message), "_r")
        lines += [f"if {source.code(trig.expr)[0]} is True:",
                  f"    _fired.append({fired})"]
    lines += source.pushes
    row = "".join(f"{v}, " for v in local.values())
    lines.append(f"return ({row}), _fired")
    source.ns["_inputs"] = frozenset(inputs)
    return source.compile("_monitor", "values, now", lines)


def compile_verifier(analyzed: AnalyzedSpec, guards=()) -> CompiledSpec:
    """Generate and compile the verifier's step function.

    It recomputes every output from a model row as the monitor computes it,
    each into a temporary, and decides each of `guards`, (condition,
    pacing) pairs: guard i holds, and sets bit i of the holding mask, when
    its pacing's inputs are present and its condition is True.

    A step compares the tuple of recomputed outputs with the tuple of the
    row's recorded ones once. Tuple equality tries identity before `==`,
    so equal tuples mean that `values_equal` holds for every output; only
    when they differ is each output compared by `values_equal`, in
    evaluation order.
    """
    source = _Source(analyzed, (p.inputs for _, p in guards))
    local = source.local
    lines = [f"{', '.join(local.values())}, = row", *source.presence]
    cells = []  # (name, its recomputation, its recorded value)
    for name, coded in source.outputs:
        temp = source._temp()
        cells.append((name, temp, local[name]))
        lines += _first_match(temp, coded)
    recomputed = "".join(f"{t}, " for _, t, _ in cells)
    recorded = "".join(f"{v}, " for _, _, v in cells)
    lines += [f"if ({recomputed}) == ({recorded}):", "    _bad = ()",
              "else:", "    _bad = [_e for _e in (",
              *(f"        ({name!r}, {t}, {v})," for name, t, v in cells),
              "    ) if not values_equal(_e[1], _e[2])]",
              "_g = 0"]
    for i, (condition, pacing) in enumerate(guards):
        test = source.code(condition, pacing.inputs)[0]
        lines += [f"if {source.flags[pacing.inputs]} and {test} is True:",
                  f"    _g |= {1 << i}"]
    present = " | ".join(f"({local[n]} is not ABSENT) << {i}"
                         for i, n in enumerate(source.inputs))
    lines += [f"_m = {present or 0}", *source.pushes, "return _bad, _m, _g"]
    return source.compile("_verifier", "row, now", lines)


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
        self.quantum = quantum
        self.step = 0
        self.tick = -math.inf  # the tick of the last step
        compiled = analyzed.compiled
        # history keeps only the non-absent values still reachable by offsets
        self.evaluate = compiled.make(
            *(deque(maxlen=depth) for _, depth in compiled.history))


def eval_event(state: MonitorState, tick: int, values: dict):
    """Advance the monitor one step, to tick / state.quantum seconds.

    `values` maps each present input to its value. Returns (row,
    reports): the row tuple in stream order, the value or ABSENT of every
    stream at this step in the order of `stream_names()`, and the triggers
    that fired, each a TriggerReport on the step's reduced tick and
    quantum, so no exact time is built. The state is updated in place.
    """
    if tick <= state.tick:
        q = state.quantum
        raise NonMonotonicTime(f"event at {Fraction(tick, q)} does not "
                               f"advance past {Fraction(state.tick, q)}")
    if not values:
        raise ValueError("an event must carry at least one input value")
    quantum = state.quantum
    current, fired = state.evaluate(values, tick / quantum)
    step = state.step
    state.step = step + 1
    state.tick = tick
    if fired:
        # TriggerReport.at's reduction, once for the step's reports, each
        # built by _make, which skips the keyword-handling constructor
        g = math.gcd(tick, quantum)
        tick //= g
        quantum //= g
        fired = [TriggerReport._make((name, step, tick, quantum, message))
                 for name, message in fired]
    return current, fired


def run_monitor_full(analyzed: AnalyzedSpec, events, quantum: int,
                     observe: Optional[Callable] = None):
    """Execute the monitor over a whole trace: its model and triggers.

    `events` are (tick, values) pairs at tick / quantum seconds. Each row
    goes to `observe`, when given, before the next event is drawn, so a
    closed loop can plan its next event from the rows so far. An event
    only evaluates, observes and records its tick, its row's cells and its
    trigger reports. The cells go into one flat list, row after row, and
    become the model's columns by strided slices once the events run out,
    so no cycle pays for a transpose and no row tuple outlives its event.
    """
    state = MonitorState(analyzed, quantum)
    ticks: list = []
    cells: list = []
    reports: list[TriggerReport] = []
    for tick, values in events:
        current, fired = eval_event(state, tick, values)
        if observe is not None:
            observe(current)
        ticks.append(tick)
        cells.extend(current)
        if fired:
            reports.extend(fired)
    names = analyzed.spec.stream_names()
    width = len(names)
    streams = {name: cells[i::width] for i, name in enumerate(names)}
    return EvaluationModel(ticks, streams, quantum), reports


# ---------------------------------------------------------------------------
# the semantic oracle


def backward_rows(quantum: int, ticks, before: Optional[Fraction]):
    """(k, time, time before) of each row k of a nonempty block whose time
    does not advance past the row before it, `before` being the time of the
    row before the block (None for the first block)."""
    if ((before is None or Fraction(ticks[0], quantum) > before)
            and all(map(lt, ticks, itertools.islice(ticks, 1, None)))):
        return
    for k, tick in enumerate(ticks):
        time = Fraction(tick, quantum)
        if before is not None and time <= before:
            yield k, time, before
        before = time


def walk_model(analyzed: AnalyzedSpec, model, violations: list,
               guards=()):
    """Walk a finished model forward once, through the verifier.

    `model` is an EvaluationModel, walked as one block, or an iterable of
    blocks (quantum, ticks, columns) in step order, as `io.read_model_blocks`
    parses them: each block's ticks on its quantum, and its column of every
    stream in the order of `stream_names()`. Each block is verified as it is
    drawn; only the verifier's history deques and the last step's time
    outlive it. Those deques take the model's own rows, kept as deep as the
    spec's `max_offset`, as the monitor keeps them.

    Yields, per step, (present, holding): the present inputs and the
    `guards` that hold, as the verifier's bit masks. Once the walk is
    exhausted, `violations` has the model's semantic violations appended:
    the time-map ones first, then, in step order, each output cell that the
    verifier recomputes differently.
    """
    compiled = compile_verifier(analyzed, guards)
    check = compiled.make(*(deque(maxlen=d) for _, d in compiled.history))
    start = len(violations)
    timemap: list = []
    step, before = 0, None  # the time of the step before the block
    for quantum, ticks, columns in model_blocks(analyzed, model):
        if not ticks:
            continue
        timemap += (Violation("semantic", step + k, time,
                              f"time map not strictly increasing: {time} "
                              f"after {prior}")
                    for k, time, prior in backward_rows(quantum, ticks, before))
        before = Fraction(ticks[-1], quantum)
        for t, tick, row in zip(itertools.count(step), ticks, zip(*columns)):
            wrong, present, holding = check(row, tick / quantum)
            if wrong:
                time = Fraction(tick, quantum)
                violations.extend(Violation(
                    "semantic", t, time, f"stream '{name}' holds {actual!r}, "
                    f"recomputation gives {expected!r}", stream=name)
                    for name, expected, actual in wrong)
            yield present, holding
        step += len(ticks)
    violations[start:start] = timemap


def verify_model(analyzed: AnalyzedSpec, model) -> list[Violation]:
    """Recompute every output at every step; report every disagreement.

    An empty result means the model is a member of the specification's
    semantics: timestamps strictly increase and each output cell equals the
    first-match clause evaluation over the model itself. This is
    `walk_model` with no guards, over an EvaluationModel or its blocks:
    time-map violations come first, then the cells in step order.
    """
    violations: list[Violation] = []
    for _ in walk_model(analyzed, model, violations):
        pass
    return violations


__all__ = [
    "ABSENT", "CompiledSpec", "EvaluationModel", "MAX_STEPS",
    "MonitorState", "Timeline", "TriggerReport", "Violation", "backward_rows",
    "check_steps", "compile_spec", "compile_verifier", "eval_event",
    "extend_ticks", "model_blocks", "run_monitor_full", "values_equal",
    "verify_model", "walk_model",
]
