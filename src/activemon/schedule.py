"""Static scheduling tables and the per-step obligation oracle.

A task is a nonempty set of input streams queried together, kept as an
`int` bit mask over the inputs in declaration order: bit i is input i, the
bit order of the present mask that the verifier yields. A task is
satisfied under the present inputs p when `task & ~p == 0`, and two tasks
unite as `a | b`.

Each annotated stream has a chain of guarded entries, and the chain
contributes to every task that contains the stream's pacing, its direct
task. Only direct tasks get a literal region table: the product of their
contributing chains, each region the conjunction of its entries' guards,
which `translate` turns into `schedule_*` helpers. Every other task follows
by rule from its contributing chains. A product region holds exactly when
each of its guards holds, so a task has a holding region exactly when each
contributing chain has a holding entry, and its most restrictive holding
region has the max (in deadline mode, the min) of those chains' most
restrictive holding values. A task's staleness bound is the least deadline
among the annotations that contribute to it, or the header's default when
none of them has one; priority mode sets none.

The schedule keeps the base tasks, the clause pacings and the
annotated-input singletons, and no table per task: the tasks inside a mask
of inputs are the unions of the base tasks inside it, which
`StaticSchedule.tasks` enumerates for the mask and width asked, never
growing a union already too wide. The scheduler asks for the tasks within
the bandwidth, and the oracle for those that the present inputs satisfy;
the whole union closure, `universe`, is built only for the precondition
report and for an oracle over direct tasks. The direct tasks are kept
least deadline first, and `inside` and `bound` derive a task's direct
subtasks and its bound from them when asked.

`check_scheduled_model` walks the model once through the verifier, a block
at a time as it is read, which decides each distinct guard behind its
pacing flag; it keeps each step's tick and its masks of present inputs and
holding guards, and feeds them to a `DecisionOracle` once the walk has fixed
the quantum. The oracle's state does not grow with the run, and a step
visits only the tasks it can oblige.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from .analysis import AnalyzedSpec
from .ast import Expr, Pacing, conjoin
from .engine import Timeline, Violation, model_blocks, walk_model
from .errors import MixedAnnotationKinds, PreconditionViolation

# a task is a nonempty set of input streams queried together, as a bit mask
# over the inputs in declaration order
Task = int

MODE_DEADLINE = "deadline"
MODE_PRIORITY = "priority"
MODE_DP = "dp"
MODES = (MODE_DEADLINE, MODE_PRIORITY, MODE_DP)


def task_of(names, inputs) -> Task:
    """The task of a collection of input names."""
    return sum(1 << i for i, name in enumerate(inputs) if name in names)


def task_names(task: Task, inputs) -> list:
    """The inputs of a task, in declaration order."""
    return [name for i, name in enumerate(inputs) if task >> i & 1]


def task_key(task: Task, inputs) -> tuple:
    """Deterministic sort key, the task's sorted input names; shorter tasks
    precede their supersets."""
    return tuple(sorted(task_names(task, inputs)))


def format_task(task: Task, inputs) -> str:
    return "{" + ",".join(task_key(task, inputs)) + "}"


def submasks(keys, mask: int):
    """The keys of `keys` (bit masks, zero allowed) that lie inside `mask`:
    found through the submasks of `mask` when they are fewer than the keys,
    else through the keys."""
    if 1 << mask.bit_count() <= len(keys):
        sub = mask
        while True:
            if sub in keys:
                yield sub
            if not sub:
                return
            sub = (sub - 1) & mask
    else:
        for key in keys:
            if not key & ~mask:
                yield key


@dataclass(frozen=True)
class ScheduleEntry:
    """One region of a direct task's schedule table.

    ``condition`` holds under ``pacing``; while it is the most recently
    satisfied region, ``value`` is the task's current priority (int) or
    deadline (Fraction seconds).  ``sources`` names the contributing
    (stream, clause index) pairs, clause index -1 for input annotations.
    """

    condition: Expr
    pacing: Pacing
    value: object
    sources: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class StaticSchedule:
    mode: str
    inputs: tuple  # input names; bit i of a task is inputs[i]
    base: frozenset  # clause pacings and annotated-input singletons
    direct: tuple  # direct tasks, declaration order
    entries: dict  # direct Task -> tuple[ScheduleEntry, ...], most restrictive first
    # per direct task, the chains of the streams paced on it that carry a
    # value in this mode, each a tuple of ((stream, clause index), value)
    chains: tuple
    # per direct task k, least deadline first (ties in declaration order):
    # (direct[k], 1 << k, the staleness bound it gives the tasks that
    # contain it: its least deadline, else the header's default; None in
    # priority mode)
    by_deadline: tuple
    tracked: frozenset  # direct tasks whose last satisfaction is observable
    # (stream, clause index) -> (condition, pacing) of each region source,
    # in stream order
    guards: dict

    def restrictive(self) -> Callable[[list], object]:
        """Combine same-step region values to the most restrictive one."""
        return min if self.mode == MODE_DEADLINE else max

    def key(self, task: Task) -> tuple:
        return task_key(task, self.inputs)

    @cached_property
    def distinct_guards(self) -> tuple:
        """The distinct guards of `guards`, in schedule order; guard i is
        bit i of the holding mask that the verifier decides for them."""
        return tuple(dict.fromkeys(self.guards.values()))

    def tasks(self, within: int = -1, width: Optional[int] = None) -> frozenset:
        """The tasks inside a mask of inputs (every task by default), at
        most `width` inputs wide when given: the unions of the base tasks
        inside the mask."""
        return union_closure([b for b in self.base if not b & ~within], width)

    @cached_property
    def universe(self) -> frozenset:
        """Every task, the union closure of the base tasks."""
        return self.tasks()

    def inside(self, task: Task) -> int:
        """The mask with bit k set when direct[k] lies inside a task."""
        mask = 0
        for sub, bit, _ in self.by_deadline:
            if not sub & ~task:
                mask |= bit
        return mask

    def bound(self, task: Task):
        """A task's staleness bound, Optional[Fraction]: the one that the
        first direct task inside it, least deadline first, gives (see
        `by_deadline`); None when it contains no direct task."""
        for sub, _, bound in self.by_deadline:
            if not sub & ~task:
                return bound
        return None

    def joint(self, task: Task) -> tuple:
        """The direct tasks whose chains contribute to a task's regions, in
        declaration order; empty when it has no regions."""
        inside = self.inside(task)
        return tuple(sub for k, sub in enumerate(self.direct)
                     if inside >> k & 1 and self.chains[k])


def union_closure(base, width: Optional[int] = None) -> frozenset:
    """Every nonempty union of a subset of `base`, one base task at a time,
    at most `width` inputs wide when given. A union only grows, so one too
    wide is never extended."""
    limit = math.inf if width is None else width
    tasks: set = set()
    for b in base:
        if b and b.bit_count() <= limit:
            tasks |= {b} | {u for t in tasks if (u := t | b).bit_count() <= limit}
    return frozenset(tasks)


def _base_tasks(analyzed: AnalyzedSpec) -> set:
    """Clause pacings and annotated-input singletons."""
    inputs = analyzed.spec.input_names()
    # each distinct pacing once, in order of first appearance
    pacings = dict.fromkeys(
        clause.pacing.inputs for out in analyzed.spec.outputs
        for clause in out.clauses
        if clause.pacing is not None and not clause.pacing.is_any)
    base = {task_of(p, inputs) for p in pacings}
    for i, inp in enumerate(analyzed.spec.inputs):
        if inp.annotation is not None and not inp.annotation.is_empty():
            base.add(1 << i)
    return base


def build_task_universe(analyzed: AnalyzedSpec) -> frozenset:
    """Union closure of clause pacings and annotated-input singletons."""
    return union_closure(_base_tasks(analyzed))


def _stream_order(analyzed: AnalyzedSpec) -> list:
    return [i.name for i in analyzed.spec.inputs] + [
        o.name for o in analyzed.spec.outputs
    ]


def build_static_schedule(analyzed: AnalyzedSpec, mode: str) -> StaticSchedule:
    """Derive the per-task scheduling data for one scheduling mode.

    Deadline mode consumes deadline annotations and rejects priorities;
    the priority-based modes consume priorities, allow deadlines on
    inputs (staleness bounds) and reject them on output clauses.
    """
    if mode not in MODES:
        raise ValueError(f"unknown scheduling mode '{mode}'")
    default_deadline = analyzed.config.default_deadline

    ann = analyzed.annotations
    for name, chain in ann.items():
        for entry in chain:
            if entry.pacing.is_any:
                raise PreconditionViolation(
                    f"'{name}' carries an annotation on an any-paced clause; "
                    "tasks must pace on concrete inputs")

    if mode == MODE_DEADLINE:
        for name, chain in ann.items():
            for entry in chain:
                if entry.priority is not None:
                    raise MixedAnnotationKinds(
                        f"'{name}' has a priority annotation; deadline mode "
                        "accepts only deadline annotations")
    else:
        for name, chain in ann.items():
            for entry in chain:
                if entry.clause_index >= 0 and entry.deadline is not None:
                    raise MixedAnnotationKinds(
                        f"'{name}' puts a deadline on an output clause; "
                        "priority-based modes take deadlines on inputs only")

    inputs = tuple(analyzed.spec.input_names())
    # per annotated stream, in stream order: its direct task (the pacing of
    # its first entry) and its entries with their values in this mode
    streams: list = []
    for name in _stream_order(analyzed):
        chain = ann.get(name)
        if not chain:
            continue
        if mode == MODE_DEADLINE:
            kept = [(e, e.deadline) for e in chain if e.deadline is not None]
        else:
            kept = [(e, e.priority) for e in chain if e.priority is not None]
        streams.append((task_of(chain[0].pacing.inputs, inputs), chain, kept))

    direct = tuple(dict.fromkeys(task for task, _, _ in streams))
    chains: list = [[] for _ in direct]
    deadlines: list = [[] for _ in direct]
    for task, chain, kept in streams:
        k = direct.index(task)
        if kept:
            chains[k].append(
                tuple(((e.source, e.clause_index), v) for e, v in kept))
        deadlines[k] += [e.deadline for e in chain if e.deadline is not None]

    # the regions of direct tasks, as the literal product of their
    # contributing chains
    combine = min if mode == MODE_DEADLINE else max
    entries: dict = {}
    for task in direct:
        contributing = [kept for sub, _, kept in streams
                        if kept and not sub & ~task]
        regions = []
        # product of zero chains would yield one degenerate empty region
        for combo in itertools.product(*contributing) if contributing else ():
            pacing_inputs: set = set()
            for e, _ in combo:
                pacing_inputs |= e.pacing.inputs
            regions.append(ScheduleEntry(
                condition=conjoin([e.condition for e, _ in combo]),
                pacing=Pacing.of(pacing_inputs),
                value=combine(v for _, v in combo),
                sources=tuple((e.source, e.clause_index) for e, _ in combo),
            ))
        reverse = mode != MODE_DEADLINE  # high priority first, short deadline first
        regions.sort(key=lambda r: r.value, reverse=reverse)
        entries[task] = tuple(regions)

    # per direct task, the bound that it gives the tasks that contain it;
    # they are kept least deadline first, so the first inside a task gives
    # its bound
    least = [min(d) if d else None for d in deadlines]
    bounds = [None if mode == MODE_PRIORITY
              else default_deadline if d is None else d for d in least]
    by_deadline = tuple(
        (direct[k], 1 << k, bounds[k])
        for k in sorted(range(len(direct)),
                        key=lambda k: (least[k] is None, least[k] or 0)))
    # a direct task is tracked when a direct task inside it has regions or
    # gives a bound
    marked = [sub for sub, c, b in zip(direct, chains, bounds)
              if c or b is not None]
    tracked = frozenset(t for t in direct
                        if any(not sub & ~t for sub in marked))

    return StaticSchedule(
        mode=mode,
        inputs=inputs,
        base=frozenset(_base_tasks(analyzed)),
        direct=direct,
        entries=entries,
        chains=tuple(tuple(c) for c in chains),
        by_deadline=by_deadline,
        tracked=tracked,
        guards={(e.source, e.clause_index): (e.condition, e.pacing)
                for _, _, kept in streams for e, _ in kept},
    )


# ---------------------------------------------------------------------------
# per-step obligations

_NOTHING = (frozenset(), ())  # no task is overdue, in order


class DecisionOracle:
    """Decides, one step of a run at a time, which tasks had to be served.

    `decide` is fed each step of a model in order and returns the tasks
    obliged at the step before: those the scheduler had to satisfy at the
    step fed. Every other task was the scheduler's free choice.

    The state is O(tasks) and does not grow with the run: the sticky current
    value of each task (the most restrictive value among its regions that
    held at the last step where any did), the tick of each tracked task's
    last satisfaction and, in deadline mode, each pending task's expiry.
    That is the least, over the task's regions, of a region's first onset
    since the task's last satisfaction (that step included) plus the
    region's deadline; a later onset of the same region cannot expire
    sooner, so this one number decides the deadline rule. A region holds
    exactly when every guard named in its sources holds, and each distinct
    guard is one bit of the `holding` mask that the verifier computes for
    `guards`.

    A step visits only the tasks that it can oblige or change: the
    satisfied ones, the overdue ones, those whose current value lies above
    the floor of the fresh satisfied tasks (the tasks are kept in buckets
    by current value), those with a holding region and, in deadline mode,
    the pending ones. Only the tasks it returns are put in task_key order.
    The satisfied tasks of a present mask are enumerated once, and only
    when read: by a priority verdict while some task is valued or overdue,
    by a deadline step while some task is pending, or through `satisfied`.
    So an oracle over a schedule without direct tasks enumerates none.

    In the priority modes a verdict depends only on the present mask, the
    overdue tasks and the current values, and the current values move at
    few steps. So a verdict is kept per (present mask, overdue tasks) and
    reused until a holding update changes some task's current value, and a
    step whose holding mask is the one applied last skips the update, which
    could change nothing since current values are sticky. Deadline mode
    decides every step afresh, as its expiries move with the tick.
    """

    def __init__(self, analyzed: AnalyzedSpec, schedule: StaticSchedule,
                 quantum: int):
        self.schedule = schedule
        self.deadline = schedule.mode == MODE_DEADLINE
        self.combine = schedule.restrictive()
        period = analyzed.config.period
        # exact time in ticks on a quantum that holds both the model's times
        # (on `quantum`) and the period, so that steps past the end are
        # ticks too
        self.quantum = math.lcm(quantum, period.denominator)
        self.scale = self.quantum // quantum
        self.period_ticks = int(period * self.quantum)

        # the distinct guards, in schedule order, and per direct task k its
        # chains of (guard bit, value); in deadline mode the value is the
        # deadline in whole ticks, since an age in ticks is an integer, so
        # age > d exactly when age > floor(d * quantum)
        self.guards = schedule.distinct_guards
        bit = {guard: 1 << i for i, guard in enumerate(self.guards)}
        self.chains = [
            [[(bit[schedule.guards[s]],
               self._floor_ticks(v) if self.deadline else v) for s, v in chain]
             for chain in chains]
            for chains in schedule.chains]
        valued = sum(1 << k for k, c in enumerate(schedule.chains) if c)
        # the tracked tasks as (bit k of direct task k, task); none in
        # deadline mode, which reads no staleness
        self.tracked = [(1 << k, t) for k, t in enumerate(schedule.direct)
                        if t in schedule.tracked and not self.deadline]
        tracked = sum(b for b, _ in self.tracked)

        # the tasks with regions by the mask of their contributing direct
        # tasks; per staleness bound in whole ticks (age <= b exactly when
        # age <= floor(b * quantum)), the bounded tasks by the mask of their
        # tracked subtasks, whose satisfaction refreshes them
        self.by_joint: dict = {}
        stale: dict = {}
        # id of a bound -> the bound in whole ticks; the bounds are a few
        # shared objects, and hashing a Fraction for every task is slow
        ticks: dict = {}
        inside_of, bound_of = schedule.inside, schedule.bound
        # without direct tasks no task has regions or a bound
        for task in schedule.universe if schedule.direct else ():
            inside = inside_of(task)
            if inside & valued:
                self.by_joint.setdefault(inside & valued, []).append(task)
            b = None if self.deadline else bound_of(task)
            if b is not None:
                if id(b) not in ticks:
                    ticks[id(b)] = self._floor_ticks(b)
                stale.setdefault(ticks[id(b)], {}).setdefault(
                    inside & tracked, []).append(task)
        self.bound_ticks = sorted(stale)
        self.stale = [stale[b] for b in self.bound_ticks]

        self.tick: Optional[int] = None  # of the last step fed
        self.current: dict = {}  # task -> current value, priority modes
        self.buckets: dict = {}  # current value -> its tasks
        self.expiry: dict = {}  # task -> expiry tick, deadline mode
        # tick of the last satisfaction of each tracked task, None if never
        self.last: list = [None] * len(self.tracked)
        self.present = 0  # mask of present inputs at the last step fed
        self.overdue: frozenset = frozenset()  # at the last step fed
        # shared by every step with the same key
        self._sat: dict = {}  # present mask -> satisfied tasks, once read
        self._fed: dict = {}  # present mask -> indices of tracked tasks
        self._holds: dict = {}  # holding mask -> (task, value) pairs
        # fresh subtasks per bound -> [overdue tasks, the same in order]
        self._overdue: dict = {}
        # per tracked task: the index of the least bound that it is fresh
        # for (len(bound_ticks) if none), and the tick from which that index
        # grows (its last satisfaction plus that bound plus one); `_until`
        # is at most the least of those ticks, and `_over` the overdue tasks
        # of the current indices, None once one moved (without bounds none
        # is overdue, and no index moves)
        never = len(self.bound_ticks)
        self._fresh = [never] * len(self.tracked)
        self._moves: list = [math.inf] * len(self.tracked)
        self._until = math.inf
        self._over: Optional[list] = None if self.bound_ticks else _NOTHING
        # the index of a task just satisfied, and the ticks after which
        # that index moves (None if it never does); ticks stay integers,
        # which may lie beyond float range
        self._reset = bisect_left(self.bound_ticks, 0)
        self._reset_moves = (self.bound_ticks[self._reset] + 1
                             if self._reset < never else None)
        # priority modes: (present mask, overdue tasks) -> verdict, while no
        # current value changes, and the holding mask applied last
        self._verdicts: dict = {}
        self._held: Optional[int] = None
        self.keys: dict = {}  # task -> task_key, of every task returned

    def _floor_ticks(self, seconds) -> int:
        return math.floor(seconds * self.quantum)

    def _in_order(self, tasks) -> tuple:
        """Tasks in task_key order, their keys kept in `keys`."""
        keys = self.keys
        for task in tasks:
            if task not in keys:
                keys[task] = self.schedule.key(task)
        return tuple(sorted(tasks, key=keys.__getitem__))

    @property
    def satisfied(self) -> frozenset:
        """The tasks satisfied at the last step fed."""
        return self._satisfied(self.present)

    def _satisfied(self, present: int) -> frozenset:
        """The tasks satisfied under a mask of present inputs, enumerated
        once per mask, when first read."""
        got = self._sat.get(present)
        if got is None:
            got = self._sat[present] = self.schedule.tasks(present)
        return got

    def _holding(self, holding: int) -> list:
        """(task, most restrictive value) of each task some region of which
        holds under a mask of holding guards, by rule: each of the task's
        contributing chains has a holding entry, and the value combines the
        chains' most restrictive holding values."""
        got = self._holds.get(holding)
        if got is None:
            combine = self.combine
            values: dict = {}  # bit of a contributing direct task -> value
            for k, chains in enumerate(self.chains):
                held = []
                for chain in chains:
                    hold = [v for m, v in chain if holding & m]
                    if not hold:
                        break
                    held.append(combine(hold))
                else:
                    if held:
                        values[1 << k] = combine(held)
            got = []
            for mask in submasks(self.by_joint, sum(values)):
                value = combine(v for b, v in values.items() if mask & b)
                got += [(task, value) for task in self.by_joint[mask]]
            self._holds[holding] = got
        return got

    def _overdue_at(self, now: int) -> list:
        """[the tasks that are stale at tick `now`, the same in task_key
        order once asked for]; none in priority mode, which sets no
        staleness bounds. A bounded task is overdue unless one of its
        tracked subtasks was last satisfied within its bound. The tasks
        depend only on the fresh subtasks per bound, which the index of the
        least bound that each tracked task is fresh for decides, so they are
        found once per distinct tuple of those indices. An index moves only
        when its task is satisfied (`decide` resets it) or its age passes
        its bound, so only those indices are found again."""
        bounds = self.bound_ticks
        if now >= self._until:
            never = len(bounds)
            fresh, moves = self._fresh, self._moves
            for j, last in enumerate(self.last):
                if moves[j] <= now:
                    fresh[j] = i = bisect_left(bounds, now - last)
                    moves[j] = last + bounds[i] + 1 if i < never else math.inf
            self._until = min(moves)
            self._over = None
        got = self._over
        if got is None:
            key = tuple(self._fresh)
            got = self._overdue.get(key)
            if got is None:
                every = sum(b for b, _ in self.tracked)
                tasks = []
                for i, groups in enumerate(self.stale):
                    stale = every & ~sum(b for (b, _), least in
                                         zip(self.tracked, key) if least <= i)
                    tasks += (task for subs in submasks(groups, stale)
                              for task in groups[subs])
                got = self._overdue[key] = [frozenset(tasks), None]
            self._over = got
        return got

    def decide(self, tick: int, present: int, holding: int,
               next_tick: Optional[int] = None) -> tuple:
        """Feed one step; return the tasks obliged at the step before, in
        task_key order, as a tuple that steps with the same verdict share.

        `tick` is the step's time on the model's quantum, `present` and
        `holding` the verifier's masks of present inputs and holding
        guards, and `next_tick` the following step's tick, None after the
        last step. Deadline verdicts look ahead to that tick, past the end
        one period on. The first step has no step before it and obliges
        nothing.
        """
        tick *= self.scale
        self.present = present
        tracked = self._fed.get(present)
        if tracked is None:
            tracked = self._fed[present] = [
                j for j, (_, t) in enumerate(self.tracked) if not t & ~present]
        obliged = ()
        if self.deadline:
            if self.tick is not None:
                horizon = (tick + self.period_ticks if next_tick is None
                           else next_tick * self.scale)
                obliged = self._in_order([task for task, e in
                                          self.expiry.items() if e < horizon])
        else:
            over = self._over
            if over is None or tick >= self._until:
                over = self._overdue_at(tick)
            self.overdue = over[0]
            if self.tick is not None:
                key = (present, over[0])
                obliged = self._verdicts.get(key)
                if obliged is None:
                    obliged = self._verdicts[key] = self._priority(over)

        # then this step's satisfactions and regions
        if tracked:
            moves = (math.inf if self._reset_moves is None
                     else tick + self._reset_moves)
            for j in tracked:
                self.last[j] = tick
                self._moves[j] = moves
                if self._fresh[j] != self._reset:
                    self._fresh[j] = self._reset
                    self._over = None
            if moves < self._until:
                self._until = moves
        if self.deadline:
            expiry = self.expiry
            if expiry:
                for task in self._satisfied(present):
                    expiry.pop(task, None)
            for task, d in self._holding(holding):
                if task not in expiry or tick + d < expiry[task]:
                    expiry[task] = tick + d
        elif holding != self._held:
            self._held = holding
            current, buckets = self.current, self.buckets
            for task, value in self._holding(holding):
                old = current.get(task)
                if old != value:
                    if old is not None:
                        buckets[old].discard(task)
                    buckets.setdefault(value, set()).add(task)
                    current[task] = value
                    self._verdicts.clear()
        self.tick = tick
        return obliged

    def _priority(self, over: list) -> tuple:
        """An unserved task is obliged when a fresh satisfied task has a
        strictly lower current priority, and an overdue task is obliged as
        soon as any fresh task is satisfied."""
        stale, current = over[0], self.current
        if not stale and not current:
            return ()  # no task is valued or overdue, so none is obliged
        sat = self.satisfied
        fresh = [task for task in sat if task not in stale]
        if not fresh:
            return ()
        floor = min((v for task in fresh if (v := current.get(task)) is not None),
                    default=None)
        # as is under a satisfied superset
        above = [] if floor is None else [
            task for value, group in self.buckets.items() if value > floor
            for task in group if task not in sat]
        if above:
            return self._in_order(stale.union(above))
        if over[1] is None:
            over[1] = self._in_order(stale)
        return over[1]


# ---------------------------------------------------------------------------
# model-level checks

# the most (verdict, present mask) pairs that `check_scheduled_model` keeps
_UNMET = 1024


def check_scheduled_model(analyzed: AnalyzedSpec, schedule: StaticSchedule,
                          bound: int, model) -> tuple:
    """Semantic, bandwidth and obligation conformance of a finished run.

    `model` is an EvaluationModel or its blocks, as `walk_model` takes
    them. One forward walk through the verifier yields its semantic
    violations and, per step, the present inputs and holding guards; the
    walk keeps those two masks and the step's tick, on the lcm of the
    blocks' quanta, and nothing else per step. Once the walk is done the
    quantum is final, and the `DecisionOracle` is fed every step.

    Returns (violations, steps, missed, ticks, quantum): the semantic
    violations and then the bandwidth ones, as `Violation`s; the steps
    that miss an obligation, in order, and per such step the tuple of its
    missed tasks in task_key order; and every step's tick on `quantum`,
    which times the misses. They come after the violations in `check`'s
    output; `io.violation_lines` renders both. A step's tuple is found
    once per distinct (verdict, present mask) pair and shared by every
    step with that pair, so the spool holds two words per step that
    misses anything, however many tasks it misses. `steps` is an
    array('q'), and the masks kept per step are an array('q') while they
    fit in 64 bits, else a list of ints.
    """
    violations: list = []
    guards = schedule.distinct_guards
    present = _masks(len(schedule.inputs))
    holding = _masks(len(guards))
    timeline = Timeline()
    for p, h in walk_model(analyzed,
                           timeline.follow(model_blocks(analyzed, model)),
                           violations, guards):
        present.append(p)
        holding.append(h)

    q, ticks = timeline.quantum, timeline.ticks
    steps, missed = array("q"), []
    # (verdict, present mask) -> the verdict's tasks outside the mask; the
    # verdicts repeat, and the memo is emptied when full, so its size does
    # not grow with the run
    unmet: dict = {}
    decide = DecisionOracle(analyzed, schedule, q).decide
    nexts = itertools.chain(itertools.islice(ticks, 1, None), (None,))
    for step, tick, nxt, p, h in zip(itertools.count(), ticks, nexts,
                                     present, holding):
        obliged = decide(tick, p, h, nxt)
        if obliged:
            tasks = unmet.get((obliged, p))
            if tasks is None:
                if len(unmet) == _UNMET:
                    unmet.clear()
                tasks = unmet[obliged, p] = tuple(
                    task for task in obliged if task & ~p)
            if tasks:
                steps.append(step)
                missed.append(tasks)
        width = p.bit_count()
        if width > bound:
            violations.append(Violation(
                "bandwidth", step, Fraction(tick, q),
                f"{width} inputs arrive at once, bound is {bound}"))
    return violations, steps, missed, ticks, q


def _masks(bits: int):
    """An empty sequence of ints below 2**bits: array('q') for up to 63
    bits, else a list."""
    return array("q") if bits < 64 else []
