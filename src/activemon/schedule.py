"""Static scheduling tables and the per-step obligation oracle.

Turns the annotations of an analyzed specification into a per-task table
of (condition, value) regions, each the conjunction of annotation guards,
and answers, one step of a finished run at a time, which tasks the
scheduler was obliged to satisfy. `check_scheduled_model` walks the model
once through the verifier, which decides each distinct guard behind its
pacing flag, and feeds every step to a `DecisionOracle`, whose state does
not grow with the run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import AnalyzedSpec
from .ast import Expr, Pacing, conjoin
from .engine import EvaluationModel, Violation, walk_model
from .errors import MixedAnnotationKinds, PreconditionViolation

# a task is a nonempty set of input streams queried together
Task = frozenset

MODE_DEADLINE = "deadline"
MODE_PRIORITY = "priority"
MODE_DP = "dp"
MODES = (MODE_DEADLINE, MODE_PRIORITY, MODE_DP)


def task_key(task: Task) -> tuple:
    """Deterministic sort key; shorter tasks precede their supersets."""
    return tuple(sorted(task))


def format_task(task: Task) -> str:
    return "{" + ",".join(sorted(task)) + "}"


@dataclass(frozen=True)
class ScheduleEntry:
    """One region of a task's schedule table.

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
    universe: frozenset
    direct: tuple  # direct tasks, declaration order
    entries: dict  # Task -> tuple[ScheduleEntry, ...], most restrictive first
    bounds: dict  # Task -> Optional[Fraction], per-task staleness deadline
    tracked: frozenset  # direct tasks whose last satisfaction is observable
    joint: dict  # Task -> frozenset[Task], direct tasks covering its regions
    # (stream, clause index) -> (condition, pacing) of each region source,
    # in stream order
    guards: dict

    def restrictive(self) -> Callable[[list], object]:
        """Combine same-step region values to the most restrictive one."""
        return min if self.mode == MODE_DEADLINE else max


def union_closure(base: set) -> frozenset:
    """Every nonempty union of a subset of `base`, one base task at a time."""
    tasks: set = set()
    for b in base:
        if b:
            tasks |= {b} | {t | b for t in tasks}
    return frozenset(tasks)


def build_task_universe(analyzed: AnalyzedSpec) -> frozenset:
    """Union closure of clause pacings and annotated-input singletons."""
    base: set = set()
    for out in analyzed.spec.outputs:
        for clause in out.clauses:
            if clause.pacing is not None and not clause.pacing.is_any:
                base.add(frozenset(clause.pacing.inputs))
    for inp in analyzed.spec.inputs:
        if inp.annotation is not None and not inp.annotation.is_empty():
            base.add(frozenset({inp.name}))
    return union_closure(base)


def _stream_order(analyzed: AnalyzedSpec) -> list:
    return [i.name for i in analyzed.spec.inputs] + [
        o.name for o in analyzed.spec.outputs
    ]


def build_static_schedule(analyzed: AnalyzedSpec, mode: str) -> StaticSchedule:
    """Derive the per-task region table for one scheduling mode.

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

    # region values for this mode, per stream
    chains: dict = {}
    for name in _stream_order(analyzed):
        chain = ann.get(name)
        if not chain:
            continue
        if mode == MODE_DEADLINE:
            kept = [(e, e.deadline) for e in chain if e.deadline is not None]
        else:
            kept = [(e, e.priority) for e in chain if e.priority is not None]
        if kept:
            chains[name] = kept

    universe = build_task_universe(analyzed)

    direct: list = []
    for name in _stream_order(analyzed):
        if name in ann and ann[name]:
            task = frozenset(ann[name][0].pacing.inputs)
            if task and task not in direct:
                direct.append(task)

    combine = min if mode == MODE_DEADLINE else max
    entries: dict = {}
    joint: dict = {}
    for task in universe:
        contributors = [
            name for name in chains
            if ann[name][0].pacing.inputs <= task
        ]
        regions = []
        # product of zero chains would yield one degenerate empty region
        for combo in itertools.product(*(chains[n] for n in contributors)) \
                if contributors else ():
            condition = conjoin([e.condition for e, _ in combo])
            pacing_inputs: set = set()
            for e, _ in combo:
                pacing_inputs |= e.pacing.inputs
            regions.append(ScheduleEntry(
                condition=condition,
                pacing=Pacing.of(pacing_inputs),
                value=combine(v for _, v in combo),
                sources=tuple((e.source, e.clause_index) for e, _ in combo),
            ))
        reverse = mode != MODE_DEADLINE  # high priority first, short deadline first
        regions.sort(key=lambda r: r.value, reverse=reverse)
        entries[task] = tuple(regions)
        joint[task] = frozenset(
            frozenset(ann[n][0].pacing.inputs) for n in contributors)

    bounds: dict = {}
    for task in universe:
        if mode == MODE_PRIORITY:
            bounds[task] = None
            continue
        cands = [
            e.deadline
            for name, chain in ann.items()
            if chain and chain[0].pacing.inputs <= task
            for e in chain
            if e.deadline is not None
        ]
        if cands:
            bounds[task] = min(cands)
        elif default_deadline is not None and any(
                chain and chain[0].pacing.inputs <= task
                for chain in ann.values()):
            bounds[task] = default_deadline
        else:
            bounds[task] = None

    tracked = frozenset(
        t for t in direct
        if entries.get(t) or (mode != MODE_PRIORITY and bounds.get(t) is not None)
    )

    return StaticSchedule(
        mode=mode,
        universe=universe,
        direct=tuple(direct),
        entries=entries,
        bounds=bounds,
        tracked=tracked,
        joint=joint,
        guards={(e.source, e.clause_index): (e.condition, e.pacing)
                for kept in chains.values() for e, _ in kept},
    )


# ---------------------------------------------------------------------------
# per-step obligations


class DecisionOracle:
    """Decides, one step of a run at a time, which tasks had to be served.

    `decide` is fed each step of a model in order and returns the tasks
    obliged at the step before: those the scheduler had to satisfy at the
    step fed. Every other task was the scheduler's free choice.

    The state is O(tasks) and does not grow with the run: the sticky current
    value of each task (the most restrictive value among its regions that
    held at the last step where any did), the tick of each tracked task's
    last satisfaction and, in deadline mode, each task's expiry. That is
    the least, over the task's regions, of a region's first onset since the
    task's last satisfaction (that step included) plus the region's
    deadline; a later onset of the same region cannot expire sooner, so
    this one number decides the deadline rule. A region holds exactly when
    every guard named in its sources holds, and each distinct guard is one
    bit of the `holding` mask that the verifier computes for `guards`.
    """

    def __init__(self, analyzed: AnalyzedSpec, schedule: StaticSchedule,
                 quantum: int):
        self.schedule = schedule
        self.deadline = schedule.mode == MODE_DEADLINE
        period = analyzed.config.period
        # exact time in ticks on a quantum that holds both the model's times
        # (on `quantum`) and the period, so that steps past the end are
        # ticks too
        self.quantum = math.lcm(quantum, period.denominator)
        self.scale = self.quantum // quantum
        self.period_ticks = int(period * self.quantum)
        self.inputs = analyzed.spec.input_names()
        # every per-step verdict and violation follows this one order
        self.tasks = sorted(schedule.universe, key=task_key)

        # the distinct guards, in schedule order, and per task with regions
        # its position and (guard mask, value) per region; in deadline mode
        # the value is the deadline in whole ticks, since an age in ticks is
        # an integer, so age > d exactly when age > floor(d * quantum)
        self.guards = list(dict.fromkeys(schedule.guards.values()))
        bit = {guard: 1 << i for i, guard in enumerate(self.guards)}
        self.regions = [
            (pos, [(sum({bit[schedule.guards[s]] for s in e.sources}),
                    self._floor_ticks(e.value) if self.deadline else e.value)
                   for e in chain])
            for pos, task in enumerate(self.tasks)
            if (chain := schedule.entries.get(task))]

        # staleness: the distinct bounds, and per task its position, its
        # bound's index and the tracked subtasks whose satisfaction
        # refreshes it (a tuple, which is smaller than a set); an age <= b
        # exactly when age <= floor(b * quantum)
        bounds = sorted({b for b in schedule.bounds.values() if b is not None})
        index = {b: i for i, b in enumerate(bounds)}
        self.bound_ticks = [self._floor_ticks(b) for b in bounds]
        self.staleness = [
            (pos, index[schedule.bounds[task]],
             tuple(t for t in schedule.tracked if t <= task))
            for pos, task in enumerate(self.tasks)
            if schedule.bounds.get(task) is not None
        ]

        self.tick: Optional[int] = None  # of the last step fed
        self.current: list = [None] * len(self.tasks)
        self.expiry: list = [None] * len(self.tasks)
        self.last: dict = {}  # tracked task -> tick of its last satisfaction
        self.satisfied: frozenset = frozenset()  # at the last step fed
        # at the last step fed, in the priority modes
        self.overdue = bytes(len(self.tasks))
        # shared by every step with the same key
        self._sat: dict = {}  # present mask -> satisfied tasks
        self._holds: dict = {}  # holding mask -> (position, value) of tasks
        self._overdue: dict = {}  # fresh subtasks per bound -> overdue flags

    def _floor_ticks(self, seconds) -> int:
        return math.floor(seconds * self.quantum)

    def _satisfied(self, present: int) -> tuple:
        """(satisfied tasks, their positions, the tracked ones) under a mask
        of present inputs."""
        got = self._sat.get(present)
        if got is None:
            inputs = frozenset(name for i, name in enumerate(self.inputs)
                               if present >> i & 1)
            positions = [pos for pos, t in enumerate(self.tasks) if t <= inputs]
            sat = frozenset(self.tasks[pos] for pos in positions)
            got = self._sat[present] = (sat, positions,
                                        sat & self.schedule.tracked)
        return got

    def _holding(self, holding: int) -> list:
        """(position, most restrictive value) of each task some region of
        which holds under a mask of holding guards."""
        got = self._holds.get(holding)
        if got is None:
            combine = self.schedule.restrictive()
            got = self._holds[holding] = [
                (pos, combine(hold))
                for pos, regions in self.regions
                if (hold := [v for m, v in regions if holding & m == m])]
        return got

    def _overdue_flags(self, now: int) -> bytes:
        """One byte per task: whether it is stale at tick `now`. A bounded
        task is overdue unless one of its tracked subtasks was last
        satisfied within its bound. The flags depend only on the fresh
        subtasks per bound, so they are built once per distinct tuple of
        those."""
        fresh = tuple(frozenset(sub for sub, last in self.last.items()
                                if now - last <= bound)
                      for bound in self.bound_ticks)
        over = self._overdue.get(fresh)
        if over is None:
            flags = bytearray(len(self.tasks))
            for pos, i, subs in self.staleness:
                flags[pos] = fresh[i].isdisjoint(subs)
            over = self._overdue[fresh] = bytes(flags)
        return over

    def decide(self, tick: int, present: int, holding: int,
               next_tick: Optional[int] = None) -> list:
        """Feed one step; return the tasks obliged at the step before.

        `tick` is the step's time on the model's quantum, `present` and
        `holding` the verifier's masks of present inputs and holding
        guards, and `next_tick` the following step's tick, None after the
        last step. Deadline verdicts look ahead to that tick, past the end
        one period on. The first step has no step before it and obliges
        nothing.
        """
        tick *= self.scale
        self.satisfied, positions, tracked = self._satisfied(present)
        obliged = []
        if self.deadline:
            if self.tick is not None:
                horizon = (tick + self.period_ticks if next_tick is None
                           else next_tick * self.scale)
                obliged = [task for task, e in zip(self.tasks, self.expiry)
                           if e is not None and e < horizon]
        else:
            # priority mode sets no staleness bounds: nothing is overdue
            self.overdue = self._overdue_flags(tick)
            if self.tick is not None:
                obliged = self._priority(self.overdue, positions)

        # then this step's satisfactions and regions
        for task in tracked:
            self.last[task] = tick
        if self.deadline:
            expiry = self.expiry
            for pos in positions:
                expiry[pos] = None
            for pos, d in self._holding(holding):
                if expiry[pos] is None or tick + d < expiry[pos]:
                    expiry[pos] = tick + d
        else:
            for pos, value in self._holding(holding):
                self.current[pos] = value
        self.tick = tick
        return obliged

    def _priority(self, over: bytes, positions: list) -> list:
        """An unserved task is obliged when a fresh satisfied task has a
        strictly lower current priority, and an overdue task is obliged as
        soon as any fresh task is satisfied."""
        current = self.current
        fresh = [pos for pos in positions if not over[pos]]
        if not fresh:
            return []
        floor = min((v for pos in fresh if (v := current[pos]) is not None),
                    default=None)
        sat = self.satisfied
        return [task for task, o, p in zip(self.tasks, over, current)
                if o or (floor is not None and p is not None and p > floor
                         and task not in sat)]  # as is under a satisfied superset


# ---------------------------------------------------------------------------
# model-level checks


def check_scheduled_model(analyzed: AnalyzedSpec, schedule: StaticSchedule,
                          bound: int, model: EvaluationModel) -> list:
    """Semantic, bandwidth and obligation conformance of a finished run.

    One forward walk of the model through the verifier yields its semantic
    violations and, per step, the present inputs and holding guards that
    the `DecisionOracle` is fed. Semantic violations come first, then the
    bandwidth ones, then the missed obligations by step and sorted task.
    """
    violations: list = []
    bandwidth: list = []
    missed: list = []
    oracle = DecisionOracle(analyzed, schedule, model.quantum)
    ticks = model.ticks
    keys = {task: task_key(task) for task in oracle.tasks}
    walk = walk_model(analyzed, model, violations, oracle.guards)
    for step, (present, holding) in enumerate(walk):
        nxt = step + 1
        obliged = oracle.decide(ticks[step], present, holding,
                                ticks[nxt] if nxt < len(ticks) else None)
        unserved = [task for task in obliged if task not in oracle.satisfied]
        width = present.bit_count()
        if unserved or width > bound:
            time = model.time_at(step)  # shared by the step's violations
            if width > bound:
                bandwidth.append(Violation(
                    kind="bandwidth", step=step, time=time,
                    detail=f"{width} inputs arrive at once, bound is {bound}"))
            missed.extend(Violation(
                kind="schedule", step=step, time=time,
                detail="obligated task left unsatisfied", task=keys[task])
                for task in unserved)
    return violations + bandwidth + missed
