"""Bandwidth-bounded active scheduling in closed loop with the monitor.

Each cycle the scheduler packs a maximal prefix of the affordable tasks,
ranked by mode-specific urgency, into the bandwidth budget, queries
exactly those sensors and feeds the event to the monitor.  The rank order
is kept between cycles: a task's key moves only when its value changes,
when it is refreshed while its key carries its age, or when it reaches its
staleness limit, so a cycle re-keys only the tasks that one of these
moved.  Tasks are the schedule's bit masks over the inputs: the working
tasks are those within the bound, `StaticSchedule.tasks` at that width,
packing unites masks with ``|``, and the tasks an event satisfies are
the working tasks inside its inputs, since the event fits the bound.  Urgency is read
back from the generated ``schedule_*``/``last_*`` helper streams of the
direct tasks, and a joint task's value combines its sources' values when
all of them fire together, so the loop needs no second interpretation of
the annotations.  Before the first cycle `build_precondition_report`
states whether every task fits the bandwidth, which, the tasks being
union-closed, is whether the widest, the union of them all, does.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_
from typing import NamedTuple, Optional

from .engine import ABSENT, EvaluationModel, check_steps, run_monitor_full
from .schedule import (
    MODE_DEADLINE,
    MODE_DP,
    StaticSchedule,
    format_task,
    submasks,
    task_names,
)
from .translate import Translation

_NEVER = float("-inf")
_UNRANKED = float("inf")


class EventPlan(NamedTuple):
    """One cycle's event; a tuple, cheap to build once per cycle."""

    tick: int  # the cycle runs at tick / quantum seconds
    quantum: int
    flat: frozenset  # input streams queried this cycle
    selected: frozenset  # the tasks the event satisfies

    @property
    def time(self) -> Fraction:
        return Fraction(self.tick, self.quantum)


def take_event(ordered, bound: int) -> int:
    """Pack a prefix of the ranked tasks into the bandwidth budget; return
    the mask of the inputs to query.

    Greedy and skip-free: packing stops at the first task that does not
    fit, so a lower-ranked task can never jump an unserved higher one.
    """
    flat = 0
    for task in ordered:
        union = flat | task
        if union.bit_count() > bound:
            break
        flat = union
    return flat


class SchedulerState:
    """Urgency caches and the rank order, kept exact between cycles.

    Time in the loop is the cycle index: `plan` is called once per cycle,
    at k * period for k = 0, 1, ..., and counts it; `observe` records, on
    every working superset of each tracked task whose `last_*` helper
    fired, the cycle at which it did. A task with staleness bound b is then
    overdue at cycle k iff k - seen > floor(b / period), which is exact
    because both sides are integers.

    `order` holds one rank key per working task, sorted; a key ends in the
    task's index in `working`, which breaks ties in task_key order, and in
    the task itself. A key can move for three reasons only: the task's
    value changed; the task was refreshed while its key carries its age
    (an overdue or unranked key, or any key in deadline mode); or the task
    reaches its staleness limit, at cycle seen + limit + 1. `observe` marks
    the tasks of the first two, and a calendar by that cycle gives those of
    the third; a task refreshed since it went on the calendar goes back on
    it at its new limit instead of being re-keyed. `plan` re-keys only the
    marked tasks, moving each changed key with bisect, and packs by walking
    `order` from the front; while no key has moved since the last pack, the
    order and so the event are the same, and the last event is reused.

    A direct task's `schedule_*` and `last_*` helpers are paced by exactly
    its inputs, so they can fire only in an event that queries all of
    them: `observe` reads the helpers of the direct tasks inside the event
    last planned, and combines only the joint tasks whose sources are all
    inside it.

    A state holds only what one run changes. The tables that depend only
    on the translation and the bound (the working tasks, the rows and
    joints `observe` reads, the static part of each key, the initial keys,
    order and aging set, and the events by mask) are built by the first
    state at that bound and cached on the translation, as
    `translation.scheduler_tables`; later states share them, and copy the
    initial keys, order and aging set, which a run changes.
    """

    def __init__(self, translation: Translation, bound: int):
        schedule = translation.schedule
        self.inputs = schedule.inputs
        self.period = translation.analyzed.config.period
        # cycle k runs at tick k * period.numerator on this quantum
        self.quantum = self.period.denominator
        self.bound = bound
        self.deadline = schedule.mode == MODE_DEADLINE
        self.values: dict = {}  # Task -> current schedule value, exact
        self.seen: dict = {}  # working Task -> cycle of its last satisfaction
        self.cycle = -1  # the cycle last planned
        self.combine = schedule.restrictive()
        tables = translation.scheduler_tables.get(bound)
        if tables is None:
            tables = translation.scheduler_tables[bound] = self._tables(
                translation)
        (self.working, self._rows, self._joint, self._static, keys, order,
         aging, self._events) = tables
        # each run re-keys its own copies of the initial rank order
        self._keys = dict(keys)
        self.order = list(order)
        # the tasks whose key carries the age, re-keyed when refreshed
        self._aging = set(aging)
        self._moved: set = set()  # tasks to re-key at the next plan
        self._calendar: dict = {}  # cycle -> tasks that may reach their limit
        self._event: Optional[tuple] = None  # the last one packed, while valid
        self.queried: tuple = ()  # the names of the last plan, in query order
        self._observed: tuple = ((), ())  # what the last plan's event can fire

    def _tables(self, translation: Translation) -> tuple:
        """What depends only on the translation and the bound, built
        once per bound and then shared by every run: the working tasks,
        the rows and joints that `observe` reads, the static part of each
        rank key, the initial keys, order and aging set, and the table of
        events by mask, which the runs fill as they pack."""
        schedule = translation.schedule
        working = sorted(schedule.tasks(width=self.bound), key=schedule.key)
        direct = frozenset(schedule.direct)
        # per direct task: the column of its schedule stream in the
        # monitor's row, with the map from the stream's payload back to the
        # exact value (deadline streams carry floats), and the column of its
        # last stream with the working tasks it refreshes
        column = {n: i for i, n in
                  enumerate(translation.plain.spec.stream_names())}
        rows = []
        for task in schedule.direct:
            kinds = translation.names[task]
            exact = {float(e.value) if self.deadline else e.value: e.value
                     for e in schedule.entries[task]}
            last = kinds.get("last")
            refreshed = frozenset(t for t in working if not task & ~t) \
                if last else frozenset()
            rows.append((task, column.get(kinds.get("schedule")), exact,
                         column.get(last), refreshed))
        # each joint task with its sources and the mask of their inputs:
        # its value can change only in a step in which all of them fired
        joint = {t: schedule.joint(t) for t in working}
        joints = [(t, sources, frozenset(sources), reduce(or_, sources))
                  for t, sources in joint.items()
                  if sources and t not in direct]
        # the static part of each rank key: the task's index in `working`,
        # whether it has regions, whether it is direct, and its staleness
        # limit in whole cycles (dp mode only); `_key` reads it
        stale = schedule.mode == MODE_DP
        self._static = {
            task: (i, bool(joint[task]), task in direct,
                   b // self.period if stale
                   and (b := schedule.bound(task)) is not None else None)
            for i, task in enumerate(working)}
        keys = {task: self._key(task) for task in working}
        # mask of queried inputs -> (their names, the tasks they satisfy,
        # the names in query order, the `_rows` of the direct tasks inside
        # and the `_joint` entries whose sources are all inside)
        events: dict = {}
        return (working, rows, joints, self._static, keys,
                sorted(keys.values()),
                frozenset(t for t, key in keys.items() if self._ages(key)),
                events)

    def _ages(self, key: tuple) -> bool:
        return self.deadline or key[0] in (0, 3)

    def _key(self, task) -> tuple:
        """The task's rank key at the cycle being planned.

        Deadline mode: deadlines never conflict through side satisfactions,
        so every task ranks on its own urgency, and a task never seen ranks
        as most urgent. Priority-based modes: overdue tasks go first, since
        serving stale tasks never counts as an inversion against anyone.
        Then direct tasks in strict observed-priority order with a stable
        tie break; rotating ties would rotate which side unions fire and
        leave stale union claims behind. Unknown-value tasks follow
        (serving them can satisfy low-priority side tasks, which is an
        inversion while any known higher-priority task is pending), then
        plain fillers. Non-overdue union tasks come dead last: they are
        satisfied for free whenever their parts are packed, and packing
        them directly would inject their weakest member into the event.
        """
        i, ranked, direct, limit = self._static[task]
        seen = self.seen.get(task)
        value = self.values.get(task)
        age = seen if seen is not None else _NEVER
        if self.deadline:
            if not ranked:
                return (3, 0, age, i, task)
            if value is None or seen is None:
                return (0, 0, age, i, task)
            return (1, seen * self.period + value, 0, i, task)
        urgency = -(value if value is not None else _UNRANKED)
        if limit is not None and (seen is None or self.cycle - seen > limit):
            return (0, urgency, age, i, task)
        if not ranked:
            return (3, 0, age, i, task)
        if not direct:
            return (4, urgency, 0, i, task)
        if value is not None:
            return (1, -value, 0, i, task)
        return (2, 0, 0, i, task)

    def _rekey(self, task) -> None:
        old = self._keys[task]
        new = self._key(task)
        if new == old:
            return
        order = self.order
        del order[bisect_left(order, old)]
        insort(order, new)
        self._keys[task] = new
        self._event = None
        if self._ages(new):
            self._aging.add(task)
        else:
            self._aging.discard(task)
        if old[0] == 0 and new[0] != 0:
            # no longer overdue: due again at its staleness limit
            limit = self._static[task][3]
            if limit is not None:
                self._calendar.setdefault(
                    self.seen[task] + limit + 1, []).append(task)

    def observe(self, row: tuple) -> None:
        """Fold the evaluated step of the cycle last planned, the monitor's
        row tuple in stream order, into the caches."""
        fired: dict = {}
        values, seen, cycle = self.values, self.seen, self.cycle
        moved, aging = self._moved, self._aging
        rows, joints = self._observed
        for task, name, exact, last, refreshed in rows:
            if name is not None:
                raw = row[name]
                if raw is not ABSENT:
                    value = fired[task] = exact.get(raw, raw)
                    if values.get(task) != value:
                        values[task] = value
                        moved.add(task)
            if last is not None and row[last] is not ABSENT:
                for sup in refreshed:
                    seen[sup] = cycle
                moved |= aging & refreshed
        done = fired.keys()
        for task, joint, members, _ in joints:
            if done >= members:
                value = self.combine([fired[s] for s in joint])
                if values.get(task) != value:
                    values[task] = value
                    moved.add(task)

    def plan(self, tick: int) -> EventPlan:
        """The event of the next cycle, which runs at tick / quantum s."""
        self.cycle = cycle = self.cycle + 1
        moved = self._moved
        for task in self._calendar.pop(cycle, ()):
            due = self.seen[task] + self._static[task][3] + 1
            if due > cycle:  # refreshed since: not yet stale
                self._calendar.setdefault(due, []).append(task)
            else:
                moved.add(task)
        if moved:
            keys = self._keys
            for task in moved:
                if task in keys:  # a direct task wider than the bound has none
                    self._rekey(task)
            moved.clear()
        event = self._event
        if event is None:
            flat = take_event(map(itemgetter(-1), self.order), self.bound)
            event = self._events.get(flat)
            if event is None:
                names = task_names(flat, self.inputs)
                # the event fits the bound, so the tasks inside it are
                # working tasks
                event = self._events[flat] = (
                    frozenset(names), frozenset(submasks(self._static, flat)),
                    tuple(sorted(names)),
                    ([row for row in self._rows if not row[0] & ~flat],
                     [j for j in self._joint if not j[3] & ~flat]))
            self._event = event
        self.queried = event[2]
        self._observed = event[3]
        return EventPlan(tick, self.quantum, event[0], event[1])


# ---------------------------------------------------------------------------
# static preconditions


@dataclass(frozen=True)
class PreconditionReport:
    """What `run` states about a schedule before its first cycle.

    The tasks are union-closed, so the widest is the union of all the
    others. When that task fits the bandwidth every task fits one
    event, the split bound is one event, and deadlines and staleness
    bounds are compared with a round of one period; otherwise the split
    bound diverges at the first oversized task and the comparison is
    skipped.
    """

    mode: str
    bound: int
    max_task_size: int
    oversized: tuple  # tasks wider than the bandwidth, never schedulable
    deadline_warnings: tuple
    inputs: tuple  # names of the tasks' bits

    @property
    def ok(self) -> bool:
        return not self.oversized

    def lines(self) -> list:
        out = [f"mode={self.mode} bound={self.bound} "
               f"max_task_size={self.max_task_size} ok={self.ok}"]
        for task in self.oversized:
            out.append(f"unschedulable task {format_task(task, self.inputs)}: "
                       f"wider than bandwidth {self.bound}")
        if self.oversized:
            out.append("split bound unavailable: task "
                       f"{format_task(self.oversized[0], self.inputs)} exceeds "
                       f"bandwidth {self.bound}; the split bound diverges")
            out.append("deadline and staleness warnings skipped: "
                       "they need the split bound")
        else:
            out.append("split bound: worst 1, best 1")
        out.extend(self.deadline_warnings)
        return out


def build_precondition_report(schedule: StaticSchedule, bound: int,
                              period: Fraction) -> PreconditionReport:
    """Oversized tasks in task_key order and, when there are none, the
    bounds within one period. A task's bound is its staleness deadline; in
    deadline mode, which takes no priorities, a task has one exactly when
    it has regions, and it is the least deadline of its contributing
    chains."""
    inputs = schedule.inputs
    tasks = sorted(schedule.universe, key=schedule.key)
    oversized = tuple(t for t in tasks if t.bit_count() > bound)
    warnings: list = []
    if not oversized:
        kind, tail = ("deadline", "; it can be missed") \
            if schedule.mode == MODE_DEADLINE else ("staleness bound", "")
        for task in tasks:
            b = schedule.bound(task)
            if b is not None and b <= period:
                warnings.append(
                    f"{kind} {float(b)}s on {format_task(task, inputs)} is "
                    f"within the worst-case round of {float(period)}s{tail}")
    return PreconditionReport(
        mode=schedule.mode,
        bound=bound,
        max_task_size=max((t.bit_count() for t in tasks), default=0),
        oversized=oversized,
        deadline_warnings=tuple(warnings),
        inputs=inputs,
    )


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class ScheduledRun:
    translation: Translation
    model: EvaluationModel
    triggers: list
    plans: list
    report: PreconditionReport


def run_scheduled(translation: Translation, source, horizon,
                  bound: Optional[int] = None) -> ScheduledRun:
    """Drive the scheduler against a sensor source for `horizon` seconds.

    Cycles run at the configured event frequency starting at time zero.
    A cycle that queries anything asks the source for the planned sensors
    in one `source.read(sensors, tick, quantum)` request. `run_monitor_full`
    evaluates and records each cycle's event and hands its row to
    `SchedulerState.observe` before the next cycle is planned.
    The run proceeds even when the precondition report is negative;
    tasks wider than the bandwidth are simply never scheduled. More than
    MAX_STEPS cycles raise TooManySteps before any cycle runs.
    """
    config = translation.analyzed.config
    period = config.period
    if bound is None:
        bound = config.bandwidth
    horizon = Fraction(horizon)
    cycles = math.ceil(horizon / period)
    check_steps(cycles, f"a {float(horizon)} s scheduled run")

    report = build_precondition_report(translation.schedule, bound, period)
    state = SchedulerState(translation, bound)
    # cycle k runs at tick k * period.numerator on the quantum
    # period.denominator; the plan and the sensor read take the tick
    num, quantum = period.numerator, period.denominator
    read, plan_at = source.read, state.plan
    plans: list = []

    def events():
        # the monitor hands each event's row to `observe` before it draws
        # the next event, whose plan reads it
        for k in range(cycles):
            tick = k * num
            plan = plan_at(tick)
            plans.append(plan)
            if plan.flat:
                yield tick, read(state.queried, tick, quantum)

    model, triggers = run_monitor_full(translation.plain, events(), quantum,
                                       state.observe)
    return ScheduledRun(translation, model, triggers, plans, report)
