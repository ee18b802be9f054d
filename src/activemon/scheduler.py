"""Bandwidth-bounded active scheduling in closed loop with the monitor.

Each cycle the scheduler ranks all affordable tasks by mode-specific
urgency, packs a maximal prefix into the bandwidth budget, queries
exactly those sensors and feeds the event to the monitor.  Urgency is
read back from the generated ``schedule_*``/``last_*`` helper streams,
so the loop needs no second interpretation of the annotations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .engine import ABSENT, EvaluationModel, MonitorState, Event, eval_event
from .errors import PreconditionViolation, UniverseTooLarge
from .schedule import (
    MODE_DEADLINE,
    MODE_PRIORITY,
    StaticSchedule,
    Task,
    format_task,
    task_key,
)
from .translate import Translation

_NEVER = float("-inf")
_UNRANKED = float("inf")


@dataclass(frozen=True)
class EventPlan:
    time: Fraction
    flat: frozenset  # input streams queried this cycle
    selected: frozenset  # universe tasks the event satisfies


def take_event(ordered: list, bound: int) -> frozenset:
    """Pack a prefix of the ranked tasks into the bandwidth budget.

    Greedy and skip-free: packing stops at the first task that does not
    fit, so a lower-ranked task can never jump an unserved higher one.
    """
    flat: set = set()
    for task in ordered:
        if len(flat | task) > bound:
            break
        flat |= task
    return frozenset(flat)


def selected_tasks(universe: frozenset, flat: frozenset) -> frozenset:
    return frozenset(t for t in universe if t <= flat)


class SchedulerState:
    """Urgency caches, kept exact and refreshed from each step's values."""

    def __init__(self, translation: Translation, bound: int):
        self.schedule = translation.schedule
        self.names = translation.names
        self.bound = bound
        self.working = sorted(
            (t for t in self.schedule.universe if len(t) <= bound),
            key=task_key)
        self._direct = frozenset(self.schedule.direct)
        self.values: dict = {}  # Task -> current schedule value, exact
        self.last: dict = {}  # tracked direct Task -> last satisfaction time
        self.combine = self.schedule.restrictive()
        # schedule streams carry floats in deadline mode; map back exactly
        self.exact: dict = {
            task: {self._payload(e.value): e.value for e in entries}
            for task, entries in self.schedule.entries.items()
        }

    def _payload(self, value):
        return float(value) if self.schedule.mode == MODE_DEADLINE else value

    def observe(self, current: dict, time: Fraction) -> None:
        """Fold one evaluated step into the urgency caches."""
        fired: dict = {}
        for task in self.schedule.direct:
            kinds = self.names[task]
            name = kinds.get("schedule")
            if name is not None:
                raw = current.get(name, ABSENT)
                if raw is not ABSENT:
                    value = self.exact[task].get(raw, raw)
                    fired[task] = value
                    self.values[task] = value
            lname = kinds.get("last")
            if lname is not None and current.get(lname, ABSENT) is not ABSENT:
                self.last[task] = time
        for task in self.working:
            joint = self.schedule.joint.get(task, frozenset())
            if task in self.schedule.direct or not joint:
                continue
            if all(src in fired for src in joint):
                self.values[task] = self.combine(fired[src] for src in joint)

    def last_satisfied(self, task: Task) -> Optional[Fraction]:
        best = None
        for sub in self.schedule.tracked:
            if sub <= task:
                t = self.last.get(sub)
                if t is not None and (best is None or t > best):
                    best = t
        return best

    def overdue(self, task: Task, at: Fraction) -> bool:
        bound = self.schedule.bounds.get(task)
        if bound is None:
            return False
        seen = self.last_satisfied(task)
        if seen is None:
            return True
        return at - seen > bound

    def _key(self, task: Task, at: Fraction):
        ranked = bool(self.schedule.entries.get(task))
        value = self.values.get(task)
        seen = self.last_satisfied(task)
        age = seen if seen is not None else _NEVER
        lex = task_key(task)
        mode = self.schedule.mode
        if mode == MODE_DEADLINE:
            # deadlines never conflict through side satisfactions, so
            # every task ranks on its own urgency
            if not ranked:
                return (3, 0, age, lex)
            if value is None or seen is None:
                return (0, 0, age, lex)  # bootstrap: rank as most urgent
            return (1, seen + value, 0, lex)
        # Priority-based order. Overdue tasks go first: serving stale
        # tasks never counts as an inversion against anyone. Then direct
        # tasks in strict observed-priority order with a stable tie break;
        # rotating ties would rotate which side unions fire and leave
        # stale union claims behind. Unknown-value tasks follow (serving
        # them can satisfy low-priority side tasks, which is an inversion
        # while any known higher-priority task is pending), then plain
        # fillers. Non-overdue union tasks come dead last: they are
        # satisfied for free whenever their parts are packed, and packing
        # them directly would inject their weakest member into the event.
        if mode != MODE_PRIORITY and self.overdue(task, at):
            urgency = -(value if value is not None else _UNRANKED)
            return (0, urgency, age, lex)
        if not ranked:
            return (3, 0, age, lex)
        if task not in self._direct:
            return (4, -(value if value is not None else _UNRANKED), 0, lex)
        if value is not None:
            return (1, -value, 0, lex)
        return (2, 0, 0, lex)

    def plan(self, at: Fraction) -> EventPlan:
        ordered = sorted(self.working, key=lambda t: self._key(t, at))
        flat = take_event(ordered, self.bound)
        return EventPlan(at, flat, selected_tasks(self.schedule.universe, flat))


# ---------------------------------------------------------------------------
# static preconditions


def _splits(seq: list, bound: int) -> int:
    count = 1
    flat: set = set()
    i = 0
    while i < len(seq):
        task = seq[i]
        if len(flat | task) > bound:
            count += 1
            flat = set()
        else:
            flat |= task
            i += 1
    return count


def split_bound_range(universe, bound: int) -> tuple:
    """(min, max) of the per-permutation event counts needed to satisfy
    every task once."""
    tasks = sorted(universe, key=task_key)
    if len(tasks) > 8:
        raise UniverseTooLarge(
            f"{len(tasks)} tasks; split bounds are searched over "
            "permutations and are capped at 8 tasks")
    for task in tasks:
        if len(task) > bound:
            raise PreconditionViolation(
                f"task {format_task(task)} exceeds bandwidth {bound}; "
                "the split bound diverges")
    lo = math.inf
    hi = 0
    for perm in itertools.permutations(tasks):
        n = _splits(list(perm), bound)
        lo = min(lo, n)
        hi = max(hi, n)
    return (int(lo) if tasks else 1, hi if tasks else 1)


def compute_split_bound(universe, bound: int) -> int:
    """Events sufficient to satisfy every task once, any adversarial order."""
    return split_bound_range(universe, bound)[1]


@dataclass(frozen=True)
class PreconditionReport:
    mode: str
    bound: int
    max_task_size: int
    oversized: tuple  # tasks wider than the bandwidth, never schedulable
    split_min: Optional[int]
    split_max: Optional[int]
    split_error: Optional[str]
    deadline_warnings: tuple
    ok: bool

    def lines(self) -> list:
        out = [f"mode={self.mode} bound={self.bound} "
               f"max_task_size={self.max_task_size} ok={self.ok}"]
        for task in self.oversized:
            out.append(f"unschedulable task {format_task(task)}: "
                       f"wider than bandwidth {self.bound}")
        if self.split_error:
            out.append(f"split bound unavailable: {self.split_error}")
        elif self.split_max is not None:
            out.append(f"split bound: worst {self.split_max}, "
                       f"best {self.split_min}")
        out.extend(self.deadline_warnings)
        return out


def build_precondition_report(schedule: StaticSchedule, bound: int,
                              period: Fraction) -> PreconditionReport:
    tasks = sorted(schedule.universe, key=task_key)
    max_size = max((len(t) for t in tasks), default=0)
    oversized = tuple(t for t in tasks if len(t) > bound)
    split_min = split_max = None
    split_error = None
    try:
        split_min, split_max = split_bound_range(schedule.universe, bound)
    except (UniverseTooLarge, PreconditionViolation) as e:
        split_error = str(e)
    warnings: list = []
    if split_max is not None:
        window = split_max * period
        if schedule.mode == MODE_DEADLINE:
            for task in tasks:
                for entry in schedule.entries[task]:
                    if entry.value <= window:
                        warnings.append(
                            f"deadline {float(entry.value)}s on "
                            f"{format_task(task)} is within the worst-case "
                            f"round of {float(window)}s; it can be missed")
                        break
        else:
            for task in tasks:
                b = schedule.bounds.get(task)
                if b is not None and b <= window:
                    warnings.append(
                        f"staleness bound {float(b)}s on {format_task(task)} "
                        f"is within the worst-case round of {float(window)}s")
    return PreconditionReport(
        mode=schedule.mode,
        bound=bound,
        max_task_size=max_size,
        oversized=oversized,
        split_min=split_min,
        split_max=split_max,
        split_error=split_error,
        deadline_warnings=tuple(warnings),
        ok=not oversized,
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
    The run proceeds even when the precondition report is negative;
    tasks wider than the bandwidth are simply never scheduled.
    """
    config = translation.analyzed.config
    period = config.period
    if bound is None:
        bound = config.bandwidth
    horizon = Fraction(horizon)

    report = build_precondition_report(translation.schedule, bound, period)
    state = SchedulerState(translation, bound)
    monitor = MonitorState(translation.plain)
    names = translation.plain.spec.stream_names()
    model = EvaluationModel(streams={name: [] for name in names})
    triggers: list = []
    plans: list = []

    k = 0
    while k * period < horizon:
        at = k * period
        plan = state.plan(at)
        plans.append(plan)
        if plan.flat:
            values = {s: source.query(s, at) for s in sorted(plan.flat)}
            current, fired = eval_event(monitor, Event(at, values))
            state.observe(current, at)
            model.times.append(at)
            for name in names:
                model.streams[name].append(current[name])
            triggers.extend(fired)
        k += 1
    return ScheduledRun(translation, model, triggers, plans, report)
