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

from .engine import (ABSENT, EvaluationModel, MonitorState, Event,
                     check_steps, eval_event)
from .errors import PreconditionViolation, UniverseTooLarge
from .schedule import (
    MODE_DEADLINE,
    MODE_PRIORITY,
    StaticSchedule,
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
    """Urgency caches, kept exact and refreshed from each step's values.

    Time in the loop is the cycle index: `plan` is called once per cycle,
    at k * period for k = 0, 1, ..., and counts it; `observe` records, on
    every working superset of each tracked task whose `last_*` helper
    fired, the cycle at which it did. A task with staleness bound b is then
    overdue at cycle k iff k - seen > floor(b / period), which is exact
    because both sides are integers.
    """

    def __init__(self, translation: Translation, bound: int):
        schedule = translation.schedule
        self.universe = schedule.universe
        self.period = translation.analyzed.config.period
        self.bound = bound
        self.working = sorted(
            (t for t in schedule.universe if len(t) <= bound), key=task_key)
        self.deadline = schedule.mode == MODE_DEADLINE
        self.values: dict = {}  # Task -> current schedule value, exact
        self.seen: dict = {}  # working Task -> cycle of its last satisfaction
        self.cycle = -1  # the cycle last planned
        self.combine = schedule.restrictive()
        direct = frozenset(schedule.direct)
        # per direct task: its schedule stream with the map from the
        # stream's payload back to the exact value (deadline streams carry
        # floats), and its last stream with the working tasks it refreshes
        self._rows = []
        for task in schedule.direct:
            kinds = translation.names[task]
            exact = {float(e.value) if self.deadline else e.value: e.value
                     for e in schedule.entries[task]}
            last = kinds.get("last")
            refreshed = tuple(t for t in self.working if task <= t) if last else ()
            self._rows.append((task, kinds.get("schedule"), exact, last, refreshed))
        # each joint task under one of its sources: its value can change
        # only in a step in which all of them fired
        self._joint: dict = {}  # direct Task -> [(joint Task, sources)]
        for t in self.working:
            if t not in direct and schedule.joint.get(t):
                sources = schedule.joint[t]
                self._joint.setdefault(min(sources, key=task_key), []).append(
                    (t, sources))
        # the static part of each rank key; the index in `working` breaks
        # ties in task_key order
        stale = schedule.mode != MODE_PRIORITY
        self._static = [
            (i, task, bool(schedule.entries.get(task)), task in direct,
             schedule.bounds[task] // self.period
             if stale and schedule.bounds.get(task) is not None else None)
            for i, task in enumerate(self.working)]
        self._selected: dict = {}  # flat -> the universe tasks it satisfies

    def observe(self, current: dict) -> None:
        """Fold the evaluated step of the cycle last planned into the caches."""
        fired: dict = {}
        values, seen, cycle = self.values, self.seen, self.cycle
        for task, name, exact, last, refreshed in self._rows:
            if name is not None:
                raw = current.get(name, ABSENT)
                if raw is not ABSENT:
                    fired[task] = values[task] = exact.get(raw, raw)
            if last is not None and current.get(last, ABSENT) is not ABSENT:
                for sup in refreshed:
                    seen[sup] = cycle
        for src in fired:
            for task, joint in self._joint.get(src, ()):
                if all(s in fired for s in joint):
                    values[task] = self.combine(fired[s] for s in joint)

    def _deadline_keys(self) -> list:
        # deadlines never conflict through side satisfactions, so
        # every task ranks on its own urgency
        keys = []
        for i, task, ranked, _, _ in self._static:
            seen = self.seen.get(task)
            age = seen if seen is not None else _NEVER
            value = self.values.get(task)
            if not ranked:
                keys.append((3, 0, age, i))
            elif value is None or seen is None:
                keys.append((0, 0, age, i))  # bootstrap: rank as most urgent
            else:
                keys.append((1, seen * self.period + value, 0, i))
        return keys

    def _priority_keys(self) -> list:
        # Overdue tasks go first: serving stale tasks never counts as an
        # inversion against anyone. Then direct tasks in strict
        # observed-priority order with a stable tie break; rotating ties
        # would rotate which side unions fire and leave stale union claims
        # behind. Unknown-value tasks follow (serving them can satisfy
        # low-priority side tasks, which is an inversion while any known
        # higher-priority task is pending), then plain fillers. Non-overdue
        # union tasks come dead last: they are satisfied for free whenever
        # their parts are packed, and packing them directly would inject
        # their weakest member into the event.
        keys = []
        cycle = self.cycle
        for i, task, ranked, direct, limit in self._static:
            seen = self.seen.get(task)
            value = self.values.get(task)
            if limit is not None and (seen is None or cycle - seen > limit):
                urgency = -(value if value is not None else _UNRANKED)
                keys.append((0, urgency, seen if seen is not None else _NEVER, i))
            elif not ranked:
                keys.append((3, 0, seen if seen is not None else _NEVER, i))
            elif not direct:
                keys.append((4, -(value if value is not None else _UNRANKED), 0, i))
            elif value is not None:
                keys.append((1, -value, 0, i))
            else:
                keys.append((2, 0, 0, i))
        return keys

    def plan(self, at: Fraction) -> EventPlan:
        """The event of the next cycle, which runs at `at`."""
        self.cycle += 1
        keys = self._deadline_keys() if self.deadline else self._priority_keys()
        flat = take_event([self.working[key[-1]] for key in sorted(keys)],
                          self.bound)
        selected = self._selected.get(flat)
        if selected is None:
            selected = self._selected[flat] = selected_tasks(self.universe, flat)
        return EventPlan(at, flat, selected)


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
            out.append("deadline and staleness warnings skipped: "
                       "they need the split bound")
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
    monitor = MonitorState(translation.plain)
    streams = {name: [] for name in translation.plain.spec.stream_names()}
    appends = [(name, col.append) for name, col in streams.items()]
    ticks: list = []  # cycle k at k * period.numerator / period.denominator
    triggers: list = []
    plans: list = []

    for k in range(cycles):
        at = k * period
        plan = state.plan(at)
        plans.append(plan)
        if plan.flat:
            values = {s: source.query(s, at) for s in sorted(plan.flat)}
            current, fired = eval_event(monitor, Event(at, values))
            state.observe(current)
            ticks.append(k * period.numerator)
            for name, append in appends:
                append(current[name])
            triggers.extend(fired)
    model = EvaluationModel(ticks, streams, period.denominator)
    return ScheduledRun(translation, model, triggers, plans, report)
