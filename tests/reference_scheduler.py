"""Time-based urgency ranking, kept as a test-only reference.

`scheduler.SchedulerState` keeps time as the cycle index: it records the
cycle of each tracked task's satisfaction on its working supersets and
compares whole cycles against each staleness bound. This module is the
direct reading of the same rules in exact `Fraction` seconds: the last
satisfaction of a task is a scan over its tracked subtasks, and a task is
overdue when the time since then exceeds its bound. Tasks are the
schedule's bit masks. The differential tests drive both through the same
closed loop and require identical plans and models.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from activemon.engine import ABSENT, MonitorState, eval_event
from activemon.schedule import MODE_DEADLINE, MODE_PRIORITY, Task, task_names
from activemon.scheduler import EventPlan, selected_tasks, take_event
from activemon.translate import Translation
from events import model_at

_NEVER = float("-inf")
_UNRANKED = float("inf")


class ReferenceSchedulerState:
    """Urgency caches, kept exact and refreshed from each step's values."""

    def __init__(self, translation: Translation, bound: int):
        self.schedule = translation.schedule
        self.names = translation.names
        self.bound = bound
        # plans carry their time as a tick on the period's denominator
        self.quantum = translation.analyzed.config.period.denominator
        self.working = sorted(
            (t for t in self.schedule.universe if t.bit_count() <= bound),
            key=self.schedule.key)
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
            joint = self.schedule.joint(task)
            if task in self.schedule.direct or not joint:
                continue
            if all(src in fired for src in joint):
                self.values[task] = self.combine(fired[src] for src in joint)

    def last_satisfied(self, task: Task) -> Optional[Fraction]:
        best = None
        for sub in self.schedule.tracked:
            if not sub & ~task:
                t = self.last.get(sub)
                if t is not None and (best is None or t > best):
                    best = t
        return best

    def overdue(self, task: Task, at: Fraction) -> bool:
        bound = self.schedule.bound(task)
        if bound is None:
            return False
        seen = self.last_satisfied(task)
        if seen is None:
            return True
        return at - seen > bound

    def _key(self, task: Task, at: Fraction):
        ranked = bool(self.schedule.joint(task))
        value = self.values.get(task)
        seen = self.last_satisfied(task)
        age = seen if seen is not None else _NEVER
        lex = self.schedule.key(task)
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
        return EventPlan(int(at * self.quantum), self.quantum,
                         frozenset(task_names(flat, self.schedule.inputs)),
                         selected_tasks(self.schedule.universe, flat))


def reference_run(translation: Translation, source, horizon, bound: int):
    """The closed loop of `run_scheduled` over the reference state:
    (plans, model)."""
    period = translation.analyzed.config.period
    horizon = Fraction(horizon)
    state = ReferenceSchedulerState(translation, bound)
    # the monitor takes ticks; the period's denominator holds every cycle
    quantum = period.denominator
    monitor = MonitorState(translation.plain, quantum)
    names = translation.plain.spec.stream_names()
    streams: dict = {name: [] for name in names}
    times: list = []
    plans: list = []
    k = 0
    while k * period < horizon:
        at = k * period
        plan = state.plan(at)
        plans.append(plan)
        if plan.flat:
            tick = int(at * quantum)
            values = {s: source.query(s, tick, quantum)
                      for s in sorted(plan.flat)}
            row, _ = eval_event(monitor, tick, values)
            current = dict(zip(names, row))
            state.observe(current, at)
            times.append(at)
            for name in names:
                streams[name].append(current[name])
        k += 1
    return plans, model_at(times, streams)
