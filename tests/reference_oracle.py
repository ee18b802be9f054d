"""Per-task decision rules, kept as a test-only reference.

`schedule.DecisionOracle` decides each step in one sweep: the staleness of
every task from the tracked tasks' last satisfactions, the priority rule
from the lowest current value among the satisfied tasks, and the deadline
rule from per-region step lists bisected at the last satisfaction. This
module is the direct reading of the three rules, one task at a time, that
the differential tests compare the sweep against. The present inputs and
satisfied sets are rebuilt here from the model's cells by a membership test
per (task, step), and region truth by the tree-walking evaluator over
`ModelReader`, independently of the oracle's own walk. Ages and deadline
horizons are exact `Fraction` seconds, not the oracle's ticks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from activemon.schedule import (
    MODE_DEADLINE, MODE_PRIORITY, DecisionOracle, ScheduleEntry, Task,
)
from reference_eval import ModelReader, eval_expr, present_inputs


class ReferenceOracle(DecisionOracle):

    def __init__(self, analyzed, schedule, model):
        super().__init__(analyzed, schedule, model)
        inputs = analyzed.spec.input_names()
        self.present = [present_inputs(model, inputs, step)
                        for step in range(self.n)]
        self.sat_sets = [
            frozenset(t for t in schedule.universe if t <= self.present[step])
            for step in range(self.n)
        ]
        self.sat_steps = {
            task: [s for s in range(self.n) if task in self.sat_sets[s]]
            for task in schedule.universe
        }
        self.reader = ModelReader(model)
        self._truth: dict = {}  # (condition, pacing, step) -> bool
        self.times = model.times

    def time(self, step: int) -> Fraction:
        """A step's exact time; past the end, a period apart."""
        if step < self.n:
            return self.times[step]
        return self.times[-1] + (step - self.n + 1) * self.period

    def overdue(self, task: Task, step: int) -> bool:
        """Staleness at `step`, from satisfactions strictly before it."""
        bound = self.schedule.bounds.get(task)
        if bound is None:
            return False
        last: Optional[int] = None
        for sub in self.schedule.tracked:
            if sub <= task:
                s = self._last_sat(sub, step - 1)
                if s is not None and (last is None or s > last):
                    last = s
        if last is None:
            return True
        return self.time(step) - self.times[last] > bound

    def decide(self, step: int) -> dict:
        if not 0 <= step <= self.n - 2:
            raise ValueError(f"step {step} needs the model through {step + 2}")
        if self.schedule.mode == MODE_DEADLINE:
            return self._decide_deadline(step)
        if self.schedule.mode == MODE_PRIORITY:
            return {
                task: "Y" if self._priority_witness(task, step) else "M"
                for task in self.schedule.universe
            }
        return self._decide_dp(step)

    def _holds(self, entry: ScheduleEntry, step: int) -> bool:
        """Whether a region's pacing and condition hold at `step`."""
        key = (entry.condition, entry.pacing, step)
        if key not in self._truth:
            self._truth[key] = entry.pacing.satisfied_by(self.present[step]) \
                and eval_expr(entry.condition, *self.reader.at_step(step),
                              float(self.times[step])) is True
        return self._truth[key]

    def _decide_deadline(self, step: int) -> dict:
        """A task is obliged when, since its last satisfaction (or from the
        start), one of its regions first held at an onset whose deadline
        runs out before the step after next."""
        horizon = self.time(step + 2)
        out = {}
        for task in self.schedule.universe:
            last = 0
            for s in range(step + 1):
                if task in self.sat_sets[s]:
                    last = s
            verdict = "M"
            for entry in self.schedule.entries[task]:
                onset = next((s for s in range(last, step + 1)
                              if self._holds(entry, s)), None)
                if onset is not None and \
                        horizon > self.times[onset] + entry.value:
                    verdict = "Y"
            out[task] = verdict
        return out

    def _priority_witness(self, task: Task, step: int,
                          extra: Optional[Callable[[Task], bool]] = None) -> bool:
        """A strictly lower-priority satisfied task while this one is unserved."""
        p1 = self.current[task][step]
        if p1 is None:
            return False
        if task in self.sat_sets[step + 1]:  # as is under a satisfied superset
            return False
        for other in self.schedule.universe:
            p2 = self.current[other][step]
            if p2 is None or other not in self.sat_sets[step + 1]:
                continue
            if p1 > p2 and (extra is None or extra(other)):
                return True
        return False

    def _decide_dp(self, step: int) -> dict:
        out = {}
        over = {t: self.overdue(t, step + 1) for t in self.schedule.universe}
        fresh_sat = [t for t in self.sat_sets[step + 1] if not over[t]]
        for task in self.schedule.universe:
            if over[task] and fresh_sat:
                out[task] = "Y"
            elif self._priority_witness(task, step,
                                        extra=lambda o: not over[o]):
                out[task] = "Y"
            else:
                out[task] = "M"
        return out
