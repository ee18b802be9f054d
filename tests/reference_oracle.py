"""Per-task decision rules and model checks, kept as a test-only reference.

`schedule.DecisionOracle` is fed a model one step at a time and keeps
O(tasks) state: sticky values, last satisfaction ticks and deadline
expiries, with region truth read off the verifier's guard masks and the
regions of all but the direct tasks derived by rule. This module is the
direct reading of the three rules over the whole model, one task at a
time, that the differential tests compare the oracle against. It shares no
code with the schedule or the oracle. `reference_schedule` builds its own
tables from `analyzed.annotations`, with tasks as frozensets of input
names: the union closure of the base tasks, the staleness bounds, the
tracked tasks and, for every task, the literal product of its contributing
annotation chains, each region with its conjoined condition. The present
inputs and satisfied sets are rebuilt from the model's cells by a
membership test per (task, step), the sticky current values by a scan over
the steps, and region truth by the tree-walking evaluator over
`ModelReader`, applied to each region's conjoined condition. Ages and
deadline horizons are exact `Fraction` seconds, not the oracle's ticks.

`reference_violations` builds the whole violation list of
`check_scheduled_model`, its spooled misses expanded as
`checks.check_violations` does, the same way, with the semantic violations
recomputed by `reference_eval.eval_clauses`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from activemon.ast import Expr, Pacing, conjoin
from activemon.engine import Violation, values_equal
from reference_eval import (ModelReader, eval_clauses, eval_expr,
                            present_inputs, satisfied_by)

MODE_DEADLINE = "deadline"
MODE_PRIORITY = "priority"


def key(task: frozenset) -> tuple:
    return tuple(sorted(task))


@dataclass(frozen=True)
class Region:
    condition: Expr
    pacing: Pacing
    value: object
    sources: tuple


@dataclass(frozen=True)
class ReferenceSchedule:
    mode: str
    universe: frozenset  # frozensets of input names
    direct: tuple
    entries: dict  # task -> tuple[Region, ...], most restrictive first
    bounds: dict  # task -> Optional[Fraction]
    tracked: frozenset
    joint: dict  # task -> frozenset of the direct tasks covering its regions

    def restrictive(self) -> Callable:
        return min if self.mode == MODE_DEADLINE else max


def reference_base(analyzed) -> frozenset:
    """The clause pacings and annotated-input singletons."""
    base = {frozenset(c.pacing.inputs) for o in analyzed.spec.outputs
            for c in o.clauses if c.pacing is not None and not c.pacing.is_any}
    return frozenset(base | {
        frozenset({i.name}) for i in analyzed.spec.inputs
        if i.annotation is not None and not i.annotation.is_empty()})


def reference_universe(analyzed) -> frozenset:
    """Every nonempty union of the base tasks, by adding one base task at a
    time."""
    tasks: set = set()
    for b in reference_base(analyzed):
        tasks |= {b} | {t | b for t in tasks}
    return frozenset(tasks)


def reference_schedule(analyzed, mode: str) -> ReferenceSchedule:
    """The tables of one mode for every task of the universe: each task's
    regions the product of the chains of the annotated streams paced inside
    it. The spec must pass `build_static_schedule`'s checks."""
    ann = analyzed.annotations
    order = [i.name for i in analyzed.spec.inputs] + \
        [o.name for o in analyzed.spec.outputs]
    chains: dict = {}
    for name in order:
        chain = ann.get(name)
        if not chain:
            continue
        if mode == MODE_DEADLINE:
            kept = [(e, e.deadline) for e in chain if e.deadline is not None]
        else:
            kept = [(e, e.priority) for e in chain if e.priority is not None]
        if kept:
            chains[name] = kept
    universe = reference_universe(analyzed)
    direct: list = []
    for name in order:
        if ann.get(name):
            task = frozenset(ann[name][0].pacing.inputs)
            if task not in direct:
                direct.append(task)

    combine = min if mode == MODE_DEADLINE else max
    entries: dict = {}
    joint: dict = {}
    for task in universe:
        contributors = [name for name in chains
                        if ann[name][0].pacing.inputs <= task]
        regions = []
        for combo in itertools.product(*(chains[n] for n in contributors)) \
                if contributors else ():
            pacing: set = set()
            for e, _ in combo:
                pacing |= e.pacing.inputs
            regions.append(Region(
                conjoin([e.condition for e, _ in combo]), Pacing.of(pacing),
                combine(v for _, v in combo),
                tuple((e.source, e.clause_index) for e, _ in combo)))
        regions.sort(key=lambda r: r.value, reverse=mode != MODE_DEADLINE)
        entries[task] = tuple(regions)
        joint[task] = frozenset(
            frozenset(ann[n][0].pacing.inputs) for n in contributors)

    default = analyzed.config.default_deadline
    bounds: dict = {}
    for task in universe:
        inside = [chain for chain in ann.values()
                  if chain and chain[0].pacing.inputs <= task]
        cands = [e.deadline for chain in inside for e in chain
                 if e.deadline is not None]
        if mode == MODE_PRIORITY:
            bounds[task] = None
        elif cands:
            bounds[task] = min(cands)
        else:
            bounds[task] = default if inside else None
    tracked = frozenset(
        t for t in direct
        if entries.get(t) or (mode != MODE_PRIORITY and bounds[t] is not None))
    return ReferenceSchedule(mode, universe, tuple(direct), entries, bounds,
                             tracked, joint)


class ReferenceOracle:
    """The three rules over a `ReferenceSchedule` and a whole model."""

    def __init__(self, analyzed, schedule, model):
        self.schedule = schedule
        self.n = len(model)
        self.period = analyzed.config.period
        inputs = analyzed.spec.input_names()
        self.present = [present_inputs(model, inputs, step)
                        for step in range(self.n)]
        self.sat_sets = [
            frozenset(t for t in schedule.universe if t <= self.present[step])
            for step in range(self.n)
        ]
        self.reader = ModelReader(model)
        self._truth: dict = {}  # (condition, pacing, step) -> bool
        self.times = model.times
        # the most restrictive value among a task's regions that hold at
        # the latest step where any does, None before the first
        combine = schedule.restrictive()
        self.current: dict = {}
        for task in schedule.universe:
            cur, values = None, []
            for step in range(self.n):
                held = [e.value for e in schedule.entries[task]
                        if self._holds(e, step)]
                if held:
                    cur = combine(held)
                values.append(cur)
            self.current[task] = values

    def time(self, step: int) -> Fraction:
        """A step's exact time; past the end, a period apart."""
        if step < self.n:
            return self.times[step]
        return self.times[-1] + (step - self.n + 1) * self.period

    def last_sat(self, task: frozenset, upto: int) -> Optional[int]:
        """Latest step <= upto at which task was satisfied, if any."""
        return max((s for s in range(upto + 1) if task in self.sat_sets[s]),
                   default=None)

    def overdue(self, task: frozenset, step: int) -> bool:
        """Staleness at `step`, from satisfactions strictly before it."""
        bound = self.schedule.bounds.get(task)
        if bound is None:
            return False
        last: Optional[int] = None
        for sub in self.schedule.tracked:
            if sub <= task:
                s = self.last_sat(sub, step - 1)
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

    def _holds(self, entry: Region, step: int) -> bool:
        """Whether a region's pacing and condition hold at `step`."""
        key = (entry.condition, entry.pacing, step)
        if key not in self._truth:
            self._truth[key] = satisfied_by(entry.pacing, self.present[step]) \
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

    def _priority_witness(self, task: frozenset, step: int,
                          extra: Optional[Callable] = None) -> bool:
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


def reference_violations(analyzed, schedule: ReferenceSchedule, bound: int,
                         model) -> list:
    """`check_scheduled_model`'s violations, in its order: the time map,
    then each cell that `eval_clauses` recomputes differently, by step and
    evaluation order, then the bandwidth overruns, then the tasks that a
    `ReferenceOracle` verdict obliged and the next step left unsatisfied,
    by step and sorted task."""
    times = model.times
    spec = analyzed.spec
    out = [Violation("semantic", t, times[t],
                     f"time map not strictly increasing: {times[t]} after "
                     f"{times[t - 1]}")
           for t in range(1, len(times)) if times[t] <= times[t - 1]]
    reader = ModelReader(model)
    oracle = ReferenceOracle(analyzed, schedule, model)
    for t, time in enumerate(times):
        read, offset_read = reader.at_step(t)
        for name in analyzed.eval_order:
            expected = eval_clauses(spec.output_decl(name), oracle.present[t],
                                    read, offset_read, float(time))
            actual = read(name)
            if not values_equal(expected, actual):
                out.append(Violation(
                    "semantic", t, time, f"stream '{name}' holds {actual!r}, "
                    f"recomputation gives {expected!r}", stream=name))
    out += [Violation("bandwidth", t, times[t],
                      f"{len(got)} inputs arrive at once, bound is {bound}")
            for t, got in enumerate(oracle.present) if len(got) > bound]
    for step in range(len(times) - 1):
        verdicts = oracle.decide(step)
        out += [Violation("schedule", step + 1, times[step + 1],
                          "obligated task left unsatisfied",
                          task=key(task))
                for task in sorted(verdicts, key=key)
                if verdicts[task] == "Y"
                and task not in oracle.sat_sets[step + 1]]
    return out
