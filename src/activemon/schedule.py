"""Static scheduling tables and the per-step obligation oracle.

Turns the annotations of an analyzed specification into a per-task table
of (condition, value) regions, and answers, for a finished run, which
tasks the scheduler was obliged to satisfy at each step.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import AnalyzedSpec
from .ast import Expr, Pacing, conjoin
from .engine import (
    EvaluationModel,
    Violation,
    compile_expr,
    replay,
    verify_model,
)
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
    )


# ---------------------------------------------------------------------------
# per-step obligations


class DecisionOracle:
    """Answers, per step of a finished model, which tasks had to be served.

    Verdicts: "Y" means the task must be satisfied at the next step,
    "M" means the scheduler may choose freely.
    """

    def __init__(self, analyzed: AnalyzedSpec, schedule: StaticSchedule,
                 model: EvaluationModel):
        self.analyzed = analyzed
        self.schedule = schedule
        self.model = model
        self.n = len(model)
        self.period = analyzed.config.period
        # exact time in ticks on a quantum that holds both the model's times
        # and the period, so that steps past the end are ticks too
        self.quantum = math.lcm(model.quantum, self.period.denominator)
        scale = self.quantum // model.quantum
        self.ticks = [t * scale for t in model.ticks]
        self.period_ticks = int(self.period * self.quantum)
        # every per-step verdict and violation follows this one order
        self.tasks = sorted(schedule.universe, key=task_key)

        # region truth per step, each distinct region decided once, in the
        # one walk that also collects the present inputs
        truth: dict = {}
        for chain in schedule.entries.values():
            for entry in chain:
                region = (entry.condition, entry.pacing)
                if region not in truth:
                    truth[region] = (compile_expr(entry.condition), [])
        # entry pacings are concrete: build_static_schedule rejects @any
        regions = [(p.inputs, cond, steps)
                   for (_, p), (cond, steps) in truth.items()]
        self.present = []
        for s, present, read, offset_read, now in replay(analyzed, model):
            self.present.append(present)
            for inputs, cond, steps in regions:
                if inputs <= present and cond(read, offset_read, now) is True:
                    steps.append(s)

        by_present: dict = {}  # the satisfied tasks per set of present inputs
        self.sat_sets = []
        for present in self.present:
            if present not in by_present:
                by_present[present] = frozenset(
                    t for t in self.tasks if t <= present)
            self.sat_sets.append(by_present[present])
        self.sat_steps: dict = {task: [] for task in self.tasks}
        for s, sat in enumerate(self.sat_sets):
            for task in sat:
                self.sat_steps[task].append(s)

        # staleness: the distinct bounds, and per task its position, its
        # bound's index and the tracked subtasks whose satisfaction
        # refreshes it
        self.staleness_bounds = sorted(
            {b for b in schedule.bounds.values() if b is not None})
        index = {b: i for i, b in enumerate(self.staleness_bounds)}
        self.staleness = [
            (pos, index[schedule.bounds[task]],
             frozenset(t for t in schedule.tracked if t <= task))
            for pos, task in enumerate(self.tasks)
            if schedule.bounds.get(task) is not None
        ]
        self.position = {task: pos for pos, task in enumerate(self.tasks)}
        # an age in ticks is an integer, so age <= b exactly when
        # age <= floor(b * quantum), and age > d when age > floor(d * quantum)
        self.bound_ticks = [self._floor_ticks(b) for b in self.staleness_bounds]
        self._overdue: dict = {}  # fresh sets per bound -> overdue flags

        # then the sticky current value per task, swept over the steps
        # where one of its regions holds
        combine = schedule.restrictive()
        self.true_steps: dict = {}
        self.current: dict = {}
        for task, chain in schedule.entries.items():
            per_entry = [truth[(e.condition, e.pacing)][1] for e in chain]
            self.true_steps[task] = per_entry
            holding: dict = {}  # step -> values of the regions holding there
            for entry, steps in zip(chain, per_entry):
                for s in steps:
                    holding.setdefault(s, []).append(entry.value)
            values: list = []
            cur = None
            for s in sorted(holding):
                values += [cur] * (s - len(values))
                cur = combine(holding[s])
                values.append(cur)
            values += [cur] * (self.n - len(values))
            self.current[task] = values
        self.deadline_ticks = {
            task: [self._floor_ticks(e.value) for e in chain]
            for task, chain in schedule.entries.items()
        } if schedule.mode == MODE_DEADLINE else {}

    # -- helpers ------------------------------------------------------------

    def _floor_ticks(self, seconds) -> int:
        return math.floor(seconds * self.quantum)

    def _time(self, step: int) -> int:
        """The time of a step in ticks; steps past the model's end follow
        its last one a period apart."""
        if step < self.n:
            return self.ticks[step]
        return self.ticks[self.n - 1] + (step - self.n + 1) * self.period_ticks

    def _last_sat(self, task: Task, upto: int) -> Optional[int]:
        """Latest step <= upto at which task was satisfied, if any."""
        steps = self.sat_steps[task]
        i = bisect_right(steps, upto)
        return steps[i - 1] if i else None

    def overdue_at(self, step: int) -> dict:
        """Staleness of every task at `step`, from satisfactions strictly
        before it: a bounded task is overdue unless one of its tracked
        subtasks was last satisfied within its bound."""
        return dict(zip(self.tasks, map(bool, self._overdue_flags(step))))

    def _overdue_flags(self, step: int) -> bytes:
        """`overdue_at` as one byte per task, in `tasks` order.

        The flags depend only on the fresh subtasks per bound, so they are
        built once per distinct tuple of those and shared by every step
        with that tuple."""
        now = self._time(step)
        ticks = self.ticks
        ages = []
        for sub in self.schedule.tracked:
            last = self._last_sat(sub, step - 1)
            if last is not None:
                ages.append((sub, now - ticks[last]))
        fresh = tuple(frozenset(sub for sub, age in ages if age <= bound)
                      for bound in self.bound_ticks)
        over = self._overdue.get(fresh)
        if over is None:
            flags = bytearray(len(self.tasks))
            for pos, i, subs in self.staleness:
                flags[pos] = subs.isdisjoint(fresh[i])
            over = self._overdue[fresh] = bytes(flags)
        return over

    # -- the three obligation rules -----------------------------------------

    def decide(self, step: int) -> dict:
        """Verdicts for every universe task, given the model through step+1."""
        if not 0 <= step <= self.n - 2:
            raise ValueError(f"step {step} needs the model through {step + 2}")
        if self.schedule.mode == MODE_DEADLINE:
            return self._decide_deadline(step)
        # priority mode sets no staleness bounds, so nothing is overdue there
        return self._decide_priority(step, self._overdue_flags(step + 1))

    def _decide_deadline(self, step: int) -> dict:
        out = {}
        horizon = self._time(step + 2)
        ticks = self.ticks
        for task in self.tasks:
            verdict = "M"
            anchor = self._last_sat(task, step)
            lo = anchor if anchor is not None else 0
            for deadline, steps in zip(self.deadline_ticks[task],
                                       self.true_steps[task]):
                i = bisect_right(steps, lo - 1)
                if i < len(steps) and steps[i] <= step:
                    if horizon - ticks[steps[i]] > deadline:
                        verdict = "Y"
                        break
            out[task] = verdict
        return out

    def _decide_priority(self, step: int, over: bytes) -> dict:
        """An unserved task is obliged when a fresh satisfied task has a
        strictly lower current priority, and an overdue task is obliged as
        soon as any fresh task is satisfied."""
        sat = self.sat_sets[step + 1]
        current = self.current
        position = self.position
        fresh = [t for t in sat if not over[position[t]]]
        floor = min((v for t in fresh if (v := current[t][step]) is not None),
                    default=None)
        fresh_sat = bool(fresh)
        out = {}
        for task, overdue in zip(self.tasks, over):
            p = current[task][step]
            obliged = (fresh_sat and overdue) or (
                floor is not None and p is not None and p > floor
                and task not in sat)  # as is under a satisfied superset
            out[task] = "Y" if obliged else "M"
        return out


# ---------------------------------------------------------------------------
# model-level checks


def check_scheduled_model(analyzed: AnalyzedSpec, schedule: StaticSchedule,
                          bound: int, model: EvaluationModel) -> list:
    """Semantic, bandwidth and obligation conformance of a finished run."""
    violations = list(verify_model(analyzed, model))
    oracle = DecisionOracle(analyzed, schedule, model)
    for step, got in enumerate(oracle.present):
        if len(got) > bound:
            violations.append(Violation(
                kind="bandwidth", step=step, time=model.time_at(step),
                detail=f"{len(got)} inputs arrive at once, bound is {bound}"))
    keys = {task: task_key(task) for task in oracle.tasks}
    for step in range(len(model) - 1):
        sat = oracle.sat_sets[step + 1]
        missed = [task for task, verdict in oracle.decide(step).items()
                  if verdict == "Y" and task not in sat]
        if missed:
            time = model.time_at(step + 1)  # shared by the step's violations
            violations.extend(Violation(
                kind="schedule", step=step + 1, time=time,
                detail="obligated task left unsatisfied", task=keys[task])
                for task in missed)
    return violations
