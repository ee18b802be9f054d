"""Lowering of annotated specifications to plain monitoring specs.

Annotations are compiled away into ordinary helper streams: one
``schedule_*`` stream per annotated direct task carrying its current
value, a ``last_*`` timestamp stream per observable task, and in the
staleness modes an ``overdue_*`` stream per bounded task.  Tasks are the
schedule's bit masks over the inputs, and helpers are named after a
task's inputs in declaration order, so neither the names nor the order of
the helpers depends on set iteration.  Only direct tasks get helpers;
every other task's value is derived by rule where it is needed.  A
``schedule_*`` helper is always its task's region table
(`StaticSchedule.entries`), one clause per region, most restrictive
first, guarded by the conjunction of the region's annotation guards.  A
guard carries the negation of every earlier ``when`` of its stream,
annotated or not, so a helper carries a value exactly where the
`DecisionOracle` finds a region holding, and that region's value.  The
original streams are kept verbatim (with their inferred pacings made
explicit), so every model of the lowered spec restricted to the original
streams is a model of the input spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .analysis import AnalyzedSpec, extend_analysis
from .ast import (
    TRUE,
    Binary,
    Const,
    EvalClause,
    Expr,
    InputDecl,
    MinMax,
    Now,
    OffsetAccess,
    OutputDecl,
    Pacing,
    Specification,
    Unary,
)
from .schedule import (
    MODE_DEADLINE,
    MODE_PRIORITY,
    ScheduleEntry,
    StaticSchedule,
    Task,
    build_static_schedule,
    task_names,
)

# stands in for "never satisfied" in generated overdue streams
NEVER = Unary("neg", Const(1e18, is_float=True))


@dataclass(frozen=True)
class Translation:
    analyzed: AnalyzedSpec  # the annotated source
    mode: str
    spec: Specification  # lowered, annotation-free
    plain: AnalyzedSpec  # analysis of `spec`
    schedule: StaticSchedule
    names: dict  # Task -> {"schedule"|"last"|"overdue": stream name}
    task_table: dict

    @cached_property
    def scheduler_tables(self) -> dict:
        """Bound -> the scheduler's tables that depend only on this
        translation and the bound, built by the first `SchedulerState` at
        that bound and shared by every later one."""
        return {}


def _fresh(base: str, used: set) -> str:
    name = base
    k = 1
    while name in used:
        name = f"{base}_{k}"
        k += 1
    used.add(name)
    return name


def _region_clause(mode: str, region: ScheduleEntry) -> EvalClause:
    """One region of a direct task's table as a `schedule_*` clause: the
    region's value while the conjunction of its entries' guards holds."""
    value = (Const(float(region.value), is_float=True)
             if mode == MODE_DEADLINE else Const(int(region.value)))
    when = None if region.condition == TRUE else region.condition
    return EvalClause(region.pacing, when, value)


def _overdue_expr(task: Task, bound: Fraction, schedule: StaticSchedule,
                  names: dict) -> Expr:
    subs = sorted((s for s in schedule.tracked if not s & ~task),
                  key=schedule.key)
    reads = [
        OffsetAccess(names[s]["last"], 1, NEVER)
        for s in subs
    ]
    newest = reads[0] if len(reads) == 1 else MinMax("max", tuple(reads))
    age = Binary("-", Now(), newest)
    return Binary(">", age, Const(float(bound), is_float=True))


def translate(analyzed: AnalyzedSpec, mode: str) -> Translation:
    """Lower an annotated spec to a plain one plus its task table."""
    schedule = build_static_schedule(analyzed, mode)
    spec = analyzed.spec
    inputs = schedule.inputs

    used = set(spec.input_names()) | set(spec.output_names())
    names: dict = {}
    for task in schedule.direct:
        base = "_".join(task_names(task, inputs))
        kinds: dict = {}
        if schedule.entries.get(task):
            kinds["schedule"] = _fresh(f"schedule_{base}", used)
        if task in schedule.tracked:
            kinds["last"] = _fresh(f"last_{base}", used)
        if (mode != MODE_PRIORITY and task in schedule.tracked
                and schedule.bound(task) is not None):
            kinds["overdue"] = _fresh(f"overdue_{base}", used)
        names[task] = kinds

    helpers: list = []
    for task in schedule.direct:
        kinds = names[task]
        if "schedule" in kinds:
            helpers.append(OutputDecl(
                kinds["schedule"],
                tuple(_region_clause(mode, r) for r in schedule.entries[task])))
        if "last" in kinds:
            helpers.append(OutputDecl(kinds["last"], (
                EvalClause(Pacing.of(task_names(task, inputs)), None, Now()),)))
        if "overdue" in kinds:
            helpers.append(OutputDecl(kinds["overdue"], (
                EvalClause(Pacing.any_event(), None,
                           _overdue_expr(task, schedule.bound(task),
                                         schedule, names)),)))

    plain_inputs = tuple(
        InputDecl(i.name, i.type, None) for i in spec.inputs)
    plain_outputs = tuple(
        OutputDecl(o.name, tuple(
            EvalClause(c.pacing, c.when, c.expr) for c in o.clauses))
        for o in spec.outputs)
    plain_spec = replace(
        spec,
        inputs=plain_inputs,
        outputs=plain_outputs + tuple(helpers),
    )
    plain = extend_analysis(analyzed, plain_spec)

    table = {
        "mode": mode,
        "default_deadline": _json_deadline(analyzed.config.default_deadline),
        "tasks": [
            {
                "inputs": task_names(task, inputs),
                "schedule": names[task].get("schedule"),
                "last": names[task].get("last"),
                "overdue": names[task].get("overdue"),
                "deadline": _json_deadline(schedule.bound(task)),
            }
            for task in schedule.direct
        ],
    }
    return Translation(
        analyzed=analyzed,
        mode=mode,
        spec=plain_spec,
        plain=plain,
        schedule=schedule,
        names=names,
        task_table=table,
    )


def _json_deadline(value: Optional[Fraction]):
    return None if value is None else float(value)
