"""`check_scheduled_model`'s findings as one `Violation` list, and the
exact step times and offset depths that tests compare against.

`check_scheduled_model` returns its semantic and bandwidth violations as
`Violation`s and spools its missed obligations per step: the steps that
miss any, and per such step the tuple of its missed tasks, which
`io.violation_lines` renders after them. `missed_violations` expands the
spool into the `Violation`s of those lines, one per missed task, each at
its step's exact time, and `check_violations` gives the whole list in
`check`'s order, the form that the reference oracle and the tests
compare.
`time_at` is a model step's exact time, and `offset_refs` the deepest
offset an expression uses against each stream.
"""

from __future__ import annotations

from fractions import Fraction

from activemon.ast import OffsetAccess, children
from activemon.engine import Violation
from activemon.io import MISSED
from activemon.schedule import check_scheduled_model, task_key


def missed_violations(steps, missed, model, inputs) -> list:
    """One "schedule" `Violation` per task of each spooled step."""
    return [Violation("schedule", step, time_at(model, step), MISSED,
                      task=task_key(task, inputs))
            for step, tasks in zip(steps, missed, strict=True)
            for task in tasks]


def check_violations(analyzed, schedule, bound: int, model) -> list:
    """`check_scheduled_model`'s violations, then its misses expanded."""
    violations, steps, missed, _, _ = check_scheduled_model(
        analyzed, schedule, bound, model)
    return violations + missed_violations(steps, missed, model,
                                          schedule.inputs)


def time_at(model, step: int) -> Fraction:
    """The exact time of a model's step."""
    return Fraction(model.ticks[step], model.quantum)


def offset_refs(expr) -> dict:
    """Stream name -> the deepest offset that `expr` uses against it."""
    offsets: dict = {}
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, OffsetAccess):
            offsets[e.stream] = max(e.offset, offsets.get(e.stream, 0))
        stack.extend(children(e))
    return offsets
