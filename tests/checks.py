"""`check_scheduled_model`'s findings as one `Violation` list, for tests.

`check_scheduled_model` returns its semantic and bandwidth violations as
`Violation`s and spools each missed obligation as a (step, task) pair of
ints, which `io.violation_lines` renders after them. `missed_violations`
expands the spool into the `Violation`s of those lines, each at its step's
exact time, and `check_violations` gives the whole list in `check`'s
order, the form that the reference oracle and the tests compare.
"""

from __future__ import annotations

from activemon.engine import Violation
from activemon.io import MISSED
from activemon.schedule import check_scheduled_model, task_key


def missed_violations(missed, model, inputs) -> list:
    """One "schedule" `Violation` per spooled (step, task) pair."""
    pairs = iter(missed)
    return [Violation("schedule", step, model.time_at(step), MISSED,
                      task=task_key(task, inputs))
            for step, task in zip(pairs, pairs)]


def check_violations(analyzed, schedule, bound: int, model) -> list:
    """`check_scheduled_model`'s violations, then its misses expanded."""
    violations, missed, _, _ = check_scheduled_model(analyzed, schedule,
                                                     bound, model)
    return violations + missed_violations(missed, model, schedule.inputs)
