"""Scaling wall times to a nominal machine speed.

On a small shared host the CPU speed drifts by tens of percent over
seconds, far more than the differences the benchmark must resolve. Each
timed section is therefore bracketed by runs of a fixed pure-Python
reference kernel, independent of activemon, whose operation mix resembles
the program's: a recursive expression walk, Fraction bisection, dict
updates, small sorts and float formatting. A section's wall time is scaled
by REF_SECONDS over the mean of its two brackets. On a machine where the
kernel takes REF_SECONDS the scaled time is the wall time; elsewhere it is
the wall time that machine would have measured.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from fractions import Fraction

REF_SECONDS = 0.04  # the kernel's time on the host the bounds were set on
_TREE = ("+", ("*", "a", "b"), ("-", "c", ("max", "a", ("*", "b", "c"))))
_TIMES = tuple(Fraction(k, 10) for k in range(256))


def _ev(e, env):
    if isinstance(e, str):
        return env[e]
    op, x, y = e
    u, v = _ev(x, env), _ev(y, env)
    if op == "+":
        return u + v
    if op == "*":
        return u * v
    if op == "-":
        return u - v
    return max(u, v)


def reference_work(rounds: int = 2400) -> str:
    """Fixed work; the same on every call."""
    env = {"a": 0.0, "b": -2.0, "c": 0.25}
    counts: dict = {}
    rows: list = []
    acc = 0.0
    for k in range(rounds):
        env["a"] = k * 0.001
        acc += _ev(_TREE, env)
        i = bisect_right(_TIMES, Fraction(k % 256, 10) + Fraction(1, 20))
        counts[i & 31] = counts.get(i & 31, 0) + 1
        rows.append(f"{acc!r};{i}")
        if len(rows) == 16:
            rows.sort()
            rows.clear()
    return f"{acc!r}:{len(counts)}"


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class SpeedGauge:
    """Brackets consecutive timed sections with the reference kernel.

    Call `scale()` right after each section: it runs the closing bracket,
    which also opens the next section's, and returns the factor that turns
    the section's wall time into nominal-speed time.
    """

    def __init__(self):
        self._last = reference_seconds()

    def scale(self) -> float:
        before, self._last = self._last, reference_seconds()
        return 2.0 * REF_SECONDS / (before + self._last)
