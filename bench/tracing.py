"""Outside-in tracing of activemon's layers, from the benchmark's own files.

The program is not edited: for the length of a traced run, the public
functions of each layer are replaced by wrappers that record a span (name,
start, end, parent). A module that bound a function with ``from … import``
holds its own reference, so every activemon module attribute that is the
original function is patched, and every one is put back afterwards.
Methods are patched once, on their class.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, module, attribute or Class.method), grouped by layer
TARGETS = (
    ("cli.main", "activemon.cli", "main"),
    ("parser.parse_spec", "activemon.parser", "parse_spec"),
    ("analysis.analyze", "activemon.analysis", "analyze"),
    ("translate.translate", "activemon.translate", "translate"),
    ("schedule.build_task_universe", "activemon.schedule", "build_task_universe"),
    ("schedule.check_scheduled_model", "activemon.schedule", "check_scheduled_model"),
    ("schedule.oracle_init", "activemon.schedule", "DecisionOracle.__init__"),
    ("schedule.oracle_decide", "activemon.schedule", "DecisionOracle.decide"),
    ("scheduler.run_scheduled", "activemon.scheduler", "run_scheduled"),
    ("scheduler.precondition", "activemon.scheduler", "build_precondition_report"),
    ("scheduler.plan", "activemon.scheduler", "SchedulerState.plan"),
    ("scheduler.observe", "activemon.scheduler", "SchedulerState.observe"),
    ("engine.eval_event", "activemon.engine", "eval_event"),
    ("engine.run_monitor_full", "activemon.engine", "run_monitor_full"),
    ("engine.verify_model", "activemon.engine", "verify_model"),
    ("sim.generate_flight", "activemon.sim", "generate_flight"),
    ("sim.TraceSource.query", "activemon.sim", "TraceSource.query"),
    ("sim.run_fixed", "activemon.sim", "run_fixed"),
    ("sim.trace_fingerprint", "activemon.sim", "trace_fingerprint"),
    ("sim.compare_runs", "activemon.sim", "compare_runs"),
    ("sim.run_experiment", "activemon.sim", "run_experiment"),
    ("io.read_model", "activemon.io", "read_model"),
    ("io.write_model", "activemon.io", "write_model"),
    ("io.write_plan_log", "activemon.io", "write_plan_log"),
    ("io.write_triggers", "activemon.io", "write_triggers"),
)

SPAN_STATS = (("calls", "count"), ("self_ms", "ms"), ("us_per_call", "us"))

# per-layer metrics that are not span statistics: name -> (unit, better)
COUNTS = {
    "scheduler.cycle_p99_us": ("us", "lower"),
    "schedule.universe_tasks": ("count", "lower"),
    "scheduler.working_tasks": ("count", "lower"),
    "scheduler.fill_ratio": ("ratio", "higher"),
    "scheduler.idle_cycles": ("count", "lower"),
    "io.model_bytes": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

_MARK = "__activemon_bench_wrapper__"


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{span}.{stat}", unit, "lower")
           for span, _, _ in TARGETS for stat, unit in SPAN_STATS]
    out.extend((name, unit, better) for name, (unit, better) in COUNTS.items())
    return out


def _program_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "activemon" or name.startswith("activemon."))]


def _resolve(module: str, attr: str):
    """(owner, attribute name) for a target."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def install(wrap, targets) -> list:
    """Replace each target by wrap(name, current) at every binding.

    Returns the (owner, attribute, previous value) list that `restore`
    undoes, in order.
    """
    saved = []
    for name, module, attr in targets:
        owner, attr = _resolve(module, attr)
        current = owner.__dict__[attr]
        wrapper = wrap(name, current)
        setattr(wrapper, _MARK, True)
        if isinstance(owner, type):
            saved.append((owner, attr, current))
            setattr(owner, attr, wrapper)
            continue
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if value is current:
                    saved.append((mod, key, current))
                    setattr(mod, key, wrapper)
    return saved


def restore(saved) -> None:
    for owner, attr, previous in reversed(saved):
        setattr(owner, attr, previous)


@contextmanager
def patched(wrap, targets):
    saved = install(wrap, targets)
    try:
        yield
    finally:
        restore(saved)


def leftover_wrappers() -> list:
    """Module or class attributes of activemon that are still wrappers."""
    found = []
    for mod in _program_modules():
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


class Tracer:
    """Spans kept in memory; per-name call counts and self time.

    Self time is a span's duration minus the time of its direct child
    spans. `keep` names spans whose return values are kept, for the count
    checks.
    """

    def __init__(self, keep=()):
        self.spans: list = []  # [name, start, end, parent index]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.results: dict = {name: [] for name in keep}
        self._stack: list = []
        self._child: list = []

    def wrap(self, name, fn):
        spans, stack, child = self.spans, self._stack, self._child
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        kept = self.results.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                span[1], span[2] = start, end
                if child:
                    child[-1] += end - start
                calls[name] += 1
                self_s[name] += end - start - inner
                total_s[name] += end - start
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def write_spans(self, path, origin: float) -> None:
        """JSONL, one span a line, times in microseconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3)}) + "\n")


class CycleClock:
    """One clock read per SchedulerState.plan entry.

    The time between two plan entries of one run is one closed-loop cycle
    (plan, query, eval_event, observe); the last cycle of a run ends when
    run_scheduled returns. Also keeps the last ScheduledRun for output checks.
    """

    TARGETS = (
        ("scheduler.run_scheduled", "activemon.scheduler", "run_scheduled"),
        ("scheduler.plan", "activemon.scheduler", "SchedulerState.plan"),
    )

    def __init__(self):
        self.runs: list = []  # the cycle times of each run, in seconds
        self.last_run = None
        self._stamps: list = []

    def wrap(self, name, fn):
        stamps = self._stamps
        clock = time.perf_counter
        if name == "scheduler.plan":
            def plan(state, at):
                stamps.append(clock())
                return fn(state, at)
            return plan

        def run_scheduled(*args, **kwargs):
            stamps.clear()
            result = fn(*args, **kwargs)
            stamps.append(clock())
            self.runs.append([b - a for a, b in zip(stamps, stamps[1:])])
            self.last_run = result
            return result
        return run_scheduled
