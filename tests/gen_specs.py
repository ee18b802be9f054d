"""Random specifications, traces, and scheduler instances for the tests.

Every generator draws from an explicit random.Random, so a failing case
replays from its seed alone. Generated specs keep all value streams
Float64; guards and triggers produce Bool through comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from activemon.analysis import analyze
from activemon.parser import parse_spec
from activemon.sim import SensorTrace
from events import Event, trace_from_samples

LEVELS = ("high", "medium", "low")
MODES = ("deadline", "priority", "dp")
# off-grid specs: a 3 Hz period, and deadlines that are not whole seconds
# or that fall between the 1/2 and 1/3 s cycles
OFF_GRID_FREQUENCIES = ("1Hz", "2Hz", "3Hz")
OFF_GRID_DEADLINES = ("28/3s", "9.5s", "10s", "73/7s")
# mixed traces step by tenths, thirds and sevenths of a second
MIXED_DENOMINATORS = (10, 3, 7)


def _literal(rng: Random) -> str:
    return f"{rng.uniform(-8.0, 8.0):.1f}"


def _float_expr(rng: Random, avail: list, offsets: list, depth: int) -> str:
    """A Float64 expression over sync refs in avail and offset targets."""
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        if avail and rng.random() < 0.75:
            return rng.choice(avail)
        return _literal(rng)

    def sub() -> str:
        return _float_expr(rng, avail, offsets, depth - 1)

    if roll < 0.55:
        return f"({sub()} {rng.choice(['+', '-', '*'])} {sub()})"
    if roll < 0.65:
        return f"{rng.choice(['min', 'max'])}({sub()}, {sub()})"
    if roll < 0.75 and offsets:
        target = rng.choice(offsets)
        return (f"{target}.offset(by:-{rng.randint(1, 3)})"
                f".defaults(to: {_literal(rng)})")
    if roll < 0.83:
        return f"abs({sub()})"
    if roll < 0.90:
        return f"sqrt({sub()})"
    return f"({sub()} / {sub()})"


def _guard(rng: Random, avail: list) -> str:
    op = rng.choice(["<", "<=", ">", ">="])
    return f"{rng.choice(avail)} {op} {_literal(rng)}"


def _input_annotation(rng: Random, mode: str, deadline) -> str:
    dl = f'deadline="{deadline()}"'
    if mode == "deadline":
        return f"#[{dl}]"
    prio = f'priority="{rng.choice(LEVELS)}"'
    if rng.random() < 0.5:
        return f"#[{prio}, {dl}]"
    return f"#[{prio}]"


def _clause_annotation(rng: Random, mode: str, deadline) -> str:
    if mode == "deadline":
        return f'#[deadline="{deadline()}"]'
    return f'#[priority="{rng.choice(LEVELS)}"]'


def gen_spec(rng: Random, mode: str | None = None, annotate: bool = False,
             max_paced: int = 4, deadlines=(9, 20),
             off_grid: bool = False) -> str:
    """One well-formed spec as source text.

    With annotate=True at least one stream carries a scheduling
    annotation legal for `mode`, and only the first `max_paced` inputs
    appear in pacings so the task universe stays small. Deadlines are
    whole seconds within `deadlines`; with off_grid=True they come from
    OFF_GRID_DEADLINES instead, and the frequency may be 3 Hz.
    """
    if off_grid:
        def deadline():
            return rng.choice(OFF_GRID_DEADLINES)
    else:
        def deadline():
            return f"{rng.randint(*deadlines)}s"
    n_in = rng.randint(2, 4)
    inputs = [f"s{i}" for i in range(n_in)]
    paced = inputs[:max_paced]
    lines = []
    header = rng.random()
    if header < 0.4:
        freq = rng.choice(OFF_GRID_FREQUENCIES if off_grid else ["1Hz", "2Hz"])
        lines.append(f'#![frequency="{freq}", bound="2"]')
    if rng.random() < 0.5:
        lines.append("import math")

    annotated_inputs = []
    if annotate:
        annotated_inputs = rng.sample(paced, rng.randint(1, len(paced)))
    for name in inputs:
        if name in annotated_inputs:
            lines.append(_input_annotation(rng, mode, deadline))
        lines.append(f"input {name} : Float64")

    # float stream name -> the inputs its value depends on synchronously
    floats = {name: frozenset([name]) for name in paced}
    bool_names = []
    n_out = rng.randint(2, 5)
    for k in range(n_out):
        name = f"o{k}"
        members = rng.sample(paced, rng.randint(1, len(paced)))
        pac = frozenset(members)
        avail = sorted(s for s, deps in floats.items() if deps <= pac)
        offsets = sorted(floats)
        pacing = "&&".join(n for n in inputs if n in pac)
        shape = rng.random()
        may_annotate = annotate and rng.random() < 0.5
        if shape < 0.35:
            # shorthand output; force one sync ref so pacing inference
            # never comes up empty
            expr = f"({rng.choice(avail)} + {_float_expr(rng, avail, offsets, 2)})"
            if may_annotate:
                lines.append(_clause_annotation(rng, mode, deadline))
            lines.append(f"output {name} := {expr}")
            floats[name] = pac
        elif shape < 0.55:
            # boolean single clause, usable as a trigger
            expr = _guard(rng, avail)
            lines.append(f"output {name}")
            if may_annotate:
                lines.append(f"    {_clause_annotation(rng, mode, deadline)}")
            lines.append(f"    eval |@{pacing}| with {expr}")
            bool_names.append(name)
        else:
            # guarded multi-clause output, last clause unguarded
            lines.append(f"output {name}")
            n_clauses = rng.randint(2, 3)
            for c in range(n_clauses):
                if annotate and rng.random() < 0.7:
                    lines.append(f"    {_clause_annotation(rng, mode, deadline)}")
                body = _float_expr(rng, avail, offsets, 2)
                if c < n_clauses - 1:
                    lines.append(f"    eval |@{pacing}| "
                                 f"when {_guard(rng, avail)} with {body}")
                else:
                    lines.append(f"    eval |@{pacing}| with {body}")
            floats[name] = pac
    if bool_names and rng.random() < 0.6:
        lines.append(f'trigger {rng.choice(bool_names)} "flagged"')
    return "\n".join(lines) + "\n"


def paced_spec(tasks, inputs=("a", "b", "c")) -> str:
    """A spec over the Float64 `inputs` with one output explicitly paced on
    each task, a bit mask over them, so that its task universe is their
    union closure."""
    lines = [f"input {name} : Float64" for name in inputs]
    for k, task in enumerate(sorted(tasks)):
        pacing = " && ".join(n for i, n in enumerate(inputs) if task >> i & 1)
        lines += [f"output o{k}", f"    eval |@{pacing}| with 0.0"]
    return "\n".join(lines) + "\n"


def gen_annotated_spec(rng: Random, mode: str) -> str:
    return gen_spec(rng, mode, annotate=True)


def gen_trace(rng: Random, inputs, n_events: int, mixed: bool = False) -> list:
    """Events with strictly increasing tenth-second timestamps; with
    mixed=True each step is in tenths, thirds or sevenths."""
    events = []
    t = Fraction(0)
    names = list(inputs)
    for _ in range(n_events):
        t += Fraction(rng.randint(1, 10),
                      rng.choice(MIXED_DENOMINATORS) if mixed else 10)
        present = rng.sample(names, rng.randint(1, len(names)))
        values = {s: round(rng.uniform(-10.0, 10.0), 3) for s in present}
        events.append(Event(t, values))
    return events


def gen_source_trace(rng: Random, sensors, horizon: Fraction) -> SensorTrace:
    """Half-second ZOH samples covering [0, horizon] for every sensor."""
    samples = {}
    for s in sensors:
        pts = []
        t = Fraction(0)
        while t <= horizon:
            pts.append((t, round(rng.uniform(-10.0, 10.0), 3)))
            t += Fraction(1, 2)
        samples[s] = tuple(pts)
    return trace_from_samples(samples)


def gen_instance(rng: Random, mode: str, deadlines=(9, 20),
                 off_grid: bool = False):
    """A (spec text, bound, horizon, source trace) scheduling instance.

    The bound covers the widest universe task, and with the default
    `deadlines` (drawn from 9s up) deadline-mode deadlines exceed any
    worst-case split round at the generated frequencies, so a correct
    scheduler has a valid schedule to find. Shorter deadlines make
    staleness bounds expire within the 8-15 s horizon. `off_grid` is
    passed to `gen_spec`.
    """
    from activemon.schedule import build_task_universe

    text = gen_spec(rng, mode, annotate=True, max_paced=3, deadlines=deadlines,
                    off_grid=off_grid)
    analyzed = analyze(parse_spec(text))
    universe = build_task_universe(analyzed)
    widest = max((t.bit_count() for t in universe), default=1)
    bound = widest + rng.randint(0, 1)
    horizon = Fraction(rng.randint(8, 15))
    trace = gen_source_trace(rng, analyzed.spec.input_names(), horizon)
    return text, bound, horizon, trace


__all__ = [
    "MODES",
    "gen_annotated_spec",
    "gen_instance",
    "gen_source_trace",
    "gen_spec",
    "gen_trace",
]
