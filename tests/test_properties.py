"""Property-based checks across the whole pipeline.

All generators draw from seeded random.Random instances, so hypothesis
shrinks over the seed and any failure replays from one integer.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import gen_specs
from activemon.analysis import analyze
from activemon.ast import format_spec
from activemon.engine import ABSENT, values_equal, verify_model
from activemon.parser import parse_spec
from activemon.scheduler import run_scheduled
from activemon.sim import TraceSource, compute_metrics
from activemon.translate import translate
from checks import check_violations, time_at
from events import run_events
from reference_eval import ModelReader, eval_expr

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@given(SEEDS)
@settings(max_examples=80, deadline=None)
def test_format_parse_is_a_fixed_point(seed):
    rng = Random(seed)
    mode = rng.choice(gen_specs.MODES)
    text = gen_specs.gen_spec(rng, mode, annotate=rng.random() < 0.5)
    once = format_spec(parse_spec(text))
    assert format_spec(parse_spec(once)) == once


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_monitor_models_pass_their_own_oracle(seed):
    rng = Random(seed)
    analyzed = analyze(parse_spec(gen_specs.gen_spec(rng)))
    events = gen_specs.gen_trace(
        rng, analyzed.spec.input_names(), rng.randint(1, 40))
    model = run_events(analyzed, events)[0]
    assert verify_model(analyzed, model) == []
    # evaluation is a pure function of the trace
    again = run_events(analyzed, events)[0]
    for name, column in model.streams.items():
        assert all(values_equal(a, b)
                   for a, b in zip(again.streams[name], column))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_single_cell_mutations_are_caught(seed):
    rng = Random(seed)
    analyzed = analyze(parse_spec(gen_specs.gen_spec(rng)))
    events = gen_specs.gen_trace(rng, analyzed.spec.input_names(), 20)
    model = run_events(analyzed, events)[0]
    cells = [
        (name, step)
        for name in analyzed.spec.output_names()
        for step in range(len(model))
        if model.streams[name][step] is not ABSENT
    ]
    if not cells:
        return
    name, step = rng.choice(cells)
    old = model.streams[name][step]
    if isinstance(old, bool):
        mutated = not old
    elif isinstance(old, float) and old != old:
        mutated = 1.0  # NaN cells flip to a number
    else:
        mutated = old + 1.0
    model.streams[name][step] = mutated
    assert any(v.stream == name and v.step == step
               for v in verify_model(analyzed, model))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_metrics_count_exactly_the_present_cells(seed):
    rng = Random(seed)
    analyzed = analyze(parse_spec(gen_specs.gen_spec(rng)))
    inputs = analyzed.spec.input_names()
    events = gen_specs.gen_trace(rng, inputs, rng.randint(1, 30))
    model = run_events(analyzed, events)[0]
    manual = sum(
        1 for name in inputs for v in model.streams[name] if v is not ABSENT)
    metrics = compute_metrics(model, inputs, 10.0)
    assert metrics.total_values == manual


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_region_guards_are_mutually_exclusive(seed):
    rng = Random(seed)
    mode = gen_specs.MODES[seed % 3]
    analyzed = analyze(parse_spec(gen_specs.gen_annotated_spec(rng, mode)))
    events = gen_specs.gen_trace(rng, analyzed.spec.input_names(), 25)
    model = run_events(analyzed, events)[0]
    reader = ModelReader(model)
    for entries in analyzed.annotations.values():
        chained = [e for e in entries if e.clause_index >= 0]
        if len(chained) < 2:
            continue
        for step in range(len(model)):
            read, offset_read = reader.at_step(step)
            now = float(time_at(model, step))
            hits = sum(
                1 for e in chained
                if eval_expr(e.condition, read, offset_read, now) is True)
            assert hits <= 1


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_scheduler_is_valid_at_generous_bounds(seed):
    rng = Random(seed)
    mode = gen_specs.MODES[seed % 3]
    text, bound, horizon, trace = gen_specs.gen_instance(rng, mode)
    tr = translate(analyze(parse_spec(text)), mode)
    run = run_scheduled(tr, TraceSource(trace), horizon, bound)
    assert check_violations(tr.plain, tr.schedule, bound, run.model) == []


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_dp_uniform_priorities_are_safe_at_minimum_bandwidth(seed):
    # with one shared priority and staleness bound, the stalest-first
    # queue never serves a fresh task past an overdue one, so even a
    # bandwidth of one admits no schedule violations
    rng = Random(seed)
    n = rng.randint(2, 4)
    dl = rng.randint(2, 3)
    lines = ['#![frequency="1Hz"]']
    for i in range(n):
        lines.append(f'#[priority="medium", deadline="{dl}s"]')
        lines.append(f"input s{i} : Float64")
    for i in range(n):
        lines.append(f"output o{i} := (s{i} * 2.0)")
    tr = translate(analyze(parse_spec("\n".join(lines) + "\n")), "dp")
    horizon = Fraction(rng.randint(10, 16))
    trace = gen_specs.gen_source_trace(
        rng, tr.plain.spec.input_names(), horizon)
    run = run_scheduled(tr, TraceSource(trace), horizon, 1)
    assert len(run.model) == int(horizon)
    assert check_violations(tr.plain, tr.schedule, 1, run.model) == []


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_translation_preserves_every_original_stream(seed):
    rng = Random(seed)
    mode = gen_specs.MODES[seed % 3]
    analyzed = analyze(parse_spec(gen_specs.gen_annotated_spec(rng, mode)))
    tr = translate(analyzed, mode)
    events = gen_specs.gen_trace(rng, analyzed.spec.input_names(), 25)
    base = run_events(analyzed, events)[0]
    lowered = run_events(tr.plain, events)[0]
    assert base.times == lowered.times
    for name in analyzed.spec.stream_names():
        assert all(values_equal(a, b) for a, b in
                   zip(lowered.streams[name], base.streams[name]))
