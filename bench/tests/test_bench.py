"""Tests of the benchmark itself: generators, metric names, tracing, outputs.

    python3 -m pytest bench/tests -q
"""

import importlib
import json
import re
from pathlib import Path

import pytest

import harness
import tracing
import workloads
from activemon.cli import SPEC_DIR
from speed import SpeedGauge

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_per_seed(tmp_path, name):
    workloads.generate(name, 5, tmp_path / "a", SPEC_DIR)
    workloads.generate(name, 5, tmp_path / "b", SPEC_DIR)
    workloads.generate(name, 6, tmp_path / "c", SPEC_DIR)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_wide_spec_has_the_stated_task_universe(tmp_path):
    files = workloads.generate("wide_universe", 5, tmp_path, SPEC_DIR)
    tr = harness._load_translation(files.spec, files.mode)
    assert len(tr.schedule.universe) == 2 ** workloads.WIDE_SENSORS - 1
    working = harness.SchedulerState(tr, files.bound).working
    assert len(working) == 9 + 36


def test_metric_names_and_units_are_valid_and_match_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in bench[key])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.per_layer_metrics()


def _bindings() -> dict:
    """Every attribute of every activemon module and class, by identity."""
    out = {}
    for mod in tracing._program_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    files = workloads.generate("compare_fleet", 5, tmp_path / "in", SPEC_DIR)
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer.wrap, tracing.TARGETS):
            import activemon.cli
            assert activemon.cli.main(
                ["run", str(files.spec), "--scenario", str(files.source),
                 "--horizon", "5", "--out-dir", str(tmp_path / "out")]) == 0
            assert tracing.leftover_wrappers()
            raise RuntimeError("restore must survive an exception")
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["scheduler.plan"] == 10  # 5 s at 2 Hz
    assert tracer.calls["engine.eval_event"] == 10
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracing.leftover_wrappers() == []


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    files = workloads.generate("compare_fleet", 5, tmp_path / "in", SPEC_DIR)
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrap, tracing.TARGETS):
        importlib.import_module("activemon.cli").main(
            ["run", str(files.spec), "--scenario", str(files.source),
             "--horizon", "5", "--out-dir", str(tmp_path / "out")])
    root = tracer.spans[0]
    assert root[0] == "cli.main" and root[3] == -1
    assert all(0 <= parent < i for i, (_, _, _, parent) in enumerate(tracer.spans)
               if i > 0)
    total = root[2] - root[1]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-6)
    tracer.write_spans(tmp_path / "spans.jsonl", root[1])
    lines = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(tracer.spans)
    assert json.loads(lines[0])["start_us"] == 0.0


@pytest.mark.parametrize("prints, ok", [(1 + 5 * 30, True), (1 + 30, True),
                                         (5 * 30, False), (1 + 3 * 30, False)])
def test_fingerprint_count_is_one_per_run_or_one_per_scenario(tmp_path, prints, ok):
    files = workloads.generate("compare_fleet", 5, tmp_path, SPEC_DIR)
    assert (files.scenarios, files.baselines) == (30, 4)
    wl = harness.Workload(files, tmp_path, None, 0, {})
    tracer = tracing.Tracer(keep=("scheduler.run_scheduled", "sim.run_fixed"))
    tracer.calls["sim.trace_fingerprint"] = prints
    problems = harness._count_checks(wl, harness.Iteration(None, None, None), tracer)
    assert ok == (problems == [])


def test_wide_universe_traces_only_its_own_spec(tmp_path):
    wl = harness.prepare("wide_universe", 5, tmp_path)
    tracer = tracing.Tracer(keep=("scheduler.run_scheduled", "sim.run_fixed"))
    it = harness.run_iteration(wl, SpeedGauge(),
                               harness.tracer_hook(tracer, wl.files.traced))
    assert it.failures() == []
    assert harness._count_checks(wl, it, tracer) == []
    assert tracer.calls["cli.main"] == 2  # run and check, not compare
    assert tracer.calls["scheduler.plan"] == it.cycles
    assert tracer.calls["sim.generate_flight"] == 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_default_seed_outputs_match_the_recorded_digests(tmp_path, name):
    wl = harness.prepare(name, harness.DEFAULT_SEED, tmp_path)
    assert wl.expected, "expected.json has no entry for this workload"
    it = harness.run_iteration(wl, SpeedGauge())
    assert it.failures() == []
    assert len(it.cycle_times) == it.cycles > 0
    assert it.violations.get("semantic", 0) == it.violations.get("bandwidth", 0) == 0


def test_entry_point_refuses_a_tree_without_the_program(tmp_path, monkeypatch):
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "drone_long", "--seed", "1"]) == 2
