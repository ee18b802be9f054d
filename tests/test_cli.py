"""End-to-end checks of the command line front end."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from activemon import schedule
from activemon.analysis import analyze
from activemon.cli import _check_config_names, _load, _read_config, main
from activemon.engine import verify_model
from activemon.io import read_model, violation_lines, write_model
from activemon.parser import parse_spec
from activemon.scheduler import run_scheduled
from activemon.translate import translate

from events import Event, parse_time, run_events, write_trace
from test_translate import GOLDEN_PRIORITY


class ConstSource:
    """A sensor backend that answers each read with constant values."""

    def __init__(self, values):
        self.values = values

    def read(self, sensors, tick, quantum):
        return {s: self.values[s] for s in sensors}


@pytest.fixture()
def conflict_trace(tmp_path, conflict_text):
    analyzed = analyze(parse_spec(conflict_text))
    events = [Event(Fraction(t), {"a": 20.0, "b": 1.0}) for t in range(6)]
    path = tmp_path / "trace.csv"
    write_trace(path, events, analyzed)
    return path


# ---------------------------------------------------------------------------
# translate


def test_translate_prints_the_plain_spec(spec_dir, capsys):
    rc = main(["translate", str(spec_dir / "geofence_priority.lola"),
               "--mode", "priority"])
    assert rc == 0
    assert capsys.readouterr().out == GOLDEN_PRIORITY + "\n"


def test_translate_writes_output_and_task_table(spec_dir, tmp_path):
    out = tmp_path / "plain.lola"
    table = tmp_path / "tasks.json"
    rc = main(["translate", str(spec_dir / "geofence_priority.lola"),
               "--mode", "priority", "-o", str(out),
               "--task-table", str(table)])
    assert rc == 0
    assert out.read_text() == GOLDEN_PRIORITY + "\n"
    payload = json.loads(table.read_text())
    assert payload["mode"] == "priority"
    assert [row["inputs"] for row in payload["tasks"]] == \
        [["lat", "lon"], ["alt"]]
    assert all(row["overdue"] is None for row in payload["tasks"])


# ---------------------------------------------------------------------------
# run


def test_run_scenario_writes_artifacts(spec_dir, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 137, "duration": 60.0}))
    out = tmp_path / "out"
    rc = main(["run", str(spec_dir / "drone_experiment.lola"),
               "--scenario", str(scenario), "--out-dir", str(out)])
    assert rc == 0
    captured = capsys.readouterr()

    # triggers stream to stdout as JSONL
    lines = [json.loads(l) for l in captured.out.splitlines()]
    assert lines
    assert all(l["trigger"] in ("scheduled_geofence",
                                "scheduled_altitude_bound") for l in lines)
    # the precondition report (not ok: 3- and 4-sensor unions) goes to stderr
    assert "unschedulable task" in captured.err

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total_values"] == 240
    assert metrics["values_per_second"] == 4.0
    assert len((out / "model.csv").read_text().splitlines()) == 121
    plans = [json.loads(l) for l in
             (out / "plans.jsonl").read_text().splitlines()]
    assert len(plans) == 120
    assert all(p["mode"] == "dp" and len(p["queried"]) <= 2 for p in plans)
    assert (out / "triggers.jsonl").read_text().splitlines() == \
        captured.out.splitlines()


def test_run_trace_replays_a_recorded_flight(spec_dir, tmp_path, capsys,
                                             conflict_trace):
    out = tmp_path / "out"
    rc = main(["run", str(spec_dir / "priority_conflict.lola"),
               "--trace", str(conflict_trace), "--mode", "priority",
               "--out-dir", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # the conflict spec declares no triggers
    assert captured.err == ""  # report is ok at the configured bound
    metrics = json.loads((out / "metrics.json").read_text())
    # horizon = last event + period: 6 cycles, both sensors each cycle
    assert metrics["total_values"] == 12


def test_a_run_that_never_queries_writes_a_header_only_model(tmp_path,
                                                            capsys):
    # the only task, {a,b}, is wider than bandwidth 1: no cycle queries, so
    # the model has no step, yet every stream keeps its column
    spec = tmp_path / "pair.lola"
    spec.write_text('#![frequency="1Hz"]\ninput a : Float64\n'
                    "input b : Float64\noutput z\n"
                    '    #[priority="low"]\n    eval |@a && b| with a + b\n',
                    encoding="utf-8")
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n0,1.0,2.0\n1,1.0,2.0\n2,1.0,2.0\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--trace", str(trace), "--bound", "1",
                 "--out-dir", str(out)]) == 0
    assert "unschedulable task {a,b}" in capsys.readouterr().err
    assert (out / "model.csv").read_text() == \
        "time,a,b,z,schedule_a_b,last_a_b\n"
    assert len((out / "plans.jsonl").read_text().splitlines()) == 3
    assert main(["check", str(spec), "--model", str(out / "model.csv"),
                 "--bound", "1"]) == 0
    assert capsys.readouterr().err == "ok\n"


def test_run_metrics_go_to_stderr_without_out_dir(spec_dir, tmp_path, capsys,
                                                  conflict_trace):
    rc = main(["run", str(spec_dir / "priority_conflict.lola"),
               "--trace", str(conflict_trace), "--mode", "priority"])
    assert rc == 0
    err = capsys.readouterr().err
    assert json.loads(err)["total_values"] == 12


@pytest.mark.parametrize("rows,cycles", [
    # the last row is off the 1 Hz grid: cycles 0, 1 and 2
    (["0,20.0,1.0", "1,20.0,1.0", "2.5,20.0,1.0"], 3),
    # b's last sample is at 1, so the cycle at 2 would be past it
    (["0,20.0,1.0", "1,20.0,1.0", "2,20.0,"], 2),
])
def test_run_trace_stops_at_the_last_time_every_input_covers(
        spec_dir, tmp_path, capsys, rows, cycles):
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(["time,a,b", *rows]) + "\n")
    out = tmp_path / "out"
    rc = main(["run", str(spec_dir / "priority_conflict.lola"),
               "--trace", str(trace), "--mode", "priority",
               "--out-dir", str(out)])
    assert rc == 0, capsys.readouterr().err
    plans = (out / "plans.jsonl").read_text().splitlines()
    assert [json.loads(p)["time"] for p in plans] == list(range(cycles))
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["horizon"] == cycles


def test_run_trace_with_an_unsampled_input_is_a_usage_error(spec_dir,
                                                            tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n0,20.0,\n1,20.0,\n")
    err = _usage_error(["run", str(spec_dir / "priority_conflict.lola"),
                        "--trace", str(trace), "--mode", "priority"], capsys)
    assert "sensor 'b' cannot be queried" in err


# ---------------------------------------------------------------------------
# baseline


def test_baseline_queries_all_sensors(spec_dir, tmp_path, capsys,
                                      conflict_trace):
    out = tmp_path / "base"
    rc = main(["baseline", str(spec_dir / "priority_conflict.lola"),
               "--trace", str(conflict_trace), "--freq", "1",
               "--out-dir", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total_values"] == 12
    assert len((out / "model.csv").read_text().splitlines()) == 7


def test_baseline_stops_at_the_last_time_every_input_covers(
        spec_dir, tmp_path, capsys):
    # b's last sample is at 1.5 and a's at 2: at 3 Hz the events run through
    # 4/3, and the metrics span the five events' 5/3 s
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n0,20.0,1.0\n1.5,20.0,2.0\n2,21.0,\n")
    out = tmp_path / "base"
    rc = main(["baseline", str(spec_dir / "priority_conflict.lola"),
               "--trace", str(trace), "--freq", "3", "--out-dir", str(out)])
    assert rc == 0, capsys.readouterr().err
    model = (out / "model.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in model[1:]] == \
        ["0", "1/3", "2/3", "1", "4/3"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["horizon"] == 5 / 3
    assert metrics["total_values"] == 10


@pytest.mark.parametrize("rows", [
    ["0,20.0,1.0"],  # a span of zero seconds
    ["-2,20.0,1.0", "-1,20.0,1.0"],  # a trace wholly before time 0
])
def test_baseline_on_a_trace_that_ends_by_time_zero_is_a_usage_error(
        spec_dir, tmp_path, capsys, rows):
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(["time,a,b", *rows]) + "\n")
    out = tmp_path / "base"
    err = _usage_error(["baseline", str(spec_dir / "priority_conflict.lola"),
                        "--trace", str(trace), "--freq", "1",
                        "--out-dir", str(out)], capsys)
    assert "--horizon" in err
    assert not out.exists()


def test_run_and_baseline_share_one_default_span(spec_dir, tmp_path, capsys):
    # b's last sample is at 1.5 and a's at 2.5: at the spec's own frequency
    # both commands run the events at 0 and 1, and span those two periods
    spec = spec_dir / "priority_conflict.lola"
    freq = 1 / _load(spec).config.period
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n0,20.0,1.0\n1.5,20.0,2.0\n2.5,21.0,\n")
    assert main(["run", str(spec), "--trace", str(trace), "--mode",
                 "priority", "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["baseline", str(spec), "--trace", str(trace), "--freq",
                 str(freq), "--out-dir", str(tmp_path / "base")]) == 0, \
        capsys.readouterr().err
    cycles = (tmp_path / "run" / "plans.jsonl").read_text().splitlines()
    events = (tmp_path / "base" / "model.csv").read_text().splitlines()[1:]
    assert len(cycles) == len(events) == 2
    run, base = (json.loads((tmp_path / d / "metrics.json").read_text())
                 for d in ("run", "base"))
    assert run["horizon"] == base["horizon"] == 2 / freq
    assert base["per_sensor"] == {"a": freq, "b": freq}


def _ten_hz_spec(spec_dir, tmp_path) -> Path:
    text = (spec_dir / "priority_conflict.lola").read_text(encoding="utf-8")
    path = tmp_path / "ten_hz.lola"
    path.write_text(text.replace('frequency="1Hz"', 'frequency="10Hz"'),
                    encoding="utf-8")
    return path


# the binary floats nearest 0.1 and 0.2 lie above them; 0.7's lies below
@pytest.mark.parametrize("horizon,events", [
    ("0.1", 1), ("1e-1", 1), ("0.2", 2), ("0.7", 7)])
@pytest.mark.parametrize("command", ["run", "baseline"])
def test_a_horizon_is_read_exactly(spec_dir, tmp_path, capsys, command,
                                   horizon, events):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n" + "".join(
        f"{k}/10,20.0,1.0\n" for k in range(11)))
    out = tmp_path / "out"
    argv = {"run": ["run", str(_ten_hz_spec(spec_dir, tmp_path)),
                    "--mode", "priority"],
            "baseline": ["baseline", str(spec_dir / "priority_conflict.lola"),
                         "--freq", "10"]}[command]
    argv += ["--trace", str(trace), "--horizon", horizon,
             "--out-dir", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    model = (out / "model.csv").read_text().splitlines()[1:]
    assert [parse_time(row.split(",")[0]) for row in model] == \
        [Fraction(k, 10) for k in range(events)]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["horizon"] == float(horizon)


# ---------------------------------------------------------------------------
# compare


def test_compare_runs_the_experiment_config(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "spec": "drone_experiment.lola",
        "mode": "dp",
        "bound": 2,
        "horizon": 60.0,
        "window": 5.0,
        "baselines": [1.0, 2.0],
        "trigger_kinds": {"scheduled_geofence": "geofence",
                          "scheduled_altitude_bound": "altitude"},
        "scenarios": [{"seed": 101}, {"seed": 137}],
    }))
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", str(config), "--out-dir", str(out)])
    assert rc == 0

    monitors = json.loads(capsys.readouterr().out)
    assert set(monitors) == {"scheduled_dp", "fixed_1hz", "fixed_2hz"}
    assert monitors["scheduled_dp"]["missed"] == 0

    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[0] == "seed,run,trigger,crossing,detection,delay"
    assert len(rows) == 1 + 2 * 3 * 2  # seeds x runs x crossings
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monitors"] == monitors


def test_compare_reports_missing_spec(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"spec": "nope.lola", "scenarios": []}))
    rc = main(["compare", "--config", str(config)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


@pytest.fixture()
def conflict_model(tmp_path, conflict_text):
    tr = translate(analyze(parse_spec(conflict_text)), "priority")
    run = run_scheduled(tr, ConstSource({"a": 20.0, "b": 1.0}), 10)
    path = tmp_path / "model.csv"
    write_model(path, run.model, tr.plain)
    return path


def test_check_accepts_a_faithful_model(spec_dir, conflict_model, capsys):
    rc = main(["check", str(spec_dir / "priority_conflict.lola"),
               "--model", str(conflict_model), "--mode", "priority"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "ok"


def test_check_flags_a_mutated_cell(spec_dir, conflict_model, capsys):
    with open(conflict_model, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("x")
    assert rows[3][col] == "true"
    rows[3][col] = "false"
    with open(conflict_model, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)

    rc = main(["check", str(spec_dir / "priority_conflict.lola"),
               "--model", str(conflict_model), "--mode", "priority"])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    violation = json.loads(out[0])
    assert violation["kind"] == "semantic"
    assert violation["stream"] == "x"
    assert violation["step"] == 2


@pytest.mark.parametrize("mode", ["priority", "dp"])
def test_check_reads_a_model_time_finer_than_float_resolution(
        spec_dir, tmp_path, capsys, mode):
    # `run --trace` takes such a time; on the model's quantum, 10^400, the
    # oracle's ticks lie beyond float range
    spec = str(spec_dir / "priority_conflict.lola")
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n0,1.0,-1.0\n1,2.0,2.0\n2,3.0,-3.0\n"
                     "3,4.0,4.0\n")
    out = tmp_path / "out"
    assert main(["run", spec, "--trace", str(trace), "--mode", mode,
                 "--out-dir", str(out)]) == 0
    rows = (out / "model.csv").read_text().splitlines()
    rows[2] = "1e-400" + rows[2][rows[2].index(","):]
    model = tmp_path / "model.csv"
    model.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    rc = main(["check", spec, "--model", str(model), "--mode", mode])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == (1 if lines else 0)
    assert all(json.loads(line)["kind"] for line in lines)
    assert "Traceback" not in captured.err


def test_check_on_a_model_without_the_helper_columns_is_a_usage_error(
        tmp_path, spec_dir, conflict_text, capsys):
    # a model of the annotated spec lacks the translation's helper streams
    tr = translate(analyze(parse_spec(conflict_text)), "priority")
    run = run_scheduled(tr, ConstSource({"a": 20.0, "b": 1.0}), 10)
    path = tmp_path / "model.csv"
    write_model(path, run.model, tr.analyzed)
    rc = main(["check", str(spec_dir / "priority_conflict.lola"),
               "--model", str(path), "--mode", "priority"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "model lacks columns for spec streams" in err
    assert "schedule_a" in err and "last_a_b" in err
    assert "Traceback" not in err


def test_check_plain_spec_uses_the_semantic_oracle(tmp_path, capsys):
    spec = tmp_path / "plain.lola"
    spec.write_text("input s : Float64\noutput o := s + 1.0\n")
    analyzed = analyze(parse_spec(spec.read_text()))
    events = [Event(Fraction(0), {"s": 1.0}), Event(Fraction(1), {"s": 2.0})]
    model = run_events(analyzed, events)[0]
    path = tmp_path / "model.csv"
    write_model(path, model, analyzed)
    rc = main(["check", str(spec), "--model", str(path)])
    assert rc == 0
    assert capsys.readouterr().err.strip() == "ok"


TWO_INPUTS = "input a : Float64\ninput b : Float64\noutput s := a + b\n"


@pytest.fixture()
def two_input_model(tmp_path):
    """An unannotated two-input spec and its model: both inputs at steps 0
    and 1, only `a` at step 2."""
    spec = tmp_path / "two.lola"
    spec.write_text(TWO_INPUTS)
    events = [Event(Fraction(0), {"a": 1.0, "b": 2.0}),
              Event(Fraction(1, 2), {"a": 3.0, "b": 4.0}),
              Event(Fraction(1), {"a": 5.0})]
    analyzed = analyze(parse_spec(TWO_INPUTS))
    path = tmp_path / "model.csv"
    write_model(path, run_events(analyzed, events)[0], analyzed)
    return spec, path


@pytest.mark.parametrize("header,bound", [
    ("", ["--bound", "1"]), ("", []), ('#![bound="2"]\n', ["--bound", "1"]),
])
def test_check_plain_spec_measures_bandwidth(two_input_model, capsys, header,
                                             bound):
    # --bound, else the header's bound, which is 1 by default
    spec, model = two_input_model
    spec.write_text(header + TWO_INPUTS)
    rc = main(["check", str(spec), "--model", str(model), *bound])
    assert rc == 1
    assert [json.loads(line) for line in
            capsys.readouterr().out.splitlines()] == [
        {"kind": "bandwidth", "step": step, "time": time,
         "detail": "2 inputs arrive at once, bound is 1"}
        for step, time in ((0, 0.0), (1, 0.5))]


@pytest.mark.parametrize("header,bound", [
    ("", ["--bound", "2"]), ('#![bound="2"]\n', []),
])
def test_check_plain_spec_within_the_bound_is_ok(two_input_model, capsys,
                                                 header, bound):
    spec, model = two_input_model
    spec.write_text(header + TWO_INPUTS)
    rc = main(["check", str(spec), "--model", str(model), *bound])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (0, "", "ok\n")


def test_check_plain_spec_reports_what_verify_model_reports(
        two_input_model, capsys):
    spec, model = two_input_model
    rows = model.read_text().splitlines()
    rows[2] = rows[2].replace(",7.0", ",8.0")  # s at step 1 is 3.0 + 4.0
    # step 0 at 0.75, which step 1's 0.5 does not advance past
    rows[1] = "0.75" + rows[1][rows[1].index(","):]
    model.write_text("\n".join(rows) + "\n")
    analyzed = _load(spec)
    expected = verify_model(analyzed, read_model(model, analyzed))
    assert [v.kind for v in expected] == ["semantic"] * 2
    rc = main(["check", str(spec), "--model", str(model), "--bound", "2"])
    assert rc == 1
    assert capsys.readouterr().out == "".join(violation_lines(expected))


def test_check_plain_spec_builds_no_task_universe(tmp_path, capsys,
                                                  monkeypatch):
    # 18 inputs, each paced by its own output: 2**18 - 1 tasks, none of
    # which has regions or a bound, so `check` needs only those inside each
    # step's inputs
    names = [f"x{i}" for i in range(18)]
    text = "".join(f"input {n} : Float64\n" for n in names) + "".join(
        f"output o{n} |@{n}| := {n} + 1.0\n" for n in names)
    spec = tmp_path / "wide.lola"
    spec.write_text(text)
    analyzed = analyze(parse_spec(text))
    events = [Event(Fraction(k, 2), {names[k % 18]: float(k)})
              for k in range(200)]
    model = tmp_path / "model.csv"
    write_model(model, run_events(analyzed, events)[0], analyzed)

    built = []  # the size of every union closure that check builds

    def union_closure(*args):
        tasks = closure(*args)
        built.append(len(tasks))
        return tasks

    closure = schedule.union_closure
    monkeypatch.setattr(schedule, "union_closure", union_closure)
    rc = main(["check", str(spec), "--model", str(model)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (0, "", "ok\n")
    # each step has one input, which satisfies its one task
    assert built and max(built) == 1


# ---------------------------------------------------------------------------
# usage errors


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_run_requires_a_source(spec_dir):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(spec_dir / "priority_conflict.lola")])
    assert exc.value.code == 2


def test_missing_spec_file_returns_usage_error(capsys):
    rc = main(["translate", "no_such_spec.lola"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_spec_reports_the_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.lola"
    bad.write_text("output := := :=\n")
    rc = main(["translate", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("expr,message", [
    # the 101st level opens at column 113
    ("(" * 189 + "a" + " + a)" * 189, "2:113: expression nests more than 100"),
    # a chain is reported where it starts
    (" + ".join(["a"] * 2000), "2:13: expression tree is more than 500"),
])
def test_too_deep_an_expression_is_a_usage_error(tmp_path, capsys, expr,
                                                 message):
    spec = tmp_path / "deep.lola"
    spec.write_text(f"input a : Float64\noutput o := {expr}\n")
    err = _usage_error(["translate", str(spec)], capsys)
    assert f"deep.lola:{message} levels deep" in err


@pytest.mark.parametrize("literal,message", [
    ("2²", "2:18: unexpected character '²'"),
    ("9" * 5000, "2:17: integer literal has more than"),
    ("1e400", "2:17: float literal is beyond float range"),
])
@pytest.mark.parametrize("command", [
    ["translate"], ["run", "--trace", "trace.csv"],
    ["check", "--model", "model.csv"],
])
def test_a_number_literal_no_number_type_holds_is_a_usage_error(
        tmp_path, capsys, literal, message, command):
    spec = tmp_path / "lit.lola"
    spec.write_text(f"input a : Float64\noutput b := a + {literal}\n",
                    encoding="utf-8")
    err = _usage_error([command[0], str(spec), *command[1:]], capsys)
    assert f"error: {spec}:{message}" in err


def _usage_error(argv, capsys) -> str:
    """Run the CLI, require exit 2 without a traceback; return stderr."""
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects an argument
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "error:" in err
    return err


def test_non_numeric_trace_cell_is_a_usage_error(spec_dir, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n0,20.0,1.0\n1,abc,1.0\n")
    err = _usage_error(["run", str(spec_dir / "priority_conflict.lola"),
                        "--trace", str(trace)], capsys)
    assert "trace.csv:3:2" in err


def test_trace_time_beyond_float_range_is_a_usage_error(spec_dir, tmp_path,
                                                        capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n0,20.0,1.0\n1e400,20.0,1.0\n")
    err = _usage_error(["run", str(spec_dir / "priority_conflict.lola"),
                        "--trace", str(trace)], capsys)
    assert "trace.csv:3:1" in err and "beyond float range" in err


def test_model_time_beyond_float_range_is_a_usage_error(spec_dir,
                                                        conflict_model, capsys):
    with open(conflict_model, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][0] = "1e400"
    with open(conflict_model, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    err = _usage_error(["check", str(spec_dir / "priority_conflict.lola"),
                        "--model", str(conflict_model), "--mode", "priority"],
                       capsys)
    assert f"model.csv:{len(rows)}:1" in err and "beyond float range" in err


def test_a_repeated_trace_column_is_a_usage_error(spec_dir, tmp_path,
                                                   capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,a,b\n0,1,2,3\n")
    err = _usage_error(["baseline", str(spec_dir / "priority_conflict.lola"),
                        "--trace", str(trace), "--freq", "1",
                        "--horizon", "1"], capsys)
    assert "trace.csv:1:3: trace header repeats column 'a'" in err


def test_a_repeated_model_column_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "plain.lola"
    spec.write_text("input a : Float64\ninput b : Float64\n"
                    "output c := a + b\n")
    model = tmp_path / "model.csv"
    model.write_text("time,a,a,b,c\n0,1,2,3,5\n")
    err = _usage_error(["check", str(spec), "--model", str(model)], capsys)
    assert "model.csv:1:3: model header repeats column 'a'" in err


NOT_UTF8 = "not UTF-8 text: invalid start byte 0xff"


@pytest.mark.parametrize("command", [
    ["translate"], ["run", "--trace", "trace.csv"],
    ["check", "--model", "model.csv"],
])
def test_a_spec_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    spec = tmp_path / "spec.lola"
    spec.write_bytes(b"input a : Float64\n// caf\xff\noutput b := a\n")
    argv = [command[0], str(spec),
            *(str(tmp_path / arg) if arg.endswith(".csv") else arg
              for arg in command[1:])]
    err = _usage_error(argv, capsys)
    assert f"error: {spec}:2:7: {NOT_UTF8}" in err


def test_a_trace_that_is_not_utf8_is_a_usage_error(spec_dir, tmp_path,
                                                    capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"time,a,b\n0,20.0,1.0\n1,\xff,1.0\n")
    err = _usage_error(["run", str(spec_dir / "priority_conflict.lola"),
                        "--trace", str(trace)], capsys)
    assert f"error: {trace}:3:3: {NOT_UTF8}" in err


def test_a_model_that_is_not_utf8_is_a_usage_error(spec_dir, conflict_model,
                                                    capsys):
    data = conflict_model.read_bytes()
    conflict_model.write_bytes(data + b"\xff\r\n")
    line = data.count(b"\n") + 1
    err = _usage_error(["check", str(spec_dir / "priority_conflict.lola"),
                        "--model", str(conflict_model), "--mode", "priority"],
                       capsys)
    assert f"error: {conflict_model}:{line}:1: {NOT_UTF8}" in err


def test_a_scenario_that_is_not_utf8_is_a_usage_error(spec_dir, tmp_path,
                                                      capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(b'{"seed": 1,\n "name": "\xff"}')
    err = _usage_error(["run", str(spec_dir / "drone_experiment.lola"),
                        "--scenario", str(scenario)], capsys)
    assert f"error: {scenario}:2:11: {NOT_UTF8}" in err


# one past the csv module's default field size limit
HUGE_CELL = "1" * (131072 + 1)


@pytest.mark.parametrize("command", ["run", "baseline"])
def test_a_trace_cell_over_the_csv_field_limit_is_a_usage_error(
        spec_dir, tmp_path, capsys, command):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"time,a,b\n0,20.0,1.0\n1,{HUGE_CELL},1.0\n")
    extra = ["--freq", "1"] if command == "baseline" else []
    err = _usage_error([command, str(spec_dir / "priority_conflict.lola"),
                        "--trace", str(trace), *extra], capsys)
    assert f"error: {trace}:3:1: field larger than field limit" in err


def test_a_model_cell_over_the_csv_field_limit_is_a_usage_error(
        spec_dir, conflict_model, capsys):
    with open(conflict_model, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][1] = HUGE_CELL
    with open(conflict_model, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    err = _usage_error(["check", str(spec_dir / "priority_conflict.lola"),
                        "--model", str(conflict_model), "--mode", "priority"],
                       capsys)
    assert f"error: {conflict_model}:3:1: field larger than field limit" in err


def test_unknown_scenario_key_is_a_usage_error(spec_dir, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "speed": 3.0}))
    err = _usage_error(["run", str(spec_dir / "drone_experiment.lola"),
                        "--scenario", str(scenario)], capsys)
    assert "speed" in err


def test_negative_duration_is_a_usage_error(spec_dir, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "duration": -5.0}))
    err = _usage_error(["run", str(spec_dir / "drone_experiment.lola"),
                        "--scenario", str(scenario)], capsys)
    assert "duration" in err


@pytest.mark.parametrize("command, count", [
    ("run", "about 10^300"), ("baseline", "about 10^300"),
    ("scenario", "about 10^301"), ("compare", "about 10^301"),
])
def test_a_run_beyond_the_step_cap_is_a_usage_error(spec_dir, tmp_path,
                                                    command, count):
    # each of these would otherwise plan, count or sample about 1e300 steps
    spec = str(spec_dir / "priority_conflict.lola")
    trace = tmp_path / "trace.csv"
    trace.write_text("time,a,b\n0,20.0,1.0\n1e300,20.0,1.0\n")
    far = {"seed": 1, "duration": 1e300}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(far))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"spec": "drone_experiment.lola",
                                  "scenarios": [far]}))
    argv = {
        "run": ["run", spec, "--trace", str(trace)],
        "baseline": ["baseline", spec, "--trace", str(trace), "--freq", "1"],
        "scenario": ["run", str(spec_dir / "drone_experiment.lola"),
                     "--scenario", str(scenario)],
        "compare": ["compare", "--config", str(config),
                    "--out-dir", str(tmp_path / "out")],
    }[command]
    result = subprocess.run([sys.executable, "-m", "activemon.cli", *argv],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")
    assert f"{count} steps, more than the cap of 1000000" in result.stderr


# 1e400 Hz has no float, and neither has the period of 1e-400 or 1e-320 Hz
@pytest.mark.parametrize("freq", ["0", "abc", "-2", "1e400", "1e-400",
                                  "1e-320"])
def test_bad_baseline_frequency_is_a_usage_error(spec_dir, conflict_trace,
                                                 capsys, freq):
    err = _usage_error(["baseline", str(spec_dir / "priority_conflict.lola"),
                        "--trace", str(conflict_trace), "--freq", freq], capsys)
    assert "argument --freq: " in err


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--horizon", "inf"), ("run", "--horizon", "nan"),
    ("run", "--horizon", "0"), ("run", "--horizon", "-1"),
    ("run", "--horizon", "abc"), ("baseline", "--horizon", "-1"),
    ("baseline", "--horizon", "0"), ("run", "--horizon", "3/10"),
    ("baseline", "--horizon", "1/10"), ("run", "--bound", "0"),
    ("run", "--bound", "-1"), ("check", "--bound", "-3"),
    ("check", "--bound", "2.5"),
])
def test_invalid_numeric_flag_is_a_usage_error(spec_dir, conflict_trace,
                                               conflict_model, capsys,
                                               command, flag, value):
    spec = str(spec_dir / "priority_conflict.lola")
    argv = {
        "run": ["run", spec, "--trace", str(conflict_trace)],
        "baseline": ["baseline", spec, "--trace", str(conflict_trace),
                     "--freq", "1"],
        "check": ["check", spec, "--model", str(conflict_model),
                  "--mode", "priority"],
    }[command]
    err = _usage_error(argv + [flag, value], capsys)
    assert flag in err


def test_compare_without_scenarios_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"spec": "drone_experiment.lola",
                                  "scenarios": []}))
    err = _usage_error(["compare", "--config", str(config),
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert "scenarios" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("mode", "fast"), ("horizon", "long"), ("horizon", -5), ("bound", "two"),
    ("bound", 0), ("bound", True), ("window", None), ("baselines", [0]),
    ("groups", ["a"]), ("trigger_kinds", ["x"]),
])
def test_invalid_compare_config_field_is_a_usage_error(tmp_path, capsys,
                                                        key, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"spec": "drone_experiment.lola",
                                  "scenarios": [{"seed": 101}], key: value}))
    err = _usage_error(["compare", "--config", str(config),
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert f'"{key}"' in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("baselines, first, second", [
    ([1.0, 1], "1.0", "1"), ([1, 1], "1", "1"),
    ([2, 1.000001, 4, 1.000002], "1.000001", "1.000002"),
])
def test_baselines_that_share_a_run_name_are_a_usage_error(
        tmp_path, capsys, baselines, first, second):
    # both would report as fixed_1hz, pooled into one doubled summary entry
    config = tmp_path / "twice.json"
    config.write_text(json.dumps({"spec": "drone_experiment.lola",
                                  "scenarios": [{"seed": 101}],
                                  "baselines": baselines}))
    err = _usage_error(["compare", "--config", str(config),
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert err == (f'error: {config}: "baselines" entries {first} and '
                   f"{second} both run as fixed_1hz\n")
    assert not (tmp_path / "out").exists()


BUNDLED_GROUPS = {"safety": ["gps_lat_long", "gps_altitude"],
                  "experiment": ["barometer_pressure", "barometer_altitude"]}
BUNDLED_KINDS = {"scheduled_geofence": "geofence",
                 "scheduled_altitude_bound": "altitude"}


@pytest.mark.parametrize("key, value, message", [
    # a misspelt member would count nothing towards its group's bandwidth
    ("groups", dict(BUNDLED_GROUPS, safety=["gps_lat_long", "gps_altitud"]),
     '"groups" names inputs the spec lacks: gps_altitud'),
    ("groups", {"safety": ["zz", "gps_altitude", "aa"], "none": ["zz"]},
     '"groups" names inputs the spec lacks: aa, zz'),
    # a misspelt trigger would leave every crossing of its kind missed
    ("trigger_kinds", {"geofence_violation_typo": "geofence",
                       "scheduled_altitude_bound": "altitude"},
     '"trigger_kinds" names triggers the spec lacks: geofence_violation_typo'),
    ("trigger_kinds", {"z_trigger": "geofence", "a_trigger": "altitude",
                       "scheduled_geofence": "geofence"},
     '"trigger_kinds" names triggers the spec lacks: a_trigger, z_trigger'),
    ("trigger_kinds", dict(BUNDLED_KINDS, scheduled_geofence="speed"),
     '"trigger_kinds" names kinds other than altitude, geofence: speed'),
    ("trigger_kinds", {"scheduled_geofence": "zone",
                       "scheduled_altitude_bound": "height"},
     '"trigger_kinds" names kinds other than altitude, geofence: height, zone'),
])
def test_compare_config_naming_what_the_spec_lacks_is_a_usage_error(
        tmp_path, capsys, key, value, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "spec": "drone_experiment.lola", "scenarios": [{"seed": 101}],
        "groups": BUNDLED_GROUPS, "trigger_kinds": BUNDLED_KINDS,
        key: value}))
    err = _usage_error(["compare", "--config", str(config),
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert err == f"error: {config}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_the_bundled_config_names_only_what_its_spec_has(spec_dir):
    path = spec_dir / "experiment.json"
    config, spec_path = _read_config(path)
    assert config["groups"] and config["trigger_kinds"]
    _check_config_names(path, config, _load(spec_path))  # raises nothing


PAIR_TEXT = """\
#[priority="high"]
input a : Float64
#[priority="medium"]
input b : Float64
output x := a
output y := b
"""


@pytest.mark.parametrize("case, code", [("clean", 0), ("misses", 1),
                                        ("bound 0", 2)])
def test_python_m_activemon_check_exits_with_its_code(
        spec_dir, tmp_path, conflict_model, case, code):
    # the package runs as a module with only src on the path, installed or not
    spec, model = spec_dir / "priority_conflict.lola", conflict_model
    if case == "misses":
        # b served alone at 1 s while a holds the higher priority
        spec = tmp_path / "pair.lola"
        spec.write_text(PAIR_TEXT)
        tr = translate(analyze(parse_spec(PAIR_TEXT)), "priority")
        model = tmp_path / "pair.csv"
        write_model(model, run_events(tr.plain, [
            Event(Fraction(0), {"a": 1.0, "b": 1.0}),
            Event(Fraction(1), {"b": 2.0})])[0], tr.plain)
    argv = ["check", str(spec), "--model", str(model), "--mode", "priority",
            "--bound", "0" if case == "bound 0" else "2"]
    src = Path(__file__).parent.parent / "src"
    result = subprocess.run([sys.executable, "-m", "activemon", *argv],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    if code == 1:
        assert [json.loads(line)["kind"] for line in
                result.stdout.splitlines()] == ["schedule", "schedule"]
    else:
        assert result.stdout == ""
    if code == 2:
        assert "--bound: must be at least 1: '0'" in result.stderr


def test_module_entry_point_smoke(spec_dir):
    result = subprocess.run(
        [sys.executable, "-m", "activemon.cli",
         "translate", str(spec_dir / "geofence_priority.lola"),
         "--mode", "priority"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout == GOLDEN_PRIORITY + "\n"


# ---------------------------------------------------------------------------
# numbers beyond float range in specs and JSON inputs

SPEC_COMMANDS = [["translate"], ["run", "--trace", "trace.csv"],
                 ["check", "--model", "model.csv"]]


@pytest.mark.parametrize("text, message", [
    # the period of 1e-310 Hz, and the frequency 1e400 Hz, have no float
    ('#![frequency="1e-310Hz"]\n', "1:4: frequency '1e-310Hz' must be a "
     "positive finite number with a finite period"),
    ('#![frequency="1e400Hz"]\n', "1:4: frequency '1e400Hz' must be a "
     "positive finite number with a finite period"),
    ('#![deadline="1e400s"]\n', "1:4: duration '1e400s' is beyond float range"),
    ('#[deadline="1e400s"]\n', "3:3: duration '1e400s' is beyond float range"),
])
@pytest.mark.parametrize("command", SPEC_COMMANDS)
def test_a_spec_quantity_beyond_float_range_is_a_usage_error(
        tmp_path, capsys, text, message, command):
    spec = tmp_path / "far.lola"
    if text.startswith("#!"):
        spec.write_text(text + "input a : Float64\noutput b := a\n",
                        encoding="utf-8")
    else:  # the annotation of b, on line 3
        spec.write_text("#![bound=\"1\"]\ninput a : Float64\n" + text
                        + "output b := a\n", encoding="utf-8")
    err = _usage_error([command[0], str(spec), *command[1:]], capsys)
    assert err.startswith(f"error: {spec}:{message}\n")


def test_a_duration_finer_than_float_resolution_is_kept(tmp_path, capsys):
    spec = tmp_path / "fine.lola"
    spec.write_text('#![deadline="1e-400s"]\ninput a : Float64\n'
                    '#[priority="high"]\noutput b := a\n', encoding="utf-8")
    assert main(["translate", str(spec)]) == 0
    assert _load(spec).config.default_deadline == Fraction(1, 10**400)


HUGE_INT = 10**400


@pytest.mark.parametrize("key, value", [
    ("horizon", HUGE_INT), ("window", HUGE_INT), ("baselines", [1, HUGE_INT]),
])
def test_a_compare_config_number_beyond_float_range_is_a_usage_error(
        tmp_path, capsys, key, value):
    config = tmp_path / "far.json"
    config.write_text(json.dumps({"spec": "drone_experiment.lola",
                                  "scenarios": [{"seed": 1}], key: value}))
    err = _usage_error(["compare", "--config", str(config),
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert err.startswith(f'error: {config}: "{key}" must be ')
    assert not (tmp_path / "out").exists()


def _scenario_argv(spec_dir, tmp_path, command, scenario) -> list:
    """`run --scenario` or `compare` over one short scenario."""
    if command == "run":
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return ["run", str(spec_dir / "drone_experiment.lola"),
                "--scenario", str(path), "--horizon", "5"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"spec": "drone_experiment.lola",
                                "horizon": 5, "scenarios": [scenario]}))
    return ["compare", "--config", str(path),
            "--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("key", ["duration", "geofence_radius",
                                 "altitude_ceiling", "start_lat",
                                 "start_long", "ground_altitude"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_scenario_number_beyond_float_range_is_a_usage_error(
        spec_dir, tmp_path, capsys, key, command):
    scenario = {"seed": 1, "duration": 5.0, key: HUGE_INT}
    err = _usage_error(_scenario_argv(spec_dir, tmp_path, command, scenario),
                       capsys)
    assert err.startswith(f"error: invalid scenario: {key} must be a finite "
                          "number, got 1000")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_any_integer_seed_is_accepted(spec_dir, tmp_path, capsys, command):
    # random.Random takes an integer of any size
    scenario = {"seed": HUGE_INT, "duration": 5.0}
    assert main(_scenario_argv(spec_dir, tmp_path, command, scenario)) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_json_integer_beyond_the_digit_limit_is_a_usage_error(
        spec_dir, tmp_path, capsys, command):
    argv = _scenario_argv(spec_dir, tmp_path, command, {"seed": 1})
    path = Path(argv[argv.index("--scenario" if command == "run"
                                else "--config") + 1])
    # a long digit run inside a string, and a long float, come first
    path.write_text('{"note": "' + "7" * 5001 + '", "x": 1.' + "7" * 5001
                    + ',\n  "seed": ' + "9" * 5001 + "}")
    err = _usage_error(argv, capsys)
    limit = sys.get_int_max_str_digits()
    assert err == f"error: {path}:2:11: integer has more than {limit} digits\n"
