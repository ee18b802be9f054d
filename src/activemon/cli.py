"""Command line front end.

Subcommands: translate, run, baseline, compare, check. Trigger reports go
to stdout as JSONL; everything else lands in --out-dir when given. Exit
codes: 0 clean (triggers included), 1 oracle violations, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import AnalyzedSpec, analyze
from .ast import format_spec
from .errors import OutOfRange, SpecError
from .io import (read_json, read_model_blocks, read_text, read_trace,
                 trigger_json, violation_lines, write_json, write_model,
                 write_plan_log, write_triggers)
from .parser import parse_spec, positive_finite
from .schedule import MODES, check_scheduled_model
from .scheduler import run_scheduled
from .sim import (CROSSING_KINDS, TraceSource, baseline_name,
                  compute_metrics, generate_flight, run_experiment, run_fixed,
                  scenario_from_json, trace_fingerprint)
from .translate import translate

SPEC_DIR = Path(__file__).parent / "specs"


def _load(path) -> AnalyzedSpec:
    return analyze(parse_spec(read_text(path), filename=str(path)))


def _positive(value) -> bool:
    """A JSON number whose float is positive and finite."""
    return type(value) in (int, float) and positive_finite(value)


def _frequency(text: str) -> Fraction:
    """argparse type for a sampling frequency: a number of Hz, read
    exactly, whose float and whose period's float are positive and finite."""
    try:
        freq = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (positive_finite(freq) and positive_finite(1 / freq)):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number with a finite period: {text!r}")
    return freq


def _seconds(text: str) -> Fraction:
    """argparse type for a run length: a positive finite number of seconds,
    read exactly, so 0.1 is 1/10 and not the binary float nearest it."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not _positive(seconds):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number: {text!r}")
    return Fraction(text)


def _bandwidth(text: str) -> int:
    """argparse type for a bandwidth bound: an integer of at least 1."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if bound < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return bound


def _emit(run, analyzed, metrics, out_dir):
    """Triggers to stdout; triggers, model and metrics to out_dir if given,
    else the metrics to stderr."""
    for report in run.triggers:
        print(trigger_json(report))
    if not out_dir:
        print(json.dumps(metrics.as_json()), file=sys.stderr)
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_triggers(out / "triggers.jsonl", run.triggers)
    write_model(out / "model.csv", run.model, analyzed)
    write_json(out / "metrics.json", metrics.as_json())


def cmd_translate(args) -> int:
    analyzed = _load(args.spec)
    tr = translate(analyzed, args.mode)
    text = format_spec(tr.spec)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if args.task_table:
        write_json(args.task_table, tr.task_table)
    return 0


def _source_for(args, analyzed):
    """The trace to run over and the run's horizon: --horizon, else the
    scenario's duration or the cycles that the trace covers."""
    if args.scenario:
        scenario = scenario_from_json(read_json(args.scenario))
        trace = generate_flight(scenario)
        default = Fraction(str(scenario.duration))
    else:
        trace = read_trace(args.trace, analyzed)
        default = trace.through(analyzed.config.period,
                                analyzed.spec.input_names())
    return trace, default if args.horizon is None else args.horizon


def cmd_run(args) -> int:
    analyzed = _load(args.spec)
    tr = translate(analyzed, args.mode)
    trace, horizon = _source_for(args, analyzed)
    run = run_scheduled(tr, TraceSource(trace), horizon, args.bound)
    if not run.report.ok or run.report.deadline_warnings:
        for line in run.report.lines():
            print(line, file=sys.stderr)
    metrics = compute_metrics(run.model, analyzed.spec.input_names(),
                              float(horizon),
                              fingerprint=trace_fingerprint(trace))
    _emit(run, tr.plain, metrics, args.out_dir)
    if args.out_dir:
        write_plan_log(Path(args.out_dir) / "plans.jsonl", run.plans, tr.mode,
                       tr.schedule.inputs)
    return 0


def cmd_baseline(args) -> int:
    analyzed = _load(args.spec)
    trace = read_trace(args.trace, analyzed)
    inputs = analyzed.spec.input_names()
    horizon = args.horizon
    if horizon is None:
        covered = trace.covered()
        if covered <= 0:
            raise OutOfRange(f"the trace's inputs are all covered only up to "
                             f"t={covered}, so a baseline from time 0 covers "
                             "no time; give --horizon")
        horizon = trace.through(1 / args.freq, inputs)
    base = run_fixed(analyzed, trace, args.freq, horizon)
    metrics = compute_metrics(base.model, inputs, float(horizon))
    _emit(base, analyzed, metrics, args.out_dir)
    return 0


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# optional compare config fields: (accepts the value, what it must be)
_CONFIG_FIELDS = {
    "mode": (lambda v: v in MODES, "one of " + ", ".join(MODES)),
    "bound": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "horizon": (_positive, "a positive number"),
    "window": (_positive, "a positive number"),
    "baselines": (lambda v: isinstance(v, list) and all(map(_positive, v)),
                  "a list of positive numbers"),
    "groups": (lambda v: isinstance(v, dict)
               and all(map(_strings, v.values())),
               "an object of input-name lists"),
    "trigger_kinds": (lambda v: isinstance(v, dict)
                      and all(isinstance(kind, str) for kind in v.values()),
                      "an object of kind names"),
}


def _read_config(config_path: Path) -> tuple:
    """The compare config, every field checked, and its spec's path;
    SpecError if malformed."""
    config = read_json(config_path)
    if not isinstance(config, dict) or not isinstance(config.get("spec"), str):
        raise SpecError(f"{config_path}: the config needs a \"spec\" file name")
    spec_name = Path(config["spec"])
    for candidate in (spec_name, config_path.parent / spec_name,
                      SPEC_DIR / spec_name):
        if candidate.is_file():
            spec_path = candidate
            break
    else:
        raise SpecError(f"spec '{config['spec']}' not found")
    if not isinstance(config.get("scenarios"), list) or not config["scenarios"]:
        raise SpecError(f"{config_path}: the config needs a nonempty "
                        "\"scenarios\" list")
    for key, (ok, what) in _CONFIG_FIELDS.items():
        if key in config and not ok(config[key]):
            raise SpecError(f"{config_path}: \"{key}\" must be {what}, "
                            f"got {config[key]!r}")
    named: dict = {}  # run name -> the first baselines entry that gives it
    for freq in config.get("baselines", ()):
        name = baseline_name(freq)
        if name in named:
            raise SpecError(f"{config_path}: \"baselines\" entries "
                            f"{named[name]!r} and {freq!r} both run as {name}")
        named[name] = freq
    return config, spec_path


def _check_config_names(config_path: Path, config: dict,
                        analyzed: AnalyzedSpec) -> None:
    """SpecError if `groups` or `trigger_kinds` name an input, a trigger or
    a crossing kind that does not exist; the unknown names are sorted."""
    groups = config.get("groups") or {}
    kinds = config.get("trigger_kinds") or {}
    unknown = (
        ("groups", "inputs the spec lacks",
         {m for members in groups.values() for m in members}
         - set(analyzed.spec.input_names())),
        ("trigger_kinds", "triggers the spec lacks",
         set(kinds) - set(analyzed.trigger_names)),
        ("trigger_kinds", "kinds other than " + ", ".join(CROSSING_KINDS),
         set(kinds.values()) - set(CROSSING_KINDS)),
    )
    for key, what, names in unknown:
        if names:
            raise SpecError(f"{config_path}: \"{key}\" names {what}: "
                            + ", ".join(sorted(names)))


def cmd_compare(args) -> int:
    config_path = Path(args.config)
    config, spec_path = _read_config(config_path)
    analyzed = _load(spec_path)
    _check_config_names(config_path, config, analyzed)
    tr = translate(analyzed, config.get("mode", "dp"))
    result = run_experiment(config, analyzed, tr)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.csv").write_text(
        "\n".join(result.csv_lines()) + "\n", encoding="utf-8")
    write_json(out / "summary.json", result.summary)
    print(json.dumps(result.summary["monitors"], indent=2, sort_keys=True))
    return 0


def cmd_check(args) -> int:
    """Verify a model in one forward pass over model.csv: each block is
    checked as it is read, and the lines are written once the walk is done,
    so a bad cell exits 2 with nothing on stdout. An unannotated spec's
    schedule obliges nothing, but its bandwidth is checked all the same."""
    analyzed = _load(args.spec)
    tr = translate(analyzed, args.mode)
    bound = args.bound if args.bound is not None else analyzed.config.bandwidth
    with read_model_blocks(args.model, tr.plain) as blocks:
        violations, missed, ticks, quantum = check_scheduled_model(
            tr.plain, tr.schedule, bound, blocks)
    sys.stdout.writelines(violation_lines(violations, missed, ticks, quantum,
                                          tr.schedule.inputs))
    if violations or missed:
        return 1
    print("ok", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="activemon",
        description="Active scheduling for stream-based runtime monitors.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("translate",
                       help="lower an annotated spec to a plain spec")
    t.add_argument("spec")
    t.add_argument("--mode", choices=MODES, default="dp")
    t.add_argument("-o", "--output", help="write the plain spec here")
    t.add_argument("--task-table", help="write the task table JSON here")
    t.set_defaults(func=cmd_translate)

    r = sub.add_parser("run", help="run the active scheduler over a source")
    r.add_argument("spec")
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="event trace CSV to replay")
    src.add_argument("--scenario", help="flight scenario JSON to synthesize")
    r.add_argument("--mode", choices=MODES, default="dp")
    r.add_argument("--horizon", type=_seconds, help="run length in seconds")
    r.add_argument("--bound", type=_bandwidth, help="bandwidth override")
    r.add_argument("--out-dir", help="write triggers/model/plans/metrics here")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("baseline", help="fixed-frequency monitor over a trace")
    b.add_argument("spec")
    b.add_argument("--trace", required=True)
    b.add_argument("--freq", required=True, type=_frequency,
                   help="sampling frequency in Hz")
    b.add_argument("--horizon", type=_seconds)
    b.add_argument("--out-dir")
    b.set_defaults(func=cmd_baseline)

    c = sub.add_parser("compare", help="run the bundled experiment config")
    c.add_argument("--config", required=True)
    c.add_argument("--out-dir", default=".")
    c.set_defaults(func=cmd_compare)

    k = sub.add_parser("check", help="verify a recorded model against the oracle")
    k.add_argument("spec")
    k.add_argument("--model", required=True)
    k.add_argument("--mode", choices=MODES, default="dp")
    k.add_argument("--bound", type=_bandwidth)
    k.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
