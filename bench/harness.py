"""Closed-batch replay benchmark of the activemon command line.

One iteration of a workload is the three user-facing commands on the
workload's generated inputs, in one process and in order: ``run`` writes an
out-dir, ``check`` verifies the model that ``run`` just wrote, and
``compare`` runs the workload's experiment config. The monitor's clock is
simulated time, so throughput is work done per wall second at the input
size the workload states. See README.md for the metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io as stdio
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import activemon.cli
from activemon.analysis import analyze
from activemon.engine import values_equal
from activemon.io import read_model
from activemon.parser import parse_spec
from activemon.scheduler import SchedulerState
from activemon.translate import translate

import tracing
import workloads
from speed import SpeedGauge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_DIR = Path(activemon.cli.SPEC_DIR)
WORK = ROOT / ".bench_run"  # working files and trace output, inside the checkout
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 1

END_TO_END = {  # name -> unit, in report order
    "setup_s": "s",
    "run_cycles_per_s": "1/s",
    "cycle_p50_us": "us",
    "cycle_p95_us": "us",
    "check_steps_per_s": "1/s",
    "scenarios_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_BLOCK_S = 0.1
SETUP_MIN_BLOCKS = 7
SETUP_MAX_BLOCKS = 31
SETUP_BUDGET_S = 2.0
PROBE_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# one CLI invocation


@dataclass
class Invocation:
    code: object  # exit code, or the exception the CLI raised
    seconds: float  # wall time
    stdout: str
    failures: list = field(default_factory=list)
    scale: float = 1.0  # wall to nominal-speed time, see speed.py

    @property
    def nominal(self) -> float:
        return self.seconds * self.scale


def invoke(argv) -> Invocation:
    """Call activemon.cli.main in-process, with its output captured."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = activemon.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash is a failed invocation
            code = exc
            traceback.print_exc()
        seconds = time.perf_counter() - start
    inv = Invocation(code, seconds, out.getvalue())
    if isinstance(code, BaseException):
        inv.failures.append(f"{argv[0]} raised: {err.getvalue().strip()}")
    return inv


# ---------------------------------------------------------------------------
# a prepared workload


@dataclass
class Workload:
    files: workloads.WorkloadFiles
    work: Path
    translation: object  # Translation of files.spec, for reading models back
    compare_cycles: int  # scheduler cycles of all scenarios in the config
    expected: dict  # recorded outputs at DEFAULT_SEED, or {}


def commands(f: workloads.WorkloadFiles, out: Path) -> dict:
    """The argv of each command of one iteration, writing under `out`."""
    return {
        "run": ["run", str(f.spec), f.source_flag, str(f.source),
                "--mode", f.mode, "--bound", str(f.bound),
                "--out-dir", str(out / "run")],
        "check": ["check", str(f.spec), "--model",
                  str(out / "run" / "model.csv"), "--mode", f.mode,
                  "--bound", str(f.bound)],
        "compare": ["compare", "--config", str(f.config),
                    "--out-dir", str(out / "compare")],
    }


def _load_translation(spec: Path, mode: str):
    return translate(analyze(parse_spec(spec.read_text(encoding="utf-8"),
                                        filename=str(spec))), mode)


def prepare(name: str, seed: int, work: Path) -> Workload:
    files = workloads.generate(name, seed, work / "inputs", SPEC_DIR)
    config = json.loads(files.config.read_text(encoding="utf-8"))
    compare_spec = files.config.parent / config["spec"]
    period = analyze(parse_spec(compare_spec.read_text(encoding="utf-8"))).config.period
    horizon = Fraction(str(config["horizon"]))
    expected = {}
    if seed == DEFAULT_SEED and EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["workloads"].get(name, {})
    return Workload(files, work, _load_translation(files.spec, files.mode),
                    files.scenarios * math.ceil(horizon / period), expected)


def measure_setup(spec: Path, mode: str, gauge: SpeedGauge) -> list:
    """Seconds of read + parse + analyze + translate, repeated in blocks.

    Returns (wall, nominal) per set-up, one pair per block of about
    SETUP_BLOCK_S, since the speed gauge needs longer sections than one
    set-up of a small spec.
    """
    t0 = time.perf_counter()
    _load_translation(spec, mode)  # warm-up
    reps = max(1, round(SETUP_BLOCK_S / (time.perf_counter() - t0)))
    gauge.scale()
    times: list = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_BLOCKS or (
            len(times) < SETUP_MAX_BLOCKS
            and time.perf_counter() - start < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        for _ in range(reps):
            _load_translation(spec, mode)
        wall = (time.perf_counter() - t0) / reps
        times.append((wall, wall * gauge.scale()))
    return times


# ---------------------------------------------------------------------------
# one iteration: run -> check -> compare, then the output checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary_digest(path: Path) -> str:
    """summary.json without the per-monitor bandwidth blocks."""
    summary = json.loads(path.read_text(encoding="utf-8"))
    for monitor in summary.get("monitors", {}).values():
        monitor.pop("bandwidth", None)
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def _models_equal(a, b) -> bool:
    if a.times != b.times or set(a.streams) != set(b.streams):
        return False
    return all(values_equal(x, y)
               for name, col in a.streams.items()
               for x, y in zip(col, b.streams[name], strict=True))


@dataclass
class Iteration:
    run: Invocation
    check: Invocation
    compare: Invocation
    cycles: int = 0
    steps: int = 0
    queried: int = 0  # sensor values the run's plans queried
    idle: int = 0  # run cycles that queried nothing
    model_bytes: int = 0
    cycle_times: list = field(default_factory=list)  # nominal seconds
    digests: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)

    @property
    def invocations(self) -> tuple:
        return (self.run, self.check, self.compare)

    @property
    def wall(self) -> float:
        return sum(inv.seconds for inv in self.invocations)

    @property
    def nominal(self) -> float:
        return sum(inv.nominal for inv in self.invocations)

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.failures)

    def failures(self) -> list:
        return [msg for inv in self.invocations for msg in inv.failures]


def _verify_run(wl: Workload, it: Iteration, out: Path, produced) -> None:
    inv = it.run
    if inv.code != 0:
        inv.failures.append(f"run exited {inv.code!r}, expected 0")
        return
    names = ("model.csv", "plans.jsonl", "triggers.jsonl")
    missing = [n for n in names if not (out / n).is_file()]
    if missing or produced is None:
        inv.failures.append(f"run wrote no {missing or 'ScheduledRun'}")
        return
    it.cycles = len(produced.plans)
    it.steps = len(produced.model)
    it.queried = sum(len(p.flat) for p in produced.plans)
    it.idle = sum(1 for p in produced.plans if not p.flat)
    it.model_bytes = (out / "model.csv").stat().st_size
    if len(it.cycle_times) != it.cycles:
        inv.failures.append(f"{len(it.cycle_times)} cycles timed of {it.cycles}")
    if not _models_equal(read_model(out / "model.csv", wl.translation.plain),
                         produced.model):
        inv.failures.append("io.read_model(model.csv) differs from the run's model")
    with open(out / "plans.jsonl", encoding="utf-8") as fh:
        logged = sum(1 for _ in fh)
    if logged != it.cycles:
        inv.failures.append(f"plans.jsonl has {logged} lines for {it.cycles} cycles")
    it.digests.update({n: _sha256(out / n) for n in names})


def _verify_check(it: Iteration) -> None:
    inv = it.check
    if inv.code not in (0, 1):
        inv.failures.append(f"check exited {inv.code!r}, expected 0 or 1")
        return
    kinds = Counter(json.loads(line)["kind"]
                    for line in inv.stdout.splitlines() if line.startswith("{"))
    it.violations = dict(sorted(kinds.items()))
    for kind in ("semantic", "bandwidth"):
        if kinds[kind]:
            inv.failures.append(f"check found {kinds[kind]} {kind} violations")
    if (inv.code == 1) != bool(kinds):
        inv.failures.append(f"check exited {inv.code} with {sum(kinds.values())} violations")


def _verify_compare(scenarios: int, it: Iteration, out: Path) -> None:
    inv = it.compare
    if inv.code != 0:
        inv.failures.append(f"compare exited {inv.code!r}, expected 0")
        return
    table, summary = out / "comparison.csv", out / "summary.json"
    if not table.is_file() or not summary.is_file():
        inv.failures.append("compare wrote no comparison.csv/summary.json")
        return
    seen = len(json.loads(summary.read_text(encoding="utf-8"))["scenarios"])
    if seen != scenarios:
        inv.failures.append(f"summary.json lists {seen} of {scenarios} scenarios")
    it.digests["comparison.csv"] = _sha256(table)
    it.digests["summary.json-bandwidth"] = _summary_digest(summary)


def _verify_expected(wl: Workload, it: Iteration) -> None:
    """The recorded outputs of DEFAULT_SEED, when this is that seed."""
    if not wl.expected:
        return
    owner = {"model.csv": it.run, "plans.jsonl": it.run,
             "triggers.jsonl": it.run, "comparison.csv": it.compare,
             "summary.json-bandwidth": it.compare}
    for name, digest in wl.expected["digests"].items():
        if it.digests.get(name) != digest:
            owner[name].failures.append(
                f"{name} digest {it.digests.get(name)} differs from the recorded {digest}")
    if it.violations != wl.expected["violations"]:
        it.check.failures.append(
            f"check violations {it.violations} differ from the recorded "
            f"{wl.expected['violations']}")


def _gauged(argv, gauge: SpeedGauge) -> Invocation:
    """Invoke from a collected heap, as a fresh CLI process would start."""
    gc.collect()
    inv = invoke(argv)
    inv.scale = gauge.scale()
    return inv


def run_iteration(wl: Workload, gauge: SpeedGauge, hook=None) -> Iteration:
    """The three commands, timed, then their outputs checked.

    hook(command), if given, is a context entered around that command. The
    cycle clock is installed around `run` only, so it times the cycles of
    the workload's own spec.
    """
    out = wl.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = commands(wl.files, out)
    hook = hook or (lambda command: contextlib.nullcontext())
    clock = tracing.CycleClock()
    with hook("run"):
        gauge.scale()  # the bracket opening `run`, after the previous checks
        with tracing.patched(clock.wrap, clock.TARGETS):
            run = _gauged(argv["run"], gauge)
    with hook("check"):
        check = _gauged(argv["check"], gauge)
    with hook("compare"):
        compare = _gauged(argv["compare"], gauge)
    it = Iteration(run, check, compare)
    if clock.runs:
        it.cycle_times = [t * run.scale for t in clock.runs[0]]
    _verify_run(wl, it, out / "run", clock.last_run)
    _verify_check(it)
    _verify_compare(wl.files.scenarios, it, out / "compare")
    _verify_expected(wl, it)
    return it


def _check_repeats(iters: list) -> list:
    """Later iterations must write the same outputs as the first."""
    first = iters[0]
    return [f"iteration {k} wrote different {name}"
            for k, it in enumerate(iters[1:], start=1)
            for name, digest in first.digests.items()
            if it.digests.get(name) != digest]


def _iterate(seconds: float, step) -> list:
    """Call step() until `seconds` are spent; stop early rather than late."""
    done: list = []
    start = time.perf_counter()
    while True:
        done.append(step())
        spent = time.perf_counter() - start
        if spent + spent / len(done) > seconds:
            return done


# ---------------------------------------------------------------------------
# peak memory, in a fresh process


def rss_probe(name: str, seed: int) -> dict:
    """One iteration without hooks; ru_maxrss read before any checking.

    Only the input files are made first, so that the CLI's own objects are
    the only large ones alive.
    """
    work = WORK / f"{name}-seed{seed}-rss-{os.getpid()}"
    try:
        files = workloads.generate(name, seed, work / "inputs", SPEC_DIR)
        out = work / "out"
        argv = commands(files, out)
        it = Iteration(*(invoke(argv[c]) for c in workloads.COMMANDS))
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if it.run.code != 0:
            it.run.failures.append(f"run exited {it.run.code!r}")
        _verify_check(it)
        _verify_compare(files.scenarios, it, out / "compare")
        return {"maxrss_kb": maxrss_kb, "attempted": 3, "failed": it.failed,
                "failures": it.failures()}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def peak_rss(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--rss-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"peak RSS probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the two kinds of run


@dataclass
class Result:
    metrics: dict  # name -> (value, unit, samples note)
    attempted: int
    failed: int
    problems: list  # failures and failed checks, for stderr

    @property
    def correct(self) -> bool:
        return not self.problems


def measure(name: str, seed: int, seconds: float) -> Result:
    """End-to-end metrics, tracing off."""
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    try:
        wl = prepare(name, seed, work)
        probe = peak_rss(name, seed)
        gauge = SpeedGauge()
        setup = measure_setup(wl.files.spec, wl.files.mode, gauge)
        iters = _iterate(seconds, lambda: run_iteration(wl, gauge))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [m for it in iters for m in it.failures()] + probe["failures"]
    problems += _check_repeats(iters)
    result = Result({}, 3 * len(iters) + probe["attempted"],
                    sum(it.failed for it in iters) + probe["failed"], problems)
    good = [it for it in iters if not it.failed]
    if not good:
        return result
    n, first = len(good), good[0]

    def rate(amount, invs) -> tuple:
        """Median nominal rate, and the median wall rate for the note."""
        invs = list(invs)
        return (statistics.median(amount / inv.nominal for inv in invs),
                statistics.median(amount / inv.seconds for inv in invs))

    run_rate = rate(first.cycles, (it.run for it in good))
    check_rate = rate(first.steps, (it.check for it in good))
    compare_rate = rate(wl.files.scenarios, (it.compare for it in good))
    cycles = [t for it in good for t in it.cycle_times]
    pct = statistics.quantiles(cycles, n=100)
    pooled = f"{len(cycles)} cycles of {n} runs"
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup),
                    f"median of {len(setup)} blocks; wall "
                    f"{statistics.median(w for w, _ in setup):.6g}"),
        "run_cycles_per_s": (run_rate[0], f"median of {n} runs of "
                             f"{first.cycles} cycles; wall {run_rate[1]:.6g}"),
        "cycle_p50_us": (pct[49] * 1e6, pooled),
        "cycle_p95_us": (pct[94] * 1e6, pooled),
        "check_steps_per_s": (check_rate[0], f"median of {n} checks of "
                              f"{first.steps} steps; wall {check_rate[1]:.6g}"),
        "scenarios_per_s": (compare_rate[0], f"median of {n} compares of "
                            f"{wl.files.scenarios} scenarios; wall {compare_rate[1]:.6g}"),
        "peak_rss_mb": (probe["maxrss_kb"] / 1024.0, "1 fresh process"),
    }
    result.metrics = {k: (v, END_TO_END[k], note) for k, (v, note) in metrics.items()}
    return result


def _count_checks(wl: Workload, it: Iteration, tracer: tracing.Tracer) -> list:
    """Call counts that a wrapper missing a call site would break."""
    runs = tracer.results["scheduler.run_scheduled"]
    fixed = tracer.results["sim.run_fixed"]
    compared = "compare" in wl.files.traced
    problems = []
    cycles = it.cycles + (wl.compare_cycles if compared else 0)
    if tracer.calls["scheduler.plan"] != cycles or sum(len(r.plans) for r in runs) != cycles:
        problems.append(f"scheduler.plan.calls {tracer.calls['scheduler.plan']} "
                        f"!= {cycles} cycles")
    rows = sum(len(r.model) for r in runs + fixed)
    if tracer.calls["engine.eval_event"] != rows:
        problems.append(f"engine.eval_event.calls {tracer.calls['engine.eval_event']} "
                        f"!= {rows} model rows")
    # one for `run`; per compared scenario, one for each of its 1 + b runs
    # as the code does today, or one shared by them all
    s, b = wl.files.scenarios, wl.files.baselines
    allowed = {1 + (1 + b) * s, 1 + s} if compared else {1}
    prints = tracer.calls["sim.trace_fingerprint"]
    if prints not in allowed:
        problems.append(f"sim.trace_fingerprint.calls {prints} not in {sorted(allowed)}")
    return problems


def tracer_hook(tracer: tracing.Tracer, traced: tuple):
    """A run_iteration hook that traces the commands named in `traced`."""
    def hook(command):
        if command in traced:
            return tracing.patched(tracer.wrap, tracing.TARGETS)
        return contextlib.nullcontext()
    return hook


def measure_traced(name: str, seed: int, seconds: float) -> Result:
    """Per-layer metrics: untraced and traced iterations, alternating."""
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    trace_dir = WORK / "trace"
    plain: list = []
    traced: list = []
    tracers: list = []
    problems: list = []

    def pair():
        plain.append(run_iteration(wl, gauge))
        tracer = tracing.Tracer(keep=("scheduler.run_scheduled", "sim.run_fixed"))
        origin = time.perf_counter()
        traced.append(run_iteration(wl, gauge, tracer_hook(tracer, wl.files.traced)))
        problems.extend(_count_checks(wl, traced[-1], tracer))
        if not tracers:
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(trace_dir / f"{name}-seed{seed}.spans.jsonl", origin)
        tracer.spans.clear()
        tracer.results.clear()
        tracers.append(tracer)

    try:
        wl = prepare(name, seed, work)
        gauge = SpeedGauge()
        _iterate(seconds, pair)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += [m for it in plain + traced for m in it.failures()]
    problems += _check_repeats(plain + traced)
    if any(t.calls != tracers[0].calls for t in tracers[1:]):
        problems.append("traced iterations made different call counts")
    problems += [f"wrapper left installed: {w}" for w in tracing.leftover_wrappers()]
    iters = plain + traced
    result = Result({}, 3 * len(iters), sum(it.failed for it in iters), problems)
    if result.failed:
        return result

    first = traced[0]
    overhead = 100.0 * (statistics.median(it.nominal for it in traced)
                        / statistics.median(it.nominal for it in plain) - 1.0)
    # span times in nominal-speed time, at each iteration's mean scale
    scales = [it.nominal / it.wall for it in traced]
    values = {}
    for span, _, _ in tracing.TARGETS:
        calls = tracers[0].calls[span]
        self_ms = statistics.median(
            t.self_s[span] * k for t, k in zip(tracers, scales)) * 1e3
        values[f"{span}.calls"] = calls
        values[f"{span}.self_ms"] = self_ms
        values[f"{span}.us_per_call"] = self_ms * 1e3 / calls if calls else 0.0
    # p99 lies where host stalls of 1-4 ms hit about 0.5 % of wide_universe
    # cycles, too unsteady from run to run to carry a bound; taken from the
    # untraced iterations
    cycles = [t for it in plain for t in it.cycle_times]
    values.update({
        "scheduler.cycle_p99_us": statistics.quantiles(cycles, n=100)[98] * 1e6,
        "schedule.universe_tasks": len(wl.translation.schedule.universe),
        "scheduler.working_tasks": len(SchedulerState(wl.translation,
                                                      wl.files.bound).working),
        "scheduler.fill_ratio": first.queried / (wl.files.bound * first.cycles),
        "scheduler.idle_cycles": first.idle,
        "io.model_bytes": first.model_bytes,
        "trace.overhead_pct": overhead,
    })
    note = f"per iteration of {'+'.join(wl.files.traced)}, {len(traced)} traced"
    result.metrics = {m: (values[m], unit, note)
                      for m, unit, _ in tracing.per_layer_metrics()}
    _write_summary(trace_dir / f"{name}-seed{seed}.summary.json",
                   name, seed, wl.files.traced, result.metrics, tracers, scales,
                   problems)
    return result


def _write_summary(path: Path, name: str, seed: int, traced: tuple, metrics: dict,
                   tracers: list, scales: list, problems: list) -> None:
    """Per-layer totals next to the spans file."""
    layers: dict = {}
    for span, _, _ in tracing.TARGETS:
        layer = span.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + metrics[f"{span}.self_ms"][0]
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "traced_commands": list(traced),
        "layer_self_ms": layers,
        "span_total_ms": {span: statistics.median(t.total_s[span] * k for t, k
                                                  in zip(tracers, scales)) * 1e3
                          for span, _, _ in tracing.TARGETS},
        "metrics": {k: v for k, (v, _, _) in metrics.items()},
        "problems": problems,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def report(result: Result) -> str:
    """Human-readable lines, then the one-line JSON result last."""
    lines = [f"{name:<44} {value:>14.6g} {unit:<6} ({note})"
             for name, (value, unit, note) in result.metrics.items()]
    lines.append(f"{'error_rate':<44} {result.failed / result.attempted:>14.6g} "
                 f"{'ratio':<6} ({result.failed} of {result.attempted} invocations)")
    lines.append(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result.metrics.items()},
    }))
    return "\n".join(lines)
