"""Synthetic flight traces, fixed-frequency baselines, and run comparison.

A trace keeps time as integer ticks on a quantum (tick n is n/quantum s);
the sensor model is zero-order hold over its samples. A caller names a
time the same way, as a tick on its own quantum, and asks for all the
sensors it wants at that time in one request: anything with a
``read(sensors, tick, quantum) -> {sensor: value}`` method can stand in for
TraceSource, so a live simulator backend, which answers one request per
cycle, can be plugged into the scheduler without touching it. The
scheduler and the fixed-frequency baseline sample through the same `read`.

A synthetic flight is synthesized column by column: each sensor's samples
come from one list comprehension per leg of the trajectory, whose
boundaries are found by bisecting the grid times, and all its sensors
share one tick array, which `read` bisects once for all of them. Once the
drone is home and landed, the return and the descent stay at their floors:
that settled tail is bisected too, and its positions and altitudes are one
repeated value each, so a long flight computes per sample only the
barometer's noise.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import statistics
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from random import Random
from typing import Optional

from .analysis import AnalyzedSpec
from .engine import ABSENT, EvaluationModel, check_steps, run_monitor_full
from .errors import MismatchedTraces, OutOfRange, SensorUnavailable, SpecError

GRID_HZ = 10  # sampling grid of generated traces


# ---------------------------------------------------------------------------
# traces and zero-order-hold reads


@dataclass(frozen=True)
class SensorTrace:
    """Per-sensor sampled signals on an integer time grid.

    Sample i of a sensor lies at ticks[sensor][i] / quantum seconds and
    holds values[sensor][i]. Ticks are strictly increasing per sensor, as
    an array('q') while they fit in 64 bits, else as a list of ints.
    Sensors sampled at the same times may share one tick array.
    """

    quantum: int
    ticks: dict  # sensor -> ticks
    values: dict  # sensor -> list of values, one per tick

    def sensors(self):
        return sorted(self.ticks)

    def covered(self) -> Fraction:
        """The last time that every sensor's samples still cover."""
        return Fraction(min(seq[-1] for seq in self.ticks.values()),
                        self.quantum)

    def through(self, period: Fraction, inputs) -> Fraction:
        """The horizon of the events k * period, k = 0, 1, ..., through the
        last time that every sampled one of `inputs` still covers.

        It spans at least one period, so a run over inputs that cover no
        time still fails on its first query.
        """
        last = [self.ticks[s][-1] for s in inputs if s in self.ticks]
        if not last:
            return period
        covered = Fraction(min(last), self.quantum)
        return max(math.floor(covered / period) + 1, 1) * period


class TraceSource:
    """Sensor source over a trace; the read endpoint of the scheduler and
    the fixed-frequency baseline.

    `read(sensors, tick, quantum)` gives {sensor: value} for a tuple of
    sensors, each the value of its latest sample at or before tick /
    quantum seconds (zero-order hold). The sensors are grouped by the tick
    array they share, once per sensors tuple, and each array is bisected
    once with floor(tick·q / quantum) for the trace's quantum q, in
    integers only, which is exact because the sample ticks are integers.
    Only when some sensor has no samples, or no sample of some array lies
    at or before the time, or the time is past its last, does `read` ask
    `query` for each sensor in the order given, so the first failing
    sensor raises its error. `query(sensor, tick, quantum)` reads one
    sensor; it builds the time as a Fraction only for an error message.
    """

    def __init__(self, trace: SensorTrace):
        self.trace = trace
        self._quantum = trace.quantum
        self._ticks = trace.ticks
        self._values = trace.values
        # sensors tuple -> [(tick array, [(sensor, values)])], None when
        # some sensor has no samples
        self._groups: dict = {}

    def _group(self, sensors: tuple) -> Optional[list]:
        groups: dict = {}  # id of a tick array -> (the array, members)
        for s in sensors:
            ticks = self._ticks.get(s)
            if ticks is None:
                return None
            groups.setdefault(id(ticks), (ticks, []))[1].append(
                (s, self._values[s]))
        return list(groups.values())

    def read(self, sensors: tuple, tick: int, quantum: int) -> dict:
        try:
            groups = self._groups[sensors]
        except KeyError:
            groups = self._groups[sensors] = self._group(sensors)
        if groups is not None:
            scaled = tick * self._quantum
            at = scaled // quantum
            values = {}
            for ticks, members in groups:
                if at < ticks[0] or scaled > ticks[-1] * quantum:
                    break
                i = bisect_right(ticks, at) - 1
                for s, vals in members:
                    values[s] = vals[i]
            else:
                return values
        return {s: self.query(s, tick, quantum) for s in sensors}

    def query(self, sensor: str, tick: int, quantum: int):
        ticks = self._ticks.get(sensor)
        if ticks is None:
            raise SensorUnavailable(sensor, Fraction(tick, quantum))
        scaled = tick * self._quantum
        if scaled > ticks[-1] * quantum:
            raise OutOfRange(f"t={Fraction(tick, quantum)} is past the last "
                             f"sample of '{sensor}'")
        idx = bisect_right(ticks, scaled // quantum) - 1
        if idx < 0:
            raise OutOfRange(f"t={Fraction(tick, quantum)} precedes the first "
                             f"sample of '{sensor}'")
        return self._values[sensor][idx]


def trace_fingerprint(trace: SensorTrace) -> str:
    h = hashlib.sha1(str(trace.quantum).encode())
    for sensor in trace.sensors():
        # format 2 writes no back-references, whose use depends on refcounts
        h.update(marshal.dumps(
            (sensor, trace.ticks[sensor], trace.values[sensor]), 2))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# synthetic drone flights


def _finite(value) -> bool:
    """Whether a number's float is finite; an int beyond float range has
    none."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class FlightScenario:
    """Seeded flight profile; every derived quantity is deterministic."""

    seed: int
    duration: float = 60.0
    geofence_radius: float = 8.0
    altitude_ceiling: float = 10.0
    start_lat: float = 47.0
    start_long: float = 9.0
    ground_altitude: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "seed" and type(value) is int:
                continue  # random.Random takes any integer
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not _finite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        check_steps(round(Fraction(self.duration) * GRID_HZ),
                    f"a {self.duration} s flight at {GRID_HZ} Hz")


def scenario_from_json(entry) -> FlightScenario:
    """A scenario from a parsed JSON object; SpecError on malformed input."""
    if not isinstance(entry, dict):
        raise SpecError(f"a scenario must be a JSON object, got {entry!r}")
    unknown = set(entry) - {f.name for f in fields(FlightScenario)}
    if unknown:
        raise SpecError(f"unknown scenario keys: {sorted(unknown)}")
    try:
        return FlightScenario(**entry)
    except (TypeError, ValueError) as err:
        raise SpecError(f"invalid scenario: {err}") from err


def _dodge_grid(t: float, period: float = 0.5, margin: float = 0.06) -> bool:
    frac = t % period
    return min(frac, period - frac) < margin


class _Profile:
    """The parameters of one scenario's closed-form piecewise-linear
    trajectory, which `generate_flight` samples.

    The drone holds at the start, flies a straight outbound leg through the
    geofence, turns and comes home; independently it climbs through the
    altitude ceiling and descends. Leg speeds keep each warning band wider
    than the staleness bound so an active monitor has time to react.
    """

    def __init__(self, sc: FlightScenario):
        rng = Random(sc.seed)
        self.bearing = rng.uniform(0.0, 2.0 * math.pi)

        move = rng.uniform(2.0, 4.0)
        v_out = rng.uniform(0.30, 0.40)
        while _dodge_grid(move + sc.geofence_radius / v_out):
            move += 0.137
        self.move_start = move
        self.v_out = v_out
        self.geofence_cross = move + sc.geofence_radius / v_out
        self.r_peak = rng.uniform(sc.geofence_radius + 0.8, sc.geofence_radius + 1.4)
        self.turn = move + self.r_peak / v_out
        self.return_start = self.turn + rng.uniform(2.0, 4.0)
        v_ret = rng.uniform(0.55, 0.75)
        latest = sc.duration - 3.0
        if self.return_start + (self.r_peak - 1.0) / v_ret > latest:
            v_ret = (self.r_peak - 1.0) / (latest - self.return_start)
        self.v_ret = v_ret

        climb = rng.uniform(6.0, 10.0)
        v_climb = rng.uniform(0.36, 0.44)
        while _dodge_grid(climb + sc.altitude_ceiling / v_climb):
            climb += 0.137
        self.climb_start = climb
        self.v_climb = v_climb
        self.altitude_cross = climb + sc.altitude_ceiling / v_climb
        self.a_peak = rng.uniform(sc.altitude_ceiling + 0.8, sc.altitude_ceiling + 1.6)
        self.level = climb + self.a_peak / v_climb
        self.descend_start = self.level + rng.uniform(2.0, 4.0)
        v_desc = rng.uniform(0.50, 0.70)
        if self.descend_start + (self.a_peak - 2.0) / v_desc > latest:
            v_desc = (self.a_peak - 2.0) / (latest - self.descend_start)
        self.v_desc = v_desc

        self.p_drift = rng.uniform(0.005, 0.02)
        self.phase1 = rng.uniform(0.0, 2.0 * math.pi)
        self.phase2 = rng.uniform(0.0, 2.0 * math.pi)
        self.phase3 = rng.uniform(0.0, 2.0 * math.pi)


def _legs(times, start: float, top: float, hold_end: float, speed: float,
          peak: float, back: float, floor: float) -> tuple:
    """(values, settled): one trajectory coordinate at each of the sorted
    `times`, 0.0 up to `start`, rising at `speed` up to `top`, `peak` up to
    `hold_end`, then falling at `back` but never below `floor`; and the
    index from which every value is `floor`, len(times) if none is.

    Each boundary is inclusive, as `t <= boundary` is: bisect_right counts
    the times at or before it, from where the previous leg ended. With
    `back` > 0 the falling leg never rises again, since IEEE subtraction
    and multiplication are monotone, so the first time at which it reaches
    `floor` is bisected and every later value is `floor`. A return that
    does not fall (a short flight's reversed one) is computed throughout.
    """
    a = bisect_right(times, start)
    b = bisect_right(times, top, a)
    c = bisect_right(times, hold_end, b)
    n = len(times)
    settled = n if back <= 0 else bisect_left(
        times, True, c, key=lambda t: not peak - back * (t - hold_end) > floor)
    return ([0.0] * a + [speed * (t - start) for t in times[a:b]]
            + [peak] * (c - b)
            + [max(floor, peak - back * (t - hold_end))
               for t in times[c:settled]]
            + [floor] * (n - settled)), settled


def generate_flight(scenario: FlightScenario) -> SensorTrace:
    """Sample the scenario's trajectory on the fixed grid, one sensor
    column at a time; the positions and altitudes of the settled tail,
    where the drone has come home and landed, are one repeated value."""
    prof = _Profile(scenario)
    steps = int(round(scenario.duration * GRID_HZ))
    times = [k / GRID_HZ for k in range(steps + 1)]
    sin, tau = math.sin, 2.0 * math.pi
    distance, home = _legs(times, prof.move_start, prof.turn,
                           prof.return_start, prof.v_out, prof.r_peak,
                           prof.v_ret, 1.0)
    lat, lon = scenario.start_lat, scenario.start_long
    cos_b, sin_b = math.cos(prof.bearing), math.sin(prof.bearing)
    # each column up to its first settled sample, which the rest repeat
    gps = [(lat + d / 10000.0 * cos_b, lon + d / 10000.0 * sin_b)
           for d in distance[:home + 1]]
    gps += gps[-1:] * (steps - home)
    above, landed = _legs(times, prof.climb_start, prof.level,
                          prof.descend_start, prof.v_climb, prof.a_peak,
                          prof.v_desc, 2.0)
    ground = scenario.ground_altitude
    altitude = [ground + h for h in above[:landed + 1]]
    altitude += altitude[-1:] * (steps - landed)
    drift, phase1, phase2, phase3 = (prof.p_drift, prof.phase1, prof.phase2,
                                     prof.phase3)
    values = {
        "gps_lat_long": gps,
        "gps_altitude": altitude,
        "barometer_pressure": [
            1013.25 - drift * t + 0.8 * sin(tau * t / 37.0 + phase1)
            + 0.3 * sin(tau * t / 11.0 + phase2) for t in times],
        "barometer_altitude": [a + 0.15 * sin(tau * t / 13.0 + phase3)
                               for a, t in zip(altitude, times)]}
    ticks = array("q", range(steps + 1))
    return SensorTrace(GRID_HZ, dict.fromkeys(values, ticks), values)


# the kinds of ground-truth crossing a synthetic flight has
CROSSING_KINDS = ("altitude", "geofence")


def flight_crossings(scenario: FlightScenario) -> dict:
    """Closed-form ground-truth violation onsets, by kind (CROSSING_KINDS)."""
    prof = _Profile(scenario)
    return {"geofence": [prof.geofence_cross],
            "altitude": [prof.altitude_cross]}


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class RunMetrics:
    horizon: float
    counts: dict  # sensor -> values received
    group_counts: dict  # group name -> values received by its members
    fingerprint: Optional[str] = None

    @property
    def total_values(self) -> int:
        return sum(self.counts.values())

    @property
    def values_per_second(self) -> float:
        return self.total_values / self.horizon if self.horizon else 0.0

    @property
    def per_sensor(self) -> dict:
        """Sensor -> values per second."""
        return {s: c / self.horizon for s, c in self.counts.items()}

    @property
    def groups(self) -> dict:
        """Group name -> values per second."""
        return {g: c / self.horizon for g, c in self.group_counts.items()}

    def as_json(self) -> dict:
        return {"horizon": self.horizon, "total_values": self.total_values,
                "values_per_second": self.values_per_second,
                "per_sensor": dict(self.per_sensor),
                "groups": dict(self.groups)}


def compute_metrics(model: EvaluationModel, input_names, horizon: float,
                    groups: Optional[dict] = None,
                    fingerprint: Optional[str] = None) -> RunMetrics:
    """Bandwidth accounting: non-absent input cells per second."""
    counts = {}
    for name in input_names:
        column = model.streams.get(name, [])
        counts[name] = len(column) - column.count(ABSENT)
    return _counted(counts, horizon, groups, fingerprint)


def _counted(counts: dict, horizon: float, groups: Optional[dict],
             fingerprint: Optional[str]) -> RunMetrics:
    """RunMetrics of the values received per input, `counts`."""
    grouped = {gname: sum(counts.get(m, 0) for m in members)
               for gname, members in (groups or {}).items()}
    return RunMetrics(horizon, counts, grouped, fingerprint)


def pool_metrics(runs) -> RunMetrics:
    """Several runs as one: their values over their summed horizons."""
    counts: Counter = Counter()
    grouped: Counter = Counter()
    for m in runs:
        counts.update(m.counts)
        grouped.update(m.group_counts)
    return RunMetrics(sum(m.horizon for m in runs), dict(counts), dict(grouped))


# ---------------------------------------------------------------------------
# fixed-frequency baseline


@dataclass
class BaselineRun:
    model: EvaluationModel
    triggers: list


def baseline_events(freq: Fraction, horizon) -> int:
    """The count of a baseline's events k / freq < horizon."""
    return math.ceil(Fraction(horizon) * freq)


def run_fixed(analyzed: AnalyzedSpec, trace: SensorTrace, freq,
              horizon: Optional[float] = None,
              through: float = math.inf) -> BaselineRun:
    """Read every sensor each 1/freq seconds and feed the monitor.

    Events run up to `horizon` (exclusive), by default `trace.through` the
    last time that every sampled input covers, as a scheduled run's cycles
    do; more than MAX_STEPS of them raise TooManySteps before the first.
    Only the events whose float time tick / quantum is at most `through`
    run, unless a read of a later one would fail: then all of them run, so
    the error is the one the first failing event raises. Since a read
    succeeds over one interval of time, reading the first skipped event
    and the last tells. The monitor is causal and its evaluation total, so
    the events that run report what they would in a full run.
    """
    freq = Fraction(str(freq)) if isinstance(freq, float) else Fraction(freq)
    if freq <= 0:
        raise ValueError("frequency must be positive")
    period = 1 / freq
    inputs = analyzed.spec.input_names()
    if horizon is None:
        horizon = trace.through(period, inputs)
    count = baseline_events(freq, horizon)
    check_steps(count, f"a {float(freq)} Hz baseline")

    # event k runs at tick k * period.numerator on the quantum
    # period.denominator and reads every input in declaration order
    num, den = period.numerator, period.denominator
    read = TraceSource(trace).read
    cut = bisect_right(range(count), through, key=lambda k: k * num / den)
    if cut < count:
        try:
            read(inputs, cut * num, den)
            read(inputs, (count - 1) * num, den)
        except (OutOfRange, SensorUnavailable):
            cut = count
    events = ((tick, read(inputs, tick, den))
              for tick in range(0, cut * num, num))
    return BaselineRun(*run_monitor_full(analyzed, events, den))


# ---------------------------------------------------------------------------
# run comparison

_COLUMNS = ("run", "trigger", "crossing", "detection", "delay")


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def _csv_lines(rows, columns):
    """Comparison rows as CSV: numbers by repr, an empty cell for None."""
    yield ",".join(columns)
    for row in rows:
        yield ",".join(_cell(row[c]) for c in columns)


@dataclass
class ComparisonReport:
    window: float
    rows: list  # one dict per (run, trigger, crossing)
    summary: dict  # run name -> aggregate stats

    def csv_lines(self):
        return _csv_lines(self.rows, _COLUMNS)


def _quartiles(values):
    if not values:
        return None, None, None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(rows, metrics_by_run: dict) -> dict:
    """Per run: delay quartiles, matched and missed crossings, and the
    bandwidth pooled over its RunMetrics list in `metrics_by_run`."""
    summary = {}
    for name, metrics in metrics_by_run.items():
        own = [r for r in rows if r["run"] == name]
        delays = [r["delay"] for r in own if r["delay"] is not None]
        q1, q2, q3 = _quartiles(delays)
        summary[name] = {
            "median_delay": q2, "q1_delay": q1, "q3_delay": q3,
            "matched": len(delays),
            "missed": sum(1 for r in own if r["detection"] is None),
            "bandwidth": pool_metrics(metrics).as_json()}
    return summary


def compare_runs(runs, ground_truth: dict, window: float = 5.0) -> ComparisonReport:
    """Match detections of the same violation across runs and rate them.

    `runs` is a list of (name, trigger_reports, metrics). A detection
    belongs to a ground-truth crossing when it falls within `window`
    seconds after it; delays are relative to the earliest detector. A
    report's time is taken as the float tick / quantum, which is
    float(report.time) without building the Fraction.
    """
    prints = {m.fingerprint for _, _, m in runs if m.fingerprint is not None}
    if len(prints) > 1:
        raise MismatchedTraces("runs observed different traces")

    detections = {}
    for name, reports, _ in runs:
        # each report's float time, tick / quantum, under its trigger
        fired: dict = {trigger: [] for trigger in ground_truth}
        for r in reports:
            times = fired.get(r.trigger)
            if times is not None:
                times.append(r.tick / r.quantum)
        for trigger, crossings in ground_truth.items():
            times = sorted(fired[trigger])
            for ci in crossings:
                # the first detection at or after the crossing, if in window
                i = bisect_left(times, ci)
                detections[(name, trigger, ci)] = times[i] if (
                    i < len(times) and times[i] <= ci + window) else None

    rows = []
    for trigger, crossings in ground_truth.items():
        for ci in crossings:
            hits = [detections[(name, trigger, ci)] for name, _, _ in runs]
            base = min((h for h in hits if h is not None), default=None)
            for (name, _, _), hit in zip(runs, hits):
                delay = None if hit is None or base is None else hit - base
                rows.append({"run": name, "trigger": trigger, "crossing": ci,
                             "detection": hit, "delay": delay})

    summary = summarize(rows, {name: [m] for name, _, m in runs})
    return ComparisonReport(window, rows, summary)


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class ScenarioResult:
    scenario: FlightScenario
    crossings: dict
    report: ComparisonReport
    scheduled_run: object  # ScheduledRun, kept for plan-log checks


@dataclass
class ExperimentResult:
    results: list  # ScenarioResult per scenario
    rows: list  # comparison rows with a seed column
    summary: dict

    def csv_lines(self):
        return _csv_lines(self.rows, ("seed",) + _COLUMNS)


def baseline_name(freq) -> str:
    """The run name of the baseline at `freq` Hz."""
    return f"fixed_{float(freq):g}hz"


def run_experiment(config: dict, analyzed: AnalyzedSpec,
                   translation) -> ExperimentResult:
    """Run the scheduled monitor and every baseline over each scenario.

    The scheduled runs of all scenarios share `translation`, and so the
    scheduler's tables cached on it. A baseline runs only through the last
    detection window of its scenario, the largest crossing + window that
    `compare_runs` tests, since no later report can be a detection; with
    no crossing it runs no event. `run_fixed` still checks the step cap on
    the whole horizon and runs in full when a later read would fail. A
    baseline's bandwidth is its step count per input over the whole
    horizon (`baseline_events`), since it reads every input at every
    event; only the scheduled run's model is scanned by `compute_metrics`.
    """
    from .scheduler import run_scheduled  # deferred: scheduler stays sim-free

    mode = translation.schedule.mode
    bound = int(config.get("bound", 2))
    horizon = Fraction(str(config.get("horizon", 60.0)))
    window = float(config.get("window", 5.0))
    groups = config.get("groups") or {}
    kinds = config.get("trigger_kinds") or {}
    baselines = [Fraction(str(f)) for f in config.get("baselines", [1.0, 2.0])]
    inputs = analyzed.spec.input_names()

    results = []
    rows = []
    metrics: dict = {}  # run name -> RunMetrics per scenario
    for entry in config["scenarios"]:
        scenario = scenario_from_json(entry)
        trace = generate_flight(scenario)
        fingerprint = trace_fingerprint(trace)
        crossings = flight_crossings(scenario)
        truth = {trigger: crossings.get(kind, [])
                 for trigger, kind in kinds.items()}
        last_window = max((ci + window for cs in truth.values() for ci in cs),
                          default=-math.inf)

        sched = run_scheduled(translation, TraceSource(trace), horizon, bound)
        runs = [(f"scheduled_{mode}", sched.triggers, compute_metrics(
            sched.model, inputs, float(horizon), groups, fingerprint))]
        for f in baselines:
            base = run_fixed(analyzed, trace, f, horizon, last_window)
            counts = dict.fromkeys(inputs, baseline_events(f, horizon))
            runs.append((baseline_name(f), base.triggers, _counted(
                counts, float(horizon), groups, fingerprint)))

        report = compare_runs(runs, truth, window)
        for name, _, m in runs:
            metrics.setdefault(name, []).append(m)
        results.append(ScenarioResult(scenario, crossings, report, sched))
        for row in report.rows:
            rows.append(dict(row, seed=scenario.seed))

    summary = {"window": window, "monitors": summarize(rows, metrics),
               "scenarios": [{"seed": r.scenario.seed, **r.crossings}
                             for r in results]}
    return ExperimentResult(results, rows, summary)


__all__ = [
    "BaselineRun", "CROSSING_KINDS", "ComparisonReport", "ExperimentResult",
    "FlightScenario", "GRID_HZ", "RunMetrics", "ScenarioResult",
    "SensorTrace", "TraceSource", "baseline_events", "baseline_name",
    "compare_runs", "compute_metrics",
    "flight_crossings", "generate_flight", "pool_metrics", "run_experiment",
    "run_fixed", "scenario_from_json", "summarize",
    "trace_fingerprint",
]
