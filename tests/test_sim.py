"""Sensor traces, synthetic flights, baselines, and run comparison."""

import math
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from activemon import engine, scheduler, sim
from activemon.analysis import analyze
from activemon.engine import ABSENT, EvaluationModel, TriggerReport
from activemon.errors import (MismatchedTraces, OutOfRange, SensorUnavailable,
                              TooManySteps)
from activemon.io import read_trace
from activemon.parser import parse_spec
from activemon.sim import (
    CROSSING_KINDS,
    GRID_HZ,
    FlightScenario,
    SensorTrace,
    TraceSource,
    compare_runs,
    compute_metrics,
    flight_crossings,
    generate_flight,
    run_experiment,
    run_fixed,
    trace_fingerprint,
    _legs,
    _Profile,
)
from activemon.translate import translate
from events import Event, run_events, trace_from_samples
from reference_eval import triggers_from_model

HOLD = trace_from_samples({"s": [(Fraction(0), 1.0), (Fraction(1), 2.0)]})
SOURCE = TraceSource(HOLD)


def _query(source, sensor, at):
    """`source.query` at the exact time `at` (an int, a Fraction or a finite
    float), as a tick on the time's own denominator."""
    at = Fraction(at)
    return source.query(sensor, at.numerator, at.denominator)


# ---------------------------------------------------------------------------
# zero-order hold


def test_query_holds_last_sample():
    assert SOURCE.query("s", 1, 2) == 1.0
    assert SOURCE.query("s", 9, 10) == 1.0
    assert SOURCE.query("s", 1, 1) == 2.0
    assert SOURCE.query("s", 0, 1) == 1.0


def test_query_reads_a_tick_on_any_quantum():
    # the same time on several quanta, reduced or not, reads one sample
    for tick, quantum in [(7, 10), (14, 20), (21, 30), (7 * 2**70, 10 * 2**70)]:
        assert SOURCE.query("s", tick, quantum) == 1.0
    for tick, quantum in [(1, 1), (2, 2), (10, 10), (2**70, 2**70)]:
        assert SOURCE.query("s", tick, quantum) == 2.0


def test_query_rejects_out_of_range_times():
    with pytest.raises(OutOfRange):
        SOURCE.query("s", 3, 2)
    with pytest.raises(OutOfRange):
        SOURCE.query("s", -1, 2)


@pytest.mark.parametrize("tick,quantum,message", [
    (10, 6, "t=5/3 is past the last sample of 's'"),
    (4, 2, "t=2 is past the last sample of 's'"),
    (-3, 9, "t=-1/3 precedes the first sample of 's'"),
])
def test_query_errors_name_the_exact_time(tick, quantum, message):
    with pytest.raises(OutOfRange) as err:
        SOURCE.query("s", tick, quantum)
    assert str(err.value) == message


def test_query_rejects_unknown_sensor():
    with pytest.raises(SensorUnavailable) as err:
        SOURCE.query("nope", 6, 4)
    assert err.value.time == Fraction(3, 2)
    assert "t=3/2" in str(err.value)


# samples on thirds and on tenths of a second, one sensor with both
_THIRDS = [Fraction(k, 3) for k in range(1, 31)]
_TENTHS = [Fraction(k, 10) for k in range(2, 101)]
MIXED = trace_from_samples({
    "thirds": [(t, float(i)) for i, t in enumerate(_THIRDS)],
    "tenths": [(t, float(i)) for i, t in enumerate(_TENTHS)],
    "both": [(t, float(i)) for i, t in enumerate(sorted(set(_THIRDS + _TENTHS)))],
})
# beyond 64 bits: the quantum (2**61 - 1) * 3 times 10 s overflows int64
HUGE = trace_from_samples({"s": [(Fraction(1, 2**61 - 1), 1.0),
                                 (Fraction(1, 3), 2.0), (Fraction(10), 3.0)]})
_EPS = Fraction(1, 10**12)


def _bisect_reference(trace, sensor, at):
    """Zero-order hold by a bisect over the Fraction sample times."""
    times = [Fraction(tick, trace.quantum) for tick in trace.ticks[sensor]]
    if at > times[-1]:
        raise OutOfRange(sensor)
    idx = bisect_right(times, at) - 1
    if idx < 0:
        raise OutOfRange(sensor)
    return trace.values[sensor][idx]


_QUERIES = [
    Fraction(1, 7) + 1, Fraction(22, 7), 0.7, 1 / 3 + 1, 2.05, 3, 7,
    Fraction(4, 3), Fraction(4, 3) - _EPS, Fraction(4, 3) + _EPS,
    Fraction(7, 10), Fraction(7, 10) - _EPS, Fraction(7, 10) + _EPS,
    math.nextafter(0.7, 0.0), math.nextafter(0.7, 1.0),
    Fraction(10), 10, 10.0,
]


@pytest.mark.parametrize("sensor", ["thirds", "tenths", "both"])
@pytest.mark.parametrize("at", _QUERIES)
def test_query_matches_a_fraction_bisect(sensor, at):
    assert MIXED.quantum == 30
    assert _query(TraceSource(MIXED), sensor, at) == \
        _bisect_reference(MIXED, sensor, at)


@pytest.mark.parametrize("at", [Fraction(1, 3), Fraction(1, 3) - _EPS, 1 / 3,
                                Fraction(5), 9.99, Fraction(10), 10])
def test_query_beyond_int64_ticks_stays_exact(at):
    assert HUGE.quantum > 2**63 // 10
    assert _query(TraceSource(HUGE), "s", at) == _bisect_reference(HUGE, "s", at)


# the times far past and far before are ticks beyond 64 bits
@pytest.mark.parametrize("sensor", ["thirds", "tenths", "both"])
@pytest.mark.parametrize("at", [Fraction(10) + _EPS, 10.000001, 11,
                                Fraction(2**70, 3), Fraction(1, 7), 0.0, -1,
                                Fraction(-(2**70), 3), Fraction(-1, 2**70)])
def test_query_outside_the_samples_is_out_of_range(sensor, at):
    with pytest.raises(OutOfRange):
        _query(TraceSource(MIXED), sensor, at)


def test_trace_rejects_unsorted_samples():
    with pytest.raises(ValueError):
        trace_from_samples({"s": [(Fraction(1), 1.0), (Fraction(1), 2.0)]})
    with pytest.raises(ValueError):
        trace_from_samples({"s": []})


# ---------------------------------------------------------------------------
# one read per request against one query per sensor

# a flight shares one tick array among its four sensors; SPARSE shares one
# between its columns sampled every 0.2 s, as read_trace does, and keeps
# its own for `c`, which starts later and ends earlier; MIXED and HUGE keep
# one array per sensor
FLIGHT = generate_flight(FlightScenario(seed=7, duration=4.0))
_EVERY = array("q", range(0, 11))
SPARSE = SensorTrace(5, {"a": _EVERY, "b": _EVERY,
                         "c": array("q", [2, 3, 7])},
                     {"a": [float(k) for k in _EVERY], "b": list(_EVERY),
                      "c": [True, False, True]})
_READ_TRACES = {"flight": FLIGHT, "sparse": SPARSE, "mixed": MIXED,
                "huge": HUGE}


def _outcome(call):
    """The value of `call()`, or the type and message of what it raised."""
    try:
        return call()
    except (OutOfRange, SensorUnavailable) as err:
        return type(err), str(err)


def _assert_read_is_one_query_per_sensor(trace, sensors, tick, quantum):
    source = TraceSource(trace)
    expected = _outcome(
        lambda: {s: source.query(s, tick, quantum) for s in sensors})
    # the first read groups the sensors, the second reuses the grouping
    for _ in range(2):
        assert _outcome(lambda: source.read(sensors, tick, quantum)) == \
            expected


_READ_TIMES = _QUERIES + [
    0, Fraction(1, 5), Fraction(2, 5), Fraction(7, 5), Fraction(3, 2), 2,
    Fraction(11, 5), Fraction(1, 3), Fraction(1, 2**61 - 1), Fraction(-1, 3),
    Fraction(10) + _EPS, Fraction(2**70, 3), Fraction(-(2**70), 3)]


@pytest.mark.parametrize("name,sensors", [
    ("sparse", ("nope", "c")), ("sparse", ("c", "nope")),
    ("sparse", ("a", "c", "b")), ("sparse", ("b", "a")), ("sparse", ()),
    ("flight", ("gps_altitude", "nope", "gps_lat_long")),
    ("flight", ("barometer_altitude", "gps_lat_long")),
    ("mixed", ("tenths", "both", "thirds")), ("huge", ("s",)),
])
def test_read_equals_one_query_per_sensor_at_the_edges(name, sensors):
    for at in map(Fraction, _READ_TIMES):
        for scale in (1, 3, 2**70):
            _assert_read_is_one_query_per_sensor(
                _READ_TRACES[name], sensors, at.numerator * scale,
                at.denominator * scale)


@given(st.sampled_from(sorted(_READ_TRACES)), st.data())
@settings(max_examples=400, deadline=None)
def test_read_equals_one_query_per_sensor(name, data):
    # values, or the first failing sensor's error in the order asked: a
    # missing sensor, a time before the first or after the last sample of
    # a shared or an own array, on reduced and unreduced quanta, beyond
    # 64 bits too
    trace = _READ_TRACES[name]
    sensors = tuple(data.draw(st.lists(
        st.sampled_from(trace.sensors() + ["nope"]), unique=True)))
    at = Fraction(data.draw(st.one_of(
        st.sampled_from(_READ_TIMES),
        st.fractions(min_value=-1, max_value=12, max_denominator=30))))
    scale = data.draw(st.sampled_from([1, 3, 2**70]))
    _assert_read_is_one_query_per_sensor(
        trace, sensors, at.numerator * scale, at.denominator * scale)


def test_read_bisects_each_shared_tick_array_once(monkeypatch):
    calls = Counter()

    def counted(ticks, at):
        calls[id(ticks)] += 1
        return bisect_right(ticks, at)

    monkeypatch.setattr(sim, "bisect_right", counted)
    flight = TraceSource(FLIGHT)
    assert flight.read(tuple(FLIGHT.sensors()), 7, 2) == {
        s: FLIGHT.values[s][35] for s in FLIGHT.sensors()}
    assert calls == {id(FLIGHT.ticks["gps_altitude"]): 1}
    calls.clear()
    assert TraceSource(SPARSE).read(("c", "a", "b"), 6, 5) == {
        "a": 6.0, "b": 6, "c": False}
    assert calls == {id(_EVERY): 1, id(SPARSE.ticks["c"]): 1}


def test_read_trace_drops_absent_cells(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,a,b\n0,1.0,\n1,2.0\n2,,3.0\n")
    trace = read_trace(path, analyze(parse_spec(
        "input a : Float64\ninput b : Float64\n")))
    assert trace.quantum == 1
    assert {s: list(ticks) for s, ticks in trace.ticks.items()} == {
        "a": [0, 1], "b": [2]}
    assert trace.values == {"a": [1.0, 2.0], "b": [3.0]}


def test_fingerprint_is_stable_and_discriminating():
    one = generate_flight(FlightScenario(seed=7))
    two = generate_flight(FlightScenario(seed=7))
    other = generate_flight(FlightScenario(seed=8))
    assert trace_fingerprint(one) == trace_fingerprint(two)
    assert trace_fingerprint(one) != trace_fingerprint(other)


def _small_samples(sensor="s", tick=1, value=2.0):
    return {sensor: [(Fraction(0), 1.0), (Fraction(tick, 2), value)],
            "t": [(Fraction(1, 3), 3.0)]}


@pytest.mark.parametrize("changed", [{"tick": 3}, {"value": 2.5}, {"sensor": "u"}])
def test_fingerprint_tells_one_changed_sample_apart(changed):
    base = trace_fingerprint(trace_from_samples(_small_samples()))
    assert trace_fingerprint(trace_from_samples(_small_samples())) == base
    assert trace_fingerprint(
        trace_from_samples(_small_samples(**changed))) != base


def test_fingerprint_ignores_which_value_objects_are_shared():
    shared = float("2.5")
    one = trace_from_samples({"s": [(0, shared), (1, shared)]})
    two = trace_from_samples({"s": [(0, float("2.5")), (1, float("2.5"))]})
    assert one == two
    assert trace_fingerprint(one) == trace_fingerprint(two)


# ---------------------------------------------------------------------------
# synthetic flights


def test_flight_samples_the_full_grid():
    trace = generate_flight(FlightScenario(seed=3))
    assert trace.sensors() == [
        "barometer_altitude", "barometer_pressure",
        "gps_altitude", "gps_lat_long"]
    assert trace.quantum == GRID_HZ
    for sensor in trace.sensors():
        ticks = trace.ticks[sensor]
        assert len(ticks) == len(trace.values[sensor]) == 601
        assert ticks[0] == 0 and ticks[-1] == 600
    assert trace.covered() == Fraction(60)


class _ReferenceProfile(_Profile):
    """The trajectory sampled one time at a time, by the closed form that
    `generate_flight` evaluates a column at a time."""

    def __init__(self, sc: FlightScenario):
        super().__init__(sc)
        self.sc = sc

    def distance(self, t: float) -> float:
        if t <= self.move_start:
            return 0.0
        if t <= self.turn:
            return self.v_out * (t - self.move_start)
        if t <= self.return_start:
            return self.r_peak
        return max(1.0, self.r_peak - self.v_ret * (t - self.return_start))

    def above_ground(self, t: float) -> float:
        if t <= self.climb_start:
            return 0.0
        if t <= self.level:
            return self.v_climb * (t - self.climb_start)
        if t <= self.descend_start:
            return self.a_peak
        return max(2.0, self.a_peak - self.v_desc * (t - self.descend_start))

    def lat_long(self, t: float):
        d = self.distance(t) / 10000.0
        return (self.sc.start_lat + d * math.cos(self.bearing),
                self.sc.start_long + d * math.sin(self.bearing))

    def altitude(self, t: float) -> float:
        return self.sc.ground_altitude + self.above_ground(t)

    def pressure(self, t: float) -> float:
        return (1013.25 - self.p_drift * t
                + 0.8 * math.sin(2.0 * math.pi * t / 37.0 + self.phase1)
                + 0.3 * math.sin(2.0 * math.pi * t / 11.0 + self.phase2))

    def baro_altitude(self, t: float) -> float:
        return self.altitude(t) + 0.15 * math.sin(
            2.0 * math.pi * t / 13.0 + self.phase3)


def _reference_flight(scenario):
    """The flight as (Fraction time, value) pairs on the grid, sampled one
    grid point at a time."""
    prof = _ReferenceProfile(scenario)
    samples = {"gps_lat_long": [], "gps_altitude": [],
               "barometer_pressure": [], "barometer_altitude": []}
    for k in range(int(round(scenario.duration * GRID_HZ)) + 1):
        t = Fraction(k, GRID_HZ)
        tf = k / GRID_HZ
        samples["gps_lat_long"].append((t, prof.lat_long(tf)))
        samples["gps_altitude"].append((t, prof.altitude(tf)))
        samples["barometer_pressure"].append((t, prof.pressure(tf)))
        samples["barometer_altitude"].append((t, prof.baro_altitude(tf)))
    return samples


# flights short enough that the return and the descent are sped up (or, at
# a few seconds, reversed) to end by three seconds before the end
_SHORT = [FlightScenario(seed=seed, duration=duration)
          for seed in (2, 41, 977) for duration in (0.1, 5.0, 12.34, 33.3)]


@pytest.mark.parametrize("scenario", [
    FlightScenario(seed=1), FlightScenario(seed=137, duration=12.34),
    FlightScenario(seed=588, duration=1800.0),
    *_SHORT,
    *(FlightScenario(seed=seed, duration=duration)
      for seed in (3, 101, 523) for duration in (47.5, 60.0, 98.76)),
    FlightScenario(seed=7, duration=1800.0),
    FlightScenario(seed=8, duration=1799.99, geofence_radius=3.5,
                   altitude_ceiling=4.25, start_lat=-33.9, start_long=-0.0,
                   ground_altitude=-12.5)])
def test_flight_matches_the_pairwise_reference(scenario):
    trace = generate_flight(scenario)
    reference = trace_from_samples(_reference_flight(scenario))
    assert trace == reference
    assert trace_fingerprint(trace) == trace_fingerprint(reference)


@pytest.mark.parametrize("scenario", _SHORT)
def test_short_flights_clamp_their_return_and_descent(scenario):
    prof = _Profile(scenario)
    assert not 0.55 <= prof.v_ret <= 0.75
    assert not 0.50 <= prof.v_desc <= 0.70


@pytest.mark.parametrize("bounds", [
    (0.5, 1.2, 2.0),  # each boundary on a grid point
    (0.0, 0.0, 3.0),  # the first grid point, twice, and the last
    (-1.0, 0.7, 0.7),  # before the grid, and an empty hold
    (1.5, 0.3, 2.5),  # a top before the start
    (2.9, 3.5, 9.0),  # past the last grid point
    (0.2, 0.4, 0.6),  # settled well before the last grid point
])
def test_legs_keep_each_boundary_inclusive(bounds):
    times = [k / GRID_HZ for k in range(31)]
    prof = _ReferenceProfile(FlightScenario(seed=1))
    prof.move_start, prof.turn, prof.return_start = bounds
    legs, settled = _legs(times, *bounds, prof.v_out, prof.r_peak,
                          prof.v_ret, 1.0)
    assert legs == [prof.distance(t) for t in times]
    start, top, hold_end = bounds
    for t, value in zip(times, legs):
        if t == start:
            assert value == 0.0
        elif t == hold_end and start < top < hold_end:
            assert value == prof.r_peak
    # the settled tail starts at the first falling time that is at floor
    falling = bisect_right(times, max(bounds))
    assert settled == next((k for k in range(falling, len(times))
                            if legs[k] == 1.0), len(times))


@pytest.mark.parametrize("back", [0.0, -0.25])
def test_legs_settle_only_on_a_falling_return(back):
    times = [k / GRID_HZ for k in range(31)]
    legs, settled = _legs(times, 0.2, 0.4, 0.6, 2.0, 0.5, back, 1.0)
    assert settled == len(times)
    assert legs[7:] == [max(1.0, 0.5 - back * (t - 0.6)) for t in times[7:]]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       duration=st.one_of(st.floats(0.1, 40.0), st.floats(40.0, 1800.0)),
       radius=st.floats(-20.0, 20.0), ceiling=st.floats(-20.0, 20.0),
       ground=st.floats(-100.0, 100.0))
@example(seed=41, duration=5.0, radius=8.0, ceiling=10.0, ground=1.0)
@example(seed=977, duration=1800.0, radius=-3.5, ceiling=-1.0, ground=-12.5)
@settings(max_examples=30, deadline=None)
def test_generated_flights_match_the_pairwise_reference(seed, duration, radius,
                                                        ceiling, ground):
    scenario = FlightScenario(seed=seed, duration=duration,
                              geofence_radius=radius, altitude_ceiling=ceiling,
                              ground_altitude=ground)
    trace = generate_flight(scenario)
    reference = trace_from_samples(_reference_flight(scenario))
    assert trace == reference
    assert trace_fingerprint(trace) == trace_fingerprint(reference)


def test_the_step_cap_admits_exactly_a_million_steps():
    # a scenario is checked on construction, before any sample is made
    assert FlightScenario(seed=1, duration=100_000.0).duration == 100_000.0
    with pytest.raises(TooManySteps, match="1000001 steps"):
        FlightScenario(seed=1, duration=100_000.1)
    analyzed = analyze(parse_spec("input s : Float64\noutput o := s\n"))
    with pytest.raises(TooManySteps, match="1000001 steps"):
        run_fixed(analyzed, HOLD, Fraction(10**6))  # events at 0, 1e-6, ..., 1


def _distance(sample, start):
    (lat, lon) = sample
    return math.sqrt((lat - start[0]) ** 2 + (lon - start[1]) ** 2) * 10000.0


@pytest.mark.parametrize("seed", [1, 137, 588])
def test_crossings_match_the_sampled_trajectory(seed):
    scenario = FlightScenario(seed=seed)
    trace = generate_flight(scenario)
    crossings = flight_crossings(scenario)
    assert tuple(sorted(crossings)) == CROSSING_KINDS
    (tg,) = crossings["geofence"]
    (ta,) = crossings["altitude"]
    assert 0 < tg < 60 and 0 < ta < 60

    source = TraceSource(trace)
    start = trace.values["gps_lat_long"][0]
    before = source.query("gps_lat_long", int((tg - 0.2) * 10), 10)
    after = source.query("gps_lat_long", int((tg + 0.3) * 10), 10)
    assert _distance(before, start) < 8.0 <= _distance(after, start)

    ground = trace.values["gps_altitude"][0]
    low = source.query("gps_altitude", int((ta - 0.2) * 10), 10)
    high = source.query("gps_altitude", int((ta + 0.3) * 10), 10)
    assert low - ground < 10.0 <= high - ground


@pytest.mark.parametrize("seed", [101, 137, 202, 211, 308, 355, 404, 467, 523, 588])
def test_crossings_stay_off_the_half_second_grid(seed):
    crossings = flight_crossings(FlightScenario(seed=seed))
    for times in crossings.values():
        for t in times:
            frac = t % 0.5
            assert min(frac, 0.5 - frac) >= 0.05


# ---------------------------------------------------------------------------
# metrics and baselines


def test_metrics_count_present_input_cells():
    model = EvaluationModel(
        ticks=[0, 1, 2],
        streams={"a": [1.0, ABSENT, 2.0], "b": [ABSENT, 3.0, 4.0],
                 "out": [1.0, 1.0, 1.0]})
    metrics = compute_metrics(model, ("a", "b"), 2.0,
                              groups={"gps": ["a"], "both": ["a", "b"]})
    assert metrics.total_values == 4
    assert metrics.values_per_second == 2.0
    assert metrics.per_sensor == {"a": 1.0, "b": 1.0}
    assert metrics.groups == {"gps": 1.0, "both": 2.0}


def test_metrics_count_cells_as_the_per_cell_rule_does():
    # NaN equals nothing, not even itself, and a tuple or a bool compares
    # unequal to ABSENT, so counting ABSENT cells misses no present one
    nan = float("nan")
    columns = {
        "nan": [nan, ABSENT, nan, float("-nan"), ABSENT],
        "tuple": [(1.0, 2.0), ABSENT, (nan, ABSENT), (), ABSENT, ABSENT],
        "bool": [True, False, ABSENT, False, 0, 1, 0.0, -0.0],
        "absent": [ABSENT] * 4,
        "empty": []}
    model = EvaluationModel(ticks=[0], streams=columns)
    counts = compute_metrics(model, [*columns, "missing"], 1.0).counts
    assert counts == {name: sum(1 for v in columns.get(name, [])
                                if v is not ABSENT)
                      for name in [*columns, "missing"]}
    assert counts == {"nan": 3, "tuple": 3, "bool": 7, "absent": 0,
                      "empty": 0, "missing": 0}


def _count_calls(monkeypatch, module, name, counter):
    """Count the calls of `module.name` through every activemon module
    attribute bound to it, as the benchmark's tracer counts them."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] += 1
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("activemon") \
                and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)


def test_every_model_row_is_one_eval_event_call(drone_text, monkeypatch):
    # the benchmark's traced gate counts engine.eval_event once per model
    # row of every scheduled and fixed-frequency run, SchedulerState.plan
    # once per cycle and sim.trace_fingerprint once per scenario; the
    # scheduled loop calls TraceSource.read once per cycle that queries
    # anything, a baseline once per event, and neither calls
    # TraceSource.query over a whole flight
    analyzed = analyze(parse_spec(drone_text))
    calls = Counter()
    _count_calls(monkeypatch, engine, "eval_event", calls)
    _count_calls(monkeypatch, sim, "trace_fingerprint", calls)
    plan, read, query = (scheduler.SchedulerState.plan, TraceSource.read,
                         TraceSource.query)

    def counted_plan(self, tick):
        calls["plan"] += 1
        return plan(self, tick)

    def counted_read(self, sensors, tick, quantum):
        calls["read"] += 1
        return read(self, sensors, tick, quantum)

    def counted_query(self, sensor, tick, quantum):
        calls["query"] += 1
        return query(self, sensor, tick, quantum)

    monkeypatch.setattr(scheduler.SchedulerState, "plan", counted_plan)
    monkeypatch.setattr(TraceSource, "read", counted_read)
    monkeypatch.setattr(TraceSource, "query", counted_query)
    trace = generate_flight(FlightScenario(seed=137))
    base = run_fixed(analyzed, trace, 2, horizon=60.0)
    assert len(base.model) == 120
    assert calls == {"eval_event": 120, "read": 120}
    calls.clear()
    run = scheduler.run_scheduled(translate(analyzed, "dp"), TraceSource(trace),
                                  60.0, 2)
    assert calls == {"eval_event": len(run.model), "plan": len(run.plans),
                     "read": sum(1 for p in run.plans if p.flat)}
    assert 0 < len(run.model) <= len(run.plans) == 120
    calls.clear()
    config = {"bound": 2, "horizon": 30.0, "baselines": [1.0, 4.0],
              "scenarios": [{"seed": 101}, {"seed": 137}]}
    result = run_experiment(config, analyzed, translate(analyzed, "dp"))
    scheduled = [r.scheduled_run for r in result.results]
    assert sum(len(r.plans) for r in scheduled) == 2 * 60
    fixed = 2 * (30 + 120)
    assert calls == {
        "eval_event": sum(len(r.model) for r in scheduled) + fixed,
        "plan": 2 * 60, "trace_fingerprint": 2,
        "read": sum(1 for r in scheduled for p in r.plans if p.flat) + fixed}


def test_experiment_summary_pools_bandwidth_over_scenarios(drone_text):
    analyzed = analyze(parse_spec(drone_text))
    config = {"bound": 2, "horizon": 60.0, "baselines": [1.0],
              "groups": {"safety": ["gps_lat_long", "gps_altitude"]},
              "scenarios": [{"seed": 101}, {"seed": 137}]}
    result = run_experiment(config, analyzed, translate(analyzed, "dp"))
    per_scenario = [r.report.summary["scheduled_dp"]["bandwidth"]
                    for r in result.results]
    assert [b["groups"]["safety"] for b in per_scenario] == [1.5, 1.55]
    pooled = result.summary["monitors"]["scheduled_dp"]["bandwidth"]
    assert pooled["horizon"] == 120.0
    assert pooled["total_values"] == sum(b["total_values"] for b in per_scenario)
    assert pooled["groups"] == {"safety": (90 + 93) / 120}
    for sensor, rate in pooled["per_sensor"].items():
        assert rate == pytest.approx(
            sum(b["per_sensor"][sensor] for b in per_scenario) / 2)


@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2),
       freqs=st.lists(st.sampled_from([0.5, 0.7, 1, 2.5, 3, 8]), min_size=1,
                      max_size=3, unique=True),
       duration=st.sampled_from([3.0, 12.5, 30.0]))
@settings(max_examples=12, derandomize=True, deadline=None)
def test_experiment_baseline_counts_equal_metrics_over_their_models(
        drone_text, seeds, freqs, duration):
    # run_experiment counts a baseline's steps per input instead of
    # scanning its model: each baseline's bandwidth equals compute_metrics
    # over the model of the same run_fixed run
    analyzed = analyze(parse_spec(drone_text))
    groups = {"safety": ["gps_lat_long", "gps_altitude"],
              "all": list(analyzed.spec.input_names())}
    config = {"bound": 2, "horizon": duration, "baselines": freqs,
              "groups": groups,
              "scenarios": [{"seed": s, "duration": duration} for s in seeds]}
    result = run_experiment(config, analyzed, translate(analyzed, "dp"))
    for r in result.results:
        trace = generate_flight(r.scenario)
        for f in freqs:
            model = run_fixed(analyzed, trace, f, duration).model
            expected = compute_metrics(model, analyzed.spec.input_names(),
                                       duration, groups)
            name = f"fixed_{float(f):g}hz"
            assert r.report.summary[name]["bandwidth"] == expected.as_json()


@pytest.mark.parametrize("freq", [0.7, 1, 3, Fraction(7, 3)])
def test_a_baseline_over_sparse_columns_reads_every_input_at_every_event(
        tmp_path, freq):
    # zero-order hold fills the gaps of a sparse column, so each input's
    # count is the step count that run_experiment takes for it
    spec = analyze(parse_spec("input a : Float64\ninput b : Float64\n"
                              "input c : Float64\noutput o := a + b + c\n"))
    rows = ["time,a,b,c"]
    for k in range(31):
        cells = [f"{k}.5" if k % m == 0 or k == 30 else ""
                 for m in (1, 4, 7)]
        rows.append(f"{k}/3," + ",".join(cells))
    path = tmp_path / "sparse.csv"
    path.write_text("\n".join(rows) + "\n")
    trace = read_trace(path, spec)
    assert len(trace.ticks["c"]) < len(trace.ticks["b"]) < len(trace.ticks["a"])
    base = run_fixed(spec, trace, freq)
    counts = compute_metrics(base.model, ("a", "b", "c"), 10.0).counts
    assert len(base.model) >= 7
    assert counts == dict.fromkeys(("a", "b", "c"), len(base.model))


def test_fixed_baseline_queries_every_sensor(drone_text):
    analyzed = analyze(parse_spec(drone_text))
    trace = generate_flight(FlightScenario(seed=137))
    inputs = analyzed.spec.input_names()
    base = run_fixed(analyzed, trace, 2, horizon=60.0)
    assert len(base.model) == 120
    metrics = compute_metrics(base.model, inputs, 60.0)
    assert metrics.total_values == 480
    assert metrics.values_per_second == 8.0
    half = run_fixed(analyzed, trace, 1, horizon=60.0)
    assert compute_metrics(half.model, inputs, 60.0).values_per_second == 4.0


def test_fixed_baseline_defaults_to_trace_span():
    spec = analyze(parse_spec("input s : Float64\noutput o := s + 1.0\n"))
    base = run_fixed(spec, HOLD, 1)
    assert base.model.times == [Fraction(0), Fraction(1)]
    assert base.model.streams["o"] == [2.0, 3.0]


def _reference_event_times(freq, last, horizon):
    """Baseline event times from a loop that tests each time in turn."""
    period = 1 / Fraction(str(freq))
    times, k = [], 0
    while not ((k * period >= horizon) if horizon is not None
               else (k * period > last)):
        times.append(k * period)
        k += 1
    return times


# 3 Hz lands on 2 s and 0.7 Hz on 10 s; 2.2 s and 9.9 s fall between events
@pytest.mark.parametrize("freq,last", [(3, 2), (3, Fraction(11, 5)),
                                       (0.7, 10), (0.7, Fraction(99, 10))])
@pytest.mark.parametrize("horizon", [None, "last", 1.0])
def test_fixed_baseline_counts_events_like_a_per_event_test(freq, last, horizon):
    spec = analyze(parse_spec("input s : Float64\noutput o := s + 1.0\n"))
    trace = trace_from_samples({"s": [(Fraction(0), 1.0), (last, 2.0)]})
    if horizon == "last":
        horizon = float(last)
    base = run_fixed(spec, trace, freq, horizon)
    assert base.model.times == _reference_event_times(freq, last, horizon)
    assert base.model.times


# thirds and tenths from 0 s through 10 s, and a sensor that starts late
_FROM_ZERO = trace_from_samples({
    "thirds": [(Fraction(k, 3), float(k)) for k in range(31)],
    "tenths": [(Fraction(k, 10), -float(k)) for k in range(101)],
    "late": [(Fraction(1, 3), 0.5), (Fraction(10), 1.5)],
})
_THREE = "input thirds : Float64\ninput tenths : Float64\n"


@pytest.mark.parametrize("freq", [0.7, 3, 4])
@pytest.mark.parametrize("horizon", [None, 7.77])
def test_fixed_baseline_values_equal_per_event_queries(freq, horizon):
    spec = analyze(parse_spec(_THREE + "output o := thirds + tenths\n"))
    base = run_fixed(spec, _FROM_ZERO, freq, horizon)
    source = TraceSource(_FROM_ZERO)
    for sensor in ("thirds", "tenths"):
        assert base.model.streams[sensor] == [
            source.query(sensor, tick, base.model.quantum)
            for tick in base.model.ticks]
    assert len(set(base.model.streams["thirds"])) > len(base.model) // 2


# samples in thirds, sevenths and tenths of a second, through 10 s
_THIRDS_SEVENTHS_TENTHS = trace_from_samples({
    "thirds": [(Fraction(k, 3), float(k)) for k in range(31)],
    "sevenths": [(Fraction(k, 7), float(-k)) for k in range(71)],
    "tenths": [(Fraction(k, 10), k / 10) for k in range(101)],
})


@pytest.mark.parametrize("freq", [0.7, 3, Fraction(7, 3), 7])
@pytest.mark.parametrize("horizon", [None, 7.77])
def test_fixed_baseline_matches_a_fraction_time_reference(freq, horizon):
    # the baseline runs the monitor on ticks; the reference feeds it events
    # at the Fraction times k / freq with per-event queries
    spec = analyze(parse_spec(
        "input thirds : Float64\ninput sevenths : Float64\n"
        "input tenths : Float64\n"
        "output at |@thirds && sevenths| := now + thirds + sevenths\n"
        "output late |@tenths| := now > 5.0 && tenths > 4.0\n"
        'trigger late "late"\n'))
    trace = _THIRDS_SEVENTHS_TENTHS
    base = run_fixed(spec, trace, freq, horizon)
    source = TraceSource(trace)
    times = _reference_event_times(freq, 10, horizon)
    model, reports = run_events(spec, [
        Event(at, {s: _query(source, s, at) for s in trace.sensors()})
        for at in times])
    assert base.model.times == times
    assert (base.model.ticks, base.model.quantum) == (model.ticks, model.quantum)
    assert base.model.streams == model.streams
    assert base.triggers == reports == triggers_from_model(spec, model)
    assert base.triggers
    assert [r.time for r in base.triggers] == [times[r.step] for r in reports]


@pytest.mark.parametrize("inputs,horizon,error,message", [
    ("input late : Float64\n", None, OutOfRange, "precedes the first sample"),
    (_THREE, 10.5, OutOfRange, "is past the last sample of 'thirds'"),
    ("input gone : Float64\n", None, SensorUnavailable, "gone"),
])
def test_fixed_baseline_raises_what_the_query_raises(inputs, horizon, error,
                                                     message):
    first = inputs.split()[1]
    spec = analyze(parse_spec(inputs + f"output o := {first}\n"))
    with pytest.raises(error, match=message):
        run_fixed(spec, _FROM_ZERO, 4, horizon)


# a sensor that starts late, one that ends early, and two that share one
# tick array, through 10 s
_SHARED = array("q", range(0, 101, 5))
_GROUPED = SensorTrace(10, {"late": array("q", [7, 100]),
                            "early": array("q", [0, 50]),
                            "x": _SHARED, "y": _SHARED},
                       {"late": [0.5, 1.5], "early": [2.5, 3.5],
                        "x": [float(k) for k in range(21)],
                        "y": [-float(k) for k in range(21)]})


@pytest.mark.parametrize("inputs,horizon,error,message", [
    ("gone late", None, SensorUnavailable, "gone"),
    ("late gone", None, OutOfRange, "precedes the first sample of 'late'"),
    ("x gone late", None, SensorUnavailable, "gone"),
    ("x late y", None, OutOfRange, "precedes the first sample of 'late'"),
    ("x early y", 7.0, OutOfRange, "past the last sample of 'early'"),
    ("y x", 10.5, OutOfRange, "past the last sample of 'y'"),
    ("x y", 10.5, OutOfRange, "past the last sample of 'x'"),
])
def test_fixed_baseline_raises_for_the_first_failing_input(inputs, horizon,
                                                           error, message):
    names = inputs.split()
    spec = analyze(parse_spec("".join(f"input {n} : Float64\n" for n in names)
                              + f"output o := {names[-1]}\n"))
    with pytest.raises(error, match=message):
        run_fixed(spec, _GROUPED, 4, horizon)


def test_fixed_baseline_defaults_to_where_every_input_covers():
    # 'early' ends at 5 s and 'x' at 10 s: the events run through 5 s
    spec = analyze(parse_spec("input x : Float64\ninput early : Float64\n"
                              "output o := x + early\n"))
    base = run_fixed(spec, _GROUPED, 4)
    assert base.model.times == [Fraction(k, 4) for k in range(21)]


@pytest.mark.parametrize("freq", [0.7, 3, 4])
def test_fixed_baseline_reads_a_shared_tick_array_as_queries_do(freq):
    spec = analyze(parse_spec("input x : Float64\ninput late : Float64\n"
                              "input y : Float64\noutput o := x + y\n"))
    trace = replace(_GROUPED, ticks={**_GROUPED.ticks, "late": _SHARED},
                    values={**_GROUPED.values, "late": list(range(21))})
    base = run_fixed(spec, trace, freq)
    source = TraceSource(trace)
    assert len(base.model) == int(10 * freq) + 1
    for sensor in ("x", "late", "y"):
        assert base.model.streams[sensor] == [
            source.query(sensor, tick, base.model.quantum)
            for tick in base.model.ticks]


def test_fixed_baseline_rejects_bad_frequency():
    spec = analyze(parse_spec("input s : Float64\noutput o := s\n"))
    with pytest.raises(ValueError):
        run_fixed(spec, HOLD, 0)


# ---------------------------------------------------------------------------
# comparing runs


def _report(trigger, time):
    time = Fraction(str(time))
    return TriggerReport.at(trigger, 0, time.numerator, time.denominator, None)


def _metrics(fingerprint):
    return compute_metrics(EvaluationModel(), (), 1.0, fingerprint=fingerprint)


def test_compare_runs_normalizes_delays():
    truth = {"breach": [10.0]}
    runs = [
        ("fast", [_report("breach", 10.4)], _metrics("f")),
        ("slow", [_report("breach", 12.0)], _metrics("f")),
        ("blind", [_report("breach", 16.0)], _metrics("f")),  # out of window
    ]
    report = compare_runs(runs, truth, window=5.0)
    by_run = {r["run"]: r for r in report.rows}
    assert by_run["fast"]["delay"] == 0.0
    assert abs(by_run["slow"]["delay"] - 1.6) < 1e-9
    assert by_run["blind"]["detection"] is None
    assert report.summary["slow"]["median_delay"] == by_run["slow"]["delay"]
    assert report.summary["blind"]["missed"] == 1
    assert report.summary["fast"]["missed"] == 0


def test_compare_runs_ignores_detections_before_the_crossing():
    truth = {"breach": [10.0]}
    runs = [("early", [_report("breach", 9.9)], _metrics(None))]
    report = compare_runs(runs, truth)
    assert report.rows[0]["detection"] is None


def test_compare_runs_rejects_mismatched_traces():
    runs = [
        ("a", [], _metrics("one")),
        ("b", [], _metrics("two")),
    ]
    with pytest.raises(MismatchedTraces):
        compare_runs(runs, {})


def test_comparison_csv_shape():
    truth = {"breach": [10.0]}
    runs = [("only", [_report("breach", 10.5)], _metrics(None))]
    lines = list(compare_runs(runs, truth).csv_lines())
    assert lines[0] == "run,trigger,crossing,detection,delay"
    assert lines[1] == "only,breach,10.0,10.5,0.0"
