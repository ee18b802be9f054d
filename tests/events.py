"""Timed input events at exact times, for tests.

The monitor runs on integer ticks and the CLI reads traces straight into
ticks; tests state their inputs as `Event`s at exact `Fraction` times and
go through these helpers: `run_events` runs the monitor on the lcm
quantum of the events' times, `write_trace` writes them as a trace CSV,
`trace_from_samples` builds a `SensorTrace` from exact (time, value)
pairs, `sensor_trace` collects each sensor's non-absent samples into one,
and `model_at` builds a model at exact times. `parse_time` and
`parse_value` read a cell of a file as the readers do, and `format_value`
writes a value as `write_model` does.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from activemon.engine import ABSENT, EvaluationModel, run_monitor_full
from activemon.io import (_cell_parser, _column_formatter, _time_parts,
                          format_time)
from activemon.sim import SensorTrace, tick_array


@dataclass(frozen=True)
class Event:
    """One timed bundle of input values; only present inputs are listed."""

    time: Fraction
    values: dict


def run_events(analyzed, events):
    """`run_monitor_full` over events at exact times: model and triggers."""
    quantum = math.lcm(*{e.time.denominator for e in events})
    return run_monitor_full(analyzed, [
        (e.time.numerator * (quantum // e.time.denominator), e.values)
        for e in events], quantum)


def model_at(times, streams: dict) -> EvaluationModel:
    """A model at exact times, each an int or a Fraction."""
    q = math.lcm(*{t.denominator for t in times})
    return EvaluationModel(
        [t.numerator * (q // t.denominator) for t in times], streams, q)


def parse_time(cell: str) -> Fraction:
    return Fraction(*_time_parts(cell))


def parse_value(cell: str, ty):
    """A cell's value as a column of type `ty` in a trace or model holds it."""
    return _cell_parser(ty)(cell)


def format_value(value, ty) -> str:
    """A value as a column of type `ty` in a written model holds it."""
    return _column_formatter(ty)([value])[0]


def write_trace(path, events, analyzed) -> None:
    """The events as a trace CSV with a column per input of `analyzed`."""
    names = analyzed.spec.input_names()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *names])
        for ev in events:
            writer.writerow([format_time(ev.time), *(
                format_value(ev.values.get(name, ABSENT), analyzed.types[name])
                for name in names)])


def sensor_trace(events, input_names) -> SensorTrace:
    """Each sensor's non-absent samples out of the events."""
    samples = {name: [] for name in input_names}
    for ev in events:
        for name, value in ev.values.items():
            if name in samples and value is not ABSENT:
                samples[name].append((ev.time, value))
    return trace_from_samples({k: v for k, v in samples.items() if v})


def trace_from_samples(samples: dict) -> SensorTrace:
    """A trace from exact (time, value) pairs per sensor, times int or
    Fraction; the quantum is the lcm of all their denominators."""
    for sensor, seq in samples.items():
        if not seq:
            raise ValueError(f"sensor '{sensor}' has no samples")
    q = math.lcm(*{t.denominator for seq in samples.values() for t, _ in seq})
    ticks = {s: tick_array([t.numerator * (q // t.denominator) for t, _ in seq])
             for s, seq in samples.items()}
    for sensor, seq in ticks.items():
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise ValueError(f"sensor '{sensor}' times not increasing")
    return SensorTrace(q, ticks, {s: [v for _, v in seq]
                                  for s, seq in samples.items()})
