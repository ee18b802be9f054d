"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of the workload seed: the same seed
writes byte-identical files. The program under test receives only the
files written here (a spec, a trace or scenario JSON, a compare config).

- ``drone_long``: the bundled drone spec over one long synthetic flight,
  and a comparison over one 600 s flight.
- ``compare_fleet``: the bundled experiment, its ten scenarios extended by
  seeded extra flights.
- ``wide_universe``: a generated nine-sensor spec whose union closure has
  511 tasks, replayed over a seeded mean-reverting random-walk trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random

NAMES = ("drone_long", "compare_fleet", "wide_universe")
COMMANDS = ("run", "check", "compare")  # one iteration, in order

DRONE_SPEC = "drone_experiment.lola"
EXPERIMENT = "experiment.json"

LONG_FLIGHT_S = 1800.0  # drone_long: 3600 cycles at the spec's 2 Hz
LONG_COMPARE_S = 600.0  # drone_long: the one flight of its `compare`
FLEET_EXTRA = 20  # compare_fleet: seeded flights added to the bundled ten
FLEET_RUN_S = 900.0  # compare_fleet: the one `run` flight (1800 cycles)
SIDE_SCENARIOS = 8  # wide_universe: 60 s flights for its small `compare`
WIDE_SENSORS = 9  # 2^9 - 1 = 511 tasks, 9 + 36 = 45 working at bound 2
WIDE_TRACE_S = 300  # wide_universe trace length; 601 cycles at 2 Hz
WIDE_TRACE_HZ = 10


@dataclass(frozen=True)
class WorkloadFiles:
    """The inputs of one workload, as paths handed to the CLI."""

    name: str
    spec: Path  # spec for `run` and `check`
    mode: str
    bound: int
    source_flag: str  # "--scenario" or "--trace"
    source: Path
    config: Path  # `compare` config
    scenarios: int  # scenarios in `config`
    baselines: int  # fixed-frequency baselines per scenario in `config`
    traced: tuple  # commands whose calls the per-layer metrics count


def _scenario_seed(rng: Random) -> int:
    return rng.randrange(1, 1_000_000)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _experiment_config(spec_dir: Path, scenarios: list, horizon: float) -> dict:
    config = json.loads((spec_dir / EXPERIMENT).read_text(encoding="utf-8"))
    config["spec"] = DRONE_SPEC
    config["horizon"] = horizon
    config["scenarios"] = scenarios
    return config


def _copy_drone_spec(spec_dir: Path, out: Path) -> Path:
    path = out / DRONE_SPEC
    path.write_text((spec_dir / DRONE_SPEC).read_text(encoding="utf-8"),
                    encoding="utf-8")
    return path


def wide_spec_text(seed: int) -> str:
    """Nine annotated Float64 sensors, each with a geofence-like monitor.

    Every sensor has a staleness deadline, a priority on the clause of its
    alarm stream that is guarded by the sensor's warning region, and a
    trigger. One annotated clause per sensor keeps the region table at one
    entry per task. The seed moves thresholds only, so the task universe,
    the deadlines and the helper streams are the same for every seed.
    """
    rng = Random(f"wide-spec:{seed}")
    levels = ("low", "medium", "high")
    lines = ['#![frequency="2Hz", bound="2"]', ""]
    for i in range(1, WIDE_SENSORS + 1):
        lines.append(f'#[deadline="{3 + i % 3}s"]')
        lines.append(f"input s{i} : Float64")
    lines.append("")
    for i in range(1, WIDE_SENSORS + 1):
        centre = round(rng.uniform(-0.2, 0.2), 3)
        guard = round(rng.uniform(0.9, 1.1), 3)
        limit = round(rng.uniform(1.9, 2.1), 3)
        lines += [
            f"output dev_s{i} := abs(s{i} - {centre})",
            f"output alarm_s{i}",
            f'    #[priority="{levels[i % 3]}"]',
            f"    eval |@s{i}| when dev_s{i} >= {guard} with dev_s{i} >= {limit}",
            f"    eval |@s{i}| with false",
            f'trigger alarm_s{i} "s{i} outside its band"',
            "",
        ]
    return "\n".join(lines)


def wide_trace_csv(seed: int) -> str:
    """A mean-reverting random walk per sensor (stationary std 1).

    Mean reversion keeps the share of steps in each priority region and
    above each limit nearly the same from seed to seed.
    """
    rng = Random(f"wide-trace:{seed}")
    theta = 0.02  # reversion per sample
    sigma = math.sqrt(2.0 * theta)
    hz = WIDE_TRACE_HZ
    xs = [rng.gauss(0.0, 1.0) for _ in range(WIDE_SENSORS)]
    rows = ["time," + ",".join(f"s{i}" for i in range(1, WIDE_SENSORS + 1))]
    for k in range(WIDE_TRACE_S * hz + 1):
        cells = ",".join(f"{x:.4f}" for x in xs)
        rows.append(f"{k // hz}.{k % hz},{cells}" if k % hz else f"{k // hz},{cells}")
        xs = [x - theta * x + sigma * rng.gauss(0.0, 1.0) for x in xs]
    return "\n".join(rows) + "\n"


def generate(name: str, seed: int, out: Path, spec_dir: Path) -> WorkloadFiles:
    """Write the inputs of workload `name` for `seed` into directory `out`."""
    out.mkdir(parents=True, exist_ok=True)
    rng = Random(f"{name}:{seed}")
    traced = COMMANDS
    if name == "drone_long":
        spec = _copy_drone_spec(spec_dir, out)
        source = out / "scenario.json"
        _write_json(source, {"seed": _scenario_seed(rng), "duration": LONG_FLIGHT_S})
        config = _experiment_config(
            spec_dir, [{"seed": _scenario_seed(rng), "duration": LONG_COMPARE_S}],
            LONG_COMPARE_S)
        flag = "--scenario"
    elif name == "compare_fleet":
        spec = _copy_drone_spec(spec_dir, out)
        config = _experiment_config(spec_dir, [], 60.0)
        bundled = json.loads(
            (spec_dir / EXPERIMENT).read_text(encoding="utf-8"))["scenarios"]
        extra = [{"seed": _scenario_seed(rng), "duration": 60.0}
                 for _ in range(FLEET_EXTRA)]
        config["scenarios"] = bundled + extra
        source = out / "scenario.json"
        _write_json(source, {"seed": _scenario_seed(rng),
                             "duration": FLEET_RUN_S})
        flag = "--scenario"
    elif name == "wide_universe":
        spec = out / "wide.lola"
        spec.write_text(wide_spec_text(seed), encoding="utf-8")
        source = out / "trace.csv"
        source.write_text(wide_trace_csv(seed), encoding="utf-8")
        flag = "--trace"
        # `compare` only synthesizes drone flights, so this workload's
        # compare leg runs a few short drone scenarios beside the wide spec.
        # It gives scenarios_per_s only; tracing it would mix drone calls
        # into the wide spec's per-layer figures.
        traced = ("run", "check")
        _copy_drone_spec(spec_dir, out)
        config = _experiment_config(
            spec_dir, [{"seed": _scenario_seed(rng), "duration": 60.0}
                       for _ in range(SIDE_SCENARIOS)], 60.0)
    else:
        raise ValueError(f"unknown workload '{name}'; choose from {NAMES}")
    config_path = out / "compare.json"
    _write_json(config_path, config)
    return WorkloadFiles(name=name, spec=spec, mode="dp", bound=2,
                         source_flag=flag, source=source, config=config_path,
                         scenarios=len(config["scenarios"]),
                         baselines=len(config["baselines"]),
                         traced=traced)
