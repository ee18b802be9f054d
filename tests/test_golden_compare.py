"""Golden `compare` outputs.

Experiment configs run through `compare`: the bundled `experiment.json`; a
trigger-heavy one whose 8 Hz baseline fires its triggers on nearly every
event after each crossing; and variations of it that move the last
detection window against the horizon (a 600 s flight, baselines whose
periods are not terminating decimals, windows of 0.01 and 100 s, no
`trigger_kinds`), flights shorter than the horizon, and a baseline past
the step cap. The exit code and the sha256 of stdout are compared with
`golden_compare.json`, and so is the sha256 of `comparison.csv` and
`summary.json` on exit 0, or stderr itself on any other exit.

To record the digests again, run
`PYTHONPATH=src python3 tests/test_golden_compare.py`.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from activemon.analysis import analyze
from activemon.cli import main
from activemon.parser import parse_spec
from activemon.sim import generate_flight, run_fixed, scenario_from_json

GOLDEN = Path(__file__).with_name("golden_compare.json")
OUTPUTS = ("comparison.csv", "summary.json")

TRIGGER_HEAVY = {
    "spec": "drone_experiment.lola",
    "mode": "dp",
    "bound": 2,
    "horizon": 60,
    "window": 5.0,
    "baselines": [0.5, 1, 2, 4, 8],
    "groups": {"safety": ["gps_lat_long", "gps_altitude"]},
    "trigger_kinds": {"scheduled_geofence": "geofence",
                      "scheduled_altitude_bound": "altitude"},
    "scenarios": [{"seed": seed, "duration": 60.0}
                  for seed in (5, 17, 29, 43)],
}


def _variant(drop=(), **fields) -> dict:
    """TRIGGER_HEAVY with `fields` set and the keys in `drop` left out."""
    config = {k: v for k, v in TRIGGER_HEAVY.items() if k not in drop}
    config.update(fields)
    return config


def _short(duration: float) -> list:
    # the flight ends before the 60 s horizon; a second full one follows
    return [{"seed": 5, "duration": duration}, {"seed": 17, "duration": 60.0}]


# config name -> the config, or None for the bundled experiment.json
CONFIGS = {
    "experiment.json": None,
    "trigger_heavy": TRIGGER_HEAVY,
    "long_flight": _variant(horizon=600, baselines=[0.5, 1, 2, 4],
                            scenarios=[{"seed": 7, "duration": 600.0}]),
    "repeating_periods": _variant(baselines=[0.3, 0.7, 3]),
    "narrow_window": _variant(window=0.01),
    "wide_window": _variant(window=100),
    "no_trigger_kinds": _variant(drop=("trigger_kinds",)),
    # a 4 Hz baseline reads past the last sample at 59.75 s
    "flight_of_59.6s": _variant(scenarios=_short(59.6)),
    "flight_of_59.6s_no_trigger_kinds": _variant(
        drop=("trigger_kinds",), scenarios=_short(59.6)),
    # the scheduled run reads past the last sample at 30.5 s
    "flight_of_30s": _variant(scenarios=_short(30.0)),
    "flight_of_30s_no_trigger_kinds": _variant(
        drop=("trigger_kinds",), scenarios=_short(30.0)),
    # 1.2 million events over 60 s, more than the step cap
    "baseline_of_20000hz": _variant(baselines=[1, 20000]),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(name: str, spec_dir: Path, tmp: Path) -> dict:
    """'exit', 'stdout' and each of OUTPUTS -> the exit code or a sha256;
    on an exit other than 0, 'stderr' -> stderr instead of OUTPUTS."""
    config = CONFIGS[name]
    if config is None:
        path = spec_dir / name
    else:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp / f"{name}-out"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["compare", "--config", str(path),
                     "--out-dir", str(out_dir)])
    found = {"exit": code, "stdout": _digest(out.getvalue().encode())}
    if code != 0:
        found["stderr"] = err.getvalue()
        return found
    for output in OUTPUTS:
        found[output] = _digest((out_dir / output).read_bytes())
    return found


@pytest.mark.parametrize("name", CONFIGS)
def test_compare_output_matches_the_recorded_digests(name, spec_dir,
                                                     tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert outcome(name, spec_dir, tmp_path) == expected


def test_the_trigger_heavy_config_fires_many_triggers(spec_dir):
    # the digests pin hundreds of trigger reports, not a handful
    config = CONFIGS["trigger_heavy"]
    analyzed = analyze(parse_spec(
        (spec_dir / config["spec"]).read_text(encoding="utf-8")))
    fired = sum(
        len(run_fixed(analyzed, generate_flight(scenario_from_json(entry)),
                      8, 60).triggers)
        for entry in config["scenarios"])
    assert fired > 400


if __name__ == "__main__":
    import tempfile

    from conftest import SPEC_DIR

    recorded = {}
    for config_name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[config_name] = outcome(config_name, SPEC_DIR, Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
