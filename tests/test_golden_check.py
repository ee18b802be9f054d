"""Golden `run` and `check` outputs on the bundled specifications.

Each bundled spec is run in every mode at bounds 1 to 3, and each model
that a run writes is checked in every mode at every one of these bounds,
so a check below the run's bound reports bandwidth and schedule
violations. Every command's exit code and the sha256 of its stdout are
compared with `golden_check.json`. Usage errors count as outcomes too: no
bundled spec carries deadline annotations, so deadline mode exits 2.

Models written by the monitor itself, off the cycle grid, pin `check` on
times in thirds and sevenths, and on a time map that goes backwards.

The digests were recorded with the oracles reading models through
per-stream bisect indexes (the reading of `reference_eval.ModelReader`),
so they pin the forward walk of a model to that reading. To record them
again, run `PYTHONPATH=src python3 tests/test_golden_check.py`.
"""

import hashlib
import io
import json
from fractions import Fraction
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from activemon.analysis import analyze
from activemon.cli import main
from activemon.io import write_model
from activemon.parser import parse_spec
from activemon.schedule import MODES
from activemon.translate import translate
from events import Event, run_events

GOLDEN = Path(__file__).with_name("golden_check.json")
BOUNDS = (1, 2, 3)
SPECS = ("drone_experiment.lola", "geofence_priority.lola",
         "priority_conflict.lola")


def _geofence_trace() -> str:
    # lat climbs through every region and alt through 50; lon and alt skip
    # some rows, and the last row, at 19.5 s, carries every input
    rows = ["time,lat,lon,alt"]
    for k in range(40):
        lon = "" if k % 3 == 2 and k < 39 else f"{20.0 + 0.5 * k}"
        alt = "" if k % 2 and k < 39 else f"{30.0 + 1.5 * k}"
        rows.append(f"{k}/2,{3.0 + 1.2 * k},{lon},{alt}")
    return "\n".join(rows) + "\n"


def _conflict_trace() -> str:
    # a crosses 10 and b crosses 0; each skips some rows, and the last row,
    # at 59/3 s, carries both
    rows = ["time,a,b"]
    for k in range(60):
        a = "" if k % 4 == 3 and k < 59 else f"{6.0 + 0.25 * k}"
        b = "" if k % 5 == 1 and k < 59 else f"{3.0 - 0.2 * k}"
        rows.append(f"{k}/3,{a},{b}")
    return "\n".join(rows) + "\n"


def _source(spec: str, tmp: Path) -> list:
    if spec == "drone_experiment.lola":
        path = tmp / "scenario.json"
        path.write_text(json.dumps({"seed": 3, "duration": 60.0}))
        return ["--scenario", str(path)]
    path = tmp / "trace.csv"
    path.write_text(_geofence_trace() if spec == "geofence_priority.lola"
                    else _conflict_trace())
    # 20 cycles at the specs' 1 Hz, all within every input's samples
    return ["--trace", str(path), "--horizon", "19.5"]


def _outcome(argv: list) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def outcomes(spec_path: Path, tmp: Path) -> dict:
    """'run MODE BOUND' and 'check MODE BOUND by MODE BOUND', the run's
    mode and bound then the check's, -> 'exit sha256'."""
    source = _source(spec_path.name, tmp)
    found = {}
    for bound in BOUNDS:
        for run_mode in MODES:
            out = tmp / f"{run_mode}-{bound}"
            found[f"run {run_mode} {bound}"] = _outcome(
                ["run", str(spec_path), *source, "--mode", run_mode,
                 "--bound", str(bound), "--out-dir", str(out)])
            if not (out / "model.csv").exists():
                continue
            for mode, check_bound in product(MODES, BOUNDS):
                found[f"check {run_mode} {bound} by {mode} {check_bound}"] = \
                    _outcome(["check", str(spec_path), "--model",
                              str(out / "model.csv"), "--mode", mode,
                              "--bound", str(check_bound)])
    return found


@pytest.mark.parametrize("spec", SPECS)
def test_check_output_matches_the_recorded_digests(spec, spec_dir, tmp_path):
    expected = json.loads(GOLDEN.read_text())[spec]
    assert outcomes(spec_dir / spec, tmp_path) == expected


OFF_GRID = "priority_conflict.lola off the grid"
# name -> event time of row k, k from 1
OFF_GRID_TIMES = {
    "thirds": lambda k: Fraction(k, 3),
    "sevenths": lambda k: Fraction(3 * k, 7),
    "mixed": lambda k: k + (Fraction(1, 3), Fraction(2, 7),
                            Fraction(3, 10))[k % 3],
}


def _off_grid_events(time) -> list:
    # a crosses 10 and b crosses 0; each skips some rows, never both
    events = []
    for k in range(1, 31):
        values = {}
        if k % 4 != 3:
            values["a"] = 6.0 + 0.25 * k
        if k % 5 != 1 or not values:
            values["b"] = 3.0 - 0.2 * k
        events.append(Event(time(k), values))
    return events


def _off_grid_models(spec: Path, mode: str, tmp: Path) -> dict:
    """name -> model CSV written by the monitor of `spec` translated in
    `mode`, one per OFF_GRID_TIMES entry, and 'backwards': the thirds model
    with the time of row 6, 2, replaced by 3/2, so the time map steps back
    from 5/3."""
    plain = translate(analyze(parse_spec(spec.read_text(encoding="utf-8"))),
                      mode).plain
    models = {}
    for name, time in OFF_GRID_TIMES.items():
        path = models[name] = tmp / f"{name}-{mode}-{spec.stem}.csv"
        model = run_events(plain, _off_grid_events(time))[0]
        write_model(path, model, plain)
    lines = models["thirds"].read_text(encoding="utf-8").splitlines()
    assert lines[6].startswith("2,")
    lines[6] = "3/2" + lines[6][1:]
    models["backwards"] = tmp / f"backwards-{mode}-{spec.stem}.csv"
    models["backwards"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return models


def off_grid_outcomes(spec_path: Path, tmp: Path) -> dict:
    """'NAME MODE BOUND' -> 'exit sha256' of `check` on the off-grid models,
    and the same with ' stale' for the spec with a 2/3 s default deadline,
    which gives dp mode staleness bounds."""
    text = spec_path.read_text(encoding="utf-8")
    stale = tmp / "stale.lola"
    stale.write_text(text.replace('bound="2"]', 'bound="2", deadline="2/3s"]'),
                     encoding="utf-8")
    found = {}
    for suffix, spec in (("", spec_path), (" stale", stale)):
        for mode in ("dp", "priority"):
            models = _off_grid_models(spec, mode, tmp)
            for (name, path), bound in product(models.items(), BOUNDS):
                found[f"{name} {mode} {bound}{suffix}"] = _outcome(
                    ["check", str(spec), "--model", str(path),
                     "--mode", mode, "--bound", str(bound)])
    return found


def test_off_grid_check_output_matches_the_recorded_digests(spec_dir,
                                                            tmp_path):
    expected = json.loads(GOLDEN.read_text())[OFF_GRID]
    assert off_grid_outcomes(spec_dir / "priority_conflict.lola",
                             tmp_path) == expected


def test_a_backwards_time_map_names_both_times(spec_dir, tmp_path):
    spec = spec_dir / "priority_conflict.lola"
    model = _off_grid_models(spec, "dp", tmp_path)["backwards"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", str(spec), "--model", str(model),
                     "--bound", "2"])
    assert code == 1
    first = json.loads(out.getvalue().splitlines()[0])
    assert first["detail"] == \
        "time map not strictly increasing: 3/2 after 5/3"
    assert (first["step"], first["time"]) == (5, 1.5)


if __name__ == "__main__":
    import tempfile

    from conftest import SPEC_DIR

    recorded = {}
    for name in SPECS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = outcomes(SPEC_DIR / name, Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        recorded[OFF_GRID] = off_grid_outcomes(
            SPEC_DIR / "priority_conflict.lola", Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
