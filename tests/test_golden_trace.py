"""Golden `run --trace` and `baseline` outputs over replayed traces.

Two bundled specs, one with a tuple input and triggers, replay traces
whose times lie in tenths (written as decimals, some with a trailing zero),
thirds and sevenths (written as p/q, some unreduced). Every trace has
absent cells, a row whose cells are all empty and a blank line; its first
and last rows carry every input, so a baseline from time 0 through the
last row queries no sensor outside its samples. The exit code and the sha256 of every file each command writes
(`model.csv`, `plans.jsonl`, `triggers.jsonl`, `metrics.json`) are
compared with `golden_trace.json`.

To record the digests again, run
`PYTHONPATH=src python3 tests/test_golden_trace.py`.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from activemon.cli import main

GOLDEN = Path(__file__).with_name("golden_trace.json")
OUTPUTS = ("model.csv", "plans.jsonl", "triggers.jsonl", "metrics.json")

# spec -> each input's value at row k; the values cross the specs' limits
SPECS = {
    "priority_conflict.lola": {
        "a": lambda k: 6.0 + 0.25 * k,
        "b": lambda k: 3.0 - 0.2 * k,
    },
    "drone_experiment.lola": {
        "gps_lat_long": lambda k: (48.0 + 3e-5 * k, 11.0 + 2e-5 * k),
        "gps_altitude": lambda k: 100.0 + 0.5 * k,
        "barometer_pressure": lambda k: 1000.0 - 0.1 * k,
        "barometer_altitude": lambda k: 100.0 + 0.28 * k,
    },
}

# trace name -> (rows, time cell of row k)
TRACES = {
    "tenths": (60, lambda k: f"{k / 10:.2f}" if k % 7 == 0 else str(k / 10)),
    "thirds": (45, lambda k: f"{k}/3"),
    "sevenths": (35, lambda k: f"{3 * k}/7"),
}

ALL_EMPTY_ROW = 7  # every cell of this row is empty
BLANK_AFTER = 12  # a blank line follows this row


def _cell(value) -> str:
    if isinstance(value, tuple):
        return ";".join(map(repr, value))
    return repr(value)


def trace_csv(values: dict, rows: int, time) -> str:
    """Input i is absent from row k when (k + i) % (3 + i) == 2, except in
    the first and last rows."""
    lines = ["time," + ",".join(values)]
    for k in range(rows):
        cells = []
        for i, value in enumerate(values.values()):
            absent = k == ALL_EMPTY_ROW or (
                0 < k < rows - 1 and (k + i) % (3 + i) == 2)
            cells.append("" if absent else _cell(value(k)))
        lines.append(",".join([time(k), *cells]))
        if k == BLANK_AFTER:
            lines.append("")
    return "\n".join(lines) + "\n"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outcomes(spec_path: Path, tmp: Path) -> dict:
    """'TRACE COMMAND' -> {'exit': code, FILE: sha256 of each written file}."""
    found = {}
    for name, (rows, time) in TRACES.items():
        trace = tmp / f"{name}.csv"
        trace.write_text(trace_csv(SPECS[spec_path.name], rows, time),
                         encoding="utf-8")
        for command, extra in (("run", []), ("baseline", ["--freq", "2"])):
            out = tmp / f"{name}-{command}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, str(spec_path), "--trace", str(trace),
                             *extra, "--out-dir", str(out)])
            found[f"{name} {command}"] = {"exit": code, **{
                file: _digest(out / file) for file in OUTPUTS
                if (out / file).is_file()}}
    return found


@pytest.mark.parametrize("spec", SPECS)
def test_trace_replay_outputs_match_the_recorded_digests(spec, spec_dir,
                                                         tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[spec]
    assert outcomes(spec_dir / spec, tmp_path) == expected


def test_the_traces_have_the_rows_the_digests_rely_on():
    values = SPECS["priority_conflict.lola"]
    for rows, time in TRACES.values():
        lines = trace_csv(values, rows, time).splitlines()
        assert lines[1 + ALL_EMPTY_ROW].endswith(",,")
        assert lines[2 + BLANK_AFTER] == ""
        assert "" not in lines[1].split(",") + lines[-1].split(",")
        assert any(cell == "" for line in lines[2:-1] if line
                   for cell in line.split(",")[1:])


if __name__ == "__main__":
    import tempfile

    from conftest import SPEC_DIR

    recorded = {}
    for name in SPECS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = outcomes(SPEC_DIR / name, Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
