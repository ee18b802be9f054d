"""Golden `translate` outputs and `run` precondition reports.

Each spec is translated in every mode. The exit code and the sha256 of the
plain spec that `translate` prints and of the task table that
`--task-table` writes are compared with `golden_translate.json`. The
precondition report that `run` writes to stderr is pinned too, by its exit
code, its line count and the sha256 of its text, for a short run at bounds
1 to 3. Usage errors count as outcomes: deadline mode rejects priority
annotations, and the priority modes reject deadlines on output clauses.

The specs are the three bundled ones, one with deadline annotations on
inputs and on a chain of output clauses (no bundled spec has those), and a
wide spec with nine annotated sensors, whose union closure has 511 tasks.
To record the digests again, run
`PYTHONPATH=src python3 tests/test_golden_translate.py`.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from activemon.cli import main
from activemon.schedule import MODES

GOLDEN = Path(__file__).with_name("golden_translate.json")
BOUNDS = (1, 2, 3)
BUNDLED = ("drone_experiment.lola", "geofence_priority.lola",
           "priority_conflict.lola")

DEADLINES = """\
#![frequency="2Hz", bound="2"]
#[deadline="4s"]
input x : Float64
#[deadline="1.5s"]
input y : Float64
input z : Float64

output near
    #[deadline="1s"]
    eval |@x && z| when x > 5.0 with x + z
    #[deadline="2.5s"]
    eval |@x && z| when x > 0.0 with x - z
    #[deadline="6s"]
    eval |@x && z| with 0.0
output low
    #[deadline="2s"]
    eval |@y| when y < 0.0 with y
    #[deadline="3s"]
    eval |@y| with 1.0
output sum := x + y
trigger near > 6.0 "x close to z"
"""

WIDE_SENSORS = 9


def wide_text(sensors: int = WIDE_SENSORS) -> str:
    """Annotated sensors, nine by default, each with a staleness deadline
    and a priority on the guarded clause of its alarm stream."""
    levels = ("low", "medium", "high")
    lines = ['#![frequency="2Hz", bound="2"]', ""]
    for i in range(1, sensors + 1):
        lines += [f'#[deadline="{3 + i % 3}s"]', f"input s{i} : Float64"]
    lines.append("")
    for i in range(1, sensors + 1):
        lines += [
            f"output dev_s{i} := abs(s{i} - 0.{i})",
            f"output alarm_s{i}",
            f'    #[priority="{levels[i % 3]}"]',
            f"    eval |@s{i}| when dev_s{i} >= 1.0 with dev_s{i} >= 2.0",
            f"    eval |@s{i}| with false",
            f'trigger alarm_s{i} "s{i} outside its band"',
            "",
        ]
    return "\n".join(lines)


WRITTEN = {"deadlines.lola": DEADLINES, "wide.lola": wide_text()}
CASES = BUNDLED + tuple(WRITTEN)


def _spec(name: str, spec_dir: Path, tmp: Path) -> Path:
    if name in WRITTEN:
        path = tmp / name
        path.write_text(WRITTEN[name], encoding="utf-8")
        return path
    return spec_dir / name


def _source(name: str, inputs: list, tmp: Path) -> list:
    """A 5 s source for `run`: a drone flight or a trace at 2 Hz."""
    if name == "drone_experiment.lola":
        path = tmp / "scenario.json"
        path.write_text(json.dumps({"seed": 3, "duration": 5.0}))
        return ["--scenario", str(path)]
    rows = ["time," + ",".join(inputs)]
    for k in range(11):
        rows.append(f"{k}/2," + ",".join(f"{(k * (i + 3)) % 7 - 2.5}"
                                         for i in range(len(inputs))))
    path = tmp / "trace.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ["--trace", str(path), "--horizon", "4"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def outcomes(name: str, spec_dir: Path, tmp: Path) -> dict:
    """'translate MODE' -> 'exit sha256(stdout) sha256(task table)', and
    'run MODE BOUND' -> 'exit lines sha256(stderr)'."""
    spec = _spec(name, spec_dir, tmp)
    found = {}
    inputs = None
    for mode in MODES:
        table = tmp / f"{mode}.json"
        code, out, _ = _call(["translate", str(spec), "--mode", mode,
                              "--task-table", str(table)])
        tabled = _digest(table.read_text(encoding="utf-8")) \
            if table.exists() else "-"
        found[f"translate {mode}"] = f"{code} {_digest(out)} {tabled}"
        if code == 0 and inputs is None:
            inputs = [line.split()[1] for line in out.splitlines()
                      if line.startswith("input ")]
    source = _source(name, inputs, tmp)
    for mode in MODES:
        for bound in BOUNDS:
            code, _, err = _call(["run", str(spec), *source, "--mode", mode,
                                  "--bound", str(bound), "--out-dir",
                                  str(tmp / f"run-{mode}-{bound}")])
            found[f"run {mode} {bound}"] = \
                f"{code} {len(err.splitlines())} {_digest(err)}"
    return found


def test_wide_spec_has_511_tasks():
    from activemon.analysis import analyze
    from activemon.parser import parse_spec
    from activemon.translate import translate

    tr = translate(analyze(parse_spec(wide_text())), "dp")
    assert len(tr.schedule.universe) == 2 ** WIDE_SENSORS - 1


@pytest.mark.parametrize("name", CASES)
def test_translate_output_matches_the_recorded_digests(name, spec_dir,
                                                       tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert outcomes(name, spec_dir, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    from conftest import SPEC_DIR

    recorded = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[case] = outcomes(case, SPEC_DIR, Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
