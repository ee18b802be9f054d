"""The CLI contract under mutated inputs.

Each case takes one command over small valid inputs (the bundled conflict
and drone specs, a trace, the model that `run` wrote from it, a scenario,
a compare config and a `--freq` value), applies 1-4 edits to one of them,
and calls `cli.main` in-process. Whatever the edits, `main` returns 0, 1
or 2, or argparse exits 2; 1 comes only from `check`; a returned 2 says
`error: ` first on stderr; and no other exception escapes. Which of these
a given input gets is for the per-case tests in test_cli.py to pin.

Tier-1 runs the default number of examples; the `fuzz` profile of
conftest.py runs many more:

    PYTHONPATH=src python -m pytest tests/test_cli_fuzz.py \\
        --hypothesis-profile=fuzz
"""

import functools
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from activemon import cli, engine

SPECS = Path(cli.__file__).parent / "specs"

TRACE = (b"time,a,b\n0,20.0,1.0\n1,5.0,-2.0\n2,12.0,3.0\n3,1.0,-1.0\n"
         b"4,30.0,2.5\n5,8.0,-0.5\n")
SCENARIO = b'{"seed": 7, "duration": 5.0}\n'
CONFIG = (b'{"spec": "drone.lola", "horizon": 5.0, "window": 2.0,\n'
          b' "baselines": [0.5, 1, 2],\n'
          b' "scenarios": [{"seed": 101, "duration": 5.0}]}\n')


# the most bytes an edit may grow each input to: CSV inputs reach past the
# csv module's field limit of 131072, and JSON past int()'s digit limit of
# 4300; a larger scenarios list would only take longer
MOST = {"conflict.lola": 1 << 14, "drone.lola": 1 << 14, "trace.csv": 1 << 18,
        "model.csv": 1 << 18, "scenario.json": 1 << 13,
        "config.json": 1 << 13, "freq": 1 << 6}


@functools.cache
def inputs() -> dict:
    """Each input's bytes; model.csv is the one that `run` writes from
    TRACE."""
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        (Path(tmp) / "trace.csv").write_bytes(TRACE)
        assert cli.main(["run", str(SPECS / "priority_conflict.lola"),
                         "--trace", str(Path(tmp) / "trace.csv"),
                         "--mode", "priority", "--out-dir", tmp]) == 0
        model = (Path(tmp) / "model.csv").read_bytes()
    return {"conflict.lola": (SPECS / "priority_conflict.lola").read_bytes(),
            "drone.lola": (SPECS / "drone_experiment.lola").read_bytes(),
            "trace.csv": TRACE, "model.csv": model, "scenario.json": SCENARIO,
            "config.json": CONFIG, "freq": b"2"}


# per command: its arguments, an input name standing for that input's
# file, or for its text where it is an argument
COMMANDS = {
    "translate": ["translate", "conflict.lola", "--mode", "priority"],
    "translate_drone": ["translate", "drone.lola"],
    "run": ["run", "conflict.lola", "--trace", "trace.csv",
            "--mode", "priority", "--out-dir", "out"],
    "run_scenario": ["run", "drone.lola", "--scenario", "scenario.json",
                     "--out-dir", "out"],
    "baseline": ["baseline", "conflict.lola", "--trace", "trace.csv",
                 "--freq", "freq", "--out-dir", "out"],
    "check": ["check", "conflict.lola", "--model", "model.csv",
              "--mode", "priority"],
    # the config names drone.lola, which lies beside it
    "compare": ["compare", "--config", "config.json", "--out-dir", "out"],
}
READS = {name: [a for a in argv if a in MOST] + (
    ["drone.lola"] if name == "compare" else [])
    for name, argv in COMMANDS.items()}

TOKENS = [b"1e400", b"1e-400", b"nan", b";", b'"', b"\0", "é".encode()]

# (kind, position, length or token, times); a position past the end wraps,
# and an example may give (marker, shift) for the marker's first index plus
# the shift
EDITS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1 << 16),
              st.sampled_from(TOKENS), st.just(1)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16),
              st.integers(1, 64), st.just(1)),
    st.tuples(st.just("duplicate"), st.integers(0, 1 << 16),
              st.integers(1, 64), st.integers(1, 1 << 17)),
)


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    target = draw(st.sampled_from(READS[command]))
    return command, target, draw(st.lists(EDITS, min_size=1, max_size=4))


def edited(data: bytes, edits, most: int) -> bytes:
    """`data` after the edits, in order, on bytes, so a cut through an
    encoded character leaves text that is not UTF-8; a duplicated span is
    repeated as often as `most` bytes allow."""
    for kind, at, arg, times in edits:
        if isinstance(at, tuple):
            at = data.index(at[0]) + at[1]
        at %= len(data) + 1
        if kind == "insert":
            data = data[:at] + arg + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + arg:]
        else:
            span = data[at:at + arg]
            if span:
                times = min(times, max(0, most - len(data)) // len(span))
                data = data[:at] + span * times + data[at:]
    return data


# each input mended before, as an edit of the inputs here:
# a number literal beyond float range in a spec
@example(("translate", "conflict.lola",
          [("insert", (b"10.0", 0), b"1e400", 1),
           ("delete", (b"1e400", 5), 4, 1)]))
# a spec that is not UTF-8: half of an encoded character
@example(("check", "conflict.lola",
          [("insert", 0, "é".encode(), 1), ("delete", 0, 1, 1)]))
# a trace cell over the csv module's field limit
@example(("run", "trace.csv",
          [("duplicate", (b"20.0", 0), 1, 131072)]))
# a --freq beyond float range
@example(("baseline", "freq", [("delete", 0, 1, 1),
                               ("insert", 0, b"1e400", 1)]))
# a model time finer than float resolution
@example(("check", "model.csv",
          [("insert", (b"\n1,", 1), b"1e-400", 1),
           ("delete", (b"1e-400", 6), 1, 1)]))
# a compare config number beyond float range, and a scenario one
@example(("compare", "config.json",
          [("insert", (b"5.0", 0), b"1e400", 1),
           ("delete", (b"5.0", 0), 3, 1)]))
@example(("run_scenario", "scenario.json",
          [("insert", (b"5.0", 0), b"1e400", 1),
           ("delete", (b"5.0", 0), 3, 1)]))
# a JSON integer beyond int()'s digit limit
@example(("run_scenario", "scenario.json",
          [("duplicate", (b"7", 0), 1, 5000)]))
# found here: a number whose power of ten alone would take all memory
@example(("baseline", "freq", [("delete", 0, 1, 1),
                               ("insert", 0, b"1e-400", 1),
                               ("duplicate", 3, 1, 60)]))
@example(("check", "model.csv",
          [("insert", (b"\n1,", 1), b"1e-400", 1),
           ("delete", (b"1e-400", 6), 1, 1),
           ("duplicate", (b"e-400", 2), 1, 60)]))
# found here: a tuple type nested deeper than the parser's recursion reaches
@example(("translate_drone", "drone.lola",
          [("duplicate", (b": (Float64", 2), 1, 2000)]))
# found here: JSON nested deeper than the json module's recursion reaches
@example(("compare", "config.json",
          [("duplicate", (b"[0.5", 0), 1, 2000)]))
# two baselines that share a run name
@example(("compare", "config.json",
          [("duplicate", (b" 1,", 0), 3, 1)]))
@given(cases())
@settings(derandomize=True, deadline=None)
def test_the_cli_contract_holds_for_mutated_inputs(case):
    command, target, edits = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": str(Path(tmp) / "out")}
        for name, data in inputs().items():
            if name == target:
                data = edited(data, edits, MOST[name])
            if name == "freq":
                paths[name] = data.decode("utf-8", "replace").replace(
                    "\0", "")
            else:
                paths[name] = str(Path(tmp) / name)
                Path(paths[name]).write_bytes(data)
        argv = [paths.get(a, a) for a in COMMANDS[command]]
        err = StringIO()
        # a run past 5000 steps is a usage error, so that no case runs long
        with mock.patch.object(engine, "MAX_STEPS", 5000), \
                redirect_stdout(StringIO()), redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as stop:  # argparse
                assert stop.code == 2, err.getvalue()
                return
    assert rc in (0, 1, 2)
    assert rc != 1 or COMMANDS[command][0] == "check"
    assert rc != 2 or err.getvalue().startswith("error: "), err.getvalue()
