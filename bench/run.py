"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload drone_long --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's own ``src/``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time; iterations stop before it runs out")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "activemon" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a checkout of the "
              "activemon source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports activemon from SRC

    if Path(harness.activemon.cli.__file__).resolve().parent != package.parent:
        print("error: activemon was imported from outside this checkout",
              file=sys.stderr)
        return 2
    if args.rss_probe:
        print(json.dumps(harness.rss_probe(args.workload, args.seed)))
        return 0
    measure = harness.measure_traced if args.trace else harness.measure
    result = measure(args.workload, args.seed, args.seconds)
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(harness.report(result))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
