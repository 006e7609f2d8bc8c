"""Benchmark entry point.

    python3 perfbench/run.py --workload pinv-deficient --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
measured over whole rounds that take about ``--seconds`` of calibrated time.
``--trace 1`` prints the per-layer metrics of a traced run over round 0.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record-digests N`` instead records the output
digests of the default seed's first N rounds of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="pinv-deficient")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, metavar="ROUNDS")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adjinv" / "__init__.py").is_file():
        print(f"error: no adjinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    # One CPU for the benchmark and the processes it starts: a shared host's
    # CPUs run at different speeds from moment to moment, and the calibration
    # kernel must sample the CPU the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.record_digests:
        bench.record_digests(args.record_digests)
        return 0
    if args.trace:
        result = bench.run_traced(args.workload, args.seed)
    else:
        result = bench.run_untraced(args.workload, args.seed, args.seconds)
    for note in result.pop("notes"):
        print(f"# {note}")
    for failure in result.pop("failures"):
        print(f"# FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
