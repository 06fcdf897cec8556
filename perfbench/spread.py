#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs one workload once per
seed and prints, for each metric, the median, the quartiles and the
interquartile range as a share of the median, against the metric's bound in
BENCHMARK.json. A steady benchmark keeps every spread below a third of its
bound.

    python3 perfbench/spread.py --workload carto_slip_race --seconds 25 --seeds 1 2 3 4 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--seeds", required=True, nargs="+")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", seed, "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()), flush=True)

    if len(args.seeds) < 2:
        return 0
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>7}")
    for name, xs in values.items():
        q1, q3 = stats.quartiles(xs)
        spread = stats.spread(xs)
        steady = "" if spread < bounds[name] / 3 else "  > bound/3"
        print(f"{name:<18}{statistics.median(xs):>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.3f}{bounds[name]:>7}{steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
