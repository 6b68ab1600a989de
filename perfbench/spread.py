"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 10 \
        [--workloads kostant,analyze,orbit-sections] [--trace 0]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance between
the quartiles as a share of the median.  Workloads alternate within each
seed, so slow drift of the machine spreads over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="10")
    p.add_argument("--workloads", default="kostant,analyze,orbit-sections")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    shares = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=False)
            lines = res.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print("%s seed %d exit %d without a result:\n%s"
                      % (w, seed, res.returncode, res.stderr[-2000:]))
                continue
            last = json.loads(lines[-1])
            print("%s seed %d exit %d correct %s failed %d/%d" % (
                w, seed, res.returncode, last["correct"], last["failed"],
                last["attempted"]), flush=True)
            shares[w].append(last["failed"] / last["attempted"])
            for k, m in last["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
    for w in workloads:
        print("\n%s (failed share %s)" % (w, sorted(set(shares[w]))))
        for k, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print("  %-38s median %12.4f  q1 %12.4f  q3 %12.4f  iqr/med %s"
                  % (k, med, q1, q3,
                     "%.4f" % ((q3 - q1) / med) if med else "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
