#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

  python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]

Runs perfbench/run.py once per seed (seconds from BENCHMARK.json) and
prints, for each metric, the median over the runs and the spread: the
distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound. A spread below a third of the bound is marked ok.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in a.seeds:
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", a.trace],
            capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit("seed %d: exit %d\n%s%s" % (seed, p.returncode, p.stdout, p.stderr))
        result = json.loads(p.stdout.strip().splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print("%-26s median %-14.6g spread %7.4f bound %-5s %-4s [%s]" % (
            name, med, spread, bound if bound is not None else "-", verdict,
            " ".join("%.4g" % v for v in vs)))


if __name__ == "__main__":
    main()
