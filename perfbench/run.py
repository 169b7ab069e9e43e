#!/usr/bin/env python3
"""Build and run the lightnet benchmark (see BENCHMARK.json).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

The first form builds perfbench/perfbench.exe from this checkout's
sources with dune and runs one workload; the last line of its standard
output is the JSON result. --smoke runs every workload at smoke size,
untraced and traced, and checks that each declared metric is printed
with its unit, finite, and that nothing failed.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: dune-project or lib/ missing; run from the repository root")
    # dune reports progress and errors on stderr; keep stdout for the
    # result. No shared cache: the build writes only under _build.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
           "./perfbench/perfbench.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "bench", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run(args, capture=False):
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    try:
        return subprocess.run([EXE] + args, env=env, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = "%s trace=%s" % (w["name"], trace)
            p = run(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                     "--trace", trace, "--smoke"], capture=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (label, p.returncode, p.stderr))
                continue
            result = json.loads(lines[-1])
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared}
            if set(got) != set(want):
                problems.append("%s: metrics differ: missing %s, extra %s" % (
                    label, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
            for name, m in got.items():
                if name in want and m["unit"] != want[name]:
                    problems.append("%s: %s unit %r, declared %r" % (label, name, m["unit"], want[name]))
                if not math.isfinite(m["value"]):
                    problems.append("%s: %s is not finite" % (label, name))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d failed=%d" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            if trace == "1" and got.get("failed_frac", {}).get("value") != 0:
                problems.append("%s: failed_frac is not 0" % label)
            print("smoke %-26s %3d metrics, attempted %d" % (label, len(got), result["attempted"]))
    for p in problems:
        print("SMOKE FAILURE: " + p)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--smoke"]:
        sys.exit(smoke())
    sys.exit(run(args).returncode)


if __name__ == "__main__":
    main()
