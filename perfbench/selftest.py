#!/usr/bin/env python3
"""Negative control for the benchmark.

Runs RUNS pairs per workload: the workload as it is, and with a 25%
slowdown injected around the detailed-simulation calls of the first
workload (benchmark side: --inject-slowdown), one right after the other on
the same seed, alternating which side runs first. An end-to-end metric is
flagged when the median over pairs of how much worse the second side is,
as a share of the first, exceeds its bound in BENCHMARK.json; pairing
keeps the host's slow drift in speed out of the comparison. The control
passes when sim_mips is flagged on the injected workload and on no other.
It then runs the injected workload once with --inject-verify-failure,
which must report failed operations.

Usage, from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Same-seed pairs per workload.
RUNS = 3


def run(workload, seed, seconds, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def worse_by(metric, base, cand):
    """Median over pairs of how much worse the candidate is, as a share
    of its paired baseline."""
    lower = metric["better"] == "lower"
    return statistics.median((c - b) / b if lower else (b - c) / b for b, c in zip(base, cand))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    target = names[0]
    flagged = []
    for wi, name in enumerate(names):
        inject = ["--inject-slowdown"] if name == target else []
        base, cand = [], []
        for i in range(RUNS):
            seed = 9000 + 100 * wi + i
            sides = [(base, []), (cand, inject)]
            if i % 2:
                sides.reverse()
            for results, extra in sides:
                results.append(run(name, seed, seconds, extra))
        for m in bench["end_to_end"]:
            values = lambda rs: [r["metrics"][m["name"]]["value"] for r in rs]
            share = worse_by(m, values(base), values(cand))
            flag = share > m["bound"]
            if flag:
                flagged.append((name, m["name"]))
            print(f"{name:13} {m['name']:18} worse by {share:+.3f}  bound {m['bound']:.2f}"
                  f"{'  FLAGGED' if flag else ''}", flush=True)

    sim_flags = sorted(w for w, m in flagged if m == "sim_mips")
    slowdown_ok = sim_flags == [target]
    print(f"sim_mips flagged on {sim_flags}; expected {[target]}:"
          f" {'PASS' if slowdown_ok else 'FAIL'}")

    broken = run(target, 9999, min(seconds, 5), ["--inject-verify-failure"])
    failure_ok = broken["failed"] > 0 and not broken["correct"]
    print(f"injected verification failure: failed {broken['failed']} of {broken['attempted']},"
          f" correct={broken['correct']}: {'PASS' if failure_ok else 'FAIL'}")
    return 0 if slowdown_ok and failure_ok else 1


if __name__ == "__main__":
    sys.exit(main())
