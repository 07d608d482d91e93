#!/usr/bin/env python3
"""Steadiness check for the benchmark: two sets of runs, compared metric by metric.

Run from the root of the repository:

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload W ...] [--base REV]

It makes two sets of runs of each workload, alternating between the sets run
by run, with seeds 1..runs in both sets. Without --base both sets run the code
of this checkout: the check shows that identical code measures the same. With
--base REV the second set runs revision REV instead, checked out into a
temporary git worktree under .bench_build/ with this checkout's benchmark
copied in, so both sides run identical benchmark code.

For every end-to-end metric it prints each set's median and quartiles (as
Python's statistics.quantiles(values, n=4) gives them), the spread
(interquartile distance over the median) against a third of the metric's
bound, and whether the second median is within the bound of the first. It also
checks that both sets fail the same share of operations and, without --base,
that each seed prints the same outcome hash in both sets. The exit code is 1
when any check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time


def run_once(cwd, workload, seed, seconds):
    """Runs the benchmark once; returns (result, outcome hash, wall seconds)."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t = time.time()
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    wall = time.time() - t
    if p.returncode != 0:
        sys.exit("run failed in %s: %s\n%s" % (cwd, " ".join(cmd), p.stderr[-2000:]))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    outcome = ""
    for line in p.stderr.splitlines():
        if " outcome " in line and line.startswith(workload + ":"):
            outcome = line.rsplit(" ", 1)[-1]
    return result, outcome, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def make_base(root, rev):
    """Checks rev out into a worktree with this checkout's benchmark copied in."""
    path = os.path.join(root, ".bench_build", "base-" + rev.replace("/", "_"))
    if os.path.exists(path):
        subprocess.run(["git", "worktree", "remove", "--force", path], cwd=root, check=False)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    subprocess.run(["git", "worktree", "add", "--detach", path, rev], cwd=root, check=True,
                   capture_output=True)
    shutil.rmtree(os.path.join(path, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(root, "perfbench"), os.path.join(path, "perfbench"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), path)
    return path


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", help="workload (default: all)")
    ap.add_argument("--base", help="revision to run as the second set")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    cwds = [root, root]
    if args.base:
        cwds[1] = make_base(root, args.base)
    labels = ["head", args.base or "head"]

    ok = True
    try:
        for w in workloads:
            sets = [[], []]
            for seed in range(1, args.runs + 1):
                # Alternate which set goes first, so drift hits both alike.
                order = (0, 1) if seed % 2 else (1, 0)
                for s in order:
                    res, outcome, wall = run_once(cwds[s], w, seed, args.seconds)
                    sets[s].append((seed, res, outcome))
                    print("%-13s set %d seed %2d: %5.1fs wall, %s" % (
                        w, s + 1, seed, wall,
                        " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
                        flush=True)
            print("\n%s: %s (set 1) vs %s (set 2), %d runs each" % (w, labels[0], labels[1], args.runs))
            print("%-18s %-34s %-34s %8s %8s %s" % ("metric", "set 1 median [q1, q3]",
                                                     "set 2 median [q1, q3]", "spread", "bound", "verdict"))
            for m in bench["end_to_end"]:
                vals = [[r["metrics"][m["name"]]["value"] for _, r, _ in sets[s]] for s in (0, 1)]
                qs = [quartiles(v) for v in vals]
                spreads = [(q[2] - q[0]) / q[1] for q in qs]
                change = (qs[1][1] - qs[0][1]) / qs[0][1]
                if m["better"] == "higher":
                    change = -change
                verdicts = []
                if m["name"] != "setup_s" and max(spreads) >= m["bound"] / 3:
                    verdicts.append("SPREAD")
                if abs(change) > m["bound"]:
                    verdicts.append("DIFFER")
                if not args.base and verdicts:
                    ok = False
                print("%-18s %-34s %-34s %7.2f%% %7.1f%% %s" % (
                    m["name"],
                    "%.6g [%.6g, %.6g]" % (qs[0][1], qs[0][0], qs[0][2]),
                    "%.6g [%.6g, %.6g]" % (qs[1][1], qs[1][0], qs[1][2]),
                    100 * max(spreads), 100 * m["bound"],
                    " ".join(verdicts) or "agree (%+.2f%%)" % (100 * change)))
            shares = []
            for s in (0, 1):
                att = sum(r["attempted"] for _, r, _ in sets[s])
                fail = sum(r["failed"] for _, r, _ in sets[s])
                shares.append((fail, att))
            print("failed operations: set 1 %d of %d, set 2 %d of %d" % (
                shares[0][0], shares[0][1], shares[1][0], shares[1][1]))
            if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
                ok = False
                print("FAILED SHARES DIFFER")
            if not all(r["correct"] for s in (0, 1) for _, r, _ in sets[s]):
                ok = False
                print("A RUN REPORTED correct=false")
            if not args.base:
                mismatch = [seed for (seed, _, a), (_, _, b) in zip(sets[0], sets[1]) if a != b]
                print("outcome hashes: %s" % ("identical per seed" if not mismatch
                                              else "DIFFER for seeds %s" % mismatch))
                ok = ok and not mismatch
            print(flush=True)
    finally:
        if args.base:
            subprocess.run(["git", "worktree", "remove", "--force", cwds[1]], cwd=root, check=False)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
