#!/usr/bin/env python3
"""Steadiness mode: two interleaved sets of runs of each workload on one build.

Usage (from the repository root):

    python3 simbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                               [--seed0 N] [--out FILE]

Builds the benchmark once, then for run i (seed = seed0 + i) runs every
workload once for set A and once for set B, alternating which set goes
first. For each workload and end-to-end metric it prints the median and
quartiles (statistics.quantiles, n=4) of each set, the spread (Q3 - Q1) /
median of each set, and the difference between the two medians, each as
a share of the bound in BENCHMARK.json. It also compares the share of
failed operations between the sets. Exits 1 if any bound is not held.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("simbench", "Cargo.toml")]
    subprocess.run(cmd, cwd=ROOT, check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("simbench", "target"))
    return os.path.join(ROOT, target, "release", "simbench")


def run(binary, workload, seed, seconds):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    binary = build()

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                r = run(binary, w, args.seed0 + i, args.seconds)
                results[w][s].append(r)
                print(f"run {i} set {s} {w}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}", flush=True)

    ok = True
    report = {}
    for w in workloads:
        report[w] = {}
        for s in ("A", "B"):
            if not all(r["correct"] for r in results[w][s]):
                print(f"{w} set {s}: a run was not correct")
                ok = False
        shares = {s: sum(r["failed"] for r in results[w][s]) / sum(r["attempted"] for r in results[w][s])
                  for s in ("A", "B")}
        if shares["A"] != shares["B"]:
            print(f"{w}: failed share differs: {shares}")
            ok = False
        for name, m in bounds.items():
            sets = {s: summary([r["metrics"][name]["value"] for r in results[w][s]])
                    for s in ("A", "B")}
            a, b = sets["A"]["median"], sets["B"]["median"]
            diff = (b - a) / a if a else 0.0
            worse = diff if m["better"] == "lower" else -diff
            bound = m["bound"]
            spreads_ok = name == "setup_s" or max(sets["A"]["spread"], sets["B"]["spread"]) <= bound
            held = spreads_ok and worse <= bound
            ok &= held
            report[w][name] = {"A": sets["A"], "B": sets["B"], "diff": diff, "bound": bound,
                               "held": held}
            print(f"{w:12} {name:24} A {a:12.4f} [{sets['A']['q1']:.4f}, {sets['A']['q3']:.4f}] "
                  f"spread {sets['A']['spread']:6.3f} | B {b:12.4f} "
                  f"[{sets['B']['q1']:.4f}, {sets['B']['q3']:.4f}] spread {sets['B']['spread']:6.3f}"
                  f" | B-A {diff:+.3f} bound {bound} {'ok' if held else 'NOT HELD'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": results, "summary": report}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
