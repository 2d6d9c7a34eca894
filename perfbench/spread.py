#!/usr/bin/env python3
"""Run-to-run spread of the benchmark against its own bounds.

    python3 perfbench/spread.py [--out spread.json]

Runs two sets of 10 untraced runs of every workload at BENCHMARK.json's
run_seconds, interleaved (run i of set A and of set B back to back, the
order alternating with i), set A on seeds 1..10 and set B on seeds
101..110. For every workload and end-to-end metric it prints each set's
median and the distance between its first and third quartiles as a
share of its median, and how much worse set B's median is than set A's,
against the metric's bound in BENCHMARK.json. Every metric, setup_s too,
must stay within its bound on both counts. It also checks that the share
of failed operations is the same in both sets. Run from the repository
root; each run takes about run_seconds plus a few seconds of set-up.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(workload, seed, seconds):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return res


def iqr_share(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="also write every run's result to this JSON file")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                seed = i + 1 if side == "A" else 101 + i
                runs[w][side].append(run_once(w, seed, spec["run_seconds"]))
                print(f"run {i + 1}/{RUNS} {w} set {side} seed {seed}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    ok = True
    print(f"{'workload':15} {'metric':13} {'median A':>12} {'IQR A':>7} {'median B':>12} "
          f"{'IQR B':>7} {'B worse':>8} {'bound':>6}")
    for w in workloads:
        shares = {s: {r["failed"] / r["attempted"] for r in runs[w][s]} for s in "AB"}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            print(f"{w}: failed shares differ: {shares}")
            ok = False
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs[w]["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in runs[w]["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread_ok = max(iqr_share(a), iqr_share(b)) <= m["bound"]
            verdict = "ok" if spread_ok and worse <= m["bound"] else "OVER"
            ok = ok and verdict == "ok"
            print(f"{w:15} {m['name']:13} {ma:12.6g} {iqr_share(a):7.3f} {mb:12.6g} "
                  f"{iqr_share(b):7.3f} {worse:8.3f} {m['bound']:6.2f} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
