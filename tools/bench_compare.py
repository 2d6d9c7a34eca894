#!/usr/bin/env python3
"""Compare a freshly emitted BENCH_*.json manifest against its committed
baseline (bench/baselines/) and fail on perf regressions.

Raw queries/sec and ns/iter are machine-specific, so the gate never
compares them across machines directly:

* engine_batch: gates on the machine-relative ratios the bench itself
  computes (speedup_1t, speedup_4t, jt_speedup — current must stay
  within `--tolerance` of the baseline ratio) plus the correctness
  figures (byte_identical, max_abs_err, jt_max_abs_err). The raw cold
  all-marginals figure (qps_allmarg_jt_cold) is reported, never gated,
  and may be absent from baselines older than it.
* microbench: computes the per-benchmark runtime ratio current/baseline,
  takes the median ratio as the machine-speed factor, and flags any
  benchmark whose ratio exceeds the median by more than `--tolerance`
  (a benchmark that got slower *relative to the rest of the suite*).
* analyze: gates on the serial-vs-parallel scanner speedup (a
  machine-relative ratio: current must stay within `--tolerance` of the
  baseline ratio) and on byte_identical — the parallel scanner must
  agree with the serial one byte-for-byte. Raw ms are trajectory
  records, never gated.
* cpt_explosion: gates on loopy BP's correctness figures — BP converged
  on every workload, the certified intervals contain the exact
  posteriors, the point gap stays under an absolute bound — keeps the
  deterministic iteration counts and the grid's certified bound width
  within `--tolerance` of the baseline, and holds the same-machine ratio
  bp_over_ve_16 (BP ms / VE ms on noisy-OR-16) under an absolute
  ceiling (raw ms are trajectory records, never gated).

Exit status: 0 = within band, 1 = regression, 2 = usage/schema error.
See docs/bench_trajectory.md for the manifest schema.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

# engine_batch keys gated as higher-is-better machine-relative ratios.
ENGINE_RATIO_KEYS = ("speedup_1t", "speedup_4t", "jt_speedup")
# engine_batch keys gated as absolute correctness bounds.
ENGINE_ABS_KEYS = {"max_abs_err": 1e-9, "jt_max_abs_err": 1e-9}
# engine_batch keys reported as trajectory records, never gated.
ENGINE_REPORT_KEYS = ("qps_allmarg_jt_cold",)

# cpt_explosion: BP's point estimate must track the exact posterior on
# the feasible (near-tree) workloads within this absolute gap.
CPT_ABS_GAP_BOUND = 0.05
# cpt_explosion keys gated as lower-is-better deterministic figures
# (iteration counts and certified bound width are machine-independent).
CPT_CEILING_KEYS = ("feasible_max_iterations", "grid_iterations",
                    "grid_max_bound_width")
# cpt_explosion: BP's cost relative to exact VE on noisy-OR-16, both
# timed in the same process (a same-machine ratio, so an absolute
# ceiling needs no baseline). The fused message kernel measures ~0.9;
# the per-edge product chain it replaced measured ~39-50. The ROADMAP
# target is reported, not gated.
CPT_BP_OVER_VE_CEILING = 10.0
CPT_BP_OVER_VE_TARGET = 3.0


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def compare_engine_batch(cur: dict, base: dict, tol: float) -> list[str]:
    failures = []
    cr, br = cur.get("results", {}), base.get("results", {})
    for key in ENGINE_RATIO_KEYS:
        if key not in cr or key not in br:
            failures.append(f"results.{key}: missing from manifest")
            continue
        floor = br[key] * (1.0 - tol)
        status = "OK" if cr[key] >= floor else "REGRESSION"
        print(f"  {key:<12} baseline {br[key]:8.2f}  current {cr[key]:8.2f}"
              f"  floor {floor:8.2f}  {status}")
        if cr[key] < floor:
            failures.append(
                f"results.{key}: {cr[key]:.2f} below {floor:.2f} "
                f"(baseline {br[key]:.2f} - {tol:.0%})")
    if cr.get("byte_identical") is not True:
        failures.append("results.byte_identical: pooled results diverged "
                        "from sequential ones")
    for key, bound in ENGINE_ABS_KEYS.items():
        val = cr.get(key)
        if val is None or val > bound:
            failures.append(f"results.{key}: {val} exceeds {bound}")
    for key in ENGINE_REPORT_KEYS:
        print(f"  {key}: baseline {br.get(key, 'absent')}  current "
              f"{cr.get(key, 'absent')} (trajectory record, not gated)")
    return failures


def compare_analyze(cur: dict, base: dict, tol: float) -> list[str]:
    failures = []
    cr, br = cur.get("results", {}), base.get("results", {})
    key = "speedup"
    if key not in cr or key not in br:
        failures.append(f"results.{key}: missing from manifest")
    else:
        floor = br[key] * (1.0 - tol)
        status = "OK" if cr[key] >= floor else "REGRESSION"
        print(f"  {key:<12} baseline {br[key]:8.2f}  current {cr[key]:8.2f}"
              f"  floor {floor:8.2f}  {status}")
        if cr[key] < floor:
            failures.append(
                f"results.{key}: {cr[key]:.2f} below {floor:.2f} "
                f"(baseline {br[key]:.2f} - {tol:.0%})")
    if cr.get("byte_identical") is not True:
        failures.append("results.byte_identical: parallel scanner output "
                        "diverged from the serial run")
    for key in ("ms_jobs1", "ms_jobsN", "files"):
        if key in cr:
            print(f"  {key:<12} {cr[key]} (trajectory record, not gated)")
    return failures


def compare_cpt_explosion(cur: dict, base: dict, tol: float) -> list[str]:
    failures = []
    cr, br = cur.get("results", {}), base.get("results", {})
    for key in ("bp_converged", "grid_converged"):
        if cr.get(key) is not True:
            failures.append(f"results.{key}: loopy BP did not converge")
    if cr.get("feasible_intervals_contain_exact") is not True:
        failures.append("results.feasible_intervals_contain_exact: a "
                        "certified interval missed the exact posterior")
    gap = cr.get("feasible_max_abs_gap")
    if gap is None or gap > CPT_ABS_GAP_BOUND:
        failures.append(f"results.feasible_max_abs_gap: {gap} exceeds "
                        f"{CPT_ABS_GAP_BOUND}")
    else:
        print(f"  feasible_max_abs_gap {gap:.3e} within {CPT_ABS_GAP_BOUND}")
    ratio = cr.get("bp_over_ve_16")
    if ratio is None or ratio > CPT_BP_OVER_VE_CEILING:
        failures.append(f"results.bp_over_ve_16: {ratio} exceeds "
                        f"{CPT_BP_OVER_VE_CEILING}")
    else:
        target = ("meets" if ratio <= CPT_BP_OVER_VE_TARGET
                  else "misses")
        print(f"  bp_over_ve_16 {ratio:.2f} within {CPT_BP_OVER_VE_CEILING}"
              f" ({target} the {CPT_BP_OVER_VE_TARGET} target, not gated)")
    for key in CPT_CEILING_KEYS:
        if key not in cr or key not in br:
            failures.append(f"results.{key}: missing from manifest")
            continue
        ceiling = br[key] * (1.0 + tol)
        status = "OK" if cr[key] <= ceiling else "REGRESSION"
        print(f"  {key:<24} baseline {br[key]:8.3f}  current {cr[key]:8.3f}"
              f"  ceiling {ceiling:8.3f}  {status}")
        if cr[key] > ceiling:
            failures.append(
                f"results.{key}: {cr[key]:.3f} above {ceiling:.3f} "
                f"(baseline {br[key]:.3f} + {tol:.0%})")
    return failures


def compare_microbench(cur: dict, base: dict, tol: float) -> list[str]:
    # A benchmark that ran < 8 iterations on either side has no
    # statistics behind its ns/iter (google-benchmark could not repeat
    # it); report it but never gate on it.
    min_iters = 8
    cur_ns, base_ns = {}, {}
    for manifest, ns in ((cur, cur_ns), (base, base_ns)):
        for r in manifest.get("results", []):
            if r.get("iterations", 0) >= min_iters:
                ns[r["name"]] = r["cpu_ns_per_iter"]
            else:
                print(f"  {r['name']}: only {r.get('iterations', 0)} "
                      f"iteration(s), reported but not gated "
                      f"({r['cpu_ns_per_iter']:.1f} ns)")
    shared = sorted(set(cur_ns) & set(base_ns))
    if not shared:
        return ["microbench: no shared benchmark names with the baseline"]
    # Benchmarks only present on one side are reported, never gated: a
    # new benchmark has no baseline yet, a removed one no current run.
    for name in sorted(set(cur_ns) ^ set(base_ns)):
        side = "baseline" if name in base_ns else "current"
        print(f"  {name}: only in {side} manifest, skipped")
    ratios = {n: cur_ns[n] / base_ns[n] for n in shared if base_ns[n] > 0}
    machine = statistics.median(ratios.values())
    print(f"  machine-speed factor (median current/baseline): {machine:.3f}")
    failures = []
    for name in shared:
        rel = ratios[name] / machine
        status = "OK" if rel <= 1.0 + tol else "REGRESSION"
        print(f"  {name:<34} baseline {base_ns[name]:12.1f} ns"
              f"  current {cur_ns[name]:12.1f} ns  relative {rel:5.2f}  "
              f"{status}")
        if rel > 1.0 + tol:
            failures.append(
                f"{name}: {rel:.2f}x the suite median ratio "
                f"(band {1.0 + tol:.2f}x) — slower relative to the rest "
                f"of the suite")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="freshly emitted BENCH_*.json")
    ap.add_argument("baseline", help="committed baseline BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative regression (default 0.20)")
    args = ap.parse_args()

    cur, base = load(args.current), load(args.baseline)
    for which, m in (("current", cur), ("baseline", base)):
        if "bench" not in m or "results" not in m:
            print(f"bench_compare: {which} manifest lacks bench/results "
                  "(schema in docs/bench_trajectory.md)", file=sys.stderr)
            return 2
    if cur["bench"] != base["bench"]:
        print(f"bench_compare: bench mismatch: current '{cur['bench']}' vs "
              f"baseline '{base['bench']}'", file=sys.stderr)
        return 2

    print(f"bench_compare: {cur['bench']} (tolerance {args.tolerance:.0%})")
    if cur["bench"] == "engine_batch":
        failures = compare_engine_batch(cur, base, args.tolerance)
    elif cur["bench"] == "analyze":
        failures = compare_analyze(cur, base, args.tolerance)
    elif cur["bench"] == "cpt_explosion":
        failures = compare_cpt_explosion(cur, base, args.tolerance)
    elif cur["bench"] == "microbench":
        failures = compare_microbench(cur, base, args.tolerance)
    else:
        print(f"bench_compare: unknown bench '{cur['bench']}'",
              file=sys.stderr)
        return 2

    if failures:
        print(f"\n{len(failures)} regression(s):")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("\nall metrics within band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
