#!/usr/bin/env python3
"""The sysuq benchmark: one command for all four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a sysuq checkout. It builds what it needs from
source into .bench_build/ (the library and the analyzer at the
repository's default build type, then the engine harness in
perfbench/), generates the workload's inputs from --seed, serves them
for about --seconds, checks every output against a computation made
apart from the program, and prints one JSON object as the last line of
its standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and the spans go to
.bench_build/traces/<workload>-seed<N>.json. Metrics a workload does not
exercise read 0 in the traced mode. See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
ENGINE_WORKLOADS = ("ve_batch", "jt_marginals", "bp_diagnosis")
# One analyzer invocation over the corpus takes ~0.25 s today.
ANALYZE_ROUND_S = 0.25
# Three of the analyzer's passes ignore --only: pass_layering,
# pass_legacy (float-eq, rng-discipline, magic-epsilon, include-hygiene,
# obs-naming) and pass_obscontext. They run in every invocation, so an
# invocation restricted to one of their rules costs the lexer, the model
# and those three passes, and nothing else. Only the other eight rules
# can be timed one by one.
ALWAYS_RULE = "include-hygiene"
GATED_RULES = ("contract-coverage", "lock-discipline", "validate-before-mutate",
               "arena-escape", "lock-order", "log-domain", "thread-escape",
               "guard-consistency")
# setup_s is the median of this many cold set-ups, each in a fresh process.
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
sys.path.insert(0, HERE)
import corpus  # noqa: E402


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the repository root (never src/ alone: its
    CMakeLists resolves includes through ${CMAKE_SOURCE_DIR}/src), then
    the harness against it. Returns (engine binary, analyzer binary)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bayesnet", "engine.hpp")):
        fail("run from the root of a sysuq checkout (src/ not found)")
    os.makedirs(BUILD, exist_ok=True)
    lib = os.path.join(BUILD, "sysuq")
    harness = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(lib, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", lib])
    steps.append(["cmake", "--build", lib, "-j", "4", "--target", "sysuq_bayesnet",
                  "sysuq_analyze"])
    if not os.path.isfile(os.path.join(harness, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", harness, f"-DSYSUQ_SOURCE_DIR={ROOT}",
                      f"-DSYSUQ_BUILD_DIR={lib}"])
    steps.append(["cmake", "--build", harness, "-j", "4"])
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail(f"build step failed: {' '.join(cmd)} (see .bench_build/build.log)")
    return (os.path.join(harness, "perfbench_engine"),
            os.path.join(lib, "tools", "sysuq_analyze"))


class Tracer:
    """Spans around the workload's calls, kept in memory until the end."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [name, start ns, end ns, parent id, request id]
        self.stack = []
        self.request = -1
        self.origin = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns() - self.origin, 0,
                           self.stack[-1] if self.stack else -1, self.request])
        self.stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid][2] = time.perf_counter_ns() - self.origin
            self.stack.pop()

    def write(self, path):
        events = [{"name": n, "ph": "X", "pid": 1, "tid": 1, "ts": s / 1000.0,
                   "dur": (e - s) / 1000.0, "args": {"id": i, "parent": p, "request": r}}
                  for i, (n, s, e, p, r) in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)


def rounds_for(seconds, nominal, at_least):
    return max(at_least, round(seconds / nominal))


def run_engine(engine, args, work):
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    gen = subprocess.run([engine, "gen"] + common, timeout=CHILD_TIMEOUT_S)
    if gen.returncode != 0:
        fail("input generation failed")
    setups = []
    if not args.trace:
        # Each set-up runs on the next CPU in turn, as the rounds do (see
        # run_rounds in engine/main.cpp): the CPUs drift in speed apart.
        cpus = sorted(os.sched_getaffinity(0))
        for i in range(SETUP_REPEATS):
            p = subprocess.run([engine, "setup"] + common, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S,
                               preexec_fn=lambda c=cpus[i % len(cpus)]:
                               os.sched_setaffinity(0, {c}))
            if p.returncode != 0:
                fail(f"{args.workload} set-up exited with {p.returncode}")
            setups.append(json.loads(p.stdout.strip().splitlines()[-1])
                          ["metrics"]["setup_s"]["value"])
    p = subprocess.run([engine, "run"] + common + ["--seconds", str(args.seconds),
                                                    "--trace", str(args.trace)],
                       stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {p.returncode}")
    res = json.loads(lines[-1])
    if args.trace:
        shutil.copy(os.path.join(work, "trace.json"), trace_path(args))
    else:
        res["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return res


def trace_path(args):
    d = os.path.join(BUILD, "traces")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, f"{args.workload}-seed{args.seed}.json")


def invoke(engine, cmd, cwd):
    """Runs one analyzer invocation under the harness's `spawn` timer;
    returns (seconds, exit code, peak RSS in KiB of that child)."""
    p = subprocess.run([engine, "spawn"] + cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        fail("cannot run the analyzer")
    secs, code, kib = p.stdout.split()
    return float(secs), int(code), int(kib)


def sarif_findings(path):
    with open(path) as f:
        results = json.load(f)["runs"][0]["results"]
    return {(r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
             r["locations"][0]["physicalLocation"]["region"]["startLine"], r["ruleId"])
            for r in results}


def run_analyze(engine, analyzer, args, work):
    """analyze_corpus: repeated `sysuq_analyze --jobs 2 --sarif` over a
    generated corpus with planted violations."""
    files, planted = corpus.generate(args.seed, os.path.join(work, "corpus"))
    tr = Tracer(args.trace)
    full = [analyzer, "--jobs", "2", "--sarif"]
    res = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    why = []
    peak_kib = 0

    def full_run(tag):
        nonlocal peak_kib
        sarif = f"{tag}.sarif"
        with tr.span("sysuq_analyze"):
            secs, rc, kib = invoke(engine, full + [sarif, "corpus"], work)
        peak_kib = max(peak_kib, kib)
        return secs, rc, os.path.join(work, sarif)

    # Set-up: the first invocations over the fresh corpus. Nothing carries
    # over between invocations, so each is a cold one; setup_s is the
    # median of SETUP_REPEATS of them.
    setups = []
    for i in range(SETUP_REPEATS):
        with tr.span("setup"):
            s, rc, sarif = full_run(f"setup{i}")
        if rc != 1:
            fail(f"sysuq_analyze exited with {rc} on the corpus (expected 1: violations)")
        setups.append(s)
        with open(sarif, "rb") as f:
            if i == 0:
                first_bytes = f.read()
            elif f.read() != first_bytes:
                why.append("two invocations gave different SARIF")
    found = sarif_findings(os.path.join(work, "setup0.sarif"))
    if found != set(planted):
        why.append(f"planted violations not reported: {sorted(set(planted) - found)[:3]}; "
                   f"unplanted findings: {sorted(found - set(planted))[:3]}")

    secs, traced, untraced = [], [], []
    for r in range(rounds_for(args.seconds, ANALYZE_ROUND_S, 4 if args.trace else 3)):
        tr.enabled = bool(args.trace) and r % 2 == 0
        tr.request = r
        s, rc, sarif = full_run("round")
        res["attempted"] += files
        if rc != 1:
            res["failed"] += files
            continue
        with open(sarif, "rb") as f:
            if f.read() != first_bytes:
                why.append("two invocations gave different SARIF")
        secs.append(s)
        (traced if tr.enabled else untraced).append(s)
    tr.enabled = bool(args.trace)
    tr.request = -1

    if why:
        res["correct"] = False
        print("check failed: " + "; ".join(why[:3]), file=sys.stderr)
    m = res["metrics"]
    if not args.trace:
        m["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        m["throughput"] = {"value": statistics.median(files / s for s in secs), "unit": "ops/s"}
        m["peak_rss_mib"] = {"value": peak_kib / 1024.0, "unit": "MiB"}
        return res

    m["trace.overhead_pct"] = {
        "value": (statistics.median(traced) / statistics.median(untraced) - 1) * 100,
        "unit": "%"}

    def timed(span, only):
        cmd = [analyzer, "--jobs", "2"] + (["--only", only] if only else []) + ["corpus"]
        with tr.span(span):
            return invoke(engine, cmd, work)[0]

    # Each pass figure is the median over three pairs of back-to-back
    # invocations, one restricted to ALWAYS_RULE (the front) and one
    # running the pass(es), of their difference: a slow phase of the
    # machine then falls on both halves of a pair.
    fronts, diffs = [], {}
    targets = [("analyze.passes_s", "analyze.passes", None)] + [
        (f"analyze.rule.{r}_s", "analyze.rule", r) for r in GATED_RULES]
    for _ in range(3):
        for name, span, only in targets:
            front = timed("analyze.front", ALWAYS_RULE)
            fronts.append(front)
            diffs.setdefault(name, []).append(timed(span, only) - front)
    m["analyze.front_s"] = {"value": statistics.median(fronts), "unit": "s"}
    for name, d in diffs.items():
        m[name] = {"value": statistics.median(d), "unit": "s"}
    tr.write(trace_path(args))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("run from the repository root (BENCHMARK.json not found)")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    engine, analyzer = build()
    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload in ENGINE_WORKLOADS:
            res = run_engine(engine, args, work)
        else:
            res = run_analyze(engine, analyzer, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report {m['name']}")
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised here
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
