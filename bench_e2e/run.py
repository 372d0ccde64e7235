#!/usr/bin/env python3
"""Build and run the Iso-Map end-to-end benchmark, and compare recorded runs.

Run from the repository root:

  python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench_e2e/run.py --smoke
  python3 bench_e2e/run.py --record runs.json [--seed N] [--seconds S]
                           [--workload NAME ...]
  python3 bench_e2e/run.py --compare A.json B.json
  python3 bench_e2e/run.py --write-trace FILE [--seed N] [--seconds S]

The first call configures and builds bench_e2e/ (the simulator libraries
from src/ plus the benchmark binary) under $CARGO_TARGET_DIR, default
.bench_build. Build output goes to stderr, so the last line of stdout is
the binary's result object. --record appends one untraced run of each
workload to a JSON list; --compare prints each end-to-end metric's median
and quartiles per workload for two such files and judges the second
against the first with the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench_e2e")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def fail(message, code=2):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "bench_e2e")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/ (run from a full checkout)")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "isomap_e2e",
                  "--parallel", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "isomap_e2e")


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def binary_args(workload, seed, seconds, trace, trace_out=None):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--git-rev", git_rev()]
    if trace:
        if trace_out is None:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            trace_out = os.path.join(traces, f"{workload}_seed{seed}.json")
        args += ["--trace-out", trace_out]
    return args


def run_captured(binary, args):
    """Run the binary, echo its stdout to stderr, return its context line
    and result object."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"benchmark run {' '.join(args)} exited {proc.returncode}", 1)
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def load_manifest():
    with open(MANIFEST) as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(metric, base, change, deterministic):
    """ok / worse / unresolved for one metric on one workload; base and
    change map each seed to its value."""
    if base.keys() != change.keys():
        return "unresolved"
    if metric["name"] in deterministic:
        same = all(base[s] == change[s] for s in base)
        return "ok" if same else "worse"
    bound = metric["bound"]
    a, b = list(base.values()), list(change.values())
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    lower = metric["better"] == "lower"
    worse_by = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    spread = (q3 - q1) / med_a
    if spread > bound:
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "ok" if all_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(path_a, path_b):
    manifest = load_manifest()
    sides = []
    for path in (path_a, path_b):
        with open(path) as f:
            sides.append(json.load(f))

    def values(runs, workload, metric):
        return {r["seed"]: r["result"]["metrics"][metric]["value"]
                for r in runs if r["workload"] == workload}

    # The benchmark binary names its deterministic metrics in every run's
    # context; both sides must agree on them.
    declared = {tuple(r["context"]["deterministic"])
                for side in sides for r in side}
    if len(declared) != 1:
        fail("the runs disagree on which metrics are deterministic")
    deterministic = set(declared.pop())

    verdicts = []
    print(f"{'workload':<15} {'metric':<16} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'B vs A':>8}  verdict")
    for w in manifest["workloads"]:
        for metric in manifest["end_to_end"]:
            a = values(sides[0], w["name"], metric["name"])
            b = values(sides[1], w["name"], metric["name"])
            if not a or not b:
                print(f"{w['name']:<15} {metric['name']:<16} missing runs")
                verdicts.append("unresolved")
                continue
            verdict = judge(metric, a, b, deterministic)
            verdicts.append(verdict)
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            change = (qb[1] - qa[1]) / qa[1] * 100.0
            cell = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{w['name']:<15} {metric['name']:<16} {cell(qa):>32} "
                  f"{cell(qb):>32} {change:>+7.2f}%  {verdict}")
    bad = sum(v != "ok" for v in verdicts)
    print(f"{len(verdicts) - bad}/{len(verdicts)} ok")
    return 0 if bad == 0 else 1


def record(path, workloads, seed, seconds):
    binary = build()
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)
    for w in workloads:
        print(f"[record] {w} seed {seed}", file=sys.stderr)
        context, result = run_captured(binary,
                                       binary_args(w, seed, seconds, 0))
        runs.append({"workload": w, "seed": seed, "context": context,
                     "result": result})
        with open(path, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


def write_trace(path, workloads, seed, seconds):
    """One traced run of each workload, merged into one committed file."""
    binary = build()
    merged = {}
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    for w in workloads:
        out = os.path.join(traces, f"{w}_seed{seed}.json")
        run_captured(binary, binary_args(w, seed, seconds, 1, out))
        with open(out) as f:
            merged[w] = json.load(f)
    with open(path, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--write-trace")
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return subprocess.call([build(), "--smoke", "--manifest", MANIFEST])
    all_workloads = [w["name"] for w in load_manifest()["workloads"]]
    chosen = args.workload or all_workloads
    if args.record:
        return record(args.record, chosen, args.seed, args.seconds)
    if args.write_trace:
        return write_trace(args.write_trace, chosen, args.seed, args.seconds)
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload (or --smoke/--record/--compare)")
    binary = build()
    return subprocess.call([binary] + binary_args(
        args.workload[0], args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    sys.exit(main())
