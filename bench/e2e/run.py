#!/usr/bin/env python3
"""Entry point of the cb_e2e benchmark: builds cb_e2e from source, then runs it.

Run from the repository root:

  python3 bench/e2e/run.py --workload local_cold --seed 1 --seconds 10 --trace 0
  python3 bench/e2e/run.py --workload all --out set.json      # a full set
  python3 bench/e2e/run.py compare base.json new.json         # apply the bounds

The build lives in .bench_build/e2e. With --trace 1 the Chrome trace of a run
is written to .bench_build/e2e/traces/. The last line of standard output of a
single run is one JSON object: correct, attempted, failed and the metrics.
compare needs no build.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
EXE = os.path.join(BUILD, "cb_e2e")
WORKLOADS = ["local_cold", "serve_warm", "lint_corpus", "from_log", "multilocale",
             "analysis_cold"]
RUN_TIMEOUT_S = 175
# A bounded metric with fewer runs than this on either side has no known
# spread, so compare cannot judge it.
MIN_RUNS = 3


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: ChapelBlame sources not found at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "cb_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: %s" % " ".join(step), file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace, out):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    if out:
        cmd += ["--out", out]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1


def full_set(args):
    """Every workload, --repeat seeds each, merged into one result file."""
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    merged, code = None, 0
    for workload in WORKLOADS:
        for seed in range(args.seed, args.seed + args.repeat):
            part = os.path.join(results, "%s-seed%d.json" % (workload, seed))
            if os.path.isfile(part):
                os.remove(part)  # never merge a stale result of a run that crashed
            code |= run_one(workload, seed, args.seconds, args.trace, part)
            if not os.path.isfile(part):
                continue
            with open(part) as f:
                doc = json.load(f)
            if merged is None:
                merged = doc
            else:
                merged["runs"] += doc["runs"]
    if args.out and merged is not None:
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=1)
            f.write("\n")
    print("full set: %s" % ("all runs correct" if code == 0 else "FAILED"))
    return code


def spread(values):
    """Quartile distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def load_side(path):
    """workload -> metric -> values over runs; (workload, seed) -> counts; failed runs."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    values, counts, failed = {}, {}, []
    for run in runs:
        workload = run["workload"]
        for group in ("metrics", "layers"):
            for name, m in run.get(group, {}).items():
                values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
        seen = counts.setdefault((workload, run["seed"]), {})
        for name, v in run.get("counts", {}).items():
            # Runs of the same seed must agree among themselves too.
            seen[name] = v if seen.get(name, v) == v else math.nan
        if run["failed"] > 0 or not run["correct"]:
            failed.append(run)
    return values, counts, failed


def compare(argv):
    """One row per (metric, workload) with the bounds of BENCHMARK.json.

    Exits 1 on a regression, a failed or incorrect NEW run, or an undeclared
    count change; 2 on bad input.
    """
    parser = argparse.ArgumentParser(prog="run.py compare", description=compare.__doc__)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--declare", action="append", default=[], metavar="NAME",
                        help="a count that may change")
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        metrics = bench["end_to_end"] + bench["per_layer"]
        base, new = load_side(args.base), load_side(args.new)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print("run.py compare: cannot read input: %r" % e, file=sys.stderr)
        return 2

    regressions = unresolved = changed = 0
    print("%-28s %-14s %14s %14s %8s %6s %7s  %s" % (
        "metric", "workload", "base", "new", "change", "bound", "spread", "verdict"))
    for m in metrics:
        lower = m["better"] == "lower"
        bound = m.get("bound")
        for workload, bmetrics in sorted(base[0].items()):
            bv = bmetrics.get(m["name"])
            nv = new[0].get(workload, {}).get(m["name"])
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / abs(bm) if bm else 0.0
            worse = change if lower else -change
            enough = len(bv) >= MIN_RUNS and len(nv) >= MIN_RUNS
            wide = max(spread(bv), spread(nv)) if enough else None
            if bound is None:
                verdict = "-"
            elif not enough:
                verdict = "unresolved (too few runs)"
            elif (max(nv) < min(bv)) if lower else (min(nv) > max(bv)):
                verdict = "better"
            elif wide > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            regressions += verdict == "REGRESSION"
            unresolved += verdict.startswith("unresolved")
            print("%-28s %-14s %14.6g %14.6g %+7.1f%% %6s %7s  %s" % (
                m["name"], workload, bm, nm, change * 100,
                "-" if bound is None else "%.0f%%" % (bound * 100),
                "-" if wide is None else "%.1f%%" % (wide * 100), verdict))

    for run in new[2]:
        regressions += 1
        print("%-28s %-14s seed %d: %d/%d jobs failed, correct=%s  REGRESSION" % (
            "failed run", run["workload"], run["seed"], run["failed"], run["attempted"],
            str(run["correct"]).lower()))

    for key, bc in sorted(base[1].items()):
        nc = new[1].get(key, {})
        for name, v in sorted(bc.items()):
            if name not in nc or nc[name] == v:
                continue
            ok = name in args.declare
            changed += not ok
            print("count %-30s %-14s seed %d: %r -> %r  %s" % (
                name, key[0], key[1], v, nc[name], "declared" if ok else "CHANGED"))
    print("%d regression(s), %d unresolved, %d undeclared count change(s)" % (
        regressions, unresolved, changed))
    return 1 if regressions or changed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="result file (JSON) to write")
    parser.add_argument("--repeat", type=int, default=MIN_RUNS,
                        help="seeds per workload with 'all' (default %d, the fewest "
                             "compare can judge)" % MIN_RUNS)
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error("unknown workload %r" % args.workload)
    if args.seconds is None:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        except (OSError, ValueError, KeyError):
            args.seconds = 10
    if not build():
        return 1
    if args.workload == "all":
        return full_set(args)
    return run_one(args.workload, args.seed, args.seconds, args.trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
