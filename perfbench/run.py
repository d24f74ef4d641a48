#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark from source (perfbench/CMakeLists.txt, compiling the
optimizer library from src/) into the build directory, then runs one
workload and prints its result as one JSON line.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steady N [--workload NAME] [--seconds S]
                           [--trace 0|1]
  python3 perfbench/run.py --selftest

The binary prints every metric it measured as a bare number; the metric
names, units and the end-to-end/per-layer split come from BENCHMARK.json.
Untraced runs report its end-to-end metrics, each of which must have been
measured and be positive; traced runs report its per-layer metrics, 0 for
a layer the workload never calls.

--steady runs the workload N times with seeds 1..N, or without
--workload every workload interleaved seed by seed, and prints each
metric's median, quartiles and spread (interquartile range / median).
--selftest runs the negative controls of the correctness checks. A run
whose correctness checks fail still prints its result line, then exits 1.

Run from the repository root. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build; scratch files go to .bench_tmp and traces to
.bench_trace, all under the current directory.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the build directory."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return build_dir


def run_once(build_dir, spec, workload, seed, seconds, trace):
    """Runs one workload; returns its result with BENCHMARK.json's units."""
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s exited with %d" %
                         (workload, done.returncode))
    raw = json.loads(lines[-1])
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    correct = raw["correct"]
    known = {m["name"] for m in end_to_end + per_layer}
    for name in sorted(set(raw["metrics"]) - known):
        log("perfbench: CHECK FAILED: metrics: %s is not in BENCHMARK.json" %
            name)
        correct = False
    metrics = {}
    for m in per_layer if trace else end_to_end:
        value = raw["metrics"].get(m["name"], 0.0)
        if not trace and not value > 0.0:
            log("perfbench: CHECK FAILED: metrics: %s was not measured" %
                m["name"])
            correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def steady(build_dir, spec, args):
    """Runs seeds 1..N of one workload, or of every workload interleaved
    seed by seed, and prints each metric's quartiles and spread."""
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in spec["workloads"]])
    values = {w: {} for w in workloads}
    units = {}
    failed_share = {w: set() for w in workloads}
    for seed in range(1, args.steady + 1):
        for w in workloads:
            result = run_once(build_dir, spec, w, seed, args.seconds,
                              args.trace)
            if not result["correct"]:
                raise SystemExit("perfbench: %s seed %d failed its checks" %
                                 (w, seed))
            failed_share[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log("%s seed %d: %s" % (w, seed, json.dumps(
                {k: float("%.5g" % v["value"])
                 for k, v in result["metrics"].items()})))
    for w in workloads:
        print("%s: %d runs, seeds 1..%d, %g s each; failed share %s" %
              (w, args.steady, args.steady, args.seconds,
               sorted(failed_share[w])))
        print("%-26s %-6s %12s %12s %12s %8s" %
              ("metric", "unit", "q1", "median", "q3", "spread"))
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print("%-26s %-6s %12.6g %12.6g %12.6g %8.4f" %
                  (name, units[name], q1, med, q3, spread))


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.steady == 1 or args.steady < 0:
        parser.error("--steady needs at least 2 runs")
    if not args.selftest and not args.steady and args.workload is None:
        parser.error("--workload is required")

    build_dir = build()
    if args.selftest:
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode
    if args.steady:
        steady(build_dir, spec, args)
        return 0
    result = run_once(build_dir, spec, args.workload, args.seed,
                      args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
