#!/usr/bin/env python3
"""Builds the prc benchmark from source and runs one workload.

    python3 perfbench/run.py --workload market_warm --seed 1 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; the library is compiled from ./src.  The last
line of standard output is the run's JSON result; everything above it is
the human-readable report.

Other modes:
  --self-test              build and run the statistics tests (stats_test.cc)
  --check-determinism      run every workload twice at a fixed operation
                           count and require identical layer counters, then
                           once at a second seed; all output checks must pass
  --spread N               run one workload at N seeds and print, per metric,
                           the median and the interquartile range as a share
                           of the median
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("collect_stream", "market_warm", "market_durable")
# A run of the benchmark binary must end well inside the 180 s a run gets.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Fixed operation counts for the determinism check: one collect pass, and
# one market_durable pass.
DETERMINISM_OPS = {"collect_stream": 100, "market_warm": 2000,
                   "market_durable": 10000}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    try:
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", out, "--target", target,
                        "-j", "4"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    return os.path.join(out, target)


def declared_metrics():
    """Metric names BENCHMARK.json declares, by kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def run_binary(binary, workload, seed, seconds, trace, ops=0, echo=True):
    """Runs one workload; returns the parsed result line."""
    scratch = os.path.join(os.path.dirname(build_dir()), "tmp")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch-dir", scratch]
    if ops:
        cmd += ["--ops", str(ops)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    end_to_end, per_layer = declared_metrics()
    expected = per_layer if trace else end_to_end
    if set(result["metrics"]) != expected:
        sys.exit("perfbench: printed metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ expected)}")
    return result


def check_determinism(binary):
    ok = True
    for workload in WORKLOADS:
        ops = DETERMINISM_OPS[workload]
        runs = [run_binary(binary, workload, 1, 60, 1, ops, echo=False)
                for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r in runs]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        other = run_binary(binary, workload, 2, 60, 1, ops, echo=False)
        correct = all(r["correct"] for r in runs) and other["correct"]
        print(f"{workload}: {len(counts[0])} counters over {ops} operations, "
              f"{'identical' if not differ else 'differ: ' + str(differ)}; "
              f"output checks at seeds 1 and 2 "
              f"{'pass' if correct else 'FAIL'}")
        ok = ok and not differ and correct
    return ok


def spread(binary, workload, seeds, seconds, trace):
    values = {}
    for seed in range(1, seeds + 1):
        result = run_binary(binary, workload, seed, seconds, trace,
                            echo=False)
        if not result["correct"]:
            print(f"seed {seed}: incorrect run")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} median {med:<14.6g} iqr/median {share:.4f}  "
              + " ".join(f"{v:.6g}" for v in vals))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N", default=0)
    args = parser.parse_args()

    if args.self_test:
        test = build("perfbench_stats_test")
        sys.exit(subprocess.run([test], timeout=RUN_TIMEOUT_S).returncode)
    binary = build("prc_perfbench")
    if args.check_determinism:
        sys.exit(0 if check_determinism(binary) else 1)
    if not args.workload:
        parser.error("--workload is required")
    if args.spread:
        spread(binary, args.workload, args.spread, args.seconds, args.trace)
        return
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
