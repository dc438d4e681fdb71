#!/usr/bin/env python3
"""Benchmark-regression gate over bench telemetry snapshots.

Every experiment binary writes a TelemetrySnapshot JSON on exit (see
bench_common.h); since the parallel layer landed, the snapshot carries
`bench.wall_clock_us` and `bench.threads` gauges next to the pipeline
counters.  This script turns a set of those snapshots into a committed
baseline (BENCH_<pr>.json) and gates future runs against it:

  collect  — build a baseline from snapshot files:
               bench_compare.py collect --out BENCH_16.json \\
                   build/bench/*.telemetry.json
  compare  — gate snapshots against a baseline:
               bench_compare.py compare --baseline BENCH_16.json \\
                   build/bench/*.telemetry.json

Two kinds of checks, deliberately different in strictness:

* Counters are the EXACT contract.  Runs are deterministic in the seed
  for every thread count, so any counter drift against the baseline is a
  behavior change (or a determinism regression), not noise.  Compared
  bit-for-bit; any mismatch fails.
* Wall clock is the PERFORMANCE contract.  `compare` fails when a
  benchmark runs more than --max-regression (default 0.15 = 15%) slower
  than its baseline.  Because absolute times only mean something on the
  machine that recorded the baseline, pass --time-informational when
  comparing against a baseline recorded elsewhere (e.g. the committed
  BENCH_16.json on a CI runner): timing is then reported but not gated,
  while the counter gate stays hard.  CI gets a real timing gate by
  collecting a fresh same-machine baseline at the start of the job and
  comparing a second run against it.

Exit status: 0 when every gate passes, 1 otherwise.
"""

import argparse
import json
import os
import sys

SCHEMA = "prc-bench-baseline-v1"

# Sub-15ms runs are dominated by process startup and allocator warmup;
# gating a percentage on them is pure noise, so the timing gate skips them
# (the counter gate still applies).
MIN_GATED_WALL_US = 15000.0


def load_snapshot(path):
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    for section in ("counters", "gauges"):
        if not isinstance(snapshot.get(section), dict):
            raise ValueError(f"{path}: missing section '{section}' — not a "
                             "TelemetrySnapshot export?")
    return snapshot


def bench_name(path):
    """streaming_collection.telemetry.json -> streaming_collection."""
    name = os.path.basename(path)
    for suffix in (".telemetry.json", ".json"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def json_snapshots(paths):
    """Filters shell-glob input down to JSON snapshots.

    Bench binaries write a Prometheus-exposition twin (*.telemetry.prom)
    next to every *.telemetry.json; a loose glob like bench_out/* picks
    both up.  The .prom files are a human/scrape surface, not a comparison
    format — skip them rather than failing the JSON parse.
    """
    kept = []
    for path in paths:
        if path.endswith(".prom"):
            print(f"bench_compare: skipping {path} (Prometheus exposition, "
                  "not a snapshot)")
            continue
        kept.append(path)
    return kept


def entry_from_snapshot(snapshot):
    gauges = snapshot["gauges"]
    return {
        "wall_clock_us": float(gauges.get("bench.wall_clock_us", 0.0)),
        "threads": int(gauges.get("bench.threads", 1)),
        "counters": dict(sorted(snapshot["counters"].items())),
    }


def cmd_collect(args):
    benchmarks = {}
    for path in json_snapshots(args.snapshots):
        name = bench_name(path)
        benchmarks[name] = entry_from_snapshot(load_snapshot(path))
        print(f"bench_compare: collected {name} "
              f"({len(benchmarks[name]['counters'])} counters, "
              f"{benchmarks[name]['wall_clock_us'] / 1e3:.1f} ms)")
    baseline = {"schema": SCHEMA, "benchmarks": benchmarks}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench_compare: wrote {args.out} ({len(benchmarks)} benchmarks)")
    return 0


def compare_counters(name, base, current):
    failures = []
    for counter, expected in base.items():
        actual = current.get(counter)
        if actual != expected:
            failures.append(f"{name}: counter {counter} = {actual} "
                            f"(baseline {expected})")
    for counter in current:
        if counter not in base:
            failures.append(f"{name}: new counter {counter} not in baseline "
                            "(re-collect the baseline if intentional)")
    return failures


def cmd_compare(args):
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != SCHEMA:
        print(f"bench_compare: FAIL: {args.baseline} is not a {SCHEMA} file")
        return 1
    benchmarks = baseline["benchmarks"]

    failures = []
    snapshots = json_snapshots(args.snapshots)
    for path in snapshots:
        name = bench_name(path)
        base = benchmarks.get(name)
        if base is None:
            failures.append(f"{name}: not in baseline {args.baseline}")
            continue
        current = entry_from_snapshot(load_snapshot(path))

        failures.extend(compare_counters(name, base["counters"],
                                         current["counters"]))

        base_us = base["wall_clock_us"]
        cur_us = current["wall_clock_us"]
        if base_us <= 0 or cur_us <= 0:
            verdict = "no timing data"
        elif base_us < MIN_GATED_WALL_US:
            verdict = "below timing-gate floor"
        else:
            ratio = cur_us / base_us
            verdict = f"{ratio - 1.0:+.1%} wall clock"
            if ratio > 1.0 + args.max_regression:
                message = (f"{name}: wall clock {cur_us / 1e3:.1f} ms vs "
                           f"baseline {base_us / 1e3:.1f} ms "
                           f"(+{(ratio - 1.0):.0%} > "
                           f"{args.max_regression:.0%} budget)")
                if args.time_informational:
                    verdict += " [informational]"
                    print(f"bench_compare: note: {message}")
                else:
                    failures.append(message)
        print(f"bench_compare: {name}: counters "
              f"{len(current['counters'])} checked, {verdict} "
              f"(threads {current['threads']})")

    for failure in failures:
        print(f"bench_compare: FAIL: {failure}")
    if failures:
        print(f"bench_compare: {len(failures)} gate failure(s)")
        return 1
    print(f"bench_compare: OK ({len(snapshots)} benchmarks within "
          f"{args.max_regression:.0%} of {args.baseline})")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="bench_compare")
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect", help="build a baseline")
    collect.add_argument("--out", required=True, help="baseline path to write")
    collect.add_argument("snapshots", nargs="+",
                         help="*.telemetry.json files")
    collect.set_defaults(func=cmd_collect)

    compare = sub.add_parser("compare", help="gate against a baseline")
    compare.add_argument("--baseline", required=True)
    compare.add_argument("--max-regression", type=float, default=0.15,
                         help="allowed wall-clock slowdown (default 0.15)")
    compare.add_argument("--time-informational", action="store_true",
                         help="report timing but never fail on it (use when "
                              "the baseline came from a different machine)")
    compare.add_argument("snapshots", nargs="+",
                         help="*.telemetry.json files")
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
