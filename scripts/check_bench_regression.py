#!/usr/bin/env python3
"""Compare a fresh BENCH_throughput.json against the committed baseline.

Usage:
    check_bench_regression.py BENCH_throughput.json \
        [--baseline bench/BENCH_baseline.json] [--tolerance 0.25]

Checks the throughput numbers CI is meant to hold steady:
  * packets_per_sec for every (arch, ports) row present in the baseline
  * packetlanes.laned_replicates_per_sec (the bit-sliced replicate engine)
  * packetlanes.rows[*].laned_replicates_per_sec for every per-arch row
    present in the baseline's laned_replicates_per_sec_rows map

A metric outside [baseline * (1 - tol), baseline * (1 + tol)] fails the
check (exit 1). Both directions are out of band on purpose: a large
"improvement" usually means the workload changed and the baseline must be
re-recorded (run `bench_throughput --quick --reps 4` on the reference
machine and copy the numbers into bench/BENCH_baseline.json).
"""

import argparse
import json
import sys
from pathlib import Path


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(name, measured, expected, tolerance, failures):
    low = expected * (1.0 - tolerance)
    high = expected * (1.0 + tolerance)
    verdict = "ok" if low <= measured <= high else "FAIL"
    print(
        f"  {verdict:4} {name}: {measured:.4g} "
        f"(baseline {expected:.4g}, allowed {low:.4g}..{high:.4g})"
    )
    if verdict == "FAIL":
        failures.append(name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", help="freshly produced bench JSON")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent
                    / "bench" / "BENCH_baseline.json"),
        help="committed baseline JSON (default: bench/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="relative tolerance in either direction (default 0.25)",
    )
    args = parser.parse_args()

    bench = load(args.bench_json)
    baseline = load(args.baseline)
    failures = []

    print(f"bench regression check (tolerance +-{args.tolerance:.0%}):")

    measured_rows = {
        (row["arch"], row["ports"]): row["packets_per_sec"]
        for row in bench.get("results", [])
    }
    for key, expected in baseline["packets_per_sec"].items():
        arch, ports = key.rsplit("@", 1)
        row = (arch, int(ports))
        if row not in measured_rows:
            print(f"  FAIL packets_per_sec[{key}]: missing from bench JSON")
            failures.append(key)
            continue
        check(f"packets_per_sec[{key}]", measured_rows[row], expected,
              args.tolerance, failures)

    lanes = bench.get("packetlanes", {})
    if "laned_replicates_per_sec" not in lanes:
        print("  FAIL packetlanes.laned_replicates_per_sec: missing")
        failures.append("laned_replicates_per_sec")
    else:
        check(
            "laned_replicates_per_sec",
            lanes["laned_replicates_per_sec"],
            baseline["laned_replicates_per_sec"],
            args.tolerance,
            failures,
        )

    lane_rows = {
        (row["arch"], row["ports"]): row["laned_replicates_per_sec"]
        for row in lanes.get("rows", [])
    }
    for key, expected in baseline.get(
            "laned_replicates_per_sec_rows", {}).items():
        arch, ports = key.rsplit("@", 1)
        row = (arch, int(ports))
        if row not in lane_rows:
            print(f"  FAIL packetlanes.rows[{key}]: missing from bench JSON")
            failures.append(key)
            continue
        check(f"packetlanes.rows[{key}]", lane_rows[row], expected,
              args.tolerance, failures)

    if failures:
        print(f"{len(failures)} metric(s) out of band; if the change is "
              "intended, re-record bench/BENCH_baseline.json")
        return 1
    print("all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
