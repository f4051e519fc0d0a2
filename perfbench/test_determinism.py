#!/usr/bin/env python3
"""Determinism self-test of the TPC-H benchmark.

    python3 perfbench/test_determinism.py [--workloads power,refresh,out_of_core]
                                          [--seed 7] [--seconds 2]

For every workload it runs perfbench/run.py twice with the same seed, traced
and untraced, and requires the single-client counts to repeat exactly: buffer
hits, misses and evictions, spill bytes, scanned rows, PDT delta records, WAL
bytes per commit and the database size. A run with another seed must still
pass its answer checks. Exits non-zero on the first difference or failure.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

TRACED_COUNTS = (
    "storage.buffer_hits",
    "storage.buffer_misses",
    "storage.buffer_evictions",
    "storage.spill_written_mb",
    "storage.spill_read_mb",
    "exec.scan.rows",
    "pdt.delta_records",
    "txn.wal_bytes_per_commit",
)
UNTRACED_COUNTS = ("disk_mb",)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s exited with %d" % (" ".join(cmd),
                                                     proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError("%s: correct=%s failed=%d" % (
            " ".join(cmd), result["correct"], result["failed"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_repeat(workload, seed, seconds, trace, names):
    first = run(workload, seed, seconds, trace)
    second = run(workload, seed, seconds, trace)
    for name in names:
        if first[name] != second[name]:
            raise AssertionError("%s seed %d: %s differs between runs: %r vs %r"
                                 % (workload, seed, name, first[name],
                                    second[name]))
        print("  %-28s %r (repeats)" % (name, first[name]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="power,refresh,out_of_core")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    try:
        for workload in args.workloads.split(","):
            print("%s:" % workload, flush=True)
            check_repeat(workload, args.seed, args.seconds, 1, TRACED_COUNTS)
            check_repeat(workload, args.seed, args.seconds, 0, UNTRACED_COUNTS)
            run(workload, args.seed + 1, args.seconds, 0)
            print("  seed %d: answers match" % (args.seed + 1), flush=True)
    except AssertionError as e:
        print("FAIL: %s" % e, file=sys.stderr)
        return 1
    print("determinism self-test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
