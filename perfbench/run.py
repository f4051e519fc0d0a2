#!/usr/bin/env python3
"""TPC-H benchmark of the vwise engine: one command, three workloads.

    python3 perfbench/run.py --workload power|refresh|out_of_core \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ (and the engine
from src/) into $CARGO_TARGET_DIR (default .bench_build), runs the driver,
checks its answers and prints the metrics as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics,
derived from the span file the traced run writes to
$CARGO_TARGET_DIR/traces/<workload>-seed<N>.jsonl. Exits non-zero when the
build or the run fails, or when any operation failed or answered wrongly.
perfbench/README.md defines every metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from collections import defaultdict
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ANSWERS = os.path.join(BENCH_DIR, "answers_sf0.1.txt")
WORKLOADS = ("power", "refresh", "out_of_core")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
MIB = 1024.0 * 1024.0

# exec.self_coverage must lie within this distance of 1: per-operator self
# times (inclusive minus profiled children, never below zero) summed over a
# plan must add back up to the root operator's inclusive time.
SELF_COVERAGE_TOLERANCE = 0.02

# Operators whose Open and Next phases are reported apart.
BREAKERS = ("hash_join", "hash_agg", "sort")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_process(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it; on a timeout or
    any other exit from here the whole group (make, compilers) is killed and
    reaped first."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build(out_dir):
    """Configures (once) and builds the driver; returns its path."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    tree = os.path.join(out_dir, "perfbench")
    os.makedirs(tree, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", jobs])
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log_file:
        for cmd in steps:
            rc, _ = run_process(cmd, BUILD_TIMEOUT_S, stdout=log_file,
                                stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(tree, "perfbench_driver")


def run_driver(driver, args, out_dir, spans_path):
    work = os.path.join(out_dir, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
           "--workdir", work, "--answers", ANSWERS]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        rc, out = run_process(cmd, DRIVER_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise RuntimeError("driver exited with code %d" % rc)
    return json.loads(lines[-1])


# --- statistics -------------------------------------------------------------

def percentile(xs, p):
    """Nearest-rank percentile; failed samples are +inf and rank last."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def latency_ms(sample):
    # A failed query misses every latency limit.
    return sample["latency_ns"] / 1e6 if sample["ok"] else math.inf


def metric(value, unit):
    # A percentile that a failed operation reaches is infinite, which JSON
    # cannot hold; it is printed as null (the run is then not correct).
    return {"value": value if math.isfinite(value) else None, "unit": unit}


# --- end-to-end metrics -----------------------------------------------------

def end_to_end(raw):
    timed = raw["timed"]
    by_query = defaultdict(list)
    for s in timed["queries"]:
        by_query[s["q"]].append(latency_ms(s))
    commits = raw["commits"]
    # RF1 and RF2 commits differ in cost; the median of each, averaged,
    # weighs both alike and does not jump between the two modes.
    commit_p50 = (median(commits["rf1_ns"]) + median(commits["rf2_ns"])) / 2e6
    return {
        "setup_s": metric(median(raw["setup_s"]), "s"),
        "query_geomean_ms": metric(
            geomean([median(v) for v in by_query.values()]), "ms"),
        "queries_per_s": metric(
            len(timed["queries"]) / (timed["wall_ns"] / 1e9), "1/s"),
        "commit_p50_ms": metric(commit_p50, "ms"),
        "disk_mb": metric(raw["disk_bytes"] / MIB, "MiB"),
        "peak_rss_mb": metric(raw["peak_rss_kb"] / 1024.0, "MiB"),
    }


# --- per-layer metrics from the span file -----------------------------------

def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def operator_self_times(ops):
    """Self time per operator record, with Open and Next apart.

    An operator opens its children from its own Open. HashJoin also drains
    its second (build) child there; every other operator pulls its children
    from Next. Self time is inclusive time minus the children's time spent
    in the same phase, never below zero.
    """
    children = defaultdict(list)
    for op in ops:
        children[op["parent"]].append(op)
    out = []
    for op in ops:
        kids = children.get(op["id"], [])
        in_open = sum(k["open_ns"] for k in kids)
        in_next = 0
        for i, k in enumerate(kids):
            if op["kind"] == "hash_join" and i == 1:
                in_open += k["next_ns"]
            else:
                in_next += k["next_ns"]
        out.append((op, max(0, op["open_ns"] - in_open),
                    max(0, op["next_ns"] - in_next)))
    return out


def per_layer(raw, spans):
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    spans_by_id = {s["id"]: s for s in spans}
    dur_ms = lambda s: (s["end_ns"] - s["start_ns"]) / 1e6
    timed = by_name["bench.timed"][0]["attrs"]
    queries = by_name["bench.query"]
    pass_of = {q["query"]: q["attrs"]["pass"] for q in queries}
    passes = sorted(set(pass_of.values()))
    m = {}

    # Operators: self time summed per pass, median over passes.
    ops = by_name["exec.op"]
    selfs = operator_self_times(ops)
    per_pass = defaultdict(float)
    self_total = 0.0
    for op, s_open, s_next in selfs:
        p = pass_of[op["query"]]
        k = op["kind"]
        if k in BREAKERS:
            per_pass[(k + ".open_ms", p)] += s_open / 1e6
            per_pass[(k + ".next_ms", p)] += s_next / 1e6
        else:
            per_pass[(k + ".self_ms", p)] += (s_open + s_next) / 1e6
        self_total += s_open + s_next
    names = ["scan.self_ms", "select.self_ms", "project.self_ms"]
    for k in BREAKERS:
        names += [k + ".open_ms", k + ".next_ms"]
    names.append("other.self_ms")
    for n in names:
        m["exec." + n] = metric(
            median([per_pass.get((n, p), 0.0) for p in passes]), "ms")
    exec_ids = {s["id"] for s in by_name["exec.execute"]}
    roots = [op for op in ops if op["parent"] in exec_ids]
    root_total = sum(op["open_ns"] + op["next_ns"] for op in roots)
    m["exec.self_coverage"] = metric(self_total / root_total, "ratio")
    scans = [op for op in ops if op["kind"] == "scan"]
    m["exec.scan.rows"] = metric(sum(op["rows"] for op in scans), "count")
    repr_totals = defaultdict(int)
    for op in scans:
        for k, v in op.get("repr", {}).items():
            repr_totals[k] += v
    instances = sum(repr_totals.values())
    m["exec.scan.encoded_share"] = metric(
        (repr_totals["dict"] + repr_totals["rle"]) / instances
        if instances else 0.0, "ratio")
    m["exec.peak_reserved_mb"] = metric(timed["peak_reserved"] / MIB, "MiB")

    # Primitives.
    tuples = timed["primitive_tuples"]
    m["expr.cycles_per_tuple"] = metric(
        timed["primitive_cycles"] / tuples if tuples else 0.0, "cycles")
    m["expr.primitive_tuples"] = metric(tuples, "count")

    # Storage: buffer manager and spill.
    hits, misses = timed["buffer_hits"], timed["buffer_misses"]
    m["storage.buffer_hits"] = metric(hits, "count")
    m["storage.buffer_misses"] = metric(misses, "count")
    m["storage.buffer_hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 1.0, "ratio")
    m["storage.buffer_evictions"] = metric(timed["buffer_evictions"], "count")
    m["storage.read_retries"] = metric(timed["read_retries"], "count")
    m["storage.spill_written_mb"] = metric(timed["spill_written"] / MIB, "MiB")
    m["storage.spill_read_mb"] = metric(timed["spill_read"] / MIB, "MiB")

    # Transactions and PDT.
    m["pdt.delta_records"] = metric(timed["pdt_delta_records"], "count")
    commits = by_name["txn.commit"]
    commit_ms = [dur_ms(c) if c["attrs"]["ok"] else math.inf for c in commits]
    m["txn.commit_p95_ms"] = metric(percentile(commit_ms, 95), "ms")
    m["txn.commit_samples"] = metric(len(commit_ms), "count")
    m["txn.wal_bytes_per_commit"] = metric(
        sum(c["attrs"]["wal_bytes"] for c in commits) / len(commits), "bytes")
    m["txn.checkpoint_s"] = metric(
        dur_ms(by_name["txn.checkpoint"][0]) / 1e3, "s")

    # Set-up: generator and bulk load, median over the set-ups of the run.
    gen_s, load_s = defaultdict(float), defaultdict(float)
    for g in by_name["tpch.generate"]:
        bulk = spans_by_id[g["parent"]]
        own = (dur_ms(g) - g["attrs"]["append_ns"] / 1e6) / 1e3
        gen_s[bulk["parent"]] += own
        load_s[bulk["parent"]] += dur_ms(bulk) / 1e3 - own
    m["tpch.generate_s"] = metric(median(gen_s.values()), "s")
    m["storage.bulk_load_s"] = metric(median(load_s.values()), "s")
    layers = raw["layers"]
    m["storage.table_mb"] = metric(layers["table_bytes"] / MIB, "MiB")
    m["storage.wal_mb"] = metric(layers["wal_bytes"] / MIB, "MiB")
    m["compression.stored_per_user_byte"] = metric(
        layers["table_bytes"] / layers["user_bytes"], "ratio")

    # Controls: planner and query service.
    m["planner.prepare_ms"] = metric(
        median([dur_ms(s) for s in by_name["planner.prepare"]]), "ms")
    m["service.admission_wait_ms"] = metric(
        median([dur_ms(s) for s in by_name["service.admission"]]), "ms")
    query_ms = [dur_ms(q) if q["attrs"]["ok"] else math.inf for q in queries]
    # p90: the highest percentile with ten samples beyond it on every
    # workload (out_of_core runs the fewest queries).
    m["service.query_p90_ms"] = metric(percentile(query_ms, 90), "ms")
    m["service.query_samples"] = metric(len(query_ms), "count")

    untraced = len(raw["timed"]["queries"]) / raw["timed"]["wall_ns"]
    traced = len(raw["traced"]["queries"]) / raw["traced"]["wall_ns"]
    m["trace.overhead"] = metric(traced / untraced, "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    spans_path = os.path.join(out_dir, "traces", "%s-seed%d.jsonl" %
                              (args.workload, args.seed))
    try:
        driver = build(out_dir)
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        raw = run_driver(driver, args, out_dir, spans_path)
        if args.trace:
            metrics = per_layer(raw, read_spans(spans_path))
        else:
            metrics = end_to_end(raw)
    except (RuntimeError, OSError, ValueError, KeyError, IndexError,
            subprocess.TimeoutExpired) as e:
        log("run failed: %s" % e)
        return 2

    correct = raw["failed"] == 0
    if args.trace:
        coverage = metrics["exec.self_coverage"]["value"]
        if abs(coverage - 1.0) > SELF_COVERAGE_TOLERANCE:
            log("exec.self_coverage %.4f is outside 1 +- %g" %
                (coverage, SELF_COVERAGE_TOLERANCE))
            correct = False
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
