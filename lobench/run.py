#!/usr/bin/env python3
"""Large-object benchmark for pglo: one command, two workloads.

    python3 lobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the engine and the C++ driver (lobench/driver.cc) from source into
.bench_build/ at the repository root, runs one workload, checks every byte
it read against a seeded oracle, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (untraced); with --trace 1 they are the per-layer
ones, from a traced episode of the same seed plus an untraced one for the
tracing overhead (and, on the served workload, an in-process replay of the
same operations for the wire cost).

Every workload runs the served engine configuration (group commit, flight
recorder, 4096-frame = 32 MiB pool, devices uncharged) with 4 client
threads in a closed loop. A run is five episodes; each sets up a fresh
database from an empty directory and then does a fifth of --seconds'
worth of seeded work (a fixed amount, sized on a 4-core host). Episodes
replay the same inputs, and each end-to-end metric is the median over
them, so a disturbed episode or two does not move the result:

  lo_stream    embedded, 4 Sessions. Each owns a 16 MiB f-chunk and a
               16 MiB v-segment object (128 MiB, 4x the pool) and reads
               them in 4 KiB LoDescriptor::Read frames: a full sequential
               pass, then a random-frame pass (a full one on v-segment, a
               quarter on f-chunk), in read-only transactions of 32 frames;
               all threads read f-chunk objects, then all read v-segment
               ones. Chosen because it loads lo/btree/heap/storage/smgr on
               the read path and bypasses client/server and commit.
  lo_churn     served, 4 connections, the same 128 MiB of objects. A fixed
               count of transactions, each overwriting 8 random 4 KiB
               blocks of one owned object (f-chunk in 3 of 4), then a
               whole-object scan in 64 KiB reads. Chosen because
               no-overwrite versions, eviction write-back, the commit force
               and group commit dominate, and the scan measures read
               bandwidth after a fixed amount of churn.

The end-to-end metrics are reported on every workload; on lo_stream a
transaction is one 32-frame read transaction, and read_mb_per_s on
lo_churn is the final scan's bandwidth.

A third workload, served_oltp (4 wire connections doing 70% zipf point
reads and 30% 512-byte appends on a pool-resident set), was tried and left
out: each of its transactions is a handful of sub-millisecond round trips
plus a commit-log fdatasync, so on a shared 4-vCPU host it measures how
soon the hypervisor wakes an idle vCPU. Bursts of a few percent CPU steal
cut its throughput by 30-50% for seconds at a time, and ten-run spreads
reached 0.27-0.32 of the median with any episode length or connection
count tried.
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import struct
import subprocess
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "lobench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "lobench-runs")
DRIVER = os.path.join(BUILD_DIR, "lobench_driver")

WORKLOADS = ("lo_stream", "lo_churn")
SERVED = ("lo_churn",)
EPISODES_PER_RUN = 5
MIN_BEYOND = 10  # samples a reported percentile must have above it
MB = 1e6

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# (name, unit, better) — the end-to-end metrics, every workload. These are
# the ones BENCHMARK.json bounds: medians and rates, which repeat within a
# few percent from run to run on a 4-core host.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("success_frac", "ratio", "higher"),
    ("txn_per_s", "txn/s", "higher"),
    ("txn_p50_ms", "ms", "lower"),
    ("read_mb_per_s", "MB/s", "higher"),
]
# Printed with their sample counts but not bounded: on a shared host the
# transaction p99 follows disk-flush stalls, and single-frame latencies
# under four contending threads change mode from run to run (spreads of
# 0.3-0.5 of the median across ten runs), so no bound <= 0.25 holds them.
REPORTED = [
    ("txn_p99_ms", "ms", "lower"),
    ("frame_p50_us", "us", "lower"),
    ("frame_p99_us", "us", "lower"),
]

CLIENT_CALLS = ("begin", "lo_open", "lo_seek", "lo_read", "lo_write",
                "commit", "abort")
# Client span -> the in-process span of the same call.
WIRE_PAIRS = {
    "client.begin": "session.begin",
    "client.lo_open": "lo.open",
    "client.lo_seek": "lo.seek",
    "client.lo_read": "lo.read",
    "client.lo_write": "lo.write",
    "client.commit": "session.commit",
    "client.abort": "session.abort",
}

# (name, unit, better) — the per-layer metrics, every workload (0 where a
# workload does not load the layer).
PER_LAYER = (
    [("client.rtt_us." + c, "us", "lower") for c in CLIENT_CALLS] + [
        ("server.frames_per_txn", "frames/txn", "lower"),
        ("server.wire_us_per_frame", "us", "lower"),
        ("session.begin_us", "us", "lower"),
        ("session.abort_us", "us", "lower"),
        ("session.commit_ms.p50", "ms", "lower"),
        ("session.commit_ms.p99", "ms", "lower"),
        ("lo.open_us", "us", "lower"),
        ("lo.read_us.p50", "us", "lower"),
        ("lo.read_us.p99", "us", "lower"),
        ("lo.write_us.p50", "us", "lower"),
        ("btree.descends_per_frame", "count/frame", "lower"),
        ("heap.fsm_hit_ratio", "ratio", "higher"),
        ("latch.rel.heap.wait_ms", "ms", "lower"),
        ("latch.rel.btree.wait_ms", "ms", "lower"),
        ("bufpool.hit_ratio", "ratio", "higher"),
        ("bufpool.misses_per_mb", "count/MB", "lower"),
        ("bufpool.readahead_useful_ratio", "ratio", "higher"),
        ("bufpool.writebacks_per_commit", "count/commit", "lower"),
        ("bufpool.evictions_per_txn", "count/txn", "lower"),
        ("bufpool.data_sync_ms_per_commit", "ms/commit", "lower"),
        ("bufpool.data_sync_max_ms", "ms", "lower"),
        ("latch.bufpool.contended_ratio", "ratio", "lower"),
        ("latch.bufpool.wait_ms", "ms", "lower"),
        ("smgr.disk.read_us", "us", "lower"),
        ("smgr.disk.write_us", "us", "lower"),
        ("smgr.disk.blocks_read_per_mb", "count/MB", "lower"),
        ("smgr.disk.write_amp", "ratio", "lower"),
        ("txn.fsyncs_per_commit", "count/commit", "lower"),
        ("txn.batch_mean", "txn/batch", "higher"),
        ("txn.clog_fsync_ms_per_commit", "ms/commit", "lower"),
        ("txn.group_wait_ms_per_commit", "ms/commit", "lower"),
        ("trace_overhead_pct", "%", "lower"),
    ])

SPAN_FORMAT = struct.Struct("<HHiIIqq")  # mirrors SpanRec in driver.cc


class BenchError(Exception):
    pass


def log(msg=""):
    print(msg, flush=True)


# --- statistics -------------------------------------------------------------

def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile (0 < q < 1) of `samples`, or None unless at
    least `min_beyond` samples lie above the reported rank."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def required(samples, q, what):
    value = percentile(samples, q)
    if value is None:
        raise BenchError("%s: %d samples cannot support p%g (need %d beyond)"
                         % (what, len(samples), q * 100, MIN_BEYOND))
    return value


def ratio(num, den):
    return num / den if den else 0.0


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def check_names(table):
    for name, unit, _ in table:
        if not NAME_RE.match(name):
            raise BenchError("bad metric name %r" % name)
        if not UNIT_RE.match(unit):
            raise BenchError("bad unit %r for %s" % (unit, name))


# --- build and provenance ----------------------------------------------------

def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(os.path.dirname(BUILD_DIR), "lobench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "lobench_driver"])
    with open(log_path, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                out.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                if cmd is steps[0] and len(steps) == 2:
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                raise BenchError("build failed: %s" % " ".join(cmd))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "?"


def provenance(result):
    try:
        fstype = subprocess.run(["stat", "-f", "-c", "%T", ROOT],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        fstype = "?"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    compiler = "%s %s" % (
        os.path.basename(os.path.realpath(cmake_cache("CMAKE_CXX_COMPILER"))),
        result["compiler"])
    log("host: nproc=%s kernel=%s workdir_fs=%s compiler=%s build=%s%s"
        % (nproc, platform.release(), fstype, compiler, result["build_type"],
           "" if result["ndebug"] else " (assertions on)"))
    if result["build_type"] != "Release" or not result["ndebug"]:
        log("WARNING: not a Release build; timings are not comparable")


# --- one lobench_driver phase ------------------------------------------------

class Episode:
    """One set-up plus measured window of a phase (see driver.cc)."""

    def __init__(self, out, index, r):
        self.r = r
        self.series = {}
        for name in ("txn_ms", "frame_us"):
            a = array("d")
            with open(os.path.join(out, "%s.%d.f64" % (name, index)),
                      "rb") as f:
                a.frombytes(f.read())
            self.series[name] = a
        b, a_ = r["stats_before"], r["stats_after"]
        self.counters = {k: v - b.get("counters", {}).get(k, 0)
                         for k, v in a_.get("counters", {}).items()}
        self.hist = {}
        for k, h in a_.get("histograms", {}).items():
            h0 = b.get("histograms", {}).get(k, {})
            self.hist[k] = {"count": h["count"] - h0.get("count", 0),
                            "sum_ns": h["sum_ns"] - h0.get("sum_ns", 0),
                            "max_ns": h["max_ns"]}

    def counter(self, name):
        return self.counters.get(name, 0)

    def hist_sum_ms(self, name):
        return self.hist.get(name, {}).get("sum_ns", 0) / 1e6


class Phase:
    """Outputs of one driver invocation: `episodes` replicas of set-up plus
    `seconds` of seeded work, and the spans when traced."""

    def __init__(self, workload, mode, seed, seconds, episodes):
        out = os.path.join(RUNS_DIR, workload, mode)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--mode", mode,
               "--episodes", str(episodes), "--dir", out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError("driver %s/%s exited %d"
                             % (workload, mode, proc.returncode))
        with open(os.path.join(out, "result.json")) as f:
            self.r = json.load(f)
        self.mode = mode
        self.episodes = [Episode(out, i, r)
                         for i, r in enumerate(self.r["episodes"])]
        self.spans = {}
        self.span_blocks = {}
        path = os.path.join(out, "spans.bin")
        if os.path.exists(path):
            names = self.r["span_names"]
            with open(path, "rb") as f:
                data = f.read()
            for name_id, _, _, _, detail, _, dur in SPAN_FORMAT.iter_unpack(
                    data):
                name = names[name_id]
                self.spans.setdefault(name, []).append(dur / 1e3)  # us
                self.span_blocks[name] = (self.span_blocks.get(name, 0)
                                          + detail)
        shutil.rmtree(out, ignore_errors=True)

    @property
    def attempted(self):
        return sum(e.r["attempted"] for e in self.episodes)

    @property
    def failed(self):
        return sum(e.r["failed"] for e in self.episodes)


def self_check(workload, phase):
    """Asserts every episode loads the layers the workload was chosen for."""
    pool, population = phase.r["pool_bytes"], phase.r["population_bytes"]
    for ep in phase.episodes:
        r = ep.r
        if workload == "lo_stream":
            ok = r["engine_commits"] == 0 and r["frames_in"] == 0
            what = "no commits (%d) and no wire frames (%d)" % (
                r["engine_commits"], r["frames_in"])
        else:
            wb = ratio(ep.counter("bufpool.writebacks"), r["engine_commits"])
            ok = population > pool and wb > 0
            what = ("live data %d B above the %d B pool and write-backs per "
                    "commit %.2f above zero" % (population, pool, wb))
        if not ok:
            raise BenchError("workload matrix self-check failed for %s: %s"
                             % (workload, what))
    log("matrix self-check %s (%s, episodes: %d): %s — ok" % (
        workload, phase.mode, len(phase.episodes), what))


# --- metrics -----------------------------------------------------------------

def episode_metrics(workload, ep):
    """Every end-to-end figure of one episode: the gated END_TO_END metrics
    plus the REPORTED tails (None where the samples cannot support one)."""
    r, s = ep.r, ep.series
    run_s = r["run_s"]
    if workload == "lo_churn":
        read_mb_s = r["scan_bytes"] / MB / r["scan_s"]
    else:
        read_mb_s = r["bytes_read"] / MB / run_s
    m = {
        "setup_s": r["setup_s"],
        "success_frac": 1.0 - ratio(r["failed"], r["attempted"]),
        "txn_per_s": r["txns"] / run_s,
        "txn_p50_ms": required(s["txn_ms"], 0.50, "txn_ms"),
        "read_mb_per_s": read_mb_s,
        "txn_p99_ms": percentile(s["txn_ms"], 0.99),
        "frame_p50_us": percentile(s["frame_us"], 0.50),
        "frame_p99_us": percentile(s["frame_us"], 0.99),
    }
    return m


def end_to_end(workload, phase):
    """Median over the phase's episodes of each end-to-end figure."""
    per = [episode_metrics(workload, ep) for ep in phase.episodes]
    out = {}
    for name in per[0]:
        vals = [m[name] for m in per]
        out[name] = (float("nan") if None in vals
                     else statistics.median(vals))
    return out


def print_end_to_end(workload, phase, m):
    eps = phase.episodes
    log("%s: %d episodes, %d transactions attempted, %d failed (failed_frac "
        "%.6f); medians over episodes, n = samples per episode:"
        % (workload, len(eps), phase.attempted, phase.failed,
           ratio(phase.failed, phase.attempted)))

    def n(key):
        return "/".join(str(len(ep.series[key]) if key in ep.series
                            else ep.r[key]) for ep in eps)

    counts = {"setup_s": str(len(eps)), "success_frac": n("attempted"),
              "txn_per_s": n("txns"), "txn_p50_ms": n("txn_ms"),
              "txn_p99_ms": n("txn_ms"), "frame_p50_us": n("frame_us"),
              "frame_p99_us": n("frame_us"),
              "read_mb_per_s": n("scan_frames" if workload == "lo_churn"
                                 else "frames")}
    units = {name: unit for name, unit, _ in END_TO_END + REPORTED}
    gated = {name for name, _, _ in END_TO_END}
    per = [episode_metrics(workload, ep) for ep in eps]
    for name, value in m.items():
        shown = ("scan_mb_per_s" if workload == "lo_churn"
                 and name == "read_mb_per_s" else name)
        log("  %-22s %14.4f %-6s n=%s%s" % (
            shown, value, units[name], counts[name],
            "" if name in gated else "  (reported, not gated)"))
        if name in gated:
            log("  %-22s episodes: %s" % ("", " ".join(
                "%.4f" % p[name] for p in per)))


def pct_or_zero(xs, q=0.5):
    v = percentile(xs, q)
    return 0.0 if v is None else v


def per_layer(workload, plain, traced, inproc):
    ep = traced.episodes[0]
    r = ep.r
    commits = r["engine_commits"]
    attempted = r["attempted"]
    frames = r["frames"] + r["scan_frames"]
    read_mb = (r["bytes_read"] + r["scan_bytes"]) / MB
    user_mb = read_mb + r["bytes_written"] / MB
    spans = traced.spans
    ins = inproc.spans
    m = {}
    for call in CLIENT_CALLS:
        m["client.rtt_us." + call] = pct_or_zero(spans.get("client." + call,
                                                           []))
    m["server.frames_per_txn"] = ratio(r["frames_in"], attempted)
    num = den = 0.0
    for client, local in WIRE_PAIRS.items():
        c, l_ = spans.get(client, []), ins.get(local, [])
        if c and l_:
            num += len(c) * (mean(c) - mean(l_))
            den += len(c)
    m["server.wire_us_per_frame"] = ratio(num, den)
    m["session.begin_us"] = pct_or_zero(ins.get("session.begin", []))
    m["session.abort_us"] = pct_or_zero(ins.get("session.abort", []))
    commit_ms = [v / 1e3 for v in ins.get("session.commit", [])]
    m["session.commit_ms.p50"] = pct_or_zero(commit_ms)
    m["session.commit_ms.p99"] = pct_or_zero(commit_ms, 0.99)
    m["lo.open_us"] = pct_or_zero(ins.get("lo.open", []))
    m["lo.read_us.p50"] = pct_or_zero(ins.get("lo.read", []))
    m["lo.read_us.p99"] = pct_or_zero(ins.get("lo.read", []), 0.99)
    m["lo.write_us.p50"] = pct_or_zero(ins.get("lo.write", []))
    m["btree.descends_per_frame"] = ratio(
        ep.hist.get("btree.descend_ns", {}).get("count", 0), frames)
    c = ep.counter
    m["heap.fsm_hit_ratio"] = ratio(
        c("heap.fsm.hits"), c("heap.fsm.hits") + c("heap.fsm.misses"))
    m["latch.rel.heap.wait_ms"] = ep.hist_sum_ms("wait.latch.rel.heap_ns")
    m["latch.rel.btree.wait_ms"] = ep.hist_sum_ms(
        "wait.latch.rel.btree_ns")
    m["bufpool.hit_ratio"] = ratio(
        c("bufpool.hits"), c("bufpool.hits") + c("bufpool.misses"))
    m["bufpool.misses_per_mb"] = ratio(c("bufpool.misses"), user_mb)
    m["bufpool.readahead_useful_ratio"] = ratio(
        c("bufpool.readahead_hits"), c("bufpool.readahead_pages"))
    m["bufpool.writebacks_per_commit"] = ratio(c("bufpool.writebacks"),
                                               commits)
    m["bufpool.evictions_per_txn"] = ratio(c("bufpool.evictions"), attempted)
    m["bufpool.data_sync_ms_per_commit"] = ratio(
        ep.hist_sum_ms("wait.bufpool.data_sync_ns"), commits)
    m["bufpool.data_sync_max_ms"] = ep.hist.get(
        "wait.bufpool.data_sync_ns", {}).get("max_ns", 0) / 1e6
    m["latch.bufpool.contended_ratio"] = ratio(
        c("wait.latch.bufpool.contended"), c("wait.latch.bufpool.acquires"))
    m["latch.bufpool.wait_ms"] = ep.hist_sum_ms("wait.latch.bufpool_ns")
    m["smgr.disk.read_us"] = mean(spans.get("smgr.disk.read", []))
    m["smgr.disk.write_us"] = mean(spans.get("smgr.disk.write", []))
    m["smgr.disk.blocks_read_per_mb"] = ratio(
        traced.span_blocks.get("smgr.disk.read", 0), read_mb)
    m["smgr.disk.write_amp"] = ratio(
        traced.span_blocks.get("smgr.disk.write", 0) * 8192,
        r["bytes_written"])
    m["txn.fsyncs_per_commit"] = ratio(r["fsyncs"], commits)
    m["txn.batch_mean"] = ratio(r["batch_txns"], r["batches"])
    m["txn.clog_fsync_ms_per_commit"] = ratio(
        ep.hist_sum_ms("wait.clog.fsync_ns"), commits)
    m["txn.group_wait_ms_per_commit"] = ratio(
        ep.hist_sum_ms("wait.clog.group_commit.follower_ns")
        + ep.hist_sum_ms("wait.clog.group_commit.gather_ns"), commits)
    main = "read_mb_per_s" if workload == "lo_stream" else "txn_per_s"
    untraced = end_to_end(workload, plain)[main]
    m["trace_overhead_pct"] = 100.0 * ratio(
        untraced - end_to_end(workload, traced)[main], untraced)
    log("%s layer table (traced run%s; trace overhead on %s):" % (
        workload, " + in-process replay" if inproc is not traced else "",
        main))
    units = {n: u for n, u, _ in PER_LAYER}
    for name, _, _ in PER_LAYER:
        log("  %-34s %14.4f %s" % (name, m[name], units[name]))
    return m


# --- main --------------------------------------------------------------------

def run(args):
    check_names(END_TO_END)
    check_names(PER_LAYER)
    build()
    # lobench_driver's --seconds is one episode's worth of work.
    seconds = args.seconds / EPISODES_PER_RUN
    if args.trace:
        plain = Phase(args.workload, "plain", args.seed, seconds, 1)
        traced = Phase(args.workload, "traced", args.seed, seconds, 1)
        inproc = (Phase(args.workload, "replay", args.seed, seconds, 1)
                  if args.workload in SERVED else traced)
        phases = [plain, traced] + ([inproc] if inproc is not traced else [])
    else:
        plain = Phase(args.workload, "plain", args.seed, seconds,
                      EPISODES_PER_RUN)
        phases = [plain]
    provenance(plain.r)
    for p in phases:
        self_check(args.workload, p)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for ep in p.episodes:
            for e in ep.r["errors"]:
                log("error (%s): %s" % (p.mode, e))
    correct = failed == 0
    if args.trace:
        values = per_layer(args.workload, plain, traced, inproc)
        table = PER_LAYER
    else:
        values = end_to_end(args.workload, plain)
        print_end_to_end(args.workload, plain, values)
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in table}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    try:
        return run(args)
    except BenchError as e:
        sys.stderr.write("lobench: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
