#!/usr/bin/env python3
"""Benchmark entry point: build the Rust runner, run one workload several
times, and print every metric by name with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The runner (`perfbench/src`) is built
with cargo into `$CARGO_TARGET_DIR` (default `.bench_build`). The
measured time is split over several runs, each in its own process; every
run sets the system up afresh, drives it closed-loop and reads every
object back against the oracle. Figures are medians over the runs.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
each run is half untraced, half traced, and the per-layer metrics and
microbenchmarks are printed instead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

A run still going after WATCHDOG_FACTOR times its expected length is
stopped and counted as failed; its seed and metrics snapshot go to
standard error, and the remaining runs continue.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The workloads BENCHMARK.json lists: the program commits and reads back
# every write on them, and their time is mostly modelled disk and network
# latency, so they repeat on a shared host.
BENCHMARKED = ("hotcold_fit", "server_restart")
# Runnable, but left out of BENCHMARK.json (NOTES.md, "Listed and withheld
# workloads"): the program loses committed writes on `uniform_spill` and
# `crash_restart`, which report `correct: false`, and `uds_pair` is
# CPU-bound, so its figures follow the host's load.
WITHHELD = ("uniform_spill", "crash_restart", "uds_pair")
WORKLOADS = BENCHMARKED + WITHHELD

# Runs per invocation: set-up is timed in each, and reported as a median.
RUNS = 5
# Expected length of one run beyond its measured time (set-up, warm-up,
# recoveries, oracle checks), in seconds.
RUN_OVERHEAD_S = {"hotcold_fit": 2, "uniform_spill": 6, "uds_pair": 4, "crash_restart": 4,
                  "server_restart": 4}
# A run exceeding this multiple of its expected length is stopped.
WATCHDOG_FACTOR = 3
# The whole invocation must end well inside three minutes.
BUDGET_S = 170
MICRO_BATCH_MS = 20

END_TO_END = {
    "commits_per_s": "1/s",
    "txn_p50_us": "us",
    "commit_p50_us": "us",
    "cpu_us_per_commit": "us",
    "log_bytes_per_commit": "bytes",
    "msgs_per_commit": "count",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

WAL_KINDS = ("begin", "update", "clr", "commit", "abort", "callback",
             "client_ckpt", "replacement", "server_ckpt", "ext")
MSG_KINDS = ("lock_req", "lock_reply", "callback", "callback_reply",
             "callback_complete", "fetch_page", "page_ship", "force_page",
             "flush_notify", "commit_log_ship", "abort", "recovery", "control")
FRAME_FAMILIES = ("lock_request", "page_ship", "lock_reply", "page_reply",
                  "callback", "callback_reply", "grant")
CP_BUCKETS = ("lock_wait", "callback_rtt", "wal_force", "net_hop",
              "page_fetch", "commit_log_ship", "sched_wait", "self")


def _per_layer():
    m = {
        # Latency tails: reported, but with no bound, because outside load
        # on a shared host moves them by more than any usable bound
        # (NOTES.md, "End-to-end metrics").
        "txn_p99_us": "us",
        "commit_p99_us": "us",
        "client.read_us": "us",
        "client.write_us": "us",
        "client.commit_call_us": "us",
        "client.local_grant_frac": "frac",
        "client_recovery_ms": "ms",
        "client.recovery_analysis_ms": "ms",
        "client.recovery_redo_ms": "ms",
        "client.recovery_undo_ms": "ms",
        "client.recovery_records_scanned": "count",
        "client.recovery_pages": "count",
        "locks.lock_wait_p50_us": "us",
        "locks.lock_wait_p99_us": "us",
        "locks.global_requests_per_commit": "count",
        "locks.deadlock_victims_per_1k": "count",
        "locks.lock_timeouts": "count",
        "locks.glm_lock_release_ns": "ns",
        "locks.llm_acquire_ns": "ns",
        "server.callback_rtt_p50_us": "us",
        "server.callbacks_per_commit": "count",
        "server.merge_p50_us": "us",
        "server.merges_per_commit": "count",
        "server.page_fetch_p50_us": "us",
        "server.page_fetches_per_commit": "count",
        "server.pages_flushed_per_commit": "count",
        "server.replacement_records_per_commit": "count",
        "server_restart_ms": "ms",
        "server.restart_gather_ms": "ms",
        "server.restart_dct_rebuild_ms": "ms",
        "server.restart_replay_ms": "ms",
        "server.restart_records_scanned": "count",
        "wal.log_force_p50_us": "us",
        "wal.forces_per_commit": "count",
        "wal.piggyback_frac": "frac",
        "wal.group_commit_wait_p50_us": "us",
    }
    m.update({f"wal.bytes_{k}_per_commit": "bytes" for k in WAL_KINDS})
    m.update({
        "wal.append_update_ns": "ns",
        "wal.record_codec_ns": "ns",
        "storage.disk_reads_per_commit": "count",
        "storage.disk_writes_per_commit": "count",
        "storage.page_overwrite_ns": "ns",
        "storage.merge_pages_ns": "ns",
        "storage.page_codec_ns": "ns",
        "storage.bufferpool_evict_ns": "ns",
    })
    m.update({f"net.msgs_{k}_per_commit": "count" for k in MSG_KINDS})
    m.update({
        "net.wire_rtt_p50_us": "us",
        "net.wire_rtt_p99_us": "us",
        "net.wire_bytes_per_commit": "bytes",
    })
    for f in FRAME_FAMILIES:
        m[f"net.frame_encode_{f}_ns"] = "ns"
        m[f"net.frame_decode_{f}_ns"] = "ns"
    m.update({
        "sched.context_switches_per_commit": "count",
        "sched.worker_parks_per_commit": "count",
        "sched.timer_fires_per_commit": "count",
        "sched.switch_ns": "ns",
        "sched.pause_overshoot_us": "us",
        "sched.pause_cpu_us": "us",
    })
    m.update({f"cp.{b}_us_per_commit": "us" for b in CP_BUCKETS})
    m["trace.overhead_frac"] = "frac"
    return m


PER_LAYER = _per_layer()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the runner; returns its path, or exits non-zero on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(1)
    if done.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return os.path.join(target, "release", "fgl-perfbench")


def percentile(ascending, p):
    """Nearest-rank percentile `p` (0-100) of an ascending list."""
    n = len(ascending)
    if n == 0:
        return 0
    rank = max(1, math.ceil(p / 100 * n))
    return ascending[min(rank, n) - 1]


def run_child(cmd, timeout, env):
    """Run one child to completion (or kill it at `timeout`).

    Returns (record, watchdog_record, samples): the `RESULT` object of a
    run that finished, the `WATCHDOG` object of one the watchdog
    stopped (None after a hard kill), and its `SAMPLES` lists by name."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        log(f"perfbench: killed after {timeout:.0f} s: {' '.join(cmd)}")
        return None, None, {}
    tagged, samples = {}, {}
    for line in done.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "SAMPLES":
            name, _, values = rest.partition(" ")
            samples[name] = [int(v) for v in values.split()]
        elif tag in ("RESULT", "WATCHDOG"):
            tagged[tag] = json.loads(rest)
        else:
            print(line)
    if done.returncode == 0:
        return tagged.get("RESULT"), None, samples
    return None, tagged.get("WATCHDOG"), {}


def latency_metrics(samples):
    """p50 and p99 in µs over the pooled nanosecond samples of all runs."""
    out = {}
    for kind in ("txn", "commit"):
        pooled = sorted(samples.get(f"{kind}_ns", []))
        for p in (50, 99):
            out[f"{kind}_p{p}_us"] = percentile(pooled, p) / 1000
        out[f"{kind}_samples"] = len(pooled)
    return out


def aggregate(records, killed, killed_attempted):
    """Fold per-run records into the reported totals and medians.

    failed = transactions given up + committed objects the oracle check
    could not read back + runs stopped by the watchdog."""
    attempted = sum(int(r["attempted"]) for r in records) + killed_attempted
    given_up = sum(int(r["given_up"]) for r in records)
    lost = sum(int(r["lost"]) for r in records)
    failed = given_up + lost + killed
    medians = {}
    if records:
        for key in records[0]:
            medians[key] = statistics.median(r[key] for r in records)
    correct = (
        killed == 0
        and lost == 0
        and all(r.get("errors", 0) == 0 for r in records)
        and all(r.get("cp_identity_violations", 0) == 0 for r in records)
    )
    return {
        "attempted": max(attempted, 1),
        "failed": failed,
        "failed_frac": failed / max(attempted, 1),
        "given_up": given_up,
        "lost": lost,
        "killed": killed,
        "correct": correct,
        "medians": medians,
    }


def host_line():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"host: nproc={os.cpu_count()} cpu={model!r} {platform.system()} {platform.machine()}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    runner = build()
    tmp = os.path.join(".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    # Unix sockets of `uds_pair` go under the checkout, by a short
    # relative path.
    env = dict(os.environ, TMPDIR=tmp)
    measure_ms = int(args.seconds * 1000 / RUNS)
    expected_s = measure_ms / 1000 + RUN_OVERHEAD_S[args.workload]
    watchdog_ms = int(WATCHDOG_FACTOR * expected_s * 1000)

    records, killed, killed_attempted, micro, samples = [], 0, 0, None, {}
    try:
        if args.trace:
            micro, _, _ = run_child([runner, "micro", "--millis", str(MICRO_BATCH_MS)], 60, env)
        for i in range(RUNS):
            left = BUDGET_S - (time.monotonic() - started)
            if left < expected_s + 5:
                log(f"perfbench: time budget spent; {RUNS - i} run(s) skipped")
                break
            seed = args.seed * 1000 + i
            cmd = [runner, "rep", "--workload", args.workload, "--seed", str(seed),
                   "--millis", str(measure_ms), "--watchdog-ms", str(watchdog_ms)]
            if args.trace:
                cmd.append("--traced")
            timeout = min(watchdog_ms / 1000 + 10, left)
            rec, dog, run_samples = run_child(cmd, timeout, env)
            if rec is not None:
                records.append(rec)
                for name, values in run_samples.items():
                    samples.setdefault(name, []).extend(values)
                continue
            killed += 1
            killed_attempted += int(dog["attempted"]) if dog else 1
            log(f"perfbench: run failed: workload={args.workload} seed={seed}")
            if dog:
                log("perfbench: watchdog record: " + json.dumps(dog))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass

    if not records:
        log("perfbench: no run completed")
        return 1
    agg = aggregate(records, killed, killed_attempted)
    med = agg["medians"]
    if micro:
        med.update(micro)
    med.update(latency_metrics(samples))
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [k for k in wanted if k not in med]
    if missing:
        log(f"perfbench: runner did not report {missing}")
        return 1

    print(host_line())
    print("device model: disk 400 us, net hop 40 us; private log forced at commit, "
          "group commit on; server pages written on eviction only; lock_timeout 2 s")
    print(f"workload={args.workload} seed={args.seed} runs={len(records)} killed={killed} "
          f"measured={measure_ms} ms/run, medians over runs")
    print(f"transactions: attempted={agg['attempted']} given_up={agg['given_up']} "
          f"lost_objects={agg['lost']} killed_runs={killed} failed_frac={agg['failed_frac']:.6f}")
    print(f"latency percentiles over all runs: {med['txn_samples']} transactions, "
          f"{med['commit_samples']} commits (untraced phases)")
    if not args.trace:
        print(f"  latency tails, per-layer metrics with no bound: "
              f"txn_p99_us {med['txn_p99_us']:.4f}, commit_p99_us {med['commit_p99_us']:.4f}")
    for name, unit in wanted.items():
        print(f"  {name:<44} {med[name]:>14.4f} {unit}")
    metrics = {k: {"value": med[k], "unit": u} for k, u in wanted.items()}
    print(json.dumps({
        "correct": agg["correct"],
        "attempted": agg["attempted"],
        "failed": agg["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
