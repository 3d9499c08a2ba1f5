//! End-to-end and per-layer metrics, read from outside the program:
//! `System::metrics_snapshot()` deltas, registry histograms, scheduler
//! counters, the span tracer, and the benchmark's own timing around
//! public calls. Layer names are the crate names.

use crate::drive::PhaseResult;
use crate::stats::{frac, median, per_commit, percentile, Record};
use fgl::{ClientRecoveryReport, HistKind, RestartReport, Snapshot};
use fgl_net::NetSnapshot;
use fgl_obs::trace::TraceReport;
use fgl_sched::SchedStats;

/// Histograms and counters summed over several measured intervals.
pub fn add_snapshot(acc: &mut Snapshot, d: &Snapshot) {
    for (k, v) in &d.counters {
        *acc.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, h) in &d.hists {
        let a = acc.hists.entry(k.clone()).or_default();
        a.count += h.count;
        a.sum += h.sum;
        a.max = a.max.max(h.max);
        for (x, y) in a.buckets.iter_mut().zip(h.buckets.iter()) {
            *x += y;
        }
    }
}

pub fn add_sched(acc: &mut SchedStats, d: &SchedStats) {
    acc.context_switches += d.context_switches;
    acc.worker_parks += d.worker_parks;
    acc.timer_fires += d.timer_fires;
}

/// Everything measured over the timed phases of one run.
#[derive(Default)]
pub struct Measured {
    pub phases: PhaseResult,
    /// Summed `metrics_snapshot()` deltas over the phases.
    pub snap: Snapshot,
    pub sched: SchedStats,
    pub cpu_us: u64,
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counters.get(name).copied().unwrap_or(0) as f64
}

fn hist_p(s: &Snapshot, kind: HistKind, p: f64) -> f64 {
    s.hist(kind).map_or(0.0, |h| h.quantile(p) as f64)
}

/// Percentile `p` of nanosecond samples, in µs (0 when empty).
fn us_at(samples_ns: &mut [u64], p: f64) -> f64 {
    percentile(samples_ns, p).map_or(0.0, |ns| ns as f64 / 1000.0)
}

/// The user-visible rates and ratios of one run. Latency percentiles
/// are taken by `run.py` over the samples of every run together;
/// `setup_s` and `peak_rss_mib` are added by the caller.
pub fn end_to_end(m: &Measured) -> Record {
    let mut r = Record::default();
    let commits = m.phases.commits;
    let secs = m.phases.elapsed.as_secs_f64();
    r.set("commits_per_s", frac(commits as f64, secs));
    r.set("cpu_us_per_commit", per_commit(m.cpu_us as f64, commits));
    r.set(
        "log_bytes_per_commit",
        per_commit(counter(&m.snap, "client_log_bytes"), commits),
    );
    r.set(
        "msgs_per_commit",
        per_commit(counter(&m.snap, "net_total_messages"), commits),
    );
    r
}

/// Per-layer metrics from an untraced interval's counters and
/// histograms.
pub fn from_counters(m: &Measured) -> Record {
    let s = &m.snap;
    let commits = m.phases.commits;
    let pc = |name: &str| per_commit(counter(s, name), commits);
    let mut r = Record::default();

    // client
    let local = counter(s, "client_local_grants");
    let global = counter(s, "client_global_lock_requests");
    r.set("client.local_grant_frac", frac(local, local + global));

    // locks
    r.set(
        "locks.lock_wait_p50_us",
        hist_p(s, HistKind::LockWait, 50.0),
    );
    r.set(
        "locks.lock_wait_p99_us",
        hist_p(s, HistKind::LockWait, 99.0),
    );
    r.set(
        "locks.global_requests_per_commit",
        pc("client_global_lock_requests"),
    );
    r.set(
        "locks.deadlock_victims_per_1k",
        1000.0 * pc("client_deadlock_victims"),
    );
    r.set("locks.lock_timeouts", counter(s, "client_lock_timeouts"));

    // server
    r.set(
        "server.callback_rtt_p50_us",
        hist_p(s, HistKind::CallbackRoundTrip, 50.0),
    );
    r.set("server.callbacks_per_commit", pc("msg_callback"));
    r.set("server.merge_p50_us", hist_p(s, HistKind::Merge, 50.0));
    r.set("server.merges_per_commit", pc("server_merges"));
    r.set(
        "server.page_fetch_p50_us",
        hist_p(s, HistKind::PageFetch, 50.0),
    );
    r.set("server.page_fetches_per_commit", pc("server_page_fetches"));
    r.set(
        "server.pages_flushed_per_commit",
        pc("server_pages_flushed"),
    );
    r.set(
        "server.replacement_records_per_commit",
        pc("server_replacement_records"),
    );

    // wal
    r.set("wal.log_force_p50_us", hist_p(s, HistKind::LogForce, 50.0));
    r.set("wal.forces_per_commit", pc("client_log_forces"));
    let forced = counter(s, "client_commits_forced");
    let piggy = counter(s, "client_commits_piggybacked");
    r.set("wal.piggyback_frac", frac(piggy, forced + piggy));
    r.set(
        "wal.group_commit_wait_p50_us",
        hist_p(s, HistKind::GroupCommit, 50.0),
    );
    for kind in fgl_wal::records::KIND_NAMES {
        r.set(
            &format!("wal.bytes_{kind}_per_commit"),
            pc(&format!("wal_bytes_{kind}")),
        );
    }

    // storage
    r.set("storage.disk_reads_per_commit", pc("disk_reads"));
    r.set("storage.disk_writes_per_commit", pc("disk_writes"));

    // net
    for i in 0..NetSnapshot::default().counts.len() {
        let kind = NetSnapshot::kind_name(i);
        r.set(
            &format!("net.msgs_{kind}_per_commit"),
            pc(&format!("msg_{kind}")),
        );
    }
    r.set("net.wire_rtt_p50_us", hist_p(s, HistKind::WireRtt, 50.0));
    r.set("net.wire_rtt_p99_us", hist_p(s, HistKind::WireRtt, 99.0));
    r.set("net.wire_bytes_per_commit", pc("wire_total_bytes"));

    // sched
    let sc = |v: u64| per_commit(v as f64, commits);
    r.set(
        "sched.context_switches_per_commit",
        sc(m.sched.context_switches),
    );
    r.set("sched.worker_parks_per_commit", sc(m.sched.worker_parks));
    r.set("sched.timer_fires_per_commit", sc(m.sched.timer_fires));
    r
}

/// Critical-path bucket tags and the metric each lands in.
pub const CP_BUCKETS: [(&str, &str); 8] = [
    ("lock-wait", "cp.lock_wait_us_per_commit"),
    ("callback-rtt", "cp.callback_rtt_us_per_commit"),
    ("wal-force", "cp.wal_force_us_per_commit"),
    ("net-hop", "cp.net_hop_us_per_commit"),
    ("page-fetch", "cp.page_fetch_us_per_commit"),
    ("commit-log-ship", "cp.commit_log_ship_us_per_commit"),
    ("sched-wait", "cp.sched_wait_us_per_commit"),
    ("commit", "cp.self_us_per_commit"),
];

/// Per-layer metrics from a traced interval: the benchmark's own call
/// timings and the assembled critical paths. Returns the record and the
/// number of commits whose buckets do not sum to their root span.
pub fn from_trace(traced: &mut PhaseResult, trace: &TraceReport) -> (Record, usize) {
    let mut r = Record::default();
    r.set("client.read_us", us_at(&mut traced.read_ns, 50.0));
    r.set("client.write_us", us_at(&mut traced.write_ns, 50.0));
    r.set("client.commit_call_us", us_at(&mut traced.commit_ns, 50.0));
    let roots = trace.commits.len() as u64;
    let totals = trace.bucket_totals();
    for (tag, name) in CP_BUCKETS {
        let us = totals.get(tag).copied().unwrap_or(0);
        r.set(name, per_commit(us as f64, roots));
    }
    let broken = trace
        .commits
        .iter()
        .filter(|c| c.buckets.values().sum::<u64>() != c.total_us)
        .count();
    (r, broken)
}

/// Recovery phase metrics: medians over the rounds of one run.
pub fn from_recoveries(clients: &[ClientRecoveryReport], servers: &[Vec<RestartReport>]) -> Record {
    let mut r = Record::default();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1000.0;
    let med = |f: &dyn Fn(&ClientRecoveryReport) -> f64| {
        median(&mut clients.iter().map(f).collect::<Vec<_>>())
    };
    r.set("client_recovery_ms", med(&|c| ms(c.elapsed)));
    r.set("client.recovery_analysis_ms", med(&|c| ms(c.analysis)));
    r.set("client.recovery_redo_ms", med(&|c| ms(c.redo)));
    r.set("client.recovery_undo_ms", med(&|c| ms(c.undo)));
    r.set(
        "client.recovery_records_scanned",
        med(&|c| c.records_scanned as f64),
    );
    r.set("client.recovery_pages", med(&|c| c.pages_recovered as f64));
    // One restart round restarts every server instance; sum within it.
    let smed = |f: &dyn Fn(&RestartReport) -> f64| {
        median(
            &mut servers
                .iter()
                .map(|round| round.iter().map(f).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    r.set("server_restart_ms", smed(&|s| ms(s.elapsed)));
    r.set("server.restart_gather_ms", smed(&|s| ms(s.gather)));
    r.set(
        "server.restart_dct_rebuild_ms",
        smed(&|s| ms(s.dct_rebuild)),
    );
    r.set("server.restart_replay_ms", smed(&|s| ms(s.replay)));
    r.set(
        "server.restart_records_scanned",
        smed(&|s| s.records_scanned as f64),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn end_to_end_ratios_use_commits_as_base() {
        let mut m = Measured::default();
        m.phases.commits = 4;
        m.phases.elapsed = Duration::from_secs(2);
        m.cpu_us = 1200;
        m.snap.set_counter("client_log_bytes", 800);
        m.snap.set_counter("net_total_messages", 36);
        let r = end_to_end(&m);
        assert_eq!(r.get("commits_per_s"), Some(2.0));
        assert_eq!(r.get("cpu_us_per_commit"), Some(300.0));
        assert_eq!(r.get("log_bytes_per_commit"), Some(200.0));
        assert_eq!(r.get("msgs_per_commit"), Some(9.0));
    }

    #[test]
    fn per_layer_fractions_and_per_commit_counts() {
        let mut m = Measured::default();
        m.phases.commits = 10;
        m.snap.set_counter("client_local_grants", 30);
        m.snap.set_counter("client_global_lock_requests", 10);
        m.snap.set_counter("client_commits_forced", 4);
        m.snap.set_counter("client_commits_piggybacked", 6);
        m.snap.set_counter("client_deadlock_victims", 2);
        m.snap.set_counter("msg_callback", 5);
        m.sched.context_switches = 70;
        let r = from_counters(&m);
        assert_eq!(r.get("client.local_grant_frac"), Some(0.75));
        assert_eq!(r.get("wal.piggyback_frac"), Some(0.6));
        assert_eq!(r.get("locks.global_requests_per_commit"), Some(1.0));
        assert_eq!(r.get("locks.deadlock_victims_per_1k"), Some(200.0));
        assert_eq!(r.get("server.callbacks_per_commit"), Some(0.5));
        assert_eq!(r.get("sched.context_switches_per_commit"), Some(7.0));
        // Zero commits: per-commit ratios read zero, never NaN.
        let empty = from_counters(&Measured::default());
        assert_eq!(empty.get("wal.forces_per_commit"), Some(0.0));
    }

    #[test]
    fn snapshots_sum_across_intervals() {
        let mut a = Snapshot::default();
        let mut d = Snapshot::default();
        d.set_counter("x", 3);
        add_snapshot(&mut a, &d);
        add_snapshot(&mut a, &d);
        assert_eq!(a.counters["x"], 6);
    }

    #[test]
    fn restart_rounds_sum_instances_then_take_the_median() {
        let rr = |ms: u64| RestartReport {
            pages_recovered: 0,
            clients_involved: 0,
            recovery_units: 0,
            records_scanned: 10,
            elapsed: Duration::from_millis(ms),
            gather: Duration::ZERO,
            dct_rebuild: Duration::ZERO,
            replay: Duration::ZERO,
        };
        let rounds = vec![vec![rr(1), rr(2)], vec![rr(10)], vec![rr(4), rr(4)]];
        let r = from_recoveries(&[], &rounds);
        assert_eq!(r.get("server_restart_ms"), Some(8.0));
        assert_eq!(r.get("server.restart_records_scanned"), Some(20.0));
        assert_eq!(r.get("client_recovery_ms"), Some(0.0));
    }
}
