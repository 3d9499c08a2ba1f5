//! The closed-loop load generator and the oracle check.
//!
//! One committer per client runs as an `fgl_sched` green task; the tasks
//! share a fixed worker pool. Each committer starts its next transaction
//! as soon as the previous one commits or is given up (zero think time)
//! and stops starting new ones at the phase deadline.

use fgl::{ClientCore, FglError, ObjectId, System, TxnId};
use fgl_common::rng::DetRng;
use fgl_sim::workload::{Op, TxnTemplate, WorkloadSpec};
use fgl_sim::Oracle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retries after a deadlock or lock-timeout abort before a transaction
/// is given up (the harness default).
const MAX_RETRIES: usize = 10;

/// Live counters, readable while a phase runs (the watchdog dumps them).
#[derive(Default)]
pub struct Progress {
    pub attempted: AtomicU64,
    pub commits: AtomicU64,
}

/// What one timed phase produced.
#[derive(Default)]
pub struct PhaseResult {
    pub elapsed: Duration,
    pub attempted: u64,
    pub commits: u64,
    /// Transactions given up after [`MAX_RETRIES`] aborts.
    pub given_up: u64,
    /// Transactions that failed with an error other than an abort (also
    /// counted in `given_up`).
    pub errors: u64,
    pub first_error: Option<String>,
    /// First `begin` to successful `commit` return, retries included (ns).
    pub txn_ns: Vec<u64>,
    /// Time inside the successful `commit` call (ns).
    pub commit_ns: Vec<u64>,
    /// Per-call times of `read` / `write` in ns (only when `op_timing`).
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
}

impl PhaseResult {
    /// Fold `other` in; elapsed times add up.
    pub fn absorb(&mut self, other: PhaseResult) {
        self.elapsed += other.elapsed;
        self.attempted += other.attempted;
        self.commits += other.commits;
        self.given_up += other.given_up;
        self.errors += other.errors;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.txn_ns.extend(other.txn_ns);
        self.commit_ns.extend(other.commit_ns);
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
    }
}

/// Run every client of `sys` closed-loop for `duration` on `workers`
/// scheduler threads. Committed write sets go to `oracle`.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    sys: &System,
    spec: &WorkloadSpec,
    object_size: usize,
    oracle: &Oracle,
    seed: u64,
    duration: Duration,
    workers: usize,
    op_timing: bool,
    progress: &Progress,
) -> PhaseResult {
    let n = sys.clients.len();
    let mut master = DetRng::new(seed);
    let seeds: Vec<u64> = (0..n).map(|t| master.fork(t as u64).next_u64()).collect();
    let start = Instant::now();
    let deadline = start + duration;
    let slots: Vec<Mutex<PhaseResult>> = (0..n).map(|_| Mutex::default()).collect();
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
        .map(|t| {
            let slot = &slots[t];
            let client = &sys.clients[t];
            let seed = seeds[t];
            Box::new(move || {
                let mut rng = DetRng::new(seed);
                let mut out = PhaseResult::default();
                while Instant::now() < deadline {
                    let template = spec.next_txn(t, n, &mut rng);
                    let commits = out.commits;
                    drive_one(
                        client,
                        &template,
                        object_size,
                        oracle,
                        &mut rng,
                        op_timing,
                        &mut out,
                    );
                    progress.attempted.fetch_add(1, Ordering::Relaxed);
                    progress
                        .commits
                        .fetch_add(out.commits - commits, Ordering::Relaxed);
                }
                *slot.lock().expect("a thread panicked holding this lock") = out;
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    fgl_sched::run_scoped(workers, jobs);
    let mut total = PhaseResult {
        elapsed: start.elapsed(),
        ..PhaseResult::default()
    };
    for s in slots {
        total.absorb(s.into_inner().expect("a thread panicked holding this lock"));
    }
    total
}

/// One transaction template, retried on aborts; tallies into `out`.
fn drive_one(
    client: &Arc<ClientCore>,
    template: &TxnTemplate,
    object_size: usize,
    oracle: &Oracle,
    rng: &mut DetRng,
    op_timing: bool,
    out: &mut PhaseResult,
) {
    out.attempted += 1;
    let first_begin = Instant::now();
    for _ in 0..=MAX_RETRIES {
        match attempt(client, template, object_size, oracle, rng, op_timing, out) {
            Ok(commit) => {
                out.commits += 1;
                out.commit_ns.push(commit.as_nanos() as u64);
                out.txn_ns.push(first_begin.elapsed().as_nanos() as u64);
                return;
            }
            Err(e) if e.is_transaction_abort() => continue,
            Err(e) => {
                out.errors += 1;
                out.first_error.get_or_insert_with(|| e.to_string());
                break;
            }
        }
    }
    out.given_up += 1;
}

/// One attempt; returns the time spent in `commit`. Aborts the
/// transaction on any error so the client is left clean.
fn attempt(
    client: &Arc<ClientCore>,
    template: &TxnTemplate,
    object_size: usize,
    oracle: &Oracle,
    rng: &mut DetRng,
    op_timing: bool,
    out: &mut PhaseResult,
) -> fgl::Result<Duration> {
    let txn = client.begin()?;
    let mut writes: Vec<(ObjectId, Option<Vec<u8>>)> = Vec::new();
    let body = (|| {
        for op in &template.ops {
            let t0 = op_timing.then(Instant::now);
            match op {
                Op::Read(o) => {
                    client.read(txn, *o)?;
                    if let Some(t0) = t0 {
                        out.read_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                }
                Op::Write(o) => {
                    let mut value = vec![0u8; object_size];
                    rng.fill_bytes(&mut value);
                    client.write(txn, *o, &value)?;
                    if let Some(t0) = t0 {
                        out.write_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                    writes.push((*o, Some(value)));
                }
                Op::Resize(o) => {
                    client.resize(txn, *o, object_size + 8)?;
                    client.resize(txn, *o, object_size)?;
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = body {
        client.abort(txn).ok();
        return Err(e);
    }
    let commit_start = Instant::now();
    // The oracle records the write set inside the commit's
    // pre-lock-release window, so oracle order is serialization order.
    client.commit_with(txn, || oracle.commit_writes(&writes))?;
    Ok(commit_start.elapsed())
}

/// Outcome of reading every object back against the oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    pub checked: usize,
    /// Objects whose committed value could not be read back: a stale or
    /// missing value, or a read that failed outright.
    pub lost: Vec<ObjectId>,
    pub first_error: Option<String>,
}

/// Objects read per verification transaction.
const CHECK_BATCH: usize = 128;

/// Read every object in `objects` through `reader` (the full lock and
/// callback protocol) and compare with the oracle. A value the oracle
/// expects but the system cannot produce is counted in `lost`, never
/// raised. With `resync`, the oracle adopts what was read, so a later
/// check counts only new losses.
fn check(
    reader: &Arc<ClientCore>,
    oracle: &Oracle,
    objects: &[ObjectId],
    resync: bool,
) -> CheckReport {
    let mut report = CheckReport::default();
    let mut open: Option<TxnId> = None;
    for (i, &o) in objects.iter().enumerate() {
        report.checked += 1;
        match read_back(reader, &mut open, o) {
            Ok(got) => {
                if got != oracle.expected(o).unwrap_or(None) {
                    report.lost.push(o);
                    if resync {
                        oracle.commit_writes(&[(o, got)]);
                    }
                }
            }
            Err(e) => {
                report.first_error.get_or_insert_with(|| e.to_string());
                report.lost.push(o);
            }
        }
        if (i + 1) % CHECK_BATCH == 0 {
            finish(reader, open.take());
        }
    }
    finish(reader, open);
    report
}

/// Read one object in the open verification transaction (beginning one
/// if needed); `None` for a deleted object. A deadlock or lock-timeout
/// abort is retried in a fresh transaction, so only a read that keeps
/// failing counts against the system.
fn read_back(
    reader: &Arc<ClientCore>,
    open: &mut Option<TxnId>,
    o: ObjectId,
) -> fgl::Result<Option<Vec<u8>>> {
    let mut attempts = 0;
    loop {
        let txn = match *open {
            Some(t) => t,
            None => *open.insert(reader.begin()?),
        };
        match reader.read(txn, o) {
            Ok(bytes) => return Ok(Some(bytes)),
            Err(FglError::ObjectNotFound(_)) => return Ok(None),
            Err(e) => {
                reader.abort(txn).ok();
                *open = None;
                attempts += 1;
                if !e.is_transaction_abort() || attempts > MAX_RETRIES {
                    return Err(e);
                }
            }
        }
    }
}

/// [`check`] with the objects split into one contiguous slice per
/// client, every client reading its slice concurrently on `workers`
/// scheduler threads, so the check reads through every client.
pub fn check_all(
    sys: &System,
    oracle: &Oracle,
    objects: &[ObjectId],
    resync: bool,
    workers: usize,
) -> CheckReport {
    let per = objects.len().div_ceil(sys.clients.len()).max(1);
    let slots: Vec<Mutex<CheckReport>> = objects.chunks(per).map(|_| Mutex::default()).collect();
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = objects
        .chunks(per)
        .zip(&slots)
        .zip(&sys.clients)
        .map(|((chunk, slot), client)| {
            Box::new(move || {
                *slot.lock().expect("a thread panicked holding this lock") =
                    check(client, oracle, chunk, resync)
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    fgl_sched::run_scoped(workers, jobs);
    let mut all = CheckReport::default();
    for s in slots {
        let r = s.into_inner().expect("a thread panicked holding this lock");
        all.checked += r.checked;
        all.lost.extend(r.lost);
        if all.first_error.is_none() {
            all.first_error = r.first_error;
        }
    }
    all
}

/// Commit a read-only verification transaction (abort if that fails).
fn finish(reader: &Arc<ClientCore>, txn: Option<TxnId>) {
    if let Some(t) = txn {
        if reader.commit(t).is_err() {
            reader.abort(t).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl::{PageId, SlotId, SystemConfig};
    use fgl_sim::crash::prepare;
    use fgl_sim::workload::WorkloadKind;

    fn small() -> (System, fgl_sim::DatabaseLayout, Arc<Oracle>, WorkloadSpec) {
        let sys = System::build(SystemConfig::default(), 2).unwrap();
        let mut spec = WorkloadSpec::new(WorkloadKind::HotCold);
        spec.pages = 8;
        spec.objects_per_page = 4;
        spec.ops_per_txn = 4;
        let (layout, oracle) = prepare(&sys, &spec).unwrap();
        (sys, layout, oracle, spec)
    }

    #[test]
    fn clean_run_checks_clean() {
        let (sys, layout, oracle, spec) = small();
        let progress = Progress::default();
        let r = run_phase(
            &sys,
            &spec,
            layout.object_size,
            &oracle,
            1,
            Duration::from_millis(50),
            2,
            true,
            &progress,
        );
        assert!(r.commits > 0);
        assert_eq!(r.commits as usize, r.txn_ns.len());
        assert_eq!(r.txn_ns.len(), r.commit_ns.len());
        assert_eq!(r.attempted, r.commits + r.given_up);
        assert_eq!(progress.attempted.load(Ordering::Relaxed), r.attempted);
        assert!(!r.read_ns.is_empty());
        let c = check(sys.client(1), &oracle, &layout.objects, false);
        assert_eq!(c.checked, layout.objects.len());
        assert!(c.lost.is_empty(), "{:?}", c.lost);
        let all = check_all(&sys, &oracle, &layout.objects, false, 2);
        assert_eq!(all, c);
    }

    #[test]
    fn stale_value_counts_as_lost_and_resync_forgets_it() {
        let (sys, layout, oracle, _) = small();
        // The oracle expects a write the system never saw.
        let o = layout.objects[3];
        oracle.commit_writes(&[(o, Some(vec![0xAB; 32]))]);
        let c = check(sys.client(0), &oracle, &layout.objects, true);
        assert_eq!(c.lost, vec![o]);
        assert!(c.first_error.is_none());
        let again = check(sys.client(0), &oracle, &layout.objects, true);
        assert!(again.lost.is_empty());
    }

    #[test]
    fn unreadable_expected_object_is_a_failure_not_a_panic() {
        let (sys, layout, oracle, _) = small();
        // An object on a page that does not exist: the read itself fails.
        let ghost = ObjectId::new(PageId(9_999), SlotId(0));
        oracle.commit_writes(&[(ghost, Some(vec![1; 32]))]);
        let mut objects = layout.objects.clone();
        objects.insert(1, ghost);
        let c = check(sys.client(0), &oracle, &objects, false);
        assert_eq!(c.checked, objects.len());
        assert!(c.lost.contains(&ghost));
        assert!(c.first_error.is_some());
        // A deleted object the oracle still expects is lost as well.
        let (sys, layout, oracle, _) = small();
        let victim = layout.objects[0];
        let t = sys.client(0).begin().unwrap();
        sys.client(0).remove(t, victim).unwrap();
        sys.client(0).commit(t).unwrap();
        let c = check_all(&sys, &oracle, &layout.objects, false, 2);
        assert_eq!(c.lost, vec![victim]);
    }
}
