//! One measured run of one benchmark workload, or the per-layer
//! microbenchmarks. `run.py` starts this binary once per run, reads the
//! `RESULT {...}` line it prints last (and the `SAMPLES` latency lines
//! of the untraced phases before it), and aggregates several runs.
//!
//! ```text
//! fgl-perfbench rep --workload <name> --seed <n> --millis <ms> [--traced] [--watchdog-ms <ms>]
//! fgl-perfbench micro --millis <ms>
//! ```
//!
//! `rep` builds the system, populates it and seeds the oracle (timed as
//! set-up), runs the workload closed-loop for `--millis` of measured
//! time, and reads every object back against the oracle. With
//! `--traced` the measured time is split: the first half runs untraced
//! (counters and histograms), the second with span tracing on (critical
//! paths and call timings). A run still going after `--watchdog-ms`
//! prints `WATCHDOG {...}` with its seed and a metrics snapshot, and
//! exits with status 3.

mod drive;
mod layers;
mod micro;
mod stats;
mod workloads;

use drive::{check_all, run_phase, PhaseResult, Progress};
use fgl::System;
use fgl_obs::sink::{install_sink, EventSink};
use fgl_obs::trace::{self, TraceReport};
use fgl_obs::{Event, Stamped};
use fgl_sim::crash::prepare;
use fgl_sim::{DatabaseLayout, Oracle};
use layers::Measured;
use stats::{process_cpu_us, Record};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::{Shape, Workload, CRASH_ROUNDS, OBJECT_SIZE};

static PROGRESS: Progress = Progress {
    attempted: AtomicU64::new(0),
    commits: AtomicU64::new(0),
};

/// The system under test, for the watchdog's snapshot.
static SYSTEM: Mutex<Option<Arc<System>>> = Mutex::new(None);

struct Args {
    workload: String,
    seed: u64,
    millis: u64,
    traced: bool,
    watchdog_ms: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        millis: 2000,
        traced: false,
        watchdog_ms: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = number(value()?)?,
            "--millis" => a.millis = number(value()?)?,
            "--watchdog-ms" => a.watchdog_ms = number(value()?)?,
            "--traced" => a.traced = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("usage: fgl-perfbench rep|micro [flags]");
        std::process::exit(2);
    };
    let args = parse(&argv[1..]).unwrap_or_else(|e| {
        eprintln!("fgl-perfbench: {e}");
        std::process::exit(2);
    });
    let record = match cmd.as_str() {
        "rep" => {
            let Some(w) = workloads::by_name(&args.workload) else {
                eprintln!(
                    "fgl-perfbench: unknown workload `{}` (one of {:?})",
                    args.workload,
                    workloads::NAMES
                );
                std::process::exit(2);
            };
            if args.watchdog_ms > 0 {
                arm_watchdog(Duration::from_millis(args.watchdog_ms), &args);
            }
            rep(&w, &args)
        }
        "micro" => micro::run(Duration::from_millis(args.millis.max(5))),
        other => {
            eprintln!("fgl-perfbench: unknown command `{other}`");
            std::process::exit(2);
        }
    };
    println!("RESULT {}", record.to_json());
}

/// After `limit`, dump the run's seed, progress and metrics snapshot and
/// exit with status 3. The thread is detached: a run that ends in time
/// simply exits past it.
fn arm_watchdog(limit: Duration, args: &Args) {
    let (workload, seed) = (args.workload.clone(), args.seed);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        // The snapshot takes system locks; give it a few seconds at most.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let sys = SYSTEM
                .lock()
                .expect("a thread panicked holding this lock")
                .clone();
            let _ = tx.send(sys.map(|s| s.metrics_snapshot().to_json()));
        });
        let snapshot = rx
            .recv_timeout(Duration::from_secs(5))
            .ok()
            .flatten()
            .unwrap_or_else(|| "null".into());
        println!(
            "WATCHDOG {{\"workload\": \"{workload}\", \"seed\": {seed}, \"limit_ms\": {}, \
             \"attempted\": {}, \"commits\": {}, \"snapshot\": {}}}",
            limit.as_millis(),
            PROGRESS.attempted.load(Ordering::Relaxed),
            PROGRESS.commits.load(Ordering::Relaxed),
            snapshot.replace('\n', " "),
        );
        let _ = std::io::stdout().flush();
        std::process::exit(3);
    });
}

/// Keeps only span and scheduler-wait events: what the assembler needs.
#[derive(Default)]
struct SpanSink {
    events: Mutex<Vec<Stamped>>,
}

impl EventSink for SpanSink {
    fn record(&self, st: &Stamped) {
        if matches!(
            st.event,
            Event::SpanOpen { .. } | Event::SpanClose { .. } | Event::SchedWait { .. }
        ) {
            self.events
                .lock()
                .expect("a thread panicked holding this lock")
                .push(*st);
        }
    }
}

/// The state one run drives: the system, its database and the oracle.
struct Bench<'a> {
    w: &'a Workload,
    sys: Arc<System>,
    layout: DatabaseLayout,
    oracle: Arc<Oracle>,
    workers: usize,
    seed: u64,
    phase_no: u64,
    /// Every transaction attempted or given up, warm-up included.
    attempted: u64,
    given_up: u64,
    errors: u64,
    lost: u64,
    checked: u64,
    /// Untraced measured phases.
    untraced: Measured,
    /// Traced phases and their assembled critical paths.
    traced: PhaseResult,
    trace: TraceReport,
}

impl Bench<'_> {
    fn phase(&mut self, millis: u64, op_timing: bool) -> PhaseResult {
        self.phase_no += 1;
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.phase_no);
        let r = run_phase(
            &self.sys,
            &self.w.spec,
            OBJECT_SIZE,
            &self.oracle,
            seed,
            Duration::from_millis(millis),
            self.workers,
            op_timing,
            &PROGRESS,
        );
        self.attempted += r.attempted;
        self.given_up += r.given_up;
        self.errors += r.errors;
        if let Some(e) = &r.first_error {
            eprintln!("fgl-perfbench: {}: transaction failed: {e}", self.w.name);
        }
        r
    }

    /// An untraced phase with counter, scheduler and CPU deltas.
    fn measured(&mut self, millis: u64) {
        let snap0 = self.sys.metrics_snapshot();
        let sched0 = fgl_sched::sched_stats();
        let cpu0 = process_cpu_us();
        let r = self.phase(millis, false);
        let cpu = process_cpu_us() - cpu0;
        let sched = fgl_sched::sched_stats().delta_since(&sched0);
        let snap = self.sys.metrics_snapshot().delta_since(&snap0);
        let m = &mut self.untraced;
        m.cpu_us += cpu;
        layers::add_sched(&mut m.sched, &sched);
        layers::add_snapshot(&mut m.snap, &snap);
        m.phases.absorb(r);
    }

    /// A phase with span tracing on and benchmark-side call timing.
    fn traced(&mut self, millis: u64) {
        let sink = Arc::new(SpanSink::default());
        let guard = install_sink(sink.clone());
        trace::set_enabled(true);
        let r = self.phase(millis, true);
        trace::set_enabled(false);
        drop(guard);
        let events = std::mem::take(
            &mut *sink
                .events
                .lock()
                .expect("a thread panicked holding this lock"),
        );
        let commits = trace::assemble(&events).commits;
        self.trace.commits.extend(commits);
        self.traced.absorb(r);
    }

    /// Read every object back, each client reading its share; with
    /// `resync` the oracle adopts what it read, so later checks count
    /// new losses only.
    fn check(&mut self, resync: bool) {
        let objects = &self.layout.objects;
        let c = check_all(&self.sys, &self.oracle, objects, resync, self.workers);
        self.checked += c.checked as u64;
        self.lost += c.lost.len() as u64;
        if !c.lost.is_empty() {
            let shown: Vec<String> = c.lost.iter().take(8).map(|o| o.to_string()).collect();
            eprintln!(
                "fgl-perfbench: {} seed {}: {} of {} committed objects not read back: {}{}",
                self.w.name,
                self.seed,
                c.lost.len(),
                c.checked,
                shown.join(" "),
                c.first_error.map(|e| format!(" ({e})")).unwrap_or_default(),
            );
        }
    }
}

fn rep(w: &Workload, args: &Args) -> Record {
    let setup = Instant::now();
    let sys = Arc::new(System::build(w.config.clone(), w.clients).expect("build system"));
    *SYSTEM.lock().expect("a thread panicked holding this lock") = Some(sys.clone());
    let (layout, oracle) = prepare(&sys, &w.spec).expect("populate and seed the oracle");
    let setup_s = setup.elapsed().as_secs_f64();

    let mut b = Bench {
        w,
        sys,
        layout,
        oracle,
        workers: fgl_sched::default_workers(),
        seed: args.seed,
        phase_no: 0,
        attempted: 0,
        given_up: 0,
        errors: 0,
        lost: 0,
        checked: 0,
        untraced: Measured::default(),
        traced: PhaseResult::default(),
        trace: TraceReport::default(),
    };
    let (mut client_recoveries, mut server_restarts) = (Vec::new(), Vec::new());
    let n = w.clients;
    match w.shape {
        Shape::Timed => {
            // Warm the caches; not measured, but its failures count.
            let warmup = (args.millis / 10).clamp(100, 500).max(w.min_warmup_ms);
            b.phase(warmup, false);
            if args.traced {
                b.measured(args.millis / 2);
                b.traced(args.millis / 2);
            } else {
                b.measured(args.millis);
            }
            b.check(false);
        }
        Shape::CrashRestart { client_crash } => {
            let phase_ms = args.millis / (2 * CRASH_ROUNDS as u64);
            for round in 0..CRASH_ROUNDS {
                b.measured(phase_ms);
                if client_crash {
                    let victim = round % n;
                    b.sys.client(victim).crash();
                    let report = b.sys.client(victim).recover().expect("client recovery");
                    eprintln!(
                        "fgl-perfbench: {} round {round}: client {victim} recover {:.1} ms",
                        w.name,
                        report.elapsed.as_secs_f64() * 1000.0,
                    );
                    client_recoveries.push(report);
                    b.check(true);
                }
                if args.traced {
                    b.traced(phase_ms);
                } else {
                    b.measured(phase_ms);
                }
                for s in &b.sys.servers {
                    s.crash();
                }
                let reports = b
                    .sys
                    .servers
                    .iter()
                    .map(|s| s.restart_recovery().expect("server restart"))
                    .collect::<Vec<_>>();
                let ms = |d: Duration| d.as_secs_f64() * 1000.0;
                eprintln!(
                    "fgl-perfbench: {} round {round}: server restart {:.1} ms \
                     (gather {:.1}, dct {:.1}, replay {:.1})",
                    w.name,
                    reports.iter().map(|r| ms(r.elapsed)).sum::<f64>(),
                    reports.iter().map(|r| ms(r.gather)).sum::<f64>(),
                    reports.iter().map(|r| ms(r.dct_rebuild)).sum::<f64>(),
                    reports.iter().map(|r| ms(r.replay)).sum::<f64>(),
                );
                server_restarts.push(reports);
                b.check(true);
            }
        }
    }

    print_samples("txn_ns", &b.untraced.phases.txn_ns);
    print_samples("commit_ns", &b.untraced.phases.commit_ns);
    let mut r = if args.traced {
        let mut r = layers::from_counters(&b.untraced);
        let (t, broken) = layers::from_trace(&mut b.traced, &b.trace);
        r.extend(t);
        r.set("cp_identity_violations", broken as f64);
        let untraced = stats::frac(
            b.untraced.phases.commits as f64,
            b.untraced.phases.elapsed.as_secs_f64(),
        );
        let traced = stats::frac(b.traced.commits as f64, b.traced.elapsed.as_secs_f64());
        r.set("trace.overhead_frac", stats::frac(untraced, traced) - 1.0);
        r
    } else {
        layers::end_to_end(&b.untraced)
    };
    r.extend(layers::from_recoveries(
        &client_recoveries,
        &server_restarts,
    ));
    r.set("setup_s", setup_s);
    r.set("attempted", b.attempted as f64);
    r.set("given_up", b.given_up as f64);
    r.set("errors", b.errors as f64);
    r.set("lost", b.lost as f64);
    r.set("checked", b.checked as f64);
    r.set("peak_rss_mib", stats::peak_rss_mib());
    r
}

/// One `SAMPLES <name> <v> <v> ...` line: `run.py` pools the latency
/// samples of every run before taking percentiles.
fn print_samples(name: &str, values: &[u64]) {
    let mut line = format!("SAMPLES {name}");
    for v in values {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    println!("{line}");
}
