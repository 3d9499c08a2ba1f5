//! The benchmark workloads. NOTES.md records why each exists and
//! which layers it exercises.

use fgl::{SystemConfig, TransportKind};
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};

/// Object payload size (the `populate` default the oracle seeds from).
pub const OBJECT_SIZE: usize = 32;

/// Crash rounds per `crash_restart` or `server_restart` run: each round
/// crashes and recovers one client (rotating; `crash_restart` only), then
/// every server.
pub const CRASH_ROUNDS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One timed closed-loop phase, then one oracle check.
    Timed,
    /// [`CRASH_ROUNDS`] rounds of {phase, client crash + recover, check
    /// (only with `client_crash`), phase, server crash + restart, check}.
    CrashRestart { client_crash: bool },
}

pub struct Workload {
    pub name: &'static str,
    pub clients: usize,
    pub spec: WorkloadSpec,
    pub config: SystemConfig,
    pub shape: Shape,
    /// Least unmeasured warm-up before a [`Shape::Timed`] phase.
    pub min_warmup_ms: u64,
}

pub const NAMES: [&str; 5] = [
    "hotcold_fit",
    "uniform_spill",
    "uds_pair",
    "crash_restart",
    "server_restart",
];

fn spec(kind: WorkloadKind, pages: usize, write_fraction: f64) -> WorkloadSpec {
    let mut s = WorkloadSpec::new(kind);
    s.pages = pages;
    s.objects_per_page = 16;
    s.ops_per_txn = 8;
    s.write_fraction = write_fraction;
    s.hot_probability = 0.8;
    s
}

/// Every workload runs under the experiments' device model: disk 400 µs,
/// net hop 40 µs, lock timeout 2 s, private log forced at commit with
/// group commit on, server pages written only on eviction.
pub fn by_name(name: &str) -> Option<Workload> {
    let base = fgl_bench::experiment_config();
    let w = match name {
        // 16 clients × 12-page hot regions = 192 pages, ¾ of the
        // 256-frame server pool: callbacks and merges without eviction.
        "hotcold_fit" => Workload {
            name: "hotcold_fit",
            clients: 16,
            spec: spec(WorkloadKind::HotCold, 192, 0.3),
            config: base,
            shape: Shape::Timed,
            min_warmup_ms: 0,
        },
        // 4× the server pool and 16× the 64-frame client cache.
        "uniform_spill" => Workload {
            name: "uniform_spill",
            clients: 8,
            spec: spec(WorkloadKind::Uniform, 1024, 0.2),
            config: base,
            shape: Shape::Timed,
            min_warmup_ms: 0,
        },
        // Real frames over Unix sockets; sockets ignore `net_latency`.
        "uds_pair" => Workload {
            name: "uds_pair",
            clients: 2,
            spec: spec(WorkloadKind::HotCold, 64, 0.3),
            config: base.with_transport(TransportKind::Uds),
            shape: Shape::Timed,
            // Socket throughput climbs over the first ~2 s of a run
            // (CPU per commit falls from ≈2.8 ms to ≈1.5 ms); measure
            // past the climb.
            min_warmup_ms: 2500,
        },
        // 48 pages keeps a recovering client's working set inside its
        // 64-frame cache.
        "crash_restart" => Workload {
            name: "crash_restart",
            clients: 4,
            spec: spec(WorkloadKind::HotCold, 48, 0.5),
            config: base,
            shape: Shape::CrashRestart { client_crash: true },
            min_warmup_ms: 0,
        },
        // `crash_restart` without the client crashes: only the server's
        // restart recovery runs.
        "server_restart" => Workload {
            name: "server_restart",
            clients: 4,
            spec: spec(WorkloadKind::HotCold, 48, 0.5),
            config: base,
            shape: Shape::CrashRestart {
                client_crash: false,
            },
            min_warmup_ms: 0,
        },
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in NAMES {
            let w = by_name(name).unwrap();
            assert_eq!(w.name, name);
            w.config.validate().unwrap();
            assert!(w.spec.pages >= w.clients);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn hotcold_fit_fits_the_server_pool() {
        let w = by_name("hotcold_fit").unwrap();
        assert_eq!(w.spec.pages / w.clients, 12);
        assert_eq!(w.spec.pages * 4, w.config.server_cache_pages * 3);
    }

    #[test]
    fn uniform_spill_overflows_both_caches() {
        let w = by_name("uniform_spill").unwrap();
        assert_eq!(w.spec.pages, 4 * w.config.server_cache_pages);
        assert_eq!(w.spec.pages, 16 * w.config.client_cache_pages);
    }

    #[test]
    fn crash_restart_fits_a_client_cache() {
        let w = by_name("crash_restart").unwrap();
        assert!(w.spec.pages <= w.config.client_cache_pages);
    }

    #[test]
    fn server_restart_is_crash_restart_without_client_crashes() {
        let (c, s) = (
            by_name("crash_restart").unwrap(),
            by_name("server_restart").unwrap(),
        );
        assert_eq!(c.shape, Shape::CrashRestart { client_crash: true });
        assert_eq!(
            s.shape,
            Shape::CrashRestart {
                client_crash: false
            }
        );
        assert_eq!((c.clients, c.spec.pages), (s.clients, s.spec.pages));
        assert_eq!(c.spec.write_fraction, s.spec.write_fraction);
    }
}
