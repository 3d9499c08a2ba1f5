//! Multi-instance server tests: a multi-threaded stress run against an
//! eight-instance page service with oracle verification, crash recovery
//! of every instance, and the callback-reply routing regression (a
//! holder's reply must reach the GLM that queued the waiter, for pages
//! of every residue class).

use fgl::{System, SystemConfig};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::oracle::Oracle;
use fgl_sim::setup::populate;
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};
use std::collections::HashSet;
use std::time::Duration;

/// Assert that allocation spread the database over at least half of the
/// system's instances, each page on the instance owning its residue class.
fn assert_spread(sys: &System) {
    let n = sys.servers.len();
    let mut used = HashSet::new();
    for (k, srv) in sys.servers.iter().enumerate() {
        for page in srv.allocated_pages() {
            assert_eq!(page.0 % n as u64, k as u64, "{page:?} on instance {k}");
            used.insert(k);
        }
    }
    assert!(
        used.len() * 2 >= n,
        "allocation must spread across instances, used only {used:?} of {n}"
    );
}

#[test]
fn many_instance_server_stress_oracle_verified() {
    // Six client threads hammering an eight-instance page service under
    // high contention; the oracle must see exactly the committed values.
    let cfg = SystemConfig::default().with_server_instances(8);
    let sys = System::build(cfg, 6).unwrap();
    let mut spec = WorkloadSpec::new(WorkloadKind::HiCon);
    spec.pages = 32;
    spec.objects_per_page = 12;
    spec.ops_per_txn = 6;
    spec.write_fraction = 0.5;
    spec.structural_fraction = 0.1;
    spec.hot_pages = 3;
    let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 48).unwrap();
    assert_spread(&sys);
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let mut opts = HarnessOptions::new(spec, 30);
    opts.seed = 0x54A2D;
    let report = run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
    assert!(report.commits > 100);
    let v = oracle.verify_via_reads(sys.client(3)).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
}

#[test]
fn multi_instance_server_survives_crash_recovery_cycles() {
    // Checkpoint and §3.4 restart run per instance: run load, crash every
    // server (or a client), recover, verify.
    let cfg = SystemConfig::default().with_server_instances(4);
    let sys = System::build(cfg, 4).unwrap();
    let mut spec = WorkloadSpec::new(WorkloadKind::Zipf);
    spec.pages = 24;
    spec.objects_per_page = 8;
    spec.ops_per_txn = 4;
    spec.write_fraction = 0.5;
    let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
    assert_spread(&sys);
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    for round in 0u64..3 {
        let mut opts = HarnessOptions::new(spec.clone(), 10);
        opts.seed = 0x54ADC0 + round;
        run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
        match round % 2 {
            0 => {
                for srv in &sys.servers {
                    srv.crash();
                }
                for srv in &sys.servers {
                    srv.restart_recovery().unwrap();
                }
            }
            _ => {
                let victim = (1 + round as usize) % 4;
                sys.clients[victim].crash();
                sys.clients[victim].recover().unwrap();
            }
        }
        let verifier = sys.client((round as usize + 2) % 4);
        let v = oracle.verify_via_reads(verifier).unwrap();
        assert!(v.is_clean(), "round {round}: {:?}", v.mismatches);
    }
}

/// Client A commits one object on each of 16 fresh pages (covering every
/// residue class), then client B overwrites them one at a time. Each of
/// B's writes conflicts with A's cached lock, so the grant depends on A's
/// callback reply reaching the GLM that queued B. None may fall back on
/// the lock timeout.
fn conflicting_writes_on_fresh_pages(instances: usize) {
    let cfg = SystemConfig {
        lock_timeout: Duration::from_secs(1),
        ..SystemConfig::default()
    }
    .with_server_instances(instances);
    let sys = System::build(cfg, 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let mut objects = Vec::new();
    for i in 0..16u8 {
        let page = a.create_page(t).unwrap();
        objects.push(a.insert(t, page, &[b'a', i]).unwrap());
    }
    a.commit(t).unwrap();
    let residues: HashSet<u64> = objects
        .iter()
        .map(|o| o.page.0 % instances as u64)
        .collect();
    assert_eq!(residues.len(), instances, "every residue class covered");

    for (i, o) in objects.iter().enumerate() {
        let t = b.begin().unwrap();
        b.write(t, *o, &[b'b', i as u8])
            .unwrap_or_else(|e| panic!("write {i} on {:?} failed: {e}", o.page));
        b.commit(t).unwrap();
    }
    let timeouts = a.stats().lock_timeouts + b.stats().lock_timeouts;
    assert_eq!(timeouts, 0, "{instances} instances: lock waits timed out");

    let t = a.begin().unwrap();
    for (i, o) in objects.iter().enumerate() {
        assert_eq!(a.read(t, *o).unwrap(), [b'b', i as u8]);
    }
    a.commit(t).unwrap();
}

#[test]
fn callback_replies_reach_the_queueing_glm_single_instance() {
    conflicting_writes_on_fresh_pages(1);
}

#[test]
fn callback_replies_reach_the_queueing_glm_four_instances() {
    conflicting_writes_on_fresh_pages(4);
}
