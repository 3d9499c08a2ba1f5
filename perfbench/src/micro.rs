//! Per-layer microbenchmarks over the crates' public functions, with
//! inputs shaped like the workloads: 4 KiB pages holding 16 objects of
//! 32 B, and update records with 32 B images.

use crate::stats::{median, thread_cpu_ns, Record};
use fgl::{ClientId, Lsn, ObjectId, PageId, Psn, SlotId, TxnId};
use fgl_locks::glm::{CallbackKind, GlmCore};
use fgl_locks::llm::LlmCore;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_net::api::{Callback, CallbackReplyMsg, Reply, Request};
use fgl_net::peer::CallbackOutcome;
use fgl_net::transport::frame::{self, FrameHeader, Seg};
use fgl_net::GrantMsg;
use fgl_storage::bufferpool::BufferPool;
use fgl_storage::merge::merge_pages;
use fgl_storage::page::Page;
use fgl_wal::manager::LogManager;
use fgl_wal::records::{LogPayload, UpdateRecord};
use fgl_wal::store::MemLogStore;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: usize = 4096;
const OBJECTS: usize = 16;
const OBJ: usize = 32;
/// Timed batches per microbenchmark; the reported figure is their median.
const BATCHES: usize = 5;

/// Time `f` in [`BATCHES`] batches of a calibrated size, each lasting
/// about `batch`; returns (median ns/op, total iterations).
fn bench(batch: Duration, mut f: impl FnMut()) -> (f64, u64) {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= batch / 4 || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    iters *= 4;
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    (median(&mut per_op), iters * BATCHES as u64)
}

fn filled_page(id: u64) -> (Page, Vec<SlotId>) {
    let mut p = Page::format(PAGE, PageId(id), Psn::ZERO);
    let slots = (0..OBJECTS)
        .map(|i| p.insert_object(&[i as u8; OBJ]).unwrap())
        .collect();
    (p, slots)
}

fn obj(page: u64, slot: u16) -> ObjectId {
    ObjectId::new(PageId(page), SlotId(slot))
}

/// Encode and decode cost of one frame family through the public codec.
fn frame_codec(
    batch: Duration,
    put: &mut impl FnMut(&str, (f64, u64)),
    family: &str,
    encode: impl Fn() -> Vec<Seg>,
    decode: impl Fn(&FrameHeader, &[u8]),
) {
    let bytes = frame::frame_bytes(&encode());
    put(
        &format!("net.frame_encode_{family}_ns"),
        bench(batch, || {
            black_box(encode());
        }),
    );
    put(
        &format!("net.frame_decode_{family}_ns"),
        bench(batch, || {
            let (h, body) = frame::read_frame(&mut &bytes[..]).unwrap();
            decode(&h, &body);
        }),
    );
}

/// Run every microbenchmark; each takes about `BATCHES × batch`.
pub fn run(batch: Duration) -> Record {
    let mut r = Record::default();
    let mut put = |name: &str, (ns, iters): (f64, u64)| {
        println!("{name:<40} {ns:>12.1} ns/op   ({iters} iters)");
        r.set(name, ns);
    };

    // storage
    let (mut page, slots) = filled_page(1);
    let mut i = 0usize;
    put(
        "storage.page_overwrite_ns",
        bench(batch, || {
            i += 1;
            page.write_object(slots[i % OBJECTS], &[i as u8; OBJ])
                .unwrap();
        }),
    );
    let (base, slots) = filled_page(2);
    let (mut a, mut b) = (base.clone(), base.clone());
    for (k, s) in slots.iter().enumerate() {
        let side = if k % 2 == 0 { &mut a } else { &mut b };
        side.write_object(*s, &[0xEE; OBJ]).unwrap();
    }
    put(
        "storage.merge_pages_ns",
        bench(batch, || {
            black_box(merge_pages(&a, &b).unwrap());
        }),
    );
    put(
        "storage.page_codec_ns",
        bench(batch, || {
            let bytes = base.as_bytes().to_vec();
            black_box(Page::from_bytes(bytes).unwrap());
        }),
    );
    let mut pool = BufferPool::new(64);
    let mut next = 0u64;
    for _ in 0..64 {
        next += 1;
        pool.insert(Page::format(PAGE, PageId(next), Psn::ZERO), true);
    }
    // Each insert of a fresh page into the full pool evicts the LRU
    // frame; the figure includes formatting the 4 KiB page.
    put(
        "storage.bufferpool_evict_ns",
        bench(batch, || {
            next += 1;
            let p = Page::format(PAGE, PageId(next), Psn::ZERO);
            black_box(pool.insert(p, true));
        }),
    );

    // wal
    let update = LogPayload::Update(UpdateRecord {
        txn: TxnId::compose(ClientId(1), 1),
        prev_lsn: Lsn::NIL,
        object: obj(1, 0),
        psn_before: Psn(3),
        before: Some(vec![0u8; OBJ]),
        after: Some(vec![1u8; OBJ]),
        structural: false,
    });
    // A fresh in-memory log per 64 appends keeps memory flat; the
    // figure is per append.
    let (ns, iters) = bench(batch, || {
        let mut wal = LogManager::new(Box::new(MemLogStore::new()), 1 << 20);
        for _ in 0..64 {
            black_box(wal.append(&update).unwrap());
        }
    });
    put("wal.append_update_ns", (ns / 64.0, iters * 64));
    put(
        "wal.record_codec_ns",
        bench(batch, || {
            let bytes = update.encode();
            black_box(LogPayload::decode(&bytes).unwrap());
        }),
    );

    // locks
    let mut glm = GlmCore::new();
    let txn = TxnId::compose(ClientId(1), 1);
    let mut k = 0u16;
    put(
        "locks.glm_lock_release_ns",
        bench(batch, || {
            k = k.wrapping_add(1);
            let o = obj(u64::from(k % 192), k % OBJECTS as u16);
            black_box(glm.lock(ClientId(1), txn, LockTarget::Object(o, ObjMode::X)));
            black_box(glm.release_object(ClientId(1), o));
        }),
    );
    let cfg = fgl_bench::experiment_config();
    let mut llm = LlmCore::new(cfg.granularity, cfg.update_policy);
    for s in 0..OBJECTS as u16 {
        let o = obj(1, s);
        llm.global_granted(txn, o, ObjMode::X, LockTarget::Object(o, ObjMode::X));
    }
    let mut k = 0u16;
    put(
        "locks.llm_acquire_ns",
        bench(batch, || {
            k = k.wrapping_add(1);
            black_box(llm.acquire(txn, obj(1, k % OBJECTS as u16), ObjMode::X, false));
        }),
    );

    // net: the frame codec, one message per frame family
    let txn = TxnId::compose(ClientId(1), 7);
    let target = LockTarget::Object(obj(3, 5), ObjMode::X);
    let image: Arc<[u8]> = filled_page(3).0.as_bytes().into();
    let lock = Request::Lock {
        txn,
        target,
        cached_psn: Some(Psn(9)),
    };
    let ship = Request::ShipPage {
        bytes: image.clone(),
        replaced: false,
    };
    let granted = Reply::LockGranted {
        target,
        first_exclusive_on_page: true,
        evidence: Some((ClientId(2), Psn(8))),
    };
    let page_reply = Reply::Page {
        bytes: image.to_vec(),
        psn: Some(Psn(8)),
    };
    let callback = Callback::DeliverBatch(vec![CallbackKind::ReleaseObject(obj(3, 5))]);
    let outcome = CallbackReplyMsg::Outcomes(vec![CallbackOutcome::Done {
        retained: Vec::new(),
        page_copy: Some(image),
    }]);
    let grant = GrantMsg::Granted {
        target,
        first_exclusive_on_page: false,
        evidence: None,
    };
    let request = |h: &FrameHeader, b: &[u8]| {
        black_box(frame::decode_request(h, b).unwrap());
    };
    let reply = |h: &FrameHeader, b: &[u8]| {
        black_box(frame::decode_reply(h, b).unwrap());
    };
    frame_codec(
        batch,
        &mut put,
        "lock_request",
        || frame::encode_request(1, &lock).unwrap(),
        request,
    );
    frame_codec(
        batch,
        &mut put,
        "page_ship",
        || frame::encode_request(2, &ship).unwrap(),
        request,
    );
    frame_codec(
        batch,
        &mut put,
        "lock_reply",
        || frame::encode_reply(3, &granted).unwrap(),
        reply,
    );
    frame_codec(
        batch,
        &mut put,
        "page_reply",
        || frame::encode_reply(4, &page_reply).unwrap(),
        reply,
    );
    frame_codec(
        batch,
        &mut put,
        "callback",
        || frame::encode_callback(5, &callback).unwrap(),
        |h, b| {
            black_box(frame::decode_callback(h, b).unwrap());
        },
    );
    frame_codec(
        batch,
        &mut put,
        "callback_reply",
        || frame::encode_callback_reply(6, &outcome).unwrap(),
        |h, b| {
            black_box(frame::decode_callback_reply(h, b).unwrap());
        },
    );
    frame_codec(
        batch,
        &mut put,
        "grant",
        || frame::encode_grant(7, &grant),
        |h, b| {
            black_box(frame::decode_grant(h, b).unwrap());
        },
    );

    // sched
    r.extend(sched_micro(batch));
    r
}

/// Scheduler costs: a task-to-task switch, and `pause(40 µs)` (the
/// simulated net hop) — its overshoot past 40 µs and its CPU cost.
fn sched_micro(batch: Duration) -> Record {
    let mut r = Record::default();
    let switches = 20_000u64;
    let mut per_switch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                .map(|_| {
                    Box::new(move || {
                        for _ in 0..switches / 2 {
                            fgl_sched::yield_now();
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            fgl_sched::run_scoped(1, jobs);
            t.elapsed().as_nanos() as f64 / switches as f64
        })
        .collect();
    let switch_ns = median(&mut per_switch);
    println!(
        "{:<40} {switch_ns:>12.1} ns/op   ({} iters)",
        "sched.switch_ns",
        switches * BATCHES as u64
    );
    r.set("sched.switch_ns", switch_ns);

    let hop = Duration::from_micros(40);
    let pauses = (batch.as_micros() as u64 * BATCHES as u64 / 50).max(100);
    // (overshoot samples, CPU ns of the worker thread running the task)
    let out = std::sync::Mutex::new((Vec::new(), 0u64));
    let job: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
        let mut local = Vec::with_capacity(pauses as usize);
        let cpu0 = thread_cpu_ns();
        for _ in 0..pauses {
            let t = Instant::now();
            fgl_sched::pause(hop);
            local.push(t.elapsed().as_nanos() as f64 / 1000.0 - 40.0);
        }
        *out.lock().expect("a thread panicked holding this lock") = (local, thread_cpu_ns() - cpu0);
    });
    fgl_sched::run_scoped(1, vec![job]);
    let (mut samples, cpu_ns) = out
        .into_inner()
        .expect("a thread panicked holding this lock");
    let cpu_us = cpu_ns as f64 / 1000.0;
    let overshoot = median(&mut samples);
    println!(
        "{:<40} {overshoot:>12.1} us       ({pauses} iters)",
        "sched.pause_overshoot_us"
    );
    r.set("sched.pause_overshoot_us", overshoot);
    let cpu_per = cpu_us / pauses as f64;
    println!(
        "{:<40} {cpu_per:>12.2} us       ({pauses} iters)",
        "sched.pause_cpu_us"
    );
    r.set("sched.pause_cpu_us", cpu_per);
    r
}
