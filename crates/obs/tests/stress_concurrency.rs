//! Concurrency stress: many threads hammer one `Registry` and one
//! `TraceRing` from scoped threads.
//!
//! Invariants checked:
//! - counters and histograms lose no increments (exact totals);
//! - every trace emission is accounted for as either readable-window,
//!   overwritten, or explicitly dropped (`emitted` is exact);
//! - ring memory stays bounded: `tail` never returns more than
//!   `capacity` events, no matter how many were emitted.

use seg_obs::{Registry, TraceDecision, TraceRing};
use std::sync::Arc;

const THREADS: u64 = 8;
const PER_THREAD: u64 = 20_000;

#[test]
fn registry_and_trace_ring_survive_contention() {
    let registry = Arc::new(Registry::new());
    let ring = registry.attach_trace(Arc::new(TraceRing::new(1024)));

    let ops: [&'static str; 4] = ["get", "put_file", "add_user", "remove_user"];
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let registry = Arc::clone(&registry);
            s.spawn(move || {
                let c = registry.counter("seg_frames_total");
                let h = registry.histogram_with("seg_request_latency_ns", vec![("op", "get")]);
                let ring = registry.trace().expect("ring attached");
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(t * 1_000 + i % 997);
                    ring.emit(
                        t * PER_THREAD + i + 1,
                        ops[(i % 4) as usize],
                        t + 1,
                        i + 1,
                        TraceDecision::Allow,
                        "ok",
                        i % 50,
                    );
                }
            });
        }
    });

    // No lost counts in the registry.
    let snap = registry.snapshot();
    let total = THREADS * PER_THREAD;
    assert_eq!(snap.counter("seg_frames_total"), Some(total));
    assert_eq!(
        snap.histogram("seg_request_latency_ns{op=\"get\"}")
            .expect("histogram")
            .count,
        total
    );

    // Every emission is accounted for; drops are the explicit CAS-loss
    // path, not silent corruption, and must be a tiny fraction.
    assert_eq!(ring.emitted(), total);
    assert!(
        ring.dropped() <= total / 100,
        "dropped {} of {total}",
        ring.dropped()
    );

    // Bounded memory: the tail can never exceed the ring capacity.
    let tail = ring.tail(usize::MAX);
    assert!(tail.len() <= ring.capacity(), "tail len {}", tail.len());
    assert!(!tail.is_empty());

    // Surviving events are intact: labels decode, ids are in range,
    // and sequence numbers are strictly increasing (oldest first).
    let mut last_seq = None;
    for e in &tail {
        assert!(ops.contains(&e.op), "bad op {:?}", e.op);
        assert_eq!(e.code, "ok");
        assert!(e.principal >= 1 && e.principal <= THREADS);
        assert!(e.request_id >= 1 && e.request_id <= total);
        if let Some(prev) = last_seq {
            assert!(e.seq > prev, "seq {} after {prev}", e.seq);
        }
        last_seq = Some(e.seq);
    }
}

/// Regression for the wrap race: writers a full ring revolution apart
/// map to the same slot, and the epoch-tagged versions must (a) never
/// let the stale writer clobber the newer event and (b) never leave a
/// slot permanently unwritable after a dropped round. A tiny ring under
/// heavy contention maximizes lapping; afterwards a quiet-time emission
/// must still land and be readable.
#[test]
fn lapped_slots_recover_after_contention() {
    let ring = Arc::new(TraceRing::new(2));
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 25_000;
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let id = t * PER_WRITER + i + 1;
                    ring.emit(id, "get", id, id * 3, TraceDecision::Event, "ok", 0);
                }
            });
        }
    });
    assert_eq!(ring.emitted(), WRITERS * PER_WRITER);

    // Whatever was dropped under contention, the ring must not wedge.
    ring.emit(u64::MAX, "get", 1, 3, TraceDecision::Event, "ok", 7);
    let tail = ring.tail(1);
    assert_eq!(tail.len(), 1, "post-contention emission must be readable");
    assert_eq!(tail[0].request_id, u64::MAX);

    // And surviving events are never stale-over-new hybrids.
    for e in ring.tail(usize::MAX) {
        if e.request_id != u64::MAX {
            assert_eq!(e.object, e.request_id * 3, "clobbered event {e:?}");
        }
    }
}

#[test]
fn concurrent_readers_never_observe_torn_events() {
    let ring = Arc::new(TraceRing::new(64));
    // Writers encode a checkable relation (object = request_id * 3)
    // so a torn read would be visible as a broken pair.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                for i in 0..50_000u64 {
                    let id = t * 1_000_000 + i + 1;
                    ring.emit(id, "get", id, id * 3, TraceDecision::Event, "ok", 0);
                }
            });
        }
        for _ in 0..2 {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                for _ in 0..2_000 {
                    for e in ring.tail(64) {
                        assert_eq!(e.object, e.request_id * 3, "torn event {e:?}");
                        assert_eq!(e.principal, e.request_id, "torn event {e:?}");
                    }
                }
            });
        }
    });
    assert_eq!(ring.emitted(), 4 * 50_000);
}
