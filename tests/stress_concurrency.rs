//! Concurrency stress: many threads hammer one `Registry` from scoped
//! threads.
//!
//! Invariant checked: counters and histograms lose no increments
//! (exact totals).

use segshare::telemetry::Registry;
use std::sync::Arc;

const THREADS: u64 = 8;
const PER_THREAD: u64 = 20_000;

#[test]
fn registry_survives_contention() {
    let registry = Arc::new(Registry::new());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let registry = Arc::clone(&registry);
            s.spawn(move || {
                let c = registry.counter("seg_frames_total");
                let h = registry.histogram_with("seg_request_latency_ns", vec![("op", "get")]);
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(t * 1_000 + i % 997);
                }
            });
        }
    });

    let snap = registry.snapshot();
    let total = THREADS * PER_THREAD;
    let frames = snap
        .counters
        .iter()
        .find(|(id, _)| id.name() == "seg_frames_total");
    assert_eq!(frames.map(|&(_, v)| v), Some(total));
    let latency = snap
        .histograms
        .iter()
        .find(|(id, _)| id.render() == "seg_request_latency_ns{op=\"get\"}");
    assert_eq!(latency.expect("histogram").1.count, total);
}
