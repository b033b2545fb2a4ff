//! Thread scaling of the per-object locks, and where the waiting goes.
//!
//! **Scaling matrix**: the disjoint-directory mix at 1/2/4/8 threads,
//! the overlapping mix at 8 threads, and (on a separate rig) the
//! rollback-tree-enabled mix at 8 threads so the tree's commit
//! serialization is quantified rather than hidden. Gated: 8 threads
//! deliver at least `MIN_SCALING`× the 1-thread throughput on the
//! disjoint mix; the other mixes are reported. Store-latency-bound by
//! construction, so the bar holds on any host core count.
//!
//! **Contention attribution**: the overlapping and disjoint mixes once
//! more on a fresh rig with a profile snapshot before and after each —
//! the `lock_wait` the mix's requests charged to their own records is
//! the measured explanation for the overlapping mix's flat scaling, and
//! is gated on actually seeing it.

use std::time::Duration;

use segshare::EnclaveConfig;

use super::{Ctx, Outcome};
use crate::harness::{run_session_mix, slow_stores, Rig};
use crate::json::Json;

/// Simulated store round-trip latency. In-memory stores answer in
/// nanoseconds, which makes every request CPU-bound and hides what
/// per-object locking buys; real deployments (§VI: cross-region blob
/// storage) spend most of a request blocked on the store. 800 µs is far
/// below the paper's WAN latencies but enough that store wait dominates
/// the locked section.
const STORE_DELAY: Duration = Duration::from_micros(800);
/// Minimum aggregate-throughput ratio (8 threads vs 1 thread) on the
/// disjoint-directory mix.
const MIN_SCALING: f64 = 3.0;
/// Floor for attributable lock wait on the contended mix: below this
/// the profile failed to see contention that demonstrably exists.
const MIN_WAIT_NS: u64 = 10_000_000;
/// The overlapping mix must wait at least this many times longer for
/// its locks than the disjoint mix (same op count, same rig).
const MIN_WAIT_RATIO: f64 = 5.0;
/// The operations [`run_session_mix`] sends: an upload is a `put_file`
/// header and its `data` frames, a download one `get`.
const MIX_OPS: [&str; 3] = ["put_file", "data", "get"];

/// Lock wait the mix's requests charged to their records so far, summed
/// over the profile's `<op>;…;lock_wait` entries.
fn lock_wait_ns(rig: &Rig) -> u64 {
    let profile = rig.server.telemetry().profile_snapshot();
    let breakdown = profile.phase_breakdown(&MIX_OPS);
    breakdown
        .iter()
        .find(|(leaf, _)| *leaf == "lock_wait")
        .map_or(0, |&(_, ns)| ns)
}

/// Audit off (the hash-chained trail is inherently serial — every
/// record extends one chain head) and, unless `tree`, the per-file
/// rollback tree off (each commit updates shared ancestor records under
/// the store-wide tree lock). Both serializations are honest properties
/// of those features, and both are reported separately; this isolates
/// the dispatch layer the `LockManager` parallelized.
fn rig(tree: bool) -> Rig {
    let config = EnclaveConfig {
        audit: false,
        cache: true,
        rollback_individual: tree,
        rollback_whole_fs: false,
        ..EnclaveConfig::default()
    };
    Rig::over(slow_stores(config, STORE_DELAY)).latency_bound()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (reps, ops) = if ctx.quick { (2, 8) } else { (3, 12) };
    out.say(format_args!(
        "== concurrency (store round-trip {} µs, 3:1 put:get of 4 KiB) ==",
        STORE_DELAY.as_micros()
    ));
    let mut round = 0u32;
    let mut points = Vec::new();
    let mut best = |out: &mut Outcome, rig: &Rig, mix: &'static str, threads: usize| {
        // Best-of-reps: throughput noise is one-sided (scheduler stalls
        // only ever slow a run down), so the max is the stable estimate.
        let mut top = 0f64;
        for _ in 0..reps {
            round += 1;
            let elapsed = run_session_mix(rig, threads, ops, mix == "overlapping", round);
            top = top.max((threads * ops) as f64 / elapsed);
        }
        out.say(format_args!(
            "  {mix:<13} threads={threads} {top:7.1} ops/s"
        ));
        points.push(Json::obj([
            ("mix", Json::from(mix)),
            ("threads", threads.into()),
            ("ops_per_s", Json::num(top, 3)),
        ]));
        top
    };
    let flat = rig(false);
    let disjoint = [1usize, 2, 4, 8].map(|threads| best(&mut out, &flat, "disjoint", threads));
    best(&mut out, &flat, "overlapping", 8);
    // Same mix with the per-file rollback tree on: commits serialize on
    // the content store's tree lock (ancestor hash-record RMW), so this
    // bounds what dispatch-level parallelism is worth under §V-D.
    best(&mut out, &rig(true), "disjoint_tree", 8);
    let scaling = disjoint[3] / disjoint[0];
    out.say(format_args!(
        "  -> 8 threads vs 1 thread (disjoint): {scaling:.2}x (gate: >= {MIN_SCALING:.1}x)"
    ));
    if scaling < MIN_SCALING {
        out.failures.push(format!(
            "concurrency: 8-thread/1-thread scaling on the disjoint mix is {scaling:.2}x, below \
             the {MIN_SCALING:.1}x floor"
        ));
    }
    out.json.push((
        "concurrency",
        Json::obj([
            ("store_delay_us", Json::from(STORE_DELAY.as_micros() as u64)),
            ("points", Json::Arr(points)),
            ("scaling_8t_disjoint", Json::num(scaling, 3)),
        ]),
    ));

    out.say("== contention attribution (8 threads) ==");
    let fresh = rig(false);
    let mut contention = Vec::new();
    let mut waited = [0u64; 2];
    for (i, (mix, shared_dir)) in [("overlapping", true), ("disjoint", false)]
        .into_iter()
        .enumerate()
    {
        let base = lock_wait_ns(&fresh);
        run_session_mix(&fresh, 8, ops, shared_dir, i as u32 + 1);
        waited[i] = lock_wait_ns(&fresh) - base;
        out.say(format_args!(
            "  {mix:<11} mix: lock_wait {:>9.2} ms over {} ops",
            waited[i] as f64 / 1e6,
            8 * ops
        ));
        contention.push((mix, Json::obj([("lock_wait_ns", Json::from(waited[i]))])));
    }
    // The overlapping mix must show substantial, attributable wait
    // while the disjoint mix stays far below it.
    let [overlapping, disjoint] = waited;
    let ratio = overlapping as f64 / disjoint.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    out.say(format_args!(
        "  -> lock wait: overlapping {:.2} ms vs disjoint {:.2} ms ({ratio:.1}x; \
         gate: >= {:.0} ms and >= {MIN_WAIT_RATIO:.0}x)",
        ms(overlapping),
        ms(disjoint),
        ms(MIN_WAIT_NS),
    ));
    if overlapping < MIN_WAIT_NS {
        out.failures.push(format!(
            "contention: overlapping lock wait {:.2} ms is below the {:.0} ms floor",
            ms(overlapping),
            ms(MIN_WAIT_NS),
        ));
    }
    if ratio < MIN_WAIT_RATIO {
        out.failures.push(format!(
            "contention: overlapping/disjoint lock wait ratio {ratio:.1}x is below \
             {MIN_WAIT_RATIO:.0}x — lock wait is not attributed to the contended mix"
        ));
    }
    out.json.push(("contention", Json::obj(contention)));
    out
}
