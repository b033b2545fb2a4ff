//! Durability: request-batched group commit against naive
//! per-operation fsync, on identical WAL-backed rigs, gated on the
//! speedup. Fsync-latency-bound by construction, so the bar holds on
//! any host.

use segshare::{EnclaveConfig, FsoSetup};

use super::{Ctx, Outcome};
use crate::harness::{payload, run_sessions, sessions, Rig};
use crate::json::Json;

/// Simulated fsync latency. In-memory and tmpfs-backed files "sync" in
/// microseconds, which hides what group commit buys; real deployments
/// pay hundreds of microseconds to milliseconds per fsync (§VI runs
/// against remote storage). 800 µs is a modest local-SSD figure and is
/// charged identically to both modes.
const FSYNC_US: u64 = 800;
/// Concurrent client sessions in the comparison.
const SESSIONS: usize = 8;
/// Minimum aggregate-throughput ratio (group commit vs naive fsync) at
/// [`SESSIONS`] sessions.
const MIN_SPEEDUP: f64 = 5.0;

/// Runs [`SESSIONS`] concurrent sessions of 4 KiB uploads against a
/// WAL-backed rig and returns `(ops/s, fsyncs, batches)`. `batch`
/// selects request batching + the group commit thread (one sealed frame
/// per request, fsyncs coalesced across sessions) versus the naive
/// durable baseline (every store operation is its own synchronous
/// commit frame and fsync).
fn point(batch: bool, ops: usize) -> (f64, u64, u64) {
    let dir = std::env::temp_dir().join(format!("seg-bench-wal-{batch}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("wal dir");
    let wal = seg_store::WalConfig {
        group_commit: batch,
        sim_fsync_us: FSYNC_US,
        ..seg_store::WalConfig::default()
    };
    // Paper-prototype feature set; whole-FS rollback stays off so the
    // comparison prices the durability plane, not counter batching.
    let config = EnclaveConfig {
        batch,
        ..EnclaveConfig::paper_prototype()
    };
    let setup = FsoSetup::new_wal_with("bench-ca", config, seg_sgx::Platform::new(), &dir, wal)
        .expect("wal store opens");
    let rig = Rig::over(setup).latency_bound();
    let payload = payload(4096);
    let sessions = sessions(&rig, (0..SESSIONS).map(|t| format!("/s{t}")).collect());
    let base = rig.server.metrics_snapshot();
    let elapsed = run_sessions(sessions, ops, |client, dir, _, j| {
        client
            .put(&format!("{dir}/f{j}"), &payload)
            .expect("upload");
    });
    let delta = rig.server.metrics_snapshot().delta(&base);
    let counter = |rendered: &str| delta.counter(rendered).unwrap_or(0);
    let point = (
        (SESSIONS * ops) as f64 / elapsed,
        counter("seg_store_fsyncs_total{store=\"content\"}"),
        counter("seg_store_batches_total{store=\"content\"}"),
    );
    drop(rig);
    let _ = std::fs::remove_dir_all(&dir);
    point
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ops = if ctx.quick { 8 } else { 16 };
    out.say(format_args!(
        "== durability (WAL backend, {SESSIONS} sessions, simulated fsync {FSYNC_US} µs) =="
    ));
    let mut points = Vec::new();
    let modes = [("naive_fsync", false), ("group_commit", true)];
    let measured = modes.map(|(mode, batch)| {
        let (ops_per_s, fsyncs, batches) = point(batch, ops);
        out.say(format_args!(
            "  {mode:<13} {ops_per_s:>7.1} ops/s  fsyncs={fsyncs:<6} batches={batches}"
        ));
        points.push(Json::obj([
            ("mode", Json::from(mode)),
            ("ops_per_s", Json::num(ops_per_s, 3)),
            ("fsyncs", fsyncs.into()),
            ("batches", batches.into()),
        ]));
        (ops_per_s, batches)
    });
    let [(naive, _), (group, group_batches)] = measured;
    let speedup = group / naive;
    out.say(format_args!(
        "  -> group commit vs per-op fsync at {SESSIONS} sessions: {speedup:.2}x \
         (gate: >= {MIN_SPEEDUP:.1}x)"
    ));
    if speedup < MIN_SPEEDUP {
        out.failures.push(format!(
            "durability: group-commit/naive speedup at {SESSIONS} sessions is {speedup:.2}x, \
             below the {MIN_SPEEDUP:.1}x floor"
        ));
    }
    if group_batches == 0 {
        out.failures.push(
            "durability: the group-commit run sealed no batches — request batching never engaged"
                .to_string(),
        );
    }
    out.json.push((
        "durability",
        Json::obj([
            ("fsync_us", Json::from(FSYNC_US)),
            ("sessions", SESSIONS.into()),
            ("points", Json::Arr(points)),
            ("speedup_group_commit", Json::num(speedup, 3)),
        ]),
    ));
    out
}
