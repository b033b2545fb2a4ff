//! The c10k workload, in two acts.
//!
//! **Idle hold**: open `IDLE_CONNS` reactor connections (each a
//! registered state machine with a live pre-handshake session slot —
//! exactly what a slow or momentarily quiet tenant costs) and keep
//! them all open at once, measuring resident-set growth per
//! connection. While the mass is held, one full TLS session must
//! handshake and serve requests — C10K means *service* at scale, not
//! just accepted sockets.
//!
//! **Saturation**: the 4 KiB put/get mix of
//! [`run_session_mix`] through full TLS sessions across `CURVE`
//! session counts. Each point is a gated row.

use std::time::{Duration, Instant};

use segshare::EnclaveConfig;

use super::{Ctx, Outcome};
use crate::harness::{measure_with, run_session_mix, Rig};
use crate::json::Json;

/// Idle connections held concurrently (the paper's §VI serves many
/// tenants from one enclave; the reactor must hold a five-digit
/// connection count without a five-digit thread count). `--quick`
/// holds a fifth.
const IDLE_CONNS: usize = 10_000;
/// Memory budget per held idle connection (resident-set growth divided
/// by connections). A reactor connection is a state-machine entry, two
/// bounded queues, and a pre-handshake session slot — tens of KiB, not
/// a thread stack (8 MiB default): the gate fails if idle connections
/// cost even 1 % of what threads would.
const MAX_IDLE_KIB_PER_CONN: f64 = 64.0;
/// Session counts of the saturation curve, each with the gated row it
/// records: the wall seconds for every session to finish [`OPS`]
/// operations.
const CURVE: [(usize, &str); 4] = [(1, "c10k_1"), (2, "c10k_2"), (4, "c10k_4"), (8, "c10k_8")];
/// Operations per session in one curve round (the same under `--quick`,
/// so a quick run is comparable with the recorded baseline).
const OPS: usize = 32;

/// Resident set size in KiB from `/proc/self/status` (Linux), or
/// `None` where the file is absent.
fn rss_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

fn cached_rig() -> Rig {
    Rig::new(EnclaveConfig {
        cache: true,
        ..EnclaveConfig::paper_prototype()
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.say("== c10k (reactor front end) ==");
    let idle_conns = if ctx.quick {
        IDLE_CONNS / 5
    } else {
        IDLE_CONNS
    };

    // -- act 1: hold the idle mass --------------------------------
    let rig = cached_rig();
    let reactor = rig.server.reactor();
    let stats = std::sync::Arc::clone(reactor.stats());
    let wait_until = |done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let rss_before = rss_kib();
    let held: Vec<_> = (0..idle_conns)
        .map(|_| reactor.connect_virtual().expect("idle connect"))
        .collect();
    // Simultaneously live on the reactor's own gauges, not just created.
    wait_until(&|| stats.live_conns() as usize >= idle_conns);
    let all_live = stats.live_conns() as usize >= idle_conns;
    // Negative where `/proc/self/status` is unavailable.
    let kib_per_conn = match (rss_before, rss_kib()) {
        (Some(before), Some(after)) => ((after - before) / idle_conns as f64).max(0.0),
        _ => -1.0,
    };
    // Service at scale: a fresh session handshakes and works while
    // every idle connection stays open.
    let responsive = {
        let mut probe = rig.client();
        probe.mkdir("/c10k").is_ok()
            && probe.put("/c10k/probe", b"served at 10k").is_ok()
            && probe
                .get("/c10k/probe")
                .is_ok_and(|b| b == b"served at 10k")
    };
    drop(held);
    wait_until(&|| stats.live_conns() <= 1);
    out.say(format_args!(
        "  idle hold: {idle_conns} conns live={all_live} rss/conn={kib_per_conn:.1} KiB \
         (gate: <= {MAX_IDLE_KIB_PER_CONN:.0} KiB) responsive={responsive}"
    ));
    if !all_live {
        out.failures.push(format!(
            "c10k: fewer than {idle_conns} idle connections were simultaneously live"
        ));
    }
    if kib_per_conn > MAX_IDLE_KIB_PER_CONN {
        out.failures.push(format!(
            "c10k: idle connections cost {kib_per_conn:.1} KiB RSS each, above the \
             {MAX_IDLE_KIB_PER_CONN:.0} KiB budget"
        ));
    }
    if !responsive {
        out.failures.push(format!(
            "c10k: a fresh TLS session failed to handshake and serve while {idle_conns} idle \
             connections were held"
        ));
    }

    // -- act 2: saturation curve ---------------------------------
    let rig = cached_rig();
    // Match the worker pool to the curve's session fan-out: a
    // core-count-sized pool (the 1-core CI box defaults to 2) would
    // measure pool starvation, not front-end overhead.
    rig.server
        .set_reactor_config(seg_net::reactor::ReactorConfig {
            workers: CURVE[CURVE.len() - 1].0,
            ..seg_net::reactor::ReactorConfig::default()
        });
    let mut round = 0u32;
    let mut curve = Vec::new();
    for (sessions, name) in CURVE {
        let measured = measure_with(ctx.runs, || {
            round += 1;
            run_session_mix(&rig, sessions, OPS, false, round)
        });
        let ops_per_s = (sessions * OPS) as f64 / measured.mean_s;
        out.say(format_args!("  sessions={sessions} {ops_per_s:7.1} ops/s"));
        out.row(name, measured);
        curve.push(Json::obj([
            ("sessions", Json::from(sessions)),
            ("ops_per_s", Json::num(ops_per_s, 3)),
        ]));
    }
    out.json.push((
        "c10k",
        Json::obj([
            ("idle_conns", Json::from(idle_conns)),
            ("idle_kib_per_conn", Json::num(kib_per_conn, 2)),
            ("idle_budget_kib_per_conn", MAX_IDLE_KIB_PER_CONN.into()),
            ("idle_all_live", all_live.into()),
            ("responsive_at_scale", responsive.into()),
            ("curve", Json::Arr(curve)),
        ]),
    ));
    out
}
