//! The two ≤ 2 % telemetry overhead gates, on/off through the one
//! switch: `telemetry` on the serial-mix rig (every record consumer),
//! `telemetry_runner` on a dedicated rig with the health runner,
//! scrubber and canary live. The runner rig's final report is
//! `results/report.json`, the artifact CI uploads.

use std::time::{Duration, Instant};

use segshare::EnclaveConfig;

use super::{Ctx, Outcome};
use crate::harness::{fmt_s, payload, Rig};
use crate::json::Json;

/// Maximum fractional slowdown telemetry (every record consumer; on the
/// runner rig also the history tick, the integrity scrubber and the
/// loopback canary) may cost on the standard small-op mix.
const MAX_OVERHEAD: f64 = 0.02;

/// Measures what telemetry costs on the standard small-op mix of
/// `rig`: `set_telemetry(false)` reduces a request to one relaxed
/// atomic load and makes a health runner's ticks, scrubber and canary
/// no-ops (without stopping the thread), while "on" pays for the whole
/// record — operand HMACs, counter sweep, phase vector — and every
/// consumer of it.
///
/// The effect is far smaller than coarse-batch jitter, so the
/// measurement is paired at the *operation* level: each probe runs the
/// same stationary op (overwrite-put + get of fixed 4 KiB files —
/// creating files would grow the directory and skew later probes) once
/// on and once off, adjacent in time and with the order alternating, so
/// frequency and scheduler drift charge both variants equally. Medians
/// over all pairs make single stalled ops irrelevant. Returns the
/// medians `(on, off)` in seconds.
fn paired_overhead(rig: &Rig, pairs: usize) -> (f64, f64) {
    let mut client = rig.client();
    let p4k = payload(4096);
    client.put("/overhead-probe", &p4k).expect("prefill");
    client.put("/overhead-probe-w", &p4k).expect("prefill");
    let mut probe = || {
        let start = Instant::now();
        client.put("/overhead-probe-w", &p4k).expect("upload");
        let got = client.get("/overhead-probe").expect("download");
        assert_eq!(got.len(), p4k.len());
        start.elapsed().as_secs_f64()
    };
    for _ in 0..16 {
        probe(); // warmup, untimed
    }
    let mut on_times = Vec::with_capacity(pairs);
    let mut off_times = Vec::with_capacity(pairs);
    for i in 0..pairs {
        for flip in [false, true] {
            let on = (i % 2 == 0) ^ flip;
            rig.server.set_telemetry(on);
            let elapsed = probe();
            if on {
                on_times.push(elapsed);
            } else {
                off_times.push(elapsed);
            }
        }
    }
    rig.server.set_telemetry(true);
    let median = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    (median(&mut on_times), median(&mut off_times))
}

/// Prints, gates and records one overhead measurement; `work` is the
/// background work that ran during it.
fn report(out: &mut Outcome, name: &'static str, (on_s, off_s): (f64, f64), work: &[(&str, u64)]) {
    let overhead = on_s / off_s - 1.0;
    out.say(format_args!(
        "== {name} overhead == on={} off={} ({:+.2}%; gate: <= {:.0}%){}",
        fmt_s(on_s),
        fmt_s(off_s),
        overhead * 100.0,
        MAX_OVERHEAD * 100.0,
        work.iter()
            .map(|(k, n)| format!(" {k}={n}"))
            .collect::<String>(),
    ));
    if overhead > MAX_OVERHEAD {
        out.failures.push(format!(
            "{name}: overhead {:.2}% exceeds the {:.0}% budget",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0,
        ));
    }
    let members = [
        ("on_s", Json::num(on_s, 9)),
        ("off_s", Json::num(off_s, 9)),
        ("overhead", Json::num(overhead, 6)),
        ("budget", MAX_OVERHEAD.into()),
    ];
    let work = work.iter().map(|&(key, n)| (key, Json::from(n)));
    out.json
        .push((name, Json::obj(members.into_iter().chain(work))));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let pairs = if ctx.quick { 300 } else { 800 };
    let serial = paired_overhead(ctx.main, pairs);
    report(&mut out, "telemetry", serial, &[]);

    // A dedicated rig with the health runner live: the serial-mix rig's
    // paper-prototype config never starts one, and the point here is to
    // price *everything* the switch pauses — so the runner ticks every
    // 5 ms against a 50 ms scrub cadence with the loopback canary firing
    // every 100 ms, all while the "on" probes are timed. That is 20× the
    // default 1 s scrub cadence, so the measurement bounds any production
    // setting without letting the background duty cycle drown the paired
    // probes on a single-core runner.
    let rig = Rig::new(EnclaveConfig {
        scrub_interval_us: 50_000,
        ..EnclaveConfig::paper_prototype()
    });
    let canary = rig
        .setup
        .enroll_user("canary", "canary@bench", "Canary")
        .expect("enroll canary");
    rig.server.start_health(segshare::HealthOptions {
        canary: Some(canary),
        tick_us: 5_000,
        canary_interval_us: 100_000,
    });
    let with_runner = paired_overhead(&rig, pairs);
    // The report artifact should carry at least one completed pass over
    // the probe namespace; the aggressive cadence makes this quick.
    let health = rig.server.telemetry().health();
    let deadline = Instant::now() + Duration::from_secs(30);
    while health.scrub_passes() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    rig.server.stop_health();
    assert_eq!(
        health.findings_total(),
        0,
        "the gate's untampered rig must scrub clean"
    );
    // The scrub passes and canary probes that demonstrably ran, so
    // "cheap because idle" is ruled out.
    let work = [
        ("scrub_passes", health.scrub_passes()),
        ("canary_probes", health.canary_probes()),
    ];
    report(&mut out, "telemetry_runner", with_runner, &work);
    out.dump = rig.server.report();
    out
}
