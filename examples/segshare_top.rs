//! `segshare_top`: a live text dashboard over the server's telemetry.
//!
//! Drives a mixed workload (hot-path contention, membership churn,
//! disjoint traffic) against an in-memory server and, a few times per
//! second, prints windowed rates from `Snapshot::delta` — requests/s
//! and p95 per operation, lock wait attributed by key class, the
//! saturation gauges, and the most contended lock stripes. Ends with a
//! summary of the one report.
//!
//! Run with: `cargo run --release --example segshare_top`
//!
//! Everything printed crossed a sanctioned declassification point:
//! compiled-in metric names, aggregate values, keyed fingerprints.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use seg_obs::Snapshot;
use segshare::{EnclaveConfig, FsoSetup, HealthOptions};

/// Dashboard refresh interval.
const TICK: Duration = Duration::from_millis(450);
/// How long the demo runs.
const RUN_FOR: Duration = Duration::from_secs(3);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = EnclaveConfig {
        cache: true,
        // Fast enough that the dashboard sees whole scrub passes.
        scrub_interval_us: 100_000,
        ..EnclaveConfig::default()
    };
    let setup = FsoSetup::new_in_memory("top-ca", config);
    let server = setup.server()?;
    let alice = setup.enroll_user("alice", "a@x", "Alice")?;
    for i in 0..3 {
        setup.enroll_user(&format!("m{i}"), &format!("m{i}@x"), "M")?;
    }
    // The health plane runs alongside the workload: SLO rollups,
    // the integrity scrubber, and a loopback canary probe.
    let canary = setup.enroll_user("canary", "c@x", "Canary")?;
    server.start_health(HealthOptions {
        canary: Some(canary),
        tick_us: 10_000,
        canary_interval_us: 200_000,
    });
    {
        let mut c = server.connect_local(&alice)?;
        c.mkdir("/hot")?;
        c.mkdir("/cold")?;
        c.put("/hot/doc", b"seed")?;
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| -> Result<(), Box<dyn std::error::Error>> {
        // Two writers overwriting ONE file: path-class write contention.
        for t in 0..2usize {
            let mut c = server.connect_local(&alice)?;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let _ = c.put("/hot/doc", format!("w{t}:{i}").as_bytes());
                    i += 1;
                }
            });
        }
        // Membership churn: group-list / member class traffic.
        {
            let mut c = server.connect_local(&alice)?;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..3 {
                        let name = format!("m{i}");
                        let _ = c.add_user(&name, "team");
                        let _ = c.remove_user(&name, "team");
                    }
                }
            });
        }
        // Disjoint reader/writer: the uncontended baseline.
        {
            let mut c = server.connect_local(&alice)?;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let p = format!("/cold/f{}", i % 8);
                    let _ = c.put(&p, b"cold body");
                    let _ = c.get(&p);
                    i += 1;
                }
            });
        }

        let started = Instant::now();
        let mut prev = server.metrics_snapshot();
        while started.elapsed() < RUN_FOR {
            std::thread::sleep(TICK);
            let snap = server.metrics_snapshot();
            let win = snap.delta(&prev);
            print_window(&server, &win, TICK);
            prev = snap;
        }
        stop.store(true, Ordering::Relaxed);
        Ok(())
    })?;
    server.stop_health();

    // Final health verdict over the whole run: a clean mixed workload
    // must scrub clean and stay in the healthy state.
    let health = server.telemetry().health();
    println!("--- health ---");
    println!(
        "  state {}  scrub passes {}  findings {}  canary {}/{} ok  slo alerts {}",
        health.state_label(),
        health.scrub_passes(),
        health.findings_total(),
        health.canary_probes() - health.canary_failures(),
        health.canary_probes(),
        health.monitor().alerts().total(),
    );
    assert_eq!(health.findings_total(), 0, "clean workload scrubs clean");

    // The one report: the same bundle the stall watchdog stores. Every
    // request was metered, and nothing in it names a path, group, or
    // user operand of the workload above.
    let report = server.report();
    let stats = server.telemetry().watch();
    let metered = server.telemetry().meter().samples();
    println!("--- report ---");
    println!(
        "  {} bytes; stalls: request {} / global {}; automatic dumps {}; {metered} requests metered",
        report.len(),
        stats.stalls_request(),
        stats.stalls_global(),
        stats.dumps(),
    );
    for section in [
        "\"flight\"",
        "\"lock_top\"",
        "\"trace_tail\"",
        "\"profile\"",
        "\"health\"",
        "\"meter\"",
    ] {
        assert!(report.contains(section), "report missing {section}");
    }
    assert!(metered > 0, "workload was metered");
    for operand in ["hot", "cold", "alice", "team"] {
        assert!(
            !report.contains(operand),
            "the report must never carry request operands"
        );
    }
    println!("  (checked: report complete, requests attributed, no request content)");
    Ok(())
}

/// Prints one dashboard frame from a windowed snapshot delta.
fn print_window(server: &segshare::SegShareServer, win: &Snapshot, tick: Duration) {
    let secs = tick.as_secs_f64();
    println!("── segshare top ─────────────────────────────────────────");

    // Request rates and windowed p95 per operation.
    println!("  {:<14} {:>8} {:>10}", "op", "req/s", "p95");
    for (id, count) in &win.counters {
        if id.name() != "seg_requests_total" || *count == 0 {
            continue;
        }
        let op = id.labels().first().map_or("?", |&(_, v)| v);
        let p95 = win
            .histogram(&format!("seg_request_latency_ns{{op=\"{op}\"}}"))
            .map_or(0, |h| h.p95);
        println!(
            "  {op:<14} {:>8.0} {:>8.2}ms",
            *count as f64 / secs,
            p95 as f64 / 1e6
        );
    }

    // Lock wait attributed by key class (window totals).
    println!("  lock wait (window):");
    for class in ["path", "group_root", "group_list", "member"] {
        let mut parts = Vec::new();
        for intent in ["read", "write"] {
            if let Some(h) = win.histogram(&format!(
                "seg_lock_wait_ns{{class=\"{class}\",intent=\"{intent}\"}}"
            )) {
                if h.count > 0 {
                    parts.push(format!("{intent} {:.2}ms/{}", h.sum as f64 / 1e6, h.count));
                }
            }
        }
        if !parts.is_empty() {
            println!("    {class:<11} {}", parts.join("  "));
        }
    }

    // Saturation gauges are levels, not rates: the window keeps their
    // latest values.
    let r = server.reactor();
    let r = r.stats();
    println!(
        "  in-flight {}  queued {} B  global held {} µs",
        win.gauge("seg_net_inflight_requests").unwrap_or(0),
        r.outq_bytes(),
        server.enclave().locks().global_held_us(),
    );

    // Front end: the reactor's per-state connection gauges (the
    // seg_net_conns{state=...} family), dispatch queue depth, and the
    // lifecycle counters operators alert on (sheds, idle reaps).
    use seg_net::reactor::ConnState;
    println!(
        "  front end: {} conns (hs {}  streaming {}  draining {})  dispatch q {}",
        r.live_conns(),
        r.conns_in(ConnState::Handshaking),
        r.conns_in(ConnState::Streaming),
        r.conns_in(ConnState::Draining),
        r.dispatch_depth(),
    );
    println!(
        "  front end: accepted {}  closed {}  shed {}  idle-reaped {}  send stalls {}",
        r.accepted_total(),
        r.closed_total(),
        r.shed_total(),
        r.reaped_idle_total(),
        r.send_stalls_total(),
    );

    // Health plane: state machine verdict, scrub progress, canary
    // round-trips, and any firing SLO burn-rate alerts.
    let health = server.telemetry().health();
    println!(
        "  health {}  scrub passes {}  findings {}  canary {}/{}  slo active {}",
        health.state_label(),
        health.scrub_passes(),
        health.findings_total(),
        health.canary_probes() - health.canary_failures(),
        health.canary_probes(),
        health.monitor().active_alerts(),
    );

    // Tenants: the meter's heaviest principals, groups, and path
    // prefixes (cumulative op estimates; keys are keyed fingerprints,
    // `~err` marks a slot's SpaceSaving over-count bound).
    let meter = server.telemetry().meter();
    let fmt_top = |slots: Vec<seg_obs::MeterSlot>| -> String {
        slots
            .iter()
            .map(|s| {
                if s.err > 0 {
                    format!("{:016x} {}op~{}", s.fp, s.est, s.err)
                } else {
                    format!("{:016x} {}op", s.fp, s.est)
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("  tenants ({} requests metered):", meter.samples());
    for axis in ["principal", "group", "prefix"] {
        let top = meter.top(axis, 3);
        if !top.is_empty() {
            println!("    {axis:<9} {}", fmt_top(top));
        }
    }

    // Cumulative top contended stripes.
    let top = server.enclave().locks().contended_stripes(3);
    if !top.is_empty() {
        let rendered: Vec<String> = top
            .iter()
            .map(|s| format!("#{} {:.2}ms/{}", s.stripe, s.wait_ns as f64 / 1e6, s.waits))
            .collect();
        println!("  hot stripes: {}", rendered.join("  "));
    }
}
