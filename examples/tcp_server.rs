//! Real networking: the SeGShare server listening on a TCP socket and a
//! client connecting over localhost — the same deployment shape as the
//! paper's WebDAV prototype, with the untrusted host accepting TCP and
//! the enclave terminating TLS (§IV-B).
//!
//! Run with: `cargo run --release --example tcp_server`
//!
//! Pass `--metrics` to print the server's telemetry snapshot
//! (Prometheus exposition text) after the demo traffic completes,
//! `--trace` to print the structured request trace (JSON, newest
//! events last) plus the audit-chain verification result,
//! `--profile` to print the phase profiler's flamegraph-collapsed
//! output plus a per-phase breakdown of the 1 MB upload,
//! `--watch` to print the seg-watch plane's saturation gauges and its
//! correlated contention report (flight-recorder ring, lock top-K,
//! trace tail, profile — one JSON bundle), and
//! `--health` to run the background health plane (SLO sampler,
//! integrity scrubber, loopback canary) and print its report, and
//! `--meter` to print the seg-meter plane's per-principal/group/prefix
//! cost attribution report (top-K talkers + fairness summary), and
//! `--store wal:<dir>` to back the server with the crash-consistent
//! write-ahead-logged store (group commit on) instead of in-memory
//! stores — data in `<dir>` survives server restarts.
//!
//! Connections are served by the event-driven reactor (one epoll loop
//! plus a bounded enclave worker pool; see OPERATIONS.md for tuning and
//! the `seg_net_conns` state gauges), so this example needs Linux on
//! x86-64 or aarch64.

use std::net::TcpListener;

use seg_net::TcpTransport;
use segshare::{Client, EnclaveConfig, FsoSetup, HealthOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let metrics = std::env::args().any(|a| a == "--metrics");
    let trace = std::env::args().any(|a| a == "--trace");
    let profile = std::env::args().any(|a| a == "--profile");
    let watch = std::env::args().any(|a| a == "--watch");
    let health = std::env::args().any(|a| a == "--health");
    let meter = std::env::args().any(|a| a == "--meter");
    let store = std::env::args()
        .skip_while(|a| a != "--store")
        .nth(1)
        .unwrap_or_else(|| "mem".to_string());
    // Cache on: the Prometheus exposition below then includes the
    // seg_cache_* counter family alongside the request/store metrics.
    // An aggressive scrub cadence lets `--health` complete full
    // integrity passes within the demo's lifetime.
    let config = EnclaveConfig {
        cache: true,
        scrub_interval_us: if health { 10_000 } else { 1_000_000 },
        // Durable backend: batch requests so one client request is one
        // group-committed (singly-fsynced) WAL frame.
        batch: store.starts_with("wal:"),
        ..EnclaveConfig::default()
    };
    let setup = if let Some(dir) = store.strip_prefix("wal:") {
        println!("using WAL store in {dir} (group commit on)");
        // A fixed deployment seed stands in for persistent CA/machine
        // identity, so a later run over the same directory can unseal
        // this run's keys and recover its state.
        FsoSetup::new_wal_persistent("ca", config, dir, 42)?
    } else {
        FsoSetup::new_in_memory("ca", config)
    };
    let server = setup.server()?;
    let alice = setup.enroll_user("alice", "a@x", "Alice")?;
    if health {
        let canary = setup.enroll_user("canary", "canary@x", "Canary")?;
        server.start_health(HealthOptions {
            canary: Some(canary),
            tick_us: 5_000,
            canary_interval_us: 50_000,
        });
    }

    // The untrusted host terminates TCP: one epoll event loop owns
    // every socket and a bounded worker pool pumps opaque TLS frames
    // into the enclave.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    println!(
        "segshare server listening on {addr} (reactor front end, {} AES-GCM, {} SHA-256)",
        seg_crypto::gcm::Gcm::backend(),
        seg_crypto::sha256::Sha256::backend(),
    );
    server.serve_listener(listener)?;

    // A client across the (local) network.
    let transport = TcpTransport::connect(&addr.to_string())?;
    let mut c = Client::connect(transport, &alice)?;
    if let Err(e) = c.mkdir("/over-tcp") {
        // A durable backend recovers earlier runs' state, so the
        // directory may already exist.
        if !store.starts_with("wal:") {
            return Err(e.into());
        }
        println!("recovered /over-tcp from a previous run");
    }
    let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 256) as u8).collect();
    let start = std::time::Instant::now();
    c.put("/over-tcp/megabyte.bin", &payload)?;
    let up = start.elapsed();
    let start = std::time::Instant::now();
    let downloaded = c.get("/over-tcp/megabyte.bin")?;
    let down = start.elapsed();
    assert_eq!(downloaded, payload);
    println!(
        "uploaded 1 MB in {up:?}, downloaded in {down:?} (localhost, full TLS + enclave path)"
    );

    for entry in c.list("/over-tcp")? {
        println!("  {} {}", if entry.is_dir { "d" } else { "-" }, entry.name);
    }

    if metrics {
        println!("\n--- metrics snapshot ---");
        print!("{}", server.metrics_snapshot().to_prometheus());
    }
    if trace {
        // Everything printed here crossed a declassification point:
        // interned operation labels and keyed fingerprints only.
        println!("\n--- request trace (newest 64) ---");
        print!("{}", seg_obs::events_json(&server.trace_tail(64)));
        println!("--- slow requests ---");
        print!("{}", seg_obs::events_json(&server.slow_requests(16)));
        match server.audit_verify() {
            Ok(n) => println!("audit chain verified: {n} records"),
            Err(e) => println!("audit chain FAILED verification: {e}"),
        }
    }
    if profile {
        // The snapshot is a declassification point: paths are
        // compiled-in phase names, values are aggregated durations.
        let prof = server.profile_snapshot();
        println!("\n--- phase profile (flamegraph-collapsed) ---");
        print!("{}", prof.to_collapsed());

        // The 1 MB upload above arrived as one put_file request plus
        // its streamed data chunks; fold both into one breakdown.
        let upload_ops = ["put_file", "data"];
        let wall_ns: u64 = upload_ops.iter().map(|op| prof.op_total_ns(op)).sum();
        let self_sum_ns: u64 = upload_ops
            .iter()
            .flat_map(|op| prof.op_entries(op))
            .map(|e| e.self_ns)
            .sum();
        println!("\n--- 1 MB upload phase breakdown (self time) ---");
        for (leaf, ns) in prof.phase_breakdown(&upload_ops) {
            println!(
                "  {leaf:<14} {:>9.3} ms  {:>5.1}%",
                ns as f64 / 1e6,
                ns as f64 * 100.0 / wall_ns.max(1) as f64
            );
        }
        println!(
            "  enclave-side wall-clock {:.3} ms; phase self-times sum to {:.3} ms ({:.1}%)",
            wall_ns as f64 / 1e6,
            self_sum_ns as f64 / 1e6,
            self_sum_ns as f64 * 100.0 / wall_ns.max(1) as f64,
        );
        // Sanity-check the attribution: nothing lost, nothing double
        // counted. Which phase leads depends on the machine (AES-NI or
        // not) and the build, so that is printed, not asserted.
        let drift = (wall_ns as f64 - self_sum_ns as f64).abs() / wall_ns.max(1) as f64;
        assert!(
            drift <= 0.10,
            "phase self-times must account for the request wall-clock (drift {drift:.3})"
        );
        println!("  (checked: self-times account for the wall-clock)");
    }
    if watch {
        let stats = server.watch_stats();
        println!("\n--- watch plane (saturation) ---");
        println!(
            "  live sessions {}  in-flight {}",
            stats.live_sessions(),
            stats.in_flight()
        );
        let net = stats.net_meter();
        println!(
            "  sent {} B  queued {} B  send stalls {} ({:.1} ms stalled)",
            net.sent_bytes(),
            net.queued_bytes(),
            net.send_stalls(),
            net.send_stall_ns() as f64 / 1e6
        );
        if let Some(r) = stats.reactor_stats() {
            println!(
                "  reactor: {} live conns ({} accepted, {} closed, {} shed, {} idle-reaped)",
                r.live_conns(),
                r.accepted_total(),
                r.closed_total(),
                stats.sheds(),
                r.reaped_idle_total()
            );
        }
        let report = server.watch_report();
        println!("--- watch report (correlated bundle) ---");
        println!("{report}");
        // The report is the widest export the server offers; sanity
        // check it is complete and honors the trust boundary.
        for section in [
            "\"flight\"",
            "\"lock_top\"",
            "\"trace_tail\"",
            "\"profile\"",
        ] {
            assert!(report.contains(section), "report missing {section}");
        }
        assert!(
            !report.contains("over-tcp") && !report.contains("alice"),
            "watch report must never carry request operands"
        );
        println!("  (checked: report complete, no request content)");
    }
    if health {
        // Let the background runner finish at least one full scrub
        // pass and a few canary probes over the idle server.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let h = server.enclave().health();
            if h.scrub_passes() >= 1 && h.canary_probes() >= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "health runner made no progress"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let report = server.health_report();
        println!("\n--- health report (SLO + scrub + canary) ---");
        println!("{report}");
        // The report is a declassification point like the others:
        // states, counters and fingerprints — never request content.
        for section in [
            "\"state\"",
            "\"scrub\"",
            "\"canary\"",
            "\"slo\"",
            "\"history\"",
        ] {
            assert!(report.contains(section), "report missing {section}");
        }
        assert!(
            !report.contains("over-tcp") && !report.contains("alice"),
            "health report must never carry request operands"
        );
        assert!(
            report.contains("\"state\":\"healthy\""),
            "an untampered demo server is healthy"
        );
        server.stop_health();
        println!("  (checked: report complete, server healthy, no request content)");
    }
    if meter {
        let report = server.meter_report();
        println!("\n--- meter report (per-tenant cost attribution) ---");
        println!("{report}");
        // Declassification check, same as the other planes: axes,
        // rollups and fingerprints — never request operands.
        for section in [
            "\"totals\"",
            "\"principals\"",
            "\"groups\"",
            "\"prefixes\"",
            "\"fairness\"",
        ] {
            assert!(report.contains(section), "report missing {section}");
        }
        assert!(
            !report.contains("over-tcp") && !report.contains("alice"),
            "meter report must never carry request operands"
        );
        // The demo traffic ran as one principal (plus the canary when
        // `--health` is on); the sketch must have attributed exactly
        // those talkers.
        let tracked = report
            .find("\"principals\":{\"tracked\":")
            .map(|at| {
                report[at + 24..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
            })
            .and_then(|n| n.parse::<u64>().ok())
            .expect("report carries the principal slot count");
        let expected = if health { 2 } else { 1 };
        assert_eq!(
            tracked, expected,
            "the demo principals must be tracked, nothing else"
        );
        println!("  (checked: report complete, demo principal attributed, no request content)");
    }
    Ok(())
}
