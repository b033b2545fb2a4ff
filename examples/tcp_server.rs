//! Real networking: the SeGShare server listening on a TCP socket and a
//! client connecting over localhost — the same deployment shape as the
//! paper's WebDAV prototype, with the untrusted host accepting TCP and
//! the enclave terminating TLS (§IV-B).
//!
//! Run with: `cargo run --release --example tcp_server`
//!
//! Pass `--metrics` to print the server's telemetry snapshot
//! (Prometheus exposition text) after the demo traffic completes,
//! `--report` to run the background health runner (integrity scrubber,
//! loopback canary) beside the demo and print the one report —
//! saturation, stalls, locks, trace tail, slow requests, phase profile
//! and health in one JSON bundle — plus the audit-chain verification
//! result, and
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
    let report = std::env::args().any(|a| a == "--report");
    let store = std::env::args()
        .skip_while(|a| a != "--store")
        .nth(1)
        .unwrap_or_else(|| "mem".to_string());
    // Cache on: the Prometheus exposition below then includes the
    // seg_cache_* counter family alongside the request/store metrics.
    // An aggressive scrub cadence lets `--report` complete full
    // integrity passes within the demo's lifetime.
    let config = EnclaveConfig {
        cache: true,
        scrub_interval_us: if report { 10_000 } else { 1_000_000 },
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
    if report {
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
    if report {
        // Let the background runner finish at least one full scrub
        // pass and a few canary probes over the idle server.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let h = server.telemetry().health();
        while h.scrub_passes() < 1 || h.canary_probes() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "health runner made no progress"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        server.stop_health();
        // Everything printed here crossed the one declassification
        // point: compiled-in names, aggregates, keyed fingerprints.
        let report = server.report();
        println!("\n--- report ---");
        println!("{report}");
        let sections = "enabled saturation stalls locks trace_tail slow_requests profile health";
        for section in sections.split(' ') {
            assert!(
                report.contains(&format!("\"{section}\":")),
                "report missing {section}"
            );
        }
        assert!(
            !report.contains("over-tcp") && !report.contains("alice"),
            "the report must never carry request operands"
        );
        assert!(
            report.contains("\"state\":\"healthy\""),
            "an untampered demo server is healthy"
        );
        // The canary probed through the path clients use, beside them.
        assert_eq!(
            h.canary_failures(),
            0,
            "the loopback canary's probes succeed"
        );
        match server.audit_verify() {
            Ok(n) => println!("audit chain verified: {n} records"),
            Err(e) => println!("audit chain FAILED verification: {e}"),
        }
        println!("  (checked: report complete, server healthy, no request content)");
    }
    Ok(())
}
