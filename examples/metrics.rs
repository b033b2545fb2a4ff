//! Telemetry tour: drive an upload → share → download → revoke flow
//! and print the server's unified metrics snapshot, the phase-profile
//! breakdown, the newest request records, and the verified audit
//! trail.
//!
//! Every export here crosses a *declassification point*: per-operation
//! request counts and latency quantiles, enclave-boundary crossings, EPC
//! usage, and per-store I/O totals — and nothing request-derived (no
//! paths, no user ids; the `seg-obs` label charset makes them
//! unrepresentable, and records and audit events carry keyed fingerprints
//! instead of identities).
//!
//! Run with: `cargo run --release --example metrics`

use seg_fs::Perm;
use segshare::{EnclaveConfig, FsoSetup};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Cache on, so the tour also shows the object-cache counter family
    // (absent entirely when the toggle is off).
    let config = EnclaveConfig {
        cache: true,
        ..EnclaveConfig::default()
    };
    let setup = FsoSetup::new_in_memory("ca", config);
    let server = setup.server()?;
    let alice = setup.enroll_user("alice", "alice@acme.example", "Alice")?;
    let bob = setup.enroll_user("bob", "bob@acme.example", "Bob")?;

    // Upload → share → download → revoke, the paper's core flow.
    let mut a = server.connect_local(&alice)?;
    a.mkdir("/docs/")?;
    let payload: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 251) as u8).collect();
    a.put("/docs/report.bin", &payload)?;
    a.add_user("alice", "eng")?;
    a.add_user("bob", "eng")?;
    a.set_perm("/docs/report.bin", "eng", Perm::Read)?;

    let mut b = server.connect_local(&bob)?;
    assert_eq!(b.get("/docs/report.bin")?, payload);

    a.remove_user("bob", "eng")?;
    assert!(
        b.get("/docs/report.bin").is_err(),
        "revocation is immediate"
    );

    // ------------------------------------------------------- reporting
    let snap = server.metrics_snapshot();

    println!("per-operation latency (ns):");
    println!(
        "  {:<16} {:>6} {:>12} {:>12} {:>12}",
        "op", "count", "p50", "p95", "p99"
    );
    for (id, h) in &snap.histograms {
        if id.name() != "seg_request_latency_ns" {
            continue;
        }
        let op = id.labels().first().map(|&(_, v)| v).unwrap_or("?");
        println!(
            "  {:<16} {:>6} {:>12} {:>12} {:>12}",
            op, h.count, h.p50, h.p95, h.p99
        );
    }

    println!("\nenclave boundary:");
    for name in ["seg_boundary_ecalls_total", "seg_boundary_ocalls_total"] {
        println!("  {name} = {}", snap.counter(name).unwrap_or(0));
    }

    println!("\nper-store I/O:");
    for store in ["content", "group", "dedup"] {
        let read = snap
            .counter(&format!("seg_store_bytes_read_total{{store=\"{store}\"}}"))
            .unwrap_or(0);
        let written = snap
            .counter(&format!(
                "seg_store_bytes_written_total{{store=\"{store}\"}}"
            ))
            .unwrap_or(0);
        println!("  {store}: {read} bytes read, {written} bytes written");
    }

    println!("\nobject cache:");
    let hits = snap.counter("seg_cache_hits_total").unwrap_or(0);
    let misses = snap.counter("seg_cache_misses_total").unwrap_or(0);
    println!(
        "  hits={hits} misses={misses} fills={} invalidations={} | {} entries, {} bytes",
        snap.counter("seg_cache_fills_total").unwrap_or(0),
        snap.counter("seg_cache_invalidations_total").unwrap_or(0),
        snap.gauge("seg_cache_entries").unwrap_or(0),
        snap.gauge("seg_cache_bytes").unwrap_or(0),
    );

    println!("\n--- full snapshot (JSON) ---");
    print!("{}", snap.to_json());
    println!("--- full snapshot (Prometheus) ---");
    print!("{}", snap.to_prometheus());

    // ------------------------------------------------- phase profile
    // Where each operation's time went, as a static phase tree. Paths
    // are compiled-in names only; values are aggregated durations —
    // the same trust-boundary rule as the metrics above.
    let prof = server.telemetry().profile_snapshot();
    println!("--- phase profile (self time by phase, all ops) ---");
    let ops: Vec<&str> = prof
        .entries
        .iter()
        .map(|e| e.path[0])
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for (leaf, ns) in prof.phase_breakdown(&ops) {
        println!("  {leaf:<14} {:>9.3} ms", ns as f64 / 1e6);
    }
    println!("--- phase profile (flamegraph-collapsed) ---");
    print!("{}", prof.to_collapsed());
    println!("--- phase profile (JSON) ---");
    print!("{}", prof.to_json());

    // ---------------------------------------------- records and audit
    // Principals and objects appear as keyed fingerprints: stable across
    // records (bob's denied read carries the same ids as his earlier
    // allowed one) but not invertible outside the enclave.
    println!("--- recent requests (newest 32 whole records, JSON) ---");
    print!(
        "{}",
        segshare::telemetry::records_json(&server.telemetry().watch().recent_requests(32))
    );
    println!("--- slow requests (whole records) ---");
    print!(
        "{}",
        segshare::telemetry::records_json(&server.telemetry().watch().slow_requests(16))
    );

    let verified = server.audit_verify()?;
    println!("--- audit trail ({verified} records, chain verified) ---");
    print!(
        "{}",
        segshare::telemetry::audit_json(&server.audit_export()?)
    );
    Ok(())
}
