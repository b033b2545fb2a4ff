//! Observability integration: the unified telemetry snapshot over a
//! full upload → share → download → revoke flow.
//!
//! Checks the three contract points of the `seg-obs` layer:
//!
//! 1. every operation of the flow shows up with nonzero per-op counts
//!    and latency quantiles;
//! 2. the boundary counters folded into the snapshot match the
//!    simulated-SGX [`seg_sgx`] boundary accounting exactly;
//! 3. nothing request-derived (paths, user ids, group names, emails)
//!    appears in either snapshot encoding — the trust-boundary rule
//!    (paper §III: everything leaving the enclave is adversary-visible).

use seg_fs::Perm;
use segshare::{EnclaveConfig, FsoSetup, SegShareServer};

/// Distinctive strings used as operands below; none may leak into the
/// encoded snapshots.
const SECRETS: &[&str] = &[
    "alice",
    "bob",
    "strategyteam",
    "plans-secret",
    "q3-report",
    "acme.example",
];

/// Drives the canonical flow and returns the server for inspection.
fn run_flow(config: EnclaveConfig) -> SegShareServer {
    let setup = FsoSetup::new_in_memory("obs-ca", config);
    let server = setup.server().expect("setup");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll alice");
    let bob = setup
        .enroll_user("bob", "bob@acme.example", "Bob")
        .expect("enroll bob");

    let mut a = server.connect_local(&alice).expect("alice connects");
    a.mkdir("/plans-secret/").expect("mkdir");
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    a.put("/plans-secret/q3-report", &payload).expect("upload");
    a.add_user("alice", "strategyteam").expect("create group");
    a.add_user("bob", "strategyteam").expect("share");
    a.set_perm("/plans-secret/q3-report", "strategyteam", Perm::Read)
        .expect("grant");

    let mut b = server.connect_local(&bob).expect("bob connects");
    assert_eq!(b.get("/plans-secret/q3-report").expect("download"), payload);

    a.remove_user("bob", "strategyteam").expect("revoke");
    assert!(
        b.get("/plans-secret/q3-report").is_err(),
        "revocation is immediate"
    );

    // Let the connection threads settle (they drain their outgoing
    // queues with ecalls after the last response is delivered).
    drop(a);
    drop(b);
    std::thread::sleep(std::time::Duration::from_millis(100));
    server
}

#[test]
fn flow_produces_nonzero_per_op_metrics() {
    let server = run_flow(EnclaveConfig::default());
    let snap = server.metrics_snapshot();

    // Exact request counts: the client drove a known script. Bob's
    // second (denied) get also counts — requests are counted whether
    // they succeed or not.
    for (op, expected) in [
        ("mk_dir", 1),
        ("put_file", 1),
        ("get", 2),
        ("set_perm", 1),
        ("add_user", 2),
        ("remove_user", 1),
    ] {
        assert_eq!(
            snap.counter(&format!("seg_requests_total{{op=\"{op}\"}}")),
            Some(expected),
            "request count for {op}"
        );
        let h = snap
            .histogram(&format!("seg_request_latency_ns{{op=\"{op}\"}}"))
            .unwrap_or_else(|| panic!("latency histogram for {op}"));
        assert_eq!(h.count, expected, "latency sample count for {op}");
        assert!(h.p50 > 0 && h.p95 >= h.p50 && h.p99 >= h.p95, "{op}: {h:?}");
    }

    // The 64 KiB upload streamed at least one data chunk.
    assert!(
        snap.counter("seg_requests_total{op=\"data\"}").unwrap_or(0) >= 1,
        "upload streamed chunks"
    );

    // The denied download shows up under its error code.
    assert_eq!(
        snap.counter("seg_request_errors_total{code=\"denied\",op=\"get\"}"),
        Some(1)
    );

    // Store and crypto activity is attributed.
    assert!(
        snap.counter("seg_store_bytes_written_total{store=\"content\"}")
            .unwrap_or(0)
            > 64 * 1024,
        "content store saw the upload"
    );
    assert!(
        snap.counter("seg_store_bytes_written_total{store=\"group\"}")
            .unwrap_or(0)
            > 0,
        "group store saw membership updates"
    );
    assert!(
        snap.histogram("seg_pfs_encrypt_ns")
            .map(|h| h.count)
            .unwrap_or(0)
            > 0,
        "protected-fs encryption was timed"
    );
    assert!(
        snap.histogram("seg_rollback_tree_update_ns")
            .map(|h| h.count)
            .unwrap_or(0)
            > 0,
        "rollback-tree updates were timed"
    );

    // Connection-level accounting from the untrusted host.
    assert_eq!(snap.counter("seg_connections_total"), Some(2));
    assert!(
        snap.counter("seg_connection_bytes_total{dir=\"in\"}")
            .unwrap_or(0)
            > 64 * 1024,
        "inbound frames carried the upload"
    );
}

#[test]
fn snapshot_boundary_counts_match_sgx_accounting() {
    let server = run_flow(EnclaveConfig::default());
    let snap = server.metrics_snapshot();
    // Read the authoritative counters *after* the snapshot: they are
    // monotonic, so equality proves the snapshot is exact and current.
    let stats = server.enclave().sgx().boundary().stats();
    assert_eq!(
        snap.counter("seg_boundary_ecalls_total"),
        Some(stats.ecalls)
    );
    assert_eq!(
        snap.counter("seg_boundary_ocalls_total"),
        Some(stats.ocalls)
    );
    assert!(stats.ecalls > 0 && stats.ocalls > 0, "{stats:?}");
    assert_eq!(
        snap.gauge("seg_boundary_simulated_ns"),
        Some(stats.simulated_ns)
    );

    // Repeated snapshots must not double-count the folded-in totals.
    let again = server.metrics_snapshot();
    assert_eq!(
        again.counter("seg_boundary_ecalls_total"),
        Some(stats.ecalls)
    );
}

#[test]
fn encoded_snapshots_carry_no_request_content() {
    // One flow, then every export a caller can reach, against one list
    // of what the flow's requests contained. Each export is a
    // declassification point; the rule is the same for all of them.
    let config = EnclaveConfig {
        // Every request of the flow stalls, so the watchdog's stored
        // dump exists and the slow log is full of whole records.
        watch_deadline_us: 1,
        ..EnclaveConfig::default()
    };
    let server = run_flow(config);
    let enclave = server.enclave();
    while !enclave.scrub_step().pass_completed {}
    let snap = server.metrics_snapshot();
    let report = server.report();
    let sections = "saturation stalls global_held_us lock_top flight trace_tail slow_requests \
                    profile state scrub canary alerts slo history totals principals objects \
                    groups prefixes fairness";
    for section in sections.split_whitespace() {
        assert!(
            report.contains(&format!("\"{section}\":")),
            "report missing {section}"
        );
    }
    assert!(report.contains("\"op\": \"put_file\", \"decision\": \"allow\""));
    for (export, text) in [
        ("snapshot json", snap.to_json()),
        ("snapshot prometheus", snap.to_prometheus()),
        ("report", report),
        (
            "stall dump",
            enclave.watch().last_dump().expect("every request stalled"),
        ),
        (
            "profile collapsed",
            enclave.profile_snapshot().to_collapsed(),
        ),
        (
            "audit export",
            segshare::enclave::audit::records_json(&server.audit_export().expect("chain verifies")),
        ),
    ] {
        for secret in SECRETS {
            assert!(!text.contains(secret), "{export} leaks {secret:?}");
        }
        // Every name in an export is compiled in: no path separator,
        // no email-like token, at all.
        assert!(!text.contains('/'), "{export} contains a path separator");
        assert!(!text.contains('@'), "{export} contains an email-like token");
    }
}

#[test]
fn watch_plane_families_always_export_with_clean_labels() {
    // The seg-watch families must be present in every export — zero on
    // idle or disabled subsystems, never absent — so dashboards see a
    // stable series set across configurations. And every series the
    // snapshot emits must satisfy the compiled-in-label hygiene rule.
    let server = run_flow(EnclaveConfig::default());
    let text = server.metrics_snapshot().to_prometheus();

    for family in [
        "seg_lock_wait_ns",
        "seg_lock_hold_ns",
        "seg_lock_global_wait_ns",
        "seg_lock_global_hold_ns",
        "seg_lock_global_held_us",
        "seg_net_live_sessions",
        "seg_net_inflight_requests",
        "seg_net_queued_bytes",
        "seg_net_send_stalls_total",
        "seg_net_send_stall_ns_total",
        "seg_watch_stalls_total",
        "seg_watch_dumps_total",
        "seg_telemetry_enabled",
        "seg_flight_frames_total",
        // Cache gauges export as zero even with the cache disabled.
        "seg_cache_entries",
        "seg_cache_bytes",
        // Health-plane families export even when no runner ever
        // started: zero samples, zero scrub passes, healthy state.
        "seg_health_samples_total",
        "seg_health_canary_probes_total",
        "seg_health_canary_failures_total",
        "seg_health_state",
        "seg_health_rollup_slots",
        "seg_health_canary_latency_us",
        "seg_slo_alerts_total",
        "seg_slo_alerts_suppressed_total",
        "seg_slo_alerts_active",
        "seg_scrub_passes_total",
        "seg_scrub_items_total",
        "seg_scrub_findings_total",
        // Durability families export on every backend — zero on
        // in-memory stores, live on a WAL backend — so a dashboard
        // built against one deployment works against the other.
        "seg_store_batches_total",
        "seg_store_batch_ops_total",
        "seg_store_fsyncs_total",
        "seg_store_fsync_bytes_total",
        // Meter families export in every configuration so the series
        // set stays stable whether telemetry is on or off.
        "seg_meter_samples_total",
        "seg_meter_tracked",
        "seg_meter_min_tracked_ops",
        "seg_meter_evictions_total",
        "seg_meter_overflow_ops_total",
    ] {
        assert!(
            text.contains(family),
            "family {family} missing from the prometheus export"
        );
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.gauge("seg_telemetry_enabled"), Some(1), "always-on");
    assert_eq!(snap.gauge("seg_cache_entries"), Some(0), "cache disabled");
    for axis in ["principal", "object", "group", "prefix"] {
        assert!(
            snap.gauge(&format!("seg_meter_tracked{{axis=\"{axis}\"}}"))
                .is_some(),
            "per-axis meter gauge pre-interned for {axis}"
        );
    }
    assert_eq!(snap.gauge("seg_health_state"), Some(0), "healthy at rest");
    // The scrub families pre-intern one series per check class, all
    // zero until a runner drives the scrubber.
    for check in ["audit", "tree", "cache", "orphan"] {
        assert_eq!(
            snap.counter(&format!("seg_scrub_findings_total{{check=\"{check}\"}}")),
            Some(0),
            "idle scrub findings for {check}"
        );
    }
    // Lock-wait series carry both label axes with expected values.
    assert!(
        snap.histogram("seg_lock_wait_ns{class=\"path\",intent=\"write\"}")
            .is_some(),
        "per-class lock-wait series pre-interned"
    );

    // Label-hygiene lint: every series line is `name{k="v",...} value`
    // where names and keys are [a-z_][a-z0-9_]* and values [a-z0-9_.]+.
    let clean_name = |s: &str| {
        !s.is_empty()
            && s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let clean_value = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    };
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let series = line.split_whitespace().next().unwrap();
        let (name, labels) = match series.find('{') {
            Some(pos) => (
                &series[..pos],
                series[pos + 1..].strip_suffix('}').unwrap_or(""),
            ),
            None => (series, ""),
        };
        assert!(clean_name(name), "bad metric name in line: {line}");
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').expect("k=\"v\" pair");
            let v = v.trim_matches('"');
            assert!(clean_name(k), "bad label key {k:?} in line: {line}");
            assert!(
                clean_value(v) && v.chars().all(|c| !c.is_ascii_uppercase()),
                "bad label value {v:?} in line: {line}"
            );
        }
    }
}

#[test]
fn trace_ring_correlates_requests_across_layers() {
    let server = run_flow(EnclaveConfig::default());
    let events = server.enclave().trace_tail(usize::MAX);
    assert!(!events.is_empty(), "the flow left trace events");

    // Sequence numbers are strictly increasing (no torn or duplicated
    // slots) and every dispatch-level event carries a request id.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    let dispatch_ops = [
        "mk_dir",
        "put_file",
        "get",
        "set_perm",
        "add_user",
        "remove_user",
        "data",
    ];
    for e in &events {
        if dispatch_ops.contains(&e.op) {
            assert!(e.request_id > 0, "dispatch event without request id: {e:?}");
            assert!(e.principal != 0, "dispatch event without principal: {e:?}");
        }
    }

    // Access-control and store events inherit the dispatching request's
    // id: every get shares its id with at least one auth_file check.
    let get_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.op == "get")
        .map(|e| e.request_id)
        .collect();
    assert_eq!(get_ids.len(), 2, "both downloads traced");
    for id in &get_ids {
        assert!(
            events
                .iter()
                .any(|e| e.op == "auth_file" && e.request_id == *id),
            "no auth_file event for get request {id}"
        );
    }

    // Bob's revoked download shows up as a deny.
    assert!(
        events
            .iter()
            .any(|e| e.decision == seg_obs::TraceDecision::Deny && e.code == "denied"),
        "denied decision traced"
    );

    // The snapshot's trace counters agree with the ring.
    let snap = server.metrics_snapshot();
    let emitted = snap.counter("seg_trace_events_total").unwrap_or(0);
    let dropped = snap.counter("seg_trace_dropped_total").unwrap_or(0);
    assert!(emitted >= events.len() as u64);
    assert_eq!(dropped, 0, "this small flow cannot overflow the ring");
}

#[test]
fn epc_gauges_report_peak_usage() {
    let server = run_flow(EnclaveConfig::default());
    let snap = server.metrics_snapshot();
    let peak = snap.gauge("seg_epc_peak_bytes").expect("peak gauge");
    assert!(peak > 0, "the flow registered enclave memory");
    assert_eq!(
        Some(peak),
        Some(server.enclave().sgx().epc().peak_bytes()),
        "gauge mirrors the tracker"
    );
}

#[test]
fn profile_attributes_upload_wall_clock_to_phases() {
    // A 1 MB upload through the full enclave path: the phase profiler
    // must attribute the request's wall-clock without losing or double
    // counting time. Which phase comes out on top is the machine's
    // business (with AES-NI, `pfs` and `crypto_gcm` trade places between
    // debug and release), so it is not asserted.
    let setup = FsoSetup::new_in_memory("prof-ca", EnclaveConfig::default());
    let server = setup.server().expect("setup");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    let mut a = server.connect_local(&alice).expect("connect");
    let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    a.put("/big", &payload).expect("upload");
    drop(a);

    let prof = server.enclave().profile_snapshot();
    assert!(!prof.entries.is_empty(), "profiler captured the flow");
    assert_eq!(prof.unbalanced, 0, "no unbalanced phase stacks");

    // The upload arrives as one put_file request plus streamed data
    // chunks; fold both.
    let upload_ops = ["put_file", "data"];
    let wall_ns: u64 = upload_ops.iter().map(|op| prof.op_total_ns(op)).sum();
    let self_sum_ns: u64 = upload_ops
        .iter()
        .flat_map(|op| prof.op_entries(op))
        .map(|e| e.self_ns)
        .sum();
    assert!(wall_ns > 0, "upload ops carry wall-clock");
    let drift = (wall_ns as f64 - self_sum_ns as f64).abs() / wall_ns as f64;
    assert!(
        drift <= 0.10,
        "phase self-times must sum to the measured wall-clock \
         (wall {wall_ns} ns, self sum {self_sum_ns} ns, drift {drift:.3})"
    );
}

#[test]
fn history_headline_equals_the_request_families() {
    // Two consumers of one record stream cannot disagree: what the
    // history clock counted from records is what the registry's own
    // request families sum to.
    let server = run_flow(EnclaveConfig::default());
    let snap = server.metrics_snapshot();
    let family = |name: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(id, _)| id.name() == name)
            .map(|&(_, v)| v)
            .sum()
    };
    let (requests, errors) = server.enclave().health().monitor().headline();
    assert_eq!(requests, family("seg_requests_total"));
    assert_eq!(errors, family("seg_request_errors_total"));
    assert!(
        requests >= 9 && errors == 1,
        "{requests} requests, {errors} errors"
    );
    assert_eq!(snap.counter("seg_meter_samples_total"), Some(requests));
    assert!(server.report().contains(&format!(
        "\"history\":{{\"requests\":{requests},\"errors\":1,"
    )));
}

#[test]
fn meter_families_export_zeroed_when_disabled() {
    // With telemetry off from the first request, every family of every
    // consumer must still export — all zero — so dashboards keep a
    // stable series set and an operator can see at a glance that
    // telemetry is off.
    let setup = FsoSetup::new_in_memory("obs-telemetry-off", EnclaveConfig::default());
    let server = setup.server().expect("setup");
    server.set_telemetry(false);
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    let mut a = server.connect_local(&alice).expect("connect");
    a.mkdir("/plans-secret/").expect("mkdir");
    a.put("/plans-secret/q3-report", b"body").expect("upload");
    drop(a);
    std::thread::sleep(std::time::Duration::from_millis(100));

    let snap = server.metrics_snapshot();
    assert_eq!(
        snap.gauge("seg_telemetry_enabled"),
        Some(0),
        "telemetry off"
    );
    for family in [
        "seg_meter_samples_total",
        "seg_flight_frames_total",
        "seg_health_samples_total",
        "seg_watch_dumps_total",
    ] {
        assert_eq!(snap.counter(family), Some(0), "no record reached {family}");
    }
    assert!(
        snap.counters
            .iter()
            .all(|(id, _)| id.name() != "seg_requests_total"),
        "no request was counted while off"
    );
    for axis in ["principal", "object", "group", "prefix"] {
        for (family, value) in [
            (format!("seg_meter_tracked{{axis=\"{axis}\"}}"), 0),
            (format!("seg_meter_min_tracked_ops{{axis=\"{axis}\"}}"), 0),
        ] {
            assert_eq!(snap.gauge(&family), Some(value), "zeroed {family}");
        }
        for family in [
            format!("seg_meter_evictions_total{{axis=\"{axis}\"}}"),
            format!("seg_meter_overflow_ops_total{{axis=\"{axis}\"}}"),
        ] {
            assert_eq!(snap.counter(&family), Some(0), "zeroed {family}");
        }
    }
    // The report also renders in the off state — explicitly marked,
    // with empty sections rather than absent ones. The audit trail is
    // not telemetry: both requests (and the data chunk's commit) are on it.
    let report = server.report();
    assert!(report.contains("\"enabled\":false"), "report marks off");
    assert!(report.contains("\"samples\":0"), "report shows no samples");
    assert_eq!(server.audit_verify().expect("chain verifies"), 3);
}
