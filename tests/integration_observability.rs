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

use std::sync::{Arc, Mutex};

use seg_fs::Perm;
use seg_net::{FrameTransport, NetError};
use seg_obs::{RecordSink, RequestRecord};
use segshare::enclave::session::EnclaveSession;
use segshare::enclave::SegShareEnclave;
use segshare::{Client, EnclaveConfig, EnrolledUser, FsoSetup, SegShareServer};

/// Distinctive strings used as operands below; none may leak into
/// anything that crosses the boundary.
const SECRETS: &[&str] = &[
    "alice",
    "bob",
    "strategyteam",
    "plans-secret",
    "q3-report",
    "acme.example",
];

/// Drives the canonical upload → share → download → revoke flow over
/// connections made by `connect`.
fn drive_flow<T: FrameTransport>(setup: &FsoSetup, connect: impl Fn(&EnrolledUser) -> Client<T>) {
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll alice");
    let bob = setup
        .enroll_user("bob", "bob@acme.example", "Bob")
        .expect("enroll bob");

    let mut a = connect(&alice);
    a.mkdir("/plans-secret/").expect("mkdir");
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    a.put("/plans-secret/q3-report", &payload).expect("upload");
    a.add_user("alice", "strategyteam").expect("create group");
    a.add_user("bob", "strategyteam").expect("share");
    a.set_perm("/plans-secret/q3-report", "strategyteam", Perm::Read)
        .expect("grant");

    let mut b = connect(&bob);
    assert_eq!(b.get("/plans-secret/q3-report").expect("download"), payload);

    a.remove_user("bob", "strategyteam").expect("revoke");
    assert!(
        b.get("/plans-secret/q3-report").is_err(),
        "revocation is immediate"
    );
}

/// Drives the canonical flow and returns the server for inspection.
fn run_flow(config: EnclaveConfig) -> SegShareServer {
    let setup = FsoSetup::new_in_memory("obs-ca", config);
    let server = setup.server().expect("setup");
    drive_flow(&setup, |user| server.connect_local(user).expect("connects"));
    // Let the connection threads settle (they drain their outgoing
    // queues with ecalls after the last response is delivered).
    std::thread::sleep(std::time::Duration::from_millis(100));
    server
}

/// A transport with no host in it: `send_frame` is the `handle_frame`
/// ecall and `recv_frame` is `next_outgoing`, on the caller's thread.
struct Inline {
    enclave: Arc<SegShareEnclave>,
    session: EnclaveSession,
}

impl Inline {
    fn client(enclave: &Arc<SegShareEnclave>, user: &EnrolledUser) -> Client<Inline> {
        let transport = Inline {
            enclave: Arc::clone(enclave),
            session: enclave.new_session().expect("certified"),
        };
        Client::connect(transport, user).expect("handshake")
    }
}

impl FrameTransport for Inline {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.session
            .handle_frame(&self.enclave, frame)
            .map_err(|e| NetError::Io(e.to_string()))
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        match self.session.next_outgoing(&self.enclave) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(NetError::Closed),
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }
}

/// Keeps every record the enclave hands out.
#[derive(Default)]
struct Capture(Mutex<Vec<RequestRecord>>);

impl RecordSink for Capture {
    fn consume(&self, rec: &RequestRecord) {
        self.0.lock().unwrap().push(*rec);
    }
}

/// Fails if `text` — a compiled-in label, or the debug rendering of a
/// crossed value — holds request content: one of [`SECRETS`], a path
/// separator or an email-like token.
fn assert_content_free(what: &str, text: &str) {
    for secret in SECRETS {
        assert!(!text.contains(secret), "{what} leaks {secret:?}: {text}");
    }
    assert!(!text.contains('/'), "{what} contains a path separator");
    assert!(!text.contains('@'), "{what} contains an email-like token");
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

    // Connection-level accounting is the reactor's, exported once.
    assert_eq!(snap.counter("seg_net_conns_accepted_total"), Some(2));
    assert!(
        server.reactor().stats().bytes_in_total() > 64 * 1024,
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

/// [`assert_content_free`] over every metric id of a snapshot.
fn assert_ids_content_free(snap: &seg_obs::Snapshot) {
    let ids = snap.counters.iter().map(|(id, _)| id);
    let ids = ids.chain(snap.gauges.iter().map(|(id, _)| id));
    for id in ids.chain(snap.histograms.iter().map(|(id, _)| id)) {
        assert_content_free("metric id", &id.render().replace(['"', '{', '}'], " "));
    }
}

#[test]
fn encoded_snapshots_carry_no_request_content() {
    // Four kinds of value cross the boundary: the records pushed
    // through the sink, and the snapshots, trace events and scrub
    // reports the host pulls. Everything an operator can export is
    // rendered from those on the untrusted side, so the rule is checked
    // on the values themselves, with a sink of our own on an enclave
    // that has no host.
    let config = EnclaveConfig {
        // Every request of the flow stalls, so the watchdog's stored
        // dump exists and the slow log is full of whole records.
        watch_deadline_us: 1,
        ..EnclaveConfig::default()
    };
    let setup = FsoSetup::new_in_memory("obs-ca", config);
    let enclave = setup.enclave().expect("launch");
    let capture = Arc::new(Capture::default());
    enclave.attach_sink(Arc::clone(&capture) as Arc<dyn RecordSink>);
    drive_flow(&setup, |user| Inline::client(&enclave, user));

    let records = capture.0.lock().unwrap().clone();
    assert!(records.len() >= 9, "every request crossed: {records:?}");
    assert!(records.iter().any(|r| r.op == "put_file" && r.ok()));
    assert!(records.iter().any(|r| r.op == "get" && r.code == "denied"));
    for rec in &records {
        // Labels compiled in, operands as keyed fingerprints only: the
        // type has no field that could hold anything else.
        assert!(rec.principal != 0, "{rec:?}");
        assert_content_free("record", &format!("{rec:?}"));
    }
    assert_ids_content_free(&enclave.metrics_snapshot());
    assert_content_free("profile", &enclave.profile_snapshot().to_collapsed());
    let events = enclave.trace_tail(usize::MAX);
    assert!(events.iter().any(|e| e.op == "auth_file"), "nested events");
    for event in &events {
        assert_content_free("trace event", &format!("{event:?}"));
    }
    loop {
        let report = enclave.scrub_step();
        assert_content_free("scrub report", &format!("{report:?}"));
        if report.pass_completed {
            break;
        }
    }

    // Behind a server: the merged snapshot is the same type, and the
    // host's widest rendering — the report, as returned and as the
    // watchdog stored it — holds every section and nothing else.
    let server = run_flow(config);
    while !server.telemetry().scrub_step().pass_completed {}
    assert_ids_content_free(&server.metrics_snapshot());
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
    assert_content_free("report", &report);
    let dump = server.telemetry().watch().last_dump();
    assert_content_free("stall dump", &dump.expect("every request stalled"));
}

#[test]
fn flight_frames_cover_the_whole_system_unscraped() {
    // Frames are windows of the *merged* snapshot the history clock's
    // own tick takes, so store and cache activity is in them although
    // nobody ever called `metrics_snapshot()` on this server.
    let config = EnclaveConfig {
        cache: true,
        ..EnclaveConfig::default()
    };
    let setup = FsoSetup::new_in_memory("obs-flight", config);
    let server = setup.server().expect("setup");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    let mut a = server.connect_local(&alice).expect("connect");
    let monitor = server.telemetry().health().monitor();
    // Request completions tick the clock: keep puts and gets flowing
    // until a windowed frame (the second) has been recorded.
    let started = std::time::Instant::now();
    while monitor.frames_total() < 2 {
        a.put("/doc", b"body").expect("put");
        assert_eq!(a.get("/doc").expect("get"), b"body");
        assert!(started.elapsed().as_secs() < 30, "the clock never ticked");
    }
    let flight = monitor.flight_json();
    let last = &flight[flight.rfind("\"seq\":").expect("frames")..];
    for series in [
        "seg_store_ops_total{op=\\\"put\\\",store=\\\"content\\\"}",
        "seg_cache_hits_total",
        "seg_boundary_ecalls_total",
    ] {
        let (_, value) = last
            .split_once(&format!("\"{series}\": "))
            .unwrap_or_else(|| panic!("{series} missing from the frame: {last}"));
        let value = value.split([',', '\n']).next().unwrap_or("");
        assert_ne!(value, "0", "{series} in a window with traffic");
    }
}

#[test]
fn an_enclave_without_a_sink_serves_and_switches() {
    // White-box tests and embedders may run an enclave with no host
    // telemetry at all: records then stop at the registry and the ring.
    let setup = FsoSetup::new_in_memory("obs-bare", EnclaveConfig::default());
    let enclave = setup.enclave().expect("launch");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    let mut a = Inline::client(&enclave, &alice);
    let puts = || {
        let snap = enclave.metrics_snapshot();
        snap.counter("seg_requests_total{op=\"put_file\"}")
    };
    // The switch both ways; a put returns the ocalls it cost.
    let mut put = |on: bool| {
        enclave.set_telemetry(on);
        assert_eq!(enclave.telemetry_enabled(), on);
        let before = enclave.sgx().boundary().stats().ocalls;
        a.put("/doc", b"body").expect("put");
        assert_eq!(a.get("/doc").expect("get"), b"body");
        enclave.sgx().boundary().stats().ocalls - before
    };
    put(true);
    assert_eq!(puts(), Some(1));
    let off = put(false);
    assert_eq!(puts(), Some(1), "no record is built while off");
    assert_eq!(put(true), off, "and none leaves while there is no sink");
    assert_eq!(puts(), Some(2));

    // With a sink attached, each closed request is handed out through
    // exactly one more ocall than the same request with telemetry off.
    let capture = Arc::new(Capture::default());
    enclave.attach_sink(Arc::clone(&capture) as Arc<dyn RecordSink>);
    let on = put(true);
    let crossed = capture.0.lock().unwrap().len() as u64;
    assert_eq!(
        crossed, 3,
        "the put's header, its committing chunk, the get"
    );
    assert_eq!(on, off + crossed, "the sink call is counted as an ocall");
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
        "seg_net_inflight_requests",
        "seg_net_send_stalls_total",
        "seg_net_send_stall_ns_total",
        "seg_watch_stalls_total",
        "seg_watch_dumps_total",
        "seg_telemetry_enabled",
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
    let (requests, errors) = server.telemetry().health().monitor().headline();
    assert_eq!(requests, family("seg_requests_total"));
    assert_eq!(errors, family("seg_request_errors_total"));
    assert!(
        requests >= 9 && errors == 1,
        "{requests} requests, {errors} errors"
    );
    assert_eq!(server.telemetry().meter().samples(), requests);
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
    for family in ["seg_health_samples_total", "seg_watch_dumps_total"] {
        assert_eq!(snap.counter(family), Some(0), "no record reached {family}");
    }
    assert_eq!(server.telemetry().meter().samples(), 0, "nor the meter");
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
    // not telemetry: both operations are on it, the upload as one record.
    let report = server.report();
    assert!(report.contains("\"enabled\":false"), "report marks off");
    assert!(report.contains("\"samples\":0"), "report shows no samples");
    assert_eq!(server.audit_verify().expect("chain verifies"), 2);
}
