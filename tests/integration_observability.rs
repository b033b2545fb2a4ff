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

mod common;

use std::sync::{Arc, Mutex};

use seg_fs::Perm;
use seg_net::{FrameTransport, NetError};
use seg_obs::{ClosedRoot, RecordSink, RequestRecord};
use segshare::enclave::session::EnclaveSession;
use segshare::enclave::SegShareEnclave;
use segshare::telemetry::RecordView;
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

/// Keeps every closed root the enclave hands out: what crossed beside
/// the record, as debug text, and the record that rode it.
#[derive(Default)]
struct Capture(Mutex<Vec<(String, Option<RequestRecord>)>>);

impl RecordSink for Capture {
    fn consume(&self, root: &ClosedRoot<'_>) {
        let crossed = format!("{} {:?} {}", root.op, root.paths, root.unbalanced);
        self.0.lock().unwrap().push((crossed, root.record.copied()));
    }
}

impl Capture {
    /// Closed roots so far.
    fn roots(&self) -> u64 {
        self.0.lock().unwrap().len() as u64
    }

    /// The records that rode them.
    fn records(&self) -> Vec<RequestRecord> {
        let roots = self.0.lock().unwrap();
        roots.iter().filter_map(|(_, rec)| *rec).collect()
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
    // Protected-FS and rollback-tree work is timed by their phases.
    let profile = server.telemetry().profile_snapshot();
    for phase in ["pfs", "rollback_tree"] {
        assert!(
            profile
                .entries
                .iter()
                .any(|e| e.path.last() == Some(&phase) && e.count > 0),
            "no `…;{phase}` profile entry"
        );
    }

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
fn assert_ids_content_free(snap: &segshare::telemetry::Snapshot) {
    let ids = snap.counters.iter().map(|(id, _)| id);
    let ids = ids.chain(snap.gauges.iter().map(|(id, _)| id));
    for id in ids.chain(snap.histograms.iter().map(|(id, _)| id)) {
        assert_content_free("metric id", &id.render().replace(['"', '{', '}'], " "));
    }
}

#[test]
fn encoded_snapshots_carry_no_request_content() {
    // Three kinds of value cross the boundary: the closed roots pushed
    // through the sink, records riding some, and the enclave stats and
    // scrub reports the host pulls. Everything an operator can export is
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

    let records = capture.records();
    assert!(records.len() >= 9, "every request crossed: {records:?}");
    assert!(records.iter().any(|r| r.op == "put_file" && r.ok()));
    assert!(records.iter().any(|r| r.op == "get" && r.code == "denied"));
    for rec in &records {
        // Labels compiled in, operands as keyed fingerprints only: the
        // type has no field that could hold anything else.
        assert!(rec.principal != 0, "{rec:?}");
        assert_content_free("record", &format!("{rec:?}"));
    }
    for (root, _) in capture.0.lock().unwrap().iter() {
        assert_content_free("closed root", root);
    }
    assert_content_free("enclave stats", &format!("{:?}", enclave.stats()));
    loop {
        let report = enclave.scrub_step();
        assert_content_free("scrub report", &format!("{report:?}"));
        if report.pass_completed {
            break;
        }
    }

    // Behind a server: the host's folds of those values — the export,
    // the profile, and the widest rendering, the report, as returned and
    // as the watchdog stored it — hold every section and nothing else.
    let server = run_flow(config);
    while !server.telemetry().scrub_step().pass_completed {}
    assert_ids_content_free(&server.metrics_snapshot());
    let profile = server.telemetry().profile_snapshot();
    assert_content_free("profile", &profile.to_collapsed());
    let report = server.report();
    common::assert_report_keys(&report);
    assert!(report.contains("\"op\": \"put_file\", \"decision\": \"allow\""));
    assert_content_free("report", &report);
    let dump = server.telemetry().watch().last_dump();
    assert_content_free("stall dump", &dump.expect("every request stalled"));
}

#[test]
fn flight_frames_cover_the_whole_system_unscraped() {
    // The host's mirrors of totals kept elsewhere (store I/O, boundary
    // crossings) are brought up to date by the scrape itself, so the
    // first scrape of a server nobody scraped before holds the whole
    // system's activity, and the difference of two scrapes — the window
    // a scraper keeps — holds what happened between them.
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
    let traffic = |a: &mut Client<_>| {
        for _ in 0..3 {
            a.put("/doc", b"body").expect("put");
            assert_eq!(a.get("/doc").expect("get"), b"body");
        }
    };
    traffic(&mut a);
    let first = server.metrics_snapshot();
    traffic(&mut a);
    let window = server.metrics_snapshot().delta(&first);
    for series in [
        "seg_store_ops_total{op=\"put\",store=\"content\"}",
        "seg_cache_hits_total",
        "seg_boundary_ecalls_total",
    ] {
        for (which, snap) in [("first scrape", &first), ("window", &window)] {
            let value = snap.counter(series).unwrap_or(0);
            assert!(value > 0, "{series} is {value} in the {which}");
        }
    }
}

#[test]
fn an_enclave_without_a_sink_serves_and_switches() {
    // White-box tests and embedders may run an enclave with no host
    // telemetry at all: it then opens no profiler root, and nothing
    // leaves, whatever the switch says.
    let setup = FsoSetup::new_in_memory("obs-bare", EnclaveConfig::default());
    let enclave = setup.enclave().expect("launch");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    let mut a = Inline::client(&enclave, &alice);
    // The switch both ways; a put and a get return the ocalls they cost.
    let mut put = |on: bool| {
        enclave.set_telemetry(on);
        assert_eq!(enclave.telemetry_enabled(), on);
        let before = enclave.sgx().boundary().stats().ocalls;
        a.put("/doc", b"body").expect("put");
        assert_eq!(a.get("/doc").expect("get"), b"body");
        enclave.sgx().boundary().stats().ocalls - before
    };
    put(true);
    let bare = put(false);
    assert_eq!(put(true), bare, "no sink: the switch costs nothing");

    // With a sink attached, each closed root crosses in exactly one
    // ocall, whatever the switch says, and a request's record rides its
    // root's: the put's header, its committing chunk and the get carry
    // one each, the get's streamed chunk none.
    let capture = Arc::new(Capture::default());
    enclave.attach_sink(Arc::clone(&capture) as Arc<dyn RecordSink>);
    let on = put(true);
    assert_eq!((capture.roots(), capture.records().len()), (4, 3));
    assert_eq!(on, bare + 4, "one ocall per closed root");
    let off = put(false);
    assert_eq!((capture.roots(), capture.records().len()), (8, 3));
    assert_eq!(off, on, "off, no record rides, and no call is saved");
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
        // started: zero probes, zero scrub passes, healthy state.
        "seg_health_canary_probes_total",
        "seg_health_canary_failures_total",
        "seg_health_state",
        "seg_health_canary_latency_us",
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
    ] {
        assert!(
            text.contains(family),
            "family {family} missing from the prometheus export"
        );
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.gauge("seg_telemetry_enabled"), Some(1), "always-on");
    assert_eq!(snap.gauge("seg_cache_entries"), Some(0), "cache disabled");
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
    assert_eq!(
        snap.gauge("seg_lock_global_held_us"),
        Some(0),
        "no live hold"
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
    // The report's tail holds whole records; each names its request by
    // the id its audit record carries.
    let server = run_flow(EnclaveConfig::default());
    let tail = server.telemetry().watch().recent_requests(usize::MAX);
    let report = server.report();
    let enclave = server.enclave();
    let bob = enclave.fingerprint_user(&seg_fs::UserId::new("bob").unwrap());

    // Both downloads are bob's, under their own ids, in the report.
    let gets: Vec<&RequestRecord> = tail.iter().filter(|r| r.op == "get").collect();
    assert_eq!(gets.len(), 2, "both downloads in the tail: {tail:?}");
    assert!(gets[0].request_id > 0 && gets[0].request_id < gets[1].request_id);
    for get in &gets {
        assert_eq!(get.principal, bob, "{get:?}");
        let entry = format!("\"request_id\": {}, \"op\": \"get\"", get.request_id);
        assert!(report.contains(&entry), "{entry} missing from the report");
    }
    // Bob's revoked download is a deny.
    assert!(gets[0].ok(), "{:?}", gets[0]);
    assert_eq!(
        (gets[1].decision, gets[1].code),
        (seg_obs::Decision::Deny, "denied")
    );

    // Every record but upload chunks has its audit record, same id.
    let audited = server.audit_export().expect("export");
    for rec in tail.iter().filter(|r| r.op != "data") {
        let found = audited.iter().find(|a| a.request_id == rec.request_id);
        let found = found.unwrap_or_else(|| panic!("no audit record for {rec:?}"));
        assert_eq!(
            (found.op.as_str(), found.principal, found.object),
            (rec.op, rec.principal, rec.object)
        );
    }
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
fn every_body_a_download_opens_is_one_pfs_decrypt() {
    // Cache on, with metadata and tree records warm, a get decrypts
    // only its own body: counted once whether the body is kept whole
    // (small) or streamed (1 MiB), and not at all when it is served
    // from the cache.
    let setup = FsoSetup::new_in_memory(
        "obs-decrypts",
        EnclaveConfig {
            cache: true,
            ..EnclaveConfig::default()
        },
    );
    let server = setup.server().expect("setup");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    let mut a = server.connect_local(&alice).expect("connect");
    let small = vec![7u8; 4096];
    let large: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    a.put("/small", &small).expect("put small");
    a.put("/large", &large).expect("put large");
    for _ in 0..2 {
        assert_eq!(a.get("/small").expect("warm small"), small);
        assert_eq!(a.get("/large").expect("warm large"), large);
    }
    let decrypts = || {
        let snap = server.metrics_snapshot();
        snap.counter("seg_pfs_decrypts_total")
            .expect("decrypt counter")
    };
    let get = |a: &mut Client<_>, path: &str, expect: &[u8]| {
        let before = decrypts();
        assert_eq!(a.get(path).expect("get"), expect);
        decrypts() - before
    };
    assert_eq!(
        get(&mut a, "/small", &small),
        0,
        "a repeated small get is a hit"
    );
    assert_eq!(get(&mut a, "/large", &large), 1, "a repeated streamed get");
    let rewritten = vec![9u8; 4096];
    a.put("/small", &rewritten).expect("overwrite");
    assert_eq!(
        get(&mut a, "/small", &rewritten),
        1,
        "a get after an overwrite"
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

    let prof = server.telemetry().profile_snapshot();
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
    // Two consumers of one record stream cannot disagree: the host's
    // tail of records holds what the registry's own request families
    // sum to, and the report's `trace_tail` is that tail.
    let server = run_flow(EnclaveConfig::default());
    let snap = server.metrics_snapshot();
    let family = |name: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(id, _)| id.name() == name)
            .map(|&(_, v)| v)
            .sum()
    };
    let tail = server.telemetry().watch().recent_requests(usize::MAX);
    let requests = tail.len() as u64;
    let errors = tail.iter().filter(|r| !r.ok()).count() as u64;
    assert_eq!(requests, family("seg_requests_total"));
    assert_eq!(errors, family("seg_request_errors_total"));
    assert!(
        requests >= 9 && errors == 1,
        "{requests} requests, {errors} errors"
    );
    let report = server.report();
    let at = report.find("\"trace_tail\":").expect("trace_tail");
    let end = report.find("\"slow_requests\":").expect("slow_requests");
    let entries = report[at..end].matches("{\"request_id\":").count() as u64;
    assert_eq!(entries, requests);
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
        "seg_watch_dumps_total",
        "seg_watch_stalls_total{kind=\"request\"}",
        "seg_watch_stalls_total{kind=\"global_lock\"}",
        "seg_health_canary_probes_total",
        "seg_scrub_passes_total",
    ] {
        assert_eq!(snap.counter(family), Some(0), "no record reached {family}");
    }
    assert_eq!(snap.gauge("seg_health_state"), Some(0), "zeroed verdict");
    let watch = server.telemetry().watch();
    assert!(
        watch.recent_requests(usize::MAX).is_empty(),
        "nor the tail of records"
    );
    assert!(
        snap.counters
            .iter()
            .all(|(id, _)| id.name() != "seg_requests_total"),
        "no request was counted while off"
    );
    // The report also renders in the off state — explicitly marked,
    // with empty sections rather than absent ones. The audit trail is
    // not telemetry: both operations are on it, the upload as one record.
    let report = server.report();
    common::assert_report_keys(&report);
    assert!(report.contains("\"enabled\":false"), "report marks off");
    assert!(
        report.contains("\"trace_tail\":[]"),
        "report shows no records"
    );
    assert_eq!(server.audit_verify().expect("chain verifies"), 2);
}

/// The profile's `(op, path)` counts and the request families one fixed
/// flow produces: `path count requests` per entry, in path order; then
/// the store and ocall families the host counts on its side of each
/// ocall, and each record's `op store_reads store_writes`, oldest
/// first, as the enclave counted them.
const FIXED_FLOW_PROFILE: &str = r#"
add_user 1 1
add_user;authz 1 1
add_user;authz;crypto_gcm 3 1
add_user;authz;pfs 5 1
add_user;authz;pfs;crypto_gcm 5 1
add_user;authz;rollback_tree 4 1
add_user;authz;rollback_tree;crypto_gcm 7 1
add_user;authz;rollback_tree;pfs 1 1
add_user;authz;rollback_tree;pfs;crypto_gcm 1 1
add_user;authz;rollback_tree;store_io 6 1
add_user;authz;store_io 7 1
add_user;crypto_gcm 2 1
add_user;lock_wait 4 1
add_user;serialize 2 1
add_user;store_io 1 1
add_user;tls_record 2 1
add_user;tls_record;crypto_gcm 2 1
data 2 2
data;crypto_gcm 8 2
data;lock_wait 6 2
data;pfs 9 2
data;pfs;crypto_gcm 55 2
data;rollback_tree 3 2
data;rollback_tree;crypto_gcm 10 2
data;rollback_tree;pfs 1 1
data;rollback_tree;pfs;crypto_gcm 1 1
data;rollback_tree;store_io 7 2
data;serialize 4 2
data;store_io 8 2
data;tls_record 4 2
data;tls_record;crypto_gcm 4 2
get 2 2
get;authz 4 2
get;authz;pfs 1 1
get;authz;pfs;crypto_gcm 1 1
get;authz;rollback_tree 1 1
get;authz;rollback_tree;crypto_gcm 3 1
get;authz;rollback_tree;pfs 2 1
get;authz;rollback_tree;pfs;crypto_gcm 2 1
get;authz;rollback_tree;store_io 5 1
get;authz;store_io 4 2
get;crypto_gcm 4 2
get;lock_wait 4 2
get;pfs 2 1
get;pfs;crypto_gcm 1 1
get;rollback_tree 1 1
get;rollback_tree;crypto_gcm 3 1
get;rollback_tree;pfs 2 1
get;rollback_tree;pfs;crypto_gcm 2 1
get;rollback_tree;store_io 5 1
get;serialize 4 2
get;store_io 3 2
get;tls_record 4 2
get;tls_record;crypto_gcm 4 2
get_stream 1 1
get_stream;pfs 51 1
get_stream;pfs;crypto_gcm 50 1
get_stream;tls_record 1 1
get_stream;tls_record;crypto_gcm 1 1
handshake 3 3
handshake;authn 3 3
handshake;authn;tls_record 2 1
handshake;authn;tls_record;crypto_gcm 2 1
mk_dir 2 2
mk_dir;crypto_gcm 5 2
mk_dir;lock_wait 6 2
mk_dir;pfs 6 2
mk_dir;pfs;crypto_gcm 6 2
mk_dir;rollback_tree 4 2
mk_dir;rollback_tree;crypto_gcm 6 2
mk_dir;rollback_tree;store_io 5 2
mk_dir;serialize 4 2
mk_dir;store_io 7 2
mk_dir;tls_record 4 2
mk_dir;tls_record;crypto_gcm 4 2
put_file 2 2
put_file;authz 4 2
put_file;authz;pfs 3 2
put_file;authz;pfs;crypto_gcm 3 2
put_file;authz;rollback_tree 3 2
put_file;authz;rollback_tree;crypto_gcm 7 2
put_file;authz;rollback_tree;pfs 4 2
put_file;authz;rollback_tree;pfs;crypto_gcm 4 2
put_file;authz;rollback_tree;store_io 11 2
put_file;authz;store_io 5 2
put_file;lock_wait 6 2
put_file;pfs 1 1
put_file;pfs;crypto_gcm 1 1
put_file;rollback_tree 1 1
put_file;rollback_tree;crypto_gcm 2 1
put_file;rollback_tree;pfs 1 1
put_file;rollback_tree;pfs;crypto_gcm 1 1
put_file;rollback_tree;store_io 3 1
put_file;serialize 2 2
put_file;store_io 1 1
put_file;tls_record 2 2
put_file;tls_record;crypto_gcm 2 2
set_perm 1 1
set_perm;authz 2 1
set_perm;authz;pfs 2 1
set_perm;authz;pfs;crypto_gcm 2 1
set_perm;authz;rollback_tree 2 1
set_perm;authz;rollback_tree;crypto_gcm 5 1
set_perm;authz;rollback_tree;pfs 3 1
set_perm;authz;rollback_tree;pfs;crypto_gcm 3 1
set_perm;authz;rollback_tree;store_io 8 1
set_perm;authz;store_io 2 1
set_perm;crypto_gcm 4 1
set_perm;lock_wait 2 1
set_perm;pfs 1 1
set_perm;pfs;crypto_gcm 1 1
set_perm;rollback_tree 1 1
set_perm;rollback_tree;crypto_gcm 4 1
set_perm;rollback_tree;store_io 2 1
set_perm;serialize 2 1
set_perm;store_io 3 1
set_perm;tls_record 2 1
set_perm;tls_record;crypto_gcm 2 1
seg_boundary_ocalls_total 123
seg_request_errors_total{code="already_exists",op="mk_dir"} 1
seg_request_errors_total{code="not_found",op="get"} 1
seg_requests_total{op="add_user"} 1
seg_requests_total{op="data"} 2
seg_requests_total{op="get"} 2
seg_requests_total{op="mk_dir"} 2
seg_requests_total{op="put_file"} 2
seg_requests_total{op="set_perm"} 1
seg_store_batch_ops_total{store="content"} 44
seg_store_batch_ops_total{store="dedup"} 0
seg_store_batch_ops_total{store="group"} 12
seg_store_batches_total{store="content"} 16
seg_store_batches_total{store="dedup"} 0
seg_store_batches_total{store="group"} 4
seg_store_bytes_read_total{store="content"} 355820
seg_store_bytes_read_total{store="dedup"} 0
seg_store_bytes_read_total{store="group"} 47796
seg_store_bytes_written_total{store="content"} 274621
seg_store_bytes_written_total{store="dedup"} 0
seg_store_bytes_written_total{store="group"} 31468
seg_store_ops_total{op="delete",store="content"} 0
seg_store_ops_total{op="delete",store="dedup"} 0
seg_store_ops_total{op="delete",store="group"} 0
seg_store_ops_total{op="exists",store="content"} 0
seg_store_ops_total{op="exists",store="dedup"} 0
seg_store_ops_total{op="exists",store="group"} 0
seg_store_ops_total{op="get",store="content"} 65
seg_store_ops_total{op="get",store="dedup"} 0
seg_store_ops_total{op="get",store="group"} 24
seg_store_ops_total{op="list",store="content"} 0
seg_store_ops_total{op="list",store="dedup"} 0
seg_store_ops_total{op="list",store="group"} 0
seg_store_ops_total{op="put",store="content"} 44
seg_store_ops_total{op="put",store="dedup"} 0
seg_store_ops_total{op="put",store="group"} 12
seg_store_ops_total{op="rename",store="content"} 0
seg_store_ops_total{op="rename",store="dedup"} 0
seg_store_ops_total{op="rename",store="group"} 0
mk_dir 7 2
put_file 10 0
data 8 2
get 13 1
add_user 11 3
set_perm 13 2
put_file 10 0
data 3 2
get 2 1
mk_dir 2 1
"#;

#[test]
fn a_fixed_flow_profiles_and_counts_exactly() {
    // One connection on the test thread, cache off: every root, frame
    // and charge is deterministic, so a root that opens or closes in a
    // different place, a frame that moves, or a record that is counted
    // twice or not at all changes an entry below.
    let setup = FsoSetup::new_in_memory("obs-parity", EnclaveConfig::default());
    let server = setup.server().expect("setup");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    let mut a = Inline::client(server.enclave(), &alice);
    let payload: Vec<u8> = (0..200 * 1024u32).map(|i| (i % 251) as u8).collect();
    a.mkdir("/plans-secret/").expect("mkdir");
    a.put("/plans-secret/q3-report", &payload).expect("upload");
    assert_eq!(a.get("/plans-secret/q3-report").expect("get"), payload);
    a.add_user("alice", "strategyteam").expect("create group");
    a.set_perm("/plans-secret/q3-report", "strategyteam", Perm::Read)
        .expect("grant");
    a.put("/plans-secret/q3-report", b"short")
        .expect("overwrite");
    assert!(a.get("/plans-secret/missing").is_err(), "no such file");
    assert!(a.mkdir("/plans-secret/").is_err(), "exists");
    drop(a);

    let profile = server.telemetry().profile_snapshot();
    let mut lines: Vec<String> = profile
        .entries
        .iter()
        .map(|e| format!("{} {} {}", e.path.join(";"), e.count, e.requests))
        .collect();
    let snap = server.metrics_snapshot();
    let families = [
        "seg_requests_total",
        "seg_request_errors_total",
        "seg_store_ops_total",
        "seg_store_bytes_read_total",
        "seg_store_bytes_written_total",
        "seg_store_batches_total",
        "seg_store_batch_ops_total",
        "seg_boundary_ocalls_total",
    ];
    for (id, v) in &snap.counters {
        if families.contains(&id.name()) {
            lines.push(format!("{} {v}", id.render()));
        }
    }
    // What each request's record says it cost the stores.
    for rec in server.telemetry().watch().recent_requests(usize::MAX) {
        let cost = rec.cost;
        let line = format!("{} {} {}", rec.op, cost.store_reads, cost.store_writes);
        lines.push(line);
    }
    let got = lines.join("\n");
    assert_eq!(profile.unbalanced, 0);
    assert_eq!(got, FIXED_FLOW_PROFILE.trim(), "\n{got}\n");
}
