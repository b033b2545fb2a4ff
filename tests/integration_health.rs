//! The health plane end to end: a clean workload stays `healthy` with
//! zero findings; every corruption class the §III-B attacker can inject
//! (content bit-flips, audit-trail truncation, stale rollback-tree
//! state, store orphans, cache incoherence) is caught by the
//! background scrubber within one pass and latches the `failing`
//! state with a correlated, fingerprint-only finding.

mod common;

use std::sync::Arc;

use seg_net::reactor::ReactorConfig;
use seg_store::{AdversaryStore, MemStore, ObjectStore};
use segshare::{EnclaveConfig, FsoSetup, HealthOptions, ScrubCheck, SegShareServer};

struct Rig {
    setup: FsoSetup,
    server: SegShareServer,
    content: Arc<AdversaryStore<MemStore>>,
}

fn rig(config: EnclaveConfig, seed: u64) -> Rig {
    let content = Arc::new(AdversaryStore::new(MemStore::new()));
    let group: Arc<dyn ObjectStore> = Arc::new(AdversaryStore::new(MemStore::new()));
    let dedup: Arc<dyn ObjectStore> = Arc::new(AdversaryStore::new(MemStore::new()));
    let setup = FsoSetup::with_stores(
        "ca",
        config,
        seg_sgx::Platform::new_with_seed(seed),
        Arc::clone(&content) as Arc<dyn ObjectStore>,
        group,
        dedup,
    );
    let server = setup.server().unwrap();
    Rig {
        setup,
        server,
        content,
    }
}

/// Drives budgeted scrub steps until one full pass completes,
/// returning the findings raised during it.
fn run_scrub_pass(server: &SegShareServer) -> u64 {
    let mut findings = 0;
    for _ in 0..10_000 {
        let report = server.telemetry().scrub_step();
        findings += report.findings.len() as u64;
        if report.pass_completed {
            return findings;
        }
    }
    panic!("scrub pass did not complete within budget");
}

#[test]
fn clean_stationary_workload_stays_healthy_with_zero_alerts() {
    let config = EnclaveConfig {
        cache: true,
        ..EnclaveConfig::default()
    };
    let r = rig(config, 700);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.mkdir("/docs").unwrap();
    for i in 0..8 {
        let path = format!("/docs/f{i}");
        a.put(&path, &vec![i as u8; 2_000]).unwrap();
        assert_eq!(a.get(&path).unwrap().len(), 2_000);
    }

    // Two full scrub passes over the live namespace: nothing to find.
    for _ in 0..2 {
        assert_eq!(run_scrub_pass(&r.server), 0, "clean data must not alert");
    }
    let health = r.server.telemetry().health();
    assert_eq!(health.state_code(), 0);
    assert_eq!(health.state_label(), "healthy");
    assert_eq!(health.findings_total(), 0);
    assert_eq!(health.scrub_passes(), 2);
    assert!(
        health.items(ScrubCheck::Tree) > 10,
        "the walk visited the namespace"
    );
    assert!(
        health.items(ScrubCheck::Audit) > 0,
        "the audit chain was re-verified"
    );
    let report = r.server.report();
    common::assert_report_keys(&report);
    assert!(report.contains("\"state\":\"healthy\""));
    assert!(report.contains("\"findings\":[]"));
}

#[test]
fn content_bitflip_latches_failing_with_fingerprint_only_alert() {
    let r = rig(EnclaveConfig::default(), 701);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.mkdir("/payroll").unwrap();
    a.put("/payroll/salaries", &vec![0x5au8; 40_000]).unwrap();

    // Flip one bit in some non-special content object: the walk's
    // verified read (AEAD + rollback tree) must refuse it.
    let key = r
        .content
        .inner()
        .list()
        .unwrap()
        .into_iter()
        .find(|k| !k.starts_with('!'))
        .expect("an encrypted object exists");
    r.content.tamper(&key, 13, 4).unwrap();

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0, "one pass must catch the bit-flip");
    let health = r.server.telemetry().health();
    assert_eq!(health.state_code(), 2);
    assert_eq!(health.state_label(), "failing");

    // The finding and report are correlated but leak nothing:
    // compiled-in names and keyed fingerprints only — never paths or
    // user ids. The report's `health.findings` names the check and the
    // object's fingerprint, which the tree walk can be asked about.
    let report = r.server.report();
    let at = report
        .find("\"findings\":[{")
        .expect("a finding in the report");
    let finding = &report[at..];
    let finding = &finding[..finding.find('}').expect("closed entry")];
    assert!(finding.contains("\"check\":\"tree\""), "{finding}");
    let fingerprint = finding
        .split("\"fingerprint\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .expect("a fingerprint");
    assert!(
        fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) && fingerprint != "0".repeat(16),
        "{finding}"
    );
    assert!(!report.contains("payroll"), "no plaintext paths");
    assert!(!report.contains("salaries"), "no plaintext names");
    assert!(!report.contains("alice"), "no principal identities");
}

#[test]
fn audit_trail_truncation_is_an_audit_finding() {
    let r = rig(EnclaveConfig::default(), 702);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    for i in 0..5 {
        a.put(&format!("/f{i}"), b"body").unwrap();
    }

    // Delete one hash-chained audit record: the incremental window
    // verification must report the hole within the pass.
    let victim = r
        .content
        .inner()
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.starts_with("!audit-rec-"))
        .expect("audit records exist");
    r.content.inner().delete(&victim).unwrap();

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0);
    let health = r.server.telemetry().health();
    assert!(
        health.findings(ScrubCheck::Audit) > 0,
        "the finding is attributed to the audit check"
    );
    assert_eq!(health.state_code(), 2);
}

#[test]
fn stale_tree_state_rollback_is_detected_by_the_walk() {
    let r = rig(EnclaveConfig::default(), 703);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    let before = r.content.inner().list().unwrap();
    a.put("/target", b"version 1").unwrap();
    let touched: Vec<String> = r
        .content
        .inner()
        .list()
        .unwrap()
        .into_iter()
        .filter(|k| !before.contains(k))
        .collect();
    for key in &touched {
        r.content.snapshot_object(key).unwrap();
    }
    a.put("/target", b"version 2 - revoked").unwrap();
    // Consistent rollback of the file's data *and* hash record: only
    // the parent tree comparison can catch it — exactly what the
    // scrubber's verified read performs.
    for key in &touched {
        r.content.rollback_object(key).unwrap();
    }

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0, "stale tree state must be caught in one pass");
    let health = r.server.telemetry().health();
    assert!(health.findings(ScrubCheck::Tree) > 0);
    assert_eq!(health.state_code(), 2);
}

#[test]
fn orphaned_store_key_is_an_orphan_finding() {
    let r = rig(EnclaveConfig::default(), 704);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.put("/real", b"legitimate").unwrap();

    // A key the enclave never wrote (attacker garbage, or a refcount
    // leak from a buggy host): present across a whole pass and never
    // claimed by the walk.
    r.content
        .inner()
        .put("deadbeef-not-an-enclave-object", b"junk")
        .unwrap();

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0);
    let health = r.server.telemetry().health();
    assert!(health.findings(ScrubCheck::Orphan) > 0);
    assert_eq!(
        health.findings(ScrubCheck::Tree),
        0,
        "the walk itself saw nothing wrong"
    );
    assert_eq!(health.state_code(), 2);
}

#[test]
fn cache_coherence_probe_catches_tampering_under_a_live_entry() {
    let config = EnclaveConfig {
        cache: true,
        ..EnclaveConfig::default()
    };
    let r = rig(config, 705);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    let before = r.content.inner().list().unwrap();
    a.put("/hot", &vec![7u8; 1_000]).unwrap();
    let touched: Vec<String> = r
        .content
        .inner()
        .list()
        .unwrap()
        .into_iter()
        .filter(|k| !before.contains(k))
        .collect();
    // Warm the cache: the download path fills the body entry.
    assert_eq!(a.get("/hot").unwrap().len(), 1_000);
    assert_eq!(a.get("/hot").unwrap().len(), 1_000);

    // Tamper the backing store *under* the live cache entry. Requests
    // served from cache would keep succeeding — only the coherence
    // probe's cache-vs-verified-reread comparison sees the divergence.
    for key in &touched {
        let _ = r.content.tamper(key, 13, 1);
    }

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0);
    let health = r.server.telemetry().health();
    assert!(
        health.findings(ScrubCheck::Cache) + health.findings(ScrubCheck::Tree) > 0,
        "divergence caught by the cache probe and/or the walk"
    );
    assert_eq!(health.state_code(), 2);
}

#[test]
fn health_runner_scrubs_probes_and_samples_an_idle_server() {
    let config = EnclaveConfig {
        // Aggressive cadence so the test observes full passes quickly.
        scrub_interval_us: 5_000,
        ..EnclaveConfig::default()
    };
    let r = rig(config, 706);
    let canary = r.setup.enroll_user("canary", "c@x", "Canary").unwrap();
    r.server.start_health(HealthOptions {
        canary: Some(canary),
        tick_us: 2_000,
        canary_interval_us: 10_000,
    });

    // The server is otherwise idle: every signal below is produced by
    // the background runner alone.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let health = r.server.telemetry().health();
        if health.scrub_passes() >= 2 && health.canary_probes() >= 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "runner made no progress: passes={} probes={}",
            health.scrub_passes(),
            health.canary_probes()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // The canary is an ordinary reactor connection — the path clients
    // use — kept across probes, so it counts exactly once.
    assert_eq!(r.server.reactor().stats().live_conns(), 1);
    assert_eq!(r.server.reactor().stats().accepted_total(), 1);
    r.server.stop_health();

    let health = r.server.telemetry().health();
    assert_eq!(health.canary_failures(), 0, "loopback probes succeed");
    assert!(health.canary_last_latency_us() > 0);
    assert_eq!(
        health.findings_total(),
        0,
        "an untampered server scrubs clean (canary objects included)"
    );
    assert_eq!(health.state_code(), 0);

    let snapshot = r.server.metrics_snapshot();
    assert!(snapshot.counter("seg_scrub_passes_total").unwrap_or(0) >= 2);
    assert!(
        snapshot
            .counter("seg_health_canary_probes_total")
            .unwrap_or(0)
            >= 3
    );
    let report = r.server.report();
    assert!(report.contains("\"state\":\"healthy\""));
    assert!(report.contains("\"canary\""));
}

/// The reactor reaps connections idle past its timeout; a canary that
/// probes less often than that finds its connection gone every time and
/// must reconnect within the probe instead of reporting a failure.
#[test]
fn idle_reaped_canary_reconnects_without_a_failed_probe() {
    let r = rig(EnclaveConfig::default(), 708);
    // Long enough that no handshake or request of a debug build is
    // itself reaped as idle, short against the probe interval.
    r.server.set_reactor_config(ReactorConfig {
        idle_timeout: std::time::Duration::from_millis(200),
        ..ReactorConfig::default()
    });
    let canary = r.setup.enroll_user("canary", "c@x", "Canary").unwrap();
    r.server.start_health(HealthOptions {
        canary: Some(canary),
        tick_us: 2_000,
        canary_interval_us: 500_000,
    });
    let health = r.server.telemetry().health();
    let stats = Arc::clone(r.server.reactor().stats());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while health.canary_probes() < 3 || stats.reaped_idle_total() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "runner made no progress: probes={} reaped={}",
            health.canary_probes(),
            stats.reaped_idle_total()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    r.server.stop_health();
    assert_eq!(
        health.canary_failures(),
        0,
        "a reaped canary is not an outage"
    );
    assert!(stats.accepted_total() >= 3, "each reap cost one reconnect");
    assert_eq!(health.state_label(), "healthy");
}

#[test]
fn disabled_health_plane_is_inert() {
    // The one telemetry switch, flipped mid-run: off, the runner's tick
    // does nothing and no record reaches any consumer; what was
    // gathered before is kept, and counting resumes when it is back on.
    // Every request is slow here, so the slow log and the stall counter
    // consume beside the tail of records.
    let config = EnclaveConfig {
        watch_deadline_us: 1,
        ..EnclaveConfig::default()
    };
    let r = rig(config, 707);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.put("/before", b"counted").unwrap();
    let telemetry = r.server.telemetry();
    let watch = telemetry.watch();
    let consumed = || {
        let snap = r.server.metrics_snapshot();
        (
            snap.counter("seg_requests_total{op=\"put_file\"}"),
            watch.stalls_request(),
            watch.slow_requests(usize::MAX).len(),
            watch.recent_requests(usize::MAX).len(),
        )
    };
    let before = consumed();
    assert_eq!(before.0, Some(1));
    assert!(before.1 > 0 && before.2 > 0 && before.3 > 0, "{before:?}");
    let tail = watch.recent_requests(usize::MAX);

    r.server.set_telemetry(false);
    assert!(telemetry.health_tick().is_none());
    a.put("/during", b"not counted").unwrap();
    assert_eq!(a.get("/during").unwrap(), b"not counted");
    let during = consumed();
    assert_eq!(during, before, "not even the tail of records grew");
    assert_eq!(telemetry.health().scrub_passes(), 0);
    assert_eq!(watch.recent_requests(usize::MAX), tail, "records kept");
    // The report still renders (state machine reads, no scrub work).
    let report = r.server.report();
    common::assert_report_keys(&report);
    assert!(report.contains("\"enabled\":false"));

    r.server.set_telemetry(true);
    a.put("/after", b"counted again").unwrap();
    let after = consumed();
    assert_eq!(after.0, Some(2));
    assert!(after.1 > before.1 && after.2 > before.2 && after.3 > during.3);
    assert_eq!(watch.recent_requests(usize::MAX)[0], tail[0]);
}

#[test]
fn stale_ancestor_record_under_a_warm_cache_is_a_tree_finding() {
    // With trusted records written through the cache, requests never
    // read a hot directory's stored hash record again — the scrubber's
    // walk is the only reader left, so it must take it from the store.
    let config = EnclaveConfig {
        cache: true,
        hide_names: false,
        ..EnclaveConfig::default()
    };
    let r = rig(config, 707);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.mkdir("/payroll").unwrap();
    a.put("/payroll/salaries", b"2024").unwrap();
    assert_eq!(run_scrub_pass(&r.server), 0);

    // An authentic but older record of the directory.
    let record = "h!D:/payroll/";
    r.content.snapshot_object(record).unwrap();
    a.put("/payroll/bonuses", b"2025").unwrap();
    r.content.rollback_object(record).unwrap();

    // Requests are answered from the trusted copies and notice nothing.
    assert_eq!(a.get("/payroll/salaries").unwrap(), b"2024");
    assert_eq!(a.get("/payroll/bonuses").unwrap(), b"2025");

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0, "the next pass reports the stale record");
    let health = r.server.telemetry().health();
    assert!(health.findings(ScrubCheck::Tree) > 0);
    assert_eq!(health.state_code(), 2);
}

#[test]
fn scrubbing_a_warm_cache_neither_counts_nor_promotes() {
    let r = rig(
        EnclaveConfig {
            cache: true,
            ..EnclaveConfig::default()
        },
        707,
    );
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.mkdir("/docs").unwrap();
    for i in 0..6 {
        let path = format!("/docs/f{i}");
        a.put(&path, &vec![i as u8; 1_500]).unwrap();
        for _ in 0..3 {
            assert_eq!(a.get(&path).unwrap().len(), 1_500);
        }
    }
    let counts = || {
        let stats = r.server.enclave().store().cache_stats().unwrap();
        (stats.hits, stats.misses)
    };
    let before = counts();
    for _ in 0..64 {
        r.server.telemetry().scrub_step();
    }
    assert_eq!(counts(), before, "the scrubber only peeks at the cache");
}
