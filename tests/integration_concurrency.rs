//! Parallel request serving: with the per-object `LockManager` in
//! place, concurrent sessions must preserve every §III objective that
//! used to be trivially guaranteed by the old whole-filesystem lock —
//! revocation takes effect on the very next request, the rollback tree
//! still verifies and still detects tampering, the audit chain stays
//! intact — and no interleaving of multi-object operations may
//! deadlock the dispatcher.
//!
//! All tests drive real client sessions (full TLS handshake, one
//! server pump thread per session) against one shared enclave, so the
//! lock scopes exercised are exactly the production ones in
//! `session.rs`.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use seg_fs::Perm;
use seg_proto::ErrorCode;
use seg_store::{AdversaryStore, MemStore, ObjectStore, StoreError};
use segshare::{Client, EnclaveConfig, EnrolledUser, FsoSetup, SegShareError, SegShareServer};

/// Paper prototype (audit + rollback tree on) with the object cache —
/// the configuration with the most shared mutable enclave state.
fn full_config() -> EnclaveConfig {
    EnclaveConfig {
        cache: true,
        ..EnclaveConfig::paper_prototype()
    }
}

struct Rig {
    setup: FsoSetup,
    server: SegShareServer,
    content: Arc<AdversaryStore<MemStore>>,
}

fn rig(config: EnclaveConfig, seed: u64) -> Rig {
    let content = Arc::new(AdversaryStore::new(MemStore::new()));
    let setup = FsoSetup::with_stores(
        "ca",
        config,
        seg_sgx::Platform::new_with_seed(seed),
        Arc::clone(&content) as Arc<dyn ObjectStore>,
        Arc::new(MemStore::new()),
        Arc::new(MemStore::new()),
    );
    let server = setup.server().unwrap();
    Rig {
        setup,
        server,
        content,
    }
}

fn connect(r: &Rig, user: &EnrolledUser) -> Client<seg_net::ChannelTransport> {
    r.server.connect_local(user).unwrap()
}

fn is_denied<T: std::fmt::Debug>(result: &Result<T, SegShareError>) -> bool {
    matches!(
        result,
        Err(SegShareError::Request {
            code: ErrorCode::Denied,
            ..
        })
    )
}

#[test]
fn parallel_disjoint_uploads_verify_and_audit_stays_intact() {
    // Four sessions writing disjoint directories run under disjoint
    // lock scopes; afterwards every object must read back bit-exact
    // through full tree validation and the hash-chained audit trail
    // must verify end to end.
    let r = rig(full_config(), 400);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let mut client = connect(&r, &alice);
            s.spawn(move || {
                let dir = format!("/w{t}");
                client.mkdir(&dir).unwrap();
                for j in 0..6usize {
                    let body = vec![(t * 16 + j) as u8; 3000 + j];
                    client.put(&format!("{dir}/f{j}"), &body).unwrap();
                }
                for j in 0..6usize {
                    let body = vec![(t * 16 + j) as u8; 3000 + j];
                    assert_eq!(client.get(&format!("{dir}/f{j}")).unwrap(), body);
                }
            });
        }
    });

    // Cross-check from a fresh session: state written under per-object
    // locks is globally consistent, not merely session-visible.
    let mut c = connect(&r, &alice);
    for t in 0..4usize {
        assert_eq!(c.list(&format!("/w{t}")).unwrap().len(), 6);
    }
    assert!(r.server.audit_verify().unwrap() > 0);
}

#[test]
fn overlapping_writes_to_one_directory_lose_no_entries() {
    // All sessions write distinct files into the *same* directory: the
    // parent's write lock serializes the dirfile read-modify-write, so
    // no concurrent commit may overwrite another's directory entry.
    let r = rig(full_config(), 401);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut c = connect(&r, &alice);
    c.mkdir("/shared").unwrap();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let mut client = connect(&r, &alice);
            s.spawn(move || {
                for j in 0..5usize {
                    client
                        .put(&format!("/shared/t{t}f{j}"), format!("{t}:{j}").as_bytes())
                        .unwrap();
                }
            });
        }
    });

    assert_eq!(c.list("/shared").unwrap().len(), 20);
    for t in 0..4usize {
        for j in 0..5usize {
            assert_eq!(
                c.get(&format!("/shared/t{t}f{j}")).unwrap(),
                format!("{t}:{j}").as_bytes()
            );
        }
    }
    assert!(r.server.audit_verify().unwrap() > 0);
}

#[test]
fn readers_never_observe_torn_state_during_overwrites() {
    // One writer repeatedly overwrites a file with self-describing
    // bodies (every byte equals the version number); parallel readers
    // doing full tree validation must only ever see a complete version
    // — no mixed bytes, no spurious integrity errors from catching the
    // rollback-tree walk mid-update.
    let r = rig(full_config(), 402);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut w = connect(&r, &alice);
    w.put("/hot", &[0u8; 2048]).unwrap();

    let done = AtomicBool::new(false);
    let version = AtomicU32::new(0);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let mut reader = connect(&r, &alice);
            let done = &done;
            let version = &version;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let floor = version.load(Ordering::SeqCst);
                    let body = reader.get("/hot").unwrap();
                    assert_eq!(body.len(), 2048);
                    let v = body[0];
                    assert!(
                        body.iter().all(|&b| b == v),
                        "torn read: mixed versions in one body"
                    );
                    // A read that *started* after version `floor` was
                    // committed must not return anything older.
                    assert!(u32::from(v) >= floor, "stale read: {v} < {floor}");
                }
            });
        }
        for v in 1..=40u8 {
            w.put("/hot", &[v; 2048]).unwrap();
            version.store(u32::from(v), Ordering::SeqCst);
        }
        done.store(true, Ordering::Relaxed);
    });
}

#[test]
fn revocation_is_immediate_under_parallel_reads() {
    // §III P3/S4: the *next* request after `remove_user` returns must
    // be denied, even while other sessions hammer the same object and
    // keep every cache layer warm.
    let r = rig(full_config(), 403);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = r.setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = connect(&r, &alice);
    a.put("/secret", b"classified").unwrap();
    a.add_user("bob", "ins").unwrap();
    a.set_perm("/secret", "ins", Perm::Read).unwrap();

    let revoked = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let mut b = connect(&r, &bob);
            let revoked = &revoked;
            let done = &done;
            s.spawn(move || {
                let mut denied_after_revoke = false;
                while !done.load(Ordering::Relaxed) {
                    let was_revoked = revoked.load(Ordering::SeqCst);
                    match b.get("/secret") {
                        Ok(body) => {
                            assert_eq!(body, b"classified");
                            // A read *started* after the revocation
                            // returned must never succeed.
                            assert!(!was_revoked, "read succeeded after revocation");
                        }
                        Err(e) => {
                            assert!(is_denied(&Err::<(), _>(e)), "only Denied is acceptable");
                            denied_after_revoke = true;
                        }
                    }
                }
                assert!(denied_after_revoke, "reader never observed the revocation");
            });
        }
        // Let the readers warm up, then revoke mid-storm.
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.remove_user("bob", "ins").unwrap();
        revoked.store(true, Ordering::SeqCst);
        // Give every reader a chance to issue post-revocation reads.
        std::thread::sleep(std::time::Duration::from_millis(20));
        done.store(true, Ordering::Relaxed);
    });
    assert!(r.server.audit_verify().unwrap() > 0);
}

#[test]
fn rollback_detection_survives_a_parallel_workload() {
    // The tree built up under concurrent commits must still catch a
    // store rollback afterwards: parallelism must not have skipped or
    // misordered any hash-record update. Whole-store rollback to a
    // *consistent* earlier state is exactly the §V-E case, so this rig
    // also enables the monotonic-counter protection (whose root counter
    // was bumped under concurrent commits).
    let r = rig(
        EnclaveConfig {
            rollback_whole_fs: true,
            ..full_config()
        },
        404,
    );
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();

    std::thread::scope(|s| {
        for t in 0..3usize {
            let mut client = connect(&r, &alice);
            s.spawn(move || {
                let dir = format!("/d{t}");
                client.mkdir(&dir).unwrap();
                for j in 0..4usize {
                    client
                        .put(&format!("{dir}/f{j}"), format!("old {t} {j}").as_bytes())
                        .unwrap();
                }
            });
        }
    });

    // Snapshot the content store, advance one object, then roll the
    // whole store back: the updated tree must refuse the stale state.
    r.content.snapshot_everything().unwrap();
    let mut c = connect(&r, &alice);
    c.put("/d0/f0", b"newer").unwrap();
    r.content.rollback_everything().unwrap();
    match c.get("/d0/f0") {
        Ok(body) => assert_eq!(body, b"newer", "stale body served after rollback"),
        Err(SegShareError::Request {
            code: ErrorCode::IntegrityViolation,
            ..
        }) => {}
        Err(other) => panic!("unexpected failure mode: {other:?}"),
    }
}

#[test]
fn membership_churn_on_distinct_members_stays_consistent() {
    // Per-member lock keys let revocations of *different* members run
    // in parallel; after arbitrary interleavings of remove/re-add per
    // member, the final membership must match the last operation of
    // every thread.
    let r = rig(full_config(), 405);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = connect(&r, &alice);
    a.put("/team-doc", b"shared").unwrap();
    a.set_perm("/team-doc", "team", Perm::Read).unwrap();
    let members: Vec<EnrolledUser> = (0..3)
        .map(|i| {
            let name = format!("u{i}");
            let user = r
                .setup
                .enroll_user(&name, &format!("{name}@x"), "U")
                .unwrap();
            a.add_user(&name, "team").unwrap();
            user
        })
        .collect();

    std::thread::scope(|s| {
        for (i, _) in members.iter().enumerate() {
            let mut owner = connect(&r, &alice);
            s.spawn(move || {
                let name = format!("u{i}");
                for _ in 0..8 {
                    owner.remove_user(&name, "team").unwrap();
                    owner.add_user(&name, "team").unwrap();
                }
            });
        }
    });

    // Every member's final state is "added": all must read the doc.
    for m in &members {
        let mut c = connect(&r, m);
        assert_eq!(c.get("/team-doc").unwrap(), b"shared");
    }
    assert!(r.server.audit_verify().unwrap() > 0);
}

#[test]
fn permuted_multi_object_operations_do_not_deadlock() {
    // Deadlock smoke test: sessions acquire multi-key scopes in every
    // order the protocol allows — AddUser scopes with requester/member
    // in opposite roles, sibling creates under one parent, global-mode
    // renames and group deletions interleaved with per-object traffic.
    // The ordered stripe acquisition must make every interleaving
    // terminate; the test simply has to finish.
    let r = rig(full_config(), 406);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    for i in 0..4 {
        r.setup
            .enroll_user(&format!("m{i}"), &format!("m{i}@x"), "M")
            .unwrap();
    }
    let mut c = connect(&r, &alice);
    c.mkdir("/mix").unwrap();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let mut client = connect(&r, &alice);
            s.spawn(move || {
                for round in 0..25usize {
                    match (t + round) % 4 {
                        0 => {
                            // Membership scopes with members in
                            // opposite orders across threads.
                            let g = format!("g{t}");
                            let (x, y) = if t % 2 == 0 { (0, 1) } else { (1, 0) };
                            let _ = client.add_user(&format!("m{x}"), &g);
                            let _ = client.add_user(&format!("m{y}"), &g);
                            let _ = client.remove_user(&format!("m{x}"), &g);
                        }
                        1 => {
                            // Sibling creates/deletes under one parent.
                            let p = format!("/mix/t{t}r{round}");
                            let _ = client.put(&p, b"x");
                            let _ = client.remove(&p);
                        }
                        2 => {
                            // Global-mode op racing per-object scopes.
                            let from = format!("/mix/mv{t}");
                            let _ = client.put(&from, b"y");
                            let _ = client.rename(&from, &format!("/mix/mv{t}b"));
                            let _ = client.remove(&format!("/mix/mv{t}b"));
                        }
                        _ => {
                            // Group teardown (global mode) under churn.
                            let g = format!("tmp{t}");
                            let _ = client.add_user(&format!("m{t}"), &g);
                            let _ = client.delete_group(&g);
                        }
                    }
                }
            });
        }
    });

    // The dispatcher survived every interleaving; the audit chain must
    // have recorded a linearization of it.
    assert!(r.server.audit_verify().unwrap() > 0);
}

// ----------------------------------------------------- watch plane

/// A store that sleeps on every read and write: lock hold times stretch
/// into milliseconds, so contention becomes measurable instead of
/// vanishing into nanosecond acquisitions.
struct DelayStore {
    inner: MemStore,
    delay: Duration,
}

impl DelayStore {
    fn new(delay: Duration) -> DelayStore {
        DelayStore {
            inner: MemStore::new(),
            delay,
        }
    }
}

impl ObjectStore for DelayStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        std::thread::sleep(self.delay);
        self.inner.get(key)
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        std::thread::sleep(self.delay);
        self.inner.put(key, value)
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.inner.delete(key)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }
}

/// A rig whose content and group stores sleep `delay` per access.
fn slow_rig(config: EnclaveConfig, seed: u64, delay: Duration) -> (FsoSetup, SegShareServer) {
    let setup = FsoSetup::with_stores(
        "ca",
        config,
        seg_sgx::Platform::new_with_seed(seed),
        Arc::new(DelayStore::new(delay)),
        Arc::new(DelayStore::new(delay)),
        Arc::new(MemStore::new()),
    );
    let server = setup.server().unwrap();
    (setup, server)
}

/// Total lock wait charged to writes on the path key class.
fn path_write_wait_ns(server: &SegShareServer) -> u64 {
    server
        .metrics_snapshot()
        .histogram("seg_lock_wait_ns{class=\"path\",intent=\"write\"}")
        .expect("lock-wait family always exports")
        .sum
}

#[test]
fn lock_wait_is_attributed_to_the_contended_key_class() {
    // The same operation count run two ways: four sessions hammering
    // ONE path must show substantial write wait on the path class,
    // while four sessions on disjoint paths must show (near) none —
    // the attribution the seg-watch plane exists for.
    let config = EnclaveConfig {
        watch_deadline_us: 0,
        ..EnclaveConfig::paper_prototype()
    };
    let delay = Duration::from_millis(2);

    let (setup, server) = slow_rig(config, 407, delay);
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let mut client = server.connect_local(&alice).unwrap();
            s.spawn(move || {
                for j in 0..4usize {
                    client
                        .put("/contend", format!("{t}:{j}").as_bytes())
                        .unwrap();
                }
            });
        }
    });
    let overlapping = path_write_wait_ns(&server);
    // Every one of those requests took milliseconds, but a zero
    // deadline disarms the watchdog: no stall of either kind.
    let watch = server.telemetry().watch();
    assert_eq!((watch.stalls_request(), watch.stalls_global()), (0, 0));
    assert!(server.telemetry().watch().slow_requests(1).is_empty());

    let (setup, server) = slow_rig(config, 408, delay);
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut c = server.connect_local(&alice).unwrap();
    for t in 0..4usize {
        c.mkdir(&format!("/w{t}")).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..4usize {
            let mut client = server.connect_local(&alice).unwrap();
            s.spawn(move || {
                for j in 0..4usize {
                    client
                        .put(&format!("/w{t}/f{j}"), format!("{t}:{j}").as_bytes())
                        .unwrap();
                }
            });
        }
    });
    let disjoint = path_write_wait_ns(&server);

    assert!(
        overlapping > 1_000_000,
        "overlapping writes must accumulate visible path-class wait, got {overlapping}ns"
    );
    assert!(
        overlapping > 10 * disjoint.max(1),
        "disjoint writes must wait far less than overlapping ones \
         (overlapping {overlapping}ns vs disjoint {disjoint}ns)"
    );
}

/// Asserts `dump` has every section of `report()`: the stall watchdog
/// stores the same bundle.
fn assert_whole_report(dump: &str) {
    for section in
        "saturation stalls locks flight trace_tail slow_requests profile health meter".split(' ')
    {
        assert!(
            dump.contains(&format!("\"{section}\":")),
            "dump missing section {section}"
        );
    }
}

#[test]
fn watchdog_stall_dumps_a_correlated_bundle_without_leaking_content() {
    // A 1ms deadline over a 3ms-per-store-access rig: every request
    // stalls, so the watchdog must capture its correlated bundle — and
    // that bundle, which leaves the enclave wholesale, must carry only
    // aggregates and fingerprints, never the user id, email domain, or
    // path the workload used.
    let config = EnclaveConfig {
        watch_deadline_us: 1_000,
        ..EnclaveConfig::paper_prototype()
    };
    let (setup, server) = slow_rig(config, 409, Duration::from_millis(3));
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    a.put("/plans-secret", b"q3-report body").unwrap();
    assert_eq!(a.get("/plans-secret").unwrap(), b"q3-report body");

    let watch = server.telemetry().watch();
    assert!(watch.stalls_request() > 0, "the deadline must have tripped");
    assert_eq!(watch.stalls_global(), 0, "nothing took the global lock");
    assert!(watch.dumps() > 0, "the first stall captures a dump");
    let dump = watch.last_dump().expect("dump stored");
    assert_whole_report(&dump);
    for secret in ["alice", "plans-secret", "q3-report", "acme.example"] {
        assert!(
            !dump.contains(secret),
            "watch dump leaked request content: {secret}"
        );
    }
    assert!(!dump.contains('@'), "watch dump leaked an email");
}

#[test]
fn one_slow_request_is_explained_by_its_one_record() {
    // Same rig. The get is slow because the store is: its slow-log
    // entry must say so by itself — where the time went, what it
    // touched — and be the same request its trace header and its audit
    // record describe.
    let config = EnclaveConfig {
        watch_deadline_us: 1_000,
        ..EnclaveConfig::paper_prototype()
    };
    let (setup, server) = slow_rig(config, 410, Duration::from_millis(3));
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    a.put("/doc", b"body").unwrap();
    assert_eq!(a.get("/doc").unwrap(), b"body");
    let enclave = server.enclave();

    let slow = server.telemetry().watch().slow_requests(1)[0];
    assert_eq!(slow.op, "get");
    assert!(slow.ok() && slow.duration_us() >= 1_000, "{slow:?}");
    let store_io = slow.phase("store_io").self_ns;
    assert!(
        store_io >= 2_000_000,
        "store_io names the culprit: {slow:?}"
    );
    let named: u64 = slow.phases.iter().map(|p| p.self_ns).sum();
    assert!(
        named >= slow.duration_ns * 9 / 10 && named <= slow.duration_ns,
        "phase self-times account for the duration: {slow:?}"
    );
    assert!(slow.cost.store_reads > 0 && slow.cost.req_bytes > 0);
    assert_eq!(slow.principal, enclave.fingerprint_user(&alice.user_id));
    assert_eq!(slow.object, enclave.fingerprint_name("/doc"));
    assert_eq!(slow.prefix, enclave.fingerprint_name("/doc"));

    let header = enclave
        .trace_tail(usize::MAX)
        .into_iter()
        .rfind(|e| e.op == "get")
        .expect("the get's header is in the ring");
    let audited = server.audit_export().unwrap();
    let audited = audited.last().expect("the get was audited last");
    for (request_id, principal, object, code) in [
        (
            header.request_id,
            header.principal,
            header.object,
            header.code,
        ),
        (
            audited.request_id,
            audited.principal,
            audited.object,
            audited.code.as_str(),
        ),
    ] {
        assert_eq!(
            (request_id, principal, object, code),
            (slow.request_id, slow.principal, slow.object, slow.code)
        );
    }

    // The stored stall dump shows the same vector (the first stall of
    // this rig was the put; the on-demand report holds the get too).
    let entry = format!("\"request_id\": {}, \"op\": \"get\"", slow.request_id);
    let vector = format!("\"store_io\": {{\"self_ns\": {store_io},");
    let report = server.report();
    let at = report.find(&entry).expect("the get is in slow_requests");
    assert!(report[at..].contains(&vector), "{}", &report[at..]);
    let dump = server.telemetry().watch().last_dump().expect("dump stored");
    assert!(
        dump.contains("\"slow_requests\":[\n  {\"request_id\""),
        "{dump}"
    );
}

#[test]
fn a_long_global_hold_is_a_stall_seen_live_and_counted_once() {
    // A recursive Move re-encrypts its subtree under the exclusive
    // global lock. On a 20ms-per-store-access rig that hold runs well past
    // the budget. Every other locked request would be blocked on the
    // shared side for as long, so the stall has to be noticed by
    // something that is not: the health runner's tick while the hold is
    // live, and the holder's own record when it closes.
    let config = EnclaveConfig {
        // Only the Move is slow enough to stall.
        watch_deadline_us: 400_000,
        // The tree's walks would only stretch the hold on this rig; the
        // lock is what is under test here.
        rollback_individual: false,
        // Two fewer slow store writes per request of the fill.
        audit: false,
        // A scrub step that is walking this slow store when the Move
        // begins blocks on the Move, and the runner's tick with it.
        scrub_interval_us: 0,
        ..EnclaveConfig::paper_prototype()
    };
    let (setup, server) = slow_rig(config, 411, Duration::from_millis(20));
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    let fill = |a: &mut Client<seg_net::ChannelTransport>, dir: &str| {
        // Five children: each moves in ~10 store accesses (it leaves one
        // directory file as it enters the other), so the hold runs about
        // a second — over the budget, and closed before the dump rate
        // limit would let the Move's own record store a second bundle.
        a.mkdir(dir).unwrap();
        for i in 0..5 {
            a.put(&format!("{dir}/q3-report-{i}"), b"body").unwrap();
        }
    };
    let global_stalls = || {
        server
            .metrics_snapshot()
            .counter("seg_watch_stalls_total{kind=\"global_lock\"}")
    };
    let watch = server.telemetry().watch();

    // No runner: the holder's record is the only witness.
    fill(&mut a, "/plans-secret");
    assert_eq!(global_stalls(), Some(0));
    a.rename("/plans-secret", "/plans-moved").unwrap();
    let held = server
        .metrics_snapshot()
        .histogram("seg_lock_global_hold_ns")
        .unwrap()
        .max;
    assert!(
        held >= 500_000_000,
        "the rig must overrun the budget: {held}"
    );
    assert_eq!(global_stalls(), Some(1));
    assert_eq!(watch.dumps(), 1, "one stall, one stored dump");
    let dump = watch.last_dump().expect("dump stored");
    assert_whole_report(&dump);
    assert!(dump.contains("\"global_lock\":1"), "{dump}");
    assert!(dump.contains("\"global_hold\": {\"self_ns\": 0, \"sim_ns\": "));
    for secret in ["alice", "plans", "q3-report", "acme.example", "@"] {
        assert!(!dump.contains(secret), "dump leaked {secret:?}");
    }

    // With a runner ticking, the stall is counted and the bundle
    // stored while the Move still holds the lock — the stored dump
    // shows the hold live — and the Move's record does not count it
    // again. (Refilling takes longer than the dump rate limit.)
    fill(&mut a, "/second");
    server.start_health(segshare::HealthOptions {
        tick_us: 2_000,
        ..segshare::HealthOptions::default()
    });
    a.rename("/second", "/second-moved").unwrap();
    server.stop_health();
    assert_eq!(global_stalls(), Some(2));
    assert_eq!(watch.dumps(), 2);
    let dump = watch.last_dump().expect("dump stored");
    let held_us: u64 = dump
        .split_once("\"global_held_us\":")
        .and_then(|(_, rest)| rest.split_once(','))
        .and_then(|(n, _)| n.parse().ok())
        .expect("the dump has the global-hold clock");
    assert!(
        held_us >= 500_000,
        "stored while the hold was live: {held_us}"
    );
}
