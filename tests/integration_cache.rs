//! Cache-freshness integration tests: the in-enclave object cache
//! (`EnclaveConfig.cache`) must never weaken the §III security
//! objectives. Revocations take effect on the very next request even
//! with a warm cache (P3/S4 immediate revocation), and a rolled-back
//! store serves fresh data or an integrity error — never stale state
//! the rollback tree would have caught.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use seg_fs::Perm;
use seg_proto::ErrorCode;
use seg_store::{AdversaryStore, CountingStore, FaultAction, FaultStore, MemStore, ObjectStore};
use segshare::{EnclaveConfig, FsoSetup, SegShareError, SegShareServer};

struct Rig {
    setup: FsoSetup,
    server: SegShareServer,
    content: Arc<AdversaryStore<MemStore>>,
    group: Arc<AdversaryStore<MemStore>>,
}

fn cached_config() -> EnclaveConfig {
    EnclaveConfig {
        cache: true,
        ..EnclaveConfig::default()
    }
}

fn rig(config: EnclaveConfig, seed: u64) -> Rig {
    let content = Arc::new(AdversaryStore::new(MemStore::new()));
    let group = Arc::new(AdversaryStore::new(MemStore::new()));
    let dedup: Arc<dyn ObjectStore> = Arc::new(AdversaryStore::new(MemStore::new()));
    let setup = FsoSetup::with_stores(
        "ca",
        config,
        seg_sgx::Platform::new_with_seed(seed),
        Arc::clone(&content) as Arc<dyn ObjectStore>,
        Arc::clone(&group) as Arc<dyn ObjectStore>,
        dedup,
    );
    let server = setup.server().unwrap();
    Rig {
        setup,
        server,
        content,
        group,
    }
}

fn is_denied(result: Result<impl std::fmt::Debug, SegShareError>) -> bool {
    matches!(
        result,
        Err(SegShareError::Request {
            code: ErrorCode::Denied,
            ..
        })
    )
}

/// Repeated reads warm every layer of the cache (ACLs, member lists,
/// directory files, hot content bodies) for `path`.
fn warm<T: seg_net::FrameTransport>(client: &mut segshare::Client<T>, path: &str, expect: &[u8]) {
    for _ in 0..3 {
        assert_eq!(client.get(path).unwrap(), expect);
    }
}

#[test]
fn revocation_takes_effect_on_the_very_next_request_with_warm_cache() {
    // P3/S4 immediate revocation must survive a cache whose entries
    // were filled while the member was still authorized.
    let r = rig(cached_config(), 300);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = r.setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    let mut b = r.server.connect_local(&bob).unwrap();

    a.put("/secret", b"classified").unwrap();
    a.add_user("bob", "insiders").unwrap();
    a.set_perm("/secret", "insiders", Perm::Read).unwrap();

    // Warm every cached object on bob's read path: his member list,
    // the file's ACL, and the (small) content body itself.
    warm(&mut b, "/secret", b"classified");

    // Revoke, then probe on the *very next* request — no intervening
    // traffic that could incidentally invalidate anything.
    a.remove_user("bob", "insiders").unwrap();
    assert!(
        is_denied(b.get("/secret")),
        "warm cache must not outlive membership revocation"
    );
}

#[test]
fn permission_removal_takes_effect_with_warm_acl_cache() {
    let r = rig(cached_config(), 301);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = r.setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    let mut b = r.server.connect_local(&bob).unwrap();

    a.put("/doc", b"shared").unwrap();
    a.set_perm("/doc", "~bob", Perm::Read).unwrap();
    warm(&mut b, "/doc", b"shared");

    // Flip the warm ACL entry to an explicit deny.
    a.set_perm("/doc", "~bob", Perm::Deny).unwrap();
    assert!(
        is_denied(b.get("/doc")),
        "warm ACL cache must not outlive a permission change"
    );
}

#[test]
fn stale_member_list_replay_is_detected_with_cache_enabled() {
    // The §V-D replay: the attacker re-serves the group-store state
    // from when bob was still a member. Cached records pin the latest
    // authentic tree, so the replay must surface as an integrity error
    // (or a deny, if served from authentic cached state) — never as
    // restored access.
    let r = rig(cached_config(), 302);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = r.setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    let mut b = r.server.connect_local(&bob).unwrap();

    a.put("/secret", b"classified").unwrap();
    let before = r.group.inner().list().unwrap();
    a.add_user("bob", "insiders").unwrap();
    a.set_perm("/secret", "insiders", Perm::Read).unwrap();
    warm(&mut b, "/secret", b"classified");

    // Snapshot the group-store objects holding bob's membership...
    let mut touched = r.group.inner().list().unwrap();
    touched.retain(|k| !before.contains(k));
    assert!(!touched.is_empty());
    for key in &touched {
        r.group.snapshot_object(key).unwrap();
    }

    // ...revoke, then replay them.
    a.remove_user("bob", "insiders").unwrap();
    assert!(is_denied(b.get("/secret")));
    for key in &touched {
        r.group.rollback_object(key).unwrap();
    }
    match b.get("/secret") {
        Ok(_) => panic!("stale member list must not restore access"),
        Err(SegShareError::Request {
            code: ErrorCode::IntegrityViolation | ErrorCode::Denied,
            ..
        }) => {}
        Err(other) => panic!("unexpected failure mode: {other:?}"),
    }
}

#[test]
fn whole_store_rollback_with_warm_cache_serves_fresh_or_errors() {
    // §III freshness: after the attacker rolls back *both stores*
    // entirely, every response must be either the latest data (served
    // from the authentic in-enclave cache) or an integrity error —
    // never the rolled-back content.
    let r = rig(cached_config(), 303);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    a.put("/doc", b"old state").unwrap();
    r.content.snapshot_everything().unwrap();
    r.group.snapshot_everything().unwrap();
    a.put("/doc", b"new state").unwrap();
    warm(&mut a, "/doc", b"new state");

    r.content.rollback_everything().unwrap();
    r.group.rollback_everything().unwrap();

    // Warm path: the cached body is the *latest* enclave-written state.
    match a.get("/doc") {
        Ok(body) => assert_eq!(
            body, b"new state",
            "rollback must never surface stale content"
        ),
        Err(e) => assert!(
            matches!(
                e,
                SegShareError::Request {
                    code: ErrorCode::IntegrityViolation,
                    ..
                }
            ),
            "unexpected failure mode: {e:?}"
        ),
    }
}

#[test]
fn cache_off_is_byte_identical_to_seed_behavior() {
    // With the toggle off the §V-D boundary case behaves exactly as
    // before the cache existed: a complete, consistent old state
    // verifies (the residual risk §V-E exists for).
    let r = rig(EnclaveConfig::default(), 304);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    a.put("/doc", b"old state").unwrap();
    r.content.snapshot_everything().unwrap();
    r.group.snapshot_everything().unwrap();
    a.put("/doc", b"new state").unwrap();
    r.content.rollback_everything().unwrap();
    r.group.rollback_everything().unwrap();
    assert_eq!(a.get("/doc").unwrap(), b"old state");

    // The cache *activity* counters stay absent with the cache off, and
    // the occupancy gauges export as zero — gauge families are stable
    // across configurations so dashboards never see series appear and
    // disappear with a toggle.
    let snap = r.server.enclave().metrics_snapshot();
    assert!(snap.counter("seg_cache_hits_total").is_none());
    assert_eq!(snap.gauge("seg_cache_bytes"), Some(0));
    assert_eq!(snap.gauge("seg_cache_entries"), Some(0));
}

#[test]
fn cache_metrics_report_hits_and_invalidations() {
    let r = rig(cached_config(), 305);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    a.put("/hot", b"small hot object").unwrap();
    warm(&mut a, "/hot", b"small hot object");
    a.put("/hot", b"replaced").unwrap();
    warm(&mut a, "/hot", b"replaced");

    let snap = r.server.enclave().metrics_snapshot();
    let hits = snap.counter("seg_cache_hits_total").unwrap();
    let fills = snap.counter("seg_cache_fills_total").unwrap();
    let invalidations = snap.counter("seg_cache_invalidations_total").unwrap();
    assert!(hits > 0, "warm reads must hit the cache");
    assert!(fills > 0);
    assert!(invalidations > 0, "the overwrite must invalidate");
}

/// A get served from the warm cache probes the untrusted store for the
/// file's existence once: `resolve_path`'s probe, which `do_get` reuses
/// (it used to derive the storage name and ask a second time).
#[test]
fn a_hot_get_costs_one_exists() {
    let r = rig(cached_config(), 306);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.mkdir("/d").unwrap();
    let body = vec![0x42u8; 4096];
    a.put("/d/hot", &body).unwrap();
    warm(&mut a, "/d/hot", &body);

    let exists = || -> u64 {
        let io = r.server.enclave().store_io();
        io.iter().map(|(_, stats, _)| stats.exists).sum()
    };
    let before = exists();
    const GETS: u64 = 50;
    for _ in 0..GETS {
        assert_eq!(a.get("/d/hot").unwrap(), body);
    }
    assert_eq!(exists() - before, GETS, "one existence probe per hot get");
}

// ------------------------------------------------------ trusted records
//
// A hash record is cached only when the enclave wrote it from trusted
// inputs or a walk over it reached an anchor (`trusted_store/tree.rs`); the
// white-box tests in `trusted_store::tests` evict single entries. These drive the same rule
// through the request path.

fn is_integrity(e: &SegShareError) -> bool {
    matches!(
        e,
        SegShareError::Request {
            code: ErrorCode::IntegrityViolation,
            ..
        }
    )
}

#[test]
fn a_rolled_back_pair_is_refused_and_the_failed_walk_caches_nothing() {
    let config = EnclaveConfig {
        hide_names: false,
        ..cached_config()
    };
    let r = rig(config, 306);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    // The file's blob and record, consistently stale.
    let pair = ["F:/d/doc", "h!F:/d/doc"];
    {
        let mut a = r.server.connect_local(&alice).unwrap();
        a.mkdir("/d").unwrap();
        a.put("/d/doc", b"version 1").unwrap();
        for key in pair {
            r.content.snapshot_object(key).unwrap();
        }
        a.put("/d/doc", b"version 2").unwrap();
    }
    // A relaunched enclave trusts nothing yet: the walk takes every
    // record from the store, the stale pair's among them.
    let server = r.setup.server().unwrap();
    for key in pair {
        r.content.rollback_object(key).unwrap();
    }
    let mut a = server.connect_local(&alice).unwrap();
    let refused = a.get("/d/doc").unwrap_err();
    assert!(is_integrity(&refused), "{refused:?}");

    // The pair passed its own checks before the directory's bucket gave
    // it away; had the walk kept its record, this read would stop there.
    let fills = || server.enclave().store().cache_stats().unwrap().fills;
    let before = fills();
    let refused = a.get("/d/doc").unwrap_err();
    assert!(is_integrity(&refused), "{refused:?}");
    assert_eq!(fills(), before, "a failed walk trusts nothing it read");
}

#[test]
fn a_failed_store_put_never_surfaces_a_body_that_was_not_written() {
    // A server over `content` holding `/d/e/doc` at version 1.
    let launch = |content: Arc<dyn ObjectStore>| {
        let setup = FsoSetup::with_stores(
            "ca",
            cached_config(),
            seg_sgx::Platform::new_with_seed(307),
            content,
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        );
        let server = setup.server().unwrap();
        let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let mut a = server.connect_local(&alice).unwrap();
        a.mkdir("/d").unwrap();
        a.mkdir("/d/e").unwrap();
        a.put("/d/e/doc", b"version 1").unwrap();
        (server, alice, a)
    };

    // Dry run: how many content-store writes the set-up and the put take.
    let counting = Arc::new(CountingStore::new(MemStore::new()));
    let writes = || {
        let s = counting.stats();
        s.puts + s.deletes + s.renames + s.batches
    };
    let (_server, _, mut a) = launch(Arc::clone(&counting) as Arc<dyn ObjectStore>);
    let before_put = writes();
    a.put("/d/e/doc", b"version 2").unwrap();
    let put_writes = writes() - before_put;
    assert!(put_writes >= 6, "blob, record, ancestors: {put_writes}");

    for failing in 1..=put_writes {
        let faulty = Arc::new(FaultStore::new(
            MemStore::new(),
            FaultAction::FailWrite,
            before_put + failing,
        ));
        let (server, alice, mut a) = launch(faulty);
        let acked = a.put("/d/e/doc", b"version 2").is_ok();
        if !acked {
            // The refused put may have left its upload open on the session.
            a = server.connect_local(&alice).unwrap();
        }
        for _ in 0..2 {
            match a.get("/d/e/doc") {
                Ok(body) if acked => assert_eq!(body, b"version 2", "write {failing}"),
                Ok(body) => assert!(
                    body == b"version 1" || body == b"version 2",
                    "write {failing}: {body:?}"
                ),
                Err(e) => assert!(!acked && is_integrity(&e), "write {failing}: {e:?}"),
            }
        }
    }
}

/// Operations of the cache-on ≡ cache-off property.
#[derive(Debug, Clone)]
enum Op {
    MkDir(u8),
    Put(u8, u8, Vec<u8>),
    Get(u8, u8),
    /// Bob's read: exercises the ACL and member-list path.
    GetAsBob(u8, u8),
    Remove(u8, u8),
    Allow(u8, u8, bool),
    /// Remember both stores as they are now (at most once per case).
    Snapshot,
}

fn op() -> impl Strategy<Value = Op> {
    let body = || proptest::collection::vec(any::<u8>(), 0..600);
    prop_oneof![
        (0u8..3).prop_map(Op::MkDir),
        (0u8..3, 0u8..3, body()).prop_map(|(d, f, b)| Op::Put(d, f, b)),
        (0u8..3, 0u8..3, body()).prop_map(|(d, f, b)| Op::Put(d, f, b)),
        (0u8..3, 0u8..3).prop_map(|(d, f)| Op::Get(d, f)),
        (0u8..3, 0u8..3).prop_map(|(d, f)| Op::GetAsBob(d, f)),
        (0u8..3, 0u8..3).prop_map(|(d, f)| Op::Remove(d, f)),
        (0u8..3, 0u8..3, any::<bool>()).prop_map(|(d, f, allow)| Op::Allow(d, f, allow)),
        Just(Op::Snapshot),
    ]
}

fn path(d: u8, f: u8) -> String {
    format!("/d{d}/f{f}")
}

/// A response, comparable across configurations.
fn outcome<T>(result: Result<T, SegShareError>) -> Result<T, String> {
    result.map_err(|e| match e {
        SegShareError::Request { code, .. } => format!("{code:?}"),
        other => format!("{other:?}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn cache_changes_no_result_and_never_serves_a_rolled_back_body(
        ops in proptest::collection::vec(op(), 1..40)
    ) {
        let rigs = [rig(cached_config(), 308), rig(EnclaveConfig::default(), 308)];
        let mut clients = Vec::new();
        for r in &rigs {
            let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
            let bob = r.setup.enroll_user("bob", "b@x", "Bob").unwrap();
            clients.push((
                r.server.connect_local(&alice).unwrap(),
                r.server.connect_local(&bob).unwrap(),
            ));
        }
        // Untampered: both configurations answer every request alike.
        let mut latest: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut snapshotted = false;
        for op in &ops {
            let mut seen = Vec::new();
            for (a, b) in &mut clients {
                seen.push(match op {
                    Op::MkDir(d) => outcome(a.mkdir(&format!("/d{d}")).map(|()| Vec::new())),
                    Op::Put(d, f, body) => outcome(a.put(&path(*d, *f), body).map(|()| Vec::new())),
                    Op::Get(d, f) => outcome(a.get(&path(*d, *f))),
                    Op::GetAsBob(d, f) => outcome(b.get(&path(*d, *f))),
                    Op::Remove(d, f) => outcome(a.remove(&path(*d, *f)).map(|()| Vec::new())),
                    Op::Allow(d, f, allow) => {
                        let perm = if *allow { Perm::Read } else { Perm::Deny };
                        outcome(a.set_perm(&path(*d, *f), "~bob", perm).map(|()| Vec::new()))
                    }
                    Op::Snapshot => Ok(Vec::new()),
                });
            }
            prop_assert_eq!(&seen[0], &seen[1], "{:?}", op);
            match (op, &seen[0]) {
                (Op::Put(d, f, body), Ok(_)) => drop(latest.insert(path(*d, *f), body.clone())),
                (Op::Remove(d, f), Ok(_)) => drop(latest.remove(&path(*d, *f))),
                (Op::Snapshot, _) if !snapshotted => {
                    snapshotted = true;
                    rigs[0].content.snapshot_everything().unwrap();
                    rigs[0].group.snapshot_everything().unwrap();
                }
                _ => {}
            }
        }
        // Then both stores go back to the snapshot under the warm cache:
        // the latest body, or an error — never an older one.
        if snapshotted {
            rigs[0].content.rollback_everything().unwrap();
            rigs[0].group.rollback_everything().unwrap();
            let (a, _) = &mut clients[0];
            for d in 0..3 {
                for f in 0..3 {
                    if let Ok(body) = a.get(&path(d, f)) {
                        prop_assert_eq!(Some(&body), latest.get(&path(d, f)));
                    }
                }
            }
        }
    }
}
