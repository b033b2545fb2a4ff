//! The attacker of §III-B as executable tests: a malicious cloud
//! provider that "can monitor and/or change data on disk or in memory;
//! rollback individual files or the whole file system; send arbitrary
//! requests to the enclave; view all network communications".

use std::sync::Arc;

use seg_fs::{Perm, SegPath, UserId};
use seg_proto::ErrorCode;
use seg_store::{AdversaryStore, MemStore, ObjectStore};
use segshare::enclave::names::ObjectId;
use segshare::{EnclaveConfig, FsoSetup, SegShareError, SegShareServer};

struct Rig {
    setup: FsoSetup,
    server: SegShareServer,
    content: Arc<AdversaryStore<MemStore>>,
    group: Arc<AdversaryStore<MemStore>>,
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

fn is_integrity_error(result: Result<impl std::fmt::Debug, SegShareError>) -> bool {
    matches!(
        result,
        Err(SegShareError::Request {
            code: ErrorCode::IntegrityViolation,
            ..
        })
    )
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

/// The untrusted-store key the enclave of `server` keeps `id` under.
fn key_of(server: &SegShareServer, id: &ObjectId) -> String {
    let hide = server.enclave().config().hide_names;
    server.enclave().store().keys().storage_key(id, hide)
}

/// Puts and deletes the enclave has sent the group store so far.
fn group_writes(server: &SegShareServer) -> u64 {
    let io = server.telemetry().store_io();
    let (_, stats, _) = io.iter().find(|(name, _, _)| *name == "group").unwrap();
    stats.puts + stats.deletes
}

/// The two configurations the existence cases run under: the paper's
/// prototype, and every extension on (dedup, whole-FS counter).
fn both_configs() -> [(EnclaveConfig, u64); 2] {
    [(EnclaveConfig::default(), 0), (EnclaveConfig::full(), 1)]
}

/// Store keys created by the last operation — the attacker can watch
/// which (opaque) objects a request touches.
fn keys_touched_by(store: &AdversaryStore<MemStore>, before: &[String]) -> Vec<String> {
    let mut after = store.inner().list().unwrap();
    after.retain(|k| !before.contains(k));
    after
}

#[test]
fn tampering_with_any_stored_object_is_detected() {
    let r = rig(EnclaveConfig::default(), 100);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.mkdir("/dir").unwrap();
    a.put("/dir/file", &vec![0x5au8; 50_000]).unwrap();

    // Flip one bit in *every* content-store object, one at a time.
    // Detection is lazy (on access, like the paper's validation-on-read),
    // so we probe the operations that touch each object: reading the
    // file, listing the directories, and an ownership check on the root
    // ACL. At least one probe must report an integrity violation
    // (S1/S2: all data *and management* files are protected).
    let keys = r.content.inner().list().unwrap();
    assert!(keys.len() > 5, "expected several encrypted objects");
    for key in keys {
        if key.starts_with("!sealed") {
            continue; // sealed blobs are read only at launch
        }
        if key.starts_with("!audit") {
            // Audit-trail objects sit off the request path; their
            // integrity probe is chain verification.
            r.content.snapshot_object(&key).unwrap();
            r.content.tamper(&key, 13, 2).unwrap();
            assert!(
                matches!(r.server.audit_verify(), Err(SegShareError::Integrity(_))),
                "tamper of {key} was not detected by audit_verify"
            );
            r.content.rollback_object(&key).unwrap();
            assert!(r.server.audit_verify().is_ok());
            continue;
        }
        r.content.snapshot_object(&key).unwrap();
        r.content.tamper(&key, 4096 + 13, 2).unwrap();
        let probes = [
            a.get("/dir/file").map(|_| ()),
            a.list("/dir").map(|_| ()),
            a.list("/").map(|_| ()),
            // Touches the root ACL (ownership check) — expected to be
            // Denied when intact, IntegrityViolation when tampered.
            a.set_perm("/", "~alice", Perm::Read).map(|_| ()),
        ];
        let detected = probes.iter().any(|p| {
            matches!(
                p,
                Err(SegShareError::Request {
                    code: ErrorCode::IntegrityViolation,
                    ..
                })
            )
        });
        assert!(detected, "tamper of {key} was not detected by any probe");
        r.content.rollback_object(&key).unwrap();
        // Sanity: intact again.
        assert_eq!(a.get("/dir/file").unwrap().len(), 50_000);
    }
}

#[test]
fn a_node_tampered_deep_in_a_large_file_ends_the_download_with_the_reason() {
    // Validation is on read, node by node: a flip in a late node of a
    // file that streams in several chunks is met after `FileStart` and
    // some data went out. The client must get an integrity error — not
    // a short body, not a dropped connection — and the session goes on.
    let r = rig(EnclaveConfig::default(), 112);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    let before = r.content.inner().list().unwrap();
    let body: Vec<u8> = (0..700_000).map(|i| (i % 241) as u8).collect();
    a.put("/big", &body).unwrap();
    a.put("/small", b"untouched").unwrap();
    let blob_key = keys_touched_by(&r.content, &before)
        .into_iter()
        .find(|k| r.content.inner().get(k).unwrap().unwrap().len() > body.len())
        .expect("the big file's blob");
    // Node 150 of ~173: in the third 256 KiB chunk.
    r.content.snapshot_object(&blob_key).unwrap();
    r.content.tamper(&blob_key, 150 * 4096 + 77, 5).unwrap();
    assert!(is_integrity_error(a.get("/big")));
    assert_eq!(a.get("/small").unwrap(), b"untouched");
    r.content.rollback_object(&blob_key).unwrap();
    assert_eq!(a.get("/big").unwrap(), body);
}

#[test]
fn individual_file_rollback_is_detected() {
    let r = rig(EnclaveConfig::default(), 101);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    let before = r.content.inner().list().unwrap();
    a.put("/target", b"version 1").unwrap();
    // Snapshot every object the upload touched (data, ACL, hash
    // records, parent directory) — the attacker rolls back the data
    // and its hash record *consistently*.
    let touched = keys_touched_by(&r.content, &before);
    for key in &touched {
        r.content.snapshot_object(key).unwrap();
    }

    a.put("/target", b"version 2 - revoke the secret!").unwrap();
    assert_eq!(a.get("/target").unwrap(), b"version 2 - revoke the secret!");

    // Roll back only the file's own objects (not the whole store).
    for key in &touched {
        r.content.rollback_object(key).unwrap();
    }
    assert!(
        is_integrity_error(a.get("/target")),
        "individual-file rollback must be detected (§V-D)"
    );
}

#[test]
fn member_list_rollback_cannot_resurrect_membership() {
    // The §V-D motivation: "an old member list could enable a user to
    // regain access to files for which the permissions were previously
    // revoked".
    let r = rig(EnclaveConfig::default(), 102);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = r.setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    let mut b = r.server.connect_local(&bob).unwrap();

    a.put("/secret", b"classified").unwrap();
    let before = r.group.inner().list().unwrap();
    a.add_user("bob", "insiders").unwrap();
    a.set_perm("/secret", "insiders", Perm::Read).unwrap();
    assert_eq!(b.get("/secret").unwrap(), b"classified");

    // The attacker snapshots the group-store state while bob is a
    // member...
    let touched = keys_touched_by(&r.group, &before);
    assert!(!touched.is_empty());
    for key in &touched {
        r.group.snapshot_object(key).unwrap();
    }

    // ...alice revokes bob...
    a.remove_user("bob", "insiders").unwrap();
    assert!(matches!(
        b.get("/secret"),
        Err(SegShareError::Request {
            code: ErrorCode::Denied,
            ..
        })
    ));

    // ...and the attacker replays the stale member list. The enclave
    // must detect the rollback rather than honour the old membership.
    for key in &touched {
        r.group.rollback_object(key).unwrap();
    }
    let result = b.get("/secret");
    assert!(
        is_integrity_error(result),
        "stale member list must not restore access"
    );
}

#[test]
fn whole_fs_rollback_detected_only_with_counter() {
    // Without §V-E, rolling back *everything* (including the root) is
    // the one attack the individual-file tree cannot see — the paper is
    // explicit about this boundary. With the monotonic counter it is
    // caught.
    for (whole_fs, expect_detected) in [(false, false), (true, true)] {
        let config = EnclaveConfig {
            rollback_whole_fs: whole_fs,
            ..EnclaveConfig::default()
        };
        let r = rig(config, 103 + whole_fs as u64);
        let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let mut a = r.server.connect_local(&alice).unwrap();

        a.put("/doc", b"old state").unwrap();
        r.content.snapshot_everything().unwrap();
        r.group.snapshot_everything().unwrap();
        a.put("/doc", b"new state").unwrap();

        r.content.rollback_everything().unwrap();
        r.group.rollback_everything().unwrap();

        let result = a.get("/doc");
        if expect_detected {
            assert!(
                is_integrity_error(result),
                "whole-FS rollback must be detected with the counter (§V-E)"
            );
        } else {
            // The complete, consistent old state verifies — exactly the
            // residual risk the paper assigns to §V-E.
            assert_eq!(result.unwrap(), b"old state");
        }
    }
}

#[test]
fn provider_sees_no_plaintext() {
    let r = rig(EnclaveConfig::default(), 105);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    a.mkdir("/top-secret-project").unwrap();
    a.put(
        "/top-secret-project/merger-plan.docx",
        b"ACME will acquire Initech for ONE MILLION dollars",
    )
    .unwrap();
    a.add_user("bob", "merger-team").unwrap();
    a.set_perm(
        "/top-secret-project/merger-plan.docx",
        "merger-team",
        Perm::Read,
    )
    .unwrap();

    // S1: neither file contents, nor paths, nor group names, nor user
    // names appear anywhere in either store (keys or values).
    for store in [&r.content, &r.group] {
        for key in store.inner().list().unwrap() {
            if key.starts_with("!sealed") {
                continue;
            }
            for needle in [
                "top-secret",
                "merger",
                "ACME",
                "Initech",
                "MILLION",
                "alice",
                "bob",
            ] {
                assert!(
                    !key.contains(needle),
                    "storage key {key:?} leaks {needle:?}"
                );
                let value = store.inner().get(&key).unwrap().unwrap();
                let haystack = String::from_utf8_lossy(&value);
                assert!(
                    !haystack.contains(needle),
                    "object {key:?} leaks {needle:?}"
                );
            }
        }
    }
}

#[test]
fn unauthorized_requests_are_denied_not_crashed() {
    let r = rig(EnclaveConfig::default(), 106);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mallory = r.setup.enroll_user("mallory", "m@x", "Mallory").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    let mut m = r.server.connect_local(&mallory).unwrap();

    a.mkdir("/private").unwrap();
    a.put("/private/data", b"alice only").unwrap();

    // Mallory probes everything she can think of; the server stays up
    // and denies each one.
    assert!(m.get("/private/data").is_err());
    assert!(m.put("/private/data", b"overwritten").is_err());
    assert!(m.remove("/private/data").is_err());
    assert!(m.rename("/private/data", "/stolen").is_err());
    assert!(m
        .set_perm("/private/data", "~mallory", Perm::ReadWrite)
        .is_err());
    assert!(m.add_owner("/private/data", "~mallory").is_err());
    assert!(m.set_inherit("/private/data", true).is_err());
    assert!(m.list("/private").is_err());
    // Creating her own content in the root is allowed by design.
    m.put("/mallorys-own", b"hers").unwrap();
    // Alice is untouched.
    assert_eq!(a.get("/private/data").unwrap(), b"alice only");
}

#[test]
fn multi_user_adversary_gets_only_the_union_of_permissions() {
    // §III-B: "An attacker controlling multiple users should only have
    // permissions according to the union of permissions of the
    // individual controlled users."
    let r = rig(EnclaveConfig::default(), 107);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let eve1 = r.setup.enroll_user("eve1", "e1@x", "Eve One").unwrap();
    let eve2 = r.setup.enroll_user("eve2", "e2@x", "Eve Two").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    let mut e1 = r.server.connect_local(&eve1).unwrap();
    let mut e2 = r.server.connect_local(&eve2).unwrap();

    a.put("/readable-by-eve1", b"r1").unwrap();
    a.set_perm("/readable-by-eve1", "~eve1", Perm::Read)
        .unwrap();
    a.put("/writable-by-eve2", b"w2").unwrap();
    a.set_perm("/writable-by-eve2", "~eve2", Perm::Write)
        .unwrap();
    a.put("/neither", b"n").unwrap();

    // Each controlled user has exactly their own grant...
    assert_eq!(e1.get("/readable-by-eve1").unwrap(), b"r1");
    e2.put("/writable-by-eve2", b"w2 modified").unwrap();
    // ...and no cross-pollination.
    assert!(e2.get("/readable-by-eve1").is_err());
    assert!(e1.put("/writable-by-eve2", b"x").is_err());
    assert!(e1.get("/neither").is_err());
    assert!(e2.get("/neither").is_err());
}

#[test]
fn storage_failures_surface_as_errors_not_corruption() {
    let r = rig(EnclaveConfig::default(), 108);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.put("/file", b"stable").unwrap();

    // Inject a failure a few operations ahead; requests fail cleanly.
    r.content.fail_after(Some(2));
    let result = a.get("/file");
    assert!(result.is_err(), "injected failure must surface");
    r.content.fail_after(None);
    // Service recovers.
    assert_eq!(a.get("/file").unwrap(), b"stable");
}

#[test]
fn stolen_certificate_without_key_cannot_connect() {
    let r = rig(EnclaveConfig::default(), 109);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mallory = r.setup.enroll_user("mallory", "m@x", "Mallory").unwrap();

    // Mallory presents alice's certificate with her own key.
    let frankenstein = segshare::EnrolledUser {
        user_id: alice.user_id.clone(),
        certificate: alice.certificate.clone(),
        secret_key: mallory.secret_key.clone(),
        ca_key: alice.ca_key,
        now: alice.now,
    };
    assert!(
        r.server.connect_local(&frankenstein).is_err(),
        "certificate-verify must require the matching private key"
    );
}

/// A protocol-level attacker: a *valid* user speaking raw protocol
/// messages in hostile orders ("send arbitrary requests to the enclave",
/// §III-B).
#[test]
fn hostile_protocol_sequences_are_survived() {
    use seg_proto::{Request, Response};
    use segshare::client::SecureStream;

    let r = rig(EnclaveConfig::default(), 110);
    let mallory = r.setup.enroll_user("mallory", "m@x", "Mallory").unwrap();

    // Raw secure stream (below the Client convenience layer).
    let mut stream = SecureStream::connect(
        r.server.reactor().connect_virtual().unwrap(),
        mallory.certificate.clone(),
        mallory.secret_key.clone(),
        mallory.ca_key,
        mallory.now,
        &mut seg_crypto::rng::SystemRng::new(),
    )
    .unwrap();

    let send = |stream: &mut SecureStream<_>, req: &Request| stream.send(&req.encode()).unwrap();

    // 1. Data chunk with no active upload -> BadRequest, session lives.
    send(
        &mut stream,
        &Request::Data {
            bytes: vec![1, 2, 3],
        },
    );
    let resp = Response::decode(&stream.recv().unwrap()).unwrap();
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // 2. Announce an upload, then interrupt it with another request:
    //    the upload aborts with an error and the interrupting request
    //    is *not* silently executed.
    send(
        &mut stream,
        &Request::PutFile {
            path: "/m".to_string(),
            size: 10,
        },
    );
    send(
        &mut stream,
        &Request::Get {
            path: "/".to_string(),
        },
    );
    let resp = Response::decode(&stream.recv().unwrap()).unwrap();
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // 3. Oversized chunk against a fresh announcement.
    send(
        &mut stream,
        &Request::PutFile {
            path: "/m".to_string(),
            size: 4,
        },
    );
    send(
        &mut stream,
        &Request::Data {
            bytes: vec![0u8; 100],
        },
    );
    let resp = Response::decode(&stream.recv().unwrap()).unwrap();
    assert!(matches!(resp, Response::Error { .. }));

    // 4. After all that abuse, an honest request still works.
    send(
        &mut stream,
        &Request::PutFile {
            path: "/m".to_string(),
            size: 2,
        },
    );
    send(&mut stream, &Request::Data { bytes: vec![7, 7] });
    let resp = Response::decode(&stream.recv().unwrap()).unwrap();
    assert!(matches!(resp, Response::Ok), "{resp:?}");
    send(
        &mut stream,
        &Request::Get {
            path: "/m".to_string(),
        },
    );
    let resp = Response::decode(&stream.recv().unwrap()).unwrap();
    assert!(matches!(resp, Response::FileStart { size: 2 }));
    let resp = Response::decode(&stream.recv().unwrap()).unwrap();
    assert!(matches!(resp, Response::Data { .. }));
}

/// The provider deletes only the content body of alice's file. The
/// file's ACL and its parent's listing still say it exists, so bob's
/// upload is an overwrite he may not make — not a new file he would
/// own — and alice learns her body is gone.
#[test]
fn a_hidden_body_does_not_hand_the_file_to_another_user() {
    for (config, seed) in both_configs() {
        let r = rig(config, 120 + seed);
        let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let bob = r.setup.enroll_user("bob", "b@x", "Bob").unwrap();
        let mut a = r.server.connect_local(&alice).unwrap();
        let mut b = r.server.connect_local(&bob).unwrap();
        a.put("/report", b"alice's numbers").unwrap();
        assert!(is_denied(b.put("/report", b"bob's numbers")));

        let path = SegPath::parse("/report").unwrap();
        let acl_key = key_of(&r.server, &ObjectId::Acl(path.clone()));
        let acl = r.content.inner().get(&acl_key).unwrap();
        let body_key = key_of(&r.server, &ObjectId::FileData(path));
        assert!(r.content.inner().delete(&body_key).unwrap());

        assert!(is_denied(b.put("/report", b"bob's numbers")), "{config:?}");
        assert_eq!(r.content.inner().get(&acl_key).unwrap(), acl, "{config:?}");
        assert!(is_integrity_error(a.get("/report")), "{config:?}");
    }
}

/// The provider deletes the root directory's body before a restart. A
/// restart is no first start: nothing re-creates the root, and the
/// namespace reports the loss instead of starting over empty.
#[test]
fn a_hidden_root_is_not_rewritten_at_restart() {
    for (config, seed) in both_configs() {
        let Rig {
            setup,
            server,
            content,
            group,
        } = rig(config, 122 + seed);
        let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let mut a = server.connect_local(&alice).unwrap();
        a.mkdir("/dir").unwrap();
        let root = SegPath::root();
        let root_dir = key_of(&server, &ObjectId::DirData(root.clone()));
        let others = [
            (&content, key_of(&server, &ObjectId::Acl(root))),
            (&group, key_of(&server, &ObjectId::GroupRoot)),
            (&group, key_of(&server, &ObjectId::GroupList)),
        ];
        drop(a);
        drop(server);
        assert!(content.inner().delete(&root_dir).unwrap());
        let before: Vec<_> = others
            .iter()
            .map(|(store, key)| store.inner().get(key).unwrap())
            .collect();

        let server = setup.server().unwrap();
        let mut a = server.connect_local(&alice).unwrap();
        assert!(is_integrity_error(a.list("/")), "{config:?}");
        assert!(is_integrity_error(a.mkdir("/fresh")), "{config:?}");
        assert!(is_integrity_error(a.put("/fresh-file", b"x")), "{config:?}");
        drop(a);
        drop(server);
        // A second restart does not re-create it either.
        let server = setup.server().unwrap();
        let mut a = server.connect_local(&alice).unwrap();
        assert!(is_integrity_error(a.list("/")), "{config:?}");

        assert_eq!(content.inner().get(&root_dir).unwrap(), None, "{config:?}");
        for ((store, key), before) in others.iter().zip(before) {
            assert_eq!(store.inner().get(key).unwrap(), before, "{config:?}");
        }
    }
}

/// The provider deletes the member list of a user the group store has
/// registered. Adding or revoking a membership must not start a fresh
/// list in its place: that would silently drop (or, restored later,
/// keep) the memberships it held.
#[test]
fn a_hidden_member_list_fails_group_requests_closed() {
    for (config, seed) in both_configs() {
        let r = rig(config, 124 + seed);
        let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let mut a = r.server.connect_local(&alice).unwrap();
        a.add_user("bob", "eng").unwrap();
        a.add_user("alice", "ops").unwrap();
        let bob = ObjectId::MemberList(UserId::new("bob").unwrap());
        let list_key = key_of(&r.server, &bob);
        assert!(r.group.inner().delete(&list_key).unwrap());

        let writes = group_writes(&r.server);
        assert!(is_integrity_error(a.add_user("bob", "ops")), "{config:?}");
        assert!(
            is_integrity_error(a.remove_user("bob", "eng")),
            "{config:?}"
        );
        assert_eq!(group_writes(&r.server) - writes, 0, "{config:?}");
        assert_eq!(r.group.inner().get(&list_key).unwrap(), None);
    }
}

/// Group requests that change nothing write nothing: revoking a user
/// who was never added, and re-adding a current member, each answer
/// `Ok` with no group-store write at all.
#[test]
fn group_requests_that_change_nothing_write_nothing() {
    for (config, seed) in both_configs() {
        let r = rig(config, 126 + seed);
        let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let mut a = r.server.connect_local(&alice).unwrap();
        a.add_user("bob", "eng").unwrap();

        let writes = group_writes(&r.server);
        a.remove_user("carol", "eng").unwrap();
        assert_eq!(group_writes(&r.server) - writes, 0, "revoking a stranger");
        a.add_user("bob", "eng").unwrap();
        assert_eq!(group_writes(&r.server) - writes, 0, "re-adding bob");
        a.add_user("alice", "eng").unwrap();
        assert_eq!(group_writes(&r.server) - writes, 0, "re-adding alice");
        a.add_group_owner("~alice", "eng").unwrap();
        assert_eq!(group_writes(&r.server) - writes, 0, "re-adding an owner");
        // The same requests still change what is there to change.
        a.remove_user("bob", "eng").unwrap();
        assert!(group_writes(&r.server) > writes, "{config:?}");
    }
}
