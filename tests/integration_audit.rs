//! Audit-trail integration: the tamper classes of the threat model
//! against the hash-chained audit log, and redaction hygiene of every
//! structured export.
//!
//! The §III-B attacker owns the stores, so it can delete, reorder,
//! substitute, or bit-flip the sealed `!audit-*` objects at will. Each
//! of those manipulations must turn `audit_verify()` into an
//! [`SegShareError::Integrity`]; and nothing leaving the enclave
//! in a request record or the audit export may carry raw paths, user
//! ids, or key material.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::test_runner::TestRng;
use seg_fs::Perm;
use seg_store::{MemStore, ObjectStore};
use segshare::{EnclaveConfig, EnrolledUser, FsoSetup, SegShareError, SegShareServer};

/// Distinctive request operands; none may appear in any export.
const SECRETS: &[&str] = &[
    "alice",
    "bob",
    "strategyteam",
    "plans-secret",
    "q3-report",
    "acme.example",
];

struct AuditRig {
    server: SegShareServer,
    content: Arc<MemStore>,
}

/// Drives the canonical upload → share → download → revoke flow with
/// auditing on and hands back the content store for manipulation.
fn audited_flow() -> AuditRig {
    let content = Arc::new(MemStore::new());
    let setup = FsoSetup::with_stores(
        "audit-ca",
        EnclaveConfig::default(),
        seg_sgx::Platform::new_with_seed(77),
        Arc::clone(&content) as Arc<dyn ObjectStore>,
        Arc::new(MemStore::new()),
        Arc::new(MemStore::new()),
    );
    let server = setup.server().expect("setup");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll alice");
    let bob = setup
        .enroll_user("bob", "bob@acme.example", "Bob")
        .expect("enroll bob");

    let mut a = server.connect_local(&alice).expect("alice connects");
    a.mkdir("/plans-secret/").expect("mkdir");
    a.put("/plans-secret/q3-report", &vec![0x42u8; 64 * 1024])
        .expect("upload");
    a.add_user("alice", "strategyteam").expect("create group");
    a.add_user("bob", "strategyteam").expect("share");
    a.set_perm("/plans-secret/q3-report", "strategyteam", Perm::Read)
        .expect("grant");

    let mut b = server.connect_local(&bob).expect("bob connects");
    assert_eq!(
        b.get("/plans-secret/q3-report").expect("download").len(),
        64 * 1024
    );
    a.remove_user("bob", "strategyteam").expect("revoke");
    assert!(b.get("/plans-secret/q3-report").is_err(), "revoked");

    drop(a);
    drop(b);
    std::thread::sleep(std::time::Duration::from_millis(100));
    AuditRig { server, content }
}

/// The audit-record object names, in chain (sequence) order. Record
/// names embed the zero-padded hex sequence number, so lexicographic
/// order is chain order.
fn record_names(content: &MemStore) -> Vec<String> {
    let mut names: Vec<String> = content
        .list()
        .unwrap()
        .into_iter()
        .filter(|k| k.starts_with("!audit-rec-"))
        .collect();
    names.sort();
    names
}

fn assert_tamper_detected(server: &SegShareServer, what: &str) {
    match server.audit_verify() {
        Err(SegShareError::Integrity(msg)) => {
            assert!(msg.contains("audit"), "{what}: unexpected message {msg:?}");
        }
        other => panic!("{what}: expected Integrity error, got {other:?}"),
    }
}

/// Saves an object's bytes, runs `tamper` on them, verifies detection,
/// then restores the original and verifies the chain is whole again.
fn tamper_roundtrip(rig: &AuditRig, key: &str, what: &str, tamper: impl FnOnce(&mut Vec<u8>)) {
    let original = rig.content.get(key).unwrap().expect("object exists");
    let mut mutated = original.clone();
    tamper(&mut mutated);
    rig.content.put(key, &mutated).unwrap();
    assert_tamper_detected(&rig.server, what);
    rig.content.put(key, &original).unwrap();
    rig.server
        .audit_verify()
        .unwrap_or_else(|e| panic!("{what}: chain broken after restore: {e}"));
}

#[test]
fn intact_chain_verifies_and_exports_the_flow() {
    let rig = audited_flow();
    let count = rig.server.audit_verify().expect("intact chain");
    let records = rig.server.audit_export().expect("export");
    assert_eq!(records.len() as u64, count);
    assert!(count >= 8, "flow produced {count} records");

    // Sequence numbers are dense and ordered; request ids increase.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64);
    }
    let ops: Vec<&str> = records.iter().map(|r| r.op.as_str()).collect();
    for op in [
        "mk_dir",
        "put_file",
        "add_user",
        "set_perm",
        "get",
        "remove_user",
    ] {
        assert!(ops.contains(&op), "missing {op} in {ops:?}");
    }

    // Bob's denied read is on the record, correlated with his earlier
    // allowed one through the same principal fingerprint.
    let denied: Vec<_> = records.iter().filter(|r| r.code == "denied").collect();
    assert_eq!(denied.len(), 1, "exactly one denied decision");
    let allowed_get = records
        .iter()
        .find(|r| r.op == "get" && r.code == "ok")
        .expect("allowed get");
    assert_eq!(denied[0].principal, allowed_get.principal);
    assert_eq!(denied[0].object, allowed_get.object);
    // ...and the uploader is someone else.
    let upload = records.iter().find(|r| r.op == "put_file").unwrap();
    assert_ne!(upload.principal, denied[0].principal);
}

#[test]
fn truncating_the_chain_is_detected() {
    let rig = audited_flow();
    let names = record_names(&rig.content);

    // Deleting the newest record (hiding the revocation, say).
    let last = names.last().unwrap();
    let saved = rig.content.get(last).unwrap().unwrap();
    rig.content.delete(last).unwrap();
    assert_tamper_detected(&rig.server, "truncate tail");
    rig.content.put(last, &saved).unwrap();
    rig.server.audit_verify().expect("restored");

    // Deleting a record from the middle.
    let mid = &names[names.len() / 2];
    let saved = rig.content.get(mid).unwrap().unwrap();
    rig.content.delete(mid).unwrap();
    assert_tamper_detected(&rig.server, "truncate middle");
    rig.content.put(mid, &saved).unwrap();
    rig.server.audit_verify().expect("restored");
}

#[test]
fn reordering_records_is_detected() {
    let rig = audited_flow();
    let names = record_names(&rig.content);
    let (a, b) = (&names[1], &names[names.len() - 2]);
    let blob_a = rig.content.get(a).unwrap().unwrap();
    let blob_b = rig.content.get(b).unwrap().unwrap();
    rig.content.put(a, &blob_b).unwrap();
    rig.content.put(b, &blob_a).unwrap();
    assert_tamper_detected(&rig.server, "reorder");
    rig.content.put(a, &blob_a).unwrap();
    rig.content.put(b, &blob_b).unwrap();
    rig.server.audit_verify().expect("restored");
}

#[test]
fn substituting_a_record_is_detected() {
    let rig = audited_flow();
    let names = record_names(&rig.content);
    // Overwrite the revocation record with a copy of an earlier,
    // legitimately sealed record (a classic replay-as-substitution).
    let last = names.last().unwrap();
    tamper_roundtrip(&rig, last, "substitute", |bytes| {
        *bytes = rig.content.get(&names[0]).unwrap().unwrap();
    });
}

#[test]
fn bit_flips_anywhere_are_detected() {
    let rig = audited_flow();
    let names = record_names(&rig.content);
    let mut rng = TestRng::from_seed(0x0a0d_1701);
    // Random record, random bit, several times.
    for round in 0..8 {
        let name = &names[rng.usize_in(0, names.len())];
        tamper_roundtrip(&rig, name, &format!("bit-flip #{round}"), |bytes| {
            let byte = rng.usize_in(0, bytes.len());
            let bit = rng.below(8) as u8;
            bytes[byte] ^= 1 << bit;
        });
    }
    // The head record is fair game too.
    tamper_roundtrip(&rig, "!audit-head", "head bit-flip", |bytes| {
        let byte = rng.usize_in(0, bytes.len());
        bytes[byte] ^= 0x80;
    });
}

#[test]
fn forged_trailing_record_is_detected() {
    let rig = audited_flow();
    let count = rig.server.audit_verify().expect("intact");
    // Appending a record *without* advancing the sealed head: replay an
    // old ciphertext at the next sequence slot.
    let forged_name = format!("!audit-rec-{count:016x}");
    let donor = rig
        .content
        .get(&record_names(&rig.content)[0])
        .unwrap()
        .unwrap();
    rig.content.put(&forged_name, &donor).unwrap();
    assert_tamper_detected(&rig.server, "forged append");
    rig.content.delete(&forged_name).unwrap();
    rig.server.audit_verify().expect("restored");
}

/// §V-E across a restart: the attacker rolls the *entire* store back to
/// an old, internally consistent snapshot and relaunches the enclave.
/// Only the monotonic-counter anchor can expose the stale trail, and it
/// must do so at launch — before the first new append could re-anchor
/// the head and permanently erase the evidence.
#[test]
fn whole_store_rollback_across_restart_is_detected_at_launch() {
    let content = Arc::new(MemStore::new());
    let setup = FsoSetup::with_stores(
        "audit-ca",
        EnclaveConfig {
            rollback_whole_fs: true,
            ..EnclaveConfig::default()
        },
        seg_sgx::Platform::new_with_seed(78),
        Arc::clone(&content) as Arc<dyn ObjectStore>,
        Arc::new(MemStore::new()),
        Arc::new(MemStore::new()),
    );
    let server = setup.server().expect("first launch");
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    a.put("/doc", b"v1").unwrap();

    // The attacker snapshots everything while this history is current...
    let snapshot = content.snapshot();

    // ...the enclave appends more (audited) history...
    a.put("/doc", b"v2 - the revocation-worthy update").unwrap();
    a.remove("/doc").unwrap();
    drop(a);
    drop(server);
    std::thread::sleep(std::time::Duration::from_millis(100));

    // ...and the whole store is rolled back before a restart.
    for key in content.list().unwrap() {
        content.delete(&key).unwrap();
    }
    for (key, value) in &snapshot {
        content.put(key, value).unwrap();
    }
    match setup.server() {
        Err(SegShareError::Integrity(msg)) => {
            assert!(
                msg.contains("audit") && msg.contains("rollback"),
                "unexpected message: {msg}"
            );
        }
        Ok(_) => panic!("stale-snapshot relaunch must fail audit load"),
        Err(other) => panic!("expected Integrity, got {other:?}"),
    }
}

/// A crash between an append's record write and its head write leaves
/// one genuine record beyond the sealed head. The restart must adopt it
/// (completing the append) instead of reporting a forged append.
#[test]
fn interrupted_append_recovers_across_restart() {
    let content = Arc::new(MemStore::new());
    let setup = FsoSetup::with_stores(
        "audit-ca",
        EnclaveConfig {
            rollback_whole_fs: true,
            ..EnclaveConfig::default()
        },
        seg_sgx::Platform::new_with_seed(79),
        Arc::clone(&content) as Arc<dyn ObjectStore>,
        Arc::new(MemStore::new()),
        Arc::new(MemStore::new()),
    );
    let server = setup.server().expect("first launch");
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    a.put("/doc", b"v1").unwrap();
    let count_before = server.audit_verify().expect("intact");

    // Simulate the crash window: a `get` appends exactly one record;
    // roll back only the head blob, as if its write never hit disk.
    let stale_head = content.get("!audit-head").unwrap().unwrap();
    assert_eq!(a.get("/doc").unwrap(), b"v1");
    drop(a);
    drop(server);
    std::thread::sleep(std::time::Duration::from_millis(100));
    content.put("!audit-head", &stale_head).unwrap();

    // The restart adopts the orphaned record and the trail stays whole:
    // the interrupted `get` is in the export, and new appends continue.
    let server = setup.server().expect("recovery relaunch");
    let count = server.audit_verify().expect("chain whole after recovery");
    assert_eq!(count, count_before + 1);
    let records = server.audit_export().expect("export");
    assert_eq!(records.last().unwrap().op, "get");
    let mut a = server.connect_local(&alice).unwrap();
    assert_eq!(a.get("/doc").unwrap(), b"v1");
    drop(a);
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(server.audit_verify().expect("still whole") > count);
}

#[test]
fn exports_carry_no_principals_paths_or_keys() {
    let rig = audited_flow();
    let root_hex: String = rig
        .server
        .enclave()
        .store()
        .keys()
        .root()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();

    let watch = rig.server.telemetry().watch();
    let recent = watch.recent_requests(usize::MAX);
    let tail = segshare::telemetry::records_json(&recent);
    let slow = segshare::telemetry::records_json(&watch.slow_requests(usize::MAX));
    let exported = rig.server.audit_export().unwrap();
    let audit = segshare::telemetry::audit_json(&exported);

    for (name, text) in [("report tail", &tail), ("slow", &slow), ("audit", &audit)] {
        for secret in SECRETS {
            assert!(!text.contains(secret), "{name} export leaks {secret:?}");
        }
        assert!(
            !text.contains('/'),
            "{name} export contains a path separator"
        );
        assert!(!text.contains('@'), "{name} export contains an email token");
        assert!(
            !text.contains(&root_hex) && !text.contains(&root_hex[..16]),
            "{name} export leaks root-key material"
        );
    }

    // The tail did fill: fingerprints are present and stable across the
    // two exports (the denied get's record and its audit record carry
    // the same request id and object fingerprint).
    let denied = recent
        .iter()
        .rfind(|r| r.op == "get" && r.decision == seg_obs::Decision::Deny)
        .expect("the revoked get is in the tail");
    let audited = exported
        .iter()
        .find(|a| a.request_id == denied.request_id)
        .expect("the denied get was audited");
    assert_eq!(
        (audited.op.as_str(), audited.object, audited.decision),
        ("get", denied.object, seg_obs::Decision::Deny)
    );
    assert_ne!(denied.object, 0);
}

/// A request that interrupts an upload is refused inside the commit
/// window like any other decision, so the trail holds it: "every
/// dispatched request is appended" has no exception.
#[test]
fn a_request_interrupting_an_upload_is_audited() {
    use seg_proto::{ErrorCode, Request, Response};
    use segshare::client::SecureStream;

    let setup = FsoSetup::new_in_memory("audit-ca", EnclaveConfig::default());
    let server = setup.server().expect("setup");
    let alice = setup.enroll_user("alice", "a@x", "Alice").expect("enroll");
    let mut stream = SecureStream::connect(
        server.reactor().connect_virtual().unwrap(),
        alice.certificate.clone(),
        alice.secret_key.clone(),
        alice.ca_key,
        alice.now,
        &mut seg_crypto::rng::SystemRng::new(),
    )
    .unwrap();
    let announce = Request::PutFile {
        path: "/m".to_string(),
        size: 10,
    };
    stream.send(&announce.encode()).unwrap();
    let interrupt = Request::Get {
        path: "/".to_string(),
    };
    stream.send(&interrupt.encode()).unwrap();
    let resp = Response::decode(&stream.recv().unwrap()).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{resp:?}"
    );
    let trail = server.audit_export().expect("chain verifies");
    let last = trail.last().expect("records");
    assert_eq!(
        (last.op.as_str(), last.code.as_str()),
        ("get", "bad_request"),
        "{trail:?}"
    );
}

/// Every way an upload ends leaves exactly one record on the trail: op
/// `put_file`, bound to the upload's path, with the upload's outcome.
/// The header's decision travels to that record; nothing else about
/// the upload is appended, and the chain verifies after each case.
#[test]
fn every_upload_ends_in_one_audit_record() {
    use seg_proto::{Request, Response, CHUNK_LEN};
    use segshare::client::SecureStream;

    /// A raw stream, for the frame sequences the client never sends:
    /// it sends `frames`, reads `replies` responses, then closes.
    fn raw(server: &SegShareServer, user: &EnrolledUser, frames: &[Request], replies: usize) {
        let mut stream = SecureStream::connect(
            server.reactor().connect_virtual().unwrap(),
            user.certificate.clone(),
            user.secret_key.clone(),
            user.ca_key,
            user.now,
            &mut seg_crypto::rng::SystemRng::new(),
        )
        .unwrap();
        for frame in frames {
            stream.send(&frame.encode()).unwrap();
        }
        for _ in 0..replies {
            let resp = Response::decode(&stream.recv().unwrap()).unwrap();
            assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        }
    }
    fn header(path: &str, size: u64) -> Request {
        Request::PutFile {
            path: path.to_string(),
            size,
        }
    }
    fn data(len: usize) -> Request {
        Request::Data {
            bytes: vec![0x5a; len],
        }
    }

    type Drive = fn(&SegShareServer, &EnrolledUser, &str);
    // (case, upload path, how it is driven, the (op, code) records it
    // appends in chain order — the upload's first).
    type Case = (
        &'static str,
        &'static str,
        Drive,
        &'static [(&'static str, &'static str)],
    );
    let cases: [Case; 6] = [
        (
            "multi-chunk put",
            "/multi",
            |s, u, p| {
                let body = vec![7; 2 * CHUNK_LEN + 9];
                s.connect_local(u).unwrap().put(p, &body).unwrap();
            },
            &[("put_file", "ok")],
        ),
        (
            "zero-byte put",
            "/empty",
            |s, u, p| s.connect_local(u).unwrap().put(p, b"").unwrap(),
            &[("put_file", "ok")],
        ),
        (
            "refused header",
            "/no-such-dir/f",
            |s, u, p| {
                let err = s.connect_local(u).unwrap().put(p, b"body").unwrap_err();
                assert!(matches!(err, SegShareError::Request { .. }), "{err:?}");
            },
            &[("put_file", "not_found")],
        ),
        (
            "overrunning chunk",
            "/overrun",
            |s, u, p| raw(s, u, &[header(p, 10), data(11)], 1),
            &[("put_file", "bad_request")],
        ),
        (
            "interrupting request",
            "/interrupted",
            |s, u, p| {
                let get = Request::Get {
                    path: "/".to_string(),
                };
                raw(s, u, &[header(p, 10), get], 1);
            },
            &[("put_file", "bad_request"), ("get", "bad_request")],
        ),
        (
            "connection closed mid-stream",
            "/abandoned",
            |s, u, p| raw(s, u, &[header(p, 10), data(5)], 0),
            &[("put_file", "bad_request")],
        ),
    ];

    let setup = FsoSetup::new_in_memory("audit-ca", EnclaveConfig::default());
    let server = setup.server().expect("setup");
    let alice = setup.enroll_user("alice", "a@x", "Alice").expect("enroll");
    for (what, path, drive, expected) in cases {
        let seen = server.audit_export().expect("chain verifies").len();
        drive(&server, &alice, path);
        // A closed connection's upload ends on the reactor's close
        // callback, after the client has gone.
        let deadline = Instant::now() + Duration::from_secs(10);
        let trail = loop {
            let trail = server.audit_export().expect("chain verifies");
            if trail.len() >= seen + expected.len() || Instant::now() > deadline {
                break trail;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let appended = &trail[seen..];
        let got: Vec<(&str, &str)> = appended
            .iter()
            .map(|r| (r.op.as_str(), r.code.as_str()))
            .collect();
        assert_eq!(got, expected, "{what}: {appended:?}");
        assert_eq!(
            appended[0].object,
            server.enclave().fingerprint_name(path),
            "{what}: the record names the upload's path"
        );
    }
}
