//! End-to-end integration tests across all workspace crates: user
//! applications talking to the SeGShare server over the secure channel,
//! against the simulated SGX platform and untrusted stores.

use std::sync::Arc;

use seg_fs::Perm;
use seg_proto::{ErrorCode, CHUNK_LEN};
use seg_store::{MemStore, ObjectStore};
use segshare::{EnclaveConfig, FsoSetup, SegShareError};

fn assert_denied(result: Result<impl std::fmt::Debug, SegShareError>) {
    match result {
        Err(SegShareError::Request { code, .. }) => assert_eq!(code, ErrorCode::Denied),
        other => panic!("expected Denied, got {other:?}"),
    }
}

fn assert_code(result: Result<impl std::fmt::Debug, SegShareError>, expected: ErrorCode) {
    match result {
        Err(SegShareError::Request { code, .. }) => assert_eq!(code, expected),
        other => panic!("expected {expected:?}, got {other:?}"),
    }
}

#[test]
fn file_lifecycle() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut c = server.connect_local(&alice).unwrap();

    // Nested directories.
    c.mkdir("/a").unwrap();
    c.mkdir("/a/b").unwrap();
    c.mkdir("/a/b/c").unwrap();

    // Parent must exist.
    assert_code(c.mkdir("/missing/x"), ErrorCode::NotFound);
    // Duplicate rejected.
    assert_code(c.mkdir("/a"), ErrorCode::AlreadyExists);

    // Files of many sizes, including multi-chunk and empty.
    for (path, size) in [
        ("/a/empty", 0usize),
        ("/a/tiny", 1),
        ("/a/medium", 5000),
        ("/a/b/node-boundary", 4068),
        ("/a/b/chunky", CHUNK_LEN + 12345),
        ("/a/b/c/big", 3 * CHUNK_LEN),
    ] {
        let content: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        c.put(path, &content).unwrap();
        assert_eq!(c.get(path).unwrap(), content, "{path}");
    }

    // Overwrite.
    c.put("/a/tiny", b"new content").unwrap();
    assert_eq!(c.get("/a/tiny").unwrap(), b"new content");

    // Listing is sorted and kind-aware.
    let listing = c.list("/a").unwrap();
    let names: Vec<(String, bool)> = listing.iter().map(|e| (e.name.clone(), e.is_dir)).collect();
    assert_eq!(
        names,
        vec![
            ("b".to_string(), true),
            ("empty".to_string(), false),
            ("medium".to_string(), false),
            ("tiny".to_string(), false),
        ]
    );

    // Remove file and empty directory; non-empty directory refused.
    c.remove("/a/tiny").unwrap();
    assert_code(c.get("/a/tiny"), ErrorCode::NotFound);
    assert_code(c.remove("/a/b"), ErrorCode::BadRequest);
    c.remove("/a/b/c/big").unwrap();
    c.remove("/a/b/c").unwrap();

    // Rename a file, then a directory with content.
    c.rename("/a/medium", "/a/renamed").unwrap();
    assert_eq!(c.get("/a/renamed").unwrap().len(), 5000);
    assert_code(c.get("/a/medium"), ErrorCode::NotFound);
    c.mkdir("/dest").unwrap();
    c.rename("/a/b/", "/dest/moved/").unwrap();
    assert_eq!(c.get("/dest/moved/node-boundary").unwrap().len(), 4068);
    assert_code(c.list("/a/b"), ErrorCode::NotFound);
}

#[test]
fn group_sharing_and_immediate_revocation() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let carol = setup.enroll_user("carol", "c@x", "Carol").unwrap();

    let mut a = server.connect_local(&alice).unwrap();
    let mut b = server.connect_local(&bob).unwrap();
    let mut c = server.connect_local(&carol).unwrap();

    a.mkdir("/shared").unwrap();
    a.put("/shared/doc", b"group document").unwrap();

    // No permissions yet: everyone else is denied.
    assert_denied(b.get("/shared/doc"));
    assert_denied(c.get("/shared/doc"));

    // Alice creates a group, adds bob, grants read on the file.
    a.add_user("bob", "readers").unwrap();
    a.set_perm("/shared/doc", "readers", Perm::Read).unwrap();
    assert_eq!(b.get("/shared/doc").unwrap(), b"group document");
    // Read is not write (F4).
    assert_denied(b.put("/shared/doc", b"overwrite"));
    // Carol is still out.
    assert_denied(c.get("/shared/doc"));

    // Adding carol to the group is enough — no per-file change (P2).
    a.add_user("carol", "readers").unwrap();
    assert_eq!(c.get("/shared/doc").unwrap(), b"group document");

    // Only group owners manage membership.
    assert_denied(b.add_user("bob", "readers"));
    assert_denied(b.remove_user("carol", "readers"));

    // Immediate membership revocation (S4): the very next request is
    // denied, with no file re-encryption.
    a.remove_user("carol", "readers").unwrap();
    assert_denied(c.get("/shared/doc"));
    // Bob is unaffected.
    assert_eq!(b.get("/shared/doc").unwrap(), b"group document");

    // Permission revocation is just as immediate (P3).
    a.remove_perm("/shared/doc", "readers").unwrap();
    assert_denied(b.get("/shared/doc"));
}

#[test]
fn individual_user_permissions_via_default_groups() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    let mut b = server.connect_local(&bob).unwrap();

    a.put("/direct", b"for bob only").unwrap();
    a.set_perm("/direct", "~bob", Perm::ReadWrite).unwrap();
    assert_eq!(b.get("/direct").unwrap(), b"for bob only");
    b.put("/direct", b"bob wrote this").unwrap();
    assert_eq!(a.get("/direct").unwrap(), b"bob wrote this");

    // An explicit deny revokes bob's direct access.
    a.set_perm("/direct", "~bob", Perm::Deny).unwrap();
    assert_denied(b.get("/direct"));
}

#[test]
fn write_permission_without_read() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    let mut b = server.connect_local(&bob).unwrap();

    a.put("/dropbox", b"v1").unwrap();
    a.set_perm("/dropbox", "~bob", Perm::Write).unwrap();
    // Bob may update but not read (F4: separate read/write).
    b.put("/dropbox", b"v2 from bob").unwrap();
    assert_denied(b.get("/dropbox"));
    assert_eq!(a.get("/dropbox").unwrap(), b"v2 from bob");
}

#[test]
fn inherited_permissions() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    let mut b = server.connect_local(&bob).unwrap();

    // Central management (§V-B): set permissions once on the directory,
    // then let files inherit.
    a.mkdir("/project").unwrap();
    a.set_perm("/project/", "~bob", Perm::Read).unwrap();
    a.put("/project/spec", b"the spec").unwrap();
    // Without the inherit flag, bob has nothing.
    assert_denied(b.get("/project/spec"));
    a.set_inherit("/project/spec", true).unwrap();
    assert_eq!(b.get("/project/spec").unwrap(), b"the spec");

    // An explicit entry on the file has precedence over the parent's
    // (deny beats inherited grant, §V-B).
    a.set_perm("/project/spec", "~bob", Perm::Deny).unwrap();
    assert_denied(b.get("/project/spec"));
    a.remove_perm("/project/spec", "~bob").unwrap();
    assert_eq!(b.get("/project/spec").unwrap(), b"the spec");

    // Inheritance chains across levels while flags stay set.
    a.mkdir("/project/sub").unwrap();
    a.set_inherit("/project/sub/", true).unwrap();
    a.put("/project/sub/deep", b"deep file").unwrap();
    a.set_inherit("/project/sub/deep", true).unwrap();
    assert_eq!(b.get("/project/sub/deep").unwrap(), b"deep file");
}

#[test]
fn multiple_owners_and_group_owned_groups() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let carol = setup.enroll_user("carol", "c@x", "Carol").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    let mut b = server.connect_local(&bob).unwrap();
    let mut c = server.connect_local(&carol).unwrap();

    // F7: multiple file owners.
    a.put("/co-owned", b"v1").unwrap();
    assert_denied(b.set_perm("/co-owned", "~carol", Perm::Read));
    a.add_owner("/co-owned", "~bob").unwrap();
    b.set_perm("/co-owned", "~carol", Perm::Read).unwrap();
    assert_eq!(c.get("/co-owned").unwrap(), b"v1");

    // F7: multiple group owners via group-owned groups.
    a.add_user("bob", "eng").unwrap();
    // Bob, a mere member, cannot manage the group...
    assert_denied(b.add_user("carol", "eng"));
    // ...until alice makes the "leads" group an owner of "eng" and puts
    // bob into "leads".
    a.add_user("bob", "leads").unwrap();
    a.add_group_owner("leads", "eng").unwrap();
    b.add_user("carol", "eng").unwrap();
}

#[test]
fn enclave_restart_preserves_everything() {
    let content: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let group: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let dedup: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let setup = FsoSetup::with_stores(
        "ca",
        EnclaveConfig::default(),
        seg_sgx::Platform::new_with_seed(77),
        Arc::clone(&content),
        Arc::clone(&group),
        Arc::clone(&dedup),
    );
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();

    {
        let server = setup.server().unwrap();
        let mut a = server.connect_local(&alice).unwrap();
        a.mkdir("/persist").unwrap();
        a.put("/persist/file", b"survives restarts").unwrap();
        a.add_user("bob", "team").unwrap();
        a.set_perm("/persist/file", "team", Perm::Read).unwrap();
    }

    // A new enclave instance on the same platform and stores: unseals
    // SK_r, keeps serving (§II-A "Data Sealing", §IV-B).
    let server = setup.server().unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    assert_eq!(a.get("/persist/file").unwrap(), b"survives restarts");
    let mut b = server.connect_local(&bob).unwrap();
    assert_eq!(b.get("/persist/file").unwrap(), b"survives restarts");
}

#[test]
fn deduplication_saves_storage_and_preserves_isolation() {
    let dedup_store: Arc<MemStore> = Arc::new(MemStore::new());
    let content: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let group: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let config = EnclaveConfig {
        dedup: true,
        ..EnclaveConfig::default()
    };
    let setup = FsoSetup::with_stores(
        "ca",
        config,
        seg_sgx::Platform::new_with_seed(5),
        content,
        group,
        Arc::clone(&dedup_store) as Arc<dyn ObjectStore>,
    );
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    let mut b = server.connect_local(&bob).unwrap();

    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 256) as u8).collect();
    a.put("/alice-copy", &payload).unwrap();
    let after_one = dedup_store.total_bytes().unwrap();
    // Bob uploads the *same* content to a different path — even across
    // users/groups the blob is shared (§V-A, P5).
    b.put("/bob-copy", &payload).unwrap();
    let after_two = dedup_store.total_bytes().unwrap();
    assert_eq!(
        after_one, after_two,
        "identical content must not grow the dedup store"
    );

    // Both read their copies independently.
    assert_eq!(a.get("/alice-copy").unwrap(), payload);
    assert_eq!(b.get("/bob-copy").unwrap(), payload);

    // Distinct content does grow the store.
    b.put("/bob-unique", &vec![7u8; 100_000]).unwrap();
    assert!(dedup_store.total_bytes().unwrap() > after_two);

    // Permissions still apply per file: bob cannot read alice's copy.
    assert_denied(b.get("/alice-copy"));

    // Deleting one reference leaves the other readable.
    a.remove("/alice-copy").unwrap();
    assert_eq!(b.get("/bob-copy").unwrap(), payload);
}

/// Stored bytes over user bytes after putting `dirs` × 32 files of
/// `body_len` bytes under `parent`: the sum of `total_bytes()` over the
/// three stores, which is the count the end-to-end benchmark takes for
/// `stored_bytes_per_user_byte` — audit trail, sealed keys, directory
/// files, ACLs, hash records and the group store all included.
fn stored_bytes_per_user_byte(parent: &str, dirs: usize, body_len: usize) -> f64 {
    let stores: [Arc<MemStore>; 3] = std::array::from_fn(|_| Arc::new(MemStore::new()));
    let [content, group, dedup] = stores.clone().map(|s| s as Arc<dyn ObjectStore>);
    // The configuration `examples/tcp_server` (and the benchmark) runs.
    let config = EnclaveConfig {
        cache: true,
        ..EnclaveConfig::default()
    };
    let platform = seg_sgx::Platform::new_with_seed(6);
    let setup = FsoSetup::with_stores("ca", config, platform, content, group, dedup);
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();

    let mut made = String::new();
    for part in parent.split('/').filter(|p| !p.is_empty()) {
        made = format!("{made}/{part}");
        a.mkdir(&made).unwrap();
    }
    let mut user_bytes = 0usize;
    for d in 0..dirs {
        a.mkdir(&format!("{parent}/d{d:02}")).unwrap();
        for f in 0..32 {
            let path = format!("{parent}/d{d:02}/f{f:02}");
            let body: Vec<u8> = (0..body_len).map(|i| (i + d + f) as u8).collect();
            a.put(&path, &body).unwrap();
            user_bytes += body.len();
        }
    }
    a.add_user("alice", "team").unwrap();
    a.add_user("bob", "team").unwrap();
    assert_eq!(
        a.get(&format!("{parent}/d00/f31")).unwrap().len(),
        body_len,
        "the store is a working one"
    );

    let stored: u64 = stores.iter().map(|s| s.total_bytes().unwrap()).sum();
    stored as f64 / user_bytes as f64
}

#[test]
fn small_files_cost_what_the_storage_format_says() {
    // Exact counts, so they cannot drift between benchmark runs. A 4 KiB
    // body is two nodes (the header carries the tag and the 29-byte tail)
    // and its ACL one: 3.0 before any directory, record or audit byte;
    // format version 1 stored 6.3 here. A 16 KiB body is five nodes and
    // an ACL: 1.5, against 2.3.
    let small = stored_bytes_per_user_byte("/hot0", 8, 4 << 10);
    assert!((3.0..=3.25).contains(&small), "4 KiB files: {small:.4}");
    let mid = stored_bytes_per_user_byte("/org/team/proj", 4, 16 << 10);
    assert!((1.5..=1.6).contains(&mid), "16 KiB files: {mid:.4}");
}

#[test]
fn replication_shares_the_root_key() {
    let content: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let group: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let dedup: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let setup = FsoSetup::with_stores(
        "ca",
        EnclaveConfig::default(),
        seg_sgx::Platform::new_with_seed(1),
        content,
        group,
        dedup,
    );
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();

    let mut a = server.connect_local(&alice).unwrap();
    a.put("/replicated", b"written via enclave 1").unwrap();

    // Second application server on a different machine, same central
    // data repository (§V-F).
    let platform2 = seg_sgx::Platform::new_with_seed(2);
    let replica = setup.replica(&server, &platform2).unwrap();
    let mut a2 = replica.connect_local(&alice).unwrap();
    assert_eq!(a2.get("/replicated").unwrap(), b"written via enclave 1");
    a2.put("/replicated", b"updated via enclave 2").unwrap();
    assert_eq!(a.get("/replicated").unwrap(), b"updated via enclave 2");
}

#[test]
fn replication_refuses_wrong_enclaves() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();

    // An enclave with a different configuration (hence measurement)
    // must not receive the root key.
    let other_config = EnclaveConfig {
        hide_names: false,
        ..EnclaveConfig::default()
    };
    let platform2 = seg_sgx::Platform::new_with_seed(9);
    let impostor = platform2.launch(&segshare::enclave::SegShareEnclave::image(
        &other_config,
        &setup.ca().public_key(),
    ));
    let quote = impostor.quote(b"segshare-replication");
    let result = server
        .enclave()
        .export_root_key(&quote, &platform2.attestation_public_key());
    assert!(result.is_err(), "differing measurement must be refused");

    // A quote verified under the wrong attestation key is refused too.
    let good_image = segshare::enclave::SegShareEnclave::image(
        &EnclaveConfig::default(),
        &setup.ca().public_key(),
    );
    let good_probe = platform2.launch(&good_image);
    let good_quote = good_probe.quote(b"segshare-replication");
    let wrong_platform = seg_sgx::Platform::new_with_seed(10);
    assert!(server
        .enclave()
        .export_root_key(&good_quote, &wrong_platform.attestation_public_key())
        .is_err());
}

#[test]
fn backup_and_restore_with_signed_reset() {
    let content: Arc<MemStore> = Arc::new(MemStore::new());
    let group: Arc<MemStore> = Arc::new(MemStore::new());
    let dedup: Arc<MemStore> = Arc::new(MemStore::new());
    let config = EnclaveConfig {
        rollback_whole_fs: true,
        ..EnclaveConfig::default()
    };
    let setup = FsoSetup::with_stores(
        "ca",
        config,
        seg_sgx::Platform::new_with_seed(3),
        Arc::clone(&content) as Arc<dyn ObjectStore>,
        Arc::clone(&group) as Arc<dyn ObjectStore>,
        Arc::clone(&dedup) as Arc<dyn ObjectStore>,
    );
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();

    a.put("/before-backup", b"state one").unwrap();
    // §V-G: "the cloud provider only has to copy the files on disk".
    let content_backup = content.snapshot();
    let group_backup = group.snapshot();

    a.put("/after-backup", b"state two").unwrap();

    // Restore the backup: the monotonic counter is now ahead of the
    // stored state, so reads fail until the CA authorizes a reset.
    content.restore(content_backup);
    group.restore(group_backup);
    assert!(matches!(
        a.get("/before-backup"),
        Err(SegShareError::Request {
            code: ErrorCode::IntegrityViolation,
            ..
        })
    ));

    // An unauthorized reset is rejected.
    let forged =
        seg_crypto::ed25519::SecretKey::from_seed(&[9u8; 32]).sign(segshare::server::RESET_MESSAGE);
    assert!(server
        .restore_with_reset(&setup.ca().public_key(), &forged)
        .is_err());

    // The CA-signed reset re-anchors the hashes and counters (§V-G).
    let reset = setup.signed_reset();
    server
        .restore_with_reset(&setup.ca().public_key(), &reset)
        .unwrap();
    assert_eq!(a.get("/before-backup").unwrap(), b"state one");
    assert_code(a.get("/after-backup"), ErrorCode::NotFound);
}

#[test]
fn concurrent_clients() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = Arc::new(setup.server().unwrap());
    let mut handles = Vec::new();
    for i in 0..4 {
        let user = setup
            .enroll_user(&format!("user{i}"), "u@x", "User")
            .unwrap();
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let mut c = server.connect_local(&user).unwrap();
            c.mkdir(&format!("/home{i}")).unwrap();
            for j in 0..10 {
                let path = format!("/home{i}/f{j}");
                let content = vec![i as u8; 1000 + j];
                c.put(&path, &content).unwrap();
                assert_eq!(c.get(&path).unwrap(), content);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn minimal_config_still_works() {
    // All extensions off: the §IV core design alone.
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::minimal());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    a.mkdir("/d").unwrap();
    a.put("/d/f", b"plain core design").unwrap();
    assert_eq!(a.get("/d/f").unwrap(), b"plain core design");
}

#[test]
fn full_config_still_works() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::full());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    a.mkdir("/d").unwrap();
    let payload = vec![3u8; 100_000];
    a.put("/d/f", &payload).unwrap();
    assert_eq!(a.get("/d/f").unwrap(), payload);
    a.put("/d/f2", &payload).unwrap(); // dedup path
    assert_eq!(a.get("/d/f2").unwrap(), payload);
}

#[test]
fn delete_group_revokes_all_members() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let carol = setup.enroll_user("carol", "c@x", "Carol").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    let mut b = server.connect_local(&bob).unwrap();
    let mut c = server.connect_local(&carol).unwrap();

    a.put("/team-doc", b"for the team").unwrap();
    a.add_user("bob", "team").unwrap();
    a.add_user("carol", "team").unwrap();
    a.set_perm("/team-doc", "team", Perm::Read).unwrap();
    assert!(b.get("/team-doc").is_ok());
    assert!(c.get("/team-doc").is_ok());

    // Only owners may delete; unknown groups are NotFound.
    assert_denied(b.delete_group("team"));
    assert_code(a.delete_group("ghost-group"), ErrorCode::NotFound);

    // Deleting the group revokes everyone at once (the §IV-B sweep).
    a.delete_group("team").unwrap();
    assert_denied(b.get("/team-doc"));
    assert_denied(c.get("/team-doc"));
    // Group identity is the name: re-creating "team" re-attaches any
    // ACL entries that still reference it (the paper's ACLs likewise
    // keep group references; owners should clear entries before
    // reusing a name).
    a.add_user("bob", "team").unwrap();
    assert!(b.get("/team-doc").is_ok());
    assert_denied(c.get("/team-doc"));
}

#[test]
fn streaming_reader_writer_roundtrip() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();

    let content: Vec<u8> = (0..777_777usize).map(|i| (i % 253) as u8).collect();
    a.put_reader("/streamed", content.len() as u64, &content[..])
        .unwrap();
    let mut out = Vec::new();
    let n = a.get_to_writer("/streamed", &mut out).unwrap();
    assert_eq!(n, content.len() as u64);
    assert_eq!(out, content);

    // A reader that lies about its size is a protocol error.
    let short: &[u8] = b"too short";
    assert!(matches!(
        a.put_reader("/liar", 100, short),
        Err(SegShareError::Protocol(_))
    ));
}

#[test]
fn ownership_shrinking_with_last_owner_protection() {
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let bob = setup.enroll_user("bob", "b@x", "Bob").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    let mut b = server.connect_local(&bob).unwrap();

    // File owners: extend then shrink.
    a.put("/handover", b"v1").unwrap();
    a.add_owner("/handover", "~bob").unwrap();
    // Alice hands the file over entirely: bob removes alice.
    b.remove_owner("/handover", "~alice").unwrap();
    assert_denied(a.set_perm("/handover", "~alice", Perm::Read));
    // The last owner is protected.
    assert_code(b.remove_owner("/handover", "~bob"), ErrorCode::BadRequest);
    // Bob still owns and can operate.
    b.set_perm("/handover", "~alice", Perm::Read).unwrap();
    assert_eq!(a.get("/handover").unwrap(), b"v1");

    // Group owners: same dance on r_GO.
    a.add_user("bob", "handover-team").unwrap();
    a.add_group_owner("~bob", "handover-team").unwrap();
    b.remove_group_owner("~alice", "handover-team").unwrap();
    assert_denied(a.add_user("carol", "handover-team"));
    assert_code(
        b.remove_group_owner("~bob", "handover-team"),
        ErrorCode::BadRequest,
    );
    b.add_user("carol", "handover-team").unwrap();
}

#[test]
fn stress_deep_tree_under_full_protection() {
    // A deeper, busier workload with every extension enabled: exercises
    // tree propagation across many levels, dedup indirections, hidden
    // names, and the whole-FS counter on every update.
    let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::full());
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = server.connect_local(&alice).unwrap();

    // Build a 6-deep directory chain with files at every level.
    let mut dir = String::from("/");
    for depth in 0..6 {
        dir = format!("{dir}level{depth}/");
        a.mkdir(&dir).unwrap();
        for f in 0..4 {
            let content = vec![(depth * 16 + f) as u8; 3000 + depth * 500 + f];
            a.put(&format!("{dir}file{f}"), &content).unwrap();
        }
    }

    // Rewrite, move, and remove across levels.
    a.put("/level0/file0", b"rewritten at the top").unwrap();
    a.rename("/level0/level1/file1", "/level0/level1/level2/moved-up")
        .unwrap();
    a.remove("/level0/level1/file2").unwrap();

    // Re-read everything that should exist, fully verified.
    assert_eq!(a.get("/level0/file0").unwrap(), b"rewritten at the top");
    assert_eq!(
        a.get("/level0/level1/level2/moved-up").unwrap().len(),
        3000 + 500 + 1
    );
    let mut dir = String::from("/");
    for depth in 0..6 {
        dir = format!("{dir}level{depth}/");
        let listing = a.list(&dir).unwrap();
        assert!(!listing.is_empty(), "{dir}");
    }

    // Dedup across the tree: identical payloads collapse.
    let shared = vec![0xEEu8; 40_000];
    a.put("/level0/dup-a", &shared).unwrap();
    a.put("/level0/level1/dup-b", &shared).unwrap();
    assert_eq!(a.get("/level0/dup-a").unwrap(), shared);
    assert_eq!(a.get("/level0/level1/dup-b").unwrap(), shared);

    // And the whole-FS counter kept pace: a consistent snapshot replay
    // would now be far behind (sanity: one more write + read works).
    a.put("/final", b"done").unwrap();
    assert_eq!(a.get("/final").unwrap(), b"done");
}
