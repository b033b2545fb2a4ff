//! Durability-plane integration: the WAL-backed store under the full
//! server, group-commit batching, recovery after simulated crashes at
//! every durability event, and dedup-blob garbage collection.
//!
//! The crash matrix is the §V-E story end to end: a clean run first
//! counts the backend's durability events (appends, fsyncs, checkpoint
//! renames, segment deletions), then the same workload is re-run with a
//! scripted crash at every single event index. After each crash the
//! directory is re-opened and the enclave relaunched with the same CA
//! and platform — a reboot — and the recovered state must be
//! all-or-nothing per acknowledged request: every acked write is fully
//! present, every unacked write is fully present or fully absent, the
//! audit chain verifies, and no read ever reports an integrity
//! violation.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use seg_net::ChannelTransport;
use seg_sgx::Platform;
use seg_store::{FaultPlan, MemStore, ObjectStore, WalConfig, WalStore};
use segshare::{wal_views, Client, EnclaveConfig, FsoSetup, SegShareError, SegShareServer};

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("seg-wal-it-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Batch mode with the full §V-E protection stack — the configuration
/// the durability plane was designed around.
fn durable_config() -> EnclaveConfig {
    EnclaveConfig {
        batch: true,
        rollback_whole_fs: true,
        ..EnclaveConfig::default()
    }
}

fn connect(setup: &FsoSetup, server: &SegShareServer, user: &str) -> Client<ChannelTransport> {
    let enrolled = setup.enroll_user(user, "u@x", "User").unwrap();
    server.connect_local(&enrolled).unwrap()
}

// ---------------------------------------------------------------- smoke

#[test]
fn wal_backend_survives_restart() {
    let dir = tempdir("restart");
    let mut setup = FsoSetup::new_wal("ca", durable_config(), &dir).unwrap();
    let big: Vec<u8> = (0..3 * seg_proto::CHUNK_LEN)
        .map(|i| (i % 241) as u8)
        .collect();
    {
        let server = setup.server().unwrap();
        let mut c = connect(&setup, &server, "alice");
        c.mkdir("/docs").unwrap();
        c.put("/docs/big", &big).unwrap();
        c.put("/small", b"persists").unwrap();
        c.put("/gone", b"transient").unwrap();
        c.remove("/gone").unwrap();
        assert_eq!(c.get("/docs/big").unwrap(), big);
        server.audit_verify().unwrap();
    }
    // Reboot: a fresh WalStore over the same directory, same identity.
    let (content, group, dedup) = wal_views(&Arc::new(WalStore::open(&dir).unwrap()));
    setup.set_stores(content, group, dedup);
    let server = setup.server().unwrap();
    let mut c = connect(&setup, &server, "alice");
    assert_eq!(c.get("/docs/big").unwrap(), big);
    assert_eq!(c.get("/small").unwrap(), b"persists");
    assert!(c.get("/gone").is_err(), "removed file stays removed");
    server.audit_verify().unwrap();
    // The recovered store accepts new writes.
    c.put("/after-reboot", b"fresh").unwrap();
    assert_eq!(c.get("/after-reboot").unwrap(), b"fresh");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_log_tail_is_discarded_on_reopen() {
    let dir = tempdir("torn");
    let mut setup = FsoSetup::new_wal("ca", durable_config(), &dir).unwrap();
    {
        let server = setup.server().unwrap();
        let mut c = connect(&setup, &server, "alice");
        c.put("/stable", b"acked and fsynced").unwrap();
        server.audit_verify().unwrap();
    }
    // A crash mid-append leaves a torn, never-acknowledged frame at the
    // tail of the newest segment. Recovery must drop exactly that.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    let newest = segments.last().expect("at least one segment");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(newest)
            .unwrap();
        // Garbage that is not a valid frame header, then a plausible
        // header announcing a payload that never arrived.
        f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x13]).unwrap();
    }
    let (content, group, dedup) = wal_views(&Arc::new(WalStore::open(&dir).unwrap()));
    setup.set_stores(content, group, dedup);
    let server = setup.server().unwrap();
    let mut c = connect(&setup, &server, "alice");
    assert_eq!(c.get("/stable").unwrap(), b"acked and fsynced");
    server.audit_verify().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_metrics_report_batches_and_fsyncs() {
    let dir = tempdir("metrics");
    let setup = FsoSetup::new_wal("ca", durable_config(), &dir).unwrap();
    let server = setup.server().unwrap();
    let mut c = connect(&setup, &server, "alice");
    for i in 0..4u8 {
        c.put(&format!("/m{i}"), &[i; 256]).unwrap();
    }
    let snap = server.metrics_snapshot();
    for family in ["seg_store_batches_total", "seg_store_fsyncs_total"] {
        let total = snap
            .counter(&format!("{family}{{store=\"content\"}}"))
            .unwrap_or_else(|| panic!("{family} missing"));
        assert!(total > 0, "{family} should be live on a WAL backend");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------- crash matrix

/// The acknowledged end state a workload built up, plus the one request
/// that may have been cut mid-flight (either of its listed states is a
/// legal recovery outcome). `Some(bytes)` = file present with exactly
/// those bytes; `None` = file absent.
#[derive(Default)]
struct Outcome {
    acked: BTreeMap<String, Option<Vec<u8>>>,
    limbo: Option<(String, Vec<Option<Vec<u8>>>)>,
}

type Workload = fn(&FsoSetup, &SegShareServer, &mut Outcome);

/// Six distinct single-frame uploads.
fn put_workload(setup: &FsoSetup, server: &SegShareServer, out: &mut Outcome) {
    let Ok(enrolled) = setup.enroll_user("alice", "a@x", "Alice") else {
        return;
    };
    let Ok(mut c) = server.connect_local(&enrolled) else {
        return;
    };
    for i in 0..6u8 {
        let path = format!("/f{i}");
        let content = vec![0x40 | i; 700 + usize::from(i) * 53];
        match c.put(&path, &content) {
            Ok(()) => {
                out.acked.insert(path, Some(content));
            }
            Err(_) => {
                out.limbo = Some((path, vec![None, Some(content)]));
                return;
            }
        }
    }
}

/// Dedup uploads sharing one blob, removals, and GC passes in between.
fn gc_workload(setup: &FsoSetup, server: &SegShareServer, out: &mut Outcome) {
    let Ok(enrolled) = setup.enroll_user("alice", "a@x", "Alice") else {
        return;
    };
    let Ok(mut c) = server.connect_local(&enrolled) else {
        return;
    };
    let shared = vec![0x7e; 9_000];
    let lonely = vec![0x3c; 9_000];
    for (path, content) in [("/s1", &shared), ("/s2", &shared), ("/u", &lonely)] {
        match c.put(path, content) {
            Ok(()) => {
                out.acked.insert(path.to_string(), Some(content.clone()));
            }
            Err(_) => {
                out.limbo = Some((path.to_string(), vec![None, Some(content.clone())]));
                return;
            }
        }
    }
    // Drop one of the two references to the shared blob, then GC: the
    // blob must survive for /s2.
    match c.remove("/s1") {
        Ok(()) => {
            out.acked.insert("/s1".to_string(), None);
        }
        Err(_) => {
            // The earlier acked put no longer pins the state; the
            // unacked remove may or may not have become durable.
            out.acked.remove("/s1");
            out.limbo = Some(("/s1".to_string(), vec![None, Some(shared.clone())]));
            return;
        }
    }
    if server.blob_gc().is_err() {
        return;
    }
    // Drop the only reference to the lonely blob, then GC reclaims it.
    match c.remove("/u") {
        Ok(()) => {
            out.acked.insert("/u".to_string(), None);
        }
        Err(_) => {
            out.acked.remove("/u");
            out.limbo = Some(("/u".to_string(), vec![None, Some(lonely.clone())]));
            return;
        }
    }
    let _ = server.blob_gc();
}

fn is_not_found(err: &SegShareError) -> bool {
    matches!(
        err,
        SegShareError::Request {
            code: seg_proto::ErrorCode::NotFound,
            ..
        }
    )
}

fn assert_state(
    c: &mut Client<ChannelTransport>,
    path: &str,
    allowed: &[Option<Vec<u8>>],
    what: &str,
) {
    match c.get(path) {
        Ok(got) => assert!(
            allowed.iter().any(|s| s.as_deref() == Some(&got[..])),
            "{what}: {path} readable but content matches no legal state"
        ),
        Err(e) if is_not_found(&e) => assert!(
            allowed.contains(&None),
            "{what}: {path} absent but absence is not a legal state"
        ),
        Err(e) => panic!("{what}: {path} read failed abnormally: {e}"),
    }
}

/// One full kill-at-every-failpoint sweep: clean run to count events,
/// then crash at each index, reboot, and check the recovery contract.
fn crash_matrix(tag: &str, config: EnclaveConfig, base: &WalConfig, workload: Workload) {
    // Clean run: learn the total number of durability events.
    let total = {
        let dir = tempdir(&format!("{tag}-clean"));
        let plan = Arc::new(FaultPlan::new());
        let mut cfg = base.clone();
        cfg.fault = Some(Arc::clone(&plan));
        let setup =
            FsoSetup::new_wal_with("ca", config, Platform::new_with_seed(7), &dir, cfg).unwrap();
        let server = setup.server().unwrap();
        let mut out = Outcome::default();
        workload(&setup, &server, &mut out);
        assert!(out.limbo.is_none(), "clean run must not fail");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        plan.events()
    };
    assert!(total > 0, "{tag}: no durability events counted");

    for k in 1..=total {
        let dir = tempdir(&format!("{tag}-k{k}"));
        let what = format!("{tag} crash@{k}/{total}");
        // A placeholder-store setup first, so the CA and platform exist
        // before anything durable does — recovery must reuse both.
        let mut setup = FsoSetup::with_stores(
            "ca",
            config,
            Platform::new_with_seed(7),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        );
        let mut out = Outcome::default();
        let mut cfg = base.clone();
        cfg.fault = Some(Arc::new(FaultPlan::crash_at(k)));
        // An Err here means the crash hit while opening the log —
        // nothing was acked, so recovery just sees the torn state.
        if let Ok(wal) = WalStore::open_with(&dir, cfg) {
            let (content, group, dedup) = wal_views(&Arc::new(wal));
            setup.set_stores(content, group, dedup);
            if let Ok(server) = setup.server() {
                workload(&setup, &server, &mut out);
            }
        }

        // Reboot: clean config over the same directory and identity.
        let wal = Arc::new(
            WalStore::open_with(&dir, base.clone())
                .unwrap_or_else(|e| panic!("{what}: recovery open failed: {e}")),
        );
        let (content, group, dedup) = wal_views(&wal);
        setup.set_stores(content, group, dedup);
        let server = setup
            .server()
            .unwrap_or_else(|e| panic!("{what}: relaunch failed: {e}"));
        // One record per upload, in the same frame as its commit: every
        // acked put's is there, the limbo put's only if its frame was.
        let trail = server
            .audit_export()
            .unwrap_or_else(|e| panic!("{what}: audit chain broken: {e}"));
        let upload_codes = |path: &str| -> Vec<&str> {
            let object = server.enclave().fingerprint_name(path);
            trail
                .iter()
                .filter(|r| r.op == "put_file" && r.object == object)
                .map(|r| r.code.as_str())
                .collect()
        };
        for path in out.acked.keys() {
            assert_eq!(upload_codes(path), ["ok"], "{what}: records of {path}");
        }
        if let Some((path, _)) = &out.limbo {
            let codes = upload_codes(path);
            assert!(codes.len() <= 1, "{what}: records of {path}: {codes:?}");
        }
        let mut c = connect(&setup, &server, "alice");
        for (path, state) in &out.acked {
            assert_state(&mut c, path, std::slice::from_ref(state), &what);
        }
        if let Some((path, allowed)) = &out.limbo {
            assert_state(&mut c, path, allowed, &what);
        }
        // The recovered server keeps working.
        c.put("/post-recovery", b"alive")
            .unwrap_or_else(|e| panic!("{what}: post-recovery write failed: {e}"));
        // Second reboot: the post-recovery write must itself be durable.
        // (Recovery that leaves the log in a state where NEW acked
        // writes get dropped on the NEXT recovery — e.g. appending
        // after a torn first frame — only shows up here.)
        drop(c);
        drop(server);
        // Fully release the first recovered store before rescanning the
        // directory: a checkpoint still finishing on its committer
        // thread deletes stale segments, which would race the second
        // recovery's scan. Session/health threads release their store
        // references asynchronously after the server drops, so wait for
        // ours to become the last one; dropping it then joins the
        // committer.
        setup.set_stores(
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        );
        let quiesce_deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&wal) > 1 {
            assert!(
                std::time::Instant::now() < quiesce_deadline,
                "{what}: first recovered store never quiesced"
            );
            std::thread::yield_now();
        }
        drop(wal);
        let wal = WalStore::open_with(&dir, base.clone())
            .unwrap_or_else(|e| panic!("{what}: second recovery open failed: {e}"));
        let (content, group, dedup) = wal_views(&Arc::new(wal));
        setup.set_stores(content, group, dedup);
        let server = setup
            .server()
            .unwrap_or_else(|e| panic!("{what}: second relaunch failed: {e}"));
        server
            .audit_verify()
            .unwrap_or_else(|e| panic!("{what}: audit chain broken after second reboot: {e}"));
        let mut c = connect(&setup, &server, "alice");
        assert_state(
            &mut c,
            "/post-recovery",
            &[Some(b"alive".to_vec())],
            &format!("{what} (after second reboot)"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_matrix_batched_puts() {
    crash_matrix(
        "puts",
        durable_config(),
        &WalConfig::default(),
        put_workload,
    );
}

#[test]
fn crash_matrix_mid_checkpoint() {
    // A checkpoint threshold small enough that the workload crosses it
    // several times, so the matrix kills mid-checkpoint and mid-GC of
    // old segments too.
    let base = WalConfig {
        checkpoint_bytes: 16 * 1024,
        ..WalConfig::default()
    };
    crash_matrix("ckpt", durable_config(), &base, put_workload);
}

#[test]
fn crash_matrix_dedup_gc() {
    let config = EnclaveConfig {
        dedup: true,
        ..durable_config()
    };
    crash_matrix("gc", config, &WalConfig::default(), gc_workload);
}

// ------------------------------------------- store-level equivalence

/// Store operations the equivalence model covers. Transactions batch a
/// few writes into one commit frame; `Reopen` recovers from disk.
#[derive(Debug, Clone)]
enum StoreOp {
    Put(u8, Vec<u8>),
    Delete(u8),
    Tx(Vec<(u8, Option<Vec<u8>>)>),
    Reopen,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    fn value() -> proptest::collection::VecStrategy<proptest::strategy::Any<u8>> {
        proptest::collection::vec(any::<u8>(), 0..300)
    }
    prop_oneof![
        (0u8..6, value()).prop_map(|(k, v)| StoreOp::Put(k, v)),
        (0u8..6).prop_map(StoreOp::Delete),
        proptest::collection::vec((0u8..6, any::<bool>(), value()), 1..5).prop_map(|ws| {
            StoreOp::Tx(
                ws.into_iter()
                    .map(|(k, del, v)| (k, if del { None } else { Some(v) }))
                    .collect(),
            )
        }),
        Just(StoreOp::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Random puts, deletes, transactions, and reopens against a
    /// `WalStore` always leave exactly the state a plain in-memory
    /// reference holds.
    #[test]
    fn wal_store_matches_memory_reference(
        ops in proptest::collection::vec(store_op(), 1..30)
    ) {
        let dir = tempdir("prop");
        let mut wal = WalStore::open(&dir).unwrap();
        let reference = MemStore::new();
        let key = |k: u8| format!("k{k}");

        for op in &ops {
            match op {
                StoreOp::Put(k, v) => {
                    wal.put(&key(*k), v).unwrap();
                    reference.put(&key(*k), v).unwrap();
                }
                StoreOp::Delete(k) => {
                    prop_assert_eq!(
                        wal.delete(&key(*k)).unwrap(),
                        reference.delete(&key(*k)).unwrap()
                    );
                }
                StoreOp::Tx(writes) => {
                    wal.tx_begin();
                    for (k, v) in writes {
                        match v {
                            Some(v) => wal.put(&key(*k), v).unwrap(),
                            None => {
                                wal.delete(&key(*k)).unwrap();
                            }
                        }
                    }
                    if let Some(ticket) = wal.tx_seal().unwrap() {
                        ticket.wait().unwrap();
                    }
                    for (k, v) in writes {
                        match v {
                            Some(v) => reference.put(&key(*k), v).unwrap(),
                            None => {
                                reference.delete(&key(*k)).unwrap();
                            }
                        }
                    }
                }
                StoreOp::Reopen => {
                    drop(wal);
                    wal = WalStore::open(&dir).unwrap();
                }
            }
            // Full-state comparison after every step.
            let mut wal_keys = wal.list().unwrap();
            let mut ref_keys = reference.list().unwrap();
            wal_keys.sort();
            ref_keys.sort();
            prop_assert_eq!(&wal_keys, &ref_keys);
            for k in &wal_keys {
                prop_assert_eq!(wal.get(k).unwrap(), reference.get(k).unwrap());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------------------ one commit window

/// Batch mode without whole-FS protection — the configuration in which
/// reads used to commit outside any window. Dedup on so GC has blobs.
fn window_config() -> EnclaveConfig {
    EnclaveConfig {
        batch: true,
        dedup: true,
        ..EnclaveConfig::default()
    }
}

/// Per store view: (puts + deletes, operations sealed into batches).
fn write_counts(server: &SegShareServer) -> Vec<(&'static str, u64, u64)> {
    server
        .enclave()
        .store_io()
        .into_iter()
        .map(|(name, s, _)| (name, s.puts + s.deletes, s.batch_ops))
        .collect()
}

/// Every store write the enclave makes after launch is inside a commit
/// window: per view, the writes issued equal the writes sealed into
/// batches, across every request kind, blob GC and backup restoration.
#[test]
fn every_store_write_after_launch_is_inside_a_window() {
    let dir = tempdir("window");
    let setup = FsoSetup::new_wal("ca", window_config(), &dir).unwrap();
    let server = setup.server().unwrap();
    let mut c = connect(&setup, &server, "alice");
    let before = write_counts(&server);
    let big: Vec<u8> = (0..3 * seg_proto::CHUNK_LEN)
        .map(|i| (i % 251) as u8)
        .collect();
    c.mkdir("/d").unwrap();
    c.put("/d/small", b"small body").unwrap();
    c.put("/d/big", &big).unwrap();
    assert_eq!(c.get("/d/small").unwrap(), b"small body");
    assert_eq!(c.get("/d/big").unwrap(), big);
    assert_eq!(c.list("/d/").unwrap().len(), 2);
    c.remove("/d/small").unwrap();
    c.rename("/d/big", "/d/moved").unwrap();
    c.set_perm("/d/moved", "team", seg_fs::Perm::Read).unwrap();
    c.add_user("bob", "team").unwrap();
    c.remove_user("bob", "team").unwrap();
    c.remove("/d/moved").unwrap();
    assert!(
        server.blob_gc().unwrap() > 0,
        "GC reclaimed the removed file's blobs"
    );
    server
        .restore_with_reset(&setup.ca().public_key(), &setup.signed_reset())
        .unwrap();
    let after = write_counts(&server);
    for ((store, writes0, sealed0), (_, writes1, sealed1)) in before.into_iter().zip(after) {
        assert_eq!(
            writes1 - writes0,
            sealed1 - sealed0,
            "{store}: a store write outside any commit window"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `get` with its audit append is one WAL frame and one fsync.
#[test]
fn a_get_is_one_frame_and_one_fsync() {
    let dir = tempdir("get-frame");
    let setup = FsoSetup::new_wal("ca", window_config(), &dir).unwrap();
    let server = setup.server().unwrap();
    let mut c = connect(&setup, &server, "alice");
    c.put("/f", b"body").unwrap();
    let io = || server.enclave().store_io()[0].2;
    let before = io();
    assert_eq!(c.get("/f").unwrap(), b"body");
    let after = io();
    assert_eq!(
        (after.batches - before.batches, after.fsyncs - before.fsyncs),
        (1, 1),
        "(commit frames, fsyncs) of one get"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A put — header, chunks and commit, with its one audit record — is one
/// WAL frame and one fsync, whatever its chunk count.
#[test]
fn a_put_is_one_frame_and_one_fsync() {
    let dir = tempdir("put-frame");
    let setup = FsoSetup::new_wal("ca", window_config(), &dir).unwrap();
    let server = setup.server().unwrap();
    let mut c = connect(&setup, &server, "alice");
    let io = || server.enclave().store_io()[0].2;
    for (what, len) in [
        ("single-chunk", 100),
        ("3-chunk", 2 * seg_proto::CHUNK_LEN + 1),
        ("zero-byte", 0),
    ] {
        let before = io();
        c.put(&format!("/{what}"), &vec![0x33; len]).unwrap();
        let after = io();
        assert_eq!(
            (after.batches - before.batches, after.fsyncs - before.fsyncs),
            (1, 1),
            "(commit frames, fsyncs) of one {what} put"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL server whose checkpoints fall due every few requests and whose
/// checkpoint gives up on open transactions after 2 s, poisoning the
/// store: the PR 11 deadlock (a write waiting on the log outside a
/// window while a window waits on it) shows up as a poisoned store.
fn checkpointing_server(tag: &str) -> (PathBuf, Arc<WalStore>, FsoSetup, SegShareServer) {
    let dir = tempdir(tag);
    let wal = Arc::new(
        WalStore::open_with(
            &dir,
            WalConfig {
                checkpoint_bytes: 16 * 1024,
                gate_timeout: std::time::Duration::from_secs(2),
                ..WalConfig::default()
            },
        )
        .unwrap(),
    );
    let (content, group, dedup) = wal_views(&wal);
    let setup = FsoSetup::with_stores(
        "ca",
        EnclaveConfig {
            batch: true,
            ..EnclaveConfig::default()
        },
        Platform::new(),
        content,
        group,
        dedup,
    );
    let server = setup.server().unwrap();
    (dir, wal, setup, server)
}

/// A writer connection: `rounds` puts over a few paths, every one acked.
fn put_rounds(mut c: Client<ChannelTransport>, rounds: usize) {
    for i in 0..rounds {
        let body = vec![i as u8; 2_000 + 37 * (i % 5)];
        c.put(&format!("/w{}", i % 4), &body)
            .unwrap_or_else(|e| panic!("put {i}: {e}"));
    }
}

#[test]
fn reads_beside_writes_across_checkpoints_never_poison() {
    let (dir, wal, setup, server) = checkpointing_server("read-deadlock");
    let mut reader = connect(&setup, &server, "alice");
    for i in 0..4u8 {
        reader.put(&format!("/r{i}"), &[i; 512]).unwrap();
    }
    let writer = connect(&setup, &server, "alice");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            put_rounds(writer, 60);
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let mut i = 0usize;
        while !done.load(std::sync::atomic::Ordering::SeqCst) {
            let n = (i % 4) as u8;
            assert_eq!(
                reader
                    .get(&format!("/r{n}"))
                    .unwrap_or_else(|e| panic!("get {i}: {e}")),
                vec![n; 512]
            );
            i += 1;
        }
    });
    assert!(!wal.poisoned(), "a checkpoint gave up on an open window");
    server.audit_verify().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_beside_writes_across_checkpoints_never_poisons() {
    let (dir, wal, setup, server) = checkpointing_server("restore-deadlock");
    let writer = connect(&setup, &server, "alice");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            put_rounds(writer, 40);
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let reset = setup.signed_reset();
        while !done.load(std::sync::atomic::Ordering::SeqCst) {
            server
                .restore_with_reset(&setup.ca().public_key(), &reset)
                .unwrap();
        }
    });
    assert!(!wal.poisoned(), "a checkpoint gave up on an open window");
    server.audit_verify().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
