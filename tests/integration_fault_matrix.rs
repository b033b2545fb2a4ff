//! One failed store write leaves no trace. Each request kind below runs
//! at depth 5 (`/a/b/c/d/…`), with the cache on and off, behind
//! `FaultStore::FailWrite`, and each of the request's store writes fails
//! in turn: over `MemStore`s, and over the views of one `WalStore` with
//! batching on. After every failure no acked file reads
//! `IntegrityViolation`, warm or after relaunching the enclave over the
//! same stores (for the `WalStore`, over its reopened directory), and
//! every file the request did not touch reads back exact. When the
//! failed write was the request's commit, the stores hold what they
//! held before the request (the audit trail aside, which records the
//! failure), and a retry is acked and reads back.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use seg_fs::Perm;
use seg_net::ChannelTransport;
use seg_proto::ErrorCode;
use seg_store::{FaultAction, FaultStore, MemStore, ObjectStore, WalStore};
use segshare::{wal_views, Client, EnclaveConfig, FsoSetup, SegShareError, SegShareServer};

/// The request kinds of the matrix.
#[derive(Debug, Clone, Copy)]
enum Op {
    Create,
    MkDir,
    Remove,
    FirstMembership,
    SetInherit,
}

const OPS: [Op; 5] = [
    Op::Create,
    Op::MkDir,
    Op::Remove,
    Op::FirstMembership,
    Op::SetInherit,
];

/// The files the set-up acks, with their bodies.
const FILES: [(&str, &[u8]); 4] = [
    ("/top", b"top"),
    ("/a/b/c/d/f", b"version f"),
    ("/a/b/c/d/g", b"version g"),
    ("/a/b/c/d/h", b"version h"),
];

impl Op {
    /// The acked file the request changes, if any.
    fn target(self) -> Option<&'static str> {
        match self {
            Op::Remove => Some("/a/b/c/d/g"),
            Op::SetInherit => Some("/a/b/c/d/h"),
            Op::Create | Op::MkDir | Op::FirstMembership => None,
        }
    }

    fn run(self, a: &mut Client<ChannelTransport>) -> Result<(), SegShareError> {
        match self {
            Op::Create => a.put("/a/b/c/d/new", b"new body"),
            Op::MkDir => a.mkdir("/a/b/c/d/e"),
            Op::Remove => a.remove("/a/b/c/d/g"),
            Op::FirstMembership => a.add_user("carol", "team"),
            Op::SetInherit => a.set_inherit("/a/b/c/d/h", true),
        }
    }
}

/// A launched server over the given content and group stores.
struct Rig {
    setup: FsoSetup,
    server: SegShareServer,
}

impl Rig {
    fn launch(cache: bool, content: Arc<dyn ObjectStore>, group: Arc<dyn ObjectStore>) -> Rig {
        Rig::launch_on(
            EnclaveConfig {
                cache,
                ..EnclaveConfig::default()
            },
            [content, group, Arc::new(MemStore::new())],
        )
    }

    fn launch_on(config: EnclaveConfig, stores: [Arc<dyn ObjectStore>; 3]) -> Rig {
        let [content, group, dedup] = stores;
        let setup = FsoSetup::with_stores(
            "ca",
            config,
            seg_sgx::Platform::new_with_seed(470),
            content,
            group,
            dedup,
        );
        let server = setup.server().unwrap();
        Rig { setup, server }
    }

    fn connect(&self, user: &str) -> Client<ChannelTransport> {
        let enrolled = self
            .setup
            .enroll_user(user, &format!("{user}@x"), user)
            .unwrap();
        self.server.connect_local(&enrolled).unwrap()
    }

    /// The tree every request of the matrix starts from: `/a/b/c/d/`
    /// with three files, one more at the root, a group `team` that
    /// `bob` is in and that may read `f`, and `~bob` granted read on
    /// `d` (which `h` inherits once its flag is set).
    fn set_up(&self) {
        let mut a = self.connect("alice");
        for dir in ["/a", "/a/b", "/a/b/c", "/a/b/c/d"] {
            a.mkdir(dir).unwrap();
        }
        for (path, body) in FILES {
            a.put(path, body).unwrap();
        }
        a.add_user("alice", "team").unwrap();
        a.add_user("bob", "team").unwrap();
        a.set_perm("/a/b/c/d/f", "team", Perm::Read).unwrap();
        a.set_perm("/a/b/c/d/", "~bob", Perm::Read).unwrap();
    }

    /// Relaunches the enclave over the same stores.
    fn relaunch(self) -> Rig {
        let Rig { setup, server } = self;
        drop(server);
        let server = setup.server().unwrap();
        Rig { setup, server }
    }

    /// Checks what the request did once it was acked.
    fn reads_back(&self, op: Op) {
        let mut a = self.connect("alice");
        match op {
            Op::Create => assert_eq!(a.get("/a/b/c/d/new").unwrap(), b"new body"),
            Op::MkDir => assert!(a.list("/a/b/c/d/e/").unwrap().is_empty()),
            Op::Remove => assert!(is_code(&a.get("/a/b/c/d/g"), ErrorCode::NotFound)),
            Op::FirstMembership => {
                assert_eq!(
                    self.connect("carol").get("/a/b/c/d/f").unwrap(),
                    b"version f"
                );
            }
            Op::SetInherit => {
                assert_eq!(self.connect("bob").get("/a/b/c/d/h").unwrap(), b"version h");
            }
        }
    }

    /// No acked file reads `IntegrityViolation`, and every one `op` did
    /// not touch reads back exact.
    fn acked_files_read_back(&self, op: Op, what: &str) {
        let mut a = self.connect("alice");
        for (path, body) in FILES {
            let read = a.get(path);
            assert!(
                !is_code(&read, ErrorCode::IntegrityViolation),
                "{what}: {path} reads {read:?}"
            );
            if op.target() != Some(path) {
                assert_eq!(read.unwrap(), body, "{what}: {path}");
            }
        }
    }
}

fn is_code<T>(result: &Result<T, SegShareError>, expected: ErrorCode) -> bool {
    matches!(result, Err(SegShareError::Request { code, .. }) if *code == expected)
}

/// Everything `store` holds but the audit trail's keys.
fn contents(store: &MemStore) -> HashMap<String, Arc<[u8]>> {
    let mut held = store.snapshot();
    held.retain(|key, _| !key.starts_with("!audit-"));
    held
}

/// How many writes the set-up makes to (content, group), and `op` after it.
fn dry_run(cache: bool, op: Op) -> ([u64; 2], [u64; 2]) {
    let stores = [(); 2].map(|()| {
        Arc::new(FaultStore::new(
            MemStore::new(),
            FaultAction::FailWrite,
            u64::MAX,
        ))
    });
    let [content, group] = stores.clone().map(|s| s as Arc<dyn ObjectStore>);
    let rig = Rig::launch(cache, content, group);
    rig.set_up();
    let setup = stores.each_ref().map(|s| s.writes());
    op.run(&mut rig.connect("alice")).unwrap();
    let request = [0, 1].map(|i| stores[i].writes() - setup[i]);
    (setup, request)
}

#[test]
fn one_failed_store_write_leaves_no_trace() {
    for cache in [false, true] {
        for op in OPS {
            let (setup, request) = dry_run(cache, op);
            for (store, writes) in request.into_iter().enumerate() {
                for failing in 1..=writes {
                    let what = format!(
                        "{op:?}, cache {cache}: write {failing} of {writes} to the {} store",
                        ["content", "group"][store]
                    );
                    let mems = [(); 2].map(|()| Arc::new(MemStore::new()));
                    let [content, group] = [0, 1].map(|i| {
                        let n = if i == store {
                            setup[i] + failing
                        } else {
                            u64::MAX
                        };
                        let mem = Arc::clone(&mems[i]);
                        Arc::new(FaultStore::new(mem, FaultAction::FailWrite, n))
                            as Arc<dyn ObjectStore>
                    });
                    let rig = Rig::launch(cache, content, group);
                    rig.set_up();
                    let before = mems.each_ref().map(|m| contents(m));
                    assert!(op.run(&mut rig.connect("alice")).is_err(), "{what}: acked");
                    // The audit append is a request's last write, to the
                    // content store; every other write is its commit.
                    let commit_failed = !(store == 0 && failing == writes);
                    if commit_failed {
                        let after = mems.each_ref().map(|m| contents(m));
                        assert!(after == before, "{what}: the stores changed");
                    }
                    rig.acked_files_read_back(op, &format!("{what}, warm"));
                    let rig = rig.relaunch();
                    rig.acked_files_read_back(op, &format!("{what}, relaunched"));
                    if commit_failed {
                        op.run(&mut rig.connect("alice"))
                            .unwrap_or_else(|e| panic!("{what}: retry refused: {e:?}"));
                        rig.reads_back(op);
                    }
                }
            }
        }
    }
}

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("seg-fault-matrix-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A batched server over the views of one `WalStore` in `dir`, the
/// content and group views behind `FailWrite` at their `fail_at`-th
/// write (`u64::MAX`: never).
struct WalRig {
    dir: PathBuf,
    wal: Arc<WalStore>,
    faults: [Arc<FaultStore<Arc<dyn ObjectStore>>>; 2],
    rig: Rig,
}

impl WalRig {
    fn launch(cache: bool, dir: PathBuf, fail_at: [u64; 2]) -> WalRig {
        let wal = Arc::new(WalStore::open(&dir).unwrap());
        let (content, group, dedup) = wal_views(&wal);
        let faults = [(content, fail_at[0]), (group, fail_at[1])]
            .map(|(view, n)| Arc::new(FaultStore::new(view, FaultAction::FailWrite, n)));
        let [content, group] = faults
            .each_ref()
            .map(|fault| Arc::clone(fault) as Arc<dyn ObjectStore>);
        let config = EnclaveConfig {
            cache,
            batch: true,
            ..EnclaveConfig::default()
        };
        let rig = Rig::launch_on(config, [content, group, dedup]);
        WalRig {
            dir,
            wal,
            faults,
            rig,
        }
    }

    /// Writes each faulted view has counted.
    fn writes(&self) -> [u64; 2] {
        self.faults.each_ref().map(|fault| fault.writes())
    }

    /// Drops the server and the store, reopens the directory and
    /// relaunches the enclave over its views, with no fault.
    fn reopen(self) -> (Rig, Arc<WalStore>) {
        let WalRig {
            dir,
            wal,
            faults,
            rig,
        } = self;
        let Rig { mut setup, server } = rig;
        drop(server);
        setup.set_stores(
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        );
        drop((faults, wal));
        let wal = Arc::new(WalStore::open(&dir).unwrap());
        let (content, group, dedup) = wal_views(&wal);
        setup.set_stores(content, group, dedup);
        let server = setup.server().unwrap();
        (Rig { setup, server }, wal)
    }
}

/// Everything `wal` has logged but the audit trail's keys.
fn logged(wal: &WalStore) -> HashMap<String, Arc<[u8]>> {
    wal.list()
        .unwrap()
        .into_iter()
        .filter(|key| {
            !key.strip_prefix("c/")
                .is_some_and(|k| k.starts_with("!audit-"))
        })
        .map(|key| {
            let value = wal.get_arc(&key).unwrap().unwrap();
            (key, value)
        })
        .collect()
}

#[test]
fn one_failed_store_write_on_a_wal_store_leaves_no_trace() {
    for cache in [false, true] {
        for op in OPS {
            let dry = WalRig::launch(cache, tempdir("dry"), [u64::MAX; 2]);
            dry.rig.set_up();
            let setup = dry.writes();
            op.run(&mut dry.rig.connect("alice")).unwrap();
            let request = [0, 1].map(|i| dry.writes()[i] - setup[i]);
            let dir = dry.dir.clone();
            drop(dry);
            let _ = std::fs::remove_dir_all(dir);
            for (store, writes) in request.into_iter().enumerate() {
                for failing in 1..=writes {
                    let what = format!(
                        "WalStore, {op:?}, cache {cache}: write {failing} of {writes} to the {} view",
                        ["content", "group"][store]
                    );
                    let fail_at = [0, 1].map(|i| {
                        if i == store {
                            setup[i] + failing
                        } else {
                            u64::MAX
                        }
                    });
                    let dir = tempdir("case");
                    let rig = WalRig::launch(cache, dir.clone(), fail_at);
                    rig.rig.set_up();
                    let before = logged(&rig.wal);
                    assert!(
                        op.run(&mut rig.rig.connect("alice")).is_err(),
                        "{what}: acked"
                    );
                    // As on `MemStore`, the audit append is the request's
                    // last write, to the content view.
                    let commit_failed = !(store == 0 && failing == writes);
                    if commit_failed {
                        assert!(logged(&rig.wal) == before, "{what}: the log changed");
                    }
                    rig.rig.acked_files_read_back(op, &format!("{what}, warm"));
                    let warm = logged(&rig.wal);
                    let (rig, wal) = rig.reopen();
                    assert!(logged(&wal) == warm, "{what}: the reopened log differs");
                    rig.acked_files_read_back(op, &format!("{what}, reopened"));
                    if commit_failed {
                        op.run(&mut rig.connect("alice"))
                            .unwrap_or_else(|e| panic!("{what}: retry refused: {e:?}"));
                        rig.reads_back(op);
                    }
                    drop((rig, wal));
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }
}
