//! One failed store write leaves no trace. Each request kind below runs
//! at depth 5 (`/a/b/c/d/…`), with the cache on and off, over `MemStore`s
//! behind `FaultStore::FailWrite`, and each of the request's store writes
//! fails in turn. After every failure no acked file reads
//! `IntegrityViolation`, warm or after relaunching the enclave over the
//! same stores, and every file the request did not touch reads back
//! exact. When the failed write was the request's commit, the stores
//! hold what they held before the request (the audit trail aside, which
//! records the failure), and a retry is acked and reads back.

use std::collections::HashMap;
use std::sync::Arc;

use seg_fs::Perm;
use seg_net::ChannelTransport;
use seg_proto::ErrorCode;
use seg_store::{CountingStore, FaultAction, FaultStore, MemStore, ObjectStore};
use segshare::{Client, EnclaveConfig, FsoSetup, SegShareError, SegShareServer};

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
        let setup = FsoSetup::with_stores(
            "ca",
            EnclaveConfig {
                cache,
                ..EnclaveConfig::default()
            },
            seg_sgx::Platform::new_with_seed(470),
            content,
            group,
            Arc::new(MemStore::new()),
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

/// Write calls so far: batches, and single puts, deletes and renames.
fn write_calls(store: &CountingStore<MemStore>) -> u64 {
    let s = store.stats();
    s.batches + s.puts + s.deletes + s.renames - s.batch_ops
}

/// Everything `store` holds but the audit trail's keys.
fn contents(store: &MemStore) -> HashMap<String, Arc<[u8]>> {
    let mut held = store.snapshot();
    held.retain(|key, _| !key.starts_with("!audit-"));
    held
}

/// How many writes the set-up makes to (content, group), and `op` after it.
fn dry_run(cache: bool, op: Op) -> ([u64; 2], [u64; 2]) {
    let stores = [(); 2].map(|()| Arc::new(CountingStore::new(MemStore::new())));
    let [content, group] = stores.clone().map(|s| s as Arc<dyn ObjectStore>);
    let rig = Rig::launch(cache, content, group);
    rig.set_up();
    let setup = stores.each_ref().map(|s| write_calls(s));
    op.run(&mut rig.connect("alice")).unwrap();
    let request = [0, 1].map(|i| write_calls(&stores[i]) - setup[i]);
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
