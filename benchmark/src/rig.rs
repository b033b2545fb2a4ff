//! Deployment plumbing: the `examples/tcp_server` configuration behind a
//! loopback listener, user enrolment, the preload, and temp directories
//! that disappear on every exit path.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use seg_fs::Perm;
use seg_net::TcpTransport;
use seg_sgx::Platform;
use seg_store::{IoStats, MemStore, ObjectStore, WalConfig, WalStore};
use segshare::server::EnrolledUser;
use segshare::{wal_views, Client, EnclaveConfig, FsoSetup, SegShareServer};

use crate::gen::{self, Kind, Spec};
use crate::trace::{TimedStore, Tracer};

pub type Res<T> = Result<T, String>;

/// Stringifies any error with the step that hit it.
pub fn ctx<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// `benchmark/out`: the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

/// A directory under `benchmark/out`, removed on drop — which covers
/// failures too, because errors unwind to `main` instead of exiting.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Res<TempDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{tag}-{}-{n}", std::process::id()));
        ctx("create temp dir", std::fs::create_dir_all(&path))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of every file in the directory (WAL segments + checkpoints).
    pub fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The benchmark's own handles on the untrusted stores (the enclave
/// does not hand them out): sizes and durability counters.
#[derive(Clone)]
pub struct Stores(Vec<Arc<dyn ObjectStore>>);

impl Stores {
    pub fn total_bytes(&self) -> Res<u64> {
        let mut total = 0;
        for s in &self.0 {
            total += ctx("total_bytes", s.total_bytes())?;
        }
        Ok(total)
    }

    /// Durability counters (zeros on the in-memory stores).
    pub fn io_stats(&self) -> IoStats {
        self.0[0].io_stats()
    }
}

/// The server configuration of `examples/tcp_server`.
fn config(spec: &Spec) -> EnclaveConfig {
    EnclaveConfig {
        cache: true,
        batch: spec.kind == Kind::Durable16k,
        ..EnclaveConfig::default()
    }
}

/// A launched, attested server on a loopback listener.
pub struct Launched {
    pub server: SegShareServer,
    pub setup: FsoSetup,
    pub addr: String,
    /// `None` when `new_wal_persistent` keeps the store to itself.
    pub stores: Option<Stores>,
}

/// Launches the server for `spec`. With a tracer every store sits
/// behind the timing decorator; without one no decorator is installed.
/// `wal_dir` is the durable workload's directory (a reopen recovers it).
pub fn launch(
    spec: &Spec,
    seed: u64,
    wal_dir: Option<&Path>,
    tracer: Option<&Arc<Tracer>>,
) -> Res<Launched> {
    let cfg = config(spec);
    let wrap = |s: Arc<dyn ObjectStore>| match tracer {
        Some(t) => TimedStore::wrap(s, t),
        None => s,
    };
    let (setup, stores) = match (wal_dir, tracer) {
        (None, _) => {
            let mem: Vec<Arc<dyn ObjectStore>> =
                (0..3).map(|_| Arc::new(MemStore::new()) as _).collect();
            let setup = FsoSetup::with_stores(
                "segbench-ca",
                cfg,
                Platform::new(),
                wrap(Arc::clone(&mem[0])),
                wrap(Arc::clone(&mem[1])),
                wrap(Arc::clone(&mem[2])),
            );
            (setup, Some(Stores(mem)))
        }
        (Some(dir), None) => (
            ctx(
                "open WAL deployment",
                FsoSetup::new_wal_persistent("segbench-ca", cfg, dir, seed),
            )?,
            None,
        ),
        (Some(dir), Some(_)) => {
            let wal = Arc::new(ctx(
                "open WAL",
                WalStore::open_with(dir, WalConfig::default()),
            )?);
            let (c, g, d) = wal_views(&wal);
            let setup = FsoSetup::with_stores(
                "segbench-ca",
                cfg,
                Platform::new(),
                wrap(c),
                wrap(g),
                wrap(d),
            );
            (setup, Some(Stores(vec![wal])))
        }
    };
    let server = ctx("launch + attest", setup.server())?;
    let listener = ctx("bind loopback", TcpListener::bind("127.0.0.1:0"))?;
    let addr = ctx("local_addr", listener.local_addr())?.to_string();
    ctx("serve_listener", server.serve_listener(listener))?;
    Ok(Launched {
        server,
        setup,
        addr,
        stores,
    })
}

impl Launched {
    pub fn enroll(&self, user: &str) -> Res<EnrolledUser> {
        ctx(
            "enroll",
            self.setup
                .enroll_user(user, &format!("{user}@segbench.example"), user),
        )
    }

    pub fn connect(&self, user: &EnrolledUser) -> Res<Client<TcpTransport>> {
        let transport = ctx("tcp connect", TcpTransport::connect(&self.addr))?;
        ctx("tls handshake", Client::connect(transport, user))
    }
}

/// Who a lane's admin ops act on.
pub struct Roles {
    /// The connecting user that owns the lane's files and group.
    pub owner: String,
    /// `share_cold` only: the connecting user whose reads are checked.
    pub member: Option<String>,
    pub group: String,
    /// The user `remove_user` / `add_user` toggle.
    pub toggled: String,
}

pub fn roles(spec: &Spec, lane: usize) -> Roles {
    if spec.kind == Kind::ShareCold {
        Roles {
            owner: "owner".to_string(),
            member: Some("member".to_string()),
            group: "readers".to_string(),
            toggled: "member".to_string(),
        }
    } else {
        Roles {
            owner: format!("user{lane}"),
            member: None,
            group: format!("team{lane}"),
            // One per lane: lanes never contend on one member list.
            toggled: format!("bystander{lane}"),
        }
    }
}

/// The preload's fixed op sequence for one lane: directories, version-1
/// bodies, the lane's group, and for `share_cold` the inherit chain, the
/// grant to `readers` at `/org`, and the member's other groups.
pub fn preload(spec: &Spec, seed: u64, lane: usize, owner: &mut Client<TcpTransport>) -> Res<()> {
    let r = roles(spec, lane);
    let share = spec.kind == Kind::ShareCold;
    for dir in spec.dir_paths(lane) {
        ctx("mkdir", owner.mkdir(&dir))?;
        if share && dir != "/org" {
            ctx(
                "set_inherit dir",
                owner.set_inherit(&format!("{dir}/"), true),
            )?;
        }
    }
    for f in 0..spec.files() {
        let path = spec.file_path(lane, f);
        ctx(
            "preload put",
            owner.put(&path, &gen::body(seed, &path, 1, spec.body_len)),
        )?;
        if share {
            ctx("set_inherit doc", owner.set_inherit(&path, true))?;
        }
    }
    ctx("create group", owner.add_user(&r.owner, &r.group))?;
    ctx("add toggled user", owner.add_user(&r.toggled, &r.group))?;
    if share {
        for i in 1..gen::READERS_MEMBERS {
            ctx(
                "fill readers",
                owner.add_user(&format!("reader{i:02}"), &r.group),
            )?;
        }
        for i in 1..gen::MEMBER_GROUPS {
            ctx(
                "member groups",
                owner.add_user(&r.toggled, &format!("club{i:02}")),
            )?;
        }
        ctx(
            "grant readers",
            owner.set_perm("/org/", &r.group, Perm::Read),
        )?;
    }
    Ok(())
}
