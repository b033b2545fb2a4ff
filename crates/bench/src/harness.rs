//! Shared plumbing of the sections: timing, the one rig, the session mix.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use seg_net::simwan::WanProfile;
use seg_store::{MemStore, ObjectStore, StoreError};
use segshare::{Client, EnclaveConfig, EnrolledUser, FsoSetup, SegShareServer};

/// Mean and spread of repeated measurements.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Mean seconds (warm-up excluded).
    pub mean_s: f64,
    /// Sample standard deviation in seconds.
    pub sd_s: f64,
    /// Number of runs (excluding warm-up).
    pub runs: usize,
    /// The discarded warm-up iteration's own time in seconds —
    /// reported separately so it can be inspected, never mixed into
    /// `mean_s`/`sd_s`.
    pub warmup_s: f64,
}

impl Measured {
    /// Half-width of the 95 % confidence interval (normal
    /// approximation, matching the paper's error bars).
    #[must_use]
    pub fn ci95_s(&self) -> f64 {
        if self.runs < 2 {
            return 0.0;
        }
        1.96 * self.sd_s / (self.runs as f64).sqrt()
    }
}

/// Times `runs` executions of `f`, after one warm-up iteration that is
/// timed but *discarded* (reported as [`Measured::warmup_s`]) — cold
/// caches, lazy initialization, and first-touch page faults land there
/// instead of skewing the mean.
pub fn measure<F: FnMut()>(runs: usize, mut f: F) -> Measured {
    measure_with(runs, || {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    })
}

/// Like [`measure`], for workloads that time themselves: `f` returns
/// the seconds of its own measured window (setup such as handshakes
/// stays outside it).
pub fn measure_with<F: FnMut() -> f64>(runs: usize, mut f: F) -> Measured {
    let warmup_s = f(); // warm-up: timed, excluded from the samples
    let samples: Vec<f64> = (0..runs).map(|_| f()).collect();
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
    } else {
        0.0
    };
    Measured {
        mean_s: mean,
        sd_s: var.sqrt(),
        runs,
        warmup_s,
    }
}

/// An [`ObjectStore`] wrapper that sleeps before every backend
/// round-trip, modeling the paper's deployment where the enclave talks
/// to a *remote* store (§VI runs against Azure blob storage across
/// regions). In-memory stores answer in nanoseconds, which hides the
/// one effect fine-grained locking exists to exploit: store latency
/// under one object's lock can overlap store latency under another's.
/// The concurrency section uses this wrapper so the
/// scaling curve measures lock overlap, not host core count — threads
/// blocked in simulated store I/O release the CPU, so the curve is
/// meaningful even on a single-core CI runner.
pub struct LatencyStore {
    inner: MemStore,
    delay: Duration,
}

impl LatencyStore {
    /// Wraps a fresh [`MemStore`] adding `delay` per get/put/delete/
    /// exists round-trip. Listing (used by restart recovery, not the
    /// request path) is left fast so setup stays cheap.
    #[must_use]
    pub fn new(delay: Duration) -> LatencyStore {
        LatencyStore {
            inner: MemStore::new(),
            delay,
        }
    }

    fn roundtrip(&self) {
        std::thread::sleep(self.delay);
    }
}

impl ObjectStore for LatencyStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.roundtrip();
        self.inner.get(key)
    }
    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.roundtrip();
        self.inner.get_arc(key)
    }
    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.roundtrip();
        self.inner.put(key, value)
    }
    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.roundtrip();
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        self.roundtrip();
        self.inner.exists(key)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }
}

/// A ready-to-use deployment: server plus an enrolled user.
pub struct Rig {
    /// The setup context (CA, stores, platform).
    pub setup: FsoSetup,
    /// The running server.
    pub server: SegShareServer,
    /// An enrolled user.
    pub alice: EnrolledUser,
}

impl Rig {
    /// A deployment over whatever stores `setup` was handed: in-memory
    /// ones, a write-ahead log ([`FsoSetup::new_wal_with`]), handles the
    /// section keeps to count stored bytes, or [`slow_stores`].
    #[must_use]
    pub fn over(setup: FsoSetup) -> Rig {
        let server = setup.server().expect("setup succeeds");
        let alice = setup
            .enroll_user("alice", "alice@bench", "Alice")
            .expect("enroll succeeds");
        Rig {
            setup,
            server,
            alice,
        }
    }

    /// [`Rig::over`] fresh in-memory stores.
    #[must_use]
    pub fn new(config: EnclaveConfig) -> Rig {
        Rig::over(FsoSetup::new_in_memory("bench-ca", config))
    }

    /// Reactor sizing for latency-bound rigs: the [`LatencyStore`] /
    /// simulated-fsync workloads spend their time waiting on the store,
    /// not on enclave CPU, so the worker pool must cover the benchmark's
    /// session fan-out (up to 8 concurrent sessions) or the pool itself
    /// becomes the bottleneck under measurement. Operational deployments
    /// with slow backends should size `workers` the same way (see
    /// OPERATIONS.md).
    #[must_use]
    pub fn latency_bound(self) -> Rig {
        self.server
            .set_reactor_config(seg_net::reactor::ReactorConfig {
                workers: 16,
                ..seg_net::reactor::ReactorConfig::default()
            });
        self
    }

    /// Connects a fresh client session for `alice`.
    #[must_use]
    pub fn client(&self) -> Session {
        self.server
            .connect_local(&self.alice)
            .expect("local connect succeeds")
    }
}

/// A setup whose three stores each add `delay` per round-trip (see
/// [`LatencyStore`]) — for the concurrency scaling workloads.
#[must_use]
pub fn slow_stores(config: EnclaveConfig, delay: Duration) -> FsoSetup {
    let store = || Arc::new(LatencyStore::new(delay));
    FsoSetup::with_stores(
        "bench-ca",
        config,
        seg_sgx::Platform::new(),
        store(),
        store(),
        store(),
    )
}

/// `bytes` of the position-dependent pattern every workload uploads.
#[must_use]
pub fn payload(bytes: usize) -> Vec<u8> {
    (0..bytes).map(|i| (i % 251) as u8).collect()
}

/// A client session of [`Rig::alice`].
pub type Session = Client<seg_net::ChannelTransport>;

/// One fresh session per entry of `dirs`, each directory created by the
/// first session that names it (sessions may share one).
#[must_use]
pub fn sessions(rig: &Rig, dirs: Vec<String>) -> Vec<(Session, String)> {
    let mut made: Vec<(Session, String)> = Vec::with_capacity(dirs.len());
    for dir in dirs {
        let mut client = rig.client();
        if !made.iter().any(|(_, d)| *d == dir) {
            client.mkdir(&dir).expect("mkdir");
        }
        made.push((client, dir));
    }
    made
}

/// Runs every session on a thread of its own, each calling
/// `op(client, dir, session, j)` for `j` in `0..ops` from a common
/// start, and returns the wall seconds until the last one finished —
/// handshakes and directory creation ([`sessions`]) stay outside the
/// timed window.
pub fn run_sessions(
    sessions: Vec<(Session, String)>,
    ops: usize,
    op: impl Fn(&mut Session, &str, usize, usize) + Sync,
) -> f64 {
    let barrier = Barrier::new(sessions.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(t, (mut client, dir))| {
                let (barrier, op) = (&barrier, &op);
                scope.spawn(move || {
                    barrier.wait();
                    (0..ops).for_each(|j| op(&mut client, &dir, t, j));
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().expect("session thread");
        }
        start.elapsed().as_secs_f64()
    })
}

/// [`run_sessions`] with the standard mix: 3:1 upload:download of 4 KiB
/// files. `shared_dir` selects the overlapping mix (every session
/// writes into one directory, so all scopes collide on the parent's
/// write lock) versus the disjoint mix (a private directory per
/// session); `round` keeps object names unique across repetitions.
pub fn run_session_mix(rig: &Rig, threads: usize, ops: usize, shared_dir: bool, round: u32) -> f64 {
    let payload = payload(4096);
    let dir = |t: usize| match shared_dir {
        true => format!("/shared{round}"),
        false => format!("/c{round}x{t}"),
    };
    let sessions = sessions(rig, (0..threads).map(dir).collect());
    run_sessions(sessions, ops, |client, dir, t, j| {
        if j % 4 == 3 {
            // Re-read a file this session already wrote.
            let back = format!("{dir}/t{t}f{}", j - 1);
            let got = client.get(&back).expect("download");
            assert_eq!(got.len(), payload.len());
        } else {
            let path = format!("{dir}/t{t}f{j}");
            client.put(&path, &payload).expect("upload");
        }
    })
}

/// The workspace root: where `results/`, `BENCH_perf.json` and
/// `BENCH_history.jsonl` live.
#[must_use]
pub fn repo_root() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("the workspace root exists")
}

/// The WAN used by every figure (the paper's two-region testbed).
#[must_use]
pub fn wan() -> WanProfile {
    WanProfile::azure_two_region()
}

/// Formats seconds as the paper does (s with two decimals, or ms).
#[must_use]
pub fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.2} ms", s * 1000.0)
    }
}
