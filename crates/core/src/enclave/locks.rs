//! Fine-grained per-object locking for parallel request serving.
//!
//! The original prototype serialized every mutating request behind one
//! global `RwLock<()>`. This module replaces it with a [`LockManager`]:
//! a striped table of per-object reader/writer locks keyed by canonical
//! object identity, plus a "global mode" for operations
//! whose object set is unbounded (recursive moves, group deletion that
//! sweeps every member list, rollback-tree rebuilds after restore).
//!
//! # Lock keys
//!
//! A [`LockKey`] names a *logical* object, deliberately coarser than a
//! storage [`ObjectId`](super::names::ObjectId): one path key covers the
//! directory file, content file **and** ACL stored at that path, because
//! every operation that rewrites one of them also reads the others
//! (create = ACL write + dirfile write + parent-dirfile link; permission
//! change = ACL read-modify-write under the same path). Group state maps
//! to three key kinds: the group list, a per-user member list, and the
//! group-root registry.
//!
//! # Ordering invariants (deadlock freedom)
//!
//! Every acquisition follows one fixed order:
//!
//! 1. the **global** lock — `read` for per-object operations, `write`
//!    for global-mode operations (which therefore exclude everything);
//! 2. the **stripes** for the requested keys, deduplicated per stripe
//!    (write intent wins) and acquired in ascending stripe index;
//! 3. at most **one** internal tree lock inside
//!    [`TrustedStore`](super::trusted_store::TrustedStore) (never taken
//!    while another tree lock is held, except `rebuild_tree` which takes
//!    content before group).
//!
//! Locks are scoped to a single dispatched request frame: an upload's
//! header and its final commit each take their own scope, so no lock is
//! ever held while the enclave waits for network input.
//!
//! Two distinct keys may hash to the same stripe; that merely adds
//! contention, never incorrectness, and the ascending-index order keeps
//! multi-key acquisition cycle-free regardless of collisions.
//!
//! # Contention telemetry (seg-watch)
//!
//! Every acquisition is timed: wait time is recorded into per-key-class
//! × per-intent histograms (`seg_lock_wait_ns{class,intent}`), hold time
//! into `seg_lock_hold_ns{class,intent}` when the scope drops, and the
//! global lock's shared/exclusive waits into
//! `seg_lock_global_wait_ns{mode}` / `seg_lock_global_hold_ns`. Waits
//! are additionally charged to the phase profiler's simulated-time
//! channel (leaf `lock_wait`), so flamegraphs attribute contention
//! without perturbing the wall-clock invariant, and summed per stripe
//! for the contended-stripe top-K ([`LockManager::contended_stripes`]).
//! The recording cost is two clock reads plus a few relaxed atomic adds
//! per lock — always on, cheap enough for the hot path. Class labels
//! are compiled-in names (`path`, `group_root`, `group_list`, `member`);
//! no key *content* ever reaches a metric.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use seg_fs::{SegPath, UserId};
use seg_obs::{prof, Histogram, Registry};

/// Number of stripes in the per-object lock table. Collisions only cost
/// contention, so a few hundred stripes keep false sharing negligible
/// for realistic session counts while the table stays a few KiB.
pub const STRIPES: usize = 256;

/// Number of [`LockKey`] classes (path, group root, group list, member).
const CLASSES: usize = 4;

/// Compiled-in metric label per key class — indexable by
/// [`LockKey::class`].
const CLASS_LABELS: [&str; CLASSES] = ["path", "group_root", "group_list", "member"];

/// Compiled-in metric label per intent — indexable by `intent_index`.
const INTENT_LABELS: [&str; 2] = ["read", "write"];

fn intent_index(intent: LockIntent) -> usize {
    match intent {
        LockIntent::Read => 0,
        LockIntent::Write => 1,
    }
}

/// How a lock scope intends to use one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockIntent {
    /// Shared access: the object is read but not modified.
    Read,
    /// Exclusive access: the object (or an invariant spanning it) is
    /// modified.
    Write,
}

/// Canonical identity of one lockable logical object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockKey {
    /// Everything stored at one filesystem path: the directory file or
    /// content file plus its ACL. The string is the canonical path with
    /// the trailing directory slash stripped, so `/a/b` and `/a/b/`
    /// (file vs. directory of the same name) share one key — sibling
    /// kind-collision checks rely on that.
    Path(String),
    /// The registry of all group lists (`GroupRoot`).
    GroupRoot,
    /// The list of all groups (`GroupList`).
    GroupList,
    /// One user's member list (the set of groups they belong to).
    Member(String),
}

impl LockKey {
    /// The key covering all objects stored at `path`.
    #[must_use]
    pub fn path(path: &SegPath) -> LockKey {
        LockKey::Path(path.as_str().trim_end_matches('/').to_string())
    }

    /// The key for `user`'s member list.
    #[must_use]
    pub fn member(user: &UserId) -> LockKey {
        LockKey::Member(user.as_str().to_string())
    }

    /// Class index of this key, parallel to `CLASS_LABELS`.
    fn class(&self) -> usize {
        match self {
            LockKey::Path(_) => 0,
            LockKey::GroupRoot => 1,
            LockKey::GroupList => 2,
            LockKey::Member(_) => 3,
        }
    }

    /// Stable stripe index for this key (FNV-1a over a tagged
    /// serialization, reduced modulo the stripe count).
    fn stripe(&self) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            LockKey::Path(p) => {
                eat(b"p:");
                eat(p.as_bytes());
            }
            LockKey::GroupRoot => eat(b"gr:"),
            LockKey::GroupList => eat(b"gl:"),
            LockKey::Member(u) => {
                eat(b"m:");
                eat(u.as_bytes());
            }
        }
        (h % STRIPES as u64) as usize
    }
}

/// One requested lock: a key plus the intent on it. Scopes are built as
/// plain vectors of these; [`LockManager::acquire`] deduplicates and
/// orders them.
pub type LockRequest = (LockKey, LockIntent);

enum GlobalGuard<'a> {
    Read(#[allow(dead_code)] RwLockReadGuard<'a, ()>),
    Write(#[allow(dead_code)] RwLockWriteGuard<'a, ()>),
}

enum StripeGuard<'a> {
    Read(#[allow(dead_code)] RwLockReadGuard<'a, ()>),
    Write(#[allow(dead_code)] RwLockWriteGuard<'a, ()>),
}

/// Cumulative wait attributed to one stripe, one row of the
/// contended-stripe top-K snapshot ([`LockManager::contended_stripes`]).
///
/// The stripe index is a hash-table position, not an object identity —
/// safe to export across the trust boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeContention {
    /// Stripe index in `0..STRIPES`.
    pub stripe: usize,
    /// Total nanoseconds scopes spent waiting for this stripe.
    pub wait_ns: u64,
    /// Number of acquisitions that touched this stripe.
    pub waits: u64,
}

/// Contention telemetry for the lock table. Histograms are interned in
/// the registry handed to [`LockManager::with_registry`], so they export
/// through the ordinary snapshot declassification point; the per-stripe
/// accumulators stay in-enclave until explicitly sampled.
struct LockStats {
    wait: [[Arc<Histogram>; 2]; CLASSES],
    hold: [[Arc<Histogram>; 2]; CLASSES],
    global_wait: [Arc<Histogram>; 2],
    global_hold: Arc<Histogram>,
    stripe_wait_ns: Vec<AtomicU64>,
    stripe_waits: Vec<AtomicU64>,
    /// Microsecond timestamp (relative to `epoch`, clamped ≥ 1) at
    /// which the current exclusive global hold began; 0 when free.
    /// Feeds the stall watchdog's global-lock budget.
    global_since_us: AtomicU64,
    epoch: Instant,
}

impl LockStats {
    fn new(obs: &Registry) -> LockStats {
        let h = |name: &'static str, class: usize, intent: usize| {
            obs.histogram_with(
                name,
                vec![
                    ("class", CLASS_LABELS[class]),
                    ("intent", INTENT_LABELS[intent]),
                ],
            )
        };
        LockStats {
            wait: std::array::from_fn(|c| std::array::from_fn(|i| h("seg_lock_wait_ns", c, i))),
            hold: std::array::from_fn(|c| std::array::from_fn(|i| h("seg_lock_hold_ns", c, i))),
            global_wait: [
                obs.histogram_with("seg_lock_global_wait_ns", vec![("mode", "shared")]),
                obs.histogram_with("seg_lock_global_wait_ns", vec![("mode", "exclusive")]),
            ],
            global_hold: obs.histogram("seg_lock_global_hold_ns"),
            stripe_wait_ns: (0..STRIPES).map(|_| AtomicU64::new(0)).collect(),
            stripe_waits: (0..STRIPES).map(|_| AtomicU64::new(0)).collect(),
            global_since_us: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    fn note_global_wait(&self, exclusive: bool, waited: Duration) {
        let ns = waited.as_nanos().min(u64::MAX as u128) as u64;
        self.global_wait[usize::from(exclusive)].record(ns);
        prof::charge("lock_wait", ns);
    }

    fn note_stripe_wait(&self, idx: usize, class: usize, intent: LockIntent, waited: Duration) {
        let ns = waited.as_nanos().min(u64::MAX as u128) as u64;
        self.wait[class][intent_index(intent)].record(ns);
        self.stripe_wait_ns[idx].fetch_add(ns, Ordering::Relaxed);
        self.stripe_waits[idx].fetch_add(1, Ordering::Relaxed);
        prof::charge("lock_wait", ns);
    }

    fn note_global_held(&self) {
        self.global_since_us
            .store(self.now_us().max(1), Ordering::Release);
    }
}

/// A held set of locks; releasing is dropping. The guard order inside is
/// the acquisition order (global first, stripes ascending), and Rust
/// drops fields in declaration order, which is safe for locks in any
/// order. Dropping also records the scope's hold time into the
/// per-class hold histograms (while the guards are still held, so the
/// measurement never undercounts).
pub struct LockScope<'a> {
    _global: GlobalGuard<'a>,
    _stripes: Vec<StripeGuard<'a>>,
    stats: &'a LockStats,
    acquired: Instant,
    /// Per class: 0 = not held, 1 = read, 2 = write.
    held: [u8; CLASSES],
    global_exclusive: bool,
}

impl Drop for LockScope<'_> {
    fn drop(&mut self) {
        let held_for = self.acquired.elapsed();
        for (class, &rank) in self.held.iter().enumerate() {
            if rank > 0 {
                self.stats.hold[class][usize::from(rank) - 1].record_duration(held_for);
            }
        }
        if self.global_exclusive {
            self.stats.global_hold.record_duration(held_for);
            self.stats.global_since_us.store(0, Ordering::Release);
            // The holder's own record carries the hold, so the stall
            // watchdog can weigh it when that record closes.
            prof::charge(
                "global_hold",
                held_for.as_nanos().min(u64::MAX as u128) as u64,
            );
        }
    }
}

/// The enclave's lock table: one global reader/writer lock ordering
/// per-object scopes against global-mode operations, plus [`STRIPES`]
/// per-object stripes.
pub struct LockManager {
    global: RwLock<()>,
    stripes: Vec<RwLock<()>>,
    stats: LockStats,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl LockManager {
    /// Creates a lock manager whose contention
    /// histograms are interned in a private registry (they still record,
    /// but export nowhere). Production code uses
    /// [`LockManager::with_registry`] so the metrics reach the enclave's
    /// snapshot.
    #[must_use]
    pub fn new() -> LockManager {
        LockManager::with_registry(&Registry::new())
    }

    /// Creates a lock manager whose wait/hold histograms are registered
    /// in `obs` (families `seg_lock_wait_ns`, `seg_lock_hold_ns`,
    /// `seg_lock_global_wait_ns`, `seg_lock_global_hold_ns`). All
    /// series are pre-interned so the families export consistently even
    /// before the first acquisition.
    #[must_use]
    pub fn with_registry(obs: &Registry) -> LockManager {
        LockManager {
            global: RwLock::new(()),
            stripes: (0..STRIPES).map(|_| RwLock::new(())).collect(),
            stats: LockStats::new(obs),
        }
    }

    /// Acquires a per-object scope: the global lock shared, then the
    /// requested stripes in ascending index order with per-stripe
    /// deduplication (write intent wins over read when both map to the
    /// same stripe).
    #[must_use]
    pub fn acquire(&self, requests: &[LockRequest]) -> LockScope<'_> {
        let mut held = [0u8; CLASSES];
        for (key, intent) in requests {
            let rank = 1 + intent_index(*intent) as u8;
            let class = key.class();
            held[class] = held[class].max(rank);
        }
        let waited = Instant::now();
        let global = GlobalGuard::Read(self.global.read());
        self.stats.note_global_wait(false, waited.elapsed());
        // Dedup-merge: one entry per stripe index, write wins. The key
        // class rides along for wait attribution (on the rare cross-class
        // stripe collision the first-seen class is charged).
        let mut wanted: Vec<(usize, LockIntent, usize)> = Vec::with_capacity(requests.len());
        for (key, intent) in requests {
            let idx = key.stripe();
            match wanted.iter_mut().find(|(i, _, _)| *i == idx) {
                Some((_, existing, _)) => {
                    if *intent == LockIntent::Write {
                        *existing = LockIntent::Write;
                    }
                }
                None => wanted.push((idx, *intent, key.class())),
            }
        }
        wanted.sort_unstable_by_key(|(idx, _, _)| *idx);
        let stripes = wanted
            .into_iter()
            .map(|(idx, intent, class)| {
                let waited = Instant::now();
                let guard = match intent {
                    LockIntent::Read => StripeGuard::Read(self.stripes[idx].read()),
                    LockIntent::Write => StripeGuard::Write(self.stripes[idx].write()),
                };
                self.stats
                    .note_stripe_wait(idx, class, intent, waited.elapsed());
                guard
            })
            .collect();
        LockScope {
            _global: global,
            _stripes: stripes,
            stats: &self.stats,
            acquired: Instant::now(),
            held,
            global_exclusive: false,
        }
    }

    /// Acquires the global-mode scope: the global lock exclusive, which
    /// excludes every per-object scope (they all hold it shared).
    /// Reserved for operations whose object set is unbounded:
    /// `Move` (recursive directory re-encryption), `DeleteGroup` (sweeps
    /// all member lists), and rollback-tree rebuild after restore.
    #[must_use]
    pub fn acquire_global(&self) -> LockScope<'_> {
        let waited = Instant::now();
        let global = GlobalGuard::Write(self.global.write());
        self.stats.note_global_wait(true, waited.elapsed());
        self.stats.note_global_held();
        LockScope {
            _global: global,
            _stripes: Vec::new(),
            stats: &self.stats,
            acquired: Instant::now(),
            held: [0u8; CLASSES],
            global_exclusive: true,
        }
    }

    /// The live exclusive hold of the global lock as `(start stamp,
    /// microseconds held so far)`, `None` when not exclusively held.
    /// Polled by the stall watchdog from the history tick; the stamp
    /// tells one hold from the next.
    #[must_use]
    pub fn global_hold(&self) -> Option<(u64, u64)> {
        let since = self.stats.global_since_us.load(Ordering::Acquire);
        (since != 0).then(|| (since, self.stats.now_us().saturating_sub(since).max(1)))
    }

    /// Microseconds the global lock has been held *exclusively* by the
    /// current holder (0 when not exclusively held): the
    /// `seg_lock_global_held_us` gauge.
    #[must_use]
    pub fn global_held_us(&self) -> u64 {
        self.global_hold().map_or(0, |(_, held_us)| held_us)
    }

    /// The `k` stripes with the most cumulative wait time, descending.
    /// Stripes that never made anyone wait are omitted, so an idle
    /// system reports an empty list.
    #[must_use]
    pub fn contended_stripes(&self, k: usize) -> Vec<StripeContention> {
        let mut rows: Vec<StripeContention> = (0..STRIPES)
            .filter_map(|i| {
                let wait_ns = self.stats.stripe_wait_ns[i].load(Ordering::Relaxed);
                if wait_ns == 0 {
                    return None;
                }
                Some(StripeContention {
                    stripe: i,
                    wait_ns,
                    waits: self.stats.stripe_waits[i].load(Ordering::Relaxed),
                })
            })
            .collect();
        rows.sort_unstable_by_key(|r| std::cmp::Reverse(r.wait_ns));
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn key_path(s: &str) -> LockKey {
        LockKey::path(&SegPath::parse(s).unwrap())
    }

    #[test]
    fn path_keys_ignore_trailing_slash() {
        assert_eq!(key_path("/a/b"), key_path("/a/b/"));
        assert_ne!(key_path("/a/b"), key_path("/a/c"));
        assert_eq!(key_path("/"), LockKey::Path(String::new()));
    }

    #[test]
    fn acquire_same_key_twice_does_not_self_deadlock() {
        let mgr = LockManager::new();
        let scope = mgr.acquire(&[
            (key_path("/x"), LockIntent::Write),
            (key_path("/x"), LockIntent::Write),
            (key_path("/x/"), LockIntent::Read),
        ]);
        drop(scope);
    }

    #[test]
    fn write_intent_wins_on_stripe_merge() {
        let mgr = Arc::new(LockManager::new());
        // Read then write on the same key must still produce an
        // exclusive stripe hold: a concurrent writer on the same key
        // must block until the scope drops.
        let scope = mgr.acquire(&[
            (LockKey::GroupList, LockIntent::Read),
            (LockKey::GroupList, LockIntent::Write),
        ]);
        // Verify exclusivity via a helper thread that records progress.
        let reached = Arc::new(AtomicUsize::new(0));
        let t = {
            let mgr: Arc<LockManager> = Arc::clone(&mgr);
            let reached = Arc::clone(&reached);
            std::thread::spawn(move || {
                let _s = mgr.acquire(&[(LockKey::GroupList, LockIntent::Read)]);
                reached.store(1, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(reached.load(Ordering::SeqCst), 0, "reader blocked");
        drop(scope);
        t.join().unwrap();
        assert_eq!(reached.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn disjoint_keys_do_not_block_each_other() {
        let mgr = Arc::new(LockManager::new());
        // Hold /a exclusively; /b (different stripe with overwhelming
        // probability — assert it) must be acquirable concurrently.
        let (a, b) = (key_path("/a"), key_path("/b"));
        if a.stripe() == b.stripe() {
            return; // astronomically unlikely; skip rather than flake
        }
        let held = mgr.acquire(&[(a, LockIntent::Write)]);
        let t = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                let _s = mgr.acquire(&[(b, LockIntent::Write)]);
            })
        };
        t.join().unwrap(); // completes while `held` is still alive
        drop(held);
    }

    #[test]
    fn global_mode_excludes_per_object_scopes() {
        let mgr = Arc::new(LockManager::new());
        let global = mgr.acquire_global();
        let reached = Arc::new(AtomicUsize::new(0));
        let t = {
            let mgr = Arc::clone(&mgr);
            let reached = Arc::clone(&reached);
            std::thread::spawn(move || {
                let _s = mgr.acquire(&[(key_path("/x"), LockIntent::Read)]);
                reached.store(1, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(reached.load(Ordering::SeqCst), 0, "blocked by global");
        drop(global);
        t.join().unwrap();
        assert_eq!(reached.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn interleaved_multi_key_scopes_do_not_deadlock() {
        // Hammer opposite acquisition *request* orders from many
        // threads; sorted acquisition must keep this deadlock-free.
        let mgr = Arc::new(LockManager::new());
        let keys: Vec<LockKey> = (0..8).map(|i| key_path(&format!("/k{i}"))).collect();
        let mut handles = Vec::new();
        for t in 0..8usize {
            let mgr = Arc::clone(&mgr);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200usize {
                    let a = keys[(t + round) % keys.len()].clone();
                    let b = keys[(t + round + 3) % keys.len()].clone();
                    let scope = if round % 2 == 0 {
                        mgr.acquire(&[(a, LockIntent::Write), (b, LockIntent::Read)])
                    } else {
                        mgr.acquire(&[(b, LockIntent::Write), (a, LockIntent::Write)])
                    };
                    drop(scope);
                    if round % 50 == 0 {
                        drop(mgr.acquire_global());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn waits_are_attributed_to_the_contended_class() {
        let obs = Arc::new(Registry::new());
        let mgr = Arc::new(LockManager::with_registry(&obs));
        let held = mgr.acquire(&[(LockKey::GroupList, LockIntent::Write)]);
        let t = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                let _s = mgr.acquire(&[(LockKey::GroupList, LockIntent::Read)]);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(held);
        t.join().unwrap();
        let snap = obs.snapshot();
        let wait = snap
            .histogram("seg_lock_wait_ns{class=\"group_list\",intent=\"read\"}")
            .expect("wait histogram");
        assert!(wait.count >= 1);
        assert!(
            wait.sum >= 20_000_000,
            "blocked reader waited ~30ms, saw {} ns",
            wait.sum
        );
        // The uncontested path class saw no comparable wait.
        let other = snap
            .histogram("seg_lock_wait_ns{class=\"path\",intent=\"write\"}")
            .expect("pre-interned family");
        assert_eq!(other.count, 0);
        // The stripe top-K surfaces the same contention.
        let top = mgr.contended_stripes(3);
        assert!(!top.is_empty());
        assert!(top[0].wait_ns >= 20_000_000);
    }

    #[test]
    fn hold_times_are_recorded_on_scope_drop() {
        let obs = Registry::new();
        let mgr = LockManager::with_registry(&obs);
        let scope = mgr.acquire(&[(key_path("/h"), LockIntent::Write)]);
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(scope);
        let snap = obs.snapshot();
        let hold = snap
            .histogram("seg_lock_hold_ns{class=\"path\",intent=\"write\"}")
            .expect("hold histogram");
        assert_eq!(hold.count, 1);
        assert!(hold.sum >= 5_000_000, "held ~10ms, saw {} ns", hold.sum);
    }

    #[test]
    fn global_exclusive_hold_is_visible_to_the_watchdog() {
        let mgr = LockManager::new();
        assert_eq!(mgr.global_held_us(), 0);
        let scope = mgr.acquire_global();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(mgr.global_held_us() >= 1_000, "exclusive hold is visible");
        drop(scope);
        assert_eq!(mgr.global_held_us(), 0);
        // Shared holds do not arm the budget clock.
        let shared = mgr.acquire(&[(key_path("/x"), LockIntent::Read)]);
        assert_eq!(mgr.global_held_us(), 0);
        drop(shared);
    }

    #[test]
    fn idle_manager_reports_no_contended_stripes() {
        let mgr = LockManager::new();
        drop(mgr.acquire(&[(key_path("/quick"), LockIntent::Write)]));
        // An uncontended acquisition still waits a few ns for the clock
        // reads, so the list may contain the touched stripe — but a
        // truly untouched manager must be empty.
        let fresh = LockManager::new();
        assert!(fresh.contended_stripes(10).is_empty());
    }
}
