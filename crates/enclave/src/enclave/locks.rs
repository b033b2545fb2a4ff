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
//! # Contention telemetry
//!
//! A lock wait is recorded once, in the record of the request that
//! waited: every acquisition's wait is charged to the phase profiler's
//! simulated-time channel (leaf `lock_wait`), so the request's record
//! carries it beside its `object` fingerprint and the profile sums it
//! per operation without perturbing the wall-clock invariant. An
//! exclusive global scope charges its hold to `global_hold` when it
//! drops. The one piece of state kept here is the start of the live
//! exclusive hold, which the stall watchdog polls
//! ([`LockManager::global_hold`]) and which exports as the
//! `seg_lock_global_held_us` gauge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use parking_lot::RwLock;

use seg_fs::{SegPath, UserId};
use seg_obs::{prof, Phase};

/// Number of stripes in the per-object lock table. Collisions only cost
/// contention, so a few hundred stripes keep false sharing negligible
/// for realistic session counts while the table stays a few KiB.
pub const STRIPES: usize = 256;

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

enum Guard<'a> {
    Read(#[allow(dead_code)] RwLockReadGuard<'a, ()>),
    Write(#[allow(dead_code)] RwLockWriteGuard<'a, ()>),
}

impl<'a> Guard<'a> {
    /// Takes `lock` with `intent`, charging the wait to the current
    /// request's `lock_wait` phase.
    fn take(lock: &'a RwLock<()>, intent: LockIntent) -> Guard<'a> {
        let start = Instant::now();
        let guard = match intent {
            LockIntent::Read => Guard::Read(lock.read()),
            LockIntent::Write => Guard::Write(lock.write()),
        };
        prof::charge(Phase::LockWait, elapsed_ns(start));
        guard
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// A held set of locks; releasing is dropping. The guard order inside is
/// the acquisition order (global first, stripes ascending), and Rust
/// drops fields in declaration order, which is safe for locks in any
/// order. Dropping an exclusive global scope ends the watchdog's hold
/// clock and charges the hold to the holder's `global_hold` phase (while
/// the guard is still held, so the measurement never undercounts).
pub struct LockScope<'a> {
    _global: Guard<'a>,
    _stripes: Vec<Guard<'a>>,
    /// For an exclusive global scope: its manager and when it took hold.
    exclusive: Option<(&'a LockManager, Instant)>,
}

impl Drop for LockScope<'_> {
    fn drop(&mut self) {
        if let Some((manager, acquired)) = self.exclusive {
            manager.global_since_us.store(0, Ordering::Release);
            // The holder's own record carries the hold, so the stall
            // watchdog can weigh it when that record closes.
            prof::charge(Phase::GlobalHold, elapsed_ns(acquired));
        }
    }
}

/// The enclave's lock table: one global reader/writer lock ordering
/// per-object scopes against global-mode operations, plus [`STRIPES`]
/// per-object stripes.
pub struct LockManager {
    global: RwLock<()>,
    stripes: Vec<RwLock<()>>,
    /// Microsecond timestamp (relative to `epoch`, clamped ≥ 1) at
    /// which the current exclusive global hold began; 0 when free.
    /// Feeds the stall watchdog's global-lock budget.
    global_since_us: AtomicU64,
    epoch: Instant,
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
    /// Creates an unlocked table.
    #[must_use]
    pub fn new() -> LockManager {
        LockManager {
            global: RwLock::new(()),
            stripes: (0..STRIPES).map(|_| RwLock::new(())).collect(),
            global_since_us: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Acquires a per-object scope: the global lock shared, then the
    /// requested stripes in ascending index order with per-stripe
    /// deduplication (write intent wins over read when both map to the
    /// same stripe).
    #[must_use]
    pub fn acquire(&self, requests: &[LockRequest]) -> LockScope<'_> {
        let global = Guard::take(&self.global, LockIntent::Read);
        let mut wanted: Vec<(usize, LockIntent)> = Vec::with_capacity(requests.len());
        for (key, intent) in requests {
            let idx = key.stripe();
            match wanted.iter_mut().find(|(i, _)| *i == idx) {
                Some((_, existing)) => {
                    if *intent == LockIntent::Write {
                        *existing = LockIntent::Write;
                    }
                }
                None => wanted.push((idx, *intent)),
            }
        }
        wanted.sort_unstable_by_key(|(idx, _)| *idx);
        LockScope {
            _global: global,
            _stripes: wanted
                .into_iter()
                .map(|(idx, intent)| Guard::take(&self.stripes[idx], intent))
                .collect(),
            exclusive: None,
        }
    }

    /// Acquires the global-mode scope: the global lock exclusive, which
    /// excludes every per-object scope (they all hold it shared).
    /// Reserved for operations whose object set is unbounded:
    /// `Move` (recursive directory re-encryption), `DeleteGroup` (sweeps
    /// all member lists), and rollback-tree rebuild after restore.
    #[must_use]
    pub fn acquire_global(&self) -> LockScope<'_> {
        let global = Guard::take(&self.global, LockIntent::Write);
        self.global_since_us
            .store(self.now_us().max(1), Ordering::Release);
        LockScope {
            _global: global,
            _stripes: Vec::new(),
            exclusive: Some((self, Instant::now())),
        }
    }

    /// The live exclusive hold of the global lock as `(start stamp,
    /// microseconds held so far)`, `None` when not exclusively held:
    /// the `seg_lock_global_held_us` gauge, and what the stall watchdog
    /// polls from the health runner's tick; the stamp tells one hold
    /// from the next.
    #[must_use]
    pub fn global_hold(&self) -> Option<(u64, u64)> {
        let since = self.global_since_us.load(Ordering::Acquire);
        (since != 0).then(|| (since, self.now_us().saturating_sub(since).max(1)))
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

    /// A sink that keeps the time its closed roots charged to one phase.
    struct Charged(Phase, AtomicU64);

    impl seg_obs::RecordSink for Charged {
        fn consume(&self, root: &seg_obs::ClosedRoot<'_>) {
            for e in root.paths {
                if prof::path_phases(e.path).last() == Some(self.0) {
                    self.1.fetch_add(e.sim_ns, Ordering::Relaxed);
                }
            }
        }
    }

    /// Runs `body` as one profiled request on this thread and returns
    /// its `phase` charge, as its closed root carries it.
    fn charged(phase: Phase, body: impl FnOnce()) -> u64 {
        let sink = Charged(phase, AtomicU64::new(0));
        {
            let _root = prof::OpGuard::begin(&sink, "test");
            body();
        }
        sink.1.into_inner()
    }

    #[test]
    fn waits_are_attributed_to_the_contended_class() {
        let mgr = Arc::new(LockManager::new());
        let held = mgr.acquire(&[(LockKey::GroupList, LockIntent::Write)]);
        let blocked = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                charged(Phase::LockWait, || {
                    let _s = mgr.acquire(&[(LockKey::GroupList, LockIntent::Read)]);
                })
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        // A request on an uncontended path key waits for nothing.
        let free = key_path("/free");
        assert_ne!(free.stripe(), LockKey::GroupList.stripe());
        let uncontended = charged(Phase::LockWait, || {
            let _s = mgr.acquire(&[(free, LockIntent::Write)]);
        });
        drop(held);
        let waited = blocked.join().unwrap();
        assert!(
            waited >= 20_000_000,
            "blocked reader waited ~30ms, its record saw {waited} ns"
        );
        assert!(uncontended < 20_000_000, "saw {uncontended} ns");
    }

    #[test]
    fn hold_times_are_recorded_on_scope_drop() {
        let mgr = LockManager::new();
        let held = charged(Phase::GlobalHold, || {
            let scope = mgr.acquire_global();
            std::thread::sleep(std::time::Duration::from_millis(10));
            drop(scope);
        });
        assert!(held >= 5_000_000, "held ~10ms, saw {held} ns");
        // A per-object scope is no global hold.
        let held = charged(Phase::GlobalHold, || {
            drop(mgr.acquire(&[(key_path("/h"), LockIntent::Write)]));
        });
        assert_eq!(held, 0);
    }

    #[test]
    fn global_exclusive_hold_is_visible_to_the_watchdog() {
        let mgr = LockManager::new();
        let held_us = |mgr: &LockManager| mgr.global_hold().map_or(0, |(_, us)| us);
        assert_eq!(held_us(&mgr), 0);
        let scope = mgr.acquire_global();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(held_us(&mgr) >= 1_000, "exclusive hold is visible");
        drop(scope);
        assert_eq!(held_us(&mgr), 0);
        // Shared holds do not arm the budget clock.
        let shared = mgr.acquire(&[(key_path("/x"), LockIntent::Read)]);
        assert_eq!(held_us(&mgr), 0);
        drop(shared);
    }
}
