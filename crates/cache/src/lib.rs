//! EPC-aware in-enclave object cache.
//!
//! SeGShare's trust model (§IV) makes plaintext *inside* the enclave
//! safe to retain: the attacker controls storage and the network, never
//! enclave memory. This crate exploits that to amortize the dominant
//! per-request cost — the store → PFS-decrypt → decode chain every
//! metadata access (ACL, member list, group list, dirfile, rollback-tree
//! node) pays from scratch — while preserving the paper's headline
//! property that revocation is immediate (§V-B): a warm cache may never
//! serve stale membership or permissions.
//!
//! # Design
//!
//! [`ObjectCache`] is sharded (key-hash → shard, one mutex each) and
//! byte-bounded. Each shard runs a **segmented LRU**: new fills enter a
//! probationary segment; a second hit promotes to the protected segment
//! (capped at a fraction of the shard budget, demoting its own LRU tail
//! back to probation). Eviction drains the probationary tail first, so
//! one-touch scans cannot flush the hot working set.
//!
//! Every cached entry registers its bytes with the enclave's
//! [`EpcTracker`] and holds the RAII guard, so
//! cache pressure shows up in the simulated EPC paging cost model
//! instead of silently inflating the enclave footprint.
//!
//! # Freshness: generation tags
//!
//! Correctness under concurrent mutation is by *write-through
//! invalidation* with generation tags:
//!
//! 1. A writer calls [`ObjectCache::invalidate`] **before** its store
//!    write lands: the key's generation is bumped and any cached entry
//!    dropped.
//! 2. A reader that misses snapshots [`ObjectCache::generation`]
//!    *before* reading the backing store, then publishes via
//!    [`ObjectCache::insert_if_current`]: the fill is discarded if the
//!    generation moved, so a miss-fill racing a mutation can never
//!    publish the pre-mutation value over the post-mutation state.
//!
//! Because invalidation precedes the store write, any read that could
//! still observe the old stored object also observes the bumped
//! generation and fails to publish it. A writer that knows the new
//! value (it computed it inside the enclave) follows its store write
//! with [`ObjectCache::put`] instead of a second invalidation: the same
//! generation bump, plus the new value as the entry. A writer that
//! updates a cached value in place takes it out with
//! [`ObjectCache::take`] (a bump, like an invalidation) and puts the
//! result back once its store write landed.
//!
//! A generation is not kept per key: each shard holds a fixed table of
//! 64 counters and a key uses the one its hash selects. Keys that share
//! a counter share its bumps, so a fill can be discarded because an
//! unrelated key moved — a lost fill, counted in `stale_fills`, never a
//! stale one, since a counter only grows. The table costs 512 bytes a
//! shard whatever the number of keys ever written, and a bump clones no
//! key.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};
use seg_sgx::{EpcAllocation, EpcTracker};

/// Sentinel for "no slot" in the intrusive lists.
const NIL: usize = usize::MAX;

/// Independently locked shards.
const SHARDS: usize = 8;
/// Generation counters per shard (see "Freshness" in the crate docs).
const GEN_SLOTS: usize = 64;
/// Bytes charged per entry on top of the value size (key and slot
/// bookkeeping) — both against the shard budget and against the EPC
/// tracker.
const ENTRY_OVERHEAD: u64 = 128;

/// Point-in-time counters exported by [`ObjectCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the backing store.
    pub misses: u64,
    /// Values cached: miss-fills published via `insert_if_current`
    /// plus write-through `put`s.
    pub fills: u64,
    /// Fills discarded because the key's generation moved mid-read.
    pub stale_fills: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Generation bumps: `invalidate`, `take` and `put` calls.
    pub invalidations: u64,
    /// Live entries.
    pub entries: u64,
    /// Live cached bytes (values + per-entry overhead).
    pub bytes: u64,
}

/// Field-wise sum: the counters of several caches read as one.
impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            fills: self.fills + other.fills,
            stale_fills: self.stale_fills + other.stale_fills,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            entries: self.entries + other.entries,
            bytes: self.bytes + other.bytes,
        }
    }
}

impl CacheStats {
    /// Hits over lookups, or 0 when the cache was never consulted.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    Probation,
    Protected,
}

struct Slot<K, V> {
    key: K,
    value: V,
    bytes: u64,
    seg: Seg,
    prev: usize,
    next: usize,
    // Held, not read: releases the EPC charge when the entry dies.
    _epc: EpcAllocation,
}

/// One intrusive doubly-linked list over the shard's slot slab.
#[derive(Debug, Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
}

impl List {
    fn new() -> List {
        List {
            head: NIL,
            tail: NIL,
        }
    }
}

struct Shard<K, V> {
    map: HashMap<K, usize>,
    /// Generation counters, a key's chosen by its hash; they persist
    /// across eviction (see crate docs).
    gens: [u64; GEN_SLOTS],
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    probation: List,
    protected: List,
    bytes: u64,
    protected_bytes: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new() -> Shard<K, V> {
        Shard {
            map: HashMap::new(),
            gens: [0; GEN_SLOTS],
            slots: Vec::new(),
            free: Vec::new(),
            probation: List::new(),
            protected: List::new(),
            bytes: 0,
            protected_bytes: 0,
        }
    }

    fn list_mut(&mut self, seg: Seg) -> &mut List {
        match seg {
            Seg::Probation => &mut self.probation,
            Seg::Protected => &mut self.protected,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next, seg) = {
            let s = self.slots[idx].as_ref().expect("live slot");
            (s.prev, s.next, s.seg)
        };
        if prev == NIL {
            self.list_mut(seg).head = next;
        } else {
            self.slots[prev].as_mut().expect("live slot").next = next;
        }
        if next == NIL {
            self.list_mut(seg).tail = prev;
        } else {
            self.slots[next].as_mut().expect("live slot").prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize, seg: Seg) {
        let old_head = self.list_mut(seg).head;
        {
            let s = self.slots[idx].as_mut().expect("live slot");
            s.seg = seg;
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("live slot").prev = idx;
        }
        let list = self.list_mut(seg);
        list.head = idx;
        if list.tail == NIL {
            list.tail = idx;
        }
    }

    /// Removes the slot entirely, returning it (its EPC charge is
    /// released when it drops).
    fn remove_slot(&mut self, idx: usize) -> Slot<K, V> {
        self.detach(idx);
        let slot = self.slots[idx].take().expect("live slot");
        self.map.remove(&slot.key);
        self.bytes -= slot.bytes;
        if slot.seg == Seg::Protected {
            self.protected_bytes -= slot.bytes;
        }
        self.free.push(idx);
        slot
    }

    /// Evicts from the probationary tail first, then the protected tail.
    /// Returns how many entries were dropped.
    fn evict_to(&mut self, capacity: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes > capacity {
            let victim = if self.probation.tail != NIL {
                self.probation.tail
            } else if self.protected.tail != NIL {
                self.protected.tail
            } else {
                break;
            };
            self.remove_slot(victim);
            evicted += 1;
        }
        evicted
    }

    /// Demotes protected-tail entries until the segment is within its
    /// budget (they get a second chance in probation rather than dying).
    fn rebalance_protected(&mut self, protected_cap: u64) {
        while self.protected_bytes > protected_cap && self.protected.tail != NIL {
            let idx = self.protected.tail;
            self.detach(idx);
            let bytes = self.slots[idx].as_ref().expect("live slot").bytes;
            self.protected_bytes -= bytes;
            self.push_front(idx, Seg::Probation);
        }
    }

    fn alloc_slot(&mut self, slot: Slot<K, V>) -> usize {
        if let Some(idx) = self.free.pop() {
            self.slots[idx] = Some(slot);
            idx
        } else {
            self.slots.push(Some(slot));
            self.slots.len() - 1
        }
    }
}

/// A sharded, byte-bounded, generation-tagged segmented-LRU cache.
///
/// `K` is the object key (cheap to hash and clone), `V` the cached value
/// — typically an `Arc` so hits are pointer clones.
pub struct ObjectCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    shard_capacity: u64,
    protected_cap: u64,
    entry_overhead: u64,
    epc: EpcTracker,
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    stale_fills: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<K, V> std::fmt::Debug for ObjectCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ObjectCache<K, V> {
    /// Creates a cache of `capacity_bytes` (values plus per-entry
    /// overhead) in 8 shards, charging 128 bytes per entry on top of its
    /// value, whose occupancy is charged against `epc`.
    #[must_use]
    pub fn new(capacity_bytes: u64, epc: EpcTracker) -> ObjectCache<K, V> {
        ObjectCache::sized(capacity_bytes, SHARDS, ENTRY_OVERHEAD, epc)
    }

    fn sized(capacity_bytes: u64, shards: usize, entry_overhead: u64, epc: EpcTracker) -> Self {
        let shard_capacity = (capacity_bytes / shards as u64).max(1);
        ObjectCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity,
            // 4/5 protected keeps a probationary runway for new fills.
            protected_cap: shard_capacity * 4 / 5,
            entry_overhead,
            epc,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            stale_fills: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// `key`'s shard and the generation counter it uses there.
    fn locate(&self, key: &K) -> (&Mutex<Shard<K, V>>, usize) {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let h = h.finish() as usize;
        let shards = self.shards.len();
        (&self.shards[h % shards], (h / shards) % GEN_SLOTS)
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        self.locate(key).0
    }

    /// Looks up `key`, refreshing its LRU position on a hit (a
    /// probationary hit promotes to the protected segment).
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard(key).lock();
        let Some(&idx) = shard.map.get(key) else {
            drop(shard);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let (value, seg, bytes) = {
            let s = shard.slots[idx].as_ref().expect("live slot");
            (s.value.clone(), s.seg, s.bytes)
        };
        shard.detach(idx);
        shard.push_front(idx, Seg::Protected);
        if seg == Seg::Probation {
            shard.protected_bytes += bytes;
            let cap = self.protected_cap;
            shard.rebalance_protected(cap);
        }
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Looks `key` up without counting a hit or a miss and without
    /// touching its LRU position: for integrity probes, which re-check
    /// what the cache holds without changing what it keeps.
    pub fn peek(&self, key: &K) -> Option<V> {
        let shard = self.shard(key).lock();
        let idx = *shard.map.get(key)?;
        Some(shard.slots[idx].as_ref().expect("live slot").value.clone())
    }

    /// The current generation of `key` (0 if never invalidated). Miss
    /// paths must read this *before* reading the backing store and pass
    /// it to [`ObjectCache::insert_if_current`].
    pub fn generation(&self, key: &K) -> u64 {
        let (shard, gen) = self.locate(key);
        shard.lock().gens[gen]
    }

    /// Bumps `key`'s generation and drops any cached entry. Writers call
    /// this **before** their store write lands (write-through
    /// invalidation).
    pub fn invalidate(&self, key: &K) {
        let (shard, gen) = self.locate(key);
        let mut shard = shard.lock();
        shard.gens[gen] += 1;
        if let Some(&idx) = shard.map.get(key) {
            shard.remove_slot(idx);
        }
        drop(shard);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes `key`'s entry out of the cache to update it in place: the
    /// generation bump of [`ObjectCache::invalidate`], with the entry's
    /// key and value handed back instead of dropped. Counted as a
    /// lookup, a hit when there was an entry. The writer puts the
    /// updated value back with [`ObjectCache::put`] once its store write
    /// landed, and leaves it out if the write failed.
    pub fn take(&self, key: &K) -> Option<(K, V)> {
        let (shard, gen) = self.locate(key);
        let mut shard = shard.lock();
        shard.gens[gen] += 1;
        let taken = shard.map.get(key).copied().map(|idx| {
            let slot = shard.remove_slot(idx);
            (slot.key, slot.value)
        });
        drop(shard);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let lookups = if taken.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        lookups.fetch_add(1, Ordering::Relaxed);
        taken
    }

    /// Publishes a miss-fill, unless `key`'s generation moved since
    /// `gen` was read (the fill raced a mutation and is discarded) or
    /// the value alone exceeds the shard budget (never cached). `bytes`
    /// is the value's size; per-entry overhead is added on top.
    ///
    /// Returns whether the value was cached.
    pub fn insert_if_current(&self, key: K, gen: u64, value: V, bytes: u64) -> bool {
        let charged = bytes.saturating_add(self.entry_overhead);
        if charged > self.shard_capacity {
            return false;
        }
        let (shard, slot) = self.locate(&key);
        let shard = shard.lock();
        if shard.gens[slot] != gen {
            drop(shard);
            self.stale_fills.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.insert_locked(shard, key, value, charged);
        true
    }

    /// Write-through: bumps `key`'s generation (so a miss-fill that
    /// snapshotted the old one is discarded) and caches `value` as the
    /// key's new state in one step. The writer calls this **after** its
    /// store write landed, and only with a value it computed itself. A
    /// value over the shard budget just invalidates.
    pub fn put(&self, key: K, value: V, bytes: u64) {
        let charged = bytes.saturating_add(self.entry_overhead);
        let (shard, gen) = self.locate(&key);
        let mut shard = shard.lock();
        shard.gens[gen] += 1;
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        if charged > self.shard_capacity {
            if let Some(&idx) = shard.map.get(&key) {
                shard.remove_slot(idx);
            }
            return;
        }
        self.insert_locked(shard, key, value, charged);
    }

    /// Replaces `key`'s entry with `value` and evicts down to budget.
    fn insert_locked(
        &self,
        mut shard: MutexGuard<'_, Shard<K, V>>,
        key: K,
        value: V,
        charged: u64,
    ) {
        // A racing fill of the same generation may have won; replace it
        // (both fills decrypted the same stored object).
        if let Some(&idx) = shard.map.get(&key) {
            shard.remove_slot(idx);
        }
        let epc = self.epc.alloc(charged);
        let idx = shard.alloc_slot(Slot {
            key: key.clone(),
            value,
            bytes: charged,
            seg: Seg::Probation,
            prev: NIL,
            next: NIL,
            _epc: epc,
        });
        shard.map.insert(key, idx);
        shard.bytes += charged;
        shard.push_front(idx, Seg::Probation);
        let evicted = shard.evict_to(self.shard_capacity);
        drop(shard);
        self.fills.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Copies out up to `max` resident keys, spread across shards
    /// (each shard contributes at most its proportional share, in
    /// arbitrary hash order). This powers integrity probes that
    /// re-verify a sample of resident entries against the backing
    /// store; it takes each shard lock briefly and never touches LRU
    /// positions or hit/miss counters.
    #[must_use]
    pub fn sample_keys(&self, max: usize) -> Vec<K> {
        let mut out = Vec::new();
        if max == 0 {
            return out;
        }
        let per_shard = max.div_ceil(self.shards.len()).max(1);
        for shard in &self.shards {
            let shard = shard.lock();
            for key in shard.map.keys().take(per_shard) {
                if out.len() == max {
                    return out;
                }
                out.push(key.clone());
            }
        }
        out
    }

    /// Drops every cached entry (generation tags are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            while shard.probation.tail != NIL {
                let idx = shard.probation.tail;
                shard.remove_slot(idx);
            }
            while shard.protected.tail != NIL {
                let idx = shard.protected.tail;
                shard.remove_slot(idx);
            }
        }
    }

    /// Lookups so far, as `(hits, misses)`: two atomic loads, no shard
    /// lock, for callers that difference them per request.
    pub fn lookups(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Current counters plus live entry/byte totals.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.map.len() as u64;
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            stale_fills: self.stale_fills.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_sgx::CostModel;
    use std::sync::Arc;

    fn epc() -> EpcTracker {
        EpcTracker::new(128 << 20, CostModel::default())
    }

    /// Single shard, no per-entry overhead: deterministic byte math.
    fn cache(capacity: u64) -> ObjectCache<String, Arc<[u8]>> {
        ObjectCache::sized(capacity, 1, 0, epc())
    }

    fn val(n: usize) -> Arc<[u8]> {
        Arc::from(vec![0u8; n].as_slice())
    }

    #[test]
    fn hit_miss_fill_roundtrip() {
        let c = cache(1024);
        assert!(c.get(&"a".to_string()).is_none());
        let gen = c.generation(&"a".to_string());
        assert!(c.insert_if_current("a".to_string(), gen, val(10), 10));
        assert_eq!(c.get(&"a".to_string()).unwrap().len(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.fills), (1, 1, 1));
        assert_eq!((s.entries, s.bytes), (1, 10));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stats_of_two_caches_add_up() {
        let (a, b) = (cache(1024), cache(1024));
        for (c, n) in [(&a, 10), (&b, 20)] {
            let gen = c.generation(&"k".to_string());
            c.insert_if_current("k".to_string(), gen, val(n), n as u64);
            assert!(c.get(&"k".to_string()).is_some());
            assert!(c.get(&"absent".to_string()).is_none());
        }
        let sum = a.stats() + b.stats();
        assert_eq!((sum.hits, sum.misses, sum.fills), (2, 2, 2));
        assert_eq!((sum.entries, sum.bytes), (2, 30));
        assert!((sum.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn invalidate_drops_entry_and_bumps_generation() {
        let c = cache(1024);
        let gen = c.generation(&"a".to_string());
        c.insert_if_current("a".to_string(), gen, val(10), 10);
        c.invalidate(&"a".to_string());
        assert!(c.get(&"a".to_string()).is_none(), "entry dropped");
        assert_eq!(c.generation(&"a".to_string()), gen + 1);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn racing_fill_is_discarded_by_generation_check() {
        let c = cache(1024);
        // Reader snapshots the generation, then a writer mutates before
        // the fill publishes: the stale body must not land.
        let gen = c.generation(&"a".to_string());
        c.invalidate(&"a".to_string());
        assert!(!c.insert_if_current("a".to_string(), gen, val(10), 10));
        assert!(c.get(&"a".to_string()).is_none());
        assert_eq!(c.stats().stale_fills, 1);
        // A fill started after the mutation sees the new generation.
        let gen2 = c.generation(&"a".to_string());
        assert!(c.insert_if_current("a".to_string(), gen2, val(10), 10));
    }

    #[test]
    fn put_replaces_the_entry_and_discards_older_fills() {
        let c = cache(100);
        let key = "a".to_string();
        let gen = c.generation(&key);
        c.put(key.clone(), val(10), 10);
        assert_eq!(c.get(&key).unwrap().len(), 10);
        // A miss-fill that started before the write-through is stale.
        assert!(!c.insert_if_current(key.clone(), gen, val(20), 20));
        c.put(key.clone(), val(30), 30);
        assert_eq!(c.get(&key).unwrap().len(), 30);
        let s = c.stats();
        assert_eq!(
            (s.entries, s.bytes, s.fills, s.invalidations),
            (1, 30, 2, 2)
        );
        // Over the budget: the old entry goes, nothing is cached.
        c.put(key.clone(), val(101), 101);
        assert!(c.get(&key).is_none());
        assert_eq!(c.generation(&key), gen + 3);
    }

    #[test]
    fn take_hands_the_entry_over_and_discards_older_fills() {
        let tracker = epc();
        let c: ObjectCache<String, Arc<[u8]>> = ObjectCache::sized(100, 1, 0, tracker.clone());
        let key = "a".to_string();
        assert!(c.take(&key).is_none());
        c.put(key.clone(), val(10), 10);
        let gen = c.generation(&key);
        let (taken_key, value) = c.take(&key).unwrap();
        assert_eq!((taken_key.as_str(), value.len()), ("a", 10));
        assert_eq!(
            tracker.current_bytes(),
            0,
            "the entry's charge went with it"
        );
        assert_eq!(c.stats().entries, 0);
        // A fill that snapshotted before the take must not land.
        assert!(!c.insert_if_current(key.clone(), gen, val(5), 5));
        c.put(taken_key, value, 10);
        assert_eq!(c.get(&key).unwrap().len(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 1, 4));
        assert_eq!(c.lookups(), (s.hits, s.misses));
    }

    #[test]
    fn the_generation_table_does_not_grow_with_the_keys_written() {
        let c = ObjectCache::<String, Arc<[u8]>>::new(1 << 20, epc());
        let probe = "probe".to_string();
        let before = c.generation(&probe);
        for k in 0..100_000 {
            c.invalidate(&format!("k{k}"));
        }
        let mut bumps = 0;
        for shard in c.shards.iter() {
            let shard = shard.lock();
            assert!(shard.map.is_empty() && shard.slots.is_empty());
            assert_eq!(shard.gens.len(), GEN_SLOTS);
            bumps += shard.gens.iter().sum::<u64>();
        }
        // Every bump landed in the fixed table, and a key sharing a
        // counter with some of them saw its generation move.
        assert_eq!(bumps, 100_000);
        assert!(c.generation(&probe) > before);
    }

    #[test]
    fn eviction_respects_capacity_and_lru_order() {
        let c = cache(100);
        for k in 0..10 {
            let key = format!("k{k}");
            let gen = c.generation(&key);
            c.insert_if_current(key, gen, val(10), 10);
        }
        assert_eq!(c.stats().bytes, 100);
        // One more evicts exactly the coldest (k0).
        let gen = c.generation(&"extra".to_string());
        c.insert_if_current("extra".to_string(), gen, val(10), 10);
        let s = c.stats();
        assert_eq!(s.bytes, 100);
        assert_eq!(s.evictions, 1);
        assert!(c.get(&"k0".to_string()).is_none(), "LRU victim evicted");
        assert!(c.get(&"k9".to_string()).is_some());
    }

    #[test]
    fn second_hit_protects_against_scan_flush() {
        let c = cache(100);
        let hot = "hot".to_string();
        let gen = c.generation(&hot);
        c.insert_if_current(hot.clone(), gen, val(10), 10);
        assert!(c.get(&hot).is_some()); // promote to protected
        for k in 0..20 {
            let key = format!("scan{k}");
            let gen = c.generation(&key);
            c.insert_if_current(key, gen, val(10), 10);
        }
        // The one-touch scan churned through probation; the hot entry
        // survived in the protected segment.
        assert!(c.get(&hot).is_some(), "hot entry survived the scan");
    }

    #[test]
    fn oversized_values_are_never_cached() {
        let c = cache(100);
        let gen = c.generation(&"big".to_string());
        assert!(!c.insert_if_current("big".to_string(), gen, val(101), 101));
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn epc_charge_follows_cache_occupancy() {
        let tracker = epc();
        let c: ObjectCache<String, Arc<[u8]>> = ObjectCache::sized(1024, 1, 0, tracker.clone());
        let gen = c.generation(&"a".to_string());
        c.insert_if_current("a".to_string(), gen, val(100), 100);
        assert_eq!(tracker.current_bytes(), 100);
        c.invalidate(&"a".to_string());
        assert_eq!(tracker.current_bytes(), 0, "invalidation releases EPC");
        let gen = c.generation(&"b".to_string());
        c.insert_if_current("b".to_string(), gen, val(50), 50);
        c.clear();
        assert_eq!(tracker.current_bytes(), 0, "clear releases EPC");
    }

    #[test]
    fn cache_pressure_charges_epc_paging() {
        // An EPC budget smaller than the cache: fills beyond the limit
        // must show up as paged pages, not silent free memory.
        let tracker = EpcTracker::new(4096, CostModel::default());
        let c: ObjectCache<String, Arc<[u8]>> = ObjectCache::sized(1 << 20, 1, 0, tracker.clone());
        for k in 0..4 {
            let key = format!("k{k}");
            let gen = c.generation(&key);
            c.insert_if_current(key, gen, val(4096), 4096);
        }
        assert!(tracker.paged_pages() > 0, "cache pressure pages the EPC");
    }

    #[test]
    fn protected_segment_demotes_rather_than_grows_unbounded() {
        let c = cache(100); // protected cap = 80
        for k in 0..10 {
            let key = format!("k{k}");
            let gen = c.generation(&key);
            c.insert_if_current(key, gen, val(10), 10);
            assert!(c.get(&format!("k{k}")).is_some()); // promote each
        }
        // All ten were promoted (100 bytes) but protected holds at most
        // 80: demotions kept the books consistent and nothing was lost.
        let s = c.stats();
        assert_eq!(s.entries, 10);
        assert_eq!(s.bytes, 100);
        let shard = c.shards[0].lock();
        assert!(shard.protected_bytes <= 80);
        assert_eq!(shard.bytes, 100);
    }

    #[test]
    fn sample_keys_is_bounded_and_side_effect_free() {
        let c = cache(10_000);
        for k in 0..10 {
            let key = format!("k{k}");
            let gen = c.generation(&key);
            c.insert_if_current(key, gen, val(10), 10);
        }
        let before = c.stats();
        let sample = c.sample_keys(4);
        assert_eq!(sample.len(), 4);
        let all = c.sample_keys(usize::MAX);
        assert_eq!(all.len(), 10);
        assert!(c.sample_keys(0).is_empty());
        let after = c.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
    }

    #[test]
    fn peek_neither_counts_nor_promotes() {
        let c = cache(100); // protected cap = 80
        let hot = "hot".to_string();
        let gen = c.generation(&hot);
        c.insert_if_current(hot.clone(), gen, val(10), 10);
        let before = c.stats();
        for _ in 0..3 {
            assert_eq!(c.peek(&hot).unwrap().len(), 10);
            assert!(c.peek(&"absent".to_string()).is_none());
        }
        let after = c.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
        assert_eq!(c.shards[0].lock().protected_bytes, 0, "still probationary");
        // Unpromoted, a scan flushes it.
        for k in 0..20 {
            let key = format!("scan{k}");
            let gen = c.generation(&key);
            c.insert_if_current(key, gen, val(10), 10);
        }
        assert!(c.peek(&hot).is_none());
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let c = Arc::new(cache(10_000));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let key = format!("k{}", (t * 31 + i) % 64);
                    match i % 5 {
                        0 => c.invalidate(&key),
                        1 => {
                            let gen = c.generation(&key);
                            c.insert_if_current(key, gen, val(16), 16);
                        }
                        _ => {
                            let _ = c.get(&key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 500 * 3 / 5);
        // Every live entry is accounted for in the byte total.
        assert_eq!(s.bytes, s.entries * 16);
    }
}
