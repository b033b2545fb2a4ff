//! `seg-prof`: request-scoped phase profiler.
//!
//! Attributes every request's wall-clock to a static tree of *phases*
//! (`tls_record`, `authn`, `authz`, `crypto_gcm`, `pfs`,
//! `rollback_tree`, `store_io`, `serialize`, ...), aggregated
//! per-(operation, phase-path). A thread-local stack of nested phase
//! frames is opened by an [`OpGuard`] root (one per request) and grown
//! by [`phase`] calls anywhere down the stack — the lower layers need
//! no reference to the [`Profiler`]; when no root is active on the
//! thread, [`phase`] is a no-op, so client-side code paths cost nothing.
//!
//! # Accounting rules
//!
//! - **total** time of a frame is its wall-clock from enter to exit;
//!   **self** time is total minus the total of its direct children, so
//!   the self times under one root always sum to the root's total
//!   exactly (no double counting, no gaps).
//! - The *root frame is the operation itself*: un-attributed request
//!   time appears as the operation's own self time, never vanishes.
//! - Directly re-entering the phase that is already on top of the
//!   stack (e.g. per-node GCM calls under a `crypto_gcm` bulk call) is
//!   collapsed into the open frame instead of growing the stack.
//! - *Simulated* time (EPC paging, monotonic-counter latency) is
//!   charged through [`charge`] into a separate `sim_ns` channel so the
//!   wall-clock invariant above survives; exports report it alongside.
//!
//! # Trust boundary
//!
//! Phase and operation names are `&'static str` — compiled into the
//! binary, never derived from requests — so a phase path can no more
//! carry request content than a metric label can (see the crate docs).
//! Aggregates leave the enclave only through [`Profiler::snapshot`],
//! the profiler's explicit declassification point.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::{Histogram, HistogramSummary};
use crate::record::{PhaseVector, PHASES};

/// Phase stacks deeper than this stop growing (further [`phase`] calls
/// collapse into the open frame). Sixteen is several times the static
/// phase tree's height; hitting it means runaway recursion, not data.
const MAX_DEPTH: usize = 16;

/// One open phase frame on the thread's stack.
struct Frame {
    name: &'static str,
    start: Instant,
    /// Sum of direct children's total time, subtracted for self time.
    child_ns: u64,
}

/// Per-request accumulation, flushed into the [`Profiler`] once when
/// the root closes (one mutex acquisition per request, not per phase).
struct AccEntry {
    path: Vec<&'static str>,
    count: u64,
    self_ns: u64,
    total_ns: u64,
    sim_ns: u64,
}

struct ThreadProf {
    profiler: Option<Arc<Profiler>>,
    frames: Vec<Frame>,
    acc: Vec<AccEntry>,
}

impl ThreadProf {
    const fn new() -> ThreadProf {
        ThreadProf {
            profiler: None,
            frames: Vec::new(),
            acc: Vec::new(),
        }
    }

    fn path_of_top(&self, depth: usize) -> Vec<&'static str> {
        self.frames[..depth].iter().map(|f| f.name).collect()
    }

    fn accumulate(&mut self, path: Vec<&'static str>, self_ns: u64, total_ns: u64, sim_ns: u64) {
        if let Some(e) = self.acc.iter_mut().find(|e| e.path == path) {
            e.count += 1;
            e.self_ns += self_ns;
            e.total_ns += total_ns;
            e.sim_ns += sim_ns;
        } else {
            self.acc.push(AccEntry {
                path,
                count: 1,
                self_ns,
                total_ns,
                sim_ns,
            });
        }
    }

    /// Pops the top frame, charging its time to its path and its total
    /// to the parent's child account.
    fn pop_frame(&mut self) {
        let depth = self.frames.len();
        let path = self.path_of_top(depth);
        let frame = self.frames.pop().expect("pop_frame on empty stack");
        let total = frame.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let self_ns = total.saturating_sub(frame.child_ns);
        if let Some(parent) = self.frames.last_mut() {
            parent.child_ns += total;
        }
        self.accumulate(path, self_ns, total, 0);
    }
}

thread_local! {
    static TLS: RefCell<ThreadProf> = const { RefCell::new(ThreadProf::new()) };
}

/// Aggregate for one (operation, phase-path).
struct PhaseAgg {
    /// Frame enter/exit count (collapsed re-entries count once).
    count: u64,
    /// Requests that touched this path.
    requests: u64,
    self_ns: u64,
    total_ns: u64,
    sim_ns: u64,
    /// Distribution of per-request self time (one sample per request).
    self_hist: Histogram,
}

impl PhaseAgg {
    fn new() -> PhaseAgg {
        PhaseAgg {
            count: 0,
            requests: 0,
            self_ns: 0,
            total_ns: 0,
            sim_ns: 0,
            self_hist: Histogram::new(),
        }
    }
}

/// The phase-profile aggregator: per-(operation, phase-path) self and
/// total time, fed by per-request flushes from the thread-local stacks.
#[derive(Default)]
pub struct Profiler {
    agg: Mutex<BTreeMap<Vec<&'static str>, PhaseAgg>>,
    /// Requests whose stacks needed drop-guard recovery (a phase guard
    /// was leaked or dropped out of order). Should stay 0.
    unbalanced: AtomicU64,
}

impl Default for PhaseAgg {
    fn default() -> PhaseAgg {
        PhaseAgg::new()
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("paths", &self.agg.lock().unwrap().len())
            .field("unbalanced", &self.unbalanced())
            .finish()
    }
}

impl Profiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Requests that required unbalanced-stack recovery so far.
    #[must_use]
    pub fn unbalanced(&self) -> u64 {
        self.unbalanced.load(Ordering::Relaxed)
    }

    /// Folds one request's accumulated phases in (one lock per request).
    fn flush(&self, acc: &mut Vec<AccEntry>) {
        if acc.is_empty() {
            return;
        }
        let mut agg = self.agg.lock().unwrap();
        for e in acc.drain(..) {
            let a = agg.entry(e.path).or_default();
            a.count += e.count;
            a.requests += 1;
            a.self_ns += e.self_ns;
            a.total_ns += e.total_ns;
            a.sim_ns += e.sim_ns;
            a.self_hist.record(e.self_ns);
        }
    }

    /// Captures the current aggregates, deterministically ordered by
    /// phase path — the profiler's **declassification point**. Entries
    /// carry compiled-in names and aggregate times only.
    #[must_use]
    pub fn snapshot(&self) -> ProfSnapshot {
        let agg = self.agg.lock().unwrap();
        ProfSnapshot {
            entries: agg
                .iter()
                .map(|(path, a)| ProfEntry {
                    path: path.clone(),
                    count: a.count,
                    requests: a.requests,
                    self_ns: a.self_ns,
                    total_ns: a.total_ns,
                    sim_ns: a.sim_ns,
                    self_per_request: a.self_hist.summarize(),
                })
                .collect(),
            unbalanced: self.unbalanced(),
        }
    }

    /// Zeroes all aggregates.
    pub fn reset(&self) {
        self.agg.lock().unwrap().clear();
        self.unbalanced.store(0, Ordering::Relaxed);
    }
}

/// Root guard for one profiled request: installs the operation as frame
/// zero of this thread's phase stack; dropping it closes the frame and
/// flushes the request's accumulated phases into the [`Profiler`].
#[derive(Debug)]
#[must_use = "dropping the guard ends the profiled request"]
pub struct OpGuard {
    active: bool,
}

impl OpGuard {
    /// Opens a request root for `op`. If this thread already has an
    /// active root (a nested span inside a profiled request), the
    /// returned guard is inert — the outer root keeps owning the stack.
    pub fn begin(profiler: &Arc<Profiler>, op: &'static str) -> OpGuard {
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.profiler.is_some() {
                return OpGuard { active: false };
            }
            // A previous request must have left a clean slate; if not
            // (leaked guards), recover rather than misattribute.
            if !t.frames.is_empty() || !t.acc.is_empty() {
                debug_assert!(false, "stale phase stack at request start");
                profiler.unbalanced.fetch_add(1, Ordering::Relaxed);
                t.frames.clear();
                t.acc.clear();
            }
            t.profiler = Some(Arc::clone(profiler));
            t.frames.push(Frame {
                name: op,
                start: Instant::now(),
                child_ns: 0,
            });
            OpGuard { active: true }
        })
    }
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let Some(profiler) = t.profiler.take() else {
                return;
            };
            if t.frames.len() != 1 {
                // Leaked phase guards: close them so their time is
                // still attributed, and flag the imbalance.
                debug_assert!(t.frames.len() > 1, "root frame vanished");
                profiler.unbalanced.fetch_add(1, Ordering::Relaxed);
            }
            while !t.frames.is_empty() {
                t.pop_frame();
            }
            profiler.flush(&mut t.acc);
        });
    }
}

/// Renames the current request's root operation (frame zero). Used when
/// the operation only becomes known mid-request — e.g. after the
/// request is decrypted and decoded. `op` must be a compiled-in name.
/// No-op without an active root.
pub fn set_root_op(op: &'static str) {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.profiler.is_none() {
            return;
        }
        let Some(root) = t.frames.first_mut() else {
            return;
        };
        let old = root.name;
        root.name = op;
        // Phases that already closed under the placeholder name (e.g.
        // the TLS-record decrypt that revealed the operation) were
        // accumulated with the old root as path head — re-key them so
        // the whole request lands under one operation.
        for entry in &mut t.acc {
            if entry.path.first() == Some(&old) {
                entry.path[0] = op;
            }
        }
    });
}

/// RAII guard for one phase frame; see [`phase`].
#[derive(Debug)]
#[must_use = "dropping the guard exits the phase"]
pub struct PhaseGuard {
    /// Expected stack depth after our frame was pushed (0 = inert).
    depth: usize,
    name: &'static str,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let Some(profiler) = t.profiler.as_ref().map(Arc::clone) else {
                return;
            };
            if t.frames.len() < self.depth {
                // Our frame is already gone — a sibling recovery popped
                // it. Nothing left to account.
                debug_assert!(false, "phase {:?} exited twice", self.name);
                profiler.unbalanced.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if t.frames.len() > self.depth {
                // Children leaked their guards; close them first so the
                // nesting accounting stays consistent.
                debug_assert!(false, "unbalanced phases inside {:?}", self.name);
                profiler.unbalanced.fetch_add(1, Ordering::Relaxed);
                while t.frames.len() > self.depth {
                    t.pop_frame();
                }
            }
            debug_assert_eq!(
                t.frames.last().map(|f| f.name),
                Some(self.name),
                "phase stack corrupted"
            );
            t.pop_frame();
        });
    }
}

/// Enters a phase on the current thread's stack; the returned guard
/// exits it on drop. A no-op (inert guard) when no request root is
/// active on this thread, when the phase directly re-enters the one
/// already on top (recursion collapse), or past `MAX_DEPTH`.
pub fn phase(name: &'static str) -> PhaseGuard {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.profiler.is_none()
            || t.frames.last().map(|f| f.name) == Some(name)
            || t.frames.len() >= MAX_DEPTH
        {
            return PhaseGuard { depth: 0, name };
        }
        t.frames.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        PhaseGuard {
            depth: t.frames.len(),
            name,
        }
    })
}

/// Charges `ns` of *simulated* time (EPC paging, monotonic-counter
/// latency) to the sub-phase `name` under the current phase path.
/// Simulated time is kept out of the wall-clock self/total accounting;
/// exports report it in a separate `sim_ns` channel. No-op without an
/// active root.
pub fn charge(name: &'static str, ns: u64) {
    if ns == 0 {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.profiler.is_none() {
            return;
        }
        let mut path = t.path_of_top(t.frames.len());
        path.push(name);
        t.accumulate(path, 0, 0, ns);
    });
}

/// The current request's phase vector so far, in one pass over the
/// thread's accumulator: every closed frame's self and charged time
/// lands in the slot of its leaf name (see [`PHASES`]), and slot 0
/// takes the root's own time up to now, so the self times sum to the
/// wall-clock since the root opened. All zero without an active root.
#[must_use]
pub fn request_phases() -> PhaseVector {
    TLS.with(|t| {
        let t = t.borrow();
        let mut out = PhaseVector::default();
        if t.profiler.is_none() {
            return out;
        }
        for e in &t.acc {
            let leaf = e.path.last().copied().unwrap_or("");
            // A name missing from the table is a bug there; its time
            // still counts, as the operation's own.
            let slot = PHASES.iter().position(|p| *p == leaf).unwrap_or(0);
            out[slot].self_ns += e.self_ns;
            out[slot].sim_ns += e.sim_ns;
        }
        if let Some(root) = t.frames.first() {
            let open_ns = root.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            out[0].self_ns += open_ns.saturating_sub(root.child_ns);
        }
        out
    })
}

/// One (operation, phase-path) aggregate in a [`ProfSnapshot`].
#[derive(Debug, Clone)]
pub struct ProfEntry {
    /// The phase path, element 0 being the operation name.
    pub path: Vec<&'static str>,
    /// Frame enter/exit count (collapsed re-entries count once).
    pub count: u64,
    /// Requests that touched this path.
    pub requests: u64,
    /// Wall-clock self time (total minus direct children), summed.
    pub self_ns: u64,
    /// Wall-clock total time, summed.
    pub total_ns: u64,
    /// Simulated time charged under this path (EPC paging, counter
    /// waits) — reported alongside, never mixed into the wall clock.
    pub sim_ns: u64,
    /// Distribution of per-request self time.
    pub self_per_request: HistogramSummary,
}

impl ProfEntry {
    /// `op;phase;subphase` rendering of the path.
    #[must_use]
    pub fn rendered_path(&self) -> String {
        self.path.join(";")
    }

    /// The operation (path element 0).
    #[must_use]
    pub fn op(&self) -> &'static str {
        self.path.first().copied().unwrap_or("")
    }

    /// The leaf phase name (last path element).
    #[must_use]
    pub fn leaf(&self) -> &'static str {
        self.path.last().copied().unwrap_or("")
    }
}

/// Point-in-time copy of a [`Profiler`], ordered by phase path.
#[derive(Debug, Clone, Default)]
pub struct ProfSnapshot {
    /// Aggregates, sorted by path.
    pub entries: Vec<ProfEntry>,
    /// Requests that required unbalanced-stack recovery.
    pub unbalanced: u64,
}

impl ProfSnapshot {
    /// Looks an entry up by its rendered path (`op;phase;subphase`).
    #[must_use]
    pub fn entry(&self, rendered: &str) -> Option<&ProfEntry> {
        self.entries.iter().find(|e| e.rendered_path() == rendered)
    }

    /// All entries belonging to operation `op`.
    pub fn op_entries<'s>(&'s self, op: &'s str) -> impl Iterator<Item = &'s ProfEntry> {
        self.entries.iter().filter(move |e| e.op() == op)
    }

    /// Total wall-clock of operation `op` (its root frame's total).
    #[must_use]
    pub fn op_total_ns(&self, op: &str) -> u64 {
        self.entry(op).map_or(0, |e| e.total_ns)
    }

    /// Sums self time grouped by leaf phase name across the given
    /// operations — the "which layer dominates" view. Simulated time is
    /// folded into the leaf that charged it (real and simulated never
    /// overlap on one entry).
    #[must_use]
    pub fn phase_breakdown(&self, ops: &[&str]) -> Vec<(&'static str, u64)> {
        let mut by_leaf: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &self.entries {
            if !ops.contains(&e.op()) {
                continue;
            }
            *by_leaf.entry(e.leaf()).or_default() += e.self_ns + e.sim_ns;
        }
        let mut out: Vec<(&'static str, u64)> = by_leaf.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    /// Hand-rolled JSON encoding (no external serializer). Paths are
    /// charset-restricted compiled-in names, so no escaping is needed
    /// beyond what the renderer emits.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = &e.self_per_request;
            out.push_str(&format!(
                "\n    {{\"path\": \"{}\", \"count\": {}, \"requests\": {}, \
                 \"self_ns\": {}, \"total_ns\": {}, \"sim_ns\": {}, \
                 \"self_per_request\": {{\"count\": {}, \"p50_ns\": {}, \
                 \"p95_ns\": {}, \"p99_ns\": {}}}}}",
                e.rendered_path(),
                e.count,
                e.requests,
                e.self_ns,
                e.total_ns,
                e.sim_ns,
                s.count,
                s.p50,
                s.p95,
                s.p99,
            ));
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!("],\n  \"unbalanced\": {}\n}}\n", self.unbalanced));
        out
    }

    /// Flamegraph-collapsed text: one `op;phase;subphase value` line
    /// per path, value in nanoseconds — feedable straight into
    /// `flamegraph.pl`. The value is the path's self time; entries that
    /// carry only simulated time report that instead (an entry never
    /// has both).
    #[must_use]
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let value = e.self_ns + e.sim_ns;
            if value == 0 {
                continue;
            }
            out.push_str(&format!("{} {}\n", e.rendered_path(), value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_for(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn phases_without_root_are_noops() {
        let _g = phase("crypto_gcm");
        // Nothing to observe: no profiler involved at all. A fresh
        // profiler stays empty.
        let p = Arc::new(Profiler::new());
        assert!(p.snapshot().entries.is_empty());
        assert_eq!(p.unbalanced(), 0);
    }

    #[test]
    fn nested_self_times_sum_to_root_total() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "put_file");
            {
                let _a = phase("pfs");
                spin_for(200_000);
                {
                    let _b = phase("crypto_gcm");
                    spin_for(400_000);
                }
            }
            {
                let _c = phase("store_io");
                spin_for(100_000);
            }
        }
        let snap = p.snapshot();
        assert_eq!(snap.unbalanced, 0);
        let root = snap.entry("put_file").expect("root entry");
        let self_sum: u64 = snap.op_entries("put_file").map(|e| e.self_ns).sum();
        // By construction self times sum to the root total exactly.
        assert_eq!(self_sum, root.total_ns);
        // And the nested phases carry their own time.
        assert!(snap.entry("put_file;pfs;crypto_gcm").unwrap().self_ns >= 400_000);
        assert!(snap.entry("put_file;pfs").unwrap().self_ns >= 200_000);
        assert!(snap.entry("put_file;store_io").unwrap().self_ns >= 100_000);
        // Parent total covers its children.
        let pfs = snap.entry("put_file;pfs").unwrap();
        assert!(pfs.total_ns >= pfs.self_ns + 400_000);
    }

    #[test]
    fn direct_recursion_collapses_into_open_frame() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "get");
            let _outer = phase("crypto_gcm");
            for _ in 0..100 {
                let _inner = phase("crypto_gcm"); // collapsed
            }
        }
        let snap = p.snapshot();
        let e = snap.entry("get;crypto_gcm").expect("collapsed entry");
        assert_eq!(e.count, 1, "re-entries collapse into one frame");
        assert!(snap.entry("get;crypto_gcm;crypto_gcm").is_none());
        assert_eq!(snap.unbalanced, 0);
    }

    #[test]
    fn leaked_guard_is_detected_and_recovered() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "get");
            let g = phase("pfs");
            std::mem::forget(g); // never exits
            spin_for(50_000);
        }
        // Root drop recovered: popped the leaked frame, flagged it.
        assert_eq!(p.unbalanced(), 1);
        let snap = p.snapshot();
        // The leaked frame's time was still attributed.
        assert!(snap.entry("get;pfs").unwrap().self_ns >= 50_000);
        // And the thread is clean for the next request.
        {
            let _root = OpGuard::begin(&p, "put_file");
            let _g = phase("store_io");
        }
        assert_eq!(p.unbalanced(), 1, "no new imbalance");
        assert!(p.snapshot().entry("put_file;store_io").is_some());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "debug_assert fires by design")]
    fn out_of_order_drop_recovers_in_release() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "get");
            let a = phase("pfs");
            let b = phase("crypto_gcm");
            drop(a); // out of order: pops b first (flagged), then a
            drop(b); // already popped: flagged, no double accounting
        }
        assert!(p.unbalanced() >= 1);
        let snap = p.snapshot();
        assert_eq!(snap.entry("get;pfs").unwrap().count, 1);
        assert_eq!(snap.entry("get;pfs;crypto_gcm").unwrap().count, 1);
    }

    #[test]
    fn cross_thread_request_starts_clean() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "put_file");
            let _g = phase("pfs");
            // While this thread is mid-request, another thread's
            // request must not see (or inherit) our stack.
            let p2 = Arc::clone(&p);
            std::thread::spawn(move || {
                let _root = OpGuard::begin(&p2, "get");
                let _g = phase("store_io");
            })
            .join()
            .unwrap();
        }
        let snap = p.snapshot();
        assert_eq!(snap.unbalanced, 0);
        // The other thread's phase hangs off *its* root, not ours.
        assert!(snap.entry("get;store_io").is_some());
        assert!(snap.entry("put_file;get;store_io").is_none());
        assert!(snap.entry("put_file;store_io").is_none());
    }

    #[test]
    fn nested_root_is_inert() {
        let p = Arc::new(Profiler::new());
        {
            let _outer = OpGuard::begin(&p, "put_file");
            {
                // E.g. a metrics span starting inside a profiled frame.
                let _inner = OpGuard::begin(&p, "data");
                let _g = phase("pfs");
            } // inner drop must not close the outer root
            let _g = phase("serialize");
        }
        let snap = p.snapshot();
        assert_eq!(snap.unbalanced, 0);
        assert!(snap.entry("put_file;pfs").is_some());
        assert!(snap.entry("put_file;serialize").is_some());
        assert!(snap.entry("data").is_none());
    }

    #[test]
    fn set_root_op_renames_frame_zero() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "request");
            {
                // Closes (and accumulates) before the rename — like the
                // TLS-record decrypt that reveals the operation.
                let _g = phase("tls_record");
            }
            set_root_op("mk_dir");
            let _g = phase("authz");
        }
        let snap = p.snapshot();
        assert!(snap.entry("mk_dir").is_some());
        assert!(snap.entry("mk_dir;authz").is_some());
        assert!(
            snap.entry("mk_dir;tls_record").is_some(),
            "pre-rename phases must be re-keyed under the final op"
        );
        assert!(snap.entries.iter().all(|e| e.op() != "request"));
    }

    #[test]
    fn request_phases_reads_closed_phases_mid_request() {
        let slot = |v: &PhaseVector, name: &str| v[PHASES.iter().position(|p| *p == name).unwrap()];
        assert_eq!(
            request_phases(),
            PhaseVector::default(),
            "no active root: nothing to read"
        );
        let p = Arc::new(Profiler::new());
        {
            let opened = Instant::now();
            let _root = OpGuard::begin(&p, "get");
            {
                let _a = phase("pfs");
                let _b = phase("crypto_gcm");
                spin_for(300_000);
            }
            charge("lock_wait", 1234);
            spin_for(100_000);
            let v = request_phases();
            assert!(slot(&v, "crypto_gcm").self_ns >= 300_000);
            assert_eq!(
                (slot(&v, "lock_wait").self_ns, slot(&v, "lock_wait").sim_ns),
                (0, 1234)
            );
            assert!(v[0].self_ns >= 100_000, "the root's own time so far");
            // Self times account for the wall-clock since the root opened.
            let total: u64 = v.iter().map(|t| t.self_ns).sum();
            let wall = opened.elapsed().as_nanos() as u64;
            assert!(total <= wall && total >= wall * 9 / 10, "{total} vs {wall}");
        }
        assert_eq!(
            request_phases(),
            PhaseVector::default(),
            "root closed: accumulator flushed"
        );
    }

    #[test]
    fn charge_accumulates_simulated_time_separately() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "put_file");
            {
                let _g = phase("rollback_tree");
                charge("counter_wait", 80_000_000);
            }
            charge("epc_paging", 12_000);
            charge("epc_paging", 0); // no-op
        }
        let snap = p.snapshot();
        let ctr = snap.entry("put_file;rollback_tree;counter_wait").unwrap();
        assert_eq!(ctr.sim_ns, 80_000_000);
        assert_eq!(ctr.self_ns, 0, "simulated time never enters wall clock");
        assert_eq!(snap.entry("put_file;epc_paging").unwrap().sim_ns, 12_000);
        // The wall-clock invariant survives the charges.
        let root = snap.entry("put_file").unwrap();
        let self_sum: u64 = snap.op_entries("put_file").map(|e| e.self_ns).sum();
        assert_eq!(self_sum, root.total_ns);
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let build = |order_swapped: bool| {
            let p = Arc::new(Profiler::new());
            let run = |op| {
                let _root = OpGuard::begin(&p, op);
                let _g = phase("pfs");
            };
            if order_swapped {
                run("get");
                run("put_file");
            } else {
                run("put_file");
                run("get");
            }
            p.snapshot()
        };
        let a = build(false);
        let b = build(true);
        let paths = |s: &ProfSnapshot| {
            s.entries
                .iter()
                .map(ProfEntry::rendered_path)
                .collect::<Vec<_>>()
        };
        assert_eq!(paths(&a), paths(&b), "ordering is insertion-independent");

        let json = a.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"path\": \"put_file;pfs\""), "{json}");
        let collapsed = a.to_collapsed();
        for line in collapsed.lines() {
            let (path, value) = line.rsplit_once(' ').expect("two fields");
            assert!(!path.is_empty());
            value.parse::<u64>().expect("numeric value");
        }
        assert!(collapsed.contains("put_file;pfs "), "{collapsed}");
    }

    #[test]
    fn phase_breakdown_groups_by_leaf() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "put_file");
            {
                let _a = phase("tls_record");
                let _b = phase("crypto_gcm");
                spin_for(300_000);
            }
            {
                let _a = phase("pfs");
                let _b = phase("crypto_gcm");
                spin_for(300_000);
            }
        }
        let snap = p.snapshot();
        let breakdown = snap.phase_breakdown(&["put_file"]);
        let gcm = breakdown
            .iter()
            .find(|(leaf, _)| *leaf == "crypto_gcm")
            .expect("gcm leaf");
        assert!(
            gcm.1 >= 600_000,
            "both crypto_gcm paths fold into one leaf: {breakdown:?}"
        );
        // The dominant phase sorts first.
        assert_eq!(breakdown[0].0, "crypto_gcm");
    }

    #[test]
    fn reset_clears_aggregates() {
        let p = Arc::new(Profiler::new());
        {
            let _root = OpGuard::begin(&p, "get");
        }
        assert!(!p.snapshot().entries.is_empty());
        p.reset();
        assert!(p.snapshot().entries.is_empty());
    }
}
