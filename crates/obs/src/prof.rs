//! `seg-prof`: request-scoped phase clock.
//!
//! Attributes every request's wall-clock to a static tree of *phases*
//! (`tls_record`, `authn`, `authz`, `crypto_gcm`, `pfs`,
//! `rollback_tree`, `store_io`, `serialize`, ...). A thread-local stack
//! of nested phase frames is opened by an [`OpGuard`] root (one per
//! request) and grown by [`phase`] calls anywhere down the stack — the
//! lower layers need no reference to anything; when no root is active
//! on the thread, [`phase`] is a no-op, so client-side code paths cost
//! nothing. When the root closes, its per-path times go to the
//! [`RecordSink`] it was opened against, once, as a [`ClosedRoot`]; the
//! host folds them into the per-(operation, phase-path) profile.
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
//! # Cost
//!
//! A phase is a [`Phase`], and a frame's path below the root is a
//! [`Path`]: a `u64` of 4-bit phase ids, the outermost frame in the low
//! nibble. Slot 0, [`Phase::Own`], is never a frame, so a zero nibble
//! ends a path and the root's path is 0. A frame is two clock reads and
//! an add into a per-thread accumulator keyed by that number, which
//! keeps its capacity from one request to the next: a frame allocates
//! nothing, and neither does handing the accumulator to the sink, which
//! borrows it. Paths are turned back into names only on the host.

use std::cell::RefCell;
use std::time::Instant;

use crate::record::{ClosedRoot, Phase, RecordSink, RequestRecord};

/// Phase stacks deeper than this, root included, stop growing (further
/// [`phase`] calls are inert). Sixteen is several times the static
/// phase tree's height; hitting it means runaway recursion, not data.
/// Its 15 phase frames and a charge at the top fill a path's 16 nibbles.
const MAX_DEPTH: usize = 16;

/// A phase path below the root: one [`Phase`] id per nibble, outermost
/// frame lowest, 0 for the root itself.
pub type Path = u64;

/// `path` with `phase` appended at `level` (0 = directly below the root).
fn child_path(path: Path, level: usize, phase: Phase) -> Path {
    path | (phase as u64) << (4 * level)
}

/// The phases of `path`, outermost first.
pub fn path_phases(path: Path) -> impl Iterator<Item = Phase> {
    (0..16)
        .map(move |level| (path >> (4 * level)) & 0xf)
        .take_while(|&id| id != 0)
        .map(|id| Phase::ALL[id as usize])
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// One open phase frame on the thread's stack.
struct Frame {
    path: Path,
    /// The frame's phase ([`Phase::Own`] for the root).
    phase: Phase,
    start: Instant,
    /// Sum of direct children's total time, subtracted for self time.
    child_ns: u64,
}

/// What one root spent under one path, accumulated while it is open and
/// handed to the sink once when it closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathTime {
    /// The path below the root (0 = the root itself).
    pub path: Path,
    /// Frame enter/exit count (collapsed re-entries count once).
    pub count: u64,
    /// Wall-clock self time (total minus direct children).
    pub self_ns: u64,
    /// Wall-clock total time.
    pub total_ns: u64,
    /// Simulated time charged under this path.
    pub sim_ns: u64,
}

/// The thread's profiler state. A root is active exactly while `frames`
/// is non-empty; `frames[0]` is the root.
struct ThreadProf {
    op: &'static str,
    frames: Vec<Frame>,
    acc: Vec<PathTime>,
    /// Whether the open request's stack needed recovery (a phase guard
    /// leaked or dropped out of order).
    unbalanced: bool,
    /// The open request's record, riding the root's close.
    record: Option<RequestRecord>,
}

impl ThreadProf {
    const fn new() -> ThreadProf {
        ThreadProf {
            op: "",
            frames: Vec::new(),
            acc: Vec::new(),
            unbalanced: false,
            record: None,
        }
    }

    fn accumulate(&mut self, path: Path, self_ns: u64, total_ns: u64, sim_ns: u64) {
        if let Some(e) = self.acc.iter_mut().find(|e| e.path == path) {
            e.count += 1;
            e.self_ns += self_ns;
            e.total_ns += total_ns;
            e.sim_ns += sim_ns;
        } else {
            self.acc.push(PathTime {
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
        let frame = self.frames.pop().expect("pop_frame on empty stack");
        let total = elapsed_ns(frame.start);
        let self_ns = total.saturating_sub(frame.child_ns);
        if let Some(parent) = self.frames.last_mut() {
            parent.child_ns += total;
        }
        self.accumulate(frame.path, self_ns, total, 0);
    }
}

thread_local! {
    static TLS: RefCell<ThreadProf> = const { RefCell::new(ThreadProf::new()) };
}

/// Root guard for one profiled request: installs the operation as frame
/// zero of this thread's phase stack; dropping it closes the frame and
/// hands the sink the request's accumulated phases (and its record, if
/// [`attach_record`] gave it one) in one call.
#[must_use = "dropping the guard ends the profiled request"]
pub struct OpGuard<'s> {
    /// The sink this root closes into; `None` for an inert guard.
    sink: Option<&'s dyn RecordSink>,
}

impl<'s> OpGuard<'s> {
    /// Opens a request root for `op`. If this thread already has an
    /// active root (a nested span inside a profiled request), the
    /// returned guard is inert — the outer root keeps owning the stack.
    pub fn begin(sink: &'s dyn RecordSink, op: &'static str) -> OpGuard<'s> {
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if !t.frames.is_empty() {
                return OpGuard { sink: None };
            }
            t.op = op;
            t.frames.push(Frame {
                path: 0,
                phase: Phase::Own,
                start: Instant::now(),
                child_ns: 0,
            });
            OpGuard { sink: Some(sink) }
        })
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        let Some(sink) = self.sink else {
            return;
        };
        // The accumulator leaves the thread state for the call, so a
        // sink that reaches back into this module finds it idle.
        let (op, mut acc, unbalanced, record) = TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.frames.len() != 1 {
                // Leaked phase guards: close them so their time is
                // still attributed, and flag the imbalance.
                debug_assert!(t.frames.len() > 1, "root frame vanished");
                t.unbalanced = true;
            }
            while !t.frames.is_empty() {
                t.pop_frame();
            }
            let acc = std::mem::take(&mut t.acc);
            let unbalanced = std::mem::take(&mut t.unbalanced);
            (t.op, acc, unbalanced, t.record.take())
        });
        sink.consume(&ClosedRoot {
            op,
            paths: &acc,
            unbalanced,
            record: record.as_ref(),
        });
        acc.clear();
        TLS.with(|t| t.borrow_mut().acc = acc);
    }
}

/// Runs `f` on the thread's state if a root is active.
fn with_root(f: impl FnOnce(&mut ThreadProf)) {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if !t.frames.is_empty() {
            f(&mut t);
        }
    });
}

/// Renames the current request's root operation (frame zero). Used when
/// the operation only becomes known mid-request — e.g. after the
/// request is decrypted and decoded. `op` must be a compiled-in name.
/// Phases that already closed under the old name land under the new
/// one too: paths do not name the root. No-op without an active root.
pub fn set_root_op(op: &'static str) {
    with_root(|t| t.op = op);
}

/// Hands the current root the request's closed record: it leaves with
/// the root's phases when the root closes, in the same call. No-op
/// without an active root.
pub fn attach_record(record: &RequestRecord) {
    with_root(|t| t.record = Some(*record));
}

/// RAII guard for one phase frame; see [`phase`].
#[derive(Debug)]
#[must_use = "dropping the guard exits the phase"]
pub struct PhaseGuard {
    /// Expected stack depth after our frame was pushed (0 = inert).
    depth: usize,
    phase: Phase,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.frames.is_empty() {
                return;
            }
            if t.frames.len() < self.depth {
                // Our frame is already gone — a sibling recovery popped
                // it. Nothing left to account.
                debug_assert!(false, "phase {:?} exited twice", self.phase);
                t.unbalanced = true;
                return;
            }
            if t.frames.len() > self.depth {
                // Children leaked their guards; close them first so the
                // nesting accounting stays consistent.
                debug_assert!(false, "unbalanced phases inside {:?}", self.phase);
                t.unbalanced = true;
                while t.frames.len() > self.depth {
                    t.pop_frame();
                }
            }
            debug_assert_eq!(
                t.frames.last().map(|f| f.phase),
                Some(self.phase),
                "phase stack corrupted"
            );
            t.pop_frame();
        });
    }
}

/// Enters `phase` on the current thread's stack; the returned guard
/// exits it on drop. A no-op (inert guard) when no request root is
/// active on this thread, when the phase directly re-enters the one
/// already on top (recursion collapse), past `MAX_DEPTH`, or for
/// [`Phase::Own`], which is the root's and never a frame.
pub fn phase(phase: Phase) -> PhaseGuard {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let depth = t.frames.len();
        let path = match t.frames.last() {
            Some(top) if top.phase != phase && phase != Phase::Own && depth < MAX_DEPTH => {
                child_path(top.path, depth - 1, phase)
            }
            _ => return PhaseGuard { depth: 0, phase },
        };
        t.frames.push(Frame {
            path,
            phase,
            start: Instant::now(),
            child_ns: 0,
        });
        PhaseGuard {
            depth: depth + 1,
            phase,
        }
    })
}

/// Charges `ns` of *simulated* time (EPC paging, monotonic-counter
/// latency) to the sub-phase `phase` under the current phase path.
/// Simulated time is kept out of the wall-clock self/total accounting;
/// exports report it in a separate `sim_ns` channel. No-op without an
/// active root, and for [`Phase::Own`].
pub fn charge(phase: Phase, ns: u64) {
    if ns == 0 || phase == Phase::Own {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let depth = t.frames.len();
        if let Some(top) = t.frames.last() {
            let path = child_path(top.path, depth - 1, phase);
            t.accumulate(path, 0, 0, ns);
        }
    });
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// Keeps every closed root as the host receives it.
    #[derive(Default)]
    struct Roots(Mutex<Vec<Kept>>);

    /// One closed root: its op, paths, unbalanced flag and the request
    /// id of the record that rode it.
    type Kept = (&'static str, Vec<PathTime>, bool, Option<u64>);

    impl RecordSink for Roots {
        fn consume(&self, root: &ClosedRoot<'_>) {
            let id = root.record.map(|r| r.request_id);
            let kept = (root.op, root.paths.to_vec(), root.unbalanced, id);
            self.0.lock().unwrap().push(kept);
        }
    }

    impl Roots {
        /// Every kept path as `op;phase;...`, with its times.
        fn entries(&self) -> Vec<(String, PathTime)> {
            let roots = self.0.lock().unwrap();
            let mut out: Vec<(String, PathTime)> = roots
                .iter()
                .flat_map(|(op, paths, ..)| {
                    paths.iter().map(move |e| {
                        let names = path_phases(e.path).map(Phase::name);
                        let rendered: Vec<&str> = std::iter::once(*op).chain(names).collect();
                        (rendered.join(";"), *e)
                    })
                })
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }

        /// The times at `rendered`, summed over every kept root.
        fn entry(&self, rendered: &str) -> Option<PathTime> {
            let found = self.entries().into_iter().filter(|(r, _)| r == rendered);
            found.map(|(_, e)| e).reduce(|a, b| PathTime {
                count: a.count + b.count,
                self_ns: a.self_ns + b.self_ns,
                total_ns: a.total_ns + b.total_ns,
                sim_ns: a.sim_ns + b.sim_ns,
                ..a
            })
        }

        /// Self time summed over `op`'s paths.
        fn self_sum(&self, op: &str) -> u64 {
            let entries = self.entries().into_iter();
            let of_op = entries.filter(|(r, _)| r.split(';').next() == Some(op));
            of_op.map(|(_, e)| e.self_ns).sum()
        }

        /// Roots that closed unbalanced.
        fn unbalanced(&self) -> usize {
            self.0.lock().unwrap().iter().filter(|r| r.2).count()
        }
    }

    fn spin_for(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn phases_without_root_are_noops() {
        let g = phase(Phase::CryptoGcm);
        assert_eq!(g.depth, 0, "no root: an inert guard");
        charge(Phase::LockWait, 5);
        drop(g);
        // Nothing of it reaches the next root.
        let p = Roots::default();
        drop(OpGuard::begin(&p, "get"));
        let paths: Vec<Path> = p.0.lock().unwrap()[0].1.iter().map(|e| e.path).collect();
        assert_eq!(paths, [0], "the root's own path only");
    }

    #[test]
    fn nested_self_times_sum_to_root_total() {
        let p = Roots::default();
        {
            let _root = OpGuard::begin(&p, "put_file");
            {
                let _a = phase(Phase::Pfs);
                spin_for(200_000);
                {
                    let _b = phase(Phase::CryptoGcm);
                    spin_for(400_000);
                }
            }
            {
                let _c = phase(Phase::StoreIo);
                spin_for(100_000);
            }
        }
        assert_eq!(p.unbalanced(), 0);
        let root = p.entry("put_file").expect("root entry");
        // By construction self times sum to the root total exactly.
        assert_eq!(p.self_sum("put_file"), root.total_ns);
        // And the nested phases carry their own time.
        assert!(p.entry("put_file;pfs;crypto_gcm").unwrap().self_ns >= 400_000);
        assert!(p.entry("put_file;pfs").unwrap().self_ns >= 200_000);
        assert!(p.entry("put_file;store_io").unwrap().self_ns >= 100_000);
        // Parent total covers its children.
        let pfs = p.entry("put_file;pfs").unwrap();
        assert!(pfs.total_ns >= pfs.self_ns + 400_000);
    }

    #[test]
    fn the_depth_cap_fills_every_nibble_and_stops_there() {
        let p = Roots::default();
        let alternate = |level: usize| [Phase::Pfs, Phase::CryptoGcm][level % 2];
        {
            let _root = OpGuard::begin(&p, "get");
            let frames: Vec<PhaseGuard> = (0..MAX_DEPTH - 1).map(|l| phase(alternate(l))).collect();
            assert!(frames.iter().all(|g| g.depth > 0));
            charge(Phase::LockWait, 99);
            let over = phase(Phase::StoreIo);
            assert_eq!(over.depth, 0, "one past the cap is inert");
            spin_for(50_000);
            drop(over);
            for frame in frames.into_iter().rev() {
                drop(frame);
            }
        }
        assert_eq!(p.unbalanced(), 0);
        let mut deepest = vec!["get"];
        deepest.extend((0..MAX_DEPTH - 1).map(|l| alternate(l).name()));
        deepest.push("lock_wait");
        let entries = p.entries();
        let (path, charged) = entries.last().expect("entries");
        assert_eq!(
            *path,
            deepest.join(";"),
            "15 frames and a charge, all named"
        );
        assert_eq!((charged.sim_ns, charged.self_ns), (99, 0));
        assert!(entries.iter().all(|(r, _)| !r.contains("store_io")));
        assert_eq!(entries.len(), MAX_DEPTH + 1, "root, 15 frames, charge");
        assert_eq!(p.self_sum("get"), p.entry("get").unwrap().total_ns);
    }

    #[test]
    fn direct_recursion_collapses_into_open_frame() {
        let p = Roots::default();
        {
            let _root = OpGuard::begin(&p, "get");
            let _outer = phase(Phase::CryptoGcm);
            for _ in 0..100 {
                let _inner = phase(Phase::CryptoGcm); // collapsed
            }
        }
        let e = p.entry("get;crypto_gcm").expect("collapsed entry");
        assert_eq!(e.count, 1, "re-entries collapse into one frame");
        assert!(p.entry("get;crypto_gcm;crypto_gcm").is_none());
        assert_eq!(p.unbalanced(), 0);
    }

    #[test]
    fn leaked_guard_is_detected_and_recovered() {
        let p = Roots::default();
        {
            let _root = OpGuard::begin(&p, "get");
            let g = phase(Phase::Pfs);
            std::mem::forget(g); // never exits
            spin_for(50_000);
        }
        // Root drop recovered: popped the leaked frame, flagged it.
        assert_eq!(p.unbalanced(), 1);
        // The leaked frame's time was still attributed.
        assert!(p.entry("get;pfs").unwrap().self_ns >= 50_000);
        // And the thread is clean for the next request.
        {
            let _root = OpGuard::begin(&p, "put_file");
            let _g = phase(Phase::StoreIo);
        }
        assert_eq!(p.unbalanced(), 1, "no new imbalance");
        assert!(p.entry("put_file;store_io").is_some());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "debug_assert fires by design")]
    fn out_of_order_drop_recovers_in_release() {
        let p = Roots::default();
        {
            let _root = OpGuard::begin(&p, "get");
            let a = phase(Phase::Pfs);
            let b = phase(Phase::CryptoGcm);
            drop(a); // out of order: pops b first (flagged), then a
            drop(b); // already popped: flagged, no double accounting
        }
        assert!(p.unbalanced() >= 1);
        assert_eq!(p.entry("get;pfs").unwrap().count, 1);
        assert_eq!(p.entry("get;pfs;crypto_gcm").unwrap().count, 1);
    }

    #[test]
    fn cross_thread_request_starts_clean() {
        let p = Roots::default();
        {
            let _root = OpGuard::begin(&p, "put_file");
            let _g = phase(Phase::Pfs);
            // While this thread is mid-request, another thread's
            // request must not see (or inherit) our stack.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _root = OpGuard::begin(&p, "get");
                    let _g = phase(Phase::StoreIo);
                });
            });
        }
        assert_eq!(p.unbalanced(), 0);
        // The other thread's phase hangs off *its* root, not ours.
        assert!(p.entry("get;store_io").is_some());
        assert!(p.entry("put_file;get;store_io").is_none());
        assert!(p.entry("put_file;store_io").is_none());
    }

    #[test]
    fn nested_root_is_inert() {
        let p = Roots::default();
        {
            let _outer = OpGuard::begin(&p, "put_file");
            {
                // E.g. a metrics span starting inside a profiled frame.
                let _inner = OpGuard::begin(&p, "data");
                let _g = phase(Phase::Pfs);
            } // inner drop must not close the outer root
            let _g = phase(Phase::Serialize);
        }
        assert_eq!(p.unbalanced(), 0);
        assert!(p.entry("put_file;pfs").is_some());
        assert!(p.entry("put_file;serialize").is_some());
        assert!(p.entry("data").is_none());
        assert_eq!(p.0.lock().unwrap().len(), 1, "one root closed");
    }

    #[test]
    fn set_root_op_renames_frame_zero() {
        let p = Roots::default();
        {
            let _root = OpGuard::begin(&p, "request");
            {
                // Closes (and accumulates) before the rename — like the
                // TLS-record decrypt that reveals the operation.
                let _g = phase(Phase::TlsRecord);
            }
            set_root_op("mk_dir");
            let _g = phase(Phase::Authz);
        }
        assert!(p.entry("mk_dir").is_some());
        assert!(p.entry("mk_dir;authz").is_some());
        assert!(
            p.entry("mk_dir;tls_record").is_some(),
            "pre-rename phases must be re-keyed under the final op"
        );
        assert!(p.entries().iter().all(|(r, _)| !r.starts_with("request")));
    }

    #[test]
    fn charge_accumulates_simulated_time_separately() {
        let p = Roots::default();
        {
            let _root = OpGuard::begin(&p, "put_file");
            {
                let _g = phase(Phase::RollbackTree);
                charge(Phase::CounterWait, 80_000_000);
            }
            charge(Phase::EpcPaging, 12_000);
            charge(Phase::EpcPaging, 0); // no-op
        }
        let ctr = p.entry("put_file;rollback_tree;counter_wait").unwrap();
        assert_eq!(ctr.sim_ns, 80_000_000);
        assert_eq!(ctr.self_ns, 0, "simulated time never enters wall clock");
        assert_eq!(p.entry("put_file;epc_paging").unwrap().sim_ns, 12_000);
        // The wall-clock invariant survives the charges.
        let root = p.entry("put_file").unwrap();
        assert_eq!(p.self_sum("put_file"), root.total_ns);
    }

    #[test]
    fn reset_clears_aggregates() {
        // The thread's accumulator is the one aggregate inside: a
        // closed root hands it over once, and the next root starts from
        // nothing, its record included.
        let p = Roots::default();
        attach_record(&RequestRecord::open(6, "get", 1, 2));
        {
            let _root = OpGuard::begin(&p, "get");
            let _g = phase(Phase::Pfs);
            attach_record(&RequestRecord::open(7, "get", 1, 2));
        }
        {
            let _root = OpGuard::begin(&p, "get");
        }
        let roots = p.0.lock().unwrap();
        assert_eq!(roots.len(), 2);
        assert_eq!(
            (roots[0].1.len(), roots[0].3),
            (2, Some(7)),
            "root, pfs, record"
        );
        assert_eq!((roots[1].1.len(), roots[1].3), (1, None), "the root alone");
    }
}
