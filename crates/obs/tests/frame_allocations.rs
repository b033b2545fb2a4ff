//! A profiled request allocates nothing once its thread is warm: phase
//! frames, charges, the root's renaming, the record it carries and the
//! hand-over to the sink all reuse what the first request set up.
//!
//! The global allocator below counts allocations made on the thread
//! that armed it, so the test harness's own threads do not interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use seg_obs::prof::{self, OpGuard};
use seg_obs::{ClosedRoot, Phase, RecordSink, RequestRecord};

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs; counting
// touches only a const-initialised thread-local `Cell`, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// A sink that only counts what it is handed, as the host's would
/// fold it: closed roots, records, frames of one deep path, and the
/// lock wait the record's phase vector would carry.
#[derive(Default)]
struct Counting {
    roots: AtomicU64,
    records: AtomicU64,
    tree_io: AtomicU64,
    lock_wait_ns: AtomicU64,
}

impl RecordSink for Counting {
    fn consume(&self, root: &ClosedRoot<'_>) {
        assert_eq!((root.op, root.unbalanced), ("put_file", false));
        self.roots.fetch_add(1, Ordering::Relaxed);
        self.records
            .fetch_add(u64::from(root.record.is_some()), Ordering::Relaxed);
        let deep = [Phase::RollbackTree, Phase::StoreIo];
        for e in root.paths {
            if prof::path_phases(e.path).eq(deep) {
                self.tree_io.fetch_add(e.count, Ordering::Relaxed);
            }
            if prof::path_phases(e.path).last() == Some(Phase::LockWait) {
                self.lock_wait_ns.fetch_add(e.sim_ns, Ordering::Relaxed);
            }
        }
    }
}

/// One request shaped like an upload: a record opened before the
/// operation is known, nested phases with a recursion collapse, and
/// charges at several depths.
fn request(sink: &Counting) {
    let _root = OpGuard::begin(sink, "request");
    {
        let _tls = prof::phase(Phase::TlsRecord);
        let _gcm = prof::phase(Phase::CryptoGcm);
    }
    prof::set_root_op("put_file");
    {
        let _authz = prof::phase(Phase::Authz);
        let _cache = prof::phase(Phase::CacheLookup);
    }
    {
        let _pfs = prof::phase(Phase::Pfs);
        let _gcm = prof::phase(Phase::CryptoGcm);
        let _again = prof::phase(Phase::CryptoGcm);
        prof::charge(Phase::EpcPaging, 10);
    }
    {
        let _tree = prof::phase(Phase::RollbackTree);
        {
            let _io = prof::phase(Phase::StoreIo);
        }
        prof::charge(Phase::CounterWait, 5);
    }
    prof::charge(Phase::LockWait, 7);
    prof::attach_record(&RequestRecord::open(1, "put_file", 2, 3));
}

#[test]
fn a_warm_request_allocates_nothing() {
    let sink = Counting::default();
    let warm_up = allocations_of(|| request(&sink));
    assert!(warm_up > 0, "the first request sets the thread up");
    let allocations = allocations_of(|| {
        for _ in 0..1_000 {
            request(&sink);
        }
    });
    assert_eq!(allocations, 0, "1 000 warm requests allocated");
    let count = |n: &AtomicU64| n.load(Ordering::Relaxed);
    let handed = [&sink.roots, &sink.records, &sink.tree_io].map(count);
    assert_eq!(handed, [1_001; 3], "roots, records, tree frames");
    assert_eq!(count(&sink.lock_wait_ns), 7 * 1_001, "lock waits");
}
