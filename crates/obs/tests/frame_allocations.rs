//! A profiled request allocates nothing once its thread is warm: phase
//! frames, charges, the root's renaming and the flush into the shared
//! aggregate all reuse what the first request set up.
//!
//! The global allocator below counts allocations made on the thread
//! that armed it, so the test harness's own threads do not interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use seg_obs::prof::{self, OpGuard};
use seg_obs::{Phase, Profiler};

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

/// One request shaped like an upload: a record opened before the
/// operation is known, nested phases with a recursion collapse, and
/// charges at several depths.
fn request(profiler: &Arc<Profiler>) {
    let _root = OpGuard::begin(profiler, "request");
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
    let phases = prof::request_phases();
    assert_eq!(phases[Phase::LockWait as usize].sim_ns, 7);
}

#[test]
fn a_warm_request_allocates_nothing() {
    let profiler = Arc::new(Profiler::new());
    let warm_up = allocations_of(|| request(&profiler));
    assert!(
        warm_up > 0,
        "the first request sets the thread and aggregate up"
    );
    let allocations = allocations_of(|| {
        for _ in 0..1_000 {
            request(&profiler);
        }
    });
    assert_eq!(allocations, 0, "1 000 warm requests allocated");
    let snap = profiler.snapshot();
    assert_eq!(snap.unbalanced, 0);
    let tree = snap
        .entries
        .iter()
        .find(|e| e.path == ["put_file", "rollback_tree", "store_io"])
        .expect("entry");
    assert_eq!((tree.count, tree.requests), (1_001, 1_001));
    assert!(snap.entries.iter().all(|e| e.path[0] == "put_file"));
}
