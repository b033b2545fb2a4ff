//! On a hardware AES-GCM backend, setting a key up and sealing or
//! opening with it allocate nothing: the key schedule and the hash-key
//! powers live inside the `Gcm` value. (The portable backend boxes its
//! GHASH tables and is not checked.)
//!
//! The global allocator below counts allocations made on the thread
//! that armed it, so the test harness's own threads do not interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seg_crypto::gcm::Gcm;

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

#[test]
fn a_hardware_key_allocates_nothing() {
    if Gcm::backend() == "portable" {
        return;
    }
    let mut node = vec![0x3cu8; 4068];
    let round = |node: &mut [u8], key: &[u8]| {
        let gcm = Gcm::new(key).expect("valid key");
        let tag = gcm.seal_in_place(&[1u8; 12], b"aad", node);
        gcm.open_in_place(&[1u8; 12], b"aad", node, &tag)
            .expect("authentic");
    };
    // Warm up: feature detection caches its CPUID answer once.
    round(&mut node, &[0u8; 16]);
    for key_len in [16usize, 24, 32] {
        let key: Vec<u8> = (0..key_len as u8).collect();
        let allocations = allocations_of(|| round(&mut node, &key));
        assert_eq!(allocations, 0, "{key_len}-byte key on {}", Gcm::backend());
    }
}
