//! The bulk path allocates a bounded number of bytes per payload byte:
//! each chunk travels in one buffer per hop. A warm 1 MiB `put` over
//! `connect_local` may allocate at most 5.5 bytes per user byte — the
//! client's record, the virtual queue's copy, the enclave's `[in]` copy,
//! the pfs writer's blob and the store's copy — and a warm `get` at most
//! 3.5 — the blob read out of the store, the record each chunk is
//! decrypted into and sealed in, and the body the client assembles.
//!
//! The global allocator below counts bytes on every thread (client,
//! reactor workers and whatever else the server runs), and a `realloc`
//! counts only the bytes it grows by; the binary holds this one test,
//! so nothing else allocates beside it. CI runs it under `--release`
//! with the AES-GCM suites, though the counts do not depend on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use segshare::{EnclaveConfig, FsoSetup};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs; counting
// touches only two atomics, which neither allocate nor run destructors.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated, on any thread, while `f` runs.
fn bytes_allocated(f: impl FnOnce()) -> u64 {
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    BYTES.load(Ordering::Relaxed)
}

const BODY: usize = 1 << 20;
const ROUNDS: usize = 4;

/// Bytes allocated per user byte by a warm 1 MiB put and a warm 1 MiB
/// get, with the enclave cache on or off.
fn per_user_byte(cache: bool) -> (f64, f64) {
    let setup = FsoSetup::new_in_memory(
        "bulk",
        EnclaveConfig {
            cache,
            ..EnclaveConfig::default()
        },
    );
    let server = setup.server().expect("server");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    let mut client = server.connect_local(&alice).expect("connect");
    let body: Vec<u8> = (0..BODY).map(|i| (i % 251) as u8).collect();
    client.mkdir("/bulk/").expect("mkdir");
    // Warm: the file exists, every thread and buffer is set up.
    for _ in 0..2 {
        client.put("/bulk/f", &body).expect("warm put");
        assert_eq!(client.get("/bulk/f").expect("warm get"), body);
    }
    let put = bytes_allocated(|| {
        for _ in 0..ROUNDS {
            client.put("/bulk/f", &body).expect("put");
        }
    });
    let mut got = Vec::new();
    let get = bytes_allocated(|| {
        for _ in 0..ROUNDS {
            got = client.get("/bulk/f").expect("get");
        }
    });
    assert_eq!(got, body);
    let user_bytes = (ROUNDS * BODY) as f64;
    (put as f64 / user_bytes, get as f64 / user_bytes)
}

#[test]
fn a_warm_bulk_put_and_get_allocate_a_few_bytes_per_user_byte() {
    for cache in [false, true] {
        let (put, get) = per_user_byte(cache);
        println!("cache {cache}: put {put:.2} B/B, get {get:.2} B/B");
        assert!(put <= 5.5, "cache {cache}: a put allocated {put:.2} B/B");
        assert!(get <= 3.5, "cache {cache}: a get allocated {get:.2} B/B");
    }
}
