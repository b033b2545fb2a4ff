//! A `WalStore` write copies its value in once: a warm 1 MiB `put`
//! allocates its value's `Arc`, which the index and an open transaction
//! share, and the frame it is encoded into, whether it commits alone or
//! inside a transaction sealed around it. The bound is 2.5 bytes per
//! user byte.
//!
//! The global allocator below counts bytes on every thread (the caller
//! and the group-commit thread), and a `realloc` counts only the bytes
//! it grows by; the binary holds this one test, so nothing else
//! allocates beside it. Checkpoints are off: they are not a put's cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use seg_store::{ObjectStore, WalConfig, WalStore};

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

const BODY: usize = 1 << 20;
const ROUNDS: usize = 4;

/// Bytes allocated per user byte, on any thread, by `ROUNDS` warm puts
/// of `body`, each inside its own transaction if `tx`.
fn per_user_byte(store: &WalStore, body: &[u8], tx: bool) -> f64 {
    let put = || {
        if tx {
            store.tx_begin();
        }
        store.put("bulk/f", body).expect("put");
        if tx {
            let ticket = store.tx_seal().expect("seal").expect("open tx");
            ticket.wait().expect("durable");
        }
    };
    // Warm: the key exists and the committer thread is running.
    put();
    put();
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    for _ in 0..ROUNDS {
        put();
    }
    ARMED.store(false, Ordering::Relaxed);
    BYTES.load(Ordering::Relaxed) as f64 / (ROUNDS * BODY) as f64
}

#[test]
fn a_warm_wal_put_allocates_one_value_copy_and_one_frame() {
    let dir = std::env::temp_dir().join(format!("seg-wal-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = WalStore::open_with(
        &dir,
        WalConfig {
            checkpoint_bytes: u64::MAX,
            ..WalConfig::default()
        },
    )
    .expect("open");
    let body: Vec<u8> = (0..BODY).map(|i| (i % 251) as u8).collect();
    for tx in [false, true] {
        let per_byte = per_user_byte(&store, &body, tx);
        println!("transaction {tx}: put {per_byte:.2} B/B");
        assert!(
            per_byte <= 2.5,
            "transaction {tx}: a put allocated {per_byte:.2} B/B"
        );
    }
    assert_eq!(store.get("bulk/f").expect("get"), Some(body));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
