//! Regenerates the **§VII-B storage-overhead table**: encrypted storage
//! for 10 MB and 200 MB plaintext files whose ACLs carry 95 and 1119
//! entries — and, below the paper's sizes, for 1 KiB to 1 MiB files,
//! where the node granularity of the Protected-FS format decides the
//! cost.
//!
//! Paper: 10 MB → 10.11 MB / 10.15 MB (1.12 % / 1.48 %);
//!        200 MB → 202.09 MB / 202.13 MB (1.05 % / 1.06 %).
//!
//! Two views are printed: the *analytic* Protected-FS node model
//! (instant, any size) and the *measured* bytes in the content store
//! after a real upload through the full stack.
//!
//! Usage: `table_storage [--quick]`

use std::sync::Arc;

use seg_bench::harness::{arg_flag, print_metrics_sidecar};
use seg_fs::Perm;
use seg_sgx::pfs;
use seg_store::{MemStore, ObjectStore};
use segshare::{EnclaveConfig, FsoSetup};

/// `1 KiB`, `16 KiB`, `1 MiB`, `10 MB`: each size in the unit it is round in.
fn size_label(bytes: u64) -> String {
    if bytes.is_multiple_of(1_000_000) {
        format!("{} MB", bytes / 1_000_000)
    } else if bytes.is_multiple_of(1 << 20) {
        format!("{} MiB", bytes >> 20)
    } else {
        format!("{} KiB", bytes >> 10)
    }
}

/// Stored bytes the way a size reads best: kB below a megabyte.
fn stored_label(bytes: u64) -> String {
    if bytes < 1_000_000 {
        format!("{:.2} kB", bytes as f64 / 1e3)
    } else {
        format!("{:.2} MB", bytes as f64 / 1e6)
    }
}

const SMALL: [u64; 4] = [1 << 10, 4 << 10, 16 << 10, 1 << 20];

fn main() {
    println!("== §VII-B storage overhead ==");
    println!("paper: 10 MB file -> 10.11 / 10.15 MB (95 / 1119 ACL entries);");
    println!("       200 MB file -> 202.09 / 202.13 MB (1.05% / 1.06%)");
    println!();

    // ---- analytic node model (exact, instant) ------------------------
    println!("analytic Protected-FS model (4 KiB nodes, data in the header node, tag tree):");
    println!(
        "{:>10} | {:>6} | {:>14} | {:>9} | {:>7}",
        "plaintext", "nodes", "encrypted", "overhead", "x plain"
    );
    for plain in SMALL.into_iter().chain([10_000_000u64, 200_000_000]) {
        let enc = pfs::encrypted_size(plain);
        println!(
            "{:>10} | {:>6} | {:>14} | {:>8.2}% | {:>7.3}",
            size_label(plain),
            enc / pfs::NODE_LEN as u64,
            stored_label(enc),
            (enc - plain) as f64 / plain as f64 * 100.0,
            enc as f64 / plain as f64
        );
    }
    println!();

    // ---- measured through the full stack ------------------------------
    // Small files carry the ACL every file has (its owner, no further
    // entry): what one more file of that size costs a store.
    let mut sizes: Vec<(u64, &[usize])> = SMALL.iter().map(|&plain| (plain, &[0][..])).collect();
    sizes.push((10_000_000, &[95, 1119]));
    if !arg_flag("--quick") {
        sizes.push((200_000_000, &[95, 1119]));
    }

    println!("measured through the full stack (content store bytes):");
    println!(
        "{:>10} {:>12} | {:>14} {:>14} | {:>9} | paper",
        "plaintext", "ACL entries", "content-store", "per-file", "overhead"
    );
    for (plain, acl_sizes) in sizes {
        for &entries in acl_sizes {
            let content = Arc::new(MemStore::new());
            let setup = FsoSetup::with_stores(
                "ca",
                EnclaveConfig::paper_prototype(),
                seg_sgx::Platform::new_with_seed(1),
                Arc::clone(&content) as Arc<dyn ObjectStore>,
                Arc::new(MemStore::new()),
                Arc::new(MemStore::new()),
            );
            let server = setup.server().unwrap();
            let alice = setup.enroll_user("alice", "a@x", "A").unwrap();
            let mut a = server.connect_local(&alice).unwrap();

            let empty_system = content.total_bytes().unwrap();
            let payload = vec![0x11u8; plain as usize];
            a.put("/the-file", &payload).unwrap();
            for g in 0..entries {
                a.set_perm("/the-file", &format!("group-{g:05}"), Perm::Read)
                    .unwrap();
            }
            let total = content.total_bytes().unwrap();
            // The audit trail also lives in the content store but grows
            // with *operations* (one sealed record per decision), not
            // with stored bytes — attribute it separately so the
            // per-file column stays comparable to the paper's table.
            let audit_bytes: u64 = content
                .list()
                .unwrap()
                .iter()
                .filter(|k| k.starts_with("!audit"))
                .map(|k| content.get(k).unwrap().map_or(0, |v| v.len() as u64))
                .sum();
            // Attribute to the file: everything beyond the empty system
            // (the file blob, its ACL, hash records, root-dir growth).
            let per_file = total - empty_system - audit_bytes;
            let overhead = (per_file as f64 - plain as f64) / plain as f64 * 100.0;
            let paper = match (plain, entries) {
                (10_000_000, 95) => "10.11 MB (1.12%)",
                (10_000_000, 1119) => "10.15 MB (1.48%)",
                (200_000_000, 95) => "202.09 MB (1.05%)",
                (200_000_000, 1119) => "202.13 MB (1.06%)",
                _ => "-",
            };
            println!(
                "{:>10} {:>12} | {:>14} {:>14} | {:>8.2}% | {paper}",
                size_label(plain),
                match entries {
                    0 => "owner only".to_string(),
                    n => n.to_string(),
                },
                stored_label(total),
                stored_label(per_file),
                overhead
            );
            println!(
                "  audit trail: {:.1} kB sealed records (grows per decision, not per byte)",
                audit_bytes as f64 / 1e3
            );
            // One sidecar per paper row; the small rows would only repeat it.
            if entries > 0 {
                print_metrics_sidecar(&server);
            }
        }
    }
    println!();
    println!("(shape: ~1% overhead dominated by Protected-FS node framing; a few");
    println!(" extra kB for the ACL file and rollback-tree hash records, growing");
    println!(" mildly with ACL entries — matching the paper's 1.05-1.48% band.");
    println!(" Below ~100 kB the 4 KiB node decides: a file up to 4,047 bytes and");
    println!(" its ACL are one node each, a 4 KiB file is two nodes — the floor of");
    println!(" a node-padded layout — and the per-file column adds the ACL node and");
    println!(" two ~90-byte hash records)");
}
