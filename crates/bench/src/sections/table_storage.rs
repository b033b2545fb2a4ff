//! The **§VII-B storage-overhead table**: encrypted storage for 10 MB
//! and 200 MB plaintext files whose ACLs carry 95 and 1119 entries —
//! and, below the paper's sizes, for 1 KiB to 1 MiB files, where the
//! node granularity of the Protected-FS format decides the cost.
//!
//! Paper: 10 MB → 10.11 MB / 10.15 MB (1.12 % / 1.48 %);
//!        200 MB → 202.09 MB / 202.13 MB (1.05 % / 1.06 %).
//!
//! Two views: the *analytic* Protected-FS node model (instant, any
//! size) and the *measured* bytes in the content store after a real
//! upload through the full stack. `--quick` leaves the 200 MB rows out.

use std::sync::Arc;

use seg_fs::Perm;
use seg_sgx::pfs;
use seg_store::{MemStore, ObjectStore};
use segshare::{EnclaveConfig, FsoSetup};

use super::{Ctx, Outcome};
use crate::harness::Rig;
use crate::json::Json;

const SMALL: [u64; 4] = [1 << 10, 4 << 10, 16 << 10, 1 << 20];
/// The paper's rows: plaintext bytes, ACL entries, what it reports.
const PAPER: [(u64, usize, &str); 4] = [
    (10_000_000, 95, "10.11 MB (1.12%)"),
    (10_000_000, 1119, "10.15 MB (1.48%)"),
    (200_000_000, 95, "202.09 MB (1.05%)"),
    (200_000_000, 1119, "202.13 MB (1.06%)"),
];

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

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.say("== §VII-B storage overhead ==");
    out.say("paper: 10 MB file -> 10.11 / 10.15 MB (95 / 1119 ACL entries);");
    out.say("       200 MB file -> 202.09 / 202.13 MB (1.05% / 1.06%)");

    out.say("analytic Protected-FS model (4 KiB nodes, data in the header node, tag tree):");
    out.say(format_args!(
        "{:>10} | {:>6} | {:>14} | {:>9} | {:>7}",
        "plaintext", "nodes", "encrypted", "overhead", "x plain"
    ));
    for plain in SMALL.into_iter().chain([10_000_000u64, 200_000_000]) {
        let enc = pfs::encrypted_size(plain);
        out.say(format_args!(
            "{:>10} | {:>6} | {:>14} | {:>8.2}% | {:>7.3}",
            size_label(plain),
            enc / pfs::NODE_LEN as u64,
            stored_label(enc),
            (enc - plain) as f64 / plain as f64 * 100.0,
            enc as f64 / plain as f64
        ));
    }

    // Small files carry the ACL every file has (its owner, no further
    // entry): what one more file of that size costs a store.
    let small = SMALL.iter().map(|&plain| (plain, 0, "-"));
    let paper = PAPER
        .into_iter()
        .filter(|&(plain, ..)| !ctx.quick || plain < 200_000_000);
    out.say("measured through the full stack (content store bytes):");
    out.say(format_args!(
        "{:>10} {:>12} | {:>14} {:>14} {:>10} | {:>9} | paper",
        "plaintext", "ACL entries", "content-store", "per-file", "audit", "overhead"
    ));
    let mut rows = Vec::new();
    for (plain, entries, paper) in small.chain(paper) {
        let content = Arc::new(MemStore::new());
        let rig = Rig::over(FsoSetup::with_stores(
            "bench-ca",
            EnclaveConfig::default(),
            seg_sgx::Platform::new_with_seed(1),
            Arc::clone(&content) as Arc<dyn ObjectStore>,
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        ));
        let mut a = rig.client();
        let empty_system = content.total_bytes().unwrap();
        a.put("/the-file", &vec![0x11u8; plain as usize]).unwrap();
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
        let acl = match entries {
            0 => "owner only".to_string(),
            n => n.to_string(),
        };
        out.say(format_args!(
            "{:>10} {acl:>12} | {:>14} {:>14} {:>10} | {:>8.2}% | {paper}",
            size_label(plain),
            stored_label(total),
            stored_label(per_file),
            stored_label(audit_bytes),
            (per_file as f64 - plain as f64) / plain as f64 * 100.0,
        ));
        rows.push(Json::obj([
            ("plain_bytes", Json::from(plain)),
            ("acl_entries", entries.into()),
            ("per_file_bytes", per_file.into()),
            ("audit_bytes", audit_bytes.into()),
        ]));
    }
    out.say("(per-file: the blob, its ACL node, two ~90-byte hash records and root-directory");
    out.say(" growth; audit: sealed records, which grow per decision, not per stored byte)");
    out.json
        .push(("storage", Json::obj([("rows", Json::Arr(rows))])));
    out
}
