//! Regenerates the **§VII-A TCB-size claim**: "the enclave has only
//! 8102 lines of code, and 2376 of these are due to our TLS
//! implementation" (8441 including everything, per the contributions
//! list).
//!
//! Counts non-blank, non-comment Rust lines of this reproduction's
//! *trusted* code — everything that would live inside the enclave — and
//! of the untrusted host for contrast.
//!
//! Usage: `tcb_size [--quick]` (run from the workspace root; the LoC
//! count is instantaneous, so `--quick` is accepted for harness
//! uniformity and changes nothing)

use seg_bench::harness::arg_flag;
use std::path::Path;

fn count_loc(path: &Path) -> usize {
    let Ok(content) = std::fs::read_to_string(path) else {
        return 0;
    };
    let mut in_block_comment = false;
    content
        .lines()
        .filter(|line| {
            let trimmed = line.trim();
            if in_block_comment {
                if trimmed.contains("*/") {
                    in_block_comment = false;
                }
                return false;
            }
            if trimmed.starts_with("/*") {
                in_block_comment = !trimmed.contains("*/");
                return false;
            }
            !trimmed.is_empty() && !trimmed.starts_with("//") && !trimmed.starts_with("#![doc")
        })
        .count()
}

fn count_dir(dir: &Path, acc: &mut Vec<(String, usize)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            count_dir(&path, acc);
        } else if path.extension().is_some_and(|e| e == "rs") {
            acc.push((path.display().to_string(), count_loc(&path)));
        }
    }
}

fn total<S: AsRef<str>>(dirs: &[S]) -> (usize, Vec<(String, usize)>) {
    let mut acc = Vec::new();
    for dir in dirs {
        let path = Path::new(dir.as_ref());
        if path.is_file() {
            let n = count_loc(path);
            acc.push((path.display().to_string(), n));
        } else {
            count_dir(path, &mut acc);
        }
    }
    let sum = acc.iter().map(|(_, n)| n).sum();
    (sum, acc)
}

fn main() {
    // Static count — already instantaneous; accepted so every bench bin
    // takes the flag (CI invokes them uniformly).
    let _ = arg_flag("--quick");
    // Resolve the workspace root regardless of the invocation cwd.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.to_string_lossy();
    let at = |rel: &str| format!("{root}/{rel}");

    // Trusted: everything that runs inside the enclave boundary.
    let (enclave_core, _) = total(&[&at("crates/core/src/enclave")]);
    let (tls, _) = total(&[&at("crates/tls/src")]);
    let (crypto, _) = total(&[&at("crates/crypto/src")]);
    let (fs_model, _) = total(&[&at("crates/fs/src")]);
    // Untrusted: host, stores, transports, client.
    let (untrusted, _) = total(&[
        &at("crates/core/src/untrusted.rs"),
        &at("crates/core/src/client.rs"),
        &at("crates/store/src"),
        &at("crates/net/src"),
    ]);

    let trusted = enclave_core + tls + crypto + fs_model;
    println!("== §VII-A enclave TCB size ==");
    println!("paper: 8441 LoC total enclave code; 8102 excl. SDK; 2376 of it TLS");
    println!();
    println!("this reproduction (non-blank, non-comment Rust LoC, tests included):");
    println!("  enclave core (request handler, ACL, file mgr, tree): {enclave_core:>6}");
    println!("  TLS stack (handshake + record layer):                {tls:>6}");
    println!("  crypto primitives (the SDK-crypto equivalent):       {crypto:>6}");
    println!("  file-system model (paths, ACL/member-list codecs):   {fs_model:>6}");
    println!("  -------------------------------------------------------------");
    println!("  trusted total:                                       {trusted:>6}");
    println!("  untrusted host/client/stores/transports (contrast):  {untrusted:>6}");
    println!();
    println!("(same order of magnitude as the paper's 8.4 kLoC enclave; the");
    println!(" crypto line would be SDK-provided on real SGX, as in the paper)");
}
