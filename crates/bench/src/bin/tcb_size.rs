//! Regenerates the **§VII-A TCB-size claim**: "the enclave has only
//! 8102 lines of code, and 2376 of these are due to our TLS
//! implementation" (8441 including everything, per the contributions
//! list).
//!
//! Prints [`seg_bench::tcb`]'s count of this reproduction's *trusted*
//! code — everything linked into `SegShareEnclave`, tests excluded,
//! telemetry as its own line — and of the untrusted host (its telemetry
//! included) for contrast.
//! `perf_gate` records the same two totals in `BENCH_history.jsonl`.
//!
//! Usage: `tcb_size [--quick]` (the count is instantaneous, so
//! `--quick` is accepted for harness uniformity and changes nothing)

use seg_bench::harness::arg_flag;
use seg_bench::tcb;
use std::path::Path;

fn main() {
    let _ = arg_flag("--quick");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (trusted, telemetry) = tcb::totals(&root);
    let untrusted: usize = tcb::UNTRUSTED
        .iter()
        .map(|p| tcb::count_path(&root.join(p)))
        .sum();

    println!("== §VII-A enclave TCB size ==");
    println!("paper: 8441 LoC total enclave code; 8102 excl. SDK; 2376 of it TLS");
    println!();
    println!("this reproduction (non-blank, non-comment Rust LoC of everything linked into");
    println!("SegShareEnclave, each file up to its #[cfg(test)] module):");
    for (label, loc) in tcb::trusted_rows(&root) {
        println!("  {label:<58} {loc:>6}");
    }
    println!("  {}", "-".repeat(65));
    println!("  {:<58} {trusted:>6}", "trusted total");
    println!("  {:<58} {telemetry:>6}", "  of which telemetry");
    println!(
        "  {:<58} {untrusted:>6}",
        "untrusted host/client/stores/net/telemetry (contrast)"
    );
    println!();
    println!("(the crypto line would be SDK-provided on real SGX, as in the paper; the");
    println!(" telemetry line is what has to run inside — the registry the request path");
    println!(" writes, the record, the trace ring, the profiler, the scrubber — every");
    println!(" consumer of what they hand out is counted on the untrusted line)");
}
