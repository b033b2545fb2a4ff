//! The **§VII-A TCB-size claim**: "the enclave has only 8102 lines of
//! code, and 2376 of these are due to our TLS implementation" (8441
//! including everything, per the contributions list).
//!
//! Renders [`crate::tcb`]'s count of this reproduction's *trusted* code
//! — everything linked into `SegShareEnclave`, tests excluded,
//! telemetry as its own line — and of the untrusted host (its telemetry
//! included) for contrast. The two totals are the history row's
//! `tcb_loc` / `telemetry_loc`.

use super::{Ctx, Outcome};
use crate::harness::repo_root;
use crate::json::Json;
use crate::tcb;

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let root = repo_root();
    let rows = tcb::trusted_rows(&root);
    let (trusted, telemetry) = tcb::totals(&rows);
    let untrusted: usize = tcb::UNTRUSTED
        .iter()
        .map(|p| tcb::count_path(&root.join(p)))
        .sum();

    out.say("== §VII-A enclave TCB size ==");
    out.say("paper: 8441 LoC total enclave code; 8102 excl. SDK; 2376 of it TLS");
    out.say("this reproduction (non-blank, non-comment Rust LoC of everything linked into");
    out.say("SegShareEnclave, each file up to its #[cfg(test)] module):");
    for (label, loc) in &rows {
        out.say(format_args!("  {label:<58} {loc:>6}"));
    }
    out.say(format_args!("  {}", "-".repeat(65)));
    out.say(format_args!("  {:<58} {trusted:>6}", "trusted total"));
    out.say(format_args!(
        "  {:<58} {telemetry:>6}",
        "  of which telemetry"
    ));
    out.say(format_args!(
        "  {:<58} {untrusted:>6}",
        "untrusted host/client/stores/net/telemetry (contrast)"
    ));
    out.say("(the crypto line would be SDK-provided on real SGX, as in the paper; the");
    out.say(" telemetry line is what has to run inside — the registry the request path");
    out.say(" writes, the record, the profiler, the scrubber — every consumer and");
    out.say(" renderer of what they hand out is counted on the untrusted line)");
    out.json.push((
        "tcb",
        Json::obj([
            ("tcb_loc", Json::from(trusted)),
            ("telemetry_loc", telemetry.into()),
            ("untrusted_loc", untrusted.into()),
            (
                "rows",
                Json::obj(rows.iter().map(|&(label, loc)| (label, Json::from(loc)))),
            ),
        ]),
    ));
    out
}
