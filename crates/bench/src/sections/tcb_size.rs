//! The **§VII-A TCB-size claim**: "the enclave has only 8102 lines of
//! code, and 2376 of these are due to our TLS implementation" (8441
//! including everything, per the contributions list).
//!
//! Renders [`crate::tcb`]'s count of this reproduction's *trusted* code
//! — one row per crate `seg-enclave` links, tests excluded — and of
//! the untrusted host for contrast. The trusted total and the `seg-obs`
//! row are the history row's `tcb_loc` / `telemetry_loc`.

use super::{Ctx, Outcome};
use crate::harness::repo_root;
use crate::json::Json;
use crate::tcb;

/// The rows that stand in for what the SGX SDK provides: its crypto
/// library, and the platform with Intel's protected file system.
const SDK: [&str; 2] = ["seg-crypto", "seg-sgx"];

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (rows, host) = tcb::rows(&repo_root());
    let loc = |name: &str| rows.iter().find(|(n, _)| n == name).map_or(0, |r| r.1);
    let trusted: usize = rows.iter().map(|(_, loc)| loc).sum();
    let untrusted: usize = host.iter().map(|(_, loc)| loc).sum();
    let no_crypto = trusted - loc(SDK[0]);
    let no_sdk = no_crypto - loc(SDK[1]);
    let host_names: Vec<&str> = host.iter().map(|(name, _)| name.as_str()).collect();

    out.say("== §VII-A enclave TCB size ==");
    out.say("paper: 8441 LoC total enclave code; 8102 excl. SDK; 2376 of it TLS");
    out.say("this reproduction (non-blank, non-comment Rust LoC of every workspace crate in");
    out.say(format_args!(
        "`cargo tree -p {} -e normal`, each file up to its #[cfg(test)] module):",
        tcb::ENCLAVE
    ));
    for (name, loc) in &rows {
        out.say(format_args!("  {name:<58} {loc:>6}"));
    }
    out.say(format_args!("  {}", "-".repeat(65)));
    out.say(format_args!("  {:<58} {trusted:>6}", "trusted total"));
    out.say(format_args!(
        "  {:<58} {no_crypto:>6}",
        "  without seg-crypto"
    ));
    out.say(format_args!(
        "  {:<58} {no_sdk:>6}",
        "  without seg-crypto and seg-sgx (the SDK stand-ins)"
    ));
    out.say(format_args!(
        "  {:<58} {untrusted:>6}",
        format!("untrusted: {} (contrast)", host_names.join(", "))
    ));
    out.say("(seg-crypto would be the SDK's crypto library on real SGX, and seg-sgx the");
    out.say(" SDK with Intel's protected file system, as in the paper's 8102)");
    out.json.push((
        "tcb",
        Json::obj([
            ("tcb_loc", Json::from(trusted)),
            ("telemetry_loc", loc("seg-obs").into()),
            ("untrusted_loc", untrusted.into()),
            ("no_crypto_loc", no_crypto.into()),
            ("no_sdk_loc", no_sdk.into()),
            (
                "rows",
                Json::obj(
                    rows.iter()
                        .map(|(name, loc)| (name.as_str(), Json::from(*loc))),
                ),
            ),
        ]),
    ));
    out
}
