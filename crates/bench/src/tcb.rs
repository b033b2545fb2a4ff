//! The honest §VII-A count: non-blank, non-comment Rust lines of
//! everything linked into `SegShareEnclave`, each file read up to its
//! `#[cfg(test)]` module, with telemetry as its own line.

use std::path::Path;

/// The enclave file that is telemetry rather than core: the integrity
/// scrubber.
const ENCLAVE_TELEMETRY: &str = "crates/core/src/enclave/health.rs";

/// The half of `seg-obs` the untrusted host runs: the renderers and
/// queries of records and snapshots that already crossed the boundary.
/// No code the enclave runs may call them (a CI lint greps for it).
const OBS_HOST: &str = "crates/obs/src/render.rs";

/// Label of the telemetry row of [`TRUSTED`].
pub const TELEMETRY: &str = "telemetry (seg-obs registry/record/prof, scrubber)";

/// What executes inside the enclave boundary: `(label, paths counted,
/// paths taken back out)`, relative to the workspace root. The
/// telemetry row is what has to run inside: the registry the request
/// path writes, the record builder's types, the profiler, and the
/// scrubber (it reads plaintext).
pub const TRUSTED: [(&str, &[&str], &[&str]); 9] = [
    (
        "enclave core (handler, ACL, file mgr, tree, audit, locks)",
        &["crates/core/src/enclave"],
        &[ENCLAVE_TELEMETRY],
    ),
    (
        TELEMETRY,
        &["crates/obs/src", ENCLAVE_TELEMETRY],
        &[OBS_HOST],
    ),
    (
        "TLS stack (handshake + record layer)",
        &["crates/tls/src"],
        &[],
    ),
    (
        "crypto primitives (the SDK-crypto equivalent)",
        &["crates/crypto/src"],
        &[],
    ),
    (
        "file-system model (paths, ACL/member-list codecs)",
        &["crates/fs/src"],
        &[],
    ),
    ("wire protocol codec", &["crates/proto/src"], &[]),
    ("certificates and CSRs", &["crates/pki/src"], &[]),
    ("object cache", &["crates/cache/src"], &[]),
    (
        "protected file system (seg-sgx pfs)",
        &["crates/sgx/src/pfs.rs"],
        &[],
    ),
];

/// The untrusted side, for contrast: host, client, stores, transports,
/// and the host's telemetry (its owner in `segshare`, its renderers in
/// `seg-obs`).
pub const UNTRUSTED: [&str; 6] = [
    "crates/core/src/untrusted.rs",
    "crates/core/src/telemetry",
    "crates/core/src/client.rs",
    "crates/store/src",
    "crates/net/src",
    OBS_HOST,
];

/// Non-blank, non-comment lines of one file before its `#[cfg(test)]`
/// module (0 for an unreadable file).
#[must_use]
pub fn count_loc(path: &Path) -> usize {
    let Ok(content) = std::fs::read_to_string(path) else {
        return 0;
    };
    let lines: Vec<&str> = content.lines().map(str::trim).collect();
    let is_mod = |line: &&str| line.starts_with("mod ") || line.starts_with("pub(crate) mod ");
    let tests_at = (0..lines.len())
        .find(|&i| lines[i] == "#[cfg(test)]" && lines.get(i + 1).is_some_and(is_mod))
        .unwrap_or(lines.len());
    let mut in_block_comment = false;
    lines[..tests_at]
        .iter()
        .filter(|line| {
            if in_block_comment {
                in_block_comment = !line.contains("*/");
                return false;
            }
            if line.starts_with("/*") {
                in_block_comment = !line.contains("*/");
                return false;
            }
            !line.is_empty() && !line.starts_with("//")
        })
        .count()
}

/// [`count_loc`] over a file, or over every `.rs` file below a
/// directory.
#[must_use]
pub fn count_path(path: &Path) -> usize {
    match std::fs::read_dir(path) {
        Ok(entries) => entries.flatten().map(|e| count_path(&e.path())).sum(),
        Err(_) if path.extension().is_some_and(|e| e == "rs") => count_loc(path),
        Err(_) => 0,
    }
}

/// Lines per row of [`TRUSTED`] for the workspace at `root`.
#[must_use]
pub fn trusted_rows(root: &Path) -> Vec<(&'static str, usize)> {
    let count = |paths: &[&str]| -> usize { paths.iter().map(|p| count_path(&root.join(p))).sum() };
    TRUSTED
        .iter()
        .map(|(label, paths, minus)| (*label, count(paths) - count(minus)))
        .collect()
}

/// `(tcb_loc, telemetry_loc)` of [`trusted_rows`]: everything in
/// [`TRUSTED`], and its telemetry row alone.
#[must_use]
pub fn totals(rows: &[(&'static str, usize)]) -> (usize, usize) {
    let telemetry = rows.iter().find(|(label, _)| *label == TELEMETRY);
    (
        rows.iter().map(|(_, loc)| loc).sum(),
        telemetry.map_or(0, |(_, loc)| *loc),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_stops_at_the_test_module_and_skips_comments() {
        let dir = std::env::temp_dir().join(format!("seg-tcb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("sample.rs");
        std::fs::write(
            &file,
            "//! docs\n\nuse a::b;\n/* block\n still */\nfn f() {\n    // why\n    g();\n}\n\
             #[cfg(test)]\nfn only_for_tests() {}\n\n\
             #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        )
        .unwrap();
        assert_eq!(count_loc(&file), 6);
        assert_eq!(count_path(&dir), 6);
        std::fs::remove_dir_all(&dir).unwrap();
        // Every listed path exists, so a moved file cannot silently
        // drop out of the count.
        let root = crate::harness::repo_root();
        for path in TRUSTED
            .iter()
            .flat_map(|(_, p, minus)| p.iter().chain(minus.iter()))
            .chain(&UNTRUSTED)
        {
            assert!(count_path(&root.join(path)) > 0, "{path} counts nothing");
        }
    }
}
