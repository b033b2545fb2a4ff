//! The honest §VII-A count: non-blank, non-comment Rust lines of
//! everything linked into `SegShareEnclave`, each file read up to its
//! `#[cfg(test)]` module.
//!
//! What is linked is what Cargo resolves: one trusted row per workspace
//! crate in `seg-enclave`'s normal-dependency closure. The untrusted
//! line is `segshare`'s closure minus that one. Crates under `vendor/`
//! stand in for crates from the registry and are not counted.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The crate whose closure is the trusted computing base.
pub const ENCLAVE: &str = "seg-enclave";

/// The crate whose closure, minus [`ENCLAVE`]'s, is the untrusted side.
pub const HOST: &str = "segshare";

/// `(crate, lines)` rows, sorted by crate name.
pub type Rows = Vec<(String, usize)>;

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

/// The workspace crates in `package`'s normal-dependency closure
/// (itself included), as `(name, directory)` sorted by name, as
/// `cargo tree` resolves them for the workspace at `root`.
///
/// # Panics
///
/// If `cargo tree` cannot run or fails.
#[must_use]
pub fn closure(root: &Path, package: &str) -> Vec<(String, PathBuf)> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["tree", "--offline", "-e", "normal", "--prefix", "none"])
        .args(["--format", "{p}", "-p", package])
        .output()
        .expect("cargo tree runs");
    assert!(
        out.status.success(),
        "cargo tree -p {package}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let vendor = root.join("vendor");
    let mut crates: Vec<(String, PathBuf)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.split_once(' ')?;
            let dir = PathBuf::from(rest.split_once('(')?.1.split_once(')')?.0);
            dir.starts_with(root).then(|| (name.to_string(), dir))
        })
        .filter(|(_, dir)| !dir.starts_with(&vendor))
        .collect();
    crates.sort();
    crates.dedup();
    crates
}

/// The count: one row per crate of [`ENCLAVE`]'s closure, and one per
/// crate of [`HOST`]'s closure outside it, for the workspace at `root`.
#[must_use]
pub fn rows(root: &Path) -> (Rows, Rows) {
    let count = |crates: Vec<(String, PathBuf)>| -> Rows {
        let lines = |dir: PathBuf| count_path(&dir.join("src"));
        crates
            .into_iter()
            .map(|(name, dir)| (name, lines(dir)))
            .collect()
    };
    let trusted = closure(root, ENCLAVE);
    let untrusted = closure(root, HOST)
        .into_iter()
        .filter(|c| !trusted.contains(c))
        .collect();
    (count(trusted), count(untrusted))
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
    }

    #[test]
    fn the_enclave_links_no_host_crate() {
        let root = crate::harness::repo_root();
        let (trusted, untrusted) = rows(&root);
        let names =
            |rows: &Rows| -> Vec<String> { rows.iter().map(|(name, _)| name.clone()).collect() };
        let (inside, outside) = (names(&trusted), names(&untrusted));
        for name in [ENCLAVE, "seg-crypto", "seg-tls", "seg-obs"] {
            assert!(inside.iter().any(|n| n == name), "{name} not in {inside:?}");
        }
        for name in [HOST, "seg-net", "seg-store", "seg-bench", "seg-baseline"] {
            assert!(!inside.iter().any(|n| n == name), "{name} in {inside:?}");
        }
        for name in &inside {
            assert!(!outside.contains(name), "{name} counted on both lines");
        }
        assert!(trusted.iter().all(|(_, loc)| *loc > 0), "{trusted:?}");
    }

    #[test]
    fn the_enclave_telemetry_row_fits_its_budget() {
        // Inside, telemetry is the phase clock, the record and the sink;
        // every aggregate is folded on the host. 350 lines holds those
        // three with room to spare, and not a registry beside them.
        let (trusted, _) = rows(&crate::harness::repo_root());
        let obs = trusted.iter().find(|(name, _)| name == "seg-obs");
        let loc = obs.map(|&(_, loc)| loc);
        assert!(loc.is_some_and(|loc| loc <= 350), "seg-obs row: {loc:?}");
    }

    #[test]
    fn the_simulator_row_fits_its_budget() {
        // `seg-sgx` stands in for the SGX SDK and Intel's Protected FS
        // library: one writer and one reader of protected files, sealing,
        // attestation and the boundary's cost model. 1 000 lines holds
        // those, and not a second reader beside the first.
        let (trusted, _) = rows(&crate::harness::repo_root());
        let sgx = trusted.iter().find(|(name, _)| name == "seg-sgx");
        let loc = sgx.map(|&(_, loc)| loc);
        assert!(loc.is_some_and(|loc| loc <= 1_000), "seg-sgx row: {loc:?}");
    }

    #[test]
    fn the_store_interface_links_no_telemetry() {
        // The enclave's stores are counted on the host's side of each
        // ocall: the interface the enclave links is the trait, its batch
        // and ticket types, and no counting wrapper.
        let root = crate::harness::repo_root();
        let linked = closure(&root, "seg-store-api");
        assert!(
            linked.iter().all(|(name, _)| name != "seg-obs"),
            "{linked:?}"
        );
        let (trusted, _) = rows(&root);
        let api = trusted.iter().find(|(name, _)| name == "seg-store-api");
        let loc = api.map(|&(_, loc)| loc);
        assert!(
            loc.is_some_and(|loc| loc <= 240),
            "seg-store-api row: {loc:?}"
        );
    }
}
