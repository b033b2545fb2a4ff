//! Documentation link checker.
//!
//! Walks every Markdown file in the repository and verifies that each
//! relative link resolves: the target file must exist, and when the
//! link carries a `#fragment`, the target must contain a heading whose
//! GitHub-style anchor slug matches. External links (`http://`,
//! `https://`, `mailto:`) are out of scope — CI must not depend on the
//! network — but a dead cross-reference between the handbook, the
//! design doc, and the architecture doc fails the build.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directories never scanned (build output, vendored code, VCS).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "data", "results"];

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; the repo root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn collect_markdown(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_markdown(&path, out);
            }
        } else if name.ends_with(".md") {
            out.push(path);
        }
    }
}

/// GitHub's heading-to-anchor slug: lowercase, spaces become hyphens,
/// everything that is not alphanumeric / hyphen / underscore is dropped.
fn slug(heading: &str) -> String {
    let mut s = String::with_capacity(heading.len());
    for ch in heading.trim().chars() {
        if ch.is_alphanumeric() || ch == '_' || ch == '-' {
            for lc in ch.to_lowercase() {
                s.push(lc);
            }
        } else if ch == ' ' {
            s.push('-');
        }
    }
    s
}

/// Anchors defined by a Markdown file: one per ATX heading, skipping
/// fenced code blocks (a `# comment` inside ```sh is not a heading).
fn anchors_of(text: &str) -> BTreeSet<String> {
    let mut anchors = BTreeSet::new();
    let mut in_fence = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            let title = rest.trim_start_matches('#');
            if title.starts_with(' ') || title.is_empty() {
                anchors.insert(slug(title));
            }
        }
    }
    anchors
}

/// Extract `[text](target)` link targets, skipping fenced code blocks
/// and inline code spans.
fn link_targets(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_code = false;
        while i < bytes.len() {
            match bytes[i] {
                b'`' => in_code = !in_code,
                b']' if !in_code && i + 1 < bytes.len() && bytes[i + 1] == b'(' => {
                    if let Some(close) = line[i + 2..].find(')') {
                        let target = &line[i + 2..i + 2 + close];
                        out.push((lineno + 1, target.to_string()));
                        i += 2 + close;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

#[test]
fn all_relative_markdown_links_resolve() {
    let root = repo_root();
    let mut files = Vec::new();
    collect_markdown(&root, &mut files);
    files.sort();
    assert!(
        files.iter().any(|f| f.ends_with("OPERATIONS.md")),
        "OPERATIONS.md must exist (operator's handbook)"
    );

    let mut failures = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("markdown file reads");
        let dir = file.parent().unwrap();
        for (lineno, target) in link_targets(&text) {
            // External schemes and bare images are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, fragment) = match target.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (target.as_str(), None),
            };
            let rel = file.strip_prefix(&root).unwrap_or(file).display();
            // Resolve the file part (empty = same document).
            let resolved_text = if path_part.is_empty() {
                text.clone()
            } else {
                let resolved = dir.join(path_part);
                if !resolved.exists() {
                    failures.push(format!("{rel}:{lineno}: dead link target `{target}`"));
                    continue;
                }
                if !path_part.ends_with(".md") || fragment.is_none() {
                    continue;
                }
                std::fs::read_to_string(&resolved).expect("link target reads")
            };
            if let Some(frag) = fragment {
                if !anchors_of(&resolved_text).contains(frag) {
                    failures.push(format!(
                        "{rel}:{lineno}: dead anchor `#{frag}` in `{target}`"
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "dead documentation links:\n{}",
        failures.join("\n")
    );
}

#[test]
fn handbook_is_cross_linked() {
    let root = repo_root();
    for doc in ["README.md", "ARCHITECTURE.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc reads");
        assert!(
            text.contains("OPERATIONS.md"),
            "{doc} must link to the operator's handbook"
        );
    }
}

/// The `seg_*` family names in the first column of the tables between
/// OPERATIONS.md's "Metrics reference" heading and the next `## `.
fn documented_families(handbook: &str) -> BTreeSet<String> {
    let (_, reference) = handbook
        .split_once("\n## Metrics reference")
        .expect("the handbook has a metrics reference");
    let reference = reference.split("\n## ").next().unwrap_or("");
    let rows = reference.lines().filter(|l| l.starts_with("| `seg_"));
    // Backticked pieces are the odd ones of a split on '`'.
    rows.flat_map(|row| {
        row.split('|')
            .nth(1)
            .unwrap_or("")
            .split('`')
            .skip(1)
            .step_by(2)
    })
    .map(str::to_string)
    .collect()
}

#[test]
fn metrics_reference_equals_the_export() {
    // Both directions: a family the server exports and the handbook
    // does not explain is as wrong as a documented one nothing emits.
    let handbook = std::fs::read_to_string(repo_root().join("OPERATIONS.md")).expect("reads");
    let documented = documented_families(&handbook);

    let config = segshare::EnclaveConfig {
        cache: true,
        ..segshare::EnclaveConfig::default()
    };
    let setup = segshare::FsoSetup::new_in_memory("doc-ca", config);
    let server = setup.server().expect("setup");
    let alice = setup
        .enroll_user("alice", "alice@acme.example", "Alice")
        .expect("enroll");
    // One connection: a write, a cached read, and a request that fails
    // (the error family has no series before the first error).
    let mut a = server.connect_local(&alice).expect("connect");
    a.put("/doc", b"body").expect("put");
    assert_eq!(a.get("/doc").expect("get"), b"body");
    assert_eq!(a.get("/doc").expect("cached get"), b"body");
    assert!(a.get("/missing").is_err());

    let snap = server.metrics_snapshot();
    let ids = snap.counters.iter().map(|(id, _)| id.name());
    let ids = ids.chain(snap.gauges.iter().map(|(id, _)| id.name()));
    let exported: BTreeSet<String> = ids
        .chain(snap.histograms.iter().map(|(id, _)| id.name()))
        .map(str::to_string)
        .collect();

    let undocumented: Vec<_> = exported.difference(&documented).collect();
    let ghosts: Vec<_> = documented.difference(&exported).collect();
    assert!(
        undocumented.is_empty() && ghosts.is_empty(),
        "OPERATIONS.md \"Metrics reference\" and metrics_snapshot() disagree:\n\
         exported but undocumented: {undocumented:?}\n\
         documented but never exported: {ghosts:?}"
    );
}

/// The `## title` section of `doc`, its heading included, up to the
/// next `## ` heading.
fn section<'d>(doc: &'d str, title: &str) -> &'d str {
    let heading = format!("\n## {title}\n");
    let start = doc.find(&heading).map(|at| at + 1);
    let start = start.unwrap_or_else(|| panic!("OPERATIONS.md has a \"{title}\" section"));
    let end = doc[start + 1..]
        .find("\n## ")
        .map_or(doc.len(), |at| start + 1 + at);
    &doc[start..end]
}

#[test]
fn every_reference_row_links_a_playbook() {
    // A number is exported because an operator can act on it: every
    // family row of the metrics reference and every section of the
    // report links the playbook, burn-rate rule or health state that
    // reads it.
    let handbook = std::fs::read_to_string(repo_root().join("OPERATIONS.md")).expect("reads");
    let usable: BTreeSet<String> = ["The health state machine", "Incident playbooks"]
        .into_iter()
        .flat_map(|title| anchors_of(section(&handbook, title)))
        .collect();
    assert!(usable.contains("burn-rate-alert-rules"), "{usable:?}");

    let families = section(&handbook, "Metrics reference and alert guidance")
        .lines()
        .filter(|l| l.starts_with("| `seg_"));
    let report = section(&handbook, "The report")
        .lines()
        .filter(|l| l.starts_with("| `"));
    let rows: Vec<&str> = families.chain(report).collect();
    assert!(rows.len() > 30, "the tables were found: {rows:?}");
    let unlinked: Vec<&str> = rows
        .into_iter()
        .filter(|row| {
            !link_targets(row)
                .iter()
                .any(|(_, target)| target.strip_prefix('#').is_some_and(|a| usable.contains(a)))
        })
        .collect();
    assert!(
        unlinked.is_empty(),
        "rows of OPERATIONS.md no playbook, alert rule or health state uses:\n{}",
        unlinked.join("\n")
    );
}
