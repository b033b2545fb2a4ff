//! The section table: everything the harness measures, in run order.
//!
//! A section is a module with one `run` function. It builds its rigs
//! through [`Rig`], measures each thing once, and returns an
//! [`Outcome`]: the gated rows it timed, its members of
//! `BENCH_perf.json`, its log (which is also its rendering under
//! `results/`, where it has one) and the hard gates it failed.
//! `perf_gate` runs the table and writes every file; nothing else in the
//! crate measures anything.

use std::fmt::Display;

use crate::harness::{fmt_s, Measured, Rig};
use crate::json::Json;

pub mod ablations;
pub mod c10k;
pub mod cache;
pub mod concurrency;
pub mod crypto;
pub mod durability;
pub mod fig5_rollback;
pub mod membership;
pub mod meter;
pub mod profile;
pub mod table3_features;
pub mod table_storage;
pub mod tcb_size;
pub mod telemetry;
pub mod updown;

/// What a section leaves under `results/`, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Only its log and its members of `BENCH_perf.json`.
    None,
    /// Its log, under the provenance line, as `results/<name>.txt`.
    Rendering,
    /// [`Outcome::dump`] verbatim as `results/<file>` (a format another
    /// tool reads: no header).
    Dump(&'static str),
}

/// One row of the table.
pub struct Section {
    /// What `--only` selects it by, and the stem of its rendering.
    pub name: &'static str,
    /// The file it claims under `results/`.
    pub output: Output,
    /// Measures and reports.
    pub run: fn(&Ctx) -> Outcome,
}

impl Section {
    const fn new(name: &'static str, output: Output, run: fn(&Ctx) -> Outcome) -> Section {
        Section { name, output, run }
    }
}

/// What every section is handed.
pub struct Ctx<'a> {
    /// `--quick`: each section's smaller scale.
    pub quick: bool,
    /// Measured runs per gated row (3 under `--quick`, else 10).
    pub runs: usize,
    /// The serial-mix rig: `updown`, `membership` and `telemetry` run on
    /// it in turn, as they always have, and `profile` reports what its
    /// enclave saw. Paper-prototype configuration.
    pub main: &'a Rig,
    /// The gated rows of the sections before this one (Fig. 3's 1 MB
    /// point is `updown`'s pair).
    pub rows: &'a [(&'static str, Measured)],
}

/// What a section hands back.
#[derive(Default)]
pub struct Outcome {
    /// Gated rows: compared with `results/bench_baseline.json`, recorded
    /// under `"workloads"` and in the history row.
    pub rows: Vec<(&'static str, Measured)>,
    /// Top-level members of `BENCH_perf.json`.
    pub json: Vec<(&'static str, Json)>,
    /// Everything [`Outcome::say`] printed.
    pub text: String,
    /// The body of an [`Output::Dump`] file.
    pub dump: String,
    /// Hard gates that failed, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Prints `line` now (a sweep that takes minutes shows progress) and
    /// keeps it for the rendering.
    pub fn say(&mut self, line: impl Display) {
        println!("{line}");
        self.text.push_str(&format!("{line}\n"));
    }

    /// Records a gated row.
    pub fn row(&mut self, name: &'static str, measured: Measured) {
        self.say(format_args!(
            "  {name:<20} mean={:<10} ci95={:<10} warmup={}",
            fmt_s(measured.mean_s),
            fmt_s(measured.ci95_s()),
            fmt_s(measured.warmup_s),
        ));
        self.rows.push((name, measured));
    }
}

/// The table, in run order: the gated sections first, in the order they
/// have always run, so every gated row (and the c10k resident-set
/// reading, which a process that has held a 200 MB file understates)
/// sees the process state it always saw; then the sections that gate
/// nothing, the sweep that takes minutes last.
pub const SECTIONS: [Section; 17] = [
    Section::new("updown", Output::None, updown::run),
    Section::new("membership", Output::None, membership::run),
    Section::new("cache", Output::None, cache::run),
    Section::new("telemetry", Output::Dump("report.json"), telemetry::run),
    Section::new("meter", Output::None, meter::run),
    Section::new("durability", Output::None, durability::run),
    Section::new("c10k", Output::None, c10k::run),
    Section::new("concurrency", Output::None, concurrency::run),
    Section::new("profile", Output::Dump("flame_perf.txt"), profile::run),
    Section::new("crypto", Output::None, crypto::run),
    Section::new("tcb_size", Output::Rendering, tcb_size::run),
    Section::new("fig3_updown", Output::Rendering, updown::figure),
    Section::new("fig4_membership", Output::Rendering, membership::figure),
    Section::new("table_storage", Output::Rendering, table_storage::run),
    Section::new("table3_features", Output::Rendering, table3_features::run),
    Section::new("ablations", Output::Rendering, ablations::run),
    Section::new("fig5_rollback", Output::Rendering, fig5_rollback::run),
];

/// The gate's own file under `results/`: read by every run, written by
/// `--update-baseline`, claimed by no section.
pub const BASELINE: &str = "bench_baseline.json";

/// The sections `--only a,b` names, in table order; all of them without
/// the flag.
///
/// # Errors
///
/// An unknown name, with the names there are.
pub fn select(only: Option<&str>) -> Result<Vec<&'static Section>, String> {
    let Some(list) = only else {
        return Ok(SECTIONS.iter().collect());
    };
    let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !SECTIONS.iter().any(|s| s.name == **w))
    {
        let names: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
        return Err(format!(
            "no section named {unknown:?}; the sections are: {}",
            names.join(", ")
        ));
    }
    Ok(SECTIONS
        .iter()
        .filter(|s| wanted.contains(&s.name))
        .collect())
}

/// The first line of a rendering: which run of which tree wrote it.
#[must_use]
pub fn provenance(section: &str, commit: &str, runs: usize) -> String {
    format!(
        "# {section} @ {commit} runs={runs} gcm={} sha={}",
        seg_crypto::gcm::Gcm::backend(),
        seg_crypto::sha256::Sha256::backend()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn results() -> std::path::PathBuf {
        crate::harness::repo_root().join("results")
    }

    fn claimed(section: &Section) -> Option<String> {
        match section.output {
            Output::None => None,
            Output::Rendering => Some(format!("{}.txt", section.name)),
            Output::Dump(file) => Some(file.to_string()),
        }
    }

    #[test]
    fn every_results_file_has_exactly_one_claimant() {
        let names: BTreeSet<&str> = SECTIONS.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), SECTIONS.len(), "section names are unique");
        let mut files: Vec<String> = SECTIONS.iter().filter_map(claimed).collect();
        files.push(BASELINE.to_string());
        let claimed: BTreeSet<String> = files.iter().cloned().collect();
        assert_eq!(claimed.len(), files.len(), "a file is claimed twice");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results())
            .expect("results/ exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(on_disk, claimed, "results/ holds what one run writes");
    }

    #[test]
    fn only_selects_in_table_order_and_refuses_an_unknown_name() {
        assert_eq!(select(None).unwrap().len(), SECTIONS.len());
        let picked = select(Some("fig5_rollback, crypto")).unwrap();
        let names: Vec<&str> = picked.iter().map(|s| s.name).collect();
        assert_eq!(names, ["crypto", "fig5_rollback"]);
        let refused = select(Some("crypto,fig6")).err().unwrap();
        assert!(refused.contains("\"fig6\""), "{refused}");
        for section in &SECTIONS {
            assert!(refused.contains(section.name), "{refused}");
        }
    }

    #[test]
    fn every_rendering_names_the_one_recorded_run() {
        let mut commits = BTreeSet::new();
        for section in &SECTIONS {
            if section.output != Output::Rendering {
                continue;
            }
            let file = format!("{}.txt", section.name);
            let text = std::fs::read_to_string(results().join(&file)).expect(&file);
            let header = text.lines().next().unwrap_or_default();
            let fields: Vec<&str> = header.split(' ').collect();
            assert!(
                matches!(fields[..], ["#", name, "@", _, runs, gcm, sha]
                    if name == section.name && runs.starts_with("runs=")
                        && gcm.starts_with("gcm=") && sha.starts_with("sha=")),
                "{file} starts with {header:?}, not a provenance line"
            );
            commits.insert(fields[3].to_string());
        }
        assert_eq!(commits.len(), 1, "one run wrote them all: {commits:?}");
        let commit = commits.into_iter().next().unwrap();
        let history = std::fs::read_to_string(results().join("../BENCH_history.jsonl")).unwrap();
        let recorded = history.lines().any(|row| {
            crate::json::parse(row)
                .is_ok_and(|r| r.get("commit").and_then(Json::as_str) == Some(commit.as_str()))
        });
        assert!(recorded, "{commit} is no row of BENCH_history.jsonl");
    }
}
