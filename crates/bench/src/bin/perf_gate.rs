//! The one benchmark program: runs the section table
//! ([`seg_bench::sections::SECTIONS`]) and writes everything a run
//! leaves behind.
//!
//! * `BENCH_perf.json` — every section's members plus `"workloads"`
//!   (the gated rows: mean, spread, warm-up, all raw seconds on this
//!   machine) and `"wall_s"` (what each section took);
//! * one row of `BENCH_history.jsonl`, with the delta against the
//!   previous row printed;
//! * every file under `results/`: the sections' renderings (the paper's
//!   figures and tables), each under a provenance line naming this run,
//!   and the raw dumps (`flame_perf.txt`, `report.json`);
//! * the verdict: the sections' hard gates, and each gated row against
//!   the committed `results/bench_baseline.json`.
//!
//! The row gate is noise-aware: a row fails only if its regression
//! exceeds `max(15 %, 3 × CI95, 50 µs)` of the baseline mean, so
//! run-to-run jitter cannot fail CI while a real slowdown still trips
//! it. The baseline is this build machine's; refresh it with
//! `--update-baseline` when the machine or the code's speed changes on
//! purpose.
//!
//! Only a full run of every section is the record: it alone writes the
//! tracked files and appends a history row. A `--quick` run (the CI
//! setting: 3 runs per row, each section's smaller scale) writes the
//! same files under `target/bench-quick/`, a full-scale `--only` run
//! under `target/bench-only/`, and neither appends a row.
//!
//! Usage: `perf_gate [--quick] [--update-baseline] [--only <section>[,<section>]]`

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use seg_bench::harness::{fmt_s, repo_root, Measured, Rig};
use seg_bench::history;
use seg_bench::json::{self, Json};
use seg_bench::sections::{provenance, select, Ctx, Output, BASELINE};
use seg_crypto::gcm::Gcm;
use seg_crypto::sha256::Sha256;
use segshare::EnclaveConfig;

/// Regressions below this fraction of the baseline never fail the gate.
const MIN_THRESHOLD: f64 = 0.15;
/// Noise guard: regressions under `CI_MULTIPLIER × CI95 / baseline`
/// don't fail either.
const CI_MULTIPLIER: f64 = 3.0;
/// Absolute slack in seconds. Sub-millisecond admin ops
/// (membership update, revocation) drift 20 %+ between processes from
/// scheduler/frequency noise that within-run CI95 cannot see; 50 µs of
/// slack absorbs that without weakening the gate where it
/// matters (50 µs is ~3 % of a 1 MB upload).
const ABS_SLACK_S: f64 = 50e-6;

const USAGE: &str = "usage: perf_gate [--quick] [--update-baseline] [--only <section>[,<section>]]";

fn usage_error(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2)
}

fn write(path: &Path, contents: &str) {
    std::fs::create_dir_all(path.parent().expect("a file path")).expect("output directory");
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let (mut quick, mut update_baseline, mut only) = (false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--update-baseline" => update_baseline = true,
            "--only" => match args.next() {
                Some(list) => only = Some(list),
                None => usage_error("--only needs a section name"),
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let sections = select(only.as_deref()).unwrap_or_else(|unknown| usage_error(&unknown));
    let runs = if quick { 3 } else { 10 };
    let root = repo_root();
    // Only a full run of every section is the record.
    let recorded = !quick && only.is_none();
    let out_root = match (recorded, quick) {
        (true, _) => root.clone(),
        (false, true) => root.join("target/bench-quick"),
        (false, false) => root.join("target/bench-only"),
    };
    let commit = history::commit(&root);

    println!("== perf gate == {commit}, {runs} runs per gated row");
    println!("AES-GCM backend: {}", Gcm::backend());
    println!("SHA-256 backend: {}", Sha256::backend());

    let main_rig = Rig::new(EnclaveConfig::default());
    let mut report: BTreeMap<String, Json> = BTreeMap::new();
    let mut rows: Vec<(&'static str, Measured)> = Vec::new();
    let mut failures = Vec::new();
    let mut wall_s = Vec::new();
    let started = Instant::now();
    for section in &sections {
        println!("-- section {} --", section.name);
        let start = Instant::now();
        let out = (section.run)(&Ctx {
            quick,
            runs,
            main: &main_rig,
            rows: &rows,
        });
        wall_s.push((section.name, start.elapsed().as_secs_f64()));
        rows.extend(out.rows);
        report.extend(out.json.into_iter().map(|(k, v)| (k.to_string(), v)));
        failures.extend(out.failures);
        match section.output {
            Output::None => {}
            Output::Rendering => {
                let header = provenance(section.name, &commit, runs);
                let rendering = format!("{header}\n{}", out.text);
                let file = format!("{}.txt", section.name);
                write(&out_root.join("results").join(file), &rendering);
            }
            Output::Dump(file) => write(&out_root.join("results").join(file), &out.dump),
        }
    }
    println!("-- wall time --");
    for (name, seconds) in &wall_s {
        println!("  {name:<16} {seconds:>8.1} s");
    }
    println!(
        "  {:<16} {:>8.1} s",
        "total",
        started.elapsed().as_secs_f64()
    );

    report.insert("gcm_backend".into(), Gcm::backend().into());
    report.insert("sha256_backend".into(), Sha256::backend().into());
    let wall = wall_s.iter().map(|&(name, s)| (name, Json::num(s, 1)));
    report.insert("wall_s".into(), Json::obj(wall));
    let workloads = rows.iter().map(|(name, m)| {
        let stats = Json::obj([
            ("mean_s", Json::num(m.mean_s, 9)),
            ("sd_s", Json::num(m.sd_s, 9)),
            ("ci95_s", Json::num(m.ci95_s(), 9)),
            ("warmup_s", Json::num(m.warmup_s, 9)),
            ("runs", m.runs.into()),
        ]);
        (*name, stats)
    });
    report.insert("workloads".into(), Json::obj(workloads));
    let report = Json::Obj(report);
    let pretty = report.to_pretty().expect("a report holds finite numbers");
    write(&out_root.join("BENCH_perf.json"), &pretty);

    if recorded {
        println!("-- trajectory (BENCH_history.jsonl, vs the previous row) --");
        let row = history_row(&report, &commit, runs, &rows);
        history::record(&root.join("BENCH_history.jsonl"), &row)
            .expect("append BENCH_history.jsonl");
    } else {
        println!("not the record: no BENCH_history.jsonl row, nothing tracked was written");
    }

    println!("-- gate --");
    if update_baseline {
        let ops = rows.iter().map(|(name, m)| {
            let stats = [("mean_s", m.mean_s), ("ci95_s", m.ci95_s())];
            (*name, Json::obj(stats.map(|(k, v)| (k, Json::num(v, 9)))))
        });
        let baseline = Json::obj([
            ("taken_at", Json::from(commit.as_str())),
            ("runs", runs.into()),
            ("ops", Json::obj(ops)),
        ]);
        let pretty = baseline.to_pretty().expect("finite means");
        write(&out_root.join("results").join(BASELINE), &pretty);
    } else {
        match std::fs::read_to_string(root.join("results").join(BASELINE)) {
            Ok(text) => {
                let baseline = json::parse(&text).expect("baseline parses");
                failures.extend(check_rows(&rows, &baseline));
            }
            Err(_) => println!(
                "no results/{BASELINE} — run with --update-baseline to create one (the row gate \
                 passes vacuously)"
            ),
        }
    }
    if failures.is_empty() {
        println!(
            "perf gate PASSED ({} sections, {} gated rows)",
            sections.len(),
            rows.len()
        );
    } else {
        for f in &failures {
            println!("perf gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// The `BENCH_history.jsonl` row of a full run (fields: `history`'s
/// module docs), read off the report the sections built.
fn history_row(report: &Json, commit: &str, runs: usize, rows: &[(&str, Measured)]) -> Json {
    let member = |section: &str, key: &str| {
        let found = report.get(section).and_then(|s| s.get(key));
        found.cloned().expect("a full run ran the section")
    };
    let phases = report.get("phases").and_then(Json::as_obj);
    let phases_ns = phases.into_iter().flatten().map(|(leaf, phase)| {
        let self_ns = phase.get("self_ns").cloned();
        (leaf.as_str(), self_ns.expect("a phase has a self time"))
    });
    let means_s = rows.iter().map(|(name, m)| (*name, Json::num(m.mean_s, 9)));
    Json::obj([
        ("commit", Json::from(commit)),
        ("gcm_backend", Gcm::backend().into()),
        ("sha256_backend", Sha256::backend().into()),
        ("runs", runs.into()),
        ("gcm_mb_per_s", member("crypto", "gcm_mb_per_s")),
        ("gcm_node_us", member("crypto", "gcm_node_us")),
        ("gcm_new_ns", member("crypto", "gcm_new_ns")),
        ("hmac_us", member("crypto", "hmac_us")),
        ("tcb_loc", member("tcb", "tcb_loc")),
        ("telemetry_loc", member("tcb", "telemetry_loc")),
        ("means_s", Json::obj(means_s)),
        ("phases_ns", Json::obj(phases_ns)),
    ])
}

/// Compares each gated row's mean against the baseline.
/// Returns human-readable failure lines (empty = pass).
fn check_rows(rows: &[(&str, Measured)], baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(ops) = baseline.get("ops").and_then(Json::as_obj) else {
        return vec!["baseline has no \"ops\" object".to_string()];
    };
    for (name, measured) in rows {
        let Some(base) = ops.get(*name) else {
            println!("  {name:<20} new row (no baseline entry) — skipped");
            continue;
        };
        let base_mean = base.get("mean_s").and_then(Json::as_f64).unwrap_or(0.0);
        let base_ci = base.get("ci95_s").and_then(Json::as_f64).unwrap_or(0.0);
        if base_mean <= 0.0 {
            continue;
        }
        let mean_s = measured.mean_s;
        let regression = (mean_s - base_mean) / base_mean;
        // Noise-aware threshold: whichever is largest of the fixed 15 %
        // floor, 3× the wider of the two runs' confidence intervals,
        // and the absolute slack — all relative to the baseline mean.
        let ci = measured.ci95_s().max(base_ci);
        let threshold = MIN_THRESHOLD
            .max(CI_MULTIPLIER * ci / base_mean)
            .max(ABS_SLACK_S / base_mean);
        let failed = regression > threshold;
        println!(
            "  {name:<20} base={:<10} now={:<10} change={:+6.1}% threshold={:5.1}% {}",
            fmt_s(base_mean),
            fmt_s(mean_s),
            regression * 100.0,
            threshold * 100.0,
            if failed { "FAIL" } else { "ok" },
        );
        if failed {
            failures.push(format!(
                "{name}: mean {} vs baseline {} ({:+.1}% > {:.1}% threshold)",
                fmt_s(mean_s),
                fmt_s(base_mean),
                regression * 100.0,
                threshold * 100.0,
            ));
        }
    }
    failures
}
