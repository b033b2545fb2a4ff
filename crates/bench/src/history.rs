//! `BENCH_history.jsonl`: the perf gate's trajectory. `BENCH_perf.json`
//! is overwritten by every run, so a change could only ever be compared
//! with the run before it by hand; each full run also appends one
//! compact row here — `commit` (`git rev-parse --short HEAD`, `+` when
//! the tree is dirty), the crypto backends, `runs` per gated row, the
//! raw means of the gated rows (`means_s`), profiler self-time per leaf
//! phase over the serial mix (`phases_ns`), the two crypto probes
//! (`gcm_mb_per_s` over 1 MiB, `hmac_us` per 72-byte multiset update) and
//! the trusted and telemetry line counts of [`crate::tcb`] (`tcb_loc`,
//! `telemetry_loc`) — and prints the delta against the row before it.
//! Every rendering under `results/` names the commit of the row its run
//! appended.

use std::io::Write as _;
use std::path::Path;

use crate::json::{self, Json};

/// The checked-out commit, or `unknown` outside a git checkout.
#[must_use]
pub fn commit(root: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if !head.is_empty() => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            format!("{head}{}", if dirty { "+" } else { "" })
        }
        _ => "unknown".to_string(),
    }
}

/// Every number in a row, flattened to `section.name`: the scalars
/// first, then the members of the objects.
fn numbers(row: &Json) -> Vec<(String, f64)> {
    fn members(j: &Json) -> impl Iterator<Item = (&String, &Json)> {
        j.as_obj().into_iter().flatten()
    }
    let scalars = members(row).filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)));
    let nested = members(row).flat_map(|(section, inner)| {
        members(inner).filter_map(move |(k, v)| Some((format!("{section}.{k}"), v.as_f64()?)))
    });
    scalars.filter(|(k, _)| k != "runs").chain(nested).collect()
}

/// Seconds keep their microseconds, counts of nanoseconds lose the
/// fraction they never had.
fn compact(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Prints `row` against the last row of the history at `path` (if any),
/// then appends it.
///
/// # Errors
///
/// Returns the I/O error if the history cannot be appended to.
pub fn record(path: &Path, now: &Json) -> std::io::Result<()> {
    let line = now.to_line().expect("a row holds finite numbers");
    let previous = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .map(str::to_string)
        })
        .and_then(|last| json::parse(&last).ok());
    match &previous {
        None => println!("  no previous row in {}", path.display()),
        Some(prev) => {
            let commit = |r: &Json| {
                r.get("commit")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            println!("  {} -> {}", commit(prev), commit(now));
            // Phase totals grow with the run count; a backend changes
            // what every number means.
            for key in ["gcm_backend", "sha256_backend", "runs"] {
                let (a, b) = (prev.get(key), now.get(key));
                if a != b {
                    println!("  {key}: {a:?} -> {b:?} (rows are not comparable)");
                }
            }
            let before = numbers(prev);
            for (name, value) in numbers(now) {
                match before.iter().find(|(n, _)| *n == name) {
                    Some((_, old)) if *old != 0.0 => println!(
                        "  {name:<32} {:>14} -> {:>14} ({:+.1}%)",
                        compact(*old),
                        compact(value),
                        (value - old) / old * 100.0
                    ),
                    _ => println!("  {name:<32} {:>14} -> {:>14}", "-", compact(value)),
                }
            }
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_and_append() {
        let row = Json::obj([
            ("commit", Json::from("abc1234+")),
            ("runs", 3usize.into()),
            ("gcm_mb_per_s", 4000.0.into()),
            ("hmac_us", 0.25.into()),
            ("tcb_loc", 12_000usize.into()),
            ("telemetry_loc", 3_000usize.into()),
            ("means_s", Json::obj([("upload_1m", Json::num(0.002_5, 9))])),
            (
                "phases_ns",
                Json::obj([("rollback_tree", Json::from(12_345u64))]),
            ),
        ]);
        let line = row.to_line().unwrap();
        assert_eq!(json::parse(&line).unwrap(), row);
        assert_eq!(
            numbers(&row),
            vec![
                ("gcm_mb_per_s".to_string(), 4000.0),
                ("hmac_us".to_string(), 0.25),
                ("tcb_loc".to_string(), 12_000.0),
                ("telemetry_loc".to_string(), 3_000.0),
                ("means_s.upload_1m".to_string(), 0.002_5),
                ("phases_ns.rollback_tree".to_string(), 12_345.0),
            ]
        );

        let dir = std::env::temp_dir().join(format!("seg-history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        record(&path, &row).unwrap();
        record(&path, &row).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l == line));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
