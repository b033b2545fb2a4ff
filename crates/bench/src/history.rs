//! `BENCH_history.jsonl`: the perf gate's trajectory. `BENCH_perf.json`
//! is overwritten by every run, so a change could only ever be compared
//! with the run before it by hand; each run now also appends one compact
//! row here — commit, crypto backends, raw workload means, profiler
//! phase self-times, two crypto probes, and the trusted and telemetry
//! line counts of [`crate::tcb`] — and prints the delta against the row
//! before it.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use seg_crypto::gcm::Gcm;
use seg_crypto::mset::{MsetHash, MsetKey};
use seg_crypto::sha256::Sha256;

use crate::json::{self, Json};

/// One run of the perf gate.
#[derive(Debug, Clone)]
pub struct Row {
    /// `git rev-parse --short HEAD`, `+` appended when the tree is dirty.
    pub commit: String,
    /// Measured runs per workload (3 under `--quick`, else 10).
    pub runs: usize,
    /// Raw mean seconds per workload.
    pub means_s: Vec<(String, f64)>,
    /// Profiler self-time per leaf phase over the main mix.
    pub phases_ns: Vec<(String, u64)>,
    /// AES-GCM seal throughput over 1 MiB.
    pub gcm_mb_per_s: f64,
    /// One multiset-hash update of a 72-byte element (an HMAC-SHA-256
    /// under a kept key).
    pub hmac_us: f64,
    /// [`crate::tcb::totals`]: lines linked into the enclave, and the
    /// telemetry share of them.
    pub tcb_loc: usize,
    /// See `tcb_loc`.
    pub telemetry_loc: usize,
}

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

/// Best of five timings of `f`, in seconds per call.
fn best_s(calls: u32, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

/// `(gcm_mb_per_s, hmac_us)` on this machine, right now.
#[must_use]
pub fn crypto_probes() -> (f64, f64) {
    let gcm = Gcm::new(&[7u8; 16]).expect("16-byte key");
    let mut mib = vec![0x5au8; 1 << 20];
    let seal_s = best_s(4, || {
        black_box(gcm.seal_in_place(&[1u8; 12], b"probe", black_box(&mut mib)));
    });
    let key = MsetKey::from_bytes([5u8; 32]);
    let mut acc = MsetHash::empty();
    let element = [0x77u8; 72];
    let hmac_s = best_s(4096, || acc.add(&key, black_box(&element)));
    black_box(acc);
    (mib.len() as f64 / 1e6 / seal_s, hmac_s * 1e6)
}

impl Row {
    /// The row as one line of JSON (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"commit\": \"{}\", \"gcm_backend\": \"{}\", \"sha256_backend\": \"{}\", \
             \"runs\": {}, \"gcm_mb_per_s\": {:.1}, \"hmac_us\": {:.4}, \"tcb_loc\": {}, \
             \"telemetry_loc\": {}, \"means_s\": {{",
            self.commit,
            Gcm::backend(),
            Sha256::backend(),
            self.runs,
            self.gcm_mb_per_s,
            self.hmac_us,
            self.tcb_loc,
            self.telemetry_loc,
        );
        for (i, (name, mean)) in self.means_s.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {mean:.9}");
        }
        out.push_str("}, \"phases_ns\": {");
        for (i, (name, ns)) in self.phases_ns.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {ns}");
        }
        out.push_str("}}");
        out
    }
}

/// Every number in a row, flattened to `section.name`.
fn numbers(row: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for key in ["gcm_mb_per_s", "hmac_us", "tcb_loc", "telemetry_loc"] {
        if let Some(v) = row.get(key).and_then(Json::as_f64) {
            out.push((key.to_string(), v));
        }
    }
    for section in ["means_s", "phases_ns"] {
        for (name, v) in row
            .get(section)
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            if let Some(v) = v.as_f64() {
                out.push((format!("{section}.{name}"), v));
            }
        }
    }
    out
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
pub fn record(path: &Path, row: &Row) -> std::io::Result<()> {
    let line = row.to_json();
    let now = json::parse(&line).expect("own row parses");
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
            println!("  {} -> {}", commit(prev), commit(&now));
            // Phase totals grow with the run count; a backend changes
            // what every number means.
            for key in ["gcm_backend", "sha256_backend", "runs"] {
                let (a, b) = (prev.get(key), now.get(key));
                if a != b {
                    println!("  {key}: {a:?} -> {b:?} (rows are not comparable)");
                }
            }
            let before = numbers(prev);
            for (name, value) in numbers(&now) {
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
        let row = Row {
            commit: "abc1234+".to_string(),
            runs: 3,
            means_s: vec![("upload_1m".to_string(), 0.002_5)],
            phases_ns: vec![("rollback_tree".to_string(), 12_345)],
            gcm_mb_per_s: 4000.0,
            hmac_us: 0.25,
            tcb_loc: 12_000,
            telemetry_loc: 3_000,
        };
        let parsed = json::parse(&row.to_json()).expect("row is JSON");
        assert_eq!(
            parsed.get("commit").and_then(Json::as_str),
            Some("abc1234+")
        );
        assert_eq!(
            numbers(&parsed),
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
        assert!(text.lines().all(|l| l == row.to_json()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
