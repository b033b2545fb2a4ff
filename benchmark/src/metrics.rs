//! The metric glossary: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is
//! rendered from these tables, and a test keeps the committed file equal.

use crate::gen::SPECS;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
}

/// Seconds one driver run measures (`run_seconds`). The driver's 70 runs
/// with their set-ups (19 s per round of the three gated workloads on a
/// quiet machine, twice that at worst) and two builds must fit 3420 s.
pub const RUN_SECONDS: u64 = 32;

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25,
        what: "everything before the measured window: launch, attest, enroll, connect, preload, warm pass (median over the run's set-ups)" },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Higher, bound: 0.25,
        what: "client calls completed per second, all op types" },
    EndToEnd { name: "put_p50_ms", unit: "ms", better: Lower, bound: 0.25,
        what: "client-observed median put latency" },
    EndToEnd { name: "get_p50_ms", unit: "ms", better: Lower, bound: 0.25,
        what: "client-observed median get latency (successful, body-checked gets)" },
    EndToEnd { name: "admin_p50_ms", unit: "ms", better: Lower, bound: 0.25,
        what: "client-observed median over add_user and remove_user calls" },
    EndToEnd { name: "payload_mb_per_s", unit: "MB/s", better: Higher, bound: 0.25,
        what: "user body bytes put + got per second (MB = 10^6 bytes)" },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: Lower, bound: 0.25,
        what: "process user+sys CPU over the window / ops; generator and server share the process" },
    EndToEnd { name: "stored_bytes_per_user_byte", unit: "B/B", better: Lower, bound: 0.01,
        what: "ObjectStore::total_bytes() over the three stores / live user bytes at the end of the preload" },
];

pub const PER_LAYER: [PerLayer; 48] = [
    PerLayer { name: "client.self_us", unit: "us", better: Lower,
        what: "op latency minus time inside the transport decorator (pass 1, mean per op)" },
    PerLayer { name: "client.put_p99_ms", unit: "ms", better: Lower,
        what: "pooled p99 of the untraced TCP replay (pass 0); reported, not gated" },
    PerLayer { name: "client.get_p99_ms", unit: "ms", better: Lower, what: "as above, gets" },
    PerLayer { name: "client.admin_p99_ms", unit: "ms", better: Lower, what: "as above, admin ops" },
    PerLayer { name: "client.frames_per_op", unit: "count", better: Lower,
        what: "frames sent + received per client op (exact)" },
    PerLayer { name: "client.wire_bytes_per_user_byte", unit: "B/B", better: Lower,
        what: "frame bytes both ways / user body bytes (exact)" },
    PerLayer { name: "net.hop_get_us", unit: "us", better: Lower,
        what: "get p50 over TCP (pass 1) minus get p50 inline (pass 2): socket + reactor + second thread" },
    PerLayer { name: "net.hop_put_us", unit: "us", better: Lower, what: "as above, puts" },
    PerLayer { name: "net.overlap_share", unit: "ratio", better: Higher,
        what: "1 - TCP put+get p50 / inline put+get p50: what streaming across two cores hides (bulk_1m); negative where the hop costs more than it hides" },
    PerLayer { name: "enclave.get_self_us", unit: "us", better: Lower,
        what: "inline pass: handle_frame + next_outgoing spans of a get minus child store spans (median per op)" },
    PerLayer { name: "enclave.put_self_us", unit: "us", better: Lower, what: "as above, puts" },
    PerLayer { name: "enclave.admin_self_us", unit: "us", better: Lower, what: "as above, admin ops" },
    PerLayer { name: "enclave.probed_share", unit: "ratio", better: Higher,
        what: "share of inline enclave self time explained by pass-3 unit costs of tree, pfs, tls, proto x pass-2 counts; the rest is dispatch, authz, audit, locks, commit wait" },
    PerLayer { name: "tree.write_us", unit: "us", better: Lower,
        what: "TrustedStore::write at the workload's body size and depth, minus store spans and the pfs probe" },
    PerLayer { name: "tree.read_hot_us", unit: "us", better: Lower,
        what: "the second TrustedStore::read in a row, minus store spans: a seg-cache hit for bodies up to 64 KiB" },
    PerLayer { name: "tree.read_cold_us", unit: "us", better: Lower,
        what: "TrustedStore::read right after a write (body and ancestor records invalidated), minus store spans and the pfs probe" },
    PerLayer { name: "tree.store_puts_per_write", unit: "count", better: Lower,
        what: "store puts inside one TrustedStore::write (exact)" },
    PerLayer { name: "tree.store_gets_per_write", unit: "count", better: Lower,
        what: "store gets inside one TrustedStore::write (exact)" },
    PerLayer { name: "tree.store_gets_per_cold_read", unit: "count", better: Lower,
        what: "store gets inside one cold TrustedStore::read (exact)" },
    PerLayer { name: "cache.hit_ratio", unit: "ratio", better: Higher,
        what: "seg-cache hits / lookups over pass 0" },
    PerLayer { name: "cache.evictions_per_op", unit: "count", better: Lower,
        what: "seg-cache evictions per client op over pass 0" },
    PerLayer { name: "pfs.encrypt_mb_per_s", unit: "MB/s", better: Higher,
        what: "pfs_encrypt at the workload's body size" },
    PerLayer { name: "pfs.decrypt_mb_per_s", unit: "MB/s", better: Higher,
        what: "pfs_decrypt at the workload's body size" },
    PerLayer { name: "pfs.bytes_per_user_byte", unit: "B/B", better: Lower,
        what: "pfs blob bytes / body bytes at the workload's body size (exact)" },
    PerLayer { name: "tls.seal_mb_per_s", unit: "MB/s", better: Higher,
        what: "TlsChannel::seal of 256 KiB records" },
    PerLayer { name: "tls.open_mb_per_s", unit: "MB/s", better: Higher,
        what: "TlsChannel::open of 256 KiB records" },
    PerLayer { name: "tls.record_us", unit: "us", better: Lower,
        what: "seal + open of one 64-byte record: the per-frame TLS cost" },
    PerLayer { name: "tls.handshake_ms", unit: "ms", better: Lower,
        what: "median of 32 sequential TCP connect + mutual-auth handshakes" },
    PerLayer { name: "proto.codec_us", unit: "us", better: Lower,
        what: "Request/Response encode + decode of one put and one get exchange of the workload's size" },
    PerLayer { name: "crypto.gcm_seal_mb_per_s", unit: "MB/s", better: Higher, what: "Gcm::seal of 1 MiB" },
    PerLayer { name: "crypto.gcm_open_mb_per_s", unit: "MB/s", better: Higher, what: "Gcm::open of 1 MiB" },
    PerLayer { name: "crypto.gcm_4k_us", unit: "us", better: Lower, what: "Gcm::seal + open of 4 KiB" },
    PerLayer { name: "crypto.pae_record_us", unit: "us", better: Lower,
        what: "pae_enc + pae_dec of a 2560-byte (64 x 40) hash record" },
    PerLayer { name: "crypto.hmac_us", unit: "us", better: Lower,
        what: "one HMAC-SHA256 multiset update (MsetHash::add)" },
    PerLayer { name: "store.busy_us_per_op", unit: "us", better: Lower,
        what: "time inside ObjectStore calls per client op (pass 1)" },
    PerLayer { name: "store.gets_per_op", unit: "count", better: Lower, what: "store gets per client op (pass 1, exact)" },
    PerLayer { name: "store.puts_per_op", unit: "count", better: Lower,
        what: "store puts per client op, batched puts included (pass 1, exact)" },
    PerLayer { name: "store.bytes_written_per_user_byte", unit: "B/B", better: Lower,
        what: "bytes put to the stores / user bytes put (pass 1)" },
    PerLayer { name: "store.bytes_read_per_user_byte", unit: "B/B", better: Lower,
        what: "bytes got from the stores / user bytes got (pass 1)" },
    PerLayer { name: "store.fsyncs_per_put", unit: "count", better: Lower,
        what: "io_stats() fsyncs / client puts over pass 1 (0 on the in-memory stores)" },
    PerLayer { name: "store.batch_ops_per_fsync", unit: "count", better: Higher,
        what: "io_stats() batch_ops / fsyncs over pass 1 (0 on the in-memory stores)" },
    PerLayer { name: "store.disk_bytes_per_user_byte", unit: "B/B", better: Lower,
        what: "WAL directory size after the passes / live user bytes (0 on the in-memory stores)" },
    PerLayer { name: "store.recover_ms", unit: "ms", better: Lower,
        what: "WalStore::open_with on the directory after the passes (0 on the in-memory stores)" },
    PerLayer { name: "proc.peak_rss_mb", unit: "MiB", better: Lower, what: "VmHWM at the end of the run" },
    PerLayer { name: "proc.cpu_share", unit: "ratio", better: Lower,
        what: "process CPU / wall over pass 0 (cores busy)" },
    PerLayer { name: "proc.calib_drift", unit: "ratio", better: Lower,
        what: "fixed spin loop after / before - 1, absolute; above 0.10 the run is noisy" },
    PerLayer { name: "trace.overhead_share", unit: "ratio", better: Lower,
        what: "pass-1 op p50 / pass-0 op p50 - 1, op types weighted by count" },
    PerLayer { name: "trace.spans_per_op", unit: "count", better: Lower, what: "spans recorded per client op in pass 1" },
];

/// The contents of `BENCHMARK.json`. Names, units and whys hold no
/// character JSON would need escaped (a test checks).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .filter(|w| w.gated)
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, values with all their digits.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Counts that repeat exactly for a given seed on one connection.
pub const EXACT: [&str; 13] = [
    "stored_bytes_per_user_byte",
    "client.frames_per_op",
    "client.wire_bytes_per_user_byte",
    "tree.store_puts_per_write",
    "tree.store_gets_per_write",
    "tree.store_gets_per_cold_read",
    "cache.hit_ratio",
    "cache.evictions_per_op",
    "pfs.bytes_per_user_byte",
    "store.gets_per_op",
    "store.puts_per_op",
    "store.bytes_written_per_user_byte",
    "store.bytes_read_per_user_byte",
];

/// `(unit, better, bound, what)` of any metric. The bound reads `exact`
/// for counts that must repeat and `-` for per-layer metrics, which are
/// reported only (`repeat.sh` reads these).
pub fn describe(name: &str) -> (&'static str, &'static str, String, &'static str) {
    let exact = EXACT.contains(&name);
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        let bound = if exact {
            "exact".to_string()
        } else {
            m.bound.to_string()
        };
        return (m.unit, m.better.word(), bound, m.what);
    }
    let bound = if exact { "exact" } else { "-" }.to_string();
    match PER_LAYER.iter().find(|m| m.name == name) {
        Some(m) => (m.unit, m.better.word(), bound, m.what),
        None => ("", "", bound, ""),
    }
}

pub fn unit(name: &str) -> &'static str {
    describe(name).0
}

/// Every metric as markdown table rows: name, unit, direction, bound, how.
pub fn glossary() -> String {
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name));
    let mut s =
        String::from("| name | unit | better | bound | how it is taken |\n|---|---|---|---|---|\n");
    for name in names {
        let (unit, better, bound, what) = describe(name);
        s.push_str(&format!(
            "| `{name}` | {unit} | {better} | {bound} | {what} |\n"
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = SPECS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in &SPECS {
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(!w.why.contains(['\n', '"', '\\']), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "run `segbench --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_prints_every_digit() {
        let line = result_json(true, 10, 0, &[("setup_s", 0.812_734_5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}}}"
        );
    }
}
