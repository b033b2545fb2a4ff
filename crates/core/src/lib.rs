//! # SeGShare — secure group file sharing in the cloud using enclaves
//!
//! A comprehensive Rust reproduction of *SeGShare: Secure Group File
//! Sharing in the Cloud using Enclaves* (Fuhry, Hirschoff, Koesnadi,
//! Kerschbaum — DSN 2020), on top of a software-simulated SGX platform
//! ([`seg_sgx`]).
//!
//! SeGShare is a server-side enclave that terminates a mutually-
//! authenticated TLS channel, authorizes every request against encrypted
//! group-based access control lists, and stores all data *and all
//! management files* encrypted under keys derived from an enclave-sealed
//! root key. Its headline properties (Table II of the paper):
//!
//! * immediate permission/membership revocation without re-encrypting a
//!   single content file (P3/S4) — a revocation rewrites one small
//!   encrypted metadata file;
//! * constant ciphertexts per file regardless of groups (P4/P5);
//! * confidentiality and integrity of content, file-system structure,
//!   permissions, groups, and memberships (S1/S2);
//! * separation of authentication (CA certificates) from authorization
//!   (groups) (F8);
//! * optional extensions: server-side deduplication (§V-A), inherited
//!   permissions (§V-B), filename/structure hiding (§V-C), rollback
//!   protection for individual files (§V-D) and the whole file system
//!   (§V-E), replication (§V-F), and backup/restore (§V-G). All are
//!   implemented here and toggled via [`EnclaveConfig`].
//!
//! ## Architecture (paper Fig. 1)
//!
//! ```text
//!  user                     cloud provider
//! ┌───────────┐   TLS    ┌─────────────────────────────────────────┐
//! │ Client    │◄────────►│ untrusted host          SeGShare enclave │
//! │ (client   │  records │ ┌──────────────┐ ecall ┌───────────────┐│
//! │  cert +   │          │ │ TLS terminat.│──────►│ trusted TLS   ││
//! │  key)     │          │ │ record pump  │◄──────│ request handlr││
//! └───────────┘          │ │ object store │ ocall │ access control││
//!                        │ │ (encrypted   │◄──────│ trusted file  ││
//!                        │ │  blobs only) │──────►│ manager       ││
//!                        │ └──────────────┘       └───────────────┘│
//!                        └─────────────────────────────────────────┘
//! ```
//!
//! The enclave is its own crate, `seg-enclave`, re-exported here as
//! [`enclave`], [`config`] and [`error`]: its dependency closure is the
//! trusted computing base, and it cannot name this crate, the transports
//! or the store backends. This crate is the untrusted rest: the host
//! ([`untrusted`], [`server`]), the [`client`] and the host's
//! [`telemetry`].
//!
//! ## Quick start
//!
//! ```
//! use segshare::{SegShareServer, EnclaveConfig, FsoSetup};
//! use seg_fs::Perm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The file-system owner sets up a CA and a server (in-memory stores).
//! let mut setup = FsoSetup::new_in_memory("acme-ca", EnclaveConfig::default());
//! let server = setup.server()?;
//!
//! // Enroll users (the CA issues client certificates).
//! let alice = setup.enroll_user("alice", "alice@acme.example", "Alice")?;
//! let bob = setup.enroll_user("bob", "bob@acme.example", "Bob")?;
//!
//! // Alice connects, uploads, and shares with a group.
//! let mut c = server.connect_local(&alice)?;
//! c.mkdir("/plans/")?;
//! c.put("/plans/q3.txt", b"expand to mars")?;
//! c.add_user("alice", "strategy")?; // creates the group, alice as owner
//! c.add_user("bob", "strategy")?;
//! c.set_perm("/plans/q3.txt", "strategy", Perm::Read)?;
//!
//! // Bob can read it.
//! let mut b = server.connect_local(&bob)?;
//! assert_eq!(b.get("/plans/q3.txt")?, b"expand to mars");
//!
//! // Revocation is immediate — no re-encryption of the file.
//! c.remove_user("bob", "strategy")?;
//! assert!(b.get("/plans/q3.txt").is_err());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
mod hist;
pub mod server;
mod stream;
pub mod telemetry;
pub mod untrusted;

pub use seg_enclave::{config, enclave, error};
pub use seg_enclave::{
    AuditLog, AuditRecord, EnclaveConfig, ScrubCheck, ScrubReport, SegShareError,
};

pub use client::Client;
pub use server::{wal_views, EnrolledUser, FsoSetup, HealthOptions, SegShareServer};
pub use telemetry::health::HealthState;
pub use telemetry::Telemetry;

/// Unit tests of [`telemetry`]'s registry and profile, and of its
/// snapshot, profile, record and audit renderings.
#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Instant;

    use seg_obs::prof::{phase, OpGuard};
    use seg_obs::{Decision, Phase, PhaseTime, RequestRecord};

    use crate::enclave::audit::AuditRecord;
    use crate::telemetry::{audit_json, records_json, ProfSnapshot, Profile, RecordView, Registry};

    fn spin_for(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn snapshot_is_deterministic() {
        let build = || {
            let r = Registry::new();
            // Insertion order differs between the two closures' call
            // sites below; output order must not.
            r.counter_with("seg_requests_total", vec![("op", "get")])
                .inc();
            r.counter("seg_frames_total").add(7);
            r.gauge("seg_epc_bytes").set(11);
            r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
                .record(500);
            r.snapshot().to_json()
        };
        let build_reordered = || {
            let r = Registry::new();
            r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
                .record(500);
            r.gauge("seg_epc_bytes").set(11);
            r.counter("seg_frames_total").add(7);
            r.counter_with("seg_requests_total", vec![("op", "get")])
                .inc();
            r.snapshot().to_json()
        };
        assert_eq!(build(), build());
        assert_eq!(build(), build_reordered());
    }

    #[test]
    fn json_output_shape() {
        let r = Registry::new();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .add(3);
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(1000);
        let json = r.snapshot().to_json();
        assert!(
            json.contains("\"seg_requests_total{op=\\\"get\\\"}\": 3"),
            "{json}"
        );
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"p99_ns\""));
        // Sanity: balanced braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn prometheus_output_shape() {
        let r = Registry::new();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .add(3);
        r.gauge("seg_epc_bytes").set(42);
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(1000);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE seg_requests_total counter"));
        assert!(text.contains("seg_requests_total{op=\"get\"} 3"));
        assert!(text.contains("seg_epc_bytes 42"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("seg_request_latency_ns_count{op=\"get\"} 1"));
        assert!(text.contains("seg_request_latency_ns_sum{op=\"get\"} "));
    }

    #[test]
    fn empty_registry_encodes_cleanly() {
        let snap = Registry::new().snapshot();
        let json = snap.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"gauges\": {}"), "{json}");
        assert!(json.contains("\"histograms\": {}"), "{json}");
        assert_eq!(snap.to_prometheus(), "");
    }

    #[test]
    fn zero_count_histogram_encodes_all_zero_summary() {
        let r = Registry::new();
        let _ = r.histogram_with("seg_request_latency_ns", vec![("op", "get")]);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(
            json.contains("\"seg_request_latency_ns{op=\\\"get\\\"}\": {\"count\": 0, \"sum_ns\": 0, \"min_ns\": 0"),
            "{json}"
        );
        let text = snap.to_prometheus();
        assert!(text.contains("seg_request_latency_ns_count{op=\"get\"} 0"));
        assert!(text.contains("seg_request_latency_ns_sum{op=\"get\"} 0"));
        // min must render as 0, not the u64::MAX sentinel.
        assert!(!text.contains("18446744073709551615"), "{text}");
    }

    #[test]
    fn prometheus_type_header_appears_once_per_metric_name() {
        let r = Registry::new();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .inc();
        r.counter_with("seg_requests_total", vec![("op", "put_file")])
            .inc();
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(10);
        r.histogram_with("seg_request_latency_ns", vec![("op", "put_file")])
            .record(10);
        let text = r.snapshot().to_prometheus();
        assert_eq!(
            text.matches("# TYPE seg_requests_total counter").count(),
            1,
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE seg_request_latency_ns summary")
                .count(),
            1,
            "{text}"
        );
    }

    #[test]
    fn json_escapes_label_quotes_and_allows_dotted_values() {
        let r = Registry::new();
        r.counter_with("seg_host_info", vec![("host", "node.a_1")])
            .inc();
        let json = r.snapshot().to_json();
        assert!(
            json.contains("\"seg_host_info{host=\\\"node.a_1\\\"}\": 1"),
            "{json}"
        );
        // Every quote inside a JSON key is escaped: strip the \" pairs
        // and the remaining quotes must be structural (even count).
        let stripped = json.replace("\\\"", "");
        assert_eq!(stripped.matches('"').count() % 2, 0, "{json}");
    }

    #[test]
    fn single_sample_histogram_encodes_exact_quantiles() {
        let r = Registry::new();
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(1234);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(
            json.contains(
                "\"count\": 1, \"sum_ns\": 1234, \"min_ns\": 1234, \"max_ns\": 1234, \
                 \"p50_ns\": 1234, \"p95_ns\": 1234, \"p99_ns\": 1234"
            ),
            "{json}"
        );
        let text = snap.to_prometheus();
        assert!(text.contains("seg_request_latency_ns{quantile=\"0.5\",op=\"get\"} 1234"));
        assert!(text.contains("seg_request_latency_ns_count{op=\"get\"} 1"));
        assert!(text.contains("seg_request_latency_ns_sum{op=\"get\"} 1234"));
    }

    #[test]
    fn prometheus_is_deterministic_across_identical_snapshots() {
        let build = || {
            let r = Registry::new();
            r.counter_with("seg_requests_total", vec![("op", "get")])
                .add(2);
            r.gauge("seg_epc_bytes").set(7);
            r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
                .record(999);
            r.snapshot().to_prometheus()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn delta_windows_counters_and_keeps_gauges() {
        let r = Registry::new();
        let c = r.counter_with("seg_requests_total", vec![("op", "get")]);
        let g = r.gauge("seg_epc_bytes");
        c.add(10);
        g.set(100);
        let before = r.snapshot();
        c.add(3);
        g.set(250);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("seg_requests_total{op=\"get\"}"), Some(3));
        // Gauges are last-value-wins: the window reports the latest.
        assert_eq!(d.gauge("seg_epc_bytes"), Some(250));
    }

    #[test]
    fn delta_histogram_quantiles_cover_only_the_window() {
        let r = Registry::new();
        let h = r.histogram_with("seg_request_latency_ns", vec![("op", "get")]);
        // Warmup: large outliers that must not pollute the window.
        for _ in 0..100 {
            h.record(50_000_000);
        }
        let before = r.snapshot();
        for _ in 0..100 {
            h.record(1_000);
        }
        let d = r.snapshot().delta(&before);
        let s = d
            .histogram("seg_request_latency_ns{op=\"get\"}")
            .expect("windowed digest");
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 100_000);
        // All windowed quantiles sit near 1us, nowhere near 50ms.
        assert!(s.p99 < 10_000, "windowed p99 leaked warmup: {}", s.p99);
        // The cumulative view, by contrast, is dominated by warmup.
        let cum = r.snapshot();
        let cs = cum.histogram("seg_request_latency_ns{op=\"get\"}").unwrap();
        assert!(cs.p95 > 10_000_000, "cumulative p95: {}", cs.p95);
    }

    #[test]
    fn delta_handles_metrics_registered_after_the_baseline() {
        let r = Registry::new();
        let before = r.snapshot();
        r.counter("seg_frames_total").add(4);
        r.histogram("seg_request_latency_ns").record(77);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("seg_frames_total"), Some(4));
        assert_eq!(d.histogram("seg_request_latency_ns").unwrap().count, 1);
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty_window() {
        let r = Registry::new();
        r.counter("seg_frames_total").add(9);
        r.histogram("seg_request_latency_ns").record(123);
        let snap = r.snapshot();
        let d = snap.delta(&snap.clone());
        assert_eq!(d.counter("seg_frames_total"), Some(0));
        let s = d.histogram("seg_request_latency_ns").unwrap();
        assert_eq!((s.count, s.sum), (0, 0));
        // An empty window still encodes cleanly.
        let json = d.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let build = |order_swapped: bool| {
            let p = Profile::default();
            let run = |op| {
                let _root = OpGuard::begin(&p, op);
                let _g = phase(Phase::Pfs);
            };
            if order_swapped {
                run("get");
                run("put_file");
            } else {
                run("put_file");
                run("get");
            }
            p.snapshot()
        };
        let a = build(false);
        let b = build(true);
        let paths = |s: &ProfSnapshot| {
            s.entries
                .iter()
                .map(|e| e.path.join(";"))
                .collect::<Vec<_>>()
        };
        assert_eq!(paths(&a), paths(&b), "ordering is insertion-independent");

        let json = a.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"path\": \"put_file;pfs\""), "{json}");
        let collapsed = a.to_collapsed();
        for line in collapsed.lines() {
            let (path, value) = line.rsplit_once(' ').expect("two fields");
            assert!(!path.is_empty());
            value.parse::<u64>().expect("numeric value");
        }
        assert!(collapsed.contains("put_file;pfs "), "{collapsed}");
    }

    #[test]
    fn phase_breakdown_groups_by_leaf() {
        let p = Profile::default();
        {
            let _root = OpGuard::begin(&p, "put_file");
            {
                let _a = phase(Phase::TlsRecord);
                let _b = phase(Phase::CryptoGcm);
                spin_for(300_000);
            }
            {
                let _a = phase(Phase::Pfs);
                let _b = phase(Phase::CryptoGcm);
                spin_for(300_000);
            }
        }
        let snap = p.snapshot();
        let breakdown = snap.phase_breakdown(&["put_file"]);
        let gcm = breakdown
            .iter()
            .find(|(leaf, _)| *leaf == "crypto_gcm")
            .expect("gcm leaf");
        assert!(
            gcm.1 >= 600_000,
            "both crypto_gcm paths fold into one leaf: {breakdown:?}"
        );
        // The dominant phase sorts first.
        assert_eq!(breakdown[0].0, "crypto_gcm");
    }

    #[test]
    fn json_names_only_the_phases_that_took_time() {
        let mut r = RequestRecord::open(7, "get", 0xabcd, 0x1234);
        r.duration_ns = 5_000_000;
        r.phases[Phase::StoreIo as usize] = PhaseTime {
            self_ns: 4_000_000,
            sim_ns: 0,
        };
        r.cost.store_reads = 3;
        assert_eq!(r.phase(Phase::StoreIo).self_ns, 4_000_000);
        assert!(r.slow(5_000) && !r.slow(5_001) && !r.slow(0));
        let json = records_json(&[r]);
        assert!(
            json.contains("\"store_io\": {\"self_ns\": 4000000"),
            "{json}"
        );
        assert!(!json.contains("\"pfs\""), "{json}");
        assert!(
            json.contains("\"principal\": \"000000000000abcd\""),
            "{json}"
        );
        assert!(json.contains("\"store_reads\": 3"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(records_json(&[]), "[]\n");
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("seg_frames_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("seg_epc_bytes");
        g.set(4096);
        g.set(8192);
        assert_eq!(g.get(), 8192);
        let snap = r.snapshot();
        assert_eq!(snap.counter("seg_frames_total"), Some(5));
        assert_eq!(snap.gauge("seg_epc_bytes"), Some(8192));
    }

    #[test]
    fn handles_are_interned() {
        let r = Registry::new();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .inc();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .inc();
        r.counter_with("seg_requests_total", vec![("op", "put_file")])
            .inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("seg_requests_total{op=\"get\"}"), Some(2));
        assert_eq!(snap.counter("seg_requests_total{op=\"put_file\"}"), Some(1));
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        r.counter_with("seg_x_total", vec![("op", "get"), ("code", "denied")])
            .inc();
        r.counter_with("seg_x_total", vec![("code", "denied"), ("op", "get")])
            .inc();
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("seg_x_total{code=\"denied\",op=\"get\"}"),
            Some(2)
        );
        assert_eq!(snap.counters.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid label value")]
    fn path_like_label_values_are_rejected() {
        Registry::new().counter_with("seg_requests_total", vec![("op", "/home/alice/secret")]);
    }

    #[test]
    #[should_panic(expected = "invalid label value")]
    fn userid_like_label_values_are_rejected() {
        Registry::new().counter_with("seg_requests_total", vec![("user", "alice@example.com")]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn uppercase_metric_names_are_rejected() {
        Registry::new().counter("PutFile");
    }

    #[test]
    fn span_records_latency_and_outcome() {
        // A closed request — what used to be a finished span — lands in
        // the three request families.
        let r = Registry::new();
        let mut rec = RequestRecord::open(1, "put_file", 7, 9);
        rec.duration_ns = 1_000;
        r.consume(&rec);
        rec.decision = Decision::Deny;
        rec.code = "denied";
        r.consume(&rec);
        r.consume(&RequestRecord::open(2, "get", 7, 9));
        let snap = r.snapshot();
        assert_eq!(snap.counter("seg_requests_total{op=\"put_file\"}"), Some(2));
        assert_eq!(snap.counter("seg_requests_total{op=\"get\"}"), Some(1));
        assert_eq!(
            snap.counter("seg_request_errors_total{code=\"denied\",op=\"put_file\"}"),
            Some(1)
        );
        assert_eq!(snap.counters.len(), 3, "no error series for a clean op");
        let h = snap
            .histogram("seg_request_latency_ns{op=\"put_file\"}")
            .expect("latency histogram");
        assert_eq!((h.count, h.sum), (2, 2_000));
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("seg_frames_total");
                    for _ in 0..10_000 {
                        c.inc();
                        r.counter_with("seg_requests_total", vec![("op", "get")])
                            .inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("seg_frames_total"), Some(80_000));
        assert_eq!(snap.counter("seg_requests_total{op=\"get\"}"), Some(80_000));
    }

    #[test]
    fn span_opens_profiler_root_when_attached() {
        // A root opened against the profile as its sink folds in when it
        // closes, its record riding along without touching the profile.
        let p = Profile::default();
        {
            let _root = OpGuard::begin(&p, "put_file");
            let _g = phase(Phase::Pfs);
            seg_obs::prof::attach_record(&RequestRecord::open(1, "put_file", 7, 9));
        }
        let snap = p.snapshot();
        assert!(snap.entry("put_file;pfs").is_some());
        assert_eq!(snap.entry("put_file").map(|e| e.requests), Some(1));
        assert_eq!(snap.unbalanced, 0);
    }

    #[test]
    fn audit_json_renders_exported_records() {
        let record = AuditRecord {
            seq: 3,
            time: 1_003,
            request_id: 3,
            op: "put_file".into(),
            principal: 0xaa03,
            object: 0xbb03,
            decision: Decision::Allow,
            code: "ok".into(),
        };
        let json = audit_json(&[record]);
        assert!(json.contains("\"op\": \"put_file\""), "{json}");
        assert!(
            json.contains("\"principal\": \"000000000000aa03\""),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(audit_json(&[]), "[]\n");
    }
}
