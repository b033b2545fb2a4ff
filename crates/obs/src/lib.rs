//! `seg-obs`: the enclave's half of telemetry, with no dependencies.
//!
//! It is three things, all linked into the enclave: the phase clock
//! ([`prof`]), which attributes a request's wall-clock to compiled-in
//! [`Phase`]s; the per-request [`RequestRecord`] ([`record`]); and the
//! [`RecordSink`] through which both leave, once per closed root, as a
//! [`ClosedRoot`]. [`record`] argues once why nothing that crosses can
//! carry request content.
//!
//! Everything that folds those values into aggregates — the metric
//! registry, the latency histograms, the per-(operation, phase-path)
//! profile — and every renderer and query of them is the untrusted
//! host's and lives in `segshare::telemetry`. Its inputs already
//! crossed the boundary, so it needs no trust. The host keeps no
//! history of its own: it exports state, and whoever scrapes the export
//! keeps time.
//!
//! # Naming scheme
//!
//! `seg_<layer>_<quantity>_<unit-or-total>{label=...}`, e.g.
//! `seg_requests_total{op="put_file"}`,
//! `seg_request_latency_ns{op="get"}`,
//! `seg_store_bytes_read_total{store="content"}`.

#![warn(missing_docs)]

pub mod prof;
pub mod record;

pub use record::{ClosedRoot, CostVector, Decision, Phase, PhaseTime, RecordSink, RequestRecord};
