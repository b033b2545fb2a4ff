//! The per-request record: everything telemetry knows about one
//! request, assembled once when dispatch ends.
//!
//! It is the enclave's only per-request telemetry. Inside, a closed
//! record feeds the request metric families
//! ([`crate::Registry::consume`]); then it leaves through the one
//! [`RecordSink`] the host attached, and every other plane — the meter
//! ([`crate::Meter::consume`]), the SLO / headline history
//! ([`crate::HealthMonitor::consume`]), `segshare`'s tail of recent
//! records, slow log and stall watchdog — is a consumer of that
//! `&RequestRecord` on the untrusted side and of nothing else from the
//! request path.
//!
//! # Trust boundary
//!
//! A record is the request path's one declassification: the operation
//! and error code are compiled-in labels, the four operands appear only
//! as keyed fingerprints (the key never leaves the enclave), and the
//! rest is durations and counts. Nothing a consumer stores or exports
//! can therefore carry request content — the argument is made here
//! once instead of once per plane.

/// Outcome class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Permitted and succeeded.
    Allow,
    /// Rejected by access control.
    Deny,
    /// Failed for a non-authorization reason.
    Error,
}

impl Decision {
    /// Stable lowercase label (`allow`/`deny`/`error`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Decision::Allow => "allow",
            Decision::Deny => "deny",
            Decision::Error => "error",
        }
    }
}

/// Leaf names of a record's phase vector, in slot order. Slot 0 is the
/// operation's own, un-attributed time; the rest are the profiler's
/// phase names ([`crate::prof::phase`]) followed by the names it is
/// charged simulated or waited time under ([`crate::prof::charge`]).
pub const PHASES: [&str; 15] = [
    "own",
    "tls_record",
    "serialize",
    "authn",
    "authz",
    "cache_lookup",
    "crypto_gcm",
    "pfs",
    "rollback_tree",
    "store_io",
    "commit_wait",
    "lock_wait",
    "global_hold",
    "counter_wait",
    "epc_paging",
];

/// Whether `name` is one of [`PHASES`]. The profiler and
/// [`RequestRecord::phase`] `debug_assert!` it, so a misspelled phase
/// stops a debug build instead of landing silently in `own`.
pub(crate) fn is_phase(name: &str) -> bool {
    PHASES.contains(&name)
}

/// One slot of a phase vector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTime {
    /// Wall-clock self time (total minus children); the self times of
    /// one record sum to its duration.
    pub self_ns: u64,
    /// Time charged beside the wall clock: simulated hardware latency,
    /// or a wait or hold already inside some phase's self time.
    pub sim_ns: u64,
}

/// Per-phase times of one request, indexed like [`PHASES`].
pub type PhaseVector = [PhaseTime; PHASES.len()];

/// What one request moved and touched, beside time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostVector {
    /// Decrypted request bytes entering dispatch.
    pub req_bytes: u64,
    /// Payload bytes handed back (announced download sizes included).
    pub resp_bytes: u64,
    /// Object-cache hits consumed.
    pub cache_hits: u64,
    /// Object-cache misses caused.
    pub cache_misses: u64,
    /// Untrusted-store read-side operations (get/exists/list).
    pub store_reads: u64,
    /// Untrusted-store write-side operations (put/delete/rename).
    pub store_writes: u64,
    /// Sealed audit-trail bytes appended on the request's behalf.
    pub audit_bytes: u64,
}

/// One closed request. See the module docs for the field rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Correlation id shared with the audit record (1-based).
    pub request_id: u64,
    /// Compiled-in operation name.
    pub op: &'static str,
    /// Outcome class.
    pub decision: Decision,
    /// Compiled-in error-code label; `"ok"` on success.
    pub code: &'static str,
    /// Keyed fingerprint of the requesting user.
    pub principal: u64,
    /// Keyed fingerprint of the object acted on (0 = none).
    pub object: u64,
    /// Keyed fingerprint of the group operand (0 = none).
    pub group: u64,
    /// Keyed fingerprint of the top-level path component (0 = none).
    pub prefix: u64,
    /// Wall-clock from frame entry to the end of dispatch.
    pub duration_ns: u64,
    /// Where the duration went.
    pub phases: PhaseVector,
    /// What the request cost beside time.
    pub cost: CostVector,
}

impl RequestRecord {
    /// A record for a request that just entered dispatch: ids set,
    /// outcome `allow`/`ok`, no time or cost yet.
    #[must_use]
    pub fn open(request_id: u64, op: &'static str, principal: u64, object: u64) -> RequestRecord {
        RequestRecord {
            request_id,
            op,
            decision: Decision::Allow,
            code: "ok",
            principal,
            object,
            group: 0,
            prefix: 0,
            duration_ns: 0,
            phases: PhaseVector::default(),
            cost: CostVector::default(),
        }
    }

    /// Whether the request was permitted and succeeded.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.decision == Decision::Allow
    }

    /// Duration in whole microseconds.
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.duration_ns / 1_000
    }

    /// Whether the request took at least `threshold_us` (0 = never).
    #[must_use]
    pub fn slow(&self, threshold_us: u64) -> bool {
        threshold_us > 0 && self.duration_us() >= threshold_us
    }

    /// The slot of phase `name`, which must be one of [`PHASES`].
    #[must_use]
    pub fn phase(&self, name: &str) -> PhaseTime {
        debug_assert!(is_phase(name), "phase {name:?} is not in PHASES");
        PHASES
            .iter()
            .position(|p| *p == name)
            .map_or_else(PhaseTime::default, |i| self.phases[i])
    }
}

/// Where closed records leave the enclave: the host implements this and
/// attaches one instance; the enclave calls it once per request, as an
/// ocall, and hands nothing else out unasked.
pub trait RecordSink: Send + Sync {
    /// Takes one closed request. Runs on the request's worker thread.
    fn consume(&self, rec: &RequestRecord);
}

/// JSON array of whole records. Fingerprints are 16 hex digits, labels
/// are compiled in, the rest is integers; zero phases are left out.
#[must_use]
pub fn records_json(records: &[RequestRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"request_id\": {}, \"op\": \"{}\", \"decision\": \"{}\", \"code\": \"{}\", \
             \"principal\": \"{:016x}\", \"object\": \"{:016x}\", \"group\": \"{:016x}\", \
             \"prefix\": \"{:016x}\", \"duration_us\": {}, \"phases\": {{",
            r.request_id,
            r.op,
            r.decision.label(),
            r.code,
            r.principal,
            r.object,
            r.group,
            r.prefix,
            r.duration_us(),
        ));
        let spent = PHASES
            .iter()
            .zip(&r.phases)
            .filter(|(_, p)| **p != PhaseTime::default());
        for (j, (name, p)) in spent.enumerate() {
            let sep = if j > 0 { ", " } else { "" };
            out.push_str(&format!(
                "{sep}\"{name}\": {{\"self_ns\": {}, \"sim_ns\": {}}}",
                p.self_ns, p.sim_ns
            ));
        }
        let c = &r.cost;
        out.push_str(&format!(
            "}}, \"cost\": {{\"req_bytes\": {}, \"resp_bytes\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"store_reads\": {}, \"store_writes\": {}, \
             \"audit_bytes\": {}}}}}",
            c.req_bytes,
            c.resp_bytes,
            c.cache_hits,
            c.cache_misses,
            c.store_reads,
            c.store_writes,
            c.audit_bytes,
        ));
    }
    if !records.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_names_only_the_phases_that_took_time() {
        let mut r = RequestRecord::open(7, "get", 0xabcd, 0x1234);
        r.duration_ns = 5_000_000;
        r.phases[9] = PhaseTime {
            self_ns: 4_000_000,
            sim_ns: 0,
        };
        r.cost.store_reads = 3;
        assert_eq!(r.phase("store_io").self_ns, 4_000_000);
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
    #[cfg_attr(not(debug_assertions), ignore = "the check is a debug_assert")]
    fn a_misspelled_phase_is_refused_in_debug() {
        let r = RequestRecord::open(7, "get", 1, 2);
        let checks: [(&str, fn()); 3] = [
            ("RequestRecord::phase", || {
                let _ = RequestRecord::open(7, "get", 1, 2).phase("store_oi");
            }),
            ("prof::phase", || drop(crate::prof::phase("store_oi"))),
            ("prof::charge", || crate::prof::charge("lock_wiat", 1)),
        ];
        for (what, misspelled) in checks {
            let caught = std::panic::catch_unwind(misspelled);
            let message = caught.expect_err(what);
            let message = message
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.contains("is not in PHASES"), "{what}: {message}");
        }
        // Every name in the table passes.
        for name in PHASES {
            let _ = r.phase(name);
            drop(crate::prof::phase(name));
            crate::prof::charge(name, 1);
        }
    }
}
