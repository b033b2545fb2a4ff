//! The per-request record and the one sink it leaves the enclave
//! through.
//!
//! A [`RequestRecord`] is everything telemetry knows about one request,
//! assembled once when dispatch ends (its time is its root's, filled in
//! by the host). It is the enclave's only
//! per-request telemetry, and it leaves with its request's phase times
//! when the request's profiler root closes: one [`ClosedRoot`] handed to
//! the one [`RecordSink`] the host attached, in one ocall. Every
//! aggregate — the request families, the latency histograms, the
//! per-(operation, phase-path) profile — and every other plane — the
//! tail of recent records, the slow log, the stall watchdog — is built
//! on the untrusted side from these values and from nothing else of
//! the request path.
//!
//! # What crosses
//!
//! Telemetry crosses the enclave boundary, so it must carry **no
//! confidential request content** (paper §III threat model: the cloud
//! provider observes everything outside the enclave). Data flows one
//! way, enclave → host, and the argument is made here once instead of
//! once per plane:
//!
//! - a closed root names its operation with a compiled-in `&'static
//!   str` and its phase paths with compiled-in [`Phase`] ids; the rest
//!   is durations and counts;
//! - a record adds a compiled-in error code and three operands as keyed
//!   fingerprints (the key never leaves the enclave);
//! - the enclave-wide values the host pulls at a scrape
//!   (`seg_enclave`'s `EnclaveStats`) are counts and gauges, and a scrub
//!   report is per-check counts and finding fingerprints.
//!
//! Nothing a consumer stores or exports can therefore carry a path, a
//! user id or key material.

use crate::prof::PathTime;

/// Outcome class of a request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Decision {
    /// Permitted and succeeded.
    #[default]
    Allow,
    /// Rejected by access control.
    Deny,
    /// Failed for a non-authorization reason.
    Error,
}

/// Declares [`Phase`] from one table: slot order, variant and name.
macro_rules! phases {
    ($(#[doc = $doc:literal] $phase:ident = $name:literal,)*) => {
        /// A slot of a record's phase vector, and the name a profiler
        /// frame or charge is filed under. Slot 0, [`Phase::Own`], is the
        /// operation's own, un-attributed time and never a frame; then
        /// come the phases [`crate::prof::phase`] opens, then the ones
        /// [`crate::prof::charge`] files simulated or waited time under.
        ///
        /// Being a type, a phase cannot be misspelled: no phase API takes
        /// a string.
        ///
        /// ```compile_fail
        /// let _frame = seg_obs::prof::phase("store_io");
        /// ```
        ///
        /// ```compile_fail
        /// seg_obs::prof::charge("lock_wait", 1);
        /// ```
        ///
        /// ```compile_fail
        /// let _ = seg_obs::RequestRecord::open(7, "get", 1, 2).phases["store_io"];
        /// ```
        ///
        /// ```
        /// use seg_obs::{prof, Phase, RequestRecord};
        /// let _frame = prof::phase(Phase::StoreIo);
        /// prof::charge(Phase::LockWait, 1);
        /// let r = RequestRecord::open(7, "get", 1, 2);
        /// assert_eq!(r.phases[Phase::StoreIo as usize].self_ns, 0);
        /// ```
        #[repr(u8)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Phase {
            $(#[doc = $doc] $phase,)*
        }

        impl Phase {
            /// Every phase, in slot order.
            pub const ALL: [Phase; [$($name),*].len()] = [$(Phase::$phase),*];

            /// The phase's name in paths and exports.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $(Phase::$phase => $name,)*
                }
            }
        }
    };
}

phases! {
    /// The operation's own time: the root frame's self time.
    Own = "own",
    /// TLS record seal/open.
    TlsRecord = "tls_record",
    /// Request decode and response encode.
    Serialize = "serialize",
    /// The handshake's client authentication.
    Authn = "authn",
    /// Access-control decisions.
    Authz = "authz",
    /// Object-cache lookups.
    CacheLookup = "cache_lookup",
    /// AES-GCM work.
    CryptoGcm = "crypto_gcm",
    /// Protected-FS encryption and decryption.
    Pfs = "pfs",
    /// §V-D rollback-tree updates and verifications.
    RollbackTree = "rollback_tree",
    /// Untrusted-store calls.
    StoreIo = "store_io",
    /// Waiting for the commit window.
    CommitWait = "commit_wait",
    /// Waiting for a lock (charged).
    LockWait = "lock_wait",
    /// Holding the global lock exclusively (charged).
    GlobalHold = "global_hold",
    /// Simulated monotonic-counter latency (charged).
    CounterWait = "counter_wait",
    /// Simulated EPC paging (charged).
    EpcPaging = "epc_paging",
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

/// Per-phase times of one request, indexed by [`Phase`].
pub type PhaseVector = [PhaseTime; Phase::ALL.len()];

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
    /// Untrusted-store writes: one per batch the enclave hands a store
    /// (a commit, an audit append), whatever it carries.
    pub store_writes: u64,
    /// Sealed audit-trail bytes appended on the request's behalf.
    pub audit_bytes: u64,
}

/// One closed request. See the module docs for the field rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Wall-clock of the request's profiler root, from frame entry to
    /// the root's close. Zero as the record leaves the enclave: the host
    /// takes it from the root's own path.
    pub duration_ns: u64,
    /// Where the duration went: each path's self and charged time in
    /// the slot of its innermost phase. Zero as the record leaves the
    /// enclave: the host folds it from the root's paths, so the self
    /// times sum to the duration exactly.
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
            code: "ok",
            principal,
            object,
            ..RequestRecord::default()
        }
    }
}

/// One closed profiler root as it leaves the enclave: what
/// [`crate::prof::OpGuard`] hands its sink when it drops.
#[derive(Debug, Clone, Copy)]
pub struct ClosedRoot<'a> {
    /// Compiled-in operation name.
    pub op: &'static str,
    /// The root's time per phase path, borrowed from the thread's
    /// accumulator (one entry per path, the root's own first).
    pub paths: &'a [PathTime],
    /// Whether the root's stack needed recovery (a phase guard leaked
    /// or dropped out of order). Should stay false.
    pub unbalanced: bool,
    /// The request's record, when the root closed a request and
    /// telemetry is on; handshake steps, download chunks and scrub
    /// steps have none.
    pub record: Option<&'a RequestRecord>,
}

/// Where closed roots leave the enclave: the host implements this and
/// attaches one instance; the enclave calls it once per closed root, as
/// an ocall, and hands nothing else out unasked.
pub trait RecordSink: Send + Sync {
    /// Takes one closed root. Runs on the root's thread.
    fn consume(&self, root: &ClosedRoot<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_round_trips_through_its_name() {
        for (slot, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase as usize, slot, "{phase:?}");
            let named = Phase::ALL.iter().find(|p| p.name() == phase.name());
            assert_eq!(named, Some(&phase));
        }
        // The slot order records are indexed by.
        assert_eq!(
            Phase::ALL.map(Phase::name),
            [
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
            ]
        );
    }
}
