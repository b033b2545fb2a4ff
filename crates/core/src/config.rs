//! Enclave configuration: the §V extension toggles and tuning knobs.

/// Configuration compiled into the SeGShare enclave.
///
/// Defaults match the paper's evaluated prototype (§VI): filename hiding
/// and individual-file rollback protection *on*; deduplication and
/// whole-file-system rollback protection are extensions benchmarks and
/// tests opt into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnclaveConfig {
    /// Server-side deduplication via a third store (§V-A).
    pub dedup: bool,
    /// Hide filenames and directory structure: store every object under
    /// an HMAC-derived pseudorandom name (§V-C).
    pub hide_names: bool,
    /// Individual-file rollback protection: the Merkle-tree variant with
    /// incremental multiset hashes and bucket hashes (§V-D).
    pub rollback_individual: bool,
    /// Whole-file-system rollback protection via a TEE monotonic counter
    /// (§V-E). Requires `rollback_individual`.
    pub rollback_whole_fs: bool,
    /// Bucket hashes per directory node in the rollback tree (§V-D's
    /// second optimization). `1` degenerates to a single multiset hash
    /// per node (the ablation case: leaf validation then touches *all*
    /// siblings).
    pub rollback_buckets: u16,
    /// Permission inheritance resolution walks ancestors while the
    /// inherit flag stays set (§V-B).
    pub max_inherit_depth: u32,
    /// Tamper-evident audit trail: one sealed, hash-chained record per
    /// operation through the untrusted store. A control request is one
    /// record; an upload is one too, its header's decision appended with
    /// its outcome when it ends, however many frames it took.
    pub audit: bool,
    /// The stall deadline (µs): a request at least this slow is kept
    /// whole in the slow-request log, counts as slow in the meter and
    /// against the latency objective, **and** trips the stall watchdog,
    /// which stores the correlated report. One knob, one source of
    /// truth — no two consumers can disagree about what "slow" means.
    /// 0 disables all of it, the watchdog's global-lock budget
    /// (`enclave::watch::GLOBAL_LOCK_BUDGET_US`) included.
    pub watch_deadline_us: u64,
    /// In-enclave object cache (`seg-cache`): decoded metadata (ACLs,
    /// member/group lists, dirfiles, rollback-tree records) and small
    /// hot content bodies are kept in enclave memory with write-through
    /// generation invalidation, charged against the EPC tracker. Off
    /// means byte-identical behavior to a build without the cache.
    pub cache: bool,
    /// Cadence (µs) of the health plane's background integrity
    /// scrubber: each period it advances an incremental audit-chain
    /// verification, re-verifies a budgeted slice of the namespace
    /// against the rollback tree, probes cache coherence, and — at the
    /// end of each full pass — scans the stores for orphaned objects.
    /// Only consulted once a health runner is started
    /// (`SegShareServer::start_health`); 0 disables the scrubber while
    /// leaving rollups and the canary active.
    pub scrub_interval_us: u64,
    /// Group-commit write batching (the durability plane): each
    /// request's store writes accumulate into one `WriteBatch` sealed
    /// at the dispatch commit point, so a durable backend fsyncs a
    /// request's blob + tree records + metadata + audit append as a
    /// single atomic unit, and concurrent requests coalesce into one
    /// fsync. A no-op on purely in-memory stores; §V-E counter
    /// increments are deferred to the durability point when set.
    pub batch: bool,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            dedup: false,
            hide_names: true,
            rollback_individual: true,
            rollback_whole_fs: false,
            rollback_buckets: 64,
            max_inherit_depth: 64,
            audit: true,
            watch_deadline_us: 100_000,
            cache: false,
            scrub_interval_us: 1_000_000,
            batch: false,
        }
    }
}

impl EnclaveConfig {
    /// The paper's evaluated prototype configuration (§VI).
    #[must_use]
    pub fn paper_prototype() -> EnclaveConfig {
        EnclaveConfig::default()
    }

    /// Everything off — the minimal core design of §IV only.
    #[must_use]
    pub fn minimal() -> EnclaveConfig {
        EnclaveConfig {
            dedup: false,
            hide_names: false,
            rollback_individual: false,
            rollback_whole_fs: false,
            rollback_buckets: 64,
            max_inherit_depth: 64,
            audit: false,
            watch_deadline_us: 0,
            cache: false,
            scrub_interval_us: 0,
            batch: false,
        }
    }

    /// Every §V extension enabled. The object cache stays off — it is an
    /// operational accelerator, not a paper extension, and callers that
    /// want it opt in explicitly.
    #[must_use]
    pub fn full() -> EnclaveConfig {
        EnclaveConfig {
            dedup: true,
            hide_names: true,
            rollback_individual: true,
            rollback_whole_fs: true,
            rollback_buckets: 64,
            max_inherit_depth: 64,
            audit: true,
            watch_deadline_us: 100_000,
            cache: false,
            scrub_interval_us: 1_000_000,
            batch: false,
        }
    }

    /// Serializes the config into the enclave image so the measurement
    /// (and with it sealing keys) binds the configuration.
    #[must_use]
    pub fn image_bytes(&self) -> Vec<u8> {
        format!(
            "segshare-enclave-v1;dedup={};hide={};rb_ind={};rb_fs={};buckets={};inherit={};audit={}",
            self.dedup,
            self.hide_names,
            self.rollback_individual,
            self.rollback_whole_fs,
            self.rollback_buckets,
            self.max_inherit_depth,
            self.audit
        )
        .into_bytes()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `rollback_whole_fs` is set without
    /// `rollback_individual`, or `rollback_buckets` is zero.
    pub fn assert_valid(&self) {
        assert!(
            self.rollback_individual || !self.rollback_whole_fs,
            "whole-file-system rollback protection requires the individual-file tree"
        );
        assert!(self.rollback_buckets > 0, "at least one bucket required");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_prototype() {
        let c = EnclaveConfig::default();
        assert!(c.hide_names);
        assert!(c.rollback_individual);
        assert!(!c.dedup);
        assert!(!c.rollback_whole_fs);
        c.assert_valid();
        EnclaveConfig::minimal().assert_valid();
        EnclaveConfig::full().assert_valid();
    }

    #[test]
    fn image_bytes_bind_configuration() {
        let a = EnclaveConfig::default().image_bytes();
        let cfg = EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        };
        assert_ne!(a, cfg.image_bytes());
        let no_audit = EnclaveConfig {
            audit: false,
            ..EnclaveConfig::default()
        };
        assert_ne!(a, no_audit.image_bytes());
        // The stall deadline and the scrub cadence are operational
        // tuning, not security toggles: they must NOT change the
        // measurement.
        let tuned = EnclaveConfig {
            watch_deadline_us: 5,
            scrub_interval_us: 42,
            ..EnclaveConfig::default()
        };
        assert_eq!(a, tuned.image_bytes());
        // The object cache only changes *where* verified plaintext is
        // held inside the enclave, never what leaves it — also
        // operational, also outside the measurement.
        let cached = EnclaveConfig {
            cache: true,
            ..EnclaveConfig::default()
        };
        assert_eq!(a, cached.image_bytes());
        // Batching changes durability scheduling, not the protocol or
        // any key derivation — operational, outside the measurement.
        let batched = EnclaveConfig {
            batch: true,
            ..EnclaveConfig::default()
        };
        assert_eq!(a, batched.image_bytes());
    }

    #[test]
    #[should_panic(expected = "requires the individual-file tree")]
    fn inconsistent_rollback_config_panics() {
        let cfg = EnclaveConfig {
            rollback_individual: false,
            rollback_whole_fs: true,
            ..EnclaveConfig::default()
        };
        cfg.assert_valid();
    }
}
