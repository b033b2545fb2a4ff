//! The SeGShare enclave: everything inside the trusted boundary.
//!
//! Composition (paper Fig. 1, right side): the trusted TLS interface
//! terminates the secure channel ([`session`]), the request handler
//! dispatches Algorithm 1, the [`access_control`] component enforces
//! Table I/IV, and the trusted [`file_manager`] encrypts and decrypts
//! everything through [`trusted_store`] on its way to the untrusted
//! stores.

pub mod access_control;
pub mod audit;
mod commit;
pub mod file_manager;
pub mod health;
pub mod keys;
pub mod locks;
pub mod names;
pub mod session;
pub mod trusted_store;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use seg_crypto::ed25519::{PublicKey, SecretKey};
use seg_crypto::rng::{SecureRandom, SystemRng};
use seg_crypto::sha256::Sha256;
use seg_obs::{CostVector, RecordSink, Registry, RequestRecord, TraceEvent, TraceRing};
use seg_pki::{Certificate, Csr, Identity};
use seg_sgx::{Enclave, EnclaveImage, Platform, Quote};
use seg_store::{CountingStore, IoStats, ObjectStore, StoreStats};

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use access_control::AccessControl;
use audit::{AuditLog, AuditRecord};
use file_manager::FileManager;
use health::ScrubProgress;
use keys::KeyHierarchy;
use locks::LockManager;
use session::EnclaveSession;
use trusted_store::TrustedStore;

/// Untrusted-store keys for the enclave's sealed state (sealed blobs are
/// self-protecting, so these names are not hidden). They carry the
/// platform id so replicas sharing one central data repository (§V-F)
/// keep separate sealed blobs — sealing is platform-bound.
fn sealed_root_key_name(platform: &Platform) -> String {
    format!("!sealed-root-key-{}", keys::hex(&platform.id()))
}

fn sealed_server_key_name(platform: &Platform) -> String {
    format!("!sealed-server-key-{}", keys::hex(&platform.id()))
}

/// The SeGShare enclave.
///
/// Shared (via `Arc`) between all connection-handling threads of the
/// untrusted host. Concurrency control is per-object: the [`locks`]
/// module's striped [`LockManager`] lets requests touching disjoint
/// objects proceed in parallel, while operations with an unbounded
/// object set (recursive moves, group deletion, tree rebuilds) fall
/// back to its exclusive global mode.
pub struct SegShareEnclave {
    sgx: Arc<Enclave>,
    config: EnclaveConfig,
    ca_key: PublicKey,
    server_key: SecretKey,
    server_cert: RwLock<Option<Arc<Certificate>>>,
    store: Arc<TrustedStore>,
    access: AccessControl,
    files: FileManager,
    locks: LockManager,
    clock: AtomicU64,
    obs: Arc<Registry>,
    audit: Option<Arc<AuditLog>>,
    /// The one telemetry switch, and all the host ever sets.
    telemetry: AtomicBool,
    /// Where closed request records leave the enclave; attached once by
    /// the host. Without one, records stop at the registry and the ring.
    sink: OnceLock<Arc<dyn RecordSink>>,
    /// The integrity scrubber's resumable position.
    scrub: Mutex<ScrubProgress>,
    /// Next request correlation id (shared by every session thread).
    request_ids: AtomicU64,
    /// The counting wrappers around the untrusted stores, kept for
    /// per-store attribution ([`SegShareEnclave::store_io`]) and the
    /// request cost vector.
    counted_stores: Vec<(&'static str, CountedStore)>,
    /// Serializes commit windows (batch mode, the durability plane):
    /// held by [`SegShareEnclave::commit`] around a window's writes and
    /// seal — and, with whole-FS rollback protection, its durability
    /// wait and counter settle — so frame order in the shared log equals
    /// dependency order on the shared root hash records. Always the
    /// *outermost* lock: a window's lock scopes, tree locks and the
    /// audit chain lock are all taken inside it.
    commit_mutex: Mutex<()>,
}

/// A counting wrapper around one of the untrusted object stores.
type CountedStore = Arc<CountingStore<Arc<dyn ObjectStore>>>;

impl std::fmt::Debug for SegShareEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegShareEnclave")
            .field("config", &self.config)
            .field("measurement", &keys::hex(&self.sgx.measurement()[..4]))
            .finish()
    }
}

impl SegShareEnclave {
    /// The enclave image for a given configuration and CA key. The
    /// measurement binds both — "it contains a hard-coded copy of the
    /// CA's public key" (§III-B) — so the CA's attestation check pins
    /// the exact configuration it expects.
    #[must_use]
    pub fn image(config: &EnclaveConfig, ca_key: &PublicKey) -> EnclaveImage {
        let mut code = config.image_bytes();
        code.extend_from_slice(b";ca=");
        code.extend_from_slice(&ca_key.to_bytes());
        EnclaveImage::from_code(&code)
    }

    /// Launches (or restarts) the enclave on `platform` against the
    /// given untrusted stores.
    ///
    /// On first start the enclave generates and seals the root key
    /// `SK_r` and a server key pair; on restarts it unseals them
    /// (§IV-B "File Managers", §IV-A). With `root_key_override` it is a
    /// *replica* around a root key obtained from a root enclave via
    /// [`SegShareEnclave::export_root_key`] (§V-F).
    ///
    /// # Errors
    ///
    /// Fails if sealed state exists but cannot be unsealed (wrong
    /// platform/enclave) or sealing or storage fails.
    pub fn launch(
        platform: &Platform,
        config: EnclaveConfig,
        ca_key: PublicKey,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
        root_key_override: Option<[u8; 32]>,
    ) -> Result<Arc<SegShareEnclave>, SegShareError> {
        config.assert_valid();
        let sgx = Arc::new(platform.launch(&Self::image(&config, &ca_key)));
        let obs = Arc::new(Registry::new());

        // Trace ring: fixed-capacity, lock-free, enclave-resident;
        // attached to the registry so the nested layers (access
        // control, store I/O) can reach it.
        obs.attach_trace(Arc::new(TraceRing::default()));

        // Phase profiler: always attached — inactive threads (no root)
        // make every phase call a no-op, so the cost off the request
        // path is a thread-local check.
        obs.attach_profiler(Arc::new(seg_obs::Profiler::new()));

        // Every untrusted store is wrapped in a counting layer so I/O
        // can be attributed per store (including the sealed-key traffic
        // below).
        let content_counted = Arc::new(CountingStore::new(content));
        let group_counted = Arc::new(CountingStore::new(group));
        let dedup_counted = Arc::new(CountingStore::new(dedup));
        let content: Arc<dyn ObjectStore> = Arc::clone(&content_counted) as Arc<dyn ObjectStore>;
        let group: Arc<dyn ObjectStore> = Arc::clone(&group_counted) as Arc<dyn ObjectStore>;
        let dedup: Arc<dyn ObjectStore> = Arc::clone(&dedup_counted) as Arc<dyn ObjectStore>;

        // Root key: imported (replication), unsealed (restart), or
        // generated-and-sealed (first start).
        let root_name = sealed_root_key_name(platform);
        let root_key: [u8; 32] = match root_key_override {
            Some(key) => {
                let sealed = sgx.seal(&key)?;
                sgx.boundary().ocall(|| content.put(&root_name, &sealed))?;
                key
            }
            None => match sgx.boundary().ocall(|| content.get(&root_name))? {
                Some(blob) => sgx.unseal(&blob)?.try_into().map_err(|_| {
                    SegShareError::Integrity("sealed root key has wrong size".into())
                })?,
                None => {
                    let key: [u8; 32] = SystemRng::new().array();
                    let sealed = sgx.seal(&key)?;
                    sgx.boundary().ocall(|| content.put(&root_name, &sealed))?;
                    key
                }
            },
        };

        // Server key pair: "the enclave generates a temporary key pair"
        // (§IV-A), sealed so restarts keep serving the same certificate.
        let server_name = sealed_server_key_name(platform);
        let server_key = match sgx.boundary().ocall(|| content.get(&server_name))? {
            Some(blob) => {
                let seed: [u8; 32] = sgx.unseal(&blob)?.try_into().map_err(|_| {
                    SegShareError::Integrity("sealed server key has wrong size".into())
                })?;
                SecretKey::from_seed(&seed)
            }
            None => {
                let mut rng = SystemRng::new();
                let seed: [u8; 32] = rng.array();
                let sealed = sgx.seal(&seed)?;
                sgx.boundary()
                    .ocall(|| content.put(&server_name, &sealed))?;
                SecretKey::from_seed(&seed)
            }
        };

        let keys = KeyHierarchy::new(root_key);
        // The audit trail persists through the (counted) content store
        // like the sealed keys do; sealed blobs are self-protecting,
        // so the `!audit-*` names are not hidden.
        let audit = if config.audit {
            Some(Arc::new(AuditLog::load(
                keys.audit_key(),
                Arc::clone(&content),
                Arc::clone(&sgx),
                &config,
                &obs,
            )?))
        } else {
            None
        };
        let store = Arc::new(TrustedStore::new(
            keys,
            config,
            Arc::clone(&sgx),
            content,
            group,
            dedup,
            Arc::clone(&obs),
        ));
        let enclave = Arc::new(SegShareEnclave {
            sgx,
            config,
            ca_key,
            server_key,
            server_cert: RwLock::new(None),
            access: AccessControl::new(Arc::clone(&store)),
            files: FileManager::new(Arc::clone(&store)),
            locks: LockManager::with_registry(&obs),
            store,
            clock: AtomicU64::new(1_000),
            obs,
            audit,
            telemetry: AtomicBool::new(true),
            sink: OnceLock::new(),
            scrub: Mutex::new(ScrubProgress::default()),
            request_ids: AtomicU64::new(0),
            counted_stores: vec![
                ("content", content_counted),
                ("group", group_counted),
                ("dedup", dedup_counted),
            ],
            commit_mutex: Mutex::new(()),
        });
        // Launch's one window: adopt root records one ahead of their
        // counters (a crash lost a durable window's increment) before
        // the first verified read could mistake them for a rollback,
        // then initialize a first boot's coupled objects (directory
        // bodies plus their hash records) as one commit frame — a crash
        // mid-launch must not recover a root directory without its
        // hash record.
        enclave.commit(None, || {
            enclave.store.adopt_root_counters()?;
            enclave.files.init_file_system()
        })?;
        Ok(enclave)
    }

    // ----------------------------------------------- setup/certification

    /// Produces the CSR plus an attestation quote binding it (§IV-A
    /// messages 1–2): the quote's report data is the hash of the CSR, so
    /// the CA knows this exact key pair lives in an attested enclave.
    #[must_use]
    pub fn certification_request(&self, server_name: &str) -> (Csr, Quote) {
        let csr = Csr::new(Identity::server(server_name), &self.server_key);
        let quote = self.sgx.quote(&Sha256::digest(&csr.encode()));
        (csr, quote)
    }

    /// Installs the CA-signed server certificate (§IV-A message 3). "The
    /// enclave checks the certificate's validity."
    ///
    /// # Errors
    ///
    /// Rejects certificates that do not verify under the hard-coded CA
    /// key or that certify a different public key.
    pub fn install_certificate(&self, cert: Certificate) -> Result<(), SegShareError> {
        cert.validate(&self.ca_key, self.now())?;
        if cert.public_key() != self.server_key.public_key() {
            return Err(SegShareError::Protocol(
                "server certificate does not match the enclave key pair".to_string(),
            ));
        }
        *self.server_cert.write() = Some(Arc::new(cert));
        Ok(())
    }

    /// The installed server certificate, if certification completed.
    /// Returned via `Arc` so each session handshake serves the same
    /// installed certificate without deep-copying it.
    #[must_use]
    pub fn server_certificate(&self) -> Option<Arc<Certificate>> {
        self.server_cert.read().clone()
    }

    /// The enclave's logical clock (unix seconds) used for certificate
    /// validation.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------- connections

    /// Starts a new connection session (trusted TLS interface).
    ///
    /// # Errors
    ///
    /// Fails if certification has not completed yet.
    pub fn new_session(&self) -> Result<EnclaveSession, SegShareError> {
        let cert = self.server_certificate().ok_or_else(|| {
            SegShareError::Protocol("enclave has no server certificate yet".to_string())
        })?;
        Ok(EnclaveSession::new(
            cert,
            self.server_key.clone(),
            self.ca_key,
            self.now(),
        ))
    }

    // ---------------------------------------------------------- plumbing

    /// The trusted persistence layer (exposed for benchmarks and
    /// white-box tests).
    #[must_use]
    pub fn store(&self) -> &Arc<TrustedStore> {
        &self.store
    }

    pub(crate) fn access(&self) -> &AccessControl {
        &self.access
    }

    pub(crate) fn files(&self) -> &FileManager {
        &self.files
    }

    /// The per-object lock manager. Public so benchmarks and the
    /// dashboard can read its contention telemetry; the request path
    /// acquires scopes through it in `session.rs`.
    #[must_use]
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The underlying simulated-SGX enclave (stats, counters, EPC).
    #[must_use]
    pub fn sgx(&self) -> &Arc<Enclave> {
        &self.sgx
    }

    /// The telemetry registry. Labels are compiled-in operation names
    /// and error codes only; request content (paths, user ids, key
    /// material) is unrepresentable by construction (`seg-obs` charset
    /// checks).
    pub(crate) fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Captures the registry after folding in the totals kept beside it
    /// that only the enclave can observe: the object cache, EPC usage,
    /// the trace ring, the global-lock clock and the telemetry switch.
    /// With the families written in place (requests, locks, pfs,
    /// rollback tree, audit) that is the enclave's whole export; the
    /// host merges in what it sees for itself
    /// ([`crate::SegShareServer::metrics_snapshot`]).
    ///
    /// A **declassification point** (paper §III): everything in the
    /// snapshot is an aggregate keyed by compiled-in names — nothing
    /// request-derived crosses here.
    #[must_use]
    pub fn metrics_snapshot(&self) -> seg_obs::Snapshot {
        let obs = &self.obs;
        let epc = self.sgx.epc();
        let cache = self.store.cache_stats();
        let (emitted, dropped) = obs
            .trace()
            .map_or((0, 0), |ring| (ring.emitted(), ring.dropped()));
        let mut counters = vec![
            ("seg_trace_events_total", emitted),
            ("seg_trace_dropped_total", dropped),
        ];
        // Object-cache *counters* exist only when the cache is enabled,
        // keeping cache-off snapshots identical to pre-cache builds.
        if let Some(c) = &cache {
            counters.extend([
                ("seg_cache_hits_total", c.hits),
                ("seg_cache_misses_total", c.misses),
                ("seg_cache_fills_total", c.fills),
                ("seg_cache_stale_fills_total", c.stale_fills),
                ("seg_cache_evictions_total", c.evictions),
                ("seg_cache_invalidations_total", c.invalidations),
            ]);
        }
        for (name, total) in counters {
            obs.counter(name).advance_to(total);
        }
        // Gauge families, by contrast, always export: a disabled or
        // idle subsystem reads 0 rather than its series disappearing
        // between snapshots (dashboards need stable families).
        for (name, value) in [
            ("seg_epc_bytes", epc.current_bytes()),
            ("seg_epc_peak_bytes", epc.peak_bytes()),
            ("seg_epc_paged_pages", epc.paged_pages()),
            ("seg_cache_entries", cache.as_ref().map_or(0, |c| c.entries)),
            ("seg_cache_bytes", cache.as_ref().map_or(0, |c| c.bytes)),
            ("seg_lock_global_held_us", self.locks.global_held_us()),
            ("seg_telemetry_enabled", u64::from(self.telemetry_enabled())),
        ] {
            obs.gauge(name).set(value);
        }
        obs.snapshot()
    }

    /// Captures the per-(op, phase-path) profile — like
    /// [`metrics_snapshot`](Self::metrics_snapshot), an explicit
    /// declassification point: phase paths are compiled-in names, values
    /// are aggregate times. Empty if no profiler is attached.
    #[must_use]
    pub fn profile_snapshot(&self) -> seg_obs::ProfSnapshot {
        self.obs
            .profiler()
            .map(|p| p.snapshot())
            .unwrap_or_default()
    }

    // ------------------------------------------------- tracing & audit

    /// Allocates the next request correlation id (1-based; 0 means
    /// "outside any request" throughout the trace machinery).
    pub(crate) fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Keyed fingerprint of a user id for trace/audit events.
    #[must_use]
    pub fn fingerprint_user(&self, user: &seg_fs::UserId) -> u64 {
        self.store
            .keys()
            .fingerprint("user", user.as_str().as_bytes())
    }

    /// Keyed fingerprint of an object name (path, group, ...) for
    /// trace/audit events.
    #[must_use]
    pub fn fingerprint_name(&self, name: &str) -> u64 {
        self.store.keys().fingerprint("object", name.as_bytes())
    }

    /// Copies out up to `n` of the newest trace events, oldest first —
    /// the trace ring's declassification point. Events carry interned
    /// operation/code labels and keyed fingerprints only.
    #[must_use]
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        self.obs.trace().map_or_else(Vec::new, |r| r.tail(n))
    }

    /// Operation, byte and fsync totals of each untrusted store as the
    /// enclave drove it — numbers the host sees go by anyway.
    #[must_use]
    pub fn store_io(&self) -> Vec<(&'static str, StoreStats, IoStats)> {
        self.counted_stores
            .iter()
            .map(|(store, counted)| (*store, counted.stats(), counted.io_stats()))
            .collect()
    }

    // --------------------------------------------------------- telemetry

    /// Attaches the sink closed request records leave through. The
    /// first call wins; an enclave launched without a server (the
    /// white-box tests) simply has none.
    pub fn attach_sink(&self, sink: Arc<dyn RecordSink>) {
        let _ = self.sink.set(sink);
    }

    /// Whether telemetry runs (see [`SegShareEnclave::set_telemetry`]).
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.load(Ordering::Relaxed)
    }

    /// The one runtime telemetry switch, on by default, and the only
    /// telemetry state the host sets. Off, no record is built or handed
    /// out (a request pays one relaxed atomic load) and the host's
    /// health tick, scrubber and canary are inert; everything
    /// accumulated so far is kept and every family still exports. The
    /// audit trail is not telemetry and is unaffected.
    pub fn set_telemetry(&self, on: bool) {
        self.telemetry.store(on, Ordering::Relaxed);
    }

    /// The global counters a request's cost vector is differenced from:
    /// cache hits/misses, store read/write op counts, and sealed audit
    /// bytes. One cheap atomic-load sweep, no ocalls.
    ///
    /// The differences are per-thread reads of global counters, so
    /// concurrent requests can shift a few units of cache/store/audit
    /// activity between each other; totals stay conserved, and the
    /// meter's sketches only need ranks, not exact per-key I/O.
    pub(crate) fn cost_counters(&self) -> CostVector {
        let cache = self.store.cache_stats();
        let mut cost = CostVector {
            cache_hits: cache.as_ref().map_or(0, |c| c.hits),
            cache_misses: cache.as_ref().map_or(0, |c| c.misses),
            audit_bytes: self.audit.as_ref().map_or(0, |log| log.bytes_appended()),
            ..CostVector::default()
        };
        for (_, counted) in &self.counted_stores {
            let s = counted.stats();
            cost.store_reads += s.gets + s.exists + s.lists;
            cost.store_writes += s.puts + s.deletes + s.renames;
        }
        cost
    }

    /// The only telemetry emission on the request path: one closed
    /// request feeds the request families and the trace ring's header
    /// event, then leaves through the sink — the one place a record is
    /// handed out of the enclave, counted as the ocall it is. The audit
    /// trail took its ids and outcome from the record before this.
    pub(crate) fn request_done(&self, rec: &RequestRecord) {
        self.obs.consume(rec);
        if let Some(ring) = self.obs.trace() {
            ring.consume(rec);
        }
        if let Some(sink) = self.sink.get() {
            self.sgx.boundary().ocall(|| sink.consume(rec));
        }
    }

    /// The audit log, when `EnclaveConfig::audit` is enabled.
    #[must_use]
    pub fn audit(&self) -> Option<&Arc<AuditLog>> {
        self.audit.as_ref()
    }

    /// Verifies the persisted audit chain end to end, returning the
    /// record count (0 when auditing is disabled).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] naming the detected tamper
    /// class (truncation, reorder/substitution, bit-flip, head
    /// rollback).
    pub fn audit_verify(&self) -> Result<u64, SegShareError> {
        self.audit.as_ref().map_or(Ok(0), |log| log.verify())
    }

    /// Decrypts and returns the verified audit chain. Records carry
    /// stable keyed fingerprints instead of principal identities —
    /// this is the audit trail's declassification point.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`SegShareEnclave::audit_verify`] fails.
    pub fn audit_export(&self) -> Result<Vec<AuditRecord>, SegShareError> {
        self.audit
            .as_ref()
            .map_or_else(|| Ok(Vec::new()), |log| log.export())
    }

    /// Reclaims dedup blobs whose reference count dropped to zero,
    /// returning how many were deleted. GC mutates an unbounded object
    /// set (the refcount index plus any number of blobs), so it runs
    /// under the exclusive global scope, inside its own commit window —
    /// a crash mid-GC either keeps or drops the whole pass.
    pub fn blob_gc(&self) -> Result<u64, SegShareError> {
        self.commit(None, || {
            let _scope = self.locks.acquire_global();
            self.files.blob_gc()
        })
    }

    /// The enclave configuration.
    #[must_use]
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    // -------------------------------------------------- replication (§V-F)

    /// Exports the root key to a peer enclave after mutual attestation:
    /// both quotes must verify under the respective platforms'
    /// attestation keys and carry the *same measurement* — "if the
    /// measurements of both enclaves are equal, the non-root enclave is
    /// assured to communicate with another enclave that was compiled for
    /// the same CA" (§V-F).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Sgx`] if either quote fails or the
    /// measurements differ.
    pub fn export_root_key(
        &self,
        peer_quote: &Quote,
        peer_attestation_key: &PublicKey,
    ) -> Result<[u8; 32], SegShareError> {
        let peer_measurement = peer_quote.verify(peer_attestation_key)?;
        if peer_measurement != self.sgx.measurement() {
            return Err(SegShareError::Protocol(
                "peer enclave measurement differs; refusing root key export".to_string(),
            ));
        }
        Ok(*self.store.keys().root())
    }

    /// Recomputes the rollback tree from the stored objects and
    /// re-anchors counters — backup restoration (§V-G) — in one commit
    /// window under the exclusive global scope. The caller is the
    /// CA-signed reset path in [`crate::server::SegShareServer`].
    pub(crate) fn rebuild_after_restore(&self) -> Result<(), SegShareError> {
        self.commit(None, || {
            let _scope = self.locks.acquire_global();
            self.store.rebuild_tree()
        })
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared white-box fixtures for the enclave component tests.

    use std::sync::Arc;

    use seg_sgx::{EnclaveImage, Platform};
    use seg_store::MemStore;

    use super::access_control::AccessControl;
    use super::file_manager::FileManager;
    use super::keys::KeyHierarchy;
    use super::trusted_store::TrustedStore;
    use crate::config::EnclaveConfig;

    pub(crate) struct ComponentFixture {
        pub access: AccessControl,
        pub files: FileManager,
    }

    pub(crate) fn components(config: EnclaveConfig) -> ComponentFixture {
        let platform = Platform::new_with_seed(99);
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"component-test")));
        let store = Arc::new(TrustedStore::new(
            KeyHierarchy::new([5u8; 32]),
            config,
            sgx,
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(seg_obs::Registry::new()),
        ));
        let access = AccessControl::new(Arc::clone(&store));
        let files = FileManager::new(Arc::clone(&store));
        files.init_file_system().expect("init");
        ComponentFixture { access, files }
    }
}
