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
mod ocall;
pub mod session;
pub mod trusted_store;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use seg_cache::CacheStats;
use seg_crypto::ed25519::{PublicKey, SecretKey};
use seg_crypto::rng::{SecureRandom, SystemRng};
use seg_crypto::sha256::Sha256;
use seg_obs::prof::OpGuard;
use seg_obs::{ClosedRoot, CostVector, RecordSink};
use seg_pki::{Certificate, Csr, Identity};
use seg_sgx::{Enclave, EnclaveImage, Platform, Quote};
use seg_store_api::{ObjectStore, WriteBatch};

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use access_control::AccessControl;
use audit::{AuditLog, AuditRecord};
use file_manager::FileManager;
use health::ScrubProgress;
use keys::KeyHierarchy;
use locks::LockManager;
use ocall::StoreOcall;
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

/// The 32-byte secret sealed under `name`: unsealed on a restart, or
/// generated on a first start, together with its sealed blob for the
/// caller to store under `name`.
fn unseal_or_generate(
    sgx: &Enclave,
    store: &StoreOcall,
    name: &str,
    what: &str,
) -> Result<([u8; 32], Option<Vec<u8>>), SegShareError> {
    if let Some(blob) = store.get(name)? {
        let secret: [u8; 32] = sgx
            .unseal(&blob)?
            .try_into()
            .map_err(|_| SegShareError::Integrity(format!("sealed {what} has wrong size")))?;
        return Ok((secret, None));
    }
    let secret: [u8; 32] = SystemRng::new().array();
    Ok((secret, Some(sgx.seal(&secret)?)))
}

/// Stores `value` under `name`: a write of one op.
fn put_one(store: &StoreOcall, name: &str, value: Vec<u8>) -> Result<(), SegShareError> {
    let mut batch = WriteBatch::new();
    batch.put(name, value);
    store.write(batch)
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
    audit: Option<Arc<AuditLog>>,
    /// The one telemetry switch, and all the host ever sets.
    telemetry: AtomicBool,
    /// Where closed roots leave the enclave; attached once by the host.
    /// Without one, no root opens and nothing leaves.
    sink: OnceLock<Ocall>,
    /// The integrity scrubber's resumable position.
    scrub: Mutex<ScrubProgress>,
    /// Next request correlation id (shared by every session thread).
    request_ids: AtomicU64,
    /// Serializes commit windows (batch mode, the durability plane):
    /// held by [`SegShareEnclave::commit`] around a window's writes and
    /// seal — and, with whole-FS rollback protection, its durability
    /// wait and counter settle — so frame order in the shared log equals
    /// dependency order on the shared root hash records. Always the
    /// *outermost* lock: a window's lock scopes, tree locks and the
    /// audit chain lock are all taken inside it.
    commit_mutex: Mutex<()>,
}

/// The host's sink behind the ocall that reaches it: every closed root
/// crosses the boundary once, counted and charged as the ocall it is.
struct Ocall {
    sgx: Arc<Enclave>,
    host: Arc<dyn RecordSink>,
}

impl RecordSink for Ocall {
    fn consume(&self, root: &ClosedRoot<'_>) {
        self.sgx.boundary().ocall(|| self.host.consume(root));
    }
}

/// The enclave-wide values behind the host's enclave families, pulled
/// in one call at each scrape ([`SegShareEnclave::stats`]): what no
/// request's record carries. Counts and gauges only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnclaveStats {
    /// Object-cache totals and gauges; `None` with the cache off.
    pub cache: Option<CacheStats>,
    /// Enclave memory in use.
    pub epc_bytes: u64,
    /// Its peak so far.
    pub epc_peak_bytes: u64,
    /// Pages paged out so far.
    pub epc_paged_pages: u64,
    /// The global-hold clock: the live exclusive hold of the global
    /// lock as `(start stamp, µs held so far)`, `None` when it is free.
    pub global_hold: Option<(u64, u64)>,
    /// The telemetry switch.
    pub telemetry_enabled: bool,
    /// Body decrypts of the protected file system.
    pub pfs_decrypts: u64,
    /// Audit records and sealed bytes appended by this process; `None`
    /// with the audit trail off.
    pub audit: Option<(u64, u64)>,
}

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

        // The enclave reaches each untrusted store only through its
        // ocall stub, the sealed-key traffic below included.
        let [content, group, dedup] = [content, group, dedup].map(|s| StoreOcall::new(&sgx, s));

        // Root key: imported (replication), unsealed (restart), or
        // generated (first start) — the one case that initializes the
        // file system, and stores its sealed key in the same window.
        let root_name = sealed_root_key_name(platform);
        let (root_key, first_start) = match root_key_override {
            Some(key) => {
                put_one(&content, &root_name, sgx.seal(&key)?)?;
                (key, None)
            }
            None => unseal_or_generate(&sgx, &content, &root_name, "root key")?,
        };
        // Server key pair: "the enclave generates a temporary key pair"
        // (§IV-A), sealed so restarts keep serving the same certificate.
        let server_name = sealed_server_key_name(platform);
        let (seed, sealed) = unseal_or_generate(&sgx, &content, &server_name, "server key")?;
        if let Some(sealed) = sealed {
            put_one(&content, &server_name, sealed)?;
        }
        let server_key = SecretKey::from_seed(&seed);

        let keys = KeyHierarchy::new(root_key);
        // The audit trail persists through the content store like the
        // sealed keys do; sealed blobs are self-protecting,
        // so the `!audit-*` names are not hidden.
        let audit = if config.audit {
            Some(Arc::new(AuditLog::load(
                keys.audit_key(),
                Arc::clone(&content),
                Arc::clone(&sgx),
                &config,
            )?))
        } else {
            None
        };
        let store = Arc::new(TrustedStore::new(
            keys,
            config,
            Arc::clone(&sgx),
            Arc::clone(&content),
            group,
            dedup,
        ));
        let enclave = Arc::new(SegShareEnclave {
            sgx,
            config,
            ca_key,
            server_key,
            server_cert: RwLock::new(None),
            access: AccessControl::new(Arc::clone(&store)),
            files: FileManager::new(Arc::clone(&store)),
            locks: LockManager::new(),
            store,
            clock: AtomicU64::new(1_000),
            audit,
            telemetry: AtomicBool::new(true),
            sink: OnceLock::new(),
            scrub: Mutex::new(ScrubProgress::default()),
            request_ids: AtomicU64::new(0),
            commit_mutex: Mutex::new(()),
        });
        // Launch's one window: adopt root records one ahead of their
        // counters (a crash lost a durable window's increment) before
        // the first verified read could mistake them for a rollback,
        // then write a first start's coupled objects (directory bodies
        // plus their hash records) as one commit frame — a crash
        // mid-launch must not recover a root directory without its
        // hash record. The sealed root key goes last: a first start cut
        // short before it is a first start again.
        enclave.commit(None, || {
            enclave.store.adopt_root_counters()?;
            if let Some(sealed) = first_start {
                enclave.files.init_file_system()?;
                put_one(&content, &root_name, sealed)?;
            }
            Ok(())
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

    /// The per-object lock manager: the request path acquires scopes
    /// through it in `session.rs`.
    pub(crate) fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The underlying simulated-SGX enclave (stats, counters, EPC).
    #[must_use]
    pub fn sgx(&self) -> &Arc<Enclave> {
        &self.sgx
    }

    /// The enclave-wide values the host mirrors into its export: a
    /// **declassification point** (paper §III), counts and gauges only.
    /// The object-cache totals are `None` with the cache off, keeping
    /// cache-off exports identical to pre-cache builds.
    #[must_use]
    pub fn stats(&self) -> EnclaveStats {
        let epc = self.sgx.epc();
        EnclaveStats {
            cache: self.store.cache_stats(),
            epc_bytes: epc.current_bytes(),
            epc_peak_bytes: epc.peak_bytes(),
            epc_paged_pages: epc.paged_pages(),
            global_hold: self.locks.global_hold(),
            telemetry_enabled: self.telemetry_enabled(),
            pfs_decrypts: self.store.pfs_decrypts(),
            audit: self.audit.as_ref().map(|log| log.appended()),
        }
    }

    // ------------------------------------------- request ids & audit

    /// Allocates the next request correlation id (1-based).
    pub(crate) fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Keyed fingerprint of a user id for records and audit events.
    #[must_use]
    pub fn fingerprint_user(&self, user: &seg_fs::UserId) -> u64 {
        self.store
            .keys()
            .fingerprint("user", user.as_str().as_bytes())
    }

    /// Keyed fingerprint of an object name (path, group, ...) for
    /// records and audit events.
    #[must_use]
    pub fn fingerprint_name(&self, name: &str) -> u64 {
        self.store.keys().fingerprint("object", name.as_bytes())
    }

    // --------------------------------------------------------- telemetry

    /// Attaches the sink closed roots leave through, each in one ocall.
    /// The first call wins; an enclave launched without a server (the
    /// white-box tests) simply has none, and opens no roots.
    pub fn attach_sink(&self, sink: Arc<dyn RecordSink>) {
        let sgx = Arc::clone(&self.sgx);
        let _ = self.sink.set(Ocall { sgx, host: sink });
    }

    /// Opens a profiler root for `op` on the current thread against the
    /// attached sink, so phase calls anywhere below attribute into it.
    /// `None` without a sink; an inert guard when the thread already
    /// has an active root.
    pub(crate) fn begin_root(&self, op: &'static str) -> Option<OpGuard<'_>> {
        self.sink.get().map(|sink| OpGuard::begin(sink, op))
    }

    /// Whether telemetry runs (see [`SegShareEnclave::set_telemetry`]).
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.load(Ordering::Relaxed)
    }

    /// The one runtime telemetry switch, on by default, and the only
    /// telemetry state the host sets. Off, no record is built or handed
    /// out and the host's health tick, scrubber and canary are inert;
    /// everything accumulated so far is kept and every family still
    /// exports. It does not pause the phase clock: a request still opens
    /// its root and every frame below it, charges its lock waits, and its
    /// root still crosses to the host's profile when it closes. The
    /// audit trail is not telemetry and is unaffected.
    pub fn set_telemetry(&self, on: bool) {
        self.telemetry.store(on, Ordering::Relaxed);
    }

    /// The global counters a request's cost vector is differenced from:
    /// cache hits/misses, the store stubs' read and write tallies, and
    /// sealed audit bytes. One cheap atomic-load sweep, no ocalls.
    ///
    /// The differences are per-thread reads of global counters, so
    /// concurrent requests can shift a few units of cache/store/audit
    /// activity between each other; totals stay conserved.
    pub(crate) fn cost_counters(&self) -> CostVector {
        let (cache_hits, cache_misses) = self.store.cache_lookups().unwrap_or_default();
        let mut cost = CostVector {
            cache_hits,
            cache_misses,
            audit_bytes: self.audit.as_ref().map_or(0, |log| log.appended().1),
            ..CostVector::default()
        };
        for store in self.store.stores() {
            let (reads, writes) = store.tally();
            cost.store_reads += reads;
            cost.store_writes += writes;
        }
        cost
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
    /// rollback). Reads inside a commit window, as every store access
    /// after launch does.
    pub fn audit_verify(&self) -> Result<u64, SegShareError> {
        let audit = self.audit.as_deref();
        self.commit(None, || audit.map_or(Ok(0), AuditLog::verify))
    }

    /// Decrypts and returns the verified audit chain. Records carry
    /// stable keyed fingerprints instead of principal identities —
    /// this is the audit trail's declassification point.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`SegShareEnclave::audit_verify`] fails.
    pub fn audit_export(&self) -> Result<Vec<AuditRecord>, SegShareError> {
        let audit = self.audit.as_deref();
        self.commit(None, || audit.map_or(Ok(vec![]), AuditLog::export))
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
    /// CA-signed reset path in `segshare::SegShareServer`.
    pub fn rebuild_after_restore(&self) -> Result<(), SegShareError> {
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
    use super::ocall::StoreOcall;
    use super::trusted_store::TrustedStore;
    use crate::config::EnclaveConfig;

    pub(crate) struct ComponentFixture {
        pub access: AccessControl,
        pub files: FileManager,
        pub sgx: Arc<seg_sgx::Enclave>,
    }

    pub(crate) fn components(config: EnclaveConfig) -> ComponentFixture {
        let platform = Platform::new_with_seed(99);
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"component-test")));
        let [content, group, dedup] =
            [(); 3].map(|()| StoreOcall::new(&sgx, Arc::new(MemStore::new())));
        let store = Arc::new(TrustedStore::new(
            KeyHierarchy::new([5u8; 32]),
            config,
            Arc::clone(&sgx),
            content,
            group,
            dedup,
        ));
        let access = AccessControl::new(Arc::clone(&store));
        let files = FileManager::new(Arc::clone(&store));
        files.init_file_system().expect("init");
        ComponentFixture { access, files, sgx }
    }
}
