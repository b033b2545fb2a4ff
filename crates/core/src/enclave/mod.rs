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
pub mod file_manager;
pub mod health;
pub mod keys;
pub mod locks;
pub mod names;
pub mod session;
pub mod trusted_store;
pub mod watch;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use seg_crypto::ed25519::{PublicKey, SecretKey};
use seg_crypto::rng::{SecureRandom, SystemRng};
use seg_crypto::sha256::Sha256;
use seg_obs::{
    events_json, records_json, CostVector, Meter, Registry, RequestRecord, TraceEvent, TraceRing,
    METER_AXES,
};
use seg_pki::{Certificate, Csr, Identity};
use seg_sgx::{Enclave, EnclaveImage, Platform, Quote};
use seg_store::{CommitTicket, CountingStore, ObjectStore};

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use access_control::AccessControl;
use audit::{AuditLog, AuditRecord};
use file_manager::FileManager;
use health::HealthState;
use keys::KeyHierarchy;
use locks::LockManager;
use session::EnclaveSession;
use trusted_store::TrustedStore;
use watch::WatchStats;

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
    /// Saturation gauges (shared with the untrusted serve loop), the
    /// stall watchdog with its stored dump, and the telemetry switch.
    watch: Arc<WatchStats>,
    /// The history clock (flight frames, headline levels, SLO burn),
    /// integrity-scrubber progress, canary counters, and the
    /// healthy/degraded/failing verdict.
    health: Arc<HealthState>,
    /// Per-fingerprint cost attribution in cardinality-bounded top-K
    /// sketches.
    meter: Arc<Meter>,
    /// Next request correlation id (shared by every session thread).
    request_ids: AtomicU64,
    /// The counting wrappers around the untrusted stores, kept for
    /// per-store attribution in [`SegShareEnclave::metrics_snapshot`].
    counted_stores: Vec<(&'static str, CountedStore)>,
    /// Serializes batch commit windows (batch mode, the durability
    /// plane). Held from [`SegShareEnclave::batch_begin`] through the
    /// seal — and, with whole-FS rollback protection, through the
    /// deferred counter increments in [`SegShareEnclave::batch_wait`] —
    /// so frame order in the shared log equals dependency order on the
    /// shared root hash records, and a root record is never more than
    /// one ahead of its hardware counter. Always the *outermost* lock:
    /// taken before any [`LockManager`] scope, tree lock, or audit
    /// state lock.
    batch_commit: Mutex<()>,
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
    /// (§IV-B "File Managers", §IV-A).
    ///
    /// # Errors
    ///
    /// Fails if sealed state exists but cannot be unsealed (wrong
    /// platform/enclave) or storage fails.
    pub fn launch(
        platform: &Platform,
        config: EnclaveConfig,
        ca_key: PublicKey,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
    ) -> Result<Arc<SegShareEnclave>, SegShareError> {
        Self::launch_inner(platform, config, ca_key, content, group, dedup, None)
    }

    /// Launches a *replica* enclave around a root key obtained from a
    /// root enclave via [`SegShareEnclave::export_root_key`] (§V-F).
    ///
    /// # Errors
    ///
    /// Propagates sealing and storage failures.
    pub fn launch_with_root_key(
        platform: &Platform,
        config: EnclaveConfig,
        ca_key: PublicKey,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
        root_key: [u8; 32],
    ) -> Result<Arc<SegShareEnclave>, SegShareError> {
        Self::launch_inner(
            platform,
            config,
            ca_key,
            content,
            group,
            dedup,
            Some(root_key),
        )
    }

    fn launch_inner(
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
        let ring = Arc::new(TraceRing::default());
        // One source of truth: the stall deadline is also the slow-log
        // threshold, so the slow log and the stall watchdog agree.
        ring.set_slow_threshold_us(config.watch_deadline_us);
        obs.attach_trace(ring);

        // Phase profiler: always attached — inactive threads (no root)
        // make every phase call a no-op, so the cost off the request
        // path is a thread-local check.
        obs.attach_profiler(Arc::new(seg_obs::Profiler::new()));

        // Every untrusted store is wrapped in a counting layer so the
        // telemetry snapshot can attribute I/O per store (including the
        // sealed-key traffic below).
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
                config.rollback_whole_fs,
                config.batch,
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
            watch: Arc::new(WatchStats::new(config.watch_deadline_us)),
            health: Arc::new(HealthState::new(&config)),
            meter: Arc::new(Meter::new(config.watch_deadline_us)),
            request_ids: AtomicU64::new(0),
            counted_stores: vec![
                ("content", content_counted),
                ("group", group_counted),
                ("dedup", dedup_counted),
            ],
            batch_commit: Mutex::new(()),
        });
        // Batch-mode crash recovery: a root hash record one ahead of
        // its hardware counter is the previous process's durable-but-
        // unacknowledged batch; catch the counter up before the first
        // verified read could mistake it for a rollback.
        //
        // First-boot initialization writes several coupled objects
        // (directory bodies plus their hash records); in batch mode
        // they must land in one commit frame, or a crash mid-launch
        // recovers a root directory without its hash record and every
        // later request fails verification.
        {
            let guard = enclave.batch_begin(true);
            enclave.store.adopt_root_counters()?;
            enclave.files.init_file_system()?;
            if guard.is_some() {
                let tickets = enclave.batch_seal()?;
                enclave.batch_wait(tickets)?;
            }
        }
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

    /// Advances the logical clock.
    pub fn set_now(&self, now: u64) {
        self.clock.store(now, Ordering::Relaxed);
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
    #[must_use]
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
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

    /// Copies out up to `n` of the newest slow requests (latency at or
    /// above `EnclaveConfig::watch_deadline_us`), oldest first — whole
    /// records, so one slow request is explainable from one entry.
    #[must_use]
    pub fn slow_requests(&self, n: usize) -> Vec<RequestRecord> {
        self.obs.trace().map_or_else(Vec::new, |r| r.slow_tail(n))
    }

    // --------------------------------------------------------- telemetry

    /// Saturation gauges and the stall watchdog's counters/dump slot.
    /// The untrusted serve loop feeds the session/in-flight/backlog
    /// gauges through this handle — they are load numbers, not request
    /// content.
    #[must_use]
    pub fn watch(&self) -> &Arc<WatchStats> {
        &self.watch
    }

    /// The meter (per-principal/object/group/prefix cost attribution).
    #[must_use]
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// Whether telemetry runs (see [`SegShareEnclave::set_telemetry`]).
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.watch.enabled()
    }

    /// The one runtime telemetry switch, on by default. Off, no record
    /// is built or consumed (a request pays one relaxed atomic load)
    /// and the health runner's tick, scrubber and canary are inert;
    /// everything accumulated so far is kept and every family still
    /// exports. The audit trail is not telemetry and is unaffected.
    pub fn set_telemetry(&self, on: bool) {
        self.watch.set_enabled(on);
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

    /// The only telemetry emission on the request path: hands one
    /// closed request to every consumer — the request families, the
    /// trace ring and slow log, the meter, the SLO windows and headline
    /// history (whose clock it also ticks), and the stall watchdog.
    pub(crate) fn request_done(&self, rec: &RequestRecord) {
        self.obs.consume(rec);
        if let Some(ring) = self.obs.trace() {
            ring.consume(rec);
        }
        self.meter.consume(rec);
        let monitor = self.health.monitor();
        monitor.consume(rec);
        monitor.tick_if_due(&self.obs);
        if self.watch.consume(rec) {
            self.watch.store_dump(self.report());
        }
    }

    /// Every consumer's view at one instant, as one JSON document:
    /// `saturation`, `stalls`, `locks` (global-hold clock and the
    /// contended-stripe top-K), `flight` frames, `trace_tail`,
    /// `slow_requests` (whole records), the phase `profile`, `health`
    /// (verdict, scrubber, canary, alerts, SLO burn, headline history)
    /// and `meter` — so an incident is diagnosed from correlated
    /// evidence instead of unsynchronized dumps. The stall watchdog
    /// stores the same bundle.
    ///
    /// A declassification point like
    /// [`metrics_snapshot`](Self::metrics_snapshot), and the widest:
    /// every section is compiled-in names, aggregate numbers and keyed
    /// fingerprints (see [`seg_obs::record`]).
    #[must_use]
    pub fn report(&self) -> String {
        let monitor = self.health.monitor();
        // The bundle always holds the most recent window.
        monitor.tick_at(&self.obs, monitor.now_us());
        let net = self.watch.net_meter();
        let mut out = format!(
            "{{\n\"enabled\":{},\n\"saturation\":{{\"live_sessions\":{},\"in_flight\":{},\
             \"queued_bytes\":{},\"send_stalls\":{},\"send_stall_ns\":{},\"idle_us\":{}}},\n",
            self.telemetry_enabled(),
            self.watch.live_sessions(),
            self.watch.in_flight(),
            net.queued_bytes(),
            net.send_stalls(),
            net.send_stall_ns(),
            net.idle_us(),
        );
        out.push_str(&format!(
            "\"stalls\":{{\"request\":{},\"global_lock\":{},\"dumps\":{}}},\n",
            self.watch.stalls_request(),
            self.watch.stalls_global(),
            self.watch.dumps(),
        ));
        out.push_str(&format!(
            "\"locks\":{{\"global_held_us\":{},\"lock_top\":[",
            self.locks.global_held_us()
        ));
        for (i, row) in self.locks.contended_stripes(8).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stripe\":{},\"wait_ns\":{},\"waits\":{}}}",
                row.stripe, row.wait_ns, row.waits
            ));
        }
        out.push_str("]},\n\"flight\":");
        out.push_str(&monitor.flight_json());
        out.push_str(",\n\"trace_tail\":");
        out.push_str(events_json(&self.trace_tail(64)).trim_end());
        out.push_str(",\n\"slow_requests\":");
        out.push_str(records_json(&self.slow_requests(32)).trim_end());
        out.push_str(",\n\"profile\":");
        out.push_str(self.profile_snapshot().to_json().trim_end());
        out.push_str(",\n\"health\":");
        out.push_str(&self.health_json());
        out.push_str(",\n\"meter\":");
        out.push_str(self.meter.report_json().trim_end());
        out.push_str("\n}\n");
        out
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

    // -------------------------------------------- durability plane (batch)

    /// Opens one request's batch commit window (batch mode): acquires
    /// the commit mutex and begins a thread transaction on every store
    /// handle, so the request's puts and deletes accumulate into one
    /// atomic commit unit. Returns `None` (and does nothing) when batch
    /// mode is off, or for read-only requests outside whole-FS rollback
    /// mode (with the §V-E counters on, even reads append counted audit
    /// records, so every request commits through the window). Must be
    /// called *before* any dispatch lock scope — the commit mutex is
    /// the outermost lock.
    pub(crate) fn batch_begin(&self, mutates: bool) -> Option<MutexGuard<'_, ()>> {
        if !self.config.batch || !(mutates || self.config.rollback_whole_fs) {
            return None;
        }
        let guard = {
            let _wait = seg_obs::prof::phase("commit_wait");
            self.batch_commit.lock()
        };
        for (_, counted) in &self.counted_stores {
            counted.tx_begin();
        }
        Some(guard)
    }

    /// Seals the current thread's transaction on every store handle,
    /// collecting the commit tickets to wait on. Idempotent: sealing on
    /// shared-backend views seals the one underlying transaction once,
    /// and a thread with no open transaction collects nothing.
    pub(crate) fn batch_seal(&self) -> Result<Vec<CommitTicket>, SegShareError> {
        let mut tickets = Vec::new();
        if !self.config.batch {
            return Ok(tickets);
        }
        for (_, counted) in &self.counted_stores {
            if let Some(ticket) = self.sgx.boundary().ocall(|| counted.tx_seal())? {
                tickets.push(ticket);
            }
        }
        Ok(tickets)
    }

    /// Appends the request's audit record — id, operation, fingerprints
    /// and outcome as `rec` holds them at this point — with the batch
    /// seal run inside the audit chain's state lock, right after the
    /// head write, so the frame boundary falls between appends and
    /// audit chain order equals log order. Returns the append result
    /// and the seal result separately; the seal runs even when the
    /// append fails (fail-closed: whatever the batch holds is still
    /// made durable). With auditing disabled the seal simply runs
    /// directly.
    #[allow(clippy::type_complexity)]
    pub(crate) fn audit_request_sealed(
        &self,
        rec: &RequestRecord,
    ) -> (
        Result<(), SegShareError>,
        Result<Vec<CommitTicket>, SegShareError>,
    ) {
        let Some(log) = self.audit.as_ref() else {
            return (Ok(()), self.batch_seal());
        };
        let mut sealed: Result<Vec<CommitTicket>, SegShareError> = Ok(Vec::new());
        let appended = log.append_sealing(self.now(), rec, || sealed = self.batch_seal());
        (appended, sealed)
    }

    /// The request's durability point: waits for the group commit to
    /// fsync the sealed batch, then performs the deferred §V-E counter
    /// increments (rollback-tree roots and audit anchor). In whole-FS
    /// mode the caller still holds the commit guard here, so no later
    /// batch can write records more than one ahead of the hardware.
    pub(crate) fn batch_wait(&self, tickets: Vec<CommitTicket>) -> Result<(), SegShareError> {
        {
            let _wait = seg_obs::prof::phase("commit_wait");
            for ticket in tickets {
                self.sgx.boundary().ocall(|| ticket.wait())?;
            }
        }
        self.store.commit_pending_counters()?;
        if let Some(log) = self.audit.as_ref() {
            log.commit_pending_anchor()?;
        }
        Ok(())
    }

    /// Reclaims dedup blobs whose reference count dropped to zero,
    /// returning how many were deleted. GC mutates an unbounded object
    /// set (the refcount index plus any number of blobs), so it runs
    /// under the exclusive global scope, inside its own batch commit
    /// window — a crash mid-GC either keeps or drops the whole pass.
    pub fn blob_gc(&self) -> Result<u64, SegShareError> {
        let guard = self.batch_begin(true);
        let reclaimed = {
            let _scope = self.locks.acquire_global();
            self.files.blob_gc()
        };
        let sealed = self.batch_seal();
        let durable = match (guard, sealed) {
            (None, sealed) => sealed.map(|_| ()),
            (Some(guard), Err(seal_err)) => {
                drop(guard);
                Err(seal_err)
            }
            (Some(guard), Ok(tickets)) => {
                if self.config.rollback_whole_fs {
                    let wait = self.batch_wait(tickets);
                    drop(guard);
                    wait
                } else {
                    drop(guard);
                    self.batch_wait(tickets)
                }
            }
        };
        match durable {
            Ok(()) => reclaimed,
            Err(err) => reclaimed.and(Err(err)),
        }
    }

    /// Captures a telemetry snapshot after folding in the externally
    /// sourced totals: boundary crossings, EPC usage, and the per-store
    /// I/O counters.
    ///
    /// This is the system's **declassification point** (paper §III):
    /// the only way aggregate telemetry leaves the trusted boundary.
    /// Everything in the snapshot is an aggregate keyed by compiled-in
    /// names — nothing request-derived crosses here.
    #[must_use]
    pub fn metrics_snapshot(&self) -> seg_obs::Snapshot {
        let sync = |name: &'static str, labels: Vec<(&'static str, &'static str)>, total: u64| {
            // External counters are monotonic; advance ours to match so
            // repeated snapshots never double-count.
            let c = self.obs.counter_with(name, labels);
            c.add(total.saturating_sub(c.get()));
        };

        let b = self.sgx.boundary().stats();
        sync("seg_boundary_ecalls_total", vec![], b.ecalls);
        sync("seg_boundary_ocalls_total", vec![], b.ocalls);
        self.obs
            .gauge("seg_boundary_simulated_ns")
            .set(b.simulated_ns);

        if let Some(ring) = self.obs.trace() {
            sync("seg_trace_events_total", vec![], ring.emitted());
            sync("seg_trace_dropped_total", vec![], ring.dropped());
        }

        let epc = self.sgx.epc();
        self.obs.gauge("seg_epc_bytes").set(epc.current_bytes());
        self.obs.gauge("seg_epc_peak_bytes").set(epc.peak_bytes());
        self.obs.gauge("seg_epc_paged_pages").set(epc.paged_pages());

        for (store, counted) in &self.counted_stores {
            let s = counted.stats();
            for (op, total) in [
                ("get", s.gets),
                ("put", s.puts),
                ("delete", s.deletes),
                ("exists", s.exists),
                ("rename", s.renames),
                ("list", s.lists),
            ] {
                sync(
                    "seg_store_ops_total",
                    vec![("store", store), ("op", op)],
                    total,
                );
            }
            sync(
                "seg_store_bytes_read_total",
                vec![("store", store)],
                s.bytes_read,
            );
            sync(
                "seg_store_bytes_written_total",
                vec![("store", store)],
                s.bytes_written,
            );
            // Durability plane. Always exported (zero on in-memory
            // backends) so the family is stable across store choices.
            // Views sharing one WAL backend each report the shared
            // log's totals.
            sync("seg_store_batches_total", vec![("store", store)], s.batches);
            sync(
                "seg_store_batch_ops_total",
                vec![("store", store)],
                s.batch_ops,
            );
            let io = counted.io_stats();
            sync("seg_store_fsyncs_total", vec![("store", store)], io.fsyncs);
            sync(
                "seg_store_fsync_bytes_total",
                vec![("store", store)],
                io.fsync_bytes,
            );
        }

        // Object-cache *counters* exist only when the cache is enabled,
        // keeping cache-off snapshots identical to pre-cache builds.
        let cache = self.store.cache_stats();
        if let Some(c) = &cache {
            sync("seg_cache_hits_total", vec![], c.hits);
            sync("seg_cache_misses_total", vec![], c.misses);
            sync("seg_cache_fills_total", vec![], c.fills);
            sync("seg_cache_stale_fills_total", vec![], c.stale_fills);
            sync("seg_cache_evictions_total", vec![], c.evictions);
            sync("seg_cache_invalidations_total", vec![], c.invalidations);
        }
        // Gauge families, by contrast, always export: a disabled or
        // idle subsystem reads 0 rather than its series disappearing
        // between snapshots (dashboards need stable families).
        self.obs
            .gauge("seg_cache_entries")
            .set(cache.as_ref().map_or(0, |c| c.entries));
        self.obs
            .gauge("seg_cache_bytes")
            .set(cache.as_ref().map_or(0, |c| c.bytes));

        // Lock, net, and session saturation families.
        self.obs
            .gauge("seg_lock_global_held_us")
            .set(self.locks.global_held_us());
        self.obs
            .gauge("seg_net_live_sessions")
            .set(self.watch.live_sessions());
        self.obs
            .gauge("seg_net_inflight_requests")
            .set(self.watch.in_flight());
        let net = self.watch.net_meter();
        self.obs
            .gauge("seg_net_queued_bytes")
            .set(net.queued_bytes());
        sync("seg_net_send_stalls_total", vec![], net.send_stalls());
        sync("seg_net_send_stall_ns_total", vec![], net.send_stall_ns());
        sync("seg_net_sheds_total", vec![], self.watch.sheds());
        // Reactor front end: per-state connection gauges plus lifecycle
        // counters. Exported once the reactor has started (the
        // stable-family rule: 0 beats a disappearing series); it starts
        // with the first connection or listener.
        if let Some(reactor) = self.watch.reactor_stats() {
            for state in seg_net::reactor::ConnState::ALL {
                if state == seg_net::reactor::ConnState::Closed {
                    continue; // terminal: the gauge is definitionally 0
                }
                self.obs
                    .gauge_with("seg_net_conns", vec![("state", state.label())])
                    .set(reactor.conns_in(state));
            }
            self.obs
                .gauge("seg_net_dispatch_depth")
                .set(reactor.dispatch_depth());
            self.obs
                .gauge("seg_net_outq_bytes")
                .set(reactor.outq_bytes());
            sync(
                "seg_net_conns_accepted_total",
                vec![],
                reactor.accepted_total(),
            );
            sync(
                "seg_net_conns_reaped_idle_total",
                vec![],
                reactor.reaped_idle_total(),
            );
            sync("seg_net_conns_closed_total", vec![], reactor.closed_total());
            sync(
                "seg_net_protocol_errors_total",
                vec![],
                reactor.protocol_errors_total(),
            );
        }
        sync(
            "seg_watch_stalls_total",
            vec![("kind", "request")],
            self.watch.stalls_request(),
        );
        sync(
            "seg_watch_stalls_total",
            vec![("kind", "global_lock")],
            self.watch.stalls_global(),
        );
        sync("seg_watch_dumps_total", vec![], self.watch.dumps());
        sync(
            "seg_flight_frames_total",
            vec![],
            self.health.monitor().frames_total(),
        );
        self.obs
            .gauge("seg_telemetry_enabled")
            .set(u64::from(self.telemetry_enabled()));

        // History clock, scrubber, and canary families — always
        // exported, an idle health plane reads 0.
        let health = &self.health;
        sync(
            "seg_health_samples_total",
            vec![],
            health.monitor().samples(),
        );
        sync(
            "seg_health_canary_probes_total",
            vec![],
            health.canary_probes(),
        );
        sync(
            "seg_health_canary_failures_total",
            vec![],
            health.canary_failures(),
        );
        sync(
            "seg_slo_alerts_total",
            vec![],
            health.monitor().alerts().total(),
        );
        sync(
            "seg_slo_alerts_suppressed_total",
            vec![],
            health.monitor().alerts().suppressed(),
        );
        sync("seg_scrub_passes_total", vec![], health.scrub_passes());
        for check in health::ScrubCheck::ALL {
            sync(
                "seg_scrub_items_total",
                vec![("check", check.label())],
                health.items(check),
            );
            sync(
                "seg_scrub_findings_total",
                vec![("check", check.label())],
                health.findings(check),
            );
        }
        self.obs.gauge("seg_health_state").set(health.state_code());
        self.obs
            .gauge("seg_slo_alerts_active")
            .set(health.monitor().active_alerts());
        self.obs
            .gauge("seg_health_rollup_slots")
            .set(health.monitor().rollup_slots());
        self.obs
            .gauge("seg_health_canary_latency_us")
            .set(health.canary_last_latency_us());

        // Meter: sketch occupancy and overflow families — always
        // exported, an unfed meter reads 0 (stable dashboards).
        sync("seg_meter_samples_total", vec![], self.meter.samples());
        for (axis, s) in METER_AXES.into_iter().zip(self.meter.stats()) {
            self.obs
                .gauge_with("seg_meter_tracked", vec![("axis", axis)])
                .set(s.tracked);
            self.obs
                .gauge_with("seg_meter_min_tracked_ops", vec![("axis", axis)])
                .set(s.min_est);
            sync(
                "seg_meter_evictions_total",
                vec![("axis", axis)],
                s.evictions,
            );
            sync(
                "seg_meter_overflow_ops_total",
                vec![("axis", axis)],
                s.overflow_ops,
            );
        }

        self.obs.snapshot()
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
    /// re-anchors counters — backup restoration (§V-G). The caller is
    /// the CA-signed reset path in [`crate::server::SegShareServer`].
    pub(crate) fn rebuild_after_restore(&self) -> Result<(), SegShareError> {
        let _scope = self.locks.acquire_global();
        self.store.rebuild_tree()
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
