//! Deployment plumbing: the file-system owner's setup (CA, attestation,
//! enrollment) and the running server.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use seg_crypto::ed25519::{PublicKey, SecretKey, Signature};
use seg_crypto::rng::{DeterministicRng, SystemRng};
use seg_crypto::sha256::Sha256;
use seg_fs::UserId;
use seg_net::reactor::{ReactorConfig, ReactorHandle};
use seg_net::ChannelTransport;
use seg_pki::{Certificate, CertificateAuthority, Identity};
use seg_sgx::Platform;
use seg_store::{MemStore, ObjectStore, PrefixStore, WalConfig, WalStore};

use crate::client::Client;
use crate::config::EnclaveConfig;
use crate::enclave::SegShareEnclave;
use crate::error::SegShareError;
use crate::telemetry::Telemetry;
use crate::untrusted::ReactorDispatcher;

/// Certificate validity horizon used by [`FsoSetup`] (logical seconds).
const VALIDITY_END: u64 = 1 << 40;

/// The domain-separated message the CA signs to authorize a backup
/// restoration (§V-G "the CA can send a signed reset message").
pub const RESET_MESSAGE: &[u8] = b"segshare-backup-reset-v1";

/// A user's enrollment material: everything the user application stores
/// (P1 — constant client storage).
#[derive(Clone)]
pub struct EnrolledUser {
    /// The user's identity.
    pub user_id: UserId,
    /// The CA-issued client certificate.
    pub certificate: Certificate,
    /// The matching secret key.
    pub secret_key: SecretKey,
    /// The CA's verification key (pre-distributed trust anchor).
    pub ca_key: PublicKey,
    /// The user's clock (logical unix seconds) for validity checks.
    pub now: u64,
}

impl std::fmt::Debug for EnrolledUser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EnrolledUser({})", self.user_id)
    }
}

/// The file-system owner's setup context: CA, platform, and stores.
pub struct FsoSetup {
    ca: CertificateAuthority,
    config: EnclaveConfig,
    platform: Platform,
    content: Arc<dyn ObjectStore>,
    group: Arc<dyn ObjectStore>,
    dedup: Arc<dyn ObjectStore>,
}

impl std::fmt::Debug for FsoSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsoSetup").field("ca", &self.ca).finish()
    }
}

impl FsoSetup {
    /// A setup with in-memory stores and a fresh simulated platform —
    /// the default for tests, examples, and benchmarks.
    #[must_use]
    pub fn new_in_memory(ca_name: &str, config: EnclaveConfig) -> FsoSetup {
        FsoSetup::with_stores(
            ca_name,
            config,
            Platform::new(),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        )
    }

    /// A setup over one shared write-ahead-logged store rooted at
    /// `dir`: the three logical stores become prefixed views of a
    /// single log, so one request's writes across all of them commit
    /// as one atomic, singly-fsynced frame. Pairs with
    /// [`EnclaveConfig::batch`]. Reopening the same directory recovers
    /// the committed state.
    ///
    /// # Errors
    ///
    /// Propagates log-recovery failures from [`WalStore::open_with`].
    pub fn new_wal(
        ca_name: &str,
        config: EnclaveConfig,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<FsoSetup, SegShareError> {
        FsoSetup::new_wal_with(ca_name, config, Platform::new(), dir, WalConfig::default())
    }

    /// [`FsoSetup::new_wal`] with a deployment identity derived from
    /// `seed`: the CA key pair and the platform's sealing identity are
    /// both deterministic, so a *second process* reopening the same
    /// directory with the same seed can unseal the first process's
    /// root and server keys. This is the simulated stand-in for "the
    /// FSO keeps its CA key and the server restarts on the same
    /// machine" — real deployments load those identities from key
    /// storage instead of deriving them.
    ///
    /// # Errors
    ///
    /// Propagates log-recovery failures from [`WalStore::open_with`].
    pub fn new_wal_persistent(
        ca_name: &str,
        config: EnclaveConfig,
        dir: impl AsRef<std::path::Path>,
        seed: u64,
    ) -> Result<FsoSetup, SegShareError> {
        let mut setup = FsoSetup::new_wal_with(
            ca_name,
            config,
            Platform::new_with_seed(seed),
            dir,
            WalConfig::default(),
        )?;
        setup.ca = CertificateAuthority::new(ca_name, &mut DeterministicRng::seeded(seed));
        Ok(setup)
    }

    /// [`FsoSetup::new_wal`] with a caller-provided platform and WAL
    /// tuning — crash tests reuse one platform (its monotonic counters
    /// survive the "crash") and script failpoints via
    /// [`WalConfig::fault`].
    ///
    /// # Errors
    ///
    /// Propagates log-recovery failures from [`WalStore::open_with`].
    pub fn new_wal_with(
        ca_name: &str,
        config: EnclaveConfig,
        platform: Platform,
        dir: impl AsRef<std::path::Path>,
        wal: WalConfig,
    ) -> Result<FsoSetup, SegShareError> {
        let wal = Arc::new(WalStore::open_with(dir, wal)?);
        let (content, group, dedup) = wal_views(&wal);
        Ok(FsoSetup::with_stores(
            ca_name, config, platform, content, group, dedup,
        ))
    }

    /// A setup over caller-provided stores and platform (on-disk
    /// deployments, adversarial wrappers, instrumentation).
    #[must_use]
    pub fn with_stores(
        ca_name: &str,
        config: EnclaveConfig,
        platform: Platform,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
    ) -> FsoSetup {
        FsoSetup {
            ca: CertificateAuthority::new(ca_name, &mut SystemRng::new()),
            config,
            platform,
            content,
            group,
            dedup,
        }
    }

    /// The CA (its public key is the system's trust anchor).
    #[must_use]
    pub fn ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// Rebinds this setup to new stores while keeping its CA and
    /// platform. Crash tests use this to model a reboot: re-open the
    /// WAL directory after a simulated crash and relaunch the enclave
    /// with the same identity (sealed keys bind to the CA-dependent
    /// measurement, so a fresh setup could not unseal them).
    pub fn set_stores(
        &mut self,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
    ) {
        self.content = content;
        self.group = group;
        self.dedup = dedup;
    }

    /// The simulated SGX platform the server runs on.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Launches the enclave and performs the §IV-A setup phase: remote
    /// attestation (quote verification against the *expected*
    /// measurement for this CA and configuration), CSR exchange, and
    /// server-certificate installation. The result has no host around
    /// it — no front end and no record sink; [`FsoSetup::server`] adds
    /// both.
    ///
    /// # Errors
    ///
    /// Fails if attestation or certification fails.
    pub fn enclave(&self) -> Result<Arc<SegShareEnclave>, SegShareError> {
        self.launch_certified(&self.platform, None)
    }

    /// A running server: [`FsoSetup::enclave`] plus its untrusted host,
    /// whose telemetry is attached as the enclave's record sink.
    ///
    /// # Errors
    ///
    /// Fails if attestation or certification fails.
    pub fn server(&self) -> Result<SegShareServer, SegShareError> {
        Ok(SegShareServer::new(self.enclave()?))
    }

    /// Launches on `platform` — as a replica when handed a root key —
    /// then attests and certifies what it launched.
    fn launch_certified(
        &self,
        platform: &Platform,
        root_key: Option<[u8; 32]>,
    ) -> Result<Arc<SegShareEnclave>, SegShareError> {
        let enclave = SegShareEnclave::launch(
            platform,
            self.config,
            self.ca.public_key(),
            Arc::clone(&self.content),
            Arc::clone(&self.group),
            Arc::clone(&self.dedup),
            root_key,
        )?;
        let (csr, quote) = enclave.certification_request("segshare");
        // "if the CA receives the expected measurement, it is assured to
        // communicate with an enclave that was built specifically for
        // this CA" (§IV-A).
        let measurement = quote.verify(&platform.attestation_public_key())?;
        let expected = SegShareEnclave::image(&self.config, &self.ca.public_key()).measurement();
        if measurement != expected {
            return Err(SegShareError::Protocol(
                "enclave measurement does not match the expected image".to_string(),
            ));
        }
        // The quote binds this CSR: report data is its hash.
        let csr_hash = Sha256::digest(&csr.encode());
        if quote.report_data()[..32] != csr_hash {
            return Err(SegShareError::Protocol(
                "attestation quote does not bind the CSR".to_string(),
            ));
        }
        let cert = self.ca.issue_server_from_csr(&csr, 0, VALIDITY_END)?;
        enclave.install_certificate(cert)?;
        Ok(enclave)
    }

    /// Launches a *replica* server on `replica_platform` against the
    /// same central data repository (§V-F): the replica attests to the
    /// root enclave (equal measurements), receives `SK_r`, and is then
    /// certified like any server.
    ///
    /// # Errors
    ///
    /// Fails if mutual attestation or certification fails.
    pub fn replica(
        &self,
        source: &SegShareServer,
        replica_platform: &Platform,
    ) -> Result<SegShareServer, SegShareError> {
        // The replica enclave proves its identity with a quote...
        let image = SegShareEnclave::image(&self.config, &self.ca.public_key());
        let probe = replica_platform.launch(&image);
        let quote = probe.quote(b"segshare-replication");
        // ...and the root enclave releases SK_r only to an identical
        // enclave on a genuine platform.
        let root_key = source
            .enclave
            .export_root_key(&quote, &replica_platform.attestation_public_key())?;
        let enclave = self.launch_certified(replica_platform, Some(root_key))?;
        Ok(SegShareServer::new(enclave))
    }

    /// Enrolls a user: the CA validates the identity out of band and
    /// issues a client certificate (§IV-A "Establish enclave trust in
    /// users").
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Pki`] for malformed identities.
    pub fn enroll_user(
        &self,
        user_id: &str,
        email: &str,
        full_name: &str,
    ) -> Result<EnrolledUser, SegShareError> {
        let identity = Identity::user(user_id, email, full_name)?;
        let (certificate, secret_key) =
            self.ca
                .issue_user(identity, 0, VALIDITY_END, &mut SystemRng::new());
        Ok(EnrolledUser {
            user_id: UserId::new(user_id)?,
            certificate,
            secret_key,
            ca_key: self.ca.public_key(),
            now: 1_000,
        })
    }

    /// Produces the CA-signed reset message authorizing a backup
    /// restoration (§V-G).
    #[must_use]
    pub fn signed_reset(&self) -> Signature {
        // The CA's long-term key doubles as the reset authority; a real
        // deployment would use a dedicated key, but the trust root is
        // the same.
        self.ca.sign_message(RESET_MESSAGE)
    }
}

/// Options for the background health runner
/// ([`SegShareServer::start_health`]).
#[derive(Clone, Debug)]
pub struct HealthOptions {
    /// An enrolled user reserved for the synthetic canary. When set,
    /// the runner probes the full loopback request path (TLS
    /// handshake, dispatch, store round-trip) against the canary's
    /// reserved `/canary` namespace on every canary interval.
    pub canary: Option<EnrolledUser>,
    /// The runner's sleep quantum (µs) between health ticks.
    pub tick_us: u64,
    /// Minimum microseconds between two canary probes.
    pub canary_interval_us: u64,
}

impl Default for HealthOptions {
    fn default() -> HealthOptions {
        HealthOptions {
            canary: None,
            tick_us: 20_000,
            canary_interval_us: 1_000_000,
        }
    }
}

/// The background health thread: stop flag plus join handle.
struct HealthRunner {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// Lazily started reactor front end plus its config override.
struct FrontEndState {
    cfg: Option<ReactorConfig>,
    reactor: Option<Arc<ReactorHandle>>,
}

/// A running SeGShare server: the enclave plus its untrusted host.
pub struct SegShareServer {
    enclave: Arc<SegShareEnclave>,
    /// Every telemetry consumer, attached to the enclave as its record
    /// sink.
    telemetry: Arc<Telemetry>,
    health_runner: Mutex<Option<HealthRunner>>,
    front_end: Mutex<FrontEndState>,
}

impl std::fmt::Debug for SegShareServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegShareServer")
            .field("enclave", &self.enclave)
            .finish()
    }
}

impl SegShareServer {
    fn new(enclave: Arc<SegShareEnclave>) -> SegShareServer {
        SegShareServer {
            telemetry: Telemetry::attach(&enclave),
            enclave,
            health_runner: Mutex::new(None),
            front_end: Mutex::new(FrontEndState {
                cfg: None,
                reactor: None,
            }),
        }
    }

    /// The enclave (statistics, configuration, counters).
    #[must_use]
    pub fn enclave(&self) -> &Arc<SegShareEnclave> {
        &self.enclave
    }

    /// The host-side telemetry owner: the meter, the health state, the
    /// stall watchdog with its stored dump
    /// (`telemetry().watch().last_dump()`) and the slow log. What only
    /// the enclave can answer — `trace_tail`, `profile_snapshot` — is
    /// pulled through [`enclave`](Self::enclave).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A unified telemetry snapshot: per-operation request counts and
    /// latency quantiles from the enclave's registry, merged with the
    /// families the host owns — boundary crossings, EPC usage,
    /// per-store I/O, the front end, health and meter (see
    /// [`Telemetry::metrics_snapshot`]).
    #[must_use]
    pub fn metrics_snapshot(&self) -> seg_obs::Snapshot {
        self.telemetry.metrics_snapshot()
    }

    /// Every telemetry consumer's view at one instant, as one JSON
    /// document with the sections `saturation`, `stalls`, `locks`,
    /// `flight`, `trace_tail`, `slow_requests`, `profile`, `health` and
    /// `meter` — the same bundle the stall watchdog stores when a
    /// request exceeds [`EnclaveConfig::watch_deadline_us`] (read that
    /// one back with `telemetry().watch().last_dump()`). Aggregate
    /// numbers and keyed fingerprints only (see [`Telemetry::report`]).
    #[must_use]
    pub fn report(&self) -> String {
        self.telemetry.report()
    }

    /// The one runtime telemetry switch (see
    /// [`SegShareEnclave::set_telemetry`]): off, no request record
    /// leaves the enclave and the health runner's tick, scrubber and
    /// canary are inert. On by default; benchmarks toggle it to price
    /// telemetry.
    pub fn set_telemetry(&self, on: bool) {
        self.enclave.set_telemetry(on);
    }

    /// Starts the background health runner: a thread that advances
    /// the history clock even while the server is idle, lets the stall
    /// watchdog see a live global-lock hold, drives the integrity
    /// scrubber on
    /// [`EnclaveConfig::scrub_interval_us`], and (when
    /// [`HealthOptions::canary`] is set) issues synthetic probes over a
    /// virtual reactor connection — the path clients use (so a canary
    /// starts the reactor; call [`SegShareServer::set_reactor_config`]
    /// first). Idempotent — a second call while a runner lives is a
    /// no-op.
    pub fn start_health(&self, mut opts: HealthOptions) {
        let mut slot = self.health_runner.lock();
        if slot.is_some() {
            return;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let enclave = Arc::clone(&self.enclave);
        let telemetry = Arc::clone(&self.telemetry);
        let flag = Arc::clone(&stop);
        let canary = opts.canary.take().map(|user| (self.reactor(), user));
        let handle = std::thread::spawn(move || {
            run_health_loop(&enclave, &telemetry, canary.as_ref(), &opts, &flag);
        });
        *slot = Some(HealthRunner { stop, handle });
    }

    /// Stops and joins the background health runner (no-op if none is
    /// running). Also invoked on drop.
    pub fn stop_health(&self) {
        let runner = self.health_runner.lock().take();
        if let Some(runner) = runner {
            runner.stop.store(true, Ordering::Relaxed);
            let _ = runner.handle.join();
        }
    }

    /// Verifies the tamper-evident audit chain end to end, returning
    /// the record count (0 when auditing is disabled).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] naming the detected tamper
    /// class (truncation, reorder/substitution, bit-flip, head
    /// rollback).
    pub fn audit_verify(&self) -> Result<u64, SegShareError> {
        self.enclave.audit_verify()
    }

    /// Decrypts and returns the verified audit chain — the audit
    /// trail's declassification point. Records carry stable keyed
    /// fingerprints instead of principal identities.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`SegShareServer::audit_verify`] fails.
    pub fn audit_export(&self) -> Result<Vec<crate::enclave::audit::AuditRecord>, SegShareError> {
        self.enclave.audit_export()
    }

    /// Runs one dedup-blob garbage-collection pass (see
    /// [`SegShareEnclave::blob_gc`]): reclaims blobs whose reference
    /// count dropped to zero, returning how many were deleted.
    ///
    /// # Errors
    ///
    /// Propagates storage and integrity failures.
    pub fn blob_gc(&self) -> Result<u64, SegShareError> {
        self.enclave.blob_gc()
    }

    /// Overrides the reactor's tuning. Takes effect when the reactor
    /// starts, i.e. before the first reactor-served connection.
    pub fn set_reactor_config(&self, cfg: ReactorConfig) {
        self.front_end.lock().cfg = Some(cfg);
    }

    /// The running reactor front end, started on first use: the
    /// dispatcher is wired to this enclave, and the reactor's gauges
    /// and the dispatcher's in-flight count are lent to the metrics
    /// exporter.
    pub fn reactor(&self) -> Arc<ReactorHandle> {
        let mut fe = self.front_end.lock();
        if let Some(handle) = &fe.reactor {
            return Arc::clone(handle);
        }
        let cfg = fe.cfg.clone().unwrap_or_default();
        let dispatcher = Arc::new(ReactorDispatcher::new(Arc::clone(&self.enclave)));
        let in_flight = Arc::clone(&dispatcher.in_flight);
        let handle = Arc::new(ReactorHandle::start(cfg, dispatcher));
        self.telemetry
            .front_end_started(Arc::clone(handle.stats()), in_flight);
        fe.reactor = Some(Arc::clone(&handle));
        handle
    }

    /// Serves a TCP listener through the reactor front end: accepts,
    /// backpressure, idle reaping, and shedding all happen on the
    /// event loop; enclave work runs on the reactor's worker pool.
    ///
    /// # Errors
    ///
    /// Fails on platforms without the epoll driver: TCP serving is
    /// Linux x86-64/aarch64 only.
    pub fn serve_listener(&self, listener: std::net::TcpListener) -> Result<(), SegShareError> {
        self.reactor()
            .serve_listener(listener)
            .map_err(SegShareError::from)
    }

    /// Connects an in-process client and completes the handshake. The
    /// server side is a virtual reactor connection; the client sees a
    /// blocking [`ChannelTransport`].
    ///
    /// # Errors
    ///
    /// Returns TLS/PKI errors if authentication fails, and transport
    /// errors if the reactor sheds the connection at its cap.
    pub fn connect_local(
        &self,
        user: &EnrolledUser,
    ) -> Result<Client<ChannelTransport>, SegShareError> {
        Client::connect(self.reactor().connect_virtual()?, user)
    }

    /// Verifies a CA-signed reset message and rebuilds integrity state
    /// from a restored backup (§V-G): recompute all tree hashes, compare
    /// root hashes, re-anchor monotonic counters. The rebuild is one
    /// commit window like any request, so on a WAL store it is one
    /// atomic frame and never waits on the log while holding the
    /// global lock.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Pki`] for invalid signatures and
    /// integrity errors if the restored data is unreadable.
    pub fn restore_with_reset(
        &self,
        ca_key: &PublicKey,
        signature: &Signature,
    ) -> Result<(), SegShareError> {
        ca_key
            .verify(RESET_MESSAGE, signature)
            .map_err(|_| SegShareError::Pki(seg_pki::PkiError::BadSignature))?;
        self.enclave.rebuild_after_restore()
    }
}

impl Drop for SegShareServer {
    fn drop(&mut self) {
        self.stop_health();
    }
}

/// The three logical store views (content, group, dedup) over one
/// shared WAL backend. Sharing one log is what makes a request's
/// cross-store writes a single atomic commit frame.
#[must_use]
pub fn wal_views(
    wal: &Arc<WalStore>,
) -> (
    Arc<dyn ObjectStore>,
    Arc<dyn ObjectStore>,
    Arc<dyn ObjectStore>,
) {
    (
        Arc::new(PrefixStore::new(Arc::clone(wal), "c/")),
        Arc::new(PrefixStore::new(Arc::clone(wal), "g/")),
        Arc::new(PrefixStore::new(Arc::clone(wal), "d/")),
    )
}

/// The health runner's thread body: tick, scrub, probe, sleep.
fn run_health_loop(
    enclave: &SegShareEnclave,
    telemetry: &Telemetry,
    canary: Option<&(Arc<ReactorHandle>, EnrolledUser)>,
    opts: &HealthOptions,
    stop: &AtomicBool,
) {
    let mut client: Option<Client<ChannelTransport>> = None;
    let mut last_probe = 0u64;
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let _ = telemetry.health_tick();
        if let Some((reactor, user)) = canary {
            let now = telemetry.health().monitor().now_us();
            if enclave.telemetry_enabled()
                && (last_probe == 0 || now.saturating_sub(last_probe) >= opts.canary_interval_us)
            {
                last_probe = now;
                seq += 1;
                let started = std::time::Instant::now();
                let ok = canary_probe(&mut client, reactor, user, seq);
                let latency_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
                telemetry.health().canary_result(ok, latency_us);
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(opts.tick_us.max(1)));
    }
}

/// One canary probe: a put+get round-trip against the canary's reserved
/// namespace, verifying the read-back. A probe that fails on the kept
/// connection is retried once on a fresh one: the reactor reaps
/// connections idle past its timeout, and a dead transport never heals.
fn canary_probe(
    slot: &mut Option<Client<ChannelTransport>>,
    reactor: &ReactorHandle,
    user: &EnrolledUser,
    seq: u64,
) -> bool {
    let body = seq.to_le_bytes();
    let round_trip = |client: &mut Client<ChannelTransport>| {
        client.put("/canary/probe", &body).is_ok()
            && matches!(client.get("/canary/probe"), Ok(got) if got == body)
    };
    if slot.as_mut().is_some_and(round_trip) {
        return true;
    }
    *slot = reactor
        .connect_virtual()
        .ok()
        .and_then(|transport| Client::connect(transport, user).ok());
    let Some(client) = slot.as_mut() else {
        return false;
    };
    // The reserved canary directory; `AlreadyExists` after the first
    // connect is the expected steady state.
    let _ = client.mkdir("/canary");
    round_trip(client)
}
