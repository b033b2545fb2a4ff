//! Tamper-evident audit trail: sealed, hash-chained records of every
//! authorization decision and mutation the enclave makes.
//!
//! # Record format and chain construction
//!
//! Each record is a small codec payload (logical time, request id,
//! operation label, principal/object fingerprints, decision, error
//! code) encrypted with AES-128-GCM ([`seg_crypto::pae`]) under an
//! HKDF-derived audit key ([`super::keys::KeyHierarchy::audit_key`]).
//! The record's **AAD binds its position in history**: a domain tag,
//! the record's monotonic sequence number, and the SHA-256 chain hash
//! of the *previous* record. The chain hash itself evolves as
//!
//! ```text
//! H_0       = SHA-256("segshare-audit-genesis")
//! H_{n+1}   = SHA-256(H_n || le64(n) || ciphertext_n)
//! ```
//!
//! so every ciphertext is pinned to an exact predecessor. A separate
//! sealed *head* record stores `(count, H_count, counter-anchor)` and
//! is rewritten on every append. With whole-file-system rollback
//! protection enabled, each append also increments a dedicated TEE
//! monotonic counter and anchors its value in the head; the anchor is
//! compared against the hardware counter both in [`AuditLog::verify`]
//! and — critically — at `AuditLog::load`, before the first new
//! append could re-anchor a rolled-back head. That closes the
//! remaining gap (replaying an old-but-valid head plus chain prefix
//! against a freshly restarted enclave). `load` also completes an
//! append interrupted by a crash between its two store writes, so a
//! benign crash never reads as tampering.
//!
//! All blobs live in the untrusted content store under `!audit-*`
//! names (like the sealed keys, they are self-protecting, so the
//! names are not hidden). What the untrusted host can do — and what
//! [`AuditLog::verify`] detects — maps exactly to the tamper classes:
//!
//! * **truncate**: a record named below `count` is gone;
//! * **reorder / substitute**: AAD binds seq + predecessor hash, so a
//!   record decrypts only in its original position;
//! * **bit-flip**: AES-GCM authentication fails;
//! * **head rewrite / stale head**: the head is sealed, cross-checked
//!   against the live in-memory chain, and (optionally) against the
//!   monotonic counter.
//!
//! # Declassification
//!
//! [`AuditLog::export`] is the audit trail's declassification point:
//! records decrypt only inside the enclave, and what leaves carries
//! stable keyed *fingerprints* of principals and objects (see
//! [`super::keys::KeyHierarchy::fingerprint`]) — never raw user ids,
//! paths, or key bytes.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use seg_crypto::pae::{pae_dec, pae_enc, PaeKey};
use seg_crypto::rng::SystemRng;
use seg_crypto::sha256::Sha256;
use seg_fs::codec::{Decoder, Encoder};
use seg_obs::{RequestRecord, TraceDecision};
use seg_sgx::Enclave;
use seg_store::ObjectStore;

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use super::commit::Anchor;

/// Monotonic-counter id anchoring the audit head (content/group/dedup
/// stores use 1–3).
const AUDIT_COUNTER_ID: u64 = 4;

/// Untrusted-store name of the sealed chain head.
const HEAD_NAME: &str = "!audit-head";

/// AAD domain tag for records (completed with seq + previous hash).
const RECORD_AAD_TAG: &[u8] = b"segshare-audit-v1";

/// AAD for the head record.
const HEAD_AAD: &[u8] = b"segshare-audit-head-v1";

fn record_name(seq: u64) -> String {
    format!("!audit-rec-{seq:016x}")
}

fn genesis() -> [u8; 32] {
    Sha256::digest(b"segshare-audit-genesis")
}

fn chain_hash(prev: &[u8; 32], seq: u64, ciphertext: &[u8]) -> [u8; 32] {
    let mut buf = Vec::with_capacity(32 + 8 + ciphertext.len());
    buf.extend_from_slice(prev);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(ciphertext);
    Sha256::digest(&buf)
}

fn record_aad(seq: u64, prev: &[u8; 32]) -> Vec<u8> {
    let mut aad = RECORD_AAD_TAG.to_vec();
    aad.extend_from_slice(&seq.to_le_bytes());
    aad.extend_from_slice(prev);
    aad
}

/// One decrypted audit record, as returned by [`AuditLog::export`].
///
/// `principal` and `object` are keyed fingerprints, not identities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Position in the chain.
    pub seq: u64,
    /// Enclave logical clock at append time.
    pub time: u64,
    /// Request correlation id (matches the trace ring).
    pub request_id: u64,
    /// Operation label (`put_file`, `add_user`, ...).
    pub op: String,
    /// Keyed principal fingerprint (0 = none).
    pub principal: u64,
    /// Keyed object name-hash (0 = none).
    pub object: u64,
    /// Outcome class.
    pub decision: TraceDecision,
    /// Error-code label (`ok` on success).
    pub code: String,
}

/// The audit payload of one request: the logical `time` plus the id,
/// operation, principal/object fingerprints and outcome its
/// [`RequestRecord`] holds when the append runs.
fn encode_record(time: u64, rec: &RequestRecord) -> Vec<u8> {
    let mut e = Encoder::new();
    e.tag(b"AUD1");
    e.u64(time);
    e.u64(rec.request_id);
    e.str(rec.op);
    e.u64(rec.principal);
    e.u64(rec.object);
    e.u32(match rec.decision {
        TraceDecision::Allow => 0,
        TraceDecision::Deny => 1,
        TraceDecision::Error => 2,
        TraceDecision::Event => 3,
    });
    e.str(rec.code);
    e.finish()
}

fn decode_record(seq: u64, data: &[u8]) -> Result<AuditRecord, SegShareError> {
    let mut d = Decoder::new(data);
    d.tag(b"AUD1")?;
    let time = d.u64()?;
    let request_id = d.u64()?;
    let op = d.str()?.to_string();
    let principal = d.u64()?;
    let object = d.u64()?;
    let decision = match d.u32()? {
        0 => TraceDecision::Allow,
        1 => TraceDecision::Deny,
        2 => TraceDecision::Error,
        _ => TraceDecision::Event,
    };
    let code = d.str()?.to_string();
    d.finish()?;
    Ok(AuditRecord {
        seq,
        time,
        request_id,
        op,
        principal,
        object,
        decision,
        code,
    })
}

fn encode_head(count: u64, head: &[u8; 32], anchor: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.tag(b"AUH1");
    e.u64(count);
    e.raw(head);
    e.u64(anchor);
    e.finish()
}

fn decode_head(data: &[u8]) -> Result<(u64, [u8; 32], u64), SegShareError> {
    let mut d = Decoder::new(data);
    d.tag(b"AUH1")?;
    let count = d.u64()?;
    let head: [u8; 32] = d.raw(32)?.try_into().expect("fixed length");
    let anchor = d.u64()?;
    d.finish()?;
    Ok((count, head, anchor))
}

/// Live chain state: how many records exist and the hash they chain to.
#[derive(Debug, Clone, Copy)]
struct ChainState {
    count: u64,
    head: [u8; 32],
}

/// Resumable position inside an incremental chain verification — the
/// running hash after `seq` records. Opaque to callers; hand it back
/// to [`AuditLog::verify_window`] unchanged.
#[derive(Debug, Clone, Copy)]
pub struct AuditScrubCursor {
    seq: u64,
    prev: [u8; 32],
}

impl AuditScrubCursor {
    /// Records verified so far in the current pass.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.seq
    }
}

/// Outcome of one [`AuditLog::verify_window`] call.
#[derive(Debug, Clone, Copy)]
pub struct AuditScrubStep {
    /// Records re-verified in this window.
    pub checked: u64,
    /// Whether this window completed a full pass (head, beyond-head,
    /// and counter-anchor checks all ran).
    pub complete: bool,
    /// Chain length observed during the window.
    pub chain_len: u64,
}

/// The enclave-resident audit log. `append` is serialized by an
/// internal mutex; `verify`/`export` walk the persisted chain.
pub struct AuditLog {
    key: PaeKey,
    store: Arc<dyn ObjectStore>,
    sgx: Arc<Enclave>,
    /// The head's §V-E counter anchor, with whole-FS rollback
    /// protection; settled by the commit window.
    counter: Option<Anchor>,
    state: Mutex<ChainState>,
    records_total: seg_obs::Counter,
    bytes_total: seg_obs::Counter,
    append_ns: Arc<seg_obs::Histogram>,
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("AuditLog")
            .field("count", &st.count)
            .field("use_counter", &self.counter.is_some())
            .finish()
    }
}

impl AuditLog {
    /// Opens (or initializes) the audit log: a fresh store starts the
    /// chain at genesis; on restart the sealed head restores the chain
    /// position so the enclave keeps extending the same history.
    ///
    /// Two launch-time checks close the restart window:
    ///
    /// * **Counter anchor** (with whole-FS rollback protection): the
    ///   sealed head's counter anchor must match the hardware counter
    ///   *now*, before any new append re-anchors the head — a
    ///   stale-but-authentic head (or a fully deleted trail against a
    ///   nonzero counter) is rejected here, so a restart cannot erase
    ///   the evidence of whole-trail rollback.
    /// * **Crash recovery**: [`AuditLog::append`] writes the record
    ///   before the head, so a crash in between leaves exactly one
    ///   record at position `count` that authenticates against the
    ///   sealed head's chain state. Such a record is *adopted* (the
    ///   interrupted append is completed, head rewritten); a record
    ///   there that does not authenticate is a forged append.
    ///
    /// # Errors
    ///
    /// Fails if a persisted head exists but does not authenticate, if
    /// the counter anchor mismatches, or if an unauthenticatable record
    /// sits beyond the head — tampering is detected at launch, not
    /// silently rebuilt.
    pub(crate) fn load(
        key: PaeKey,
        store: Arc<dyn ObjectStore>,
        sgx: Arc<Enclave>,
        config: &EnclaveConfig,
        obs: &seg_obs::Registry,
    ) -> Result<AuditLog, SegShareError> {
        let (mut state, anchor, had_head) = match sgx.boundary().ocall(|| store.get(HEAD_NAME))? {
            None => (
                ChainState {
                    count: 0,
                    head: genesis(),
                },
                0,
                false,
            ),
            Some(blob) => {
                let body = pae_dec(&key, &blob, HEAD_AAD)
                    .map_err(|_| tamper("audit head failed authentication"))?;
                let (count, head, anchor) = decode_head(&body)?;
                (ChainState { count, head }, anchor, true)
            }
        };
        let counter = config
            .rollback_whole_fs
            .then(|| Anchor::new(Arc::clone(&sgx), AUDIT_COUNTER_ID, config));
        if let Some(counter) = &counter {
            // Only the genuinely newest head can sit exactly one ahead:
            // every older head's anchor is already covered.
            counter.adopt(anchor)?;
        }
        let hw = counter.as_ref().map_or(0, Anchor::read);
        let orphan_name = record_name(state.count);
        match sgx.boundary().ocall(|| store.get(&orphan_name))? {
            Some(blob) => {
                pae_dec(&key, &blob, &record_aad(state.count, &state.head)).map_err(|_| {
                    tamper("audit record beyond sealed head does not authenticate (forged append)")
                })?;
                // A genuine record the enclave sealed at this exact
                // position: a crash interrupted the append between the
                // record write and the head write. Complete it.
                let new_anchor = match &counter {
                    None => 0,
                    // The crash hit before the counter increment.
                    Some(counter) if hw == anchor => counter.issue()?,
                    // The crash hit between the increment and the head
                    // write; the counter already covers this record.
                    Some(_) if hw == anchor + 1 => hw,
                    Some(_) => {
                        return Err(tamper(
                            "audit counter anchor mismatch at launch (whole-trail rollback)",
                        ))
                    }
                };
                let new_head = chain_hash(&state.head, state.count, &blob);
                let head_blob = pae_enc(
                    &key,
                    &encode_head(state.count + 1, &new_head, new_anchor),
                    HEAD_AAD,
                    &mut SystemRng::new(),
                );
                sgx.boundary().ocall(|| store.put(HEAD_NAME, &head_blob))?;
                state = ChainState {
                    count: state.count + 1,
                    head: new_head,
                };
            }
            None if counter.is_some() && hw != anchor => {
                return Err(tamper(if had_head {
                    "audit counter anchor mismatch at launch (whole-trail rollback)"
                } else {
                    "audit head missing but counter nonzero (whole-trail deletion)"
                }));
            }
            None => {}
        }
        Ok(AuditLog {
            key,
            store,
            sgx,
            counter,
            state: Mutex::new(state),
            records_total: obs.counter("seg_audit_records_total"),
            bytes_total: obs.counter("seg_audit_bytes_total"),
            append_ns: obs.histogram("seg_audit_append_ns"),
        })
    }

    /// The head's counter anchor (whole-FS rollback protection only).
    pub(crate) fn anchor(&self) -> Option<&Anchor> {
        self.counter.as_ref()
    }

    /// Cumulative sealed bytes appended (record + head blobs). Read
    /// into each request record's cost vector.
    #[must_use]
    pub(crate) fn bytes_appended(&self) -> u64 {
        self.bytes_total.get()
    }

    /// Number of records in the live chain.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.state.lock().count
    }

    /// Whether the chain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one sealed record and advances the sealed head.
    /// Production callers go through [`AuditLog::append_sealing`]; this
    /// shorthand exists for the chain tests below.
    ///
    /// # Errors
    ///
    /// Propagates storage and counter failures; on error the in-memory
    /// chain state is left unchanged, so a retry re-seals the same
    /// position.
    #[cfg(test)]
    pub(crate) fn append(&self, time: u64, rec: &RequestRecord) -> Result<(), SegShareError> {
        self.append_sealing(time, rec, || {})
    }

    /// [`AuditLog::append`] with a batch-boundary hook: `seal_batch`
    /// runs *inside the chain state lock*, after the head write — so
    /// the group-commit frame boundary always falls between appends and
    /// chain order equals log order. The hook runs even when the append
    /// fails (fail-closed: whatever the request's batch already holds
    /// is still sealed and made durable).
    pub(crate) fn append_sealing(
        &self,
        time: u64,
        rec: &RequestRecord,
        seal_batch: impl FnOnce(),
    ) -> Result<(), SegShareError> {
        let start = Instant::now();
        let mut st = self.state.lock();
        let result = self.append_locked(&mut st, &encode_record(time, rec));
        seal_batch();
        drop(st);
        let bytes = result?;
        self.records_total.inc();
        self.bytes_total.add(bytes);
        self.append_ns.record_duration(start.elapsed());
        Ok(())
    }

    fn append_locked(&self, st: &mut ChainState, payload: &[u8]) -> Result<u64, SegShareError> {
        let seq = st.count;
        let blob = pae_enc(
            &self.key,
            payload,
            &record_aad(seq, &st.head),
            &mut SystemRng::new(),
        );
        let name = record_name(seq);
        self.sgx.boundary().ocall(|| self.store.put(&name, &blob))?;
        let new_head = chain_hash(&st.head, seq, &blob);
        let anchor = match &self.counter {
            Some(counter) => counter.issue()?,
            None => 0,
        };
        let head_blob = pae_enc(
            &self.key,
            &encode_head(seq + 1, &new_head, anchor),
            HEAD_AAD,
            &mut SystemRng::new(),
        );
        self.sgx
            .boundary()
            .ocall(|| self.store.put(HEAD_NAME, &head_blob))?;
        st.count = seq + 1;
        st.head = new_head;
        Ok((blob.len() + head_blob.len()) as u64)
    }

    /// Walks the persisted chain and proves it intact, returning the
    /// record count. Detects truncation, reordering, substitution,
    /// bit-flips, head rewrites, divergence from the live in-memory
    /// chain, and (with the counter anchor) whole-trail rollback.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] naming the tamper class.
    pub fn verify(&self) -> Result<u64, SegShareError> {
        self.walk(&mut None, u64::MAX, None)
            .map(|step| step.chain_len)
    }

    /// Decrypts the full verified chain for declassification. Records
    /// carry fingerprints only; raw identities were never stored.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`AuditLog::verify`] fails.
    pub fn export(&self) -> Result<Vec<AuditRecord>, SegShareError> {
        let mut records = Vec::new();
        self.walk(&mut None, u64::MAX, Some(&mut records))?;
        Ok(records)
    }

    /// Advances an incremental chain verification by at most `budget`
    /// records — the scrubber's entry point. Pass the same cursor back
    /// on every call; `None` starts a fresh pass from genesis.
    ///
    /// Records are immutable once appended and the running hash after
    /// `seq` records depends only on records `0..seq`, so a cursor
    /// stays valid across windows even while appends extend the chain.
    /// When the cursor catches up with the live chain the pass
    /// completes with the end-of-chain checks, paid once per pass
    /// instead of once per call. [`AuditLog::verify`] is this walk with
    /// an unbounded budget. On completion the cursor resets to `None`
    /// so the next call starts the next pass.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] naming the tamper class,
    /// exactly as [`AuditLog::verify`] would. The cursor is reset on
    /// error so a subsequent call re-checks from genesis.
    pub fn verify_window(
        &self,
        cursor: &mut Option<AuditScrubCursor>,
        budget: u64,
    ) -> Result<AuditScrubStep, SegShareError> {
        self.walk(cursor, budget, None)
    }

    /// The one chain walk: authenticate and chain up to `budget` records
    /// from `cursor` (decoding them into `records` when exporting), then,
    /// once caught up with the live chain, the end-of-chain checks.
    fn walk(
        &self,
        cursor: &mut Option<AuditScrubCursor>,
        budget: u64,
        mut records: Option<&mut Vec<AuditRecord>>,
    ) -> Result<AuditScrubStep, SegShareError> {
        // The state lock keeps appends out of the window.
        let st = self.state.lock();
        let mut cur = match cursor.take() {
            // A restore/reset can shrink the chain under a live cursor;
            // a stale position simply restarts the pass.
            Some(c) if c.seq <= st.count => c,
            _ => AuditScrubCursor {
                seq: 0,
                prev: genesis(),
            },
        };
        let mut checked = 0u64;
        while checked < budget && cur.seq < st.count {
            let seq = cur.seq;
            let name = record_name(seq);
            let blob = self
                .sgx
                .boundary()
                .ocall(|| self.store.get(&name))?
                .ok_or_else(|| tamper(&format!("audit record {seq} missing (truncation)")))?;
            let body = pae_dec(&self.key, &blob, &record_aad(seq, &cur.prev)).map_err(|_| {
                tamper(&format!(
                    "audit record {seq} failed authentication (bit-flip, reorder, or substitution)"
                ))
            })?;
            if let Some(records) = records.as_deref_mut() {
                records.push(decode_record(seq, &body)?);
            }
            cur.prev = chain_hash(&cur.prev, seq, &blob);
            cur.seq += 1;
            checked += 1;
        }
        let complete = cur.seq == st.count;
        if complete {
            self.check_head(&st, &cur.prev)?;
        } else {
            *cursor = Some(cur);
        }
        Ok(AuditScrubStep {
            checked,
            complete,
            chain_len: st.count,
        })
    }

    /// The end-of-chain checks: the persisted head authenticates and
    /// matches the live chain and the re-derived hash `derived`, no
    /// record sits beyond it, and its counter anchor is accepted.
    fn check_head(&self, st: &ChainState, derived: &[u8; 32]) -> Result<(), SegShareError> {
        let (count, head, anchor) = match self.sgx.boundary().ocall(|| self.store.get(HEAD_NAME))? {
            Some(blob) => {
                let body = pae_dec(&self.key, &blob, HEAD_AAD)
                    .map_err(|_| tamper("audit head failed authentication"))?;
                decode_head(&body)?
            }
            None if st.count == 0 => (0, genesis(), 0),
            None => return Err(tamper("audit head missing (truncation)")),
        };
        if count != st.count || head != st.head {
            return Err(tamper(
                "persisted audit head diverges from live chain (rollback or stale head)",
            ));
        }
        if *derived != head {
            return Err(tamper("audit chain head mismatch"));
        }
        let next = record_name(count);
        if self.sgx.boundary().ocall(|| self.store.exists(&next))? {
            return Err(tamper(
                "audit record beyond sealed head (forged append or rolled-back head)",
            ));
        }
        if self.counter.as_ref().is_some_and(|c| !c.accepts(anchor)) {
            return Err(tamper(
                "audit counter anchor mismatch (whole-trail rollback)",
            ));
        }
        Ok(())
    }
}

fn tamper(what: &str) -> SegShareError {
    SegShareError::Integrity(format!("audit: {what}"))
}

/// JSON array rendering of exported audit records. Labels are
/// compiled-in operation/code names; principals and objects are hex
/// fingerprints — nothing here needs escaping.
#[must_use]
pub fn records_json(records: &[AuditRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"seq\": {}, \"time\": {}, \"request_id\": {}, \"op\": \"{}\", \
             \"principal\": \"{:016x}\", \"object\": \"{:016x}\", \"decision\": \"{}\", \
             \"code\": \"{}\"}}",
            r.seq,
            r.time,
            r.request_id,
            r.op,
            r.principal,
            r.object,
            r.decision.label(),
            r.code
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
    use seg_sgx::{EnclaveImage, Platform};
    use seg_store::MemStore;

    /// Loads a log against `store` on `platform` — counters are scoped
    /// per platform, so restart tests must reuse one platform.
    fn load_log(
        platform: &Platform,
        store: &Arc<MemStore>,
        use_counter: bool,
    ) -> Result<AuditLog, SegShareError> {
        load_with(platform, store, use_counter, false)
    }

    fn load_with(
        platform: &Platform,
        store: &Arc<MemStore>,
        use_counter: bool,
        batch: bool,
    ) -> Result<AuditLog, SegShareError> {
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"audit-test")));
        let config = EnclaveConfig {
            rollback_whole_fs: use_counter,
            batch,
            ..EnclaveConfig::default()
        };
        AuditLog::load(
            PaeKey::from_bytes(&[9u8; 16]),
            Arc::clone(store) as Arc<dyn ObjectStore>,
            sgx,
            &config,
            &seg_obs::Registry::new(),
        )
    }

    fn audit_log(store: Arc<MemStore>, use_counter: bool) -> AuditLog {
        load_log(&Platform::new_with_seed(7), &store, use_counter).expect("load")
    }

    fn append(log: &AuditLog, i: u64) -> Result<(), SegShareError> {
        let (time, rec) = event(i);
        log.append(time, &rec)
    }

    fn event(i: u64) -> (u64, RequestRecord) {
        (
            1_000 + i,
            RequestRecord::open(i, "put_file", 0xaa00 + i, 0xbb00 + i),
        )
    }

    #[test]
    fn append_verify_export_roundtrip() {
        let store = Arc::new(MemStore::new());
        let log = audit_log(Arc::clone(&store), false);
        assert_eq!(log.verify().unwrap(), 0);
        for i in 0..5 {
            append(&log, i).unwrap();
        }
        assert_eq!(log.verify().unwrap(), 5);
        let records = log.export().unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[3].request_id, 3);
        assert_eq!(records[3].op, "put_file");
        assert_eq!(records[3].decision, TraceDecision::Allow);
        let json = records_json(&records);
        assert!(json.contains("\"op\": \"put_file\""), "{json}");
        assert_eq!(records_json(&[]), "[]\n");
    }

    #[test]
    fn verify_window_walks_chain_incrementally() {
        let store = Arc::new(MemStore::new());
        let log = audit_log(Arc::clone(&store), false);
        for i in 0..7 {
            append(&log, i).unwrap();
        }
        let mut cursor = None;
        let step = log.verify_window(&mut cursor, 3).unwrap();
        assert_eq!((step.checked, step.complete), (3, false));
        assert_eq!(cursor.unwrap().position(), 3);
        // Appends between windows extend the chain without
        // invalidating the cursor.
        append(&log, 7).unwrap();
        let step = log.verify_window(&mut cursor, 3).unwrap();
        assert_eq!((step.checked, step.complete), (3, false));
        let step = log.verify_window(&mut cursor, 100).unwrap();
        assert_eq!((step.checked, step.complete), (2, true));
        assert_eq!(step.chain_len, 8);
        assert!(cursor.is_none(), "completed pass resets the cursor");
        // An empty chain completes immediately.
        let empty = audit_log(Arc::new(MemStore::new()), false);
        let step = empty.verify_window(&mut None, 10).unwrap();
        assert_eq!((step.checked, step.complete), (0, true));
    }

    /// `verify()` and a complete scrub pass are one walk: every tamper
    /// class is reported by both, with the same error.
    #[test]
    fn verify_and_a_scrub_pass_report_each_tamper_class_alike() {
        type Tamper = fn(&MemStore, &Platform, &[u8]);
        let cases: [(&str, Tamper); 9] = [
            ("truncation", |s, _, _| {
                s.delete(&record_name(2)).unwrap();
            }),
            ("reorder", |s, _, _| {
                let (a, b) = (record_name(1), record_name(2));
                let (blob_a, blob_b) = (s.get(&a).unwrap().unwrap(), s.get(&b).unwrap().unwrap());
                s.put(&a, &blob_b).unwrap();
                s.put(&b, &blob_a).unwrap();
            }),
            ("substitution", |s, _, _| {
                let donor = s.get(&record_name(0)).unwrap().unwrap();
                s.put(&record_name(3), &donor).unwrap();
            }),
            ("bit-flip", |s, _, _| {
                let mut blob = s.get(&record_name(4)).unwrap().unwrap();
                blob[12] ^= 1;
                s.put(&record_name(4), &blob).unwrap();
            }),
            ("head deleted", |s, _, _| {
                s.delete(HEAD_NAME).unwrap();
            }),
            ("head bit-flip", |s, _, _| {
                let mut blob = s.get(HEAD_NAME).unwrap().unwrap();
                blob[12] ^= 1;
                s.put(HEAD_NAME, &blob).unwrap();
            }),
            ("stale head", |s, _, stale| {
                s.put(HEAD_NAME, stale).unwrap();
            }),
            ("forged append", |s, _, _| {
                let donor = s.get(&record_name(1)).unwrap().unwrap();
                s.put(&record_name(5), &donor).unwrap();
            }),
            ("counter anchor", |_, platform, _| {
                let sgx = platform.launch(&EnclaveImage::from_code(b"audit-test"));
                sgx.counter(AUDIT_COUNTER_ID).increment().unwrap();
            }),
        ];
        for (i, (class, tamper)) in cases.into_iter().enumerate() {
            let platform = Platform::new_with_seed(70 + i as u64);
            let store = Arc::new(MemStore::new());
            let log = load_log(&platform, &store, true).unwrap();
            let mut stale = Vec::new();
            for seq in 0..5 {
                append(&log, seq).unwrap();
                if seq == 2 {
                    stale = store.get(HEAD_NAME).unwrap().unwrap();
                }
            }
            tamper(&store, &platform, &stale);
            let verified = log.verify().unwrap_err();
            let mut cursor = None;
            let scrubbed = loop {
                match log.verify_window(&mut cursor, 2) {
                    Ok(step) => assert!(!step.complete, "{class}: a scrub pass missed it"),
                    Err(err) => break err,
                }
            };
            assert!(
                matches!(verified, SegShareError::Integrity(_)),
                "{class}: {verified:?}"
            );
            assert_eq!(verified.to_string(), scrubbed.to_string(), "{class}");
        }
    }

    #[test]
    fn verify_window_detects_midchain_tamper() {
        let store = Arc::new(MemStore::new());
        let log = audit_log(Arc::clone(&store), false);
        for i in 0..6 {
            append(&log, i).unwrap();
        }
        // Flip a bit in record 4.
        let name = record_name(4);
        let mut blob = store.get(&name).unwrap().unwrap();
        blob[10] ^= 1;
        store.put(&name, &blob).unwrap();
        let mut cursor = None;
        let step = log.verify_window(&mut cursor, 4).unwrap();
        assert!(!step.complete);
        let err = log.verify_window(&mut cursor, 4).unwrap_err();
        assert!(err.to_string().contains("failed authentication"), "{err}");
        assert!(cursor.is_none(), "error resets the pass");
        // Truncation of the head is caught at pass completion.
        let store2 = Arc::new(MemStore::new());
        let log2 = audit_log(Arc::clone(&store2), false);
        append(&log2, 0).unwrap();
        store2.delete(&record_name(0)).unwrap();
        let err = log2.verify_window(&mut None, 10).unwrap_err();
        assert!(err.to_string().contains("missing (truncation)"), "{err}");
    }

    #[test]
    fn restart_resumes_the_same_chain() {
        let store = Arc::new(MemStore::new());
        let log = audit_log(Arc::clone(&store), false);
        append(&log, 0).unwrap();
        append(&log, 1).unwrap();
        drop(log);
        let log = audit_log(Arc::clone(&store), false);
        assert_eq!(log.len(), 2);
        append(&log, 2).unwrap();
        assert_eq!(log.verify().unwrap(), 3);
    }

    /// `append` writes the record, then the head; simulate a crash in
    /// between by rolling back only the head and restarting. The
    /// orphaned-but-genuine record must be adopted, not reported as a
    /// forged append.
    #[test]
    fn interrupted_append_is_adopted_on_restart() {
        for use_counter in [false, true] {
            let platform = Platform::new_with_seed(40 + use_counter as u64);
            let store = Arc::new(MemStore::new());
            let log = load_log(&platform, &store, use_counter).expect("fresh load");
            append(&log, 0).unwrap();
            append(&log, 1).unwrap();
            let stale_head = store.get(HEAD_NAME).unwrap().unwrap();
            append(&log, 2).unwrap();
            drop(log);
            // Crash state: record 2 persisted (and, with the counter on,
            // the counter incremented) but the head write "was lost".
            store.put(HEAD_NAME, &stale_head).unwrap();
            let log = load_log(&platform, &store, use_counter).expect("recovery");
            assert_eq!(log.len(), 3, "use_counter={use_counter}");
            assert_eq!(log.verify().unwrap(), 3);
            assert_eq!(log.export().unwrap().len(), 3);
            // The chain keeps extending normally after adoption.
            append(&log, 3).unwrap();
            assert_eq!(log.verify().unwrap(), 4);
        }
    }

    /// The pre-increment crash window: the record is persisted but the
    /// counter was never bumped (here: the trail was written before the
    /// counter guard was enabled). Adoption must increment the counter
    /// itself so the rewritten head anchors correctly.
    #[test]
    fn adoption_increments_counter_when_crash_preceded_increment() {
        let platform = Platform::new_with_seed(42);
        let store = Arc::new(MemStore::new());
        let log = load_log(&platform, &store, false).expect("fresh load");
        append(&log, 0).unwrap();
        let stale_head = store.get(HEAD_NAME).unwrap().unwrap();
        append(&log, 1).unwrap();
        drop(log);
        store.put(HEAD_NAME, &stale_head).unwrap();
        // Counter is still 0 (= the stale head's anchor): hw == anchor.
        let log = load_log(&platform, &store, true).expect("recovery");
        assert_eq!(log.len(), 2);
        assert_eq!(log.verify().unwrap(), 2);
    }

    /// Loads a batch-mode (deferred-anchor) log on `platform`.
    fn load_batch_log(
        platform: &Platform,
        store: &Arc<MemStore>,
    ) -> Result<AuditLog, SegShareError> {
        load_with(platform, store, true, true)
    }

    /// Batch mode defers the anchor increment to the durability point:
    /// verification accepts the one-ahead window while the increment is
    /// pending, and a crash inside the window is adopted (counter
    /// caught up by one) at the next load — while a genuine rollback
    /// past that window still fails.
    #[test]
    fn batch_deferred_anchor_window_and_adoption() {
        let platform = Platform::new_with_seed(46);
        let store = Arc::new(MemStore::new());
        let log = load_batch_log(&platform, &store).expect("fresh load");
        append(&log, 0).unwrap();
        // Pending window: head anchors hw + 1, verify accepts.
        assert_eq!(log.verify().unwrap(), 1);
        log.anchor().unwrap().settle().unwrap();
        assert_eq!(log.verify().unwrap(), 1);
        // Crash with the increment outstanding.
        append(&log, 1).unwrap();
        drop(log);
        let log = load_batch_log(&platform, &store).expect("adoption");
        assert_eq!(log.len(), 2);
        assert_eq!(log.verify().unwrap(), 2);
        // A rollback of head + records past the adopted state fails.
        let old = store.snapshot();
        append(&log, 2).unwrap();
        log.anchor().unwrap().settle().unwrap();
        append(&log, 3).unwrap();
        log.anchor().unwrap().settle().unwrap();
        drop(log);
        store.restore(old);
        let err = load_batch_log(&platform, &store).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("rollback")),
            "{err:?}"
        );
    }

    /// §V-E across restart: rolling the trail back to an old-but-valid
    /// consistent prefix must fail at *load*, before any new append
    /// could re-anchor the head and erase the evidence.
    #[test]
    fn whole_trail_rollback_is_detected_at_load() {
        let platform = Platform::new_with_seed(43);
        let store = Arc::new(MemStore::new());
        let log = load_log(&platform, &store, true).expect("fresh load");
        append(&log, 0).unwrap();
        let old_head = store.get(HEAD_NAME).unwrap().unwrap();
        append(&log, 1).unwrap();
        append(&log, 2).unwrap();
        drop(log);
        // Variant A: roll back to a head-plus-one-record state that
        // mimics an interrupted append — record 1 still present and
        // authentic at its position — but the counter is two ahead, so
        // adoption must refuse.
        store.put(HEAD_NAME, &old_head).unwrap();
        store.delete(&record_name(2)).unwrap();
        let err = load_log(&platform, &store, true).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("rollback")),
            "{err:?}"
        );
        // Variant B: a fully consistent prefix (no trailing record).
        store.delete(&record_name(1)).unwrap();
        let err = load_log(&platform, &store, true).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("rollback")),
            "{err:?}"
        );
    }

    /// Deleting the whole trail (head included) against a nonzero
    /// counter is whole-trail deletion, detected at load.
    #[test]
    fn deleted_trail_with_nonzero_counter_is_detected_at_load() {
        let platform = Platform::new_with_seed(44);
        let store = Arc::new(MemStore::new());
        let log = load_log(&platform, &store, true).expect("fresh load");
        append(&log, 0).unwrap();
        append(&log, 1).unwrap();
        drop(log);
        for key in store.list().unwrap() {
            store.delete(&key).unwrap();
        }
        let err = load_log(&platform, &store, true).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("deletion")),
            "{err:?}"
        );
    }

    /// A record beyond the head that does NOT authenticate in that
    /// position is a forged append, rejected at load (a genuine crash
    /// remnant authenticates and is adopted instead).
    #[test]
    fn forged_record_beyond_head_is_rejected_at_load() {
        let platform = Platform::new_with_seed(45);
        let store = Arc::new(MemStore::new());
        let log = load_log(&platform, &store, false).expect("fresh load");
        append(&log, 0).unwrap();
        append(&log, 1).unwrap();
        drop(log);
        let donor = store.get(&record_name(0)).unwrap().unwrap();
        store.put(&record_name(2), &donor).unwrap();
        let err = load_log(&platform, &store, false).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("forged")),
            "{err:?}"
        );
    }

    #[test]
    fn record_codec_rejects_truncation() {
        let (time, rec) = event(1);
        let encoded = encode_record(time, &rec);
        let decoded = decode_record(1, &encoded).unwrap();
        assert_eq!(decoded.op, "put_file");
        assert_eq!(decoded.code, "ok");
        for cut in 0..encoded.len() {
            assert!(decode_record(1, &encoded[..cut]).is_err(), "cut {cut}");
        }
    }
}
