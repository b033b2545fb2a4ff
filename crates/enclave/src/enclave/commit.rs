//! The commit window and the §V-E counter policy — the enclave's side
//! of the durability plane (DESIGN.md §10).
//!
//! [`SegShareEnclave::commit`] is the one function through which the
//! enclave reaches a store after launch, to write or to read: every
//! control request, every upload header's checks, every upload's end,
//! first-boot initialization, blob GC, backup restoration, each scrub
//! step and each audit verify or export make one call. A backend shows
//! a window's writes only to its own thread until the seal, so a read
//! outside any window could see a store behind the enclave's trusted
//! state. [`Anchor`] is the one implementation
//! of the defer-the-increment policy, one per monotonic counter: the
//! trusted store holds the content and group roots', the audit log its
//! head's. `EnclaveConfig::batch` is read here and nowhere else.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;

use seg_obs::{Phase, RequestRecord};
use seg_sgx::Enclave;
use seg_store_api::CommitTicket;

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use super::session::note_outcome;
use super::SegShareEnclave;

/// One TEE monotonic counter anchoring stored state (§V-E), with the
/// policy that keeps it from running ahead of what the store durably
/// holds. A record about to be written names `hw + 1`
/// ([`Anchor::issue`]), and the counter moves only once the store took
/// that record ([`Anchor::written`]): a failed write moves nothing.
/// Immediate mode (batch off) then increments at once. Deferred mode
/// (batch on) increments once the commit window's frame is durable
/// ([`Anchor::settle`]). In both, a crash or a failed increment between
/// the write and the increment leaves a record exactly one ahead, which
/// the next launch adopts ([`Anchor::adopt`]).
pub(crate) struct Anchor {
    sgx: Arc<Enclave>,
    id: u64,
    deferred: bool,
    /// The value records written since the last settle name.
    pending: Mutex<Option<u64>>,
}

impl Anchor {
    /// The anchor over counter `id`, deferred iff `config.batch`.
    pub(crate) fn new(sgx: Arc<Enclave>, id: u64, config: &EnclaveConfig) -> Anchor {
        Anchor {
            sgx,
            id,
            deferred: config.batch,
            pending: Mutex::new(None),
        }
    }

    /// The hardware counter's value.
    pub(crate) fn read(&self) -> u64 {
        self.sgx.counter(self.id).read()
    }

    /// The value a record about to be written names: the one an
    /// unsettled window's records already name, else `hw + 1`.
    pub(crate) fn issue(&self) -> u64 {
        self.pending.lock().unwrap_or_else(|| self.read() + 1)
    }

    /// The store took a record naming `value` (from [`Anchor::issue`]):
    /// immediate mode increments to it now, deferred mode keeps it
    /// pending until the window settles.
    pub(crate) fn written(&self, value: u64) -> Result<(), SegShareError> {
        *self.pending.lock() = Some(value);
        if self.deferred {
            return Ok(());
        }
        self.settle()
    }

    /// Whether a stored record naming `value` is current: it names the
    /// hardware value, or the one-ahead value an unsettled window wrote.
    pub(crate) fn accepts(&self, value: u64) -> bool {
        value == self.read() || *self.pending.lock() == Some(value)
    }

    /// Performs the deferred increment, once the records naming it are
    /// durable. The hardware reaches the target before the pending mark
    /// clears, so a concurrent verifier sees one or the other.
    pub(crate) fn settle(&self) -> Result<(), SegShareError> {
        let Some(target) = *self.pending.lock() else {
            return Ok(());
        };
        while self.read() < target {
            self.increment()?;
        }
        *self.pending.lock() = None;
        Ok(())
    }

    /// Launch-time adoption of a stored `value`: exactly `hw + 1` is the
    /// previous process's last write whose increment a crash (or a
    /// failed increment) lost, since every mode writes before it
    /// increments, and the counter catches up by one. Any larger gap
    /// stays, so reads then fail §V-E, as a rollback must.
    pub(crate) fn adopt(&self, value: u64) -> Result<(), SegShareError> {
        if value == self.read() + 1 {
            self.increment()?;
        }
        Ok(())
    }

    fn increment(&self) -> Result<(), SegShareError> {
        let ctr = self.sgx.counter(self.id);
        ctr.increment()?;
        // Real counter increments cost tens of milliseconds; charge it.
        self.sgx.boundary().charge(ctr.increment_latency_ns());
        Ok(())
    }
}

impl SegShareEnclave {
    /// The commit window: runs `f` and appends `audit` — the record of
    /// the request or upload, with the outcome of `f` — as one atomic,
    /// durable unit.
    ///
    /// In batch mode it takes the commit mutex (so it is the outermost
    /// lock: `f` takes its lock scopes inside), opens a transaction on
    /// every store, runs `f`, appends the record with the seal inside
    /// the audit chain's lock (so chain order is log order), drops
    /// every lock, waits for the group commit's fsync and settles the
    /// §V-E anchors. With whole-FS rollback protection the commit mutex
    /// stays held through the wait and the settle, so no window issues
    /// a value before the previous one's increment landed. With batch
    /// off it runs `f` and appends the record, nothing else.
    ///
    /// An audit-append or durability failure outranks a successful
    /// `f`, never an earlier error. If `f` panics, the window's
    /// transactions are sealed as the panic unwinds (fail closed, as
    /// for an `f` that errs), so the worker thread keeps no open
    /// transaction to leak into its next window or to hold every
    /// checkpoint off.
    pub(crate) fn commit<T>(
        &self,
        audit: Option<&mut RequestRecord>,
        f: impl FnOnce() -> Result<T, SegShareError>,
    ) -> Result<T, SegShareError> {
        if !self.config.batch {
            return self.append_audit(audit, f(), || {});
        }
        let guard = {
            let _wait = seg_obs::prof::phase(Phase::CommitWait);
            self.commit_mutex.lock()
        };
        for store in self.store.stores() {
            store.tx_begin();
        }
        let result = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
            let _ = self.seal();
            resume_unwind(panic)
        });
        let mut sealed = Ok(Vec::new());
        let result = self.append_audit(audit, result, || sealed = self.seal());
        if !self.config.rollback_whole_fs {
            // Nothing to settle: let concurrent windows' seals
            // coalesce into one fsync.
            drop(guard);
        }
        let durable = sealed.and_then(|tickets| {
            let _wait = seg_obs::prof::phase(Phase::CommitWait);
            for ticket in tickets {
                self.sgx.boundary().ocall(|| ticket.wait())?;
            }
            self.settle()
        });
        result.and_then(|value| durable.map(|()| value))
    }

    /// Appends the audit record (when there is one and auditing is on)
    /// with `seal` run inside the chain lock, right after the head
    /// write; otherwise just runs `seal`. The seal runs even when the
    /// append fails (fail closed: whatever the window holds is still
    /// made durable).
    fn append_audit<T>(
        &self,
        audit: Option<&mut RequestRecord>,
        result: Result<T, SegShareError>,
        seal: impl FnOnce(),
    ) -> Result<T, SegShareError> {
        match (audit, &self.audit) {
            (Some(record), Some(log)) => {
                note_outcome(record, &result);
                log.append_sealing(self.now(), record, seal).and(result)
            }
            _ => {
                seal();
                result
            }
        }
    }

    /// Seals this thread's transaction on every store and collects the
    /// tickets. Views over one backend seal its one transaction once;
    /// the others return nothing.
    fn seal(&self) -> Result<Vec<CommitTicket>, SegShareError> {
        let mut tickets = Vec::new();
        for store in self.store.stores() {
            tickets.extend(store.tx_seal()?);
        }
        Ok(tickets)
    }

    /// Settles every anchor: the two tree roots and the audit head.
    fn settle(&self) -> Result<(), SegShareError> {
        let audit = self.audit.as_ref().and_then(|log| log.anchor());
        for anchor in self.store.root_anchors().iter().chain(audit) {
            anchor.settle()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_sgx::{EnclaveImage, Platform};

    fn anchor(platform: &Platform, batch: bool) -> Anchor {
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"anchor-test")));
        let config = EnclaveConfig {
            batch,
            ..EnclaveConfig::default()
        };
        Anchor::new(sgx, 7, &config)
    }

    #[test]
    fn immediate_anchor_increments_once_written() {
        let a = anchor(&Platform::new_with_seed(60), false);
        assert_eq!(a.issue(), 1);
        assert_eq!(a.read(), 0, "a write that fails moves nothing");
        assert_eq!(a.issue(), 1);
        a.written(1).unwrap();
        assert_eq!(a.read(), 1);
        assert!(a.accepts(1));
        assert!(!a.accepts(0) && !a.accepts(2));
        a.settle().unwrap();
        assert_eq!(a.read(), 1, "nothing was deferred");
    }

    #[test]
    fn deferred_anchor_names_one_ahead_until_settled() {
        let a = anchor(&Platform::new_with_seed(61), true);
        assert_eq!(a.issue(), 1);
        assert!(!a.accepts(1), "nothing names it yet");
        a.settle().unwrap();
        assert_eq!(a.read(), 0, "an unwritten value never settles");
        a.written(1).unwrap();
        assert_eq!(a.issue(), 1, "one value per window");
        assert_eq!(a.read(), 0, "no increment before durability");
        assert!(a.accepts(0) && a.accepts(1));
        assert!(!a.accepts(2), "two ahead is never pending");
        a.settle().unwrap();
        assert_eq!(a.read(), 1);
        assert!(a.accepts(1) && !a.accepts(0));
        assert_eq!(a.issue(), 2);
    }

    #[test]
    fn adoption_catches_up_exactly_one() {
        // Both modes write before they increment, so both adopt.
        for batch in [false, true] {
            let a = anchor(&Platform::new_with_seed(62), batch);
            // A restart finds a record one ahead: the lost increment.
            a.adopt(1).unwrap();
            assert_eq!(a.read(), 1);
            // A record two ahead is a rollback of the whole trail:
            // neither adopted nor accepted.
            a.adopt(3).unwrap();
            assert_eq!(a.read(), 1);
            assert!(!a.accepts(3));
            // Values at or behind the hardware change nothing.
            a.adopt(1).unwrap();
            a.adopt(0).unwrap();
            assert_eq!(a.read(), 1);
        }
    }
}
