//! The commit window and the §V-E counter policy — the enclave's side
//! of the durability plane (DESIGN.md §10).
//!
//! [`SegShareEnclave::commit`] is the one function through which the
//! enclave makes a durable write after launch: every control request
//! but an accepted upload header (it writes nothing), every upload's
//! end, first-boot initialization, blob GC and backup restoration each
//! make one call. [`Anchor`] is the one implementation
//! of the defer-the-increment policy, one per monotonic counter: the
//! trusted store holds the content and group roots', the audit log its
//! head's. `EnclaveConfig::batch` is read here and nowhere else.

use std::sync::Arc;

use parking_lot::Mutex;

use seg_obs::RequestRecord;
use seg_sgx::Enclave;
use seg_store::{CommitTicket, ObjectStore};

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use super::session::note_outcome;
use super::SegShareEnclave;

/// One TEE monotonic counter anchoring stored state (§V-E), with the
/// policy that keeps it from running ahead of what the store durably
/// holds. Immediate mode (batch off) increments as each record is
/// written. Deferred mode (batch on) has records name `hw + 1` and
/// increments once the commit window's frame is durable
/// ([`Anchor::settle`]); a crash in between leaves a record exactly one
/// ahead, which the next launch adopts ([`Anchor::adopt`]).
pub(crate) struct Anchor {
    sgx: Arc<Enclave>,
    id: u64,
    deferred: bool,
    /// The value records issued since the last settle name.
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

    /// The value a record about to be written names: immediate mode
    /// increments now, deferred mode names `hw + 1` until settled.
    pub(crate) fn issue(&self) -> Result<u64, SegShareError> {
        if !self.deferred {
            return self.increment();
        }
        let mut pending = self.pending.lock();
        Ok(*pending.get_or_insert_with(|| self.read() + 1))
    }

    /// Whether a stored record naming `value` is current: it names the
    /// hardware value, or the one-ahead value an unsettled window issued.
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

    /// Launch-time adoption of a stored `value`: exactly `hw + 1` in
    /// deferred mode is the previous process's durable window whose
    /// increment a crash lost, and the counter catches up by one. Any
    /// larger gap stays, so reads then fail §V-E, as a rollback must.
    pub(crate) fn adopt(&self, value: u64) -> Result<(), SegShareError> {
        if self.deferred && value == self.read() + 1 {
            self.increment()?;
        }
        Ok(())
    }

    fn increment(&self) -> Result<u64, SegShareError> {
        let ctr = self.sgx.counter(self.id);
        let value = ctr.increment()?;
        // Real counter increments cost tens of milliseconds; charge it.
        self.sgx.boundary().charge(ctr.increment_latency_ns());
        Ok(value)
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
    /// `f`, never an earlier error.
    pub(crate) fn commit<T>(
        &self,
        audit: Option<&mut RequestRecord>,
        f: impl FnOnce() -> Result<T, SegShareError>,
    ) -> Result<T, SegShareError> {
        if !self.config.batch {
            return self.append_audit(audit, f(), || {});
        }
        let guard = {
            let _wait = seg_obs::prof::phase("commit_wait");
            self.commit_mutex.lock()
        };
        for (_, counted) in &self.counted_stores {
            counted.tx_begin();
        }
        let result = f();
        let mut sealed = Ok(Vec::new());
        let result = self.append_audit(audit, result, || sealed = self.seal());
        if !self.config.rollback_whole_fs {
            // Nothing to settle: let concurrent windows' seals
            // coalesce into one fsync.
            drop(guard);
        }
        let durable = sealed.and_then(|tickets| {
            let _wait = seg_obs::prof::phase("commit_wait");
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

    /// Seals this thread's transaction on every store handle and
    /// collects the tickets. Views over one backend seal its one
    /// transaction once; the others return nothing.
    fn seal(&self) -> Result<Vec<CommitTicket>, SegShareError> {
        let mut tickets = Vec::new();
        for (_, counted) in &self.counted_stores {
            if let Some(ticket) = self.sgx.boundary().ocall(|| counted.tx_seal())? {
                tickets.push(ticket);
            }
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
    fn immediate_anchor_increments_at_issue() {
        let a = anchor(&Platform::new_with_seed(60), false);
        assert_eq!(a.issue().unwrap(), 1);
        assert_eq!(a.read(), 1);
        assert!(a.accepts(1));
        assert!(!a.accepts(0) && !a.accepts(2));
        a.settle().unwrap();
        assert_eq!(a.read(), 1, "nothing was deferred");
        // Adoption is a deferred-mode repair only.
        a.adopt(2).unwrap();
        assert_eq!(a.read(), 1);
    }

    #[test]
    fn deferred_anchor_names_one_ahead_until_settled() {
        let a = anchor(&Platform::new_with_seed(61), true);
        assert_eq!(a.issue().unwrap(), 1);
        assert_eq!(a.issue().unwrap(), 1, "one value per window");
        assert_eq!(a.read(), 0, "no increment before durability");
        assert!(a.accepts(0) && a.accepts(1));
        assert!(!a.accepts(2), "two ahead is never pending");
        a.settle().unwrap();
        assert_eq!(a.read(), 1);
        assert!(a.accepts(1) && !a.accepts(0));
        assert_eq!(a.issue().unwrap(), 2);
    }

    #[test]
    fn adoption_catches_up_exactly_one() {
        let platform = Platform::new_with_seed(62);
        let a = anchor(&platform, true);
        // A restart finds a record one ahead: the lost increment.
        a.adopt(1).unwrap();
        assert_eq!(a.read(), 1);
        // A record two ahead is a rollback of the whole trail: neither
        // adopted nor accepted.
        a.adopt(3).unwrap();
        assert_eq!(a.read(), 1);
        assert!(!a.accepts(3));
        // Values at or behind the hardware change nothing.
        a.adopt(1).unwrap();
        a.adopt(0).unwrap();
        assert_eq!(a.read(), 1);
    }
}
