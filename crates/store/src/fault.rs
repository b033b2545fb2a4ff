//! Scripted fail/crash points for durability testing.
//!
//! Two layers:
//!
//! * [`FaultPlan`] — a countdown over *durability events* (log appends,
//!   fsyncs, checkpoint renames, segment deletions) consumed by
//!   [`WalStore`](crate::WalStore). When the countdown hits the chosen
//!   event, the store simulates a machine crash: appends are torn
//!   mid-frame, every later operation fails, and the only way forward
//!   is reopening the directory — which is exactly what the
//!   crash-matrix tests do at every event index.
//! * [`FaultStore`] — an [`ObjectStore`] wrapper (companion to
//!   [`AdversaryStore`](crate::AdversaryStore)) that fails, crashes,
//!   tears, or silently drops the Nth write, for backends like
//!   [`MemStore`](crate::MemStore) that have no event stream of their
//!   own.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use crate::{BatchOp, ObjectStore, StoreError, WriteBatch};

/// The kind of durability event a [`FaultPlan`] counts (reported back
/// to tests so a matrix can label what it killed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the write with an error, leaving the store usable.
    FailWrite,
    /// Apply the write, then poison the store (crash after success).
    CrashAfterWrite,
    /// Apply a truncated prefix of the write, then poison the store.
    TornWrite,
    /// Report success without writing, then poison the store — models
    /// an fsync that claimed durability the disk never delivered.
    SilentDrop,
}

/// A deterministic crash script over a store's durability events.
///
/// `crash_at(n)` arms the plan so the `n`-th event (1-based) triggers
/// the simulated crash; [`FaultPlan::events`] reports how many events
/// the store has produced so far, which lets a test matrix first do a
/// clean run to learn the event count, then kill at every index.
#[derive(Debug, Default)]
pub struct FaultPlan {
    countdown: AtomicI64,
    events: AtomicU64,
    tripped: AtomicBool,
}

impl FaultPlan {
    /// A disarmed plan (counts events, never crashes).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan {
            countdown: AtomicI64::new(i64::MIN),
            events: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// A plan that crashes on the `n`-th durability event (1-based).
    #[must_use]
    pub fn crash_at(n: u64) -> FaultPlan {
        let plan = FaultPlan::new();
        plan.countdown
            .store(i64::try_from(n).unwrap_or(i64::MAX), Ordering::SeqCst);
        plan
    }

    /// Durability events observed so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// Whether the scripted crash has fired.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Records one durability event; returns `true` when this event is
    /// the scripted crash point.
    pub(crate) fn event(&self) -> bool {
        self.events.fetch_add(1, Ordering::SeqCst);
        if self.countdown.load(Ordering::SeqCst) == i64::MIN {
            return false;
        }
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.tripped.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }
}

/// An [`ObjectStore`] wrapper with scripted write failpoints.
///
/// Reads always pass through; the `n`-th *write* (put, delete, rename,
/// or batch) triggers the configured [`FaultAction`]. After a crashing
/// action the store is poisoned: every subsequent operation fails, as
/// after a real machine crash.
#[derive(Debug)]
pub struct FaultStore<S> {
    inner: S,
    action: FaultAction,
    countdown: AtomicI64,
    poisoned: AtomicBool,
}

impl<S: ObjectStore> FaultStore<S> {
    /// Wraps `inner`; the `n`-th write (1-based) triggers `action`.
    #[must_use]
    pub fn new(inner: S, action: FaultAction, n: u64) -> FaultStore<S> {
        FaultStore {
            inner,
            action,
            countdown: AtomicI64::new(i64::try_from(n).unwrap_or(i64::MAX)),
            poisoned: AtomicBool::new(false),
        }
    }

    /// A reference to the wrapped store.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Whether the scripted fault has fired and poisoned the store.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    fn crashed() -> StoreError {
        StoreError::Io("simulated crash".to_string())
    }

    fn check_alive(&self) -> Result<(), StoreError> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(Self::crashed());
        }
        Ok(())
    }

    /// Counts one write; `true` means this write is the failpoint.
    fn write_event(&self) -> bool {
        self.countdown.fetch_sub(1, Ordering::SeqCst) == 1
    }

    fn faulted_put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        match self.action {
            FaultAction::FailWrite => Err(StoreError::Injected),
            FaultAction::CrashAfterWrite => {
                self.inner.put(key, value)?;
                self.poisoned.store(true, Ordering::SeqCst);
                Err(Self::crashed())
            }
            FaultAction::TornWrite => {
                self.inner.put(key, &value[..value.len() / 2])?;
                self.poisoned.store(true, Ordering::SeqCst);
                Err(Self::crashed())
            }
            FaultAction::SilentDrop => {
                self.poisoned.store(true, Ordering::SeqCst);
                Ok(())
            }
        }
    }
}

impl<S: ObjectStore> ObjectStore for FaultStore<S> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.check_alive()?;
        self.inner.get(key)
    }

    fn get_arc(&self, key: &str) -> Result<Option<std::sync::Arc<[u8]>>, StoreError> {
        self.check_alive()?;
        self.inner.get_arc(key)
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.check_alive()?;
        if self.write_event() {
            return self.faulted_put(key, value);
        }
        self.inner.put(key, value)
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.check_alive()?;
        if self.write_event() {
            return match self.action {
                FaultAction::FailWrite => Err(StoreError::Injected),
                FaultAction::SilentDrop => {
                    self.poisoned.store(true, Ordering::SeqCst);
                    Ok(true)
                }
                FaultAction::CrashAfterWrite | FaultAction::TornWrite => {
                    self.inner.delete(key)?;
                    self.poisoned.store(true, Ordering::SeqCst);
                    Err(Self::crashed())
                }
            };
        }
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        self.check_alive()?;
        self.inner.exists(key)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        self.check_alive()?;
        if self.write_event() {
            return match self.action {
                FaultAction::FailWrite => Err(StoreError::Injected),
                FaultAction::SilentDrop => {
                    self.poisoned.store(true, Ordering::SeqCst);
                    Ok(())
                }
                FaultAction::CrashAfterWrite | FaultAction::TornWrite => {
                    self.inner.rename(from, to)?;
                    self.poisoned.store(true, Ordering::SeqCst);
                    Err(Self::crashed())
                }
            };
        }
        self.inner.rename(from, to)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.check_alive()?;
        self.inner.list()
    }

    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        self.check_alive()?;
        if self.write_event() {
            // Tear the batch itself: apply a prefix of its ops.
            return match self.action {
                FaultAction::FailWrite => Err(StoreError::Injected),
                FaultAction::SilentDrop => {
                    self.poisoned.store(true, Ordering::SeqCst);
                    Ok(())
                }
                FaultAction::CrashAfterWrite | FaultAction::TornWrite => {
                    let keep = match self.action {
                        FaultAction::TornWrite => batch.ops.len() / 2,
                        _ => batch.ops.len(),
                    };
                    for op in &batch.ops[..keep] {
                        match op {
                            BatchOp::Put { key, value } => self.inner.put(key, value)?,
                            BatchOp::Delete { key } => {
                                self.inner.delete(key)?;
                            }
                        }
                    }
                    self.poisoned.store(true, Ordering::SeqCst);
                    Err(Self::crashed())
                }
            };
        }
        self.inner.apply_batch(batch)
    }

    fn io_stats(&self) -> crate::IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn fail_write_leaves_store_usable() {
        let s = FaultStore::new(MemStore::new(), FaultAction::FailWrite, 2);
        s.put("a", b"1").unwrap();
        assert_eq!(s.put("b", b"2").unwrap_err(), StoreError::Injected);
        // Not a crash: later writes succeed.
        s.put("c", b"3").unwrap();
        assert!(!s.poisoned());
    }

    #[test]
    fn torn_write_poisons_and_truncates() {
        let s = FaultStore::new(MemStore::new(), FaultAction::TornWrite, 1);
        assert!(s.put("a", b"full-value").is_err());
        assert!(s.poisoned());
        assert!(s.get("a").is_err(), "poisoned store fails reads too");
        // The torn half is visible to a post-"reboot" observer.
        assert_eq!(s.inner().get("a").unwrap(), Some(b"full-".to_vec()));
    }

    #[test]
    fn silent_drop_claims_success_without_writing() {
        let s = FaultStore::new(MemStore::new(), FaultAction::SilentDrop, 1);
        s.put("a", b"1").unwrap();
        assert!(s.poisoned());
        assert_eq!(s.inner().get("a").unwrap(), None);
    }

    #[test]
    fn crash_after_write_applies_then_dies() {
        let s = FaultStore::new(MemStore::new(), FaultAction::CrashAfterWrite, 1);
        assert!(s.put("a", b"1").is_err());
        assert_eq!(s.inner().get("a").unwrap(), Some(b"1".to_vec()));
        assert!(s.put("b", b"2").is_err());
    }

    #[test]
    fn plan_counts_and_trips() {
        let plan = FaultPlan::crash_at(3);
        assert!(!plan.event());
        assert!(!plan.event());
        assert!(plan.event());
        assert!(plan.tripped());
        assert_eq!(plan.events(), 3);
        // Disarmed plans only count.
        let counter = FaultPlan::new();
        for _ in 0..5 {
            assert!(!counter.event());
        }
        assert_eq!(counter.events(), 5);
        assert!(!counter.tripped());
    }
}
