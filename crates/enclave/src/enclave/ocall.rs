//! The enclave's only handle on an untrusted store: its ocall stub.
//!
//! Each method is one [`seg_sgx::Boundary::ocall`], as the stub the EDL
//! generates for the real artifact would be. What a call does out there
//! — its operation and byte counts included — the host sees for itself
//! and counts on its side of the ocall (paper Fig. 1: the untrusted
//! file manager performs every storage access).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use seg_obs::Phase;
use seg_sgx::Enclave;
use seg_store_api::{CommitTicket, ObjectStore, StoreError, WriteBatch};

use crate::error::SegShareError;

/// The enclave's handle on one untrusted store: it calls five methods.
/// Reads (`get`, `list`) and the one write (`write`, a whole batch) run
/// under [`Phase::StoreIo`] and are tallied for the request cost
/// vector. The transaction calls are the commit window's: `tx_begin`
/// only marks the calling thread's window on the host and is charged
/// no crossing, and `tx_seal` is one ocall outside `store_io`, timed
/// by the window's own phases.
pub(crate) struct StoreOcall {
    sgx: Arc<Enclave>,
    store: Arc<dyn ObjectStore>,
    /// Calls that read (`get`, `list`): `store_reads`.
    reads: AtomicU64,
    /// Calls that write (`write`): `store_writes`.
    writes: AtomicU64,
}

impl StoreOcall {
    /// The stub for `store`, crossing `sgx`'s boundary.
    pub(crate) fn new(sgx: &Arc<Enclave>, store: Arc<dyn ObjectStore>) -> Arc<StoreOcall> {
        Arc::new(StoreOcall {
            sgx: Arc::clone(sgx),
            store,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    fn ocall<T>(
        &self,
        tally: &AtomicU64,
        call: impl FnOnce(&dyn ObjectStore) -> Result<T, StoreError>,
    ) -> Result<T, SegShareError> {
        tally.fetch_add(1, Ordering::Relaxed);
        let _prof = seg_obs::prof::phase(Phase::StoreIo);
        Ok(self.sgx.boundary().ocall(|| call(&*self.store))?)
    }

    pub(crate) fn get(&self, key: &str) -> Result<Option<Vec<u8>>, SegShareError> {
        self.ocall(&self.reads, |store| store.get(key))
    }

    pub(crate) fn list(&self) -> Result<Vec<String>, SegShareError> {
        self.ocall(&self.reads, |store| store.list())
    }

    /// Writes `batch` all or nothing: the store submits it and the
    /// ocall returns once the ticket does. Inside a commit window the
    /// batch joins the window's transaction and the ticket is ready at
    /// once; outside one it is its own atomic unit, durable on return.
    pub(crate) fn write(&self, batch: WriteBatch) -> Result<(), SegShareError> {
        self.ocall(&self.writes, |store| store.submit_batch(batch)?.wait())
    }

    pub(crate) fn tx_begin(&self) {
        self.store.tx_begin();
    }

    pub(crate) fn tx_seal(&self) -> Result<Option<CommitTicket>, SegShareError> {
        Ok(self.sgx.boundary().ocall(|| self.store.tx_seal())?)
    }

    /// Reads and writes so far.
    pub(crate) fn tally(&self) -> (u64, u64) {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (load(&self.reads), load(&self.writes))
    }
}
