//! EPC (enclave page cache) accounting.
//!
//! SGX reserves 128 MiB of RAM for enclaves (§II-A); exceeding it forces
//! encrypted paging "with a major performance overhead". The paper's
//! streaming design exists precisely to keep the enclave's working set
//! small and constant (§VI). This tracker lets tests *prove* that
//! property: allocations register here, and peak usage plus paging events
//! are observable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use seg_obs::Phase;

use crate::boundary::CostModel;

const PAGE: u64 = 4096;

#[derive(Debug, Default)]
struct EpcCounters {
    current: AtomicU64,
    peak: AtomicU64,
    paged_pages: AtomicU64,
}

/// Tracks one enclave's EPC usage.
#[derive(Debug, Clone)]
pub struct EpcTracker {
    limit: u64,
    model: CostModel,
    counters: Arc<EpcCounters>,
}

impl EpcTracker {
    /// Creates a tracker with the given PRM limit.
    #[must_use]
    pub fn new(limit: u64, model: CostModel) -> EpcTracker {
        EpcTracker {
            limit,
            model,
            counters: Arc::new(EpcCounters::default()),
        }
    }

    /// Registers an allocation of `bytes` inside the enclave; the
    /// returned guard releases it on drop. Usage beyond the PRM limit is
    /// charged as paging (it does not fail, matching SGX behaviour).
    #[must_use]
    pub fn alloc(&self, bytes: u64) -> EpcAllocation {
        let new_current = self.counters.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.counters.peak.fetch_max(new_current, Ordering::Relaxed);
        if new_current > self.limit {
            let over = new_current - self.limit.min(new_current);
            let pages = over.div_ceil(PAGE);
            self.counters
                .paged_pages
                .fetch_add(pages, Ordering::Relaxed);
            // Simulated cost: visible in the phase profile but kept out
            // of wall-clock self times (see seg_obs::prof::charge).
            seg_obs::prof::charge(Phase::EpcPaging, pages * self.model.paging_ns_per_page);
        }
        EpcAllocation {
            tracker: self.clone(),
            bytes,
        }
    }

    /// Simulated cost of paging so far, in nanoseconds.
    #[must_use]
    pub fn paging_cost_ns(&self) -> u64 {
        self.counters.paged_pages.load(Ordering::Relaxed) * self.model.paging_ns_per_page
    }

    /// Current registered enclave memory in bytes.
    #[must_use]
    pub fn current_bytes(&self) -> u64 {
        self.counters.current.load(Ordering::Relaxed)
    }

    /// Peak registered enclave memory in bytes.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.counters.peak.load(Ordering::Relaxed)
    }

    /// Pages that had to be swapped out of the EPC.
    #[must_use]
    pub fn paged_pages(&self) -> u64 {
        self.counters.paged_pages.load(Ordering::Relaxed)
    }

    /// The PRM limit in bytes.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

/// RAII guard for a registered enclave allocation.
#[derive(Debug)]
pub struct EpcAllocation {
    tracker: EpcTracker,
    bytes: u64,
}

impl Drop for EpcAllocation {
    fn drop(&mut self) {
        self.tracker
            .counters
            .current
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_current_and_peak() {
        let epc = EpcTracker::new(1 << 20, CostModel::default());
        let a = epc.alloc(1000);
        assert_eq!(epc.current_bytes(), 1000);
        {
            let _b = epc.alloc(2000);
            assert_eq!(epc.current_bytes(), 3000);
        }
        assert_eq!(epc.current_bytes(), 1000);
        assert_eq!(epc.peak_bytes(), 3000);
        drop(a);
        assert_eq!(epc.current_bytes(), 0);
        assert_eq!(epc.peak_bytes(), 3000);
    }

    #[test]
    fn within_limit_no_paging() {
        let epc = EpcTracker::new(1 << 20, CostModel::default());
        let _a = epc.alloc(1 << 19);
        assert_eq!(epc.paged_pages(), 0);
        assert_eq!(epc.paging_cost_ns(), 0);
    }

    #[test]
    fn over_limit_charges_paging() {
        let epc = EpcTracker::new(8192, CostModel::default());
        let _a = epc.alloc(8192 + 4096 * 3);
        assert_eq!(epc.paged_pages(), 3);
        assert_eq!(
            epc.paging_cost_ns(),
            3 * CostModel::default().paging_ns_per_page
        );
    }
}
