//! The phase profile: per-(operation, phase-path) self and total time,
//! folded from every closed root the enclave hands out.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use seg_obs::prof::{path_phases, Path};
use seg_obs::{ClosedRoot, Phase, RecordSink};

use crate::hist::{Histogram, HistogramSummary};

/// Aggregate for one (operation, phase-path).
#[derive(Default)]
struct PhaseAgg {
    /// Frame enter/exit count (collapsed re-entries count once).
    count: u64,
    /// Requests that touched this path.
    requests: u64,
    self_ns: u64,
    total_ns: u64,
    sim_ns: u64,
    /// Distribution of per-request self time (one sample per request).
    self_hist: Histogram,
}

/// The phase profile. As a [`RecordSink`] it folds a closed root's
/// paths in, one lock per root.
#[derive(Default)]
pub struct Profile {
    agg: Mutex<BTreeMap<(&'static str, Path), PhaseAgg>>,
    /// Roots whose stacks needed drop-guard recovery (a phase guard was
    /// leaked or dropped out of order). Should stay 0.
    unbalanced: AtomicU64,
}

impl RecordSink for Profile {
    fn consume(&self, root: &ClosedRoot<'_>) {
        if root.unbalanced {
            self.unbalanced.fetch_add(1, Ordering::Relaxed);
        }
        let mut agg = self.agg.lock().unwrap_or_else(|e| e.into_inner());
        for e in root.paths {
            let a = agg.entry((root.op, e.path)).or_default();
            a.count += e.count;
            a.requests += 1;
            a.self_ns += e.self_ns;
            a.total_ns += e.total_ns;
            a.sim_ns += e.sim_ns;
            a.self_hist.record(e.self_ns);
        }
    }
}

impl Profile {
    /// Captures the current aggregates, ordered by phase path.
    #[must_use]
    pub fn snapshot(&self) -> ProfSnapshot {
        let agg = self.agg.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<ProfEntry> = agg
            .iter()
            .map(|(&(op, path), a)| ProfEntry {
                path: std::iter::once(op)
                    .chain(path_phases(path).map(Phase::name))
                    .collect(),
                count: a.count,
                requests: a.requests,
                self_ns: a.self_ns,
                total_ns: a.total_ns,
                sim_ns: a.sim_ns,
                self_per_request: a.self_hist.summarize(),
            })
            .collect();
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        ProfSnapshot {
            entries,
            unbalanced: self.unbalanced.load(Ordering::Relaxed),
        }
    }
}

/// One (operation, phase-path) aggregate in a [`ProfSnapshot`].
#[derive(Debug, Clone)]
pub struct ProfEntry {
    /// The phase path, element 0 being the operation name.
    pub path: Vec<&'static str>,
    /// Frame enter/exit count (collapsed re-entries count once).
    pub count: u64,
    /// Requests that touched this path.
    pub requests: u64,
    /// Wall-clock self time (total minus direct children), summed.
    pub self_ns: u64,
    /// Wall-clock total time, summed.
    pub total_ns: u64,
    /// Simulated time charged under this path (EPC paging, counter
    /// waits) — reported alongside, never mixed into the wall clock.
    pub sim_ns: u64,
    /// Distribution of per-request self time.
    pub self_per_request: HistogramSummary,
}

/// Point-in-time copy of the [`Profile`], ordered by phase path. Its
/// queries and renderings are in `render.rs`.
#[derive(Debug, Clone, Default)]
pub struct ProfSnapshot {
    /// Aggregates, sorted by path.
    pub entries: Vec<ProfEntry>,
    /// Roots that required unbalanced-stack recovery.
    pub unbalanced: u64,
}
