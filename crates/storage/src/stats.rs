//! Access-path counters.
//!
//! The paper's Optimizer box (Fig. 4.1) exists because converted programs'
//! "execution-time variability" is dominated by access-path choice. These
//! counters make the chosen path *observable*: tests and benches assert
//! that an index probe actually engaged (or that the DL/I position cache
//! was not rebuilt per call) instead of inferring it from wall time.
//!
//! [`AccessStats`] lives inside each storage engine and uses `Cell` so the
//! read-only query paths (`&self`) can count. The counters are read through
//! the unified `dbpc-obs` metrics sheet under the `storage.*` names below:
//! the engines keep their `Cell`s — query inner loops are far too hot for
//! a map lookup per scanned row — and the executors reset them at run
//! start and absorb each run's counts into the ambient sheet once, on
//! every exit, via [`AccessStats::absorb_into_obs`]. A run's numbers are
//! the `dbpc_obs::local_snapshot()` delta around it.

use std::cell::Cell;

/// Metric name for rows/segments/records visited by scans.
pub const ROWS_SCANNED: &str = "storage.rows_scanned";
/// Metric name for index lookups attempted.
pub const INDEX_PROBES: &str = "storage.index_probes";
/// Metric name for index lookups that found a candidate.
pub const INDEX_HITS: &str = "storage.index_hits";
/// Metric name for full hierarchic preorder-cache rebuilds.
pub const PREORDER_REBUILDS: &str = "storage.preorder_rebuilds";
/// Metric name for savepoints opened (see `txn.rs`).
pub const SAVEPOINTS_BEGUN: &str = "storage.savepoints_begun";
/// Metric name for savepoints rolled back.
pub const SAVEPOINTS_ROLLED_BACK: &str = "storage.savepoints_rolled_back";
/// Metric name for savepoints committed.
pub const SAVEPOINTS_COMMITTED: &str = "storage.savepoints_committed";

/// Interior-mutable counters owned by a storage engine.
#[derive(Debug, Clone, Default)]
pub struct AccessStats {
    rows_scanned: Cell<u64>,
    index_probes: Cell<u64>,
    index_hits: Cell<u64>,
    preorder_rebuilds: Cell<u64>,
}

impl AccessStats {
    /// Count `n` rows (tuples, segments, or records) visited by a scan or
    /// residual filter.
    pub fn scanned(&self, n: u64) {
        self.rows_scanned.set(self.rows_scanned.get() + n);
    }

    /// Count one index lookup (primary, secondary, calc-key, or position
    /// map), and whether it produced at least one candidate.
    pub fn probed(&self, hit: bool) {
        self.index_probes.set(self.index_probes.get() + 1);
        if hit {
            self.index_hits.set(self.index_hits.get() + 1);
        }
    }

    /// Count one full rebuild of the hierarchic preorder cache.
    pub fn rebuilt_preorder(&self) {
        self.preorder_rebuilds.set(self.preorder_rebuilds.get() + 1);
    }

    /// Rows visited so far (the planner's actual-rows feedback for a scan).
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.get()
    }

    pub fn reset(&self) {
        self.rows_scanned.set(0);
        self.index_probes.set(0);
        self.index_hits.set(0);
        self.preorder_rebuilds.set(0);
    }

    /// Push the counts (one run's, after a [`reset`](Self::reset)) into
    /// the ambient `dbpc-obs` metric sheet under the `storage.*` names.
    pub fn absorb_into_obs(&self) {
        dbpc_obs::count(ROWS_SCANNED, self.rows_scanned.get());
        dbpc_obs::count(INDEX_PROBES, self.index_probes.get());
        dbpc_obs::count(INDEX_HITS, self.index_hits.get());
        dbpc_obs::count(PREORDER_REBUILDS, self.preorder_rebuilds.get());
    }
}

#[cfg(test)]
impl AccessStats {
    /// The counts as read through the metrics: one absorb's delta of the
    /// ambient sheet.
    pub(crate) fn absorbed(&self) -> dbpc_obs::MetricsFrame {
        let before = dbpc_obs::local_snapshot();
        self.absorb_into_obs();
        dbpc_obs::local_snapshot().since(&before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn absorbed(s: &AccessStats) -> [u64; 4] {
        let d = s.absorbed();
        [ROWS_SCANNED, INDEX_PROBES, INDEX_HITS, PREORDER_REBUILDS].map(|n| d.counter(n))
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let s = AccessStats::default();
        s.scanned(5);
        s.probed(true);
        s.probed(false);
        s.rebuilt_preorder();
        assert_eq!(absorbed(&s), [5, 2, 1, 1]);
        s.reset();
        assert_eq!(absorbed(&s), [0; 4]);
    }
}
