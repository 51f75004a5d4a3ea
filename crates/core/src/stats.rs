//! LLC statistics: per-core traffic, energy-relevant counts, flush
//! bandwidth time series and migration measurements.

use simkit::stats::TimeSeries;
use simkit::Counter;

/// Per-core LLC demand statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreLlcStats {
    /// Demand accesses (L1 misses arriving at the LLC).
    pub accesses: Counter,
    /// Demand misses.
    pub misses: Counter,
    /// Prefetch reads arriving at the LLC (tagged distinctly from demand;
    /// zero unless the core-side prefetcher is enabled).
    pub prefetch_reads: Counter,
    /// Prefetch reads that missed and filled from DRAM.
    pub prefetch_fills: Counter,
    /// DRAM line transfers attributed to this core (demand fills,
    /// prefetch fills and write-backs it caused) — the bandwidth
    /// consumption a multi-resource policy trades against ways.
    pub dram_lines: Counter,
}

impl CoreLlcStats {
    /// Miss ratio, or 0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses.get();
        if a == 0 {
            0.0
        } else {
            self.misses.get() as f64 / a as f64
        }
    }
}

/// Whole-LLC statistics for one run.
#[derive(Debug, Clone)]
pub struct LlcStats {
    /// Per-core demand stats.
    pub per_core: Vec<CoreLlcStats>,
    /// Dirty lines written back to memory for any reason.
    pub writebacks: Counter,
    /// Lines flushed specifically by partitioning activity (cooperative
    /// takeover, CPE reconfiguration flushes, UCP migration evictions) —
    /// the quantity Figure 16 plots.
    pub flush_lines: Counter,
    /// Flush events bucketed by cycles since the last partitioning decision
    /// (Figure 16's x-axis).
    pub flush_series: TimeSeries,
    /// Partitioning decisions taken.
    pub decisions: Counter,
    /// Partitioning decisions that changed the allocation.
    pub repartitions: Counter,
}

impl LlcStats {
    /// Creates zeroed statistics for `cores` cores; the flush series uses
    /// `bucket` cycles per bucket.
    pub fn new(cores: usize, bucket: u64) -> LlcStats {
        LlcStats {
            per_core: vec![CoreLlcStats::default(); cores],
            writebacks: Counter::default(),
            flush_lines: Counter::default(),
            flush_series: TimeSeries::new(bucket, 24),
            decisions: Counter::default(),
            repartitions: Counter::default(),
        }
    }

    /// Total demand accesses across cores.
    pub fn total_accesses(&self) -> u64 {
        self.per_core.iter().map(|c| c.accesses.get()).sum()
    }

    /// Total demand misses across cores.
    pub fn total_misses(&self) -> u64 {
        self.per_core.iter().map(|c| c.misses.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate_cores() {
        let mut s = LlcStats::new(2, 100);
        s.per_core[0].accesses.add(10);
        s.per_core[0].misses.add(4);
        s.per_core[1].accesses.add(30);
        assert_eq!(s.total_accesses(), 40);
        assert_eq!(s.total_misses(), 4);
        assert!((s.per_core[0].miss_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(s.per_core[1].miss_ratio(), 0.0);
    }

    #[test]
    fn flush_series_buckets() {
        let mut s = LlcStats::new(1, 1000);
        s.flush_series.add_at(1500, 3.0);
        assert_eq!(s.flush_series.values()[1], 3.0);
    }
}
