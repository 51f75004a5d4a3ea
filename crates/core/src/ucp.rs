//! UCP comparison scheme: quota bookkeeping and migration tracking.
//!
//! UCP (Qureshi & Patt) enforces its partition *lazily* through replacement:
//! when a core holds fewer lines in a set than its quota, its miss steals the
//! LRU line of an over-allocated core; otherwise it recycles its own LRU
//! line. Data is not way-aligned, every access probes all ways, and nothing
//! can be gated — which is exactly why the paper's scheme saves energy where
//! UCP cannot.
//!
//! For Figure 15/16 the paper measures how long UCP takes to "transfer a
//! way": the time until every set has had (at least) one block migrate to
//! the recipient after a decision. [`UcpTransferTracker`] implements that
//! measurement.

use simkit::types::{CoreId, Cycle};

/// One in-flight UCP "way transfer" measurement (per recipient core whose
/// quota grew at a decision).
#[derive(Debug, Clone)]
pub struct UcpTransferTracker {
    /// The core whose allocation increased.
    pub recipient: CoreId,
    /// Decision cycle.
    pub started: Cycle,
    pending: Vec<u64>,
    remaining: usize,
}

impl UcpTransferTracker {
    /// Starts tracking a transfer toward `recipient` over `sets` sets.
    pub fn new(recipient: CoreId, started: Cycle, sets: usize) -> UcpTransferTracker {
        let words = sets.div_ceil(64);
        let mut pending = vec![u64::MAX; words];
        // Clear padding bits beyond `sets`.
        let extra = words * 64 - sets;
        if extra > 0 {
            let last = pending.last_mut().expect("at least one word");
            *last >>= extra;
        }
        UcpTransferTracker {
            recipient,
            started,
            pending,
            remaining: sets,
        }
    }

    /// Records that a block in `set` migrated to the recipient. Returns the
    /// transfer duration when this completes the measurement.
    pub fn on_steal(&mut self, now: Cycle, set: usize) -> Option<u64> {
        let word = &mut self.pending[set / 64];
        let bit = 1u64 << (set % 64);
        if *word & bit == 0 {
            return None;
        }
        *word &= !bit;
        self.remaining -= 1;
        (self.remaining == 0).then(|| now.since(self.started))
    }

    /// Sets still waiting for their first migrated block.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

/// UCP scheme state: per-core quotas plus live transfer measurements.
#[derive(Debug, Clone)]
pub struct UcpState {
    /// Current way quota per core.
    pub quotas: Vec<usize>,
    trackers: Vec<UcpTransferTracker>,
    /// Completed transfer durations (Figure 15).
    pub durations: Vec<u64>,
}

impl UcpState {
    /// Creates UCP state with an equal split of `ways` across `cores`.
    pub fn new(cores: usize, ways: usize) -> UcpState {
        UcpState {
            quotas: vec![ways / cores; cores],
            trackers: Vec::new(),
            durations: Vec::new(),
        }
    }

    /// Applies a new decision: updates quotas and restarts transfer tracking
    /// for every core whose quota increased (a previous unfinished
    /// measurement for that core is discarded — it never completed).
    pub fn apply_decision(&mut self, now: Cycle, new_quotas: &[usize], sets: usize) {
        for (core, (&old, &new)) in self.quotas.iter().zip(new_quotas.iter()).enumerate() {
            if new > old {
                let id = CoreId(core as u8);
                self.trackers.retain(|t| t.recipient != id);
                self.trackers.push(UcpTransferTracker::new(id, now, sets));
            }
        }
        self.quotas = new_quotas.to_vec();
    }

    /// Records a migration (a fill by `core` that evicted another core's
    /// block) in `set`.
    pub fn on_steal(&mut self, now: Cycle, core: CoreId, set: usize) {
        let mut finished = None;
        for (i, t) in self.trackers.iter_mut().enumerate() {
            if t.recipient == core {
                if let Some(d) = t.on_steal(now, set) {
                    finished = Some((i, d));
                }
                break;
            }
        }
        if let Some((i, d)) = finished {
            self.durations.push(d);
            self.trackers.remove(i);
        }
    }

    /// Live (incomplete) transfer measurements.
    pub fn live_trackers(&self) -> usize {
        self.trackers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_completes_when_every_set_migrated() {
        let mut t = UcpTransferTracker::new(CoreId(0), Cycle(1000), 100);
        for s in 0..99 {
            assert_eq!(t.on_steal(Cycle(2000), s), None);
        }
        assert_eq!(t.remaining(), 1);
        assert_eq!(t.on_steal(Cycle(5000), 99), Some(4000));
    }

    #[test]
    fn duplicate_steals_do_not_double_count() {
        let mut t = UcpTransferTracker::new(CoreId(0), Cycle(0), 4);
        assert!(t.on_steal(Cycle(1), 2).is_none());
        assert!(t.on_steal(Cycle(2), 2).is_none());
        assert_eq!(t.remaining(), 3);
    }

    #[test]
    fn decision_starts_trackers_for_growing_cores() {
        let mut u = UcpState::new(2, 8);
        assert_eq!(u.quotas, vec![4, 4]);
        u.apply_decision(Cycle(100), &[6, 2], 16);
        assert_eq!(u.live_trackers(), 1);
        // Complete it.
        for s in 0..16 {
            u.on_steal(Cycle(200 + s as u64), CoreId(0), s);
        }
        assert_eq!(u.durations.len(), 1);
        assert_eq!(u.live_trackers(), 0);
    }

    #[test]
    fn regrowing_core_restarts_measurement() {
        let mut u = UcpState::new(2, 8);
        u.apply_decision(Cycle(0), &[6, 2], 8);
        u.on_steal(Cycle(1), CoreId(0), 0);
        // New decision grows core 0 again: old incomplete tracker replaced.
        u.apply_decision(Cycle(100), &[7, 1], 8);
        assert_eq!(u.live_trackers(), 1);
        assert!(u.durations.is_empty());
    }

    #[test]
    fn non_word_aligned_set_counts() {
        let mut t = UcpTransferTracker::new(CoreId(1), Cycle(0), 65);
        for s in 0..64 {
            assert!(t.on_steal(Cycle(1), s).is_none());
        }
        assert_eq!(t.on_steal(Cycle(9), 64), Some(9));
    }
}
