//! Banked main memory with queueing.
//!
//! Models the paper's memory system (Table 2): 8 DRAM banks, 400-cycle access
//! latency, at most 64 outstanding requests. Requests to a busy bank queue
//! behind it; the outstanding-request window models the memory bus/controller
//! capacity. Write-backs occupy banks like reads but nobody waits on them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simkit::types::{Cycle, LineAddr};
use simkit::Counter;

/// DRAM configuration.
#[derive(Debug, Clone, Copy)]
pub struct DramConfig {
    /// Number of independent banks (power of two).
    pub banks: usize,
    /// End-to-end access latency in cycles (row access + transfer).
    pub latency: u64,
    /// Cycles a bank stays busy per request (occupancy / tRC).
    pub bank_busy: u64,
    /// Maximum requests in flight at once (bus/controller window).
    pub max_outstanding: usize,
}

impl Default for DramConfig {
    /// The paper's configuration: 8 banks, 400-cycle latency, 64 outstanding.
    fn default() -> Self {
        DramConfig {
            banks: 8,
            latency: 400,
            bank_busy: 48,
            max_outstanding: 64,
        }
    }
}

/// Traffic and queueing statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct DramStats {
    /// Demand reads (cache fills).
    pub reads: Counter,
    /// Write-backs accepted.
    pub writes: Counter,
    /// Total cycles requests spent queued (not being serviced).
    pub queue_cycles: Counter,
}

/// Banked DRAM with per-bank occupancy and a bounded outstanding window.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    bank_free: Vec<Cycle>,
    /// Completion times of requests currently counted against the window.
    window: BinaryHeap<Reverse<u64>>,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or any parameter is zero.
    pub fn new(cfg: DramConfig) -> Dram {
        assert!(cfg.banks.is_power_of_two() && cfg.banks > 0);
        assert!(cfg.latency > 0 && cfg.bank_busy > 0 && cfg.max_outstanding > 0);
        Dram {
            cfg,
            bank_free: vec![Cycle::ZERO; cfg.banks],
            window: BinaryHeap::new(),
            stats: DramStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Bank index for a line (low-order interleaving above the line offset).
    #[inline]
    pub fn bank_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.cfg.banks - 1)
    }

    /// Issues a demand read at `now`; returns the fill completion cycle.
    pub fn read(&mut self, now: Cycle, line: LineAddr) -> Cycle {
        self.stats.reads.inc();
        self.schedule(now, line)
    }

    /// Issues a write-back at `now`; returns when the bank finishes it
    /// (callers normally ignore this — nobody waits on a write-back, but it
    /// occupies bank time and the window, delaying later reads).
    pub fn write(&mut self, now: Cycle, line: LineAddr) -> Cycle {
        self.stats.writes.inc();
        self.schedule(now, line)
    }

    fn schedule(&mut self, now: Cycle, line: LineAddr) -> Cycle {
        // Window constraint: if full, wait for the earliest in-flight
        // completion before even starting.
        while let Some(&Reverse(done)) = self.window.peek() {
            if Cycle(done) <= now {
                self.window.pop();
            } else {
                break;
            }
        }
        let window_gate = if self.window.len() >= self.cfg.max_outstanding {
            self.window
                .peek()
                .map(|&Reverse(done)| Cycle(done))
                .unwrap_or(now)
        } else {
            now
        };
        let bank = self.bank_of(line);
        let start = now.max(self.bank_free[bank]).max(window_gate);
        self.stats.queue_cycles.add(start.since(now));
        let done = start + self.cfg.latency;
        self.bank_free[bank] = start + self.cfg.bank_busy;
        self.window.push(Reverse(done.raw()));
        // Keep the heap bounded: entries beyond the window size that already
        // completed are popped above; cap growth defensively.
        if self.window.len() > 4 * self.cfg.max_outstanding {
            let mut keep: Vec<_> = self.window.drain().collect();
            keep.sort();
            keep.truncate(self.cfg.max_outstanding);
            self.window = keep.into_iter().collect();
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::types::CoreId;

    fn la(n: u64) -> LineAddr {
        LineAddr::from_byte_addr(CoreId(0), n * 64, 64)
    }

    fn small() -> Dram {
        Dram::new(DramConfig {
            banks: 2,
            latency: 100,
            bank_busy: 40,
            max_outstanding: 4,
        })
    }

    #[test]
    fn idle_read_takes_latency() {
        let mut d = small();
        assert_eq!(d.read(Cycle(0), la(0)), Cycle(100));
        assert_eq!(d.stats().reads.get(), 1);
    }

    #[test]
    fn same_bank_requests_queue() {
        let mut d = small();
        // la(0) and la(2) both map to bank 0 (2 banks).
        let t1 = d.read(Cycle(0), la(0));
        let t2 = d.read(Cycle(0), la(2));
        assert_eq!(t1, Cycle(100));
        assert_eq!(t2, Cycle(140), "second starts after bank_busy");
        assert_eq!(d.stats().queue_cycles.get(), 40);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = small();
        let t1 = d.read(Cycle(0), la(0));
        let t2 = d.read(Cycle(0), la(1)); // bank 1
        assert_eq!(t1, Cycle(100));
        assert_eq!(t2, Cycle(100), "no interference across banks");
    }

    #[test]
    fn window_limits_outstanding() {
        let mut d = Dram::new(DramConfig {
            banks: 8,
            latency: 100,
            bank_busy: 1,
            max_outstanding: 2,
        });
        let t1 = d.read(Cycle(0), la(0));
        let t2 = d.read(Cycle(0), la(1));
        // Third request must wait for the first completion (cycle 100).
        let t3 = d.read(Cycle(0), la(2));
        assert_eq!((t1, t2), (Cycle(100), Cycle(100)));
        assert_eq!(t3, Cycle(200));
    }

    #[test]
    fn writes_occupy_banks() {
        let mut d = small();
        d.write(Cycle(0), la(0));
        let t = d.read(Cycle(0), la(2)); // same bank as the write
        assert_eq!(t, Cycle(140));
        assert_eq!(d.stats().writes.get(), 1);
    }

    #[test]
    fn completions_are_monotone_per_bank() {
        let mut d = small();
        let mut last = Cycle::ZERO;
        for i in 0..20 {
            let t = d.read(Cycle(i), la(0)); // always bank 0
            assert!(t >= last);
            last = t;
        }
    }
}
