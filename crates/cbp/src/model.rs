//! The multi-resource epoch model: ways × bandwidth share × prefetch
//! degree.
//!
//! [`CoreCbpModel`] extends the coop-dvfs epoch performance model
//! ([`CorePerfModel`]) with the two resources the CBP coordinator trades
//! against LLC ways:
//!
//! * **prefetch degree** `d` — a degree-`d` prefetcher issues
//!   `M(w) · coverage(d)` prefetches per epoch, of which the fraction
//!   `accuracy` (measured from the core's own useful/issued counters)
//!   land ahead of a demand access. Covered misses stop stalling the
//!   core, so effective misses shrink to
//!   `M_eff(w, d) = M(w) · (1 − coverage(d) · accuracy)` — but *every*
//!   issued prefetch, useful or not, is a DRAM line transfer;
//! * **bandwidth share** `b/units` — a token-bucket regulator caps the
//!   core's DRAM line rate at that fraction of the peak. Wall time is a
//!   roofline: `T = max(T_core, lines / rate)` — the core is either
//!   compute/stall-bound or draining its line traffic through its
//!   bandwidth slice.
//!
//! The coupling is the whole point: prefetching converts stall time into
//! line traffic, which only pays off when the core's bandwidth slice has
//! headroom — exactly the coordination the CBP policy optimizes.

use coop_dvfs::{CorePerfModel, PerfModelParams};

/// Prefetch degrees the model considers (`0..=MAX_DEGREE`, matching the
/// hardware prefetcher in `cpusim::prefetch`).
pub const MAX_DEGREE: usize = cpusim::prefetch::MAX_DEGREE;

/// Fixed parameters of the bandwidth + prefetch model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbpModelParams {
    /// Bandwidth quantization: shares are allocated in units of
    /// `1/bw_units` of the DRAM peak.
    pub bw_units: usize,
    /// DRAM peak line rate in lines per ns (the paper machine: one line
    /// per 6 cycles at 2 GHz).
    pub peak_lines_per_ns: f64,
    /// Fraction of demand misses a degree-`d` prefetcher runs ahead of,
    /// indexed by degree (`coverage[0] == 0`).
    pub coverage: [f64; MAX_DEGREE + 1],
    /// Accuracy assumed before enough prefetches have been observed.
    pub accuracy_prior: f64,
    /// Issued prefetches required before the measured accuracy replaces
    /// the prior.
    pub accuracy_min_samples: u64,
    /// Extra demand misses charged per *useless* prefetch: a dead line
    /// fills the core's own partition and can evict a line that would
    /// have hit (self-pollution). At `1.0` prefetching only pays above
    /// 50% accuracy (the classic accuracy gate). The default is `0.0`:
    /// on the simulated LLC dead next-line fills overwhelmingly land on
    /// already-dead ways, and sweeping the penalty upward measurably
    /// *increased* QoS violations by suppressing stall-hiding prefetch.
    pub pollution_penalty: f64,
}

impl CbpModelParams {
    /// Defaults matching the paper machine (8 banks × 48-cycle occupancy
    /// at 2 GHz) and a conservative stride-prefetcher coverage ramp.
    pub fn paper_default() -> CbpModelParams {
        CbpModelParams {
            bw_units: 8,
            peak_lines_per_ns: 2.0 / 6.0,
            coverage: [0.0, 0.30, 0.45, 0.55, 0.60],
            accuracy_prior: 0.5,
            accuracy_min_samples: 64,
            pollution_penalty: 0.0,
        }
    }

    /// The bandwidth share of `b` units, as a fraction of peak.
    #[inline]
    pub fn share(&self, b: usize) -> f64 {
        b as f64 / self.bw_units as f64
    }

    /// Line rate of `b` units, in lines per ns.
    #[inline]
    pub fn rate(&self, b: usize) -> f64 {
        self.peak_lines_per_ns * self.share(b)
    }
}

/// One core's fitted multi-resource model for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreCbpModel {
    /// The (frequency, ways) performance model, fitted at nominal clock.
    pub perf: CorePerfModel,
    /// Measured prefetch accuracy in `[0, 1]` (prior-seeded).
    pub accuracy: f64,
    /// DRAM lines per miss-equivalent (≥ 1; calibrated from the observed
    /// line traffic, folding in write-backs).
    pub lines_per_miss: f64,
    /// The core's *measured* DRAM line rate last epoch, in lines per ns.
    /// The stall-serialized roofline underestimates demand when misses
    /// overlap in the MSHRs, so the minimizer also floors each core's
    /// bandwidth grant at this rate (capped at fair share).
    pub observed_lines_per_ns: f64,
}

impl CoreCbpModel {
    /// Predicted effective (stalling) misses at `w` ways, degree `d`:
    /// covered misses stop stalling, but every useless prefetch pollutes
    /// the core's own partition and charges `pollution_penalty` of a
    /// demand miss back.
    #[inline]
    pub fn effective_misses(&self, w: usize, d: usize, p: &CbpModelParams) -> f64 {
        let cov = p.coverage[d.min(MAX_DEGREE)];
        let factor = (1.0 - cov * self.accuracy
            + p.pollution_penalty * cov * (1.0 - self.accuracy))
            .max(0.0);
        self.perf.misses(w) * factor
    }

    /// Predicted prefetches issued at `w` ways, degree `d` (covered
    /// misses divided by accuracy: useless prefetches still ship lines).
    #[inline]
    pub fn prefetch_issues(&self, w: usize, d: usize, p: &CbpModelParams) -> f64 {
        self.perf.misses(w) * p.coverage[d.min(MAX_DEGREE)]
    }

    /// Predicted DRAM line traffic at `w` ways, degree `d`.
    #[inline]
    pub fn dram_lines(&self, w: usize, d: usize, p: &CbpModelParams) -> f64 {
        (self.effective_misses(w, d, p) + self.prefetch_issues(w, d, p)) * self.lines_per_miss
    }

    /// Predicted wall time (ns) to redo the epoch's work with `w` ways,
    /// prefetch degree `d` and `b` bandwidth units: the roofline of the
    /// core-side time (compute + uncovered stalls) and the time to drain
    /// the line traffic through the bandwidth slice.
    pub fn predict_ns(
        &self,
        w: usize,
        d: usize,
        b: usize,
        params: &PerfModelParams,
        p: &CbpModelParams,
    ) -> f64 {
        let t_core = self.perf.compute_core_cycles() / params.f_nom_ghz
            + self.effective_misses(w, d, p) * params.miss_stall_ns;
        let t_bw = self.dram_lines(w, d, p) / self.rate_of(b, p);
        t_core.max(t_bw)
    }

    /// Smallest unit count covering the core's measured line rate — the
    /// floor the minimizer applies so a core is never granted less
    /// bandwidth than it demonstrably used, MSHR overlap included.
    /// Capped at `fair_units` to keep the fair-share baseline feasible.
    pub fn demand_floor_units(&self, fair_units: usize, p: &CbpModelParams) -> usize {
        let need = self.observed_lines_per_ns / p.peak_lines_per_ns;
        ((need * p.bw_units as f64).ceil() as usize).clamp(1, fair_units.max(1))
    }

    /// Smallest unit count at which the core is no longer
    /// bandwidth-bound at `(w, d)` — every `b` beyond it predicts the
    /// identical time, so the minimizer need not consider them.
    pub fn saturating_units(
        &self,
        w: usize,
        d: usize,
        params: &PerfModelParams,
        p: &CbpModelParams,
    ) -> usize {
        let t_core = self.perf.compute_core_cycles() / params.f_nom_ghz
            + self.effective_misses(w, d, p) * params.miss_stall_ns;
        if t_core <= 0.0 {
            return p.bw_units;
        }
        let need = self.dram_lines(w, d, p) / (p.peak_lines_per_ns * t_core);
        ((need * p.bw_units as f64).ceil() as usize).clamp(1, p.bw_units)
    }

    #[inline]
    fn rate_of(&self, b: usize, p: &CbpModelParams) -> f64 {
        p.rate(b.max(1))
    }
}

/// Folds issued/useful counters into an accuracy estimate: the measured
/// ratio once `min_samples` prefetches are in evidence, the prior before.
pub fn accuracy_estimate(issued: u64, useful: u64, p: &CbpModelParams) -> f64 {
    if issued >= p.accuracy_min_samples {
        (useful as f64 / issued as f64).clamp(0.05, 1.0)
    } else {
        p.accuracy_prior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(misses_at: Vec<f64>, compute: f64, accuracy: f64) -> CoreCbpModel {
        CoreCbpModel {
            perf: CorePerfModel::from_parts(misses_at, compute, 100_000.0, 70.0),
            accuracy,
            lines_per_miss: 1.0,
            observed_lines_per_ns: 0.0,
        }
    }

    fn params() -> (PerfModelParams, CbpModelParams) {
        (
            PerfModelParams::paper_default(),
            CbpModelParams::paper_default(),
        )
    }

    #[test]
    fn prefetching_cuts_stalls_but_adds_traffic() {
        let (_, p) = params();
        let m = model(vec![10_000.0; 9], 50_000.0, 0.8);
        assert!(m.effective_misses(4, 2, &p) < m.effective_misses(4, 0, &p));
        assert!(m.dram_lines(4, 2, &p) > m.dram_lines(4, 0, &p));
        assert_eq!(m.prefetch_issues(4, 0, &p), 0.0, "degree 0 is off");
    }

    #[test]
    fn roofline_binds_at_small_shares() {
        let (perf, p) = params();
        // Serialized demand misses (70 ns each) always out-stall even a
        // one-unit slice (24 ns/line): bandwidth binds once prefetching
        // hides the stalls but the line traffic — amplified here by
        // write-backs (3 lines per miss) — remains.
        let mut m = model(vec![50_000.0; 9], 25_000.0, 1.0);
        m.lines_per_miss = 3.0;
        let d = MAX_DEGREE;
        let full = m.predict_ns(4, d, p.bw_units, &perf, &p);
        let slice = m.predict_ns(4, d, 1, &perf, &p);
        assert!(
            slice > full * 2.0,
            "an eighth of peak must throttle a covered streaming core: {slice} vs {full}"
        );
        // At one unit the traffic drain time is exactly lines/rate.
        let expect = m.dram_lines(4, d, &p) / p.rate(1);
        assert!((slice - expect).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_core_ignores_bandwidth() {
        let (perf, p) = params();
        let m = model(vec![0.0; 9], 400_000.0, 0.5);
        let t1 = m.predict_ns(4, 0, 1, &perf, &p);
        let t8 = m.predict_ns(4, 0, 8, &perf, &p);
        assert_eq!(t1, t8, "no misses, no traffic, no bandwidth sensitivity");
        assert_eq!(m.saturating_units(4, 0, &perf, &p), 1);
    }

    #[test]
    fn saturating_units_bound_the_roofline() {
        let (perf, p) = params();
        let m = model(vec![30_000.0; 9], 50_000.0, 0.7);
        for d in 0..=MAX_DEGREE {
            let sat = m.saturating_units(4, d, &perf, &p);
            let t_sat = m.predict_ns(4, d, sat, &perf, &p);
            let t_full = m.predict_ns(4, d, p.bw_units, &perf, &p);
            assert!(
                (t_sat - t_full).abs() < 1e-9,
                "degree {d}: saturated time {t_sat} != full-bandwidth time {t_full}"
            );
            if sat > 1 {
                assert!(
                    m.predict_ns(4, d, sat - 1, &perf, &p) > t_full,
                    "degree {d}"
                );
            }
        }
    }

    #[test]
    fn demand_floor_tracks_measured_rate_capped_at_fair_share() {
        let p = CbpModelParams::paper_default();
        let mut m = model(vec![10_000.0; 9], 50_000.0, 0.5);
        assert_eq!(m.demand_floor_units(4, &p), 1, "no measured traffic");
        // 19% of peak needs ceil(0.19 * 8) = 2 units.
        m.observed_lines_per_ns = 0.19 * p.peak_lines_per_ns;
        assert_eq!(m.demand_floor_units(4, &p), 2);
        // A core measured above peak is still capped at fair share.
        m.observed_lines_per_ns = 2.0 * p.peak_lines_per_ns;
        assert_eq!(m.demand_floor_units(4, &p), 4);
    }

    #[test]
    fn pollution_penalty_gates_inaccurate_prefetch() {
        let (_, mut p) = params();
        let m = model(vec![10_000.0; 9], 50_000.0, 0.3);
        // Penalty off (the default): any nonzero accuracy cuts stalls.
        assert!(m.effective_misses(4, 2, &p) < m.effective_misses(4, 0, &p));
        // The full accuracy gate: at 30% accuracy a dead fill costs more
        // than a covered miss saves, so prefetching *adds* stalls...
        p.pollution_penalty = 1.0;
        assert!(m.effective_misses(4, 2, &p) > m.effective_misses(4, 0, &p));
        // ...while an accurate prefetcher still pays under the same gate.
        let good = model(vec![10_000.0; 9], 50_000.0, 0.9);
        assert!(good.effective_misses(4, 2, &p) < good.effective_misses(4, 0, &p));
    }

    #[test]
    fn accuracy_uses_prior_until_evidence() {
        let p = CbpModelParams::paper_default();
        assert_eq!(accuracy_estimate(10, 10, &p), p.accuracy_prior);
        assert!((accuracy_estimate(1_000, 800, &p) - 0.8).abs() < 1e-12);
        assert_eq!(accuracy_estimate(1_000, 0, &p), 0.05, "clamped floor");
    }
}
