//! The epoch-level performance model.
//!
//! Each epoch, the controller must predict how long every core would take to
//! redo that epoch's work at each candidate (frequency, way-count) pair. The
//! model splits wall time the classic way (Nejat et al.'s coordinated
//! DVFS + partitioning formulation):
//!
//! ```text
//! T(f, w) = C_compute / f  +  M(w) · L_miss
//! ```
//!
//! * `C_compute` — frequency-invariant core cycles (dispatch, ALU, L1 hits);
//!   scaling the clock scales this term's wall time inversely;
//! * `M(w)` — LLC misses at `w` ways, read off the core's UMON miss curve
//!   and *anchored* to the misses actually observed this epoch (the curve
//!   supplies the shape, the observation supplies the magnitude);
//! * `L_miss` — effective wall-time stall per miss, derated below the raw
//!   DRAM latency because the ROB overlaps independent misses (MLP).
//!
//! `C_compute` is calibrated per core per epoch from the one (f, w) point
//! actually executed, so systematic model error (e.g. an optimistic MLP
//! factor) cancels to first order when comparing candidates.

use coop_core::MissCurve;

/// Fixed parameters of the performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModelParams {
    /// Nominal (reference) core clock in GHz; the simulator's timeline.
    pub f_nom_ghz: f64,
    /// Effective wall-time stall per LLC miss in ns. The paper's DRAM takes
    /// 400 cycles at 2 GHz = 200 ns end to end; with the ROB overlapping
    /// independent misses an effective ~0.35 blocking factor is typical.
    pub miss_stall_ns: f64,
    /// Floor on compute cycles per instruction (1 / issue width).
    pub min_cpi: f64,
}

impl PerfModelParams {
    /// Defaults matching the paper's Table 2 system (2 GHz, 400-cycle DRAM,
    /// 4-wide issue).
    pub fn paper_default() -> PerfModelParams {
        PerfModelParams {
            f_nom_ghz: 2.0,
            miss_stall_ns: 70.0,
            min_cpi: 0.25,
        }
    }
}

/// What one core actually did over the last epoch, at the operating point
/// and allocation it ran with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochObservation {
    /// Instructions retired during the epoch.
    pub instrs: u64,
    /// Reference cycles the epoch spanned.
    pub ref_cycles: u64,
    /// LLC misses the core suffered.
    pub misses: u64,
    /// Ways the core owned.
    pub cur_ways: usize,
    /// Clock-dilation ratio the core ran at (`f_nom / f`, >= 1).
    pub cur_ratio: f64,
}

/// The fitted per-core model: predicted misses per way count (precomputed —
/// no curve lookups on the minimizer's hot path) plus calibrated compute
/// cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePerfModel {
    /// Predicted epoch misses at `w` ways, `w = 0..=total_ways`.
    misses_at: Vec<f64>,
    /// Frequency-invariant compute core-cycles for the epoch's work.
    compute_core_cycles: f64,
    /// Instructions the epoch's work comprises.
    instrs: f64,
    /// Per-miss wall stall (ns), copied from the params.
    miss_stall_ns: f64,
}

impl CorePerfModel {
    /// Fits the model to one epoch of one core.
    ///
    /// # Panics
    ///
    /// Panics if `obs.cur_ratio < 1` or `total_ways == 0`.
    pub fn fit(
        curve: &MissCurve,
        obs: &EpochObservation,
        params: &PerfModelParams,
        total_ways: usize,
    ) -> CorePerfModel {
        assert!(obs.cur_ratio >= 1.0 && total_ways > 0);
        // Anchor the UMON shape to the observed magnitude. A zero anchor
        // (no misses projected at the current allocation) degenerates to a
        // flat curve at the observed count.
        let anchor = curve.misses(obs.cur_ways);
        let observed = obs.misses as f64;
        let misses_at: Vec<f64> = (0..=total_ways)
            .map(|w| {
                if anchor > 0.0 {
                    observed * curve.misses(w) / anchor
                } else {
                    observed
                }
            })
            .collect();

        // Calibrate compute cycles from the executed point:
        // T_obs = C/f_cur + M(w_cur)·L  =>  C = (T_obs − M·L)·f_cur.
        let t_obs_ns = obs.ref_cycles as f64 / params.f_nom_ghz;
        let f_cur = params.f_nom_ghz / obs.cur_ratio;
        let stall_ns = misses_at[obs.cur_ways.min(total_ways)] * params.miss_stall_ns;
        let instrs = (obs.instrs as f64).max(1.0);
        let compute_core_cycles = ((t_obs_ns - stall_ns) * f_cur).max(instrs * params.min_cpi);
        CorePerfModel {
            misses_at,
            compute_core_cycles,
            instrs,
            miss_stall_ns: params.miss_stall_ns,
        }
    }

    /// Builds a model directly from its components (tests, benches).
    pub fn from_parts(
        misses_at: Vec<f64>,
        compute_core_cycles: f64,
        instrs: f64,
        miss_stall_ns: f64,
    ) -> CorePerfModel {
        assert!(!misses_at.is_empty());
        CorePerfModel {
            misses_at,
            compute_core_cycles,
            instrs,
            miss_stall_ns,
        }
    }

    /// Predicted epoch misses with `w` ways (clamped).
    #[inline]
    pub fn misses(&self, w: usize) -> f64 {
        self.misses_at[w.min(self.misses_at.len() - 1)]
    }

    /// Instructions of the modeled epoch's work.
    pub fn instrs(&self) -> f64 {
        self.instrs
    }

    /// Calibrated frequency-invariant compute cycles.
    pub fn compute_core_cycles(&self) -> f64 {
        self.compute_core_cycles
    }

    /// Predicted wall time (ns) to complete the epoch's work at `f_ghz`
    /// with `ways` ways.
    #[inline]
    pub fn predict_ns(&self, f_ghz: f64, ways: usize) -> f64 {
        self.compute_core_cycles / f_ghz + self.misses(ways) * self.miss_stall_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> MissCurve {
        MissCurve::new(
            vec![
                8_000.0, 4_000.0, 2_000.0, 1_000.0, 500.0, 400.0, 350.0, 330.0, 320.0,
            ],
            20_000.0,
        )
    }

    #[test]
    fn anchoring_scales_curve_to_observed_misses() {
        let obs = EpochObservation {
            instrs: 100_000,
            ref_cycles: 400_000,
            misses: 2_000, // curve projects 1_000 at 3 ways -> anchor x2
            cur_ways: 3,
            cur_ratio: 1.0,
        };
        let m = CorePerfModel::fit(&curve(), &obs, &PerfModelParams::paper_default(), 8);
        assert!((m.misses(3) - 2_000.0).abs() < 1e-9);
        assert!((m.misses(1) - 8_000.0).abs() < 1e-9, "shape preserved x2");
        assert!((m.misses(8) - 640.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_core_scales_with_frequency() {
        let obs = EpochObservation {
            instrs: 400_000,
            ref_cycles: 100_000,
            misses: 0,
            cur_ways: 4,
            cur_ratio: 1.0,
        };
        let m = CorePerfModel::fit(&curve(), &obs, &PerfModelParams::paper_default(), 8);
        let t_full = m.predict_ns(2.0, 4);
        let t_half = m.predict_ns(1.0, 4);
        assert!(
            (t_half / t_full - 2.0).abs() < 1e-6,
            "no misses: time inversely proportional to f"
        );
    }

    #[test]
    fn memory_bound_core_is_insensitive_to_frequency() {
        let p = PerfModelParams::paper_default();
        // Almost all wall time is miss stalls.
        let obs = EpochObservation {
            instrs: 10_000,
            ref_cycles: 1_200_000,
            misses: 8_000,
            cur_ways: 1,
            cur_ratio: 1.0,
        };
        let m = CorePerfModel::fit(&curve(), &obs, &p, 8);
        let slowdown = m.predict_ns(1.2, 1) / m.predict_ns(2.0, 1);
        assert!(
            slowdown < 1.10,
            "memory-bound: 40% clock cut costs <10% time, got {slowdown}"
        );
    }

    #[test]
    fn calibration_reproduces_the_observed_point() {
        let p = PerfModelParams::paper_default();
        let obs = EpochObservation {
            instrs: 200_000,
            ref_cycles: 500_000,
            misses: 1_000,
            cur_ways: 3,
            cur_ratio: 1.25,
        };
        let m = CorePerfModel::fit(&curve(), &obs, &p, 8);
        let predicted = m.predict_ns(p.f_nom_ghz / obs.cur_ratio, obs.cur_ways);
        let t_obs_ns = obs.ref_cycles as f64 / p.f_nom_ghz;
        assert!(
            (predicted - t_obs_ns).abs() / t_obs_ns < 1e-9,
            "model must pass through the executed point: {predicted} vs {t_obs_ns}"
        );
    }

    #[test]
    fn compute_floor_prevents_negative_calibration() {
        let p = PerfModelParams::paper_default();
        // Stall estimate exceeds observed time: C clamps to the CPI floor.
        let obs = EpochObservation {
            instrs: 1_000,
            ref_cycles: 10,
            misses: 5_000,
            cur_ways: 1,
            cur_ratio: 1.0,
        };
        let m = CorePerfModel::fit(&curve(), &obs, &p, 8);
        assert!(m.compute_core_cycles() >= 1_000.0 * p.min_cpi);
        assert!(m.predict_ns(2.0, 8) > 0.0);
    }

    #[test]
    fn more_ways_never_slow_a_core_down() {
        let obs = EpochObservation {
            instrs: 50_000,
            ref_cycles: 300_000,
            misses: 3_000,
            cur_ways: 2,
            cur_ratio: 1.0,
        };
        let m = CorePerfModel::fit(&curve(), &obs, &PerfModelParams::paper_default(), 8);
        for w in 1..8 {
            assert!(m.predict_ns(1.6, w + 1) <= m.predict_ns(1.6, w) + 1e-9);
        }
    }
}
