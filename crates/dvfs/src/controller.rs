//! The per-epoch DVFS + partitioning controller.
//!
//! [`DvfsController`] is the decision engine behind the
//! [`DvfsPolicy`](crate::DvfsPolicy): at every epoch boundary it turns the
//! UMON miss curves plus the last epoch's per-core counters into fitted
//! [`CorePerfModel`]s, runs the QoS-constrained [`minimize`] and returns a
//! [`DvfsDecision`] — way targets for the LLC's cooperative-takeover
//! enforcement and an operating point per core for
//! `Core::set_clock_ratio`.
//!
//! The controller also keeps the books DVFS energy accounting needs: how
//! many reference cycles and retired instructions each core spent at each
//! operating point (*frequency residency*). The harness snapshots these at
//! the measurement-window start and evaluates core energy over the window.

use coop_core::{Allocation, MissCurve};
use cpusim::VfTable;
use energy::CoreEnergyReport;
use simkit::types::Cycle;

use crate::minimize::{minimize, EnergyCosts, JointAssignment};
use crate::perf::{CorePerfModel, EpochObservation, PerfModelParams};

/// Configuration of the coordinated controller.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsConfig {
    /// The V/f operating points (nominal first).
    pub table: VfTable,
    /// Energy magnitudes for the minimizer's objective.
    pub costs: EnergyCosts,
    /// Allowed fractional slowdown per core versus the
    /// max-frequency/fair-share baseline.
    pub qos_slack: f64,
    /// Performance-model parameters.
    pub perf: PerfModelParams,
}

impl DvfsConfig {
    /// The repository's default 45 nm configuration at the given QoS slack.
    pub fn paper_default(qos_slack: f64) -> DvfsConfig {
        DvfsConfig {
            table: VfTable::paper_45nm(),
            costs: EnergyCosts::paper_default(),
            qos_slack,
            perf: PerfModelParams::paper_default(),
        }
    }
}

/// What the controller wants applied this epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsDecision {
    /// Way targets for the cooperative takeover machinery.
    pub allocation: Allocation,
    /// Operating-point index per core.
    pub ops: Vec<usize>,
    /// Clock-dilation ratio per core (`f_nom / f`), ready for
    /// `Core::set_clock_ratio`.
    pub ratios: Vec<f64>,
    /// The minimizer's full output (predictions, energies).
    pub joint: JointAssignment,
}

/// Cumulative per-core, per-operating-point books (reference cycles and
/// retired instructions). Snapshot/subtract to measure a window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Residency {
    /// `ref_cycles[core][op]`.
    pub ref_cycles: Vec<Vec<u64>>,
    /// `instrs[core][op]`.
    pub instrs: Vec<Vec<u64>>,
}

impl Residency {
    fn new(cores: usize, ops: usize) -> Residency {
        Residency {
            ref_cycles: vec![vec![0; ops]; cores],
            instrs: vec![vec![0; ops]; cores],
        }
    }

    /// Element-wise `self - earlier` (a measurement window).
    pub fn since(&self, earlier: &Residency) -> Residency {
        let sub = |a: &[Vec<u64>], b: &[Vec<u64>]| {
            a.iter()
                .zip(b.iter())
                .map(|(ra, rb)| ra.iter().zip(rb.iter()).map(|(x, y)| x - y).collect())
                .collect()
        };
        Residency {
            ref_cycles: sub(&self.ref_cycles, &earlier.ref_cycles),
            instrs: sub(&self.instrs, &earlier.instrs),
        }
    }
}

/// The epoch controller.
#[derive(Debug, Clone)]
pub struct DvfsController {
    cfg: DvfsConfig,
    cores: usize,
    total_ways: usize,
    cur_ops: Vec<usize>,
    last_now: Cycle,
    last_retired: Vec<u64>,
    last_misses: Vec<u64>,
    books: Residency,
    decisions: u64,
}

impl DvfsController {
    /// Creates a controller for `cores` cores sharing `total_ways` ways.
    /// All cores start at the nominal operating point.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds `total_ways`, or if the V/f
    /// table's nominal frequency disagrees with the performance model's
    /// reference clock (`perf.f_nom_ghz`) — the two must describe the same
    /// timeline or every prediction would be off by the mismatch factor.
    pub fn new(cfg: DvfsConfig, cores: usize, total_ways: usize) -> DvfsController {
        assert!(cores >= 1 && cores <= total_ways);
        assert!(
            (cfg.table.nominal().freq_ghz - cfg.perf.f_nom_ghz).abs() < 1e-9,
            "V/f nominal {} GHz != performance-model reference clock {} GHz",
            cfg.table.nominal().freq_ghz,
            cfg.perf.f_nom_ghz
        );
        let ops = cfg.table.len();
        DvfsController {
            cfg,
            cores,
            total_ways,
            cur_ops: vec![0; cores],
            last_now: Cycle::ZERO,
            last_retired: vec![0; cores],
            last_misses: vec![0; cores],
            books: Residency::new(cores, ops),
            decisions: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DvfsConfig {
        &self.cfg
    }

    /// Current operating point per core.
    pub fn current_ops(&self) -> &[usize] {
        &self.cur_ops
    }

    /// Decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Books the interval since the last call at the *current* operating
    /// points, without deciding anything (used at run end).
    pub fn settle(&mut self, now: Cycle, retired: &[u64], misses: &[u64]) {
        let dt = now.since(self.last_now);
        for (c, (&done, &was)) in retired.iter().zip(self.last_retired.iter()).enumerate() {
            let op = self.cur_ops[c];
            self.books.ref_cycles[c][op] += dt;
            self.books.instrs[c][op] += done.saturating_sub(was);
        }
        self.last_retired.copy_from_slice(retired);
        self.last_misses.copy_from_slice(misses);
        self.last_now = now;
    }

    /// Runs the epoch decision.
    ///
    /// * `curves` — one UMON miss curve per core (whole-cache scaled);
    /// * `retired` / `misses` — *cumulative* per-core counters (the
    ///   controller differences them internally);
    /// * `cur_ways` — ways each core currently owns.
    ///
    /// Returns `None` when no time elapsed since the last decision (nothing
    /// to model); otherwise the joint decision to apply.
    pub fn on_epoch(
        &mut self,
        now: Cycle,
        curves: &[MissCurve],
        retired: &[u64],
        misses: &[u64],
        cur_ways: &[usize],
    ) -> Option<DvfsDecision> {
        assert_eq!(curves.len(), self.cores);
        assert_eq!(retired.len(), self.cores);
        assert_eq!(misses.len(), self.cores);
        assert_eq!(cur_ways.len(), self.cores);
        let dt = now.since(self.last_now);
        if dt == 0 {
            return None;
        }
        let observations: Vec<EpochObservation> = (0..self.cores)
            .map(|c| EpochObservation {
                instrs: retired[c].saturating_sub(self.last_retired[c]),
                ref_cycles: dt,
                misses: misses[c].saturating_sub(self.last_misses[c]),
                cur_ways: cur_ways[c].max(1),
                cur_ratio: self.cfg.table.ratio(self.cur_ops[c]),
            })
            .collect();
        self.settle(now, retired, misses);

        let models: Vec<CorePerfModel> = curves
            .iter()
            .zip(observations.iter())
            .map(|(curve, obs)| CorePerfModel::fit(curve, obs, &self.cfg.perf, self.total_ways))
            .collect();
        let joint = minimize(
            &models,
            &self.cfg.table,
            &self.cfg.costs,
            self.cfg.qos_slack,
            self.total_ways,
        );
        self.cur_ops = joint.ops();
        self.decisions += 1;
        let ratios = self
            .cur_ops
            .iter()
            .map(|&op| self.cfg.table.ratio(op))
            .collect();
        Some(DvfsDecision {
            allocation: Allocation {
                ways: joint.way_targets(),
                unallocated: joint.unallocated,
            },
            ops: joint.ops(),
            ratios,
            joint,
        })
    }

    /// The cumulative residency books (snapshot these at window start).
    pub fn books(&self) -> &Residency {
        &self.books
    }

    /// Core energy over a residency window, at this controller's V/f table
    /// and energy magnitudes.
    pub fn core_energy(&self, window: &Residency) -> CoreEnergyReport {
        let f_nom = self.cfg.table.nominal().freq_ghz;
        let mut report = CoreEnergyReport::default();
        for c in 0..self.cores {
            for op in 0..self.cfg.table.len() {
                let vdd = self.cfg.table.point(op).vdd;
                let instrs = window.instrs[c][op] as f64;
                let ns = window.ref_cycles[c][op] as f64 / f_nom;
                report.dynamic_nj += instrs * self.cfg.costs.core.dynamic_nj_per_instr(vdd);
                report.static_nj += self.cfg.costs.core.static_nj(vdd, ns);
            }
        }
        report
    }

    /// Residency-weighted average frequency per core over a window, in GHz.
    /// Cores with no booked time report the nominal frequency.
    pub fn avg_freq_ghz(&self, window: &Residency) -> Vec<f64> {
        (0..self.cores)
            .map(|c| {
                let total: u64 = window.ref_cycles[c].iter().sum();
                if total == 0 {
                    return self.cfg.table.nominal().freq_ghz;
                }
                window.ref_cycles[c]
                    .iter()
                    .enumerate()
                    .map(|(op, &r)| self.cfg.table.point(op).freq_ghz * r as f64 / total as f64)
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve_hungry() -> MissCurve {
        MissCurve::new(
            vec![
                90_000.0, 60_000.0, 40_000.0, 25_000.0, 15_000.0, 8_000.0, 4_000.0, 2_000.0,
                1_000.0,
            ],
            200_000.0,
        )
    }

    fn curve_stream() -> MissCurve {
        MissCurve::flat(8, 50_000.0, 60_000.0)
    }

    #[test]
    fn first_epoch_decides_and_books_residency() {
        let mut ctl = DvfsController::new(DvfsConfig::paper_default(0.10), 2, 8);
        let d = ctl
            .on_epoch(
                Cycle(500_000),
                &[curve_hungry(), curve_stream()],
                &[400_000, 100_000],
                &[5_000, 50_000],
                &[4, 4],
            )
            .expect("time elapsed");
        assert_eq!(d.allocation.ways.len(), 2);
        assert!(d.allocation.ways.iter().all(|&w| w >= 1));
        assert!(d.ratios.iter().all(|&r| r >= 1.0));
        // The whole first interval was booked at nominal (op 0).
        assert_eq!(ctl.books().ref_cycles[0][0], 500_000);
        assert_eq!(ctl.books().instrs[0][0], 400_000);
        assert_eq!(ctl.decisions(), 1);
    }

    #[test]
    fn streaming_core_is_down_clocked_and_sheds_ways() {
        let mut ctl = DvfsController::new(DvfsConfig::paper_default(0.10), 2, 8);
        let d = ctl
            .on_epoch(
                Cycle(500_000),
                &[curve_hungry(), curve_stream()],
                &[400_000, 60_000],
                &[5_000, 50_000],
                &[4, 4],
            )
            .expect("decision");
        assert!(
            d.ops[1] > 0,
            "the streaming core should leave nominal frequency: {d:?}"
        );
        assert_eq!(d.allocation.ways[1], 1, "flat curve keeps minimum ways");
        assert!(d.allocation.ways[0] >= 4, "hungry core grows: {d:?}");
    }

    #[test]
    fn zero_elapsed_time_yields_no_decision() {
        let mut ctl = DvfsController::new(DvfsConfig::paper_default(0.10), 1, 8);
        assert!(ctl
            .on_epoch(Cycle(0), &[curve_stream()], &[0], &[0], &[8])
            .is_none());
    }

    #[test]
    fn residency_windows_subtract() {
        let mut ctl = DvfsController::new(DvfsConfig::paper_default(0.20), 2, 8);
        let curves = [curve_hungry(), curve_stream()];
        ctl.on_epoch(
            Cycle(100_000),
            &curves,
            &[80_000, 20_000],
            &[1_000, 10_000],
            &[4, 4],
        );
        let snap = ctl.books().clone();
        ctl.on_epoch(
            Cycle(200_000),
            &curves,
            &[160_000, 40_000],
            &[2_000, 20_000],
            &[4, 4],
        );
        let window = ctl.books().since(&snap);
        let cycles0: u64 = window.ref_cycles[0].iter().sum();
        let instrs1: u64 = window.instrs[1].iter().sum();
        assert_eq!(cycles0, 100_000);
        assert_eq!(instrs1, 20_000);
        // Energy over the window is positive and dominated by the booked ops.
        let e = ctl.core_energy(&window);
        assert!(e.dynamic_nj > 0.0 && e.static_nj > 0.0);
        let f = ctl.avg_freq_ghz(&window);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|&g| (1.2..=2.0).contains(&g)), "{f:?}");
    }

    #[test]
    fn settle_books_trailing_interval_without_deciding() {
        let mut ctl = DvfsController::new(DvfsConfig::paper_default(0.10), 1, 8);
        ctl.settle(Cycle(50_000), &[10_000], &[100]);
        assert_eq!(ctl.decisions(), 0);
        assert_eq!(ctl.books().ref_cycles[0][0], 50_000);
        assert_eq!(ctl.books().instrs[0][0], 10_000);
    }
}
