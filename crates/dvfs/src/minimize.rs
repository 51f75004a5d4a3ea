//! The QoS-constrained joint (frequency, way-count) energy minimizer.
//!
//! Each epoch the minimizer picks, for every core, an operating point and a
//! way target minimizing total predicted energy, subject to:
//!
//! * **QoS** — each core's predicted time to redo its epoch's work must stay
//!   within `1 + qos_slack` of its *baseline*: nominal frequency with a fair
//!   (equal) share of the ways. The baseline is per-core and model-internal,
//!   so the guarantee is exactly "the coordinated assignment never plans to
//!   slow anyone beyond the slack";
//! * **capacity** — way targets sum to at most the associativity, each
//!   active core keeps at least one way (the cooperative-takeover invariant);
//!   leftovers are power-gated by the LLC.
//!
//! The energy objective per core covers the knobs' real costs: instruction
//! switching energy at the candidate voltage, core leakage over the
//! candidate's (longer) runtime, DRAM energy for the extra misses of a
//! smaller allocation, and LLC way leakage for every way held. Structure:
//!
//! 1. **candidate tables** — for each core and way count, scan the V/f table
//!    once and keep the lowest-energy feasible operating point. All curve
//!    lookups were precomputed when the [`CorePerfModel`] was fitted, so
//!    this inner loop is pure arithmetic;
//! 2. **dynamic program** — `dp[i][u]` = minimum energy for the first `i`
//!    cores using exactly `u` ways; `O(cores · ways²)` with tiny constants.
//!
//! Fair share at nominal frequency is always feasible (its predicted time
//! *is* the baseline), so the program always has a solution.

use cpusim::VfTable;
use energy::CoreEnergyParams;

use crate::perf::CorePerfModel;

/// Cost parameters of the minimizer's objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCosts {
    /// Core energy magnitudes + voltage scaling laws.
    pub core: CoreEnergyParams,
    /// Leakage power of one powered LLC way, in mW.
    pub way_leak_mw: f64,
    /// DRAM + bus energy per LLC miss, in nJ.
    pub miss_energy_nj: f64,
}

impl EnergyCosts {
    /// Defaults matching the repository's 45 nm magnitudes (2 MB 8-way LLC
    /// way leakage; ~20 nJ per DRAM access).
    pub fn paper_default() -> EnergyCosts {
        EnergyCosts {
            core: CoreEnergyParams::for_45nm(),
            way_leak_mw: 37.5,
            miss_energy_nj: 20.0,
        }
    }
}

/// One core's chosen assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreAssignment {
    /// Index into the V/f table.
    pub op: usize,
    /// Ways granted.
    pub ways: usize,
    /// Predicted time to redo the epoch's work, in ns.
    pub predicted_ns: f64,
    /// Predicted energy of this core's candidate, in nJ.
    pub energy_nj: f64,
}

/// The minimizer's joint decision.
#[derive(Debug, Clone, PartialEq)]
pub struct JointAssignment {
    /// Per-core assignments.
    pub cores: Vec<CoreAssignment>,
    /// Ways granted to nobody (power-gated).
    pub unallocated: usize,
    /// Total predicted energy, in nJ.
    pub energy_nj: f64,
}

impl JointAssignment {
    /// Way targets in `coop_core::Allocation` order.
    pub fn way_targets(&self) -> Vec<usize> {
        self.cores.iter().map(|c| c.ways).collect()
    }

    /// Operating-point indices per core.
    pub fn ops(&self) -> Vec<usize> {
        self.cores.iter().map(|c| c.op).collect()
    }
}

/// The lowest-energy feasible candidate per way count for one core.
struct CandidateRow {
    /// `best[w - 1]`: candidate at `w` ways, `None` when no operating point
    /// meets the QoS bound there.
    best: Vec<Option<CoreAssignment>>,
}

fn build_candidates(
    model: &CorePerfModel,
    table: &VfTable,
    costs: &EnergyCosts,
    qos_slack: f64,
    total_ways: usize,
    fair_ways: usize,
) -> CandidateRow {
    let f_nom = table.nominal().freq_ghz;
    let limit_ns = model.predict_ns(f_nom, fair_ways) * (1.0 + qos_slack);
    let instrs = model.instrs();
    let mut best = Vec::with_capacity(total_ways);
    for w in 1..=total_ways {
        let misses = model.misses(w);
        let mut row: Option<CoreAssignment> = None;
        for op in 0..table.len() {
            let p = table.point(op);
            let t_ns = model.predict_ns(p.freq_ghz, w);
            if t_ns > limit_ns {
                // Points are frequency-descending: every later point is
                // slower still, so the scan can stop here.
                break;
            }
            let e_nj = instrs * costs.core.dynamic_nj_per_instr(p.vdd)
                + costs.core.static_nj(p.vdd, t_ns)
                + misses * costs.miss_energy_nj
                + w as f64 * costs.way_leak_mw * t_ns / 1000.0;
            if row.is_none_or(|r| e_nj < r.energy_nj) {
                row = Some(CoreAssignment {
                    op,
                    ways: w,
                    predicted_ns: t_ns,
                    energy_nj: e_nj,
                });
            }
        }
        best.push(row);
    }
    CandidateRow { best }
}

/// Runs the minimizer.
///
/// * `models` — one fitted [`CorePerfModel`] per core;
/// * `table` — the V/f operating points (nominal first);
/// * `costs` — energy magnitudes;
/// * `qos_slack` — allowed fractional slowdown versus the per-core
///   max-frequency/fair-share baseline (e.g. `0.10`);
/// * `total_ways` — LLC associativity.
///
/// # Panics
///
/// Panics if `models` is empty or there are fewer ways than cores.
pub fn minimize(
    models: &[CorePerfModel],
    table: &VfTable,
    costs: &EnergyCosts,
    qos_slack: f64,
    total_ways: usize,
) -> JointAssignment {
    let n = models.len();
    assert!(n > 0, "need at least one core");
    assert!(total_ways >= n, "need at least one way per core");
    assert!(qos_slack >= 0.0, "negative QoS slack");
    let fair_ways = total_ways / n;

    let rows: Vec<CandidateRow> = models
        .iter()
        .map(|m| build_candidates(m, table, costs, qos_slack, total_ways, fair_ways))
        .collect();

    // dp[i][u]: min energy over the first i cores using exactly u ways.
    const INF: f64 = f64::INFINITY;
    let mut dp = vec![vec![INF; total_ways + 1]; n + 1];
    let mut pick = vec![vec![0usize; total_ways + 1]; n + 1];
    dp[0][0] = 0.0;
    for i in 0..n {
        for u in 0..=total_ways {
            if dp[i][u] == INF {
                continue;
            }
            for w in 1..=(total_ways - u) {
                let Some(c) = rows[i].best[w - 1] else {
                    continue;
                };
                let e = dp[i][u] + c.energy_nj;
                if e < dp[i + 1][u + w] {
                    dp[i + 1][u + w] = e;
                    pick[i + 1][u + w] = w;
                }
            }
        }
    }
    let (used, &energy_nj) = dp[n]
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN energies"))
        .expect("non-empty dp row");
    assert!(
        energy_nj.is_finite(),
        "fair share at nominal frequency is always feasible"
    );

    // Backtrack.
    let mut cores = vec![
        CoreAssignment {
            op: 0,
            ways: 0,
            predicted_ns: 0.0,
            energy_nj: 0.0,
        };
        n
    ];
    let mut u = used;
    for i in (0..n).rev() {
        let w = pick[i + 1][u];
        cores[i] = rows[i].best[w - 1].expect("picked candidates exist");
        u -= w;
    }
    JointAssignment {
        cores,
        unallocated: total_ways - used,
        energy_nj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::CorePerfModel;

    /// A model with the given miss profile and compute cycles over 100k
    /// instructions.
    fn model(misses_at: Vec<f64>, compute: f64) -> CorePerfModel {
        CorePerfModel::from_parts(misses_at, compute, 100_000.0, 70.0)
    }

    fn flat(ways: usize, misses: f64) -> Vec<f64> {
        vec![misses; ways + 1]
    }

    #[test]
    fn memory_bound_core_is_down_clocked_compute_bound_is_not() {
        let table = VfTable::paper_45nm();
        let costs = EnergyCosts::paper_default();
        // Core 0: pure streaming (flat curve, huge miss count).
        let mem = model(flat(8, 50_000.0), 25_000.0);
        // Core 1: pure compute (no misses).
        let cpu = model(flat(8, 0.0), 400_000.0);
        let j = minimize(&[mem, cpu], &table, &costs, 0.10, 8);
        assert_eq!(
            j.cores[0].op,
            table.len() - 1,
            "memory-bound core drops to the lowest V/f point: {j:?}"
        );
        assert!(
            j.cores[1].op <= 1,
            "compute-bound core stays near nominal under 10% slack: {j:?}"
        );
    }

    #[test]
    fn qos_bound_is_respected_by_construction() {
        let table = VfTable::paper_45nm();
        let costs = EnergyCosts::paper_default();
        let slack = 0.05;
        let models = [
            model(vec![9_000.0, 6_000.0, 4_000.0, 2_500.0, 1_500.0], 150_000.0),
            model(vec![3_000.0, 2_000.0, 1_500.0, 1_200.0, 1_000.0], 250_000.0),
        ];
        let j = minimize(&models, &table, &costs, slack, 4);
        for (i, c) in j.cores.iter().enumerate() {
            let base = models[i].predict_ns(table.nominal().freq_ghz, 2);
            assert!(
                c.predicted_ns <= base * (1.0 + slack) + 1e-9,
                "core {i} violates QoS: {} vs {}",
                c.predicted_ns,
                base
            );
        }
    }

    #[test]
    fn flat_curves_shed_ways_for_gating() {
        let table = VfTable::paper_45nm();
        let costs = EnergyCosts::paper_default();
        // Both cores streaming: capacity is useless, way leakage decides.
        let a = model(flat(8, 30_000.0), 30_000.0);
        let b = model(flat(8, 30_000.0), 30_000.0);
        let j = minimize(&[a, b], &table, &costs, 0.10, 8);
        assert_eq!(j.cores[0].ways, 1);
        assert_eq!(j.cores[1].ways, 1);
        assert_eq!(j.unallocated, 6, "six ways left for power gating");
    }

    #[test]
    fn cache_hungry_core_wins_ways() {
        let table = VfTable::paper_45nm();
        let costs = EnergyCosts::paper_default();
        // Misses vanish with capacity: each way saves 10k misses x 20 nJ,
        // far above way leakage.
        let hungry = model(
            vec![
                80_000.0, 70_000.0, 60_000.0, 50_000.0, 40_000.0, 30_000.0, 20_000.0, 10_000.0,
                500.0,
            ],
            50_000.0,
        );
        let stream = model(flat(8, 20_000.0), 30_000.0);
        let j = minimize(&[hungry, stream], &table, &costs, 0.20, 8);
        assert!(
            j.cores[0].ways >= 6,
            "the hungry core should take most ways: {j:?}"
        );
        assert_eq!(j.cores[1].ways, 1);
    }

    #[test]
    fn zero_slack_pins_the_baseline() {
        let table = VfTable::paper_45nm();
        let costs = EnergyCosts::paper_default();
        let m = model(vec![5_000.0, 3_000.0, 2_000.0, 1_500.0, 1_200.0], 200_000.0);
        let models = [m.clone(), m];
        let j = minimize(&models, &table, &costs, 0.0, 4);
        for (i, c) in j.cores.iter().enumerate() {
            // With zero slack, nothing slower than the fair-share/nominal
            // baseline is admissible.
            let base = models[i].predict_ns(table.nominal().freq_ghz, 2);
            assert!(c.predicted_ns <= base + 1e-9);
            assert!(c.ways >= 2, "cannot shrink below fair share: {j:?}");
        }
    }

    #[test]
    fn four_core_sixteen_way_assignment_is_well_formed() {
        let table = VfTable::paper_45nm();
        let costs = EnergyCosts::paper_default();
        let models: Vec<CorePerfModel> = (0..4)
            .map(|i| {
                let m: Vec<f64> = (0..=16)
                    .map(|w| 40_000.0 / (1.0 + w as f64 * (0.5 + i as f64)))
                    .collect();
                model(m, 100_000.0 * (1 + i) as f64)
            })
            .collect();
        let j = minimize(&models, &table, &costs, 0.10, 16);
        let total: usize = j.way_targets().iter().sum();
        assert!(total + j.unallocated == 16);
        assert!(j.way_targets().iter().all(|&w| w >= 1));
        assert_eq!(j.ops().len(), 4);
        assert!(j.energy_nj.is_finite() && j.energy_nj > 0.0);
    }
}
