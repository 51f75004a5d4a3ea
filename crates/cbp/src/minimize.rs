//! The QoS-constrained joint (ways, bandwidth, prefetch-degree) energy
//! minimizer.
//!
//! Each epoch the minimizer picks, for every core, a way target, a
//! bandwidth-unit count and a prefetch degree minimizing total predicted
//! energy, subject to:
//!
//! * **QoS** — each core's predicted time to redo its epoch's work must
//!   stay within `1 + qos_slack` of its *baseline*: a fair (equal) share
//!   of the ways, a fair share of the bandwidth units, prefetching off.
//!   The baseline is per-core and model-internal, so the guarantee is
//!   exactly "the coordinated assignment never plans to slow anyone
//!   beyond the slack";
//! * **capacity** — way targets sum to at most the associativity and
//!   bandwidth units to at most [`CbpModelParams::bw_units`]; every core
//!   keeps at least one way (the cooperative-takeover invariant) and one
//!   bandwidth unit (nobody is starved off DRAM). Leftover ways are
//!   power-gated; leftover bandwidth units are handed to the cores with
//!   the highest measured demand after the program runs (they are free in
//!   the model and absorb miss bursts on the real machine).
//!
//! The energy objective mirrors the coop-dvfs minimizer at the nominal
//! operating point — the CBP knobs don't move voltage — plus the traffic
//! the knobs create: DRAM energy covers *all* line transfers, so useless
//! prefetches cost real nanojoules while covered misses stop costing
//! stall time. Structure:
//!
//! 1. **candidate tables** — for each core and `(ways, units)` cell, keep
//!    the lowest-energy feasible degree. Bandwidth columns stop at the
//!    core's saturating unit count (more units predict the identical
//!    time, so wider columns are dominated);
//! 2. **dynamic program** — `dp[i][u][r]` = minimum energy for the first
//!    `i` cores using exactly `u` ways and `r` bandwidth units;
//!    `O(cores · ways² · units²)` with tiny constants (17 × 9 states).
//!
//! The fair-share baseline is always feasible (its predicted time *is*
//! the QoS limit), so the program always has a solution.

use coop_dvfs::{EnergyCosts, PerfModelParams};

use crate::model::{CbpModelParams, CoreCbpModel, MAX_DEGREE};

/// One core's chosen assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbpChoice {
    /// Ways granted.
    pub ways: usize,
    /// Bandwidth units granted (share = `units / bw_units`).
    pub units: usize,
    /// Prefetch degree (0 = off).
    pub degree: u8,
    /// Predicted time to redo the epoch's work, in ns.
    pub predicted_ns: f64,
    /// Predicted energy of this core's candidate, in nJ.
    pub energy_nj: f64,
}

/// The minimizer's joint decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CbpAssignment {
    /// Per-core assignments.
    pub cores: Vec<CbpChoice>,
    /// Ways granted to nobody (power-gated).
    pub unallocated_ways: usize,
    /// Bandwidth units granted to nobody.
    pub unallocated_units: usize,
    /// Total predicted energy, in nJ.
    pub energy_nj: f64,
}

impl CbpAssignment {
    /// Way targets in `coop_core::Allocation` order.
    pub fn way_targets(&self) -> Vec<usize> {
        self.cores.iter().map(|c| c.ways).collect()
    }

    /// Bandwidth shares per core (fractions of peak, summing to ≤ 1).
    pub fn shares(&self, params: &CbpModelParams) -> Vec<f64> {
        self.cores.iter().map(|c| params.share(c.units)).collect()
    }

    /// Prefetch degrees per core.
    pub fn degrees(&self) -> Vec<u8> {
        self.cores.iter().map(|c| c.degree).collect()
    }
}

/// The lowest-energy feasible candidate per `(ways, units)` cell for one
/// core. `best[w - 1][b - 1]`; `None` when no degree meets the QoS bound
/// there or the column is beyond the core's saturating unit count.
struct CandidateGrid {
    best: Vec<Vec<Option<CbpChoice>>>,
    /// Per way-row, the inclusive `(lo, hi)` span of unit columns holding
    /// `Some` — predicted time is non-increasing in `b`, so QoS
    /// feasibility is a suffix of `[floor, cap]` and the populated cells
    /// are contiguous. `None` for rows with no feasible cell. Lets the
    /// dp iterate exactly the populated columns.
    span: Vec<Option<(usize, usize)>>,
}

fn candidate_energy(
    model: &CoreCbpModel,
    w: usize,
    d: usize,
    t_ns: f64,
    costs: &EnergyCosts,
    params: &CbpModelParams,
) -> f64 {
    let vdd = costs.core.vdd_nom;
    let dram_accesses = model.effective_misses(w, d, params) + model.prefetch_issues(w, d, params);
    model.perf.instrs() * costs.core.dynamic_nj_per_instr(vdd)
        + costs.core.static_nj(vdd, t_ns)
        + dram_accesses * costs.miss_energy_nj
        + w as f64 * costs.way_leak_mw * t_ns / 1000.0
}

/// The shared DP bounds: the QoS slack and the fair-share baseline every
/// per-core candidate is measured against.
#[derive(Clone, Copy)]
struct Bounds {
    qos_slack: f64,
    total_ways: usize,
    fair_ways: usize,
    fair_units: usize,
}

fn build_candidates(
    model: &CoreCbpModel,
    costs: &EnergyCosts,
    perf: &PerfModelParams,
    params: &CbpModelParams,
    bounds: Bounds,
) -> CandidateGrid {
    let Bounds {
        qos_slack,
        total_ways,
        fair_ways,
        fair_units,
    } = bounds;
    let limit_ns = model.predict_ns(fair_ways, 0, fair_units, perf, params) * (1.0 + qos_slack);
    // Never grant less bandwidth than the core measurably used: the
    // stall-serialized roofline misses MSHR overlap, and a grant below
    // the observed rate would throttle in reality while the model
    // predicts it wouldn't. Capped at fair share, so the QoS baseline
    // stays a valid candidate.
    let floor = model.demand_floor_units(fair_units, params);
    let mut best = Vec::with_capacity(total_ways);
    let mut span = Vec::with_capacity(total_ways);
    for w in 1..=total_ways {
        let cap: usize = (0..=MAX_DEGREE)
            .map(|d| model.saturating_units(w, d, perf, params))
            .max()
            .unwrap_or(params.bw_units)
            .max(floor);
        let mut row = Vec::with_capacity(params.bw_units);
        for b in 1..=params.bw_units {
            if b < floor || b > cap {
                // Below the floor the grant would throttle measured
                // demand; beyond `cap` the predictions are identical to
                // column `cap` and the dp minimizes over total units
                // used, so wider columns can never be part of an optimum.
                row.push(None);
                continue;
            }
            let mut cell: Option<CbpChoice> = None;
            for d in 0..=MAX_DEGREE {
                let t_ns = model.predict_ns(w, d, b, perf, params);
                if t_ns > limit_ns {
                    continue;
                }
                let e_nj = candidate_energy(model, w, d, t_ns, costs, params);
                if cell.is_none_or(|c| e_nj < c.energy_nj) {
                    cell = Some(CbpChoice {
                        ways: w,
                        units: b,
                        degree: d as u8,
                        predicted_ns: t_ns,
                        energy_nj: e_nj,
                    });
                }
            }
            row.push(cell);
        }
        let lo = row.iter().position(Option::is_some);
        let hi = row.iter().rposition(Option::is_some);
        span.push(lo.zip(hi).map(|(l, h)| (l + 1, h + 1)));
        debug_assert!(
            span.last()
                .expect("just pushed")
                .is_none_or(|(l, h)| { (l..=h).all(|b| row[b - 1].is_some()) }),
            "populated cells must be contiguous"
        );
        best.push(row);
    }
    CandidateGrid { best, span }
}

/// Runs the minimizer.
///
/// * `models` — one fitted [`CoreCbpModel`] per core;
/// * `costs` — energy magnitudes (evaluated at the nominal voltage);
/// * `perf` — performance-model parameters (nominal clock, stall cost);
/// * `params` — bandwidth/prefetch model parameters;
/// * `qos_slack` — allowed fractional slowdown versus the per-core
///   fair-ways/fair-bandwidth/no-prefetch baseline (e.g. `0.10`);
/// * `total_ways` — LLC associativity.
///
/// # Panics
///
/// Panics if `models` is empty, or there are fewer ways or bandwidth
/// units than cores (every core needs one of each).
pub fn minimize(
    models: &[CoreCbpModel],
    costs: &EnergyCosts,
    perf: &PerfModelParams,
    params: &CbpModelParams,
    qos_slack: f64,
    total_ways: usize,
) -> CbpAssignment {
    let n = models.len();
    assert!(n > 0, "need at least one core");
    assert!(total_ways >= n, "need at least one way per core");
    assert!(
        params.bw_units >= n,
        "need at least one bandwidth unit per core"
    );
    assert!(qos_slack >= 0.0, "negative QoS slack");
    let fair_ways = total_ways / n;
    let fair_units = (params.bw_units / n).max(1);
    let units = params.bw_units;

    let grids: Vec<CandidateGrid> = models
        .iter()
        .map(|m| {
            build_candidates(
                m,
                costs,
                perf,
                params,
                Bounds {
                    qos_slack,
                    total_ways,
                    fair_ways,
                    fair_units,
                },
            )
        })
        .collect();

    // dp[i][u][r]: min energy over the first i cores using exactly u ways
    // and r bandwidth units.
    const INF: f64 = f64::INFINITY;
    let mut dp = vec![vec![vec![INF; units + 1]; total_ways + 1]; n + 1];
    let mut pick = vec![vec![vec![(0usize, 0usize); units + 1]; total_ways + 1]; n + 1];
    dp[0][0][0] = 0.0;
    for i in 0..n {
        for u in 0..=total_ways {
            for r in 0..=units {
                if dp[i][u][r] == INF {
                    continue;
                }
                for w in 1..=(total_ways - u) {
                    let Some((lo, hi)) = grids[i].span[w - 1] else {
                        continue;
                    };
                    for b in lo..=hi.min(units - r) {
                        let Some(c) = grids[i].best[w - 1][b - 1] else {
                            continue;
                        };
                        let e = dp[i][u][r] + c.energy_nj;
                        if e < dp[i + 1][u + w][r + b] {
                            dp[i + 1][u + w][r + b] = e;
                            pick[i + 1][u + w][r + b] = (w, b);
                        }
                    }
                }
            }
        }
    }

    // Shares may sum to less than one (unlike ways, idle bandwidth is not
    // "gated" — it is simply never contended for), so the answer is the
    // minimum over every exactly-used (u, r) pair.
    let mut used = (0, 0);
    let mut energy_nj = INF;
    for (u, row) in dp[n].iter().enumerate() {
        for (r, &e) in row.iter().enumerate() {
            if e < energy_nj {
                energy_nj = e;
                used = (u, r);
            }
        }
    }
    assert!(
        energy_nj.is_finite(),
        "the fair-share baseline is always feasible"
    );

    // Backtrack.
    let mut cores = vec![
        CbpChoice {
            ways: 0,
            units: 0,
            degree: 0,
            predicted_ns: 0.0,
            energy_nj: 0.0,
        };
        n
    ];
    let (mut u, mut r) = used;
    for i in (0..n).rev() {
        let (w, b) = pick[i + 1][u][r];
        cores[i] = grids[i].best[w - 1][b - 1].expect("picked candidates exist");
        u -= w;
        r -= b;
    }

    // Spare bandwidth units are free — the model predicts the same time
    // and energy whether they sit idle or not — but on the real machine
    // an idle unit serves nobody while a granted one absorbs the miss
    // bursts the windowed token bucket would otherwise delay. Hand the
    // leftovers, one at a time, to the core with the highest measured
    // demand per unit held (ties: fewest units, then lowest index —
    // fully deterministic). Predictions only improve: more bandwidth is
    // never slower in the roofline.
    let mut leftover = units - used.1;
    while leftover > 0 {
        let i = (0..n)
            .max_by(|&a, &b| {
                let score = |c: usize| models[c].observed_lines_per_ns / cores[c].units as f64;
                score(a)
                    .partial_cmp(&score(b))
                    .expect("unit counts are nonzero")
                    .then(cores[b].units.cmp(&cores[a].units))
                    .then(b.cmp(&a))
            })
            .expect("at least one core");
        cores[i].units += 1;
        leftover -= 1;
    }
    for (i, c) in cores.iter_mut().enumerate() {
        c.predicted_ns = models[i].predict_ns(c.ways, c.degree as usize, c.units, perf, params);
        c.energy_nj = candidate_energy(
            &models[i],
            c.ways,
            c.degree as usize,
            c.predicted_ns,
            costs,
            params,
        );
    }
    let energy_nj = cores.iter().map(|c| c.energy_nj).sum();

    CbpAssignment {
        cores,
        unallocated_ways: total_ways - used.0,
        unallocated_units: 0,
        energy_nj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_dvfs::CorePerfModel;

    fn model(misses_at: Vec<f64>, compute: f64, accuracy: f64) -> CoreCbpModel {
        CoreCbpModel {
            perf: CorePerfModel::from_parts(misses_at, compute, 100_000.0, 70.0),
            accuracy,
            lines_per_miss: 1.0,
            observed_lines_per_ns: 0.0,
        }
    }

    fn flat(ways: usize, misses: f64) -> Vec<f64> {
        vec![misses; ways + 1]
    }

    fn knobs() -> (EnergyCosts, PerfModelParams, CbpModelParams) {
        (
            EnergyCosts::paper_default(),
            PerfModelParams::paper_default(),
            CbpModelParams::paper_default(),
        )
    }

    #[test]
    fn accurate_prefetcher_is_turned_up_inaccurate_stays_off() {
        let (costs, perf, params) = knobs();
        // Streaming core: 50k misses/epoch, each stall avoidable.
        let mk = |acc| {
            vec![
                model(flat(8, 50_000.0), 25_000.0, acc),
                model(flat(8, 0.0), 400_000.0, 0.5),
            ]
        };
        let sharp = minimize(&mk(0.95), &costs, &perf, &params, 0.10, 8);
        let blunt = minimize(&mk(0.10), &costs, &perf, &params, 0.10, 8);
        assert!(
            sharp.cores[0].degree > 0,
            "near-perfect accuracy converts stalls into cheap overlap: {sharp:?}"
        );
        assert_eq!(
            blunt.cores[0].degree, 0,
            "10% accuracy wastes DRAM energy on dead lines: {blunt:?}"
        );
    }

    #[test]
    fn spare_units_flow_to_the_core_with_measured_demand() {
        let (costs, perf, params) = knobs();
        let mut stream = model(flat(8, 50_000.0), 25_000.0, 0.9);
        stream.observed_lines_per_ns = 0.1 * params.peak_lines_per_ns;
        let models = vec![stream, model(flat(8, 0.0), 400_000.0, 0.5)];
        let j = minimize(&models, &costs, &perf, &params, 0.10, 8);
        assert_eq!(
            j.cores[1].units, 1,
            "a core with no measured traffic keeps one unit: {j:?}"
        );
        assert_eq!(
            j.cores[0].units,
            params.bw_units - 1,
            "the streaming core absorbs every spare unit: {j:?}"
        );
        assert_eq!(j.unallocated_units, 0, "no unit sits idle");
    }

    #[test]
    fn spare_units_spread_evenly_without_demand_evidence() {
        let (costs, perf, params) = knobs();
        // First epoch: nobody has measured traffic yet — the leftovers
        // round-robin, so no core is left exposed to its own bursts.
        let models = vec![
            model(flat(8, 20_000.0), 50_000.0, 0.5),
            model(flat(8, 20_000.0), 50_000.0, 0.5),
        ];
        let j = minimize(&models, &costs, &perf, &params, 0.10, 8);
        assert_eq!(j.cores[0].units, params.bw_units / 2);
        assert_eq!(j.cores[1].units, params.bw_units / 2);
    }

    #[test]
    fn qos_bound_is_respected_by_construction() {
        let (costs, perf, params) = knobs();
        let slack = 0.05;
        let models = vec![
            model(
                vec![9_000.0, 6_000.0, 4_000.0, 2_500.0, 1_500.0],
                150_000.0,
                0.7,
            ),
            model(
                vec![3_000.0, 2_000.0, 1_500.0, 1_200.0, 1_000.0],
                250_000.0,
                0.3,
            ),
        ];
        let j = minimize(&models, &costs, &perf, &params, slack, 4);
        let fair_units = (params.bw_units / models.len()).max(1);
        for (i, c) in j.cores.iter().enumerate() {
            let base = models[i].predict_ns(2, 0, fair_units, &perf, &params);
            assert!(
                c.predicted_ns <= base * (1.0 + slack) + 1e-9,
                "core {i} violates QoS: {} vs {}",
                c.predicted_ns,
                base
            );
        }
    }

    #[test]
    fn cache_hungry_core_wins_ways() {
        let (costs, perf, params) = knobs();
        let hungry = model(
            vec![
                80_000.0, 70_000.0, 60_000.0, 50_000.0, 40_000.0, 30_000.0, 20_000.0, 10_000.0,
                500.0,
            ],
            50_000.0,
            0.5,
        );
        let stream = model(flat(8, 20_000.0), 30_000.0, 0.5);
        let j = minimize(&[hungry, stream], &costs, &perf, &params, 0.20, 8);
        assert!(
            j.cores[0].ways >= 6,
            "the hungry core should take most ways: {j:?}"
        );
        assert_eq!(j.cores[1].ways, 1);
    }

    #[test]
    fn assignment_is_well_formed_for_four_cores() {
        let (costs, perf, params) = knobs();
        let models: Vec<CoreCbpModel> = (0..4)
            .map(|i| {
                let m: Vec<f64> = (0..=16)
                    .map(|w| 40_000.0 / (1.0 + w as f64 * (0.5 + i as f64)))
                    .collect();
                model(m, 100_000.0 * (1 + i) as f64, 0.25 * (1 + i) as f64)
            })
            .collect();
        let j = minimize(&models, &costs, &perf, &params, 0.10, 16);
        let ways: usize = j.way_targets().iter().sum();
        let units: usize = j.cores.iter().map(|c| c.units).sum();
        assert_eq!(ways + j.unallocated_ways, 16);
        assert_eq!(units + j.unallocated_units, params.bw_units);
        assert!(j.way_targets().iter().all(|&w| w >= 1));
        assert!(j.cores.iter().all(|c| c.units >= 1));
        assert!(j.shares(&params).iter().sum::<f64>() <= 1.0 + 1e-12);
        assert!(j.degrees().iter().all(|&d| d as usize <= MAX_DEGREE));
        assert!(j.energy_nj.is_finite() && j.energy_nj > 0.0);
    }

    #[test]
    fn zero_slack_pins_the_baseline() {
        let (costs, perf, params) = knobs();
        let m = model(
            vec![5_000.0, 3_000.0, 2_000.0, 1_500.0, 1_200.0],
            200_000.0,
            0.6,
        );
        let models = [m.clone(), m];
        let j = minimize(&models, &costs, &perf, &params, 0.0, 4);
        let fair_units = (params.bw_units / 2).max(1);
        for (i, c) in j.cores.iter().enumerate() {
            let base = models[i].predict_ns(2, 0, fair_units, &perf, &params);
            assert!(c.predicted_ns <= base + 1e-9, "core {i}: {j:?}");
        }
    }
}
