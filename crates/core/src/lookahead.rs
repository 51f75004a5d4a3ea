//! The look-ahead way-allocation algorithm with the takeover threshold
//! (paper Algorithm 1).
//!
//! The classic UCP look-ahead repeatedly grants the application with the
//! highest reachable marginal utility (`max_mu`) the smallest number of ways
//! achieving it, until all ways are distributed. The paper adds a threshold
//! `T`: a winner receives its ways only when they reduce its projected
//! misses by at least the fraction `T`; otherwise the application is frozen
//! for this decision. Ways left over when every application is frozen stay
//! unallocated — Cooperative Partitioning power-gates them.
//!
//! `T = 0` reproduces UCP's allocation exactly (the paper: "a threshold
//! value of 0 corresponds to an allocation of ways in the same manner as
//! UCP"); `T = 1` never grants ways beyond the per-core minimum ("no ways
//! were ever allocated to any core"). The paper's printed pseudo-code
//! compares against `prev_max_mu * T` from `prev_max_mu = 0`, which can
//! never fire; we implement the semantics its prose defines — see DESIGN.md.
//!
//! Every live core keeps at least one way: a zero-way core could not cache
//! at all, and the paper's "ways not allocated to any core" are the leftovers
//! beyond these minima.

use crate::curve::MissCurve;

/// Result of a partitioning decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Ways granted to each core (index = core).
    pub ways: Vec<usize>,
    /// Ways granted to nobody (candidates for power gating).
    pub unallocated: usize,
}

impl Allocation {
    /// Total ways covered by the decision.
    pub fn total(&self) -> usize {
        self.ways.iter().sum::<usize>() + self.unallocated
    }
}

/// Runs the (threshold-)look-ahead algorithm.
///
/// * `curves` — one UMON miss curve per core;
/// * `total_ways` — LLC associativity;
/// * `threshold` — Algorithm 1's `T` (0 = plain UCP look-ahead).
///
/// # Panics
///
/// Panics if `curves` is empty or there are fewer ways than cores.
pub fn allocate(curves: &[MissCurve], total_ways: usize, threshold: f64) -> Allocation {
    let n = curves.len();
    assert!(n > 0, "need at least one core");
    assert!(total_ways >= n, "need at least one way per core");

    let mut ways = vec![1usize; n]; // per-core minimum
    let mut balance = total_ways - n;
    let mut frozen = vec![false; n];

    while balance > 0 && frozen.iter().any(|&f| !f) {
        // Find the unfrozen application with the best reachable utility.
        let mut winner: Option<(usize, f64, usize)> = None; // (core, mu, req)
        for (i, curve) in curves.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let (mu, req) = curve.max_mu(ways[i], balance);
            let better = match winner {
                None => true,
                Some((_, best_mu, _)) => mu > best_mu,
            };
            if better {
                winner = Some((i, mu, req));
            }
        }
        let (i, _mu, req) = winner.expect("an unfrozen core exists");

        if threshold > 0.0 {
            // The paper's modification: only award ways that significantly
            // reduce this application's miss ratio (measured in fractions of
            // its accesses).
            let gain = curves[i].ratio_gain(ways[i], ways[i] + req);
            if gain < threshold {
                frozen[i] = true;
                continue;
            }
        }
        ways[i] += req;
        balance -= req;
    }

    Allocation {
        ways,
        unallocated: balance,
    }
}

/// Exhaustive-search optimum (minimizing total projected misses) for small
/// configurations; used by tests to validate the look-ahead heuristic.
pub fn brute_force_optimum(curves: &[MissCurve], total_ways: usize) -> Vec<usize> {
    fn rec(
        curves: &[MissCurve],
        idx: usize,
        remaining: usize,
        current: &mut Vec<usize>,
        best: &mut (f64, Vec<usize>),
    ) {
        if idx == curves.len() - 1 {
            current.push(remaining);
            let total: f64 = curves
                .iter()
                .zip(current.iter())
                .map(|(c, &w)| c.misses(w))
                .sum();
            if total < best.0 {
                *best = (total, current.clone());
            }
            current.pop();
            return;
        }
        let reserve = curves.len() - 1 - idx; // leave >=1 for the rest
        for w in 1..=(remaining - reserve) {
            current.push(w);
            rec(curves, idx + 1, remaining - w, current, best);
            current.pop();
        }
    }
    let mut best = (f64::INFINITY, vec![]);
    rec(curves, 0, total_ways, &mut Vec::new(), &mut best);
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn convex(values: &[f64]) -> MissCurve {
        // An access count equal to misses-at-zero-ways (every access misses
        // with no capacity) keeps ratio gains realistic.
        MissCurve::new(values.to_vec(), values[0])
    }

    #[test]
    fn zero_threshold_distributes_everything() {
        let a = convex(&[100.0, 50.0, 30.0, 20.0, 15.0, 12.0, 10.0, 9.0, 8.0]);
        let b = convex(&[40.0, 30.0, 25.0, 22.0, 20.0, 19.0, 18.5, 18.2, 18.0]);
        let alloc = allocate(&[a, b], 8, 0.0);
        assert_eq!(alloc.unallocated, 0);
        assert_eq!(alloc.ways.iter().sum::<usize>(), 8);
        // The steep curve (a) should win more ways.
        assert!(alloc.ways[0] > alloc.ways[1]);
    }

    #[test]
    fn matches_brute_force_on_convex_curves() {
        let a = convex(&[100.0, 55.0, 30.0, 18.0, 12.0, 9.0, 7.0, 6.0, 5.5]);
        let b = convex(&[80.0, 60.0, 45.0, 35.0, 28.0, 23.0, 20.0, 18.0, 17.0]);
        let alloc = allocate(&[a.clone(), b.clone()], 8, 0.0);
        let opt = brute_force_optimum(&[a.clone(), b.clone()], 8);
        let heuristic: f64 = a.misses(alloc.ways[0]) + b.misses(alloc.ways[1]);
        let optimal: f64 = a.misses(opt[0]) + b.misses(opt[1]);
        assert!(
            heuristic <= optimal * 1.0 + 1e-9,
            "look-ahead is optimal on convex curves: {heuristic} vs {optimal}"
        );
    }

    #[test]
    fn threshold_one_grants_nothing_extra() {
        let a = convex(&[100.0, 50.0, 30.0, 20.0, 15.0, 12.0, 10.0, 9.0, 8.0]);
        let b = a.clone();
        let alloc = allocate(&[a, b], 8, 1.0);
        assert_eq!(alloc.ways, vec![1, 1]);
        assert_eq!(alloc.unallocated, 6);
    }

    #[test]
    fn threshold_frees_ways_from_flat_curves() {
        // Streaming app: no benefit from capacity.
        let stream = MissCurve::flat(8, 500.0, 500.0);
        // Cache-friendly app: strong benefit up to 3 ways, then flat.
        let friendly = convex(&[100.0, 40.0, 15.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
        let alloc = allocate(&[stream, friendly], 8, 0.05);
        assert_eq!(alloc.ways[0], 1, "stream gets only the minimum");
        assert!(alloc.ways[1] >= 3, "friendly app gets its knee");
        assert!(alloc.unallocated >= 1, "leftover ways can be gated");
    }

    #[test]
    fn threshold_extremes_bound_allocations() {
        // Totals are not strictly monotone in T in general (freezing one
        // core can free balance for another's larger step), but they are
        // always between the per-core minimum and the full cache, with the
        // extremes exact.
        let a = convex(&[100.0, 60.0, 40.0, 28.0, 20.0, 16.0, 13.0, 11.0, 10.0]);
        let b = convex(&[90.0, 70.0, 58.0, 50.0, 44.0, 40.0, 37.0, 35.0, 34.0]);
        assert_eq!(
            allocate(&[a.clone(), b.clone()], 8, 0.0)
                .ways
                .iter()
                .sum::<usize>(),
            8
        );
        assert_eq!(allocate(&[a.clone(), b.clone()], 8, 2.0).ways, vec![1, 1]);
        for t in [0.01, 0.05, 0.1, 0.2, 0.5] {
            let total: usize = allocate(&[a.clone(), b.clone()], 8, t).ways.iter().sum();
            assert!((2..=8).contains(&total), "T={t}: {total}");
        }
    }

    #[test]
    fn zero_miss_app_is_not_fed_under_threshold() {
        let perfect = MissCurve::flat(8, 0.0, 1000.0);
        // Hungry app whose early steps each save >5% of its accesses.
        let hungry = convex(&[100.0, 50.0, 25.0, 12.0, 6.0, 3.0, 2.0, 1.5, 1.0]);
        let alloc = allocate(&[perfect, hungry], 8, 0.05);
        assert_eq!(alloc.ways[0], 1);
        // Steps keep paying >=5 points of miss ratio up to 4 ways
        // (50->25->12->6 over 100 accesses), then freeze.
        assert_eq!(alloc.ways[1], 4);
        assert_eq!(alloc.unallocated, 3);
    }

    #[test]
    fn allocation_total_accounting() {
        let a = MissCurve::flat(4, 10.0, 100.0);
        let alloc = allocate(&[a.clone(), a.clone()], 4, 0.5);
        assert_eq!(alloc.total(), 4);
    }

    #[test]
    #[should_panic]
    fn rejects_fewer_ways_than_cores() {
        let a = MissCurve::flat(1, 1.0, 1.0);
        allocate(&[a.clone(), a.clone(), a.clone()], 2, 0.0);
    }

    #[test]
    fn matches_brute_force_on_three_convex_curves() {
        // Greedy marginal-utility allocation is exactly optimal when every
        // curve is convex; validate against exhaustive search.
        let a = convex(&[120.0, 70.0, 45.0, 30.0, 22.0, 17.0, 14.0, 12.0, 11.0]);
        let b = convex(&[90.0, 55.0, 38.0, 28.0, 22.0, 18.0, 15.5, 14.0, 13.0]);
        let c = convex(&[60.0, 45.0, 35.0, 28.0, 23.0, 19.5, 17.0, 15.5, 14.5]);
        let curves = [a, b, c];
        let alloc = allocate(&curves, 8, 0.0);
        let opt = brute_force_optimum(&curves, 8);
        let heuristic: f64 = curves
            .iter()
            .zip(alloc.ways.iter())
            .map(|(cv, &w)| cv.misses(w))
            .sum();
        let optimal: f64 = curves
            .iter()
            .zip(opt.iter())
            .map(|(cv, &w)| cv.misses(w))
            .sum();
        assert!(
            heuristic <= optimal + 1e-9,
            "3-core convex: {heuristic} vs optimal {optimal} ({:?} vs {opt:?})",
            alloc.ways
        );
    }

    #[test]
    fn sees_past_flat_regions_on_non_convex_cliff_curves() {
        // A cyclic working set produces a *non-convex* curve: no benefit at
        // all until the footprint fits (4 ways), then a cliff. Single-step
        // greedy would never grant the first way; look-ahead's multi-way
        // `max_mu` step must jump the flat region (the reason UCP uses
        // look-ahead at all, Qureshi & Patt's motivating case).
        let cliff = convex(&[100.0, 100.0, 100.0, 100.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
        let soft = convex(&[60.0, 40.0, 28.0, 20.0, 15.0, 12.0, 10.0, 9.0, 8.0]);
        let curves = [cliff, soft];
        let alloc = allocate(&curves, 8, 0.0);
        assert!(
            alloc.ways[0] >= 4,
            "cliff app must receive its whole footprint: {:?}",
            alloc.ways
        );
        let opt = brute_force_optimum(&curves, 8);
        let heuristic: f64 = curves[0].misses(alloc.ways[0]) + curves[1].misses(alloc.ways[1]);
        let optimal: f64 = curves[0].misses(opt[0]) + curves[1].misses(opt[1]);
        assert!(
            heuristic <= optimal + 1e-9,
            "non-convex cliff: {heuristic} vs optimal {optimal}"
        );
    }

    #[test]
    fn threshold_skips_cliff_smaller_than_its_gain_fraction() {
        // The same cliff expressed over many accesses: the jump saves only
        // 95/10000 < 1% of accesses, so T=0.05 must freeze the app rather
        // than grant 3 extra ways for a sub-threshold gain.
        let small_cliff = MissCurve::new(
            vec![100.0, 100.0, 100.0, 100.0, 5.0, 5.0, 5.0, 5.0, 5.0],
            10_000.0,
        );
        let hungry = convex(&[500.0, 260.0, 140.0, 80.0, 50.0, 35.0, 26.0, 21.0, 18.0]);
        let alloc = allocate(&[small_cliff, hungry], 8, 0.05);
        assert_eq!(
            alloc.ways[0], 1,
            "sub-threshold cliff must not be chased: {:?}",
            alloc.ways
        );
    }

    #[test]
    fn four_core_allocation_shapes() {
        let stream = MissCurve::flat(16, 400.0, 400.0);
        let friendly = convex(&[
            300.0, 150.0, 80.0, 45.0, 25.0, 15.0, 10.0, 7.0, 5.0, 4.0, 3.5, 3.0, 2.8, 2.6, 2.5,
            2.4, 2.3,
        ]);
        let modest = convex(&[
            50.0, 30.0, 20.0, 15.0, 12.0, 10.0, 9.0, 8.5, 8.0, 7.8, 7.6, 7.5, 7.4, 7.3, 7.2, 7.1,
            7.0,
        ]);
        let tiny = MissCurve::flat(16, 0.5, 500.0);
        let alloc = allocate(&[stream, friendly, modest, tiny], 16, 0.05);
        assert_eq!(alloc.ways[0], 1);
        assert_eq!(alloc.ways[3], 1);
        assert!(alloc.ways[1] >= 4, "friendly wins big: {:?}", alloc.ways);
        assert!(alloc.total() == 16);
    }
}
