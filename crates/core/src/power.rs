//! Per-way power gating (gated-Vdd) and leakage integration.
//!
//! The paper turns off whole ways that no core owns using Powell's gated-Vdd
//! (non-state-preserving — a gated way loses its contents). This module
//! tracks each way's power state and integrates way·cycles in both states so
//! the energy model can charge leakage (and the gated residual) exactly.

use simkit::types::Cycle;

/// Power state and leakage integrals for the LLC's ways.
#[derive(Debug, Clone)]
pub struct WayPower {
    on: Vec<bool>,
    last_update: Cycle,
    on_way_cycles: u64,
    gated_way_cycles: u64,
}

impl WayPower {
    /// Creates a tracker with all `ways` powered on at time zero.
    pub fn new(ways: usize) -> WayPower {
        WayPower {
            on: vec![true; ways],
            last_update: Cycle::ZERO,
            on_way_cycles: 0,
            gated_way_cycles: 0,
        }
    }

    /// Whether `way` is currently powered.
    pub fn is_on(&self, way: usize) -> bool {
        self.on[way]
    }

    /// Number of powered ways.
    pub fn on_count(&self) -> usize {
        self.on.iter().filter(|&&b| b).count()
    }

    /// Integrates leakage up to `now`. Must be called before any state
    /// change and once at the end of the run.
    pub fn advance(&mut self, now: Cycle) {
        let dt = now.since(self.last_update);
        if dt == 0 {
            return;
        }
        let on = self.on_count() as u64;
        let off = (self.on.len() - self.on_count()) as u64;
        self.on_way_cycles += on * dt;
        self.gated_way_cycles += off * dt;
        self.last_update = now;
    }

    /// Powers a way on at `now` (its contents start invalid — gating is not
    /// state-preserving, callers must have invalidated the lines).
    pub fn power_on(&mut self, now: Cycle, way: usize) {
        self.advance(now);
        self.on[way] = true;
    }

    /// Gates a way off at `now`.
    pub fn power_off(&mut self, now: Cycle, way: usize) {
        self.advance(now);
        self.on[way] = false;
    }

    /// Integral of powered ways over time, in way·cycles.
    pub fn on_way_cycles(&self) -> u64 {
        self.on_way_cycles
    }

    /// Integral of gated ways over time, in way·cycles.
    pub fn gated_way_cycles(&self) -> u64 {
        self.gated_way_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_on_and_gated_time() {
        let mut p = WayPower::new(4);
        p.power_off(Cycle(100), 0); // 4 ways on for 100 cycles
        p.power_off(Cycle(200), 1); // 3 on for next 100
        p.advance(Cycle(300)); // 2 on for next 100
        assert_eq!(p.on_way_cycles(), 400 + 300 + 200);
        assert_eq!(p.gated_way_cycles(), 100 + 200);
        assert_eq!(p.on_count(), 2);
    }

    #[test]
    fn power_on_restores_leakage() {
        let mut p = WayPower::new(2);
        p.power_off(Cycle(0), 0);
        p.power_on(Cycle(50), 0);
        p.advance(Cycle(100));
        assert_eq!(p.gated_way_cycles(), 50);
        assert_eq!(p.on_way_cycles(), 50 + 100);
        assert!(p.is_on(0));
    }

    #[test]
    fn advance_is_idempotent_at_same_cycle() {
        let mut p = WayPower::new(1);
        p.advance(Cycle(10));
        p.advance(Cycle(10));
        assert_eq!(p.on_way_cycles(), 10);
    }

    #[test]
    fn on_gated_on_transition_integrates_each_interval_once() {
        // The full gating round-trip of one way (on → gated → on) while the
        // other ways stay powered: every interval must land in exactly one
        // integral, with no way-cycles lost or double-counted.
        let mut p = WayPower::new(4);
        p.power_off(Cycle(1_000), 2); // [0,1000): 4 on
        p.power_on(Cycle(3_500), 2); // [1000,3500): 3 on, 1 gated
        p.advance(Cycle(5_000)); // [3500,5000): 4 on
        assert_eq!(p.on_way_cycles(), 4 * 1_000 + 3 * 2_500 + 4 * 1_500);
        assert_eq!(p.gated_way_cycles(), 2_500);
        assert_eq!(p.on_count(), 4);
        assert!(p.is_on(2));
    }

    #[test]
    fn mid_epoch_advances_do_not_change_totals() {
        // Integrating in many small steps must equal one big step: the
        // epoch controller calls advance() at every decision and the energy
        // finalizer once more at the end.
        let run = |steps: &[u64]| {
            let mut p = WayPower::new(8);
            p.power_off(Cycle(0), 0);
            p.power_off(Cycle(0), 1);
            for &s in steps {
                p.advance(Cycle(s));
            }
            p.advance(Cycle(10_000));
            (p.on_way_cycles(), p.gated_way_cycles())
        };
        let fine = run(&[1, 2, 500, 501, 502, 7_000, 9_999]);
        let coarse = run(&[]);
        assert_eq!(fine, coarse);
        assert_eq!(fine, (6 * 10_000, 2 * 10_000));
    }

    #[test]
    fn interleaved_transitions_conserve_total_way_cycles() {
        // However ways toggle, on + gated way-cycles must always equal
        // ways × elapsed time (leakage never disappears, it only moves
        // between the powered and residual buckets).
        let mut p = WayPower::new(4);
        let events: [(u64, usize, bool); 6] = [
            (100, 0, false),
            (250, 1, false),
            (400, 0, true),
            (700, 2, false),
            (900, 1, true),
            (1_300, 2, true),
        ];
        for (t, way, on) in events {
            if on {
                p.power_on(Cycle(t), way);
            } else {
                p.power_off(Cycle(t), way);
            }
            let elapsed = t; // advance() ran inside power_on/off
            assert_eq!(
                p.on_way_cycles() + p.gated_way_cycles(),
                4 * elapsed,
                "conservation violated at t={t}"
            );
        }
        p.advance(Cycle(2_000));
        assert_eq!(p.on_way_cycles() + p.gated_way_cycles(), 4 * 2_000);
        assert_eq!(p.on_count(), 4, "all ways back on");
    }

    #[test]
    fn repeated_gating_of_same_way_accumulates_residual_time() {
        // A way that bounces on/off mid-epoch (e.g. reclaimed by a DVFS
        // reallocation between two decisions) accrues gated time across
        // every off interval.
        let mut p = WayPower::new(2);
        p.power_off(Cycle(10), 1);
        p.power_on(Cycle(30), 1);
        p.power_off(Cycle(50), 1);
        p.power_on(Cycle(90), 1);
        p.advance(Cycle(100));
        assert_eq!(p.gated_way_cycles(), 20 + 40);
        assert_eq!(p.on_way_cycles(), 2 * 100 - 60);
    }
}
