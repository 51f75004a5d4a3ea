//! The coordinated DVFS + partitioning controller as a
//! [`PartitionPolicy`].
//!
//! The controller is just another policy registry entry (`"dvfs"`): each
//! epoch it decides joint (frequency, ways) targets, returns the way
//! targets as a normal takeover repartition and the frequencies as
//! [`ResourceHints::clock_ratios`], which the system loop forwards to
//! `Core::set_clock_ratio`.

use coop_core::policy::{AllocationDecision, EpochObservations, PartitionPolicy, ResourceHints};
use coop_core::registry::{PolicyEntry, PolicyRegistry};
use coop_core::{allocate, EnforcementMode};

use crate::controller::{DvfsConfig, DvfsController};

/// The coordinated DVFS + cooperative-partitioning policy.
#[derive(Debug, Clone)]
pub struct DvfsPolicy {
    ctl: DvfsController,
    /// Takeover threshold for the rare epochs where no time elapsed since
    /// the last decision (nothing to model): the policy then falls back to
    /// the plain cooperative look-ahead over the same UMON curves.
    fallback_threshold: f64,
}

impl DvfsPolicy {
    /// Creates the policy for `cores` cores sharing `total_ways` ways.
    pub fn new(
        cfg: DvfsConfig,
        cores: usize,
        total_ways: usize,
        fallback_threshold: f64,
    ) -> DvfsPolicy {
        DvfsPolicy {
            ctl: DvfsController::new(cfg, cores, total_ways),
            fallback_threshold,
        }
    }

    /// The underlying controller (residency books, configuration).
    pub fn controller(&self) -> &DvfsController {
        &self.ctl
    }

    /// Mutable access for window bookkeeping (`settle`).
    pub fn controller_mut(&mut self) -> &mut DvfsController {
        &mut self.ctl
    }
}

impl PartitionPolicy for DvfsPolicy {
    fn name(&self) -> &'static str {
        "dvfs"
    }

    fn label(&self) -> &'static str {
        "Coordinated DVFS + CP"
    }

    fn enforcement(&self) -> EnforcementMode {
        EnforcementMode::Takeover
    }

    fn uses_umon(&self) -> bool {
        true
    }

    fn on_epoch(&mut self, obs: &EpochObservations) -> AllocationDecision {
        match self.ctl.on_epoch(
            obs.now,
            &obs.curves,
            &obs.retired,
            &obs.misses,
            &obs.cur_ways,
        ) {
            Some(d) => AllocationDecision {
                allocation: Some(d.allocation),
                age_umons: true,
                hints: ResourceHints {
                    clock_ratios: Some(d.ratios),
                    ..ResourceHints::default()
                },
            },
            None => AllocationDecision::repartition(allocate(
                &obs.curves,
                obs.total_ways,
                self.fallback_threshold,
            )),
        }
    }
}

/// Registers the `"dvfs"` policy. The spec's `qos_slack` becomes the QoS
/// constraint; `threshold` seeds the zero-elapsed-time fallback.
pub fn register(reg: &mut PolicyRegistry) {
    reg.register(PolicyEntry::new(
        "dvfs",
        &["coop-dvfs", "dvfs_cp"],
        "QoS-constrained joint (frequency, ways) energy minimizer over cooperative takeover",
        Some(coop_core::SchemeKind::Cooperative),
        |spec| {
            Box::new(DvfsPolicy::new(
                DvfsConfig::paper_default(spec.qos_slack),
                spec.cores,
                spec.total_ways,
                spec.threshold,
            ))
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_core::MissCurve;
    use simkit::types::Cycle;

    fn obs(now: u64) -> EpochObservations {
        let hungry = MissCurve::new(
            vec![
                90_000.0, 60_000.0, 40_000.0, 25_000.0, 15_000.0, 8_000.0, 4_000.0, 2_000.0,
                1_000.0,
            ],
            200_000.0,
        );
        let stream = MissCurve::flat(8, 50_000.0, 60_000.0);
        EpochObservations {
            now: Cycle(now),
            epoch_index: 0,
            total_ways: 8,
            curves: vec![hungry, stream],
            cur_ways: vec![4, 4],
            misses: vec![5_000, 50_000],
            retired: vec![400_000, 100_000],
            dram_lines: Vec::new(),
            bw_delayed: Vec::new(),
            bw_delay_cycles: Vec::new(),
            prefetches: Vec::new(),
            prefetch_useful: Vec::new(),
        }
    }

    #[test]
    fn policy_decides_ways_and_clock_hints() {
        let mut p = DvfsPolicy::new(DvfsConfig::paper_default(0.10), 2, 8, 0.03);
        assert_eq!(p.enforcement(), EnforcementMode::Takeover);
        assert!(p.uses_umon());
        let d = p.on_epoch(&obs(500_000));
        let alloc = d.allocation.expect("elapsed time yields a decision");
        assert_eq!(alloc.ways.len(), 2);
        assert!(alloc.ways.iter().all(|&w| w >= 1));
        let ratios = d.hints.clock_ratios.expect("dvfs always hints the clock");
        assert!(ratios.iter().all(|&r| r >= 1.0));
        assert!(d.age_umons);
        assert_eq!(p.controller().decisions(), 1);
    }

    #[test]
    fn zero_elapsed_time_falls_back_to_cooperative_lookahead() {
        let mut p = DvfsPolicy::new(DvfsConfig::paper_default(0.10), 2, 8, 0.03);
        let d = p.on_epoch(&obs(0));
        let alloc = d.allocation.expect("fallback still repartitions");
        assert!(alloc.ways.iter().all(|&w| w >= 1));
        assert!(d.hints.clock_ratios.is_none(), "clock left untouched");
        assert_eq!(p.controller().decisions(), 0, "the minimizer never ran");
    }

    #[test]
    fn registry_entry_builds_with_spec_knobs() {
        let mut reg = PolicyRegistry::core();
        register(&mut reg);
        let spec = coop_core::PolicySpec {
            cores: 2,
            total_ways: 8,
            threshold: 0.03,
            cpe_slack: 0.05,
            qos_slack: 0.20,
        };
        let p = reg.build("dvfs", &spec).expect("registered");
        let any: &dyn std::any::Any = &*p;
        let dvfs = any.downcast_ref::<DvfsPolicy>().expect("concrete type");
        assert!((dvfs.controller().config().qos_slack - 0.20).abs() < 1e-12);
        assert_eq!(reg.resolve("coop-dvfs"), Some("dvfs"));
    }
}
