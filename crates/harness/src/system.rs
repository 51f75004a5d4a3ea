//! The full simulated system: cores + L1s + partitioned LLC + DRAM.
//!
//! Assemble one with [`System::builder`]:
//!
//! ```ignore
//! let r = System::builder()
//!     .workload("G2-4")               // or "lbm,namd", or "trace:foo.ctrace"
//!     .policy("cooperative")
//!     .scale(SimScale::quick())
//!     .build()
//!     .run();
//! ```
//!
//! Both axes resolve through string-keyed registries: the policy name
//! through the harness [`crate::policies`] registry (the five paper
//! schemes plus `"dvfs"` and `"cbp"`), and the workload spec through
//! [`crate::workload_registry`] (named groups, ad-hoc mixes, trace
//! files). The LLC is built as a pure enforcement mechanism matching the
//! policy's descriptor, and the system loop feeds the policy
//! [`coop_core::EpochObservations`] each epoch and applies its decisions —
//! way targets through the LLC, clock hints through the cores. The
//! pre-redesign [`SystemConfig`] constructors remain for the seed
//! integration suites.

use coop_core::cpe::CpeProfile;
use coop_core::policy::{DynamicCpePolicy, PartitionPolicy};
use coop_core::{
    policy_for_scheme, AllocationDecision, LlcConfig, PartitionedLlc, PolicySpec, SchemeKind,
};
use coop_dvfs::{DvfsPolicy, Residency};
use cpusim::{Core, CoreConfig, EpochControl, LlcPort, StepperKind, SystemStepper};
use energy::{CoreEnergyParams, CoreEnergyReport, EnergyCounts, EnergyParams, EnergyReport};
use memsim::{Dram, DramConfig};
use simkit::types::{CoreId, Cycle, LineAddr};
use workloads::{Benchmark, ResolvedWorkload};

use crate::scale::SimScale;

/// Configuration of a whole simulated system run (legacy shape; prefer
/// [`System::builder`], which resolves policies by registry name).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The benchmarks to run, one per core.
    pub benchmarks: Vec<Benchmark>,
    /// LLC parameters (plus the legacy scheme selector).
    pub llc: LlcConfig,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// Memory system.
    pub dram: DramConfig,
    /// Simulation scale.
    pub scale: SimScale,
    /// Root seed (varies reference streams deterministically).
    pub seed: u64,
}

impl SystemConfig {
    fn base(benchmarks: Vec<Benchmark>, llc: LlcConfig, scale: SimScale) -> Self {
        SystemConfig {
            benchmarks,
            llc: llc.with_epoch(scale.epoch_cycles),
            core: CoreConfig::default(),
            dram: DramConfig::default(),
            scale,
            seed: 0x5EED,
        }
    }

    /// Paper two-core system for a benchmark pair (legacy shim).
    pub fn two_core(benchmarks: Vec<Benchmark>, scheme: SchemeKind, scale: SimScale) -> Self {
        assert_eq!(benchmarks.len(), 2);
        SystemConfig::base(benchmarks, LlcConfig::two_core(scheme), scale)
    }

    /// Paper four-core system for a benchmark quartet (legacy shim).
    pub fn four_core(benchmarks: Vec<Benchmark>, scheme: SchemeKind, scale: SimScale) -> Self {
        assert_eq!(benchmarks.len(), 4);
        SystemConfig::base(benchmarks, LlcConfig::four_core(scheme), scale)
    }

    /// Single benchmark alone in the full cache (for baselines/profiles).
    /// Runs under UCP so the utility monitor stays active (with one core the
    /// allocation is the whole cache, identical to an unmanaged run).
    pub fn solo(benchmark: Benchmark, llc: LlcConfig, scale: SimScale) -> Self {
        let mut llc = llc;
        llc.scheme = SchemeKind::Ucp;
        SystemConfig::base(vec![benchmark], llc, scale)
    }
}

/// What the builder was asked to run on the cores.
#[derive(Debug, Clone)]
enum WorkloadInput {
    /// A spec string, resolved through [`crate::workload_registry`] at
    /// build time.
    Spec(String),
    /// An already-resolved workload (sweeps resolve once, run many).
    Resolved(ResolvedWorkload),
}

/// Why a [`SystemBuilder`] could not build.
#[derive(Debug)]
pub enum BuildError {
    /// The policy name is not in the policy registry.
    Policy(coop_core::UnknownPolicy),
    /// The workload spec did not resolve (unknown name, bad trace, bad
    /// arity).
    Workload(workloads::WorkloadError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Policy(e) => e.fmt(f),
            BuildError::Workload(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<coop_core::UnknownPolicy> for BuildError {
    fn from(e: coop_core::UnknownPolicy) -> BuildError {
        BuildError::Policy(e)
    }
}

impl From<workloads::WorkloadError> for BuildError {
    fn from(e: workloads::WorkloadError) -> BuildError {
        BuildError::Workload(e)
    }
}

/// Builder for a [`System`]: a workload spec in, a policy by registry
/// name, everything else defaulted to the paper's configuration.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    workload: Option<WorkloadInput>,
    policy: String,
    scale: SimScale,
    llc: Option<LlcConfig>,
    threshold: Option<f64>,
    qos_slack: f64,
    seed: u64,
    stepper: StepperKind,
    bandwidth_shares: Option<Vec<f64>>,
    prefetch_degree: Option<u8>,
}

impl Default for SystemBuilder {
    fn default() -> SystemBuilder {
        SystemBuilder {
            workload: None,
            policy: "cooperative".to_string(),
            scale: SimScale::small(),
            llc: None,
            threshold: None,
            qos_slack: 0.10,
            seed: 0x5EED,
            stepper: StepperKind::default(),
            bandwidth_shares: None,
            prefetch_degree: None,
        }
    }
}

impl SystemBuilder {
    /// The workload by spec string (required unless
    /// [`SystemBuilder::workload_resolved`] is used): a named group
    /// (`"G2-1"`), an ad-hoc mix (`"soplex,namd"`), or a trace file
    /// (`"trace:path.ctrace"`) — resolved through
    /// [`crate::workload_registry`] at build time.
    pub fn workload(mut self, spec: impl Into<String>) -> Self {
        self.workload = Some(WorkloadInput::Spec(spec.into()));
        self
    }

    /// An already-resolved workload (sweeps resolve a spec once and reuse
    /// it across runs).
    pub fn workload_resolved(mut self, workload: ResolvedWorkload) -> Self {
        self.workload = Some(WorkloadInput::Resolved(workload));
        self
    }

    /// Policy by registry name or alias (default `"cooperative"`); see
    /// [`crate::policies::policy_registry`] for the names.
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policy = name.into();
        self
    }

    /// Simulation scale (default [`SimScale::small`]).
    pub fn scale(mut self, scale: SimScale) -> Self {
        self.scale = scale;
        self
    }

    /// Explicit LLC configuration (default: the paper geometry for the
    /// core count). The epoch length is always taken from the scale.
    pub fn llc(mut self, llc: LlcConfig) -> Self {
        self.llc = Some(llc);
        self
    }

    /// Takeover threshold override (Figures 11-13 sweep it).
    pub fn threshold(mut self, t: f64) -> Self {
        self.threshold = Some(t);
        self
    }

    /// QoS slack for performance-trading policies (default 0.10).
    pub fn qos_slack(mut self, slack: f64) -> Self {
        self.qos_slack = slack;
        self
    }

    /// Root seed (default 0x5EED).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Which stepping algorithm drives the system loop (default
    /// [`StepperKind::EventDriven`]; the per-cycle reference stepper is
    /// kept for equivalence checking).
    pub fn stepper(mut self, kind: StepperKind) -> Self {
        self.stepper = kind;
        self
    }

    /// Installs the DRAM bandwidth regulator with these initial per-core
    /// shares of peak bandwidth (scenario knob; policies may re-publish
    /// shares per epoch through their hints). Default: no regulator —
    /// the memory path is bit-identical to the pre-regulator machine.
    pub fn bandwidth_shares(mut self, shares: Vec<f64>) -> Self {
        self.bandwidth_shares = Some(shares);
        self
    }

    /// Initial L1-D prefetcher degree for every core (scenario knob;
    /// policies may re-set degrees per epoch through their hints).
    /// Default: 0, prefetcher off — bit-identical to the pre-prefetcher
    /// machine.
    pub fn prefetch_degree(mut self, degree: u8) -> Self {
        self.prefetch_degree = Some(degree);
        self
    }

    /// Builds the system, or reports an unresolvable policy name or
    /// workload spec (either error lists what is registered).
    pub fn try_build(self) -> Result<System, BuildError> {
        let workload = match self
            .workload
            .expect("SystemBuilder::workload (or ::workload_resolved) was not called")
        {
            WorkloadInput::Spec(spec) => crate::workload_registry().resolve(&spec)?,
            WorkloadInput::Resolved(w) => w,
        };
        let n = workload.cores();
        let registry = crate::policies::policy_registry();
        let canonical = registry
            .resolve(&self.policy)
            .ok_or_else(|| coop_core::UnknownPolicy {
                requested: self.policy.clone(),
                known: registry.names(),
            })?;
        // The legacy scheme field keeps labeling paths coherent for the
        // five paper policies; the mechanism itself never reads it.
        let scheme = registry
            .entry(canonical)
            .and_then(|e| e.scheme)
            .unwrap_or(SchemeKind::Cooperative);
        let mut llc = self
            .llc
            .unwrap_or_else(|| LlcConfig::for_cores(n, scheme))
            .with_epoch(self.scale.epoch_cycles);
        llc.scheme = scheme;
        if let Some(t) = self.threshold {
            llc = llc.with_threshold(t);
        }
        let spec = PolicySpec::for_llc(&llc, n).with_qos_slack(self.qos_slack);
        let policy = registry.build(canonical, &spec).expect("name resolved");
        let cfg = SystemConfig {
            seed: self.seed,
            ..SystemConfig::base(Vec::new(), llc, self.scale)
        };
        let mut sys = System::assemble(cfg, policy, workload, self.stepper);
        if let Some(shares) = &self.bandwidth_shares {
            sys.llc.set_bandwidth_shares(shares);
        }
        if let Some(d) = self.prefetch_degree {
            for core in &mut sys.cores {
                core.set_prefetch_degree(d);
            }
        }
        Ok(sys)
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics on an unknown policy name or an unresolvable workload
    /// spec; use [`SystemBuilder::try_build`] to handle those gracefully.
    pub fn build(self) -> System {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Everything measured in one run (within the measurement window, i.e.
/// after warm-up).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Canonical name of the policy that produced the run (registry key).
    pub policy: String,
    /// Human label of the policy (paper legend).
    pub label: String,
    /// Label of the resolved workload that ran (group name, mix, or
    /// trace spec).
    pub workload: String,
    /// Per-core IPC over each core's own measurement window.
    pub ipc: Vec<f64>,
    /// Per-core LLC misses per kilo-instruction.
    pub mpki: Vec<f64>,
    /// Per-core LLC accesses per kilo-instruction.
    pub apki: Vec<f64>,
    /// Per-core LLC demand accesses simulated inside the window (the
    /// numerator of the harness's accesses-per-second throughput lines).
    pub accesses: Vec<u64>,
    /// Raw energy-event counts for the window.
    pub counts: EnergyCounts,
    /// Evaluated energies for the window.
    pub energy: EnergyReport,
    /// Average tag ways consulted per demand access.
    pub avg_ways: f64,
    /// Cycles simulated in the window (to the last core's finish).
    pub cycles: u64,
    /// Cooperative-takeover transfer durations (cycles).
    pub cp_transfer_durations: Vec<u64>,
    /// UCP migration durations (cycles).
    pub ucp_transfer_durations: Vec<u64>,
    /// Figure-14 takeover event counts
    /// (recipient-miss, recipient-hit, donor-miss, donor-hit).
    pub takeover_events: [u64; 4],
    /// Transfers that needed the force-complete timeout.
    pub forced_transfers: u64,
    /// Lines flushed by partitioning activity.
    pub flush_lines: u64,
    /// Flush traffic bucketed by cycles since the last decision.
    pub flush_series: Vec<f64>,
    /// Bucket width of `flush_series` in cycles.
    pub flush_bucket: u64,
    /// Partitioning decisions that actually changed the allocation.
    pub repartitions: u64,
    /// Per-epoch UMON miss curves of core 0 (used when profiling solo runs
    /// for the Dynamic CPE scheme).
    pub epoch_curves: Vec<coop_core::MissCurve>,
    /// Core-side energy over the window (all cores; evaluated at nominal
    /// V/f when DVFS is off).
    pub core_energy: CoreEnergyReport,
    /// Residency-weighted average core frequency per core (GHz).
    pub avg_freq_ghz: Vec<f64>,
    /// Fraction of window time each core spent at each V/f operating point
    /// (nominal first; a single `[1.0]` entry per core without DVFS).
    pub freq_residency: Vec<Vec<f64>>,
    /// Mean ways owned per core across the window's partitioning epochs
    /// (way-aligned schemes; zeros for Unmanaged/UCP).
    pub avg_ways_owned: Vec<f64>,
    /// Per-core L1-D prefetches issued inside the window (zeros with the
    /// prefetcher off).
    pub prefetches: Vec<u64>,
    /// Per-core prefetched lines later touched by a demand access.
    pub prefetch_useful: Vec<u64>,
    /// Per-core DRAM line transfers inside the window (demand fills,
    /// prefetch fills and write-backs the core caused).
    pub dram_lines: Vec<u64>,
    /// Per-core cycles of bandwidth-regulator delay inside the window
    /// (zeros without a regulator).
    pub bw_delay_cycles: Vec<u64>,
    /// Mean bandwidth share granted per core across the window's epochs
    /// (1.0 per core when no regulator is installed).
    pub avg_bw_share: Vec<f64>,
    /// Mean prefetch degree per core across the window's epochs.
    pub avg_prefetch_degree: Vec<f64>,
}

impl RunResult {
    /// Weighted speedup against per-core solo IPCs.
    pub fn weighted_speedup(&self, ipc_alone: &[f64]) -> f64 {
        crate::metrics::weighted_speedup(&self.ipc, ipc_alone)
    }

    /// Whole-system energy over the window: LLC tag + monitoring overhead +
    /// data array + leakage, plus core dynamic + static.
    pub fn total_energy_nj(&self) -> f64 {
        self.energy.dynamic_nj
            + self.energy.data_nj
            + self.energy.static_nj
            + self.core_energy.total_nj()
    }

    /// Energy–delay-squared product over the window (nJ·cycles²).
    pub fn ed2p(&self) -> f64 {
        self.total_energy_nj() * (self.cycles as f64) * (self.cycles as f64)
    }
}

/// The assembled system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    llc: PartitionedLlc,
    dram: Dram,
    /// The allocation policy driving the epochs.
    policy: Box<dyn PartitionPolicy>,
    /// Label of the workload on the cores (reported in `RunResult`).
    workload_label: String,
    /// Which stepping algorithm drives the run.
    stepper: StepperKind,
}

struct SharedMem<'a> {
    llc: &'a mut PartitionedLlc,
    dram: &'a mut Dram,
}

impl LlcPort for SharedMem<'_> {
    fn access(&mut self, now: Cycle, core: CoreId, line: LineAddr, write: bool) -> Cycle {
        self.llc.access(now, core, line, write, self.dram)
    }
    fn prefetch(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Cycle {
        self.llc.prefetch(now, core, line, self.dram)
    }
    fn writeback(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.llc.writeback(now, core, line, self.dram);
    }
}

impl System {
    /// A fresh [`SystemBuilder`].
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Builds the system from a legacy [`SystemConfig`]: the scheme maps
    /// onto the matching [`PartitionPolicy`] object. New code uses
    /// [`System::builder`].
    pub fn new(cfg: SystemConfig) -> System {
        let policy = policy_for_scheme(cfg.llc.scheme, &cfg.llc);
        let workload = ResolvedWorkload::from_benchmarks(&cfg.benchmarks);
        System::assemble(cfg, policy, workload, StepperKind::default())
    }

    /// Assembles cores, the enforcement mechanism and DRAM around
    /// `policy`, with one `workload` member feeding each core.
    fn assemble(
        cfg: SystemConfig,
        policy: Box<dyn PartitionPolicy>,
        workload: ResolvedWorkload,
        stepper: StepperKind,
    ) -> System {
        let n = workload.cores();
        let cores = workload
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let source = m.source(cfg.seed ^ ((i as u64) << 32));
                Core::new(CoreId(i as u8), cfg.core, source)
            })
            .collect();
        System {
            cores,
            llc: PartitionedLlc::for_policy(cfg.llc, n, policy.as_ref()),
            dram: Dram::new(cfg.dram),
            policy,
            workload_label: workload.label,
            stepper,
            cfg,
        }
    }

    /// Installs the Dynamic CPE solo profile (no-op for other policies).
    pub fn set_cpe_profile(&mut self, profile: CpeProfile) {
        if let Some(p) =
            (self.policy.as_mut() as &mut dyn std::any::Any).downcast_mut::<DynamicCpePolicy>()
        {
            p.set_profile(profile);
        }
    }

    /// Runs warm-up + measurement and returns the results.
    ///
    /// Matches the paper's methodology: caches and predictors warm first
    /// (instruction-based, `warmup_instrs` per application); each
    /// application is then measured over its next `instrs_per_app`
    /// instructions; all applications keep running (and keep contending for
    /// the cache) until the slowest reaches its target.
    pub fn run(self) -> RunResult {
        let uses_umon = self.policy.uses_umon();
        let System {
            cfg,
            mut cores,
            mut llc,
            mut dram,
            mut policy,
            workload_label,
            stepper: kind,
        } = self;
        let n = cores.len();
        let scale = cfg.scale;
        let mut stepper = SystemStepper::new(kind, cfg.llc.epoch_cycles);
        // Sum of per-core way targets over measured epochs + the epoch
        // count (for `RunResult::avg_ways_owned`).
        let mut way_occupancy: (Vec<u64>, u64) = (vec![0; n], 0);
        // Sums of per-core bandwidth share and prefetch degree over the
        // same epochs (for `avg_bw_share` / `avg_prefetch_degree`).
        let mut resource_occupancy: (Vec<f64>, Vec<f64>) = (vec![0.0; n], vec![0.0; n]);

        // ---- Warm-up ----------------------------------------------------
        {
            let mut port = SharedMem {
                llc: &mut llc,
                dram: &mut dram,
            };
            let warm_targets = vec![scale.warmup_instrs; n];
            let policy = &mut policy;
            stepper.run(
                &mut cores,
                &mut port,
                &warm_targets,
                Cycle(scale.max_cycles / 2),
                |now, cores, port| {
                    drive_epoch(now, cores, port.llc, port.dram, policy.as_mut());
                    EpochControl::Continue
                },
            );
        }

        // ---- Measurement window ----------------------------------------
        let window_start = stepper.now();
        // Book the warm-up tail at the current operating points so the
        // residency window starts exactly here.
        let base_retired: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
        let base_misses = llc_misses(&llc, n);
        let dvfs_books_base: Option<Residency> = dvfs_of(policy.as_mut()).map(|p| {
            let ctl = p.controller_mut();
            ctl.settle(window_start, &base_retired, &base_misses);
            ctl.books().clone()
        });
        let base_accesses: Vec<u64> = (0..n)
            .map(|i| llc.stats().per_core[i].accesses.get())
            .collect();
        let base_flush = llc.stats().flush_lines.get();
        let base_counts = llc.energy_counts(window_start);
        let base_prefetches: Vec<u64> = cores.iter().map(|c| c.stats().prefetches.get()).collect();
        let base_useful: Vec<u64> = cores
            .iter()
            .map(|c| c.stats().prefetch_useful.get())
            .collect();
        let base_dram_lines: Vec<u64> = (0..n)
            .map(|i| llc.stats().per_core[i].dram_lines.get())
            .collect();
        let base_bw_delay = bw_delay_cycles_of(&llc, n);

        let target: Vec<u64> = base_retired
            .iter()
            .map(|&b| b + scale.instrs_per_app)
            .collect();
        let mut epoch_curves: Vec<coop_core::MissCurve> = Vec::new();

        let mut finish = {
            let mut port = SharedMem {
                llc: &mut llc,
                dram: &mut dram,
            };
            let policy = &mut policy;
            let epoch_curves = &mut epoch_curves;
            let way_occupancy = &mut way_occupancy;
            let resource_occupancy = &mut resource_occupancy;
            stepper.run(
                &mut cores,
                &mut port,
                &target,
                Cycle(scale.max_cycles),
                |now, cores, port| {
                    if uses_umon {
                        epoch_curves.push(port.llc.umon_curve(CoreId(0)));
                    }
                    drive_epoch(now, cores, port.llc, port.dram, policy.as_mut());
                    let alloc = port.llc.current_allocation();
                    for (acc, w) in way_occupancy.0.iter_mut().zip(alloc) {
                        *acc += w as u64;
                    }
                    way_occupancy.1 += 1;
                    for (i, acc) in resource_occupancy.0.iter_mut().enumerate() {
                        *acc += match port.llc.bandwidth_regulator() {
                            Some(r) => r.share_of(CoreId(i as u8)),
                            None => 1.0,
                        };
                    }
                    for (acc, core) in resource_occupancy.1.iter_mut().zip(cores.iter()) {
                        *acc += core.prefetch_degree() as f64;
                    }
                    EpochControl::Continue
                },
            )
        };
        let end = stepper.now();
        for f in &mut finish {
            // A run capped by max_cycles reports the cap (flagged by tests).
            f.get_or_insert(end);
        }

        // ---- Collect ----------------------------------------------------
        let ipc: Vec<f64> = (0..n)
            .map(|i| {
                let cycles = (finish[i].expect("filled") - window_start).max(1);
                scale.instrs_per_app as f64 / cycles as f64
            })
            .collect();
        let kilo = scale.instrs_per_app as f64 / 1000.0;
        let mpki: Vec<f64> = (0..n)
            .map(|i| (llc.stats().per_core[i].misses.get() - base_misses[i]) as f64 / kilo)
            .collect();
        let apki: Vec<f64> = (0..n)
            .map(|i| (llc.stats().per_core[i].accesses.get() - base_accesses[i]) as f64 / kilo)
            .collect();
        let accesses: Vec<u64> = (0..n)
            .map(|i| llc.stats().per_core[i].accesses.get() - base_accesses[i])
            .collect();
        let counts = minus(llc.energy_counts(end), base_counts);
        let params = EnergyParams::for_llc(cfg.llc.geom.size_bytes(), cfg.llc.geom.ways());
        let flush_series_ts = llc.stats().flush_series.clone();

        // ---- Core-side energy and frequency residency -------------------
        let final_retired: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
        let final_misses = llc_misses(&llc, n);
        let dvfs_window = dvfs_books_base.map(|base| {
            let ctl = dvfs_of(policy.as_mut())
                .expect("the window-start books came from a DVFS policy")
                .controller_mut();
            ctl.settle(end, &final_retired, &final_misses);
            let window = ctl.books().since(&base);
            let fractions: Vec<Vec<f64>> = window
                .ref_cycles
                .iter()
                .map(|row| {
                    let total: u64 = row.iter().sum();
                    if total == 0 {
                        let mut v = vec![0.0; row.len()];
                        v[0] = 1.0;
                        v
                    } else {
                        row.iter().map(|&r| r as f64 / total as f64).collect()
                    }
                })
                .collect();
            (
                ctl.core_energy(&window),
                ctl.avg_freq_ghz(&window),
                fractions,
            )
        });
        let (core_energy, avg_freq_ghz, freq_residency) = match dvfs_window {
            Some(report) => report,
            None => {
                // Every core at nominal V/f for the whole window, at the
                // 45 nm magnitudes the DVFS and CBP controllers also use.
                let p = CoreEnergyParams::for_45nm();
                let window_ns = (end - window_start) as f64 / params.clock_ghz;
                let dynamic_nj: f64 = (0..n)
                    .map(|i| {
                        (final_retired[i] - base_retired[i]) as f64
                            * p.dynamic_nj_per_instr(p.vdd_nom)
                    })
                    .sum();
                let static_nj = p.static_nj(p.vdd_nom, window_ns) * n as f64;
                (
                    CoreEnergyReport {
                        dynamic_nj,
                        static_nj,
                    },
                    vec![params.clock_ghz; n],
                    vec![vec![1.0]; n],
                )
            }
        };
        let avg_ways_owned: Vec<f64> = {
            let (sums, epochs) = &way_occupancy;
            if *epochs == 0 {
                llc.current_allocation().iter().map(|&w| w as f64).collect()
            } else {
                sums.iter().map(|&s| s as f64 / *epochs as f64).collect()
            }
        };
        let (avg_bw_share, avg_prefetch_degree): (Vec<f64>, Vec<f64>) = {
            let epochs = way_occupancy.1;
            if epochs == 0 {
                (
                    (0..n)
                        .map(|i| match llc.bandwidth_regulator() {
                            Some(r) => r.share_of(CoreId(i as u8)),
                            None => 1.0,
                        })
                        .collect(),
                    cores.iter().map(|c| c.prefetch_degree() as f64).collect(),
                )
            } else {
                (
                    resource_occupancy
                        .0
                        .iter()
                        .map(|&s| s / epochs as f64)
                        .collect(),
                    resource_occupancy
                        .1
                        .iter()
                        .map(|&s| s / epochs as f64)
                        .collect(),
                )
            }
        };
        let prefetches: Vec<u64> = cores
            .iter()
            .zip(&base_prefetches)
            .map(|(c, &b)| c.stats().prefetches.get() - b)
            .collect();
        let prefetch_useful: Vec<u64> = cores
            .iter()
            .zip(&base_useful)
            .map(|(c, &b)| c.stats().prefetch_useful.get() - b)
            .collect();
        let dram_lines: Vec<u64> = (0..n)
            .map(|i| llc.stats().per_core[i].dram_lines.get() - base_dram_lines[i])
            .collect();
        let bw_delay_cycles: Vec<u64> = bw_delay_cycles_of(&llc, n)
            .iter()
            .zip(&base_bw_delay)
            .map(|(&a, &b)| a - b)
            .collect();

        RunResult {
            policy: policy.name().to_string(),
            label: policy.label().to_string(),
            workload: workload_label,
            ipc,
            mpki,
            apki,
            accesses,
            counts,
            energy: params.evaluate(&counts),
            avg_ways: llc.avg_ways_consulted(),
            cycles: end - window_start,
            cp_transfer_durations: llc.takeover().durations().to_vec(),
            ucp_transfer_durations: llc.ucp_transfer_durations().to_vec(),
            takeover_events: llc.takeover().event_counts(),
            forced_transfers: llc.takeover().forced_count(),
            flush_lines: llc.stats().flush_lines.get() - base_flush,
            flush_series: flush_series_ts.values().to_vec(),
            flush_bucket: flush_series_ts.bucket_cycles(),
            repartitions: llc.stats().repartitions.get(),
            epoch_curves,
            core_energy,
            avg_freq_ghz,
            freq_residency,
            avg_ways_owned,
            prefetches,
            prefetch_useful,
            dram_lines,
            bw_delay_cycles,
            avg_bw_share,
            avg_prefetch_degree,
        }
    }
}

/// One epoch of the shared control loop: reads the epoch observations,
/// asks the policy for a decision, applies way targets through the LLC's
/// enforcement mode and clock-ratio hints through the cores.
///
/// This is *the* epoch semantics — [`System::run`] and the `inspect` binary
/// both call it, so a policy's decisions (including DVFS clock hints) take
/// effect identically everywhere.
pub fn drive_epoch(
    now: Cycle,
    cores: &mut [Core],
    llc: &mut PartitionedLlc,
    dram: &mut Dram,
    policy: &mut dyn PartitionPolicy,
) -> AllocationDecision {
    let retired: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
    let mut obs = llc.epoch_observations(now, retired);
    // Core-side prefetch counters (the LLC cannot see them).
    obs.prefetches = cores.iter().map(|c| c.stats().prefetches.get()).collect();
    obs.prefetch_useful = cores
        .iter()
        .map(|c| c.stats().prefetch_useful.get())
        .collect();
    let decision = policy.on_epoch(&obs);
    llc.apply_decision(now, dram, &decision);
    if let Some(ratios) = &decision.hints.clock_ratios {
        for (core, &r) in cores.iter_mut().zip(ratios.iter()) {
            core.set_clock_ratio(now, r);
        }
    }
    if let Some(shares) = &decision.hints.bandwidth_shares {
        llc.set_bandwidth_shares(shares);
    }
    if let Some(slots) = &decision.hints.prefetch_slots {
        for (core, &d) in cores.iter_mut().zip(slots.iter()) {
            core.set_prefetch_degree(d);
        }
    }
    decision
}

/// Cumulative per-core LLC misses (for per-epoch observations).
fn llc_misses(llc: &PartitionedLlc, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| llc.stats().per_core[i].misses.get())
        .collect()
}

/// Cumulative per-core regulator delay cycles (zeros when no bandwidth
/// regulator is installed).
fn bw_delay_cycles_of(llc: &PartitionedLlc, n: usize) -> Vec<u64> {
    match llc.bandwidth_regulator() {
        Some(r) => r.stats().iter().map(|s| s.delay_cycles.get()).collect(),
        None => vec![0; n],
    }
}

/// The policy as the concrete DVFS type, when it is one (residency
/// accounting needs the controller's books).
fn dvfs_of(policy: &mut dyn PartitionPolicy) -> Option<&mut DvfsPolicy> {
    (policy as &mut dyn std::any::Any).downcast_mut::<DvfsPolicy>()
}

fn minus(a: EnergyCounts, b: EnergyCounts) -> EnergyCounts {
    EnergyCounts {
        tag_way_probes: a.tag_way_probes - b.tag_way_probes,
        data_reads: a.data_reads - b.data_reads,
        data_writes: a.data_writes - b.data_writes,
        umon_probes: a.umon_probes - b.umon_probes,
        vector_accesses: a.vector_accesses - b.vector_accesses,
        on_way_cycles: a.on_way_cycles - b.on_way_cycles,
        gated_way_cycles: a.gated_way_cycles - b.gated_way_cycles,
        total_cycles: a.total_cycles - b.total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scale() -> SimScale {
        SimScale {
            name: "test",
            warmup_instrs: 20_000,
            instrs_per_app: 60_000,
            epoch_cycles: 20_000,
            max_cycles: 80_000_000,
        }
    }

    #[test]
    fn two_core_run_produces_sane_metrics() {
        let cfg = SystemConfig::two_core(
            vec![Benchmark::Lbm, Benchmark::Namd],
            SchemeKind::FairShare,
            quick_scale(),
        );
        let r = System::new(cfg).run();
        assert_eq!(r.ipc.len(), 2);
        assert!(r.ipc.iter().all(|&i| i > 0.05 && i < 4.0), "{:?}", r.ipc);
        assert!(
            r.mpki[0] > r.mpki[1],
            "lbm misses more than namd: {:?}",
            r.mpki
        );
        assert!(r.counts.tag_way_probes > 0);
        assert!(r.energy.dynamic_nj > 0.0);
        assert_eq!(r.avg_ways, 4.0, "fair share probes its 4 ways");
    }

    #[test]
    fn deterministic_replay() {
        let mk = || {
            SystemConfig::two_core(
                vec![Benchmark::Soplex, Benchmark::Milc],
                SchemeKind::Cooperative,
                quick_scale(),
            )
        };
        let a = System::new(mk()).run();
        let b = System::new(mk()).run();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.takeover_events, b.takeover_events);
    }

    #[test]
    fn unmanaged_probes_all_ways_cooperative_fewer() {
        let scale = quick_scale();
        let un = System::new(SystemConfig::two_core(
            vec![Benchmark::Soplex, Benchmark::Namd],
            SchemeKind::Unmanaged,
            scale,
        ))
        .run();
        let cp = System::new(SystemConfig::two_core(
            vec![Benchmark::Soplex, Benchmark::Namd],
            SchemeKind::Cooperative,
            scale,
        ))
        .run();
        assert_eq!(un.avg_ways, 8.0);
        assert!(
            cp.avg_ways < 6.0,
            "cooperative should probe far fewer ways: {}",
            cp.avg_ways
        );
    }

    #[test]
    fn dvfs_run_reports_residency_and_cuts_core_dynamic_energy() {
        let mk = |policy: &str| {
            System::builder()
                .workload("lbm,namd")
                .policy(policy)
                .qos_slack(0.20)
                .scale(quick_scale())
                .build()
                .run()
        };
        let base = mk("cooperative");
        let r = mk("dvfs");
        // Residency fractions are a distribution per core.
        assert_eq!(r.freq_residency.len(), 2);
        for row in &r.freq_residency {
            assert_eq!(row.len(), 5, "five V/f points");
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{row:?}");
        }
        assert!(
            r.avg_freq_ghz.iter().all(|&f| (1.2..=2.0).contains(&f)),
            "{:?}",
            r.avg_freq_ghz
        );
        assert!(
            r.avg_freq_ghz.iter().any(|&f| f < 2.0),
            "somebody should leave nominal frequency: {:?}",
            r.avg_freq_ghz
        );
        // Same instruction count at equal-or-lower voltage: dynamic core
        // energy can only fall.
        assert!(
            r.core_energy.dynamic_nj <= base.core_energy.dynamic_nj + 1e-6,
            "{} vs {}",
            r.core_energy.dynamic_nj,
            base.core_energy.dynamic_nj
        );
        // The baseline books everything at nominal.
        assert_eq!(base.freq_residency, vec![vec![1.0]; 2]);
        assert!(base.core_energy.total_nj() > 0.0);
        assert!(
            r.avg_ways_owned.iter().all(|&w| w >= 1.0),
            "{:?}",
            r.avg_ways_owned
        );
    }

    #[test]
    fn dvfs_replay_is_deterministic() {
        let mk = || {
            System::builder()
                .workload("soplex,milc")
                .policy("dvfs")
                .qos_slack(0.10)
                .scale(quick_scale())
                .build()
                .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.freq_residency, b.freq_residency);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn solo_run_yields_profile_curves() {
        let cfg = SystemConfig::solo(
            Benchmark::Gcc,
            coop_core::LlcConfig::two_core(SchemeKind::Ucp),
            quick_scale(),
        );
        let r = System::new(cfg).run();
        assert!(!r.epoch_curves.is_empty(), "profiles captured per epoch");
        assert_eq!(r.ipc.len(), 1);
    }
}
