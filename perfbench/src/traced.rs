//! The traced run: one cell assembled from the crates' public parts,
//! with host time attributed to layers from outside.
//!
//! On the 2-vCPU Xeon VM of `BASELINE.json` a single `Instant::now()`
//! costs 35-80 ns, as much as generating one synthetic instruction or
//! more (~35 ns), so spans sit only at cell and epoch boundaries. The
//! per-instruction and per-access layers are counted at their boundaries
//! instead and timed by replay:
//!
//! * **generation** — a counting wrapper around each member's factory
//!   counts the instructions the cores pull; regenerating exactly that
//!   many from the same seeds gives the layer's time;
//! * **memory** (LLC, UMON, takeover, DRAM, MSHRs, bandwidth regulator)
//!   — a recording `LlcPort` logs every call with its returned fill
//!   cycle, and every epoch's decision; replaying the log into a fresh
//!   `PartitionedLlc` + `Dram` gives the layer's time and must reproduce
//!   every fill cycle;
//! * **policy** — the cell's policy behind a wrapper that times
//!   `PartitionPolicy::on_epoch` (decide), inside a span around
//!   `harness::drive_epoch` (the rest of it is apply);
//! * **core stepping** — the traced cell's time minus the others.
//!
//! The assembly mirrors `harness::System::run` step for step, and its
//! `RunResult` must equal the untraced run's field for field, or it would
//! measure a different program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use coop_core::policy::{DynamicCpePolicy, PartitionPolicy};
use coop_core::{
    AllocationDecision, EnforcementMode, EpochObservations, LlcConfig, MissCurve, PartitionedLlc,
    PolicySpec, SchemeKind,
};
use coop_dvfs::{DvfsConfig, DvfsPolicy, Residency};
use cpusim::{
    Core, CoreConfig, EpochControl, Instr, InstrSource, LlcPort, StepperKind, SystemStepper,
};
use energy::{CoreEnergyParams, CoreEnergyReport, EnergyCounts, EnergyParams};
use harness::RunResult;
use memsim::{Dram, DramConfig};
use simkit::types::{CoreId, Cycle, LineAddr};
use workloads::{WorkloadFactory, WorkloadSource};

use crate::suite::{member_seed, Cell, Suite};

/// A factory that counts the instructions its sources hand out.
struct Counting {
    inner: Arc<dyn WorkloadFactory>,
    pulled: Arc<AtomicU64>,
}

struct CountingSource {
    inner: WorkloadSource,
    pulled: u64,
    total: Arc<AtomicU64>,
}

impl InstrSource for CountingSource {
    fn next_instr(&mut self) -> Instr {
        self.pulled += 1;
        self.inner.next_instr()
    }
}

impl Drop for CountingSource {
    fn drop(&mut self) {
        // A statistic read after the run ends; it publishes nothing else.
        self.total.fetch_add(self.pulled, Ordering::Relaxed);
    }
}

impl WorkloadFactory for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn summary(&self) -> String {
        self.inner.summary()
    }

    fn source(&self, seed: u64) -> WorkloadSource {
        Box::new(CountingSource {
            inner: self.inner.source(seed),
            pulled: 0,
            total: Arc::clone(&self.pulled),
        })
    }
}

/// One recorded call into the memory layer.
#[derive(Debug, Clone)]
pub enum Event {
    /// `PartitionedLlc::access` and the fill cycle it returned.
    Access {
        now: Cycle,
        core: CoreId,
        line: LineAddr,
        write: bool,
        done: Cycle,
    },
    /// `PartitionedLlc::prefetch` and the fill cycle it returned.
    Prefetch {
        now: Cycle,
        core: CoreId,
        line: LineAddr,
        done: Cycle,
    },
    /// `PartitionedLlc::writeback`.
    Writeback {
        now: Cycle,
        core: CoreId,
        line: LineAddr,
    },
    /// An epoch's decision as applied to the LLC.
    Epoch(Box<(Cycle, AllocationDecision)>),
    /// `PartitionedLlc::energy_counts`, which advances way-power books.
    Energy(Cycle),
}

/// The memory layer behind a port that logs every call.
struct RecordingPort<'a> {
    llc: &'a mut PartitionedLlc,
    dram: &'a mut Dram,
    log: &'a mut Vec<Event>,
}

impl LlcPort for RecordingPort<'_> {
    fn access(&mut self, now: Cycle, core: CoreId, line: LineAddr, write: bool) -> Cycle {
        let done = self.llc.access(now, core, line, write, self.dram);
        self.log.push(Event::Access {
            now,
            core,
            line,
            write,
            done,
        });
        done
    }

    fn prefetch(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Cycle {
        let done = self.llc.prefetch(now, core, line, self.dram);
        self.log.push(Event::Prefetch {
            now,
            core,
            line,
            done,
        });
        done
    }

    fn writeback(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.llc.writeback(now, core, line, self.dram);
        self.log.push(Event::Writeback { now, core, line });
    }
}

/// Per-layer work and time of one traced cell (or a sum over cells).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Host seconds of the traced cell, assembly included.
    pub cell_s: f64,
    /// Instructions the cores pulled from their sources.
    pub instrs: u64,
    /// Seconds regenerating `instrs` from the same seeds.
    pub gen_s: f64,
    /// Instructions the cores retired.
    pub retired: u64,
    /// Simulated cycles, warm-up included.
    pub sim_cycles: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l1i_accesses: u64,
    pub l1i_misses: u64,
    pub rob_stalls: u64,
    pub lsq_stalls: u64,
    pub redirect_cycles: u64,
    pub prefetch_issued: u64,
    pub prefetch_useful: u64,
    /// Memory-layer calls (demand accesses, prefetches, write-backs).
    pub llc_calls: u64,
    /// Seconds replaying those calls, epoch applications excluded.
    pub llc_s: f64,
    pub llc_accesses: u64,
    pub llc_misses: u64,
    /// Demand accesses times ways probed (for the run-wide average).
    pub llc_ways_probed: f64,
    pub umon_probes: u64,
    pub flush_lines: u64,
    pub takeover_events: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_queue_cycles: u64,
    pub bw_delayed: u64,
    pub bw_delay_cycles: u64,
    pub decisions: u64,
    pub repartitions: u64,
    pub decide_s: f64,
    pub apply_s: f64,
    /// Replayed calls whose fill cycle or end state differed.
    pub replay_mismatches: u64,
}

impl Layers {
    /// Core stepping: the traced cell's time minus the other layers'.
    pub fn step_s(&self) -> f64 {
        self.cell_s - self.gen_s - self.llc_s - self.decide_s - self.apply_s
    }

    /// Accumulates another cell.
    pub fn add(&mut self, o: &Layers) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            cell_s,
            instrs,
            gen_s,
            retired,
            sim_cycles,
            l1d_accesses,
            l1d_misses,
            l1i_accesses,
            l1i_misses,
            rob_stalls,
            lsq_stalls,
            redirect_cycles,
            prefetch_issued,
            prefetch_useful,
            llc_calls,
            llc_s,
            llc_accesses,
            llc_misses,
            llc_ways_probed,
            umon_probes,
            flush_lines,
            takeover_events,
            dram_reads,
            dram_writes,
            dram_queue_cycles,
            bw_delayed,
            bw_delay_cycles,
            decisions,
            repartitions,
            decide_s,
            apply_s,
            replay_mismatches
        );
    }
}

/// What a traced cell produced.
pub struct Traced {
    /// The cell's result, assembled as `System::run` assembles it; it
    /// must equal the untraced run's.
    pub result: RunResult,
    /// Per-layer work and time.
    pub layers: Layers,
}

/// The cell's policy behind a span around `on_epoch`; every other method
/// forwards. `drive` runs `harness::drive_epoch` under a second span, so
/// an epoch's decision time is `decide_s` and the rest of it (reading
/// the observations, applying the decision) is `epoch_s - decide_s`.
#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn PartitionPolicy>,
    decide_s: f64,
    epoch_s: f64,
}

impl PartitionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn enforcement(&self) -> EnforcementMode {
        self.inner.enforcement()
    }

    fn uses_umon(&self) -> bool {
        self.inner.uses_umon()
    }

    fn on_epoch(&mut self, obs: &EpochObservations) -> AllocationDecision {
        let t = Instant::now();
        let decision = self.inner.on_epoch(obs);
        self.decide_s += t.elapsed().as_secs_f64();
        decision
    }
}

impl TimedPolicy {
    /// One epoch through `harness::drive_epoch`, its decision logged.
    fn drive(&mut self, now: Cycle, cores: &mut [Core], port: &mut RecordingPort<'_>) {
        let t = Instant::now();
        let decision = harness::drive_epoch(now, cores, port.llc, port.dram, self);
        self.epoch_s += t.elapsed().as_secs_f64();
        port.log.push(Event::Epoch(Box::new((now, decision))));
    }

    fn dvfs(&mut self) -> Option<&mut DvfsPolicy> {
        (self.inner.as_mut() as &mut dyn std::any::Any).downcast_mut::<DvfsPolicy>()
    }
}

/// Per-epoch sums of way targets, bandwidth shares and prefetch degrees
/// over the measured epochs, as `System::run` keeps them.
struct Occupancy {
    ways: Vec<u64>,
    bw: Vec<f64>,
    degree: Vec<f64>,
    epochs: u64,
}

impl Occupancy {
    fn new(n: usize) -> Occupancy {
        Occupancy {
            ways: vec![0; n],
            bw: vec![0.0; n],
            degree: vec![0.0; n],
            epochs: 0,
        }
    }

    fn add(&mut self, llc: &PartitionedLlc, cores: &[Core]) {
        for (acc, w) in self.ways.iter_mut().zip(llc.current_allocation()) {
            *acc += w as u64;
        }
        self.epochs += 1;
        for (i, acc) in self.bw.iter_mut().enumerate() {
            *acc += bw_share(llc, i);
        }
        for (acc, core) in self.degree.iter_mut().zip(cores) {
            *acc += core.prefetch_degree() as f64;
        }
    }

    /// Average ways owned, bandwidth share and prefetch degree; the
    /// current values when no epoch was measured.
    fn averages(&self, llc: &PartitionedLlc, cores: &[Core]) -> [Vec<f64>; 3] {
        if self.epochs == 0 {
            return [
                llc.current_allocation().iter().map(|&w| w as f64).collect(),
                (0..cores.len()).map(|i| bw_share(llc, i)).collect(),
                cores.iter().map(|c| c.prefetch_degree() as f64).collect(),
            ];
        }
        let avg = |v: &[f64]| v.iter().map(|&s| s / self.epochs as f64).collect();
        let ways: Vec<f64> = self.ways.iter().map(|&w| w as f64).collect();
        [avg(&ways), avg(&self.bw), avg(&self.degree)]
    }
}

fn bw_share(llc: &PartitionedLlc, core: usize) -> f64 {
    llc.bandwidth_regulator()
        .map_or(1.0, |r| r.share_of(CoreId(core as u8)))
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

/// The LLC side of a decision, in `harness::drive_epoch`'s order: way
/// targets, then bandwidth shares.
fn apply(llc: &mut PartitionedLlc, dram: &mut Dram, now: Cycle, decision: &AllocationDecision) {
    llc.apply_decision(now, dram, decision);
    if let Some(shares) = &decision.hints.bandwidth_shares {
        llc.set_bandwidth_shares(shares);
    }
}

fn llc_misses(llc: &PartitionedLlc, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| llc.stats().per_core[i].misses.get())
        .collect()
}

fn bw_delay_of(llc: &PartitionedLlc, n: usize) -> Vec<u64> {
    match llc.bandwidth_regulator() {
        Some(r) => r.stats().iter().map(|s| s.delay_cycles.get()).collect(),
        None => vec![0; n],
    }
}

/// The policy, LLC configuration and core power parameters
/// `SystemBuilder::try_build` derives for `cell`.
fn policy_for(
    suite: &Suite,
    cell: &Cell,
    n: usize,
) -> (Box<dyn PartitionPolicy>, LlcConfig, CoreEnergyParams) {
    let registry = harness::policy_registry();
    let canonical = registry
        .resolve(cell.policy)
        .expect("benchmark policies are registered");
    let scheme = registry
        .entry(canonical)
        .and_then(|e| e.scheme)
        .unwrap_or(SchemeKind::Cooperative);
    let mut llc = LlcConfig::for_cores(n, scheme).with_epoch(suite.scale.epoch_cycles);
    llc.scheme = scheme;
    let spec = PolicySpec::for_llc(&llc, n).with_qos_slack(cell.slack);
    let mut policy = registry
        .build(canonical, &spec)
        .expect("resolved names build");
    if let Some(p) = (policy.as_mut() as &mut dyn std::any::Any).downcast_mut::<DynamicCpePolicy>()
    {
        p.set_profile(suite.groups[cell.group].cpe.clone());
    }
    let core_power = if canonical == "dvfs" || canonical == "cbp" {
        DvfsConfig::paper_default(cell.slack).costs.core
    } else {
        CoreEnergyParams::for_45nm()
    };
    (policy, llc, core_power)
}

/// Runs `cell` traced. `corrupt_replay` perturbs one recorded fill cycle
/// before the replay, to show that the replay check gates.
pub fn run_cell(suite: &Suite, cell: &Cell, corrupt_replay: bool) -> Traced {
    let started = Instant::now();
    let group = &suite.groups[cell.group];
    let n = group.workload.cores();
    let scale = suite.scale;
    let (policy, llc_cfg, core_power) = policy_for(suite, cell, n);
    let mode = policy.enforcement();
    let uses_umon = policy.uses_umon();
    let pulled: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut cores: Vec<Core> = group
        .workload
        .members
        .iter()
        .zip(&pulled)
        .enumerate()
        .map(|(i, (m, p))| {
            let counting = Counting {
                inner: Arc::clone(m),
                pulled: Arc::clone(p),
            };
            Core::new(
                CoreId(i as u8),
                CoreConfig::default(),
                counting.source(member_seed(suite.seed, i)),
            )
        })
        .collect();
    let mut llc = PartitionedLlc::for_policy(llc_cfg, n, policy.as_ref());
    let mut dram = Dram::new(DramConfig::default());
    let mut log: Vec<Event> = Vec::new();
    let mut stepper = SystemStepper::new(StepperKind::EventDriven, llc_cfg.epoch_cycles);
    let mut policy = TimedPolicy {
        inner: policy,
        decide_s: 0.0,
        epoch_s: 0.0,
    };

    // Warm-up, exactly as `System::run`.
    {
        let mut port = RecordingPort {
            llc: &mut llc,
            dram: &mut dram,
            log: &mut log,
        };
        let warm = vec![scale.warmup_instrs; n];
        stepper.run(
            &mut cores,
            &mut port,
            &warm,
            Cycle(scale.max_cycles / 2),
            |now, cores, port| {
                policy.drive(now, cores, port);
                EpochControl::Continue
            },
        );
    }

    // Window start.
    let window_start = stepper.now();
    let base_retired: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
    let base_misses = llc_misses(&llc, n);
    let dvfs_books_base: Option<Residency> = policy.dvfs().map(|p| {
        let ctl = p.controller_mut();
        ctl.settle(window_start, &base_retired, &base_misses);
        ctl.books().clone()
    });
    let base_accesses: Vec<u64> = (0..n)
        .map(|i| llc.stats().per_core[i].accesses.get())
        .collect();
    let base_flush = llc.stats().flush_lines.get();
    log.push(Event::Energy(window_start));
    let base_counts = llc.energy_counts(window_start);
    let base_prefetches: Vec<u64> = cores.iter().map(|c| c.stats().prefetches.get()).collect();
    let base_useful: Vec<u64> = cores
        .iter()
        .map(|c| c.stats().prefetch_useful.get())
        .collect();
    let base_dram_lines: Vec<u64> = (0..n)
        .map(|i| llc.stats().per_core[i].dram_lines.get())
        .collect();
    let base_bw_delay = bw_delay_of(&llc, n);
    let target: Vec<u64> = base_retired
        .iter()
        .map(|&b| b + scale.instrs_per_app)
        .collect();
    let mut epoch_curves: Vec<MissCurve> = Vec::new();
    let mut occupancy = Occupancy::new(n);

    // Measurement window.
    let mut finish = {
        let mut port = RecordingPort {
            llc: &mut llc,
            dram: &mut dram,
            log: &mut log,
        };
        stepper.run(
            &mut cores,
            &mut port,
            &target,
            Cycle(scale.max_cycles),
            |now, cores, port| {
                if uses_umon {
                    epoch_curves.push(port.llc.umon_curve(CoreId(0)));
                }
                policy.drive(now, cores, port);
                occupancy.add(port.llc, cores);
                EpochControl::Continue
            },
        )
    };
    let end = stepper.now();
    for f in &mut finish {
        f.get_or_insert(end);
    }

    // Collect, exactly as `System::run`.
    let kilo = scale.instrs_per_app as f64 / 1000.0;
    let per_core_delta = |f: &dyn Fn(usize) -> u64, base: &[u64]| -> Vec<u64> {
        (0..n).map(|i| f(i) - base[i]).collect()
    };
    let misses = per_core_delta(&|i| llc.stats().per_core[i].misses.get(), &base_misses);
    let accesses = per_core_delta(&|i| llc.stats().per_core[i].accesses.get(), &base_accesses);
    log.push(Event::Energy(end));
    let end_counts = llc.energy_counts(end);
    let counts = minus(end_counts, base_counts);
    let params = EnergyParams::for_llc(llc_cfg.geom.size_bytes(), llc_cfg.geom.ways());
    let flush_series = llc.stats().flush_series.clone();
    let final_retired: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
    let final_misses = llc_misses(&llc, n);
    let (core_energy, avg_freq_ghz, freq_residency) = match dvfs_books_base {
        Some(base) => {
            let ctl = policy
                .dvfs()
                .expect("the window-start books came from a DVFS policy")
                .controller_mut();
            ctl.settle(end, &final_retired, &final_misses);
            let window = ctl.books().since(&base);
            let fractions = window
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
        }
        None => {
            let p = core_power;
            let window_ns = (end - window_start) as f64 / params.clock_ghz;
            let dynamic_nj: f64 = (0..n)
                .map(|i| {
                    (final_retired[i] - base_retired[i]) as f64 * p.dynamic_nj_per_instr(p.vdd_nom)
                })
                .sum();
            (
                CoreEnergyReport {
                    dynamic_nj,
                    static_nj: p.static_nj(p.vdd_nom, window_ns) * n as f64,
                },
                vec![params.clock_ghz; n],
                vec![vec![1.0]; n],
            )
        }
    };
    let [avg_ways_owned, avg_bw_share, avg_prefetch_degree] = occupancy.averages(&llc, &cores);
    let result = RunResult {
        policy: policy.name().to_string(),
        label: policy.label().to_string(),
        workload: group.workload.label.clone(),
        ipc: finish
            .iter()
            .map(|f| {
                let cycles = (f.expect("filled") - window_start).max(1);
                scale.instrs_per_app as f64 / cycles as f64
            })
            .collect(),
        mpki: misses.iter().map(|&m| m as f64 / kilo).collect(),
        apki: accesses.iter().map(|&a| a as f64 / kilo).collect(),
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
        flush_series: flush_series.values().to_vec(),
        flush_bucket: flush_series.bucket_cycles(),
        repartitions: llc.stats().repartitions.get(),
        epoch_curves,
        core_energy,
        avg_freq_ghz,
        freq_residency,
        avg_ways_owned,
        prefetches: per_core_delta(&|i| cores[i].stats().prefetches.get(), &base_prefetches),
        prefetch_useful: per_core_delta(&|i| cores[i].stats().prefetch_useful.get(), &base_useful),
        dram_lines: per_core_delta(
            &|i| llc.stats().per_core[i].dram_lines.get(),
            &base_dram_lines,
        ),
        bw_delay_cycles: bw_delay_of(&llc, n)
            .iter()
            .zip(&base_bw_delay)
            .map(|(&a, &b)| a - b)
            .collect(),
        avg_bw_share,
        avg_prefetch_degree,
    };
    let core_stats = cores
        .iter()
        .map(|c| (*c.stats(), *c.l1d_stats(), *c.l1i_stats()));
    let mut layers = Layers {
        retired: final_retired.iter().sum(),
        sim_cycles: end.raw(),
        decide_s: policy.decide_s,
        apply_s: policy.epoch_s - policy.decide_s,
        decisions: llc.stats().decisions.get(),
        repartitions: llc.stats().repartitions.get(),
        ..Layers::default()
    };
    for (s, d, i) in core_stats {
        layers.l1d_accesses += d.accesses();
        layers.l1d_misses += d.misses.get();
        layers.l1i_accesses += i.accesses();
        layers.l1i_misses += i.misses.get();
        layers.rob_stalls += s.rob_stalls.get();
        layers.lsq_stalls += s.lsq_stalls.get();
        layers.redirect_cycles += s.redirect_cycles.get();
        layers.prefetch_issued += s.prefetches.get();
        layers.prefetch_useful += s.prefetch_useful.get();
    }
    drop(cores); // flushes the instruction counts
    layers.cell_s = started.elapsed().as_secs_f64();
    layers.instrs = pulled.iter().map(|p| p.load(Ordering::Relaxed)).sum();

    // Generation: regenerate exactly the pulled counts from the same seeds.
    let t = Instant::now();
    for (i, (m, p)) in group.workload.members.iter().zip(&pulled).enumerate() {
        let mut src = m.source(member_seed(suite.seed, i));
        for _ in 0..p.load(Ordering::Relaxed) {
            std::hint::black_box(src.next_instr());
        }
    }
    layers.gen_s = t.elapsed().as_secs_f64();

    // Memory: replay the log into a fresh LLC + DRAM.
    if corrupt_replay {
        if let Some(Event::Access { done, .. }) =
            log.iter_mut().find(|e| matches!(e, Event::Access { .. }))
        {
            *done += 1;
        }
    }
    let mut fresh = PartitionedLlc::mechanism(llc_cfg, n, mode, uses_umon);
    let mut fresh_dram = Dram::new(DramConfig::default());
    let (llc_s, mismatches) = replay(&log, &mut fresh, &mut fresh_dram);
    layers.llc_s = llc_s;
    layers.replay_mismatches = mismatches
        + u64::from(!same_memory_state(
            &llc,
            &dram,
            &mut fresh,
            &fresh_dram,
            end,
            end_counts,
        ));
    layers.llc_calls = log
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Access { .. } | Event::Prefetch { .. } | Event::Writeback { .. }
            )
        })
        .count() as u64;
    let stats = llc.stats();
    layers.llc_accesses = stats.total_accesses();
    layers.llc_misses = stats.total_misses();
    layers.llc_ways_probed = llc.avg_ways_consulted() * stats.total_accesses() as f64;
    layers.umon_probes = end_counts.umon_probes;
    layers.flush_lines = stats.flush_lines.get();
    layers.takeover_events = llc.takeover().event_counts().iter().sum();
    layers.dram_reads = dram.stats().reads.get();
    layers.dram_writes = dram.stats().writes.get();
    layers.dram_queue_cycles = dram.stats().queue_cycles.get();
    if let Some(r) = llc.bandwidth_regulator() {
        layers.bw_delayed = r.stats().iter().map(|s| s.delayed.get()).sum();
        layers.bw_delay_cycles = r.stats().iter().map(|s| s.delay_cycles.get()).sum();
    }
    Traced { result, layers }
}

/// Replays `log`, returning the seconds spent on the port calls (epoch
/// applications excluded; they are the policy layer's) and the number
/// of calls whose fill cycle differed from the recording.
fn replay(log: &[Event], llc: &mut PartitionedLlc, dram: &mut Dram) -> (f64, u64) {
    let mut mismatches = 0u64;
    let mut epoch_s = 0.0;
    let t = Instant::now();
    for e in log {
        match e {
            &Event::Access {
                now,
                core,
                line,
                write,
                done,
            } => mismatches += u64::from(llc.access(now, core, line, write, dram) != done),
            &Event::Prefetch {
                now,
                core,
                line,
                done,
            } => mismatches += u64::from(llc.prefetch(now, core, line, dram) != done),
            &Event::Writeback { now, core, line } => llc.writeback(now, core, line, dram),
            Event::Epoch(b) => {
                let e = Instant::now();
                apply(llc, dram, b.0, &b.1);
                epoch_s += e.elapsed().as_secs_f64();
            }
            &Event::Energy(now) => {
                std::hint::black_box(llc.energy_counts(now));
            }
        }
    }
    (t.elapsed().as_secs_f64() - epoch_s, mismatches)
}

/// Whether the replayed memory layer ended where the traced one did.
fn same_memory_state(
    llc: &PartitionedLlc,
    dram: &Dram,
    fresh: &mut PartitionedLlc,
    fresh_dram: &Dram,
    end: Cycle,
    end_counts: EnergyCounts,
) -> bool {
    let per_core = |s: &coop_core::LlcStats| {
        s.per_core
            .iter()
            .map(|c| {
                (
                    c.accesses.get(),
                    c.misses.get(),
                    c.prefetch_fills.get(),
                    c.dram_lines.get(),
                )
            })
            .collect::<Vec<_>>()
    };
    let dram_stats = |d: &Dram| {
        let s = d.stats();
        (s.reads.get(), s.writes.get(), s.queue_cycles.get())
    };
    let (a, b) = (llc.stats(), fresh.stats());
    per_core(a) == per_core(b)
        && a.flush_lines.get() == b.flush_lines.get()
        && a.repartitions.get() == b.repartitions.get()
        && dram_stats(dram) == dram_stats(fresh_dram)
        && llc.current_allocation() == fresh.current_allocation()
        && fresh.energy_counts(end) == end_counts
}
