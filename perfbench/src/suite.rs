//! The benchmark's workloads: which cells each one runs, and the set-up
//! they need before the first timed pass (workload resolution, solo
//! baselines, Dynamic CPE profiles, and for `trace-miss` the recorded,
//! encoded and re-parsed member traces).

use std::sync::Arc;
use std::time::Instant;

use coop_core::cpe::CpeProfile;
use cpusim::{Instr, StepperKind};
use harness::solo::solo_llc;
use harness::{RunResult, SimScale, System};
use workloads::{Benchmark, ResolvedWorkload, TraceWorkload, WorkloadFactory};

/// The five paper schemes, in the order `repro fig5_10` runs them.
const PAPER_POLICIES: [&str; 5] = coop_core::PAPER_POLICIES;

/// QoS slacks of the `cbp_energy` experiment.
const CBP_SLACKS: [f64; 3] = [0.05, 0.10, 0.20];

/// The builder's default QoS slack, used by every policy that ignores it.
const DEFAULT_SLACK: f64 = 0.10;

/// Instructions recorded per `trace-miss` member. A trace rewinds when a
/// core exhausts it, and a short one that repeats stops missing like its
/// synthetic source; at 1M instructions the re-parsed members' solo MPKI
/// stays within a few percent of the synthetic members'.
const TRACE_INSTRS: usize = 1_000_000;

/// The named workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["paper-synth", "trace-miss", "multi-resource"];

/// One cell: a group under a policy at a QoS slack.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Suite::groups`].
    pub group: usize,
    /// Policy registry name.
    pub policy: &'static str,
    /// QoS slack handed to the builder.
    pub slack: f64,
}

/// A Table 4 group as this workload runs it.
pub struct Group {
    /// Table 4 name, e.g. `"G2-1"`.
    pub name: &'static str,
    /// The member benchmarks, in core order.
    pub benchmarks: Vec<Benchmark>,
    /// What the cores run: the synthetic members, or their re-parsed
    /// traces.
    pub workload: ResolvedWorkload,
    /// Solo IPC per member (weighted-speedup baseline).
    pub ipc_alone: Vec<f64>,
    /// Solo MPKI per member (compared against Table 3).
    pub solo_mpki: Vec<f64>,
    /// Per-member solo epoch curves, for the `cpe` policy.
    pub cpe: CpeProfile,
}

/// A workload ready to run: its groups, cells and scale.
pub struct Suite {
    /// Workload name.
    pub name: &'static str,
    /// Simulation scale of every cell.
    pub scale: SimScale,
    /// Root seed handed to every `SystemBuilder`.
    pub seed: u64,
    /// Groups in cell order.
    pub groups: Vec<Group>,
    /// Cells in run order.
    pub cells: Vec<Cell>,
    /// Seconds spent parsing encoded traces during set-up (0 for the
    /// synthetic workloads).
    pub trace_parse_s: f64,
}

/// Which groups a workload runs, under which policies and slacks, and
/// whether its members replay recorded traces.
struct Plan {
    groups: Vec<&'static str>,
    policies: Vec<(&'static str, f64)>,
    traced: bool,
}

fn plan(name: &str) -> Option<Plan> {
    let paper = PAPER_POLICIES.iter().map(|&p| (p, DEFAULT_SLACK)).collect();
    match name {
        // Low- and high-MPKI groups, 2-core and 4-core, the traffic
        // `repro fig5_10` serves.
        "paper-synth" => Some(Plan {
            groups: vec!["G2-1", "G2-5", "G4-1", "G4-3"],
            policies: paper,
            traced: false,
        }),
        // Memory-heavy 4-core mixes replayed from traces.
        "trace-miss" => Some(Plan {
            groups: vec!["G4-1", "G4-2", "G4-5", "G4-9"],
            policies: vec![("cooperative", DEFAULT_SLACK), ("ucp", DEFAULT_SLACK)],
            traced: true,
        }),
        // The Cooperative baseline plus both coordinators at every
        // `cbp_energy` slack.
        "multi-resource" => {
            let mut policies = vec![("cooperative", DEFAULT_SLACK)];
            for s in CBP_SLACKS {
                policies.push(("dvfs", s));
                policies.push(("cbp", s));
            }
            Some(Plan {
                groups: vec!["G2-1", "G2-4", "G2-7"],
                policies,
                traced: false,
            })
        }
        _ => None,
    }
}

fn table4(name: &str) -> Vec<Benchmark> {
    workloads::two_core_groups()
        .into_iter()
        .chain(workloads::four_core_groups())
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("{name} is a Table 4 group"))
        .benchmarks
}

/// The seed of core `i`'s stream, exactly as `System` derives it.
pub fn member_seed(seed: u64, i: usize) -> u64 {
    seed ^ ((i as u64) << 32)
}

/// Records `instrs` instructions of `factory`'s stream at `seed`.
fn record(factory: &Arc<dyn WorkloadFactory>, seed: u64, instrs: usize) -> Vec<Instr> {
    let mut src = factory.source(seed);
    (0..instrs).map(|_| src.next_instr()).collect()
}

/// Builds workload `name` at `seed`: resolves its groups, records traces
/// where the workload replays them, and runs every member's solo
/// baseline. `None` for an unknown name.
pub fn setup(name: &str, seed: u64, scale: SimScale) -> Option<Suite> {
    let Plan {
        groups: group_names,
        policies,
        traced,
    } = plan(name)?;
    let name = NAMES.iter().copied().find(|&n| n == name)?;
    let registry = harness::workload_registry();
    let mut trace_parse_s = 0.0;
    let mut groups = Vec::new();
    for gname in group_names {
        let resolved = registry
            .resolve(gname)
            .unwrap_or_else(|e| panic!("{gname} resolves: {e}"));
        let workload = if traced {
            let members = resolved
                .members
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let bytes =
                        cpusim::trace::encode_trace(&record(m, member_seed(seed, i), TRACE_INSTRS));
                    let t = Instant::now();
                    let parsed =
                        cpusim::trace::parse_trace(&bytes).expect("an encoded trace parses back");
                    trace_parse_s += t.elapsed().as_secs_f64();
                    Arc::new(TraceWorkload::new(
                        format!("trace:{}#{i}", m.name()),
                        parsed,
                    )) as Arc<dyn WorkloadFactory>
                })
                .collect();
            ResolvedWorkload {
                label: format!("{gname}/trace"),
                members,
            }
        } else {
            resolved
        };
        let solos: Vec<RunResult> = workload
            .members
            .iter()
            .map(|m| solo(m, workload.cores(), scale, seed))
            .collect();
        groups.push(Group {
            name: gname,
            benchmarks: table4(gname),
            ipc_alone: solos.iter().map(|r| r.ipc[0]).collect(),
            solo_mpki: solos.iter().map(|r| r.mpki[0]).collect(),
            cpe: CpeProfile {
                curves: solos.into_iter().map(|r| r.epoch_curves).collect(),
            },
            workload,
        });
    }
    let cells = (0..groups.len())
        .flat_map(|g| {
            policies.iter().map(move |&(policy, slack)| Cell {
                group: g,
                policy,
                slack,
            })
        })
        .collect();
    Some(Suite {
        name,
        scale,
        seed,
        groups,
        cells,
        trace_parse_s,
    })
}

/// One member alone in the cache geometry of a `cores`-core system, as
/// `harness::solo` runs baselines, but at this benchmark's seed.
fn solo(member: &Arc<dyn WorkloadFactory>, cores: usize, scale: SimScale, seed: u64) -> RunResult {
    System::builder()
        .workload_resolved(ResolvedWorkload::single(Arc::clone(member)))
        .policy("ucp")
        .llc(solo_llc(cores))
        .scale(scale)
        .seed(seed)
        .build()
        .run()
}

impl Suite {
    /// Builds `cell`'s system through the public builder path.
    pub fn build(&self, cell: &Cell, scale: SimScale, stepper: StepperKind) -> System {
        let group = &self.groups[cell.group];
        let mut sys = System::builder()
            .workload_resolved(group.workload.clone())
            .policy(cell.policy)
            .qos_slack(cell.slack)
            .scale(scale)
            .seed(self.seed)
            .stepper(stepper)
            .build();
        if cell.policy == "cpe" {
            sys.set_cpe_profile(group.cpe.clone());
        }
        sys
    }

    /// Instructions a pass measures: cores × `instrs_per_app` per cell.
    pub fn measured_instrs(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| self.groups[c.group].workload.cores() as u64 * self.scale.instrs_per_app)
            .sum()
    }

    /// A short label for `cell`.
    pub fn label(&self, cell: &Cell) -> String {
        format!(
            "{}/{}@{:.2}",
            self.groups[cell.group].name, cell.policy, cell.slack
        )
    }
}
