//! The simulator benchmark: named workloads run through the public
//! `harness::System::builder()` path, one cell after another on one
//! thread, with output checks on every pass.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times whole passes and prints the end-to-end metrics;
//! `--trace 1` runs every cell untraced and traced, back to back, in
//! rounds, and prints the per-layer breakdown (see `traced`). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check
//! passed.
//!
//! `--inject digest|replay|cap` perturbs one check's input — a result
//! between passes, a recorded fill cycle, or one cell's cycle cap — to
//! show that the check fails the run.

// Host time is what this benchmark measures; it never reaches simulated
// state (the crates' clippy.toml bans wall-clock reads in the simulator).
#![allow(clippy::disallowed_methods)]

mod checks;
mod hostclock;
mod suite;
mod traced;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use cpusim::StepperKind;
use fleet::ResultsStore;
use harness::{RunResult, SimScale};

use crate::checks::FleetCost;
use crate::hostclock::{Calibrator, CpuInstant};
use crate::suite::Suite;
use crate::traced::Layers;

const USAGE: &str = "usage: perfbench --workload <paper-synth|trace-miss|multi-resource> \
--seed <n> --seconds <s> --trace <0|1> [--inject digest|replay|cap]";

/// Set-ups per invocation; `setup_s` is their median, in reference
/// seconds (see `hostclock`).
const SETUP_REPS: usize = 7;

/// Timed passes per invocation, at least (the digest check compares
/// passes).
const MIN_PASSES: usize = 2;

/// The traced run of a cell may take at most this much longer (or
/// shorter) than its untraced run, as a median over every cell and
/// round, before its breakdown stops describing the untraced program.
/// Measured medians stay within ±7%; back-to-back runs of one cell
/// differ by a few percent on their own on a shared host.
const MAX_TRACE_OVERHEAD: f64 = 0.10;

/// Cycle cap of the cell `--inject cap` runs: far below what any
/// quick-scale cell needs.
const INJECTED_CAP: u64 = 400_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inject {
    Digest,
    Replay,
    Cap,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: Option<Inject>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--inject" => {
                inject = Some(match value.as_str() {
                    "digest" => Inject::Digest,
                    "replay" => Inject::Replay,
                    "cap" => Inject::Cap,
                    _ => return Err(bad("must be digest, replay or cap")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !suite::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            suite::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject,
    })
}

/// One named metric as the JSON line prints it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports: check tallies and metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Why the run is not correct (empty when it is).
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn problem(&mut self, why: String) {
        eprintln!("# check failed: {why}");
        self.problems.push(why);
    }

    /// Every check passed and every metric is a number.
    fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    simkit::geometric_mean(&v).unwrap_or(f64::NAN)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One untraced pass: every cell in order, each behind `catch_unwind`
/// so a panicking cell counts as failed instead of ending the run.
struct Pass {
    /// Wall seconds of the cells.
    seconds: f64,
    /// Wall seconds of each cell.
    cell_s: Vec<f64>,
    /// CPU seconds of each cell.
    cpu_s: Vec<f64>,
    /// Calibration kernel times of a timed pass: before each cell, and
    /// after the last.
    calibrations: Vec<f64>,
    results: Vec<Option<RunResult>>,
    /// The scale each cell ran at (its cycle cap is what `capped` checks).
    scales: Vec<SimScale>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            seconds: 0.0,
            cell_s: Vec::new(),
            cpu_s: Vec::new(),
            calibrations: Vec::new(),
            results: Vec::new(),
            scales: Vec::new(),
        }
    }

    /// Runs cell `i` untraced, timed, and records it; `None` if it
    /// panicked. `capped` runs it under [`INJECTED_CAP`].
    fn run(&mut self, suite: &Suite, i: usize, capped: bool) -> Option<&RunResult> {
        let scale = if capped {
            SimScale {
                max_cycles: INJECTED_CAP,
                ..suite.scale
            }
        } else {
            suite.scale
        };
        let t = Instant::now();
        let cpu = CpuInstant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            suite
                .build(&suite.cells[i], scale, StepperKind::EventDriven)
                .run()
        }))
        .ok();
        self.cpu_s.push(cpu.elapsed());
        let s = t.elapsed().as_secs_f64();
        self.seconds += s;
        self.cell_s.push(s);
        self.scales.push(scale);
        self.results.push(r);
        self.results[i].as_ref()
    }

    /// The pass's CPU time in reference seconds, each cell scaled by the
    /// calibrations on either side of it.
    fn reference_s(&self) -> f64 {
        self.cpu_s
            .iter()
            .zip(self.calibrations.windows(2))
            .map(|(&cpu, c)| hostclock::reference_s(cpu, c[0], c[1]))
            .sum()
    }
}

/// A timed pass: the calibration kernel runs before every cell and after
/// the last.
fn run_pass(suite: &Suite, cap_first: bool, cal: &Calibrator) -> Pass {
    let mut pass = Pass::new();
    for i in 0..suite.cells.len() {
        pass.calibrations.push(cal.measure());
        pass.run(suite, i, cap_first && i == 0);
    }
    pass.calibrations.push(cal.measure());
    pass
}

/// Checks one pass against the first: every cell ran, none hit the cap,
/// and each canonical render (hence the pass digest) is unchanged.
/// Returns the pass's renders.
fn check_pass(
    suite: &Suite,
    pass: &mut Pass,
    first: Option<&[Option<String>]>,
    perturb: bool,
    report: &mut Report,
) -> Vec<Option<String>> {
    if perturb {
        if let Some(r) = pass.results.iter_mut().flatten().next() {
            r.cycles += 1;
        }
    }
    let renders: Vec<Option<String>> = pass
        .results
        .iter()
        .map(|r| r.as_ref().map(checks::render))
        .collect();
    for (i, cell) in suite.cells.iter().enumerate() {
        report.attempted += 1;
        let label = suite.label(cell);
        let ok = match &pass.results[i] {
            None => {
                report.problem(format!("{label} panicked"));
                false
            }
            Some(r) if checks::capped(r, pass.scales[i]) => {
                report.problem(format!("{label} stopped at the max_cycles cap"));
                false
            }
            Some(_) => match first {
                Some(first) if first[i] != renders[i] => {
                    report.problem(format!("{label} changed between passes"));
                    false
                }
                _ => true,
            },
        };
        report.failed += u64::from(!ok);
    }
    if let Some(first) = first {
        let digest = |rs: &[Option<String>]| {
            checks::digest(
                &rs.iter()
                    .map(|r| r.clone().unwrap_or_default())
                    .collect::<Vec<_>>(),
            )
        };
        let (a, b) = (digest(first), digest(&renders));
        if a != b {
            report.problem(format!("pass digest {b} differs from the first pass's {a}"));
        }
    }
    renders
}

/// Runs the cell with the fewest simulated cycles under the reference
/// stepper and requires the event-driven render.
fn check_reference(suite: &Suite, pass: &Pass, renders: &[Option<String>], report: &mut Report) {
    let Some((i, _)) = pass
        .results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().map(|r| (i, r.cycles)))
        .min_by_key(|&(_, c)| c)
    else {
        return;
    };
    let cell = &suite.cells[i];
    let expected = renders[i].as_deref().unwrap_or_default();
    report.attempted += 1;
    let ok = catch_unwind(AssertUnwindSafe(|| {
        checks::reference_matches(suite, cell, expected)
    }))
    .unwrap_or(false);
    if !ok {
        report.failed += 1;
        report.problem(format!(
            "{} differs under the reference stepper",
            suite.label(cell)
        ));
    }
}

/// Round-trips the pass's results through the fleet store.
fn check_fleet(suite: &Suite, pass: &Pass, report: &mut Report) -> FleetCost {
    let results: Vec<RunResult> = pass.results.iter().flatten().cloned().collect();
    if results.len() != suite.cells.len() {
        return FleetCost::default();
    }
    let cost = checks::ScratchDir::new("store")
        .map_err(|e| e.to_string())
        .and_then(|dir| {
            let store = ResultsStore::open(dir.path()).map_err(|e| e.to_string())?;
            Ok(checks::fleet_round_trip(suite, &results, &store))
        });
    match cost {
        Ok(cost) => {
            if cost.failed > 0 {
                report.failed += cost.failed;
                report.problem(format!("{} cells failed the fleet round trip", cost.failed));
            }
            cost
        }
        Err(e) => {
            report.problem(format!("fleet store: {e}"));
            FleetCost::default()
        }
    }
}

/// Geometric mean of each cell's weighted speedup against solo IPC.
fn ws_geomean(suite: &Suite, results: &[RunResult]) -> f64 {
    geomean(
        suite
            .cells
            .iter()
            .zip(results)
            .map(|(c, r)| r.weighted_speedup(&suite.groups[c.group].ipc_alone)),
    )
}

/// Geometric mean of each cell's total energy per measured kilo-instruction.
fn energy_nj_per_kinstr(suite: &Suite, results: &[RunResult]) -> f64 {
    geomean(suite.cells.iter().zip(results).map(|(c, r)| {
        let kinstr = (suite.groups[c.group].workload.cores() as u64 * suite.scale.instrs_per_app)
            as f64
            / 1000.0;
        r.total_energy_nj() / kinstr
    }))
}

/// Geometric mean over the workload's distinct members (benchmark and
/// cache geometry) of the factor by which solo MPKI misses Table 3's:
/// exp(mean |ln(solo MPKI / Table 3 MPKI)|). A geometric mean of the
/// |ln| terms themselves would be ruled by the one member that happens
/// to land nearest its Table 3 value, and swing with the seed.
fn mpki_err(suite: &Suite) -> f64 {
    let mut factors = std::collections::BTreeMap::new();
    for g in &suite.groups {
        for (b, &mpki) in g.benchmarks.iter().zip(&g.solo_mpki) {
            let ratio = mpki / b.paper_mpki();
            factors
                .entry((b.name(), g.benchmarks.len()))
                .or_insert(ratio.max(1.0 / ratio));
        }
    }
    geomean(factors.into_values())
}

/// Coordinated runs (`dvfs`, `cbp`) in which some core's slowdown
/// against the Cooperative run of the same group exceeds 1 + slack —
/// the `cbp_energy` rule. Zero on workloads without coordinated runs.
fn qos_violations(suite: &Suite, results: &[RunResult]) -> u64 {
    let mut violations = 0;
    for (c, r) in suite.cells.iter().zip(results) {
        if c.policy != "dvfs" && c.policy != "cbp" {
            continue;
        }
        let base = suite
            .cells
            .iter()
            .zip(results)
            .find(|(b, _)| b.group == c.group && b.policy == "cooperative");
        if let Some((_, base)) = base {
            let slow = base
                .ipc
                .iter()
                .zip(&r.ipc)
                .any(|(&b, &d)| b / d > 1.0 + c.slack);
            violations += u64::from(slow);
        }
    }
    violations
}

/// `--trace 0`: timed passes for `seconds`, then the end-to-end metrics.
fn timed_run(suite: &Suite, args: &Args, setup_s: f64, cal: &Calibrator, report: &mut Report) {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Option<Vec<Option<String>>> = None;
    let mut last_renders;
    loop {
        let index = passes.len();
        let mut pass = run_pass(suite, args.inject == Some(Inject::Cap) && index == 0, cal);
        let perturb = args.inject == Some(Inject::Digest) && index == 1;
        let renders = check_pass(suite, &mut pass, first.as_deref(), perturb, report);
        eprintln!(
            "# pass {index}: {:.3} s wall, {:.3} s CPU, calibration {:.3} ms, {:.3} reference s",
            pass.seconds,
            pass.cpu_s.iter().sum::<f64>(),
            median(&pass.calibrations) * 1e3,
            pass.reference_s()
        );
        first.get_or_insert_with(|| renders.clone());
        last_renders = renders;
        passes.push(pass);
        let elapsed = started.elapsed().as_secs_f64();
        let mean = elapsed / passes.len() as f64;
        if passes.len() >= MIN_PASSES && elapsed + mean > args.seconds {
            break;
        }
    }
    let last = passes.last().expect("at least one pass");
    check_reference(suite, last, &last_renders, report);
    check_fleet(suite, last, report);

    let kinstr = suite.measured_instrs() as f64 / 1000.0;
    let rates: Vec<f64> = passes.iter().map(|p| kinstr / p.reference_s()).collect();
    // The simulated metrics need every cell; a panicked cell already
    // failed the run.
    let results: Option<Vec<RunResult>> = passes[0].results.iter().cloned().collect();
    let (ws, energy) = results.as_ref().map_or((f64::NAN, f64::NAN), |r| {
        eprintln!("# QoS violations {}", qos_violations(suite, r));
        (ws_geomean(suite, r), energy_nj_per_kinstr(suite, r))
    });
    eprintln!("# {} passes, kinstr/s {rates:?}", passes.len());
    report.metrics = vec![
        metric("kinstr_per_s", median(&rates), "kinstr/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("ws_geomean", ws, "ratio"),
        metric("energy_nj_per_kinstr", energy, "nJ/kinstr"),
        metric("mpki_err", mpki_err(suite), "x"),
    ];
}

/// Cost of one `Instant::now()` in nanoseconds.
fn instant_now_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(N)
}

/// CPU milliseconds of the calibration kernel, median of a few runs: the
/// host's speed while the traced run took its wall-clock breakdown.
fn calibration_ms() -> f64 {
    let cal = Calibrator::new();
    median(&(0..3).map(|_| cal.measure()).collect::<Vec<_>>()) * 1e3
}

/// One round of the traced run: every cell untraced and traced, the
/// traced `RunResult` checked against the untraced one.
struct Round {
    untraced_s: f64,
    layers: Layers,
    fleet: FleetCost,
}

/// `--trace 1`: rounds over every cell, untraced and traced, for
/// `seconds`; then the per-layer metrics (medians over rounds for times).
fn traced_run(suite: &Suite, args: &Args, report: &mut Report) {
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut first: Option<Vec<Option<String>>> = None;
    let mut qos = 0;
    // Traced over untraced time, less one, of every cell in every round.
    let mut cell_overheads: Vec<f64> = Vec::new();
    loop {
        let index = rounds.len();
        // Each cell runs untraced and traced back to back, so host noise
        // reaches both sides of the overhead ratio alike; which side goes
        // first alternates from cell to cell and round to round.
        let mut pass = Pass::new();
        let mut layers = Layers::default();
        let mut untraced_s = 0.0;
        for (i, cell) in suite.cells.iter().enumerate() {
            let capped = args.inject == Some(Inject::Cap) && index == 0 && i == 0;
            let corrupt = args.inject == Some(Inject::Replay) && i == 0;
            let label = suite.label(cell);
            let run_traced =
                || catch_unwind(AssertUnwindSafe(|| traced::run_cell(suite, cell, corrupt)));
            let (untraced, traced) = if (index + i) % 2 == 1 {
                let t = run_traced();
                (pass.run(suite, i, capped).cloned(), t)
            } else {
                let u = pass.run(suite, i, capped).cloned();
                (u, run_traced())
            };
            let Some(untraced) = untraced else {
                continue;
            };
            match traced {
                Ok(t) => {
                    if format!("{:?}", t.result) != format!("{untraced:?}") {
                        report.problem(format!(
                            "{label}: the traced RunResult differs from the untraced run's"
                        ));
                        report.failed += 1;
                    }
                    if t.layers.replay_mismatches > 0 {
                        report.problem(format!(
                            "{label}: {} replayed memory calls differ from the recording",
                            t.layers.replay_mismatches
                        ));
                        report.failed += 1;
                    }
                    untraced_s += pass.cell_s[i];
                    cell_overheads.push(t.layers.cell_s / pass.cell_s[i] - 1.0);
                    layers.add(&t.layers);
                }
                Err(_) => {
                    report.problem(format!("{label}: traced run panicked"));
                    report.failed += 1;
                }
            }
        }
        let renders = check_pass(suite, &mut pass, first.as_deref(), false, report);
        if index == 0 {
            check_reference(suite, &pass, &renders, report);
            let results: Option<Vec<RunResult>> = pass.results.iter().cloned().collect();
            qos = results.map_or(0, |r| qos_violations(suite, &r));
        }
        first.get_or_insert(renders);
        let fleet = check_fleet(suite, &pass, report);
        let overhead = layers.cell_s / untraced_s - 1.0;
        eprintln!(
            "# round {index}: untraced {untraced_s:.3} s, traced {:.3} s (overhead {:+.1}%)",
            layers.cell_s,
            overhead * 100.0
        );
        rounds.push(Round {
            untraced_s,
            layers,
            fleet,
        });
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds.len() as f64 > args.seconds {
            break;
        }
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let overhead = median(&cell_overheads);
    eprintln!("# per-cell tracing overhead {cell_overheads:+.3?}");
    if overhead.is_nan() || overhead.abs() > MAX_TRACE_OVERHEAD {
        report.problem(format!(
            "traced cells ran {:+.1}% against untraced ones, median (limit ±{:.0}%)",
            overhead * 100.0,
            MAX_TRACE_OVERHEAD * 100.0
        ));
    }
    let l = &rounds[0].layers;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per = |s: f64, n: u64, scale: f64| if n == 0 { 0.0 } else { s * scale / n as f64 };
    let gen_s = med(&|r| r.layers.gen_s);
    let step_s = med(&|r| r.layers.step_s());
    let llc_s = med(&|r| r.layers.llc_s);
    let decide_s = med(&|r| r.layers.decide_s);
    let fleet = rounds[0].fleet;
    report.metrics = vec![
        metric("workloads.instrs", l.instrs as f64, "count"),
        metric("workloads.gen_s", gen_s, "s"),
        metric("workloads.ns_per_instr", per(gen_s, l.instrs, 1e9), "ns"),
        metric("workloads.trace_parse_s", suite.trace_parse_s, "s"),
        metric("cpusim.retired", l.retired as f64, "count"),
        metric("cpusim.step_s", step_s, "s"),
        metric("cpusim.ns_per_instr", per(step_s, l.retired, 1e9), "ns"),
        metric("cpusim.sim_cycles", l.sim_cycles as f64, "count"),
        metric("cpusim.l1d_accesses", l.l1d_accesses as f64, "count"),
        metric(
            "cpusim.l1d_hit_ratio",
            1.0 - ratio(l.l1d_misses, l.l1d_accesses),
            "ratio",
        ),
        metric(
            "cpusim.l1i_hit_ratio",
            1.0 - ratio(l.l1i_misses, l.l1i_accesses),
            "ratio",
        ),
        metric("cpusim.rob_stalls", l.rob_stalls as f64, "count"),
        metric("cpusim.lsq_stalls", l.lsq_stalls as f64, "count"),
        metric("cpusim.redirect_cycles", l.redirect_cycles as f64, "count"),
        metric("cpusim.prefetch_issued", l.prefetch_issued as f64, "count"),
        metric(
            "cpusim.prefetch_useful_ratio",
            ratio(l.prefetch_useful, l.prefetch_issued),
            "ratio",
        ),
        metric("llc.calls", l.llc_calls as f64, "count"),
        metric("llc.self_s", llc_s, "s"),
        metric("llc.ns_per_call", per(llc_s, l.llc_calls, 1e9), "ns"),
        metric(
            "llc.miss_ratio",
            ratio(l.llc_misses, l.llc_accesses),
            "ratio",
        ),
        metric(
            "llc.avg_ways_probed",
            if l.llc_accesses == 0 {
                0.0
            } else {
                l.llc_ways_probed / l.llc_accesses as f64
            },
            "ways",
        ),
        metric("llc.umon_probes", l.umon_probes as f64, "count"),
        metric("llc.flush_lines", l.flush_lines as f64, "count"),
        metric("llc.takeover_events", l.takeover_events as f64, "count"),
        metric("dram.reads", l.dram_reads as f64, "count"),
        metric("dram.writes", l.dram_writes as f64, "count"),
        metric("dram.queue_cycles", l.dram_queue_cycles as f64, "count"),
        metric("bw.delayed", l.bw_delayed as f64, "count"),
        metric("bw.delay_cycles", l.bw_delay_cycles as f64, "count"),
        metric("policy.decisions", l.decisions as f64, "count"),
        metric("policy.decide_s", decide_s, "s"),
        metric(
            "policy.us_per_decision",
            per(decide_s, l.decisions, 1e6),
            "us",
        ),
        metric("policy.apply_s", med(&|r| r.layers.apply_s), "s"),
        metric(
            "policy.repartition_ratio",
            ratio(l.repartitions, l.decisions),
            "ratio",
        ),
        metric("policy.qos_violations", qos as f64, "count"),
        metric(
            "fleet.bytes_per_cell",
            ratio(fleet.bytes, fleet.cells),
            "bytes",
        ),
        metric(
            "fleet.serialize_us_per_cell",
            per(med(&|r| r.fleet.serialize_s), fleet.cells, 1e6),
            "us",
        ),
        metric(
            "fleet.store_us_per_cell",
            per(med(&|r| r.fleet.store_s), fleet.cells, 1e6),
            "us",
        ),
        metric("trace.untraced_s", med(&|r| r.untraced_s), "s"),
        metric("trace.overhead_ratio", overhead, "ratio"),
        metric("trace.instant_now_ns", instant_now_ns(), "ns"),
        metric("trace.calibration_ms", calibration_ms(), "ms"),
    ];
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = SimScale::quick();
    // Each set-up is followed by a calibration and scaled by the ones on
    // either side of it (the first, which counts from process start,
    // where the main thread's CPU clock starts, by the one after it).
    let mut cpu_s = Vec::new();
    let mut setups = Vec::new();
    let mut suite = None;
    let mut cal = None;
    let mut before = None;
    for rep in 0..SETUP_REPS {
        let t = if rep == 0 {
            CpuInstant::ZERO
        } else {
            CpuInstant::now()
        };
        drop(suite.take());
        suite = suite::setup(&args.workload, args.seed, scale);
        let cpu = t.elapsed();
        let after = cal.get_or_insert_with(Calibrator::new).measure();
        cpu_s.push(cpu);
        setups.push(hostclock::reference_s(cpu, before.unwrap_or(after), after));
        before = Some(after);
    }
    let suite = suite.expect("the workload name was checked");
    let cal = cal.expect("at least one set-up");
    let setup_s = median(&setups);
    eprintln!(
        "# {} seed {}: {} cells, set-up {cpu_s:.3?} CPU s, {setups:.3?} reference s, \
         in {:.3} wall s, available_parallelism {}",
        suite.name,
        args.seed,
        suite.cells.len(),
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut report = Report::default();
    if args.trace {
        traced_run(&suite, &args, &mut report);
    } else {
        timed_run(&suite, &args, setup_s, &cal, &mut report);
    }
    for m in &report.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
