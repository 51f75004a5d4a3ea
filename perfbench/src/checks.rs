//! Output checks: the cycle cap, pass-to-pass digests, the reference
//! stepper, and the fleet round trip of every cell's result.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cpusim::StepperKind;
use fleet::{content_sum, CellSpec, JournalEntry, ResultsStore};
use harness::fleet_run::{run_result_from_value, run_result_to_value};
use harness::{RunResult, SimScale};

use crate::suite::{Cell, Suite};

/// Whether a run at `scale` stopped at its `max_cycles` cap. Warm-up
/// stops at half the cap (overshooting by less than an epoch), so a
/// capped measurement window spans at least the other half less an
/// epoch; an uncapped quick-scale window is an order of magnitude
/// shorter.
pub fn capped(r: &RunResult, scale: SimScale) -> bool {
    r.cycles + scale.epoch_cycles >= scale.max_cycles / 2
}

/// The canonical render of one result, as the fleet store persists it.
pub fn render(r: &RunResult) -> String {
    run_result_to_value(r).render()
}

/// FNV-1a digest of a pass's canonical renders, in cell order.
pub fn digest(renders: &[String]) -> String {
    let joined = fleet::json::Value::Arr(
        renders
            .iter()
            .map(|s| fleet::json::str(s.as_str()))
            .collect(),
    );
    content_sum(&joined)
}

/// Re-runs `cell` under the per-cycle reference stepper and reports
/// whether it equals the event-driven `expected` render.
pub fn reference_matches(suite: &Suite, cell: &Cell, expected: &str) -> bool {
    let r = suite.build(cell, suite.scale, StepperKind::Reference).run();
    render(&r) == expected
}

/// Fleet I/O cost of one pass's results.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetCost {
    /// Rendered bytes over all cells.
    pub bytes: u64,
    /// Seconds spent converting to a value, rendering and checksumming.
    pub serialize_s: f64,
    /// Seconds spent writing each cell to the store and reading it back.
    pub store_s: f64,
    /// Cells round-tripped.
    pub cells: u64,
    /// Cells whose round trip was not bit-exact.
    pub failed: u64,
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `.perfbench_tmp/<tag>-<pid>` under the working directory.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let dir = Path::new(".perfbench_tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too when no other run is using it.
        let _ = std::fs::remove_dir(Path::new(".perfbench_tmp"));
    }
}

/// Round-trips every result through `run_result_to_value`, `render`,
/// `content_sum` and a results store, requiring a bit-exact
/// `run_result_from_value` result and an unchanged checksum.
pub fn fleet_round_trip(suite: &Suite, results: &[RunResult], store: &ResultsStore) -> FleetCost {
    let mut cost = FleetCost::default();
    for (cell, r) in suite.cells.iter().zip(results) {
        let t = Instant::now();
        let value = run_result_to_value(r);
        let text = value.render();
        let sum = content_sum(&value);
        cost.serialize_s += t.elapsed().as_secs_f64();
        cost.bytes += text.len() as u64;

        let cores = suite.groups[cell.group].workload.cores();
        let spec = CellSpec::sweep(&suite.label(cell), cell.policy, cores, suite.scale.name);
        let entry = JournalEntry {
            cell_id: spec.id(),
            shard_id: "perfbench".to_string(),
            wall_ms: 0,
            accesses: r.accesses.iter().sum(),
        };
        let t = Instant::now();
        let back = store
            .write_cell(&spec, &value, &entry)
            .and_then(|()| store.read_cell(&entry.cell_id));
        cost.store_s += t.elapsed().as_secs_f64();
        cost.cells += 1;
        let exact = match back {
            Ok((read_spec, payload)) => {
                read_spec == spec
                    && content_sum(&payload) == sum
                    && run_result_from_value(&payload)
                        .is_ok_and(|b| format!("{b:?}") == format!("{r:?}"))
            }
            Err(_) => false,
        };
        if !exact {
            eprintln!("# fleet round trip not bit-exact: {}", suite.label(cell));
            cost.failed += 1;
        }
    }
    cost
}
