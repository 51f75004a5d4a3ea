//! End-to-end fleet smoke over the real `repro` binary: run a sweep as a
//! worker fleet, kill a worker with the fault-injection hook, resume, and
//! require the merged figures to be byte-identical to a single-process
//! run. Also pins the bounded-retry path (a fault that fires once must
//! not fail the run) and the refusal paths (incompatible manifest, done
//! results without `--resume`).
//!
//! The sweeps are restricted to G2-1/G4-1 so the whole file stays fast in
//! debug CI; `scripts/fleet_smoke.sh` runs the unrestricted release
//! version of the same scenario.

use std::path::{Path, PathBuf};
use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const TARGET_ARGS: [&str; 5] = ["fig5_10", "--scale", "quick", "--group", "G2-1,G4-1"];
const FIGURES: [&str; 6] = [
    "figure5.json",
    "figure6.json",
    "figure7.json",
    "figure8.json",
    "figure9.json",
    "figure10.json",
];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet_e2e_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn repro(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(REPRO);
    cmd.args(TARGET_ARGS).args(args);
    // Keep the fault hooks' reach limited to the invocations that ask
    // for them, whatever the ambient environment.
    cmd.env_remove("FLEET_CHAOS");
    cmd.env("FLEET_BACKOFF_MS", "10");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("repro runs")
}

fn read_figures(dir: &Path) -> Vec<String> {
    FIGURES
        .iter()
        .map(|f| {
            std::fs::read_to_string(dir.join(f))
                .unwrap_or_else(|e| panic!("{} missing in {}: {e}", f, dir.display()))
        })
        .collect()
}

#[test]
fn killed_fleet_resumes_bit_identical_to_single_process() {
    let golden_dir = tmp("golden");
    let fleet_dir = tmp("fleet");
    let once_dir = tmp("once");

    // Golden: single-process run writing figures + manifest.
    let golden = repro(&["--json", golden_dir.to_str().unwrap()], &[]);
    assert!(
        golden.status.success(),
        "golden run failed: {}",
        String::from_utf8_lossy(&golden.stderr)
    );
    let golden_figs = read_figures(&golden_dir);
    assert!(
        golden_dir.join("manifest.json").exists(),
        "single-process --json runs record a manifest"
    );

    // Fleet run with a persistent targeted fault killing every worker
    // that takes shard 0: bounded retries exhaust, the run reports
    // failure, and the other shards' cells stay durable.
    let failed = repro(
        &["--workers", "2", "--json", fleet_dir.to_str().unwrap()],
        &[("FLEET_CHAOS", "0:shard:0:panic")],
    );
    assert!(
        !failed.status.success(),
        "a permanently failing shard must fail the run"
    );
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(
        stderr.contains("FAILED") && stderr.contains("--resume"),
        "failure report names the failed cells and the resume path:\n{stderr}"
    );
    assert!(
        fleet_dir.join("journal.jsonl").exists(),
        "finished cells were journaled before the failure"
    );

    // Rerunning without --resume refuses: the directory holds results.
    let refused = repro(
        &["--workers", "2", "--json", fleet_dir.to_str().unwrap()],
        &[],
    );
    assert!(!refused.status.success());
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("--resume"),
        "refusal explains how to continue"
    );

    // A different configuration refuses against the stored manifest.
    let incompatible = Command::new(REPRO)
        .args(["fig5_10", "--scale", "tiny", "--group", "G2-1,G4-1"])
        .args([
            "--workers",
            "2",
            "--resume",
            "--json",
            fleet_dir.to_str().unwrap(),
        ])
        .env_remove("FLEET_CHAOS")
        .output()
        .expect("repro runs");
    assert!(!incompatible.status.success());
    assert!(
        String::from_utf8_lossy(&incompatible.stderr).contains("incompatible"),
        "manifest mismatch is reported"
    );

    // Resume without the fault: only the missing cells rerun, and the
    // merged figures match the single-process run byte for byte.
    let resumed = repro(
        &[
            "--workers",
            "2",
            "--resume",
            "--json",
            fleet_dir.to_str().unwrap(),
        ],
        &[],
    );
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resumed"),
        "resume reports the prior cells it skipped:\n{stderr}"
    );
    assert_eq!(
        read_figures(&fleet_dir),
        golden_figs,
        "killed+resumed fleet output diverged from the single-process run"
    );

    // A fault that fires exactly once is absorbed by the retry budget:
    // one invocation, nonzero worker deaths, still bit-identical.
    let marker = once_dir.join("fired.marker");
    std::fs::create_dir_all(&once_dir).unwrap();
    let chaos = format!("0:shard:1:panic1:once={}", marker.to_str().unwrap());
    let once = repro(
        &["--workers", "2", "--json", once_dir.to_str().unwrap()],
        &[("FLEET_CHAOS", &chaos)],
    );
    let stderr = String::from_utf8_lossy(&once.stderr);
    assert!(
        once.status.success(),
        "retry did not absorb a one-shot fault:\n{stderr}"
    );
    assert!(marker.exists(), "the one-shot fault actually fired");
    assert!(
        stderr.contains("worker deaths") && !stderr.contains("0 worker deaths"),
        "the death was counted:\n{stderr}"
    );
    assert_eq!(
        read_figures(&once_dir),
        golden_figs,
        "mid-shard worker death changed the merged output"
    );

    for d in [&golden_dir, &fleet_dir, &once_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}
