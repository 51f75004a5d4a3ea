//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment|all> [--scale quick|tiny|small|medium|paper]
//!       [--csv DIR] [--json DIR] [--slacks 0.05,0.10,0.20]
//!       [--policy name[,name...]] [--group name[,name...]]
//!       [--workers N] [--shards K] [--resume]
//!       [--sample N] [--seed S]
//!
//! experiments: table1 table3 table4 fig5 fig6 fig7 fig8 fig9 fig10
//!              fig5_10 fig11 fig12 fig13 fig14 fig15 fig16 dvfs_energy
//!              cbp_energy all two-core four-core eight_core sample
//! repro worker              # internal: fleet worker process (NDJSON on stdio)
//! repro fsck [--repair] DIR # audit/repair a results store
//! ```
//!
//! `--policy` restricts the sweep figures to the named policies (from the
//! harness policy registry; Fair Share always joins as the normalization
//! baseline), and `--group` restricts them to the named workload groups
//! (from the harness workload registry, e.g. `G2-1` — a sweep whose core
//! count has no matching group is skipped). `eight_core` sweeps the G8
//! extension groups in the 8 MB / 32-way LLC. `dvfs_energy` sweeps the
//! coordinated DVFS + partitioning subsystem's QoS slack levels (override
//! with `--slacks`) against the Cooperative-only baseline. The scale can
//! also be set via the `COOP_SCALE` environment variable. `--csv` and
//! `--json` write one machine-readable file per experiment.
//!
//! `--workers N` runs a sweep figure (or `sample`) as a fleet: the cells
//! are sharded over N `repro worker` child processes and streamed into
//! the `--json` directory (required), which doubles as a durable results
//! store (`manifest.json`, `cells/`, `journal.jsonl`). A killed or
//! partially failed run resumes with `--resume` — only missing cells
//! rerun, and the merged figures are bit-identical to a single-process
//! run. `sample` draws `--sample N` random 1-8-core mixes (seeded with
//! `--seed`) and reports distributional results; without `--workers` it
//! runs in-process.

// The CLI reports wall time per experiment; allowlisted here and in
// simlint's path allowlist.
#![allow(clippy::disallowed_methods)]

use std::io::Write as _;

use fleet::json::{self, Value};
use harness::experiments::fig11_13::ThresholdMetric;
use harness::experiments::fig5_10::Metric;
use harness::experiments::{self, Experiment};
use harness::fleet_run::{self, FleetOptions, SamplePlan};
use harness::{policy_registry, workload_registry, SimScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage();
        return;
    }
    // The worker subcommand speaks the fleet protocol on stdout; it must
    // come before any banner or argument chatter.
    if args[0] == "worker" {
        fleet_run::worker_serve();
        return;
    }
    // Store maintenance: audit (and optionally repair) a results
    // directory without running anything.
    if args[0] == "fsck" {
        run_fsck(&args[1..]);
    }
    let mut scale = SimScale::from_env_or(SimScale::small());
    let mut csv_dir: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut slacks: Vec<f64> = Vec::new();
    let mut policies: Vec<&'static str> = Vec::new();
    let mut groups: Vec<String> = Vec::new();
    let mut workers: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut resume = false;
    let mut sample_n: Option<u64> = None;
    let mut seed: u64 = 0;
    let mut what = args[0].clone();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let name = args.get(i).expect("--scale needs a value");
                scale = SimScale::by_name(name).unwrap_or_else(|| panic!("unknown scale '{name}'"));
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(args.get(i).expect("--csv needs a directory").clone());
            }
            "--json" => {
                i += 1;
                json_dir = Some(args.get(i).expect("--json needs a directory").clone());
            }
            "--policy" => {
                i += 1;
                let list = args.get(i).expect("--policy needs a name list");
                let registry = policy_registry();
                for name in list.split(',') {
                    match registry.resolve(name.trim()) {
                        Some(canonical) => {
                            if !policies.contains(&canonical) {
                                policies.push(canonical);
                            }
                        }
                        None => {
                            eprintln!(
                                "{}",
                                coop_core::UnknownPolicy {
                                    requested: name.trim().to_string(),
                                    known: registry.names(),
                                }
                            );
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--group" => {
                i += 1;
                let list = args.get(i).expect("--group needs a name list");
                let registry = workload_registry();
                for name in list.split(',') {
                    let name = name.trim();
                    match registry.canonical_group(name) {
                        Some(canonical) => {
                            if !groups.contains(&canonical) {
                                groups.push(canonical);
                            }
                        }
                        None => {
                            eprintln!(
                                "unknown workload group '{name}'; registered groups: {}",
                                registry.group_names().join(", ")
                            );
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--slacks" => {
                i += 1;
                let list = args.get(i).expect("--slacks needs a comma-separated list");
                slacks = list
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse::<f64>()
                            .unwrap_or_else(|_| panic!("bad slack '{v}'"))
                    })
                    .collect();
                assert!(
                    slacks.iter().all(|&s| (0.0..=1.0).contains(&s)),
                    "slacks must be fractions in [0, 1]"
                );
            }
            "--workers" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .expect("--workers needs a count")
                    .parse()
                    .expect("--workers must be an integer");
                assert!(n >= 1, "--workers must be at least 1");
                workers = Some(n);
            }
            "--shards" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .expect("--shards needs a count")
                    .parse()
                    .expect("--shards must be an integer");
                assert!(n >= 1, "--shards must be at least 1");
                shards = Some(n);
            }
            "--resume" => resume = true,
            "--sample" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .expect("--sample needs a count")
                    .parse()
                    .expect("--sample must be an integer");
                assert!(n >= 1, "--sample must be at least 1");
                sample_n = Some(n);
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer");
            }
            other if i == 0 => what = other.to_string(),
            other => panic!("unexpected argument '{other}'"),
        }
        i += 1;
    }

    // The filters only drive the standalone sweep figures. Elsewhere they
    // would either do nothing (fig11-16, tables, dvfs_energy) or *add* a
    // second, differently-keyed sweep beside the full one that figs 14-16
    // need anyway (two-core/all) — so ignore them loudly instead.
    let sweep_aware = matches!(
        what.as_str(),
        "fig5"
            | "fig6"
            | "fig7"
            | "fig8"
            | "fig9"
            | "fig10"
            | "fig5_10"
            | "four-core"
            | "eight_core"
            | "eight-core"
    );
    let sampling = what == "sample";
    if !sweep_aware && !sampling && !policies.is_empty() {
        eprintln!(
            "# note: --policy only filters fig5..fig10/fig5_10/four-core/eight_core/sample; ignored for '{what}'"
        );
        policies.clear();
    }
    if !sweep_aware && !groups.is_empty() {
        eprintln!(
            "# note: --group only filters fig5..fig10/fig5_10/four-core/eight_core; ignored for '{what}'"
        );
        groups.clear();
    }
    if !sampling && (sample_n.is_some() || seed != 0) {
        eprintln!(
            "# note: --sample/--seed only apply to the 'sample' experiment; ignored for '{what}'"
        );
    }
    let plan = sampling.then(|| SamplePlan {
        n: sample_n.unwrap_or(64),
        seed,
        slack: slacks.first().copied().unwrap_or(0.05),
    });

    eprintln!(
        "# scale '{}': {} instrs/app, {}-cycle epochs (paper: 1B instrs, 5M-cycle epochs)",
        scale.name, scale.instrs_per_app, scale.epoch_cycles
    );
    let start = std::time::Instant::now();

    let mut partial: Option<String> = None;
    let list = if let Some(workers) = workers {
        // Fleet mode: shard the cells over worker processes, streaming
        // results into the --json directory (which doubles as the
        // durable store that --resume continues).
        if !sweep_aware && !sampling {
            eprintln!(
                "--workers only applies to the sweep figures (fig5..fig10, fig5_10, four-core, eight_core) and 'sample'"
            );
            std::process::exit(2);
        }
        let Some(dir) = json_dir.clone() else {
            eprintln!("--workers needs --json DIR: the directory is the durable results store");
            std::process::exit(2);
        };
        let opts = FleetOptions {
            workers,
            shards,
            resume,
        };
        match fleet_run::run_fleet_target(
            &what,
            scale,
            &policies,
            &groups,
            plan.as_ref(),
            &dir,
            &opts,
        ) {
            Ok(outcome) => {
                partial = outcome.partial;
                outcome.experiments
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    } else {
        if resume {
            eprintln!("--resume needs --workers: resuming is a fleet-mode operation");
            std::process::exit(2);
        }
        let list = if let Some(plan) = &plan {
            match fleet_run::run_sample_inprocess(scale, &policies, plan) {
                Ok(list) => list,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        } else {
            select(&what, scale, &slacks, &policies, &groups)
        };
        // Single-process runs of fleet-capable targets still record a
        // manifest beside their JSON output, so a later fleet `--resume`
        // (or a human) can tell exactly what configuration produced the
        // directory — and refuse an incompatible one.
        if let Some(dir) = &json_dir {
            if let Err(e) =
                write_single_process_manifest(&what, scale, &policies, &groups, plan.as_ref(), dir)
            {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        list
    };

    if list.is_empty() {
        // Only reachable via a --group filter whose core count doesn't
        // match the requested sweep; a silent exit-0 would read as
        // success to scripts.
        eprintln!(
            "'{what}' produced no experiments under --group {}",
            groups.join(",")
        );
        std::process::exit(2);
    }
    for e in &list {
        println!("{}", e.render());
        if let Some(dir) = &csv_dir {
            write_csv(dir, e);
        }
        if let Some(dir) = &json_dir {
            write_json(dir, e);
        }
    }
    eprintln!("# done in {:.1}s", start.elapsed().as_secs_f64());
    if let Some(coverage) = partial {
        // Partial figures were printed/written above, but a script must
        // not mistake them for the complete artifact.
        eprintln!(
            "# fleet: {coverage}; finished cells are saved — rerun with --resume to complete"
        );
        std::process::exit(1);
    }
}

/// `repro fsck [--repair] DIR` — audit a results store's manifest /
/// journal / cell-file consistency. Exit 0 when the store is clean (or
/// `--repair` restored it to a resumable state), 1 when issues remain,
/// 2 on usage errors.
fn run_fsck(args: &[String]) -> ! {
    let mut repair = false;
    let mut dir: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--repair" => repair = true,
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other),
            other => {
                eprintln!("fsck: unexpected argument '{other}'\nusage: repro fsck [--repair] DIR");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: repro fsck [--repair] DIR");
        std::process::exit(2);
    };
    let path = std::path::Path::new(dir);
    match fleet::fsck(path, repair) {
        Err(e) => {
            eprintln!("fsck: {e}");
            std::process::exit(1);
        }
        Ok(report) => {
            print!("{}", report.render());
            if report.clean() {
                std::process::exit(0);
            }
            if repair {
                // A repair only counts if a fresh audit comes back clean.
                match fleet::fsck(path, false) {
                    Ok(second) if second.clean() => {
                        eprintln!("fsck: repaired; store is consistent and resumable");
                        std::process::exit(0);
                    }
                    Ok(second) => {
                        print!("{}", second.render());
                        eprintln!("fsck: repair left issues behind");
                        std::process::exit(1);
                    }
                    Err(e) => {
                        eprintln!("fsck: re-audit after repair failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            std::process::exit(1);
        }
    }
}

/// Satellite of fleet mode: a plain `--json` run of a fleet-capable
/// target writes the same manifest a fleet run would, gated by the same
/// compatibility check against whatever is already in the directory.
fn write_single_process_manifest(
    what: &str,
    scale: SimScale,
    policies: &[&'static str],
    groups: &[String],
    plan: Option<&SamplePlan>,
    dir: &str,
) -> Result<(), String> {
    let Some(cells) = fleet_run::cells_for_target(what, scale, policies, groups, plan) else {
        return Ok(()); // not fleet-capable; nothing to record
    };
    let cells = cells?;
    if cells.is_empty() {
        return Ok(());
    }
    let store = fleet::ResultsStore::open(dir).map_err(|e| e.to_string())?;
    let manifest = fleet_run::manifest_for(what, scale, policies, groups, plan, &cells);
    if let Some(existing) = store.read_manifest().map_err(|e| e.to_string())? {
        manifest.compatible_with(&existing).map_err(|e| {
            format!("{e}\nthis --json directory belongs to a different run configuration; use a fresh one")
        })?;
    }
    store.write_manifest(&manifest).map_err(|e| e.to_string())
}

fn select(
    what: &str,
    scale: SimScale,
    slacks: &[f64],
    policies: &[&'static str],
    groups: &[String],
) -> Vec<Experiment> {
    let fig = |cores: usize, metric: Metric| -> Option<Experiment> {
        let policies: &[&'static str] = if policies.is_empty() {
            &coop_core::PAPER_POLICIES
        } else {
            policies
        };
        let built = experiments::fig5_10::figure_for(cores, metric, scale, policies, groups);
        if built.is_none() {
            eprintln!("# note: --group filter leaves no {cores}-core groups; sweep skipped");
        }
        built
    };
    let sweep3 = |cores: usize| -> Vec<Experiment> {
        // The first metric decides whether the group filter leaves any
        // group at this core count (fig prints the skip note once); the
        // other two then can't miss.
        let Some(first) = fig(cores, Metric::WeightedSpeedup) else {
            return Vec::new();
        };
        let mut v = vec![first];
        v.extend(
            [Metric::DynamicEnergy, Metric::StaticEnergy]
                .into_iter()
                .filter_map(|m| fig(cores, m)),
        );
        v
    };
    match what {
        "dvfs_energy" => vec![experiments::dvfs_energy::figure(scale, slacks)],
        "cbp_energy" => vec![experiments::cbp_energy::figure(scale, slacks)],
        "table1" => vec![experiments::table1::table()],
        "table3" => vec![experiments::table3::table(scale)],
        "table4" => vec![experiments::table4::table()],
        "fig5" => fig(2, Metric::WeightedSpeedup).into_iter().collect(),
        "fig6" => fig(2, Metric::DynamicEnergy).into_iter().collect(),
        "fig7" => fig(2, Metric::StaticEnergy).into_iter().collect(),
        "fig8" => fig(4, Metric::WeightedSpeedup).into_iter().collect(),
        "fig9" => fig(4, Metric::DynamicEnergy).into_iter().collect(),
        "fig10" => fig(4, Metric::StaticEnergy).into_iter().collect(),
        "fig5_10" => {
            let mut v = sweep3(2);
            v.extend(sweep3(4));
            v
        }
        "fig11" => vec![experiments::fig11_13::figure(
            ThresholdMetric::Performance,
            scale,
        )],
        "fig12" => vec![experiments::fig11_13::figure(
            ThresholdMetric::DynamicEnergy,
            scale,
        )],
        "fig13" => vec![experiments::fig11_13::figure(
            ThresholdMetric::StaticEnergy,
            scale,
        )],
        "fig14" => vec![experiments::fig14::figure(scale)],
        "fig15" => vec![experiments::fig15::figure(scale)],
        "fig16" => vec![experiments::fig16::figure(scale)],
        "two-core" => {
            let mut v = sweep3(2);
            v.push(experiments::fig14::figure(scale));
            v.push(experiments::fig15::figure(scale));
            v.push(experiments::fig16::figure(scale));
            v
        }
        "four-core" => sweep3(4),
        "eight_core" | "eight-core" => sweep3(8),
        "all" => {
            let mut v = vec![
                experiments::table1::table(),
                experiments::table4::table(),
                experiments::table3::table(scale),
            ];
            v.extend(sweep3(2));
            v.extend(sweep3(4));
            for m in [
                ThresholdMetric::Performance,
                ThresholdMetric::DynamicEnergy,
                ThresholdMetric::StaticEnergy,
            ] {
                v.push(experiments::fig11_13::figure(m, scale));
            }
            v.push(experiments::fig14::figure(scale));
            v.push(experiments::fig15::figure(scale));
            v.push(experiments::fig16::figure(scale));
            v.push(experiments::dvfs_energy::figure(scale, slacks));
            v.push(experiments::cbp_energy::figure(scale, slacks));
            v
        }
        other => {
            usage();
            panic!("unknown experiment '{other}'");
        }
    }
}

/// File stem for an experiment's machine-readable outputs.
fn file_stem(e: &Experiment) -> String {
    e.id.to_lowercase().replace(' ', "")
}

fn write_csv(dir: &str, e: &Experiment) {
    std::fs::create_dir_all(dir).expect("create csv dir");
    let path = format!("{dir}/{}.csv", file_stem(e));
    let mut f = std::fs::File::create(&path).expect("create csv file");
    f.write_all(e.table.to_csv().as_bytes()).expect("write csv");
    eprintln!("# wrote {path}");
}

fn write_json(dir: &str, e: &Experiment) {
    std::fs::create_dir_all(dir).expect("create json dir");
    let path = format!("{dir}/{}.json", file_stem(e));
    std::fs::write(&path, experiment_json(e).render() + "\n").expect("write json");
    eprintln!("# wrote {path}");
}

/// An experiment as `{"id", "title", "table": {"headers", "rows"},
/// "notes"}`, every cell a string.
fn experiment_json(e: &Experiment) -> Value {
    let strs = |cells: &[String]| Value::Arr(cells.iter().map(json::str).collect());
    let table = json::obj(vec![
        ("headers", strs(e.table.headers())),
        (
            "rows",
            Value::Arr(e.table.rows().iter().map(|r| strs(r)).collect()),
        ),
    ]);
    json::obj(vec![
        ("id", json::str(&e.id)),
        ("title", json::str(&e.title)),
        ("table", table),
        ("notes", strs(&e.notes)),
    ])
}

fn usage() {
    eprintln!(
        "usage: repro <experiment|all|two-core|four-core|eight_core|sample> [--scale quick|tiny|small|medium|paper]\n\
         \x20      [--csv DIR] [--json DIR] [--slacks 0.05,0.10,0.20]\n\
         \x20      [--policy name[,name...]] [--group name[,name...]]\n\
         \x20      [--workers N] [--shards K] [--resume] [--sample N] [--seed S]\n\
         experiments: table1 table3 table4 fig5..fig16 fig5_10 dvfs_energy cbp_energy\n\
         --policy:    restrict the sweep figures to these registry policies ({})\n\
         --group:     restrict the sweep figures to these workload groups (G2-*, G4-*, G8-*)\n\
         eight_core:  G8 extension sweeps beyond the paper (8 MB / 32-way LLC)\n\
         dvfs_energy: coordinated DVFS + partitioning vs Cooperative alone; --slacks sets the QoS sweep\n\
         cbp_energy:  coordinated cache+bandwidth+prefetch vs Cooperative and DVFS; --slacks as above\n\
         --workers:   fleet mode — shard a sweep figure (or 'sample') over N worker\n\
         \x20            processes streaming into --json DIR; --resume continues a\n\
         \x20            killed or partially failed run from the same DIR\n\
         fsck:        audit a results store's manifest/journal/cell checksums\n\
         \x20            (repro fsck [--repair] DIR); --repair quarantines corrupt\n\
         \x20            cells and rebuilds the journal so --resume can finish\n\
         sample:      Monte Carlo 1-8-core mixes (--sample N draws, --seed S);\n\
         \x20            distributional report with QoS-violation tails (first --slacks value)",
        policy_registry().names().join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::table::Table;

    #[test]
    fn experiment_json_holds_table_cells_as_strings() {
        let mut table = Table::new(vec!["a".into(), "h\"1".into()]);
        table.row(vec!["x".into(), "1".into()]);
        table.row_f64("y", &[2.5], 2);
        let e = Experiment {
            id: "Table 9".into(),
            title: "t".into(),
            table,
            notes: vec!["line\nbreak".into()],
            perf: None,
        };
        assert_eq!(
            experiment_json(&e).render(),
            r#"{"id":"Table 9","notes":["line\nbreak"],"table":{"headers":["a","h\"1"],"rows":[["x","1"],["y","2.50"]]},"title":"t"}"#
        );
    }
}
