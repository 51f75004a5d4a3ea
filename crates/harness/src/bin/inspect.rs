//! `inspect` — watches one workload epoch by epoch: UMON miss curves
//! (CURVES=1), UCP quotas / CP allocations, powered ways and per-core
//! IPC. Env: WORKLOAD=spec (any workload-registry spec — a named group
//! like G2-1, an ad-hoc mix like `soplex,namd`, or `trace:path.ctrace`),
//! SCHEME=policy-name (resolved through the harness policy registry),
//! EPOCHS=n (default 34), QOS_SLACK=fraction (dvfs/cbp, default 0.10).
//! Unknown workload or policy names print the registered lists and exit
//! non-zero. Under SCHEME=dvfs each epoch line adds the chosen
//! frequencies; under SCHEME=cbp it adds the chosen bandwidth shares and
//! prefetch degrees.
use coop_core::{LlcConfig, PartitionedLlc, PolicySpec, SchemeKind};
use coop_dvfs::DvfsPolicy;
use cpusim::{Core, CoreConfig, EpochControl, LlcPort, StepperKind, SystemStepper};
use harness::{drive_epoch, policy_registry, workload_registry};
use memsim::{Dram, DramConfig};
use simkit::types::{CoreId, Cycle, LineAddr};

struct Port<'a> {
    llc: &'a mut PartitionedLlc,
    dram: &'a mut Dram,
}
impl LlcPort for Port<'_> {
    fn access(&mut self, now: Cycle, core: CoreId, line: LineAddr, write: bool) -> Cycle {
        self.llc.access(now, core, line, write, self.dram)
    }
    fn writeback(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.llc.writeback(now, core, line, self.dram);
    }
    fn prefetch(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Cycle {
        self.llc.prefetch(now, core, line, self.dram)
    }
}

fn main() {
    let registry = policy_registry();
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: inspect\n\
             env: WORKLOAD=<spec> (default G2-1; a group like G2-1/G4-3/G8-2, a mix like\n\
             \x20             'soplex,namd', or 'trace:path.ctrace')\n\
             \x20    SCHEME=<policy> (default ucp; one of: {})\n\
             \x20    CURVES=1 to print per-epoch UMON miss curves\n\
             \x20    EPOCHS=n epochs to watch (default 34)\n\
             \x20    QOS_SLACK=fraction for SCHEME=dvfs/cbp (default 0.10)",
            registry.names().join(", ")
        );
        return;
    }
    let spec = std::env::var("WORKLOAD").unwrap_or_else(|_| "G2-1".into());
    let workloads_reg = workload_registry();
    let workload = match workloads_reg.resolve(&spec) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let requested = std::env::var("SCHEME").unwrap_or_else(|_| "ucp".into());
    let Some(policy_name) = registry.resolve(&requested) else {
        eprintln!("unknown policy '{requested}'; registered policies:");
        for name in registry.names() {
            let entry = registry.entry(name).expect("listed name resolves");
            eprintln!("  {name:12} {}", entry.summary);
        }
        std::process::exit(2);
    };
    let qos_slack: f64 = std::env::var("QOS_SLACK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let curves = std::env::var("CURVES").is_ok();
    let epochs: u64 = std::env::var("EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(34);
    let n = workload.cores();
    println!("{} under {}", workload, policy_name);
    let mut cores: Vec<Core> = workload
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| {
            Core::new(
                CoreId(i as u8),
                CoreConfig::default(),
                m.source(0x5EED ^ ((i as u64) << 32)),
            )
        })
        .collect();
    let legacy_scheme = registry
        .entry(policy_name)
        .and_then(|e| e.scheme)
        .unwrap_or(SchemeKind::Cooperative);
    let llc_cfg = LlcConfig::for_cores(n, legacy_scheme).with_epoch(500_000);
    let ways = llc_cfg.geom.ways();
    let spec = PolicySpec::for_llc(&llc_cfg, n).with_qos_slack(qos_slack);
    let mut policy = registry.build(policy_name, &spec).expect("name resolved");
    if let Some(cpe) = (policy.as_mut() as &mut dyn std::any::Any)
        .downcast_mut::<coop_core::policy::DynamicCpePolicy>()
    {
        // Without a solo profile the CPE policy never repartitions; feed it
        // the quick-scale profile so the watched epochs actually move.
        println!("profiling solo runs for the Dynamic CPE profile...");
        cpe.set_profile(harness::solo::cpe_profile_for(
            &workload,
            harness::solo::solo_llc(n),
            harness::SimScale::quick(),
        ));
    }
    let mut llc = PartitionedLlc::for_policy(llc_cfg, n, policy.as_ref());
    let mut dram = Dram::new(DramConfig::default());
    let dvfs_mode = policy_name == "dvfs";
    if dvfs_mode {
        println!("coordinated DVFS enabled, QoS slack {qos_slack:.2}");
    }
    let cbp_mode = policy_name == "cbp";
    if cbp_mode {
        println!("coordinated cache+bandwidth+prefetch enabled, QoS slack {qos_slack:.2}");
    }
    let nominal_ghz = (policy.as_ref() as &dyn std::any::Any)
        .downcast_ref::<DvfsPolicy>()
        .map_or(2.0, |p| p.controller().config().table.nominal().freq_ghz);
    // Run through the shared stepping API (one `stepper.run` call per
    // watched epoch; the callback prints and returns `Stop`). The retire
    // targets are unreachable — only the epoch count ends the loop.
    let mut stepper = SystemStepper::new(StepperKind::default(), 500_000);
    let targets = vec![u64::MAX; n];
    let mut last_retired = vec![0u64; n];
    for epoch in 0..epochs {
        let mut port = Port {
            llc: &mut llc,
            dram: &mut dram,
        };
        stepper.run(
            &mut cores,
            &mut port,
            &targets,
            Cycle(u64::MAX),
            |now, cores, port| {
                if curves {
                    for (i, name) in workload.member_names().iter().enumerate() {
                        let c = port.llc.umon_curve(CoreId(i as u8));
                        let m: Vec<String> =
                            (0..=ways).map(|w| format!("{:.0}", c.misses(w))).collect();
                        println!("e{epoch} {:8} curve: {}", name, m.join(" "));
                    }
                }
                let decision = drive_epoch(now, cores, port.llc, port.dram, policy.as_mut());
                let mut ghz = vec![nominal_ghz; cores.len()];
                if let Some(ratios) = &decision.hints.clock_ratios {
                    for (&r, g) in ratios.iter().zip(ghz.iter_mut()) {
                        *g = nominal_ghz / r;
                    }
                }
                let ipcs: Vec<String> = cores
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let d = c.retired() - last_retired[i];
                        last_retired[i] = c.retired();
                        format!("{:.2}", d as f64 / 500_000.0)
                    })
                    .collect();
                if dvfs_mode {
                    let ghz: Vec<String> = ghz.iter().map(|g| format!("{g:.1}")).collect();
                    println!(
                        "e{epoch} alloc={:?} on={} ghz={:?} ipc={:?}",
                        port.llc.current_allocation(),
                        port.llc.ways_on(),
                        ghz,
                        ipcs
                    );
                } else if cbp_mode {
                    // The fallback epochs (no elapsed time) hint nothing;
                    // print the applied state so the line is never blank.
                    let bw: Vec<String> = match &decision.hints.bandwidth_shares {
                        Some(shares) => shares.iter().map(|s| format!("{s:.2}")).collect(),
                        None => vec!["-".into(); cores.len()],
                    };
                    let pf: Vec<u8> = match &decision.hints.prefetch_slots {
                        Some(slots) => slots.clone(),
                        None => cores.iter().map(|c| c.prefetch_degree()).collect(),
                    };
                    println!(
                        "e{epoch} alloc={:?} on={} bw={:?} pf={:?} ipc={:?}",
                        port.llc.current_allocation(),
                        port.llc.ways_on(),
                        bw,
                        pf,
                        ipcs
                    );
                } else {
                    println!(
                        "e{epoch} quotas={:?} alloc={:?} on={} ipc={:?}",
                        port.llc.ucp_quotas(),
                        port.llc.current_allocation(),
                        port.llc.ways_on(),
                        ipcs
                    );
                }
                EpochControl::Stop
            },
        );
    }
}
