//! Hot-path kernels: the per-access storage layer that dominates simulation
//! runtime.
//!
//! Two kernels bracket the flattened-arena work (see BENCH_5.json for the
//! recorded before/after trajectory):
//!
//! * `llc_access_stream_2core_16way` — end-to-end demand-access throughput
//!   through `PartitionedLlc::access` (permission masks, set find/touch,
//!   UMON observation, victim/fill) backed by the banked-DRAM stub;
//! * `cacheset_touch_find_16way` — the set-storage primitive alone (the
//!   production [`memsim::SetArena`]): masked find/touch on hits,
//!   victim/fill on misses, alternating full and half way masks;
//! * `cacheset_reference_16way` — the same op stream through the reference
//!   `CacheSet`, so the flattening stays *measured*, not asserted.
//!
//! Two more bracket the event-driven stepping work (PR 6):
//!
//! * `core_step_event_driven_4core` — four cores with a mixed synthetic
//!   stream driven by the wake-list `SystemStepper` against a fixed-latency
//!   LLC double, measured per 1000 retired instructions on core 0;
//! * `core_step_reference_4core` — the identical system under the per-cycle
//!   reference stepper, so the wake-list speedup stays *measured*.
//!
//! Two more isolate the per-instruction core structures, whose random
//! simulated tags and outcomes defeat early-exit scans:
//!
//! * `l1d_access_4way_16kb` / `l1d_access_4way_1mb` — `memsim::Cache::access`
//!   on a paper-sized 32 KB 4-way L1-D, with random lines over a 16 KB
//!   footprint (all hits after warm-up) and over 1 MB (mostly misses:
//!   victim, fill, dirty write-back);
//! * `gshare_observe` — `Gshare::observe` (PHT update plus BTB probe and
//!   insert) on random branch PCs over 4 KB of code, 90% taken: as many
//!   branches as BTB entries, so once warm every probe hits, in a random
//!   way, as in the skewed hot code of the synthetic workloads.
//!
//! Run with `cargo bench -p bench --bench hotpath`. The numbers are
//! ns per 1000 operations (each `iter` performs 1000 accesses).

use coop_core::{LlcConfig, PartitionedLlc, SchemeKind};
use cpusim::{
    Core, CoreConfig, EpochControl, Gshare, Instr, InstrSource, LlcPort, StepperKind, SystemStepper,
};
use criterion::{criterion_group, criterion_main, Criterion};
use memsim::{Cache, CacheGeometry, CacheSet, Dram, DramConfig, SetArena, WayMask};
use simkit::types::{CoreId, Cycle, LineAddr};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn bench_hotpath(c: &mut Criterion) {
    // Kernel 1: end-to-end demand accesses through the partitioned LLC.
    // ~7/8 of the stream walks a hot window (hits after warm-up), the rest
    // streams cold lines (misses, victims, fills, DRAM timing).
    c.bench_function("llc_access_stream_2core_16way", |b| {
        let cfg = LlcConfig {
            geom: CacheGeometry::new(4 << 20, 16, 64),
            hit_latency: 20,
            mshrs: 128,
            scheme: SchemeKind::Cooperative,
            epoch_cycles: 5_000_000,
            threshold: 0.03,
            umon_shift: 4,
            seed: 0xC0FFEE,
            transition_timeout_epochs: 1,
        };
        let mut llc = PartitionedLlc::new(cfg, 2);
        let mut dram = Dram::new(DramConfig::default());
        let mut now = 0u64;
        let mut state = 0x5EED_0BAD_u64;
        let mut burst = |llc: &mut PartitionedLlc, dram: &mut Dram| {
            let mut last = Cycle(0);
            for _ in 0..1000 {
                let r = lcg(&mut state);
                let core = CoreId((r & 1) as u8);
                let byte = if r & 0b1110 != 0 {
                    (r >> 4) % (512 * 64)
                } else {
                    ((r >> 4) % (64 << 20)) | (1 << 30)
                };
                now += 2;
                last = llc.access(
                    Cycle(now),
                    core,
                    LineAddr::from_byte_addr(core, byte, 64),
                    r & 0x10 != 0,
                    dram,
                );
            }
            last
        };
        // Warm the hot window and the host's own caches so the timing loop
        // (and its batch-size calibration) measures steady state.
        for _ in 0..50 {
            burst(&mut llc, &mut dram);
        }
        b.iter(|| burst(&mut llc, &mut dram))
    });

    // Kernel 2: the production set-storage primitive alone (one 16-way set
    // of a SetArena).
    c.bench_function("cacheset_touch_find_16way", |b| {
        let mut arena = SetArena::new(1, 16);
        let masks = [WayMask::all(16), WayMask(0x00FF)];
        let mut state = 0xFEED_u64;
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..1000usize {
                let tag = lcg(&mut state) % 24;
                let mask = masks[i & 1];
                match arena.find(0, tag, mask) {
                    Some(w) => {
                        arena.touch(0, w);
                        hits += 1;
                    }
                    None => {
                        let v = arena.victim(0, mask).expect("non-empty mask");
                        arena.fill(0, v, tag, CoreId((i & 1) as u8), tag & 1 == 1);
                    }
                }
            }
            hits
        })
    });

    // Kernels 6/7: the L1-D demand path (find/touch on hits, victim/fill
    // on misses) over a footprint that fits and one that thrashes.
    for (name, footprint) in [
        ("l1d_access_4way_16kb", 16u64 << 10),
        ("l1d_access_4way_1mb", 1 << 20),
    ] {
        c.bench_function(name, |b| {
            let mut l1d = Cache::new(CacheGeometry::new(32 << 10, 4, 64), CoreId(0));
            let mut state = 0x11D_5EED_u64;
            let mut burst = |l1d: &mut Cache| {
                let mut hits = 0u64;
                for _ in 0..1000 {
                    let r = lcg(&mut state);
                    let line = LineAddr::from_byte_addr(CoreId(0), (r >> 2) % footprint, 64);
                    hits += l1d.access(line, r & 3 == 0).hit as u64;
                }
                hits
            };
            for _ in 0..50 {
                burst(&mut l1d);
            }
            b.iter(|| burst(&mut l1d))
        });
    }

    // Kernel 8: branch prediction, direction table and BTB together.
    c.bench_function("gshare_observe", |b| {
        let mut bp = Gshare::paper_default();
        let mut state = 0xB7B_5EED_u64;
        let mut burst = |bp: &mut Gshare| {
            let mut redirects = 0u64;
            for _ in 0..1000 {
                let r = lcg(&mut state);
                redirects += bp.observe(((r >> 8) % 1024) * 4, !r.is_multiple_of(10)) as u64;
            }
            redirects
        };
        for _ in 0..50 {
            burst(&mut bp);
        }
        b.iter(|| burst(&mut bp))
    });

    // Kernels 4/5: system stepping — four cores with a mixed instruction
    // stream (ALU / loads over a 1 MB footprint / stores / branches) against
    // a fixed-latency LLC double, under each stepper. Each iteration runs
    // until every core retires 1000 more instructions (4000 total); the
    // system persists across iterations so the timing loop measures steady
    // state.
    for kind in [StepperKind::EventDriven, StepperKind::Reference] {
        let name = match kind {
            StepperKind::EventDriven => "core_step_event_driven_4core",
            StepperKind::Reference => "core_step_reference_4core",
        };
        c.bench_function(name, |b| {
            struct Mix {
                state: u64,
            }
            impl InstrSource for Mix {
                fn next_instr(&mut self) -> Instr {
                    let r = lcg(&mut self.state);
                    match r % 8 {
                        0..=2 => Instr::alu((r >> 3) % 1024),
                        3 | 4 => Instr::load((r >> 3) % 4096, (r >> 8) % (1 << 20)),
                        5 => Instr::store((r >> 3) % 4096, (r >> 8) % (1 << 18)),
                        _ => Instr::branch((r >> 3) % 2048, r & 1 == 0),
                    }
                }
            }
            struct FlatLlc;
            impl LlcPort for FlatLlc {
                fn access(&mut self, now: Cycle, _: CoreId, line: LineAddr, _: bool) -> Cycle {
                    now + 180 + (line.raw() % 3) * 60
                }
                fn writeback(&mut self, _: Cycle, _: CoreId, _: LineAddr) {}
            }
            let mut cores: Vec<Core> = (0..4)
                .map(|i| {
                    Core::new(
                        CoreId(i as u8),
                        CoreConfig::default(),
                        Box::new(Mix {
                            state: 0x5EED ^ ((i as u64 + 1) << 32),
                        }),
                    )
                })
                .collect();
            let mut llc = FlatLlc;
            let mut stepper = SystemStepper::new(kind, 5_000_000);
            b.iter(|| {
                let targets: Vec<u64> = cores.iter().map(|c| c.retired() + 1000).collect();
                stepper.run(
                    &mut cores,
                    &mut llc,
                    &targets,
                    Cycle(u64::MAX),
                    |_, _, _| EpochControl::Continue,
                )
            })
        });
    }

    // Kernel 3: the identical op stream through the reference CacheSet.
    c.bench_function("cacheset_reference_16way", |b| {
        let mut set = CacheSet::new(16);
        let masks = [WayMask::all(16), WayMask(0x00FF)];
        let mut state = 0xFEED_u64;
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..1000usize {
                let tag = lcg(&mut state) % 24;
                let mask = masks[i & 1];
                match set.find(tag, mask) {
                    Some(w) => {
                        set.touch(w);
                        hits += 1;
                    }
                    None => {
                        let v = set.victim(mask).expect("non-empty mask");
                        set.fill(v, tag, CoreId((i & 1) as u8), tag & 1 == 1);
                    }
                }
            }
            hits
        })
    });
}

criterion_group! {
    name = hotpath;
    config = Criterion::default().sample_size(40);
    targets = bench_hotpath
}
criterion_main!(hotpath);
