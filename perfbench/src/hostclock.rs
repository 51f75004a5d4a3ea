//! The host clock of the end-to-end speed metrics.
//!
//! The benchmark shares a few vCPUs of a host with other tenants, and
//! wall time moves with them twice over: while the vCPU is not running
//! (preemption, steal), and while it runs slower because the host is
//! busy (a lower clock, shared caches and memory bus). So host time is
//! taken in two steps:
//!
//! - as CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`), which
//!   leaves out time the thread did not run; the guest kernel's
//!   paravirtual steal accounting leaves out host steal too;
//! - scaled to *reference seconds* by a fixed calibration kernel timed
//!   just before and just after each measured span: `cpu_s ×
//!   CALIBRATION_NOMINAL_S / mean(kernel before, kernel after)`, the time
//!   the span would have taken on a host that runs the kernel in its
//!   nominal time. The nominal time is the kernel's time on the unloaded
//!   2-vCPU Xeon VM of `BASELINE.json`, so there a reference second is a
//!   CPU second.
//!
//! The kernel is this file's own code, so a change to the simulator
//! moves the measured span and not the scale.

/// CPU time of the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(f64);

/// Converts `cpu_s` CPU seconds into reference seconds, given the
/// calibration kernel times taken just before and just after them.
pub fn reference_s(cpu_s: f64, before: f64, after: f64) -> f64 {
    cpu_s * CALIBRATION_NOMINAL_S * 2.0 / (before + after)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

impl CpuInstant {
    /// The thread's start.
    pub const ZERO: CpuInstant = CpuInstant(0.0);

    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec, and the clock id is
        // one Linux always provides.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        CpuInstant(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }

    /// CPU seconds since `self`.
    pub fn elapsed(self) -> f64 {
        CpuInstant::now().0 - self.0
    }
}

/// Words in the calibration kernel's table (1 MiB): out of L1, inside
/// L2, like the simulator's hot state.
const TABLE_WORDS: usize = 1 << 17;

/// Kernel iterations per calibration.
const CALIBRATION_ITERS: u32 = 300_000;

/// Seed of the table and of every kernel run.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// CPU seconds one calibration takes on the reference host (the 2-vCPU
/// Xeon VM of `BASELINE.json`, unloaded: 4.64-4.73 ms).
pub const CALIBRATION_NOMINAL_S: f64 = 0.0047;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration kernel and its table.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x = SEED;
        Calibrator {
            table: (0..TABLE_WORDS).map(|_| xorshift(&mut x)).collect(),
        }
    }

    /// The same integer, branchy, table-driven work on every call:
    /// random reads from the table, a data-dependent branch, and a short
    /// 8-way tag search, the shapes that dominate a cycle-level
    /// simulator.
    fn kernel(&self) -> u64 {
        let mask = TABLE_WORDS - 1;
        let mut x = SEED;
        let mut acc = 0_u64;
        for _ in 0..CALIBRATION_ITERS {
            let r = xorshift(&mut x);
            let v = self.table[r as usize & mask];
            if v & 3 == 0 {
                acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ v;
            } else {
                acc = acc.wrapping_add(v >> 2);
            }
            let set = ((r >> 32) as usize & mask) & !7;
            let tag = r >> 61;
            if let Some(w) = self.table[set..set + 8]
                .iter()
                .position(|&t| t >> 61 == tag)
            {
                acc ^= w as u64;
            }
        }
        std::hint::black_box(acc)
    }

    /// Runs the kernel three times, after bringing its table back into
    /// the caches; the median of their CPU seconds.
    pub fn measure(&self) -> f64 {
        std::hint::black_box(self.table.iter().fold(0_u64, |a, &t| a ^ t));
        let mut times = [0.0; 3];
        for time in &mut times {
            let t = CpuInstant::now();
            self.kernel();
            *time = t.elapsed();
        }
        crate::median(&times)
    }
}
