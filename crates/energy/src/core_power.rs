//! Voltage-scaled core power for the coordinated DVFS subsystem.
//!
//! The LLC model in [`crate::params`] charges the cache; this module charges
//! the cores, which is where DVFS earns its savings. Scaling laws (standard
//! first-order CMOS, documented per method):
//!
//! * **dynamic** energy per instruction scales with `V²` (switched
//!   capacitance `C·V²` per event; the *rate* scales with `f` but the
//!   per-instruction energy does not);
//! * **static** (leakage) power scales superlinearly with supply voltage —
//!   we use `V³`, a common fit for subthreshold + gate leakage across the
//!   narrow DVFS voltage range at 45 nm.
//!
//! Magnitudes are representative of a 45 nm out-of-order core at 2 GHz
//! (~2 W dynamic at IPC 1, ~0.5 W leakage), the same "plausible but not
//! calibrated" stance the LLC parameters take. Every result the `dvfs_energy`
//! experiment reports is a *ratio* against the cooperative-partitioning-only
//! baseline at nominal V/f, so the reproduced shapes depend only on the
//! scaling laws, not the absolute joules.

/// Per-core energy parameters at the nominal operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreEnergyParams {
    /// Dynamic energy per retired instruction at `vdd_nom`, in nJ. A 45 nm
    /// OoO core burning ~2 W of switching power at 2 GHz and IPC ~1 spends
    /// ~1 nJ per instruction.
    pub epi_nj: f64,
    /// Leakage power at `vdd_nom`, in mW (~0.5 W for core + private L1s).
    pub leak_mw: f64,
    /// Nominal supply voltage the magnitudes above are quoted at, in volts.
    pub vdd_nom: f64,
}

impl CoreEnergyParams {
    /// Representative 45 nm high-performance core magnitudes.
    pub fn for_45nm() -> CoreEnergyParams {
        CoreEnergyParams {
            epi_nj: 1.0,
            leak_mw: 500.0,
            vdd_nom: 1.10,
        }
    }

    /// Dynamic energy per instruction at supply voltage `vdd`, in nJ
    /// (`E_dyn ∝ V²`).
    pub fn dynamic_nj_per_instr(&self, vdd: f64) -> f64 {
        let v = vdd / self.vdd_nom;
        self.epi_nj * v * v
    }

    /// Leakage power at supply voltage `vdd`, in mW (`P_leak ∝ V³`).
    pub fn static_mw(&self, vdd: f64) -> f64 {
        let v = vdd / self.vdd_nom;
        self.leak_mw * v * v * v
    }

    /// Leakage energy over `ns` nanoseconds at `vdd`, in nJ.
    pub fn static_nj(&self, vdd: f64, ns: f64) -> f64 {
        // mW * ns = pJ; /1000 -> nJ.
        self.static_mw(vdd) * ns / 1000.0
    }
}

impl Default for CoreEnergyParams {
    fn default() -> Self {
        CoreEnergyParams::for_45nm()
    }
}

/// Evaluated core energies in nanojoules (summed over all cores).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CoreEnergyReport {
    /// Switching energy of retired instructions.
    pub dynamic_nj: f64,
    /// Leakage energy over the wall-clock window.
    pub static_nj: f64,
}

impl CoreEnergyReport {
    /// Total core energy.
    pub fn total_nj(&self) -> f64 {
        self.dynamic_nj + self.static_nj
    }

    /// Element-wise sum (for aggregating across cores or windows).
    pub fn merged(self, other: CoreEnergyReport) -> CoreEnergyReport {
        CoreEnergyReport {
            dynamic_nj: self.dynamic_nj + other.dynamic_nj,
            static_nj: self.static_nj + other.static_nj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_is_identity() {
        let p = CoreEnergyParams::for_45nm();
        assert!((p.dynamic_nj_per_instr(p.vdd_nom) - p.epi_nj).abs() < 1e-12);
        assert!((p.static_mw(p.vdd_nom) - p.leak_mw).abs() < 1e-12);
    }

    #[test]
    fn dynamic_scales_quadratically() {
        let p = CoreEnergyParams::for_45nm();
        let half = p.dynamic_nj_per_instr(p.vdd_nom / 2.0);
        assert!((half / p.epi_nj - 0.25).abs() < 1e-12);
    }

    #[test]
    fn static_scales_cubically() {
        let p = CoreEnergyParams::for_45nm();
        let half = p.static_mw(p.vdd_nom / 2.0);
        assert!((half / p.leak_mw - 0.125).abs() < 1e-12);
    }

    #[test]
    fn static_energy_unit_conversion() {
        let p = CoreEnergyParams {
            epi_nj: 1.0,
            leak_mw: 1000.0, // 1 W
            vdd_nom: 1.0,
        };
        // 1 W over 1 us = 1 uJ = 1000 nJ.
        assert!((p.static_nj(1.0, 1000.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn report_merge_and_total() {
        let a = CoreEnergyReport {
            dynamic_nj: 1.0,
            static_nj: 2.0,
        };
        let m = a.merged(a);
        assert_eq!(m.total_nj(), 6.0);
    }

    #[test]
    fn lower_operating_point_saves_energy_per_instruction() {
        // The 1.2 GHz / 0.90 V point of the paper's table: dynamic falls by
        // (0.90/1.10)^2 ≈ 0.67 even though the instruction count is fixed.
        let p = CoreEnergyParams::for_45nm();
        let low = p.dynamic_nj_per_instr(0.90);
        assert!(low < 0.70 * p.epi_nj && low > 0.60 * p.epi_nj, "{low}");
    }
}
