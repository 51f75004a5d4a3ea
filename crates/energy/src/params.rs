//! Energy parameters (CACTI-5.1-like magnitudes at 45 nm).

use crate::accounting::{EnergyCounts, EnergyReport};

/// Per-event energies and leakage powers for one LLC configuration.
///
/// Defaults are derived from published CACTI 5.1 45 nm outputs for multi-MB
/// SRAM caches with serial tag/data access; see field docs. Use
/// [`EnergyParams::for_llc`] to scale them to a given cache size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy per tag-way probe, in nJ. Serial access probes the tag arrays
    /// of every consulted way; ~0.011 nJ/way for a 2 MB 8-way cache.
    pub tag_probe_nj_per_way: f64,
    /// Energy per data-array read (one way's data subarray), in nJ.
    pub data_read_nj: f64,
    /// Energy per data-array write, in nJ.
    pub data_write_nj: f64,
    /// Leakage power of one powered-on way, in mW (≈0.147 mW/kB at 45 nm
    /// high-performance SRAM; a 256 kB way leaks ≈ 37.5 mW).
    pub leak_mw_per_way: f64,
    /// Residual leakage fraction of a gated-Vdd way (Powell et al. report
    /// ~97% leakage elimination; we keep 3% residual).
    pub gated_residual: f64,
    /// Core clock in GHz (converts cycles to seconds for leakage).
    pub clock_ghz: f64,
    /// Energy per UMON shadow-tag probe, in nJ (small sampled ATD).
    pub umon_probe_nj: f64,
    /// Energy per takeover-bit-vector read-modify-write, in nJ.
    pub vector_access_nj: f64,
    /// Extra always-on leakage for the monitoring hardware (UMON ATDs,
    /// RAP/WAP registers, bit vectors), as a fraction of one way's leakage.
    pub monitor_leak_ways: f64,
}

impl EnergyParams {
    /// Parameters for an LLC of `size_bytes` with `ways` ways.
    ///
    /// Tag energy grows mildly with capacity (longer bitlines); leakage is
    /// proportional to powered capacity. The 2 MB/8-way and 4 MB/16-way
    /// paper configurations land on ≈0.011 and ≈0.013 nJ per tag-way probe.
    pub fn for_llc(size_bytes: u64, ways: usize) -> EnergyParams {
        let mb = size_bytes as f64 / (1 << 20) as f64;
        let way_kb = size_bytes as f64 / 1024.0 / ways as f64;
        EnergyParams {
            tag_probe_nj_per_way: 0.011 * (mb / 2.0).sqrt(),
            data_read_nj: 0.38 * (mb / 2.0).sqrt(),
            data_write_nj: 0.41 * (mb / 2.0).sqrt(),
            leak_mw_per_way: 0.1465 * way_kb,
            gated_residual: 0.03,
            clock_ghz: 2.0,
            umon_probe_nj: 0.002,
            vector_access_nj: 0.0005,
            monitor_leak_ways: 0.02,
        }
    }

    /// Leakage energy of one way over one clock cycle, in nJ.
    pub fn leak_nj_per_way_cycle(&self) -> f64 {
        // P[mW] * t[ns] = pJ; /1000 -> nJ. One cycle is 1/clock_ghz ns.
        self.leak_mw_per_way / self.clock_ghz / 1000.0
    }

    /// Converts raw event counts into an energy report.
    pub fn evaluate(&self, counts: &EnergyCounts) -> EnergyReport {
        let tag_nj = counts.tag_way_probes as f64 * self.tag_probe_nj_per_way;
        let overhead_nj = counts.umon_probes as f64 * self.umon_probe_nj
            + counts.vector_accesses as f64 * self.vector_access_nj;
        let data_nj = counts.data_reads as f64 * self.data_read_nj
            + counts.data_writes as f64 * self.data_write_nj;
        let leak_way_cycle = self.leak_nj_per_way_cycle();
        let static_nj = (counts.on_way_cycles as f64
            + counts.gated_way_cycles as f64 * self.gated_residual
            + counts.total_cycles as f64 * self.monitor_leak_ways)
            * leak_way_cycle;
        EnergyReport {
            dynamic_nj: tag_nj + overhead_nj,
            tag_nj,
            overhead_nj,
            data_nj,
            static_nj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_have_sensible_magnitudes() {
        let two = EnergyParams::for_llc(2 << 20, 8);
        let four = EnergyParams::for_llc(4 << 20, 16);
        assert!((two.tag_probe_nj_per_way - 0.011).abs() < 1e-9);
        assert!(four.tag_probe_nj_per_way > two.tag_probe_nj_per_way);
        // Both configs have 256 kB ways -> identical per-way leakage.
        assert!((two.leak_mw_per_way - four.leak_mw_per_way).abs() < 1e-9);
        assert!(two.leak_mw_per_way > 30.0 && two.leak_mw_per_way < 45.0);
    }

    #[test]
    fn leakage_unit_conversion() {
        let p = EnergyParams::for_llc(2 << 20, 8);
        // ~37.5 mW per way at 2 GHz -> 0.01875 nJ per way-cycle.
        let nj = p.leak_nj_per_way_cycle();
        assert!((nj - 0.01875).abs() < 2e-3, "got {nj}");
    }

    #[test]
    fn evaluate_scales_linearly_with_probes() {
        let p = EnergyParams::for_llc(2 << 20, 8);
        let base = EnergyCounts {
            tag_way_probes: 1000,
            ..EnergyCounts::default()
        };
        let double = EnergyCounts {
            tag_way_probes: 2000,
            ..EnergyCounts::default()
        };
        let a = p.evaluate(&base);
        let b = p.evaluate(&double);
        assert!((b.dynamic_nj / a.dynamic_nj - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gated_ways_leak_residually() {
        let p = EnergyParams::for_llc(2 << 20, 8);
        let on = EnergyCounts {
            on_way_cycles: 1_000_000,
            ..EnergyCounts::default()
        };
        let gated = EnergyCounts {
            gated_way_cycles: 1_000_000,
            ..EnergyCounts::default()
        };
        let e_on = p.evaluate(&on).static_nj;
        let e_gated = p.evaluate(&gated).static_nj;
        assert!((e_gated / e_on - p.gated_residual).abs() < 1e-9);
    }
}
