//! Raw energy-relevant event counts and the evaluated report.

/// Raw event counts accumulated by the LLC during a run.
///
/// The simulator counts *events*; joules appear only when
/// [`crate::EnergyParams::evaluate`] is applied, keeping the simulation
/// independent of any particular technology point.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EnergyCounts {
    /// Σ over accesses of the number of tag ways consulted.
    pub tag_way_probes: u64,
    /// Data-array reads (hits serving loads/instruction fills, and
    /// write-back readouts).
    pub data_reads: u64,
    /// Data-array writes (fills and store merges).
    pub data_writes: u64,
    /// UMON shadow-tag probes (sampled sets only).
    pub umon_probes: u64,
    /// Takeover bit-vector read-modify-writes.
    pub vector_accesses: u64,
    /// Integral over time of powered-on ways (way·cycles).
    pub on_way_cycles: u64,
    /// Integral over time of gated-off ways (way·cycles).
    pub gated_way_cycles: u64,
    /// Total simulated cycles (for always-on monitor overhead leakage).
    pub total_cycles: u64,
}

impl EnergyCounts {
    /// Element-wise sum (for aggregating across epochs or runs).
    pub fn merged(self, other: EnergyCounts) -> EnergyCounts {
        EnergyCounts {
            tag_way_probes: self.tag_way_probes + other.tag_way_probes,
            data_reads: self.data_reads + other.data_reads,
            data_writes: self.data_writes + other.data_writes,
            umon_probes: self.umon_probes + other.umon_probes,
            vector_accesses: self.vector_accesses + other.vector_accesses,
            on_way_cycles: self.on_way_cycles + other.on_way_cycles,
            gated_way_cycles: self.gated_way_cycles + other.gated_way_cycles,
            total_cycles: self.total_cycles + other.total_cycles,
        }
    }
}

/// Evaluated energies in nanojoules.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Reported *dynamic* energy: tag probes + monitoring overheads. This is
    /// the quantity the paper's dynamic-energy figures plot.
    pub dynamic_nj: f64,
    /// Tag-probe component of `dynamic_nj`.
    pub tag_nj: f64,
    /// Monitoring-overhead component of `dynamic_nj` (UMON + bit vectors).
    pub overhead_nj: f64,
    /// Data-array energy (identical across schemes to first order; tracked
    /// separately, not part of the paper's tag-side dynamic metric).
    pub data_nj: f64,
    /// Leakage energy, including gated residual and monitor overhead.
    pub static_nj: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyParams;

    #[test]
    fn merged_adds_fields() {
        let a = EnergyCounts {
            tag_way_probes: 1,
            data_reads: 2,
            data_writes: 3,
            umon_probes: 4,
            vector_accesses: 5,
            on_way_cycles: 6,
            gated_way_cycles: 7,
            total_cycles: 8,
        };
        let m = a.merged(a);
        assert_eq!(m.tag_way_probes, 2);
        assert_eq!(m.total_cycles, 16);
        assert_eq!(m.gated_way_cycles, 14);
    }

    #[test]
    fn report_components_sum() {
        let p = EnergyParams::for_llc(2 << 20, 8);
        let c = EnergyCounts {
            tag_way_probes: 100,
            umon_probes: 10,
            vector_accesses: 10,
            data_reads: 5,
            data_writes: 5,
            on_way_cycles: 1000,
            gated_way_cycles: 1000,
            total_cycles: 2000,
        };
        let r = p.evaluate(&c);
        assert!((r.dynamic_nj - (r.tag_nj + r.overhead_nj)).abs() < 1e-12);
        assert!(r.data_nj > 0.0);
        assert!(r.static_nj > 0.0);
    }

    #[test]
    fn dynamic_energy_tracks_ways_consulted_ratio() {
        // The paper's headline: Unmanaged (8 ways probed) uses ~2x the
        // dynamic energy of Fair Share (4 ways probed), at equal accesses.
        let p = EnergyParams::for_llc(2 << 20, 8);
        let accesses = 1_000_000u64;
        let unmanaged = EnergyCounts {
            tag_way_probes: 8 * accesses,
            ..EnergyCounts::default()
        };
        let fair = EnergyCounts {
            tag_way_probes: 4 * accesses,
            ..EnergyCounts::default()
        };
        let ratio = p.evaluate(&unmanaged).dynamic_nj / p.evaluate(&fair).dynamic_nj;
        assert!((ratio - 2.0).abs() < 1e-9);
    }
}
