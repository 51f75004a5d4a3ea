//! Hardware overhead accounting (paper Table 1).
//!
//! Cooperative Partitioning needs, beyond UCP's monitoring hardware:
//! one takeover bit per set per core, and one RAP + one WAP bit per way per
//! core. Table 1 of the paper reports these for the two configurations.
//!
//! Note: the paper's table assumes 2048 sets for both caches, but the stated
//! geometries (2 MB/8-way/64 B and 4 MB/16-way/64 B) both yield 4096 sets;
//! [`HardwareOverhead::paper_table1`] reproduces the published numbers while
//! [`HardwareOverhead::for_geometry`] computes from first principles.

use memsim::CacheGeometry;

/// Bit costs of the cooperative-partitioning hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareOverhead {
    /// Takeover bit vectors: `sets * cores` bits.
    pub takeover_bits: u64,
    /// RAP registers: `ways * cores` bits.
    pub rap_bits: u64,
    /// WAP registers: `ways * cores` bits.
    pub wap_bits: u64,
}

impl HardwareOverhead {
    /// Computes the overhead for a cache geometry and core count.
    pub fn for_geometry(geom: CacheGeometry, cores: usize) -> HardwareOverhead {
        HardwareOverhead {
            takeover_bits: (geom.sets() * cores) as u64,
            rap_bits: (geom.ways() * cores) as u64,
            wap_bits: (geom.ways() * cores) as u64,
        }
    }

    /// The numbers as published in Table 1 (which assume 2048 sets).
    pub fn paper_table1(cores: usize) -> HardwareOverhead {
        let ways = match cores {
            2 => 8,
            4 => 16,
            _ => panic!("paper reports two- and four-core systems only"),
        };
        HardwareOverhead {
            takeover_bits: 2048 * cores as u64,
            rap_bits: (ways * cores) as u64,
            wap_bits: (ways * cores) as u64,
        }
    }

    /// Total extra bits.
    pub fn total_bits(&self) -> u64 {
        self.takeover_bits + self.rap_bits + self.wap_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_match_table1() {
        let two = HardwareOverhead::paper_table1(2);
        assert_eq!(two.takeover_bits, 4096);
        assert_eq!(two.rap_bits, 16);
        assert_eq!(two.wap_bits, 16);
        assert_eq!(two.total_bits(), 4128);
        let four = HardwareOverhead::paper_table1(4);
        assert_eq!(four.takeover_bits, 8192);
        assert_eq!(four.rap_bits, 64);
        assert_eq!(four.wap_bits, 64);
        assert_eq!(four.total_bits(), 8320);
    }

    #[test]
    fn geometry_based_numbers() {
        let two = HardwareOverhead::for_geometry(CacheGeometry::new(2 << 20, 8, 64), 2);
        assert_eq!(two.takeover_bits, 8192, "4096 sets x 2 cores");
        assert_eq!(two.rap_bits, 16);
        let four = HardwareOverhead::for_geometry(CacheGeometry::new(4 << 20, 16, 64), 4);
        assert_eq!(four.takeover_bits, 16384);
        assert_eq!(four.rap_bits, 64);
    }

    #[test]
    #[should_panic]
    fn paper_table_rejects_other_core_counts() {
        HardwareOverhead::paper_table1(3);
    }
}
