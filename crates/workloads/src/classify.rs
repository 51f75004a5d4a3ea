//! MPKI classification (paper Table 3).

/// The paper's three MPKI classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpkiClass {
    /// MPKI > 5.
    High,
    /// 1 < MPKI < 5 (boundary values round toward Medium).
    Medium,
    /// MPKI < 1.
    Low,
}

impl MpkiClass {
    /// Display label as in Table 3.
    pub fn label(self) -> &'static str {
        match self {
            MpkiClass::High => "High",
            MpkiClass::Medium => "Medium",
            MpkiClass::Low => "Low",
        }
    }
}

impl std::fmt::Display for MpkiClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classifies an LLC misses-per-kilo-instruction value per Table 3's rule:
/// High has MPKI > 5, Medium 1 < MPKI <= 5, Low MPKI <= 1.
pub fn classify_mpki(mpki: f64) -> MpkiClass {
    if mpki > 5.0 {
        MpkiClass::High
    } else if mpki > 1.0 {
        MpkiClass::Medium
    } else {
        MpkiClass::Low
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Benchmark;

    #[test]
    fn thresholds() {
        assert_eq!(classify_mpki(20.1), MpkiClass::High);
        assert_eq!(classify_mpki(5.1), MpkiClass::High);
        assert_eq!(classify_mpki(5.0), MpkiClass::Medium);
        assert_eq!(classify_mpki(1.1), MpkiClass::Medium);
        assert_eq!(classify_mpki(1.0), MpkiClass::Low);
        assert_eq!(classify_mpki(0.1), MpkiClass::Low);
    }

    #[test]
    fn paper_values_classify_as_in_table3() {
        use MpkiClass::*;
        let expect = [
            (Benchmark::Gobmk, High),
            (Benchmark::Lbm, High),
            (Benchmark::Sjeng, High),
            (Benchmark::Soplex, High),
            (Benchmark::Astar, Medium),
            (Benchmark::Bzip2, Medium),
            (Benchmark::Calculix, Medium),
            (Benchmark::Gcc, Medium),
            (Benchmark::Libquantum, Medium),
            (Benchmark::Mcf, Medium),
            (Benchmark::DealII, Low),
            (Benchmark::Gromacs, Low),
            (Benchmark::H264ref, Low),
            (Benchmark::Milc, Low),
            (Benchmark::Namd, Low),
            (Benchmark::Omnetpp, Low),
            (Benchmark::Perlbench, Low),
            (Benchmark::Povray, Low),
            (Benchmark::Xalan, Low),
        ];
        for (b, class) in expect {
            assert_eq!(classify_mpki(b.paper_mpki()), class, "{b}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(MpkiClass::High.to_string(), "High");
        assert_eq!(MpkiClass::Medium.label(), "Medium");
    }
}
