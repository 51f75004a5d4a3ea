//! LLC configuration, the enforcement-mode vocabulary and the legacy
//! scheme-selection enum.

use memsim::CacheGeometry;

/// How the LLC *mechanism* enforces a partition. This is the only knob
/// [`crate::PartitionedLlc`] keys its probe/victim/epoch paths on — scheme
/// identity stays with the [`crate::policy::PartitionPolicy`] objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnforcementMode {
    /// No enforcement: every core probes and fills all ways (global LRU).
    None,
    /// UCP-style lazy replacement: all ways are probed and writable, but
    /// victim selection steers per-set occupancy toward per-core quotas.
    LazyReplacement,
    /// Way-aligned RAP/WAP masks; a repartition flushes every way that
    /// changes hands immediately (Dynamic CPE's application style).
    ImmediateFlush,
    /// Way-aligned RAP/WAP masks; a repartition hands ways over through the
    /// cooperative-takeover protocol (Figure 4) and gates unowned ways.
    Takeover,
}

impl EnforcementMode {
    /// True when data is kept way-aligned (probe masks shrink to owned
    /// ways — the source of dynamic tag-energy savings — and unowned ways
    /// can power-gate).
    pub fn is_way_aligned(self) -> bool {
        matches!(
            self,
            EnforcementMode::ImmediateFlush | EnforcementMode::Takeover
        )
    }

    /// True when construction starts from an equal static split (everything
    /// except [`EnforcementMode::None`], as in the paper's simulations).
    pub fn starts_partitioned(self) -> bool {
        self != EnforcementMode::None
    }
}

/// Which partitioning scheme the shared LLC runs (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No partitioning: all cores compete under global LRU.
    Unmanaged,
    /// Static equal way split per core.
    FairShare,
    /// Reddy & Petrov's energy-oriented partitioning, extended to dynamic
    /// operation driven by solo profiles; repartitioning flushes immediately.
    DynamicCpe,
    /// Qureshi & Patt's utility-based cache partitioning with look-ahead
    /// allocation, enforced lazily through the replacement policy.
    Ucp,
    /// The paper's scheme: threshold look-ahead + RAP/WAP way alignment +
    /// cooperative takeover + way gating.
    Cooperative,
}

impl SchemeKind {
    /// All five schemes, in the paper's presentation order.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::Unmanaged,
        SchemeKind::FairShare,
        SchemeKind::DynamicCpe,
        SchemeKind::Ucp,
        SchemeKind::Cooperative,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Unmanaged => "Unmanaged",
            SchemeKind::FairShare => "Fair Share",
            SchemeKind::DynamicCpe => "Dynamic CPE",
            SchemeKind::Ucp => "UCP",
            SchemeKind::Cooperative => "Cooperative Partitioning",
        }
    }

    /// True for the schemes that keep data way-aligned (and can therefore
    /// probe fewer ways and gate unused ones).
    pub fn is_way_aligned(self) -> bool {
        self.enforcement().is_way_aligned()
    }

    /// The enforcement mechanism this scheme's policy drives.
    pub fn enforcement(self) -> EnforcementMode {
        match self {
            SchemeKind::Unmanaged => EnforcementMode::None,
            SchemeKind::FairShare => EnforcementMode::Takeover,
            SchemeKind::DynamicCpe => EnforcementMode::ImmediateFlush,
            SchemeKind::Ucp => EnforcementMode::LazyReplacement,
            SchemeKind::Cooperative => EnforcementMode::Takeover,
        }
    }

    /// Whether the scheme's policy reads the utility monitors (and the LLC
    /// should therefore feed them on the access path).
    pub fn uses_umon(self) -> bool {
        matches!(self, SchemeKind::Ucp | SchemeKind::Cooperative)
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of the partitioned shared LLC.
#[derive(Debug, Clone, Copy)]
pub struct LlcConfig {
    /// Cache geometry (size/ways/line).
    pub geom: CacheGeometry,
    /// Hit latency in cycles (serial tag+data).
    pub hit_latency: u64,
    /// Outstanding misses (Table 2: 128-entry MSHR).
    pub mshrs: usize,
    /// Scheme in operation.
    pub scheme: SchemeKind,
    /// Cycles between monitoring/partitioning decisions (paper: 5 M).
    pub epoch_cycles: u64,
    /// Takeover threshold `T` of Algorithm 1. The paper operates at its
    /// Figure-11 knee (0.05); our synthetic workloads carry serialized
    /// (pointer-chase) misses on their marginal ways, which shifts the
    /// lossless knee to ~0.02-0.03 — the default is 0.03. Figures 11-13 sweep the
    /// full range either way.
    pub threshold: f64,
    /// UMON set-sampling: one in `2^umon_shift` sets carries shadow tags.
    pub umon_shift: u32,
    /// Root seed for the scheme's deterministic randomness (Algorithm 2
    /// picks random ways).
    pub seed: u64,
    /// Force-complete transitions still pending after this many epochs
    /// (bounds staleness when a donor never touches some sets; see
    /// DESIGN.md).
    pub transition_timeout_epochs: u32,
}

impl LlcConfig {
    /// Paper two-core configuration: 2 MB, 8-way, 15-cycle latency.
    pub fn two_core(scheme: SchemeKind) -> LlcConfig {
        LlcConfig {
            geom: CacheGeometry::new(2 << 20, 8, 64),
            hit_latency: 15,
            mshrs: 128,
            scheme,
            epoch_cycles: 5_000_000,
            threshold: 0.03,
            umon_shift: 4,
            seed: 0xC0FFEE,
            transition_timeout_epochs: 1,
        }
    }

    /// Paper four-core configuration: 4 MB, 16-way, 20-cycle latency.
    pub fn four_core(scheme: SchemeKind) -> LlcConfig {
        LlcConfig {
            geom: CacheGeometry::new(4 << 20, 16, 64),
            hit_latency: 20,
            mshrs: 128,
            scheme,
            ..LlcConfig::two_core(scheme)
        }
    }

    /// Configuration for an `n`-core system: the paper geometries for up to
    /// four cores, and a proportionally grown 8 MB / 32-way geometry for the
    /// 5-8 core systems the takeover structures already support.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds 8.
    pub fn for_cores(cores: usize, scheme: SchemeKind) -> LlcConfig {
        match cores {
            1 | 2 => LlcConfig::two_core(scheme),
            3 | 4 => LlcConfig::four_core(scheme),
            5..=8 => LlcConfig {
                geom: CacheGeometry::new(8 << 20, 32, 64),
                hit_latency: 25,
                mshrs: 128,
                scheme,
                ..LlcConfig::two_core(scheme)
            },
            n => panic!("supported systems have 1-8 cores, not {n}"),
        }
    }

    /// Scales the epoch length (used by reduced-scale reproduction runs).
    pub fn with_epoch(mut self, epoch_cycles: u64) -> LlcConfig {
        self.epoch_cycles = epoch_cycles;
        self
    }

    /// Sets the takeover threshold (Figures 11-13 sweep it).
    pub fn with_threshold(mut self, t: f64) -> LlcConfig {
        self.threshold = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        let two = LlcConfig::two_core(SchemeKind::Ucp);
        assert_eq!(two.geom.ways(), 8);
        assert_eq!(two.geom.sets(), 4096);
        assert_eq!(two.hit_latency, 15);
        let four = LlcConfig::four_core(SchemeKind::Cooperative);
        assert_eq!(four.geom.ways(), 16);
        assert_eq!(four.hit_latency, 20);
        assert_eq!(four.epoch_cycles, 5_000_000);
    }

    #[test]
    fn enforcement_mapping_matches_the_paper_table() {
        assert_eq!(SchemeKind::Unmanaged.enforcement(), EnforcementMode::None);
        assert_eq!(
            SchemeKind::Ucp.enforcement(),
            EnforcementMode::LazyReplacement
        );
        assert_eq!(
            SchemeKind::DynamicCpe.enforcement(),
            EnforcementMode::ImmediateFlush
        );
        for s in [SchemeKind::FairShare, SchemeKind::Cooperative] {
            assert_eq!(s.enforcement(), EnforcementMode::Takeover);
        }
        assert!(!EnforcementMode::None.is_way_aligned());
        assert!(!EnforcementMode::LazyReplacement.is_way_aligned());
        assert!(EnforcementMode::Takeover.is_way_aligned());
        assert!(!EnforcementMode::None.starts_partitioned());
        assert!(EnforcementMode::LazyReplacement.starts_partitioned());
        assert!(SchemeKind::Ucp.uses_umon() && SchemeKind::Cooperative.uses_umon());
        assert!(!SchemeKind::FairShare.uses_umon());
    }

    #[test]
    fn for_cores_picks_paper_geometries() {
        assert_eq!(LlcConfig::for_cores(2, SchemeKind::Ucp).geom.ways(), 8);
        assert_eq!(LlcConfig::for_cores(4, SchemeKind::Ucp).geom.ways(), 16);
        assert_eq!(LlcConfig::for_cores(8, SchemeKind::Ucp).geom.ways(), 32);
    }

    #[test]
    fn scheme_labels_and_alignment() {
        assert_eq!(SchemeKind::ALL.len(), 5);
        assert!(SchemeKind::Cooperative.is_way_aligned());
        assert!(SchemeKind::FairShare.is_way_aligned());
        assert!(!SchemeKind::Ucp.is_way_aligned());
        assert!(!SchemeKind::Unmanaged.is_way_aligned());
        assert_eq!(SchemeKind::Ucp.to_string(), "UCP");
    }

    #[test]
    fn builders_modify_fields() {
        let c = LlcConfig::two_core(SchemeKind::Cooperative)
            .with_epoch(1000)
            .with_threshold(0.2);
        assert_eq!(c.epoch_cycles, 1000);
        assert!((c.threshold - 0.2).abs() < 1e-12);
    }
}
