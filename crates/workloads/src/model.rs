//! Generative benchmark model parameters.

/// Memory reference pattern of one model component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Sequential walk with a byte stride over a huge region: no reuse at
    /// LLC scale — capacity buys nothing (e.g. `lbm`, `libquantum`, `milc`).
    Stream {
        /// Bytes between consecutive references (8 = every 8th reference
        /// moves to a new 64 B line).
        stride: u64,
    },
    /// Uniform random references within a bounded region: hit rate grows
    /// smoothly with allocated capacity (graded utility curve).
    RandomWs,
    /// Power-law-skewed references within a bounded region (line index
    /// `⌊N·u^θ⌋` for uniform `u`): a hot head keeps the *solo* miss rate low
    /// while the long tail still rewards every extra way — decoupling an
    /// application's MPKI level from its cache appetite, as in real SPEC
    /// reference behaviour.
    SkewedWs {
        /// Skew exponent (≥ 1; larger = hotter head). θ=1 is uniform.
        theta: f64,
    },
    /// Cyclic line-granular sweep of the region: all-or-nothing utility
    /// cliff at the footprint (classic LRU behaviour).
    Loop,
    /// Random references with a load-to-load dependence: misses serialize
    /// (e.g. `mcf`).
    PointerChase,
}

/// One component of a benchmark's reference stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Footprint in bytes.
    pub region_bytes: u64,
    /// Access pattern within the region.
    pub pattern: Pattern,
    /// Relative share of memory references targeting this component.
    pub weight: f64,
}

/// A program phase: for `instrs` instructions, component weights are
/// multiplied by `weight_scale` (index-aligned with the component list).
///
/// Phases cycle; a model without phases is stationary.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase length in dynamic instructions.
    pub instrs: u64,
    /// Per-component weight multipliers for the phase's duration.
    pub weight_scale: Vec<f64>,
}

/// A complete benchmark model.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkModel {
    /// Display name (matches the paper's tables).
    pub name: &'static str,
    /// Fraction of instructions that are loads.
    pub load_frac: f64,
    /// Fraction of instructions that are stores.
    pub store_frac: f64,
    /// Fraction of instructions that are conditional branches.
    pub branch_frac: f64,
    /// Probability a branch takes its biased direction (1.0 = perfectly
    /// predictable, 0.5 = random).
    pub branch_bias: f64,
    /// Static code footprint in bytes (drives L1-I misses).
    pub code_bytes: u64,
    /// Average dynamic basic-block length in instructions (controls how
    /// often the PC jumps within the code footprint).
    pub block_len: u64,
    /// Memory reference components.
    pub components: Vec<Component>,
    /// Optional phase schedule.
    pub phases: Vec<Phase>,
}

impl BenchmarkModel {
    /// Fraction of instructions referencing memory.
    pub fn mem_frac(&self) -> f64 {
        self.load_frac + self.store_frac
    }

    /// Validates internal consistency (fractions, weights, phases).
    pub fn validate(&self) -> Result<(), String> {
        let mix = self.load_frac + self.store_frac + self.branch_frac;
        if !(0.0..=1.0).contains(&mix) {
            return Err(format!("{}: instruction mix sums to {mix}", self.name));
        }
        if self.components.is_empty() {
            return Err(format!("{}: no memory components", self.name));
        }
        if self.components.iter().map(|c| c.weight).sum::<f64>() <= 0.0 {
            return Err(format!("{}: zero total component weight", self.name));
        }
        for c in &self.components {
            if c.region_bytes < 64 {
                return Err(format!("{}: component region below one line", self.name));
            }
            if let Pattern::SkewedWs { theta } = c.pattern {
                if !(1.0..=16.0).contains(&theta) {
                    return Err(format!("{}: skew theta {theta} out of range", self.name));
                }
            }
        }
        for p in &self.phases {
            if p.weight_scale.len() != self.components.len() {
                return Err(format!(
                    "{}: phase scales {} components, model has {}",
                    self.name,
                    p.weight_scale.len(),
                    self.components.len()
                ));
            }
            if p.instrs == 0 {
                return Err(format!("{}: zero-length phase", self.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BenchmarkModel {
        BenchmarkModel {
            name: "test",
            load_frac: 0.25,
            store_frac: 0.10,
            branch_frac: 0.15,
            branch_bias: 0.95,
            code_bytes: 16 << 10,
            block_len: 10,
            components: vec![Component {
                region_bytes: 1 << 20,
                pattern: Pattern::RandomWs,
                weight: 1.0,
            }],
            phases: vec![],
        }
    }

    #[test]
    fn valid_model_passes() {
        assert!(base().validate().is_ok());
        assert!((base().mem_frac() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn bad_mix_rejected() {
        let mut m = base();
        m.load_frac = 0.9;
        m.branch_frac = 0.9;
        assert!(m.validate().is_err());
    }

    #[test]
    fn phase_scale_arity_checked() {
        let mut m = base();
        m.phases.push(Phase {
            instrs: 1000,
            weight_scale: vec![1.0, 2.0], // wrong arity
        });
        assert!(m.validate().is_err());
    }

    #[test]
    fn tiny_region_rejected() {
        let mut m = base();
        m.components[0].region_bytes = 32;
        assert!(m.validate().is_err());
    }
}
