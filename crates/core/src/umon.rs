//! UCP-style utility monitors (UMON-DSS).
//!
//! One monitor per core: an auxiliary tag directory (ATD) over a sampled
//! subset of sets, with full associativity and true LRU. A hit at LRU stack
//! position `p` means the access *would have hit* with any allocation of more
//! than `p` ways (Mattson's stack property), so per-position hit counters
//! plus the miss count give the whole miss curve in one pass.
//!
//! Set sampling (one in `2^shift` sets) keeps the hardware small; counts are
//! scaled back up when the curve is read. Counters are halved at each epoch
//! so the monitor tracks phase changes (Qureshi & Patt, Section 3.1).

use crate::curve::MissCurve;

/// A per-core utility monitor.
///
/// The shadow-tag stacks live in one contiguous fixed-stride slab (`ways`
/// slots per sampled set) with a per-stack length byte, so the per-access
/// `observe` is a linear scan over adjacent memory and a `copy_within`
/// rotation instead of nested-`Vec` chasing. The f64 hit/miss counters are
/// untouched by the flattening, keeping every derived miss curve
/// bit-identical to the original nested representation.
#[derive(Debug, Clone)]
pub struct UtilityMonitor {
    ways: usize,
    shift: u32,
    /// Which sampled residue class of set indices this monitor watches.
    residue: usize,
    /// Shadow tags, MRU first: stack `s` occupies `tags[s*ways..(s+1)*ways]`
    /// with `lens[s]` live entries.
    tags: Vec<u64>,
    /// Live entries per stack.
    lens: Vec<u8>,
    /// Hits at each LRU stack position.
    way_hits: Vec<f64>,
    /// Accesses that missed the whole ATD.
    misses: f64,
    /// Total sampled accesses.
    accesses: f64,
}

impl UtilityMonitor {
    /// Creates a monitor for a cache with `sets` sets and `ways` ways,
    /// sampling one set in `2^shift`.
    ///
    /// # Panics
    ///
    /// Panics if `2^shift > sets` or `ways == 0`.
    pub fn new(sets: usize, ways: usize, shift: u32) -> UtilityMonitor {
        let step = 1usize << shift;
        assert!(step <= sets && ways > 0);
        let stacks = sets >> shift;
        UtilityMonitor {
            ways,
            shift,
            residue: step / 2, // avoid set 0 (often hot with low addresses)
            tags: vec![0; stacks * ways],
            lens: vec![0; stacks],
            way_hits: vec![0.0; ways],
            misses: 0.0,
            accesses: 0.0,
        }
    }

    /// True if `set_index` is one of the sampled sets.
    #[inline]
    pub fn samples(&self, set_index: usize) -> bool {
        (set_index & ((1 << self.shift) - 1)) == self.residue
    }

    /// Scaling factor from sampled counts to whole-cache counts.
    pub fn scale(&self) -> f64 {
        (1u64 << self.shift) as f64
    }

    /// Observes an access to a sampled set. Returns `true` if the monitor
    /// actually recorded it (callers may use this to charge UMON probe
    /// energy).
    #[inline]
    pub fn observe(&mut self, set_index: usize, tag: u64) -> bool {
        if !self.samples(set_index) {
            return false;
        }
        let base = (set_index >> self.shift) * self.ways;
        let len = self.lens[set_index >> self.shift] as usize;
        self.accesses += 1.0;
        let stack = &mut self.tags[base..base + self.ways];
        match stack[..len].iter().position(|&t| t == tag) {
            Some(p) => {
                self.way_hits[p] += 1.0;
                // Move-to-front: slide positions 0..p down by one.
                stack.copy_within(0..p, 1);
                stack[0] = tag;
            }
            None => {
                self.misses += 1.0;
                // Insert at MRU; the LRU tag falls off when full.
                let keep = len.min(self.ways - 1);
                stack.copy_within(0..keep, 1);
                stack[0] = tag;
                self.lens[set_index >> self.shift] = (keep + 1) as u8;
            }
        }
        true
    }

    /// The miss curve implied by the stack property, scaled to whole-cache
    /// counts: `misses(w) = atd_misses + Σ_{p >= w} way_hits[p]`.
    pub fn miss_curve(&self) -> MissCurve {
        let mut values = Vec::with_capacity(self.ways + 1);
        let mut tail: f64 = self.way_hits.iter().sum();
        values.push((self.misses + tail) * self.scale());
        for p in 0..self.ways {
            tail -= self.way_hits[p];
            values.push((self.misses + tail.max(0.0)) * self.scale());
        }
        MissCurve::new(values, self.accesses * self.scale())
    }

    /// Halves all counters (epoch aging); shadow tags are retained.
    pub fn age(&mut self) {
        for h in &mut self.way_hits {
            *h /= 2.0;
        }
        self.misses /= 2.0;
        self.accesses /= 2.0;
    }

    /// Sampled accesses recorded since construction (unscaled).
    pub fn sampled_accesses(&self) -> f64 {
        self.accesses
    }

    /// Number of shadow-tag entries this monitor can hold (hardware cost).
    pub fn shadow_entries(&self) -> usize {
        self.tags.len()
    }

    /// Live shadow tags in stack `s` (exposed for tests).
    #[cfg(test)]
    fn stack_len(&self, s: usize) -> usize {
        self.lens[s] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A monitor over a tiny 16-set cache, sampling every set (shift 0)
    /// so tests can reason exactly.
    fn dense(ways: usize) -> UtilityMonitor {
        let mut m = UtilityMonitor::new(16, ways, 0);
        m.residue = 0;
        m
    }

    #[test]
    fn sampling_respects_shift() {
        let m = UtilityMonitor::new(64, 4, 4);
        let sampled: Vec<_> = (0..64).filter(|&s| m.samples(s)).collect();
        assert_eq!(sampled.len(), 4);
        assert_eq!(m.scale(), 16.0);
        // All sampled sets share the residue.
        assert!(sampled.iter().all(|s| s % 16 == sampled[0] % 16));
    }

    #[test]
    fn stack_property_yields_monotone_curve() {
        let mut m = dense(4);
        // Access tags 1,2,3,1,2,3 in set 0: reuse distance 2 (position 2).
        for _ in 0..10 {
            for t in [1u64, 2, 3] {
                m.observe(0, t);
            }
        }
        let c = m.miss_curve();
        // With >=3 ways everything but the 3 cold misses hits.
        assert_eq!(c.misses(3), 3.0);
        assert_eq!(c.misses(4), 3.0);
        // With fewer ways all accesses miss (cyclic pattern defeats LRU).
        assert_eq!(c.misses(2), 30.0);
        assert_eq!(c.misses(0), 30.0);
        for w in 0..4 {
            assert!(c.misses(w) >= c.misses(w + 1));
        }
    }

    #[test]
    fn hit_position_counts_exact() {
        let mut m = dense(4);
        m.observe(0, 10); // miss
        m.observe(0, 10); // hit at position 0
        m.observe(0, 11); // miss
        m.observe(0, 10); // hit at position 1
        assert_eq!(m.way_hits[0], 1.0);
        assert_eq!(m.way_hits[1], 1.0);
        assert_eq!(m.misses, 2.0);
        let c = m.miss_curve();
        assert_eq!(c.misses(0), 4.0);
        assert_eq!(c.misses(1), 3.0); // position-0 hit survives with 1 way
        assert_eq!(c.misses(2), 2.0);
    }

    #[test]
    fn aging_halves_counts_keeps_tags() {
        let mut m = dense(4);
        m.observe(0, 1);
        m.observe(0, 1);
        m.age();
        assert_eq!(m.misses, 0.5);
        assert_eq!(m.way_hits[0], 0.5);
        // Tag still resident: next access hits.
        m.observe(0, 1);
        assert_eq!(m.way_hits[0], 1.5);
    }

    #[test]
    fn scaling_multiplies_counts() {
        let mut m = UtilityMonitor::new(64, 2, 4);
        let sampled = (0..64).find(|&s| m.samples(s)).unwrap();
        m.observe(sampled, 7);
        let c = m.miss_curve();
        assert_eq!(c.misses(0), 16.0, "one sampled miss counts for 16");
        assert_eq!(c.accesses(), 16.0);
    }

    #[test]
    fn non_sampled_sets_ignored() {
        let mut m = UtilityMonitor::new(64, 2, 4);
        let skipped = (0..64).find(|&s| !m.samples(s)).unwrap();
        assert!(!m.observe(skipped, 1));
        assert_eq!(m.sampled_accesses(), 0.0);
    }

    #[test]
    fn atd_capacity_is_bounded() {
        let mut m = dense(2);
        for t in 0..100u64 {
            m.observe(0, t);
        }
        assert!(m.stack_len(0) <= 2);
        assert_eq!(m.shadow_entries(), 32);
    }
}
