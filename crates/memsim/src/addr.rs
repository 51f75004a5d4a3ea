//! Cache geometry and address mapping.

use simkit::types::LineAddr;

/// Geometry of a set-associative cache.
///
/// All three quantities must be powers of two; geometry arithmetic is pure
/// bit manipulation on [`LineAddr`]s.
///
/// ```
/// use memsim::CacheGeometry;
/// // The paper's two-core shared L2: 2 MB, 8-way, 64 B lines.
/// let g = CacheGeometry::new(2 << 20, 8, 64);
/// assert_eq!(g.sets(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: usize,
    line_bytes: u64,
    /// Derived at construction: number of sets. Cached so the per-access
    /// index/tag arithmetic is shift/mask only — computing it on demand
    /// costs a 64-bit division on every cache access.
    sets: usize,
    /// Derived at construction: `log2(sets)`.
    index_bits: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not a power of two, or if the
    /// configuration yields zero sets.
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> CacheGeometry {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(ways.is_power_of_two(), "ways must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = (size_bytes / (line_bytes * ways as u64)) as usize;
        assert!(sets >= 1, "degenerate geometry");
        CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
            sets,
            index_bits: sets.trailing_zeros(),
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (number of ways).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Set index for a line address.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.sets - 1)
    }

    /// Tag for a line address (everything above the index bits).
    #[inline]
    pub fn tag(&self, line: LineAddr) -> u64 {
        line.raw() >> self.index_bits
    }

    /// Reassembles a line address from a tag and set index (inverse of
    /// [`Self::tag`] + [`Self::set_index`]).
    #[inline]
    pub fn line_from(&self, tag: u64, set_index: usize) -> LineAddr {
        LineAddr((tag << self.index_bits) | set_index as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::types::CoreId;

    #[test]
    fn paper_geometries() {
        let two = CacheGeometry::new(2 << 20, 8, 64);
        assert_eq!(two.sets(), 4096);
        let four = CacheGeometry::new(4 << 20, 16, 64);
        assert_eq!(four.sets(), 4096);
        let l1 = CacheGeometry::new(32 << 10, 4, 64);
        assert_eq!(l1.sets(), 128);
    }

    #[test]
    fn tag_index_roundtrip() {
        let g = CacheGeometry::new(2 << 20, 8, 64);
        for core in [CoreId(0), CoreId(3)] {
            for byte in [0u64, 64, 4096, 0xdead_beef, 0xffff_ffff] {
                let line = LineAddr::from_byte_addr(core, byte, 64);
                let t = g.tag(line);
                let s = g.set_index(line);
                assert_eq!(g.line_from(t, s), line);
            }
        }
    }

    #[test]
    fn different_cores_same_low_bits_share_sets_but_not_tags() {
        let g = CacheGeometry::new(2 << 20, 8, 64);
        let a = LineAddr::from_byte_addr(CoreId(0), 0x8000, 64);
        let b = LineAddr::from_byte_addr(CoreId(1), 0x8000, 64);
        assert_eq!(g.set_index(a), g.set_index(b), "cores contend for sets");
        assert_ne!(g.tag(a), g.tag(b), "tags disambiguate owners");
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        CacheGeometry::new(3 << 20, 8, 64);
    }
}
