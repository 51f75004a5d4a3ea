//! Flattened structure-of-arrays set storage — the production backing store
//! for every set-associative structure in the simulator.
//!
//! [`SetArena`] holds *all* sets of a cache in contiguous slabs instead of
//! one heap allocation per set:
//!
//! * `tags` — one `u64` slab, line `(set, way)` at `set * ways + way`, so a
//!   lookup is a linear scan over adjacent memory;
//! * `meta` — one packed byte per line (owner in bits 0–2, dirty in bit 3);
//!   validity lives in a per-set bitmask so `find`/`victim` can reject
//!   empty ways with mask arithmetic instead of per-way loads;
//! * recency — for associativities up to 16, a per-set `u64` *order word*
//!   of 4-bit way nibbles (MRU at nibble 0), making `touch` a shift/mask
//!   rotation instead of a `Vec::remove` + `insert`; for 17–64 ways, a
//!   per-line recency stamp with a per-set monotone clock.
//!
//! The semantics are bit-identical to the reference [`CacheSet`]
//! (`crates/memsim/tests/arena_reference.rs` property-tests the two against
//! each other): same hit ways, same victims, same recency orders, same
//! owner counts, for any interleaving of masked operations. `CacheSet`
//! remains the readable specification; `SetArena` is what the hot paths
//! run on.
//!
//! [`CacheSet`]: crate::set::CacheSet

use simkit::types::CoreId;

use crate::set::{LineState, WayMask};

/// Broadcast of a 4-bit nibble across a `u64`.
const NIBBLES: u64 = 0x1111_1111_1111_1111;
/// High bit of every nibble.
const HIGHS: u64 = 0x8888_8888_8888_8888;
/// The identity permutation as an order word: nibble `p` holds way `p`.
const IDENTITY_ORDER: u64 = 0xFEDC_BA98_7654_3210;
/// Largest associativity the packed nibble order covers.
const PACKED_MAX_WAYS: usize = 16;

/// Owner bits of a metadata byte (cores are bounded by 8).
const META_OWNER: u8 = 0b0111;
/// Dirty bit of a metadata byte.
const META_DIRTY: u8 = 0b1000;

/// Recency tracking, chosen by associativity.
#[derive(Debug, Clone)]
enum Recency {
    /// Order words live in the per-set [`SetHead`]s: 4-bit way nibbles, MRU
    /// at nibble 0, LRU at nibble `ways - 1`; positions `>= ways` stay zero.
    Packed,
    /// Per-line stamps (larger = more recently used) plus a per-set clock;
    /// the heads' order words are unused.
    Stamped { stamps: Vec<u64>, clock: Vec<u64> },
}

/// Per-set header: the validity bitmask and the packed LRU order word,
/// adjacent so one cache-line fill serves both on every access.
#[derive(Debug, Clone, Copy)]
struct SetHead {
    /// Bit `w` = way `w` holds valid data.
    valid: u64,
    /// Nibble-packed recency order (packed representation only).
    order: u64,
}

/// All sets of one set-associative structure, flattened into contiguous
/// slabs with true-LRU recency and *masked* operations.
///
/// Every method takes the set index first; otherwise the surface mirrors
/// the reference [`crate::set::CacheSet`] exactly.
#[derive(Debug, Clone)]
pub struct SetArena {
    sets: usize,
    ways: usize,
    /// The low `4 * ways` bits (all 64 for 16-way) of an order word.
    low_bits: u64,
    tags: Vec<u64>,
    meta: Vec<u8>,
    heads: Vec<SetHead>,
    recency: Recency,
}

impl SetArena {
    /// Creates empty storage for `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or `ways` is outside `1..=64`.
    pub fn new(sets: usize, ways: usize) -> SetArena {
        assert!(sets >= 1, "a cache has at least one set");
        assert!((1..=64).contains(&ways));
        let low_bits = if ways >= PACKED_MAX_WAYS {
            u64::MAX
        } else {
            (1u64 << (4 * ways)) - 1
        };
        let recency = if ways <= PACKED_MAX_WAYS {
            Recency::Packed
        } else {
            // Way `w` starts at recency position `w` (way 0 MRU), exactly
            // like the reference's initial `0..ways` order.
            let mut stamps = vec![0u64; sets * ways];
            for set in 0..sets {
                for w in 0..ways {
                    stamps[set * ways + w] = (ways - 1 - w) as u64;
                }
            }
            Recency::Stamped {
                stamps,
                clock: vec![(ways - 1) as u64; sets],
            }
        };
        SetArena {
            sets,
            ways,
            low_bits,
            tags: vec![0; sets * ways],
            meta: vec![0; sets * ways],
            heads: vec![
                SetHead {
                    valid: 0,
                    order: IDENTITY_ORDER & low_bits,
                };
                sets
            ],
            recency,
        }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        debug_assert!(set < self.sets && way < self.ways);
        set * self.ways + way
    }

    /// The state of line `(set, way)`. Invalid lines read back as
    /// [`LineState::INVALID`], as in the reference implementation.
    #[inline]
    pub fn line(&self, set: usize, way: usize) -> LineState {
        if (self.heads[set].valid >> way) & 1 == 0 {
            return LineState::INVALID;
        }
        let i = self.idx(set, way);
        let m = self.meta[i];
        LineState {
            valid: true,
            dirty: m & META_DIRTY != 0,
            owner: CoreId(m & META_OWNER),
            tag: self.tags[i],
        }
    }

    /// Looks for `tag` among the valid ways of `set` selected by `mask`,
    /// returning the lowest matching way. No recency side effects.
    ///
    /// Every way is compared into a match mask (way `w` at bit `w`, built
    /// from the highest way down), so the scan has no exit that depends on
    /// the (random) simulated tags.
    #[inline]
    pub fn find(&self, set: usize, tag: u64, mask: WayMask) -> Option<usize> {
        let base = set * self.ways;
        let hits = self.tags[base..base + self.ways]
            .iter()
            .rev()
            .fold(0u64, |hits, &t| (hits << 1) | (t == tag) as u64);
        let m = hits & mask.0 & self.heads[set].valid;
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// Recency position of `way` in an order word (0 = MRU), located with a
    /// SWAR zero-nibble search: positions `>= ways` are forced non-matching
    /// through `low_bits`, and Mycroft's trick never reports a false
    /// positive below the first true match, so the lowest set high-bit is
    /// the position of `way`.
    #[inline]
    fn packed_pos(word: u64, way: usize, low_bits: u64) -> u32 {
        let x = (word ^ (way as u64 * NIBBLES)) | !low_bits;
        let z = x.wrapping_sub(NIBBLES) & !x & HIGHS;
        debug_assert!(z != 0, "way {way} missing from order word {word:#x}");
        z.trailing_zeros() >> 2
    }

    /// Marks `way` most recently used.
    ///
    /// The packed rotation needs no `p > 0` test: at `p = 0` it rebuilds
    /// the order word unchanged.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        debug_assert!(way < self.ways);
        match &mut self.recency {
            Recency::Packed => {
                let word = self.heads[set].order;
                let p = Self::packed_pos(word, way, self.low_bits);
                let below = (1u64 << (4 * p)) - 1;
                let rest = (word & below) | ((word >> 4) & !below);
                self.heads[set].order = (rest << 4) | way as u64;
            }
            Recency::Stamped { stamps, clock } => {
                clock[set] += 1;
                stamps[set * self.ways + way] = clock[set];
            }
        }
    }

    /// The least-recently-used way of `set` among `mask`, preferring
    /// invalid lines (scanned LRU-first, like the reference).
    ///
    /// Returns `None` when the mask is empty.
    #[inline]
    pub fn victim(&self, set: usize, mask: WayMask) -> Option<usize> {
        if mask.is_empty() {
            return None;
        }
        let m = mask.0;
        let invalid = m & !self.heads[set].valid;
        match &self.recency {
            Recency::Packed => {
                let word = self.heads[set].order;
                if invalid != 0 {
                    if let Some(w) = self.scan_lru_first(word, invalid) {
                        return Some(w);
                    }
                }
                self.scan_lru_first(word, m)
            }
            Recency::Stamped { stamps, .. } => {
                let base = set * self.ways;
                if invalid != 0 {
                    if let Some(w) = Self::oldest_of(&stamps[base..base + self.ways], invalid) {
                        return Some(w);
                    }
                }
                Self::oldest_of(&stamps[base..base + self.ways], m)
            }
        }
    }

    /// First way of `candidates` encountered scanning the order word from
    /// the LRU end.
    #[inline]
    fn scan_lru_first(&self, word: u64, candidates: u64) -> Option<usize> {
        for p in (0..self.ways).rev() {
            let w = ((word >> (4 * p)) & 0xF) as usize;
            if (candidates >> w) & 1 == 1 {
                return Some(w);
            }
        }
        None
    }

    /// The candidate way with the smallest recency stamp (stamps are
    /// unique, so this is the unambiguous LRU).
    #[inline]
    fn oldest_of(stamps: &[u64], candidates: u64) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        let mut m = candidates;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            if w >= stamps.len() {
                break;
            }
            if best.is_none_or(|(s, _)| stamps[w] < s) {
                best = Some((stamps[w], w));
            }
        }
        best.map(|(_, w)| w)
    }

    /// The least-recently-used *valid* way of `set` among `mask` owned by
    /// `owner`.
    pub fn victim_owned_by(&self, set: usize, mask: WayMask, owner: CoreId) -> Option<usize> {
        let base = set * self.ways;
        let mut owned = 0u64;
        let mut m = mask.0 & self.heads[set].valid;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.meta[base + w] & META_OWNER == owner.0 {
                owned |= 1 << w;
            }
        }
        if owned == 0 {
            return None;
        }
        match &self.recency {
            Recency::Packed => self.scan_lru_first(self.heads[set].order, owned),
            Recency::Stamped { stamps, .. } => {
                Self::oldest_of(&stamps[base..base + self.ways], owned)
            }
        }
    }

    /// Installs a line into `(set, way)`, returning the previous state (so
    /// callers can write back a dirty victim). The way becomes MRU.
    pub fn fill(
        &mut self,
        set: usize,
        way: usize,
        tag: u64,
        owner: CoreId,
        dirty: bool,
    ) -> LineState {
        let prev = self.line(set, way);
        let i = self.idx(set, way);
        self.tags[i] = tag;
        self.meta[i] = (owner.0 & META_OWNER) | if dirty { META_DIRTY } else { 0 };
        self.heads[set].valid |= 1 << way;
        self.touch(set, way);
        prev
    }

    /// Invalidates `(set, way)`, returning the previous state. The recency
    /// order is untouched, as in the reference.
    pub fn invalidate(&mut self, set: usize, way: usize) -> LineState {
        let prev = self.line(set, way);
        self.heads[set].valid &= !(1u64 << way);
        prev
    }

    /// Marks a resident line dirty (a write hit).
    #[inline]
    pub fn mark_dirty(&mut self, set: usize, way: usize) {
        debug_assert!(
            (self.heads[set].valid >> way) & 1 == 1,
            "dirtying an invalid line"
        );
        let i = self.idx(set, way);
        self.meta[i] |= META_DIRTY;
    }

    /// Whether line `(set, way)` holds valid data.
    #[inline]
    pub fn is_valid(&self, set: usize, way: usize) -> bool {
        (self.heads[set].valid >> way) & 1 == 1
    }

    /// Validity bitmask of `set` (bit `w` = way `w` valid).
    #[inline]
    pub fn valid_mask(&self, set: usize) -> u64 {
        self.heads[set].valid
    }

    /// Number of valid lines in `set` owned by `owner`.
    pub fn owned_count(&self, set: usize, owner: CoreId) -> usize {
        let base = set * self.ways;
        let mut n = 0;
        let mut m = self.heads[set].valid;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.meta[base + w] & META_OWNER == owner.0 {
                n += 1;
            }
        }
        n
    }

    /// Recency position of `way` in `set` (0 = MRU).
    pub fn recency_of(&self, set: usize, way: usize) -> usize {
        debug_assert!(way < self.ways);
        match &self.recency {
            Recency::Packed => Self::packed_pos(self.heads[set].order, way, self.low_bits) as usize,
            Recency::Stamped { stamps, .. } => {
                let base = set * self.ways;
                let mine = stamps[base + way];
                stamps[base..base + self.ways]
                    .iter()
                    .filter(|&&s| s > mine)
                    .count()
            }
        }
    }

    /// The way of `set` at LRU rank `rank` (0 = LRU, `ways - 1` = MRU):
    /// O(1) on the packed order word.
    pub fn way_at_lru_rank(&self, set: usize, rank: usize) -> usize {
        debug_assert!(rank < self.ways);
        match &self.recency {
            Recency::Packed => {
                ((self.heads[set].order >> (4 * (self.ways - 1 - rank))) & 0xF) as usize
            }
            Recency::Stamped { stamps, .. } => {
                let base = set * self.ways;
                let s = &stamps[base..base + self.ways];
                (0..self.ways)
                    .find(|&w| s.iter().filter(|&&o| o < s[w]).count() == rank)
                    .expect("stamps are unique, every rank is populated")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_respects_mask_and_validity() {
        let mut a = SetArena::new(4, 4);
        a.fill(1, 2, 0xAB, CoreId(0), false);
        assert_eq!(a.find(1, 0xAB, WayMask::all(4)), Some(2));
        assert_eq!(a.find(1, 0xAB, WayMask(0b0011)), None, "masked out");
        assert_eq!(a.find(0, 0xAB, WayMask::all(4)), None, "other set");
        // A stale tag in an invalidated way is unreachable.
        a.invalidate(1, 2);
        assert_eq!(a.find(1, 0xAB, WayMask::all(4)), None);
    }

    #[test]
    fn find_returns_lowest_matching_way() {
        let mut a = SetArena::new(1, 8);
        a.fill(0, 6, 0x77, CoreId(0), false);
        a.fill(0, 3, 0x77, CoreId(0), false);
        assert_eq!(a.find(0, 0x77, WayMask::all(8)), Some(3));
        assert_eq!(a.find(0, 0x77, WayMask(0b1111_0000)), Some(6));
        // Invalid ways hold tag 0, which must not match a lookup of 0.
        assert_eq!(a.find(0, 0, WayMask::all(8)), None);
    }

    #[test]
    fn touching_the_mru_way_keeps_the_order() {
        for ways in [1, 4, 16] {
            let mut a = SetArena::new(1, ways);
            for w in 0..ways {
                a.fill(0, w, w as u64, CoreId(0), false);
            }
            let before = a.heads[0].order;
            a.touch(0, ways - 1);
            assert_eq!(a.heads[0].order, before, "{ways} ways");
        }
    }

    #[test]
    fn initial_order_matches_reference() {
        // The reference starts with way 0 MRU … way w-1 LRU, for both
        // recency representations.
        for ways in [4, 16, 32] {
            let a = SetArena::new(2, ways);
            for w in 0..ways {
                assert_eq!(a.recency_of(0, w), w, "{ways} ways");
                assert_eq!(a.way_at_lru_rank(0, ways - 1 - w), w, "{ways} ways");
            }
            assert_eq!(a.victim(0, WayMask::all(ways)), Some(ways - 1));
        }
    }

    #[test]
    fn touch_rotates_packed_order() {
        let mut a = SetArena::new(1, 4);
        for w in 0..4 {
            a.fill(0, w, w as u64, CoreId(0), false);
        }
        a.touch(0, 0); // 0 MRU again; 1 is now LRU
        assert_eq!(a.victim(0, WayMask::all(4)), Some(1));
        assert_eq!(a.recency_of(0, 0), 0);
        assert_eq!(a.recency_of(0, 1), 3);
    }

    #[test]
    fn victim_prefers_invalid_in_lru_order() {
        let mut a = SetArena::new(1, 4);
        for w in 0..4 {
            a.fill(0, w, w as u64, CoreId(0), false);
        }
        assert_eq!(a.victim(0, WayMask::all(4)), Some(0));
        a.invalidate(0, 2);
        assert_eq!(a.victim(0, WayMask::all(4)), Some(2), "invalid preferred");
        assert_eq!(a.victim(0, WayMask(0b1010)), Some(1));
        assert_eq!(a.victim(0, WayMask::NONE), None);
    }

    #[test]
    fn fill_returns_previous_state() {
        let mut a = SetArena::new(1, 2);
        a.fill(0, 0, 7, CoreId(0), true);
        let prev = a.fill(0, 0, 9, CoreId(1), false);
        assert!(prev.valid && prev.dirty);
        assert_eq!(prev.tag, 7);
        assert_eq!(a.line(0, 0).owner, CoreId(1));
        assert_eq!(a.owned_count(0, CoreId(1)), 1);
        assert_eq!(a.owned_count(0, CoreId(0)), 0);
    }

    #[test]
    fn victim_owned_by_finds_lru_of_owner() {
        let mut a = SetArena::new(1, 4);
        a.fill(0, 0, 1, CoreId(0), false);
        a.fill(0, 1, 2, CoreId(1), false);
        a.fill(0, 2, 3, CoreId(0), false);
        a.fill(0, 3, 4, CoreId(1), false);
        assert_eq!(a.victim_owned_by(0, WayMask::all(4), CoreId(1)), Some(1));
        assert_eq!(a.victim_owned_by(0, WayMask::all(4), CoreId(0)), Some(0));
        assert_eq!(a.victim_owned_by(0, WayMask(0b1000), CoreId(0)), None);
    }

    #[test]
    fn mark_dirty_and_line_roundtrip() {
        let mut a = SetArena::new(2, 8);
        a.fill(1, 5, 0xDEAD, CoreId(3), false);
        assert!(!a.line(1, 5).dirty);
        a.mark_dirty(1, 5);
        let l = a.line(1, 5);
        assert!(l.valid && l.dirty);
        assert_eq!(l.owner, CoreId(3));
        assert_eq!(l.tag, 0xDEAD);
        assert_eq!(a.line(1, 4), LineState::INVALID);
    }

    #[test]
    fn stamped_fallback_behaves_like_lru() {
        // 32 ways exercises the recency-stamp representation.
        let mut a = SetArena::new(1, 32);
        let all = WayMask::all(32);
        for w in 0..32 {
            let v = a.victim(0, all).expect("non-empty");
            assert_eq!(v, 31 - w, "cold fills walk invalid ways LRU-first");
            a.fill(0, v, w as u64, CoreId(0), false);
        }
        // Ways were filled 31, 30, …, 0; way 31 is now LRU among valid.
        assert_eq!(a.victim(0, all), Some(31));
        a.touch(0, 31);
        assert_eq!(a.victim(0, all), Some(30));
        assert_eq!(a.recency_of(0, 31), 0);
        assert_eq!(a.way_at_lru_rank(0, 0), 30);
    }
}
