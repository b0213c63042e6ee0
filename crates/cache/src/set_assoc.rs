//! A generic set-associative, write-back, write-allocate cache.

use silcfm_types::CacheParams;

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load or instruction fetch.
    Read,
    /// Store (marks the line dirty).
    Write,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// Line address of a dirty line evicted to make room (write-back).
    pub writeback: Option<u64>,
}

/// Tag-match words: `(tag << 2) | (dirty << 1) | valid`. Packing state and
/// tag into one u64 lets a lookup test validity and tag equality with a
/// single compare, and keeps a whole 8-way set inside one host cacheline —
/// this probe runs on every simulated memory access.
const VALID_BIT: u64 = 1;
const DIRTY_BIT: u64 = 2;
const TAG_SHIFT: u32 = 2;

/// LRU rank words: way `w`'s recency rank (0 = MRU, `ways - 1` = LRU) sits
/// in bits `4w..4w + 4` of its set's word, so up to 16 ways share one u64.
const RANK_BITS: u32 = 4;
const RANK_MASK: u64 = (1 << RANK_BITS) - 1;
const MAX_WAYS: u32 = u64::BITS / RANK_BITS;
/// The low bit of every nibble.
const NIBBLE_LOW: u64 = 0x1111_1111_1111_1111;
/// The even nibbles, each in the low half of its own byte lane.
const EVEN_NIBBLES: u64 = 0x0F0F_0F0F_0F0F_0F0F;
const BYTE_LOW: u64 = 0x0101_0101_0101_0101;
const BYTE_HIGH: u64 = 0x8080_8080_8080_8080;

/// The low bit of every nibble of `ranks` that holds a value below `r`
/// (`r <= 15`). Even and odd nibbles are spread into byte lanes whose top
/// bits are guards, so one subtraction compares all eight lanes without
/// borrowing across them: bit 7 of `(x | 0x80) - r` is set iff `x >= r`.
const fn ranks_below(ranks: u64, r: u64) -> u64 {
    let rs = r * BYTE_LOW;
    let even = !(((ranks & EVEN_NIBBLES) | BYTE_HIGH) - rs) & BYTE_HIGH;
    let odd = !((((ranks >> RANK_BITS) & EVEN_NIBBLES) | BYTE_HIGH) - rs) & BYTE_HIGH;
    (even >> 7) | (odd >> 7 << RANK_BITS)
}

/// Makes `way` the MRU way of a set whose rank word is `ranks`: every way
/// more recent than it ages by one, the rest keep their rank. `way_nibbles`
/// holds the low bit of each rank field in use. No rank can overflow its
/// nibble, since only ranks below `way`'s grow.
const fn touch(ranks: u64, way: u32, way_nibbles: u64) -> u64 {
    let shift = RANK_BITS * way;
    let aging = ranks_below(ranks, (ranks >> shift) & RANK_MASK) & way_nibbles;
    (ranks + aging) & !(RANK_MASK << shift)
}

/// The way holding the LRU rank `ways - 1`: the only way in use whose rank
/// is not below it.
const fn lru_way(ranks: u64, ways: u64, way_nibbles: u64) -> u32 {
    (!ranks_below(ranks, ways - 1) & way_nibbles).trailing_zeros() / RANK_BITS
}

/// A set-associative cache with true-LRU replacement, write-back and
/// write-allocate policies. Operates on *line addresses* (byte address
/// divided by the line size) so it is independent of the line size.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Packed tag/valid/dirty words, `ways` per set.
    lines: Vec<u64>,
    /// One rank word per set. Each set's ranks are always a permutation of
    /// `0..ways`, so exactly one way holds the LRU rank.
    ranks: Vec<u64>,
    ways: usize,
    /// `NIBBLE_LOW` restricted to the `ways` rank fields in use.
    way_nibbles: u64,
    num_sets: u64,
    /// `num_sets - 1`; the power-of-two set count makes index extraction a
    /// mask and tag extraction a shift.
    set_mask: u64,
    set_shift: u32,
    hits: u64,
    misses: u64,
    writebacks: u64,
    latency_cycles: u32,
}

impl SetAssocCache {
    /// Creates an empty cache from Table II-style parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not yield a whole power-of-two set count,
    /// or ask for more than 16 ways (the rank word's capacity).
    pub fn new(params: CacheParams) -> Self {
        let num_sets = params.sets();
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two, got {num_sets}"
        );
        assert!(
            params.ways <= MAX_WAYS,
            "at most {MAX_WAYS} ways fit the LRU rank word, got {}",
            params.ways
        );
        let mut cache = Self {
            lines: vec![0; (num_sets * u64::from(params.ways)) as usize],
            ranks: vec![0; num_sets as usize],
            ways: params.ways as usize,
            way_nibbles: NIBBLE_LOW >> (RANK_BITS * (MAX_WAYS - params.ways)),
            num_sets,
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
            hits: 0,
            misses: 0,
            writebacks: 0,
            latency_cycles: params.latency_cycles,
        };
        cache.reset();
        cache
    }

    /// Access latency in CPU cycles (Table II).
    pub const fn latency_cycles(&self) -> u32 {
        self.latency_cycles
    }

    /// Number of sets.
    pub const fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Hits so far.
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub const fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Looks up `line_addr`, allocating it on a miss (write-allocate) and
    /// returning any dirty victim.
    pub fn access(&mut self, line_addr: u64, kind: AccessKind) -> AccessResult {
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let want = (tag << TAG_SHIFT) | VALID_BIT;
        let dirty = if kind == AccessKind::Write {
            DIRTY_BIT
        } else {
            0
        };
        let base = set * self.ways;
        // `set < num_sets` after masking, so both lookups are in bounds by
        // construction; the `else` arm keeps the access panic-free anyway.
        let (Some(lines), Some(ranks)) = (
            self.lines.get_mut(base..base + self.ways),
            self.ranks.get_mut(set),
        ) else {
            debug_assert!(false, "masked set index {set} out of bounds");
            return AccessResult {
                hit: false,
                writeback: None,
            };
        };

        // Scan every way, without an early exit, into bit masks: a fixed
        // trip count the compiler can unroll. Tags are unique within a set,
        // so at most one way hits.
        let mut hit_ways = 0u32;
        let mut invalid_ways = 0u32;
        for (w, &l) in lines.iter().enumerate() {
            hit_ways |= u32::from(l & !DIRTY_BIT == want) << w;
            invalid_ways |= u32::from(l & VALID_BIT == 0) << w;
        }

        if hit_ways != 0 {
            let way = hit_ways.trailing_zeros();
            if let Some(line) = lines.get_mut(way as usize) {
                *line |= dirty;
            }
            *ranks = touch(*ranks, way, self.way_nibbles);
            self.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        // The victim is the lowest invalid way, else the LRU way. Ways fill
        // in index order and are never invalidated singly, so once every way
        // is valid each has been touched since the last reset, and rank
        // order is recency order: this is exactly true LRU.
        let way = if invalid_ways != 0 {
            invalid_ways.trailing_zeros()
        } else {
            lru_way(*ranks, self.ways as u64, self.way_nibbles)
        };
        *ranks = touch(*ranks, way, self.way_nibbles);
        let Some(line) = lines.get_mut(way as usize) else {
            debug_assert!(false, "victim way {way} out of bounds");
            return AccessResult {
                hit: false,
                writeback: None,
            };
        };
        let victim = *line;
        *line = want | dirty;
        let writeback = if victim & (VALID_BIT | DIRTY_BIT) == VALID_BIT | DIRTY_BIT {
            self.writebacks += 1;
            Some(((victim >> TAG_SHIFT) << self.set_shift) | set as u64)
        } else {
            None
        };
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Returns true if `line_addr` is currently resident (no state change).
    pub fn contains(&self, line_addr: u64) -> bool {
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let want = (tag << TAG_SHIFT) | VALID_BIT;
        let base = set * self.ways;
        self.lines
            .iter()
            .skip(base)
            .take(self.ways)
            .any(|&l| l & !DIRTY_BIT == want)
    }

    /// Clears all contents and statistics. Every set restarts with way `w`
    /// at rank `w`.
    pub fn reset(&mut self) {
        self.lines.fill(0);
        let identity = (0..self.ways as u64).fold(0, |acc, w| acc | w << (RANK_BITS as u64 * w));
        self.ranks.fill(identity);
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::CacheParams;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B lines.
        SetAssocCache::new(CacheParams {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency_cycles: 4,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, AccessKind::Read).hit);
        assert!(c.access(0, AccessKind::Read).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(0, AccessKind::Read);
        c.access(4, AccessKind::Read);
        c.access(0, AccessKind::Read); // 0 is now MRU
        c.access(8, AccessKind::Read); // evicts 4 (LRU)
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(4, AccessKind::Read);
        let res = c.access(8, AccessKind::Read); // evicts dirty line 0
        assert_eq!(res.writeback, Some(0));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(4, AccessKind::Read);
        let res = c.access(8, AccessKind::Read);
        assert_eq!(res.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, now dirty
        c.access(4, AccessKind::Read);
        let res = c.access(8, AccessKind::Read);
        assert_eq!(res.writeback, Some(0));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for line in 0..4 {
            c.access(line, AccessKind::Read);
        }
        for line in 0..4 {
            assert!(c.contains(line));
        }
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.reset();
        assert!(!c.contains(0));
        assert_eq!(c.misses(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_is_rejected() {
        SetAssocCache::new(CacheParams {
            capacity_bytes: 17 * 64,
            ways: 17,
            line_bytes: 64,
            latency_cycles: 4,
        });
    }

    /// Reference model: true LRU by per-line timestamps, the policy the
    /// packed rank words must reproduce. Lines hold full line addresses, so
    /// the model shares no tag or rank arithmetic with the cache.
    struct StampLru {
        /// `(line address, dirty, last use)` per way; `None` = invalid.
        ways: Vec<Option<(u64, bool, u64)>>,
        assoc: usize,
        num_sets: u64,
        clock: u64,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }

    impl StampLru {
        fn new(num_sets: u64, assoc: usize) -> Self {
            Self {
                ways: vec![None; num_sets as usize * assoc],
                assoc,
                num_sets,
                clock: 0,
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn access(&mut self, line_addr: u64, kind: AccessKind) -> AccessResult {
            self.clock += 1;
            let base = (line_addr % self.num_sets) as usize * self.assoc;
            let set = &mut self.ways[base..base + self.assoc];
            let write = kind == AccessKind::Write;
            if let Some((_, dirty, used)) = set.iter_mut().flatten().find(|w| w.0 == line_addr) {
                *dirty |= write;
                *used = self.clock;
                self.hits += 1;
                return AccessResult {
                    hit: true,
                    writeback: None,
                };
            }
            self.misses += 1;
            let victim = match set.iter().position(Option::is_none) {
                Some(w) => w,
                None => (0..self.assoc).min_by_key(|&w| set[w].unwrap().2).unwrap(),
            };
            let writeback = match set[victim] {
                Some((addr, true, _)) => {
                    self.writebacks += 1;
                    Some(addr)
                }
                _ => None,
            };
            set[victim] = Some((line_addr, write, self.clock));
            AccessResult {
                hit: false,
                writeback,
            }
        }
    }

    #[test]
    fn packed_ranks_match_timestamp_lru() {
        use silcfm_types::rng::{Rng, Xoshiro256StarStar};
        for ways in [1u32, 2, 4, 8, 16] {
            for num_sets in [1u64, 4, 64] {
                let mut cache = SetAssocCache::new(CacheParams {
                    capacity_bytes: num_sets * u64::from(ways) * 64,
                    ways,
                    line_bytes: 64,
                    latency_cycles: 4,
                });
                let mut model = StampLru::new(num_sets, ways as usize);
                let mut rng = Xoshiro256StarStar::seed_from_u64(num_sets << 8 | u64::from(ways));
                // Twice the capacity in distinct lines: hits, cold misses
                // and evictions all occur, in every set.
                let span = 2 * num_sets * u64::from(ways);
                for step in 0..20_000 {
                    let line = rng.gen_range(0..span);
                    let kind = if rng.gen_bool(0.3) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    assert_eq!(
                        cache.access(line, kind),
                        model.access(line, kind),
                        "{ways} ways x {num_sets} sets, step {step}: line {line} {kind:?}"
                    );
                }
                assert_eq!(
                    (cache.hits(), cache.misses(), cache.writebacks()),
                    (model.hits, model.misses, model.writebacks),
                    "{ways} ways x {num_sets} sets"
                );
                assert!(model.hits > 0 && model.writebacks > 0);
            }
        }
    }

    #[test]
    fn table2_llc_shape() {
        let c = SetAssocCache::new(silcfm_types::SystemConfig::paper().l2);
        assert_eq!(c.num_sets(), 8192);
        assert_eq!(c.latency_cycles(), 11);
    }
}
