//! Minimal-perfect-hash coordinate index for frozen coordinate sets.
//!
//! Compiled sessions freeze geometry at plan time, so the coordinate set is
//! static — exactly the regime where a minimal perfect hash function (MPHF)
//! beats a general hashmap. This module implements a BBHash-style
//! fingerprint cascade: each level hashes the keys still unplaced into a
//! bitmap of `γ ×` their count; keys that land in a slot alone are assigned
//! there, colliding keys retry on the next level with a fresh seed. The
//! per-level bitmaps double as the membership rank/select structure — the
//! final index of a key is the rank of its bit among all assigned bits —
//! and a per-slot key record makes queries exact (the stored coordinate is
//! the full fingerprint, so a probe can never yield a false positive).
//!
//! Memory: roughly `γ / (1 - e^{-1/γ}) ≈ 3.3` bits of bitmap per key at the
//! default `γ = 2`, plus a 4-byte rank directory word per 64 bitmap bits and
//! one 20-byte `(Coord, row)` verification slot per key — ~21 bytes/key
//! total, versus the ≥48 bytes/key of the load-factor-0.5 open-addressing
//! hashmap (whose slot count also rounds up to a power of two).

use crate::table::CoordIndex;
use crate::{Coord, CoordsError};

/// Bitmap slots per unplaced key at each cascade level (the BBHash γ).
/// 2.0 places ~61% of the remaining keys per level; the series converges
/// after a handful of levels.
const GAMMA: usize = 2;

/// Hard cap on cascade depth. With distinct keys and per-level seeds the
/// expected depth is O(log n) with tiny constants; the cap only triggers on
/// duplicate coordinates, which can never be separated by re-hashing.
const MAX_LEVELS: usize = 64;

/// One cascade level: the assigned-slot bitmap plus its rank directory.
#[derive(Debug, Clone)]
struct Level {
    /// Hash seed for this level.
    seed: u64,
    /// Number of slots (a multiple of 64).
    slots: u64,
    /// Assigned-slot bitmap: bit set ⇔ exactly one key hashed here.
    bits: Vec<u64>,
    /// Rank directory: `rank[w]` = number of set bits in words `[0, w)`.
    rank: Vec<u32>,
    /// Number of keys assigned by earlier levels (rank offset).
    base: u32,
}

impl Level {
    /// Rank of slot `h` among this level's assigned bits (valid only when
    /// the bit at `h` is set).
    fn rank_of(&self, h: u64) -> u32 {
        let word = (h / 64) as usize;
        let bit = h % 64;
        self.rank[word] + (self.bits[word] & ((1u64 << bit) - 1)).count_ones()
    }

    fn is_set(&self, h: u64) -> bool {
        self.bits[(h / 64) as usize] >> (h % 64) & 1 == 1
    }
}

/// Mixes a coordinate and a level seed into a well-distributed 64-bit hash:
/// FNV-1a over the coordinate bytes, xor-folded with the seed, then a
/// splitmix64 finalizer (FNV alone has poor avalanche in the low bits, which
/// the modulo-slot mapping is most sensitive to).
fn level_hash(c: Coord, seed: u64) -> u64 {
    let mut h = c.fnv1a() ^ seed;
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A minimal-perfect-hash coordinate index over a frozen coordinate set.
///
/// Built once from the full coordinate list (no incremental insertion, only
/// the read-only [`CoordIndex`] seam). Queries are exact: member coordinates
/// recover their position in the build list, non-members return `None`.
///
/// # Example
///
/// ```
/// use torchsparse_coords::{Coord, CoordIndex, MphfIndex};
///
/// let coords = [Coord::new(0, 5, -3, 2), Coord::new(0, 6, -3, 2)];
/// let (index, _accesses) = MphfIndex::build(&coords)?;
/// assert_eq!(index.query(Coord::new(0, 6, -3, 2)).0, Some(1));
/// assert_eq!(index.query(Coord::new(0, 9, 9, 9)).0, None);
/// # Ok::<(), torchsparse_coords::CoordsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MphfIndex {
    levels: Vec<Level>,
    /// Per-assigned-slot verification record `(key, row)`, indexed by the
    /// MPHF value (level base + in-level rank). Comparing the stored key is
    /// the exact fingerprint check that rules out false positives.
    slots: Vec<(Coord, u32)>,
}

impl MphfIndex {
    /// Builds the index over `coords`, assigning each coordinate its list
    /// position as the index. Returns the index and the number of memory
    /// accesses construction performed (bitmap writes during the cascade
    /// plus one verification-slot write per key).
    ///
    /// # Errors
    ///
    /// - [`CoordsError::EmptyCoordinates`] if `coords` is empty.
    /// - [`CoordsError::DuplicateCoordinate`] if two coordinates are equal —
    ///   duplicates collide at every level, so a minimal perfect hash over
    ///   them does not exist.
    pub fn build(coords: &[Coord]) -> Result<(Self, u64), CoordsError> {
        if coords.is_empty() {
            return Err(CoordsError::EmptyCoordinates);
        }
        let mut remaining: Vec<(Coord, u32)> =
            coords.iter().enumerate().map(|(i, &c)| (c, i as u32)).collect();
        let mut levels = Vec::new();
        let mut slots = vec![(Coord::default(), 0u32); coords.len()];
        let mut base = 0u32;
        let mut accesses = 0u64;

        for depth in 0..MAX_LEVELS {
            if remaining.is_empty() {
                break;
            }
            let seed = (depth as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let slot_count = ((remaining.len() * GAMMA).max(64).next_multiple_of(64)) as u64;
            let words = (slot_count / 64) as usize;
            let mut seen = vec![0u64; words];
            let mut collided = vec![0u64; words];
            for &(c, _) in &remaining {
                let h = level_hash(c, seed) % slot_count;
                let (w, b) = ((h / 64) as usize, h % 64);
                if seen[w] >> b & 1 == 1 {
                    collided[w] |= 1 << b;
                } else {
                    seen[w] |= 1 << b;
                }
                accesses += 1;
            }
            // Assigned = hashed here by exactly one key.
            let bits: Vec<u64> = seen.iter().zip(&collided).map(|(&s, &c)| s & !c).collect();
            let mut rank = Vec::with_capacity(words);
            let mut running = 0u32;
            for &word in &bits {
                rank.push(running);
                running += word.count_ones();
            }
            let level = Level { seed, slots: slot_count, bits, rank, base };
            let mut carry = Vec::new();
            for (c, row) in remaining {
                let h = level_hash(c, seed) % slot_count;
                if level.is_set(h) {
                    slots[(base + level.rank_of(h)) as usize] = (c, row);
                    accesses += 1;
                } else {
                    carry.push((c, row));
                }
            }
            base += running;
            levels.push(level);
            remaining = carry;
        }

        if let Some(&(dup, _)) = remaining.first() {
            // Only equal keys can survive MAX_LEVELS of re-seeded hashing.
            return Err(CoordsError::DuplicateCoordinate(dup));
        }
        Ok((MphfIndex { levels, slots }, accesses))
    }

    /// Number of cascade levels (diagnostics; small — typically < 10).
    #[cfg(test)]
    pub(crate) fn level_count(&self) -> usize {
        self.levels.len()
    }
}

impl CoordIndex for MphfIndex {
    fn query(&self, coord: Coord) -> (Option<u32>, u64) {
        let mut probes = 0;
        for level in &self.levels {
            let h = level_hash(coord, level.seed) % level.slots;
            probes += 1; // bitmap + rank-directory word (one cache line)
            if level.is_set(h) {
                // The bit identifies exactly one key; verify it is ours.
                // For members this always matches (a member that collided
                // at this level left its slot unassigned); for non-members
                // the comparison is the exact fingerprint check.
                let (key, row) = self.slots[(level.base + level.rank_of(h)) as usize];
                probes += 1;
                return (if key == coord { Some(row) } else { None }, probes);
            }
        }
        (None, probes)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn memory_bytes(&self) -> u64 {
        let bitmap: u64 =
            self.levels.iter().map(|l| (l.bits.len() * 8 + l.rank.len() * 4) as u64).sum();
        bitmap + (self.slots.len() * std::mem::size_of::<(Coord, u32)>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoordHashMap;

    fn blob(n: i32) -> Vec<Coord> {
        let mut v = Vec::new();
        for x in 0..n {
            for y in 0..n {
                v.push(Coord::new(0, x, y, (x * 7 + y * 3) % (n + 1)));
            }
        }
        v
    }

    #[test]
    fn members_recover_exact_indices() {
        let coords = blob(40);
        let (index, _) = MphfIndex::build(&coords).unwrap();
        assert_eq!(index.len(), coords.len());
        for (i, &c) in coords.iter().enumerate() {
            let (found, probes) = index.query(c);
            assert_eq!(found, Some(i as u32), "coord {c}");
            assert!(probes >= 2, "member query probes bitmap + slot");
        }
    }

    #[test]
    fn non_members_return_none() {
        let coords = blob(20);
        let (index, _) = MphfIndex::build(&coords).unwrap();
        for x in -10..30 {
            for z in 25..40 {
                assert_eq!(index.query(Coord::new(0, x, x, z)).0, None);
                assert_eq!(index.query(Coord::new(1, x, 0, z % 21)).0, None);
            }
        }
    }

    #[test]
    fn agrees_with_hashmap_over_a_window() {
        let coords = blob(12);
        let (index, _) = MphfIndex::build(&coords).unwrap();
        let (hash, _) = CoordHashMap::build(&coords);
        for x in -2..14 {
            for y in -2..14 {
                for z in -2..15 {
                    let c = Coord::new(0, x, y, z);
                    assert_eq!(index.query(c).0, hash.query(c).0, "disagree on {c}");
                }
            }
        }
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(MphfIndex::build(&[]).unwrap_err(), CoordsError::EmptyCoordinates);
    }

    #[test]
    fn duplicates_rejected() {
        let coords = [Coord::new(0, 1, 2, 3), Coord::new(0, 4, 5, 6), Coord::new(0, 1, 2, 3)];
        assert_eq!(
            MphfIndex::build(&coords).unwrap_err(),
            CoordsError::DuplicateCoordinate(Coord::new(0, 1, 2, 3))
        );
    }

    #[test]
    fn single_coordinate() {
        let (index, _) = MphfIndex::build(&[Coord::new(3, -7, 11, 0)]).unwrap();
        assert_eq!(index.query(Coord::new(3, -7, 11, 0)).0, Some(0));
        assert_eq!(index.query(Coord::new(3, -7, 11, 1)).0, None);
    }

    /// The size claim frozen plans rest on: at least 2x below the hashmap
    /// index, at 10k voxels and at the 100k of a SemanticKITTI-scale frame.
    #[test]
    fn smaller_than_hashmap() {
        for side in [100, 317] {
            let coords = blob(side);
            let (index, _) = MphfIndex::build(&coords).unwrap();
            let (hash, _) = CoordHashMap::build(&coords);
            assert!(
                index.memory_bytes() * 2 <= hash.memory_bytes(),
                "{} voxels: mphf {} vs hashmap {}",
                coords.len(),
                index.memory_bytes(),
                hash.memory_bytes()
            );
        }
    }

    #[test]
    fn cascade_stays_shallow() {
        let coords = blob(70);
        let (index, _) = MphfIndex::build(&coords).unwrap();
        assert!(index.level_count() <= 16, "levels {}", index.level_count());
    }

    // Random-coordinate-set properties: every member recovers its exact
    // build-list position, and probing nearby non-members never yields a
    // false positive (the stored-key comparison is an exact fingerprint).
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn random_sets_are_exact(
            raw in proptest::collection::vec(
                (0i32..3, -40i32..40, -40i32..40, -40i32..40),
                1..400,
            ),
        ) {
            let mut coords: Vec<Coord> =
                raw.iter().map(|&(b, x, y, z)| Coord::new(b, x, y, z)).collect();
            coords.sort_unstable();
            coords.dedup();
            let (index, _) = MphfIndex::build(&coords).map_err(|e| e.to_string())?;
            proptest::prop_assert_eq!(index.len(), coords.len());
            // Exact index recovery on members.
            for (i, &c) in coords.iter().enumerate() {
                proptest::prop_assert_eq!(index.query(c).0, Some(i as u32));
            }
            // No false positives on perturbed neighbors.
            for &c in &coords {
                for probe in [
                    c.offset([1, 0, 0]),
                    c.offset([0, -1, 0]),
                    c.offset([0, 0, 41]),
                    Coord::new(c.batch + 3, c.x, c.y, c.z),
                ] {
                    let expect = coords.binary_search(&probe).ok().map(|i| i as u32);
                    proptest::prop_assert_eq!(index.query(probe).0, expect);
                }
            }
        }
    }

    #[test]
    fn build_reports_accesses() {
        let coords = blob(10);
        let (_, accesses) = MphfIndex::build(&coords).unwrap();
        // At least one bitmap write and one slot write per key.
        assert!(accesses >= 2 * coords.len() as u64);
    }
}
