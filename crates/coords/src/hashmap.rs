use crate::table::CoordIndex;
use crate::Coord;

/// The "conventional hashmap" of the paper (§2.1.2): open addressing with
/// linear probing over FNV-hashed coordinates.
///
/// Construction and queries may take multiple probes when hash slots
/// collide; the probe counts [`CoordHashMap::build`] and
/// [`CoordIndex::query`] return capture exactly the extra DRAM accesses the
/// paper's grid-based alternative avoids (§4.4: "grid ... construction/query
/// requires exactly one DRAM access per entry").
///
/// # Example
///
/// ```
/// use torchsparse_coords::{Coord, CoordHashMap, CoordIndex};
///
/// let (table, _build_probes) = CoordHashMap::build(&[Coord::new(0, 0, 0, 0), Coord::new(0, 1, 2, 3)]);
/// let (found, _probes) = table.query(Coord::new(0, 1, 2, 3));
/// assert_eq!(found, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct CoordHashMap {
    slots: Vec<Option<(Coord, u32)>>,
    mask: usize,
    len: usize,
    growths: u64,
}

impl CoordHashMap {
    /// Default load factor target: slots = 2 * expected entries.
    const LOAD_FACTOR_INV: usize = 2;

    /// Creates a table sized for `expected` entries.
    ///
    /// The slot count is the next power of two of `2 * expected` (minimum 8),
    /// giving a worst-case load factor of 0.5 — the configuration real
    /// engines use to bound probe chains.
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let slots = (expected * Self::LOAD_FACTOR_INV).next_power_of_two().max(8);
        CoordHashMap { slots: vec![None; slots], mask: slots - 1, len: 0, growths: 0 }
    }

    /// Builds a table from a coordinate list, assigning each coordinate its
    /// position as the index. Returns the table and total construction probes.
    ///
    /// The table is pre-sized from `coords.len()`, so construction never
    /// rehashes ([`CoordHashMap::growth_count`] stays 0) — every mapping-path
    /// build pays exactly one allocation.
    pub fn build(coords: &[Coord]) -> (Self, u64) {
        let mut table = CoordHashMap::with_capacity(coords.len());
        let mut probes = 0;
        for (i, &c) in coords.iter().enumerate() {
            probes += table.insert(c, i as u32);
        }
        debug_assert_eq!(table.growth_count(), 0, "pre-sized build must not rehash");
        (table, probes)
    }

    /// Number of hash slots (for load-factor diagnostics).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// How many times the table grew (rehashed) since construction. A
    /// correctly pre-sized table reports 0; incremental callers that outgrow
    /// the 0.5 load factor pay a doubling rehash each growth.
    pub(crate) fn growth_count(&self) -> u64 {
        self.growths
    }

    /// Inserts a coordinate with its index; returns the number of memory
    /// probes. Inserting a duplicate coordinate is a no-op that keeps the
    /// first index (matching engine semantics where coordinates are unique).
    pub(crate) fn insert(&mut self, coord: Coord, index: u32) -> u64 {
        // Keep the load factor at or below 0.5: grow before the insert that
        // would exceed it, so probe chains stay short and insertion can
        // never cycle on a full table.
        if (self.len + 1) * Self::LOAD_FACTOR_INV > self.slots.len() {
            self.grow();
        }
        self.insert_inner(coord, index)
    }

    /// Doubles the slot array and reinserts every entry.
    fn grow(&mut self) {
        let new_slots = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![None; new_slots]);
        self.mask = new_slots - 1;
        self.len = 0;
        self.growths += 1;
        for entry in old.into_iter().flatten() {
            let (coord, index) = entry;
            self.insert_inner(coord, index);
        }
    }

    fn insert_inner(&mut self, coord: Coord, index: u32) -> u64 {
        let mut slot = (coord.fnv1a() as usize) & self.mask;
        let mut probes = 0;
        loop {
            probes += 1;
            match &self.slots[slot] {
                None => {
                    self.slots[slot] = Some((coord, index));
                    self.len += 1;
                    return probes;
                }
                Some((existing, _)) if *existing == coord => {
                    // Duplicate insert keeps the first index.
                    return probes;
                }
                Some(_) => {
                    slot = (slot + 1) & self.mask;
                }
            }
        }
    }
}

impl CoordIndex for CoordHashMap {
    fn query(&self, coord: Coord) -> (Option<u32>, u64) {
        let mut slot = (coord.fnv1a() as usize) & self.mask;
        let mut probes = 0;
        loop {
            probes += 1;
            match &self.slots[slot] {
                None => return (None, probes),
                Some((existing, idx)) if *existing == coord => return (Some(*idx), probes),
                Some(_) => {
                    slot = (slot + 1) & self.mask;
                    if probes as usize > self.slots.len() {
                        return (None, probes); // table full of other keys
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> u64 {
        // Each slot stores a 16-byte coordinate, a 4-byte index and a tag;
        // model as 24 bytes like a packed GPU hash table entry.
        (self.slots.len() * 24) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_roundtrip() {
        let coords: Vec<Coord> = (0..100).map(|i| Coord::new(0, i, i * 3 - 7, -i)).collect();
        let (table, _) = CoordHashMap::build(&coords);
        assert_eq!(table.len(), 100);
        for (i, &c) in coords.iter().enumerate() {
            assert_eq!(table.query(c).0, Some(i as u32), "coord {c}");
        }
    }

    #[test]
    fn query_missing_returns_none() {
        let (table, _) = CoordHashMap::build(&[Coord::new(0, 1, 1, 1)]);
        assert_eq!(table.query(Coord::new(0, 2, 2, 2)).0, None);
    }

    #[test]
    fn duplicate_insert_keeps_first_index() {
        let mut t = CoordHashMap::with_capacity(4);
        t.insert(Coord::new(0, 1, 2, 3), 0);
        t.insert(Coord::new(0, 1, 2, 3), 9);
        assert_eq!(t.len(), 1);
        assert_eq!(t.query(Coord::new(0, 1, 2, 3)).0, Some(0));
    }

    #[test]
    fn probe_counts_at_least_one() {
        let mut t = CoordHashMap::with_capacity(4);
        assert!(t.insert(Coord::new(0, 0, 0, 0), 0) >= 1);
        let (_, probes) = t.query(Coord::new(0, 0, 0, 0));
        assert!(probes >= 1);
    }

    #[test]
    fn collisions_increase_probes() {
        // With many entries, total probes must exceed entry count (some
        // collisions are statistically certain at load factor 0.5).
        let coords: Vec<Coord> =
            (0..10_000).map(|i| Coord::new(0, i % 100, i / 100, i % 7)).collect();
        let (_, probes) = CoordHashMap::build(&coords);
        assert!(probes > 10_000, "expected some collision probes, got {probes}");
    }

    #[test]
    fn load_factor_bounded() {
        let (table, _) =
            CoordHashMap::build(&(0..1000).map(|i| Coord::new(0, i, 0, 0)).collect::<Vec<_>>());
        assert!(table.slot_count() >= 2000);
    }

    #[test]
    fn batch_separates_scenes() {
        let (table, _) = CoordHashMap::build(&[Coord::new(0, 1, 1, 1), Coord::new(1, 1, 1, 1)]);
        assert_eq!(table.len(), 2);
        assert_eq!(table.query(Coord::new(0, 1, 1, 1)).0, Some(0));
        assert_eq!(table.query(Coord::new(1, 1, 1, 1)).0, Some(1));
    }

    #[test]
    fn presized_build_never_rehashes() {
        // The mapping path builds tables via `build`, which pre-sizes from
        // the input coordinate count — no rehash is ever needed.
        for count in [0, 1, 7, 100, 5000] {
            let coords: Vec<Coord> = (0..count).map(|i| Coord::new(0, i, -i, i * 2)).collect();
            let (table, _) = CoordHashMap::build(&coords);
            assert_eq!(table.growth_count(), 0, "build({count}) rehashed");
            assert_eq!(table.len(), count as usize);
        }
    }

    #[test]
    fn incremental_overfill_grows_and_stays_correct() {
        let mut table = CoordHashMap::with_capacity(2);
        let initial_slots = table.slot_count();
        for i in 0..100 {
            table.insert(Coord::new(0, i, 0, 0), i as u32);
        }
        assert!(table.growth_count() > 0, "overfilled table must rehash");
        assert!(table.slot_count() > initial_slots);
        // Load factor invariant holds after growth.
        assert!(table.len() * 2 <= table.slot_count());
        for i in 0..100 {
            assert_eq!(table.query(Coord::new(0, i, 0, 0)).0, Some(i as u32));
        }
    }

    #[test]
    fn memory_accounting_positive() {
        let (table, _) = CoordHashMap::build(&[Coord::new(0, 0, 0, 0)]);
        assert!(table.memory_bytes() > 0);
    }
}
