/// A set-associative LRU cache over 128-byte lines with dirty-line
/// tracking, simulated at line granularity; DRAM traffic is accounted at
/// 32-byte *sector* granularity, like real GDDR memory controllers.
///
/// Used as the device L2: the gather/scatter traces of the sparse engine are
/// replayed through it, and misses translate into DRAM traffic. This is what
/// distinguishes the paper's *weight-stationary* baseline (unique indices per
/// weight → no reuse, §4.3.2, Figure 9a) from the *locality-aware* order,
/// and what lets a fused gather sequence keep "data from the same type of
/// buffer" resident.
#[derive(Debug, Clone)]
pub(crate) struct L2Cache {
    /// Flattened set-associative store: set `s` occupies
    /// `entries[s * ways .. s * ways + len[s]]` in LRU order (front = LRU).
    /// Each entry packs the line tag in the low 63 bits and the dirty flag
    /// in bit 63 — one contiguous `u64` scan per lookup instead of a
    /// pointer chase through per-set vectors, which matters because the
    /// movement simulation replays every line of every buffer sweep.
    entries: Vec<u64>,
    len: Vec<u8>,
    ways: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

/// Dirty flag bit of a packed cache entry. Line tags are byte addresses
/// divided by [`LINE_BYTES`], so even the pollution range at `1 << 62`
/// stays far below bit 63.
const DIRTY: u64 = 1 << 63;

/// Cache line size in bytes (the CUDA memory transaction granularity).
pub(crate) const LINE_BYTES: u64 = 128;
/// DRAM sector size in bytes (the memory-controller transfer granularity).
pub(crate) const SECTOR_BYTES: u64 = 32;

/// DRAM traffic resulting from one cache access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DramTraffic {
    /// Bytes fetched from DRAM (read misses; write misses do not fetch —
    /// GPUs write-allocate without read-for-ownership at sector granularity).
    pub fetched: u64,
    /// Bytes that will be written back to DRAM (charged when a resident
    /// line first becomes dirty, once per residency).
    pub written_back: u64,
}

impl DramTraffic {
    /// Total DRAM bytes moved.
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.fetched + self.written_back
    }

    fn merge(&mut self, other: DramTraffic) {
        self.fetched += other.fetched;
        self.written_back += other.written_back;
    }
}

impl L2Cache {
    /// Creates a cache of `capacity_bytes` with the given associativity.
    ///
    /// The set count is rounded down to a power of two (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or the capacity holds fewer than `ways` lines.
    pub(crate) fn new(capacity_bytes: u64, ways: usize) -> L2Cache {
        assert!(ways > 0, "cache must have at least one way");
        assert!(ways <= usize::from(u8::MAX), "per-set length is tracked in a byte");
        let lines = (capacity_bytes / LINE_BYTES) as usize;
        assert!(lines >= ways, "capacity too small for {ways} ways");
        // Round the set count down to a power of two for cheap indexing.
        let raw_sets = (lines / ways).max(1);
        let sets =
            if raw_sets.is_power_of_two() { raw_sets } else { raw_sets.next_power_of_two() / 2 };
        L2Cache {
            entries: vec![0; sets * ways],
            len: vec![0; sets],
            ways,
            set_mask: sets as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Read-accesses the line containing `addr`; returns `true` on hit.
    #[cfg(test)]
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr / LINE_BYTES, false, LINE_BYTES).0
    }

    /// Accesses one line; returns `(hit, dram_traffic)`. `touched_bytes` is
    /// how many sector-aligned bytes of the line the access covers (drives
    /// the DRAM charge on a miss / dirty transition).
    fn access_line(
        &mut self,
        line: u64,
        is_write: bool,
        touched_bytes: u64,
    ) -> (bool, DramTraffic) {
        let set_idx = (line & self.set_mask) as usize;
        let base = set_idx * self.ways;
        let len = usize::from(self.len[set_idx]);
        let set = &mut self.entries[base..base + len];
        let mut traffic = DramTraffic::default();
        // Tags are unique within a set, so scanning from the MRU end finds
        // hot lines (the overwhelmingly common case in streaming sweeps)
        // after one or two probes instead of walking all `ways`.
        if let Some(pos) = set.iter().rposition(|&e| e & !DIRTY == line) {
            // Hit: move to MRU, possibly transitioning clean -> dirty.
            let mut entry = set[pos];
            if is_write && entry & DIRTY == 0 {
                entry |= DIRTY;
                traffic.written_back = touched_bytes;
            }
            set.copy_within(pos + 1.., pos);
            set[len - 1] = entry;
            self.hits += 1;
            (true, traffic)
        } else {
            let entry = if is_write { line | DIRTY } else { line };
            if len == self.ways {
                // Evict LRU (write-back already charged) and append at MRU.
                set.copy_within(1.., 0);
                set[len - 1] = entry;
            } else {
                self.entries[base + len] = entry;
                self.len[set_idx] = (len + 1) as u8;
            }
            self.misses += 1;
            if is_write {
                // Write-allocate without fetch; charge the eventual
                // write-back of the touched sectors.
                traffic.written_back = touched_bytes;
            } else {
                traffic.fetched = touched_bytes;
            }
            (false, traffic)
        }
    }

    /// Touches every line in `[addr, addr + bytes)` as a read or write;
    /// returns `(missed_lines, dram_traffic)`.
    pub(crate) fn access_range_rw(
        &mut self,
        addr: u64,
        bytes: u64,
        is_write: bool,
    ) -> (u64, DramTraffic) {
        let mut traffic = DramTraffic::default();
        if bytes == 0 {
            return (0, traffic);
        }
        let end = addr + bytes;
        let first = addr / LINE_BYTES;
        let last = (end - 1) / LINE_BYTES;
        let mut missed = 0;
        for line in first..=last {
            let line_start = line * LINE_BYTES;
            let line_end = line_start + LINE_BYTES;
            // Sector-aligned coverage of this access within the line.
            let lo = addr.max(line_start) / SECTOR_BYTES * SECTOR_BYTES;
            let hi = (end.min(line_end)).div_ceil(SECTOR_BYTES) * SECTOR_BYTES;
            let touched = hi - lo;
            let (hit, t) = self.access_line(line, is_write, touched);
            if !hit {
                missed += 1;
            }
            traffic.merge(t);
        }
        (missed, traffic)
    }

    /// Touches every line in `[addr, addr + bytes)` as reads; returns the
    /// number of missing lines.
    #[cfg(test)]
    pub(crate) fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        self.access_range_rw(addr, bytes, false).0
    }

    /// Streams `bytes` of unrelated data through the cache, evicting LRU
    /// contents — models the pollution a large GEMM causes between the
    /// baseline's interleaved gather/scatter phases (§4.3.2).
    pub(crate) fn pollute(&mut self, bytes: u64) {
        // Use a private high address range that callers never read back.
        const POLLUTION_BASE: u64 = 1 << 62;
        let lines = bytes / LINE_BYTES;
        for i in 0..lines {
            self.access_line(POLLUTION_BASE / LINE_BYTES + i, false, LINE_BYTES);
        }
    }

    /// Hits recorded so far.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    #[cfg(test)]
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    #[cfg(test)]
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total capacity in bytes.
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.entries.len() as u64 * LINE_BYTES
    }

    /// Number of sets.
    #[cfg(test)]
    fn num_sets(&self) -> usize {
        self.len.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = L2Cache::new(128 * 64, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(127)); // same line
        assert!(!c.access(128)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set x 2 ways.
        let mut c = L2Cache::new(128 * 2, 2);
        assert_eq!(c.num_sets(), 1);
        c.access(0); // line 0
        c.access(128); // line 1
        c.access(0); // touch line 0 -> MRU
        c.access(256); // line 2 evicts line 1 (LRU)
        assert!(c.access(0), "line 0 must survive");
        assert!(!c.access(128), "line 1 must have been evicted");
    }

    #[test]
    fn access_range_counts_lines() {
        let mut c = L2Cache::new(128 * 1024, 16);
        assert_eq!(c.access_range(0, 256), 2); // lines 0 and 1
        assert_eq!(c.access_range(0, 256), 0); // both resident
        assert_eq!(c.access_range(100, 56), 0); // bytes 100..156 touch lines 0-1, both resident
        assert_eq!(c.access_range(256, 1), 1); // line 2 is cold
    }

    #[test]
    fn read_miss_fetches_touched_sectors_only() {
        let mut c = L2Cache::new(128 * 1024, 16);
        // 64 bytes of a cold line: fetch exactly two 32-byte sectors.
        let (missed, t) = c.access_range_rw(0, 64, false);
        assert_eq!(missed, 1);
        assert_eq!(t.fetched, 64);
        assert_eq!(t.written_back, 0);
        // Unaligned 4-byte read of a cold line: one full sector.
        let (_, t) = c.access_range_rw(1000 * 128 + 5, 4, false);
        assert_eq!(t.fetched, 32);
    }

    #[test]
    fn write_miss_charges_writeback_not_fetch() {
        let mut c = L2Cache::new(128 * 1024, 16);
        let (missed, t) = c.access_range_rw(0, 128, true);
        assert_eq!(missed, 1);
        assert_eq!(t.fetched, 0, "GPU write-allocate does not read-for-ownership");
        assert_eq!(t.written_back, 128);
        // Re-writing the same (now dirty) line is free.
        let (_, t) = c.access_range_rw(0, 128, true);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn read_then_write_charges_fetch_and_writeback() {
        // The read-modify-write pattern of weight-stationary scatter.
        let mut c = L2Cache::new(128 * 1024, 16);
        let (_, tr) = c.access_range_rw(0, 128, false);
        let (_, tw) = c.access_range_rw(0, 128, true);
        assert_eq!(tr.fetched, 128);
        assert_eq!(tw.written_back, 128, "clean->dirty transition charges write-back");
        assert_eq!(tr.fetched + tw.total(), 256);
    }

    #[test]
    fn pollution_evicts_working_set() {
        let mut c = L2Cache::new(128 * 128, 8); // 128 lines
        for i in 0..64 {
            c.access(i * 128);
        }
        // Pollute with 4x the capacity.
        c.pollute(4 * c.capacity_bytes());
        c.reset_counters_for_test();
        let mut missed = 0;
        for i in 0..64 {
            if !c.access(i * 128) {
                missed += 1;
            }
        }
        assert!(missed > 48, "most of the working set should be gone, missed {missed}");
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = L2Cache::new(128 * 1024, 16); // 1024 lines
        for round in 0..3 {
            for i in 0..256u64 {
                let hit = c.access(i * 128);
                if round > 0 {
                    assert!(hit, "round {round} line {i} should hit");
                }
            }
        }
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = L2Cache::new(128 * 64, 4);
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        L2Cache::new(1024, 0);
    }

    impl L2Cache {
        fn reset_counters_for_test(&mut self) {
            self.hits = 0;
            self.misses = 0;
        }
    }

    /// A brutally simple reference cache: per-set vector scanned linearly
    /// with explicit LRU timestamps. Used to cross-check the production
    /// implementation's hit/miss decisions on random traces.
    struct ReferenceCache {
        sets: Vec<Vec<(u64, u64)>>, // (tag, last_used)
        ways: usize,
        set_mask: u64,
        clock: u64,
    }

    impl ReferenceCache {
        fn like(c: &L2Cache) -> ReferenceCache {
            ReferenceCache {
                sets: vec![Vec::new(); c.num_sets()],
                ways: c.ways,
                set_mask: c.set_mask,
                clock: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let line = addr / LINE_BYTES;
            let set = &mut self.sets[(line & self.set_mask) as usize];
            if let Some(e) = set.iter_mut().find(|e| e.0 == line) {
                e.1 = self.clock;
                return true;
            }
            if set.len() == self.ways {
                let lru = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(i, _)| i)
                    .expect("non-empty set");
                set.remove(lru);
            }
            set.push((line, self.clock));
            false
        }
    }

    #[test]
    fn matches_reference_model_on_random_trace() {
        let mut real = L2Cache::new(128 * 256, 4);
        let mut reference = ReferenceCache::like(&real);
        // Deterministic pseudo-random trace with locality bursts.
        let mut state = 0x1234_5678u64;
        for i in 0..20_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = if i % 3 == 0 {
                (state % 200) * LINE_BYTES // hot region
            } else {
                (state % 4096) * LINE_BYTES // cold sprawl
            };
            assert_eq!(
                real.access(addr),
                reference.access(addr),
                "divergence at access {i} addr {addr}"
            );
        }
        assert!(real.hits() > 0 && real.misses() > 0);
    }
}
