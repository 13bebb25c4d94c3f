use crate::Coord;

/// Memory-access statistics of a mapping operation.
///
/// The paper's mapping analysis (§3, §4.4) is memory-bound: "hashmap
/// construction and output coordinate calculation both require multiple DRAM
/// accesses". Every table and mapping routine in this crate therefore
/// reports how many random DRAM accesses it performed, and the GPU cost
/// simulator turns these counts into latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MappingStats {
    /// Random-access reads of table/intermediate storage.
    pub reads: u64,
    /// Random-access writes of table/intermediate storage.
    pub writes: u64,
    /// Number of distinct GPU kernels this operation would launch.
    pub kernel_launches: u64,
    /// Sliding-window candidates evaluated in registers by a fused kernel
    /// (costed as ALU time by the latency model; zero for memory-bound
    /// staged pipelines).
    pub candidate_ops: u64,
}

impl MappingStats {
    /// Sum of reads and writes.
    #[cfg(test)]
    pub(crate) fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Accumulates another stats record into this one.
    pub(crate) fn merge(&mut self, other: MappingStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.kernel_launches += other.kernel_launches;
        self.candidate_ops += other.candidate_ops;
    }
}

/// A read-only coordinate-to-index lookup: the seam behind map search.
///
/// Three implementations exist — the paper's `[grid, hashmap]` strategy
/// space (§4.4) plus the succinct frozen-set index used by compiled
/// sessions:
///
/// - [`crate::CoordHashMap`]: open addressing, compact but with collision
///   probes;
/// - [`crate::GridTable`]: collision-free dense grid, exactly one access per
///   operation but with bounding-box storage;
/// - [`crate::MphfIndex`]: a minimal perfect hash built from a frozen
///   coordinate set (rank/select bitmaps over the BBHash-style fingerprint
///   cascade), smaller than both and collision-free by construction.
///
/// Queries return the index assigned at construction (the position of the
/// coordinate in the input coordinate list) together with the number of
/// memory probes performed, so callers can attribute cost precisely.
///
/// `Send + Sync` are supertraits because map search shares one immutable
/// index reference across the runtime pool's worker threads, and compiled
/// plans retain the index across streams (queries take `&self` and indices
/// are plain data, so every implementation is trivially thread-safe).
/// `Debug` makes the boxed index printable inside plan structures.
pub trait CoordIndex: std::fmt::Debug + Send + Sync {
    /// Looks up a coordinate; returns the index if present and the number of
    /// memory probes performed.
    fn query(&self, coord: Coord) -> (Option<u32>, u64);

    /// Number of coordinates stored.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of device memory the index occupies (for the cost model and
    /// the frozen-plan memory accounting).
    fn memory_bytes(&self) -> u64;

    /// How many delta layers sit between this index and a from-scratch
    /// build. Freshly constructed indexes are depth 0; every
    /// [`crate::DeltaIndex`] stacked on top by incremental re-planning adds
    /// one. Compaction policies use this to bound query-chain length.
    fn delta_depth(&self) -> usize {
        0
    }
}

/// A mutable coordinate-to-index table: a [`CoordIndex`] that also supports
/// incremental insertion.
///
/// The hashmap and grid implement this; the MPHF is built from a frozen
/// coordinate set in one shot and is query-only, which is exactly why the
/// read path lives on the [`CoordIndex`] supertrait.
pub(crate) trait CoordTable: CoordIndex {
    /// Inserts a coordinate with its index; returns the number of memory
    /// probes. Inserting a duplicate coordinate is a no-op that keeps the
    /// first index (matching engine semantics where coordinates are unique).
    fn insert(&mut self, coord: Coord, index: u32) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_accumulates() {
        let mut a = MappingStats { reads: 1, writes: 2, kernel_launches: 3, candidate_ops: 4 };
        a.merge(MappingStats { reads: 10, writes: 20, kernel_launches: 30, candidate_ops: 40 });
        assert_eq!(
            a,
            MappingStats { reads: 11, writes: 22, kernel_launches: 33, candidate_ops: 44 }
        );
        assert_eq!(a.total_accesses(), 33);
    }
}
