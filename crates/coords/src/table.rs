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
/// - [`crate::GridTable`]: the collision-free grid's charge — exactly one
///   access per in-box operation, refused past a bounding-box cell budget
///   — over a hashmap of its points (the paper's dense device array is
///   charged, never allocated);
/// - [`crate::MphfIndex`]: a minimal perfect hash built from a frozen
///   coordinate set (rank/select bitmaps over the BBHash-style fingerprint
///   cascade), smaller than the hashmap and collision-free by
///   construction.
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

    /// Bytes the index occupies on the host (the frozen-plan memory
    /// accounting): the stored structure, which for the grid is its
    /// hashmap, not the device grid it charges for.
    fn memory_bytes(&self) -> u64;

    /// How many delta layers sit between this index and a from-scratch
    /// build. Freshly constructed indexes are depth 0; every
    /// [`crate::DeltaIndex`] stacked on top by incremental re-planning adds
    /// one. Compaction policies use this to bound query-chain length.
    fn delta_depth(&self) -> usize {
        0
    }
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
