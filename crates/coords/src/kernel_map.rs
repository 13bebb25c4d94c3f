//! Map search (Algorithm 1 of the paper).
//!
//! A *kernel map* records, for every kernel offset `δ_n`, the list of
//! `(input index, output index)` pairs whose coordinates satisfy
//! `p_j = s * q_k + δ_n`. The gather–matmul–scatter dataflow is driven
//! entirely by this structure; its per-offset sizes are the workload
//! statistics behind the paper's grouping study (Figure 12).

use crate::offsets::{self, kernel_offsets};
use crate::table::{CoordIndex, MappingStats};
use crate::{Coord, CoordsError};
use torchsparse_runtime::{Task, ThreadPool};

/// One input→output pair of a kernel map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapEntry {
    /// Index into the input coordinate/feature list.
    pub input: u32,
    /// Index into the output coordinate/feature list.
    pub output: u32,
}

/// The kernel map `M` for one sparse convolution layer, stored in CSR form:
/// one flat entry array plus `K^3 + 1` range bounds, one range per kernel
/// offset (TorchSparse++-style kernel-map compression). [`KernelMap::entries`]
/// returns the offset's range as a slice into the flat array, so consumers
/// are layout-agnostic; the CSR form removes the per-offset `Vec` headers
/// and allocator slack of the former ragged `Vec<Vec<MapEntry>>` and makes
/// the frozen-plan memory accounting exact.
///
/// A search emits each offset's entries by output row, so every CSR range is
/// output-ascending: `core`'s fused executor splits the ranges in place.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMap {
    kernel_size: usize,
    stride: i32,
    /// All entries, offset-major (offset `n`'s entries are contiguous).
    entries: Vec<MapEntry>,
    /// CSR bounds: offset `n` owns `entries[bounds[n]..bounds[n + 1]]`.
    bounds: Vec<u32>,
    /// Memory accesses spent building this map.
    pub stats: MappingStats,
}

impl KernelMap {
    /// Creates a kernel map from raw per-offset entry lists (flattened into
    /// the CSR layout).
    ///
    /// # Errors
    ///
    /// Returns [`CoordsError::ZeroKernelSize`] / [`CoordsError::ZeroStride`]
    /// on degenerate parameters, and [`CoordsError::EmptyCoordinates`] if the
    /// number of entry lists is not `kernel_size^3`.
    pub fn from_parts(
        kernel_size: usize,
        stride: i32,
        per_offset: Vec<Vec<MapEntry>>,
        stats: MappingStats,
    ) -> Result<Self, CoordsError> {
        if kernel_size == 0 {
            return Err(CoordsError::ZeroKernelSize);
        }
        if stride == 0 {
            return Err(CoordsError::ZeroStride);
        }
        if per_offset.len() != offsets::kernel_volume(kernel_size) {
            return Err(CoordsError::EmptyCoordinates);
        }
        let total: usize = per_offset.iter().map(Vec::len).sum();
        let mut entries = Vec::with_capacity(total);
        let mut bounds = Vec::with_capacity(per_offset.len() + 1);
        bounds.push(0);
        for list in &per_offset {
            entries.extend_from_slice(list);
            bounds.push(entries.len() as u32);
        }
        Ok(KernelMap { kernel_size, stride, entries, bounds, stats })
    }

    /// Convolution stride.
    #[cfg(test)]
    pub(crate) fn stride(&self) -> i32 {
        self.stride
    }

    /// The entries for kernel offset index `n` — a slice of the flat CSR
    /// entry array.
    ///
    /// # Panics
    ///
    /// Panics if `n >= K^3`.
    pub fn entries(&self, n: usize) -> &[MapEntry] {
        &self.entries[self.bounds[n] as usize..self.bounds[n + 1] as usize]
    }

    /// The flat CSR entry array (offset-major).
    #[cfg(test)]
    pub(crate) fn flat_entries(&self) -> &[MapEntry] {
        &self.entries
    }

    /// The CSR range of offset `n` within [`KernelMap::flat_entries`].
    ///
    /// # Panics
    ///
    /// Panics if `n >= K^3`.
    #[cfg(test)]
    pub(crate) fn entry_range(&self, n: usize) -> std::ops::Range<usize> {
        self.bounds[n] as usize..self.bounds[n + 1] as usize
    }

    /// Number of kernel offsets (`K^3`).
    pub fn num_offsets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Map size per offset — the paper's workload statistic (Figure 12).
    pub fn sizes(&self) -> Vec<usize> {
        self.bounds.windows(2).map(|w| (w[1] - w[0]) as usize).collect()
    }

    /// Total number of map entries `|M|`.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Bytes the CSR representation occupies (flat entries + range bounds),
    /// for the frozen-plan memory accounting.
    pub fn memory_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<MapEntry>()
            + self.bounds.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// Searches the kernel map by querying every output neighborhood
/// (Algorithm 1): for each output `q_k` and offset `δ_n`, probe the input
/// table for `s * q_k + d * δ_n` (`d` = dilation, the à-trous convolution
/// SpConv-style engines support). `table` must have been built over the
/// input coordinates (indices = positions).
///
/// Parallelism is per kernel offset: each of the `K^3` offsets scans every
/// output coordinate and probes the (shared, read-only) table, writing its
/// own entry list. Within an offset the scan order is output-index
/// ascending — identical to the serial engine — so entry lists, their
/// ordering, and the access statistics are bitwise independent of the pool
/// width.
///
/// # Errors
///
/// Returns [`CoordsError::ZeroStride`] if `stride == 0`,
/// [`CoordsError::InvalidDilation`] if `dilation == 0`, and
/// [`CoordsError::ZeroKernelSize`] if `kernel_size == 0`.
pub fn search_dilated_on(
    pool: &ThreadPool,
    out_coords: &[Coord],
    table: &dyn CoordIndex,
    kernel_size: usize,
    stride: i32,
    dilation: i32,
) -> Result<KernelMap, CoordsError> {
    if stride == 0 {
        return Err(CoordsError::ZeroStride);
    }
    if dilation == 0 {
        return Err(CoordsError::InvalidDilation { dilation, stride });
    }
    let offs = kernel_offsets(kernel_size)?;
    let mut per_offset = vec![Vec::new(); offs.len()];
    // Per-offset (reads, writes) counters, folded after the batch so the
    // totals do not depend on task completion order.
    let mut access = vec![(0u64, 0u64); offs.len()];
    let tasks: Vec<Task<'_>> = per_offset
        .iter_mut()
        .zip(access.iter_mut())
        .zip(offs.iter())
        .map(|((entries, acc), &d)| {
            Box::new(move || {
                let delta = [d[0] * dilation, d[1] * dilation, d[2] * dilation];
                for (k, q) in out_coords.iter().enumerate() {
                    let r = q.scaled(stride).offset(delta);
                    let (found, probes) = table.query(r);
                    acc.0 += probes;
                    if let Some(j) = found {
                        entries.push(MapEntry { input: j, output: k as u32 });
                        acc.1 += 1; // append the map entry
                    }
                }
            }) as Task<'_>
        })
        .collect();
    pool.run(tasks);
    let mut stats = MappingStats { kernel_launches: 1, ..MappingStats::default() };
    for (reads, writes) in access {
        stats.reads += reads;
        stats.writes += writes;
    }
    KernelMap::from_parts(kernel_size, stride, per_offset, stats)
}

/// Symmetry-exploiting map search for stride-1 submanifold layers with odd
/// kernel size (§4.2.1, §4.4 "utilize the symmetry of submanifold maps").
///
/// Only the first `(K^3 - 1) / 2` offsets are actually searched; the mirror
/// offsets reuse the same entries with input/output swapped, and the center
/// offset is the identity map. This halves the query traffic — the "symmetry"
/// bar of Figure 13.
///
/// `coords` serves as both input and output coordinates (submanifold).
///
/// Each task owns one offset `n < center` *and* its mirror `K^3 - 1 - n`:
/// the pair shares a single coordinate scan (the symmetry trick), and the
/// two entry lists a task writes are disjoint from every other task's, so
/// per-offset output is bitwise independent of the pool width.
///
/// # Errors
///
/// Returns [`CoordsError::ZeroKernelSize`] if `kernel_size == 0` and
/// [`CoordsError::ZeroStride`] if the kernel size is even (no mirror
/// property to exploit — callers should fall back to [`search_dilated_on`]),
/// and [`CoordsError::InvalidDilation`] if `dilation == 0`. The mirror
/// property survives offset scaling, so the half-search trick applies to
/// dilated submanifold layers too.
pub fn search_submanifold_symmetric_dilated_on(
    pool: &ThreadPool,
    coords: &[Coord],
    table: &dyn CoordIndex,
    kernel_size: usize,
    dilation: i32,
) -> Result<KernelMap, CoordsError> {
    if kernel_size == 0 {
        return Err(CoordsError::ZeroKernelSize);
    }
    if !offsets::has_mirror_property(kernel_size) {
        return Err(CoordsError::ZeroStride);
    }
    if dilation == 0 {
        return Err(CoordsError::InvalidDilation { dilation, stride: 1 });
    }
    let offs = kernel_offsets(kernel_size)?;
    let volume = offs.len();
    // `has_mirror_property` guarantees an odd kernel, which always has a
    // center offset — this cannot be `None` here.
    #[allow(clippy::expect_used)]
    let center = offsets::center_index(kernel_size).expect("odd kernel has a center");
    let mut per_offset = vec![Vec::new(); volume];

    // Center offset: identity map, no table queries at all.
    per_offset[center] =
        (0..coords.len() as u32).map(|i| MapEntry { input: i, output: i }).collect();

    // Pair each searched offset n with its mirror volume-1-n. Splitting at
    // the center leaves the searched offsets in `low` and (after the center
    // element itself) their mirrors in `high` in reverse order:
    // low[n] ↔ high[1..][center - 1 - n].
    let (low, high) = per_offset.split_at_mut(center);
    let mut access = vec![(0u64, 0u64); center];
    let tasks: Vec<Task<'_>> = low
        .iter_mut()
        .zip(high[1..].iter_mut().rev())
        .zip(access.iter_mut())
        .enumerate()
        .map(|(n, ((forward, mirrored), acc))| {
            let d = offs[n];
            Box::new(move || {
                let delta = [d[0] * dilation, d[1] * dilation, d[2] * dilation];
                for (k, q) in coords.iter().enumerate() {
                    let r = q.offset(delta);
                    let (found, probes) = table.query(r);
                    acc.0 += probes;
                    if let Some(j) = found {
                        forward.push(MapEntry { input: j, output: k as u32 });
                        // Mirror entry: (q_k, p_j, W_{-δ}) is also a valid map entry.
                        mirrored.push(MapEntry { input: k as u32, output: j });
                        acc.1 += 2;
                    }
                }
            }) as Task<'_>
        })
        .collect();
    pool.run(tasks);
    let mut stats = MappingStats { kernel_launches: 1, ..MappingStats::default() };
    for (reads, writes) in access {
        stats.reads += reads;
        stats.writes += writes;
    }
    KernelMap::from_parts(kernel_size, 1, per_offset, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoordHashMap, GridTable};

    /// A small L-shaped scene in one plane.
    fn scene() -> Vec<Coord> {
        vec![
            Coord::new(0, 0, 0, 0),
            Coord::new(0, 1, 0, 0),
            Coord::new(0, 2, 0, 0),
            Coord::new(0, 2, 1, 0),
            Coord::new(0, 2, 2, 0),
        ]
    }

    #[test]
    fn submanifold_search_finds_neighbors() {
        let coords = scene();
        let (table, _) = CoordHashMap::build(&coords);
        let map = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 1).unwrap();
        // Center offset must be the identity map.
        let center = offsets::center_index(3).unwrap();
        assert_eq!(map.entries(center).len(), coords.len());
        for e in map.entries(center) {
            assert_eq!(e.input, e.output);
        }
        // Offset (+1, 0, 0) (index of [1,0,0] in lexicographic order).
        let offs = kernel_offsets(3).unwrap();
        let plus_x = offs.iter().position(|&d| d == [1, 0, 0]).unwrap();
        // q + (1,0,0) = p means p is the +x neighbor of q.
        // Neighbor pairs along x: (0,0,0)->(1,0,0), (1,0,0)->(2,0,0).
        assert_eq!(map.entries(plus_x).len(), 2);
    }

    #[test]
    fn symmetric_search_matches_full_search() {
        let coords = scene();
        let (table, _) = CoordHashMap::build(&coords);
        let full = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 1).unwrap();
        let sym =
            search_submanifold_symmetric_dilated_on(ThreadPool::global(), &coords, &table, 3, 1)
                .unwrap();
        for n in 0..27 {
            let mut a: Vec<_> = full.entries(n).to_vec();
            let mut b: Vec<_> = sym.entries(n).to_vec();
            a.sort_by_key(|e| (e.output, e.input));
            b.sort_by_key(|e| (e.output, e.input));
            assert_eq!(a, b, "offset {n} differs");
        }
    }

    #[test]
    fn symmetric_search_halves_queries() {
        let coords = scene();
        let (table, _) = CoordHashMap::build(&coords);
        let full = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 1).unwrap();
        let sym =
            search_submanifold_symmetric_dilated_on(ThreadPool::global(), &coords, &table, 3, 1)
                .unwrap();
        assert!(
            sym.stats.reads * 2 <= full.stats.reads,
            "symmetric reads {} should be at most half of {}",
            sym.stats.reads,
            full.stats.reads
        );
    }

    #[test]
    fn symmetric_rejects_even_kernels() {
        let coords = scene();
        let (table, _) = CoordHashMap::build(&coords);
        assert!(search_submanifold_symmetric_dilated_on(
            ThreadPool::global(),
            &coords,
            &table,
            2,
            1
        )
        .is_err());
    }

    #[test]
    fn map_sizes_mirror_for_submanifold() {
        // §4.2.1: maps for ±δ always have the same size.
        let coords = scene();
        let (table, _) = CoordHashMap::build(&coords);
        let map = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 1).unwrap();
        let sizes = map.sizes();
        for n in 0..27 {
            assert_eq!(sizes[n], sizes[26 - n], "offset {n} vs mirror");
        }
    }

    #[test]
    fn grid_and_hashmap_produce_identical_maps() {
        let coords = scene();
        let (hash, _) = CoordHashMap::build(&coords);
        let (grid, _) = GridTable::build(&coords, u64::MAX).unwrap();
        let a = search_dilated_on(ThreadPool::global(), &coords, &hash, 3, 1, 1).unwrap();
        let b = search_dilated_on(ThreadPool::global(), &coords, &grid, 3, 1, 1).unwrap();
        for n in 0..27 {
            assert_eq!(a.entries(n), b.entries(n));
        }
    }

    #[test]
    fn strided_search_uses_scaled_outputs() {
        // Inputs on a line; stride-2 output at (0,0,0) should see inputs
        // within the kernel window around (0,0,0)*2.
        let inputs = vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0), Coord::new(0, 3, 0, 0)];
        let (table, _) = CoordHashMap::build(&inputs);
        let outputs = vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)];
        let map = search_dilated_on(ThreadPool::global(), &outputs, &table, 3, 2, 1).unwrap();
        // Output 0 (site 0): offsets -1..1 around x=0 catch inputs x=0 (δ=0), x=1 (δ=1).
        // Output 1 (site 2): catches x=1 (δ=-1), x=3 (δ=1).
        assert_eq!(map.total_entries(), 4);
    }

    #[test]
    fn from_parts_validates() {
        assert!(KernelMap::from_parts(0, 1, vec![], MappingStats::default()).is_err());
        assert!(KernelMap::from_parts(3, 0, vec![Vec::new(); 27], MappingStats::default()).is_err());
        assert!(KernelMap::from_parts(3, 1, vec![Vec::new(); 26], MappingStats::default()).is_err());
        assert!(KernelMap::from_parts(3, 1, vec![Vec::new(); 27], MappingStats::default()).is_ok());
    }

    #[test]
    fn dilated_search_reaches_farther() {
        // Points two apart: dilation 2 links them through the unit offsets.
        let coords = vec![Coord::new(0, 0, 0, 0), Coord::new(0, 2, 0, 0)];
        let (table, _) = CoordHashMap::build(&coords);
        let plain = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 1).unwrap();
        let dilated = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 2).unwrap();
        // Without dilation only the identity offset matches.
        assert_eq!(plain.total_entries(), 2);
        // With dilation 2, offsets (+-1,0,0) land on the neighbor too.
        assert_eq!(dilated.total_entries(), 4);
    }

    #[test]
    fn dilated_symmetric_matches_dilated_full() {
        let coords = scene();
        let (table, _) = CoordHashMap::build(&coords);
        let full = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 2).unwrap();
        let sym =
            search_submanifold_symmetric_dilated_on(ThreadPool::global(), &coords, &table, 3, 2)
                .unwrap();
        for n in 0..27 {
            let mut a: Vec<_> = full.entries(n).to_vec();
            let mut b: Vec<_> = sym.entries(n).to_vec();
            a.sort_by_key(|e| (e.output, e.input));
            b.sort_by_key(|e| (e.output, e.input));
            assert_eq!(a, b, "offset {n} differs under dilation");
        }
    }

    #[test]
    fn zero_dilation_rejected() {
        let coords = scene();
        let (table, _) = CoordHashMap::build(&coords);
        let rejected = CoordsError::InvalidDilation { dilation: 0, stride: 1 };
        let err = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 0).unwrap_err();
        assert_eq!(err, rejected);
        let pool = ThreadPool::global();
        let err = search_submanifold_symmetric_dilated_on(pool, &coords, &table, 3, 0).unwrap_err();
        assert_eq!(err, rejected);
    }

    #[test]
    fn parallel_search_identical_to_serial() {
        // Entry lists, their order, and the access statistics must not
        // depend on the pool width.
        let coords = scene();
        let (table, _) = CoordHashMap::build(&coords);
        let serial_pool = ThreadPool::new(1);
        let serial = search_dilated_on(&serial_pool, &coords, &table, 3, 1, 1).unwrap();
        let serial_sym =
            search_submanifold_symmetric_dilated_on(&serial_pool, &coords, &table, 3, 1).unwrap();
        for threads in [2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let parallel = search_dilated_on(&pool, &coords, &table, 3, 1, 1).unwrap();
            assert_eq!(serial, parallel, "full search differs at {threads} threads");
            let parallel_sym =
                search_submanifold_symmetric_dilated_on(&pool, &coords, &table, 3, 1).unwrap();
            assert_eq!(serial_sym, parallel_sym, "symmetric search differs at {threads} threads");
        }
    }

    // CSR↔legacy equivalence on random ragged per-offset lists: the
    // flattened layout must reproduce every legacy list, size, and total
    // exactly.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn csr_roundtrip_preserves_ragged_lists(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..500, 0u32..500), 0..12),
                27..28,
            ),
        ) {
            let per_offset: Vec<Vec<MapEntry>> = raw
                .iter()
                .map(|list| {
                    let mut l: Vec<MapEntry> = list
                        .iter()
                        .map(|&(input, output)| MapEntry { input, output })
                        .collect();
                    // Forward searches emit output-ascending entries.
                    l.sort_by_key(|e| (e.output, e.input));
                    l
                })
                .collect();
            let map = KernelMap::from_parts(3, 1, per_offset.clone(), MappingStats::default())
                .map_err(|e| e.to_string())?;
            proptest::prop_assert_eq!(map.num_offsets(), 27);
            let total: usize = per_offset.iter().map(Vec::len).sum();
            proptest::prop_assert_eq!(map.total_entries(), total);
            proptest::prop_assert_eq!(map.flat_entries().len(), total);
            for (n, legacy) in per_offset.iter().enumerate() {
                proptest::prop_assert_eq!(map.entries(n), legacy.as_slice());
                proptest::prop_assert_eq!(map.entry_range(n).len(), legacy.len());
                proptest::prop_assert_eq!(map.sizes()[n], legacy.len());
            }
        }
    }

    #[test]
    fn multi_batch_isolation() {
        // Identical geometry in two batches must not cross-link.
        let coords = vec![
            Coord::new(0, 0, 0, 0),
            Coord::new(0, 1, 0, 0),
            Coord::new(1, 0, 0, 0),
            Coord::new(1, 1, 0, 0),
        ];
        let (table, _) = CoordHashMap::build(&coords);
        let map = search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 1).unwrap();
        for n in 0..27 {
            for e in map.entries(n) {
                assert_eq!(
                    coords[e.input as usize].batch, coords[e.output as usize].batch,
                    "map entry crosses batches"
                );
            }
        }
    }
}
