//! Mapping pipeline: output coordinate construction + map search, with the
//! paper's §4.4 optimizations and a calibrated latency model.
//!
//! The paper accelerates mapping 4.6x end-to-end on detectors through four
//! stacked optimizations (Figure 13):
//!
//! 1. **grid-based map search** (collision-free, 1 access/entry) instead of
//!    a conventional hashmap — chosen per layer from `[grid, hashmap]`;
//! 2. **kernel fusion** of the four output-coordinate stages (Figure 10):
//!    one output-coordinate kernel runs under every configuration, and
//!    `fused_downsample: false` prices it as the five-kernel staged
//!    pipeline (`staged_downsample_stats`);
//! 3. **simplified control logic + loop unrolling** in the search kernels;
//! 4. **symmetric map reuse** for submanifold layers.
//!
//! Each configuration produces the identical map; the four differ in the
//! [`MappingStats`] charged for it, which `stats_latency` converts to
//! microseconds with a small set of calibrated constants.

use crate::config::{MapSearchStrategy, OptimizationConfig};
use crate::context::CachedMap;
use crate::faults::{DegradationReport, FaultInjector, FaultSite};
use crate::runtime::ThreadPool;
use crate::CoreError;
use std::sync::Arc;
use torchsparse_coords::downsample::{fused_output_coords, Boundary};
use torchsparse_coords::kernel_map::{search_dilated_on, search_submanifold_symmetric_dilated_on};
use torchsparse_coords::{
    Coord, CoordHashMap, CoordIndex, CoordsError, GridTable, KernelMap, MappingStats, MphfIndex,
};
use torchsparse_gpusim::{DeviceProfile, Micros};

/// Which coordinate index a layer's map search used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Conventional open-addressing hashmap.
    Hashmap,
    /// Collision-free grid.
    Grid,
    /// Succinct minimal-perfect-hash index (frozen coordinate sets).
    Mphf,
}

impl TableKind {
    /// Probe-serialization factor of the index's query chain: hashmap probe
    /// chains and the MPHF's level cascade are dependent loads, the grid's
    /// single accesses pipeline freely.
    fn serialization(self) -> f64 {
        match self {
            TableKind::Grid => 1.0,
            TableKind::Hashmap | TableKind::Mphf => HASH_SERIALIZATION,
        }
    }
}

/// The result of building one layer's mapping.
#[derive(Debug)]
pub struct LayerMapping {
    /// The kernel map.
    pub map: KernelMap,
    /// Output coordinates (equal to the input for stride-1 layers).
    pub out_coords: Vec<Coord>,
    /// Simulated mapping latency.
    pub latency: Micros,
    /// Table used for the search. A frozen search that reused its level's
    /// index reports [`TableKind::Mphf`], the index frozen plans keep (the
    /// hashmap or a delta layer that may stand in for it probes alike).
    pub table: TableKind,
    /// The coordinate index the search probed: built by this search, or
    /// the level's, shared with every map over the same coordinates.
    pub index: Arc<dyn CoordIndex>,
}

impl LayerMapping {
    /// Wraps the mapping for the planner's map cache, keeping the index
    /// the search probed. `fine` is the input level's list, which the map
    /// shares; a stride-1 map ([`build_layer_mapping_on`] leaves its
    /// `out_coords` empty) shares it on its coarse side too.
    ///
    /// The cache lives for one plan build: a dynamic run's entries are
    /// dropped by the next [`crate::Context::begin_run`], so its grid or
    /// hashmap is never re-read and is kept as it is. The indices plans
    /// keep and re-query are compiled ones, one per level, and a compiled
    /// session's search already ran on the MPHF ([`TableKind::Mphf`]).
    pub(crate) fn into_cached(self, fine: &Arc<[Coord]>) -> CachedMap {
        let coarse =
            if self.out_coords.is_empty() { Arc::clone(fine) } else { Arc::from(self.out_coords) };
        CachedMap { map: self.map, fine: Arc::clone(fine), coarse, index: self.index }
    }
}

/// Bytes charged per *random* table access (hash probe / grid cell): one
/// 32-byte DRAM sector, the minimum granularity of an uncoalesced access.
const RANDOM_ACCESS_BYTES: f64 = 32.0;
/// Bytes charged per *streaming* coordinate element in the downsample
/// pipeline (a packed 16-byte coordinate, fully coalesced).
const STREAM_ACCESS_BYTES: f64 = 16.0;
/// Probe chains in the conventional hashmap are serialized dependent loads
/// (each probe must complete before the next address is known), while the
/// grid's single accesses pipeline freely. With ~1.5 average probes at load
/// factor 0.5, this factor puts grid search near the paper's 2.7x advantage
/// (§6.3) on large scenes.
pub(crate) const HASH_SERIALIZATION: f64 = 1.8;
/// Penalty of un-simplified control logic (branchy, un-unrolled mapping
/// kernels); its removal is the 1.8x "control logic" bar of Figure 13.
const UNSIMPLIFIED_FACTOR: f64 = 1.8;
/// ALU time of one fused-kernel sliding-window candidate, expressed in
/// DRAM-byte-equivalents. Calibrated once so the fused output-coordinate
/// kernel lands near the paper's measured 2.1x over the staged baseline
/// (§6.3) instead of the ~20x a pure traffic count would predict.
const CANDIDATE_OP_BYTES: f64 = 72.0;

/// Converts mapping memory statistics to latency on a device.
///
/// `random` selects the 32-byte-sector random-access cost (table
/// construction and probing) versus the coalesced streaming cost
/// (coordinate pipelines).
pub(crate) fn stats_latency(
    stats: &MappingStats,
    device: &DeviceProfile,
    random: bool,
    serialization: f64,
    simplified: bool,
) -> Micros {
    let bytes_per = if random { RANDOM_ACCESS_BYTES } else { STREAM_ACCESS_BYTES };
    let bytes = (stats.reads + stats.writes) as f64 * bytes_per * serialization
        + stats.candidate_ops as f64 * CANDIDATE_OP_BYTES;
    let mut us = bytes / (device.dram_gbs * 1e3);
    if !simplified {
        us *= UNSIMPLIFIED_FACTOR;
    }
    Micros(us) + Micros(stats.kernel_launches as f64 * device.launch_overhead_us)
}

/// DRAM traffic of the naive staged output-coordinate pipeline (the
/// baseline of Figure 10a) over `n` inputs with a `kernel_size`-wide window
/// and `out` outputs: five kernels, every intermediate round-tripping
/// through DRAM at the full candidate width `nv` (`v = K^3` offsets).
///
/// | stage | reads | writes |
/// |---|---|---|
/// | broadcast_add | `n` inputs | `nv` candidates |
/// | modular check | `nv` candidates | `nv` mask |
/// | boundary check | `2nv` candidates + mask | `nv` mask |
/// | flatten to 1D | `2nv` candidates + mask | `nv` keys |
/// | unique | `nv` keys | `out` outputs |
///
/// Its outputs are the fused kernel's, so only this price is kept.
pub(crate) fn staged_downsample_stats(n: usize, kernel_size: usize, out: usize) -> MappingStats {
    let (n, v) = (n as u64, kernel_size.pow(3) as u64);
    MappingStats {
        reads: n + 6 * n * v,
        writes: 4 * n * v + out as u64,
        kernel_launches: 5,
        candidate_ops: 0,
    }
}

/// Builds the complete mapping for one convolution layer: output
/// coordinates (for strided layers), table construction, and map search,
/// on the global pool with no fault injection.
///
/// # Errors
///
/// Propagates coordinate errors ([`CoreError::Coords`]); an empty input
/// yields [`CoreError::EmptyInput`].
pub fn build_layer_mapping(
    in_coords: &[Coord],
    kernel_size: usize,
    conv_stride: i32,
    config: &OptimizationConfig,
    device: &DeviceProfile,
) -> Result<LayerMapping, CoreError> {
    let mut mapping = build_layer_mapping_on(
        ThreadPool::global(),
        in_coords,
        kernel_size,
        conv_stride,
        1,
        config,
        device,
        &mut FaultInjector::disarmed(),
        &mut DegradationReport::new(),
        false,
        None,
    )?;
    if conv_stride == 1 {
        mapping.out_coords = in_coords.to_vec();
    }
    Ok(mapping)
}

/// [`build_layer_mapping`] with a dilation factor (stride-1 layers only;
/// strided dilated convolution is rejected as in real engines' common
/// configurations), threaded through the engine's fault injector and
/// degradation report: a grid-table failure — organic `GridTooLarge` or
/// injected at [`FaultSite::GridTableBuild`] — degrades to the hashmap
/// table and is recorded instead of being swallowed silently. The map
/// search fans out across kernel offsets on `pool` (the engine passes its
/// context pool so `config.threads` governs mapping too). Table
/// construction stays serial — insertion order defines the stored indices.
///
/// A stride-1 layer's output list is its input list, which the planner
/// already holds, so it is not copied: `out_coords` is left empty.
///
/// `frozen` is the planner's frozen-index flag: a compiled session's
/// coordinate sets never change after plan time, so its searches build —
/// and are charged for — the minimal-perfect-hash index the plan keeps,
/// where a dynamic run follows `config.map_search`. `level` is the level's
/// index once an earlier frozen search over the same list built it: the
/// search probes it as it is and is charged no build.
///
/// # Errors
///
/// As [`build_layer_mapping`]; additionally
/// [`CoordsError::InvalidDilation`] for `dilation < 1`, or `dilation > 1`
/// combined with `conv_stride > 1`.
#[allow(clippy::too_many_arguments)] // mirrors the engine's disjoint Context borrows
pub(crate) fn build_layer_mapping_on(
    pool: &ThreadPool,
    in_coords: &[Coord],
    kernel_size: usize,
    conv_stride: i32,
    dilation: i32,
    config: &OptimizationConfig,
    device: &DeviceProfile,
    faults: &mut FaultInjector,
    degradation: &mut DegradationReport,
    frozen: bool,
    level: Option<Arc<dyn CoordIndex>>,
) -> Result<LayerMapping, CoreError> {
    if in_coords.is_empty() {
        return Err(CoreError::EmptyInput);
    }
    if dilation < 1 || (dilation > 1 && conv_stride > 1) {
        return Err(CoreError::Coords(CoordsError::InvalidDilation {
            dilation,
            stride: conv_stride,
        }));
    }
    let mut latency = Micros::ZERO;

    // 1. Output coordinates.
    let out_coords = if conv_stride == 1 {
        Vec::new()
    } else {
        let result =
            fused_output_coords(in_coords, kernel_size, conv_stride, Boundary::unbounded())?;
        let stats = if config.fused_downsample {
            result.stats
        } else {
            staged_downsample_stats(in_coords.len(), kernel_size, result.coords.len())
        };
        latency += stats_latency(&stats, device, false, 1.0, config.simplified_mapping_kernels);
        result.coords
    };

    // 2. Index construction over the input coordinates, unless the level
    // already has one.
    let (index, kind) = match level {
        Some(index) => (index, TableKind::Mphf),
        None => {
            let (index, stats, kind) = build_table(in_coords, config, faults, degradation, frozen)?;
            // Construction is a simple streaming-insert kernel in all systems.
            latency += stats_latency(&stats, device, true, kind.serialization(), true);
            (index, kind)
        }
    };

    // 3. Map search.
    let symmetric =
        config.symmetric_map_search && conv_stride == 1 && kernel_size % 2 == 1 && kernel_size > 1;
    let map = if symmetric {
        search_submanifold_symmetric_dilated_on(
            pool,
            in_coords,
            index.as_ref(),
            kernel_size,
            dilation,
        )?
    } else {
        let queries = if conv_stride == 1 { in_coords } else { &out_coords };
        search_dilated_on(pool, queries, index.as_ref(), kernel_size, conv_stride, dilation)?
    };
    latency += stats_latency(
        &map.stats,
        device,
        true,
        kind.serialization(),
        config.simplified_mapping_kernels,
    );

    Ok(LayerMapping { map, out_coords, latency, table: kind, index })
}

fn build_table(
    coords: &[Coord],
    config: &OptimizationConfig,
    faults: &mut FaultInjector,
    degradation: &mut DegradationReport,
    frozen: bool,
) -> Result<(Arc<dyn CoordIndex>, MappingStats, TableKind), CoreError> {
    // One construction kernel writing `writes` slots.
    let built = |writes| MappingStats { reads: 0, writes, kernel_launches: 1, candidate_ops: 0 };
    let hash = |coords: &[Coord]| {
        let (t, probes) = CoordHashMap::build(coords);
        (Arc::new(t) as Arc<dyn CoordIndex>, built(probes), TableKind::Hashmap)
    };
    if frozen {
        return match MphfIndex::build(coords) {
            Ok((t, accesses)) => Ok((Arc::new(t) as _, built(accesses), TableKind::Mphf)),
            // Duplicate coordinates have no perfect hash; keep the
            // hashmap's keep-first semantics so lookups are unchanged.
            Err(CoordsError::DuplicateCoordinate(_)) => Ok(hash(coords)),
            Err(e) => Err(e.into()),
        };
    }
    if config.map_search == MapSearchStrategy::Hashmap {
        return Ok(hash(coords));
    }
    // Try the grid, degrade to the hashmap when construction fails
    // (SpConv-style engines do the same silently; here the fallback is
    // recorded so operators can see it happened).
    let forced = faults.should_fail(FaultSite::GridTableBuild);
    let attempt = if forced {
        Err(CoordsError::GridTooLarge { cells: u64::MAX, limit: config.grid_cell_limit })
    } else {
        GridTable::build(coords, config.grid_cell_limit)
            .map(|(t, accesses)| (Arc::new(t) as _, built(accesses), TableKind::Grid))
    };
    match attempt {
        Ok(t) => Ok(t),
        Err(CoordsError::GridTooLarge { .. }) => {
            degradation.record(
                FaultSite::GridTableBuild,
                if forced {
                    "injected grid-table failure; hashmap fallback"
                } else {
                    "grid table over cell budget; hashmap fallback"
                },
            );
            Ok(hash(coords))
        }
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationConfig;

    fn coords_blob(n: i32) -> Vec<Coord> {
        let mut v = Vec::new();
        for x in 0..n {
            for y in 0..n {
                v.push(Coord::new(0, x, y, (x * y) % n));
            }
        }
        v
    }

    fn device() -> DeviceProfile {
        DeviceProfile::rtx_2080ti()
    }

    #[test]
    fn empty_input_rejected() {
        let cfg = OptimizationConfig::torchsparse();
        assert_eq!(
            build_layer_mapping(&[], 3, 1, &cfg, &device()).unwrap_err(),
            CoreError::EmptyInput
        );
    }

    #[test]
    fn submanifold_map_has_identity_center() {
        let coords = coords_blob(8);
        let cfg = OptimizationConfig::torchsparse();
        let m = build_layer_mapping(&coords, 3, 1, &cfg, &device()).unwrap();
        assert_eq!(m.out_coords, coords);
        assert_eq!(m.map.entries(13).len(), coords.len());
    }

    #[test]
    fn all_configs_produce_same_map() {
        // Whatever tables, fusion, or symmetry a config picks, the *map*
        // must be identical — optimizations never change semantics.
        let coords = coords_blob(7);
        let reference =
            build_layer_mapping(&coords, 3, 1, &OptimizationConfig::baseline_fp32(), &device())
                .unwrap();
        for cfg in [
            OptimizationConfig::torchsparse(),
            OptimizationConfig::minkowski_engine(),
            OptimizationConfig::spconv_fp32(),
        ] {
            let m = build_layer_mapping(&coords, 3, 1, &cfg, &device()).unwrap();
            for n in 0..27 {
                let mut a: Vec<_> = reference.map.entries(n).to_vec();
                let mut b: Vec<_> = m.map.entries(n).to_vec();
                a.sort_by_key(|e| (e.output, e.input));
                b.sort_by_key(|e| (e.output, e.input));
                assert_eq!(a, b, "config {cfg:?} offset {n}");
            }
        }
    }

    #[test]
    fn strided_mapping_agrees_across_fusion() {
        let coords = coords_blob(9);
        let mut fused_cfg = OptimizationConfig::torchsparse();
        fused_cfg.symmetric_map_search = false;
        let mut staged_cfg = OptimizationConfig::baseline_fp32();
        staged_cfg.map_search = MapSearchStrategy::Grid;
        let a = build_layer_mapping(&coords, 2, 2, &fused_cfg, &device()).unwrap();
        let b = build_layer_mapping(&coords, 2, 2, &staged_cfg, &device()).unwrap();
        assert_eq!(a.out_coords, b.out_coords);
        assert_eq!(a.map.total_entries(), b.map.total_entries());
    }

    #[test]
    fn grid_faster_than_hashmap() {
        // §6.3: grid-based search beats the conventional hashmap (2.7x on
        // large scenes; launch overhead shrinks the gap at this test size).
        let coords = coords_blob(96);
        let mut hash_cfg = OptimizationConfig::baseline_fp32();
        hash_cfg.map_search = MapSearchStrategy::Hashmap;
        let mut grid_cfg = hash_cfg.clone();
        grid_cfg.map_search = MapSearchStrategy::Grid;
        let h = build_layer_mapping(&coords, 3, 1, &hash_cfg, &device()).unwrap();
        let g = build_layer_mapping(&coords, 3, 1, &grid_cfg, &device()).unwrap();
        assert_eq!(h.table, TableKind::Hashmap);
        assert_eq!(g.table, TableKind::Grid);
        let ratio = h.latency.as_f64() / g.latency.as_f64();
        assert!(ratio > 1.3, "grid should be clearly faster, ratio {ratio}");
    }

    #[test]
    fn fused_downsample_faster() {
        let coords = coords_blob(24);
        let mut fused = OptimizationConfig::torchsparse();
        fused.symmetric_map_search = false;
        let mut staged = fused.clone();
        staged.fused_downsample = false;
        let f = build_layer_mapping(&coords, 2, 2, &fused, &device()).unwrap();
        let s = build_layer_mapping(&coords, 2, 2, &staged, &device()).unwrap();
        assert!(s.latency > f.latency);
    }

    #[test]
    fn staged_price_repeats_the_staged_pipelines_counts() {
        // `(reads, writes, outputs)` the five-kernel pipeline counted on
        // each case when it still ran (launches 5, candidate ops 0 on all).
        let paper = vec![Coord::new(0, 3, 5, 0)];
        let blob: Vec<Coord> = (0..40)
            .map(|i| Coord::new(i % 2, (i * 7) % 13 - 6, (i * 3) % 11 - 5, (i * 5) % 9 - 4))
            .collect();
        let negative: Vec<Coord> = (-4..4).map(|i| Coord::new(0, i, -i, 2 * i)).collect();
        let line: Vec<Coord> = (0..8).map(|i| Coord::new(0, i, 0, 0)).collect();
        let unbounded = Boundary::unbounded();
        let clip = Boundary { min: Some([0, 0, 0]), max: Some([2, 1, 1]) };
        let box_ = Boundary { min: Some([-1, -2, -1]), max: Some([2, 2, 1]) };
        let cases = [
            (&paper, 3, 2, unbounded, (163, 112, 4)),
            (&blob, 2, 2, unbounded, (1960, 1320, 40)),
            (&blob, 3, 2, unbounded, (6520, 4441, 121)),
            (&blob, 2, 3, unbounded, (1960, 1292, 12)),
            (&blob, 3, 3, unbounded, (6520, 4359, 39)),
            (&negative, 3, 2, unbounded, (1304, 884, 20)),
            (&negative, 2, 3, unbounded, (392, 259, 3)),
            (&line, 2, 2, clip, (392, 258, 2)),
            (&blob, 3, 2, box_, (6520, 4332, 12)),
        ];
        for (coords, k, s, boundary, (reads, writes, outputs)) in cases {
            let fused = fused_output_coords(coords, k, s, boundary).unwrap();
            assert_eq!(fused.coords.len(), outputs, "k{k} s{s} {boundary:?}");
            let staged = staged_downsample_stats(coords.len(), k, outputs);
            let want = MappingStats { reads, writes, kernel_launches: 5, candidate_ops: 0 };
            assert_eq!(staged, want, "k{k} s{s} {boundary:?}");
        }
        // The fused kernel writes only survivors: far less traffic.
        let coords: Vec<Coord> = (0..500).map(|i| Coord::new(0, i, i % 17, i % 5)).collect();
        let fused = fused_output_coords(&coords, 3, 2, unbounded).unwrap();
        let staged = staged_downsample_stats(coords.len(), 3, fused.coords.len());
        let accesses = |s: MappingStats| s.reads + s.writes;
        assert!(accesses(staged) > 4 * accesses(fused.stats));
        assert_eq!(fused.stats.kernel_launches, 2);
    }

    #[test]
    fn symmetry_reduces_latency() {
        let coords = coords_blob(24);
        let mut sym = OptimizationConfig::torchsparse();
        let mut nosym = sym.clone();
        sym.symmetric_map_search = true;
        nosym.symmetric_map_search = false;
        let a = build_layer_mapping(&coords, 3, 1, &sym, &device()).unwrap();
        let b = build_layer_mapping(&coords, 3, 1, &nosym, &device()).unwrap();
        assert!(b.latency > a.latency);
    }

    #[test]
    fn simplified_kernels_reduce_latency() {
        let coords = coords_blob(24);
        let mut simp = OptimizationConfig::baseline_fp32();
        simp.simplified_mapping_kernels = true;
        let base = OptimizationConfig::baseline_fp32();
        let a = build_layer_mapping(&coords, 3, 1, &simp, &device()).unwrap();
        let b = build_layer_mapping(&coords, 3, 1, &base, &device()).unwrap();
        assert!(b.latency > a.latency);
    }

    #[test]
    fn auto_falls_back_to_hashmap_for_huge_boxes() {
        let mut coords = coords_blob(4);
        coords.push(Coord::new(0, 100_000, 100_000, 100_000));
        let mut cfg = OptimizationConfig::torchsparse();
        cfg.grid_cell_limit = 1 << 20;
        let m = build_layer_mapping(&coords, 3, 1, &cfg, &device()).unwrap();
        assert_eq!(m.table, TableKind::Hashmap);
    }

    #[test]
    fn organic_grid_fallback_is_recorded() {
        let mut coords = coords_blob(4);
        coords.push(Coord::new(0, 100_000, 100_000, 100_000));
        let mut cfg = OptimizationConfig::torchsparse();
        cfg.grid_cell_limit = 1 << 20;
        let mut faults = FaultInjector::disarmed();
        let mut report = DegradationReport::new();
        let m = build_layer_mapping_on(
            ThreadPool::global(),
            &coords,
            3,
            1,
            1,
            &cfg,
            &device(),
            &mut faults,
            &mut report,
            false,
            None,
        )
        .unwrap();
        assert_eq!(m.table, TableKind::Hashmap);
        assert_eq!(report.count(FaultSite::GridTableBuild), 1);
        assert!(report.events()[0].cause.contains("over cell budget"));
    }

    #[test]
    fn injected_grid_fault_degrades_and_produces_same_map() {
        let coords = coords_blob(8);
        let cfg = OptimizationConfig::torchsparse();
        let healthy = build_layer_mapping(&coords, 3, 1, &cfg, &device()).unwrap();
        assert_eq!(healthy.table, TableKind::Grid);

        let mut faults = FaultInjector::disarmed();
        faults.arm(FaultSite::GridTableBuild);
        let mut report = DegradationReport::new();
        let degraded = build_layer_mapping_on(
            ThreadPool::global(),
            &coords,
            3,
            1,
            1,
            &cfg,
            &device(),
            &mut faults,
            &mut report,
            false,
            None,
        )
        .unwrap();
        assert_eq!(degraded.table, TableKind::Hashmap);
        assert_eq!(report.count(FaultSite::GridTableBuild), 1);
        // The fallback table yields the identical kernel map.
        assert_eq!(healthy.map.total_entries(), degraded.map.total_entries());
        for n in 0..27 {
            let mut a: Vec<_> = healthy.map.entries(n).to_vec();
            let mut b: Vec<_> = degraded.map.entries(n).to_vec();
            a.sort_by_key(|e| (e.output, e.input));
            b.sort_by_key(|e| (e.output, e.input));
            assert_eq!(a, b, "offset {n}");
        }
    }

    #[test]
    fn frozen_mapping_searches_the_mphf_and_keeps_it() {
        // A compiled session's search builds — and is charged for — the
        // MPHF, whatever `map_search` says; the map is the dynamic one and
        // the cached copy keeps that very index, as a dynamic search's
        // cached copy keeps its grid or hashmap. Duplicate coordinates have
        // no perfect hash: the hashmap stands in, frozen or not.
        let build = |coords: &[Coord], cfg: &OptimizationConfig, frozen: bool| {
            build_layer_mapping_on(
                ThreadPool::global(),
                coords,
                3,
                1,
                1,
                cfg,
                &device(),
                &mut FaultInjector::disarmed(),
                &mut DegradationReport::new(),
                frozen,
                None,
            )
            .unwrap()
        };
        let coords = coords_blob(8);
        let level: Arc<[Coord]> = Arc::from(coords.as_slice());
        for cfg in [OptimizationConfig::torchsparse(), OptimizationConfig::baseline_fp32()] {
            let dynamic = build(&coords, &cfg, false);
            assert_ne!(dynamic.table, TableKind::Mphf);
            let frozen = build(&coords, &cfg, true);
            assert_eq!(frozen.table, TableKind::Mphf);
            for n in 0..27 {
                assert_eq!(frozen.map.entries(n), dynamic.map.entries(n), "offset {n}");
            }
            let bytes = frozen.index.memory_bytes();
            assert_eq!(frozen.into_cached(&level).index.memory_bytes(), bytes);
            // The dynamic search's own grid or hashmap is kept.
            let dynamic_bytes = dynamic.index.memory_bytes();
            assert!(dynamic_bytes > bytes, "{dynamic_bytes} vs the MPHF's {bytes}");
            let cached = dynamic.into_cached(&level);
            assert!(Arc::ptr_eq(&cached.fine, &level) && Arc::ptr_eq(&cached.coarse, &level));
            assert_eq!(cached.index.memory_bytes(), dynamic_bytes);
            assert_eq!(cached.index.query(coords[3]), (Some(3), 1));
        }
        let mut duplicated = coords.clone();
        duplicated.push(coords[5]);
        let frozen = build(&duplicated, &OptimizationConfig::torchsparse(), true);
        assert_eq!(frozen.table, TableKind::Hashmap);
        let bytes = frozen.index.memory_bytes();
        assert_eq!(frozen.into_cached(&Arc::from(duplicated)).index.memory_bytes(), bytes);
    }

    #[test]
    fn a_frozen_search_probes_the_levels_index_and_pays_no_build() {
        // Every frozen map over one level probes the index the level's first
        // search built: the same maps, the same `Arc`, no build charged.
        let coords = coords_blob(8);
        let cfg = OptimizationConfig::torchsparse();
        let search = |kernel_size: usize, stride: i32, level: Option<Arc<dyn CoordIndex>>| {
            build_layer_mapping_on(
                ThreadPool::global(),
                &coords,
                kernel_size,
                stride,
                1,
                &cfg,
                &device(),
                &mut FaultInjector::disarmed(),
                &mut DegradationReport::new(),
                true,
                level,
            )
            .unwrap()
        };
        let first = search(3, 1, None);
        for (kernel_size, stride) in [(3, 1), (1, 1), (2, 2)] {
            let built = search(kernel_size, stride, None);
            let reused = search(kernel_size, stride, Some(Arc::clone(&first.index)));
            assert!(Arc::ptr_eq(&reused.index, &first.index));
            assert!(!Arc::ptr_eq(&built.index, &first.index));
            assert_eq!(reused.table, TableKind::Mphf);
            assert_eq!(reused.out_coords, built.out_coords);
            for n in 0..built.map.num_offsets() {
                assert_eq!(reused.map.entries(n), built.map.entries(n), "offset {n}");
            }
            assert!(reused.latency < built.latency, "k{kernel_size} s{stride}: no build charged");
        }
    }

    #[test]
    fn invalid_dilation_is_a_dilation_error() {
        let coords = coords_blob(4);
        let cfg = OptimizationConfig::torchsparse();
        let build = |stride: i32, dilation: i32| {
            build_layer_mapping_on(
                ThreadPool::global(),
                &coords,
                3,
                stride,
                dilation,
                &cfg,
                &device(),
                &mut FaultInjector::disarmed(),
                &mut DegradationReport::new(),
                false,
                None,
            )
            .unwrap_err()
        };
        for (stride, dilation) in [(1, 0), (2, 2)] {
            assert_eq!(
                build(stride, dilation),
                CoreError::Coords(CoordsError::InvalidDilation { dilation, stride })
            );
        }
    }

    #[test]
    fn hashmap_strategy_never_probes_grid_fault() {
        let coords = coords_blob(6);
        let mut cfg = OptimizationConfig::baseline_fp32();
        cfg.map_search = MapSearchStrategy::Hashmap;
        let mut faults = FaultInjector::disarmed();
        faults.arm(FaultSite::GridTableBuild);
        let mut report = DegradationReport::new();
        build_layer_mapping_on(
            ThreadPool::global(),
            &coords,
            3,
            1,
            1,
            &cfg,
            &device(),
            &mut faults,
            &mut report,
            false,
            None,
        )
        .unwrap();
        assert!(faults.is_armed(), "no grid build happens under Hashmap strategy");
        assert!(report.is_empty());
    }
}
