//! Incremental delta re-planning for temporal streams.
//!
//! LiDAR streams at 10-20 Hz rarely repeat a frame's voxel grid exactly —
//! ego-motion and dynamic actors churn a few percent of the coordinates
//! while the stable majority persists. A plan miss therefore
//! usually means *almost* the same geometry, yet the re-plan path rebuilds
//! every index, kernel map, and output coordinate list from scratch.
//!
//! This module implements the incremental alternative: diff the new
//! coordinate set against the frozen plan's ([`diff_coords`]), classify
//! voxels kept / inserted / removed, and patch only the mapping structures
//! the changed voxels touch — CSR kernel-map ranges, downsampled output
//! coordinate lists, and the per-level coordinate indexes (layered as
//! [`DeltaIndex`]: the frozen MPHF majority plus a small side-table for
//! inserted voxels).
//!
//! A [`Patch`] is the patch source of the one plan walk, `build_plan`:
//! just before a map-building step plans, the walk patches the old plan's
//! map of that step and stores it in the planner's map cache, where the
//! layer finds it as it finds any cached map — skipping the search and
//! making identical dataflow / fusion / buffer-slot decisions — so a
//! patched plan is *bitwise identical* to a from-scratch plan at every
//! thread count. Each [`Level`] of the walk's geometry carries its delta
//! against the old plan along with the coordinates.
//!
//! Every bail is decided before the first step is planned
//! ([`Patch::new`]): a map op after global pooling, duplicate coordinates,
//! or churn above [`DELTA_REPLAN_MAX_CHURN`] make the caller build the plan
//! from scratch (counted as a delta fallback in
//! [`PlanCacheStats`](crate::PlanCacheStats)), and past that point patching
//! cannot bail, so no step is planned twice.

use crate::context::{CachedMap, Context, MapKey, Planner};
use crate::cost_model::Charge;
use crate::mapping::{stats_latency, HASH_SERIALIZATION};
use crate::plan::{ExecutionPlan, LayerOp, StepPlan};
use std::collections::HashMap;
use std::sync::Arc;
use torchsparse_coords::{
    diff_coords, patch_strided_map, patch_submanifold_map, Coord, CoordDelta, CoordHashMap,
    CoordIndex, DeltaIndex, MphfIndex, PatchStats,
};
use torchsparse_gpusim::Stage;

/// Churn-ratio ceiling for delta re-planning: when
/// `(inserted + removed) / max(|old|, |new|)` at the input level exceeds
/// this fraction, the patch path falls back to a full re-plan (past ~15%
/// churn, patching loses to rebuilding).
pub const DELTA_REPLAN_MAX_CHURN: f64 = 0.15;
/// Deepest [`DeltaIndex`] layering tolerated before a level's index is
/// compacted into a fresh flat index. Each layer adds one dependent lookup
/// to every query; past this depth the compaction cost amortizes.
const MAX_DELTA_DEPTH: usize = 3;
/// Inserted-row fraction above which layering stops paying for itself and
/// the level's index is compacted instead.
const MAX_SIDE_FRACTION: f64 = 0.25;

/// One level of the plan walk's geometry, tracked against the old plan:
/// the classification of the old plan's rows at this level against the new
/// coordinates. It is copied wherever the walk copies its geometry cursor
/// (onto the value stack, into a residual's shortcut). The level's index is
/// found as a cold build finds it, on the maps over the level's list
/// ([`Planner::level_index`]), so every copy of a level probes one index.
pub(crate) type Level = Arc<CoordDelta>;

/// Both sides of a patched map: the fine level (a transposed convolution
/// re-enters it) and, for a strided map, the coarse level it leads to.
struct Sides {
    fine: Level,
    coarse: Option<Level>,
}

/// The patch source of a delta re-plan: the old plan, the input level's
/// delta against it, and what patching has built and cost so far.
pub(crate) struct Patch<'p> {
    old: &'p ExecutionPlan,
    symmetric_search: bool,
    /// The input's level.
    pub(crate) root: Level,
    /// Both sides of every map patched so far, by key: a later step with
    /// the same key finds the patch in the map cache.
    maps: HashMap<MapKey, Sides>,
    stats: PatchStats,
}

impl<'p> Patch<'p> {
    /// Decides, before anything is planned, whether `old` can be patched
    /// for the new input level `input` of `ops` (the sorted list the plan
    /// will key on, as `old.input` is). `None` — a fallback: the
    /// caller plans from scratch — when a map op follows global pooling
    /// (which collapses the geometry to one point per batch, rows no old map
    /// describes), or when the input's diff against the old plan's first map
    /// finds duplicate coordinates or churn above
    /// [`DELTA_REPLAN_MAX_CHURN`].
    pub(crate) fn new(
        ops: &[LayerOp<'_>],
        old: &'p ExecutionPlan,
        input: &[Coord],
        symmetric_search: bool,
    ) -> Option<Patch<'p>> {
        let builds_map = |op: &LayerOp<'_>| {
            matches!(
                op,
                LayerOp::Conv(_) | LayerOp::Pool(_) | LayerOp::ResidualAdd { projection: Some(_) }
            )
        };
        let pooled = ops.iter().position(|op| matches!(op, LayerOp::GlobalPool(_)));
        if ops.len() != old.steps.len() || pooled.is_some_and(|g| ops[g..].iter().any(builds_map)) {
            return None;
        }
        let mut stats = PatchStats::default();
        let delta = match old.steps.iter().find_map(StepPlan::cached) {
            Some(first) => {
                let delta = diff_coords(first.index.as_ref(), first.fine.len(), input).ok()?;
                if delta.churn(input.len()) > DELTA_REPLAN_MAX_CHURN {
                    return None;
                }
                stats.random.reads += delta.probes;
                stats.random.kernel_launches += 1;
                delta
            }
            // No map to patch.
            None => CoordDelta::identity(input.len()),
        };
        let root = Arc::new(delta);
        Some(Patch { old, symmetric_search, root, maps: HashMap::new(), stats })
    }

    /// The fine level of the patched map `key`, which a transposed
    /// convolution re-enters.
    pub(crate) fn fine_level(&self, key: MapKey) -> Option<Level> {
        self.maps.get(&key).map(|sides| sides.fine.clone())
    }

    /// Step `step` is about to plan its map `key` from `level`, whose new
    /// coordinates are `coords`: patches the old plan's map of that step and
    /// stores it in the planner's map cache for the layer to find. The
    /// patched map shares `coords` and the level's index, and a coarse
    /// level that came out unchanged shares the old plan's list. A key
    /// patched before is already there. Returns the level of the step's
    /// output — `level` for a stride-1 map, the coarse side of a strided one
    /// — or `None` where the old plan holds no consistent map to patch, in
    /// which case the layer searches as a cold build does.
    pub(crate) fn map(
        &mut self,
        step: usize,
        key: MapKey,
        coords: &Arc<[Coord]>,
        level: &Level,
        planner: &mut Planner,
    ) -> Option<Level> {
        let strided = key.conv_stride > 1;
        if let Some(sides) = self.maps.get(&key) {
            return if strided { sides.coarse.clone() } else { Some(Arc::clone(level)) };
        }
        let old = Arc::clone(self.old.steps[step].cached()?);
        if level.remap.len() != old.fine.len() {
            return None;
        }
        let (cached, coarse) = if level.is_identity() {
            // Unchanged level: the old map, and the index it holds, are
            // already right. Share them.
            let identity = CoordDelta::identity(old.coarse.len());
            (old, strided.then(|| Arc::new(identity)))
        } else if !strided {
            let index = self.index(level, &old, coords, planner)?;
            let symmetric =
                self.symmetric_search && key.kernel_size % 2 == 1 && key.kernel_size > 1;
            let (map, stats) = patch_submanifold_map(
                &old.map,
                level,
                coords,
                index.as_ref(),
                key.kernel_size,
                key.dilation,
                symmetric,
            )
            .ok()?;
            self.stats.merge(&stats);
            let (fine, coarse) = (Arc::clone(coords), Arc::clone(coords));
            (Arc::new(CachedMap { map, fine, coarse, index }), None)
        } else {
            let index = self.index(level, &old, coords, planner)?;
            let patch = patch_strided_map(
                &old.map,
                &old.fine,
                &old.coarse,
                level,
                coords,
                index.as_ref(),
                key.kernel_size,
                key.conv_stride,
            )
            .ok()?;
            self.stats.merge(&patch.stats);
            let coarse = if patch.out_delta.is_identity() {
                Arc::clone(&old.coarse)
            } else {
                Arc::from(patch.out_coords)
            };
            let cached = CachedMap { map: patch.map, fine: Arc::clone(coords), coarse, index };
            (Arc::new(cached), Some(Arc::new(patch.out_delta)))
        };
        planner.store_map(key, cached);
        self.maps.insert(key, Sides { fine: Arc::clone(level), coarse: coarse.clone() });
        if strided {
            coarse
        } else {
            Some(Arc::clone(level))
        }
    }

    /// The index over `level`'s new coordinates `coords`: the level's, when
    /// a map over it already holds one, else built here — a [`DeltaIndex`]
    /// layer over `old`'s index, or a fresh flat index when the chain would
    /// grow too deep or the side-table too large.
    fn index(
        &mut self,
        level: &Level,
        old: &CachedMap,
        coords: &Arc<[Coord]>,
        planner: &Planner,
    ) -> Option<Arc<dyn CoordIndex>> {
        if let Some(index) = planner.level_index(coords) {
            return Some(index);
        }
        let random = &mut self.stats.random;
        let side_fraction = level.inserted.len() as f64 / coords.len().max(1) as f64;
        let index: Arc<dyn CoordIndex> = if old.index.delta_depth() + 1 > MAX_DELTA_DEPTH
            || side_fraction >= MAX_SIDE_FRACTION
        {
            random.kernel_launches += 1;
            // The MPHF every frozen plan stores, or the hashmap when
            // duplicate coordinates leave no perfect hash.
            match MphfIndex::build(coords) {
                Ok((t, accesses)) => {
                    random.writes += accesses;
                    Arc::new(t)
                }
                Err(_) => {
                    let (t, probes) = CoordHashMap::build(coords);
                    random.writes += probes;
                    Arc::new(t)
                }
            }
        } else {
            // A diffed level's side-table came with its diff, charged there.
            let (layered, probes) =
                DeltaIndex::build(Arc::clone(&old.index), level, coords).ok()?;
            random.kernel_launches += u64::from(level.side.is_none());
            random.writes += probes;
            Arc::new(layered)
        };
        Some(index)
    }

    /// Logs the patch cost — streaming CSR traffic plus random index probes
    /// — to [`Stage::Mapping`], where a full re-plan logs its searches.
    pub(crate) fn defer_cost(&self, ctx: &mut Context) {
        let simplified = ctx.config.simplified_mapping_kernels;
        let stream = stats_latency(&self.stats.stream, &ctx.device, false, 1.0, simplified);
        let random =
            stats_latency(&self.stats.random, &ctx.device, true, HASH_SERIALIZATION, simplified);
        ctx.defer(Charge::latency(Stage::Mapping, stream + random));
    }
}
