//! Incremental delta re-planning for temporal streams.
//!
//! LiDAR streams at 10-20 Hz rarely repeat a frame's voxel grid exactly —
//! ego-motion and dynamic actors churn a few percent of the coordinates
//! while the stable majority persists. A fingerprint mismatch therefore
//! usually means *almost* the same geometry, yet the re-plan path rebuilds
//! every index, kernel map, and output coordinate list from scratch.
//!
//! This module implements the incremental alternative: diff the new
//! coordinate set against the frozen plan's ([`diff_coords`]), classify
//! voxels kept / inserted / removed, and patch only the mapping structures
//! the changed voxels touch — CSR kernel-map ranges, downsampled output
//! coordinate lists, and the per-level coordinate indexes (layered as
//! [`DeltaIndex`]: the frozen MPHF majority plus a small side-table for
//! inserted voxels). Patched maps are seeded into the context's map cache
//! ([`Context::seed_map`]) and the ordinary plan build then runs against
//! them: every `plan()` call hits the seeded cache, skips search, and makes
//! identical policy / grouping / ordering decisions — so a patched plan is
//! *bitwise identical* to a from-scratch plan at every thread count.
//!
//! The walk is conservative: any situation where equality cannot be
//! guaranteed — churn above [`DELTA_REPLAN_MAX_CHURN`], duplicate
//! coordinates, geometry that passed through an untracked op — bails out
//! *before* seeding anything, and the caller falls back to a clean full
//! rebuild (counted as a delta fallback in
//! [`PlanCacheStats`](crate::PlanCacheStats)).

use crate::config::OptimizationConfig;
use crate::context::{CachedMap, Context, MapKey};
use crate::cost_model::Charge;
use crate::mapping::{stats_latency, HASH_SERIALIZATION};
use crate::plan::{ExecutionPlan, LayerOp, StepPlan};
use crate::{CoreError, SparseTensor};
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

/// The geometry cursor of the delta walk: the new coordinates at the
/// current tensor level, plus (once resolved) their classification against
/// the old plan's coordinates at the same level and an index over them.
#[derive(Clone)]
struct LevelState {
    coords: Arc<Vec<Coord>>,
    stride: i32,
    /// Classification of the old plan's rows at this level against
    /// `coords`. `None` until the first map op resolves it (level 0 diffs
    /// lazily against that op's frozen index).
    delta: Option<Arc<CoordDelta>>,
    /// Index over `coords`, built lazily on first use.
    index: Option<Arc<dyn CoordIndex>>,
    /// Geometry no longer tracked against the old plan (it passed through
    /// an op the walk does not model, e.g. global pooling). Any further
    /// map op bails.
    opaque: bool,
}

impl LevelState {
    fn root(coords: Vec<Coord>, stride: i32) -> LevelState {
        LevelState { coords: Arc::new(coords), stride, delta: None, index: None, opaque: false }
    }

    fn opaque() -> LevelState {
        LevelState {
            coords: Arc::new(Vec::new()),
            stride: 0,
            delta: None,
            index: None,
            opaque: true,
        }
    }
}

/// A conservative bail: the delta path cannot guarantee bitwise equality
/// here, so the caller runs a full rebuild instead. Never an error.
struct Bail(#[allow(dead_code)] &'static str);

/// One patched (or verified-identical) map, plus the coarse-side state a
/// strided op hands to the next level.
struct PatchedEntry {
    cached: Arc<CachedMap>,
    coarse: Option<LevelState>,
}

struct Walk<'c> {
    config: &'c OptimizationConfig,
    seeds: Vec<(MapKey, Arc<CachedMap>)>,
    patched: HashMap<MapKey, usize>,
    /// Fine-side level state per map key, for transposed convolutions that
    /// re-enter a level through the shared encoder map.
    fine_states: HashMap<MapKey, LevelState>,
    stats: PatchStats,
    churn_checked: bool,
}

impl<'c> Walk<'c> {
    /// Resolves the level's delta (level 0 diffs against the op's frozen
    /// index) and enforces the churn threshold on the first resolution.
    fn resolve_delta(
        &mut self,
        cur: &mut LevelState,
        old_cached: &CachedMap,
    ) -> Result<Arc<CoordDelta>, Bail> {
        let delta = match &cur.delta {
            Some(d) => d.clone(),
            None => {
                let d = diff_coords(
                    old_cached.index.as_ref(),
                    old_cached.fine_coords.len(),
                    &cur.coords,
                )
                .map_err(|_| Bail("duplicate coordinates"))?;
                self.stats.random.reads += d.probes;
                self.stats.random.kernel_launches += 1;
                let d = Arc::new(d);
                cur.delta = Some(d.clone());
                d
            }
        };
        if delta.remap.len() != old_cached.fine_coords.len() {
            return Err(Bail("level/plan row-count mismatch"));
        }
        if !self.churn_checked {
            self.churn_checked = true;
            if delta.churn(cur.coords.len()) > DELTA_REPLAN_MAX_CHURN {
                return Err(Bail("churn above threshold"));
            }
        }
        Ok(delta)
    }

    /// Ensures `cur.index` indexes the level's new coordinates: the old
    /// frozen index when the delta is the identity, a [`DeltaIndex`] layer
    /// over it otherwise — compacted into a fresh flat index when the chain
    /// grows too deep or the side-table too large.
    fn resolve_index(
        &mut self,
        cur: &mut LevelState,
        delta: &CoordDelta,
        old_cached: &CachedMap,
    ) -> Result<Arc<dyn CoordIndex>, Bail> {
        if let Some(ix) = &cur.index {
            return Ok(ix.clone());
        }
        let ix: Arc<dyn CoordIndex> = if delta.is_identity() {
            old_cached.index.clone()
        } else {
            let side_fraction = delta.inserted.len() as f64 / (cur.coords.len().max(1)) as f64;
            if old_cached.index.delta_depth() + 1 > MAX_DELTA_DEPTH
                || side_fraction >= MAX_SIDE_FRACTION
            {
                self.compact_index(&cur.coords)
            } else {
                let (di, probes) = DeltaIndex::build(old_cached.index.clone(), delta, &cur.coords)
                    .map_err(|_| Bail("delta/index length mismatch"))?;
                self.stats.random.writes += probes;
                self.stats.random.kernel_launches += 1;
                Arc::new(di)
            }
        };
        cur.index = Some(ix.clone());
        Ok(ix)
    }

    /// A fresh flat index over `coords`: the MPHF every frozen plan stores,
    /// or the hashmap when duplicate coordinates leave no perfect hash.
    fn compact_index(&mut self, coords: &[Coord]) -> Arc<dyn CoordIndex> {
        self.stats.random.kernel_launches += 1;
        match MphfIndex::build(coords) {
            Ok((t, accesses)) => {
                self.stats.random.writes += accesses;
                Arc::new(t)
            }
            Err(_) => {
                let (t, probes) = CoordHashMap::build(coords);
                self.stats.random.writes += probes;
                Arc::new(t)
            }
        }
    }

    /// Patches one map-building op (convolution or pooling) at the current
    /// level. Returns the index of the resulting [`PatchedEntry`] in
    /// `self.seeds`/`entries`; the caller advances geometry from it.
    #[allow(clippy::too_many_arguments)]
    fn patch_map_op(
        &mut self,
        entries: &mut Vec<PatchedEntry>,
        cur: &mut LevelState,
        old_cached: &Arc<CachedMap>,
        kernel_size: usize,
        conv_stride: i32,
        dilation: i32,
    ) -> Result<usize, Bail> {
        if cur.opaque {
            return Err(Bail("untracked geometry (global pool upstream)"));
        }
        let key = MapKey { fine_stride: cur.stride, kernel_size, conv_stride, dilation };
        if let Some(&i) = self.patched.get(&key) {
            // A layer sharing (stride, kernel) already patched this map —
            // reuse it exactly like the plan build's map cache would.
            return Ok(i);
        }
        let delta = self.resolve_delta(cur, old_cached)?;

        let entry = if delta.is_identity() {
            // Unchanged level: the frozen map is already correct. Seed the
            // old Arc as-is — zero patch cost, shared memory.
            if cur.index.is_none() {
                cur.index = Some(old_cached.index.clone());
            }
            let coarse = (conv_stride > 1).then(|| LevelState {
                coords: Arc::new(old_cached.coarse_coords.clone()),
                stride: cur.stride * conv_stride,
                delta: Some(Arc::new(CoordDelta::identity(old_cached.coarse_coords.len()))),
                index: None,
                opaque: false,
            });
            PatchedEntry { cached: old_cached.clone(), coarse }
        } else if conv_stride == 1 {
            let index = self.resolve_index(cur, &delta, old_cached)?;
            let symmetric =
                self.config.symmetric_map_search && kernel_size % 2 == 1 && kernel_size > 1;
            let (map, pstats) = patch_submanifold_map(
                &old_cached.map,
                &delta,
                &cur.coords,
                index.as_ref(),
                kernel_size,
                dilation,
                symmetric,
            )
            .map_err(|_| Bail("submanifold patch failed"))?;
            self.stats.merge(&pstats);
            PatchedEntry {
                cached: Arc::new(CachedMap {
                    map,
                    fine_coords: cur.coords.as_ref().clone(),
                    coarse_coords: cur.coords.as_ref().clone(),
                    index,
                }),
                coarse: None,
            }
        } else {
            if dilation != 1 {
                return Err(Bail("dilated strided convolution"));
            }
            let index = self.resolve_index(cur, &delta, old_cached)?;
            let patch = patch_strided_map(
                &old_cached.map,
                &old_cached.fine_coords,
                &old_cached.coarse_coords,
                &delta,
                &cur.coords,
                index.as_ref(),
                kernel_size,
                conv_stride,
            )
            .map_err(|_| Bail("strided patch failed"))?;
            self.stats.merge(&patch.stats);
            let coarse = LevelState {
                coords: Arc::new(patch.out_coords.clone()),
                stride: cur.stride * conv_stride,
                delta: Some(Arc::new(patch.out_delta)),
                index: None,
                opaque: false,
            };
            PatchedEntry {
                cached: Arc::new(CachedMap {
                    map: patch.map,
                    fine_coords: cur.coords.as_ref().clone(),
                    coarse_coords: patch.out_coords,
                    index,
                }),
                coarse: Some(coarse),
            }
        };

        let i = entries.len();
        self.seeds.push((key, entry.cached.clone()));
        self.patched.insert(key, i);
        self.fine_states.insert(key, cur.clone());
        entries.push(entry);
        Ok(i)
    }
}

/// Attempts the incremental delta re-plan: diffs `input`'s geometry against
/// the frozen `old` plan, patches every affected kernel map / output
/// coordinate list / coordinate index, and seeds the patched maps into the
/// context's map cache so the subsequent plan build reuses them verbatim.
///
/// Returns `Ok(true)` when the cache was seeded (the caller's plan build
/// will be served by patches), `Ok(false)` on a conservative bail — in
/// which case *nothing* was seeded and a full rebuild proceeds cleanly.
/// The patch cost (streaming CSR traffic + random index probes) is charged
/// to [`Stage::Mapping`] on success, exactly where the full pipeline
/// charges its search cost.
///
/// # Errors
///
/// Only [`CoreError::DeadlineExceeded`] from the context's deadline check;
/// every geometric complication is a bail, not an error.
pub(crate) fn try_seed_delta_maps(
    ops: &[LayerOp<'_>],
    old: &ExecutionPlan,
    input: &SparseTensor,
    ctx: &mut Context,
) -> Result<bool, CoreError> {
    ctx.check_deadline("mapping")?;
    let outcome = walk(ops, old, input, &ctx.config);
    match outcome {
        Err(Bail(_)) => Ok(false),
        Ok(w) => {
            let stream = stats_latency(
                &w.stats.stream,
                &ctx.device,
                false,
                1.0,
                ctx.config.simplified_mapping_kernels,
            );
            let random = stats_latency(
                &w.stats.random,
                &ctx.device,
                true,
                HASH_SERIALIZATION,
                ctx.config.simplified_mapping_kernels,
            );
            let seeds = w.seeds;
            ctx.defer(Charge::latency(Stage::Mapping, stream + random));
            for (key, cached) in seeds {
                ctx.seed_map(key, cached);
            }
            Ok(true)
        }
    }
}

/// The read-only lockstep walk over `(ops, old.steps)`. Mirrors the plan
/// build's geometry cursor and value stack exactly; collects seeds without
/// touching the context so a bail leaves no partial state behind.
fn walk<'c>(
    ops: &[LayerOp<'_>],
    old: &ExecutionPlan,
    input: &SparseTensor,
    config: &'c OptimizationConfig,
) -> Result<Walk<'c>, Bail> {
    if ops.len() != old.steps.len() {
        return Err(Bail("op/step count differs"));
    }
    let mut w = Walk {
        config,
        seeds: Vec::new(),
        patched: HashMap::new(),
        fine_states: HashMap::new(),
        stats: PatchStats::default(),
        churn_checked: false,
    };
    let mut entries: Vec<PatchedEntry> = Vec::new();
    let mut cur = LevelState::root(input.coords().to_vec(), input.stride());
    let mut stack: Vec<LevelState> = Vec::new();

    for (op, step) in ops.iter().zip(&old.steps) {
        match (op, step) {
            (LayerOp::Conv(conv), StepPlan::Conv(p)) => {
                if conv.transposed() {
                    if cur.opaque {
                        return Err(Bail("untracked geometry (global pool upstream)"));
                    }
                    let fine_stride = cur.stride / conv.stride();
                    let key = MapKey {
                        fine_stride,
                        kernel_size: conv.kernel_size(),
                        conv_stride: conv.stride(),
                        dilation: conv.dilation(),
                    };
                    // A transposed conv consumes the encoder's shared map:
                    // re-enter the fine level whose state was recorded when
                    // that map was patched.
                    cur = w
                        .fine_states
                        .get(&key)
                        .cloned()
                        .ok_or(Bail("transposed conv before its forward map"))?;
                } else {
                    let i = w.patch_map_op(
                        &mut entries,
                        &mut cur,
                        &p.cached,
                        conv.kernel_size(),
                        conv.stride(),
                        conv.dilation(),
                    )?;
                    if conv.stride() > 1 {
                        cur = entries[i]
                            .coarse
                            .clone()
                            .ok_or(Bail("strided op missing coarse state"))?;
                    }
                }
            }
            (LayerOp::Pool(pool), StepPlan::Pool(p)) => {
                let i = w.patch_map_op(
                    &mut entries,
                    &mut cur,
                    &p.cached,
                    pool.kernel_size(),
                    pool.stride(),
                    1,
                )?;
                if pool.stride() > 1 {
                    cur =
                        entries[i].coarse.clone().ok_or(Bail("strided op missing coarse state"))?;
                }
            }
            (LayerOp::BatchNorm(_) | LayerOp::Relu(_), StepPlan::Pointwise)
            | (LayerOp::CostSurcharge { .. }, StepPlan::CostSurcharge { .. }) => {}
            (LayerOp::GlobalPool(_), StepPlan::GlobalPool { .. }) => {
                // Geometry collapses to per-batch representatives; no map
                // op downstream can be patched against the old plan.
                cur = LevelState::opaque();
            }
            (LayerOp::Push, StepPlan::Push) => stack.push(cur.clone()),
            (LayerOp::PopConcat, StepPlan::PopConcat) => {
                stack.pop().ok_or(Bail("concat pops an empty stack"))?;
            }
            (LayerOp::ResidualAdd { projection }, StepPlan::Residual { projection: proj }) => {
                let mut saved = stack.pop().ok_or(Bail("residual pops an empty stack"))?;
                match (projection, proj) {
                    (Some(conv), Some(p)) => {
                        // The 1x1x1 shortcut projection plans on the saved
                        // geometry; its map seeds under the saved level's
                        // key. Residual output keeps `cur`'s geometry.
                        w.patch_map_op(
                            &mut entries,
                            &mut saved,
                            &p.cached,
                            conv.kernel_size(),
                            conv.stride(),
                            conv.dilation(),
                        )?;
                    }
                    (None, None) => {}
                    _ => return Err(Bail("residual projection presence differs")),
                }
            }
            _ => return Err(Bail("op/step kind differs")),
        }
    }
    Ok(w)
}
