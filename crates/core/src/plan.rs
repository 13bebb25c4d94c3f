//! The layer-op IR and the frozen per-layer execution plans.
//!
//! Dynamic execution re-derives everything per frame: each
//! [`Engine::run`](crate::Engine::run) re-traces the module tree into an
//! ephemeral plan, rebuilding every kernel map. For streaming inference
//! over frames with identical geometry that work is pure overhead — mapping
//! is amortizable preprocessing. This module provides the pieces a
//! [`CompiledSession`](crate::CompiledSession) freezes at plan time:
//!
//! - [`LayerOp`]: one typed op of the flattened IR a [`Tracer`] collects
//!   from any [`Module`](crate::Module) tree (including residual and UNet
//!   skip topologies, expressed with a small value stack);
//! - [`ConvPlan`] / [`PoolPlan`] (crate-internal): per-layer frozen state —
//!   kernel maps, output coordinates, the layer's grouping strategy — and
//!   no simulated prices ([`crate::cost_model`] groups and prices a plan,
//!   and picks each convolution's priced dataflow, as it walks it);
//! - [`ExecutionPlan`] (crate-internal): the frozen steps, keyed by the
//!   input coordinates and stride they were planned for, compared exactly
//!   on every frame;
//! - [`PlanCacheStats`]: hit/miss/invalidation counters for plan reuse.

use crate::config::GroupingStrategy;
use crate::context::CachedMap;
use crate::cost_model::Cost;
use crate::dataflow::{FusedOrder, MapView};
use crate::{BatchNorm, GlobalPool, ReLU, SparseConv3d, SparseMaxPool3d};
use std::sync::{Arc, OnceLock};
use torchsparse_coords::Coord;
use torchsparse_gpusim::Stage;
use torchsparse_tensor::PackedB;

/// One typed operation in the flattened layer IR.
///
/// Ops borrow their layers from the traced model (`'m`), so the IR adds no
/// parameter copies. Control flow (residual and UNet skips) is expressed
/// with a small value stack: [`LayerOp::Push`] saves the current tensor,
/// [`LayerOp::PopConcat`] and [`LayerOp::ResidualAdd`] consume the most
/// recent save.
#[derive(Debug, Clone, Copy)]
pub enum LayerOp<'m> {
    /// A sparse convolution (submanifold, strided, or transposed).
    Conv(&'m SparseConv3d),
    /// A sparse pooling layer.
    Pool(&'m SparseMaxPool3d),
    /// Inference-mode batch normalization.
    BatchNorm(&'m BatchNorm),
    /// Rectified linear unit.
    Relu(&'m ReLU),
    /// Global average pooling over each batch.
    GlobalPool(&'m GlobalPool),
    /// Save the current tensor on the value stack (start of a skip).
    Push,
    /// Pop the most recent saved tensor and concatenate its features onto
    /// the current tensor (UNet skip connection).
    PopConcat,
    /// Pop the most recent saved tensor and add it to the current features,
    /// optionally through a 1x1x1 projection convolution first (residual
    /// connection).
    ResidualAdd {
        /// Projection applied to the shortcut when channel counts differ.
        projection: Option<&'m SparseConv3d>,
    },
    /// Work outside the sparse network that only costs time, such as a
    /// detector's dense head: the tensor passes through unchanged, and the
    /// plan walk charges `fraction` of the latency the walk has accrued so
    /// far to `stage`.
    CostSurcharge {
        /// The stage the surcharge lands in.
        stage: Stage,
        /// The surcharge as a fraction of the latency accrued before it.
        fraction: f64,
    },
}

/// Collects the flattened [`LayerOp`] sequence of a module tree.
///
/// Modules append their ops via [`Module::trace`](crate::Module::trace);
/// containers recurse into children so arbitrary nesting flattens into one
/// linear sequence.
#[derive(Debug, Default)]
pub struct Tracer<'m> {
    ops: Vec<LayerOp<'m>>,
}

impl<'m> Tracer<'m> {
    /// Creates an empty tracer.
    pub fn new() -> Tracer<'m> {
        Tracer { ops: Vec::new() }
    }

    /// Appends one op.
    pub fn push(&mut self, op: LayerOp<'m>) {
        self.ops.push(op);
    }

    /// The ops collected so far.
    pub fn ops(&self) -> &[LayerOp<'m>] {
        &self.ops
    }

    /// Consumes the tracer, returning the collected ops.
    pub(crate) fn into_ops(self) -> Vec<LayerOp<'m>> {
        self.ops
    }
}

/// Everything a [`SparseConv3d`] derives from input *geometry* alone,
/// frozen at plan time so `execute` touches only the feature path.
#[derive(Debug, Clone)]
pub(crate) struct ConvPlan {
    /// The cached kernel map and both coordinate lists (kept alive by the
    /// plan even after the context's per-run map cache is cleared).
    pub(crate) cached: Arc<CachedMap>,
    /// Whether the layer reads `cached` coarse to fine: a transposed
    /// convolution shares its encoder's map and keeps none of its own.
    pub(crate) transposed: bool,
    /// The output coordinates: one side of `cached` (the fine side of a
    /// transposed convolution's map, the coarse side otherwise).
    pub(crate) out_coords: Arc<[Coord]>,
    /// Output tensor stride.
    pub(crate) out_stride: i32,
    /// Center-offset index for submanifold identity handling: `Some`
    /// exactly for a submanifold layer.
    pub(crate) center: Option<usize>,
    /// The layer's input / output channels (the cost model reads them).
    pub(crate) c_in: usize,
    pub(crate) c_out: usize,
    /// The layer's grouping strategy (`Context::grouping_for`), which only
    /// the cost model reads: it prices the convolution at this grouping, or
    /// as fetch-on-demand where the configuration's threshold says so.
    pub(crate) grouping: GroupingStrategy,
    /// Panel-major packed per-offset weights: the layer's one copy, packed
    /// at construction and shared by every plan of every stream.
    pub(crate) packed: Arc<Vec<PackedB>>,
    /// Plan-time locality ordering (each offset's output-sorted entries
    /// split at output-chunk boundaries) that the executor streams — built
    /// once per geometry, on the worker pool.
    pub(crate) fused: Arc<FusedOrder>,
    /// The pointwise steps right after this convolution that its executor
    /// runs inside each output block ([`EpilogueSteps`]).
    pub(crate) epilogue: EpilogueSteps,
}

/// Which of the steps right after a convolution fold into its executor:
/// the longest match of `[BatchNorm] [ResidualAdd { projection: None }]
/// [ReLU]`, in that order, is marked at plan time. No step is removed —
/// the plan walk, profiles and delta re-planning see every step — but the
/// convolution's epilogue always runs a marked step's work, its FP32
/// re-run included, so the executor skips the step's own sweep (see
/// [`crate::dataflow`]'s `Epilogue`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EpilogueSteps {
    pub(crate) batch_norm: bool,
    pub(crate) residual: bool,
    pub(crate) relu: bool,
}

impl EpilogueSteps {
    /// Marks what `next` — the ops after a convolution — starts with.
    pub(crate) fn matching(next: &[LayerOp<'_>]) -> EpilogueSteps {
        let mut ops = next.iter().peekable();
        let batch_norm = ops.next_if(|op| matches!(op, LayerOp::BatchNorm(_))).is_some();
        let residual =
            ops.next_if(|op| matches!(op, LayerOp::ResidualAdd { projection: None })).is_some();
        let relu = ops.next_if(|op| matches!(op, LayerOp::Relu(_))).is_some();
        EpilogueSteps { batch_norm, residual, relu }
    }

    /// How many steps the epilogue covers.
    pub(crate) fn len(self) -> usize {
        usize::from(self.batch_norm) + usize::from(self.residual) + usize::from(self.relu)
    }
}

impl ConvPlan {
    /// The map as this layer reads it: the cached map, coarse to fine for a
    /// transposed convolution.
    pub(crate) fn map(&self) -> MapView<'_> {
        MapView::new(&self.cached.map, self.transposed)
    }
}

/// A pooling layer's frozen plan: the shared kernel map plus output
/// geometry.
#[derive(Debug, Clone)]
pub(crate) struct PoolPlan {
    /// The cached kernel map and coordinate lists.
    pub(crate) cached: Arc<CachedMap>,
    /// The output coordinates: the coarse side of `cached`.
    pub(crate) out_coords: Arc<[Coord]>,
    /// Output tensor stride.
    pub(crate) out_stride: i32,
}

/// The frozen state for one [`LayerOp`], index-aligned with the traced op
/// list.
#[derive(Debug, Clone)]
pub(crate) enum StepPlan {
    /// Convolution plan.
    Conv(ConvPlan),
    /// Pooling plan.
    Pool(PoolPlan),
    /// Pointwise op (batch norm / ReLU): nothing geometric to freeze.
    Pointwise,
    /// Global pooling.
    GlobalPool {
        /// The output's coordinates: one origin per distinct input batch,
        /// ascending.
        origins: Arc<[Coord]>,
    },
    /// Stack push.
    Push,
    /// Stack pop + feature concatenation.
    PopConcat,
    /// Residual addition, with the shortcut projection's plan when the
    /// block projects.
    Residual {
        /// Plan for the 1x1x1 projection convolution, if any.
        projection: Option<ConvPlan>,
    },
    /// A cost-only surcharge ([`LayerOp::CostSurcharge`]).
    CostSurcharge {
        /// The stage the surcharge lands in.
        stage: Stage,
        /// The surcharge as a fraction of the latency accrued before it.
        fraction: f64,
    },
}

/// The activation buffers one step writes, as slots of the executing
/// stream's buffer list. Only feature matrices flow through the executor;
/// a step that makes a new one writes it into `out`, and a step that
/// rewrites the flowing one in place first copies it into `copy` when it is
/// the input's features or the value stack still holds it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StepBuffers {
    /// A convolution, pooling, global pooling or concatenation output, or
    /// a residual's projected shortcut.
    pub(crate) out: Option<usize>,
    pub(crate) copy: Option<usize>,
}

/// Activation lifetimes collected by the plan walk: every value a step
/// creates, its length and the steps from its creation to its last read.
#[derive(Debug, Default)]
pub(crate) struct Lifetimes {
    /// `(elements, first step, last step)` per value.
    values: Vec<(usize, usize, usize)>,
}

impl Lifetimes {
    /// A new value of `len` elements written at `step`; returns its id.
    pub(crate) fn create(&mut self, len: usize, step: usize) -> usize {
        self.values.push((len, step, step));
        self.values.len() - 1
    }

    /// Records a read of `value` (`None`: the input's features) at `step`.
    pub(crate) fn touch(&mut self, value: Option<usize>, step: usize) {
        if let Some(v) = value {
            self.values[v].2 = self.values[v].2.max(step);
        }
    }

    /// The buffer slot of every value, and the length of every slot: first
    /// fit in decreasing size order, two values sharing a slot only when
    /// their step ranges are disjoint. A slot is as long as its first (and
    /// largest) value, so the slots together hold little more than the peak
    /// of live activations.
    pub(crate) fn slots(&self) -> (Vec<usize>, Vec<usize>) {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.values[v].0));
        let mut slot_of = vec![0; self.values.len()];
        let mut lens = Vec::new();
        let mut spans: Vec<Vec<(usize, usize)>> = Vec::new();
        for v in order {
            let (len, first, last) = self.values[v];
            let free =
                |taken: &Vec<(usize, usize)>| taken.iter().all(|&(f, l)| last < f || l < first);
            let slot = spans.iter().position(free).unwrap_or_else(|| {
                spans.push(Vec::new());
                lens.push(len);
                spans.len() - 1
            });
            spans[slot].push((first, last));
            slot_of[v] = slot;
        }
        (slot_of, lens)
    }
}

impl StepPlan {
    /// The kernel map the step planned with, if it has one.
    pub(crate) fn cached(&self) -> Option<&Arc<CachedMap>> {
        match self {
            StepPlan::Conv(p) | StepPlan::Residual { projection: Some(p) } => Some(&p.cached),
            StepPlan::Pool(p) => Some(&p.cached),
            _ => None,
        }
    }
}

/// An immutable execution plan: every kernel map, output coordinate list,
/// dataflow decision and activation buffer for one model on one input
/// geometry, keyed by that geometry itself. Its map searches' `Mapping`
/// latencies are returned beside it, for the caller to log.
///
/// Built once by [`CompiledSession::compile`](crate::CompiledSession) and
/// replaced wholesale when the geometry changes — never mutated. A
/// dynamic [`Engine::run`](crate::Engine::run) builds an *ephemeral* plan
/// per traceable module, runs it once and hands it to the
/// run's cost ledger; [`Engine::price`](crate::Engine::price) hands it over
/// without running it.
///
/// Simulated cost is a function of exactly this state, so the plan is
/// also where it is cached: the execute-path timeline of one frame (every
/// stage but `Mapping`, which only planning charges) and the per-layer
/// profiles, walked the first time any stream sharing the plan reads a
/// frame's timeline ([`crate::cost_model`]) and never while frames execute.
#[derive(Debug)]
pub(crate) struct ExecutionPlan {
    /// The plan's input level: the input coordinates it was built for in
    /// ascending order — the list its first map holds, shared — and their
    /// stride. With `rank`, the plan's key.
    pub(crate) input: Arc<[Coord]>,
    /// Each caller row's position in `input`, when the caller's rows were
    /// not ascending (`None`: `input` is the caller's list).
    pub(crate) rank: Option<Box<[u32]>>,
    pub(crate) stride: i32,
    /// The input's channel count.
    pub(crate) channels: usize,
    pub(crate) steps: Vec<StepPlan>,
    /// Index-aligned with `steps`: the layer name of every step that
    /// records a layer profile (convolutions, projections, batch norm,
    /// ReLU).
    pub(crate) names: Vec<Option<String>>,
    /// Index-aligned with `steps`: the buffer slots each step writes.
    pub(crate) buffers: Vec<StepBuffers>,
    /// The element count of every buffer slot (its largest value).
    pub(crate) slot_lens: Vec<usize>,
    /// The plan's execute-path cost, filled on first read.
    pub(crate) cost: OnceLock<Cost>,
}

/// A plan's input level for a frame with coordinates `coords`: the list
/// itself when it is strictly ascending (one pass checks), else the sorted
/// list with each caller row's position in it. Sorting is stable, so
/// duplicate coordinates keep their caller order.
pub(crate) fn input_level(coords: &[Coord]) -> (Arc<[Coord]>, Option<Box<[u32]>>) {
    if coords.windows(2).all(|w| w[0] < w[1]) {
        return (Arc::from(coords), None);
    }
    let mut order: Vec<(Coord, u32)> = coords.iter().copied().zip(0..).collect();
    order.sort_unstable();
    let mut rank = vec![0; coords.len()].into_boxed_slice();
    for (j, &(_, i)) in order.iter().enumerate() {
        rank[i as usize] = j as u32;
    }
    (order.into_iter().map(|(c, _)| c).collect(), Some(rank))
}

impl ExecutionPlan {
    /// Whether a frame with these coordinates at this stride may execute
    /// against the plan: exactly the geometry it was built for, voxel by
    /// voxel and in the caller's order (feature rows pair up with
    /// coordinates by position), each caller row looked up through `rank`.
    pub(crate) fn matches(&self, coords: &[Coord], stride: i32) -> bool {
        let ranked = |rank: &[u32]| {
            rank.len() == coords.len()
                && coords.iter().zip(rank).all(|(c, &r)| self.input[r as usize] == *c)
        };
        self.stride == stride && self.rank.as_deref().map_or_else(|| *self.input == *coords, ranked)
    }

    /// Resident bytes of the plan's frozen geometry state: every step's
    /// kernel maps (CSR entries + bounds), retained coordinate indexes,
    /// coordinate lists, the input's rank array, and locality-order
    /// metadata.
    ///
    /// Steps sharing one [`CachedMap`] (convolution and pooling layers with
    /// the same map key, or a UNet encoder/decoder pair) count it once, and
    /// a level's coordinate list and index count once however many maps
    /// share them.
    pub(crate) fn memory_bytes(&self) -> u64 {
        /// Whether `shared` is seen for the first time, by address.
        fn first_sight<T: ?Sized>(counted: &mut Vec<*const ()>, shared: &Arc<T>) -> bool {
            let ptr = Arc::as_ptr(shared).cast::<()>();
            let first = !counted.contains(&ptr);
            if first {
                counted.push(ptr);
            }
            first
        }
        let mut counted = Vec::new();
        let mut lists = vec![&self.input];
        let mut total = self.rank.as_ref().map_or(0, |r| r.len() as u64 * 4);
        for step in &self.steps {
            // Locality orders always count; the shared cached mapping and
            // coordinate lists only on first sight.
            match step {
                StepPlan::Conv(p) | StepPlan::Residual { projection: Some(p) } => {
                    total += p.fused.memory_bytes();
                }
                StepPlan::GlobalPool { origins } => lists.push(origins),
                _ => {}
            }
            if let Some(cached) = step.cached() {
                lists.extend([&cached.fine, &cached.coarse]);
                if first_sight(&mut counted, cached) {
                    total += cached.map.memory_bytes();
                }
                if first_sight(&mut counted, &cached.index) {
                    total += cached.index.memory_bytes();
                }
            }
        }
        for coords in lists {
            if first_sight(&mut counted, coords) {
                total += std::mem::size_of_val::<[Coord]>(coords) as u64;
            }
        }
        total
    }
}

/// Plan-reuse counters of a [`CompiledSession`](crate::CompiledSession).
///
/// `misses` counts plan builds (the initial compile and every re-plan);
/// `hits` counts executes that reused the frozen plan; `invalidations`
/// counts executes whose input geometry differed from the plan's, forcing a
/// re-plan (or a re-attach to the shared compile-time plan);
/// `plan_bytes` reports the resident footprint
/// ([`ExecutionPlan::memory_bytes`]) of the plan currently in the slot.
///
/// Every plan build is also classified by *how* it was built:
/// `misses == full_replans + delta_patches + delta_fallbacks` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Executes that reused the frozen plan.
    pub hits: u64,
    /// Plan builds (initial compile + re-plans).
    pub misses: u64,
    /// Executes whose geometry differed from the plan's.
    pub invalidations: u64,
    /// Resident bytes of the plan currently in the slot (maps, coordinate
    /// indexes, coordinate lists, the input's rank array, locality
    /// orders).
    pub plan_bytes: u64,
    /// Plan builds that ran the full mapping pipeline from scratch (the
    /// initial compile, re-plans with delta re-planning disabled, and
    /// geometry changes with no prior plan to patch against).
    pub full_replans: u64,
    /// Plan builds served by the incremental delta path: changed voxels
    /// were diffed against the frozen plan and only the affected mapping
    /// structures were patched.
    pub delta_patches: u64,
    /// Plan builds where the delta path was attempted but bailed (churn
    /// above [`DELTA_REPLAN_MAX_CHURN`](crate::DELTA_REPLAN_MAX_CHURN),
    /// unsupported op pattern, duplicate coordinates, ...) and a full
    /// rebuild ran instead.
    pub delta_fallbacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords() -> Vec<Coord> {
        (0..10).map(|i| Coord::new(0, i, i % 3, 1)).collect()
    }

    #[test]
    fn tracer_collects_in_order() {
        let relu = ReLU::new("r");
        let bn = BatchNorm::identity("b", 4);
        let mut t = Tracer::new();
        t.push(LayerOp::Relu(&relu));
        t.push(LayerOp::BatchNorm(&bn));
        t.push(LayerOp::Push);
        assert_eq!(t.ops().len(), 3);
        let ops = t.into_ops();
        assert!(matches!(ops[0], LayerOp::Relu(_)));
        assert!(matches!(ops[1], LayerOp::BatchNorm(_)));
        assert!(matches!(ops[2], LayerOp::Push));
    }

    fn plan(input: Arc<[Coord]>, stride: i32, steps: Vec<StepPlan>) -> ExecutionPlan {
        ExecutionPlan {
            input,
            rank: None,
            stride,
            channels: 4,
            names: vec![None; steps.len()],
            buffers: vec![StepBuffers::default(); steps.len()],
            steps,
            slot_lens: Vec::new(),
            cost: OnceLock::new(),
        }
    }

    #[test]
    fn a_plan_hits_only_its_exact_coordinates_and_stride() {
        let planned = plan(Arc::from(coords()), 2, Vec::new());
        // Equal coordinates in a fresh allocation hit.
        assert!(planned.matches(&coords(), 2));
        assert!(!planned.matches(&coords(), 1), "the same coordinates at another stride");
        let mut moved = coords();
        moved[3].x += 1;
        assert!(!planned.matches(&moved, 2), "one voxel moved, same length");
        let mut permuted = coords();
        permuted.swap(0, 9);
        assert!(!planned.matches(&permuted, 2), "a permutation");
        assert!(!planned.matches(&coords()[..9], 2));
        assert!(plan(Arc::from([]), 1, Vec::new()).matches(&[], 1));
        assert!(!plan(Arc::from([]), 1, Vec::new()).matches(&[], 2));
    }

    #[test]
    fn memory_bytes_counts_a_shared_list_once() {
        use torchsparse_coords::{CoordHashMap, CoordIndex, KernelMap, MappingStats};
        let index =
            |fine: &[Coord]| -> Arc<dyn CoordIndex> { Arc::new(CoordHashMap::build(fine).0) };
        let pool = |fine: &Arc<[Coord]>, coarse: &Arc<[Coord]>, index: &Arc<dyn CoordIndex>| {
            let per_offset = vec![Vec::new(); 8];
            let cached = Arc::new(CachedMap {
                map: KernelMap::from_parts(2, 2, per_offset, MappingStats::default()).unwrap(),
                fine: Arc::clone(fine),
                coarse: Arc::clone(coarse),
                index: Arc::clone(index),
            });
            let out_coords = Arc::clone(&cached.coarse);
            StepPlan::Pool(PoolPlan { cached, out_coords, out_stride: 2 })
        };
        let level: Arc<[Coord]> = Arc::from(coords());
        let coarse: Arc<[Coord]> = Arc::from(&coords()[..4]);
        let level_index = index(&level);
        let (a, b) = (pool(&level, &level, &level_index), pool(&level, &coarse, &level_index));
        let maps: u64 = [&a, &b].iter().map(|s| s.cached().unwrap().map.memory_bytes()).sum();
        let list = |n: usize| (n * std::mem::size_of::<Coord>()) as u64;
        let indexed = level_index.memory_bytes();
        // Two maps and the input key hold `level`, and both maps its index;
        // each counts once.
        let shared = plan(Arc::clone(&level), 1, vec![a.clone(), b]);
        assert_eq!(shared.memory_bytes(), maps + indexed + list(10) + list(4));
        // A second index over the level counts again.
        let reindexed = pool(&level, &coarse, &index(&level));
        let twice = plan(Arc::clone(&level), 1, vec![a.clone(), reindexed]);
        assert_eq!(twice.memory_bytes(), maps + indexed * 2 + list(10) + list(4));
        // So does a second copy of the level.
        let copy: Arc<[Coord]> = Arc::from(coords());
        let copied = plan(Arc::clone(&level), 1, vec![a, pool(&copy, &coarse, &index(&copy))]);
        assert_eq!(copied.memory_bytes(), maps + indexed * 2 + list(10) * 2 + list(4));
    }

    #[test]
    fn stats_default_to_zero() {
        let s = PlanCacheStats::default();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 0, 0));
    }

    #[test]
    fn epilogue_marks_the_longest_foldable_run() {
        let (bn, relu) = (BatchNorm::identity("b", 4), ReLU::new("r"));
        let conv = SparseConv3d::with_random_weights("c", 4, 4, 1, 1, 0);
        let (bn, relu) = (LayerOp::BatchNorm(&bn), LayerOp::Relu(&relu));
        let residual = LayerOp::ResidualAdd { projection: None };
        let projected = LayerOp::ResidualAdd { projection: Some(&conv) };
        let marks = |ops: &[LayerOp<'_>]| {
            let e = EpilogueSteps::matching(ops);
            ((e.batch_norm, e.residual, e.relu), e.len())
        };
        assert_eq!(marks(&[bn, residual, relu, relu]), ((true, true, true), 3));
        assert_eq!(marks(&[bn, relu, residual]), ((true, false, true), 2));
        assert_eq!(marks(&[relu, bn]), ((false, false, true), 1));
        assert_eq!(marks(&[bn, projected, relu]), ((true, false, false), 1));
        assert_eq!(marks(&[LayerOp::Push, bn]), ((false, false, false), 0));
        assert_eq!(marks(&[]), ((false, false, false), 0));
    }

    #[test]
    fn buffer_slots_share_only_disjoint_lifetimes() {
        // (elements, first step, last step) of five values.
        let values = [(10, 0, 2), (40, 1, 3), (30, 3, 5), (10, 4, 4), (40, 6, 7)];
        let mut life = Lifetimes::default();
        for &(len, first, last) in &values {
            let v = life.create(len, first);
            life.touch(Some(v), last);
        }
        life.touch(None, 9);
        let (slot, lens) = life.slots();
        for (a, &(_, fa, la)) in values.iter().enumerate() {
            for (b, &(_, fb, lb)) in values.iter().enumerate().skip(a + 1) {
                if fa <= lb && fb <= la {
                    assert_ne!(slot[a], slot[b], "values {a} and {b} overlap");
                }
            }
            assert!(lens[slot[a]] >= values[a].0, "slot {} holds value {a}", slot[a]);
        }
        // Largest first: the 40s share slot 0, the 30 opens slot 1, and each
        // 10 fits beside whichever it does not overlap.
        assert_eq!(slot, [1, 0, 1, 0, 0]);
        assert_eq!(lens, [40, 30]);
    }
}
