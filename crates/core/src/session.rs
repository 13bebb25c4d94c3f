//! Compiled inference sessions: plan once, execute per frame.
//!
//! Streaming workloads (LiDAR at 10-20 Hz) feed the network frames whose
//! *geometry* is often identical — multi-frame fused inputs reuse the same
//! voxel grid, and benchmark replay repeats one scene exactly. Dynamic
//! execution still rebuilds every kernel map and re-plans matmul grouping
//! per frame. A [`CompiledSession`] splits that work: [`Engine::compile`]
//! traces the model into a flat [`LayerOp`] sequence and runs every
//! geometric derivation once, freezing the results into an immutable
//! [`ExecutionPlan`] keyed by the input's [`geometry_fingerprint`];
//! [`CompiledSession::execute`] then runs only the feature path. A frame
//! with a different fingerprint transparently re-plans (counted in
//! [`PlanCacheStats`]).
//!
//! Neither half runs the simulated-GPU cost model: a frame logs its
//! re-plan's `Mapping` latencies plus one charge naming the plan it
//! executed, and the first *read* of [`CompiledSession::last_timeline`]
//! (or the layer profiles) resolves them — the plan's execute-path cost is
//! walked at most once per plan, by whichever stream first asks, and cached
//! on the shared [`ExecutionPlan`] ([`crate::cost_model`]). A session
//! nobody reads — `serve()`, a benchmark's timed window — simulates nothing.
//!
//! Planning also freezes each convolution's weights in the SIMD
//! microkernel's panel-major packed layout (shared with the layer's lazy
//! pack cache), so steady-state frames stream pre-packed GEMM panels and
//! never touch row-major weights.
//!
//! For multi-stream serving the session splits along the share/own line:
//! [`CompiledModel`] is the frozen, `Sync` half (traced ops + compile-time
//! plan behind `Arc`) that N streams execute against concurrently, while
//! [`StreamState`] is one stream's private half (engine context with its
//! degradation report, plus that stream's plan slot and cache stats).
//! [`CompiledSession`] remains the single-stream composition of the two;
//! [`CompiledSession::into_parts`] opens it up.

use crate::config::OptimizationConfig;
use crate::context::{CachedMap, Context, MapKey};
use crate::cost_model::Charge;
use crate::dataflow::Epilogue;
use crate::delta::{Level, Patch};
use crate::engine::Engine;
use crate::faults::DegradationReport;
use crate::module::Module;
use crate::plan::{
    geometry_fingerprint, EpilogueSteps, ExecutionPlan, LayerOp, Lifetimes, PlanCacheStats,
    StepBuffers, StepPlan, Tracer,
};
use crate::sparse_tensor::concat_channels;
use crate::{CoreError, GlobalPool, SparseTensor};
use std::mem::take;
use std::sync::{Arc, OnceLock};
use torchsparse_coords::Coord;
use torchsparse_gpusim::{DeviceProfile, Micros, Stage, Timeline};
use torchsparse_tensor::Matrix;

/// The geometry cursor threaded through planning: what the tensor flowing
/// through the network looks like after each op, without any features.
/// Coordinates are borrowed — from the input, or from the cached map of
/// the step that produced them — never copied.
#[derive(Clone)]
struct Geometry<'a> {
    coords: Coords<'a>,
    stride: i32,
    channels: usize,
    /// The planned activation holding the features (`None`: the input's).
    value: Option<usize>,
    /// The coordinates' delta against the old plan when a re-plan patches
    /// maps (`None`: not tracked).
    level: Option<Level>,
}

/// Where a [`Geometry`]'s coordinates live.
#[derive(Debug, Clone)]
enum Coords<'a> {
    Input(&'a [Coord]),
    /// One side of a planned step's map (`fine` or coarse).
    Map {
        cached: Arc<CachedMap>,
        fine: bool,
    },
    /// Global pooling's output: one origin per batch.
    Batches(Vec<Coord>),
}

impl Coords<'_> {
    fn get(&self) -> &[Coord] {
        match self {
            Coords::Input(coords) => coords,
            Coords::Map { cached, fine: true } => &cached.fine_coords,
            Coords::Map { cached, fine: false } => &cached.coarse_coords,
            Coords::Batches(coords) => coords,
        }
    }
}

/// A model compiled against one input geometry.
///
/// Created by [`Engine::compile`]; owns the engine for its lifetime and
/// borrows the model's layers (`'m`).
///
/// # Example
///
/// ```
/// use torchsparse_core::{Engine, EnginePreset, ReLU, Sequential, SparseConv3d, SparseTensor};
/// use torchsparse_coords::Coord;
/// use torchsparse_gpusim::DeviceProfile;
/// use torchsparse_tensor::Matrix;
///
/// # fn main() -> Result<(), torchsparse_core::CoreError> {
/// let model = Sequential::new("net")
///     .push(SparseConv3d::with_random_weights("conv", 2, 4, 3, 1, 7))
///     .push(ReLU::new("act"));
/// let frame = SparseTensor::new(
///     vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)],
///     Matrix::filled(2, 2, 1.0),
/// )?;
/// let engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_3090());
/// let mut session = engine.compile(&model, &frame)?;
/// let y = session.execute(&frame)?;        // feature path only
/// assert_eq!(y.channels(), 4);
/// assert_eq!(session.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
pub struct CompiledSession<'m> {
    shared: CompiledModel<'m>,
    stream: StreamState,
}

/// The shared, immutable half of a compiled model: the traced op sequence
/// plus the plan frozen at compile time, behind [`Arc`].
///
/// `CompiledModel` is `Sync` — it holds no interior mutability beyond the
/// layers' `OnceLock` pack caches — so N serving streams execute against
/// one instance concurrently, each bringing its own [`StreamState`]. A
/// stream whose frame geometry matches the compile-time fingerprint
/// re-attaches to the shared plan without rebuilding; a stream with
/// different geometry re-plans into its *own* slot, never touching the
/// shared base plan or any other stream.
pub struct CompiledModel<'m> {
    ops: Vec<LayerOp<'m>>,
    base_plan: Arc<ExecutionPlan>,
    config: OptimizationConfig,
    device: DeviceProfile,
    /// Outcome of the compile-time grouping choice, when autotuning ran.
    /// Fresh streams inherit its per-layer groupings so their private
    /// re-plans keep the tuned selections.
    tuning: Option<crate::tuning::TuningReport>,
}

/// One stream's private execution state: its engine (context with the
/// fault injector and degradation report), its plan slot, and its
/// plan-cache counters.
///
/// Created by [`CompiledModel::new_stream`] — and rebuilt the same way
/// when a serving supervisor quarantines a poisoned stream: the state is
/// discarded wholesale and reconstructed from the shared plan, so nothing
/// a panicking request touched survives into the next frame.
pub struct StreamState {
    engine: Engine,
    plan: Option<Arc<ExecutionPlan>>,
    stats: PlanCacheStats,
    planning: Timeline,
    planning_degradation: DegradationReport,
}

impl<'m> CompiledModel<'m> {
    /// Creates a fresh stream against this model: a new engine with the
    /// model's configuration and device, its plan slot pre-attached to the
    /// shared compile-time plan.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the stored configuration fails
    /// [`Context::validate`] (cannot happen for configurations that came
    /// through [`Engine::compile`], which validated at construction).
    pub fn new_stream(&self) -> Result<StreamState, CoreError> {
        let mut engine = Engine::try_with_config(self.config.clone(), self.device.clone())?;
        engine.context_mut().frozen_index = true;
        if let Some(report) = &self.tuning {
            engine.context_mut().groupings = report.policies.clone();
        }
        Ok(StreamState {
            engine,
            plan: Some(self.base_plan.clone()),
            stats: PlanCacheStats {
                plan_bytes: self.base_plan.memory_bytes(),
                ..PlanCacheStats::default()
            },
            planning: Timeline::new(),
            planning_degradation: DegradationReport::new(),
        })
    }

    /// Runs one frame of `stream` through this model: only feature-path
    /// work executes when the frame's geometry fingerprint matches the
    /// stream's plan slot. On a mismatch the stream first re-attaches to
    /// the shared compile-time plan (if the fingerprint matches it) or
    /// re-plans into its own slot — other streams' slots and the shared
    /// plan are never written.
    ///
    /// # Errors
    ///
    /// Validation failures, [`CoreError::DeadlineExceeded`] when the
    /// context's deadline expires at a stage boundary, plus any
    /// [`CoreError`] from the layers.
    pub fn execute_on(
        &self,
        stream: &mut StreamState,
        input: &SparseTensor,
    ) -> Result<SparseTensor, CoreError> {
        let ctx = stream.engine.context_mut();
        let tensor = &*ctx.begin_frame(input)?;
        let fingerprint = geometry_fingerprint(tensor.coords(), tensor.stride());
        let matches = |p: &Arc<ExecutionPlan>| p.matches(fingerprint, tensor.len());
        // A hit keeps the slot's plan, so its footprint is already counted.
        let hit = stream.plan.as_ref().is_some_and(matches);
        if hit {
            stream.stats.hits += 1;
        } else {
            if stream.plan.is_some() {
                stream.stats.invalidations += 1;
            }
            if matches(&self.base_plan) {
                // The geometry returned to the compile-time plan: re-attach
                // to the shared Arc instead of rebuilding. Counted as a hit
                // (misses counts plan *builds*).
                stream.stats.hits += 1;
                stream.plan = Some(self.base_plan.clone());
            } else {
                // Geometry changed: rebuild the plan into this stream's
                // slot — incrementally patched from the old plan when the
                // delta path applies, from scratch otherwise. The re-plan's
                // `Mapping` latencies land on this frame's ledger, exactly
                // like a dynamic run's.
                let old = stream.plan.clone();
                let plan = replan_into_slot(
                    &self.ops,
                    tensor,
                    fingerprint,
                    old.as_deref(),
                    &mut stream.stats,
                    ctx,
                )?;
                stream.planning = ctx.timeline().clone();
                stream.planning_degradation = ctx.degradation.clone();
                stream.plan = Some(Arc::new(plan));
            }
        }
        let plan = match &stream.plan {
            Some(p) => p.clone(),
            None => self.base_plan.clone(),
        };
        if !hit {
            stream.stats.plan_bytes = plan.memory_bytes();
        }
        let ctx = stream.engine.context_mut();
        let (out, reruns) = run_steps(&self.ops, &plan, tensor, ctx)?;
        // The frame's simulated cost, for whoever reads it: the plan's
        // execute path on top of whatever `Mapping` this frame's re-plan
        // logged.
        ctx.defer(Charge::plan(plan, reruns, ctx.profile_layers));
        Ok(out)
    }

    /// The plan frozen at compile time, shared by every stream whose
    /// geometry matches it.
    pub fn base_plan(&self) -> &Arc<ExecutionPlan> {
        &self.base_plan
    }

    /// Number of traced layer ops.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The optimization configuration new streams are built with.
    pub fn config(&self) -> &OptimizationConfig {
        &self.config
    }

    /// The device profile new streams are built with.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The compile-time tuning report: the per-layer groupings. `None` when
    /// autotuning was disabled at compile time.
    pub fn tuning_report(&self) -> Option<&crate::tuning::TuningReport> {
        self.tuning.as_ref()
    }
}

impl std::fmt::Debug for CompiledModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModel")
            .field("ops", &self.ops.len())
            .field("fingerprint", &self.base_plan.fingerprint)
            .finish()
    }
}

impl StreamState {
    /// The stream's engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (e.g. to arm faults or install a deadline
    /// between frames).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Plan-reuse counters for this stream.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// The plan currently in this stream's slot, if any.
    pub fn plan(&self) -> Option<&ExecutionPlan> {
        self.plan.as_deref()
    }

    /// Per-stage cost of this stream's most recent private re-plan (zero
    /// while the stream still rides the shared compile-time plan).
    pub fn planning_timeline(&self) -> &Timeline {
        &self.planning
    }

    /// Degradation decisions of this stream's most recent private re-plan.
    pub fn planning_degradation(&self) -> &DegradationReport {
        &self.planning_degradation
    }

    /// Per-stage simulated latency of the stream's last executed frame,
    /// resolved on first read ([`Engine::last_timeline`]).
    pub fn last_timeline(&self) -> &Timeline {
        self.engine.last_timeline()
    }

    /// Total simulated latency of the stream's last executed frame.
    pub fn last_latency(&self) -> Micros {
        self.engine.last_latency()
    }

    /// Degradation decisions of the stream's last executed frame.
    pub fn degradation_report(&self) -> &DegradationReport {
        self.engine.degradation_report()
    }
}

impl std::fmt::Debug for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamState")
            .field("fingerprint", &self.plan.as_ref().map(|p| p.fingerprint))
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'m> CompiledSession<'m> {
    /// Traces `model`, plans every layer against `input`'s geometry, and
    /// freezes the result. Called via [`Engine::compile`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Untraceable`] for models without a `trace`
    /// implementation, plus validation and mapping errors from planning.
    pub(crate) fn compile<M: Module + ?Sized>(
        mut engine: Engine,
        model: &'m M,
        input: &SparseTensor,
    ) -> Result<CompiledSession<'m>, CoreError> {
        let ops = trace(model)?;
        let ctx = engine.context_mut();
        // Coordinate sets are frozen at plan time from here on: this
        // stream's map searches (the compile below, private re-plans) build
        // the succinct MPHF index, as every `new_stream` will.
        ctx.frozen_index = true;
        let tensor = &*ctx.begin_frame(input)?;
        let fingerprint = geometry_fingerprint(tensor.coords(), tensor.stride());
        let mut plan = build_plan(&ops, tensor, fingerprint, None, ctx)?;
        defer_mapping(&plan, ctx);
        // Grouping is chosen against the frozen plan by the simulated
        // prior, re-grouping its convolutions in place.
        let tuning = if ctx.config.autotune_policies {
            Some(crate::tuning::autotune_plan(&ops, &mut plan, ctx))
        } else {
            None
        };
        let planning = ctx.timeline().clone();
        let planning_degradation = ctx.degradation.clone();
        let config = ctx.config.clone();
        let device = ctx.device.clone();

        let base_plan = Arc::new(plan);
        Ok(CompiledSession {
            shared: CompiledModel { ops, base_plan: base_plan.clone(), config, device, tuning },
            stream: StreamState {
                engine,
                stats: PlanCacheStats {
                    misses: 1,
                    full_replans: 1,
                    plan_bytes: base_plan.memory_bytes(),
                    ..PlanCacheStats::default()
                },
                plan: Some(base_plan),
                planning,
                planning_degradation,
            },
        })
    }

    /// Runs one frame through the frozen plan: only feature-path work
    /// (gather/matmul/scatter, reductions, pointwise sweeps) executes.
    ///
    /// If the frame's geometry fingerprint mismatches the plan, the session
    /// transparently re-plans against the new geometry first — that frame
    /// pays the mapping cost again and the miss is counted in
    /// [`CompiledSession::stats`].
    ///
    /// # Errors
    ///
    /// Validation failures, plus any [`CoreError`] from the layers.
    pub fn execute(&mut self, input: &SparseTensor) -> Result<SparseTensor, CoreError> {
        self.shared.execute_on(&mut self.stream, input)
    }

    /// Splits the session into its shared and per-stream halves — the
    /// entry point for multi-stream serving: share the [`CompiledModel`],
    /// then [`CompiledModel::new_stream`] once per additional stream.
    pub fn into_parts(self) -> (CompiledModel<'m>, StreamState) {
        (self.shared, self.stream)
    }

    /// The shared half: traced ops plus the compile-time plan.
    pub fn model(&self) -> &CompiledModel<'m> {
        &self.shared
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        self.stream.engine()
    }

    /// Mutable engine access (e.g. to arm faults between frames).
    pub fn engine_mut(&mut self) -> &mut Engine {
        self.stream.engine_mut()
    }

    /// Plan-reuse counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stream.stats()
    }

    /// The frozen execution plan currently in force.
    pub fn plan(&self) -> &ExecutionPlan {
        match self.stream.plan() {
            Some(p) => p,
            None => &self.shared.base_plan,
        }
    }

    /// Number of traced layer ops.
    pub fn num_ops(&self) -> usize {
        self.shared.num_ops()
    }

    /// Per-stage cost of the most recent planning pass (the compile, or the
    /// last re-plan). This is the work [`CompiledSession::execute`] no
    /// longer pays on plan hits.
    pub fn planning_timeline(&self) -> &Timeline {
        self.stream.planning_timeline()
    }

    /// Degradation decisions taken during the most recent planning pass
    /// (e.g. an injected grid-table fault degrading the mapping strategy).
    pub fn planning_degradation(&self) -> &DegradationReport {
        self.stream.planning_degradation()
    }

    /// Per-stage simulated latency of the last
    /// [`CompiledSession::execute`]. Executing simulates nothing; the first
    /// read walks the plan through the cost model (once per plan, shared by
    /// every stream on it) and adds the frame's own `Mapping` log.
    pub fn last_timeline(&self) -> &Timeline {
        self.stream.last_timeline()
    }

    /// Total simulated latency of the last [`CompiledSession::execute`].
    pub fn last_latency(&self) -> Micros {
        self.stream.last_latency()
    }

    /// Degradation decisions of the last [`CompiledSession::execute`].
    pub fn degradation_report(&self) -> &DegradationReport {
        self.stream.degradation_report()
    }

    /// The compile-time tuning report, when autotuning ran.
    pub fn tuning_report(&self) -> Option<&crate::tuning::TuningReport> {
        self.shared.tuning_report()
    }
}

impl std::fmt::Debug for CompiledSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSession")
            .field("ops", &self.shared.ops.len())
            .field("fingerprint", &self.plan().fingerprint)
            .field("stats", &self.stream.stats)
            .finish()
    }
}

/// Rebuilds a stream's plan for a frame whose geometry fingerprint
/// mismatched its slot.
///
/// The fingerprint is computed exactly once per frame — in
/// [`CompiledModel::execute_on`] (or [`CompiledSession::compile`]) — and
/// threaded through to here and into the frozen [`ExecutionPlan`];
/// re-hashing the coordinate list on this path would double the fingerprint
/// cost of every invalidated frame, so callers must pass the value they
/// already computed for the slot comparison.
///
/// When delta re-planning is enabled and the stream holds a previous plan,
/// [`Patch::new`] decides up front whether that plan can be patched for the
/// new geometry, and [`build_plan`] below then patches each of its maps
/// just before the step that plans with it. Every build is classified into
/// exactly one of the [`PlanCacheStats`] partitions — `delta_patches` when
/// patched, `delta_fallbacks` on a conservative bail, `full_replans`
/// otherwise — keeping `misses == full_replans + delta_patches +
/// delta_fallbacks`. Whichever way it was built, the plan's map work is
/// logged on this frame and its execute-path cost is left for the first
/// reader to walk.
fn replan_into_slot(
    ops: &[LayerOp<'_>],
    input: &SparseTensor,
    fingerprint: u64,
    old_plan: Option<&ExecutionPlan>,
    stats: &mut PlanCacheStats,
    ctx: &mut Context,
) -> Result<ExecutionPlan, CoreError> {
    stats.misses += 1;
    let mut patch = None;
    match old_plan {
        Some(old) if ctx.config.delta_replan => {
            ctx.check_deadline("mapping")?;
            let symmetric = ctx.config.symmetric_map_search;
            patch = Patch::new(ops, old, input.coords(), symmetric);
            match patch {
                Some(_) => stats.delta_patches += 1,
                None => stats.delta_fallbacks += 1,
            }
        }
        _ => stats.full_replans += 1,
    }
    let plan = build_plan(ops, input, fingerprint, patch.as_mut(), ctx)?;
    if let Some(patch) = &patch {
        patch.defer_cost(ctx);
    }
    defer_mapping(&plan, ctx);
    Ok(plan)
}

/// The flattened op list of `model`.
fn trace<'m, M: Module + ?Sized>(model: &'m M) -> Result<Vec<LayerOp<'m>>, CoreError> {
    let mut tracer = Tracer::new();
    model.trace(&mut tracer)?;
    Ok(tracer.into_ops())
}

/// [`Module::forward`]'s provided body: traces `model`, plans the ops
/// against `input`'s geometry (an ephemeral plan), executes it with
/// [`run_steps`] — the executor of every compiled frame — and logs the plan
/// as one charge whose cost, map searches included, is walked when the
/// run's timeline is read.
pub(crate) fn run_ephemeral<M: Module + ?Sized>(
    model: &M,
    input: &SparseTensor,
    ctx: &mut Context,
) -> Result<SparseTensor, CoreError> {
    let ops = trace(model)?;
    let plan = build_plan(&ops, input, 0, None, ctx)?;
    let (out, reruns) = run_steps(&ops, &plan, input, ctx)?;
    ctx.defer(Charge::ephemeral_plan(plan, reruns, ctx.profile_layers));
    Ok(out)
}

/// [`Engine::price`]'s body: [`run_ephemeral`] without the execution. The
/// plan is logged as if it ran with no FP16 overflow re-runs, which is what
/// its simulated cost depends on — geometry, never feature values.
pub(crate) fn price_ephemeral<M: Module + ?Sized>(
    model: &M,
    input: &SparseTensor,
    ctx: &mut Context,
) -> Result<(), CoreError> {
    let plan = build_plan(&trace(model)?, input, 0, None, ctx)?;
    ctx.defer(Charge::ephemeral_plan(plan, Vec::new(), ctx.profile_layers));
    Ok(())
}

/// Logs a compiled plan's map searches on the frame that built it, in step
/// order. Its cached cost holds only the execute path every hit replays.
fn defer_mapping(plan: &ExecutionPlan, ctx: &mut Context) {
    for latency in plan.steps.iter().filter_map(StepPlan::mapping) {
        ctx.defer(Charge::latency(Stage::Mapping, latency));
    }
}

/// Plans every op against the geometry cursor, producing the index-aligned
/// [`StepPlan`] list. Only geometric work happens here (map building,
/// output coordinate computation, grouping, buffer slots); features are
/// never read and nothing is charged — each step records the `Mapping`
/// latency of its own map search. With a `patch` source, each map a step
/// plans with is the old plan's, patched ([`patch_map`]).
fn build_plan(
    ops: &[LayerOp<'_>],
    input: &SparseTensor,
    fingerprint: u64,
    mut patch: Option<&mut Patch<'_>>,
    ctx: &mut Context,
) -> Result<ExecutionPlan, CoreError> {
    let mut cur = Geometry {
        coords: Coords::Input(input.coords()),
        stride: input.stride(),
        channels: input.channels(),
        value: None,
        level: patch.as_ref().map(|p| p.root.clone()),
    };
    let mut stack: Vec<Geometry<'_>> = Vec::new();
    let mut steps = Vec::with_capacity(ops.len());
    // The layer name of every step that records a layer profile.
    let mut names = Vec::with_capacity(ops.len());
    // Per step, the values it writes (slots once the walk has ended).
    let mut buffers = Vec::with_capacity(ops.len());
    let mut life = Lifetimes::default();
    for (i, op) in ops.iter().enumerate() {
        // A cost-only step has no work, so no stage boundary either.
        if !matches!(op, LayerOp::CostSurcharge { .. }) {
            ctx.check_deadline("mapping")?;
        }
        names.push(match op {
            LayerOp::Conv(conv) | LayerOp::ResidualAdd { projection: Some(conv) } => {
                Some(conv.layer_name().to_owned())
            }
            LayerOp::BatchNorm(bn) => Some(bn.name().to_owned()),
            LayerOp::Relu(relu) => Some(relu.name().to_owned()),
            _ => None,
        });
        let mut written = StepBuffers::default();
        let step = match op {
            LayerOp::Conv(conv) => {
                let key = conv.map_key(cur.stride);
                let level = patch_map(&mut patch, i, key, conv.transposed(), &mut cur, ctx);
                let p = conv.plan(cur.coords.get(), cur.stride, cur.channels, ctx)?;
                let coords = Coords::Map { cached: Arc::clone(&p.cached), fine: p.use_fine };
                written.out = Some(cur.advance(coords, p.out_stride, conv.c_out(), &mut life, i));
                cur.level = level;
                StepPlan::Conv(p)
            }
            LayerOp::Pool(pool) => {
                let key = pool.map_key(cur.stride);
                let level = patch_map(&mut patch, i, key, false, &mut cur, ctx);
                let p = pool.plan(cur.coords.get(), cur.stride, ctx)?;
                let coords = Coords::Map { cached: Arc::clone(&p.cached), fine: p.use_fine };
                written.out = Some(cur.advance(coords, p.out_stride, cur.channels, &mut life, i));
                cur.level = level;
                StepPlan::Pool(p)
            }
            LayerOp::BatchNorm(bn) => {
                if cur.channels != bn.channels() {
                    return Err(CoreError::ChannelMismatch {
                        expected: bn.channels(),
                        actual: cur.channels,
                    });
                }
                written.copy = cur.rewritten(&stack, None, &mut life, i);
                StepPlan::Pointwise
            }
            LayerOp::Relu(_) => {
                written.copy = cur.rewritten(&stack, None, &mut life, i);
                StepPlan::Pointwise
            }
            LayerOp::GlobalPool(_) => {
                if cur.coords.get().is_empty() {
                    return Err(CoreError::EmptyInput);
                }
                let origins = GlobalPool::origins(cur.coords.get());
                let coords = Coords::Batches(origins.clone());
                written.out = Some(cur.advance(coords, cur.stride, cur.channels, &mut life, i));
                cur.level = None;
                StepPlan::GlobalPool { origins }
            }
            LayerOp::Push => {
                stack.push(cur.clone());
                StepPlan::Push
            }
            LayerOp::PopConcat => {
                let saved = stack
                    .pop()
                    .ok_or(CoreError::PlanMismatch { reason: "concat pops an empty stack" })?;
                same_coords(cur.coords.get(), saved.coords.get())?;
                life.touch(saved.value, i);
                let (coords, channels) = (cur.coords.clone(), cur.channels + saved.channels);
                written.out = Some(cur.advance(coords, cur.stride, channels, &mut life, i));
                StepPlan::PopConcat
            }
            LayerOp::ResidualAdd { projection } => {
                let mut saved = stack
                    .pop()
                    .ok_or(CoreError::PlanMismatch { reason: "residual pops an empty stack" })?;
                life.touch(saved.value, i);
                let (proj, channels, shortcut) = match projection {
                    Some(conv) => {
                        // The shortcut's geometry is the saved one; the
                        // residual output keeps the current one.
                        let key = conv.map_key(saved.stride);
                        patch_map(&mut patch, i, key, conv.transposed(), &mut saved, ctx);
                        let p = conv.plan(saved.coords.get(), saved.stride, saved.channels, ctx)?;
                        same_coords(cur.coords.get(), p.out_coords())?;
                        written.out = Some(life.create(p.out_coords().len() * conv.c_out(), i));
                        (Some(p), conv.c_out(), written.out)
                    }
                    None => {
                        same_coords(cur.coords.get(), saved.coords.get())?;
                        (None, saved.channels, saved.value)
                    }
                };
                if channels != cur.channels {
                    return Err(CoreError::ChannelMismatch {
                        expected: cur.channels,
                        actual: channels,
                    });
                }
                written.copy = cur.rewritten(&stack, shortcut, &mut life, i);
                StepPlan::Residual { projection: proj }
            }
            &LayerOp::CostSurcharge { stage, fraction } => {
                StepPlan::CostSurcharge { stage, fraction }
            }
        };
        steps.push(step);
        buffers.push(written);
    }
    // Mark the pointwise steps each convolution's executor runs in place.
    for (i, step) in steps.iter_mut().enumerate() {
        if let StepPlan::Conv(p) = step {
            p.epilogue = EpilogueSteps::matching(&ops[i + 1..]);
        }
    }
    // The output, and anything left on the stack, lives to the end.
    for g in stack.iter().chain([&cur]) {
        life.touch(g.value, ops.len());
    }
    let (slot, slot_lens) = life.slots();
    for b in &mut buffers {
        b.out = b.out.map(|v| slot[v]);
        b.copy = b.copy.map(|v| slot[v]);
    }
    Ok(ExecutionPlan {
        fingerprint,
        input_shape: (input.len(), input.channels()),
        steps,
        names,
        buffers,
        slot_lens,
        cost: OnceLock::new(),
    })
}

impl<'a> Geometry<'a> {
    /// Moves the cursor to the new matrix step `i` writes from the current
    /// one; returns the new value.
    fn advance(
        &mut self,
        coords: Coords<'a>,
        stride: i32,
        channels: usize,
        life: &mut Lifetimes,
        i: usize,
    ) -> usize {
        life.touch(self.value, i);
        let value = life.create(coords.get().len() * channels, i);
        (self.coords, self.stride, self.channels, self.value) =
            (coords, stride, channels, Some(value));
        value
    }

    /// Plans an in-place rewrite of the flowing matrix at step `i`, which
    /// also reads `shortcut`: returns the value it must first be copied to
    /// when it is the input's features, the value stack still holds it, or
    /// it is the shortcut itself.
    fn rewritten(
        &mut self,
        stack: &[Geometry<'_>],
        shortcut: Option<usize>,
        life: &mut Lifetimes,
        i: usize,
    ) -> Option<usize> {
        life.touch(self.value, i);
        let shared = self.value.is_none()
            || self.value == shortcut
            || stack.iter().any(|saved| saved.value == self.value);
        if !shared {
            return None;
        }
        self.value = Some(life.create(self.coords.get().len() * self.channels, i));
        self.value
    }
}

/// Before step `i` plans its map `key` from the geometry `from`: with a
/// patch source, patches the old plan's map into the context's map cache —
/// a transposed convolution only re-enters the fine level of the map it
/// inverts. Returns the level of the step's output.
fn patch_map(
    patch: &mut Option<&mut Patch<'_>>,
    i: usize,
    key: MapKey,
    transposed: bool,
    from: &mut Geometry<'_>,
    ctx: &mut Context,
) -> Option<Level> {
    let (patch, level) = (patch.as_deref_mut()?, from.level.as_mut()?);
    if transposed {
        patch.fine_level(key)
    } else {
        patch.map(i, key, from.coords.get(), level, ctx)
    }
}

/// Checks that a join's two sides are one point set: feature rows pair up
/// by position, so concatenation and residual addition need the same
/// coordinate list.
fn same_coords(cur: &[Coord], saved: &[Coord]) -> Result<(), CoreError> {
    if cur == saved {
        Ok(())
    } else {
        Err(CoreError::LengthMismatch { coords: cur.len(), feats: saved.len() })
    }
}

/// Runs the feature-path numerics of every op against its frozen step
/// plan — no cost-model code runs here. Returns the output and the indices
/// of the steps whose convolution overflowed its quantized storage and ran
/// a second time in FP32 (the only way a frame's simulated cost can differ
/// from the plan's).
///
/// Only feature matrices flow: coordinates are the input's or the plan's,
/// borrowed step by step and copied once, into the output. Every matrix a
/// step writes lives in the buffer slot the plan assigned it, among the
/// context's activation buffers, so a frame on a geometry seen before
/// allocates no feature buffer but its output's. `Push` shares the current
/// matrix with the value stack.
fn run_steps(
    ops: &[LayerOp<'_>],
    plan: &ExecutionPlan,
    input: &SparseTensor,
    ctx: &mut Context,
) -> Result<(SparseTensor, Vec<usize>), CoreError> {
    if ops.len() != plan.steps.len() || ops.len() != plan.buffers.len() {
        return Err(CoreError::PlanMismatch { reason: "op/step count differs" });
    }
    let mut slots = take(&mut ctx.activations);
    // Each buffer is allocated once, at its slot's full length: growing it
    // value by value would leave the shorter allocations behind as holes.
    slots.resize_with(slots.len().max(plan.slot_lens.len()), Matrix::default);
    for (m, &len) in slots.iter_mut().zip(&plan.slot_lens) {
        if m.capacity() < len {
            *m = Matrix::zeros(len, 1);
        }
    }
    let mut acts = Activations { input: input.feats(), slots };
    let out = run_steps_on(ops, plan, input, &mut acts, ctx);
    ctx.activations = acts.slots;
    out
}

/// [`run_steps`] with the activation buffers taken out of the context.
fn run_steps_on(
    ops: &[LayerOp<'_>],
    plan: &ExecutionPlan,
    input: &SparseTensor,
    acts: &mut Activations<'_>,
    ctx: &mut Context,
) -> Result<(SparseTensor, Vec<usize>), CoreError> {
    let (mut coords, mut stride) = (input.coords(), input.stride());
    // The slot of the flowing matrix; `None` while it is the input's.
    let mut cur: Option<usize> = None;
    let mut stack: Vec<Option<usize>> = Vec::new();
    let mut reruns = Vec::new();
    // Steps ahead whose work a convolution's fused epilogue already did.
    let mut fused_ahead = 0;
    for (i, ((op, step), written)) in ops.iter().zip(&plan.steps).zip(&plan.buffers).enumerate() {
        // Deadline boundary: the gather-GEMM-scatter stage covers
        // convolution steps (including residual projections); everything
        // else — pointwise sweeps, pooling, concat/residual joins — is
        // epilogue work. A fused step still checks its boundary, in order;
        // a cost-only step is identity, with no boundary.
        let stage = match op {
            LayerOp::Conv(_) | LayerOp::ResidualAdd { projection: Some(_) } => {
                "gather-gemm-scatter"
            }
            LayerOp::CostSurcharge { .. } => continue,
            _ => "epilogue",
        };
        ctx.check_deadline(stage)?;
        if fused_ahead > 0 {
            fused_ahead -= 1;
            if let LayerOp::ResidualAdd { .. } = op {
                pop(&mut stack)?;
            }
            continue;
        }
        let out = written.out.ok_or(CoreError::PlanMismatch { reason: "step writes no buffer" });
        match (op, step) {
            (LayerOp::Conv(conv), StepPlan::Conv(p)) => {
                let slot = out?;
                let batch_norm = match ops.get(i + 1) {
                    Some(LayerOp::BatchNorm(bn)) if p.epilogue.batch_norm => Some(bn.scale_shift()),
                    _ => None,
                };
                let shortcut = stack.last().filter(|_| p.epilogue.residual);
                let run = acts.write(slot, |m, acts| {
                    let epilogue = Epilogue {
                        batch_norm,
                        shortcut: shortcut.map(|&v| acts.get(v)),
                        relu: p.epilogue.relu,
                        ..Epilogue::default()
                    };
                    conv.compute(acts.get(cur), p, epilogue, m, ctx)
                })?;
                if run.reran {
                    reruns.push(i);
                }
                if run.fused {
                    fused_ahead = p.epilogue.len();
                }
                (cur, coords, stride) = (Some(slot), p.out_coords(), p.out_stride);
            }
            (LayerOp::Pool(pool), StepPlan::Pool(p)) => {
                let slot = out?;
                acts.write(slot, |m, acts| pool.compute(acts.get(cur), p, m))?;
                (cur, coords, stride) = (Some(slot), p.out_coords(), p.out_stride);
            }
            (LayerOp::GlobalPool(gp), StepPlan::GlobalPool { origins }) => {
                let slot = out?;
                acts.write(slot, |m, acts| gp.compute(coords, acts.get(cur), origins, m))?;
                (cur, coords) = (Some(slot), origins.as_slice());
            }
            (LayerOp::BatchNorm(bn), StepPlan::Pointwise) => {
                acts.rewrite(&mut cur, written.copy, |m, _| bn.apply(m, ctx))?;
            }
            (LayerOp::Relu(relu), StepPlan::Pointwise) => {
                acts.rewrite(&mut cur, written.copy, |m, _| {
                    relu.apply(m, ctx);
                    Ok(())
                })?;
            }
            (LayerOp::Push, StepPlan::Push) => stack.push(cur),
            (LayerOp::PopConcat, StepPlan::PopConcat) => {
                let (saved, slot) = (pop(&mut stack)?, out?);
                acts.write(slot, |m, acts| {
                    *m = concat_channels(acts.get(cur), acts.get(saved), take(m).into_vec())?;
                    Ok::<_, CoreError>(())
                })?;
                cur = Some(slot);
            }
            (LayerOp::ResidualAdd { projection }, StepPlan::Residual { projection: proj }) => {
                let saved = pop(&mut stack)?;
                let shortcut = match (projection, proj) {
                    (Some(conv), Some(p)) => {
                        let slot = out?;
                        let run = acts.write(slot, |m, acts| {
                            conv.compute(acts.get(saved), p, Epilogue::default(), m, ctx)
                        })?;
                        if run.reran {
                            reruns.push(i);
                        }
                        Some(slot)
                    }
                    (None, None) => saved,
                    _ => {
                        return Err(CoreError::PlanMismatch {
                            reason: "residual projection presence differs",
                        })
                    }
                };
                acts.rewrite(&mut cur, written.copy, |m, acts| {
                    *m += acts.get(shortcut);
                    Ok(())
                })?;
            }
            _ => return Err(CoreError::PlanMismatch { reason: "op/step kind differs" }),
        }
    }
    // The output is copied out, so its slot keeps its buffer for the next
    // frame.
    let feats = acts.get(cur).clone();
    Ok((SparseTensor::with_stride(coords.to_vec(), feats, stride)?, reruns))
}

/// Pops the executor's value stack.
fn pop(stack: &mut Vec<Option<usize>>) -> Result<Option<usize>, CoreError> {
    stack.pop().ok_or(CoreError::PlanMismatch { reason: "join pops an empty stack" })
}

/// The executor's feature matrices: the input's, borrowed, and the buffer
/// slots the plan assigns to everything the steps write.
struct Activations<'i> {
    input: &'i Matrix,
    slots: Vec<Matrix>,
}

impl Activations<'_> {
    /// The matrix of `value` (`None`: the input's features).
    fn get(&self, value: Option<usize>) -> &Matrix {
        value.map_or(self.input, |slot| &self.slots[slot])
    }

    /// Writes `slot`'s matrix with `f` (it finds the buffer in any shape;
    /// writers reshape it), which also reads the other matrices.
    fn write<R>(&mut self, slot: usize, f: impl FnOnce(&mut Matrix, &Self) -> R) -> R {
        let mut m = take(&mut self.slots[slot]);
        let result = f(&mut m, self);
        self.slots[slot] = m;
        result
    }

    /// Rewrites the flowing matrix in place with `f` — after copying it
    /// into the plan's `copy` slot when it is the input's features or the
    /// value stack still holds it.
    fn rewrite(
        &mut self,
        cur: &mut Option<usize>,
        copy: Option<usize>,
        f: impl FnOnce(&mut Matrix, &Self) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        if let Some(slot) = copy {
            let from = *cur;
            self.write(slot, |m, acts| {
                let src = acts.get(from);
                m.reshape_zeroed(src.rows(), src.cols());
                m.as_mut_slice().copy_from_slice(src.as_slice());
            });
            *cur = Some(slot);
        }
        let slot = cur.ok_or(CoreError::PlanMismatch { reason: "in-place step on the input" })?;
        self.write(slot, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnginePreset;
    use crate::{ReLU, Sequential, SparseConv3d, SparseMaxPool3d};
    use torchsparse_gpusim::{DeviceProfile, Stage};
    use torchsparse_tensor::Matrix;

    fn scene(seed: i32) -> SparseTensor {
        let coords: Vec<Coord> = (0..30)
            .map(|i| Coord::new(0, (i + seed) % 7, (i / 7) % 4, i % 3))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let n = coords.len();
        SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r * 3 + c) % 5) as f32 - 2.0))
            .unwrap()
    }

    fn model() -> Sequential {
        Sequential::new("net")
            .push(SparseConv3d::with_random_weights("conv1", 4, 8, 3, 1, 1))
            .push(ReLU::new("act1"))
            .push(SparseMaxPool3d::new("pool", 2, 2))
            .push(SparseConv3d::with_random_weights("conv2", 8, 4, 3, 1, 2))
    }

    fn engine() -> Engine {
        Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti())
    }

    #[test]
    fn compiled_matches_dynamic_bitwise() {
        let m = model();
        let x = scene(0);
        let mut dynamic = engine();
        let expected = dynamic.run(&m, &x).unwrap();
        let mut session = engine().compile(&m, &x).unwrap();
        let got = session.execute(&x).unwrap();
        assert_eq!(expected.coords(), got.coords());
        let a: Vec<u32> = expected.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = got.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "compiled output must be bitwise identical");
    }

    #[test]
    fn execute_skips_mapping_on_plan_hit() {
        let m = model();
        let x = scene(0);
        let mut dynamic = engine();
        dynamic.run(&m, &x).unwrap();
        let dyn_mapping = dynamic.last_timeline().stage(Stage::Mapping);
        assert!(dyn_mapping.as_f64() > 0.0);

        let mut session = engine().compile(&m, &x).unwrap();
        assert!(session.planning_timeline().stage(Stage::Mapping).as_f64() > 0.0);
        session.execute(&x).unwrap();
        assert_eq!(
            session.last_timeline().stage(Stage::Mapping).as_f64(),
            0.0,
            "plan hits must not rebuild maps"
        );
        assert!(session.last_latency() < dynamic.last_latency());
    }

    #[test]
    fn geometry_change_invalidates_and_replans() {
        let m = model();
        let a = scene(0);
        let b = scene(3);
        let mut session = engine().compile(&m, &a).unwrap();
        session.execute(&a).unwrap();
        let y = session.execute(&b).unwrap();
        let s = session.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
        assert!(s.plan_bytes > 0, "a frozen plan has a resident footprint");
        let mut dynamic = engine();
        let expected = dynamic.run(&m, &b).unwrap();
        assert_eq!(expected.feats(), y.feats(), "replanned output must match dynamic");
        // The invalidated frame pays mapping again.
        assert!(session.last_timeline().stage(Stage::Mapping).as_f64() > 0.0);
    }

    #[test]
    fn untraceable_module_fails_to_compile() {
        struct Opaque;
        impl Module for Opaque {
            fn forward(
                &self,
                input: &SparseTensor,
                _ctx: &mut Context,
            ) -> Result<SparseTensor, CoreError> {
                Ok(input.clone())
            }
            fn name(&self) -> &str {
                "opaque"
            }
        }
        let x = scene(0);
        let err = engine().compile(&Opaque, &x).unwrap_err();
        assert!(matches!(err, CoreError::Untraceable { .. }));
    }

    #[test]
    fn empty_op_list_is_identity() {
        let m = Sequential::new("empty");
        let x = scene(0);
        let mut session = engine().compile(&m, &x).unwrap();
        assert_eq!(session.num_ops(), 0);
        let y = session.execute(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn shared_halves_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecutionPlan>();
        assert_send_sync::<CompiledModel<'static>>();
        // StreamState moves into per-stream worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<StreamState>();
    }

    #[test]
    fn new_streams_match_session_bitwise() {
        let m = model();
        let x = scene(0);
        let mut session = engine().compile(&m, &x).unwrap();
        let expected = session.execute(&x).unwrap();
        let (shared, _original) = session.into_parts();
        let mut stream = shared.new_stream().unwrap();
        let got = shared.execute_on(&mut stream, &x).unwrap();
        let a: Vec<u32> = expected.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = got.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "a fresh stream must reproduce the session bitwise");
        // The fresh stream rode the shared plan: a hit, no build.
        let s = stream.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 0, 0));
        assert_eq!(s.plan_bytes, shared.base_plan().memory_bytes());
    }

    #[test]
    fn stream_plan_slots_are_independent() {
        let m = model();
        let a = scene(0);
        let b = scene(3);
        let session = engine().compile(&m, &a).unwrap();
        let (shared, mut s1) = session.into_parts();
        let mut s2 = shared.new_stream().unwrap();

        // Stream 2 re-plans for its own geometry...
        let base_fp = shared.base_plan().fingerprint;
        shared.execute_on(&mut s2, &b).unwrap();
        let s2_fp = s2.plan().map(|p| p.fingerprint);
        assert_ne!(s2_fp, Some(base_fp), "stream 2 must have re-planned");

        // ...without touching stream 1's slot or the shared base plan.
        assert_eq!(s1.plan().map(|p| p.fingerprint), Some(base_fp));
        assert_eq!(shared.base_plan().fingerprint, base_fp);
        shared.execute_on(&mut s1, &a).unwrap();
        // misses:1 is the compile-time build this stream inherited.
        let s = s1.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 0));

        // Interleaving keeps each stream on its own plan: stream 2's next
        // frame of geometry b is a hit, not a rebuild.
        shared.execute_on(&mut s2, &b).unwrap();
        let s = s2.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 1));

        // Returning to the compile-time geometry re-attaches to the shared
        // plan without a rebuild (hit + invalidation, no miss).
        shared.execute_on(&mut s2, &a).unwrap();
        let s = s2.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 1, 2));
        assert_eq!(s2.plan().map(|p| p.fingerprint), Some(base_fp));
    }

    #[test]
    fn injected_deadline_overrun_fails_execute_with_typed_error() {
        use crate::faults::FaultSite;
        let m = model();
        let x = scene(0);
        let mut session = engine().compile(&m, &x).unwrap();
        session.execute(&x).unwrap();
        session.engine_mut().context_mut().faults.arm(FaultSite::DeadlineOverrun);
        let err = session.execute(&x).unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { .. }),
            "expected DeadlineExceeded, got {err:?}"
        );
        // The stream is not poisoned: the next frame succeeds and matches.
        let y = session.execute(&x).unwrap();
        assert_eq!(y.channels(), 4);
    }

    #[test]
    fn profile_wrapping_matches_dynamic() {
        let m = model();
        let x = scene(0);
        let mut dynamic = engine();
        dynamic.context_mut().profile_layers = true;
        dynamic.run(&m, &x).unwrap();
        let dyn_names: Vec<String> =
            dynamic.context().layer_profiles().iter().map(|p| p.name.clone()).collect();

        let mut session = engine().compile(&m, &x).unwrap();
        session.engine_mut().context_mut().profile_layers = true;
        session.execute(&x).unwrap();
        let ses_names: Vec<String> =
            session.engine().context().layer_profiles().iter().map(|p| p.name.clone()).collect();
        assert_eq!(dyn_names, ses_names, "same layers must profile in both paths");
    }
}
