//! Compiled inference sessions: plan once, execute per frame.
//!
//! Streaming workloads (LiDAR at 10-20 Hz) feed the network frames whose
//! *geometry* is often identical — multi-frame fused inputs reuse the same
//! voxel grid, and benchmark replay repeats one scene exactly. Dynamic
//! execution still rebuilds every kernel map per frame. A
//! [`CompiledSession`] splits that work:
//! [`Engine::compile`](crate::Engine::compile) traces the model into a flat
//! [`LayerOp`] sequence and runs every geometric derivation once, freezing
//! the results into an immutable [`ExecutionPlan`] keyed by the input's
//! coordinates and stride; [`CompiledSession::execute`] then runs only the
//! feature path. A frame whose stride or coordinates differ from the
//! plan's in any voxel transparently re-plans (counted in
//! [`PlanCacheStats`]).
//!
//! Neither half runs the simulated-GPU cost model: a frame logs its
//! re-plan's `Mapping` latencies plus one charge naming the plan it
//! executed, and the first *read* of [`StreamState::last_timeline`] (or the
//! layer profiles) resolves them — the plan's execute-path cost is walked
//! at most once per plan, by whichever stream first asks, and cached on the
//! shared [`ExecutionPlan`] ([`crate::cost_model`]). A session nobody reads
//! — `serve()`, a benchmark's timed window — simulates nothing.
//!
//! Each convolution plan shares its layer's weights, packed once at
//! construction in the SIMD microkernel's panel-major layout, so frames
//! stream pre-packed GEMM panels and no row-major weights exist.
//!
//! For multi-stream serving the session splits along the share/own line:
//! [`CompiledModel`] is the frozen, `Sync` half (traced ops, the
//! compile-time plan behind `Arc`, and the planner state every stream
//! starts from) that N streams execute against concurrently, while
//! [`StreamState`] is one stream's private half (its [`Context`] — runtime,
//! planner and cost ledger — plus that stream's plan slot and cache stats).
//! [`CompiledSession`] is the single-stream composition of the two: it
//! dereferences to its stream, and [`CompiledSession::into_parts`] opens it
//! up.

use crate::context::{Context, MapKey, Planner};
use crate::cost_model::Charge;
use crate::delta::{Level, Patch};
use crate::exec::{check_runnable, run_steps};
use crate::faults::DegradationReport;
use crate::module::Module;
use crate::plan::{
    input_level, EpilogueSteps, ExecutionPlan, LayerOp, Lifetimes, PlanCacheStats, StepBuffers,
    StepPlan, Tracer,
};
use crate::tuning::{compiled_report, TuningReport};
use crate::{CoreError, GlobalPool, OptimizationConfig, SparseTensor};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};
use torchsparse_coords::Coord;
use torchsparse_gpusim::{DeviceProfile, GemmModel, Micros, Stage, Timeline};

/// The geometry cursor threaded through planning: what the tensor flowing
/// through the network looks like after each op, without any features.
/// Its coordinates are the one list of their level: the input's, copied
/// (and sorted, when the caller's rows were not ascending) once per plan
/// build, or a side of the cached map of the step that produced them —
/// shared, never copied. Every level is therefore ascending.
#[derive(Clone)]
struct Geometry {
    coords: Arc<[Coord]>,
    stride: i32,
    channels: usize,
    /// The planned activation holding the features (`None`: the input's).
    value: Option<usize>,
    /// The coordinates' delta against the old plan when a re-plan patches
    /// maps (`None`: not tracked).
    level: Option<Level>,
}

/// A model compiled against one input geometry: the shared
/// [`CompiledModel`] plus the compiling stream's [`StreamState`], which the
/// session dereferences to for its counters, plan slot, context and
/// timelines.
///
/// Created by [`Engine::compile`](crate::Engine::compile), which hands it
/// the engine's context; borrows the model's layers (`'m`).
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
/// `CompiledModel` is `Sync` — it holds no interior mutability beyond two
/// once-resolved cells, the shared plan's cost and the tuning report — so
/// N serving streams execute against one instance concurrently, each
/// bringing its own [`StreamState`]. A stream whose frame geometry equals
/// the compile-time plan's re-attaches to the shared plan without
/// rebuilding; a stream with different geometry re-plans into its *own*
/// slot, never touching the shared base plan or any other stream.
pub struct CompiledModel<'m> {
    ops: Vec<LayerOp<'m>>,
    base_plan: Arc<ExecutionPlan>,
    config: OptimizationConfig,
    device: DeviceProfile,
    /// The plan-time state the compile ended with — calibrated groupings, a
    /// tuning failure's fixed-grouping fallback, the frozen index. Every
    /// stream starts from a copy (whose map cache its first frame clears),
    /// so its re-plans store the groupings the compile stored.
    planner: Planner,
    /// The base plan's tuning report, built on first read.
    tuning: OnceLock<TuningReport>,
}

/// One stream's private state: its [`Context`] (the runtime with the fault
/// injector and degradation report, the planner, the cost ledger), its plan
/// slot, and its plan-cache counters.
///
/// Created by [`CompiledModel::new_stream`] — and rebuilt the same way
/// when a serving supervisor quarantines a poisoned stream: the state is
/// discarded wholesale and reconstructed from the shared plan, so nothing
/// a panicking request touched survives into the next frame.
pub struct StreamState {
    ctx: Context,
    plan: Arc<ExecutionPlan>,
    stats: PlanCacheStats,
    planning: Timeline,
    planning_degradation: DegradationReport,
}

impl<'m> CompiledModel<'m> {
    /// Creates a fresh stream against this model: a context with the
    /// model's configuration, device and planner state, its plan slot
    /// attached to the shared compile-time plan.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the stored configuration fails
    /// [`Context::validate`] (cannot happen for configurations that came
    /// through [`Engine::compile`](crate::Engine::compile), which validated
    /// at construction).
    pub fn new_stream(&self) -> Result<StreamState, CoreError> {
        let mut ctx = Context::new(self.config.clone(), self.device.clone());
        ctx.validate()?;
        ctx.planner = self.planner.clone();
        Ok(StreamState {
            ctx,
            plan: Arc::clone(&self.base_plan),
            stats: PlanCacheStats {
                plan_bytes: self.base_plan.memory_bytes(),
                ..PlanCacheStats::default()
            },
            planning: Timeline::new(),
            planning_degradation: DegradationReport::new(),
        })
    }

    /// Runs one frame of `stream` through this model: only feature-path
    /// work executes when the frame's coordinates and stride equal those of
    /// the stream's plan slot. On a mismatch the stream first re-attaches to
    /// the shared compile-time plan (if the frame's geometry equals its) or
    /// re-plans into its own slot — other streams' slots and the shared
    /// plan are never written.
    ///
    /// # Errors
    ///
    /// Validation failures, [`CoreError::DeadlineExceeded`] when the
    /// runtime's deadline expires at a stage boundary, plus any
    /// [`CoreError`] from the layers.
    pub fn execute_on(
        &self,
        stream: &mut StreamState,
        input: &SparseTensor,
    ) -> Result<SparseTensor, CoreError> {
        let ctx = &mut stream.ctx;
        let tensor = &*ctx.begin_frame(input)?;
        let matches = |p: &ExecutionPlan| p.matches(tensor.coords(), tensor.stride());
        // A hit keeps the slot's plan, so its footprint is already counted.
        if matches(&stream.plan) {
            stream.stats.hits += 1;
        } else {
            stream.stats.invalidations += 1;
            if matches(&self.base_plan) {
                // The geometry returned to the compile-time plan: re-attach
                // to the shared Arc instead of rebuilding. Counted as a hit
                // (misses counts plan *builds*).
                stream.stats.hits += 1;
                stream.plan = Arc::clone(&self.base_plan);
            } else {
                // Geometry changed: rebuild the plan into this stream's
                // slot — incrementally patched from the old plan when the
                // delta path applies, from scratch otherwise. The re-plan's
                // `Mapping` latencies land on this frame's ledger, exactly
                // like a dynamic run's.
                let plan =
                    replan_into_slot(&self.ops, tensor, &stream.plan, &mut stream.stats, ctx)?;
                stream.planning = ctx.timeline().clone();
                stream.planning_degradation = ctx.runtime.degradation.clone();
                stream.plan = Arc::new(plan);
            }
            stream.stats.plan_bytes = stream.plan.memory_bytes();
        }
        let plan = Arc::clone(&stream.plan);
        let (out, reruns) = run_steps(&self.ops, &plan, tensor, &ctx.config, &mut ctx.runtime)?;
        // The frame's simulated cost, for whoever reads it: the plan's
        // execute path on top of whatever `Mapping` this frame's re-plan
        // logged.
        ctx.defer(Charge::plan(plan, reruns, ctx.profile_layers));
        Ok(out)
    }

    /// The plan frozen at compile time, shared by every stream whose
    /// geometry matches it.
    #[cfg(test)]
    pub(crate) fn base_plan(&self) -> &Arc<ExecutionPlan> {
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

    /// The compile-time plan's tuning report (the grouping the cost model
    /// prices each convolution at), built on first read; `None` when
    /// autotuning is off.
    pub fn tuning_report(&self) -> Option<&TuningReport> {
        self.config.autotune_policies.then(|| {
            self.tuning.get_or_init(|| {
                let gemm = GemmModel::new(self.device.clone());
                compiled_report(&self.base_plan, &gemm, &self.config)
            })
        })
    }
}

impl std::fmt::Debug for CompiledModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModel")
            .field("ops", &self.ops.len())
            .field("voxels", &self.base_plan.input.len())
            .finish()
    }
}

impl StreamState {
    /// The stream's context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Mutable context access (e.g. to arm faults, install a deadline or a
    /// recording pool on its runtime, or switch on layer profiles between
    /// frames).
    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Plan-reuse counters for this stream.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// The plan in this stream's slot: the shared compile-time plan until
    /// the stream's geometry leaves it.
    #[cfg(test)]
    pub(crate) fn plan(&self) -> &Arc<ExecutionPlan> {
        &self.plan
    }

    /// Per-stage cost of this stream's most recent planning pass (the
    /// compile, or the last private re-plan; zero for a fresh stream still
    /// riding the shared compile-time plan). This is the work a plan hit no
    /// longer pays.
    pub fn planning_timeline(&self) -> &Timeline {
        &self.planning
    }

    /// Degradation decisions of this stream's most recent planning pass
    /// (e.g. an injected grid-table fault degrading the mapping strategy).
    pub fn planning_degradation(&self) -> &DegradationReport {
        &self.planning_degradation
    }

    /// Per-stage simulated latency of the stream's last executed frame.
    /// Executing simulates nothing; the first read walks the plan through
    /// the cost model (once per plan, shared by every stream on it) and
    /// adds the frame's own `Mapping` log.
    pub fn last_timeline(&self) -> &Timeline {
        self.ctx.timeline()
    }

    /// Degradation decisions of the stream's last executed frame.
    pub fn degradation_report(&self) -> &DegradationReport {
        &self.ctx.runtime.degradation
    }
}

impl std::fmt::Debug for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamState")
            .field("voxels", &self.plan.input.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'m> CompiledSession<'m> {
    /// Traces `model`, plans every layer against `input`'s geometry, and
    /// freezes the result; `ctx` becomes the compiling stream's context.
    /// Called via [`Engine::compile`](crate::Engine::compile).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] at INT8 precision, which is priced,
    /// never run; [`CoreError::Untraceable`] for models without a `trace`
    /// implementation, plus validation and mapping errors from planning.
    pub(crate) fn compile<M: Module + ?Sized>(
        mut ctx: Context,
        model: &'m M,
        input: &SparseTensor,
    ) -> Result<CompiledSession<'m>, CoreError> {
        check_runnable(&ctx.config)?;
        let ops = trace(model)?;
        // Coordinate sets are frozen at plan time from here on: this
        // stream's map searches (the compile below, private re-plans) build
        // the succinct MPHF index, as every `new_stream` will.
        ctx.planner.frozen_index = true;
        let tensor = &*ctx.begin_frame(input)?;
        let (plan, prices) =
            build_plan(&ops, tensor, input_level(tensor.coords()), None, &mut ctx)?;
        defer_mapping(&prices, &mut ctx);
        let base_plan = Arc::new(plan);
        let shared = CompiledModel {
            ops,
            base_plan: Arc::clone(&base_plan),
            config: ctx.config.clone(),
            device: ctx.device.clone(),
            planner: ctx.planner.clone(),
            tuning: OnceLock::new(),
        };
        let stream = StreamState {
            stats: PlanCacheStats {
                misses: 1,
                full_replans: 1,
                plan_bytes: base_plan.memory_bytes(),
                ..PlanCacheStats::default()
            },
            plan: base_plan,
            planning: ctx.timeline().clone(),
            planning_degradation: ctx.runtime.degradation.clone(),
            ctx,
        };
        Ok(CompiledSession { shared, stream })
    }

    /// Runs one frame through the frozen plan: only feature-path work
    /// (gather/matmul/scatter, reductions, pointwise sweeps) executes.
    ///
    /// If the frame's coordinates or stride differ from the plan's, the
    /// session transparently re-plans against the new geometry first — that frame
    /// pays the mapping cost again and the miss is counted in
    /// [`StreamState::stats`].
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

    /// The compile-time plan's tuning report, when autotuning is on.
    pub fn tuning_report(&self) -> Option<&TuningReport> {
        self.shared.tuning_report()
    }
}

impl Deref for CompiledSession<'_> {
    type Target = StreamState;

    fn deref(&self) -> &StreamState {
        &self.stream
    }
}

impl DerefMut for CompiledSession<'_> {
    fn deref_mut(&mut self) -> &mut StreamState {
        &mut self.stream
    }
}

impl std::fmt::Debug for CompiledSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSession")
            .field("ops", &self.shared.ops.len())
            .field("voxels", &self.stream.plan.input.len())
            .field("stats", &self.stream.stats)
            .finish()
    }
}

/// Rebuilds a stream's plan for a frame whose geometry differs from its
/// slot's.
///
/// When delta re-planning is enabled, [`Patch::new`] decides up front
/// whether the stream's previous plan can be patched for the new geometry,
/// and [`build_plan`] below then patches each of its maps just before the
/// step that plans with it. Every build is classified into exactly one of
/// the [`PlanCacheStats`] partitions — `delta_patches` when patched,
/// `delta_fallbacks` on a conservative bail, `full_replans` otherwise —
/// keeping `misses == full_replans + delta_patches + delta_fallbacks`.
/// Whichever way it was built, the plan's map work is logged on this frame
/// and its execute-path cost is left for the first reader to walk.
fn replan_into_slot(
    ops: &[LayerOp<'_>],
    input: &SparseTensor,
    old: &ExecutionPlan,
    stats: &mut PlanCacheStats,
    ctx: &mut Context,
) -> Result<ExecutionPlan, CoreError> {
    stats.misses += 1;
    let mut level = input_level(input.coords());
    if level.0 == old.input {
        // The old plan's rows in another order: its input level is this one.
        level.0 = Arc::clone(&old.input);
    }
    let mut patch = None;
    if ctx.config.delta_replan {
        ctx.runtime.check_deadline("mapping")?;
        let symmetric = ctx.config.symmetric_map_search;
        patch = Patch::new(ops, old, &level.0, symmetric);
        match patch {
            Some(_) => stats.delta_patches += 1,
            None => stats.delta_fallbacks += 1,
        }
    } else {
        stats.full_replans += 1;
    }
    let (plan, prices) = build_plan(ops, input, level, patch.as_mut(), ctx)?;
    if let Some(patch) = &patch {
        patch.defer_cost(ctx);
    }
    defer_mapping(&prices, ctx);
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
    let (plan, prices) = build_plan(&ops, input, input_level(input.coords()), None, ctx)?;
    let (out, reruns) = run_steps(&ops, &plan, input, &ctx.config, &mut ctx.runtime)?;
    ctx.defer(Charge::ephemeral_plan(plan, prices, reruns, ctx.profile_layers));
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
    let level = input_level(input.coords());
    let (plan, prices) = build_plan(&trace(model)?, input, level, None, ctx)?;
    ctx.defer(Charge::ephemeral_plan(plan, prices, Vec::new(), ctx.profile_layers));
    Ok(())
}

/// Logs a compiled plan's map searches (as [`build_plan`] returned them) on
/// the frame that built it. Its cached cost is the execute path alone.
fn defer_mapping(prices: &[Option<Micros>], ctx: &mut Context) {
    for &latency in prices.iter().flatten() {
        ctx.defer(Charge::latency(Stage::Mapping, latency));
    }
}

/// Plans every op against the geometry cursor, producing the index-aligned
/// [`StepPlan`] list. Only geometric work happens here (map building,
/// output coordinate computation, buffer slots); features are never read
/// and nothing is charged — beside the plan it returns, index-aligned with
/// its steps, the `Mapping` latency of each step's own map search. With a
/// `patch` source, each map a step plans with is the old plan's, patched
/// ([`patch_map`]).
///
/// `level` is the input's [`input_level`]: the ascending list that keys the
/// plan and that every map at the input level shares, with the caller rows'
/// ranks in it when they were not ascending.
fn build_plan(
    ops: &[LayerOp<'_>],
    input: &SparseTensor,
    (coords, rank): (Arc<[Coord]>, Option<Box<[u32]>>),
    mut patch: Option<&mut Patch<'_>>,
    ctx: &mut Context,
) -> Result<(ExecutionPlan, Vec<Option<Micros>>), CoreError> {
    let mut cur = Geometry {
        coords,
        stride: input.stride(),
        channels: input.channels(),
        value: None,
        level: patch.as_ref().map(|p| p.root.clone()),
    };
    let key = Arc::clone(&cur.coords);
    let mut stack: Vec<Geometry> = Vec::new();
    let mut steps = Vec::with_capacity(ops.len());
    // The layer name of every step that records a layer profile.
    let mut names = Vec::with_capacity(ops.len());
    // Per step, the values it writes (slots once the walk has ended).
    let mut buffers = Vec::with_capacity(ops.len());
    let mut life = Lifetimes::default();
    // Per step, the `Mapping` latency of the map search it ran.
    let mut prices = vec![None; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        // A cost-only step has no work, so no stage boundary either.
        if !matches!(op, LayerOp::CostSurcharge { .. }) {
            ctx.runtime.check_deadline("mapping")?;
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
                let level =
                    patch_map(&mut patch, i, key, conv.is_transposed(), &cur, &mut ctx.planner);
                let (p, price) = conv.plan(&cur.coords, cur.stride, cur.channels, ctx)?;
                prices[i] = price;
                let coords = Arc::clone(&p.out_coords);
                written.out = Some(cur.advance(coords, p.out_stride, conv.c_out(), &mut life, i));
                cur.level = level;
                StepPlan::Conv(p)
            }
            LayerOp::Pool(pool) => {
                let key = pool.map_key(cur.stride);
                let level = patch_map(&mut patch, i, key, false, &cur, &mut ctx.planner);
                let (p, price) = pool.plan(&cur.coords, cur.stride, ctx)?;
                prices[i] = price;
                let coords = Arc::clone(&p.out_coords);
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
                if cur.coords.is_empty() {
                    return Err(CoreError::EmptyInput);
                }
                let origins: Arc<[Coord]> = GlobalPool::origins(&cur.coords).into();
                let coords = Arc::clone(&origins);
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
                same_coords(&cur.coords, &saved.coords)?;
                life.touch(saved.value, i);
                let (coords, channels) = (cur.coords.clone(), cur.channels + saved.channels);
                written.out = Some(cur.advance(coords, cur.stride, channels, &mut life, i));
                StepPlan::PopConcat
            }
            LayerOp::ResidualAdd { projection } => {
                let saved = stack
                    .pop()
                    .ok_or(CoreError::PlanMismatch { reason: "residual pops an empty stack" })?;
                life.touch(saved.value, i);
                let (proj, channels, shortcut) = match projection {
                    Some(conv) => {
                        // The shortcut's geometry is the saved one; the
                        // residual output keeps the current one.
                        let key = conv.map_key(saved.stride);
                        patch_map(
                            &mut patch,
                            i,
                            key,
                            conv.is_transposed(),
                            &saved,
                            &mut ctx.planner,
                        );
                        let (p, price) =
                            conv.plan(&saved.coords, saved.stride, saved.channels, ctx)?;
                        prices[i] = price;
                        same_coords(&cur.coords, &p.out_coords)?;
                        written.out = Some(life.create(p.out_coords.len() * conv.c_out(), i));
                        (Some(p), conv.c_out(), written.out)
                    }
                    None => {
                        same_coords(&cur.coords, &saved.coords)?;
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
    let plan = ExecutionPlan {
        input: key,
        rank,
        stride: input.stride(),
        channels: input.channels(),
        steps,
        names,
        buffers,
        slot_lens,
        cost: OnceLock::new(),
    };
    Ok((plan, prices))
}

impl Geometry {
    /// Moves the cursor to the new matrix step `i` writes from the current
    /// one; returns the new value.
    fn advance(
        &mut self,
        coords: Arc<[Coord]>,
        stride: i32,
        channels: usize,
        life: &mut Lifetimes,
        i: usize,
    ) -> usize {
        life.touch(self.value, i);
        let value = life.create(coords.len() * channels, i);
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
        stack: &[Geometry],
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
        self.value = Some(life.create(self.coords.len() * self.channels, i));
        self.value
    }
}

/// Before step `i` plans its map `key` from the geometry `from`: with a
/// patch source, patches the old plan's map into the planner's map cache —
/// a transposed convolution only re-enters the fine level of the map it
/// inverts. Returns the level of the step's output.
fn patch_map(
    patch: &mut Option<&mut Patch<'_>>,
    i: usize,
    key: MapKey,
    transposed: bool,
    from: &Geometry,
    planner: &mut Planner,
) -> Option<Level> {
    let (patch, level) = (patch.as_deref_mut()?, from.level.as_ref()?);
    if transposed {
        patch.fine_level(key)
    } else {
        patch.map(i, key, &from.coords, level, planner)
    }
}

/// Checks that a join's two sides are one point set: feature rows pair up
/// by position, so concatenation and residual addition need the same
/// coordinate list — in a plan, usually the very same `Arc`.
fn same_coords(cur: &Arc<[Coord]>, saved: &Arc<[Coord]>) -> Result<(), CoreError> {
    if Arc::ptr_eq(cur, saved) || cur == saved {
        Ok(())
    } else {
        Err(CoreError::LengthMismatch { coords: cur.len(), feats: saved.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnginePreset;
    use crate::{Engine, ReLU, Sequential, SparseConv3d, SparseMaxPool3d};
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
        assert!(session.last_timeline().total() < dynamic.last_latency());
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
    fn a_frame_hits_only_the_planned_coordinates_and_stride() {
        let m = model();
        let x = scene(0);
        let counts = |s: &CompiledSession<'_>| {
            let s = s.stats();
            (s.hits, s.misses, s.invalidations)
        };
        let mut session = engine().compile(&m, &x).unwrap();
        // Equal coordinates in a fresh allocation hit.
        session.execute(&x.clone()).unwrap();
        assert_eq!(counts(&session), (1, 1, 0));
        // One voxel moved, same length: a miss.
        let mut coords = x.coords().to_vec();
        coords[4].z += 7;
        session.execute(&SparseTensor::new(coords, x.feats().clone()).unwrap()).unwrap();
        assert_eq!(counts(&session), (1, 2, 1));
        // Back to the compile-time geometry: re-attached, a hit.
        session.execute(&x).unwrap();
        assert_eq!(counts(&session), (2, 2, 2));
        // The same coordinates at another stride: a miss.
        let strided = SparseTensor::with_stride(x.coords().to_vec(), x.feats().clone(), 2).unwrap();
        session.execute(&strided).unwrap();
        assert_eq!(counts(&session), (2, 3, 3));
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
        assert_eq!(session.model().num_ops(), 0);
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
        let base = Arc::clone(shared.base_plan());
        shared.execute_on(&mut s2, &b).unwrap();
        assert!(!Arc::ptr_eq(s2.plan(), &base), "stream 2 must have re-planned");
        assert!(s2.plan().matches(b.coords(), b.stride()));

        // ...without touching stream 1's slot or the shared base plan.
        assert!(Arc::ptr_eq(s1.plan(), &base));
        assert!(Arc::ptr_eq(shared.base_plan(), &base));
        assert!(base.matches(a.coords(), a.stride()));
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
        assert!(Arc::ptr_eq(s2.plan(), &base));
    }

    /// A UNet in miniature: a submanifold stem, a residual block whose
    /// shortcut projects 1x1x1, a stride-2 down, a residual inner layer
    /// whose shortcut projects the coarse level, and the transposed up
    /// whose output is concatenated with the skip.
    struct Unet {
        stem: SparseConv3d,
        body: SparseConv3d,
        proj: SparseConv3d,
        down: SparseConv3d,
        inner: SparseConv3d,
        shortcut: SparseConv3d,
        up: SparseConv3d,
    }

    impl Unet {
        fn new() -> Unet {
            let conv = SparseConv3d::with_random_weights;
            Unet {
                stem: conv("stem", 4, 8, 3, 1, 1),
                body: conv("body", 8, 16, 3, 1, 2),
                proj: conv("proj", 8, 16, 1, 1, 3),
                down: conv("down", 16, 16, 2, 2, 4),
                inner: conv("inner", 16, 16, 3, 1, 5),
                shortcut: conv("shortcut", 16, 16, 1, 1, 7),
                up: conv("up", 16, 16, 2, 2, 6).into_transposed(),
            }
        }
    }

    impl Module for Unet {
        fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
            tracer.push(LayerOp::Conv(&self.stem));
            tracer.push(LayerOp::Push);
            tracer.push(LayerOp::Conv(&self.body));
            tracer.push(LayerOp::ResidualAdd { projection: Some(&self.proj) });
            tracer.push(LayerOp::Push);
            tracer.push(LayerOp::Conv(&self.down));
            tracer.push(LayerOp::Push);
            tracer.push(LayerOp::Conv(&self.inner));
            tracer.push(LayerOp::ResidualAdd { projection: Some(&self.shortcut) });
            tracer.push(LayerOp::Conv(&self.up));
            tracer.push(LayerOp::PopConcat);
            Ok(())
        }

        fn name(&self) -> &str {
            "unet"
        }
    }

    /// Checks that `plan`, the [`Unet`]'s, holds one coordinate list and one
    /// index per level, shared by every map over the level.
    fn assert_one_list_and_index_per_level(plan: &ExecutionPlan) {
        let conv = |i: usize| match &plan.steps[i] {
            StepPlan::Conv(p) | StepPlan::Residual { projection: Some(p) } => p,
            other => panic!("step {i} is {other:?}"),
        };
        let (stem, proj, down) = (conv(0), conv(3), conv(5));
        let (inner, shortcut, up) = (conv(7), conv(8), conv(9));
        let level0 = &stem.cached.fine;
        assert!(Arc::ptr_eq(&plan.input, level0), "the plan's key is the input level");
        for p in [stem, conv(2), proj, inner, shortcut] {
            assert!(Arc::ptr_eq(&p.cached.fine, &p.cached.coarse), "a stride-1 map");
            assert!(Arc::ptr_eq(&p.out_coords, &p.cached.fine));
        }
        assert!(Arc::ptr_eq(&proj.cached.fine, level0), "the projection's level");
        assert!(Arc::ptr_eq(&down.cached.fine, level0), "the down map's fine level");
        assert!(Arc::ptr_eq(&inner.cached.fine, &down.cached.coarse), "the coarse level");
        assert!(Arc::ptr_eq(&shortcut.cached.fine, &down.cached.coarse));
        assert!(Arc::ptr_eq(&up.out_coords, level0), "the up conv returns to the encoder");
        assert!(!Arc::ptr_eq(&down.cached.coarse, level0));
        // Three maps over the input level, two over the coarse one: one
        // index each.
        let index0 = &stem.cached.index;
        for p in [proj, down] {
            assert!(Arc::ptr_eq(&p.cached.index, index0), "one index over the input level");
        }
        let index1 = &inner.cached.index;
        assert!(Arc::ptr_eq(&shortcut.cached.index, index1), "one index over the coarse level");
        assert!(!Arc::ptr_eq(index0, index1));
        assert_eq!(index1.len(), down.cached.coarse.len());
    }

    #[test]
    fn a_plan_holds_one_coordinate_list_per_level() {
        let (m, x) = (Unet::new(), scene(0));
        let expected = engine().run(&m, &x).unwrap();
        let mut session = engine().compile(&m, &x).unwrap();
        let got = session.execute(&x).unwrap();
        assert_eq!(expected, got, "the compiled UNet runs as the dynamic one");
        assert_one_list_and_index_per_level(session.plan());
        // A patched plan shares its levels' lists and indexes the same way.
        let mut coords = x.coords().to_vec();
        coords[4].z += 7;
        let moved = SparseTensor::new(coords, x.feats().clone()).unwrap();
        let got = session.execute(&moved).unwrap();
        assert_eq!(session.stats().delta_patches, 1);
        assert_eq!(engine().run(&m, &moved).unwrap(), got, "the patched UNet runs as dynamic");
        assert_one_list_and_index_per_level(session.plan());
    }

    #[test]
    fn injected_deadline_overrun_fails_execute_with_typed_error() {
        use crate::faults::FaultSite;
        let m = model();
        let x = scene(0);
        let mut session = engine().compile(&m, &x).unwrap();
        session.execute(&x).unwrap();
        session.context_mut().runtime.faults.arm(FaultSite::DeadlineOverrun);
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
        session.context_mut().profile_layers = true;
        session.execute(&x).unwrap();
        let ses_names: Vec<String> =
            session.context().layer_profiles().iter().map(|p| p.name.clone()).collect();
        assert_eq!(dyn_names, ses_names, "same layers must profile in both paths");
    }

    #[test]
    fn new_streams_plan_with_the_compile_time_planner() {
        use crate::config::GroupingStrategy;
        use crate::faults::FaultSite;
        let m = model();
        let (a, b) = (scene(0), scene(3));
        // Autotuning off: a re-plan stores the calibrated grouping, or the
        // fallback a failed tuning installs.
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.autotune_policies = false;
        let calibrated = GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: 0 };
        for (fault, stored) in [(false, calibrated), (true, GroupingStrategy::Fixed)] {
            let mut e = Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti());
            if fault {
                e.context_mut().runtime.faults.arm(FaultSite::GroupTuning);
            }
            let calibrated = Some((vec![1.0], vec![0]));
            crate::tuning::tune_engine(&mut e, &m, std::slice::from_ref(&a), calibrated).unwrap();
            let (shared, mut first) = e.compile(&m, &a).unwrap().into_parts();
            let mut fresh = shared.new_stream().unwrap();
            let replanned_groupings = |stream: &mut StreamState| {
                shared.execute_on(stream, &b).unwrap();
                let groupings = stream.plan().steps.iter().filter_map(|step| match step {
                    StepPlan::Conv(p) => Some(p.grouping),
                    _ => None,
                });
                groupings.collect::<Vec<_>>()
            };
            let compiled = replanned_groupings(&mut first);
            assert_eq!(compiled, [stored; 2], "tuning fault: {fault}");
            assert_eq!(replanned_groupings(&mut fresh), compiled, "tuning fault: {fault}");
        }
    }
}
