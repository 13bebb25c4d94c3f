use crate::config::{GroupingStrategy, OptimizationConfig};
use crate::cost_model::{Charge, Ledger};
use crate::runtime::Runtime;
use crate::{CoreError, SparseTensor};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use torchsparse_coords::{Coord, CoordIndex, KernelMap};
use torchsparse_gpusim::{DeviceProfile, GemmModel, Timeline};

/// Key identifying a cached kernel map within one inference run.
///
/// Real engines key maps on (tensor stride, kernel size, conv stride) via a
/// coordinate manager (MinkowskiEngine) or `indice_key` (SpConv);
/// TorchSparse performs the same caching internally so users never annotate
/// their models (§4.1). The key always uses the *finer* tensor stride of the
/// layer, so a transposed convolution finds the map of the downsampling
/// layer it inverts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct MapKey {
    /// Tensor stride of the finer (higher-resolution) side.
    pub fine_stride: i32,
    /// The kernel size.
    pub kernel_size: usize,
    /// Convolution stride.
    pub conv_stride: i32,
    /// Dilation factor.
    pub dilation: i32,
}

/// A cached map together with the coordinate lists it connects. A level's
/// list is one allocation, shared by every map that touches the level.
#[derive(Debug)]
pub(crate) struct CachedMap {
    /// The kernel map from fine to coarse coordinates.
    pub map: KernelMap,
    /// Coordinates on the fine side (inputs of the downsample).
    pub fine: Arc<[Coord]>,
    /// Coordinates on the coarse side (outputs of the downsample). For
    /// stride-1 layers this is `fine`'s `Arc`.
    pub coarse: Arc<[Coord]>,
    /// The index over `fine` that the map search probed, retained so
    /// incremental re-plans can re-query it — and layer a
    /// [`torchsparse_coords::DeltaIndex`] on top — without rebuilding it.
    /// In a frozen plan it is the level's one index, shared by every map
    /// over `fine` ([`Planner::level_index`]); a delta patch also keeps the
    /// old plan's index alive as the base of the new one.
    pub index: Arc<dyn CoordIndex>,
}

/// Per-layer workload record captured during a profiling run, consumed by
/// the adaptive-grouping tuner (Algorithm 5).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// Layer name.
    pub name: String,
    /// Per-offset map sizes.
    pub map_sizes: Vec<usize>,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Whether the layer is a stride-1 submanifold conv with odd kernel
    /// (enables the symmetric pairing in grouping).
    pub submanifold: bool,
}

/// Execution context: the configuration and device, the run's cost ledger,
/// and the two halves of mutable engine state split by lifetime — the
/// [`Planner`]'s plan-time state and the [`Runtime`]'s frame state.
///
/// One context corresponds to one engine instance (or one compiled
/// session's stream) pinned to one simulated device. It is threaded
/// mutably through every `forward` and plan build; the plan executor sees
/// only its configuration and runtime.
///
/// Simulated cost is *deferred*: runs log what to charge
/// ([`Context::defer`]) and the first read of [`Context::timeline`] or
/// [`Context::layer_profiles`] replays the log through the cost model
/// ([`crate::cost_model`]). A run nobody reads simulates nothing.
pub struct Context {
    /// The optimization configuration in force.
    pub config: OptimizationConfig,
    /// The simulated device.
    pub device: DeviceProfile,
    /// GEMM latency model of `device`.
    pub(crate) gemm: GemmModel,
    /// The current run's deferred charges and, once read, their cost.
    ledger: Ledger,
    /// Plan-time state: the map cache and the per-layer groupings.
    pub(crate) planner: Planner,
    /// Frame state: the worker pool (sized by `config.threads`), the
    /// deadline, the fault injector, the degradation report and the
    /// executor's activation buffers.
    pub runtime: Runtime,
    /// Workloads recorded when `record_workloads` is on.
    pub workloads: Vec<LayerWorkload>,
    /// Whether convolutions should append to [`Context::workloads`]. A
    /// convolution records when it is *planned*: once per layer in a
    /// dynamic run, once per plan build in a compiled session (plan hits
    /// record nothing).
    pub record_workloads: bool,
    /// Whether runs should record per-layer profiles
    /// ([`Context::layer_profiles`]).
    pub profile_layers: bool,
}

/// Plan-time state: what a plan build reads and writes besides the geometry.
///
/// A compiled model keeps the planner its compile ended with, and every
/// stream it creates starts from a copy, so a stream's re-plans store the
/// groupings its compile stored.
#[derive(Clone, Default)]
pub(crate) struct Planner {
    /// Maps built or patched by the current plan build (cleared by
    /// [`Context::begin_run`]).
    map_cache: HashMap<MapKey, Arc<CachedMap>>,
    /// Per-layer groupings: Algorithm 5's calibrated `(epsilon, S)`
    /// ([`crate::tuning::tune_engine`]). Read through
    /// [`Context::grouping_for`].
    pub(crate) groupings: HashMap<String, GroupingStrategy>,
    /// Set when adaptive-grouping tuning failed: layers configured for
    /// adaptive grouping run with fixed grouping instead.
    pub(crate) grouping_fallback: bool,
    /// Set for a compiled session's streams: their coordinate sets are
    /// frozen at plan time, so map searches build the succinct MPHF index
    /// the plan keeps ([`crate::mapping::TableKind::Mphf`]) where a dynamic
    /// run follows `config.map_search`.
    pub(crate) frozen_index: bool,
}

impl Planner {
    /// Looks up a cached map.
    pub(crate) fn cached_map(&self, key: MapKey) -> Option<Arc<CachedMap>> {
        self.map_cache.get(&key).cloned()
    }

    /// The index of the level whose list is `fine`: the index of any cached
    /// map over it. The first frozen search over a level builds it and every
    /// later search or patch over the level probes it, so a level never
    /// holds two and any map over it answers the same.
    pub(crate) fn level_index(&self, fine: &Arc<[Coord]>) -> Option<Arc<dyn CoordIndex>> {
        self.map_cache.values().find(|m| Arc::ptr_eq(&m.fine, fine)).map(|m| Arc::clone(&m.index))
    }

    /// Stores a map in the cache (a fresh one, or one already shared).
    pub(crate) fn store_map(
        &mut self,
        key: MapKey,
        cached: impl Into<Arc<CachedMap>>,
    ) -> Arc<CachedMap> {
        let arc = cached.into();
        self.map_cache.insert(key, arc.clone());
        arc
    }
}

/// One leaf layer's contribution to a run, captured by the layer profiler.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Layer name.
    pub name: String,
    /// Number of input points the layer saw.
    pub input_points: usize,
    /// The stage latencies attributable to this layer invocation.
    pub timeline: Timeline,
}

impl LayerProfile {
    /// The per-stage delta between two snapshots of one timeline, as
    /// `name`'s profile entry.
    pub(crate) fn between(
        name: &str,
        input_points: usize,
        start: &Timeline,
        end: &Timeline,
    ) -> LayerProfile {
        let mut delta = Timeline::new();
        for stage in torchsparse_gpusim::Stage::ALL {
            delta.add(stage, end.stage(stage) - start.stage(stage));
        }
        LayerProfile { name: name.to_owned(), input_points, timeline: delta }
    }
}

/// Host-side framework overhead per layer operation, microseconds.
///
/// TorchSparse, SpConv, and MinkowskiEngine are all PyTorch extensions:
/// every layer pays Python dispatch, tensor bookkeeping, and launch-queue
/// management on the CPU. This fixed cost is identical across engines and
/// is what keeps measured end-to-end speedups (~1.5-1.7x, Figure 11) well
/// below the product of the per-stage gains (~2.9x matmul x 2.7x movement
/// x 4.6x mapping) — and why the small 1-frame nuScenes model runs at only
/// 45 FPS even on an RTX 3090 (Figure 14).
pub(crate) const HOST_OP_OVERHEAD_US: f64 = 50.0;

impl Context {
    /// Creates a context for a configuration on a device.
    pub fn new(config: OptimizationConfig, device: DeviceProfile) -> Context {
        crate::config::warn_unrecognised_env();
        Context {
            runtime: Runtime::new(config.threads),
            gemm: GemmModel::new(device.clone()),
            ledger: Ledger::default(),
            planner: Planner::default(),
            workloads: Vec::new(),
            record_workloads: false,
            profile_layers: false,
            config,
            device,
        }
    }

    /// Resets per-run state (cost ledger, map cache, degradation report)
    /// while keeping tuned parameters, armed faults and the deadline. Called
    /// by [`crate::Engine::run`] so that each inference is independent,
    /// exactly as maps are rebuilt per scene on a real engine. Dropping the
    /// ledger also releases every map the previous run's charges kept alive.
    pub fn begin_run(&mut self) {
        self.ledger.clear();
        self.planner.map_cache.clear();
        self.runtime.degradation.clear();
    }

    /// The prologue of every run, price, compile and compiled frame:
    /// [`Context::begin_run`], then `input` screened against the
    /// configuration's [`ValidationConfig`](crate::ValidationConfig) —
    /// repaired (owned) under `Sanitize` when it needed repairs.
    pub(crate) fn begin_frame<'a>(
        &mut self,
        input: &'a SparseTensor,
    ) -> Result<Cow<'a, SparseTensor>, CoreError> {
        self.begin_run();
        let Runtime { faults, degradation, .. } = &mut self.runtime;
        let sanitized =
            crate::validate::validate_input(input, &self.config.validation, faults, degradation)?;
        Ok(sanitized.map_or(Cow::Borrowed(input), Cow::Owned))
    }

    /// Logs one charge against the current run — the single entry point for
    /// simulated cost. Nothing is simulated here: the charge replays, in
    /// logging order, when the run's timeline is first read.
    pub fn defer(&mut self, charge: Charge) {
        self.ledger.defer(charge, &self.config);
    }

    /// Per-stage simulated latency of the current run. The first call after
    /// a run replays the run's deferred charges through the cost model;
    /// later calls return the cached result.
    pub fn timeline(&self) -> &Timeline {
        &self.ledger.cost(&self.device, &self.gemm).timeline
    }

    /// Per-layer timeline records of the current run, one entry per
    /// executed convolution, batch norm and ReLU in execution order (empty
    /// unless [`Context::profile_layers`] was on while it ran). Resolved
    /// with [`Context::timeline`].
    pub fn layer_profiles(&self) -> &[LayerProfile] {
        &self.ledger.cost(&self.device, &self.gemm).profiles
    }

    /// The grouping a layer plans with: an adaptive configuration is
    /// refined by the layer's calibrated `(epsilon, S)`, or degrades to
    /// fixed groups after a tuning failure; any other runs as configured.
    pub(crate) fn grouping_for(&self, layer: &str) -> GroupingStrategy {
        match self.config.grouping {
            GroupingStrategy::Adaptive { .. } if self.planner.grouping_fallback => {
                GroupingStrategy::Fixed
            }
            adaptive @ GroupingStrategy::Adaptive { .. } => {
                self.planner.groupings.get(layer).copied().unwrap_or(adaptive)
            }
            configured => configured,
        }
    }

    /// Fails if the context's configuration cannot run: zero-sized thread
    /// pools, resource budgets that reject every input, dataflow thresholds
    /// that can never trigger, and out-of-range adaptive-grouping
    /// parameters. Called by [`Engine::new`](crate::Engine::new) and
    /// [`Engine::with_config`](crate::Engine::with_config) so a broken
    /// configuration fails at construction, not mid-inference.
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        let invalid = |reason: &str| CoreError::InvalidConfig { reason: reason.to_owned() };
        let cfg = &self.config;
        if cfg.threads == Some(0) {
            return Err(invalid("threads must be at least 1 when set"));
        }
        if cfg.validation.max_points == Some(0) {
            return Err(invalid("validation.max_points of 0 rejects every non-empty input"));
        }
        if cfg.validation.max_grid_cells == 0 {
            return Err(invalid("validation.max_grid_cells of 0 rejects every input extent"));
        }
        if cfg.grid_cell_limit == 0 {
            return Err(invalid("grid_cell_limit of 0 makes the grid mapping strategy unusable"));
        }
        if cfg.fetch_on_demand_below == Some(0) {
            return Err(invalid(
                "fetch_on_demand_below of 0 can never trigger; use None to disable",
            ));
        }
        if let crate::config::GroupingStrategy::Adaptive { epsilon, .. } = cfg.grouping {
            if !epsilon.is_finite() || !(0.0..=1.0).contains(&epsilon) {
                return Err(invalid("adaptive grouping epsilon must be within [0, 1]"));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("device", &self.device.name)
            .field("config", &self.config)
            .field("cached_maps", &self.planner.map_cache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchsparse_coords::kernel_map::MapEntry;
    use torchsparse_gpusim::{Micros, Stage};

    fn ctx() -> Context {
        Context::new(OptimizationConfig::torchsparse(), DeviceProfile::rtx_2080ti())
    }

    fn dummy_cached() -> CachedMap {
        let coords: Arc<[Coord]> = Arc::from([Coord::new(0, 0, 0, 0)]);
        let per_offset = {
            let mut v = vec![Vec::new(); 27];
            v[13] = vec![MapEntry { input: 0, output: 0 }];
            v
        };
        CachedMap {
            map: KernelMap::from_parts(3, 1, per_offset, Default::default()).unwrap(),
            fine: Arc::clone(&coords),
            coarse: coords,
            index: Arc::new(torchsparse_coords::CoordHashMap::build(&[Coord::new(0, 0, 0, 0)]).0),
        }
    }

    #[test]
    fn map_cache_roundtrip() {
        let mut c = ctx();
        let key = MapKey { fine_stride: 1, kernel_size: 3, conv_stride: 1, dilation: 1 };
        assert!(c.planner.cached_map(key).is_none());
        c.planner.store_map(key, dummy_cached());
        assert!(c.planner.cached_map(key).is_some());
    }

    #[test]
    fn begin_run_clears_cache_and_timeline() {
        let mut c = ctx();
        let key = MapKey { fine_stride: 1, kernel_size: 3, conv_stride: 1, dilation: 1 };
        c.planner.store_map(key, dummy_cached());
        c.defer(Charge::latency(Stage::MatMul, Micros(5.0)));
        assert_eq!(c.timeline().total(), Micros(5.0));
        c.begin_run();
        assert!(c.planner.cached_map(key).is_none());
        assert_eq!(c.timeline().total(), Micros::ZERO);
    }

    #[test]
    fn begin_run_keeps_tuning() {
        let mut c = ctx();
        let tuned = GroupingStrategy::Adaptive { epsilon: 0.25, s_threshold: 100_000 };
        c.planner.groupings.insert("conv1".to_owned(), tuned);
        c.begin_run();
        assert_eq!(c.grouping_for("conv1"), tuned);
        assert_eq!(c.grouping_for("conv2"), c.config.grouping);
    }

    #[test]
    fn grouping_resolution() {
        let mut c = ctx();
        let tuned = GroupingStrategy::Adaptive { epsilon: 0.25, s_threshold: 100_000 };
        c.planner.groupings.insert("tuned".to_owned(), tuned);
        // A tuned (epsilon, S) refines an adaptive configuration only.
        c.config.grouping = GroupingStrategy::Symmetric;
        assert_eq!(c.grouping_for("tuned"), GroupingStrategy::Symmetric);
        c.config.grouping = GroupingStrategy::default_adaptive();
        assert_eq!(c.grouping_for("tuned"), tuned);
        assert_eq!(c.grouping_for("untuned"), c.config.grouping);
        // After a tuning failure adaptive layers run fixed groups, and a
        // non-adaptive configuration stands.
        c.planner.grouping_fallback = true;
        for layer in ["tuned", "untuned"] {
            assert_eq!(c.grouping_for(layer), GroupingStrategy::Fixed, "{layer}");
        }
        c.config.grouping = GroupingStrategy::Separate;
        assert_eq!(c.grouping_for("tuned"), GroupingStrategy::Separate);
    }

    #[test]
    fn debug_impl_nonempty() {
        assert!(!format!("{:?}", ctx()).is_empty());
    }

    #[test]
    fn begin_run_clears_degradation_but_keeps_armed_faults_and_deadline() {
        use crate::faults::FaultSite;
        let mut c = ctx();
        c.runtime.faults.arm(FaultSite::GridTableBuild);
        c.runtime.degradation.record(FaultSite::Fp16Overflow, "stale");
        c.runtime.deadline = Some(crate::Deadline::starting_now(std::time::Duration::ZERO));
        c.begin_run();
        assert!(c.runtime.degradation.is_empty());
        assert!(c.runtime.faults.is_armed());
        // Deadlines survive begin_run (caller-managed, like faults).
        assert!(c.runtime.deadline.is_some());
    }
}
