//! The benchmark's API allowlist, checked by the tier-1 build.
//!
//! `benchmark/` is a standalone package that the workspace build never
//! compiles, so a visibility or signature change that breaks it would
//! otherwise surface only in its own smoke run. This suite names every path
//! on the allowlist in `benchmark/README.md` with the signature the harness
//! relies on — functions as fn-pointer coercions, fields and closure-shaped
//! entry points inside a closure that is type-checked and never called — so
//! such a change fails `cargo build --all-targets` here first.

// Spelling each signature out in full is the point of this file.
#![allow(clippy::type_complexity)]

use std::sync::Arc;
use std::time::Duration;
use torchsparse::coords::delta::diff_coords;
use torchsparse::coords::downsample::{fused_output_coords, Boundary, DownsampleOutput};
use torchsparse::coords::kernel_map::search_dilated_on;
use torchsparse::coords::{Coord, CoordDelta, CoordIndex, CoordsError, KernelMap, MphfIndex};
use torchsparse::core::grouping::{plan_groups, GroupPlan};
use torchsparse::core::mapping::{build_layer_mapping, LayerMapping};
use torchsparse::core::{
    CompiledModel, CompiledSession, Context, CoreError, DeviceProfile, Engine, EnginePreset,
    GroupingStrategy, LayerWorkload, Module, OptimizationConfig, PlanCacheStats, SparseTensor,
    StreamState, ThreadPool, TuningReport,
};
use torchsparse::data::{
    geometry_static_stream, poisson_arrivals, temporal_churn_stream, SyntheticDataset,
};
use torchsparse::gpusim::{Micros, Stage, Timeline};
use torchsparse::models::{CenterPoint, MinkUNet};
use torchsparse::serve::{
    serve, HealthReport, ServeError, ServiceConfig, ServiceHandle, ServiceOutcome,
};
use torchsparse::tensor::gemm::{mm_into_packed_on, GemmOpts};
use torchsparse::tensor::{microkernel, Matrix, PackedB, TensorError};

type Frame = Result<SparseTensor, CoreError>;
type Frames = Result<Vec<SparseTensor>, CoreError>;

#[test]
fn benchmark_allowlist_resolves_with_its_signatures() {
    // Engine and compiled sessions.
    let _: fn(OptimizationConfig, DeviceProfile) -> Engine = Engine::with_config;
    let _: for<'m> fn(
        Engine,
        &'m MinkUNet,
        &SparseTensor,
    ) -> Result<CompiledSession<'m>, CoreError> = Engine::compile::<MinkUNet>;
    let _: fn(&mut Engine, &(dyn Module + 'static), &SparseTensor) -> Frame =
        Engine::run::<dyn Module>;
    let _: fn(&Engine) -> &Timeline = Engine::last_timeline;
    let _: fn(&mut Engine) -> &mut Context = Engine::context_mut;
    let _: fn(&mut CompiledSession<'static>, &SparseTensor) -> Frame = CompiledSession::execute;
    let _: fn(CompiledSession<'static>) -> (CompiledModel<'static>, StreamState) =
        CompiledSession::into_parts;
    let _: for<'a> fn(&'a CompiledSession<'static>) -> Option<&'a TuningReport> =
        CompiledSession::tuning_report;
    let _: fn(&CompiledModel<'static>, &mut StreamState, &SparseTensor) -> Frame =
        CompiledModel::execute_on;
    let _: fn(&CompiledModel<'static>) -> Result<StreamState, CoreError> =
        CompiledModel::new_stream;
    let _: for<'a> fn(&'a CompiledModel<'static>) -> Option<&'a TuningReport> =
        CompiledModel::tuning_report;
    let _: fn(&StreamState) -> PlanCacheStats = StreamState::stats;
    let _: fn(&StreamState) -> &Timeline = StreamState::last_timeline;
    let _: fn(EnginePreset) -> OptimizationConfig = EnginePreset::config;
    let _: fn() -> DeviceProfile = DeviceProfile::rtx_2080ti;

    // Models and data.
    let _: fn(f64, usize, usize, u64) -> MinkUNet = MinkUNet::with_width;
    let _: fn(usize, u64) -> CenterPoint = CenterPoint::new;
    let _: fn(f64, usize) -> SyntheticDataset = SyntheticDataset::semantic_kitti;
    let _: fn(f64, usize, usize) -> SyntheticDataset = SyntheticDataset::nuscenes;
    let _: fn(f64, usize, usize) -> SyntheticDataset = SyntheticDataset::waymo;
    let _: fn(&SyntheticDataset, u64) -> Frame = SyntheticDataset::scene;
    let _: fn(&SparseTensor, usize, f32, u64) -> Frames = geometry_static_stream;
    let _: fn(&SparseTensor, usize, f64, u64) -> Frames = temporal_churn_stream;
    let _: fn(usize, f64, u64) -> Vec<u64> = poisson_arrivals;

    // Replay probes.
    let _: fn(
        &[Coord],
        usize,
        i32,
        &OptimizationConfig,
        &DeviceProfile,
    ) -> Result<LayerMapping, CoreError> = build_layer_mapping;
    let _: fn(&[usize], bool, GroupingStrategy) -> GroupPlan = plan_groups;
    let _: fn(&GroupPlan, &[usize]) -> usize = GroupPlan::executed_rows;
    let _: fn(
        &ThreadPool,
        &[Coord],
        &dyn CoordIndex,
        usize,
        i32,
        i32,
    ) -> Result<KernelMap, CoordsError> = search_dilated_on;
    let _: fn(&[Coord]) -> Result<(MphfIndex, u64), CoordsError> = MphfIndex::build;
    let _: fn(&MphfIndex, Coord) -> (Option<u32>, u64) = <MphfIndex as CoordIndex>::query;
    let _: fn(&[Coord], usize, i32, Boundary) -> Result<DownsampleOutput, CoordsError> =
        fused_output_coords;
    let _: fn() -> Boundary = Boundary::unbounded;
    let _: fn(&dyn CoordIndex, usize, &[Coord]) -> Result<CoordDelta, CoordsError> = diff_coords;
    let _: fn(&ThreadPool, &Matrix, &PackedB, &mut Matrix, GemmOpts) -> Result<(), TensorError> =
        mm_into_packed_on;
    let _: fn(&Matrix) -> PackedB = PackedB::pack;
    let _: fn(usize) -> ThreadPool = ThreadPool::new;
    let _: fn() -> ThreadPool = ThreadPool::new_recording;
    let _: fn(&ThreadPool) -> Vec<Vec<f64>> = ThreadPool::take_trace;
    let _: fn(&Timeline, Stage) -> Micros = Timeline::stage;
    let _: &str = microkernel::active().name();

    // Fields, struct literals and the serving closure: type-checked only.
    let _ = |engine: &mut Engine, model: &CompiledModel<'_>, frame: Arc<SparseTensor>| {
        let ctx = engine.context_mut();
        ctx.record_workloads = true;
        let recorded: Vec<LayerWorkload> = std::mem::take(&mut ctx.workloads);
        let _ = recorded.iter().map(|l| (&l.map_sizes, l.submanifold, l.c_in, l.c_out));
        ctx.runtime.set_pool(Arc::new(ThreadPool::new_recording()));
        let mut config = config_default();
        config.threads = Some(2);
        let _: GroupingStrategy = config.grouping;
        let config = ServiceConfig { queue_capacity: 8, keep_outputs: true, ..Default::default() };
        let served: Result<((), ServiceOutcome), CoreError> =
            serve(model, 2, &config, |svc: &ServiceHandle<'_>| {
                let _ = svc.submit(0, 0, Arc::clone(&frame));
            });
        let (_, outcome) = served?;
        for c in &outcome.completions {
            let _: (usize, u64, Duration) = (c.stream, c.frame, c.latency);
            let _: &Result<Option<SparseTensor>, ServeError> = &c.result;
        }
        let h: &HealthReport = &outcome.health;
        let _ = (h.max_queue_depth, h.shed, h.rejected, h.retried, h.deadline_missed);
        let _ = (h.completed, h.delta_patches, h.delta_fallbacks, h.full_replans, h.plan_bytes);
        let built =
            build_layer_mapping(&[], 3, 1, &config_default(), &DeviceProfile::rtx_2080ti())?;
        let _: Vec<usize> = built.map.sizes();
        let down = fused_output_coords(&[], 2, 2, Boundary::unbounded())?;
        let _: Vec<Coord> = down.coords;
        let stats = PlanCacheStats::default();
        let _ = (stats.hits, stats.delta_patches, stats.delta_fallbacks, stats.full_replans);
        let _ = stats.plan_bytes;
        let report: Option<&TuningReport> = model.tuning_report();
        let _ = report.map(|r| (r.candidates_measured, r.policies.len()));
        Ok::<(), CoreError>(())
    };
}

fn config_default() -> OptimizationConfig {
    EnginePreset::TorchSparse.config()
}
