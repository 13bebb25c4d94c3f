//! The parallel execution runtime must be invisible in the results: for
//! every dataflow and storage precision, the engine's output is bitwise
//! identical at any worker count, workspace buffers are recycled across
//! forward passes, and fault-injection fallbacks behave exactly as they do
//! on the serial engine. A compiled hit frame's task graph is pinned too:
//! its wave and task counts may only fall.

use proptest::prelude::*;
use std::sync::Arc;
use torchsparse::coords::Coord;
use torchsparse::core::ThreadPool;
use torchsparse::core::{
    BatchNorm, Engine, EnginePreset, FaultSite, LayerOp, Module, OptimizationConfig, Precision,
    ReLU, Sequential, SparseConv3d, SparseTensor, Tracer,
};
use torchsparse::data::SyntheticDataset;
use torchsparse::gpusim::{DeviceProfile, Stage};
use torchsparse::models::MinkUNet;
use torchsparse::tensor::Matrix;

/// Thread counts every configuration is checked at; `1` is the exact
/// serial engine the others must match bit for bit.
const THREADS: [usize; 3] = [1, 2, 8];

fn tensor_from(sites: &[(i32, i32, i32)], c: usize, seed: u64) -> SparseTensor {
    let mut dedup: Vec<(i32, i32, i32)> = sites.to_vec();
    dedup.sort_unstable();
    dedup.dedup();
    let coords: Vec<Coord> = dedup.iter().map(|&(x, y, z)| Coord::new(0, x, y, z)).collect();
    let feats = Matrix::from_fn(coords.len(), c, |r, ch| {
        let v = (r as u64).wrapping_mul(0x9E37_79B9).wrapping_add(ch as u64).wrapping_mul(seed | 1);
        ((v % 1000) as f32 - 500.0) / 250.0
    });
    SparseTensor::new(coords, feats).expect("valid tensor")
}

fn model(c: usize, seed: u64) -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("conv1", c, 8, 3, 1, seed))
        .push(BatchNorm::identity("bn", 8))
        .push(ReLU::new("act"))
        .push(SparseConv3d::with_random_weights("down", 8, 8, 2, 2, seed + 1))
        .push(SparseConv3d::with_random_weights("conv2", 8, c, 3, 1, seed + 2))
}

/// The three dataflow configurations of the engine: fused
/// gather-matmul-scatter (TorchSparse), unfused per-offset baseline, and
/// fetch-on-demand (forced by an infinite threshold), which is priced only
/// and runs the unfused baseline's numerics.
fn dataflow_configs() -> Vec<(&'static str, OptimizationConfig)> {
    let fused = EnginePreset::TorchSparse.config();
    let unfused = EnginePreset::BaselineFp32.config();
    let mut fod = EnginePreset::BaselineFp32.config();
    fod.fetch_on_demand_below = Some(usize::MAX);
    vec![("fused", fused), ("unfused", unfused), ("fetch-on-demand", fod)]
}

fn output_bits<M: Module>(
    mut cfg: OptimizationConfig,
    threads: usize,
    m: &M,
    x: &SparseTensor,
) -> (Vec<Coord>, Vec<u32>) {
    cfg.threads = Some(threads);
    let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    let y = engine.run(m, x).expect("run succeeds");
    let bits = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
    (y.coords().to_vec(), bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every (dataflow, precision) pair produces bitwise identical outputs
    /// at 1, 2, and 8 worker threads.
    #[test]
    fn prop_outputs_bitwise_identical_across_thread_counts(
        sites in proptest::collection::vec((-5i32..5, -5i32..5, -5i32..5), 8..40),
        seed in 1u64..300,
    ) {
        let c = 4;
        let x = tensor_from(&sites, c, seed);
        let m = model(c, seed);
        for (dataflow, cfg) in dataflow_configs() {
            for precision in [Precision::Fp32, Precision::Fp16] {
                let mut cfg = cfg.clone();
                cfg.precision = precision;
                let reference = output_bits(cfg.clone(), 1, &m, &x);
                for threads in &THREADS[1..] {
                    let parallel = output_bits(cfg.clone(), *threads, &m, &x);
                    prop_assert!(
                        reference == parallel,
                        "{dataflow} @ {precision:?} diverges at {threads} threads"
                    );
                }
            }
        }
    }
}

/// A fixed larger scene, checked across thread counts for every dataflow at
/// the preset's native precision — a fast-failing smoke companion to the
/// property test above.
#[test]
fn fixed_scene_bitwise_identical_across_thread_counts() {
    let sites: Vec<(i32, i32, i32)> =
        (0..400).map(|i| ((i * 7) % 23 - 11, (i * 13) % 19 - 9, (i * 5) % 17 - 8)).collect();
    let x = tensor_from(&sites, 4, 99);
    let m = model(4, 99);
    for (dataflow, cfg) in dataflow_configs() {
        let reference = output_bits(cfg.clone(), 1, &m, &x);
        for threads in &THREADS[1..] {
            let parallel = output_bits(cfg.clone(), *threads, &m, &x);
            assert_eq!(reference, parallel, "{dataflow} diverges at {threads} threads");
        }
    }
}

/// FNV-1a over an output's coordinates and feature bits.
fn digest((coords, bits): &(Vec<Coord>, Vec<u32>)) -> u64 {
    let words = coords.iter().flat_map(|c| [c.batch, c.x, c.y, c.z].map(|v| v as u32));
    words
        .chain(bits.iter().copied())
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The compute kernel must be as invisible as the thread count: for every
/// dataflow and storage precision, the outputs are bitwise identical at
/// every worker count and repeat digests pinned when the scalar, portable
/// and AVX2 kernels were all checked against each other in one process.
/// The kernel is the CPU's pick (AVX2 where detected), and the suite's
/// `TORCHSPARSE_SIMD=off` pass runs the portable kernel against the same
/// digests, so the two kernels stay bit for bit interchangeable with no
/// tolerance.
#[test]
fn kernel_bitwise_invisible_across_dataflows_precisions_and_threads() {
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 7) % 21 - 10, (i * 13) % 17 - 8, (i * 5) % 15 - 7)).collect();
    let x = tensor_from(&sites, 4, 123);
    let m = model(4, 123);
    let mut digests = Vec::new();
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16] {
            let mut cfg = cfg.clone();
            cfg.precision = precision;
            let reference = output_bits(cfg.clone(), 1, &m, &x);
            for threads in &THREADS[1..] {
                let parallel = output_bits(cfg.clone(), *threads, &m, &x);
                assert_eq!(
                    reference, parallel,
                    "{dataflow} @ {precision:?} diverges at {threads} threads"
                );
            }
            digests.push(format!("{dataflow} @ {precision:?}: {:016x}", digest(&reference)));
        }
    }
    let pinned = [
        "fused @ Fp32: 762a2ff48f1b86a5",
        "fused @ Fp16: fb65e4298fdd6915",
        "unfused @ Fp32: 762a2ff48f1b86a5",
        "unfused @ Fp16: 1bf41f80ad40c328",
        "fetch-on-demand @ Fp32: 762a2ff48f1b86a5",
        "fetch-on-demand @ Fp16: 1bf41f80ad40c328",
    ];
    assert_eq!(digests, pinned, "a kernel changed the output bits");
}

/// Graceful degradation decisions are identical under the parallel
/// runtime: an armed grid-table fault falls back to the hashmap with
/// bit-exact output at 1 and 4 threads.
#[test]
fn grid_table_fault_fallback_identical_under_parallel_runtime() {
    let sites: Vec<(i32, i32, i32)> =
        (0..150).map(|i| ((i * 7) % 9, (i * 3) % 8, (i * 5) % 7)).collect();
    let x = tensor_from(&sites, 4, 3);
    let m = model(4, 3);

    let run_with = |threads: usize| {
        let mut cfg = EnginePreset::SpConv.config();
        cfg.threads = Some(threads);
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        engine.context_mut().runtime.faults.arm_count(FaultSite::GridTableBuild, 8);
        let y = engine.run(&m, &x).expect("fallback run completes");
        let degradations = engine.degradation_report().count(FaultSite::GridTableBuild);
        let bits: Vec<u32> = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        (degradations, y.coords().to_vec(), bits)
    };

    let serial = run_with(1);
    assert!(serial.0 >= 1, "fault must trigger at least one fallback");
    let parallel = run_with(4);
    assert_eq!(serial, parallel, "degradation path diverges under parallel runtime");
}

/// An injected FP16 overflow forces the same FP32 re-run — with bit-exact
/// output — at 1 and 4 threads.
#[test]
fn fp16_overflow_rerun_identical_under_parallel_runtime() {
    let sites: Vec<(i32, i32, i32)> =
        (0..150).map(|i| ((i * 7) % 9, (i * 3) % 8, (i * 5) % 7)).collect();
    let x = tensor_from(&sites, 4, 5);
    let m = model(4, 5);

    let run_with = |threads: usize| {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.threads = Some(threads);
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        engine.context_mut().runtime.faults.arm_count(FaultSite::Fp16Overflow, 1);
        let y = engine.run(&m, &x).expect("FP32 re-run completes");
        let degradations = engine.degradation_report().count(FaultSite::Fp16Overflow);
        let bits: Vec<u32> = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        (degradations, y.coords().to_vec(), bits)
    };

    let serial = run_with(1);
    assert!(serial.0 >= 1, "fault must trigger the FP32 re-run");
    let parallel = run_with(4);
    assert_eq!(serial, parallel, "overflow re-run diverges under parallel runtime");
}

/// Scene scale of the traced frame (SemanticKITTI-like).
const SCALE: f64 = 0.01;
/// Pool waves (one per `ThreadPool::run`, each a barrier) a compiled hit
/// frame of the MinkUNet (0.5x) below may run: 84 while the center
/// shortcut ran as a GEMM wave of its own, before it moved into each
/// convolution's fused output tasks.
const MAX_HIT_WAVES: usize = 51;
/// Pool tasks that frame may run (1081 with the separate center GEMM).
const MAX_HIT_TASKS: usize = 644;

/// A compiled MinkUNet (0.5x) hit frame on a SemanticKITTI-like scene is a
/// fixed task graph: traced on a recording pool, it runs at most
/// [`MAX_HIT_WAVES`] waves of at most [`MAX_HIT_TASKS`] tasks — the counts
/// the executor has had since each convolution became one wave — and
/// searches no maps. Unlike a timed parallel fraction,
/// the counts are exact on any host; a frame whose waves grow has grown a
/// serial op boundary.
#[test]
fn compiled_hit_frame_runs_a_bounded_task_graph_and_no_mapping() {
    let x = SyntheticDataset::semantic_kitti(SCALE, 4).scene(42).expect("scene");
    let net = MinkUNet::with_width(0.5, 4, 19, 42);
    let mut cfg = OptimizationConfig::torchsparse();
    cfg.threads = Some(1);
    cfg.autotune_policies = false;
    let mut session =
        Engine::with_config(cfg, DeviceProfile::rtx_2080ti()).compile(&net, &x).expect("compile");
    session.execute(&x).expect("warm-up hit");
    let pool = Arc::new(ThreadPool::new_recording());
    session.context_mut().runtime.set_pool(pool.clone());
    session.execute(&x).expect("traced hit");
    let trace = pool.take_trace();
    let (waves, tasks) = (trace.len(), trace.iter().map(Vec::len).sum::<usize>());
    assert!(waves <= MAX_HIT_WAVES, "{waves} waves per hit frame (at most {MAX_HIT_WAVES})");
    assert!(tasks <= MAX_HIT_TASKS, "{tasks} tasks per hit frame (at most {MAX_HIT_TASKS})");
    // Every convolution runs on the pool.
    let mut tracer = Tracer::new();
    net.trace(&mut tracer).expect("MinkUNet traces");
    let convs = tracer.ops().iter().filter(|op| matches!(op, LayerOp::Conv(_))).count();
    assert!(waves >= convs, "{waves} waves for {convs} convolutions");
    assert_eq!(session.stats().hits, 2);
    assert_eq!(session.last_timeline().stage(Stage::Mapping).as_f64(), 0.0, "a hit maps nothing");
}
