//! The fused gather–GEMM–scatter executor must be invisible in the
//! results: for every dataflow, storage precision, SIMD policy, and worker
//! count, running with `fused_execution` on is bitwise identical to the
//! materialized gather/psum buffer path — while taking no movement
//! workspace buffers at all.

use torchsparse::coords::offsets::kernel_offsets;
use torchsparse::coords::Coord;
use torchsparse::core::{
    BatchNorm, Engine, EnginePreset, Module, OptimizationConfig, Precision, ReLU, Sequential,
    SimdPolicy, SparseConv3d, SparseTensor,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::dense::{submanifold_conv3d_reference, ConvWeights, DenseVolume};
use torchsparse::tensor::Matrix;

/// Worker counts every configuration is checked at; `1` is the exact
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

/// A small net covering submanifold, strided, and channel-changing convs.
fn model(c: usize, seed: u64) -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("conv1", c, 8, 3, 1, seed))
        .push(BatchNorm::identity("bn", 8))
        .push(ReLU::new("act"))
        .push(SparseConv3d::with_random_weights("down", 8, 8, 2, 2, seed + 1))
        .push(SparseConv3d::with_random_weights("conv2", 8, c, 3, 1, seed + 2))
}

/// The three dataflow configurations of the engine: grouped
/// gather-matmul-scatter (TorchSparse), ungrouped per-offset baseline, and
/// fetch-on-demand (forced by an infinite threshold).
fn dataflow_configs() -> Vec<(&'static str, OptimizationConfig)> {
    let grouped = EnginePreset::TorchSparse.config();
    let separate = EnginePreset::BaselineFp32.config();
    let mut fod = EnginePreset::BaselineFp32.config();
    fod.fetch_on_demand_below = Some(usize::MAX);
    vec![("grouped", grouped), ("separate", separate), ("fetch-on-demand", fod)]
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

/// Whether the `TORCHSPARSE_FUSED` environment override is forcing the
/// unfused path (the verify recipe's A/B suite does this), which makes
/// workspace-avoidance assertions meaningless.
fn forced_unfused() -> bool {
    std::env::var("TORCHSPARSE_FUSED")
        .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false"))
}

/// 3 dataflows x 3 precisions x 3 SIMD policies: the fused and unfused
/// executors agree bit for bit at 1, 2, and 8 worker threads.
#[test]
fn fused_bitwise_identical_across_dataflows_precisions_kernels_threads() {
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 7) % 21 - 10, (i * 13) % 17 - 8, (i * 5) % 15 - 7)).collect();
    let x = tensor_from(&sites, 4, 41);
    let m = model(4, 41);
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            for policy in [SimdPolicy::Scalar, SimdPolicy::Portable, SimdPolicy::Auto] {
                let mut reference: Option<(Vec<Coord>, Vec<u32>)> = None;
                for fused in [false, true] {
                    for threads in THREADS {
                        let mut cfg = cfg.clone();
                        cfg.precision = precision;
                        cfg.simd = policy;
                        cfg.fused_execution = fused;
                        let out = output_bits(cfg, threads, &m, &x);
                        match &reference {
                            None => reference = Some(out),
                            Some(r) => assert_eq!(
                                r, &out,
                                "{dataflow} @ {precision:?}/{policy:?} diverges with \
                                 fused={fused} at {threads} threads"
                            ),
                        }
                    }
                }
            }
        }
    }
}

/// Post-ReLU activations — what every conv after the first actually reads:
/// about half the values are exact zeros, a few of them `-0.0`; channel 0
/// stays positive so every site is occupied for the dense oracle.
fn post_relu_tensor(sites: &[(i32, i32, i32)], c: usize) -> SparseTensor {
    let x = tensor_from(sites, c, 29);
    let feats = Matrix::from_fn(x.len(), c, |r, ch| {
        let v = x.feats()[(r, ch)];
        if ch == 0 {
            v.abs() + 0.25
        } else if v > 0.0 {
            v
        } else if (r + ch) % 5 == 0 {
            -0.0
        } else {
            0.0
        }
    });
    x.with_feats(feats).expect("same shape")
}

/// The AVX2 strip kernel skips zero activations as work, not as a branch;
/// on wide layers (every strip width: 4, 3, 1 panels and a ragged tail)
/// fed half-zero features that must stay invisible — bitwise, within each
/// dataflow, across fused / buffered route x SIMD policy x 1/2/8 threads —
/// and a single layer must still equal the dense volumetric oracle.
#[test]
fn half_zero_activations_bitwise_identical_across_routes_kernels_threads() {
    let sites: Vec<(i32, i32, i32)> =
        (0..90).map(|i| ((i * 7) % 6 + 1, (i * 5) % 6 + 1, (i * 11) % 6 + 1)).collect();
    let x = post_relu_tensor(&sites, 32);
    let zeros = x.feats().as_slice().iter().filter(|v| **v == 0.0).count();
    assert!((0.35..0.6).contains(&(zeros as f64 / x.feats().as_slice().len() as f64)));
    assert!(x.feats().as_slice().iter().any(|v| v.to_bits() == (-0.0f32).to_bits()));

    let m = Sequential::new("wide")
        .push(SparseConv3d::with_random_weights("c1", 32, 64, 3, 1, 3))
        .push(ReLU::new("r1"))
        .push(SparseConv3d::with_random_weights("down", 64, 48, 2, 2, 4))
        .push(ReLU::new("r2"))
        .push(SparseConv3d::with_random_weights("c2", 48, 16, 3, 1, 5))
        .push(ReLU::new("r3"))
        .push(SparseConv3d::with_random_weights("c3", 16, 20, 3, 1, 6));
    for (dataflow, cfg) in dataflow_configs() {
        let mut reference: Option<(Vec<Coord>, Vec<u32>)> = None;
        for fused in [false, true] {
            for policy in [SimdPolicy::Scalar, SimdPolicy::Portable, SimdPolicy::Auto] {
                for threads in THREADS {
                    let mut cfg = cfg.clone();
                    cfg.simd = policy;
                    cfg.fused_execution = fused;
                    let out = output_bits(cfg, threads, &m, &x);
                    match &reference {
                        None => reference = Some(out),
                        Some(r) => assert_eq!(
                            r, &out,
                            "{dataflow} diverges at fused={fused} {policy:?} {threads} threads"
                        ),
                    }
                }
            }
        }
    }

    // One 32 -> 32 submanifold layer against the dense reference, on the
    // product route (fused, auto-detected kernel), at FP32.
    let conv = SparseConv3d::with_random_weights("oracle", 32, 32, 3, 1, 7);
    let mut dense = DenseVolume::zeros([8, 8, 8], 32);
    for (i, c) in x.coords().iter().enumerate() {
        dense.set([c.x as usize, c.y as usize, c.z as usize], x.feats().row(i));
    }
    let weights = ConvWeights::new(3, 32, 32, conv.weights().to_vec()).expect("weights");
    let expect =
        submanifold_conv3d_reference(&dense, &weights, &kernel_offsets(3).expect("offsets"));
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.precision = Precision::Fp32;
    let y = Engine::with_config(cfg, DeviceProfile::rtx_2080ti()).run(&conv, &x).expect("run");
    for (i, c) in y.coords().iter().enumerate() {
        let d = expect.at([c.x as usize, c.y as usize, c.z as usize]);
        for (ch, &v) in y.feats().row(i).iter().enumerate() {
            assert!((v - d[ch]).abs() < 1e-3, "{c} channel {ch}: sparse {v} dense {}", d[ch]);
        }
    }
}

/// Fused forward passes never touch the workspace arena: where the
/// buffered path takes gather/psum (and fetch-on-demand scratch) buffers
/// every layer, the fused executor streams map rows straight through
/// register tiles — fresh allocations *and* recycled takes both stay at
/// zero, first pass and steady state alike. Scatter metadata is equally
/// plan-time-only: the producer ordering lives in the frozen `FusedOrder`,
/// so no engine pass may fall back to an on-the-spot rebuild.
#[test]
fn fused_passes_take_no_movement_workspaces() {
    if forced_unfused() {
        return; // this suite run is explicitly exercising the unfused path
    }
    let sites: Vec<(i32, i32, i32)> =
        (0..200).map(|i| ((i * 3) % 13 - 6, (i * 11) % 15 - 7, (i * 7) % 11 - 5)).collect();
    let x = tensor_from(&sites, 4, 7);
    let m = model(4, 7);
    let fallbacks_before = torchsparse::core::dataflow::scatter_fallback_builds();
    for (dataflow, cfg) in dataflow_configs() {
        let mut cfg = cfg.clone();
        cfg.fused_execution = true;
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        engine.run(&m, &x).expect("first pass");
        engine.run(&m, &x).expect("second pass");
        let ws = &engine.context().runtime.workspaces;
        assert_eq!(
            ws.fresh_allocations, 0,
            "{dataflow}: fused passes must not allocate gather/psum buffers"
        );
        assert_eq!(
            ws.total_takes(),
            0,
            "{dataflow}: fused passes must not take workspace buffers at all"
        );
    }
    assert_eq!(
        torchsparse::core::dataflow::scatter_fallback_builds(),
        fallbacks_before,
        "engine passes must reuse plan-time scatter metadata, not rebuild it per call"
    );
}

/// The unfused scatter also runs entirely on plan-time metadata: a parallel
/// buffered pass (which before this ordering existed rebuilt per-output
/// producer lists every call) triggers zero fallback builds.
#[test]
fn unfused_scatter_reuses_plan_time_metadata() {
    let sites: Vec<(i32, i32, i32)> =
        (0..200).map(|i| ((i * 5) % 13 - 6, (i * 9) % 15 - 7, (i * 7) % 11 - 5)).collect();
    let x = tensor_from(&sites, 4, 11);
    let m = model(4, 11);
    let fallbacks_before = torchsparse::core::dataflow::scatter_fallback_builds();
    for (_, cfg) in dataflow_configs() {
        let mut cfg = cfg.clone();
        cfg.fused_execution = false;
        cfg.threads = Some(4);
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        engine.run(&m, &x).expect("first pass");
        engine.run(&m, &x).expect("second pass");
    }
    assert_eq!(
        torchsparse::core::dataflow::scatter_fallback_builds(),
        fallbacks_before,
        "unfused scatter must stream the frozen FusedOrder, not rebuild producer lists"
    );
}
