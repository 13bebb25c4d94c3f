//! The engine's one host executor against the scalar oracle: for every
//! dataflow, storage precision and worker count, a convolution layer run
//! through `Engine::run` is bitwise identical to the four-loop
//! transcription of Algorithm 2 in `tests/support/` — which knows nothing
//! of `FusedOrder`, chunks, strip kernels or the pool. The engine runs the
//! kernel the CPU picks (AVX2 where detected); the suite's
//! `TORCHSPARSE_SIMD=off` pass holds the portable kernel to the same
//! reference.

#[path = "support/layer_reference.rs"]
mod layer_reference;

use layer_reference::layer_reference;
use torchsparse::coords::offsets::kernel_offsets;
use torchsparse::coords::Coord;
use torchsparse::core::{
    Engine, EnginePreset, OptimizationConfig, Precision, SparseConv3d, SparseTensor,
};
use torchsparse::gpusim::{DeviceProfile, Micros, Stage};
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

/// The three dataflow configurations of the engine: grouped
/// gather-matmul-scatter (TorchSparse), ungrouped per-offset baseline, and
/// fetch-on-demand (forced by an infinite threshold), which is priced only
/// and runs the ungrouped baseline's numerics.
fn dataflow_configs() -> Vec<(&'static str, OptimizationConfig)> {
    let grouped = EnginePreset::TorchSparse.config();
    let separate = EnginePreset::BaselineFp32.config();
    let mut fod = EnginePreset::BaselineFp32.config();
    fod.fetch_on_demand_below = Some(usize::MAX);
    vec![("grouped", grouped), ("separate", separate), ("fetch-on-demand", fod)]
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `conv` on `x` under `cfg` must equal the scalar reference at 1, 2 and 8
/// worker threads.
fn assert_layer_matches_reference(
    what: &str,
    conv: &SparseConv3d,
    x: &SparseTensor,
    cfg: &OptimizationConfig,
) {
    let expect = bits(&layer_reference(conv, x, cfg));
    for threads in THREADS {
        let mut cfg = cfg.clone();
        cfg.threads = Some(threads);
        let y = Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
            .run(conv, x)
            .expect("run succeeds");
        assert_eq!(
            bits(y.feats()),
            expect,
            "{what}: engine diverges from the scalar reference at {threads} threads"
        );
    }
}

/// 3 dataflows x 2 precisions x 1/2/8 threads, on a
/// submanifold, a strided, and a channel-narrowing layer: the engine equals
/// the scalar reference bit for bit.
#[test]
fn fused_bitwise_identical_across_dataflows_precisions_kernels_threads() {
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 7) % 21 - 10, (i * 13) % 17 - 8, (i * 5) % 15 - 7)).collect();
    let layers = [
        (SparseConv3d::with_random_weights("conv1", 4, 8, 3, 1, 41), tensor_from(&sites, 4, 41)),
        (SparseConv3d::with_random_weights("down", 8, 8, 2, 2, 42), tensor_from(&sites, 8, 42)),
        (SparseConv3d::with_random_weights("conv2", 8, 4, 3, 1, 43), tensor_from(&sites, 8, 43)),
    ];
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16] {
            let mut cfg = cfg.clone();
            cfg.precision = precision;
            for (conv, x) in &layers {
                let what = format!("{dataflow} @ {precision:?}, layer {}", conv.layer_name());
                assert_layer_matches_reference(&what, conv, x, &cfg);
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
/// fed half-zero features that must stay invisible — bitwise equal to the
/// scalar reference, which skips nothing, in each dataflow x 1/2/8
/// threads — and a single layer must still equal the dense volumetric
/// oracle.
#[test]
fn half_zero_activations_bitwise_identical_across_routes_kernels_threads() {
    let sites: Vec<(i32, i32, i32)> =
        (0..90).map(|i| ((i * 7) % 6 + 1, (i * 5) % 6 + 1, (i * 11) % 6 + 1)).collect();
    let x = post_relu_tensor(&sites, 32);
    let zeros = x.feats().as_slice().iter().filter(|v| **v == 0.0).count();
    assert!((0.35..0.6).contains(&(zeros as f64 / x.feats().as_slice().len() as f64)));
    assert!(x.feats().as_slice().iter().any(|v| v.to_bits() == (-0.0f32).to_bits()));

    let layers = [
        SparseConv3d::with_random_weights("c1", 32, 64, 3, 1, 3),
        SparseConv3d::with_random_weights("down", 64, 48, 2, 2, 4),
        SparseConv3d::with_random_weights("c2", 48, 16, 3, 1, 5),
        SparseConv3d::with_random_weights("c3", 16, 20, 3, 1, 6),
    ];
    for (dataflow, cfg) in dataflow_configs() {
        for conv in &layers {
            let input = post_relu_tensor(&sites, conv.c_in());
            let what = format!("{dataflow}, layer {}", conv.layer_name());
            assert_layer_matches_reference(&what, conv, &input, &cfg);
        }
    }

    // One 32 -> 32 submanifold layer against the dense reference, at FP32.
    let conv = SparseConv3d::with_random_weights("oracle", 32, 32, 3, 1, 7);
    let mut dense = DenseVolume::zeros([8, 8, 8], 32);
    for (i, c) in x.coords().iter().enumerate() {
        dense.set([c.x as usize, c.y as usize, c.z as usize], x.feats().row(i));
    }
    let weights = ConvWeights::new(3, 32, 32, conv.weights()).expect("weights");
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

/// Fetch-on-demand is a price, not a route: forcing it onto the grouped
/// and the separate configuration leaves their output bits as they are,
/// at both executed precisions and on 1 and 3 threads, while the timeline
/// still charges the dataflow — gather and matmul, no scatter.
#[test]
fn forced_fetch_on_demand_runs_the_grouped_route_and_prices_fetch_on_demand() {
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 7) % 21 - 10, (i * 13) % 17 - 8, (i * 5) % 15 - 7)).collect();
    let conv = SparseConv3d::with_random_weights("conv1", 8, 16, 3, 1, 47);
    let x = tensor_from(&sites, 8, 47);
    for preset in [EnginePreset::TorchSparse, EnginePreset::BaselineFp32] {
        for precision in [Precision::Fp32, Precision::Fp16] {
            for threads in [1, 3] {
                let run = |fetch_on_demand_below: Option<usize>| {
                    let cfg = OptimizationConfig {
                        precision,
                        threads: Some(threads),
                        fetch_on_demand_below,
                        ..preset.config()
                    };
                    let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
                    let y = engine.run(&conv, &x).expect("run succeeds");
                    (bits(y.feats()), engine.last_timeline().clone())
                };
                let what = format!("{preset:?} @ {precision:?}, {threads} threads");
                let (grouped, priced_grouped) = run(None);
                let (forced, priced_forced) = run(Some(usize::MAX));
                assert_eq!(forced, grouped, "{what}: forcing fetch-on-demand moved the bits");
                assert!(priced_grouped.stage(Stage::Scatter) > Micros::ZERO, "{what}");
                assert!(priced_forced.stage(Stage::Gather) > Micros::ZERO, "{what}");
                assert!(priced_forced.stage(Stage::MatMul) > Micros::ZERO, "{what}");
                assert_eq!(priced_forced.stage(Stage::Scatter), Micros::ZERO, "{what}");
            }
        }
    }
}
