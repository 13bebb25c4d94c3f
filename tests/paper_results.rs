//! The paper's evaluation, in shape. The experiment binaries of
//! `crates/bench` print every table and figure at full scale (checked in
//! under `results/`); this suite prices the same experiments, through the
//! same harness code, on scenes small enough for a debug build, and asserts
//! the shape each figure reports — the shapes that hold at both scales.

use torchsparse::core::{DeviceProfile, Engine, EnginePreset, Precision};
use torchsparse::gpusim::{GemmModel, Stage};
use torchsparse::models::BenchmarkModel;
use torchsparse_bench::{
    batched_matmul_latency, batching_layer, build_model, data_movement_ladder, dataset_for,
    mapping_ladder, measure, scenes, BenchArgs, Specialization, BATCH_GROUP_SIZES,
};

/// Scene seed of every experiment binary.
const SEED: u64 = 42;

/// Figure 11: in every model x GPU cell TorchSparse has the lowest latency
/// of the four systems, and on the two RTX GPUs SpConv (FP16) the second
/// lowest. (On the GTX 1080Ti SpConv is second only at the binary's scale:
/// on scenes this small MinkowskiEngine's fetch-on-demand dataflow
/// overtakes it on the small MinkUNets and on Waymo 1f.)
#[test]
fn figure11_torchsparse_first_in_every_cell_and_spconv_second_on_rtx() {
    let systems = EnginePreset::figure11_systems();
    for bm in BenchmarkModel::ALL {
        let inputs = scenes(&dataset_for(bm, FIGURE11_SCALE), 1, SEED).expect("scene");
        let model = build_model(bm, SEED);
        for device in DeviceProfile::evaluation_devices() {
            let mut latency: Vec<(f64, EnginePreset)> = systems
                .iter()
                .map(|&preset| {
                    let mut engine = Engine::new(preset, device.clone());
                    let t = measure(&mut engine, model.as_ref(), &inputs).expect("price");
                    (t.total().as_f64(), preset)
                })
                .collect();
            latency.sort_by(|a, b| a.0.total_cmp(&b.0));
            let cell = format!("{} on {}: {latency:?}", bm.name(), device.name);
            assert_eq!(latency[0].1, EnginePreset::TorchSparse, "{cell}");
            if device.name != DeviceProfile::gtx_1080ti().name {
                assert_eq!(latency[1].1, EnginePreset::SpConvFp16, "{cell}");
            }
        }
    }
}

/// Figure 11's scene scale (the binary's is 0.5).
const FIGURE11_SCALE: f64 = 0.02;

/// Table 1: the grouping tuned for the configuration a model executes on —
/// dataset, model width or GPU — has the lower matmul latency, in all six
/// cells of the three 2x2 matrices.
#[test]
fn table1_every_diagonal_cell_wins() {
    let args = BenchArgs { scale: TABLE1_SCALE, scenes: 2, seed: SEED, rest: Vec::new() };
    let prepare = |bm, device, label| {
        Specialization::prepare(bm, device, &args, label).expect("specialization")
    };
    let (sk, ns) = (BenchmarkModel::MinkUNetFullSemanticKitti, BenchmarkModel::MinkUNetNuScenes1);
    let matrices = [
        (
            prepare(sk, DeviceProfile::rtx_2080ti(), "SK"),
            prepare(ns, DeviceProfile::rtx_2080ti(), "NS"),
        ),
        (
            prepare(sk, DeviceProfile::rtx_2080ti(), "1.0x"),
            prepare(BenchmarkModel::MinkUNetHalfSemanticKitti, DeviceProfile::rtx_2080ti(), "0.5x"),
        ),
        (
            prepare(ns, DeviceProfile::rtx_2080ti(), "2080Ti"),
            prepare(ns, DeviceProfile::gtx_1080ti(), "1080Ti"),
        ),
    ];
    for (a, b) in &matrices {
        for (exec, own, other) in [(a, a, b), (b, b, a)] {
            let (_, specialized) = exec.evaluate(own);
            let (_, transferred) = exec.evaluate(other);
            assert!(
                specialized <= transferred,
                "executing on {}: own tuning {specialized:.1} us vs {}'s {transferred:.1} us",
                exec.label,
                other.label
            );
        }
    }
}

/// Table 1's scene scale (the binary's is 0.8).
const TABLE1_SCALE: f64 = 0.1;

/// Table 3: storing features in FP16 speeds gather + scatter up by about
/// 1.3x over FP32 (the paper: 1.32x), and vectorized access by about 1.9x
/// (1.93x), each within [`TABLE3_TOLERANCE`]; every later optimization
/// only adds to it. Both ratios grow with the scene as the working set
/// outgrows the L2: 1.20x / 1.66x here, 1.33x / 1.85x at the binary's
/// scale.
#[test]
fn table3_fp16_and_vectorized_data_movement_speedups() {
    let inputs =
        scenes(&dataset_for(BenchmarkModel::MinkUNetFullSemanticKitti, TABLE3_SCALE), 1, SEED)
            .expect("scene");
    let model = build_model(BenchmarkModel::MinkUNetFullSemanticKitti, SEED);
    let movement: Vec<f64> = data_movement_ladder()
        .into_iter()
        .map(|(_, cfg)| {
            let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
            let t = measure(&mut engine, model.as_ref(), &inputs).expect("price");
            t.stage(Stage::Gather).as_f64() + t.stage(Stage::Scatter).as_f64()
        })
        .collect();
    let speedup: Vec<f64> = movement.iter().map(|m| movement[0] / m).collect();
    for (step, paper) in [(1, 1.32), (2, 1.93)] {
        let ratio = speedup[step] / paper;
        assert!(
            (ratio - 1.0).abs() <= TABLE3_TOLERANCE,
            "step {step}: {:.2}x vs paper {paper}x",
            speedup[step]
        );
    }
    assert!(speedup.windows(2).all(|w| w[1] >= w[0]), "{speedup:?}");
}

/// Table 3's scene scale (the binary's is 1.0).
const TABLE3_SCALE: f64 = 0.1;
/// Relative tolerance on Table 3's FP16 and vectorized speedups against the
/// paper's.
const TABLE3_TOLERANCE: f64 = 0.15;

/// §4.3.1 (`ablation_int8`): INT8 features speed gather up beyond FP16,
/// but scatter still reduces at 16 bits, so the end-to-end gain over FP16
/// is marginal — under [`INT8_MARGINAL_GAIN`]. INT8 is priced, never run,
/// so this is its whole contract.
///
/// Scatter moves the same 16-bit rows at both precisions, yet its time is
/// not FP16's bit for bit: the simulated L2 carries state from each
/// layer's gather into its scatter, and INT8's smaller gather leaves more
/// of the output rows resident (here 772.2 µs against 773.5 µs). It stays
/// within [`INT8_SCATTER_TOLERANCE`] of FP16's.
#[test]
fn ablation_int8_gain_over_fp16_is_marginal() {
    let bm = BenchmarkModel::MinkUNetFullSemanticKitti;
    let inputs = scenes(&dataset_for(bm, INT8_SCALE), 1, SEED).expect("scene");
    let model = build_model(bm, SEED);
    let [fp16, int8] = [Precision::Fp16, Precision::Int8].map(|precision| {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.precision = precision;
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        measure(&mut engine, model.as_ref(), &inputs).expect("price")
    });
    let ratio = |s: Stage| int8.stage(s).as_f64() / fp16.stage(s).as_f64();
    let scatter = ratio(Stage::Scatter);
    assert!((scatter - 1.0).abs() <= INT8_SCATTER_TOLERANCE, "INT8 / FP16 scatter: {scatter}");
    assert!(ratio(Stage::Gather) < 1.0, "INT8 / FP16 gather: {}", ratio(Stage::Gather));
    let gain = fp16.total().as_f64() / int8.total().as_f64();
    assert!((1.0..INT8_MARGINAL_GAIN).contains(&gain), "INT8 over FP16: {gain:.3}x");
}

/// The §4.3.1 scene scale (the binary's is 0.6).
const INT8_SCALE: f64 = 0.1;
/// The largest end-to-end speedup of INT8 over FP16 that still reads as
/// marginal. `results/ablation_int8.txt` reads 1.80x against FP16's 1.68x
/// over FP32, a 1.07x gain (1.03x on this scene); the bound allows twice
/// that and no more.
const INT8_MARGINAL_GAIN: f64 = 1.15;
/// How far INT8's Scatter stage may stray from FP16's (0.17% on this
/// scene).
const INT8_SCATTER_TOLERANCE: f64 = 0.01;

/// Figure 13: each mapping optimization's step speedup lies within 15% of
/// the paper's (grid 1.6x, fused downsample 1.5x, simplified control logic
/// 1.8x, symmetric map reuse 1.1x).
#[test]
fn figure13_each_mapping_step_within_15_percent_of_the_paper() {
    let bm = BenchmarkModel::CenterPointWaymo3;
    let inputs = scenes(&dataset_for(bm, FIGURE13_SCALE), 1, SEED).expect("scene");
    let model = build_model(bm, SEED);
    let mapping: Vec<f64> = mapping_ladder()
        .into_iter()
        .map(|(_, cfg)| {
            let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
            measure(&mut engine, model.as_ref(), &inputs)
                .expect("price")
                .stage(Stage::Mapping)
                .as_f64()
        })
        .collect();
    let steps: Vec<f64> = mapping.windows(2).map(|w| w[0] / w[1]).collect();
    for (step, paper) in steps.iter().zip([1.6, 1.5, 1.8, 1.1]) {
        assert!(
            (step / paper - 1.0).abs() <= 0.15,
            "{steps:?} vs the paper's 1.6 / 1.5 / 1.8 / 1.1"
        );
    }
}

/// Figure 13's scene scale (the binary's is 0.4).
const FIGURE13_SCALE: f64 = 0.02;

/// Figure 7: batching more offsets per GEMM never slows the heaviest early
/// submanifold layer's matmuls down, and the largest group is the fastest.
#[test]
fn figure7_batching_speedup_grows_with_group_size() {
    let bm = BenchmarkModel::MinkUNetFullSemanticKitti;
    let input = dataset_for(bm, FIGURE7_SCALE).scene(SEED).expect("scene");
    let model = build_model(bm, SEED);
    let (layer, sizes) = batching_layer(model.as_ref(), &input).expect("price").expect("layer");
    let gemm = GemmModel::new(DeviceProfile::rtx_2080ti());
    let latency: Vec<f64> = BATCH_GROUP_SIZES
        .iter()
        .map(|&g| batched_matmul_latency(&sizes, layer.c_in, layer.c_out, g, &gemm).as_f64())
        .collect();
    assert!(latency.windows(2).all(|w| w[1] <= w[0]), "{latency:?}");
}

/// Figure 7's scene scale (the binary's is 1.0).
const FIGURE7_SCALE: f64 = 0.05;
