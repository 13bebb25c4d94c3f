//! Deterministic fault injection: for every injectable site the engine must
//! complete through its documented fallback, leave evidence in the
//! degradation report, and — where the fallback is exact — produce the same
//! output as a fault-free run.

use torchsparse::coords::Coord;
use torchsparse::core::tuning::tune_engine;
use torchsparse::core::{
    Engine, EnginePreset, FaultSite, GroupingStrategy, Precision, ReLU, Sequential, SparseConv3d,
    SparseTensor, ValidationConfig,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::Matrix;

fn scene(seed: i32) -> SparseTensor {
    let coords: Vec<Coord> = (0..64)
        .map(|i| Coord::new(0, (i * 7 + seed) % 9, (i * 3) % 8, (i * 5 + seed) % 7))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let n = coords.len();
    SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r + 2 * c) % 5) as f32 - 1.5))
        .expect("valid scene")
}

fn model() -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("conv1", 4, 8, 3, 1, 21))
        .push(ReLU::new("act"))
        .push(SparseConv3d::with_random_weights("conv2", 8, 4, 3, 1, 22))
}

#[test]
fn grid_table_fault_falls_back_to_hashmap_with_identical_output() {
    let input = scene(0);
    let m = model();

    let mut clean = Engine::new(EnginePreset::SpConv, DeviceProfile::rtx_2080ti());
    let expected = clean.run(&m, &input).expect("clean run");
    assert!(clean.degradation_report().is_empty());

    let mut faulty = Engine::new(EnginePreset::SpConv, DeviceProfile::rtx_2080ti());
    faulty.context_mut().runtime.faults.arm_count(FaultSite::GridTableBuild, 8);
    let out = faulty.run(&m, &input).expect("fallback run completes");

    assert!(faulty.degradation_report().count(FaultSite::GridTableBuild) >= 1);
    // The hashmap fallback builds the identical kernel map, so the output
    // is bit-exact.
    assert_eq!(expected.coords(), out.coords());
    assert_eq!(expected.feats().max_abs_diff(out.feats()).expect("same shape"), 0.0);
}

#[test]
fn fp16_overflow_fault_reruns_layer_in_fp32() {
    let input = scene(1);
    let m = model();

    let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    assert_eq!(e.context().config.precision, Precision::Fp16);
    e.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
    let out = e.run(&m, &input).expect("degraded run completes");

    assert!(e.degradation_report().count(FaultSite::Fp16Overflow) >= 1);
    assert!(out.feats().is_finite(), "FP32 re-run must remove the injected infinity");
    // The engine's configured precision is restored after the re-run.
    assert_eq!(e.context().config.precision, Precision::Fp16);
}

#[test]
fn kernel_map_cache_fault_forces_rebuild_with_identical_output() {
    let input = scene(2);
    let m = model();

    let mut clean = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    let expected = clean.run(&m, &input).expect("clean run");

    // conv2 reuses conv1's submanifold map; the armed fault invalidates
    // that cache hit and forces a rebuild.
    let mut faulty = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    faulty.context_mut().runtime.faults.arm(FaultSite::KernelMapCache);
    let out = faulty.run(&m, &input).expect("rebuild run completes");

    assert!(faulty.degradation_report().count(FaultSite::KernelMapCache) >= 1);
    assert_eq!(expected.coords(), out.coords());
    let diff = expected.feats().max_abs_diff(out.feats()).expect("same shape");
    assert!(diff < 1e-6, "rebuilt map changed the result by {diff}");
}

#[test]
fn resource_budget_fault_sheds_points_under_sanitize() {
    let input = scene(3);
    let m = model();

    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.precision = Precision::Fp32;
    cfg.validation = ValidationConfig::sanitize();
    let mut e = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    e.context_mut().runtime.faults.arm(FaultSite::ResourceBudget);
    let out = e.run(&m, &input).expect("shed run completes");

    assert!(e.degradation_report().count(FaultSite::ResourceBudget) >= 1);
    // Half the input was treated as the available budget.
    assert_eq!(out.len(), input.len() / 2);
    assert!(out.feats().is_finite());
}

#[test]
fn group_tuning_fault_degrades_engine_but_inference_continues() {
    let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    e.context_mut().runtime.faults.arm(FaultSite::GroupTuning);
    let report =
        tune_engine(&mut e, &model(), &[scene(4)], None).expect("tuning degrades, not errors");

    assert!(report.degraded);
    assert!(report.selected.is_empty());
    assert!(e.degradation_report().count(FaultSite::GroupTuning) >= 1);

    let out = e.run(&model(), &scene(5)).expect("fixed-grouping inference");
    assert!(!out.is_empty());
    // The fallback outlives the engine: a session compiled from it plans
    // fixed groups for every convolution.
    let m = model();
    let session = e.compile(&m, &scene(5)).expect("compile");
    let policies = &session.tuning_report().expect("compile-time grouping").policies;
    assert!(!policies.is_empty());
    assert!(policies.values().all(|g| *g == GroupingStrategy::Fixed), "{policies:?}");
}

#[test]
fn armed_faults_fire_exactly_once_and_report_survives_inspection() {
    let input = scene(6);
    let m = model();
    let mut e = Engine::new(EnginePreset::SpConv, DeviceProfile::rtx_2080ti());
    e.context_mut().runtime.faults.arm(FaultSite::GridTableBuild);

    e.run(&m, &input).expect("first run");
    let first = e.degradation_report().count(FaultSite::GridTableBuild);
    assert!(first >= 1);

    // The armed count is consumed: a second run is fault-free and its
    // fresh report is empty again.
    e.run(&m, &input).expect("second run");
    assert_eq!(e.degradation_report().count(FaultSite::GridTableBuild), 0);
    assert!(!e.context().runtime.faults.is_armed());
}

#[test]
fn probabilistic_injection_is_deterministic_across_engines() {
    let input = scene(7);
    let m = model();
    let run = |seed: u64| {
        let mut e = Engine::new(EnginePreset::SpConv, DeviceProfile::rtx_2080ti());
        e.context_mut().runtime.faults.seed(seed);
        e.context_mut().runtime.faults.with_probability(FaultSite::GridTableBuild, 0.5);
        e.run(&m, &input).expect("run completes regardless of injection");
        (
            e.context().runtime.faults.injected().to_vec(),
            e.degradation_report().count(FaultSite::GridTableBuild),
        )
    };
    let (log_a, count_a) = run(1234);
    let (log_b, count_b) = run(1234);
    assert_eq!(log_a, log_b, "same seed must inject identically");
    assert_eq!(count_a, count_b);
    let (log_c, _) = run(99);
    // A different seed is allowed to differ (and with several probe points
    // at p=0.5 it almost surely does — but we only assert determinism).
    let _ = log_c;
}
