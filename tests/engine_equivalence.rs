//! Cross-crate integration: every engine preset computes the same FP32
//! result on real (synthetic-LiDAR) data, end to end through voxelization,
//! mapping, and both dataflows.

use torchsparse::core::{Engine, EnginePreset, Module, Precision};
use torchsparse::data::SyntheticDataset;
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::{CenterPoint, MinkUNet};

fn scene() -> torchsparse::core::SparseTensor {
    SyntheticDataset::semantic_kitti(0.02, 4).scene(5).expect("scene generation")
}

#[test]
fn all_fp32_presets_agree_on_minkunet() {
    let input = scene();
    let model = MinkUNet::with_width(0.25, 4, 7, 3);
    let mut reference: Option<torchsparse::tensor::Matrix> = None;
    for preset in [EnginePreset::BaselineFp32, EnginePreset::MinkowskiEngine, EnginePreset::SpConv]
    {
        let mut engine = Engine::new(preset, DeviceProfile::rtx_2080ti());
        let out = engine.run(&model, &input).expect("inference");
        match &reference {
            None => reference = Some(out.feats().clone()),
            Some(r) => {
                let diff = out.feats().max_abs_diff(r).expect("same shape");
                assert!(diff < 1e-3, "{preset:?} differs from baseline by {diff}");
            }
        }
    }
}

#[test]
fn torchsparse_fp32_matches_baseline_on_centerpoint() {
    let input = SyntheticDataset::waymo(0.02, 5, 1).scene(2).expect("scene");
    let model = CenterPoint::with_widths(5, &[8, 16], 1);
    let mut baseline = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::gtx_1080ti());
    let a = baseline.run(&model, &input).expect("baseline run");
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.precision = Precision::Fp32;
    let mut optimized = Engine::with_config(cfg, DeviceProfile::gtx_1080ti());
    let b = optimized.run(&model, &input).expect("optimized run");
    assert_eq!(a.coords(), b.coords());
    let diff = a.feats().max_abs_diff(b.feats()).expect("same shape");
    assert!(diff < 1e-3, "optimized differs by {diff}");
}

#[test]
fn fp16_engine_is_close_to_fp32() {
    let input = scene();
    let model = MinkUNet::with_width(0.25, 4, 7, 3);
    let mut fp32 = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_3090());
    let a = fp32.run(&model, &input).expect("fp32 run");
    let mut fp16 = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_3090());
    let b = fp16.run(&model, &input).expect("fp16 run");
    let rel = a.feats().max_abs_diff(b.feats()).expect("same shape")
        / a.feats().frobenius_norm().max(1e-9);
    assert!(rel < 0.02, "fp16 relative deviation {rel}");
}

#[test]
fn torchsparse_is_fastest_preset_everywhere() {
    // The paper's headline: TorchSparse wins end-to-end on every model and
    // device. Verified here on a segmentation and a detection model across
    // all three simulated GPUs.
    let seg_input = scene();
    let seg = MinkUNet::with_width(0.25, 4, 7, 3);
    let det_input = SyntheticDataset::waymo(0.02, 5, 1).scene(1).expect("scene");
    let det = CenterPoint::with_widths(5, &[8, 16], 2);

    for device in DeviceProfile::evaluation_devices() {
        for (input, model) in [(&seg_input, &seg as &dyn Module), (&det_input, &det as &dyn Module)]
        {
            let mut ts = Engine::new(EnginePreset::TorchSparse, device.clone());
            let ts_latency = ts.price(model, input).expect("torchsparse price").total();
            for preset in [
                EnginePreset::BaselineFp32,
                EnginePreset::MinkowskiEngine,
                EnginePreset::SpConv,
                EnginePreset::SpConvFp16,
            ] {
                let mut other = Engine::new(preset, device.clone());
                let latency = other.price(model, input).expect("competitor price").total();
                assert!(
                    latency > ts_latency,
                    "{} should lose to TorchSparse on {} ({} vs {})",
                    preset.name(),
                    device.name,
                    latency,
                    ts_latency
                );
            }
        }
    }
}

#[test]
fn determinism_across_runs_and_engines() {
    let input = scene();
    let model = MinkUNet::with_width(0.25, 4, 7, 9);
    let mut e1 = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    let a = e1.run(&model, &input).expect("first run");
    let lat_a = e1.last_latency();
    let mut e2 = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    let b = e2.run(&model, &input).expect("second run");
    assert_eq!(a, b, "outputs must be bit-identical");
    assert_eq!(lat_a, e2.last_latency(), "latencies must be bit-identical");
}
