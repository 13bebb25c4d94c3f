//! Integration tests of the full data pipeline: LiDAR generation →
//! voxelization → multi-frame fusion → model inference → tuning.

use torchsparse::core::tuning::tune_engine;
use torchsparse::core::{Engine, EnginePreset, Module};
use torchsparse::data::{aggregate_frames, voxelize_scan, LidarConfig, SyntheticDataset};
use torchsparse::gpusim::{DeviceProfile, Stage};
use torchsparse::models::{BenchmarkModel, CenterPoint, MinkUNet};

#[test]
fn lidar_to_inference_pipeline() {
    // The full path a user takes: raw scan -> voxels -> segmentation.
    let scan = LidarConfig::semantic_kitti().scaled(0.02).generate(1);
    assert!(scan.len() > 200);
    let input = voxelize_scan(&scan, 0.1, 4).expect("voxelize");
    input.validate_unique().expect("unique voxels");
    let model = MinkUNet::with_width(0.25, 4, 19, 0);
    let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_3090());
    let out = engine.run(&model, &input).expect("inference");
    assert_eq!(out.len(), input.len());
    assert_eq!(out.channels(), 19);
}

#[test]
fn multiframe_detection_pipeline() {
    let cfg = LidarConfig::waymo().scaled(0.02);
    let frames: Vec<_> = (0..3).map(|i| cfg.generate(i)).collect();
    let merged = aggregate_frames(&frames, 0.5);
    let input = voxelize_scan(&merged, 0.1, 5).expect("voxelize");
    let model = CenterPoint::with_widths(5, &[8, 16], 3);
    let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    let out = engine.run(&model, &input).expect("inference");
    assert_eq!(out.stride(), 2);
    assert!(!out.is_empty());
    // The detection head surcharge must appear in Other.
    assert!(engine.last_timeline().stage(Stage::Other).as_f64() > 0.0);
}

#[test]
fn tuning_transfers_to_unseen_scenes() {
    let ds = SyntheticDataset::nuscenes(0.05, 4, 1);
    let calibration: Vec<_> = (0..2).map(|i| ds.scene(i).expect("scene")).collect();
    let unseen = ds.scene(50).expect("scene");
    let model = MinkUNet::with_width(0.25, 4, 8, 4);

    let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    let untuned = engine.price(&model, &unseen).expect("untuned price").stage(Stage::MatMul);

    tune_engine(&mut engine, &model, &calibration, None).expect("tuning");
    let tuned = engine.price(&model, &unseen).expect("tuned price").stage(Stage::MatMul);

    assert!(
        tuned.as_f64() <= untuned.as_f64() * 1.02,
        "tuned matmul {tuned} should not regress vs untuned {untuned}"
    );
}

#[test]
fn every_benchmark_model_runs_on_every_device() {
    for bm in BenchmarkModel::ALL {
        let ds = match bm {
            BenchmarkModel::MinkUNetHalfSemanticKitti
            | BenchmarkModel::MinkUNetFullSemanticKitti => {
                SyntheticDataset::semantic_kitti(0.01, 4)
            }
            BenchmarkModel::MinkUNetNuScenes1 => SyntheticDataset::nuscenes(0.02, 4, 1),
            BenchmarkModel::MinkUNetNuScenes3 => SyntheticDataset::nuscenes(0.02, 4, 3),
            BenchmarkModel::CenterPointNuScenes10 => SyntheticDataset::nuscenes(0.02, 5, 10),
            BenchmarkModel::CenterPointWaymo1 => SyntheticDataset::waymo(0.01, 5, 1),
            BenchmarkModel::CenterPointWaymo3 => SyntheticDataset::waymo(0.01, 5, 3),
        };
        let input = ds.scene(0).expect("scene");
        let model: Box<dyn Module> = if bm.is_segmentation() {
            Box::new(MinkUNet::with_width(0.25, 4, 8, 1))
        } else {
            Box::new(CenterPoint::with_widths(5, &[8, 16], 1))
        };
        for device in DeviceProfile::evaluation_devices() {
            let mut engine = Engine::new(EnginePreset::TorchSparse, device);
            let timeline = engine.price(model.as_ref(), &input).unwrap_or_else(|e| {
                panic!("{} failed: {e}", bm.name());
            });
            assert!(timeline.total().as_f64() > 0.0);
        }
    }
}

#[test]
fn faster_devices_are_faster() {
    let input = SyntheticDataset::semantic_kitti(0.03, 4).scene(3).expect("scene");
    let model = MinkUNet::with_width(0.5, 4, 19, 2);
    let mut latencies = Vec::new();
    for device in DeviceProfile::evaluation_devices() {
        let mut engine = Engine::new(EnginePreset::TorchSparse, device.clone());
        let latency = engine.price(&model, &input).expect("price").total();
        latencies.push((device.name.clone(), latency.as_f64()));
    }
    // Devices are returned oldest first; latency must decrease.
    assert!(
        latencies[0].1 > latencies[1].1 && latencies[1].1 > latencies[2].1,
        "generation ordering violated: {latencies:?}"
    );
}
