//! Point-voxel fusion (SPVCNN): run the authors' flagship architecture on
//! a synthetic LiDAR scan, demonstrating voxelization, the sparse UNet
//! voxel branch, and trilinear devoxelization back to points.
//!
//! Run with: `cargo run --release --example point_voxel_fusion`

use torchsparse::core::{Context, EnginePreset};
use torchsparse::data::LidarConfig;
use torchsparse::gpusim::{DeviceProfile, Stage};
use torchsparse::models::{voxelize_features, PointScene, Spvcnn};
use torchsparse::tensor::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Raw points, not voxels: SPVCNN keeps full resolution on its point branch.
    let scan = LidarConfig::semantic_kitti().scaled(0.05).generate(3);
    let n = scan.len();
    let feats = Matrix::from_fn(n, 4, |r, c| match c {
        0 => scan.intensity[r],
        1..=3 => scan.points[r][c - 1] / 80.0,
        _ => 0.0,
    });
    let scene = PointScene::new(scan.points.clone(), feats)?;
    println!("input: {} raw points", scene.len());

    let mut ctx = Context::new(EnginePreset::TorchSparse.config(), DeviceProfile::rtx_3090());

    // Show the voxelization ratio the voxel branch works with.
    let stem = PointScene::new(scene.positions.clone(), scene.feats.clone())?;
    let (voxels, p2v) = voxelize_features(&stem, 0.1, &mut ctx)?;
    println!(
        "voxelized at 0.1 m: {} voxels ({:.1} points/voxel)",
        voxels.len(),
        p2v.len() as f64 / voxels.len() as f64
    );

    // Full SPVCNN inference.
    let net = Spvcnn::new(0.5, 4, 19, 0.1, 42);
    let mut ctx = Context::new(EnginePreset::TorchSparse.config(), DeviceProfile::rtx_3090());
    let scores = net.forward(&scene, &mut ctx)?;
    println!(
        "output: {} points x {} classes in {}",
        scores.rows(),
        scores.cols(),
        ctx.timeline().total()
    );
    for stage in Stage::ALL {
        let t = ctx.timeline().stage(stage);
        if t.as_f64() > 0.0 {
            println!(
                "  {:<8} {:>10}  ({:.1}%)",
                stage.name(),
                t.to_string(),
                100.0 * ctx.timeline().fraction(stage)
            );
        }
    }
    println!("\nThe voxel branch (a MinkUNet) dominates — exactly the workload");
    println!("TorchSparse accelerates; the point branch adds full-resolution detail.");
    Ok(())
}
