//! **Ablation (§5.2)**: the fetch-on-demand vs gather-matmul-scatter
//! crossover. MinkowskiEngine switches to fetch-on-demand for small
//! workloads — this sweep finds where that dataflow actually wins, by
//! running the same layer on scenes of increasing size under both dataflows.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin ablation_crossover`

use torchsparse_bench::fmt;
use torchsparse_core::{DeviceProfile, Engine, EnginePreset, SparseConv3d};
use torchsparse_data::SyntheticDataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation: fetch-on-demand vs gather-matmul-scatter crossover ==");
    println!("layer: submanifold conv k3, C_in = C_out = 64, RTX 2080Ti (FP32)\n");

    let conv = SparseConv3d::with_random_weights("conv", 64, 64, 3, 1, 42);
    let mut rows = Vec::new();
    for scale in [0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let input = {
            let mut scene = SyntheticDataset::semantic_kitti(scale, 64).scene(7)?;
            // Strip the zero padding the voxelizer puts beyond channel 4 so
            // the features are non-trivial in every channel.
            let feats = torchsparse_tensor::Matrix::from_fn(scene.len(), 64, |r, c| {
                ((r * 13 + c * 7) % 31) as f32 / 31.0
            });
            scene = scene.with_feats(feats)?;
            scene
        };

        // Gather-matmul-scatter (baseline FP32, separate grouping).
        let mut gms = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
        let gms_us = gms.price(&conv, &input)?.total().as_f64();

        // Fetch-on-demand (force it by setting the threshold above any size).
        let mut cfg = EnginePreset::BaselineFp32.config();
        cfg.fetch_on_demand_below = Some(usize::MAX);
        let mut fod = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        let fod_us = fod.price(&conv, &input)?.total().as_f64();

        rows.push(vec![
            input.len().to_string(),
            format!("{:.1} us", gms_us),
            format!("{:.1} us", fod_us),
            if fod_us < gms_us { "fetch-on-demand".into() } else { "gather-scatter".into() },
        ]);
    }
    println!(
        "{}",
        fmt::table(&["voxels", "gather-matmul-scatter", "fetch-on-demand", "winner"], &rows)
    );
    println!("Expected shape: fetch-on-demand wins small scenes (no buffer traffic,");
    println!("fewer kernels); gather-matmul-scatter wins at scale (GEMM efficiency).");
    Ok(())
}
