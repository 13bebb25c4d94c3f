//! Adaptive grouping auto-tuning (Algorithm 5): profile a model on
//! calibration scenes, grid-search per-layer `(epsilon, S)`, and show the
//! matmul latency improvement over the untuned default.
//!
//! Run with: `cargo run --release --example adaptive_tuning`

use torchsparse::core::tuning::tune_engine;
use torchsparse::core::{Engine, EnginePreset};
use torchsparse::data::SyntheticDataset;
use torchsparse::gpusim::{DeviceProfile, Stage};
use torchsparse::models::MinkUNet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = SyntheticDataset::semantic_kitti(0.3, 4);
    let calibration: Vec<_> = (0..4).map(|i| dataset.scene(i)).collect::<Result<_, _>>()?;
    let test_scene = dataset.scene(100)?;
    let model = MinkUNet::with_width(0.5, 4, 19, 5);

    let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());

    // Untuned price (the preset's default epsilon/S): planned and walked
    // through the cost model, never executed.
    let before = engine.price(&model, &test_scene)?.stage(Stage::MatMul);

    // Algorithm 5: tune per-layer (epsilon, S) on the calibration scenes.
    let report = tune_engine(&mut engine, &model, &calibration, None)?;
    println!(
        "tuned {} layers over {} configurations each ({} calibration scenes)",
        report.selected.len(),
        report.configs_searched,
        report.samples
    );
    let mut layers: Vec<_> = report.selected.iter().collect();
    layers.sort_by(|a, b| a.0.cmp(b.0));
    for (layer, (eps, s)) in layers.iter().take(8) {
        let s_str = if *s == usize::MAX { "inf".to_owned() } else { format!("{s}") };
        println!("  {:<16} epsilon={:<4} S={}", layer, eps, s_str);
    }
    if layers.len() > 8 {
        println!("  ... and {} more layers", layers.len() - 8);
    }

    // Tuned price on an unseen scene.
    let after = engine.price(&model, &test_scene)?.stage(Stage::MatMul);
    println!(
        "\nmatmul latency on an unseen scene: {} -> {} ({:.2}x)",
        before,
        after,
        before.as_f64() / after.as_f64()
    );
    println!("(The strategy itself stays input-adaptive: the same (epsilon, S)");
    println!("produces different group partitions for different scenes, §4.2.3.)");
    Ok(())
}
