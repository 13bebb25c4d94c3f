//! Per-layer latency profile of a benchmark model — the engine-level
//! equivalent of `torch.profiler`, showing which layers the paper's
//! optimizations help and where residual time goes.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin profile_layers
//! [--scale F]`

use torchsparse_bench::{build_model, dataset_for, fmt, BenchArgs};
use torchsparse_core::{DeviceProfile, Engine, EnginePreset};
use torchsparse_gpusim::Stage;
use torchsparse_models::BenchmarkModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(0.3, 1);
    let bm = BenchmarkModel::MinkUNetHalfSemanticKitti;
    println!("== Per-layer profile: {} (TorchSparse, RTX 2080Ti) ==\n", bm.name());

    let ds = dataset_for(bm, args.scale);
    let input = ds.scene(args.seed)?;
    let model = build_model(bm, args.seed);
    let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    engine.context_mut().profile_layers = true;
    engine.price(model.as_ref(), &input)?;

    let profiles = engine.context().layer_profiles().to_vec();
    let total: f64 = profiles.iter().map(|p| p.timeline.total().as_f64()).sum();
    let mut rows = Vec::new();
    // Top 20 layers by latency.
    let mut sorted: Vec<_> = profiles.iter().collect();
    sorted.sort_by(|a, b| {
        b.timeline.total().as_f64().partial_cmp(&a.timeline.total().as_f64()).expect("finite")
    });
    for p in sorted.iter().take(20) {
        rows.push(vec![
            p.name.clone(),
            p.input_points.to_string(),
            format!("{}", p.timeline.total()),
            format!("{}", p.timeline.stage(Stage::MatMul)),
            format!("{}", p.timeline.data_movement()),
            format!("{:.1}%", 100.0 * p.timeline.total().as_f64() / total),
        ]);
    }
    println!("{}", fmt::table(&["layer", "points", "total", "matmul", "movement", "share"], &rows));
    println!("{} layers profiled, {:.2} ms total", profiles.len(), total / 1e3);
    Ok(())
}
