//! **Table 3**: data-movement optimization waterfall on MinkUNet (1.0x) @
//! SemanticKITTI.
//!
//! The paper stacks: FP16 quantization (scalar), vectorized access, fused
//! gather/scatter phases, and locality-aware ordering, reporting gather
//! (G), scatter (S), and combined (SG) speedups over the FP32 baseline:
//!
//! | config                      |   G  |   S  |  SG  |
//! |-----------------------------|------|------|------|
//! | FP32 baseline               | 1.00 | 1.00 | 1.00 |
//! | + FP16 (scalar)             | 1.17 | 1.48 | 1.32 |
//! | + vectorized                | 1.91 | 1.95 | 1.93 |
//! | + fused                     | 1.91 | 2.12 | 2.02 |
//! | + locality-aware            | 2.86 | 2.61 | 2.72 |
//!
//! The waterfall ablates the *modeled* GPU movement kernels
//! (`fused_gather_scatter` and friends, read by `core::cost_model`); the
//! host executor is the fused row-streaming route under every step.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin
//! table3_data_movement [--scale F] [--scenes N]`

use torchsparse_bench::{
    build_model, data_movement_ladder, dataset_for, fmt, measure, scenes, BenchArgs,
};
use torchsparse_core::{DeviceProfile, Engine};
use torchsparse_gpusim::Stage;
use torchsparse_models::BenchmarkModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(1.0, 1);
    let bm = BenchmarkModel::MinkUNetFullSemanticKitti;
    println!("== Table 3: data movement optimization breakdown ==");
    println!("workload: {} (scale {})\n", bm.name(), args.scale);

    let ds = dataset_for(bm, args.scale);
    let inputs = scenes(&ds, args.scenes, args.seed)?;
    let model = build_model(bm, args.seed);

    let mut rows = Vec::new();
    let mut base: Option<(f64, f64)> = None;
    for (label, cfg) in data_movement_ladder() {
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        let t = measure(&mut engine, model.as_ref(), &inputs)?;
        let g = t.stage(Stage::Gather).as_f64();
        let s = t.stage(Stage::Scatter).as_f64();
        let (g0, s0) = *base.get_or_insert((g, s));
        rows.push(vec![
            label.to_owned(),
            fmt::speedup(g0 / g),
            fmt::speedup(s0 / s),
            fmt::speedup((g0 + s0) / (g + s)),
        ]);
    }
    println!(
        "{}",
        fmt::table(&["configuration", "speedup (G)", "speedup (S)", "speedup (SG)"], &rows)
    );
    println!("Paper reference: 1.32x FP16-scalar, 1.93x vectorized, 2.02x fused,");
    println!("2.72x with locality-aware ordering (Table 3).");
    Ok(())
}
