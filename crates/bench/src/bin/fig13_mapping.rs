//! **Figure 13**: mapping-optimization waterfall on the CenterPoint (3f)
//! Waymo detector.
//!
//! The paper stacks four optimizations on the mapping pipeline — grid-based
//! map search (1.6x), fused output-coordinate kernels (1.5x), simplified
//! control logic + unrolling (1.8x), and symmetric map reuse (1.1x) — for a
//! combined ~4.6x. This binary enables them one at a time and reports the
//! cumulative end-to-end mapping speedup.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin fig13_mapping
//! [--scale F] [--scenes N]`

use torchsparse_bench::{
    build_model, dataset_for, fmt, mapping_ladder, measure, scenes, BenchArgs,
};
use torchsparse_core::{DeviceProfile, Engine};
use torchsparse_gpusim::Stage;
use torchsparse_models::BenchmarkModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(0.4, 1);
    let bm = BenchmarkModel::CenterPointWaymo3;
    println!("== Figure 13: mapping optimization waterfall ==");
    println!("workload: {} (scale {})\n", bm.name(), args.scale);

    let ds = dataset_for(bm, args.scale);
    let inputs = scenes(&ds, args.scenes, args.seed)?;
    let model = build_model(bm, args.seed);

    let mut rows = Vec::new();
    let mut base_mapping: Option<f64> = None;
    let mut prev: Option<f64> = None;
    for (label, cfg) in mapping_ladder() {
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        let t = measure(&mut engine, model.as_ref(), &inputs)?;
        let mapping = t.stage(Stage::Mapping).as_f64();
        let base = *base_mapping.get_or_insert(mapping);
        let step_speedup = prev.map_or(1.0, |p| p / mapping);
        prev = Some(mapping);
        rows.push(vec![
            label.to_owned(),
            format!("{:.1} us", mapping),
            fmt::speedup(step_speedup),
            fmt::speedup(base / mapping),
        ]);
    }
    println!(
        "{}",
        fmt::table(&["configuration", "mapping latency", "step speedup", "cumulative"], &rows)
    );
    println!("Paper reference: grid 1.6x, fused kernel 1.5x, control logic 1.8x,");
    println!("symmetry 1.1x; ~4.6x total mapping speedup on Waymo detectors.");
    Ok(())
}
