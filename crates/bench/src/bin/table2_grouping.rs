//! **Table 2**: matmul grouping ablation — separate / symmetric / fixed /
//! adaptive, on SemanticKITTI (MinkUNet 0.5x) and nuScenes (MinkUNet 3f).
//!
//! The paper reports achieved TFLOP/s and matmul speedup per strategy,
//! with two signature results this reproduction must preserve:
//! (1) adaptive wins latency everywhere (1.39x on SK, 1.54x on NS);
//! (2) fixed 3-group batching is *slower than separate* on SemanticKITTI
//! (0.87x) despite high TFLOP/s, because padding wastes too much compute,
//! while it works well (1.50x) on the smaller nuScenes maps.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin table2_grouping
//! [--scale F] [--scenes N]`

#![allow(clippy::type_complexity)]

use torchsparse_bench::{build_model, dataset_for, fmt, scenes, BenchArgs};
use torchsparse_core::grouping::plan_groups;
use torchsparse_core::tuning::{grouped_matmul_latency, tune_engine};
use torchsparse_core::{DeviceProfile, Engine, EnginePreset, GroupingStrategy, Precision};
use torchsparse_gpusim::GemmModel;
use torchsparse_models::BenchmarkModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(1.0, 2);
    println!("== Table 2: grouping strategy ablation (matmul only, FP16) ==");
    println!("scale={} scenes={} device=RTX 2080Ti\n", args.scale, args.scenes);

    let gemm = GemmModel::new(DeviceProfile::rtx_2080ti());

    for (label, bm) in [
        ("SemanticKITTI (MinkUNet 0.5x)", BenchmarkModel::MinkUNetHalfSemanticKitti),
        ("nuScenes (MinkUNet 3f)", BenchmarkModel::MinkUNetNuScenes3),
    ] {
        let ds = dataset_for(bm, args.scale);
        let inputs = scenes(&ds, args.scenes, args.seed)?;
        let model = build_model(bm, args.seed);

        // Tune adaptive (epsilon, S) per layer on the calibration scenes
        // (Algorithm 5), then collect the workloads of one scene.
        let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let tuned = tune_engine(&mut engine, model.as_ref(), &inputs, None)?.selected;
        engine.context_mut().record_workloads = true;
        engine.price(model.as_ref(), &inputs[0])?;
        let workloads = engine.context().workloads.clone();

        let strategies: Vec<(&str, Box<dyn Fn(&str) -> GroupingStrategy>)> = vec![
            ("Separate", Box::new(|_| GroupingStrategy::Separate)),
            ("Symmetric", Box::new(|_| GroupingStrategy::Symmetric)),
            ("Fixed", Box::new(|_| GroupingStrategy::Fixed)),
            (
                "Adaptive (tuned)",
                Box::new(|layer: &str| {
                    let (epsilon, s_threshold) = tuned[layer];
                    GroupingStrategy::Adaptive { epsilon, s_threshold }
                }),
            ),
        ];

        let mut rows = Vec::new();
        let mut baseline_us: Option<f64> = None;
        for (name, strat_for) in &strategies {
            let mut total_us = 0.0;
            let mut total_flops = 0.0;
            for w in &workloads {
                let strategy = strat_for(&w.name);
                total_us += grouped_matmul_latency(w, strategy, &gemm, Precision::Fp16).as_f64();
                let plan = plan_groups(&w.map_sizes, w.submanifold, strategy);
                total_flops +=
                    plan.executed_rows(&w.map_sizes) as f64 * 2.0 * w.c_in as f64 * w.c_out as f64;
            }
            let base = *baseline_us.get_or_insert(total_us);
            let tflops = total_flops / (total_us * 1e6);
            rows.push(vec![
                (*name).to_owned(),
                format!("{tflops:.1} TFLOP/s"),
                fmt::speedup(base / total_us),
            ]);
        }
        println!("---- {} ({} voxels) ----", label, inputs[0].len());
        println!("{}", fmt::table(&["grouping method", "throughput", "matmul speedup"], &rows));
    }

    println!("Paper reference (Table 2): SK separate 8.1 TF/s -> adaptive 11.9 TF/s (1.39x),");
    println!("fixed is 13% SLOWER than separate on SK; NS separate 10.4 -> adaptive 16.9 (1.54x).");
    Ok(())
}
