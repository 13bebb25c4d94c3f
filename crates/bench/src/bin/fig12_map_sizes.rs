//! **Figure 12**: per-offset map size distributions and the adaptive
//! grouping strategies they induce, SemanticKITTI vs nuScenes.
//!
//! The paper's observation: nuScenes maps are much smaller than
//! SemanticKITTI maps for the same MinkUNet, so the tuned grouping is more
//! aggressive on nuScenes (fewer groups). This binary prints the real
//! per-offset sizes of the first submanifold layer and the first
//! downsampling layer, plus the adaptive group partitions.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin fig12_map_sizes
//! [--scale F]`

use torchsparse_bench::{build_model, dataset_for, fmt, BenchArgs};
use torchsparse_core::grouping::plan_groups;
use torchsparse_core::tuning::tune_engine;
use torchsparse_core::{DeviceProfile, Engine, EnginePreset, GroupingStrategy};
use torchsparse_models::BenchmarkModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(0.5, 1);
    println!("== Figure 12: map-size distributions & grouping strategies ==\n");

    for (label, bm) in [
        ("SemanticKITTI (MinkUNet 1f)", BenchmarkModel::MinkUNetHalfSemanticKitti),
        ("nuScenes (MinkUNet 1f)", BenchmarkModel::MinkUNetNuScenes1),
    ] {
        let ds = dataset_for(bm, args.scale);
        let input = ds.scene(args.seed)?;
        let model = build_model(bm, args.seed);
        let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let tuned = tune_engine(&mut engine, model.as_ref(), std::slice::from_ref(&input), None)?;
        engine.context_mut().record_workloads = true;
        engine.price(model.as_ref(), &input)?;
        let workloads = engine.context().workloads.clone();

        let submanifold = workloads.iter().find(|w| w.submanifold).expect("submanifold layer");
        let downsample = workloads.iter().find(|w| !w.submanifold).expect("downsample layer");

        println!("---- {} ({} input voxels) ----", label, input.len());
        for (kind, w) in [("submanifold k3s1", submanifold), ("downsample k2s2", downsample)] {
            let max = *w.map_sizes.iter().max().unwrap_or(&1) as f64;
            let mut rows = Vec::new();
            for (n, &s) in w.map_sizes.iter().enumerate() {
                if s == 0 {
                    continue;
                }
                rows.push(vec![format!("W{n}"), s.to_string(), fmt::bar(s as f64, max, 36)]);
            }
            println!("{kind} layer '{}':", w.name);
            println!("{}", fmt::table(&["offset", "map size", ""], &rows));
        }

        let (epsilon, s_threshold) = tuned.selected[&submanifold.name];
        let strategy = GroupingStrategy::Adaptive { epsilon, s_threshold };
        let plan = plan_groups(&submanifold.map_sizes, true, strategy);
        println!(
            "tuned adaptive grouping (epsilon={epsilon}, S={s_threshold}): {} groups -> {:?}\n",
            plan.groups.len(),
            plan.groups.iter().map(|g| g.offsets.len()).collect::<Vec<_>>()
        );
    }

    println!("Paper reference: nuScenes maps are much smaller than SemanticKITTI's,");
    println!("so its tuned strategy uses fewer groups (8 vs 10 in Figure 12).");
    Ok(())
}
