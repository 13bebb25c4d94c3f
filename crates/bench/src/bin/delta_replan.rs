//! Incremental delta re-planning benchmark: temporal churn sweep.
//!
//! Streams a temporally churning nuScenes scene (a controlled fraction of
//! voxels inserted/removed per frame) through the same MinkUNet twice: once
//! with delta re-planning enabled — geometry misses patch the previous
//! frozen plan in place — and once with it disabled, so every miss pays a
//! from-scratch re-plan. Asserts bitwise-identical outputs per frame across
//! the two arms, that the patched arm's amortized mapping cost beats the
//! full re-plan by >=3x at 5% churn, and that churn above the configured
//! threshold falls back to full re-planning. Writes the sweep to
//! `BENCH_replan.json`.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin delta_replan
//! [--scale F] [--scenes N] [--seed N] [--out PATH]`
//! (`--scenes` is the number of streamed frames per churn level.)

use torchsparse_bench::{build_model, dataset_for, fmt, BenchArgs};
use torchsparse_core::{
    DeviceProfile, Engine, EnginePreset, PlanCacheStats, DELTA_REPLAN_MAX_CHURN,
};
use torchsparse_data::temporal_churn_stream;
use torchsparse_gpusim::Stage;
use torchsparse_models::BenchmarkModel;

/// Churn sweep, as fractions of the voxel set replaced per frame. The
/// `DELTA_REPLAN_MAX_CHURN` threshold (0.15) splits this range.
const CHURNS: [f64; 6] = [0.01, 0.02, 0.05, 0.10, 0.20, 0.50];

fn engine(delta: bool) -> Engine {
    let mut cfg = EnginePreset::TorchSparse.config();
    // Isolate re-planning: autotuning would add search time to the first
    // compile and nothing to the re-plans under measurement.
    cfg.autotune_policies = false;
    cfg.delta_replan = delta;
    Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
}

struct Arm {
    /// Mean re-plan Stage::Mapping cost per geometry miss, ms.
    mapping_ms: f64,
    /// Mean total re-plan cost per geometry miss, ms.
    replan_ms: f64,
    stats: PlanCacheStats,
    bits: Vec<Vec<u32>>,
}

fn run_arm(
    model: &dyn torchsparse_core::Module,
    frames: &[torchsparse_core::SparseTensor],
    delta: bool,
) -> Result<Arm, Box<dyn std::error::Error>> {
    let mut session = engine(delta).compile(model, &frames[0])?;
    let mut mapping = 0.0;
    let mut replan = 0.0;
    let mut bits = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().enumerate() {
        let y = session.execute(frame)?;
        bits.push(y.feats().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>());
        // Frame 0 hits the compile-time plan; every later frame's geometry
        // changed, so the planning timeline holds that frame's re-plan.
        if i > 0 {
            mapping += session.planning_timeline().stage(Stage::Mapping).as_f64() / 1e3;
            replan += session.planning_timeline().total().as_f64() / 1e3;
        }
    }
    let misses = (frames.len() - 1).max(1) as f64;
    let stats = session.stats();
    Ok(Arm { mapping_ms: mapping / misses, replan_ms: replan / misses, stats, bits })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Default scale is larger than the other benches': at toy point counts
    // the fixed per-op launch overhead dominates both arms and compresses
    // the patch-vs-full ratio below what any realistic scene shows.
    let args = BenchArgs::parse(0.3, 8);
    let out_path = args
        .rest
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.rest.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_replan.json".to_owned());

    let bm = BenchmarkModel::MinkUNetNuScenes1;
    let ds = dataset_for(bm, args.scale);
    let base = ds.scene(args.seed)?;
    let model = build_model(bm, args.seed);
    let threshold = DELTA_REPLAN_MAX_CHURN;

    println!(
        "== Delta re-planning churn sweep: {} (scale {}, {} frames/level, {} points, \
         fallback threshold {:.0}%) ==\n",
        bm.name(),
        args.scale,
        args.scenes,
        base.len(),
        threshold * 100.0
    );

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut ratio_at_5pct = 0.0;
    for churn in CHURNS {
        let frames = temporal_churn_stream(&base, args.scenes, churn, args.seed)?;
        let full = run_arm(model.as_ref(), &frames, false)?;
        let patched = run_arm(model.as_ref(), &frames, true)?;
        for (i, (a, b)) in full.bits.iter().zip(&patched.bits).enumerate() {
            assert_eq!(
                a, b,
                "churn {churn}: frame {i} must be bitwise identical across full and delta arms"
            );
        }
        for (label, s) in [("full", &full.stats), ("delta", &patched.stats)] {
            assert_eq!(
                s.misses,
                s.full_replans + s.delta_patches + s.delta_fallbacks,
                "{label} arm: misses must partition into full/patched/fallback ({s:?})"
            );
        }
        assert_eq!(full.stats.delta_patches, 0, "the full arm must never patch ({:?})", full.stats);
        if churn > threshold {
            assert!(
                patched.stats.delta_fallbacks > 0,
                "churn {churn} above threshold {threshold} must fall back ({:?})",
                patched.stats
            );
        } else {
            assert_eq!(
                patched.stats.delta_fallbacks + patched.stats.full_replans,
                1,
                "churn {churn} under threshold {threshold}: only the initial compile may \
                 re-plan from scratch ({:?})",
                patched.stats
            );
        }
        let ratio = full.mapping_ms / patched.mapping_ms.max(1e-9);
        if (churn - 0.05).abs() < 1e-9 {
            ratio_at_5pct = ratio;
        }
        rows.push(vec![
            format!("{:.0}%", churn * 100.0),
            format!("{:.3}", full.mapping_ms),
            format!("{:.3}", patched.mapping_ms),
            fmt::speedup(ratio),
            patched.stats.delta_patches.to_string(),
            patched.stats.delta_fallbacks.to_string(),
        ]);
        json_rows.push(format!(
            "    {{\"churn\": {churn}, \"full_mapping_ms\": {:.4}, \
             \"delta_mapping_ms\": {:.4}, \"mapping_speedup\": {:.4}, \
             \"full_replan_ms\": {:.4}, \"delta_replan_ms\": {:.4}, \
             \"delta_patches\": {}, \"delta_fallbacks\": {}}}",
            full.mapping_ms,
            patched.mapping_ms,
            ratio,
            full.replan_ms,
            patched.replan_ms,
            patched.stats.delta_patches,
            patched.stats.delta_fallbacks,
        ));
    }
    println!(
        "{}",
        fmt::table(
            &["churn", "full mapping ms", "delta mapping ms", "speedup", "patches", "fallbacks"],
            &rows
        )
    );
    assert!(
        ratio_at_5pct >= 3.0,
        "delta patching must cut mapping cost >=3x at 5% churn (got {ratio_at_5pct:.2}x)"
    );
    println!(
        "\nmapping speedup at 5% churn: {ratio_at_5pct:.2}x (acceptance floor 3x); \
         bitwise identical across arms at every churn level"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"model\": \"{}\",\n", bm.name()));
    json.push_str(&format!("  \"scale\": {},\n", args.scale));
    json.push_str(&format!("  \"frames_per_level\": {},\n", args.scenes));
    json.push_str(&format!("  \"points\": {},\n", base.len()));
    json.push_str(&format!("  \"fallback_threshold\": {threshold},\n"));
    json.push_str("  \"bitwise_identical_per_frame\": true,\n");
    json.push_str(&format!("  \"mapping_speedup_at_5pct\": {ratio_at_5pct:.4},\n"));
    json.push_str(&format!("  \"sweep\": [\n{}\n  ]\n", json_rows.join(",\n")));
    json.push_str("}\n");
    std::fs::write(&out_path, json)?;
    println!("wrote {out_path}");
    Ok(())
}
