//! Thread-scaling benchmark for the parallel execution runtime.
//!
//! Runs a real (non-simulate-only) MinkUNet forward pass at several worker
//! counts, checks the outputs are bitwise identical, and records both
//! measured wall-clock and *modeled* scaling to `BENCH_parallel.json`.
//!
//! The modeled numbers exist because CI hosts may expose a single core:
//! a recording pool captures the per-task durations of every parallel
//! region, and [`modeled_makespan`] replays that trace on N lanes with a
//! greedy least-loaded schedule (wave barriers preserved). On a single-core
//! host the measured column is flat while the modeled column shows the
//! parallel fraction the runtime actually exposes.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin parallel_scaling
//! [--scale F] [--scenes N] [--out PATH]`

use std::sync::Arc;
use std::time::Instant;
use torchsparse_bench::{build_model, dataset_for, fmt, scenes, BenchArgs};
use torchsparse_core::runtime::{modeled_makespan, ThreadPool};
use torchsparse_core::{DeviceProfile, Engine, OptimizationConfig};
use torchsparse_models::BenchmarkModel;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MODEL_LANES: [usize; 5] = [1, 2, 4, 8, 16];

fn engine_with_threads(threads: usize) -> Engine {
    let mut cfg = OptimizationConfig::torchsparse();
    cfg.threads = Some(threads);
    Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(0.05, 2);
    let out_path = args
        .rest
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.rest.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_parallel.json".to_owned());
    let min_parallel_fraction: Option<f64> = args
        .rest
        .iter()
        .position(|a| a == "--min-parallel-fraction")
        .and_then(|i| args.rest.get(i + 1))
        .and_then(|v| v.parse().ok());

    let bm = BenchmarkModel::MinkUNetHalfSemanticKitti;
    let ds = dataset_for(bm, args.scale);
    let inputs = scenes(&ds, args.scenes, args.seed)?;
    let model = build_model(bm, args.seed);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "== Parallel runtime scaling: {} (scale {}, {} scenes, host cores {}) ==\n",
        bm.name(),
        args.scale,
        args.scenes,
        host_cores
    );

    // Measured wall-clock at each worker count, real numerics. The first
    // pass warms caches and packed weights so the steady state is what gets
    // timed; outputs are compared bitwise against the 1-thread run.
    //
    // On a single-core host multi-thread wall clock is pure OS
    // time-slicing — a "speedup" column of ~0.95x would only mislead — so
    // those rows are skipped outright (and marked as such in the JSON);
    // the modeled replay below is the scaling signal there.
    let measured_counts: Vec<usize> =
        if host_cores == 1 { vec![1] } else { THREAD_COUNTS.to_vec() };
    let skipped_counts: Vec<usize> =
        THREAD_COUNTS.iter().copied().filter(|t| !measured_counts.contains(t)).collect();
    let mut measured: Vec<(usize, f64)> = Vec::new();
    let mut reference_bits: Option<Vec<u32>> = None;
    for &threads in &measured_counts {
        let mut engine = engine_with_threads(threads);
        let mut out = engine.run(model.as_ref(), &inputs[0])?;
        let start = Instant::now();
        for x in &inputs {
            out = engine.run(model.as_ref(), x)?;
        }
        let wall = start.elapsed().as_secs_f64() / inputs.len() as f64;
        let bits: Vec<u32> = out.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        match &reference_bits {
            None => reference_bits = Some(bits),
            Some(r) => {
                assert_eq!(r, &bits, "outputs must be bitwise identical at {threads} threads")
            }
        }
        measured.push((threads, wall));
    }

    // Modeled scaling: trace every parallel region's task durations with a
    // recording pool, then replay the trace on N lanes. The traced frame is
    // a compiled session's plan hit — the serving steady state: no mapping
    // and no cost model on the path, only the executor — with the policy
    // search off so it runs the same default policy as the rows above.
    let mut engine = engine_with_threads(1);
    engine.context_mut().config.autotune_policies = false;
    let mut session = engine.compile(model.as_ref(), &inputs[0])?;
    session.execute(&inputs[0])?; // warm caches and packed weights
    let pool = Arc::new(ThreadPool::new_recording());
    session.engine_mut().context_mut().runtime.set_pool(pool.clone());
    let start = Instant::now();
    session.execute(&inputs[0])?;
    let traced_wall = start.elapsed().as_secs_f64();
    let trace = pool.take_trace();
    let traced_work: f64 = trace.iter().flatten().sum();
    let serial_residual = (traced_wall - traced_work).max(0.0);
    let parallel_fraction = if traced_wall > 0.0 { traced_work / traced_wall } else { 0.0 };
    let base = modeled_makespan(&trace, 1, serial_residual);
    let modeled: Vec<(usize, f64, f64)> = MODEL_LANES
        .iter()
        .map(|&lanes| {
            let span = modeled_makespan(&trace, lanes, serial_residual);
            (lanes, span, base / span)
        })
        .collect();

    let base_wall = measured[0].1;
    let mut rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let modeled_speedup =
            modeled.iter().find(|(l, _, _)| *l == threads).map(|(_, _, s)| *s).unwrap_or(1.0);
        match measured.iter().find(|(t, _)| *t == threads) {
            Some(&(_, wall)) => {
                // Honesty marker: with more workers than hardware cores the
                // OS time-slices them, so the measured column says nothing
                // about true scaling — only the modeled replay does.
                let saturated = if threads > host_cores { " (saturated)" } else { "" };
                rows.push(vec![
                    format!("{threads}{saturated}"),
                    format!("{:.1}", wall * 1e3),
                    fmt::speedup(base_wall / wall),
                    fmt::speedup(modeled_speedup),
                ]);
            }
            None => rows.push(vec![
                format!("{threads} (skipped)"),
                "-".to_owned(),
                "-".to_owned(),
                fmt::speedup(modeled_speedup),
            ]),
        }
    }
    println!(
        "{}",
        fmt::table(&["threads", "wall ms/scene", "measured speedup", "modeled speedup"], &rows)
    );
    if !skipped_counts.is_empty() {
        println!(
            "note: single-core host — multi-thread rows are not measured (wall clock there \
             is OS time-slicing, not parallel scaling); use the modeled column"
        );
    } else if THREAD_COUNTS.iter().any(|&t| t > host_cores) {
        println!(
            "note: rows marked (saturated) ran more workers than the {host_cores} hardware \
             core(s); their measured speedup reflects OS time-slicing, not parallel scaling — \
             use the modeled column there"
        );
    }
    println!(
        "parallel regions: {} waves, {} tasks, {:.0}% of traced wall inside tasks",
        trace.len(),
        trace.iter().map(Vec::len).sum::<usize>(),
        parallel_fraction * 100.0
    );
    let speedup_8 = modeled.iter().find(|(l, _, _)| *l == 8).map(|(_, _, s)| *s).unwrap_or(0.0);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"model\": \"{}\",\n", bm.name()));
    json.push_str(&format!("  \"scale\": {},\n", args.scale));
    json.push_str(&format!("  \"scenes\": {},\n", args.scenes));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str("  \"bitwise_identical_across_threads\": true,\n");
    json.push_str("  \"measured\": [\n");
    for (i, &threads) in THREAD_COUNTS.iter().enumerate() {
        let tail = if i + 1 < THREAD_COUNTS.len() { "," } else { "" };
        match measured.iter().find(|(t, _)| *t == threads) {
            Some(&(_, wall)) => json.push_str(&format!(
                "    {{\"threads\": {threads}, \"wall_ms_per_scene\": {:.3}, \"speedup\": {:.3}, \
                 \"saturated\": {}, \"skipped\": false}}{tail}\n",
                wall * 1e3,
                base_wall / wall,
                threads > host_cores,
            )),
            None => json.push_str(&format!(
                "    {{\"threads\": {threads}, \"skipped\": true, \
                 \"reason\": \"single-core host: measured multi-thread wall clock is OS \
                 time-slicing, not scaling\"}}{tail}\n"
            )),
        }
    }
    json.push_str("  ],\n");
    json.push_str("  \"modeled\": [\n");
    for (i, &(lanes, span, speedup)) in modeled.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"lanes\": {lanes}, \"makespan_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            span * 1e3,
            speedup,
            if i + 1 < modeled.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"trace\": {{\"waves\": {}, \"tasks\": {}, \"parallel_fraction\": {:.4}}},\n",
        trace.len(),
        trace.iter().map(Vec::len).sum::<usize>(),
        parallel_fraction
    ));
    json.push_str(&format!("  \"modeled_speedup_at_8_lanes\": {speedup_8:.3}\n"));
    json.push_str("}\n");
    std::fs::write(&out_path, json)?;
    println!("\nwrote {out_path}");

    if speedup_8 < 2.0 {
        println!("WARNING: modeled 8-lane speedup {speedup_8:.2}x below the 2x target");
    }
    if let Some(min) = min_parallel_fraction {
        if parallel_fraction < min {
            return Err(format!(
                "parallel fraction {parallel_fraction:.4} below the required {min} \
                 (--min-parallel-fraction)"
            )
            .into());
        }
        println!("parallel fraction {parallel_fraction:.4} meets the {min} floor");
    }
    Ok(())
}
