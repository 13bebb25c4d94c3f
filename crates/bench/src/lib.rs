//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (see `DESIGN.md`'s per-experiment
//! index).
//!
//! Each `fig*`/`table*`/`ablation*` binary is self-contained: it builds the
//! benchmark models ([`build_model`]) and synthetic datasets
//! ([`dataset_for`]), prices them on the simulated GPUs
//! ([`Engine::price`]: plans are built and walked through the cost model,
//! never executed, so full-scale scenes are affordable), and prints
//! rows/series shaped like the paper's. Run them with
//! `cargo run --release -p torchsparse-bench --bin <name>`; their output
//! at the default arguments is checked in under `results/`. Host
//! wall-clock measurement lives in the repository's `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use torchsparse_core::grouping::plan_groups;
use torchsparse_core::tuning::{grouped_matmul_latency, tune_engine};
use torchsparse_core::{
    CoreError, DeviceProfile, Engine, EnginePreset, GroupingStrategy, LayerWorkload,
    MapSearchStrategy, Module, OptimizationConfig, Precision, SparseTensor,
};
use torchsparse_data::SyntheticDataset;
use torchsparse_gpusim::{GemmModel, GemmShape, Micros, Precision as GemmPrecision, Timeline};
use torchsparse_models::{BenchmarkModel, CenterPoint, MinkUNet};

pub mod fmt;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Scene scale relative to the full datasets (1.0 = full size).
    pub scale: f64,
    /// Number of scenes to average over.
    pub scenes: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Remaining (binary-specific) flags.
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// Parses `--scale F`, `--scenes N`, and `--seed N` from `std::env::args`,
    /// leaving everything else in `rest`.
    pub fn parse(default_scale: f64, default_scenes: usize) -> BenchArgs {
        let mut args =
            BenchArgs { scale: default_scale, scenes: default_scenes, seed: 42, rest: Vec::new() };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    args.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--scale needs a float"));
                }
                "--scenes" => {
                    args.scenes = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--scenes needs an integer"));
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs an integer"));
                }
                other => args.rest.push(other.to_owned()),
            }
        }
        args
    }

    /// Whether a binary-specific flag is present.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }
}

/// The synthetic dataset corresponding to a benchmark configuration.
pub fn dataset_for(model: BenchmarkModel, scale: f64) -> SyntheticDataset {
    match model {
        BenchmarkModel::MinkUNetHalfSemanticKitti | BenchmarkModel::MinkUNetFullSemanticKitti => {
            SyntheticDataset::semantic_kitti(scale, 4)
        }
        BenchmarkModel::MinkUNetNuScenes1 => SyntheticDataset::nuscenes(scale, 4, 1),
        BenchmarkModel::MinkUNetNuScenes3 => SyntheticDataset::nuscenes(scale, 4, 3),
        BenchmarkModel::CenterPointNuScenes10 => SyntheticDataset::nuscenes(scale, 5, 10),
        BenchmarkModel::CenterPointWaymo1 => SyntheticDataset::waymo(scale, 5, 1),
        BenchmarkModel::CenterPointWaymo3 => SyntheticDataset::waymo(scale, 5, 3),
    }
}

/// Builds the network for a benchmark configuration.
pub fn build_model(model: BenchmarkModel, seed: u64) -> Box<dyn Module> {
    match model {
        BenchmarkModel::MinkUNetHalfSemanticKitti => {
            Box::new(MinkUNet::with_width(0.5, 4, 19, seed))
        }
        BenchmarkModel::MinkUNetFullSemanticKitti => {
            Box::new(MinkUNet::with_width(1.0, 4, 19, seed))
        }
        BenchmarkModel::MinkUNetNuScenes1 | BenchmarkModel::MinkUNetNuScenes3 => {
            Box::new(MinkUNet::with_width(1.0, 4, 16, seed))
        }
        BenchmarkModel::CenterPointNuScenes10
        | BenchmarkModel::CenterPointWaymo1
        | BenchmarkModel::CenterPointWaymo3 => Box::new(CenterPoint::new(5, seed)),
    }
}

/// Generates `n` scenes of a dataset.
///
/// # Errors
///
/// Propagates [`CoreError`] from scene generation.
pub fn scenes(ds: &SyntheticDataset, n: usize, seed: u64) -> Result<Vec<SparseTensor>, CoreError> {
    (0..n).map(|i| ds.scene(seed + i as u64)).collect()
}

/// Prices a model on each scene and returns the mean timeline.
///
/// # Errors
///
/// Propagates engine errors.
pub fn measure<M: Module + ?Sized>(
    engine: &mut Engine,
    model: &M,
    inputs: &[SparseTensor],
) -> Result<Timeline, CoreError> {
    let mut total = Timeline::new();
    for x in inputs {
        total.merge(engine.price(model, x)?);
    }
    // Average by scaling.
    let mut avg = Timeline::new();
    for stage in torchsparse_gpusim::Stage::ALL {
        avg.add(stage, total.stage(stage) * (1.0 / inputs.len().max(1) as f64));
    }
    Ok(avg)
}

/// Table 3's ladder: the FP32 baseline, then FP16 storage, vectorized
/// access, fused gather/scatter phases and locality-aware ordering, each
/// stacked on the previous configuration.
pub fn data_movement_ladder() -> Vec<(&'static str, OptimizationConfig)> {
    ladder(&[
        ("FP32 baseline", |_| {}),
        ("+ FP16 (scalar)", |c| c.precision = Precision::Fp16),
        ("+ vectorized", |c| c.vectorized = true),
        ("+ fused", |c| c.fused_gather_scatter = true),
        ("+ locality-aware", |c| c.locality_aware = true),
    ])
}

/// Figure 13's ladder: the baseline mapping pipeline, then the paper's four
/// mapping optimizations in its order, each stacked on the previous one.
pub fn mapping_ladder() -> Vec<(&'static str, OptimizationConfig)> {
    ladder(&[
        ("baseline (hashmap, staged, branchy)", |_| {}),
        ("+ grid-based map search", |c| c.map_search = MapSearchStrategy::Grid),
        ("+ fused downsample kernels", |c| c.fused_downsample = true),
        ("+ simplified control logic", |c| c.simplified_mapping_kernels = true),
        ("+ symmetric map reuse", |c| c.symmetric_map_search = true),
    ])
}

/// One rung of a ladder: its label and the optimization it switches on.
type Rung = (&'static str, fn(&mut OptimizationConfig));

/// Applies `steps` cumulatively to the FP32 baseline configuration.
fn ladder(steps: &[Rung]) -> Vec<(&'static str, OptimizationConfig)> {
    let mut cfg = OptimizationConfig::baseline_fp32();
    steps
        .iter()
        .map(|(label, apply)| {
            apply(&mut cfg);
            (*label, cfg.clone())
        })
        .collect()
}

/// One configuration of Table 1: the workloads a model records on a
/// dataset, and the per-layer adaptive grouping `(epsilon, S)` Algorithm 5
/// tunes for it on a device.
#[derive(Debug, Clone)]
pub struct Specialization {
    /// Row/column label.
    pub label: String,
    /// The workloads of the first scene.
    pub workloads: Vec<LayerWorkload>,
    /// Tuned `(epsilon, S)` per layer.
    pub tuned: HashMap<String, (f64, usize)>,
    /// The device tuned for.
    pub device: DeviceProfile,
}

impl Specialization {
    /// Tunes `bm` on `args.scenes` scenes for `device`, then records the
    /// workloads of the first scene.
    ///
    /// # Errors
    ///
    /// Propagates scene generation and pricing errors.
    pub fn prepare(
        bm: BenchmarkModel,
        device: DeviceProfile,
        args: &BenchArgs,
        label: &str,
    ) -> Result<Specialization, CoreError> {
        let inputs = scenes(&dataset_for(bm, args.scale), args.scenes, args.seed)?;
        let model = build_model(bm, args.seed);
        let mut engine = Engine::new(EnginePreset::TorchSparse, device.clone());
        let tuned = tune_engine(&mut engine, model.as_ref(), &inputs, None)?.selected;
        engine.context_mut().record_workloads = true;
        engine.price(model.as_ref(), &inputs[0])?;
        Ok(Specialization {
            label: label.to_owned(),
            workloads: engine.context().workloads.clone(),
            tuned,
            device,
        })
    }

    /// Executes these workloads on this device with the strategy tuned by
    /// `opt`; returns (TFLOP/s, matmul latency in µs). Layers `opt` did not
    /// tune (possible across models) fall back to the default adaptive
    /// configuration, as a practitioner would.
    pub fn evaluate(&self, opt: &Specialization) -> (f64, f64) {
        let gemm = GemmModel::new(self.device.clone());
        let mut total_us = 0.0;
        let mut total_flops = 0.0;
        for w in &self.workloads {
            let (epsilon, s_threshold) = opt.tuned.get(&w.name).copied().unwrap_or((0.3, 150_000));
            let strategy = GroupingStrategy::Adaptive { epsilon, s_threshold };
            total_us += grouped_matmul_latency(w, strategy, &gemm, Precision::Fp16).as_f64();
            let plan = plan_groups(&w.map_sizes, w.submanifold, strategy);
            total_flops +=
                plan.executed_rows(&w.map_sizes) as f64 * 2.0 * w.c_in as f64 * w.c_out as f64;
        }
        (total_flops / (total_us * 1e6), total_us)
    }
}

/// Figure 7's group sizes.
pub const BATCH_GROUP_SIZES: [usize; 7] = [1, 2, 4, 6, 8, 13, 26];

/// The layer Figure 7 profiles — the first submanifold convolution with at
/// least 16 input channels (the 4-channel input stem is launch-bound, not
/// GEMM-bound) — priced on the RTX 2080Ti, with its non-empty non-center
/// per-offset map sizes in offset order.
///
/// # Errors
///
/// Propagates pricing errors; `Ok(None)` when the model has no such layer.
pub fn batching_layer(
    model: &dyn Module,
    input: &SparseTensor,
) -> Result<Option<(LayerWorkload, Vec<usize>)>, CoreError> {
    let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    engine.context_mut().record_workloads = true;
    engine.price(model, input)?;
    let layer = engine.context().workloads.iter().find(|w| w.submanifold && w.c_in >= 16).cloned();
    Ok(layer.map(|w| {
        let center = (w.map_sizes.len() - 1) / 2;
        let sizes = w
            .map_sizes
            .iter()
            .enumerate()
            .filter(|&(n, &s)| n != center && s > 0)
            .map(|(_, &s)| s)
            .collect();
        (w, sizes)
    }))
}

/// FP16 matmul latency of per-offset workloads of `sizes` rows executed in
/// consecutive groups of `group` (a lone offset as one GEMM, a group as one
/// batched GEMM padded to its largest member) — Figure 7's trade of FLOPs
/// for regularity.
pub fn batched_matmul_latency(
    sizes: &[usize],
    c_in: usize,
    c_out: usize,
    group: usize,
    gemm: &GemmModel,
) -> Micros {
    let mut total = Micros::ZERO;
    for chunk in sizes.chunks(group) {
        let shape = match chunk {
            [single] => GemmShape::mm(*single, c_in, c_out),
            _ => {
                let padded = chunk.iter().copied().max().unwrap_or(0);
                GemmShape::bmm(chunk.len(), padded, c_in, c_out)
            }
        };
        total += gemm.latency(shape, GemmPrecision::Fp16);
    }
    total
}

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchsparse_core::{DeviceProfile, EnginePreset};

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn datasets_cover_all_models() {
        for m in BenchmarkModel::ALL {
            let ds = dataset_for(m, 0.02);
            assert!(ds.scene(0).unwrap().len() > 10, "{}", m.name());
        }
    }

    #[test]
    fn models_build() {
        for m in BenchmarkModel::ALL {
            let model = build_model(m, 1);
            assert!(model.param_count() > 0, "{}", m.name());
        }
    }

    #[test]
    fn measure_runs_every_benchmark_model_small() {
        for m in [BenchmarkModel::MinkUNetHalfSemanticKitti, BenchmarkModel::CenterPointWaymo1] {
            let ds = dataset_for(m, 0.015);
            let inputs = scenes(&ds, 1, 0).unwrap();
            let model = build_model(m, 1);
            let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
            let t = measure(&mut e, model.as_ref(), &inputs).unwrap();
            assert!(t.total().as_f64() > 0.0, "{}", m.name());
        }
    }
}
