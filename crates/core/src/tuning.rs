//! Adaptive group search — Algorithm 5 of the paper (§4.2.3, Appendix B).
//!
//! For every convolution layer, the tuner grid-searches the redundancy
//! tolerance `epsilon` and the mm/bmm threshold `S` over a calibration set
//! of scenes (the paper uses ~100 training samples and <1000 configurations,
//! inference-only). The cost function is the simulated matmul latency of the
//! layer's grouped plan under the engine's device model — the exact
//! counterpart of the paper's wall-clock measurement loop.
//!
//! The search runs once per (model, dataset, device) triple; the selected
//! per-layer `(epsilon, S)` are stored in the engine context and picked up
//! when each convolution is planned on subsequent runs. Because the
//! grouping algorithm itself is input-adaptive, the same `(epsilon, S)`
//! yields different partitions for different scenes (§4.2.3).
//!
//! A compile runs no search. When the cost model first walks a compiled
//! plan under `autotune_policies`, it runs the same grid per layer on that
//! plan's own maps ([`prior_grouping`]), so a re-plan is priced like a cold
//! compile of its geometry; `tuning_report` reports the compile-time plan's
//! choices by the same rule. The host executor never computes pad rows, so
//! every choice is bitwise-neutral. Nothing is timed and nothing is
//! persisted: executor task widths are constants (64-row chunks and panels).

use crate::config::{GroupingStrategy, OptimizationConfig, Precision};
use crate::context::LayerWorkload;
use crate::engine::Engine;
use crate::grouping::plan_groups;
use crate::module::Module;
use crate::plan::{ConvPlan, ExecutionPlan, StepPlan};
use crate::{CoreError, SparseTensor};
use std::collections::HashMap;
use torchsparse_gpusim::Precision as GemmPrecision;
use torchsparse_gpusim::{GemmModel, GemmShape, Micros};

/// The grid searched by [`tune_engine`] when none is supplied: 10 epsilon
/// values x 8 thresholds = 80 configurations per layer (the paper's space
/// is "usually < 1000").
pub(crate) fn default_search_space() -> (Vec<f64>, Vec<usize>) {
    let epsilons = vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0];
    let thresholds = vec![0, 10_000, 30_000, 60_000, 120_000, 250_000, 500_000, usize::MAX];
    (epsilons, thresholds)
}

/// Simulated matmul latency of one layer workload under a grouping strategy.
///
/// This is the tuner's cost function `f` (Algorithm 5): the sum of the
/// grouped GEMM latencies, padding included.
pub fn grouped_matmul_latency(
    workload: &LayerWorkload,
    strategy: GroupingStrategy,
    gemm: &GemmModel,
    precision: Precision,
) -> Micros {
    let gp = match precision {
        Precision::Fp32 => GemmPrecision::Fp32,
        _ => GemmPrecision::Fp16,
    };
    let plan = plan_groups(&workload.map_sizes, workload.submanifold, strategy);
    let mut total = Micros::ZERO;
    for g in &plan.groups {
        if g.use_bmm {
            total += gemm.latency(
                GemmShape::bmm(g.offsets.len(), g.padded_rows, workload.c_in, workload.c_out),
                gp,
            );
        } else {
            for &n in &g.offsets {
                let rows = workload.map_sizes[n];
                if rows > 0 {
                    total += gemm.latency(GemmShape::mm(rows, workload.c_in, workload.c_out), gp);
                }
            }
        }
    }
    total
}

/// Algorithm 5's double loop: the adaptive `(epsilon, S)` of the grid with
/// the lowest `cost`, the first found among equals, and that cost. `None`
/// on an empty grid.
fn cheapest_adaptive(
    epsilons: &[f64],
    thresholds: &[usize],
    cost: impl Fn(GroupingStrategy) -> f64,
) -> Option<(GroupingStrategy, f64)> {
    let mut best: Option<(GroupingStrategy, f64)> = None;
    for &epsilon in epsilons {
        for &s_threshold in thresholds {
            let strategy = GroupingStrategy::Adaptive { epsilon, s_threshold };
            let c = cost(strategy);
            if best.is_none_or(|(_, b)| c < b) {
                best = Some((strategy, c));
            }
        }
    }
    best
}

/// Result of tuning one engine for one model on a calibration set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningReport {
    /// Layer name -> selected `(epsilon, S)`.
    pub selected: HashMap<String, (f64, usize)>,
    /// Number of calibration scenes profiled.
    pub samples: usize,
    /// Number of `(epsilon, S)` configurations evaluated per layer: the
    /// searched grid's size, 0 when a compile found every layer's grouping
    /// pinned.
    pub configs_searched: usize,
    /// Whether tuning failed and the engine was degraded to fixed grouping
    /// instead of installing per-layer parameters.
    pub degraded: bool,
    /// Layer name -> the grouping the cost model prices a compiled
    /// session's compile-time plan at (empty for calibration tuning with
    /// [`tune_engine`]).
    pub policies: HashMap<String, GroupingStrategy>,
    /// Wall-clock candidate measurements tuning performed: always zero,
    /// since every choice is priced on the simulated device.
    pub candidates_measured: usize,
}

/// Runs Algorithm 5: profiles the model on `samples`, grid-searches
/// `(epsilon, S)` per layer, and installs the winners into the engine's
/// context.
///
/// Tuning itself degrades gracefully: when a profiling run fails — or a
/// [`FaultSite::GroupTuning`](crate::FaultSite::GroupTuning) fault is
/// injected — the engine falls back to fixed grouping
/// ([`GroupingStrategy::Fixed`] semantics for adaptive layers), the
/// fallback is recorded in the context's degradation report, and the
/// returned report carries `degraded = true`. Inference keeps working
/// either way; only the grouping optimality is lost.
///
/// # Errors
///
/// None currently — profiling failures degrade instead of propagating.
pub fn tune_engine<M: Module + ?Sized>(
    engine: &mut Engine,
    model: &M,
    samples: &[SparseTensor],
    space: Option<(Vec<f64>, Vec<usize>)>,
) -> Result<TuningReport, CoreError> {
    let (epsilons, thresholds) = space.unwrap_or_else(default_search_space);
    let configs_searched = epsilons.len() * thresholds.len();

    // Profile: collect per-layer workloads across the calibration scenes.
    // Workloads are geometry, recorded when a plan is built: pricing each
    // scene records them without running it.
    let mut per_layer: HashMap<String, Vec<LayerWorkload>> = HashMap::new();
    let mut failure: Option<String> = None;
    for sample in samples {
        engine.context_mut().record_workloads = true;
        engine.context_mut().workloads.clear();
        let run = engine.price(model, sample).map(|_| ());
        engine.context_mut().record_workloads = false;
        if let Err(e) = run {
            failure = Some(e.to_string());
            break;
        }
        let workloads = std::mem::take(&mut engine.context_mut().workloads);
        for w in workloads {
            per_layer.entry(w.name.clone()).or_default().push(w);
        }
    }
    if engine.context_mut().runtime.faults.should_fail(crate::faults::FaultSite::GroupTuning) {
        failure = Some("injected tuning fault".to_owned());
    }
    if let Some(cause) = failure {
        let ctx = engine.context_mut();
        ctx.planner.grouping_fallback = true;
        ctx.runtime.degradation.record(
            crate::faults::FaultSite::GroupTuning,
            &format!("tuning failed ({cause}); fixed grouping installed"),
        );
        return Ok(TuningReport {
            samples: samples.len(),
            configs_searched,
            degraded: true,
            ..Default::default()
        });
    }

    // Grid search per layer (Algorithm 5's double loop).
    let gemm = engine.context().gemm.clone();
    let precision = engine.context().config.precision;
    let mut selected = HashMap::new();
    for (layer, workloads) in &per_layer {
        let best = cheapest_adaptive(&epsilons, &thresholds, |strategy| {
            workloads
                .iter()
                .map(|w| grouped_matmul_latency(w, strategy, &gemm, precision).as_f64())
                .sum()
        });
        if let Some((GroupingStrategy::Adaptive { epsilon, s_threshold }, _)) = best {
            selected.insert(layer.clone(), (epsilon, s_threshold));
        }
    }

    let tuned = selected.iter().map(|(layer, &(epsilon, s_threshold))| {
        (layer.clone(), GroupingStrategy::Adaptive { epsilon, s_threshold })
    });
    engine.context_mut().planner.groupings.extend(tuned);
    Ok(TuningReport { selected, samples: samples.len(), configs_searched, ..Default::default() })
}

/// The grouping the simulated prior selects for one layer whose plan
/// stores `default` (a calibrated `(epsilon, S)`, else the configured
/// grouping): when `default` is adaptive, the simulated-cost winner of the
/// Algorithm 5 grid over `map_sizes` if it strictly beats `default`, else
/// `default`, so a compiled session never looks slower to the simulator
/// than the dynamic engine. The cost model's walk and [`compiled_report`]
/// both call it through [`priced_grouping`], so they cannot disagree.
pub(crate) fn prior_grouping(
    default: GroupingStrategy,
    map_sizes: &[usize],
    submanifold: bool,
    c_in: usize,
    c_out: usize,
    gemm: &GemmModel,
    precision: Precision,
) -> GroupingStrategy {
    if let GroupingStrategy::Adaptive { .. } = default {
        let map_sizes = map_sizes.to_vec();
        let w = LayerWorkload { name: String::new(), map_sizes, c_in, c_out, submanifold };
        let cost = |strategy| grouped_matmul_latency(&w, strategy, gemm, precision).as_f64();
        let (epsilons, thresholds) = default_search_space();
        if let Some((best, c)) = cheapest_adaptive(&epsilons, &thresholds, cost) {
            if c < cost(default) {
                return best;
            }
        }
    }
    default
}

/// The grouping the cost model prices convolution `p` at under `config`:
/// none where `fetch_on_demand_below` prices the layer as fetch-on-demand
/// (its map holds fewer entries per offset than the threshold), else its
/// stored strategy or, with `search`, [`prior_grouping`]'s choice against
/// it on the plan's own map.
pub(crate) fn priced_grouping(
    p: &ConvPlan,
    search: bool,
    gemm: &GemmModel,
    config: &OptimizationConfig,
) -> Option<GroupingStrategy> {
    let map = &p.cached.map;
    let per_offset = map.total_entries() / map.num_offsets().max(1);
    if config.fetch_on_demand_below.is_some_and(|t| per_offset < t) {
        return None;
    }
    if !search {
        return Some(p.grouping);
    }
    let (sizes, submanifold) = (p.map().sizes(), p.center.is_some());
    let (c_in, c_out, precision) = (p.c_in, p.c_out, config.precision);
    Some(prior_grouping(p.grouping, &sizes, submanifold, c_in, c_out, gemm, precision))
}

/// The tuning report of a compiled plan: for every convolution priced with
/// a grouping, the one its walk prices it at under `autotune_policies`.
pub(crate) fn compiled_report(
    plan: &ExecutionPlan,
    gemm: &GemmModel,
    config: &OptimizationConfig,
) -> TuningReport {
    let mut policies: HashMap<String, GroupingStrategy> = HashMap::new();
    let mut selected: HashMap<String, (f64, usize)> = HashMap::new();
    for (step, name) in plan.steps.iter().zip(&plan.names) {
        let (StepPlan::Conv(p) | StepPlan::Residual { projection: Some(p) }, Some(name)) =
            (step, name)
        else {
            continue;
        };
        // Layers priced as fetch-on-demand have no grouping to tune.
        let Some(grouping) = priced_grouping(p, true, gemm, config) else { continue };
        if let GroupingStrategy::Adaptive { epsilon, s_threshold } = grouping {
            selected.insert(name.clone(), (epsilon, s_threshold));
        }
        policies.insert(name.clone(), grouping);
    }
    // `prior_grouping` searched the grid for every layer it left adaptive,
    // and nothing for a pinned one.
    let (epsilons, thresholds) = default_search_space();
    let configs_searched = if selected.is_empty() { 0 } else { epsilons.len() * thresholds.len() };
    TuningReport { selected, samples: 1, configs_searched, policies, ..Default::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnginePreset;
    use crate::{Sequential, SparseConv3d};
    use torchsparse_coords::Coord;
    use torchsparse_gpusim::DeviceProfile;
    use torchsparse_tensor::Matrix;

    fn scene(seed: i32) -> SparseTensor {
        let coords: Vec<Coord> = (0..60)
            .map(|i| Coord::new(0, (i * 7 + seed) % 10, (i * 3) % 9, (i * 5 + seed) % 8))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let n = coords.len();
        SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r + c) % 3) as f32)).unwrap()
    }

    fn model() -> Sequential {
        Sequential::new("m")
            .push(SparseConv3d::with_random_weights("c1", 4, 8, 3, 1, 1))
            .push(SparseConv3d::with_random_weights("c2", 8, 4, 3, 1, 2))
    }

    #[test]
    fn tuner_selects_parameters_for_every_conv() {
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let samples = vec![scene(0), scene(1)];
        let report = tune_engine(&mut e, &model(), &samples, None).unwrap();
        assert!(report.selected.contains_key("c1"));
        assert!(report.selected.contains_key("c2"));
        assert_eq!(report.samples, 2);
        assert_eq!(report.configs_searched, 80);
        // Installed into the context.
        assert_eq!(
            e.context().grouping_for("c1"),
            GroupingStrategy::Adaptive {
                epsilon: report.selected["c1"].0,
                s_threshold: report.selected["c1"].1
            }
        );
    }

    #[test]
    fn tuned_cost_never_worse_than_corners() {
        // The selected config must be at least as good as the degenerate
        // corners of the space (separate / symmetric / dense).
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let samples = vec![scene(3)];
        let report = tune_engine(&mut e, &model(), &samples, None).unwrap();

        // Re-profile to get the workloads.
        e.context_mut().record_workloads = true;
        e.run(&model(), &samples[0]).unwrap();
        let workloads = std::mem::take(&mut e.context_mut().workloads);
        let gemm = e.context().gemm.clone();
        for w in &workloads {
            let (eps, s) = report.selected[&w.name];
            let tuned = grouped_matmul_latency(
                w,
                GroupingStrategy::Adaptive { epsilon: eps, s_threshold: s },
                &gemm,
                Precision::Fp16,
            );
            for corner in [
                GroupingStrategy::Adaptive { epsilon: 0.0, s_threshold: usize::MAX },
                GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: 0 },
                GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: usize::MAX },
            ] {
                let c = grouped_matmul_latency(w, corner, &gemm, Precision::Fp16);
                assert!(
                    tuned.as_f64() <= c.as_f64() + 1e-9,
                    "layer {} tuned {} worse than corner {:?} {}",
                    w.name,
                    tuned,
                    corner,
                    c
                );
            }
        }
    }

    #[test]
    fn injected_tuning_fault_degrades_to_fixed_grouping() {
        use crate::faults::FaultSite;
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        e.context_mut().runtime.faults.arm(FaultSite::GroupTuning);
        let report = tune_engine(&mut e, &model(), &[scene(0)], None).unwrap();
        assert!(report.degraded);
        assert!(report.selected.is_empty());
        assert!(e.context().planner.grouping_fallback);
        assert!(e.degradation_report().count(FaultSite::GroupTuning) >= 1);
        // The engine still runs end-to-end with the fixed-grouping fallback.
        let out = e.run(&model(), &scene(1)).unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn successful_tuning_is_not_degraded() {
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let report = tune_engine(&mut e, &model(), &[scene(0)], None).unwrap();
        assert!(!report.degraded);
        assert!(!e.context().planner.grouping_fallback);
    }

    #[test]
    fn custom_search_space_respected() {
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let report =
            tune_engine(&mut e, &model(), &[scene(0)], Some((vec![0.5], vec![1000]))).unwrap();
        assert_eq!(report.configs_searched, 1);
        assert_eq!(report.selected["c1"], (0.5, 1000));
    }

    #[test]
    fn compile_after_tune_engine_prices_the_groupings_it_reports() {
        // On this scene no grid point strictly beats the configured
        // grouping for `c1`, and the calibrated one groups differently.
        let coords: Vec<Coord> = (0..60)
            .map(|i| Coord::new(0, (i * 7) % 13, (i * 3) % 11, (i * 5) % 9))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let n = coords.len();
        let x =
            SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r + c) % 3) as f32)).unwrap();
        let calibrated = GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: 0 };
        let tuned = |autotune: bool| {
            let mut cfg = EnginePreset::TorchSparse.config();
            cfg.autotune_policies = autotune;
            let mut e = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
            tune_engine(&mut e, &model(), std::slice::from_ref(&x), Some((vec![1.0], vec![0])))
                .unwrap();
            e
        };
        let m = model();
        let mut session = tuned(true).compile(&m, &x).unwrap();
        let report = session.tuning_report().unwrap().clone();
        assert_eq!(report.policies.len(), 2);
        // The plan stores the calibrated strategy, the default the search
        // must beat, and a hit is priced at the reported groupings: the
        // same timeline as an untuned compile pinned to them.
        let stores_calibrated = |plan: &ExecutionPlan| {
            for step in &plan.steps {
                if let StepPlan::Conv(p) = step {
                    assert_eq!(p.grouping, calibrated);
                }
            }
        };
        stores_calibrated(session.plan());
        session.execute(&x).unwrap();
        let mut pinned = tuned(false);
        pinned.context_mut().planner.groupings = report.policies.clone();
        let mut reported = pinned.compile(&m, &x).unwrap();
        reported.execute(&x).unwrap();
        assert_eq!(session.last_timeline(), reported.last_timeline());

        // A re-plan for new geometry stores the calibrated strategy too,
        // and is priced exactly like a cold compile of that geometry.
        let y = scene(2);
        session.execute(&y).unwrap();
        assert_eq!(session.stats().misses, 2);
        stores_calibrated(session.plan());
        session.execute(&y).unwrap();
        let mut cold = tuned(true).compile(&m, &y).unwrap();
        cold.execute(&y).unwrap();
        assert_eq!(session.last_timeline(), cold.last_timeline());
    }

    #[test]
    fn a_compile_reports_the_grid_its_prior_searched() {
        // Per layer, the prior evaluates the whole (epsilon, S) grid, as
        // calibration tuning does; a pinned grouping searches nothing.
        let x = scene(0);
        let compile = |grouping| {
            let mut cfg = EnginePreset::TorchSparse.config();
            cfg.grouping = grouping;
            let e = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
            e.compile(&model(), &x).unwrap().tuning_report().unwrap().clone()
        };
        let adaptive = compile(GroupingStrategy::default_adaptive());
        assert_eq!(adaptive.policies.len(), 2);
        assert_eq!(adaptive.configs_searched, 80);
        let pinned = compile(GroupingStrategy::Separate);
        assert_eq!(pinned.policies.len(), 2);
        assert_eq!(pinned.configs_searched, 0);
    }

    #[test]
    fn prior_grouping_never_costs_more_than_the_default() {
        // Whatever grouping the prior selects, its sim-cost is <= the
        // default's: compiled sessions must never look slower than
        // dynamic execution to the simulator.
        let e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let ctx = e.context();
        let (gemm, precision, default) = (&ctx.gemm, ctx.config.precision, ctx.config.grouping);
        let map_sizes: Vec<usize> = (0..27).map(|i| 2000 + i * 300).collect();
        let picked = prior_grouping(default, &map_sizes, true, 32, 64, gemm, precision);
        let w = LayerWorkload {
            name: String::new(),
            map_sizes: map_sizes.clone(),
            c_in: 32,
            c_out: 64,
            submanifold: true,
        };
        let cost = |g| grouped_matmul_latency(&w, g, gemm, precision).as_f64();
        assert!(cost(picked) <= cost(default), "{picked:?}");
        // A pinned (non-adaptive) grouping is never searched.
        let separate = GroupingStrategy::Separate;
        assert_eq!(prior_grouping(separate, &map_sizes, true, 32, 64, gemm, precision), separate);
    }
}
