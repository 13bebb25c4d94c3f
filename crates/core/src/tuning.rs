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
//! Beyond Algorithm 5's single grouping axis, this module also implements
//! the compile-time **per-layer policy search** ([`autotune_plan`]) over the
//! execution knobs of an [`ExecPolicy`]. Grouping is chosen by the `gpu-sim`
//! cost model alone — the host executor never computes pad rows, so only
//! the simulated timeline reads the grouping plan — while the two
//! task-granularity axes (executor chunk width, GEMM panel width) are
//! short-listed by the cost model and then timed on microbenches of the
//! layer's actual kernel map, at most four candidates per layer. Measured
//! winners are persisted in an on-disk database keyed by a geometry-class
//! fingerprint so later sessions warm-start with zero measurements. Every
//! selectable policy is bitwise-neutral: the search changes speed, never
//! output bits.

use crate::config::{GroupingStrategy, OptimizationConfig, Precision, SimdPolicy};
use crate::context::{Context, LayerWorkload};
use crate::dataflow::{run_gather_matmul_scatter, ConvWorkload, FusedOrder};
use crate::engine::Engine;
use crate::grouping::plan_groups;
use crate::module::Module;
use crate::plan::{ConvDataflow, ConvPlan, ExecutionPlan, LayerOp, StepPlan};
use crate::{CoreError, SparseConv3d, SparseTensor};
use std::collections::HashMap;
use std::sync::Arc;
use torchsparse_gpusim::Precision as GemmPrecision;
use torchsparse_gpusim::{GemmModel, GemmShape, Micros};
use torchsparse_tensor::Matrix;

/// The grid searched by [`tune_engine`] when none is supplied: 10 epsilon
/// values x 8 thresholds = 80 configurations per layer (the paper's space
/// is "usually < 1000").
pub fn default_search_space() -> (Vec<f64>, Vec<usize>) {
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

/// Result of tuning one engine for one model on a calibration set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningReport {
    /// Layer name -> selected `(epsilon, S)`.
    pub selected: HashMap<String, (f64, usize)>,
    /// Number of calibration scenes profiled.
    pub samples: usize,
    /// Number of `(epsilon, S)` configurations evaluated per layer.
    pub configs_searched: usize,
    /// Whether tuning failed and the engine was degraded to fixed grouping
    /// instead of installing per-layer parameters — or, for the policy
    /// search, whether the on-disk tuning database was unreadable and a
    /// fresh search ran instead of a warm start.
    pub degraded: bool,
    /// Layer name -> selected execution policy (policy search only; empty
    /// for Algorithm 5 grouping-only tuning).
    pub policies: HashMap<String, ExecPolicy>,
    /// Wall-clock candidate measurements the policy search performed. A
    /// fully warm-started session reports zero.
    pub candidates_measured: usize,
    /// Layers whose policy came straight from the tuning database with no
    /// search.
    pub warm_started: usize,
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
    if engine.context_mut().faults.should_fail(crate::faults::FaultSite::GroupTuning) {
        failure = Some("injected tuning fault".to_owned());
    }
    if let Some(cause) = failure {
        let ctx = engine.context_mut();
        ctx.grouping_fallback = true;
        ctx.tuned_groups.clear();
        ctx.degradation.record(
            crate::faults::FaultSite::GroupTuning,
            &format!("tuning failed ({cause}); fixed grouping installed"),
        );
        return Ok(TuningReport {
            selected: HashMap::new(),
            samples: samples.len(),
            configs_searched,
            degraded: true,
            policies: HashMap::new(),
            candidates_measured: 0,
            warm_started: 0,
        });
    }

    // Grid search per layer (Algorithm 5's double loop).
    let gemm = engine.context().gemm.clone();
    let precision = engine.context().config.precision;
    let mut selected = HashMap::new();
    for (layer, workloads) in &per_layer {
        let mut best: Option<(f64, usize, f64)> = None;
        for &epsilon in &epsilons {
            for &s in &thresholds {
                let strategy = GroupingStrategy::Adaptive { epsilon, s_threshold: s };
                let cost: f64 = workloads
                    .iter()
                    .map(|w| grouped_matmul_latency(w, strategy, &gemm, precision).as_f64())
                    .sum();
                if best.is_none_or(|(_, _, c)| cost < c) {
                    best = Some((epsilon, s, cost));
                }
            }
        }
        if let Some((epsilon, s, _)) = best {
            selected.insert(layer.clone(), (epsilon, s));
        }
    }

    engine.context_mut().tuned_groups = selected.clone();
    Ok(TuningReport {
        selected,
        samples: samples.len(),
        configs_searched,
        degraded: false,
        policies: HashMap::new(),
        candidates_measured: 0,
        warm_started: 0,
    })
}

// ---------------------------------------------------------------------------
// Per-layer execution-policy search (compile-time autotuning)
// ---------------------------------------------------------------------------

/// A complete per-layer execution policy: every performance knob the engine
/// can vary without changing output bits.
///
/// The compile-time policy search ([`autotune_plan`]) selects one per traced
/// convolution and threads it through [`ConvPlan`] so `execute` consults the
/// plan instead of the global [`OptimizationConfig`]. **Every selectable
/// policy is bitwise-neutral**: grouping only changes which GEMM launches
/// the cost model charges (the executor adds every offset's rows
/// offsets-ascending regardless), all SIMD kernels keep the scalar
/// accumulation order, and chunk/panel widths only re-partition work along
/// row boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// Matmul grouping strategy (including tuned adaptive `(epsilon, S)`).
    pub grouping: GroupingStrategy,
    /// Compute-kernel selection for GEMM and precision sweeps.
    pub simd: SimdPolicy,
    /// Output rows per executor chunk (locality-order granularity).
    pub chunk_rows: usize,
    /// Row-panel width of the GEMM microkernel dispatch.
    pub panel_rows: usize,
}

impl ExecPolicy {
    /// The policy an untuned engine effectively runs: every knob at the
    /// configuration's value and the fixed default chunk/panel widths.
    pub fn from_config(config: &OptimizationConfig) -> ExecPolicy {
        ExecPolicy {
            grouping: config.grouping,
            simd: config.simd,
            chunk_rows: DEFAULT_WIDTH,
            panel_rows: DEFAULT_WIDTH,
        }
    }
}

/// The untuned executor chunk and GEMM panel width (matches the
/// executor's `MOVE_CHUNK` and the GEMM dispatcher's `PANEL`).
const DEFAULT_WIDTH: usize = 64;
/// Chunk/panel widths the search may select.
const WIDTHS: [usize; 4] = [32, 64, 128, 256];
/// Layers whose kernel map has fewer total entries than this are selected
/// by the cost-model prior alone — their microbenches would time noise, and
/// skipping them keeps small-scene compiles measurement-free (and keeps the
/// tuning database free of unmeasured winners).
const MEASURE_FLOOR: usize = 20_000;
/// Wall-clock repetitions per short-listed candidate (minimum taken).
const MEASURE_REPS: usize = 2;

/// The grouping strategy the simulated prior selects for one layer: for
/// adaptive configs the simulated-cost winner of the Algorithm 5 grid when
/// it strictly beats the config-resolved default's simulated cost, else
/// that default. Never exceeding the default's cost keeps a compiled
/// session's simulated latency no worse than the dynamic engine's, which
/// serving latency accounting relies on.
fn prior_grouping(
    map_sizes: &[usize],
    submanifold: bool,
    c_in: usize,
    c_out: usize,
    ctx: &Context,
) -> GroupingStrategy {
    let adaptive_config = matches!(ctx.config.grouping, GroupingStrategy::Adaptive { .. });
    let default = if ctx.grouping_fallback && adaptive_config {
        GroupingStrategy::Fixed
    } else {
        ctx.config.grouping
    };
    if let GroupingStrategy::Adaptive { .. } = default {
        let w = LayerWorkload {
            name: String::new(),
            map_sizes: map_sizes.to_vec(),
            c_in,
            c_out,
            submanifold,
        };
        let baseline =
            grouped_matmul_latency(&w, default, &ctx.gemm, ctx.config.precision).as_f64();
        let (epsilons, thresholds) = default_search_space();
        let mut best: Option<(GroupingStrategy, f64)> = None;
        for &epsilon in &epsilons {
            for &s in &thresholds {
                let strat = GroupingStrategy::Adaptive { epsilon, s_threshold: s };
                let cost =
                    grouped_matmul_latency(&w, strat, &ctx.gemm, ctx.config.precision).as_f64();
                if cost < baseline && best.is_none_or(|(_, c)| cost < c) {
                    best = Some((strat, cost));
                }
            }
        }
        if let Some((s, _)) = best {
            return s;
        }
    }
    default
}

/// Short-lists chunk/panel widths by the partitioned-streaming prior: the
/// default width plus the width minimizing
/// [`GemmModel::partitioned_latency`] over `bytes` of traffic split into
/// `rows / width` tasks.
fn width_candidates(bytes: f64, rows: usize, gemm: &GemmModel) -> Vec<usize> {
    let mut out = vec![DEFAULT_WIDTH];
    let mut best: Option<(usize, f64)> = None;
    for &w in &WIDTHS {
        let cost = gemm.partitioned_latency(bytes, rows.div_ceil(w)).as_f64();
        if best.is_none_or(|(_, c)| cost < c) {
            best = Some((w, cost));
        }
    }
    if let Some((w, _)) = best {
        if !out.contains(&w) {
            out.push(w);
        }
    }
    out
}

/// Bytes per feature element in storage precision.
fn elem_bytes(precision: Precision) -> f64 {
    match precision {
        Precision::Fp32 => 4.0,
        Precision::Fp16 => 2.0,
        Precision::Int8 => 1.0,
    }
}

/// The geometry-class fingerprint a tuning-database entry is keyed by.
///
/// Coarse on purpose: voxel count is binned to powers of two and map
/// density to deciles, so near-identical geometries (successive LiDAR
/// frames, re-voxelized scenes) share one entry, while channel shape,
/// kernel volume, submanifold-ness, precision and the device *family* stay
/// exact — a winner does not transfer across those. Keying by architecture
/// family rather than board name lets a replica on an RTX 3080 warm-start
/// from policies tuned on an RTX 3090.
#[allow(clippy::too_many_arguments)] // the key's components, nothing more
fn policy_key(
    n_out: usize,
    total_entries: usize,
    volume: usize,
    c_in: usize,
    c_out: usize,
    submanifold: bool,
    config: &OptimizationConfig,
    device_family: &str,
) -> String {
    let voxel_bin = n_out.max(1).ilog2();
    let density = total_entries as f64 / (volume.max(1) as f64 * n_out.max(1) as f64);
    let decile = ((density * 10.0).floor() as i64).clamp(0, 9);
    let precision = match config.precision {
        Precision::Fp32 => "fp32",
        Precision::Fp16 => "fp16",
        Precision::Int8 => "int8",
    };
    let device: String =
        device_family.chars().map(|c| if c.is_whitespace() { '-' } else { c }).collect();
    format!(
        "v{voxel_bin}:d{decile}:c{c_in}x{c_out}:k{}:sm{}:{precision}:{device}",
        volume.max(1),
        u8::from(submanifold),
    )
}

/// Clamps a warm-start database entry to what the current configuration
/// allows: the SIMD choice is pinned to the config's (the search never
/// un-pins an explicit kernel), widths must come from the selectable set,
/// and adaptive grouping parameters must be valid. Returns `None` when the
/// entry cannot be made consistent — the layer then searches fresh.
fn sanitize_policy(mut p: ExecPolicy, config: &OptimizationConfig) -> Option<ExecPolicy> {
    p.simd = config.simd;
    if !WIDTHS.contains(&p.chunk_rows) || !WIDTHS.contains(&p.panel_rows) {
        return None;
    }
    match (p.grouping, config.grouping) {
        (GroupingStrategy::Adaptive { epsilon, .. }, GroupingStrategy::Adaptive { .. }) => {
            if !epsilon.is_finite() || !(0.0..=1.0).contains(&epsilon) {
                return None;
            }
        }
        // A non-adaptive config pins grouping entirely.
        (
            _,
            pinned @ (GroupingStrategy::Separate
            | GroupingStrategy::Symmetric
            | GroupingStrategy::Fixed),
        ) => p.grouping = pinned,
        // Adaptive config but a non-adaptive stored winner: keep it (the
        // search space includes the config default only, so this entry came
        // from a fixed-grouping fallback session); it is still valid.
        (_, GroupingStrategy::Adaptive { .. }) => {}
    }
    Some(p)
}

/// Times one candidate policy on the layer's actual kernel map with
/// deterministic synthetic features: `MEASURE_REPS` runs of the real
/// executor, minimum wall-clock taken. The executor is pure numerics, so
/// the timing holds no cost-model work and nothing leaks into the session's
/// simulated accounting.
fn measure_candidate(
    conv: &SparseConv3d,
    p: &ConvPlan,
    feats: &Matrix,
    fused: &FusedOrder,
    cand: ExecPolicy,
    ctx: &Context,
) -> f64 {
    let pool = ctx.runtime.pool();
    let w = ConvWorkload {
        in_feats: feats,
        weights: conv.weights(),
        packed: Some(&p.packed),
        map: p.map(),
        n_out: p.out_coords().len(),
        center_identity: p.center,
        fused,
        policy: Some(cand),
    };
    let mut best = f64::INFINITY;
    for _ in 0..MEASURE_REPS {
        let start = std::time::Instant::now();
        if run_gather_matmul_scatter(&w, &ctx.config, &pool).is_ok() {
            best = best.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

/// Selects the policy of one planned convolution.
///
/// Pipeline: (1) the simulated prior picks the grouping ([`prior_grouping`])
/// and short-lists the chunk/panel widths by the partitioned streaming
/// model; (2) layers above [`MEASURE_FLOOR`] map entries time the (at most
/// four) chunk x panel combinations on real microbenches and keep the
/// fastest, persisting the winner to the database; (3) smaller layers keep
/// the default widths with zero measurements. A database hit skips all of
/// it.
#[allow(clippy::too_many_arguments)] // compile-time driver threading disjoint counters
fn tune_layer(
    conv: &SparseConv3d,
    p: &ConvPlan,
    db: &mut HashMap<String, ExecPolicy>,
    ctx: &mut Context,
    candidates_measured: &mut usize,
    warm_started: &mut usize,
    db_dirty: &mut bool,
) -> ExecPolicy {
    let map_sizes = p.map().sizes();
    let total_entries: usize = map_sizes.iter().sum();
    let n_out = p.out_coords().len();
    let measurable = total_entries >= MEASURE_FLOOR;
    let key = policy_key(
        n_out,
        total_entries,
        map_sizes.len(),
        conv.c_in(),
        conv.c_out(),
        p.submanifold,
        &ctx.config,
        &ctx.device.family(),
    );
    if measurable {
        if let Some(hit) = db.get(&key).copied().and_then(|e| sanitize_policy(e, &ctx.config)) {
            *warm_started += 1;
            return hit;
        }
    }

    let prior_best = ExecPolicy {
        grouping: prior_grouping(&map_sizes, p.submanifold, conv.c_in(), conv.c_out(), ctx),
        ..ExecPolicy::from_config(&ctx.config)
    };
    if !measurable {
        return prior_best;
    }

    let move_bytes = total_entries as f64
        * (conv.c_in() + conv.c_out()) as f64
        * elem_bytes(ctx.config.precision);
    let chunks = width_candidates(move_bytes, n_out, &ctx.gemm);
    let panels = width_candidates(move_bytes, total_entries, &ctx.gemm);

    // Deterministic synthetic features sized to the layer's real input.
    let n_in =
        if p.flipped.is_some() { p.cached.coarse_coords.len() } else { p.cached.fine_coords.len() };
    let feats =
        Matrix::from_fn(n_in, conv.c_in(), |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6);

    // Default widths first, so wall-clock ties keep the untuned behavior.
    let mut winner = prior_best;
    let mut winner_time = f64::INFINITY;
    for &chunk_rows in &chunks {
        let fused_order = if chunk_rows == p.fused.chunk_rows() {
            Arc::clone(&p.fused)
        } else {
            let pool = ctx.runtime.pool();
            Arc::new(FusedOrder::build_on_chunked(&pool, p.map(), n_out, chunk_rows))
        };
        for &panel_rows in &panels {
            let cand = ExecPolicy { chunk_rows, panel_rows, ..prior_best };
            let t = measure_candidate(conv, p, &feats, &fused_order, cand, ctx);
            *candidates_measured += 1;
            if t < winner_time {
                winner_time = t;
                winner = cand;
            }
        }
    }
    if winner_time.is_finite() {
        db.insert(key, winner);
        *db_dirty = true;
    }
    winner
}

/// Runs the compile-time per-layer policy search over a freshly built
/// [`ExecutionPlan`], mutating each convolution's [`ConvPlan`] in place
/// (re-grouped dataflow, re-chunked locality order, attached policy) and
/// installing the selections in the context so re-plans and new streams
/// reuse them.
///
/// Winners measured on real microbenches are persisted to the tuning
/// database resolved by [`crate::config::tune_db_path`]; a database that
/// exists but cannot be parsed (corrupt, stale version) degrades gracefully
/// — one warning, `degraded = true` in the report, a recorded degradation
/// event, and a fresh search whose results overwrite the bad file.
pub(crate) fn autotune_plan(
    ops: &[LayerOp<'_>],
    plan: &mut ExecutionPlan,
    ctx: &mut Context,
) -> TuningReport {
    let db_path = crate::config::tune_db_path(&ctx.config);
    let mut db: HashMap<String, ExecPolicy> = HashMap::new();
    let mut degraded = false;
    if let Some(path) = &db_path {
        match db::load(path) {
            Ok(entries) => db = entries,
            Err(cause) => {
                degraded = true;
                torchsparse_runtime::warn_env_once(
                    "TORCHSPARSE_TUNE_DB",
                    &format!(
                        "tuning database {} is unreadable ({cause}); \
                         running a fresh policy search and overwriting it",
                        path.display()
                    ),
                );
                ctx.degradation.record(
                    crate::faults::FaultSite::GroupTuning,
                    &format!("tuning DB unreadable ({cause}); fresh policy search"),
                );
            }
        }
    }

    let mut policies: HashMap<String, ExecPolicy> = HashMap::new();
    let mut selected: HashMap<String, (f64, usize)> = HashMap::new();
    let mut candidates_measured = 0usize;
    let mut warm_started = 0usize;
    let mut db_dirty = false;

    for (op, step) in ops.iter().zip(plan.steps.iter_mut()) {
        let (conv, p) = match (op, step) {
            (LayerOp::Conv(c), StepPlan::Conv(p)) => (*c, p),
            (
                LayerOp::ResidualAdd { projection: Some(c) },
                StepPlan::Residual { projection: Some(p) },
            ) => (*c, p),
            _ => continue,
        };
        if matches!(p.dataflow, ConvDataflow::FetchOnDemand) {
            // Fetch-on-demand layers have no grouping/movement axes to tune.
            continue;
        }
        let winner = tune_layer(
            conv,
            p,
            &mut db,
            ctx,
            &mut candidates_measured,
            &mut warm_started,
            &mut db_dirty,
        );

        // Apply the winner to the frozen plan: re-group and re-chunk only
        // when the selection differs from what the plan was built with.
        let regroup = match &p.dataflow {
            ConvDataflow::Grouped(_) if winner.grouping != ctx.config.grouping => {
                Some(plan_groups(&p.map().sizes(), p.submanifold, winner.grouping))
            }
            _ => None,
        };
        let rechunk = if winner.chunk_rows != p.fused.chunk_rows() {
            Some(Arc::new(FusedOrder::build_on_chunked(
                &ctx.runtime.pool(),
                p.map(),
                p.out_coords().len(),
                winner.chunk_rows,
            )))
        } else {
            None
        };
        if let Some(g) = regroup {
            p.dataflow = ConvDataflow::Grouped(g);
        }
        if let Some(f) = rechunk {
            p.fused = f;
        }
        p.policy = Some(winner);
        if let GroupingStrategy::Adaptive { epsilon, s_threshold } = winner.grouping {
            selected.insert(conv.layer_name().to_owned(), (epsilon, s_threshold));
        }
        policies.insert(conv.layer_name().to_owned(), winner);
    }

    if db_dirty {
        if let Some(path) = &db_path {
            if let Err(cause) = db::store(path, &db) {
                torchsparse_runtime::warn_env_once(
                    "TORCHSPARSE_TUNE_DB",
                    &format!(
                        "could not persist tuning database {} ({cause}); \
                         this session keeps its tuned policies in memory",
                        path.display()
                    ),
                );
            }
        }
    }

    // Candidates actually timed plus one prior-only evaluation per layer
    // that skipped measurement.
    let configs_searched = candidates_measured + policies.len().saturating_sub(warm_started);
    ctx.tuned_policies = policies.clone();
    TuningReport {
        selected,
        samples: 1,
        configs_searched,
        degraded,
        policies,
        candidates_measured,
        warm_started,
    }
}

/// The on-disk tuning database: versioned JSON, hand-rolled (the workspace
/// takes no serialization dependency), written atomically via a temp file +
/// rename in the same directory.
///
/// Schema (`version` 6: version 2 added the architecture-family device
/// component of the key; versions 3 to 5 changed no field but invalidated
/// winners that were timed through the retired superaccumulator scatter
/// (3), with the grouping-dependent in-line cost model inside the
/// measured executor (4), and through the branch-per-scalar AVX2 tile (5);
/// version 6 drops the `fused` field and the `fe` key component, which
/// selected the deleted buffered executor — older databases are treated as
/// stale and rebuilt):
///
/// ```json
/// {"version":6,"entries":[
///   {"key":"v15:d2:c32x64:k27:sm1:fp16:turing",
///    "mode":"adaptive","epsilon":0.3,"s":150000,
///    "simd":"auto","chunk":64,"panel":128}
/// ]}
/// ```
///
/// `s` is the adaptive mm/bmm threshold; the sentinel `usize::MAX` is
/// written as the string `"max"` (it is not representable as a JSON
/// number). Non-adaptive modes carry `epsilon`/`s` as `0` and ignore them
/// on load.
mod db {
    use super::ExecPolicy;
    use crate::config::{GroupingStrategy, SimdPolicy};
    use std::collections::HashMap;
    use std::path::Path;

    /// Database schema version; mismatches are treated as corrupt.
    const VERSION: f64 = 6.0;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub(super) enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, insertion-ordered.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        fn as_width(&self) -> Option<usize> {
            match self {
                Json::Num(n) if *n >= 1.0 && n.fract() == 0.0 && *n <= 1e9 => Some(*n as usize),
                _ => None,
            }
        }
    }

    /// Recursive-descent parser over the full JSON grammar (minus
    /// `\uXXXX` surrogate pairs, which the writer never emits).
    pub(super) fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while let Some(b) = bytes.get(*pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                *pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        lit: &[u8],
        value: Json,
    ) -> Result<Json, String> {
        if bytes.len() >= *pos + lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while let Some(b) = bytes.get(*pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                *pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| format!("invalid number bytes at {start}"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?} at {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = Vec::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    *pos += 1;
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8".to_owned());
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("unsupported \\u escape {hex:?}"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    *pos += 1;
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            fields.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn escape(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }

    fn policy_from_json(entry: &Json) -> Option<ExecPolicy> {
        let grouping = match entry.get("mode")?.as_str()? {
            "separate" => GroupingStrategy::Separate,
            "symmetric" => GroupingStrategy::Symmetric,
            "fixed" => GroupingStrategy::Fixed,
            "adaptive" => {
                let epsilon = entry.get("epsilon")?.as_f64()?;
                let s_threshold = match entry.get("s")? {
                    Json::Str(s) if s == "max" => usize::MAX,
                    n => n.as_width()?,
                };
                GroupingStrategy::Adaptive { epsilon, s_threshold }
            }
            _ => return None,
        };
        let simd = match entry.get("simd")?.as_str()? {
            "auto" => SimdPolicy::Auto,
            "portable" => SimdPolicy::Portable,
            "scalar" => SimdPolicy::Scalar,
            _ => return None,
        };
        Some(ExecPolicy {
            grouping,
            simd,
            chunk_rows: entry.get("chunk")?.as_width()?,
            panel_rows: entry.get("panel")?.as_width()?,
        })
    }

    fn policy_to_json(key: &str, p: &ExecPolicy, out: &mut String) {
        out.push_str("{\"key\":\"");
        escape(key, out);
        out.push_str("\",");
        let (mode, epsilon, s) = match p.grouping {
            GroupingStrategy::Separate => ("separate", 0.0, Some(0)),
            GroupingStrategy::Symmetric => ("symmetric", 0.0, Some(0)),
            GroupingStrategy::Fixed => ("fixed", 0.0, Some(0)),
            GroupingStrategy::Adaptive { epsilon, s_threshold } => {
                ("adaptive", epsilon, (s_threshold != usize::MAX).then_some(s_threshold))
            }
        };
        out.push_str(&format!("\"mode\":\"{mode}\",\"epsilon\":{epsilon},"));
        match s {
            Some(v) => out.push_str(&format!("\"s\":{v},")),
            None => out.push_str("\"s\":\"max\","),
        }
        let simd = match p.simd {
            SimdPolicy::Auto => "auto",
            SimdPolicy::Portable => "portable",
            SimdPolicy::Scalar => "scalar",
        };
        out.push_str(&format!(
            "\"simd\":\"{simd}\",\"chunk\":{},\"panel\":{}}}",
            p.chunk_rows, p.panel_rows
        ));
    }

    /// Loads the database. A missing file is an empty database; anything
    /// else that fails (unreadable, unparseable, wrong version, malformed
    /// entries) is an error for the caller to degrade on.
    pub(super) fn load(path: &Path) -> Result<HashMap<String, ExecPolicy>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
            Err(e) => return Err(format!("read failed: {e}")),
        };
        let root = parse(&text)?;
        let version = root.get("version").and_then(Json::as_f64).ok_or("missing version")?;
        if version != VERSION {
            return Err(format!("schema version {version} (expected {VERSION})"));
        }
        let entries = match root.get("entries") {
            Some(Json::Arr(a)) => a,
            _ => return Err("missing entries array".to_owned()),
        };
        let mut out = HashMap::new();
        for entry in entries {
            let key =
                entry.get("key").and_then(Json::as_str).ok_or("entry without key")?.to_owned();
            let policy =
                policy_from_json(entry).ok_or_else(|| format!("malformed entry {key:?}"))?;
            out.insert(key, policy);
        }
        Ok(out)
    }

    /// Stores the database atomically: serialized to a temp file in the
    /// target directory, then renamed over the destination.
    pub(super) fn store(path: &Path, entries: &HashMap<String, ExecPolicy>) -> Result<(), String> {
        let mut text = format!("{{\"version\":{VERSION},\"entries\":[");
        // Deterministic file contents: entries sorted by key.
        let mut keys: Vec<&String> = entries.keys().collect();
        keys.sort();
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            if let Some(p) = entries.get(*key) {
                policy_to_json(key, p, &mut text);
            }
        }
        text.push_str("]}\n");
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("mkdir failed: {e}"))?;
            }
        }
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, text).map_err(|e| format!("write failed: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename failed: {e}"))
    }
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
        assert!(e.context().tuned_for("c1").is_some());
    }

    #[test]
    fn tuned_cost_never_worse_than_corners() {
        // The selected config must be at least as good as the degenerate
        // corners of the space (separate / symmetric / dense).
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let samples = vec![scene(3)];
        tune_engine(&mut e, &model(), &samples, None).unwrap();

        // Re-profile to get the workloads.
        e.context_mut().record_workloads = true;
        e.run(&model(), &samples[0]).unwrap();
        let workloads = std::mem::take(&mut e.context_mut().workloads);
        let gemm = e.context().gemm.clone();
        for w in &workloads {
            let (eps, s) = e.context().tuned_for(&w.name).unwrap();
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
        e.context_mut().faults.arm(FaultSite::GroupTuning);
        let report = tune_engine(&mut e, &model(), &[scene(0)], None).unwrap();
        assert!(report.degraded);
        assert!(report.selected.is_empty());
        assert!(e.context().grouping_fallback);
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
        assert!(!e.context().grouping_fallback);
    }

    #[test]
    fn custom_search_space_respected() {
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let report =
            tune_engine(&mut e, &model(), &[scene(0)], Some((vec![0.5], vec![1000]))).unwrap();
        assert_eq!(report.configs_searched, 1);
        assert_eq!(report.selected["c1"], (0.5, 1000));
    }

    fn temp_db(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ts-tune-test-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn db_roundtrip_preserves_policies() {
        let path = temp_db("roundtrip");
        let mut entries = HashMap::new();
        entries.insert(
            "v12:d3:c32x64:k27:sm1:fp16:RTX-2080-Ti".to_owned(),
            ExecPolicy {
                grouping: GroupingStrategy::Adaptive { epsilon: 0.3, s_threshold: 150_000 },
                simd: SimdPolicy::Auto,
                chunk_rows: 64,
                panel_rows: 128,
            },
        );
        // The usize::MAX threshold sentinel round-trips as the string "max".
        entries.insert(
            "v9:d1:c4x8:k27:sm0:fp32:cpu".to_owned(),
            ExecPolicy {
                grouping: GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: usize::MAX },
                simd: SimdPolicy::Scalar,
                chunk_rows: 32,
                panel_rows: 256,
            },
        );
        entries.insert(
            "v15:d0:c8x8:k1:sm1:int8:gpu \"quoted\\name\"".to_owned(),
            ExecPolicy {
                grouping: GroupingStrategy::Fixed,
                simd: SimdPolicy::Portable,
                chunk_rows: 128,
                panel_rows: 64,
            },
        );
        db::store(&path, &entries).unwrap();
        let loaded = db::load(&path).unwrap();
        assert_eq!(loaded, entries);
        // Deterministic contents: a second store writes identical bytes.
        let first = std::fs::read_to_string(&path).unwrap();
        db::store(&path, &entries).unwrap();
        assert_eq!(first, std::fs::read_to_string(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_db_is_an_empty_db() {
        let loaded = db::load(&temp_db("never-written")).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn corrupt_db_fails_to_load() {
        for (name, text) in [
            ("garbage", "not json at all"),
            ("truncated", "{\"version\":6,\"entries\":[{\"key\":\"x\""),
            ("no-version", "{\"entries\":[]}"),
            ("no-entries", "{\"version\":6}"),
            ("bad-entry", "{\"version\":6,\"entries\":[{\"key\":\"x\",\"mode\":\"warp\"}]}"),
            ("trailing", "{\"version\":6,\"entries\":[]} extra"),
        ] {
            let path = temp_db(name);
            std::fs::write(&path, text).unwrap();
            assert!(db::load(&path).is_err(), "{name} must fail to load");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn stale_db_version_fails_to_load() {
        // Version-2 to version-5 files are well-formed under today's
        // parser, but their winners were timed through the retired
        // superaccumulator scatter (2), with the in-line cost model inside
        // the measured executor (3), through the branch-per-scalar AVX2
        // tile (4), and — `"fused":false`, `fe` in the key — possibly on
        // the deleted buffered executor (5).
        let v5 = "{\"version\":5,\"entries\":[{\"key\":\"v15:d2:c32x64:k27:sm1:fp16:fe1:turing\",\
                  \"mode\":\"adaptive\",\"epsilon\":0.3,\"s\":150000,\
                  \"fused\":false,\"simd\":\"auto\",\"chunk\":64,\"panel\":128}]}";
        for version in 1..=5 {
            let path = temp_db(&format!("stale-v{version}"));
            let text = v5.replace("\"version\":5", &format!("\"version\":{version}"));
            std::fs::write(&path, text).unwrap();
            let err = db::load(&path).unwrap_err();
            assert!(err.contains("version"), "v{version}: {err}");
            std::fs::remove_file(&path).unwrap();
        }
        // The entry in the current schema loads.
        let path = temp_db("current");
        let v6 = v5
            .replace("\"version\":5", "\"version\":6")
            .replace(":fe1:", ":")
            .replace("\"fused\":false,", "");
        std::fs::write(&path, v6).unwrap();
        assert_eq!(db::load(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sanitize_pins_policy_to_config() {
        let config = EnginePreset::TorchSparse.config();
        let stored = ExecPolicy {
            grouping: GroupingStrategy::Adaptive { epsilon: 0.5, s_threshold: 1000 },
            simd: SimdPolicy::Scalar,
            chunk_rows: 128,
            panel_rows: 64,
        };
        let got = sanitize_policy(stored, &config).unwrap();
        assert_eq!(got.simd, config.simd, "SIMD is pinned to the config");
        assert_eq!(got.chunk_rows, 128);

        // A non-adaptive config pins grouping entirely.
        let separate =
            OptimizationConfig { grouping: GroupingStrategy::Separate, ..config.clone() };
        assert_eq!(
            sanitize_policy(stored, &separate).unwrap().grouping,
            GroupingStrategy::Separate
        );

        // Widths outside the selectable set and invalid epsilons reject the
        // entry (the layer then searches fresh).
        assert!(sanitize_policy(ExecPolicy { chunk_rows: 77, ..stored }, &config).is_none());
        assert!(sanitize_policy(ExecPolicy { panel_rows: 0, ..stored }, &config).is_none());
        let bad_eps = ExecPolicy {
            grouping: GroupingStrategy::Adaptive { epsilon: f64::NAN, s_threshold: 0 },
            ..stored
        };
        assert!(sanitize_policy(bad_eps, &config).is_none());
    }

    #[test]
    fn policy_key_bins_coarsely_and_splits_exactly() {
        let config = EnginePreset::TorchSparse.config();
        let key = |n_out: usize, entries: usize, c_in: usize| {
            policy_key(n_out, entries, 27, c_in, 64, true, &config, "RTX 2080 Ti")
        };
        // Voxel counts in the same power-of-two bin share a key...
        assert_eq!(key(5000, 40_000, 32), key(7000, 40_000, 32));
        // ...different bins, channel shapes, or devices split it.
        assert_ne!(key(5000, 40_000, 32), key(20_000, 40_000, 32));
        assert_ne!(key(5000, 40_000, 32), key(5000, 40_000, 16));
        assert_ne!(
            policy_key(5000, 40_000, 27, 32, 64, true, &config, "a"),
            policy_key(5000, 40_000, 27, 32, 64, true, &config, "b"),
        );
        // Spaces in device names never reach the key.
        assert!(!key(5000, 40_000, 32).contains(' '));
    }

    #[test]
    fn width_candidates_lead_with_the_default() {
        let gemm = GemmModel::new(DeviceProfile::rtx_2080ti());
        for bytes in [1e3, 1e6, 1e9] {
            for rows in [100, 10_000, 1_000_000] {
                let c = width_candidates(bytes, rows, &gemm);
                assert_eq!(c[0], DEFAULT_WIDTH);
                assert!(c.len() <= 2, "default plus at most one prior winner");
                assert!(c.iter().all(|w| WIDTHS.contains(w)), "{c:?}");
            }
        }
    }

    #[test]
    fn prior_grouping_never_costs_more_than_the_default() {
        // Whatever grouping the prior selects, its sim-cost is <= the
        // config default's: compiled sessions must never look slower than
        // dynamic execution to the simulator.
        let e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let ctx = e.context();
        let map_sizes: Vec<usize> = (0..27).map(|i| 2000 + i * 300).collect();
        let picked = prior_grouping(&map_sizes, true, 32, 64, ctx);
        let w = LayerWorkload {
            name: String::new(),
            map_sizes: map_sizes.clone(),
            c_in: 32,
            c_out: 64,
            submanifold: true,
        };
        let cost = |g| grouped_matmul_latency(&w, g, &ctx.gemm, ctx.config.precision).as_f64();
        assert!(cost(picked) <= cost(ctx.config.grouping), "{picked:?}");
        // A pinned (non-adaptive) grouping is never searched.
        let mut separate = EnginePreset::TorchSparse.config();
        separate.grouping = GroupingStrategy::Separate;
        let e = Engine::with_config(separate, DeviceProfile::rtx_2080ti());
        assert_eq!(
            prior_grouping(&map_sizes, true, 32, 64, e.context()),
            GroupingStrategy::Separate
        );
    }
}
