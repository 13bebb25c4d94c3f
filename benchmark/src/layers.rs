//! The traced pass: per-layer metrics, measured from outside the engine.
//!
//! *Boundary* metrics time the product API and read its public counters.
//! *Replay* metrics re-run one layer's public function on the workload's
//! real inputs: the level-by-level coordinates of the first frame and the
//! per-layer map sizes and channel widths the engine recorded for it.
//! Every call is wrapped in a span; the spans become the Chrome trace.
//!
//! Frame counts here are a function of `--seconds` alone, never of how fast
//! the host is, so the exact counters (plan hits, patches, map entries,
//! simulated time) repeat from run to run.

use crate::host;
use crate::run::{serve_warm_up, serve_window, Runner};
use crate::spec::{
    Kind, PER_LAYER, SERVE_RATE_HZ, SERVE_SCHEDULE_SEED, SERVE_SLO_MS, WARMUP_FRAMES,
};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{
    self, build_model, engine, expected_rows, output_ok, poisson_schedule, Horizon, Inputs,
    RunOptions,
};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use torchsparse::coords::delta::diff_coords;
use torchsparse::coords::downsample::{fused_output_coords, Boundary};
use torchsparse::coords::kernel_map::search_dilated_on;
use torchsparse::coords::{Coord, CoordIndex, MphfIndex};
use torchsparse::core::grouping::plan_groups;
use torchsparse::core::mapping::build_layer_mapping;
use torchsparse::core::{
    CoreError, DeviceProfile, EnginePreset, LayerWorkload, Module, OptimizationConfig,
    PlanCacheStats, SparseTensor, ThreadPool, TuningReport,
};
use torchsparse::gpusim::{Stage, Timeline};
use torchsparse::tensor::gemm::{mm_into_packed_on, GemmOpts};
use torchsparse::tensor::{Matrix, PackedB};

/// Plan-hit samples taken on a probe session when the workload's own loop
/// has none (dynamic and serving workloads).
const HIT_PROBES: usize = 5;
/// Timed dynamic `Engine::run`s of the probe frame.
const DYNAMIC_PROBES: usize = 3;
/// Times each replay probe runs; metrics are the median.
const REPLAY_REPS: usize = 3;
/// Frame ids of probe and replay spans start here, clear of the loop's.
const PROBE_FRAME: u64 = 1_000_000;

/// Frames of the traced loop: even (half run with spans, half without, to
/// price the tracing itself), and fixed by `--seconds` so counters repeat.
fn traced_frames(opts: &RunOptions) -> usize {
    let n = opts.frames.unwrap_or((opts.seconds * 2.0) as usize).max(8);
    n + n % 2
}

/// The values of the pass, checked against the declared names.
#[derive(Debug, Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "undeclared metric {name}");
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every declared metric in declaration order; one that does not apply
    /// to the workload reads 0.
    fn declared(&self) -> Vec<f64> {
        PER_LAYER.iter().map(|m| self.get(m.name)).collect()
    }
}

/// The result of the traced pass.
pub struct Traced {
    /// One value per `PER_LAYER` entry, in declaration order.
    pub metrics: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub frames: usize,
    pub recorder: Recorder,
}

/// What the workload's own traced loop hands to the derived metrics.
#[derive(Default)]
struct LoopStats {
    /// Latency of frames run with spans / without (ms).
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    /// Plan-hit latencies seen in the loop (ms); empty for dynamic kinds.
    hit_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    attempted: u64,
    failed: u64,
    /// Simulated-GPU timeline of frame 0.
    sim: Option<Timeline>,
}

pub fn run(opts: &RunOptions) -> Result<Traced, CoreError> {
    let w = opts.workload;
    let mut rec = Recorder::new();
    let mut v = Values::default();
    let inputs = workloads::generate(opts, 0)?;
    v.set("data.scene_gen_ms", inputs.gen_ms);
    v.set("data.voxels_per_frame", inputs.mean_voxels());
    let model = build_model(w.model);
    let model = model.as_ref();

    let mut b = match w.kind {
        Kind::Serve => serve_boundary(opts, model, &inputs, &mut rec, &mut v)?,
        _ => closed_boundary(opts, model, &inputs, &mut rec, &mut v)?,
    };

    let probe = &inputs.pool[0];
    if w.kind == Kind::DynamicFresh {
        // No session in the workload itself: compile one on the probe frame
        // to price the plan hit the dynamic path forgoes — where the model
        // can be compiled at all.
        let (session, ms) =
            rec.span("session.compile", PROBE_FRAME, |_| engine(w.threads).compile(model, probe));
        match session {
            Ok(mut session) => {
                v.set("session.compile_ms", ms);
                session.execute(probe)?; // first hit packs and warms; not a sample
                for i in 0..HIT_PROBES {
                    let (out, ms) = rec.span("session.execute", PROBE_FRAME + i as u64, |_| {
                        session.execute(probe)
                    });
                    out?;
                    b.hit_ms.push(ms);
                }
            }
            Err(CoreError::Untraceable { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    let hit_ms = stats::median(&b.hit_ms);
    v.set("session.hit_ms_p50", hit_ms);

    let (recorded, dynamic_ms) = dynamic_probe(opts, model, probe, &mut rec, &mut v)?;
    if !b.hit_ms.is_empty() {
        v.set("session.dynamic_minus_hit_ms", dynamic_ms - hit_ms);
    }
    let replay_ok = replay(opts, &inputs, &recorded, &mut rec, &mut v)?;
    if !replay_ok {
        eprintln!("replay check: re-built kernel maps differ from the sizes the engine recorded");
        b.failed += 1;
    }

    // Derived: what executing a planned frame costs beyond its dense
    // GEMMs. Where no plan hit can be timed (a model that cannot be
    // compiled), execution is the dynamic frame less the replayed planning.
    let exec_ms = if b.hit_ms.is_empty() {
        dynamic_ms - v.get("core.mapping_ms") - v.get("core.grouping_ms")
    } else {
        hit_ms
    };
    let gemm_ms = v.get("tensor.gemm_ms");
    let gflop = v.get("tensor.conv_gflop_per_frame");
    v.set("core.dataflow_residual_ms", exec_ms - gemm_ms);
    v.set("core.dataflow_efficiency", if exec_ms > 0.0 { gemm_ms / exec_ms } else { 0.0 });
    v.set("core.achieved_gflops", if exec_ms > 0.0 { gflop / (exec_ms / 1e3) } else { 0.0 });

    let frame_ms: Vec<f64> = b.traced_ms.iter().chain(&b.untraced_ms).copied().collect();
    let frame_p50 = stats::median(&frame_ms);
    let (tail_pct, tail_ms) = stats::tail(&frame_ms);
    v.set("session.frame_ms_tail", tail_ms);
    v.set("session.frame_ms_tail_pct", tail_pct);
    v.set(
        "core.mapping_share",
        if frame_p50 > 0.0 { v.get("core.mapping_ms") / frame_p50 } else { 0.0 },
    );
    let lanes = (w.threads * w.streams) as f64;
    v.set(
        "runtime.cpu_utilization",
        if b.wall_s > 0.0 { b.cpu_s / (b.wall_s * lanes) } else { 0.0 },
    );
    let untraced_p50 = stats::median(&b.untraced_ms);
    v.set(
        "trace.overhead_ratio",
        if untraced_p50 > 0.0 { stats::median(&b.traced_ms) / untraced_p50 } else { 1.0 },
    );
    if let Some(sim) = &b.sim {
        v.set("gpusim.sim_frame_us", sim.total().as_f64());
        v.set("gpusim.sim_mapping_us", sim.stage(Stage::Mapping).as_f64());
        v.set("gpusim.sim_gather_us", sim.stage(Stage::Gather).as_f64());
        v.set("gpusim.sim_matmul_us", sim.stage(Stage::MatMul).as_f64());
        v.set("gpusim.sim_scatter_us", sim.stage(Stage::Scatter).as_f64());
        v.set("gpusim.sim_other_us", sim.stage(Stage::Other).as_f64());
    }

    Ok(Traced {
        metrics: v.declared(),
        attempted: b.attempted.max(1),
        failed: b.failed,
        frames: frame_ms.len(),
        recorder: rec,
    })
}

fn set_tuning(v: &mut Values, report: Option<&TuningReport>) {
    if let Some(report) = report {
        v.set("tuning.candidates_measured", report.candidates_measured as f64);
        v.set("tuning.tuned_layers", report.policies.len() as f64);
    }
}

fn set_session_counters(v: &mut Values, stats: PlanCacheStats) {
    v.set("session.plan_hits", stats.hits as f64);
    v.set("session.delta_patches", stats.delta_patches as f64);
    v.set("session.delta_fallbacks", stats.delta_fallbacks as f64);
    v.set("session.full_replans", stats.full_replans as f64);
    v.set("session.plan_bytes", stats.plan_bytes as f64);
}

/// The closed-loop workloads' own loop: odd frames inside spans, even
/// frames bare. On `kitti_churn` a traced frame executes twice — the miss,
/// then the same geometry again as a hit — and the difference is the
/// re-plan's cost, classified by which plan-cache counter moved.
fn closed_boundary(
    opts: &RunOptions,
    model: &dyn Module,
    inputs: &Inputs,
    rec: &mut Recorder,
    v: &mut Values,
) -> Result<LoopStats, CoreError> {
    let w = opts.workload;
    let call = if w.kind == Kind::DynamicFresh { "engine.run" } else { "session.execute" };
    let rows: Vec<usize> = inputs.pool.iter().map(|x| expected_rows(w.model, x)).collect();
    let mut order = inputs.order();
    let mut b = LoopStats::default();

    let set_up = if w.kind == Kind::DynamicFresh { "engine.new" } else { "session.compile" };
    let (runner, compile_ms) =
        rec.span(set_up, 0, |_| Runner::set_up(opts, model, &inputs.pool[0]));
    let mut runner = runner?;
    if let Runner::Compiled(session) = &runner {
        v.set("session.compile_ms", compile_ms);
        set_tuning(v, session.tuning_report());
    }
    for (i, idx) in order.by_ref().take(WARMUP_FRAMES).enumerate() {
        runner.step(model, &inputs.pool[idx])?;
        if i == 0 {
            b.sim = Some(match &runner {
                Runner::Compiled(session) => session.last_timeline().clone(),
                Runner::Dynamic(engine) => engine.last_timeline().clone(),
            });
        }
    }

    let (mut patch_ms, mut full_ms) = (Vec::new(), Vec::new());
    let cpu = host::process_cpu_seconds();
    let wall = Instant::now();
    for (i, idx) in order.take(traced_frames(opts)).enumerate() {
        let input = &inputs.pool[idx];
        let frame = i as u64;
        b.attempted += 1;
        let before = match &runner {
            Runner::Compiled(session) => session.stats(),
            Runner::Dynamic(_) => PlanCacheStats::default(),
        };
        let (result, ms) = if i % 2 == 1 {
            let ((result, ms), _) = rec
                .span("frame", frame, |rec| rec.span(call, frame, |_| runner.step(model, input)));
            (result, ms)
        } else {
            let start = Instant::now();
            let result = runner.step(model, input);
            (result, start.elapsed().as_secs_f64() * 1e3)
        };
        match result {
            Ok(out) if output_ok(&out, rows[idx]) => {
                if i % 2 == 1 { &mut b.traced_ms } else { &mut b.untraced_ms }.push(ms);
            }
            Ok(_) => b.failed += 1,
            Err(e) => {
                eprintln!("frame failed: {e}");
                b.failed += 1;
                continue;
            }
        }
        let Runner::Compiled(session) = &mut runner else { continue };
        let after = session.stats();
        if after.misses == before.misses {
            b.hit_ms.push(ms);
        } else if i % 2 == 1 {
            let (hit, hit_ms) =
                rec.span("session.execute.hit_replay", frame, |_| session.execute(input));
            hit?;
            b.hit_ms.push(hit_ms);
            let class = if after.delta_patches > before.delta_patches {
                &mut patch_ms
            } else {
                &mut full_ms
            };
            class.push(ms - hit_ms);
        }
    }
    b.wall_s = wall.elapsed().as_secs_f64();
    b.cpu_s = host::process_cpu_seconds() - cpu;
    if let Runner::Compiled(session) = &runner {
        set_session_counters(v, session.stats());
        v.set("session.replan_patch_ms_p50", stats::median(&patch_ms));
        v.set("session.replan_full_ms_p50", stats::median(&full_ms));
    }
    Ok(b)
}

/// The serving workload's loop: a solo stream prices the service time,
/// then one open-loop window runs and its completions become spans.
fn serve_boundary(
    opts: &RunOptions,
    model: &dyn Module,
    inputs: &Inputs,
    rec: &mut Recorder,
    v: &mut Values,
) -> Result<LoopStats, CoreError> {
    let w = opts.workload;
    let mut b = LoopStats::default();
    let (session, compile_ms) =
        rec.span("session.compile", 0, |_| engine(w.threads).compile(model, &inputs.pool[0]));
    v.set("session.compile_ms", compile_ms);
    let (shared, reference, sim) = serve_warm_up(session?, &inputs.pool)?;
    b.sim = Some(sim);
    set_tuning(v, shared.tuning_report());

    let mut solo = shared.new_stream()?;
    shared.execute_on(&mut solo, &inputs.pool[0])?;
    for i in 0..HIT_PROBES {
        let frame = &inputs.pool[i % reference.len()];
        let (out, ms) = rec.span("session.execute", PROBE_FRAME + i as u64, |_| {
            shared.execute_on(&mut solo, frame)
        });
        out?;
        b.hit_ms.push(ms);
    }
    drop(solo);
    let service_ms = stats::median(&b.hit_ms);
    v.set("serve.service_ms_p50", service_ms);
    v.set("serve.utilization", SERVE_RATE_HZ * service_ms / 1e3);

    let per_stream = traced_frames(opts).div_ceil(w.streams);
    let schedule = poisson_schedule(
        w.streams,
        SERVE_RATE_HZ,
        Horizon::Frames(per_stream),
        reference.len(),
        SERVE_SCHEDULE_SEED,
    );
    let window = serve_window(&shared, w.streams, &inputs.pool, &reference, &schedule)?;
    b.wall_s = window.wall_s;
    b.cpu_s = window.cpu_s;

    let mut waits = Vec::new();
    let mut late = Vec::new();
    let mut missed = 0usize;
    for (i, r) in window.requests.iter().enumerate() {
        b.attempted += 1;
        late.push(r.late_ms());
        match (r.latency_ms(), r.done_after) {
            (Some(ms), Some(done_after)) => {
                b.traced_ms.push(ms);
                waits.push((ms - service_ms).max(0.0));
                missed += usize::from(ms > SERVE_SLO_MS);
                let lane = 1 + r.stream as u32;
                let end = r.submitted + done_after;
                let parent = rec.add("frame", i as u64, lane, None, r.due, end);
                rec.add(
                    "serve.submit_to_completion",
                    i as u64,
                    lane,
                    Some(parent),
                    r.submitted,
                    end,
                );
            }
            _ => {
                b.failed += 1;
                missed += 1;
            }
        }
    }
    // Spans are rebuilt from the completions after the drain, so tracing
    // costs the served frames nothing; with no bare frames to compare, the
    // overhead ratio reads 1.
    let h = &window.health;
    v.set("serve.queue_wait_ms_p50", stats::percentile(&waits, 0.50));
    v.set("serve.queue_wait_ms_p90", stats::percentile(&waits, 0.90));
    v.set("serve.latency_ms_p90", stats::percentile(&b.traced_ms, 0.90));
    v.set("serve.slo_miss_ratio", missed as f64 / window.requests.len().max(1) as f64);
    v.set("serve.max_queue_depth", h.max_queue_depth as f64);
    v.set("serve.shed", h.shed as f64);
    v.set("serve.rejected", h.rejected as f64);
    v.set("serve.retried", h.retried as f64);
    v.set("serve.deadline_missed", h.deadline_missed as f64);
    v.set("serve.generator_late_ms_p50", stats::percentile(&late, 0.50));
    v.set("serve.generator_late_ms_max", stats::percentile(&late, 1.0));
    let replans = h.full_replans + h.delta_patches + h.delta_fallbacks;
    v.set("session.plan_hits", h.completed.saturating_sub(replans) as f64);
    v.set("session.delta_patches", h.delta_patches as f64);
    v.set("session.delta_fallbacks", h.delta_fallbacks as f64);
    v.set("session.full_replans", h.full_replans as f64);
    v.set("session.plan_bytes", h.plan_bytes as f64);
    Ok(b)
}

/// Dynamic `Engine::run` of the probe frame: its median latency (planning
/// included), the per-layer workloads the replay needs, and one frame on a
/// recording pool for the runtime's task structure.
fn dynamic_probe(
    opts: &RunOptions,
    model: &dyn Module,
    probe: &SparseTensor,
    rec: &mut Recorder,
    v: &mut Values,
) -> Result<(Vec<LayerWorkload>, f64), CoreError> {
    let mut dynamic = engine(opts.workload.threads);
    dynamic.context_mut().workloads.clear();
    dynamic.context_mut().record_workloads = true;
    dynamic.run(model, probe)?;
    dynamic.context_mut().record_workloads = false;
    let recorded = std::mem::take(&mut dynamic.context_mut().workloads);

    let mut dynamic_ms = Vec::new();
    for i in 0..DYNAMIC_PROBES {
        let (out, ms) =
            rec.span("engine.run", PROBE_FRAME + i as u64, |_| dynamic.run(model, probe));
        out?;
        dynamic_ms.push(ms);
    }

    let recording = Arc::new(ThreadPool::new_recording());
    dynamic.context_mut().runtime.set_pool(Arc::clone(&recording));
    let (out, frame_ms) =
        rec.span("engine.run.recording_pool", PROBE_FRAME, |_| dynamic.run(model, probe));
    out?;
    let waves = recording.take_trace();
    let work_s: f64 = waves.iter().flatten().sum();
    v.set("runtime.tasks_per_frame", waves.iter().map(Vec::len).sum::<usize>() as f64);
    v.set("runtime.waves_per_frame", waves.len() as f64);
    v.set(
        "runtime.parallel_fraction",
        if frame_ms > 0.0 { (work_s * 1e3 / frame_ms).min(1.0) } else { 0.0 },
    );
    Ok((recorded, stats::median(&dynamic_ms)))
}

/// One kernel map the frame needs: built over `level`'s coordinates,
/// producing `out_level`'s.
#[derive(Debug, Clone, Copy)]
struct MapJob {
    level: usize,
    out_level: usize,
    kernel: usize,
    stride: i32,
}

/// The mapping work of one frame, as the replay re-creates it.
struct FrameMaps {
    /// Coordinates of every resolution level, finest first.
    levels: Vec<Vec<Coord>>,
    /// The distinct kernel maps the frame's layers share.
    jobs: Vec<MapJob>,
    /// Whether every re-built map had the per-offset sizes the engine
    /// recorded for its layer.
    valid: bool,
}

/// Walks the recorded layers once, untimed, to find the distinct kernel
/// maps of the frame and the coordinates of every resolution level. A
/// strided layer is recognised by re-building its map and comparing sizes
/// with what the engine recorded; a layer that does not match is a
/// transposed convolution reusing its encoder's map, and steps back up.
fn discover(
    probe: &SparseTensor,
    recorded: &[LayerWorkload],
    config: &OptimizationConfig,
    device: &DeviceProfile,
) -> Result<FrameMaps, CoreError> {
    let mut levels = vec![probe.coords().to_vec()];
    let mut path = vec![0usize];
    let mut jobs: Vec<MapJob> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut valid = true;
    for layer in recorded {
        let volume = layer.map_sizes.len();
        let kernel = (volume as f64).cbrt().round() as usize;
        if kernel.pow(3) != volume {
            valid = false;
            continue;
        }
        if kernel == 1 {
            continue; // pointwise: the identity map, nothing to search
        }
        let level = path[path.len() - 1];
        if layer.submanifold {
            if seen.insert((level, kernel, 1)) {
                let built = build_layer_mapping(&levels[level], kernel, 1, config, device)?;
                valid &= built.map.sizes() == layer.map_sizes;
                jobs.push(MapJob { level, out_level: level, kernel, stride: 1 });
            }
            continue;
        }
        if let Some(job) = jobs.iter().find(|j| (j.level, j.kernel, j.stride) == (level, kernel, 2))
        {
            path.push(job.out_level);
            continue;
        }
        let built = build_layer_mapping(&levels[level], kernel, 2, config, device)?;
        if built.map.sizes() == layer.map_sizes {
            levels.push(built.out_coords);
            let out_level = levels.len() - 1;
            jobs.push(MapJob { level, out_level, kernel, stride: 2 });
            path.push(out_level);
        } else if path.len() > 1 {
            path.pop();
        } else {
            valid = false;
        }
    }
    Ok(FrameMaps { levels, jobs, valid })
}

/// Replays each layer's public function on the frame's real inputs.
/// Returns whether the re-built maps matched the engine's recording.
fn replay(
    opts: &RunOptions,
    inputs: &Inputs,
    recorded: &[LayerWorkload],
    rec: &mut Recorder,
    v: &mut Values,
) -> Result<bool, CoreError> {
    let probe = &inputs.pool[0];
    let next = &inputs.pool[1 % inputs.pool.len()];
    let config = EnginePreset::TorchSparse.config();
    let device = DeviceProfile::rtx_2080ti();
    let FrameMaps { levels, jobs, valid } = discover(probe, recorded, &config, &device)?;
    let pool = ThreadPool::new(opts.workload.threads);

    let entries: usize = recorded.iter().flat_map(|l| &l.map_sizes).sum();
    let gflop: f64 = recorded
        .iter()
        .map(|l| 2.0 * l.map_sizes.iter().sum::<usize>() as f64 * (l.c_in * l.c_out) as f64)
        .sum::<f64>()
        / 1e9;
    v.set("coords.map_entries", entries as f64);
    v.set("coords.voxels_l0", levels[0].len() as f64);
    v.set("tensor.conv_gflop_per_frame", gflop);

    let mut samples: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut useful_ratio = 0.0;
    let mut query_ns = Vec::new();
    for rep in (0..REPLAY_REPS as u64).map(|r| PROBE_FRAME + r) {
        let mut keep = |name: &'static str, ms: f64| samples.entry(name).or_default().push(ms);
        let (result, _) = rec.span("replay", rep, |rec| -> Result<(), CoreError> {
            let (built, ms) = rec.span("replay.core.mapping", rep, |rec| {
                for job in &jobs {
                    let (built, _) =
                        rec.span("replay.core.mapping.build_layer_mapping", rep, |_| {
                            build_layer_mapping(
                                &levels[job.level],
                                job.kernel,
                                job.stride,
                                &config,
                                &device,
                            )
                        });
                    black_box(built?);
                }
                Ok::<(), CoreError>(())
            });
            built?;
            keep("core.mapping_ms", ms);

            let (indexes, ms) = rec.span("replay.coords.mphf_build", rep, |_| {
                levels
                    .iter()
                    .map(|l| MphfIndex::build(l).map(|(index, _)| index))
                    .collect::<Result<Vec<_>, _>>()
            });
            let indexes = indexes.map_err(CoreError::Coords)?;
            keep("coords.mphf_build_ms", ms);

            // Half the queries hit (the level's own voxels), the rest probe
            // a neighbouring cell that is usually empty.
            let ((), ms) = rec.span("replay.coords.mphf_query", rep, |_| {
                for c in &levels[0] {
                    black_box(indexes[0].query(*c));
                    black_box(indexes[0].query(c.offset([1, 0, 0])));
                }
            });
            query_ns.push(ms * 1e6 / (2 * levels[0].len()).max(1) as f64);

            let (searched, ms) = rec.span("replay.coords.map_search", rep, |_| {
                for job in &jobs {
                    let index: &dyn CoordIndex = &indexes[job.level];
                    black_box(search_dilated_on(
                        &pool,
                        &levels[job.out_level],
                        index,
                        job.kernel,
                        job.stride,
                        1,
                    )?);
                }
                Ok(())
            });
            searched.map_err(CoreError::Coords)?;
            keep("coords.map_search_ms", ms);

            let (down, ms) = rec.span("replay.coords.downsample", rep, |_| {
                for job in jobs.iter().filter(|j| j.stride > 1) {
                    black_box(fused_output_coords(
                        &levels[job.level],
                        job.kernel,
                        job.stride,
                        Boundary::unbounded(),
                    )?);
                }
                Ok(())
            });
            down.map_err(CoreError::Coords)?;
            keep("coords.downsample_ms", ms);

            let (delta, ms) = rec.span("replay.coords.diff", rep, |_| {
                diff_coords(&indexes[0], levels[0].len(), next.coords()).map(black_box)
            });
            delta.map_err(CoreError::Coords)?;
            keep("coords.diff_ms", ms);

            let ((useful, executed), ms) = rec.span("replay.core.grouping", rep, |_| {
                recorded.iter().fold((0usize, 0usize), |(useful, executed), l| {
                    let plan = plan_groups(&l.map_sizes, l.submanifold, config.grouping);
                    (
                        useful + l.map_sizes.iter().sum::<usize>(),
                        executed + plan.executed_rows(&l.map_sizes),
                    )
                })
            });
            keep("core.grouping_ms", ms);
            useful_ratio = useful as f64 / executed.max(1) as f64;

            // One packed weight matrix per layer x offset, as plan time does.
            let (packed, ms) = rec.span("replay.tensor.pack", rep, |_| {
                recorded
                    .iter()
                    .map(|l| {
                        let weights = Matrix::from_fn(l.c_in, l.c_out, |r, c| {
                            ((r + 3 * c) % 7) as f32 * 0.125 - 0.375
                        });
                        for _ in 1..l.map_sizes.len() {
                            black_box(PackedB::pack(&weights));
                        }
                        PackedB::pack(&weights)
                    })
                    .collect::<Vec<_>>()
            });
            keep("tensor.pack_ms", ms);

            // The dense-GEMM floor: one packed `mm` per layer x offset at
            // the recorded shapes. Only the `mm` calls are summed; filling
            // the operands is inside the span but not in the metric.
            let (mm_ms, _) = rec.span("replay.tensor.gemm", rep, |_| -> Result<f64, CoreError> {
                let mut mm_s = 0.0;
                let (mut a, mut c) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                for (l, weights) in recorded.iter().zip(&packed) {
                    for &rows in l.map_sizes.iter().filter(|&&rows| rows > 0) {
                        a.reshape_zeroed(rows, l.c_in);
                        a.as_mut_slice().fill(0.5);
                        c.reshape_zeroed(rows, l.c_out);
                        let start = Instant::now();
                        mm_into_packed_on(&pool, &a, weights, &mut c, GemmOpts::default())
                            .map_err(CoreError::Tensor)?;
                        mm_s += start.elapsed().as_secs_f64();
                        black_box(&c);
                    }
                }
                Ok(mm_s * 1e3)
            });
            keep("tensor.gemm_ms", mm_ms?);
            Ok(())
        });
        result?;
    }
    for (name, ms) in &samples {
        v.set(name, stats::median(ms));
    }
    v.set("coords.mphf_query_ns", stats::median(&query_ns));
    v.set("core.group_useful_ratio", useful_ratio);
    let gemm_ms = v.get("tensor.gemm_ms");
    v.set("tensor.gemm_gflops", if gemm_ms > 0.0 { gflop / (gemm_ms / 1e3) } else { 0.0 });
    Ok(valid)
}
