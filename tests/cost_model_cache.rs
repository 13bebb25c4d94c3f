//! Simulated cost is a function of plan geometry alone, so a compiled
//! session evaluates the cost model once per finalised plan and serves the
//! cached timeline on every hit. This suite pins both halves of that
//! contract: the cached values are bit-for-bit what in-line simulation
//! reports (against the dynamic engine, across re-plan paths, under the
//! overflow re-run), and hit frames really run no cost-model code
//! (`cost_model::evaluations()` stands still).

use std::sync::{Arc, Mutex, MutexGuard};
use torchsparse::coords::Coord;
use torchsparse::core::cost_model::evaluations;
use torchsparse::core::{
    BatchNorm, CompiledSession, Engine, EnginePreset, FaultSite, LayerProfile, Module,
    OptimizationConfig, Precision, ReLU, Sequential, SparseConv3d, SparseMaxPool3d, SparseTensor,
};
use torchsparse::data::{geometry_static_stream, temporal_churn_stream};
use torchsparse::gpusim::{DeviceProfile, Micros, Stage, Timeline};
use torchsparse::models::{MinkUNet, ResidualBlock};
use torchsparse::serve::{serve, ServiceConfig};
use torchsparse::tensor::Matrix;

/// `evaluations()` is process-wide and the harness runs tests on parallel
/// threads; every test here compiles sessions, so all of them serialise on
/// this lock to keep the counter deltas attributable.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A dense-ish blob that survives repeated stride-2 downsamples.
fn scene(channels: usize) -> SparseTensor {
    let mut coords = std::collections::BTreeSet::new();
    for i in 0..420i32 {
        coords.insert(Coord::new(0, (i * 7) % 22, ((i * 13) / 3) % 18, (i * 3) % 14));
    }
    let coords: Vec<Coord> = coords.into_iter().collect();
    let n = coords.len();
    SparseTensor::new(
        coords,
        Matrix::from_fn(n, channels, |r, c| ((r + 3 * c) % 9) as f32 * 0.25 - 1.0),
    )
    .expect("valid scene")
}

/// Every op kind the plan walk handles: submanifold, dilated, strided and
/// transposed convs, batch norm, ReLU, max pooling, and a residual block
/// with a projection branch.
fn model(seed: u64) -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("stem", 4, 8, 3, 1, seed))
        .push(BatchNorm::identity("bn", 8))
        .push(ReLU::new("act"))
        .push(SparseConv3d::with_random_weights("dil", 8, 8, 3, 1, seed ^ 1).with_dilation(2))
        .push(SparseMaxPool3d::new("pool", 2, 2))
        .push(ResidualBlock::new("res", 8, 16, seed ^ 2))
        .push(SparseConv3d::with_random_weights("down", 16, 16, 2, 2, seed ^ 3))
        .push(SparseConv3d::with_random_weights("up", 16, 8, 2, 2, seed ^ 4).into_transposed())
        .push(SparseConv3d::with_random_weights("head", 8, 4, 3, 1, seed ^ 5))
}

/// Product defaults with the policy search off: a tuned grouping
/// legitimately changes the simulated cost, which would make a compiled
/// session incomparable with the (never tuned) dynamic engine.
fn untuned(precision: Precision) -> OptimizationConfig {
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.precision = precision;
    cfg.autotune_policies = false;
    cfg
}

fn env_set(name: &str) -> bool {
    std::env::var_os(name).is_some()
}

fn engine(cfg: &OptimizationConfig) -> Engine {
    Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti())
}

fn compile<'m>(
    cfg: &OptimizationConfig,
    m: &'m impl Module,
    x: &SparseTensor,
) -> CompiledSession<'m> {
    engine(cfg).compile(m, x).expect("compile")
}

/// The bit patterns of every stage but `Mapping`.
fn exec_bits(t: &Timeline) -> Vec<(Stage, u64)> {
    Stage::ALL
        .into_iter()
        .filter(|&s| s != Stage::Mapping)
        .map(|s| (s, t.stage(s).as_f64().to_bits()))
        .collect()
}

/// `profiles` as a plan-hit frame reports them: `Mapping` is planning work,
/// so every layer's share of it is zero.
fn without_mapping(profiles: &[LayerProfile]) -> Vec<LayerProfile> {
    profiles
        .iter()
        .map(|p| {
            let mut timeline = Timeline::new();
            for stage in Stage::ALL.into_iter().filter(|&s| s != Stage::Mapping) {
                timeline.add(stage, p.timeline.stage(stage));
            }
            LayerProfile { name: p.name.clone(), input_points: p.input_points, timeline }
        })
        .collect()
}

/// (a) A hit frame's cached timeline is bitwise the in-line simulation of
/// the dynamic engine, for every dataflow route and storage precision.
#[test]
fn hit_frame_timeline_matches_dynamic_bitwise_across_routes_and_precisions() {
    let _serial = serial();
    let m = model(21);
    let x = scene(4);
    for route in ["fused", "buffered", "fetch-on-demand"] {
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            let mut cfg = untuned(precision);
            cfg.fused_execution = route != "buffered";
            if route == "fetch-on-demand" {
                cfg.fetch_on_demand_below = Some(usize::MAX);
            }
            let label = format!("{route}/{precision:?}");
            let mut dynamic = engine(&cfg);
            dynamic.run(&m, &x).expect("dynamic run");
            assert!(dynamic.last_timeline().stage(Stage::Mapping) > Micros::ZERO, "{label}");

            let mut session = compile(&cfg, &m, &x);
            for frame in 0..2 {
                session.execute(&x).expect("hit");
                let t = session.last_timeline();
                assert_eq!(t.stage(Stage::Mapping), Micros::ZERO, "{label}: hits map nothing");
                assert_eq!(
                    exec_bits(t),
                    exec_bits(dynamic.last_timeline()),
                    "{label} frame {frame}: cached cost must equal in-line simulation"
                );
            }
        }
    }
}

/// (a) With the policy search on, the cached timeline is a function of the
/// tuned plan: a second session compiled from the same tuning database
/// reports the same bits.
#[test]
fn tuned_sessions_agree_bitwise() {
    let _serial = serial();
    if env_set("TORCHSPARSE_AUTOTUNE") || env_set("TORCHSPARSE_TUNE_DB") {
        return; // the overrides beat the per-test database path
    }
    // A dense block: the first conv's map is above the measurement floor,
    // so the first compile really searches and persists winners.
    let coords: Vec<Coord> =
        (0..12 * 12 * 12).map(|i| Coord::new(0, i / 144, (i / 12) % 12, i % 12)).collect();
    let n = coords.len();
    let x = SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r + c) % 7) as f32 - 3.0))
        .expect("dense scene");
    let m = model(23);
    let db = std::env::temp_dir().join(format!("ts-cost-cache-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&db);
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.tune_db = Some(db.clone());

    let mut first = compile(&cfg, &m, &x);
    assert!(first.tuning_report().expect("autotune ran").candidates_measured > 0);
    let mut second = compile(&cfg, &m, &x);
    assert_eq!(second.tuning_report().expect("autotune ran").candidates_measured, 0);
    first.execute(&x).expect("first hit");
    second.execute(&x).expect("second hit");
    assert_eq!(exec_bits(first.last_timeline()), exec_bits(second.last_timeline()));
    assert_eq!(first.last_timeline().stage(Stage::Mapping), Micros::ZERO);
    let _ = std::fs::remove_file(&db);
}

/// (a) Every re-plan path re-derives the cached cost: the miss frame and
/// the hit after it report what a cold compile on the new geometry does,
/// and only the miss pays `Mapping`.
#[test]
fn replanned_frames_match_a_cold_compile_bitwise() {
    let _serial = serial();
    let m = model(25);
    let base = scene(4);
    let delta_forced = env_set("TORCHSPARSE_DELTA_REPLAN");
    for (path, churn, delta_replan) in
        [("delta-patch", 0.08, true), ("delta-fallback", 0.5, true), ("full-replan", 0.08, false)]
    {
        let mut cfg = untuned(Precision::Fp16);
        cfg.delta_replan = delta_replan;
        let frames = temporal_churn_stream(&base, 2, churn, 13).expect("stream");
        let mut session = compile(&cfg, &m, &frames[0]);
        session.execute(&frames[0]).expect("hit on the compile geometry");

        let mut cold = compile(&cfg, &m, &frames[1]);
        cold.execute(&frames[1]).expect("cold hit");
        let want = exec_bits(cold.last_timeline());

        session.execute(&frames[1]).expect("miss");
        assert_eq!(exec_bits(session.last_timeline()), want, "{path}: miss frame");
        assert!(
            session.last_timeline().stage(Stage::Mapping) > Micros::ZERO,
            "{path}: the miss frame pays mapping"
        );
        session.execute(&frames[1]).expect("hit");
        assert_eq!(exec_bits(session.last_timeline()), want, "{path}: following hit");
        assert_eq!(session.last_timeline().stage(Stage::Mapping), Micros::ZERO, "{path}");

        let s = session.stats();
        if !delta_forced {
            let taken = (s.delta_patches, s.delta_fallbacks, s.full_replans);
            let expected = match path {
                "delta-patch" => (1, 0, 1),
                "delta-fallback" => (0, 1, 1),
                _ => (0, 0, 2),
            };
            assert_eq!(taken, expected, "{path}: {s:?}");
        }
    }
}

/// (b) Hit frames evaluate nothing; every plan build evaluates exactly
/// once; streams sharing the compile-time plan get its timeline for free.
#[test]
fn evaluations_happen_once_per_plan_build_and_never_on_hits() {
    let _serial = serial();
    let m = model(27);
    let base = scene(4);
    let cfg = untuned(Precision::Fp16);
    let frames = temporal_churn_stream(&base, 3, 0.08, 17).expect("stream");

    let before = evaluations();
    let mut session = compile(&cfg, &m, &frames[0]);
    assert_eq!(evaluations() - before, 1, "compile builds one plan");
    for _ in 0..24 {
        session.execute(&frames[0]).expect("hit");
    }
    assert_eq!(evaluations() - before, 1, "24 hit frames evaluate nothing");
    for (built, frame) in frames[1..].iter().enumerate() {
        session.execute(frame).expect("miss");
        session.execute(frame).expect("hit");
        assert_eq!(evaluations() - before, 2 + built, "one evaluation per re-plan");
    }
    assert_eq!(session.stats().misses, 3);

    // Two serving streams over the shared compile-time plan: all hits.
    let net = MinkUNet::with_width(0.25, 4, 3, 17);
    let (shared, _) = compile(&cfg, &net, &base).into_parts();
    let streams: Vec<Vec<SparseTensor>> =
        (0..2).map(|s| geometry_static_stream(&base, 4, 0.02, 90 + s).expect("stream")).collect();
    let before = evaluations();
    let ((), outcome) = serve(&shared, 2, &ServiceConfig::default(), |svc| {
        for (stream, stream_frames) in streams.iter().enumerate() {
            for (frame, f) in stream_frames.iter().enumerate() {
                svc.submit(stream, frame as u64, Arc::new(f.clone())).expect("admit");
            }
        }
    })
    .expect("serve");
    assert_eq!(outcome.completions.iter().filter(|c| c.result.is_ok()).count(), 8);
    assert_eq!(evaluations(), before, "streams sharing the base plan evaluate nothing");
}

/// (b) The FP16 -> FP32 overflow re-run simulates its layer twice; that
/// frame — and only that frame — evaluates the model, and reports what the
/// dynamic engine reports under the same fault.
#[test]
fn overflow_rerun_frame_evaluates_once_and_matches_dynamic() {
    let _serial = serial();
    let m = model(29);
    let x = scene(4);
    let cfg = untuned(Precision::Fp16);

    let mut dynamic = engine(&cfg);
    dynamic.run(&m, &x).expect("clean dynamic run");
    let clean = exec_bits(dynamic.last_timeline());
    dynamic.context_mut().faults.arm(FaultSite::Fp16Overflow);
    dynamic.run(&m, &x).expect("dynamic run with overflow");
    assert_eq!(dynamic.degradation_report().count(FaultSite::Fp16Overflow), 1);
    let faulted = exec_bits(dynamic.last_timeline());
    assert_ne!(faulted, clean, "the re-run layer is charged twice");

    let mut session = compile(&cfg, &m, &x);
    session.execute(&x).expect("clean hit");
    assert_eq!(exec_bits(session.last_timeline()), clean);

    let before = evaluations();
    session.engine_mut().context_mut().faults.arm(FaultSite::Fp16Overflow);
    session.execute(&x).expect("hit with overflow");
    assert_eq!(session.degradation_report().count(FaultSite::Fp16Overflow), 1);
    assert_eq!(evaluations() - before, 1, "the re-run frame evaluates the model once");
    assert_eq!(exec_bits(session.last_timeline()), faulted);

    session.execute(&x).expect("clean hit again");
    assert_eq!(evaluations() - before, 1, "the next hit is served from the plan again");
    assert_eq!(exec_bits(session.last_timeline()), clean);
}

/// (c) `profile_layers` on a hit frame: the dynamic run's per-layer
/// profiles, minus the mapping only planning pays.
#[test]
fn hit_frame_layer_profiles_match_dynamic() {
    let _serial = serial();
    let net = MinkUNet::with_width(0.25, 4, 3, 41);
    let x = scene(4);
    let cfg = untuned(Precision::Fp16);

    let mut dynamic = engine(&cfg);
    dynamic.context_mut().profile_layers = true;
    dynamic.run(&net, &x).expect("dynamic run");
    let golden = without_mapping(&dynamic.context().layer_profiles);
    assert!(golden.len() > 20, "MinkUNet profiles every conv, batch norm and ReLU");

    let mut session = compile(&cfg, &net, &x);
    session.execute(&x).expect("unprofiled hit");
    assert!(session.engine().context().layer_profiles.is_empty());
    session.engine_mut().context_mut().profile_layers = true;
    let before = evaluations();
    session.execute(&x).expect("profiled hit");
    assert_eq!(session.engine().context().layer_profiles, golden);
    assert_eq!(evaluations(), before, "profiles are served from the plan too");
}
