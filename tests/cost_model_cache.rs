//! Simulated cost is a function of plan geometry alone and nobody but the
//! reader of a timeline needs it, so frames only log what to charge and the
//! first read resolves the log (`core::cost_model`); a compiled plan's
//! execute-path cost is walked at most once, by whichever stream first
//! asks. This suite pins both halves of that contract: resolved values are
//! bit-for-bit what the dynamic engine reports (across routes, re-plan
//! paths and the overflow re-run; `timeline_golden_bits.rs` pins both to
//! the eager parent), and frames nobody reads run no cost-model code —
//! compiles, hits, re-plans, dynamic runs and `serve()` leave
//! `cost_model::evaluations()` where it was, each first read adds exactly
//! one, repeated reads none.

#[path = "support/cost_fixtures.rs"]
mod fixtures;

use fixtures::{engine, model, scene, stage_bits, untuned};
use std::sync::{Arc, Mutex, MutexGuard};
use torchsparse::coords::Coord;
use torchsparse::core::cost_model::evaluations;
use torchsparse::core::{
    CompiledSession, EnginePreset, FaultSite, LayerProfile, Module, OptimizationConfig, Precision,
    SparseTensor,
};
use torchsparse::data::{geometry_static_stream, temporal_churn_stream};
use torchsparse::gpusim::{Micros, Stage, Timeline};
use torchsparse::models::MinkUNet;
use torchsparse::serve::{serve, ServiceConfig};
use torchsparse::tensor::Matrix;

/// `evaluations()` is process-wide and the harness runs tests on parallel
/// threads; every test here compiles sessions, so all of them serialise on
/// this lock to keep the counter deltas attributable.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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

/// (a) A hit frame's timeline is bitwise what the dynamic engine reports,
/// for every dataflow route and executed storage precision.
#[test]
fn hit_frame_timeline_matches_dynamic_bitwise_across_routes_and_precisions() {
    let _serial = serial();
    let m = model(21);
    let x = scene(4);
    for route in ["gather-matmul-scatter", "fetch-on-demand"] {
        for precision in [Precision::Fp32, Precision::Fp16] {
            let mut cfg = untuned(precision);
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
                    "{label} frame {frame}: the plan's cost must equal the dynamic run's"
                );
            }
        }
    }
}

/// (a) With autotuning on, the cached timeline is a function of the tuned
/// plan: two sessions compiled on the same scene choose the same groupings
/// and report the same bits.
#[test]
fn tuned_sessions_agree_bitwise() {
    let _serial = serial();
    let coords: Vec<Coord> =
        (0..12 * 12 * 12).map(|i| Coord::new(0, i / 144, (i / 12) % 12, i % 12)).collect();
    let n = coords.len();
    let x = SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r + c) % 7) as f32 - 3.0))
        .expect("dense scene");
    let m = model(23);
    let cfg = EnginePreset::TorchSparse.config();

    let mut first = compile(&cfg, &m, &x);
    let mut second = compile(&cfg, &m, &x);
    let report = first.tuning_report().expect("autotune ran");
    assert!(!report.policies.is_empty(), "{report:?}");
    assert_eq!(second.tuning_report(), Some(report));
    first.execute(&x).expect("first hit");
    second.execute(&x).expect("second hit");
    assert_eq!(exec_bits(first.last_timeline()), exec_bits(second.last_timeline()));
    assert_eq!(first.last_timeline().stage(Stage::Mapping), Micros::ZERO);
}

/// (a) Every re-plan path re-derives the cached cost: the miss frame and
/// the hit after it report what a cold compile on the new geometry does,
/// and only the miss pays `Mapping` — untuned, and under the product
/// config, whose walk prices each convolution at the grouping the search
/// picks for the plan's own map.
#[test]
fn replanned_frames_match_a_cold_compile_bitwise() {
    let _serial = serial();
    let m = model(25);
    let base = scene(4);
    let paths = [
        ("delta-patch", 0.08, true, (1, 0, 1)),
        ("delta-fallback", 0.5, true, (0, 1, 1)),
        ("full-replan", 0.08, false, (0, 0, 2)),
    ];
    // Autotuning on is the product config.
    for autotune in [false, true] {
        for (path, churn, delta_replan, expected) in paths {
            let path = format!("{path}, autotune {autotune}");
            let mut cfg = untuned(Precision::Fp16);
            cfg.autotune_policies = autotune;
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
            let taken = (s.delta_patches, s.delta_fallbacks, s.full_replans);
            assert_eq!(taken, expected, "{path}: {s:?}");
        }
    }
}

/// (b) Executing evaluates nothing — not the compile, not hits, not delta
/// patches, fallbacks or full re-plans, not a frame that took the overflow
/// re-run. Each first read evaluates exactly once; a second read is free.
#[test]
fn unread_frames_evaluate_nothing_and_each_first_read_evaluates_once() {
    let _serial = serial();
    let m = model(27);
    let base = scene(4);
    for (churn, delta_replan) in [(0.08, true), (0.5, true), (0.08, false)] {
        let mut cfg = untuned(Precision::Fp16);
        cfg.delta_replan = delta_replan;
        let frames = temporal_churn_stream(&base, 4, churn, 17).expect("stream");

        let before = evaluations();
        let mut session = compile(&cfg, &m, &frames[0]);
        for _ in 0..24 {
            session.execute(&frames[0]).expect("hit");
        }
        for frame in &frames[1..] {
            session.execute(frame).expect("miss");
            session.execute(frame).expect("hit");
        }
        assert_eq!(session.stats().misses, 4, "one build per new geometry");
        session.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
        session.execute(&frames[3]).expect("hit with overflow");
        assert_eq!(session.degradation_report().count(FaultSite::Fp16Overflow), 1);
        assert_eq!(evaluations(), before, "nobody read a timeline: nothing evaluated");

        // The overflow frame's layers ran twice: its cost is its own walk.
        let faulted = exec_bits(session.last_timeline());
        assert_eq!(evaluations() - before, 1, "the first read evaluates once");
        assert_eq!(exec_bits(session.last_timeline()), faulted);
        assert_eq!(evaluations() - before, 1, "the second read is free");

        // The next hit reads the plan's own cell: one walk, then cached for
        // every later frame on the plan.
        session.execute(&frames[3]).expect("clean hit");
        let clean = exec_bits(session.last_timeline());
        assert_ne!(clean, faulted);
        assert_eq!(evaluations() - before, 2, "first read of this plan");
        session.execute(&frames[3]).expect("hit");
        assert_eq!(exec_bits(session.last_timeline()), clean);
        assert_eq!(evaluations() - before, 2, "later frames on the plan read the cell");
    }

    // Dynamic runs: the same rule, per frame.
    let mut dynamic = engine(&untuned(Precision::Fp16));
    let before = evaluations();
    for _ in 0..3 {
        dynamic.run(&m, &base).expect("dynamic run");
    }
    assert_eq!(evaluations(), before, "unread dynamic runs evaluate nothing");
    let first = exec_bits(dynamic.last_timeline());
    assert_eq!(evaluations() - before, 1);
    assert_eq!(exec_bits(dynamic.last_timeline()), first);
    assert!(dynamic.last_latency() > Micros::ZERO);
    assert_eq!(evaluations() - before, 1, "repeated reads are free");
}

/// (b) Reading after every frame and reading only the last one give the
/// same bits: resolution is a pure function of the frame's log.
#[test]
fn reading_every_frame_matches_reading_only_the_last() {
    let _serial = serial();
    let m = model(31);
    let base = scene(4);
    let cfg = untuned(Precision::Fp16);
    let frames = temporal_churn_stream(&base, 4, 0.08, 19).expect("stream");
    let mut eager = compile(&cfg, &m, &frames[0]);
    let mut lazy = compile(&cfg, &m, &frames[0]);
    let mut dynamic_eager = engine(&cfg);
    let mut dynamic_lazy = engine(&cfg);
    let mut last = None;
    for frame in frames.iter().chain(frames.iter().rev()) {
        eager.execute(frame).expect("execute");
        lazy.execute(frame).expect("execute");
        dynamic_eager.run(&m, frame).expect("run");
        dynamic_lazy.run(&m, frame).expect("run");
        last = Some((stage_bits(eager.last_timeline()), stage_bits(dynamic_eager.last_timeline())));
    }
    let (session_bits, dynamic_bits) = last.expect("frames ran");
    assert_eq!(stage_bits(lazy.last_timeline()), session_bits);
    assert_eq!(stage_bits(dynamic_lazy.last_timeline()), dynamic_bits);
}

/// (b) Two streams on the shared compile-time plan, read from two threads:
/// the plan is walked once, by whichever asks first, and both agree.
#[test]
fn streams_reading_a_shared_plan_from_two_threads_evaluate_once_and_agree() {
    let _serial = serial();
    let net = MinkUNet::with_width(0.25, 4, 3, 17);
    let base = scene(4);
    let cfg = untuned(Precision::Fp16);
    let before = evaluations();
    let (shared, mut first) = compile(&cfg, &net, &base).into_parts();
    let mut second = shared.new_stream().expect("stream");
    shared.execute_on(&mut first, &base).expect("hit");
    shared.execute_on(&mut second, &base).expect("hit");
    assert_eq!(evaluations(), before);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(move || first.last_timeline().clone());
        let b = scope.spawn(move || second.last_timeline().clone());
        (a.join().expect("reader"), b.join().expect("reader"))
    });
    assert_eq!(evaluations() - before, 1, "one walk for the shared plan");
    assert_eq!(a, b);
    assert!(a.total() > Micros::ZERO);
}

/// (b) `serve()` never reads a timeline: streams that hit, churn and
/// re-plan privately end with the counter where it started.
#[test]
fn serve_with_churned_streams_evaluates_nothing() {
    let _serial = serial();
    let net = MinkUNet::with_width(0.25, 4, 3, 17);
    let base = scene(4);
    let cfg = untuned(Precision::Fp16);
    let (shared, _) = compile(&cfg, &net, &base).into_parts();
    let streams: Vec<Vec<SparseTensor>> = vec![
        geometry_static_stream(&base, 4, 0.02, 90).expect("stream"),
        temporal_churn_stream(&base, 4, 0.08, 91).expect("stream"),
    ];
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
    assert_eq!(evaluations(), before, "a serve run reads no timeline and evaluates nothing");
}

/// (b) The FP16 -> FP32 overflow re-run simulates its layer twice; that
/// frame — and only that frame — walks the plan itself when it is read, and
/// reports what the dynamic engine reports under the same fault.
#[test]
fn overflow_rerun_frame_evaluates_once_and_matches_dynamic() {
    let _serial = serial();
    let m = model(29);
    let x = scene(4);
    let cfg = untuned(Precision::Fp16);

    let mut dynamic = engine(&cfg);
    dynamic.run(&m, &x).expect("clean dynamic run");
    let clean = exec_bits(dynamic.last_timeline());
    dynamic.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
    dynamic.run(&m, &x).expect("dynamic run with overflow");
    assert_eq!(dynamic.degradation_report().count(FaultSite::Fp16Overflow), 1);
    let faulted = exec_bits(dynamic.last_timeline());
    assert_ne!(faulted, clean, "the re-run layer is charged twice");

    let mut session = compile(&cfg, &m, &x);
    session.execute(&x).expect("clean hit");
    assert_eq!(exec_bits(session.last_timeline()), clean);

    let before = evaluations();
    session.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
    session.execute(&x).expect("hit with overflow");
    assert_eq!(session.degradation_report().count(FaultSite::Fp16Overflow), 1);
    assert_eq!(evaluations(), before, "executing the re-run frame evaluates nothing");
    assert_eq!(exec_bits(session.last_timeline()), faulted);
    assert_eq!(evaluations() - before, 1, "reading it walks the plan once");

    session.execute(&x).expect("clean hit again");
    assert_eq!(exec_bits(session.last_timeline()), clean);
    assert_eq!(evaluations() - before, 1, "the next hit reads the plan's cell again");
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
    let golden = without_mapping(dynamic.context().layer_profiles());
    assert!(golden.len() > 20, "MinkUNet profiles every conv, batch norm and ReLU");

    let mut session = compile(&cfg, &net, &x);
    let before = evaluations();
    session.execute(&x).expect("unprofiled hit");
    assert!(session.context().layer_profiles().is_empty());
    assert_eq!(evaluations() - before, 1, "the first read walked the plan");
    session.context_mut().profile_layers = true;
    session.execute(&x).expect("profiled hit");
    assert_eq!(session.context().layer_profiles(), golden);
    assert_eq!(evaluations() - before, 1, "profiles come from the same cell");
}
