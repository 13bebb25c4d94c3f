//! Compiled sessions must be indistinguishable from dynamic execution:
//! bitwise-identical outputs across every dataflow and precision, identical
//! fault-degradation behavior, and transparent re-planning when the input
//! geometry changes.

use torchsparse::coords::Coord;
use torchsparse::core::{
    CompiledSession, CoreError, Engine, EnginePreset, FaultSite, LayerOp, Module, Precision,
    SparseTensor, Tracer,
};
use torchsparse::gpusim::{DeviceProfile, Stage};
use torchsparse::models::{CenterPoint, MinkUNet, Spvcnn};
use torchsparse::tensor::Matrix;

/// A dense-ish blob so that four stride-2 downsamples keep points.
fn scene(channels: usize, shift: i32) -> SparseTensor {
    let mut coords = std::collections::BTreeSet::new();
    for i in 0..500 {
        coords.insert(Coord::new(0, (i * 7 + shift) % 24, ((i * 13) / 3) % 20, (i * 3) % 16));
    }
    let coords: Vec<Coord> = coords.into_iter().collect();
    let n = coords.len();
    SparseTensor::new(
        coords,
        Matrix::from_fn(n, channels, |r, c| ((r + 3 * c) % 9) as f32 * 0.25 - 1.0),
    )
    .expect("valid scene")
}

fn bits(t: &SparseTensor) -> Vec<u32> {
    t.feats().as_slice().iter().map(|v| v.to_bits()).collect()
}

fn engine(preset: EnginePreset, precision: Precision) -> Engine {
    let mut cfg = preset.config();
    cfg.precision = precision;
    Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
}

fn assert_compiled_matches_dynamic<M: Module>(model: &M, x: &SparseTensor, label: &str) {
    for preset in
        [EnginePreset::BaselineFp32, EnginePreset::TorchSparse, EnginePreset::MinkowskiEngine]
    {
        for precision in [Precision::Fp32, Precision::Fp16] {
            let mut dynamic = engine(preset, precision);
            let expected = dynamic.run(model, x).expect("dynamic run");
            let mut session = engine(preset, precision).compile(model, x).expect("compile");
            let got = session.execute(x).expect("compiled execute");
            assert_eq!(expected.coords(), got.coords(), "{label} {preset:?}/{precision:?}");
            assert_eq!(
                bits(&expected),
                bits(&got),
                "{label} {preset:?}/{precision:?}: compiled output must be bitwise identical"
            );
            assert!(
                session.last_timeline().total() < dynamic.last_latency(),
                "{label} {preset:?}/{precision:?}: plan reuse must beat dynamic"
            );
            assert_eq!(
                session.last_timeline().stage(Stage::Mapping).as_f64(),
                0.0,
                "{label} {preset:?}/{precision:?}: a plan hit must not search maps"
            );
        }
    }
}

#[test]
fn minkunet_bitwise_identical_across_dataflows_and_precisions() {
    let net = MinkUNet::with_width(0.25, 4, 3, 17);
    assert_compiled_matches_dynamic(&net, &scene(4, 0), "MinkUNet");
}

#[test]
fn spvcnn_voxel_branch_bitwise_identical_across_dataflows_and_precisions() {
    let net = Spvcnn::new(0.25, 4, 8, 0.1, 23);
    let branch = net.voxel_branch();
    assert_compiled_matches_dynamic(branch, &scene(net.hidden(), 0), "SPVCNN voxel branch");
}

#[test]
fn geometry_change_invalidates_plan_and_replans_correctly() {
    let net = MinkUNet::with_width(0.25, 4, 3, 29);
    let a = scene(4, 0);
    let b = scene(4, 5);
    assert_ne!(a.coords(), b.coords(), "scenes must differ geometrically");

    let mut session =
        engine(EnginePreset::TorchSparse, Precision::Fp16).compile(&net, &a).expect("compile");
    session.execute(&a).expect("hit");
    assert_eq!(
        session.last_timeline().stage(Stage::Mapping).as_f64(),
        0.0,
        "plan hit must not rebuild maps"
    );

    let y = session.execute(&b).expect("replan");
    let s = session.stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    assert!(s.plan_bytes > 0, "a frozen plan has a resident footprint");
    assert!(
        session.last_timeline().stage(Stage::Mapping).as_f64() > 0.0,
        "the invalidated frame pays mapping again"
    );

    let mut dynamic = engine(EnginePreset::TorchSparse, Precision::Fp16);
    let expected = dynamic.run(&net, &b).expect("dynamic on b");
    assert_eq!(bits(&expected), bits(&y), "replanned output must match dynamic");

    // Back to the original geometry: the stream's slot (holding `b`) is
    // invalidated, but the immutable base plan still matches `a`, so the
    // session re-attaches to it — a hit, not a rebuild (misses count
    // plan *builds* only). Then a plain hit.
    session.execute(&a).expect("re-attach to base plan");
    session.execute(&a).expect("hit again");
    let s = session.stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (3, 2, 2));
}

#[test]
fn planning_faults_degrade_identically_to_dynamic() {
    // Mapping-path faults fire at plan time in a session and mid-forward in
    // a dynamic run; the fallback (a plain rebuild) is exact either way.
    let net = MinkUNet::with_width(0.25, 4, 3, 31);
    let x = scene(4, 0);

    let mut dynamic = Engine::new(EnginePreset::SpConv, DeviceProfile::rtx_2080ti());
    dynamic.context_mut().runtime.faults.arm_count(FaultSite::GridTableBuild, 4);
    dynamic.context_mut().runtime.faults.arm(FaultSite::KernelMapCache);
    let expected = dynamic.run(&net, &x).expect("degraded dynamic run");
    assert!(dynamic.degradation_report().count(FaultSite::GridTableBuild) >= 1);
    assert_eq!(dynamic.degradation_report().count(FaultSite::KernelMapCache), 1);

    let mut clean_engine = Engine::new(EnginePreset::SpConv, DeviceProfile::rtx_2080ti());
    clean_engine.context_mut().runtime.faults.arm_count(FaultSite::GridTableBuild, 4);
    clean_engine.context_mut().runtime.faults.arm(FaultSite::KernelMapCache);
    let mut session = clean_engine.compile(&net, &x).expect("degraded compile");
    // A frozen plan searches the MPHF and never attempts a grid build, so
    // of the two armed sites only the map-cache fault can fire at plan
    // time — with the dynamic run's decision.
    let cache_events = |r: &torchsparse::core::DegradationReport| {
        r.events()
            .iter()
            .filter(|e| e.site == FaultSite::KernelMapCache)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        cache_events(dynamic.degradation_report()),
        cache_events(session.planning_degradation()),
        "planning must take the same map-cache decision as dynamic"
    );
    assert_eq!(session.planning_degradation().count(FaultSite::GridTableBuild), 0);
    assert_eq!(session.planning_degradation().events().len(), 1);

    let got = session.execute(&x).expect("execute after degraded planning");
    assert_eq!(bits(&expected), bits(&got), "degraded planning must stay exact");
    assert!(session.degradation_report().is_empty(), "no fault fires on the pure feature path");
}

#[test]
fn fp16_overflow_fault_degrades_identically_at_execute() {
    let net = MinkUNet::with_width(0.25, 4, 3, 37);
    let x = scene(4, 0);

    let mut dynamic = engine(EnginePreset::TorchSparse, Precision::Fp16);
    dynamic.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
    let expected = dynamic.run(&net, &x).expect("dynamic with overflow");
    assert_eq!(dynamic.degradation_report().count(FaultSite::Fp16Overflow), 1);

    let mut session =
        engine(EnginePreset::TorchSparse, Precision::Fp16).compile(&net, &x).expect("compile");
    assert!(
        session.planning_degradation().is_empty(),
        "overflow is a feature-path fault; planning must not trip it"
    );
    session.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
    let got = session.execute(&x).expect("execute with overflow");
    assert_eq!(session.degradation_report().count(FaultSite::Fp16Overflow), 1);
    assert_eq!(
        bits(&expected),
        bits(&got),
        "the FP32 re-run fallback must behave identically under a frozen plan"
    );
}

/// Replays a traced op list: the backbone of a model without its head.
struct Ops<'a>(Vec<LayerOp<'a>>);

impl Module for Ops<'_> {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        self.0.iter().for_each(|op| tracer.push(*op));
        Ok(())
    }

    fn name(&self) -> &str {
        "ops"
    }
}

/// CenterPoint's dense head traces as a cost-only step, so the detector
/// compiles whole: a hit equals the dynamic run bit for bit and charges no
/// `Mapping`. On a hit the head costs a ninth of the execute path before
/// it — a tenth of the frame — where a dynamic frame's head also covers the
/// map searches.
#[test]
fn centerpoint_compiles_and_hits_match_dynamic_bits() {
    let net = CenterPoint::with_widths(5, &[8, 16, 32], 3);
    let x = scene(5, 0);
    assert_compiled_matches_dynamic(&net, &x, "CenterPoint");

    let mut tracer = Tracer::new();
    net.trace(&mut tracer).expect("CenterPoint traces");
    let (head, backbone) = tracer.ops().split_last().expect("ops");
    assert!(matches!(head, LayerOp::CostSurcharge { stage: Stage::Other, .. }));
    let backbone = Ops(backbone.to_vec());
    let hit = |m: &dyn Module| {
        let mut session =
            engine(EnginePreset::TorchSparse, Precision::Fp16).compile(m, &x).expect("compile");
        session.execute(&x).expect("hit");
        session.last_timeline().clone()
    };
    let (with_head, without) = (hit(&net), hit(&backbone));
    let head_us = with_head.stage(Stage::Other).as_f64() - without.stage(Stage::Other).as_f64();
    let expected = without.total().as_f64() / 9.0;
    assert!((head_us - expected).abs() < 1e-9 * expected, "head {head_us} vs {expected}");
    for stage in [Stage::Mapping, Stage::Gather, Stage::MatMul, Stage::Scatter] {
        assert_eq!(with_head.stage(stage), without.stage(stage), "{stage}");
    }
}

#[test]
fn compiled_session_profiles_match_dynamic_layer_for_layer() {
    let net = MinkUNet::with_width(0.25, 4, 3, 41);
    let x = scene(4, 0);

    let mut dynamic = engine(EnginePreset::TorchSparse, Precision::Fp16);
    dynamic.context_mut().profile_layers = true;
    dynamic.run(&net, &x).expect("dynamic run");
    let dyn_profiles: Vec<(String, usize)> = dynamic
        .context()
        .layer_profiles()
        .iter()
        .map(|p| (p.name.clone(), p.input_points))
        .collect();

    let mut session: CompiledSession<'_> =
        engine(EnginePreset::TorchSparse, Precision::Fp16).compile(&net, &x).expect("compile");
    session.context_mut().profile_layers = true;
    session.execute(&x).expect("execute");
    let ses_profiles: Vec<(String, usize)> = session
        .context()
        .layer_profiles()
        .iter()
        .map(|p| (p.name.clone(), p.input_points))
        .collect();
    assert_eq!(dyn_profiles, ses_profiles, "same layers, same order, same input sizes");
}

/// Compiling must not rewrite the configuration it was given: the shared
/// model hands new streams exactly what the caller passed to
/// `Engine::with_config` (that a session's searches build the MPHF is the
/// session's private state, not a config edit).
#[test]
fn compiled_model_keeps_the_callers_config() {
    let net = MinkUNet::with_width(0.25, 4, 3, 41);
    let x = scene(4, 0);
    for preset in [EnginePreset::TorchSparse, EnginePreset::SpConv, EnginePreset::MinkowskiEngine] {
        let mut cfg = preset.config();
        cfg.threads = Some(2);
        let session = Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti())
            .compile(&net, &x)
            .expect("compile");
        assert_eq!(session.model().config(), &cfg, "{}", preset.name());
        assert_eq!(&session.context().config, &cfg, "{}", preset.name());
        let (model, _) = session.into_parts();
        let stream = model.new_stream().expect("stream");
        assert_eq!(&stream.context().config, &cfg, "{}", preset.name());
    }
}
