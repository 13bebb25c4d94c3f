//! A dynamic `Engine::run` is an ephemeral plan through the executor every
//! compiled frame runs: each traceable module is traced, planned against
//! the input geometry, executed by `run_steps` and logged as one plan
//! charge. This suite pins what that buys beyond the bit-for-bit timelines
//! of `timeline_golden_bits.rs`: a `Sequential` of blocks runs as one plan
//! of the same layers, dynamic runs honour deadlines at the compiled
//! frame's stage boundaries, and `Engine::price` — the plan without its
//! execution — reports what the run reports.

#[path = "support/cost_fixtures.rs"]
mod fixtures;

use fixtures::{engine, model, scene, stage_bits, untuned};
use std::time::Duration;
use torchsparse::core::{
    CoreError, Deadline, Engine, EnginePreset, FaultSite, Module, Precision, Sequential,
    SparseTensor, Tracer,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::{CenterPoint, ConvBnReLU, MinkUNet, ResidualBlock};

/// A container that only traces its blocks: one plan for all of them.
struct OnePlan(Vec<Box<dyn Module>>);

impl Module for OnePlan {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        self.0.iter().try_for_each(|block| block.trace(tracer))
    }

    fn name(&self) -> &str {
        "one-plan"
    }
}

/// Every block kind, ending in a transposed convolution whose map was
/// built by an earlier block.
fn blocks() -> Vec<Box<dyn Module>> {
    vec![
        Box::new(ConvBnReLU::new("stem", 4, 8, 3, 1, 1)),
        Box::new(ResidualBlock::new("res", 8, 16, 2)),
        Box::new(ConvBnReLU::new("down", 16, 16, 2, 2, 3)),
        Box::new(ConvBnReLU::new("up", 16, 8, 2, 2, 4).into_transposed()),
    ]
}

fn feature_bits(t: &SparseTensor) -> Vec<u32> {
    t.feats().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A `Sequential` of blocks traces them into one ephemeral plan: it reports
/// exactly what a container that only traces the same blocks reports —
/// output bits, timeline bits and layer profiles.
#[test]
fn a_sequential_runs_as_one_plan() {
    let mut seq = Sequential::new("seq");
    for block in blocks() {
        seq.push_boxed(block);
    }
    let one = OnePlan(blocks());
    let x = scene(4);
    for precision in [Precision::Fp32, Precision::Fp16] {
        let run = |m: &dyn Module| {
            let mut e = engine(&untuned(precision));
            e.context_mut().profile_layers = true;
            let y = e.run(m, &x).expect("dynamic run");
            (feature_bits(&y), stage_bits(e.last_timeline()), e.context().layer_profiles().to_vec())
        };
        let (a, b) = (run(&seq), run(&one));
        assert_eq!(a.0, b.0, "{precision:?}: output bits");
        assert_eq!(a.1, b.1, "{precision:?}: timeline bits");
        assert_eq!(a.2, b.2, "{precision:?}: layer profiles");
        assert_eq!(a.2.len(), 16, "conv/bn/relu x 3 blocks + 7 in the residual block");
    }
}

/// An expired deadline, or an injected overrun, fails a dynamic run at the
/// first `mapping` boundary like it fails a compiled frame; the next run
/// without one is unharmed and repeats the clean run bit for bit.
#[test]
fn dynamic_runs_fail_at_the_deadline_and_recover() {
    let all_ops = model(7);
    let detector = CenterPoint::with_widths(5, &[8, 16], 3);
    for (m, x) in [(&all_ops as &dyn Module, scene(4)), (&detector, scene(5))] {
        let mut e = engine(&untuned(Precision::Fp16));
        let clean = e.run(m, &x).expect("clean run");
        let clean_timeline = stage_bits(e.last_timeline());

        e.context_mut().runtime.deadline = Some(Deadline::starting_now(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        let err = e.run(m, &x).expect_err("an expired deadline must fail the run");
        assert!(matches!(err, CoreError::DeadlineExceeded { stage: "mapping", .. }), "{err:?}");

        e.context_mut().runtime.deadline = None;
        e.context_mut().runtime.faults.arm(FaultSite::DeadlineOverrun);
        let err = e.run(m, &x).expect_err("an injected overrun must fail the run");
        assert!(matches!(err, CoreError::DeadlineExceeded { stage: "mapping", .. }), "{err:?}");

        let again = e.run(m, &x).expect("the next run has no deadline");
        assert_eq!(feature_bits(&again), feature_bits(&clean));
        assert_eq!(stage_bits(e.last_timeline()), clean_timeline);
    }
}

/// Pricing a model is running it without the execution: the same timeline
/// bits, layer profiles and recorded workloads, for MinkUNet and for
/// CenterPoint (whose dense head is a cost-only step of the plan), under
/// three presets.
#[test]
fn price_matches_run_bit_for_bit() {
    let unet = MinkUNet::with_width(0.25, 4, 3, 11);
    let detector = CenterPoint::with_widths(5, &[8, 16], 3);
    for (m, x) in [(&unet as &dyn Module, scene(4)), (&detector, scene(5))] {
        for preset in
            [EnginePreset::BaselineFp32, EnginePreset::TorchSparse, EnginePreset::MinkowskiEngine]
        {
            let mut run = Engine::new(preset, DeviceProfile::rtx_2080ti());
            let mut priced = Engine::new(preset, DeviceProfile::rtx_2080ti());
            for e in [&mut run, &mut priced] {
                e.context_mut().profile_layers = true;
                e.context_mut().record_workloads = true;
            }
            run.run(m, &x).expect("run");
            let timeline = stage_bits(priced.price(m, &x).expect("price"));
            let label = format!("{} / {preset:?}", m.name());
            assert_eq!(timeline, stage_bits(run.last_timeline()), "{label}: timeline bits");
            let (a, b) = (run.context(), priced.context());
            assert_eq!(a.layer_profiles(), b.layer_profiles(), "{label}: layer profiles");
            assert_eq!(a.workloads, b.workloads, "{label}: recorded workloads");
            assert!(!b.workloads.is_empty(), "{label}");
        }
    }
}
