//! A convolution's executor runs the pointwise steps that follow it — batch
//! norm, the identity-shortcut add, ReLU — on each output block while the
//! block is in cache, when the plan marks them. The steps stay in the plan,
//! so this suite holds the fused run to three oracles, bit for bit:
//!
//! - the scalar transcription in `tests/support/layer_reference.rs`, one
//!   whole-matrix rule at a time;
//! - the same layers run one per plan, as `Sequential` runs its children,
//!   with the joins done on whole tensors — no convolution ever sees the
//!   step after it;
//! - for fault injection, the bits, injection log and degradation report
//!   the engine produced before the fusion existed (pinned below).
//!
//! It also holds a steady-state hit frame to a small allocation count that
//! does not grow with the network's depth.

#[path = "support/layer_reference.rs"]
mod layer_reference;

use layer_reference::{epilogue_reference, layer_reference};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use torchsparse::coords::Coord;
use torchsparse::core::{
    BatchNorm, Context, CoreError, Engine, EnginePreset, FaultSite, LayerOp, Module,
    OptimizationConfig, Precision, ReLU, SparseConv3d, SparseTensor, Tracer,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::{CenterPoint, ConvBnReLU, MinkUNet, ResidualBlock};
use torchsparse::tensor::Matrix;

/// Counts the allocations each thread makes.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the count is best effort while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Worker counts every configuration is checked at.
const THREADS: [usize; 3] = [1, 2, 8];

fn config(precision: Precision, threads: usize) -> OptimizationConfig {
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.precision = precision;
    cfg.threads = Some(threads);
    cfg.autotune_policies = false;
    cfg
}

fn engine(cfg: &OptimizationConfig) -> Engine {
    Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti())
}

fn bits(t: &SparseTensor) -> Vec<u32> {
    t.feats().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A blob that survives four stride-2 downsamples, with `channels`
/// features drawn from `value`.
fn scene(channels: usize, value: impl Fn(usize) -> f32) -> SparseTensor {
    let mut coords = std::collections::BTreeSet::new();
    for i in 0..300i32 {
        coords.insert(Coord::new(0, (i * 7) % 20, ((i * 13) / 3) % 16, (i * 3) % 12));
    }
    let coords: Vec<Coord> = coords.into_iter().collect();
    let n = coords.len();
    SparseTensor::new(coords, Matrix::from_fn(n, channels, |r, c| value(r * channels + c)))
        .expect("valid scene")
}

/// Pseudo-random features in [-2, 2].
fn plain(i: usize) -> f32 {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    (h % 4001) as f32 / 1000.0 - 2.0
}

/// Mostly [`plain`], with NaN, both infinities, `-0.0` and magnitudes past
/// binary16's range sprinkled in.
fn special(i: usize) -> f32 {
    match i % 89 {
        3 => f32::NAN,
        17 => f32::INFINITY,
        29 => f32::NEG_INFINITY,
        41 | 42 => -0.0,
        55 => 7.0e4,
        71 => -9.0e4,
        _ => plain(i),
    }
}

/// Per-channel `(scale, shift)` of a batch norm: a spread of scales
/// (negative ones, and every fifth large enough to push binary16 storage
/// to infinity) and shifts.
fn bn_params(channels: usize, seed: usize) -> (Vec<f32>, Vec<f32>) {
    let scale = (0..channels)
        .map(|c| plain(seed * 101 + c) * if c % 5 == 4 { 4.0e3 } else { 1.5 })
        .collect();
    let shift = (0..channels).map(|c| plain(seed * 103 + c + 7) * 0.5).collect();
    (scale, shift)
}

fn batch_norm(name: &str, channels: usize, seed: usize) -> BatchNorm {
    let (scale, shift) = bn_params(channels, seed);
    BatchNorm::new(name, scale, shift)
}

/// `Push → conv → [bn] → ResidualAdd → [ReLU]`, the shortcut projected when
/// `projection` is set.
struct Residual {
    conv: SparseConv3d,
    bn: Option<BatchNorm>,
    projection: Option<SparseConv3d>,
    relu: Option<ReLU>,
}

impl Residual {
    fn new(conv: SparseConv3d) -> Residual {
        Residual { conv, bn: None, projection: None, relu: None }
    }
}

impl Module for Residual {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        tracer.push(LayerOp::Push);
        self.conv.trace(tracer)?;
        if let Some(bn) = &self.bn {
            bn.trace(tracer)?;
        }
        tracer.push(LayerOp::ResidualAdd { projection: self.projection.as_ref() });
        if let Some(relu) = &self.relu {
            relu.trace(tracer)?;
        }
        Ok(())
    }

    fn name(&self) -> &str {
        "residual"
    }
}

/// `Push → ReLU → ResidualAdd`: `relu(x) + x`, an in-place step on a
/// matrix the value stack still holds.
struct ReluSkip(ReLU);

impl Module for ReluSkip {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        tracer.push(LayerOp::Push);
        self.0.trace(tracer)?;
        tracer.push(LayerOp::ResidualAdd { projection: None });
        Ok(())
    }

    fn name(&self) -> &str {
        "relu-skip"
    }
}

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

/// The scalar reference of a model's output on an input, under a config.
type Reference = Box<dyn Fn(&SparseTensor, &OptimizationConfig) -> Matrix>;

/// A hand-built model and its scalar reference on an 8-channel input.
struct Prefix {
    name: &'static str,
    blocks: Vec<Box<dyn Module>>,
    reference: Reference,
}

/// The prefixes of `Conv → BatchNorm → [ResidualAdd] → ReLU` on 8-channel
/// inputs, plus a residual whose projected shortcut keeps the add out of
/// the epilogue and a ReLU on a matrix the value stack still holds.
fn prefixes() -> Vec<Prefix> {
    let conv = |c_out, k, s, seed| SparseConv3d::with_random_weights("c", 8, c_out, k, s, seed);
    // `conv` on `x`, then the pointwise rules one whole matrix at a time.
    let reference = |c_out, k, s, seed, bn: Option<usize>, shortcut: bool, relu: bool| {
        Box::new(move |x: &SparseTensor, cfg: &OptimizationConfig| {
            let params = bn.map(|seed| bn_params(c_out, seed));
            let bn = params.as_ref().map(|(scale, shift)| (scale.as_slice(), shift.as_slice()));
            let shortcut = shortcut.then(|| x.feats());
            let out = layer_reference(&conv(c_out, k, s, seed), x, cfg);
            epilogue_reference(out, bn, shortcut, relu, cfg.precision)
        }) as Reference
    };
    let residual = |relu: bool, seed| {
        Box::new(Residual {
            bn: Some(batch_norm("bn", 8, seed as usize)),
            relu: relu.then(|| ReLU::new("relu")),
            ..Residual::new(conv(8, 3, 1, seed))
        }) as Box<dyn Module>
    };
    vec![
        Prefix {
            name: "conv",
            blocks: vec![Box::new(conv(12, 3, 1, 1))],
            reference: reference(12, 3, 1, 1, None, false, false),
        },
        Prefix {
            name: "conv+bn",
            blocks: vec![Box::new(conv(12, 3, 1, 2)), Box::new(batch_norm("bn", 12, 2))],
            reference: reference(12, 3, 1, 2, Some(2), false, false),
        },
        Prefix {
            name: "conv+bn+relu",
            blocks: vec![
                Box::new(conv(12, 3, 1, 3)),
                Box::new(batch_norm("bn", 12, 3)),
                Box::new(ReLU::new("relu")),
            ],
            reference: reference(12, 3, 1, 3, Some(3), false, true),
        },
        Prefix {
            name: "strided conv+relu",
            blocks: vec![Box::new(conv(16, 2, 2, 4)), Box::new(ReLU::new("relu"))],
            reference: reference(16, 2, 2, 4, None, false, true),
        },
        Prefix {
            name: "conv+bn+residual+relu",
            blocks: vec![residual(true, 6)],
            reference: reference(8, 3, 1, 6, Some(6), true, true),
        },
        Prefix {
            name: "conv+bn+residual",
            blocks: vec![residual(false, 8)],
            reference: reference(8, 3, 1, 8, Some(8), true, false),
        },
        Prefix {
            name: "projected residual",
            blocks: vec![Box::new(Residual {
                bn: Some(batch_norm("bn", 12, 10)),
                projection: Some(SparseConv3d::with_random_weights("proj", 8, 12, 1, 1, 11)),
                relu: Some(ReLU::new("relu")),
                ..Residual::new(conv(12, 3, 1, 10))
            })],
            reference: Box::new(move |x, cfg| {
                let (scale, shift) = bn_params(12, 10);
                let proj = SparseConv3d::with_random_weights("proj", 8, 12, 1, 1, 11);
                let shortcut = layer_reference(&proj, x, cfg);
                let out = layer_reference(&conv(12, 3, 1, 10), x, cfg);
                let bn = Some((scale.as_slice(), shift.as_slice()));
                epilogue_reference(out, bn, Some(&shortcut), true, cfg.precision)
            }),
        },
        Prefix {
            name: "push+relu+residual",
            blocks: vec![Box::new(ReluSkip(ReLU::new("relu")))],
            reference: Box::new(|x, _| {
                let mut out = x.feats().clone();
                out.map_inplace(|v| v.max(0.0));
                out += x.feats();
                out
            }),
        },
    ]
}

/// The blocks of [`CenterPoint::with_widths`]`(8, &[8, 16], 5)`, as
/// traceable blocks of one plan.
fn centerpoint_blocks() -> Vec<Box<dyn Module>> {
    let mut blocks: Vec<Box<dyn Module>> = vec![Box::new(ConvBnReLU::new("input", 8, 8, 3, 1, 5))];
    let mut c_prev = 8;
    for (i, c) in [8usize, 16].into_iter().enumerate() {
        let s = 5u64.wrapping_add(1000 + i as u64 * 13);
        if i > 0 {
            blocks.push(Box::new(ConvBnReLU::new(format!("stage{i}.down"), c_prev, c, 3, 2, s)));
        }
        blocks.push(Box::new(ResidualBlock::new(format!("stage{i}.block1"), c, c, s ^ 5)));
        blocks.push(Box::new(ResidualBlock::new(format!("stage{i}.block2"), c, c, s ^ 6)));
        c_prev = c;
    }
    blocks
}

/// Runs `model`'s traced ops one at a time on one context (its map cache
/// shared, as `Sequential` runs its children): each layer op as a plan of
/// its own, the joins on whole tensors.
fn one_op_per_plan(model: &dyn Module, x: &SparseTensor, cfg: &OptimizationConfig) -> SparseTensor {
    let mut tracer = Tracer::new();
    model.trace(&mut tracer).expect("traceable");
    let mut e = engine(cfg);
    let ctx = e.context_mut();
    ctx.begin_run();
    let mut cur = x.clone();
    let mut stack = Vec::new();
    for op in tracer.ops() {
        cur = match *op {
            LayerOp::Conv(conv) => conv.forward(&cur, ctx),
            LayerOp::Pool(pool) => pool.forward(&cur, ctx),
            LayerOp::BatchNorm(bn) => bn.forward(&cur, ctx),
            LayerOp::Relu(relu) => relu.forward(&cur, ctx),
            LayerOp::GlobalPool(gp) => gp.forward(&cur, ctx),
            LayerOp::Push => {
                stack.push(cur.clone());
                Ok(cur)
            }
            LayerOp::PopConcat => cur.cat_features(&stack.pop().expect("saved")),
            LayerOp::ResidualAdd { projection } => {
                let saved = stack.pop().expect("saved");
                let shortcut = match projection {
                    Some(conv) => conv.forward(&saved, ctx).expect("projection"),
                    None => saved,
                };
                cur.with_feats(cur.feats() + shortcut.feats())
            }
            LayerOp::CostSurcharge { .. } => Ok(cur),
        }
        .expect("op runs");
    }
    cur
}

/// Fused runs of `blocks` on `x` — one dynamic plan, and a compiled
/// session's first frame and a plan hit — at every worker count, against
/// the one-op-per-plan oracle.
fn assert_fused_matches_separate_plans(
    what: &str,
    blocks: Vec<Box<dyn Module>>,
    x: &SparseTensor,
    precision: Precision,
) -> Vec<u32> {
    let model = OnePlan(blocks);
    let expect = bits(&one_op_per_plan(&model, x, &config(precision, 1)));
    for threads in THREADS {
        let cfg = config(precision, threads);
        let dynamic = engine(&cfg).run(&model, x).expect("dynamic run");
        assert_eq!(bits(&dynamic), expect, "{what} @ {precision:?}, {threads} threads: dynamic");
        let mut session = engine(&cfg).compile(&model, x).expect("compile");
        for frame in ["first frame", "plan hit"] {
            let y = session.execute(x).expect("execute");
            assert_eq!(bits(&y), expect, "{what} @ {precision:?}, {threads} threads: {frame}");
            assert_eq!(y.coords(), dynamic.coords());
        }
    }
    expect
}

/// Every hand-built prefix, on plain and special-valued features, at FP32
/// and FP16: fused equals one op per plan, and the scalar reference.
#[test]
fn fused_prefixes_match_scalar_reference_and_separate_plans() {
    for precision in [Precision::Fp32, Precision::Fp16] {
        for (values, features) in [(plain as fn(usize) -> f32, "plain"), (special, "special")] {
            let x = scene(8, values);
            for prefix in prefixes() {
                let what = format!("{}, {features} features", prefix.name);
                let expect = (prefix.reference)(&x, &config(precision, 1));
                let expect: Vec<u32> = expect.as_slice().iter().map(|v| v.to_bits()).collect();
                let got = assert_fused_matches_separate_plans(&what, prefix.blocks, &x, precision);
                assert_eq!(got, expect, "{what} @ {precision:?}: scalar reference");
            }
        }
    }
}

/// MinkUNet (UNet skips, projected and identity residuals, transposed
/// convolutions) and CenterPoint (a chain of residual stages) on
/// special-valued features: the fused plan equals one op per plan at every
/// precision, worker count, compiled and dynamic — and CenterPoint's own
/// dynamic run is that plan.
#[test]
fn fused_networks_match_separate_plans() {
    for precision in [Precision::Fp32, Precision::Fp16] {
        let x = scene(8, special);
        let unet: Vec<Box<dyn Module>> = vec![Box::new(MinkUNet::with_width(0.25, 8, 5, 3))];
        assert_fused_matches_separate_plans("MinkUNet", unet, &x, precision);
        let fused =
            assert_fused_matches_separate_plans("CenterPoint", centerpoint_blocks(), &x, precision);
        let detector = CenterPoint::with_widths(8, &[8, 16], 5);
        let y = engine(&config(precision, 2)).run(&detector, &x).expect("CenterPoint");
        assert_eq!(bits(&y), fused, "CenterPoint @ {precision:?}");
    }
}

/// FNV-1a over a run's observable outcome.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &Result<SparseTensor, CoreError>) {
        match out {
            Ok(t) => bits(t).iter().for_each(|b| self.bytes(&b.to_le_bytes())),
            Err(e) => self.bytes(format!("{e:?}").as_bytes()),
        }
    }

    fn faults(&mut self, ctx: &Context) {
        self.bytes(format!("{:?}", ctx.runtime.faults.injected()).as_bytes());
        self.bytes(ctx.runtime.degradation.to_string().as_bytes());
    }
}

/// One armed FP16 overflow on a compiled plan hit and on a dynamic run of
/// MinkUNet: the layer skips its FP16 run and re-runs in FP32, folded steps
/// included, with the output, injection log and degradation report the
/// engine gave before the fusion existed, when the re-run and its steps
/// were separate sweeps.
#[test]
fn armed_overflow_repeats_the_unfused_engine() {
    let net = MinkUNet::with_width(0.25, 8, 5, 3);
    let x = scene(8, plain);
    for threads in [1, 2] {
        let cfg = config(Precision::Fp16, threads);
        let mut digest = Digest::new();
        let mut session = engine(&cfg).compile(&net, &x).expect("compile");
        digest.outcome(&session.execute(&x));
        session.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
        digest.outcome(&session.execute(&x));
        digest.faults(session.context());
        assert_eq!(session.degradation_report().count(FaultSite::Fp16Overflow), 1);

        let mut dynamic = engine(&cfg);
        dynamic.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
        digest.outcome(&dynamic.run(&net, &x));
        digest.faults(dynamic.context());
        assert_eq!(digest.0, ARMED_OVERFLOW_DIGEST, "{threads} threads");
    }
}

/// A seeded schedule drawing `DeadlineOverrun` and `Fp16Overflow` from one
/// stream, over compiled frames and dynamic runs: frames fail at the same
/// boundaries, overflow at the same layers and leave the same bits, log
/// and report as the engine before the fusion — a fused step still makes
/// every probe, in order.
#[test]
fn seeded_fault_schedule_repeats_the_unfused_engine() {
    let net = MinkUNet::with_width(0.25, 8, 5, 3);
    let x = scene(8, plain);
    for threads in [1, 2] {
        let cfg = config(Precision::Fp16, threads);
        let mut digest = Digest::new();
        let mut session = engine(&cfg).compile(&net, &x).expect("compile");
        let mut dynamic = engine(&cfg);
        for ctx in [session.context_mut(), dynamic.context_mut()] {
            let faults = &mut ctx.runtime.faults;
            faults.seed(11);
            faults.with_probability(FaultSite::DeadlineOverrun, 0.004);
            faults.with_probability(FaultSite::Fp16Overflow, 0.03);
        }
        let mut failed = 0;
        for _ in 0..8 {
            let out = session.execute(&x);
            failed += usize::from(out.is_err());
            digest.outcome(&out);
            digest.faults(session.context());
            digest.outcome(&dynamic.run(&net, &x));
            digest.faults(dynamic.context());
        }
        assert!((1..8).contains(&failed), "the schedule must fail some frames, not all");
        assert_eq!(digest.0, FAULT_SCHEDULE_DIGEST, "{threads} threads");
    }
}

/// [`armed_overflow_repeats_the_unfused_engine`]'s digest, captured on the
/// engine before the fusion (every pointwise step its own sweep).
const ARMED_OVERFLOW_DIGEST: u64 = 3_812_510_703_991_561_924;
/// [`seeded_fault_schedule_repeats_the_unfused_engine`]'s digest, captured
/// like [`ARMED_OVERFLOW_DIGEST`].
const FAULT_SCHEDULE_DIGEST: u64 = 8_569_755_897_997_912_983;

/// A steady-state plan hit allocates a handful of times — its output, the
/// cost-ledger entry — however deep the network: every activation lives in
/// a buffer slot the plan assigned, allocated on the first frame. Serial
/// engine: the pool's task boxes at more workers are the runtime's, not the
/// frame's.
#[test]
fn hit_frames_allocate_a_few_times_whatever_the_depth() {
    let x = scene(8, plain);
    let per_frame = |blocks_per_stage: usize| {
        let net = MinkUNet::with_width_and_depth(0.25, blocks_per_stage, 8, 5, 3);
        let mut session = engine(&config(Precision::Fp16, 1)).compile(&net, &x).expect("compile");
        for _ in 0..3 {
            session.execute(&x).expect("warm-up");
        }
        let before = ALLOCATIONS.with(Cell::get);
        let y = session.execute(&x).expect("hit");
        let after = ALLOCATIONS.with(Cell::get);
        drop(y);
        (after - before, session.model().num_ops())
    };
    let (shallow, shallow_ops) = per_frame(1);
    let (deep, deep_ops) = per_frame(3);
    assert!(deep_ops > shallow_ops + 60, "{shallow_ops} vs {deep_ops} ops");
    assert_eq!(shallow, deep, "allocations per hit frame must not grow with depth");
    assert!(shallow <= MAX_HIT_ALLOCATIONS, "{shallow} allocations per hit frame");
}

/// Allocations a steady-state hit frame may make.
const MAX_HIT_ALLOCATIONS: u64 = 8;

/// A residual whose shortcut has another geometry is rejected when the
/// plan is built — `LengthMismatch` for other coordinates, `ChannelMismatch`
/// for other widths — never a panic in the executor's add.
#[test]
fn residual_shortcut_geometry_is_checked_at_plan_time() {
    let x = scene(8, plain);
    let cfg = config(Precision::Fp32, 1);
    let strided = Residual::new(SparseConv3d::with_random_weights("down", 8, 8, 2, 2, 1));
    let widened = Residual::new(SparseConv3d::with_random_weights("wide", 8, 12, 3, 1, 2));
    for (model, length) in [(&strided, true), (&widened, false)] {
        for err in [
            engine(&cfg).run(model, &x).expect_err("dynamic run"),
            engine(&cfg).compile(model, &x).expect_err("compile"),
        ] {
            if length {
                assert!(matches!(err, CoreError::LengthMismatch { .. }), "{err:?}");
            } else {
                assert!(
                    matches!(err, CoreError::ChannelMismatch { expected: 12, actual: 8 }),
                    "{err:?}"
                );
            }
        }
    }
    // A join of one geometry still runs.
    let same = Residual::new(SparseConv3d::with_random_weights("same", 8, 8, 3, 1, 3));
    assert_eq!(engine(&cfg).run(&same, &x).expect("same geometry").len(), x.len());
}
