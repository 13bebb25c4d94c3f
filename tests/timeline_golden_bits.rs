//! The simulated-GPU timeline is resolved lazily — a frame logs what to
//! charge and the first read replays the log — so nothing but these pinned
//! bit patterns says the replay issues the same `Timeline::add`s, in the
//! same order, against the same L2 state as the in-line simulation it
//! replaced. Every word below but the six named last was captured on
//! `5210e96` (eager evaluation): per-stage `to_bits()` of the dynamic timeline for
//! MinkUNet, CenterPoint (dense-head surcharge) and SPVCNN (point ops
//! traced by hand), of compiled hit / delta-patch / fallback /
//! full-re-plan / overflow-re-run frames, and an FNV-1a digest of the
//! `profile_layers` output, at FP32 / FP16, and for MinkUNet and
//! CenterPoint at INT8 too. INT8 is priced, never run: its words, captured
//! from dynamic runs, are read through `Engine::price`, which logs the plan
//! a run logs, with no re-runs.
//!
//! The six are the `Mapping` words of the full-re-plan, fallback and
//! delta-patch frames at each precision, captured where a level owns one coordinate index: a
//! cold build charges one MPHF build per level, and a patch layers one
//! `DeltaIndex` per level, whose side-table for the input level is the one
//! `diff_coords` hashed and whose queries ask the base index first. The two
//! delta-patch words among them were captured again where a plan sorts its
//! input level: the churned frame's inserted voxels, which the stream
//! appends, reach the diff and its side-table in coordinate order, and the
//! table's probe count moves the patch's `Mapping` from 13.013756 to
//! 13.013662 us. No other word moved.

#[path = "support/cost_fixtures.rs"]
mod fixtures;

use fixtures::{engine, model as all_ops_model, scene, stage_bits as bits, untuned};
use torchsparse::core::{Context, FaultSite, LayerProfile, Module, Precision, SparseTensor};
use torchsparse::data::temporal_churn_stream;
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::{CenterPoint, MinkUNet, PointScene, Spvcnn};
use torchsparse::tensor::Matrix;

/// The precisions a frame executes at.
const EXECUTED: [Precision; 2] = [Precision::Fp32, Precision::Fp16];
/// ... and the ones a dynamic timeline is pinned at: INT8 is priced.
const PRICED: [Precision; 3] = [Precision::Fp32, Precision::Fp16, Precision::Int8];

/// Per-stage bit patterns in `Stage::ALL` order (mapping first).
type Bits = [u64; 5];

/// FNV-1a over every profile entry: name, input points, per-stage bits.
fn profile_digest(profiles: &[LayerProfile]) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in profiles {
        eat(p.name.as_bytes());
        eat(&(p.input_points as u64).to_le_bytes());
        for word in bits(&p.timeline) {
            eat(&word.to_le_bytes());
        }
    }
    (profiles.len(), h)
}

fn point_scene() -> PointScene {
    let n = 160;
    let positions: Vec<[f32; 3]> = (0..n)
        .map(|i| {
            let f = i as f32;
            [(f * 0.37) % 3.0, (f * 0.73) % 2.5, (f * 0.11) % 1.5]
        })
        .collect();
    let feats = Matrix::from_fn(n, 4, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.2);
    PointScene::new(positions, feats).expect("valid point scene")
}

/// Everything this suite pins, recomputed.
#[derive(Debug, PartialEq)]
struct Snapshot {
    /// `[precision] -> bits` of a dynamic `Engine::run` (`Engine::price`
    /// at INT8), over [`PRICED`].
    minkunet: [Bits; 3],
    centerpoint: [Bits; 3],
    /// `[precision] -> (entries, digest)` of a profiled dynamic MinkUNet
    /// run (priced at INT8).
    dynamic_profiles: [(usize, u64); 3],
    /// Over [`EXECUTED`] from here on. SPVCNN runs on a bare `Context`.
    spvcnn: [Bits; 2],
    /// ... and of a profiled compiled hit frame.
    hit_profiles: [(usize, u64); 2],
    /// Compiled frames of the all-ops model, `[precision] -> bits`.
    hit: [Bits; 2],
    delta_patch: [Bits; 2],
    fallback: [Bits; 2],
    full_replan: [Bits; 2],
    /// FP16 only: FP32 storage cannot overflow.
    overflow_rerun: Bits,
}

fn snapshot() -> Snapshot {
    let unet = MinkUNet::with_width(0.25, 4, 3, 41);
    let detector = CenterPoint::new(5, 7);
    let fusion = Spvcnn::new(0.25, 4, 7, 0.2, 5);
    let ops = all_ops_model(25);
    let base = scene(4);

    // A dynamic frame: run at the executed precisions, priced at INT8.
    let dynamic_engine = |model: &dyn Module, x: &SparseTensor, p: Precision, profile: bool| {
        let mut e = engine(&untuned(p));
        e.context_mut().profile_layers = profile;
        if p == Precision::Int8 {
            e.price(model, x).expect("price");
        } else {
            e.run(model, x).expect("dynamic run");
        }
        e
    };
    let dynamic = |model: &dyn Module, x: &SparseTensor, p: Precision| {
        bits(dynamic_engine(model, x, p, false).last_timeline())
    };
    // One miss frame of the all-ops session at `churn`, after a hit.
    let miss = |p: Precision, churn: f64, delta_replan: bool| {
        let mut cfg = untuned(p);
        cfg.delta_replan = delta_replan;
        let frames = temporal_churn_stream(&base, 2, churn, 13).expect("stream");
        let mut session = engine(&cfg).compile(&ops, &frames[0]).expect("compile");
        session.execute(&frames[0]).expect("hit");
        session.execute(&frames[1]).expect("miss");
        bits(session.last_timeline())
    };

    Snapshot {
        minkunet: PRICED.map(|p| dynamic(&unet, &base, p)),
        centerpoint: PRICED.map(|p| dynamic(&detector, &scene(5), p)),
        dynamic_profiles: PRICED.map(|p| {
            profile_digest(dynamic_engine(&unet, &base, p, true).context().layer_profiles())
        }),
        spvcnn: EXECUTED.map(|p| {
            let mut ctx = Context::new(untuned(p), DeviceProfile::rtx_2080ti());
            fusion.forward(&point_scene(), &mut ctx).expect("spvcnn forward");
            bits(ctx.timeline())
        }),
        hit_profiles: EXECUTED.map(|p| {
            let mut session = engine(&untuned(p)).compile(&unet, &base).expect("compile");
            session.context_mut().profile_layers = true;
            session.execute(&base).expect("profiled hit");
            profile_digest(session.context().layer_profiles())
        }),
        hit: EXECUTED.map(|p| {
            let mut session = engine(&untuned(p)).compile(&ops, &base).expect("compile");
            session.execute(&base).expect("hit");
            bits(session.last_timeline())
        }),
        delta_patch: EXECUTED.map(|p| miss(p, 0.08, true)),
        fallback: EXECUTED.map(|p| miss(p, 0.5, true)),
        full_replan: EXECUTED.map(|p| miss(p, 0.08, false)),
        overflow_rerun: {
            let mut session =
                engine(&untuned(Precision::Fp16)).compile(&ops, &base).expect("compile");
            session.execute(&base).expect("clean hit");
            session.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
            session.execute(&base).expect("hit with overflow");
            assert_eq!(session.degradation_report().count(FaultSite::Fp16Overflow), 1);
            bits(session.last_timeline())
        },
    }
}

/// The parent commit's values (eager, in-line simulation).
fn golden() -> Snapshot {
    Snapshot {
        minkunet: [
            [
                0x404a8f9b2484aaf8,
                0x406f19e9503b06ca,
                0x40984d2d0b1d2606,
                0x406f06dc821b4af4,
                0x40ba17d166beea88,
            ],
            [
                0x404a8f9b2484aaf8,
                0x406ef56fda1801b3,
                0x408fb72a055ccd59,
                0x406ef466fb30164e,
                0x40ba15e669cdf19b,
            ],
            [
                0x404a8f9b2484aaf8,
                0x406ef38a523ebd86,
                0x408fb72a055ccd59,
                0x406ef466fb30164e,
                0x40ba14f1def1400d,
            ],
        ],
        centerpoint: [
            [
                0x40430f606a63bd82,
                0x405a8c851df6a4c6,
                0x40915a08f4dfb8b2,
                0x405ab259e1a94654,
                0x40abcd15132f9a5a,
            ],
            [
                0x40430f606a63bd82,
                0x405875c07abffdeb,
                0x4083d3ee46c256f1,
                0x405874585ccb9e30,
                0x40ab581e361fe040,
            ],
            [
                0x40430f606a63bd82,
                0x405818df2c836221,
                0x4083d3ee46c256f1,
                0x405874585ccb9e30,
                0x40ab54210efd216c,
            ],
        ],
        dynamic_profiles: [
            (0x83, 0xc241a3a73e7940e6),
            (0x83, 0x8250415a0369712b),
            (0x83, 0x1483f81fe2ba4fd),
        ],
        spvcnn: [
            [
                0x4049cc27aeee5dad,
                0x406a0b0dd86dd159,
                0x409175d094e11c9f,
                0x406a076b365018fd,
                0x40bb126094c19e08,
            ],
            [
                0x4049cc27aeee5dad,
                0x406a057515b04eed,
                0x4087f13f87d7b117,
                0x406a055c7722fc47,
                0x40bb11d2f9fc6c98,
            ],
        ],
        hit_profiles: [(0x83, 0xa952aaed3508117e), (0x83, 0xd7bddec731a6c6af)],
        hit: [
            [0x0, 0x40455ec268458c1a, 0x405f387b766b430e, 0x40455ec268458c1a, 0x4087bbd0e49e9462],
            [0x0, 0x40455ec268458c1a, 0x4059b7055a6503ec, 0x40455ec268458c1a, 0x4087ba5ea83e4c0a],
        ],
        delta_patch: [
            [
                0x402a06febffae4af,
                0x40491a67c2698857,
                0x406193c51af7f045,
                0x40491a67c2698857,
                0x4087bbd0e49e9462,
            ],
            [
                0x402a06febffae4af,
                0x40491a67c2698857,
                0x405d8e7655df399c,
                0x40491a67c2698857,
                0x4087ba5ea83e4c0a,
            ],
        ],
        fallback: [
            [
                0x403a03e3ce87617b,
                0x4046d7a09a9e9bf3,
                0x406019a95a9ce9c1,
                0x4046d7a09a9e9bf3,
                0x4087bbe715cb0a27,
            ],
            [
                0x403a03e3ce87617b,
                0x4046d7a09a9e9bf3,
                0x405af4b056782a8b,
                0x4046d7a09a9e9bf3,
                0x4087ba6b7cac001f,
            ],
        ],
        full_replan: [
            [
                0x4039eaf4c5448274,
                0x40491a67c2698857,
                0x406193c51af7f045,
                0x40491a67c2698857,
                0x4087bbd0e49e9462,
            ],
            [
                0x4039eaf4c5448274,
                0x40491a67c2698857,
                0x405d8e7655df399c,
                0x40491a67c2698857,
                0x4087ba5ea83e4c0a,
            ],
        ],
        overflow_rerun: [
            0x0,
            0x40468be17b60a1de,
            0x405afccab7184049,
            0x40468be17b60a1de,
            0x4087ba5ea83e4c0a,
        ],
    }
}

#[test]
fn lazily_resolved_timelines_repeat_the_parent_commit_bit_for_bit() {
    assert_eq!(snapshot(), golden());
}
