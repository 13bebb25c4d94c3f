//! Incremental delta re-planning must be invisible: a compiled session fed a
//! temporally churning stream patches its frozen plan in place, and every
//! patched frame must be bitwise identical to compiling the model from
//! scratch on that frame — across dataflow presets and thread counts. Above
//! the churn threshold the session falls back to a
//! full re-plan, still bitwise identical. And patching must pay: at 5%
//! churn a patched re-plan's simulated map work is under a third of a full
//! one's.

use std::sync::Arc;

use proptest::prelude::*;
use torchsparse::coords::{
    diff_coords, Coord, CoordHashMap, CoordIndex, DeltaIndex, MphfIndex, REMOVED_ROW,
};
use torchsparse::core::{
    BatchNorm, Context, CoreError, Engine, EnginePreset, FaultSite, GlobalPool, Module,
    OptimizationConfig, PlanCacheStats, Precision, ReLU, Sequential, SparseConv3d, SparseMaxPool3d,
    SparseTensor, DELTA_REPLAN_MAX_CHURN,
};
use torchsparse::data::{
    dynamic_actors_stream, ego_drift_stream, multi_sweep_stream, temporal_churn_stream,
    SyntheticDataset,
};
use torchsparse::gpusim::{DeviceProfile, Stage};
use torchsparse::models::{MinkUNet, ResidualBlock};
use torchsparse::tensor::Matrix;

/// A dense-ish blob that survives two stride-2 downsamples.
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

fn bits(t: &SparseTensor) -> Vec<u32> {
    t.feats().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A model exercising every structure the delta walk patches: submanifold
/// and dilated convs, a residual block with a projection branch, max
/// pooling, a strided downsample, and a transposed conv that re-enters the
/// downsample's shared kernel map.
fn temporal_model(seed: u64) -> Sequential {
    Sequential::new("temporal")
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

/// Runs `frames` through one long-lived session and, per frame, through a
/// freshly compiled engine; asserts bitwise identity and returns the
/// session's plan-cache stats.
fn assert_stream_matches_cold(
    model: &impl Module,
    frames: &[SparseTensor],
    cfg: &OptimizationConfig,
    label: &str,
) -> PlanCacheStats {
    let mut session = Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti())
        .compile(model, &frames[0])
        .expect("session compile");
    for (f, frame) in frames.iter().enumerate() {
        let got = session.execute(frame).expect("session execute");
        let mut cold = Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti())
            .compile(model, frame)
            .expect("cold compile");
        let want = cold.execute(frame).expect("cold execute");
        assert_eq!(want.coords(), got.coords(), "{label} frame {f}: output coords diverged");
        assert_eq!(
            bits(&want),
            bits(&got),
            "{label} frame {f}: patched plan must be bitwise identical to a cold re-plan"
        );
    }
    session.stats()
}

fn fp32_config(preset: torchsparse::core::EnginePreset) -> OptimizationConfig {
    let mut cfg = preset.config();
    cfg.precision = Precision::Fp32;
    cfg
}

/// `misses` must partition exactly into the three re-plan outcomes.
fn assert_partition(stats: &PlanCacheStats, label: &str) {
    assert_eq!(
        stats.misses,
        stats.full_replans + stats.delta_patches + stats.delta_fallbacks,
        "{label}: misses must partition into full/patched/fallback ({stats:?})"
    );
}

#[test]
fn mixed_churn_matches_cold_replan_across_presets_threads_fusion() {
    use torchsparse::core::EnginePreset;
    let base = scene(4);
    let frames = temporal_churn_stream(&base, 4, 0.08, 11).expect("stream");
    let model = temporal_model(21);
    for preset in
        [EnginePreset::BaselineFp32, EnginePreset::TorchSparse, EnginePreset::MinkowskiEngine]
    {
        for threads in [1usize, 8] {
            let mut cfg = fp32_config(preset);
            cfg.threads = Some(threads);
            let label = format!("{preset:?}/threads={threads}");
            let stats = assert_stream_matches_cold(&model, &frames, &cfg, &label);
            assert_partition(&stats, &label);
            // 1 miss for the initial compile + 3 geometry changes.
            assert_eq!(stats.misses, 4, "{label}: compile plus 3 geometry changes");
            assert_eq!(
                stats.delta_patches, 3,
                "{label}: every low-churn frame should take the delta patch path ({stats:?})"
            );
            assert_eq!(stats.delta_fallbacks, 0, "{label}: churn 8% is under the 15% threshold");
        }
    }
}

#[test]
fn insert_only_stream_is_patched_bitwise() {
    let base = scene(4);
    // Window covers the whole stream: sweeps only accumulate, never expire.
    let frames = multi_sweep_stream(&base, 4, 8, 30, 5).expect("stream");
    for f in 1..frames.len() {
        assert!(frames[f].len() > frames[f - 1].len(), "sweeps must only insert");
    }
    let cfg = fp32_config(torchsparse::core::EnginePreset::TorchSparse);
    let stats = assert_stream_matches_cold(&temporal_model(7), &frames, &cfg, "insert-only");
    assert_partition(&stats, "insert-only");
    assert_eq!(stats.delta_patches, 3, "insert-only churn stays under threshold");
}

#[test]
fn remove_only_stream_is_patched_bitwise() {
    let base = scene(4);
    let channels = base.channels();
    let mut frames = vec![base.clone()];
    for f in 1..4usize {
        // Drop a trailing slice of the sorted coords, carrying features.
        let keep = base.len() - f * 12;
        let coords: Vec<Coord> = base.coords()[..keep].to_vec();
        let feats =
            Matrix::from_fn(keep, channels, |r, c| base.feats().as_slice()[r * channels + c]);
        frames.push(SparseTensor::new(coords, feats).expect("shrunk frame"));
    }
    let cfg = fp32_config(torchsparse::core::EnginePreset::TorchSparse);
    let stats = assert_stream_matches_cold(&temporal_model(9), &frames, &cfg, "remove-only");
    assert_partition(&stats, "remove-only");
    assert_eq!(stats.delta_patches, 3, "remove-only churn stays under threshold");
}

#[test]
fn above_threshold_churn_falls_back_to_full_replan() {
    let base = scene(4);
    let frames = temporal_churn_stream(&base, 3, 0.5, 13).expect("stream");
    let cfg = fp32_config(torchsparse::core::EnginePreset::TorchSparse);
    const { assert!(DELTA_REPLAN_MAX_CHURN < 0.4, "churn 50% must exceed the threshold") };
    let stats = assert_stream_matches_cold(&temporal_model(3), &frames, &cfg, "high-churn");
    assert_partition(&stats, "high-churn");
    assert!(
        stats.delta_fallbacks >= 1,
        "churn 50% must trip the DELTA_REPLAN_MAX_CHURN fallback ({stats:?})"
    );
    assert_eq!(stats.delta_patches, 0, "no frame under 50% churn should be patched");
}

#[test]
fn delta_disabled_by_config_takes_full_replans_only() {
    let base = scene(4);
    let frames = temporal_churn_stream(&base, 3, 0.08, 17).expect("stream");
    let mut cfg = fp32_config(torchsparse::core::EnginePreset::TorchSparse);
    cfg.delta_replan = false;
    let stats = assert_stream_matches_cold(&temporal_model(5), &frames, &cfg, "delta-off");
    assert_partition(&stats, "delta-off");
    assert_eq!(stats.delta_patches, 0);
    assert_eq!(stats.delta_fallbacks, 0);
    assert_eq!(stats.full_replans, stats.misses);
}

#[test]
fn unet_with_skips_and_transposed_convs_is_patched_bitwise() {
    let base = scene(4);
    let frames = ego_drift_stream(&base, 3, 0.04, 19).expect("stream");
    let model = MinkUNet::with_width(0.25, 4, 3, 31);
    for threads in [1usize, 8] {
        let mut cfg = fp32_config(torchsparse::core::EnginePreset::TorchSparse);
        cfg.threads = Some(threads);
        let label = format!("unet/threads={threads}");
        let stats = assert_stream_matches_cold(&model, &frames, &cfg, &label);
        assert_partition(&stats, &label);
        assert!(stats.delta_patches >= 1, "{label}: ego drift should be patchable ({stats:?})");
    }
}

#[test]
fn dynamic_actors_stream_matches_cold() {
    let base = scene(4);
    let frames = dynamic_actors_stream(&base, 3, 2, 1, 23).expect("stream");
    let mut cfg = fp32_config(torchsparse::core::EnginePreset::TorchSparse);
    cfg.threads = Some(8);
    let stats = assert_stream_matches_cold(&temporal_model(13), &frames, &cfg, "actors");
    assert_partition(&stats, "actors");
}

/// At 5% churn on a nuScenes-like scene, patching the previous plan costs
/// at least 3x less simulated `Mapping` per re-plan than re-planning from
/// scratch. Simulated, so exact on any host; the network's width does not
/// enter map work, so a quarter-width MinkUNet keeps the frames cheap.
#[test]
fn patched_replans_cost_a_third_of_full_replans_at_five_percent_churn() {
    let base = SyntheticDataset::nuscenes(SCALE, 4, 1).scene(42).expect("scene");
    let frames = temporal_churn_stream(&base, 4, 0.05, 42).expect("stream");
    let model = MinkUNet::with_width(0.25, 4, 16, 42);
    let mapping_us = |delta: bool| {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.autotune_policies = false;
        cfg.delta_replan = delta;
        let mut session = Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
            .compile(&model, &frames[0])
            .expect("compile");
        let mut total = 0.0;
        for frame in &frames[1..] {
            session.execute(frame).expect("re-plan");
            total += session.planning_timeline().stage(Stage::Mapping).as_f64();
        }
        (total, session.stats())
    };
    let (full, full_stats) = mapping_us(false);
    let (patched, stats) = mapping_us(true);
    assert_eq!(full_stats.full_replans, frames.len() as u64, "{full_stats:?}");
    assert_eq!(stats.delta_patches, frames.len() as u64 - 1, "{stats:?}");
    assert!(full >= 3.0 * patched, "full {full:.1} us vs patched {patched:.1} us: under 3x");
}

/// Scene scale of the churn-cost floor above (2,176 voxels, a 3.01x
/// ratio). Below it the fixed per-kernel launch cost that both arms pay
/// compresses the ratio: 2.39x at half this scale.
const SCALE: f64 = 0.1;

/// Row order is the caller's business: MinkUNet 0.5x at FP16, fed a
/// row-permuted copy of each frame of a small SemanticKITTI stream —
/// reversed, and a seeded shuffle — returns in output row `i` the
/// unpermuted run's row for the same coordinate, bit for bit, through a
/// dynamic run, a compiled hit, full re-plans and delta patches over three
/// churned frames, at 1 and 3 threads.
#[test]
fn permuted_frames_return_the_unpermuted_rows_on_every_route() {
    let base = SyntheticDataset::semantic_kitti(0.002, 4).scene(3).expect("scan");
    let frames = temporal_churn_stream(&base, 4, 0.05, 5).expect("stream");
    let model = MinkUNet::with_width(0.5, 4, 19, 7);
    let reversed = |n: usize| (0..n).rev().collect::<Vec<usize>>();
    let shuffled = |n: usize| {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order
    };
    let config = |threads: usize, delta_replan: bool| {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.precision = Precision::Fp16;
        (cfg.threads, cfg.delta_replan) = (Some(threads), delta_replan);
        Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
    };
    // Bits do not depend on the thread count, so one serial run per frame
    // is every route's reference.
    let want: Vec<SparseTensor> =
        frames.iter().map(|f| config(1, false).run(&model, f).expect("run")).collect();
    for threads in [1, 3] {
        let engine = |delta_replan: bool| config(threads, delta_replan);
        for (kind, order_of) in
            [("reversed", &reversed as &dyn Fn(usize) -> Vec<usize>), ("shuffled", &shuffled)]
        {
            let orders: Vec<Vec<usize>> = frames.iter().map(|f| order_of(f.len())).collect();
            let permuted: Vec<SparseTensor> = frames
                .iter()
                .zip(&orders)
                .map(|(f, order)| {
                    let coords = order.iter().map(|&r| f.coords()[r]).collect();
                    let feats =
                        Matrix::from_fn(order.len(), f.channels(), |i, c| f.feats()[(order[i], c)]);
                    SparseTensor::with_stride(coords, feats, f.stride()).expect("permuted frame")
                })
                .collect();
            let check = |route: &str, f: usize, got: &SparseTensor| {
                let label = format!("{kind} {route} frame {f} threads={threads}");
                let want = &want[f];
                assert_eq!(got.len(), want.len(), "{label}");
                for (i, &r) in orders[f].iter().enumerate() {
                    assert_eq!(got.coords()[i], want.coords()[r], "{label}: row {i}");
                    let bits = |t: &SparseTensor, row: usize| -> Vec<u32> {
                        t.feats().row(row).iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(got, i), bits(want, r), "{label}: row {i}");
                }
            };
            check("run", 0, &engine(true).run(&model, &permuted[0]).expect("run"));
            let mut hit = engine(true).compile(&model, &permuted[0]).expect("compile");
            check("hit", 0, &hit.execute(&permuted[0]).expect("hit"));
            assert_eq!(hit.stats().hits, 1, "{kind} threads={threads}");
            for delta_replan in [false, true] {
                let mut session =
                    engine(delta_replan).compile(&model, &permuted[0]).expect("compile");
                let route = if delta_replan { "patch" } else { "full re-plan" };
                for (f, frame) in permuted.iter().enumerate().skip(1) {
                    check(route, f, &session.execute(frame).expect("re-plan"));
                }
                let s = session.stats();
                let (replans, patches) = if delta_replan { (1, 3) } else { (4, 0) };
                assert_eq!((s.full_replans, s.delta_patches), (replans, patches), "{kind} {route}");
            }
        }
    }
}

/// Global pooling collapses every batch to one point, so a map op after it
/// searches geometry the old plan's rows do not describe: each re-plan of
/// such a model falls back, and still equals a cold compile. The same
/// network without the map op after the pool patches every miss.
#[test]
fn map_op_after_global_pool_falls_back_on_every_miss() {
    let frames = temporal_churn_stream(&scene(4), 4, 0.08, 29).expect("stream");
    let cfg = fp32_config(EnginePreset::TorchSparse);
    let trunk = || {
        Sequential::new("pooled")
            .push(SparseConv3d::with_random_weights("stem", 4, 8, 3, 1, 3))
            .push(ReLU::new("act"))
            .push(GlobalPool::new("gp"))
    };
    let head = trunk().push(SparseConv3d::with_random_weights("head", 8, 4, 1, 1, 4));
    let stats = assert_stream_matches_cold(&head, &frames, &cfg, "map op after pool");
    assert_partition(&stats, "map op after pool");
    let paths = (stats.full_replans, stats.delta_patches, stats.delta_fallbacks);
    assert_eq!(paths, (1, 0, 3), "every miss falls back ({stats:?})");

    let stats = assert_stream_matches_cold(&trunk(), &frames, &cfg, "pool last");
    assert_partition(&stats, "pool last");
    let paths = (stats.full_replans, stats.delta_patches, stats.delta_fallbacks);
    assert_eq!(paths, (1, 3, 0), "every miss patches ({stats:?})");
}

/// FNV-1a over a stream's observable outcome.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &Result<SparseTensor, CoreError>, ctx: &Context) {
        match out {
            Ok(t) => bits(t).iter().for_each(|b| self.bytes(&b.to_le_bytes())),
            Err(e) => self.bytes(format!("{e:?}").as_bytes()),
        }
        self.bytes(format!("{:?}", ctx.runtime.faults.injected()).as_bytes());
        self.bytes(ctx.runtime.degradation.to_string().as_bytes());
    }
}

/// A seeded schedule drawing `DeadlineOverrun`, `KernelMapCache` and
/// `GridTableBuild` from one stream, over a churning stream whose misses
/// patch, fall back and re-plan in full, with a dynamic run of every frame
/// beside it: each frame's plan path, failure, injection log, degradation
/// report and output bits repeat those of the engine whose delta re-plan
/// ran a second, lockstep walk before the plan build. A re-plan probes the
/// deadline once before it starts and then exactly where a cold build does.
#[test]
fn seeded_fault_schedule_over_replans_repeats_its_digest() {
    let low = temporal_churn_stream(&scene(4), 5, 0.06, 31).expect("low churn");
    let high = temporal_churn_stream(&low[4], 4, 0.5, 37).expect("high churn");
    let frames: Vec<SparseTensor> = low.into_iter().chain(high.into_iter().skip(1)).collect();
    let model = MinkUNet::with_width(0.25, 4, 3, 41);
    for threads in [1, 2] {
        let mut cfg = fp32_config(EnginePreset::TorchSparse);
        cfg.threads = Some(threads);
        let engine = || Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti());
        let mut session = engine().compile(&model, &frames[0]).expect("compile");
        let mut dynamic = engine();
        for ctx in [session.context_mut(), dynamic.context_mut()] {
            let faults = &mut ctx.runtime.faults;
            faults.seed(3);
            faults.with_probability(FaultSite::DeadlineOverrun, 0.002);
            faults.with_probability(FaultSite::KernelMapCache, 0.1);
            faults.with_probability(FaultSite::GridTableBuild, 0.1);
        }
        let mut digest = Digest(0xcbf2_9ce4_8422_2325);
        let (mut failed, mut paths) = (0, [0u64; 3]);
        for (f, frame) in frames.iter().enumerate() {
            // Every third frame re-plans from scratch.
            session.context_mut().config.delta_replan = f % 3 != 2;
            let before = session.stats();
            let out = session.execute(frame);
            let s = session.stats();
            let moved = [
                s.delta_patches - before.delta_patches,
                s.delta_fallbacks - before.delta_fallbacks,
                s.full_replans - before.full_replans,
            ];
            paths.iter_mut().zip(moved).for_each(|(p, m)| *p += m);
            failed += usize::from(out.is_err());
            digest.bytes(format!("{:?}", (s.hits, s.misses, moved)).as_bytes());
            digest.outcome(&out, session.context());
            digest.outcome(&dynamic.run(&model, frame), dynamic.context());
        }
        assert!(paths.iter().all(|&n| n > 0), "patch, fallback and full paths: {paths:?}");
        assert!((1..frames.len()).contains(&failed), "{failed} frames failed");
        assert_eq!(digest.0, REPLAN_FAULT_DIGEST, "{threads} threads");
    }
}

/// [`seeded_fault_schedule_over_replans_repeats_its_digest`]'s digest,
/// captured on the engine that seeded patched maps into the map cache from
/// a separate walk before the plan build.
const REPLAN_FAULT_DIGEST: u64 = 6_477_002_147_839_631_770;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random coordinate diff must round-trip: the layered
    /// [`DeltaIndex`] built from `diff_coords` answers every query exactly
    /// like a compacted from-scratch index over the new coordinates.
    #[test]
    fn prop_diff_patch_compact_roundtrip(
        old_sites in proptest::collection::vec((0i32..7, 0i32..7, 0i32..7), 4..40),
        new_sites in proptest::collection::vec((0i32..7, 0i32..7, 0i32..7), 4..40),
    ) {
        let dedup = |sites: &[(i32, i32, i32)]| {
            let mut v: Vec<(i32, i32, i32)> = sites.to_vec();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(|(x, y, z)| Coord::new(0, x, y, z)).collect::<Vec<Coord>>()
        };
        let old = dedup(&old_sites);
        let new = dedup(&new_sites);
        let (old_idx, _) = CoordHashMap::build(&old);
        let delta = diff_coords(&old_idx, old.len(), &new).expect("diff");
        // The remap classifies every old row as kept (with its new row) or
        // removed.
        for (i, c) in old.iter().enumerate() {
            match new.iter().position(|n| n == c) {
                Some(p) => prop_assert_eq!(delta.remap[i], p as u32),
                None => prop_assert_eq!(delta.remap[i], REMOVED_ROW),
            }
        }
        let (layered, _) =
            DeltaIndex::build(Arc::new(old_idx), &delta, &new).expect("layered index");
        let (compacted, _) = MphfIndex::build(&new).expect("compacted index");
        for (r, c) in new.iter().enumerate() {
            prop_assert_eq!(layered.query(*c).0, Some(r as u32));
            prop_assert_eq!(compacted.query(*c).0, Some(r as u32));
        }
        for c in &old {
            if !new.contains(c) {
                prop_assert_eq!(layered.query(*c).0, None);
                prop_assert_eq!(compacted.query(*c).0, None);
            }
        }
    }
}
