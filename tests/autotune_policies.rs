//! The compile-time autotuner must be invisible in the outputs: every
//! grouping it may select is bitwise-neutral, and it picks those groupings
//! from the simulated prior alone, so repeated compiles report the same
//! choices and time nothing.

use torchsparse::coords::Coord;
use torchsparse::core::{Engine, EnginePreset, GroupingStrategy, SparseConv3d, SparseTensor};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::MinkUNet;
use torchsparse::tensor::Matrix;
use torchsparse_core::Sequential;

/// A fully dense 12x12x12 block: the first stride-1 3^3 convolution's
/// kernel map carries ~39k entries.
fn dense_scene(channels: usize) -> SparseTensor {
    let mut coords = Vec::new();
    for x in 0..12 {
        for y in 0..12 {
            for z in 0..12 {
                coords.push(Coord::new(0, x, y, z));
            }
        }
    }
    let n = coords.len();
    SparseTensor::new(
        coords,
        Matrix::from_fn(n, channels, |r, c| ((r * 31 + c * 7) % 11) as f32 * 0.2 - 1.0),
    )
    .expect("valid scene")
}

/// A small irregular scene for the grouping-neutrality sweep.
fn small_scene(channels: usize) -> SparseTensor {
    let coords: Vec<Coord> = (0..120)
        .map(|i| Coord::new(0, (i * 7) % 13, (i * 3) % 11, (i * 5) % 9))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let n = coords.len();
    SparseTensor::new(coords, Matrix::from_fn(n, channels, |r, c| ((r + 2 * c) % 7) as f32 - 3.0))
        .expect("valid scene")
}

fn two_conv_model() -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("c1", 4, 8, 3, 1, 11))
        .push(SparseConv3d::with_random_weights("c2", 8, 4, 3, 1, 13))
}

fn bits(t: &SparseTensor) -> Vec<u32> {
    t.feats().as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn repeated_compiles_report_the_same_groupings_and_measure_nothing() {
    let m = two_conv_model();
    let x = dense_scene(4);
    let compile = |autotune: bool| {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.autotune_policies = autotune;
        Engine::with_config(cfg, DeviceProfile::rtx_2080ti()).compile(&m, &x).expect("compile")
    };

    let mut first = compile(true);
    let report = first.tuning_report().expect("autotune ran").clone();
    assert_eq!(report.candidates_measured, 0, "{report:?}");
    assert!(!report.degraded, "{report:?}");
    assert!(report.policies.contains_key("c1") && report.policies.contains_key("c2"));
    let tuned_bits = bits(&first.execute(&x).expect("first execute"));

    let mut second = compile(true);
    assert_eq!(second.tuning_report(), Some(&report), "the prior must repeat exactly");
    assert_eq!(bits(&second.execute(&x).expect("second execute")), tuned_bits);

    // Autotune off: same bits again, and no report at all.
    let mut off = compile(false);
    assert!(off.tuning_report().is_none());
    assert_eq!(bits(&off.execute(&x).expect("off execute")), tuned_bits);

    // And dynamic execution agrees with all three.
    let mut dynamic = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    assert_eq!(bits(&dynamic.run(&m, &x).expect("dynamic run")), tuned_bits);
}

#[test]
fn every_selectable_policy_is_bitwise_neutral() {
    // Every grouping the tuner may install must not change a single output
    // bit: pad rows are never computed on the host, so only the simulated
    // timeline sees the grouping.
    let m = two_conv_model();
    let x = small_scene(4);
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.autotune_policies = false;
    let device = DeviceProfile::rtx_2080ti;

    let mut baseline_engine = Engine::with_config(cfg.clone(), device());
    let expected = bits(&baseline_engine.run(&m, &x).expect("baseline dynamic run"));

    let groupings = [
        GroupingStrategy::Separate,
        GroupingStrategy::Symmetric,
        GroupingStrategy::Fixed,
        GroupingStrategy::Adaptive { epsilon: 0.0, s_threshold: usize::MAX },
        GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: 0 },
        GroupingStrategy::Adaptive { epsilon: 0.3, s_threshold: 150_000 },
    ];
    for grouping in groupings {
        let mut pinned = cfg.clone();
        pinned.grouping = grouping;
        let engine = Engine::with_config(pinned, device());
        let mut session = engine.compile(&m, &x).expect("compile with pinned grouping");
        let got = bits(&session.execute(&x).expect("execute"));
        assert_eq!(got, expected, "grouping {grouping:?} must be bitwise-neutral");
    }
}

#[test]
fn autotuned_minkunet_matches_untuned_bitwise() {
    // End-to-end on a real network: tuned and untuned compiles agree
    // bit-for-bit, through pooling, residuals, and transposed convs.
    let net = MinkUNet::with_width(0.25, 4, 3, 17);
    let x = dense_scene(4);
    let compile = |autotune: bool| {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.autotune_policies = autotune;
        Engine::with_config(cfg, DeviceProfile::rtx_2080ti()).compile(&net, &x)
    };

    let mut tuned = compile(true).expect("tuned compile");
    let tuned_bits = bits(&tuned.execute(&x).expect("tuned execute"));
    assert!(tuned.tuning_report().is_some());

    let mut plain = compile(false).expect("untuned compile");
    assert_eq!(bits(&plain.execute(&x).expect("untuned execute")), tuned_bits);
}
