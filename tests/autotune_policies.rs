//! The compile-time policy autotuner must be invisible in the outputs:
//! every selectable execution policy is bitwise-neutral, a warm-started
//! session reproduces a cold search (and an autotune-off run) exactly with
//! zero candidate measurements, and a corrupt or stale tuning database
//! degrades to a fresh search instead of failing the compile.

use torchsparse::coords::Coord;
use torchsparse::core::{
    Engine, EnginePreset, ExecPolicy, GroupingStrategy, OptimizationConfig, SparseConv3d,
    SparseTensor,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::MinkUNet;
use torchsparse::tensor::Matrix;
use torchsparse_core::Sequential;

/// `TORCHSPARSE_TUNE_DB` names one database for the whole process and beats
/// every per-test `tune_db` path, so tests that assert on their own
/// database file skip themselves under it.
fn env_pins_tune_db() -> bool {
    std::env::var_os("TORCHSPARSE_TUNE_DB").is_some()
}

fn temp_db(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ts-autotune-it-{}-{name}.json", std::process::id()))
}

/// A fully dense 12x12x12 block: the first stride-1 3^3 convolution's
/// kernel map carries ~39k entries, comfortably above the autotuner's
/// measurement floor, so compiles against it really search.
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

/// A small irregular scene for the policy-neutrality sweep (compiles are
/// cheap enough to run the whole product space).
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

fn config_with_db(path: &std::path::Path, autotune: bool) -> OptimizationConfig {
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.tune_db = Some(path.to_path_buf());
    cfg.autotune_policies = autotune;
    cfg
}

#[test]
fn warm_start_transfers_within_a_device_family_but_not_across() {
    if env_pins_tune_db() {
        return;
    }
    let db = temp_db("family-transfer");
    let _ = std::fs::remove_file(&db);
    let model = two_conv_model();
    let x = dense_scene(4);

    // Tune on an RTX 2080 Ti and persist the database.
    let cold = Engine::with_config(config_with_db(&db, true), DeviceProfile::rtx_2080ti())
        .compile(&model, &x)
        .expect("cold compile");
    assert!(cold.tuning_report().expect("autotune ran").candidates_measured > 0);

    // Another Turing board warm-starts from the same entries: policies are
    // keyed by architecture family, not by board name.
    let sibling =
        DeviceProfile { name: "RTX 2070 Super".to_owned(), ..DeviceProfile::rtx_2080ti() };
    let warm = Engine::with_config(config_with_db(&db, true), sibling)
        .compile(&model, &x)
        .expect("sibling compile");
    let report = warm.tuning_report().expect("autotune ran");
    assert_eq!(report.candidates_measured, 0, "Turing sibling must warm-start: {report:?}");
    assert!(report.warm_started > 0, "{report:?}");

    // An Ampere board shares nothing with the Turing entries.
    let cross = Engine::with_config(config_with_db(&db, true), DeviceProfile::rtx_3090())
        .compile(&model, &x)
        .expect("cross-family compile");
    let cross_report = cross.tuning_report().expect("autotune ran");
    assert_eq!(cross_report.warm_started, 0, "families must not share entries: {cross_report:?}");
    let _ = std::fs::remove_file(&db);
}

#[test]
fn warm_start_measures_nothing_and_matches_cold_and_off_bitwise() {
    if env_pins_tune_db() {
        return;
    }
    let db = temp_db("warm-start");
    let _ = std::fs::remove_file(&db);
    let m = two_conv_model();
    let x = dense_scene(4);

    // Cold compile: no database yet, so measurable layers really search.
    let mut cold = Engine::with_config(config_with_db(&db, true), DeviceProfile::rtx_2080ti())
        .compile(&m, &x)
        .expect("cold compile");
    let report = cold.tuning_report().expect("autotune ran").clone();
    assert!(!report.degraded, "a missing database is an empty one, not a corrupt one");
    assert_eq!(report.warm_started, 0, "nothing to warm-start from");
    assert!(
        report.candidates_measured > 0,
        "a dense scene is above the measurement floor: {report:?}"
    );
    assert!(report.policies.contains_key("c1") && report.policies.contains_key("c2"));
    assert!(db.exists(), "measured winners must persist");
    let cold_bits = bits(&cold.execute(&x).expect("cold execute"));

    // Warm compile: every layer's geometry class is in the database now —
    // zero candidate measurements, bitwise-identical outputs.
    let mut warm = Engine::with_config(config_with_db(&db, true), DeviceProfile::rtx_2080ti())
        .compile(&m, &x)
        .expect("warm compile");
    let warm_report = warm.tuning_report().expect("autotune ran").clone();
    assert_eq!(
        warm_report.candidates_measured, 0,
        "a warm-started session must perform zero measurements: {warm_report:?}"
    );
    assert!(warm_report.warm_started > 0, "{warm_report:?}");
    assert!(!warm_report.degraded);
    assert_eq!(
        warm_report.policies, report.policies,
        "warm start must reproduce the cold search's selections"
    );
    assert_eq!(bits(&warm.execute(&x).expect("warm execute")), cold_bits);

    // Autotune off: same bits again, and no report at all.
    let mut off = Engine::with_config(config_with_db(&db, false), DeviceProfile::rtx_2080ti())
        .compile(&m, &x)
        .expect("autotune-off compile");
    assert!(off.tuning_report().is_none());
    assert_eq!(bits(&off.execute(&x).expect("off execute")), cold_bits);

    // And dynamic execution agrees with all three.
    let mut dynamic = Engine::with_config(config_with_db(&db, false), DeviceProfile::rtx_2080ti());
    assert_eq!(bits(&dynamic.run(&m, &x).expect("dynamic run")), cold_bits);

    std::fs::remove_file(&db).expect("cleanup");
}

#[test]
fn corrupt_or_stale_db_degrades_gracefully_and_heals() {
    if env_pins_tune_db() {
        return;
    }
    let m = two_conv_model();
    let x = dense_scene(4);

    // Populated version-3 to version-5 files: exactly the entries a search
    // on this model and scene persists (so every key would hit if the file
    // were accepted), relabelled with the previous schema versions — whose
    // winners were timed with the in-line cost model inside the executor
    // (3), through the branch-per-scalar AVX2 tile (4), and, in the schema
    // that still carried the `fe` key component and the `fused` field,
    // possibly on the deleted buffered executor (5).
    let seed_db = temp_db("stale-seed");
    let _ = std::fs::remove_file(&seed_db);
    Engine::with_config(config_with_db(&seed_db, true), DeviceProfile::rtx_2080ti())
        .compile(&m, &x)
        .expect("seed compile");
    let current = std::fs::read_to_string(&seed_db).expect("the search persisted its winners");
    std::fs::remove_file(&seed_db).expect("cleanup");
    assert!(current.contains("\"version\":6,") && current.contains("\"key\":"), "{current}");
    assert!(!current.contains("fused") && !current.contains(":fe"), "{current}");
    let populated_v3 = current.replace("\"version\":6,", "\"version\":3,");
    let populated_v4 = current.replace("\"version\":6,", "\"version\":4,");
    let populated_v5 = current
        .replace("\"version\":6,", "\"version\":5,")
        .replace(":fp16:", ":fp16:fe1:")
        .replace("\"simd\":", "\"fused\":false,\"simd\":");
    assert!(populated_v5.contains(":fe1:") && populated_v5.contains("\"fused\":false"));

    // Version 2 was the schema before the superaccumulator left the
    // scatter; its persisted winners were timed through it.
    for (name, text) in [
        ("corrupt", "{this is not json"),
        ("stale", "{\"version\":99,\"entries\":[]}"),
        ("stale-v2", "{\"version\":2,\"entries\":[]}"),
        ("stale-v3", populated_v3.as_str()),
        ("stale-v4", populated_v4.as_str()),
        ("stale-v5", populated_v5.as_str()),
    ] {
        let db = temp_db(name);
        std::fs::write(&db, text).expect("seed bad db");

        let mut session =
            Engine::with_config(config_with_db(&db, true), DeviceProfile::rtx_2080ti())
                .compile(&m, &x)
                .expect("compile must survive a bad database");
        let report = session.tuning_report().expect("autotune ran").clone();
        assert!(report.degraded, "{name}: a bad database must be reported");
        assert_eq!(report.warm_started, 0, "{name}: nothing usable to warm-start from");
        assert!(report.candidates_measured > 0, "{name}: a fresh search must run");
        let degraded_bits = bits(&session.execute(&x).expect("execute"));

        // The fresh search overwrote the bad file: the next compile
        // warm-starts cleanly.
        let mut healed =
            Engine::with_config(config_with_db(&db, true), DeviceProfile::rtx_2080ti())
                .compile(&m, &x)
                .expect("healed compile");
        let healed_report = healed.tuning_report().expect("autotune ran").clone();
        assert!(!healed_report.degraded, "{name}: the rewritten database must load");
        assert_eq!(healed_report.candidates_measured, 0, "{name}");
        assert!(healed_report.warm_started > 0, "{name}: {healed_report:?}");
        assert_eq!(bits(&healed.execute(&x).expect("execute")), degraded_bits, "{name}");
        let rewritten = std::fs::read_to_string(&db).expect("rewritten database");
        assert!(
            rewritten.contains("\"version\":6,") && !rewritten.contains("fused"),
            "{name}: the fresh search must overwrite the bad file in the current schema: \
             {rewritten}"
        );

        std::fs::remove_file(&db).expect("cleanup");
    }
}

#[test]
fn every_selectable_policy_is_bitwise_neutral() {
    // The autotuner's entire product space — grouping, chunk and panel
    // widths — must not change a single output bit; the search is free to
    // pick anything. SIMD stays pinned to the config
    // (the kernels are bit-exact among themselves, which
    // `dataflow::tests` covers at the unit level).
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
    let widths = [32usize, 64, 128, 256];
    let mut swept = 0;
    for grouping in groupings {
        for &chunk_rows in &widths {
            for &panel_rows in &widths {
                let policy = ExecPolicy { grouping, simd: cfg.simd, chunk_rows, panel_rows };
                let mut engine = Engine::with_config(cfg.clone(), device());
                let ctx = engine.context_mut();
                ctx.tuned_policies.insert("c1".to_owned(), policy);
                ctx.tuned_policies.insert("c2".to_owned(), policy);
                let mut session = engine.compile(&m, &x).expect("compile with pinned policy");
                let got = bits(&session.execute(&x).expect("execute"));
                assert_eq!(got, expected, "policy {policy:?} must be bitwise-neutral");
                swept += 1;
            }
        }
    }
    assert_eq!(swept, groupings.len() * widths.len() * widths.len());
}

#[test]
fn autotuned_minkunet_matches_untuned_bitwise() {
    if env_pins_tune_db() {
        return;
    }
    // End-to-end on a real network: tuned and untuned compiles agree
    // bit-for-bit, through pooling, residuals, and transposed convs.
    let db = temp_db("minkunet");
    let _ = std::fs::remove_file(&db);
    let net = MinkUNet::with_width(0.25, 4, 3, 17);
    let x = dense_scene(4);

    let mut tuned = Engine::with_config(config_with_db(&db, true), DeviceProfile::rtx_2080ti())
        .compile(&net, &x)
        .expect("tuned compile");
    let tuned_bits = bits(&tuned.execute(&x).expect("tuned execute"));
    assert!(tuned.tuning_report().is_some());

    let mut plain = Engine::with_config(config_with_db(&db, false), DeviceProfile::rtx_2080ti())
        .compile(&net, &x)
        .expect("untuned compile");
    assert_eq!(bits(&plain.execute(&x).expect("untuned execute")), tuned_bits);

    let _ = std::fs::remove_file(&db);
}
