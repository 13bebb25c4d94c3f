//! Adversarial-input robustness: seeded degenerate point clouds (empty,
//! single-point, all-duplicate, huge-extent, NaN-laced) driven through all
//! three dataflows. The engine must never panic — malformed inputs either
//! produce a typed error (Reject) or a sanitized run with a populated
//! degradation report (Sanitize) — and on well-defined inputs all dataflows
//! must agree bit-exactly in FP32.

use torchsparse::coords::Coord;
use torchsparse::core::{
    Engine, EnginePreset, FaultSite, OptimizationConfig, Precision, ReLU, Sequential, SparseConv3d,
    SparseTensor, ValidationConfig,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::Matrix;

/// Minimal multiplicative congruential generator (Park–Miller style) so the
/// adversarial clouds are seeded and reproducible without any RNG crate.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407) | 1)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn next_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo) as u64) as i32
    }
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() % 4096) as f32 / 2048.0 - 1.0
    }
}

const CHANNELS: usize = 4;

/// The degenerate shapes the generator can produce.
#[derive(Clone, Copy, Debug)]
enum CloudKind {
    Empty,
    SinglePoint,
    AllDuplicate,
    HugeExtent,
    NanLaced,
    WellFormed,
}

const ALL_KINDS: [CloudKind; 6] = [
    CloudKind::Empty,
    CloudKind::SinglePoint,
    CloudKind::AllDuplicate,
    CloudKind::HugeExtent,
    CloudKind::NanLaced,
    CloudKind::WellFormed,
];

fn adversarial_cloud(kind: CloudKind, seed: u64) -> SparseTensor {
    let mut rng = Lcg::new(seed);
    let (coords, mut feats): (Vec<Coord>, Vec<f32>) = match kind {
        CloudKind::Empty => (Vec::new(), Vec::new()),
        CloudKind::SinglePoint => {
            (vec![Coord::new(0, 0, 0, 0)], (0..CHANNELS).map(|_| rng.next_f32()).collect())
        }
        CloudKind::AllDuplicate => {
            let c = Coord::new(0, rng.next_i32(-4, 4), rng.next_i32(-4, 4), rng.next_i32(-4, 4));
            let n = 12;
            (vec![c; n], (0..n * CHANNELS).map(|_| rng.next_f32()).collect())
        }
        CloudKind::HugeExtent => {
            // Two clusters pushed to opposite corners of the i32 range: any
            // dense grid over this bounding box is unbuildable.
            let mut cs = vec![Coord::new(0, i32::MIN + 1, 0, 0), Coord::new(0, i32::MAX - 1, 0, 0)];
            for _ in 0..10 {
                cs.push(Coord::new(
                    0,
                    rng.next_i32(-5, 5),
                    rng.next_i32(-5, 5),
                    rng.next_i32(-5, 5),
                ));
            }
            cs.sort_unstable();
            cs.dedup();
            let n = cs.len();
            (cs, (0..n * CHANNELS).map(|_| rng.next_f32()).collect())
        }
        CloudKind::NanLaced | CloudKind::WellFormed => {
            let mut cs: Vec<Coord> = (0..50)
                .map(|_| Coord::new(0, rng.next_i32(0, 8), rng.next_i32(0, 8), rng.next_i32(0, 8)))
                .collect();
            cs.sort_unstable();
            cs.dedup();
            let n = cs.len();
            (cs, (0..n * CHANNELS).map(|_| rng.next_f32()).collect())
        }
    };
    if matches!(kind, CloudKind::NanLaced) {
        for (i, v) in feats.iter_mut().enumerate() {
            match i % 7 {
                0 => *v = f32::NAN,
                3 => *v = f32::INFINITY,
                _ => {}
            }
        }
    }
    let rows = coords.len();
    let matrix = Matrix::from_vec(rows, CHANNELS, feats).expect("consistent rows");
    SparseTensor::new(coords, matrix).expect("lengths agree")
}

fn model() -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("conv1", CHANNELS, 8, 3, 1, 11))
        .push(ReLU::new("act"))
        .push(SparseConv3d::with_random_weights("conv2", 8, CHANNELS, 3, 1, 12))
}

/// The three dataflow configurations of the engine (fetch-on-demand is
/// priced only and runs the unfused numerics), all forced to FP32 and
/// Sanitize so outputs are comparable and malformed inputs are repaired,
/// not trusted.
fn dataflow_configs() -> Vec<(&'static str, OptimizationConfig)> {
    let mut fused = EnginePreset::TorchSparse.config();
    fused.precision = Precision::Fp32;
    let mut unfused = EnginePreset::BaselineFp32.config();
    unfused.fused_gather_scatter = false;
    let mut fod = EnginePreset::MinkowskiEngine.config();
    fod.fetch_on_demand_below = Some(usize::MAX);
    let mut out = vec![("fused-gms", fused), ("unfused-gms", unfused), ("fetch-on-demand", fod)];
    for (_, cfg) in &mut out {
        cfg.validation = ValidationConfig::sanitize();
    }
    out
}

#[test]
fn no_dataflow_panics_on_any_degenerate_cloud() {
    for kind in ALL_KINDS {
        for seed in 0..4u64 {
            let input = adversarial_cloud(kind, seed);
            for (name, cfg) in dataflow_configs() {
                let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
                // Malformed inputs may yield a typed error (e.g. empty
                // clouds); what they must never do is panic or return
                // non-finite features from a sanitized run.
                match engine.run(&model(), &input) {
                    Ok(out) => assert!(
                        out.feats().is_finite(),
                        "{name} produced non-finite output on {kind:?} seed {seed}"
                    ),
                    Err(e) => assert!(
                        input.is_empty(),
                        "{name} errored on non-empty {kind:?} seed {seed}: {e}"
                    ),
                }
            }
        }
    }
}

#[test]
fn dataflows_agree_on_well_formed_clouds() {
    for seed in 0..5u64 {
        let input = adversarial_cloud(CloudKind::WellFormed, seed);
        let m = model();
        let mut reference: Option<SparseTensor> = None;
        for (name, cfg) in dataflow_configs() {
            let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
            let out = engine.run(&m, &input).expect("well-formed input");
            match &reference {
                None => reference = Some(out),
                Some(r) => {
                    assert_eq!(r.coords(), out.coords(), "{name} coords differ, seed {seed}");
                    let diff = r.feats().max_abs_diff(out.feats()).expect("same shape");
                    assert!(diff < 1e-4, "{name} differs by {diff} on seed {seed}");
                }
            }
        }
    }
}

#[test]
fn sanitize_equals_running_on_pre_cleaned_input() {
    // A NaN-laced cloud run under Sanitize must match the same cloud with
    // the non-finite features zeroed by hand — sanitization is observable,
    // not approximate.
    let dirty = adversarial_cloud(CloudKind::NanLaced, 7);
    let cleaned_feats = Matrix::from_fn(dirty.len(), CHANNELS, |r, c| {
        let v = dirty.feats()[(r, c)];
        if v.is_finite() {
            v
        } else {
            0.0
        }
    });
    let clean = SparseTensor::new(dirty.coords().to_vec(), cleaned_feats).expect("same shape");

    let m = model();
    let mut cfg = EnginePreset::BaselineFp32.config();
    cfg.validation = ValidationConfig::sanitize();
    let mut sanitizing = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    let a = sanitizing.run(&m, &dirty).expect("sanitized run");
    assert!(
        sanitizing.degradation_report().count(FaultSite::InputValidation) >= 1,
        "sanitization must be recorded"
    );

    let mut trusting = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
    let b = trusting.run(&m, &clean).expect("clean run");
    assert_eq!(a.coords(), b.coords());
    assert_eq!(a.feats().max_abs_diff(b.feats()).expect("same shape"), 0.0);
}

#[test]
fn reject_mode_returns_typed_errors_never_panics() {
    use torchsparse::core::CoreError;
    let m = model();

    let nan = adversarial_cloud(CloudKind::NanLaced, 3);
    let mut cfg = EnginePreset::BaselineFp32.config();
    cfg.validation = ValidationConfig::reject();
    let mut e = Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti());
    assert!(matches!(e.run(&m, &nan), Err(CoreError::NonFiniteFeatures { .. })));

    let dup = adversarial_cloud(CloudKind::AllDuplicate, 3);
    let mut e = Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti());
    assert!(matches!(e.run(&m, &dup), Err(CoreError::Coords(_))));

    let wide = adversarial_cloud(CloudKind::HugeExtent, 3);
    cfg.validation = ValidationConfig::reject().with_max_grid_cells(1 << 24);
    let mut e = Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti());
    assert!(matches!(e.run(&m, &wide), Err(CoreError::ExtentOverflow { .. })));

    let ok = adversarial_cloud(CloudKind::WellFormed, 3);
    cfg.validation = ValidationConfig::reject().with_max_points(5);
    let mut e = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    assert!(matches!(e.run(&m, &ok), Err(CoreError::BudgetExceeded { .. })));
}

#[test]
fn sanitized_duplicates_match_deduplicated_input() {
    let dup = adversarial_cloud(CloudKind::AllDuplicate, 9);
    let m = model();
    let mut cfg = EnginePreset::BaselineFp32.config();
    cfg.validation = ValidationConfig::sanitize();
    let mut e = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    let out = e.run(&m, &dup).expect("sanitized duplicates run");
    // All twelve copies collapse onto the first occurrence.
    assert_eq!(out.len(), 1);
    assert!(e.degradation_report().count(FaultSite::InputValidation) >= 1);
}

#[test]
fn huge_extent_degrades_grid_to_hashmap_under_sanitize() {
    let wide = adversarial_cloud(CloudKind::HugeExtent, 5);
    let m = model();
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.precision = Precision::Fp32;
    cfg.validation = ValidationConfig::sanitize().with_max_grid_cells(1 << 24);
    let mut e = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    let out = e.run(&m, &wide).expect("degraded run completes");
    assert!(out.feats().is_finite());
    // Both the validator's pre-warning and the mapping layer's organic
    // fallback are visible in the report.
    assert!(e.degradation_report().count(FaultSite::InputValidation) >= 1);
    assert!(e.degradation_report().count(FaultSite::GridTableBuild) >= 1);
}

#[test]
fn stride_below_one_is_a_typed_construction_error() {
    use torchsparse::coords::CoordsError;
    use torchsparse::core::CoreError;
    // Rejected in the constructor: a transposed layer divides its input
    // stride by this one when it plans.
    for (stride, transposed) in [(0, false), (0, true), (-2, false), (-2, true)] {
        let err = SparseConv3d::new("t", 4, 4, 2, stride, transposed, vec![Matrix::zeros(4, 4); 8])
            .expect_err("stride below 1");
        assert!(
            matches!(err, CoreError::Coords(CoordsError::ZeroStride)),
            "stride {stride} transposed={transposed}: {err:?}"
        );
        assert!(err.to_string().contains("stride must be at least 1"), "{err}");
    }
}
