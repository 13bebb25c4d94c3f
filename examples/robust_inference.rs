//! Fault-tolerant execution demo: validation policies, fault injection,
//! and the observable degradation report.
//!
//! ```bash
//! cargo run --release --example robust_inference
//! ```

use torchsparse::coords::Coord;
use torchsparse::core::tuning::tune_engine;
use torchsparse::core::{
    CoreError, Engine, EnginePreset, FaultSite, ReLU, Sequential, SparseConv3d, SparseTensor,
    ValidationConfig,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::Matrix;

fn model() -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("conv1", 4, 8, 3, 1, 1))
        .push(ReLU::new("act"))
        .push(SparseConv3d::with_random_weights("conv2", 8, 4, 3, 1, 2))
}

/// A corrupted scan: duplicate voxels and NaN/Inf features, as they arrive
/// from a faulty sensor or a bad decompression.
fn corrupted_scene() -> SparseTensor {
    let mut coords: Vec<Coord> =
        (0..48).map(|i| Coord::new(0, i % 6, (i / 6) % 5, i % 4)).collect();
    coords.push(coords[0]); // duplicate voxel
    let n = coords.len();
    let feats = Matrix::from_fn(n, 4, |r, c| match (r + c) % 11 {
        0 => f32::NAN,
        5 => f32::INFINITY,
        k => k as f32 * 0.25 - 1.0,
    });
    SparseTensor::new(coords, feats).expect("lengths agree")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let input = corrupted_scene();
    let net = model();

    // Trust (the default): malformed numerics flow straight through.
    let mut trusting = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_3090());
    let out = trusting.run(&net, &input)?;
    println!("trust:    output finite = {}", out.feats().is_finite());

    // Reject: the first violation becomes a typed error, never a panic.
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.validation = ValidationConfig::reject();
    let mut rejecting = Engine::with_config(cfg, DeviceProfile::rtx_3090());
    match rejecting.run(&net, &input) {
        Err(CoreError::NonFiniteFeatures { count }) => {
            println!("reject:   refused input with {count} non-finite features");
        }
        other => println!("reject:   unexpected: {other:?}"),
    }

    // Sanitize: repair, run, and report what was repaired.
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.validation = ValidationConfig::sanitize();
    let mut sanitizing = Engine::with_config(cfg, DeviceProfile::rtx_3090());
    let out = sanitizing.run(&net, &input)?;
    println!(
        "sanitize: {} -> {} points, output finite = {}",
        input.len(),
        out.len(),
        out.feats().is_finite()
    );
    println!("          report: {}", sanitizing.degradation_report());

    // Fault injection: force a grid-table failure and an FP16 overflow in
    // one run; the engine completes through its documented fallbacks.
    let mut faulty = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_3090());
    faulty.context_mut().runtime.faults.arm(FaultSite::GridTableBuild);
    faulty.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
    let out = faulty.run(&net, &out)?;
    println!("faults:   output finite = {}", out.feats().is_finite());
    println!("          report: {}", faulty.degradation_report());

    // Even the tuner degrades instead of failing.
    let mut tuned = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_3090());
    tuned.context_mut().runtime.faults.arm(FaultSite::GroupTuning);
    let report = tune_engine(&mut tuned, &net, std::slice::from_ref(&out), None)?;
    println!("tuning:   degraded = {}, inference still works = {}", report.degraded, {
        tuned.run(&net, &out).is_ok()
    });

    Ok(())
}
