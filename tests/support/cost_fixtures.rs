//! Fixtures shared by the simulated-cost suites (`cost_model_cache.rs`,
//! `timeline_golden_bits.rs`). The golden bit patterns are a function of
//! exactly these scenes, models and configurations — edit one and the
//! pinned constants move.

use torchsparse::coords::Coord;
use torchsparse::core::{
    BatchNorm, Engine, EnginePreset, OptimizationConfig, Precision, ReLU, Sequential, SparseConv3d,
    SparseMaxPool3d, SparseTensor,
};
use torchsparse::gpusim::{DeviceProfile, Stage, Timeline};
use torchsparse::models::ResidualBlock;
use torchsparse::tensor::Matrix;

/// A dense-ish blob that survives repeated stride-2 downsamples.
pub fn scene(channels: usize) -> SparseTensor {
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

/// Every op kind the plan walk handles: submanifold, dilated, strided and
/// transposed convs, batch norm, ReLU, max pooling, and a residual block
/// with a projection branch.
pub fn model(seed: u64) -> Sequential {
    Sequential::new("net")
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

/// Product defaults with autotuning off: a tuned grouping legitimately
/// changes the simulated cost, which would make a compiled session
/// incomparable with the never-tuned dynamic engine.
pub fn untuned(precision: Precision) -> OptimizationConfig {
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.precision = precision;
    cfg.autotune_policies = false;
    cfg
}

pub fn engine(cfg: &OptimizationConfig) -> Engine {
    Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti())
}

/// Per-stage bit patterns in `Stage::ALL` order (mapping first).
pub fn stage_bits(t: &Timeline) -> [u64; 5] {
    Stage::ALL.map(|s| t.stage(s).as_f64().to_bits())
}
