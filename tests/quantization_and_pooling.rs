//! Integration tests for pooling layers and point-voxel transfer. INT8
//! features are priced, not run: their §4.3.1 verdict is asserted in
//! `tests/paper_results.rs`.

use proptest::prelude::*;
use torchsparse::coords::Coord;
use torchsparse::core::{Engine, EnginePreset, SparseMaxPool3d, SparseTensor};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::{devoxelize_trilinear, voxelize_features, PointScene};
use torchsparse::tensor::Matrix;

#[test]
fn strided_max_pool_equals_bruteforce() {
    // Compare the engine's pooling against a direct window-max computation.
    let coords: Vec<Coord> =
        (0..6).flat_map(|x| (0..4).map(move |y| Coord::new(0, x, y, 0))).collect();
    let n = coords.len();
    let feats = Matrix::from_fn(n, 2, |r, c| (r * 2 + c) as f32);
    let x = SparseTensor::new(coords.clone(), feats.clone()).expect("tensor");

    let pool = SparseMaxPool3d::new("p", 2, 2);
    let mut e = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
    let y = e.run(&pool, &x).expect("pool");

    for (k, out_coord) in y.coords().iter().enumerate() {
        for ch in 0..2 {
            // Brute force: max over inputs at 2*q + {0,1}^3.
            let mut best = f32::NEG_INFINITY;
            for dx in 0..2 {
                for dy in 0..2 {
                    for dz in 0..2 {
                        let probe = Coord::new(
                            0,
                            out_coord.x * 2 + dx,
                            out_coord.y * 2 + dy,
                            out_coord.z * 2 + dz,
                        );
                        if let Some(j) = coords.iter().position(|&c| c == probe) {
                            best = best.max(feats[(j, ch)]);
                        }
                    }
                }
            }
            assert_eq!(y.feats()[(k, ch)], best, "output {k} channel {ch}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Trilinear devoxelization is a partition of unity: interpolating the
    /// constant-one field gives one at every point that has any surrounding
    /// voxel.
    #[test]
    fn prop_devoxelize_partition_of_unity(
        raw_points in proptest::collection::vec((0.0f32..4.0, 0.0f32..4.0, 0.0f32..4.0), 5..60),
    ) {
        let n = raw_points.len();
        let positions: Vec<[f32; 3]> = raw_points.iter().map(|&(x, y, z)| [x, y, z]).collect();
        let scene = PointScene::new(positions, Matrix::filled(n, 3, 1.0)).expect("scene");
        let mut ctx = torchsparse::core::Context::new(
            EnginePreset::TorchSparse.config(),
            DeviceProfile::rtx_2080ti(),
        );
        let (voxels, _) = voxelize_features(&scene, 0.5, &mut ctx).expect("voxelize");
        let ones = voxels.with_feats(Matrix::filled(voxels.len(), 3, 1.0)).expect("ones");
        let out = devoxelize_trilinear(&scene, &ones, 0.5, &mut ctx).expect("devoxelize");
        for i in 0..n {
            // Every point's own voxel exists, so the weight mass is nonzero
            // and must renormalize to exactly one.
            for ch in 0..3 {
                prop_assert!((out[(i, ch)] - 1.0).abs() < 1e-5, "point {} got {}", i, out[(i, ch)]);
            }
        }
    }

    /// Mean pooling never exceeds max pooling, channelwise.
    #[test]
    fn prop_mean_pool_bounded_by_max_pool(
        sites in proptest::collection::vec((0i32..8, 0i32..8, 0i32..4), 4..40),
        seed in 0u64..100,
    ) {
        let mut dedup = sites.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let coords: Vec<Coord> =
            dedup.iter().map(|&(x, y, z)| Coord::new(0, x, y, z)).collect();
        let n = coords.len();
        let feats = Matrix::from_fn(n, 2, |r, c| {
            (((r as u64 * 37 + c as u64 * 11 + seed) % 17) as f32) - 8.0
        });
        let x = SparseTensor::new(coords, feats).expect("tensor");
        let mut e1 = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
        let mut e2 = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
        let max = e1.run(&SparseMaxPool3d::new("m", 2, 2), &x).expect("max");
        let mean = e2.run(&SparseMaxPool3d::mean("a", 2, 2), &x).expect("mean");
        prop_assert_eq!(max.coords(), mean.coords());
        for i in 0..max.len() {
            for ch in 0..2 {
                prop_assert!(mean.feats()[(i, ch)] <= max.feats()[(i, ch)] + 1e-6);
            }
        }
    }
}
