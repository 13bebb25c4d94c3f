//! Integration test: the sparse convolution engine agrees exactly with the
//! dense volumetric reference at every nonzero site — across engine presets
//! and random sparsity patterns (property-based).

use proptest::prelude::*;
use torchsparse::coords::offsets::kernel_offsets;
use torchsparse::coords::Coord;
use torchsparse::core::{Engine, EnginePreset, SparseConv3d, SparseTensor};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::dense::{submanifold_conv3d_reference, ConvWeights, DenseVolume};
use torchsparse::tensor::Matrix;

/// Builds matching sparse and dense representations of the same volume.
fn build_pair(
    sites: &[(usize, usize, usize)],
    dims: [usize; 3],
    c: usize,
) -> (SparseTensor, DenseVolume) {
    let mut dedup: Vec<(usize, usize, usize)> = sites.to_vec();
    dedup.sort_unstable();
    dedup.dedup();
    let coords: Vec<Coord> =
        dedup.iter().map(|&(x, y, z)| Coord::new(0, x as i32, y as i32, z as i32)).collect();
    let feats = Matrix::from_fn(coords.len(), c, |r, ch| {
        // Nonzero deterministic features.
        ((r * 7 + ch * 3) % 13) as f32 * 0.25 + 0.1
    });
    let mut dense = DenseVolume::zeros(dims, c);
    for (i, &(x, y, z)) in dedup.iter().enumerate() {
        dense.set([x, y, z], feats.row(i));
    }
    (SparseTensor::new(coords, feats).expect("valid tensor"), dense)
}

fn weights_for(conv: &SparseConv3d, c: usize) -> ConvWeights {
    ConvWeights::new(3, c, c, conv.weights()).expect("consistent weights")
}

#[test]
fn sparse_matches_dense_oracle_fixed_scene() {
    let sites: Vec<(usize, usize, usize)> =
        (0..60).map(|i| ((i * 7) % 6 + 1, (i * 5) % 6 + 1, (i * 11) % 6 + 1)).collect();
    let c = 5;
    let (sparse, dense) = build_pair(&sites, [8, 8, 8], c);
    let conv = SparseConv3d::with_random_weights("c", c, c, 3, 1, 77);

    let mut engine = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
    let out = engine.run(&conv, &sparse).expect("sparse conv");

    let offsets = kernel_offsets(3).expect("kernel offsets");
    let expect = submanifold_conv3d_reference(&dense, &weights_for(&conv, c), &offsets);

    for (i, coord) in out.coords().iter().enumerate() {
        let d = expect.at([coord.x as usize, coord.y as usize, coord.z as usize]);
        for (ch, &v) in out.feats().row(i).iter().enumerate() {
            assert!(
                (v - d[ch]).abs() < 1e-3,
                "mismatch at {coord} channel {ch}: sparse {v} dense {}",
                d[ch]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_sparse_matches_dense_oracle(
        sites in proptest::collection::vec((1usize..7, 1usize..7, 1usize..7), 5..50),
        seed in 0u64..500,
    ) {
        let c = 3;
        let (sparse, dense) = build_pair(&sites, [8, 8, 8], c);
        let conv = SparseConv3d::with_random_weights("c", c, c, 3, 1, seed);

        // Use the fully optimized engine (FP32 to keep exactness).
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.precision = torchsparse::core::Precision::Fp32;
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_3090());
        let out = engine.run(&conv, &sparse).expect("sparse conv");

        let offsets = kernel_offsets(3).expect("kernel offsets");
        let expect = submanifold_conv3d_reference(&dense, &weights_for(&conv, c), &offsets);

        for (i, coord) in out.coords().iter().enumerate() {
            let d = expect.at([coord.x as usize, coord.y as usize, coord.z as usize]);
            for (ch, &v) in out.feats().row(i).iter().enumerate() {
                prop_assert!(
                    (v - d[ch]).abs() < 1e-3,
                    "mismatch at {} channel {}: sparse {} dense {}", coord, ch, v, d[ch]
                );
            }
        }
    }
}
