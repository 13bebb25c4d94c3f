//! Property-based integration tests of sparse convolution invariants:
//! linearity, engine-order independence, kernel-size-1 degeneracy, and
//! stride/transpose round trips.

use proptest::prelude::*;
use torchsparse::coords::Coord;
use torchsparse::core::{Engine, EnginePreset, Precision, SparseConv3d, SparseTensor, ThreadPool};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::gemm::{mm_into_packed_on, GemmOpts};
use torchsparse::tensor::{Matrix, PackedB};

fn tensor_from(sites: &[(i32, i32, i32)], c: usize, seed: u64) -> SparseTensor {
    let mut dedup: Vec<(i32, i32, i32)> = sites.to_vec();
    dedup.sort_unstable();
    dedup.dedup();
    let coords: Vec<Coord> = dedup.iter().map(|&(x, y, z)| Coord::new(0, x, y, z)).collect();
    let feats = Matrix::from_fn(coords.len(), c, |r, ch| {
        let v = (r as u64).wrapping_mul(0x9E37_79B9).wrapping_add(ch as u64).wrapping_mul(seed | 1);
        ((v % 1000) as f32 - 500.0) / 250.0
    });
    SparseTensor::new(coords, feats).expect("valid tensor")
}

fn fp32_engine() -> Engine {
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.precision = Precision::Fp32;
    Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// conv(a*x) == a*conv(x): convolution is linear in its input.
    #[test]
    fn prop_conv_is_homogeneous(
        sites in proptest::collection::vec((-5i32..5, -5i32..5, -5i32..5), 4..40),
        alpha in -3.0f32..3.0,
        seed in 1u64..300,
    ) {
        let c = 4;
        let x = tensor_from(&sites, c, seed);
        let conv = SparseConv3d::with_random_weights("c", c, c, 3, 1, seed);
        let mut engine = fp32_engine();
        let y = engine.run(&conv, &x).expect("conv x");
        let scaled_x = x.with_feats(&(x.feats().clone()) * alpha).expect("scale");
        let y2 = engine.run(&conv, &scaled_x).expect("conv ax");
        let expect = y.feats() * alpha;
        let diff = y2.feats().max_abs_diff(&expect).expect("shape");
        prop_assert!(diff < 1e-2, "homogeneity violated by {diff}");
    }

    /// conv(x + z) == conv(x) + conv(z) on the same coordinates.
    #[test]
    fn prop_conv_is_additive(
        sites in proptest::collection::vec((-5i32..5, -5i32..5, -5i32..5), 4..30),
        seed in 1u64..300,
    ) {
        let c = 3;
        let x = tensor_from(&sites, c, seed);
        let z = x.with_feats(Matrix::from_fn(x.len(), c, |r, ch| {
            ((r + 2 * ch) % 5) as f32 - 2.0
        })).expect("z");
        let sum = x.with_feats(x.feats() + z.feats()).expect("sum");
        let conv = SparseConv3d::with_random_weights("c", c, c, 3, 1, seed ^ 42);
        let mut engine = fp32_engine();
        let yx = engine.run(&conv, &x).expect("conv x");
        let yz = engine.run(&conv, &z).expect("conv z");
        let ys = engine.run(&conv, &sum).expect("conv sum");
        let expect = yx.feats() + yz.feats();
        let diff = ys.feats().max_abs_diff(&expect).expect("shape");
        prop_assert!(diff < 1e-2, "additivity violated by {diff}");
    }

    /// A kernel-size-1 convolution is exactly a per-point linear layer.
    #[test]
    fn prop_k1_conv_is_pointwise_linear(
        sites in proptest::collection::vec((-6i32..6, -6i32..6, -6i32..6), 2..30),
        seed in 1u64..300,
    ) {
        let (c_in, c_out) = (3, 5);
        let x = tensor_from(&sites, c_in, seed);
        let conv = SparseConv3d::with_random_weights("c", c_in, c_out, 1, 1, seed);
        let mut engine = fp32_engine();
        let y = engine.run(&conv, &x).expect("conv");
        let mut expect = Matrix::zeros(x.len(), c_out);
        let weight = PackedB::pack(&conv.weights()[0]);
        mm_into_packed_on(ThreadPool::global(), x.feats(), &weight, &mut expect, GemmOpts::default())
            .expect("mm");
        let diff = y.feats().max_abs_diff(&expect).expect("shape");
        prop_assert!(diff < 1e-3, "k1 conv differs from linear by {diff}");
    }

    /// Down then transposed-up restores the coordinate set exactly.
    #[test]
    fn prop_down_up_roundtrip_restores_coords(
        sites in proptest::collection::vec((0i32..10, 0i32..10, 0i32..10), 8..60),
        seed in 1u64..300,
    ) {
        let c = 2;
        let x = tensor_from(&sites, c, seed);
        let down = SparseConv3d::with_random_weights("d", c, c, 2, 2, seed);
        let up = SparseConv3d::with_random_weights("u", c, c, 2, 2, seed ^ 1).into_transposed();
        let mut engine = fp32_engine();
        // Engine::run resets the map cache per call, so run both layers in
        // one pass through a sequential container.
        let net = torchsparse::core::Sequential::new("roundtrip").push(down).push(up);
        let y = engine.run(&net, &x).expect("down-up");
        prop_assert_eq!(y.coords(), x.coords());
        prop_assert_eq!(y.stride(), 1);
    }

    /// Coordinate order must not change the multiset of (coord, feature)
    /// outputs — engines sort/hash internally.
    #[test]
    fn prop_input_permutation_invariance(
        sites in proptest::collection::vec((-4i32..4, -4i32..4, -4i32..4), 4..25),
        seed in 1u64..200,
    ) {
        let c = 3;
        let x = tensor_from(&sites, c, seed);
        // Reverse the point order.
        let rev_coords: Vec<Coord> = x.coords().iter().rev().copied().collect();
        let rev_feats = Matrix::from_fn(x.len(), c, |r, ch| x.feats()[(x.len() - 1 - r, ch)]);
        let xr = SparseTensor::new(rev_coords, rev_feats).expect("reversed");

        let conv = SparseConv3d::with_random_weights("c", c, c, 3, 1, seed);
        let mut engine = fp32_engine();
        let y = engine.run(&conv, &x).expect("conv");
        let yr = engine.run(&conv, &xr).expect("conv reversed");

        // Compare as maps from coordinate to feature row.
        use std::collections::HashMap;
        let collect = |t: &SparseTensor| -> HashMap<Coord, Vec<i64>> {
            t.coords()
                .iter()
                .enumerate()
                .map(|(i, &co)| {
                    // Quantize to tolerate float reassociation.
                    let row = t.feats().row(i).iter().map(|v| (v * 1e4).round() as i64).collect();
                    (co, row)
                })
                .collect()
        };
        prop_assert_eq!(collect(&y), collect(&yr));
    }
}
