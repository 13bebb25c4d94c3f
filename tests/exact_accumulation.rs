//! The canonical-order accumulation contract, end to end, and the oracle
//! it is measured against.
//!
//! Every output row is reduced in plain FP32 in one fixed order — offsets
//! ascending, one add per producer — by whichever block owns the row (its
//! plan-time chunk's task, or the whole layer on a serial pool). The
//! engine's bits are therefore those of the scalar
//! reference in `tests/support/` at every thread count and dataflow,
//! non-finite and signed-zero addends included. What the order
//! does *not* give is a correctly rounded sum: `core::dataflow`'s unit
//! tests bound the distance to one against the superaccumulator in
//! `tests/support/accum.rs`, which left the product and survives as this
//! suite's oracle. The property tests at the bottom pin that oracle
//! itself: permutation invariance, split/merge invariance, and correct
//! rounding against an exact integer reference, including NaN/±0/overflow
//! edges.

/// The superaccumulator oracle (shared with `core::dataflow`'s unit tests)
/// and its own unit tests.
#[path = "support"]
mod accum {
    #[path = "accum.rs"]
    mod oracle;
    pub use oracle::{exact_sum, ExactAccumulator};
    #[path = "accum_tests.rs"]
    mod tests;
}

#[path = "support/layer_reference.rs"]
mod layer_reference;

use accum::{exact_sum, ExactAccumulator};
use layer_reference::layer_reference;
use proptest::prelude::*;
use torchsparse::coords::Coord;
use torchsparse::core::{
    Engine, EnginePreset, OptimizationConfig, Precision, SparseConv3d, SparseTensor,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::Matrix;

/// Worker counts every configuration is checked at.
const THREADS: [usize; 3] = [1, 2, 8];

/// An 8 x 8 x 6 block with a quarter of its voxels knocked out: dense
/// enough that interior rows have a producer at most of the 27 offsets,
/// so the order of the adds is actually at stake.
fn sites(seed: i32) -> Vec<Coord> {
    let mut sites = Vec::new();
    for x in 0..8 {
        for y in 0..8 {
            for z in 0..6 {
                if (x * 7 + y * 13 + z * 5 + seed) % 4 != 0 {
                    sites.push(Coord::new(0, x, y, z));
                }
            }
        }
    }
    sites
}

fn features(rows: usize, c: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, c, |r, ch| {
        let v = (r as u64).wrapping_mul(0x9E37_79B9).wrapping_add(ch as u64).wrapping_mul(seed | 1);
        ((v % 1000) as f32 - 500.0) / 250.0
    })
}

/// Features whose per-entry products cover every special addend: rows of
/// NaN, `±inf`, magnitudes whose products overflow to `±inf` (and whose
/// sums then meet as `inf - inf`), `-0.0`, and values small enough that the
/// 16-bit partial-sum store rounds their products to `±0.0`.
fn special_features(rows: usize, c: usize) -> Matrix {
    const SPECIALS: [f32; 8] =
        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3.0e38, -3.0e38, -0.0, 1.0e-7, -1.0e-7];
    let base = features(rows, c, 73);
    Matrix::from_fn(rows, c, |r, ch| match r % 5 {
        0 => SPECIALS[(r / 5 + ch) % SPECIALS.len()],
        _ => base[(r, ch)],
    })
}

/// The three dataflow configurations of the engine: grouped
/// gather-matmul-scatter (TorchSparse), ungrouped per-offset baseline, and
/// fetch-on-demand (forced by an infinite threshold), which is priced only
/// and runs the ungrouped baseline's numerics.
fn dataflow_configs() -> Vec<(&'static str, OptimizationConfig)> {
    let grouped = EnginePreset::TorchSparse.config();
    let separate = EnginePreset::BaselineFp32.config();
    let mut fod = EnginePreset::BaselineFp32.config();
    fod.fetch_on_demand_below = Some(usize::MAX);
    vec![("grouped", grouped), ("separate", separate), ("fetch-on-demand", fod)]
}

/// One dynamic run of `conv` on a `threads`-wide pool.
fn output_bits(
    mut cfg: OptimizationConfig,
    threads: usize,
    conv: &SparseConv3d,
    x: &SparseTensor,
) -> Vec<u32> {
    cfg.threads = Some(threads);
    let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    let y = engine.run(conv, x).expect("run succeeds");
    y.feats().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// 3 dataflows x 2 precisions x 1/2/8 threads all produce the scalar
/// reference's bits — on ordinary submanifold and strided
/// layers, and on a layer whose products contain `-0.0`, `±inf` and NaN
/// addends.
#[test]
fn canonical_order_bitwise_identical_across_threads_dataflows_precisions_routes_chunks() {
    let coords = sites(0);
    let tensor = |feats: Matrix| SparseTensor::new(coords.clone(), feats).expect("valid tensor");
    let cases = [
        (
            "regular",
            SparseConv3d::with_random_weights("conv1", 4, 8, 3, 1, 61),
            tensor(features(coords.len(), 4, 61)),
        ),
        (
            "regular",
            SparseConv3d::with_random_weights("down", 8, 8, 2, 2, 62),
            tensor(features(coords.len(), 8, 62)),
        ),
        (
            "special",
            SparseConv3d::with_random_weights("conv1", 4, 8, 3, 1, 67),
            tensor(special_features(coords.len(), 4)),
        ),
    ];
    for (case, conv, x) in &cases {
        for (dataflow, cfg) in dataflow_configs() {
            for precision in [Precision::Fp32, Precision::Fp16] {
                let mut cfg = cfg.clone();
                cfg.precision = precision;
                let reference = layer_reference(conv, x, &cfg);
                let expect: Vec<u32> = reference.as_slice().iter().map(|v| v.to_bits()).collect();
                for threads in THREADS {
                    assert_eq!(
                        output_bits(cfg.clone(), threads, conv, x),
                        expect,
                        "{case}/{dataflow} @ {precision:?}, layer {}: engine diverges from the \
                         scalar reference at {threads} threads",
                        conv.layer_name()
                    );
                }
                if *case == "special" && precision == Precision::Fp32 {
                    let vals = reference.as_slice();
                    assert!(vals.iter().any(|v| v.is_nan()), "{dataflow}: no NaN output");
                    assert!(vals.iter().any(|v| v.is_infinite()), "{dataflow}: no inf output");
                    assert!(vals.iter().any(|v| v.is_finite()), "{dataflow}: all poisoned");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle-level properties.
// ---------------------------------------------------------------------------

/// Deterministic in-place shuffle (no rand dependency in the root crate's
/// integration tests beyond the proptest shim).
fn shuffle<T>(values: &mut [T], mut seed: u64) {
    for i in (1..values.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        values.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

/// Decodes `(bits, selector)` pairs into addends: mostly arbitrary raw bit
/// patterns (which already cover every magnitude, subnormals, and — at
/// ~1/256 per value — NaNs and infinities), with one in five values forced
/// to a hand-picked special so signed zeros and boundary values appear in
/// nearly every case.
fn decode_addends(raw: &[(u32, u8)]) -> Vec<f32> {
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
    ];
    raw.iter()
        .map(|&(bits, sel)| {
            if sel == 0 {
                SPECIALS[(bits % SPECIALS.len() as u32) as usize]
            } else {
                f32::from_bits(bits)
            }
        })
        .collect()
}

/// Strategy for the raw `(bits, selector)` pairs [`decode_addends`] maps.
fn addend_bits(
    max_len: usize,
) -> proptest::collection::VecStrategy<(std::ops::Range<u32>, std::ops::Range<u8>)> {
    proptest::collection::vec((0u32..u32::MAX, 0u8..5), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation of any addend multiset — including NaN, infinities,
    /// and signed zeros — rounds to identical bits.
    #[test]
    fn prop_permutation_invariance(
        raw in addend_bits(40),
        seed in 0u64..u64::MAX,
    ) {
        let mut vals = decode_addends(&raw);
        let forward = exact_sum(&vals);
        shuffle(&mut vals, seed | 1);
        let shuffled = exact_sum(&vals);
        prop_assert_eq!(forward.to_bits(), shuffled.to_bits());
    }

    /// Splitting the addends at any point into two accumulators and
    /// merging gives the same bits as one pass — the chunk-partition
    /// invariance the parallel scatter relies on.
    #[test]
    fn prop_chunk_split_invariance(
        raw in addend_bits(40),
        split_frac in 0.0f64..1.0,
    ) {
        let vals = decode_addends(&raw);
        let whole = exact_sum(&vals);
        let split = (vals.len() as f64 * split_frac) as usize;
        let mut a = ExactAccumulator::new();
        let mut b = ExactAccumulator::new();
        for &v in &vals[..split] {
            a.add(v);
        }
        for &v in &vals[split..] {
            b.add(v);
        }
        a.merge(&b);
        prop_assert!(a.round().to_bits() == whole.to_bits(), "split at {split}");
    }

    /// Against an exact integer reference: the accumulator returns the
    /// correctly rounded f32 of the true sum. Addends are `k * 2^off` with
    /// `|k| < 2^24`, `off` in `0..20` — every one is exactly representable
    /// in f32, the true sum (an integer below 2^51) is exact in i128 *and*
    /// in f64, and f64 -> f32 of an exactly held value is correctly rounded
    /// by IEEE definition.
    #[test]
    fn prop_correctly_rounded_vs_integer_reference(
        scaled in proptest::collection::vec(
            ((-(1i64 << 24) + 1)..(1i64 << 24), 0u32..20),
            1..60,
        ),
    ) {
        let vals: Vec<f32> = scaled
            .iter()
            .map(|&(k, off)| {
                let v = (k as f64) * f64::from(2.0f32.powi(off as i32));
                v as f32
            })
            .collect();
        // Every addend is exactly representable, so the true sum is the
        // integer sum of the scaled values.
        let true_sum: i128 = scaled.iter().map(|&(k, off)| (k as i128) << off).sum();
        // |true_sum| < 60 * 2^24 * 2^19 < 2^50: exact in f64, and
        // f64 -> f32 of an exactly held value is correctly rounded.
        let reference = (true_sum as f64) as f32;
        prop_assert!(
            exact_sum(&vals).to_bits() == reference.to_bits(),
            "true sum {true_sum}: got {} want {reference}",
            exact_sum(&vals)
        );
    }

    /// Adding values one at a time equals adding them via arbitrary
    /// nested merges of single-value accumulators (full associativity).
    #[test]
    fn prop_merge_tree_equals_sequential(raw in addend_bits(32)) {
        let vals = decode_addends(&raw);
        if vals.is_empty() {
            return Ok(());
        }
        let sequential = exact_sum(&vals);
        let mut accs: Vec<ExactAccumulator> = vals
            .iter()
            .map(|&v| {
                let mut a = ExactAccumulator::new();
                a.add(v);
                a
            })
            .collect();
        while accs.len() > 1 {
            let mut next = Vec::with_capacity(accs.len().div_ceil(2));
            for pair in accs.chunks(2) {
                let mut merged = pair[0];
                if let Some(rhs) = pair.get(1) {
                    merged.merge(rhs);
                }
                next.push(merged);
            }
            accs = next;
        }
        prop_assert_eq!(accs[0].round().to_bits(), sequential.to_bits());
    }
}

/// Hand-picked edges the property generators hit only rarely.
#[test]
fn accumulator_edge_cases() {
    // Catastrophic cancellation recovers the small addend.
    assert_eq!(exact_sum(&[1.0e30, 1.0, -1.0e30]), 1.0);
    // Signed-zero rules: -0 only when every addend is -0.
    assert_eq!(exact_sum(&[-0.0, -0.0]).to_bits(), (-0.0f32).to_bits());
    assert_eq!(exact_sum(&[-0.0, 0.0]).to_bits(), 0.0f32.to_bits());
    assert_eq!(exact_sum(&[7.5, -7.5]).to_bits(), 0.0f32.to_bits());
    // Overflow of the exact sum rounds to infinity; cancellation back under
    // the limit does not.
    assert_eq!(exact_sum(&[f32::MAX, f32::MAX]), f32::INFINITY);
    assert_eq!(exact_sum(&[f32::MAX, f32::MAX, -f32::MAX]), f32::MAX);
    // NaN and mixed-infinity inputs poison the sum in any order.
    assert!(exact_sum(&[1.0, f32::NAN, 2.0]).is_nan());
    assert!(exact_sum(&[f32::INFINITY, f32::NEG_INFINITY]).is_nan());
    assert_eq!(exact_sum(&[f32::NEG_INFINITY, f32::MAX, f32::MAX]), f32::NEG_INFINITY);
}
