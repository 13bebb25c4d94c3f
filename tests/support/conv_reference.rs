//! The numerics oracle of the sparse-convolution suites: Algorithm 2 of the
//! paper written down as four nested scalar loops over the public
//! [`KernelMap`], sharing nothing with the engine's executor — no
//! `FusedOrder`, no chunks, no strip kernel, no packed weights, no pool.
//!
//! Per output element the arithmetic is the engine's contract: for every
//! map entry a zero-initialised, `k`-ascending, multiply-then-add dot
//! product; the product rounded through binary16 when partial sums are
//! stored in 16 bits; one `f32` add per entry, offsets ascending (an output
//! row appears at most once per offset, so the order within an offset is
//! immaterial); NaNs canonicalised at the end. The engine's kernels skip
//! zero activations; adding the `±0.0` such a term contributes cannot change
//! an accumulator that started at `+0.0`, so for finite weights — all the
//! suites use — the transcription needs no skip.
//!
//! Included by `#[path]` from the root suites and from `core::dataflow`'s
//! unit tests, hence the dependency-crate paths.

use torchsparse_coords::KernelMap;
use torchsparse_tensor::{Half, Matrix};

/// The `n_out x c_out` output of one sparse convolution.
///
/// `shortcut` names the center offset when the §4.2.1 shortcut applies: the
/// engine then computes that offset first, as a dense GEMM whose product
/// never takes the 16-bit store, and adds the other offsets on top.
/// `round_f16` rounds every other product through binary16 (FP16
/// gather-matmul-scatter; never fetch-on-demand).
pub fn conv_reference(
    feats: &Matrix,
    weights: &[Matrix],
    map: &KernelMap,
    n_out: usize,
    shortcut: Option<usize>,
    round_f16: bool,
) -> Matrix {
    let c_out = weights[0].cols();
    let mut out = Matrix::zeros(n_out, c_out);
    let rest = (0..map.num_offsets()).filter(|&n| Some(n) != shortcut);
    for n in shortcut.into_iter().chain(rest) {
        for e in map.entries(n) {
            for co in 0..c_out {
                let mut product = 0.0f32;
                for k in 0..feats.cols() {
                    product += feats[(e.input as usize, k)] * weights[n][(k, co)];
                }
                if round_f16 && Some(n) != shortcut {
                    product = Half::from_f32(product).to_f32();
                }
                out[(e.output as usize, co)] += product;
            }
        }
    }
    for v in out.as_mut_slice() {
        if v.is_nan() {
            *v = f32::NAN;
        }
    }
    out
}
