//! What `Engine::run` must return for a single-convolution model, derived
//! from the scalar oracle in `conv_reference.rs` plus the layer rules the
//! engine documents: when the center shortcut applies, how outputs are rounded to storage precision,
//! and the FP32 re-run when a quantized output overflows. The kernel map
//! comes from the public search over a plain hashmap, so nothing here
//! touches the engine's mapping pipeline, plans or executor.

#[path = "conv_reference.rs"]
mod conv_reference;

use conv_reference::conv_reference;
use torchsparse::coords::downsample::{fused_output_coords, Boundary};
use torchsparse::coords::kernel_map::search_dilated_on;
use torchsparse::coords::offsets::center_index;
use torchsparse::coords::CoordHashMap;
use torchsparse::core::{OptimizationConfig, Precision, SparseConv3d, SparseTensor, ThreadPool};
use torchsparse::tensor::quant::round_trip_f16_in_place;
use torchsparse::tensor::Matrix;

/// The output features of `conv` (stride-1 or strided, not transposed) on
/// `x` under `cfg`, bit for bit.
pub fn layer_reference(conv: &SparseConv3d, x: &SparseTensor, cfg: &OptimizationConfig) -> Matrix {
    let (k, s) = (conv.kernel_size(), conv.stride());
    let out_coords = if s == 1 {
        x.coords().to_vec()
    } else {
        fused_output_coords(x.coords(), k, s, Boundary::unbounded()).expect("coords").coords
    };
    let (table, _) = CoordHashMap::build(x.coords());
    let map =
        search_dilated_on(ThreadPool::global(), &out_coords, &table, k, s, 1).expect("map search");

    // `fetch_on_demand_below` only prices a layer: it never changes its bits.
    let shortcut =
        if cfg.skip_center_movement && conv.is_submanifold() { center_index(k) } else { None };
    let quantized = cfg.precision != Precision::Fp32;
    let weights = conv.weights();
    let run = |round_f16: bool| {
        conv_reference(x.feats(), &weights, &map, out_coords.len(), shortcut, round_f16)
    };

    let mut out = run(quantized);
    round_to_storage(&mut out, cfg.precision);
    if quantized && out.as_slice().iter().any(|v| !v.is_finite()) {
        // Non-finite quantized output: the layer runs again in FP32 and its
        // output stays FP32.
        out = run(false);
    }
    out
}

/// The pointwise steps after a convolution, applied one whole-matrix rule
/// at a time to `out` (the layer's output, as [`layer_reference`] returns
/// it): batch norm `v * scale + shift` then the storage round, the
/// shortcut add `v + s`, then ReLU `v.max(0.0)`.
#[allow(dead_code)] // not every suite that includes this file checks epilogues
pub fn epilogue_reference(
    mut out: Matrix,
    batch_norm: Option<(&[f32], &[f32])>,
    shortcut: Option<&Matrix>,
    relu: bool,
    precision: Precision,
) -> Matrix {
    if let Some((scale, shift)) = batch_norm {
        let channels = out.cols();
        for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
            *v = *v * scale[i % channels] + shift[i % channels];
        }
        round_to_storage(&mut out, precision);
    }
    if let Some(s) = shortcut {
        for (v, s) in out.as_mut_slice().iter_mut().zip(s.as_slice()) {
            *v += s;
        }
    }
    if relu {
        for v in out.as_mut_slice() {
            *v = v.max(0.0);
        }
    }
    out
}

/// Rounds `out` to its storage precision in place, as the engine does at a
/// layer boundary.
fn round_to_storage(out: &mut Matrix, precision: Precision) {
    match precision {
        Precision::Fp32 => {}
        Precision::Fp16 => round_trip_f16_in_place(ThreadPool::global(), out),
        Precision::Int8 => unreachable!("INT8 is priced, never run"),
    }
}
