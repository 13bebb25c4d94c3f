//! Feature quantization (§4.3.1 of the paper).
//!
//! TorchSparse stores features in FP16 to halve DRAM traffic; INT8 is
//! investigated and rejected because scatter reduction needs ≥16-bit
//! intermediates. This module implements both so the ablation can be
//! reproduced faithfully:
//!
//! - [`round_trip_f16_in_place`]: the "simulate FP16 storage" pass over a
//!   whole [`Matrix`].
//! - [`Int8Quantizer`]: symmetric per-tensor INT8 with an f32 scale.

use crate::microkernel;
use crate::Matrix;
use torchsparse_runtime::ThreadPool;

/// Simulates FP16 feature storage on a matrix in place: every element is
/// rounded to the nearest binary16 and expanded back to `f32` — exactly what
/// gathering an FP16 buffer into an FP32 GEMM does. The sweep runs
/// chunk-parallel on `pool`; each element rounds independently, so the
/// result is bitwise identical to the serial sweep at every thread count
/// and on either kernel.
pub fn round_trip_f16_in_place(pool: &ThreadPool, m: &mut Matrix) {
    m.par_map_slices_inplace(pool, microkernel::f16_round_trip_slice);
}

/// Symmetric per-tensor INT8 quantizer.
///
/// `q = clamp(round(x / scale), -127, 127)`, `x ≈ q * scale`. The scale is
/// chosen from the maximum finite absolute value of the calibration data.
///
/// # Example
///
/// ```
/// use torchsparse_runtime::ThreadPool;
/// use torchsparse_tensor::{quant::Int8Quantizer, Matrix};
///
/// let mut m = Matrix::from_vec(1, 3, vec![0.5, -2.0, 1.0]).unwrap();
/// let q = Int8Quantizer::calibrate(m.as_slice());
/// q.round_trip_in_place(&ThreadPool::new(1), &mut m);
/// assert!((m.as_slice()[2] - 1.0).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Int8Quantizer {
    scale: f32,
}

impl Int8Quantizer {
    /// Builds a quantizer whose range covers the finite calibration data.
    ///
    /// NaN and infinities are left out of the range: an infinite scale would
    /// round every element to `0 * inf = NaN`. They still quantize — an
    /// infinity saturates to ±127 codes, NaN to zero. The scale is finite
    /// and positive for every input: an all-zero, empty or all-non-finite
    /// calibration set yields a unit scale, and data so small that
    /// `max_abs / 127` underflows to zero (subnormals below `127 * 2^-149`)
    /// yields the smallest positive `f32`, at which every such value still
    /// has an exact code.
    pub fn calibrate(values: &[f32]) -> Self {
        let max_abs = values.iter().filter(|v| v.is_finite()).fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max_abs > 0.0 { (max_abs / 127.0).max(f32::from_bits(1)) } else { 1.0 };
        Int8Quantizer { scale }
    }

    /// Builds a quantizer with an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    #[cfg(test)]
    pub(crate) fn with_scale(scale: f32) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be finite and positive");
        Int8Quantizer { scale }
    }

    /// The dequantization scale.
    #[cfg(test)]
    pub(crate) fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes one value.
    #[cfg(test)]
    pub(crate) fn quantize(&self, value: f32) -> i8 {
        (value / self.scale).round().clamp(-127.0, 127.0) as i8
    }

    /// Dequantizes one code.
    #[cfg(test)]
    pub(crate) fn dequantize(&self, code: i8) -> f32 {
        code as f32 * self.scale
    }

    /// Quantize-dequantize round trip over a matrix in place, simulating
    /// INT8 storage: chunk-parallel on `pool`, bitwise identical to the
    /// serial sweep at every thread count. The SIMD path is bit-exact
    /// against the scalar `dequantize(quantize(v))` for every `f32` input,
    /// NaN and infinities included (see
    /// [`microkernel::int8_round_trip_with`]).
    pub fn round_trip_in_place(&self, pool: &ThreadPool, m: &mut Matrix) {
        let (scale, kernel) = (self.scale, microkernel::active());
        m.par_map_slices_inplace(pool, |chunk| {
            microkernel::int8_round_trip_with(kernel, scale, chunk);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Half;
    use proptest::prelude::*;

    fn round_trip_f16(m: &Matrix) -> Matrix {
        let mut out = m.clone();
        round_trip_f16_in_place(&ThreadPool::new(1), &mut out);
        out
    }

    fn round_trip_int8(q: Int8Quantizer, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        q.round_trip_in_place(&ThreadPool::new(1), &mut out);
        out
    }

    #[test]
    fn f16_roundtrip_preserves_exact_values() {
        let vals = Matrix::from_vec(1, 5, vec![0.0, 1.0, -2.5, 1024.0, 0.125]).unwrap();
        assert_eq!(round_trip_f16(&vals), vals);
    }

    #[test]
    fn f16_roundtrip_matrix() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32 + 0.0001);
        let rt = round_trip_f16(&m);
        // Small error introduced, bounded by f16 epsilon.
        let diff = m.max_abs_diff(&rt).unwrap();
        assert!(diff > 0.0 && diff < 0.01);
        // Round trip is idempotent.
        assert_eq!(round_trip_f16(&rt), rt);
    }

    #[test]
    fn int8_calibrate_covers_range() {
        let q = Int8Quantizer::calibrate(&[-10.0, 3.0, 7.5]);
        assert_eq!(q.quantize(10.0), 127);
        assert_eq!(q.quantize(-10.0), -127);
        assert!((q.dequantize(q.quantize(5.0)) - 5.0).abs() < q.scale());
    }

    #[test]
    fn int8_zero_calibration_is_safe() {
        let q = Int8Quantizer::calibrate(&[]);
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.quantize(0.0), 0);
        let q = Int8Quantizer::calibrate(&[0.0, 0.0]);
        assert_eq!(q.quantize(0.5), 1);
    }

    #[test]
    fn int8_calibration_ignores_non_finite_values() {
        // An infinite magnitude must not become the scale: 0 * inf would turn
        // every element NaN.
        let q = Int8Quantizer::calibrate(&[1.0, 2.0, f32::INFINITY, f32::NAN, f32::NEG_INFINITY]);
        assert_eq!(q.scale(), 2.0 / 127.0);
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, f32::INFINITY, f32::NAN]).unwrap();
        let rt = round_trip_int8(q, &m);
        let expect = [64.0 * q.scale(), 127.0 * q.scale(), 127.0 * q.scale(), 0.0];
        assert_eq!(rt.as_slice(), &expect);
        let q = Int8Quantizer::calibrate(&[f32::NAN, f32::INFINITY]);
        assert_eq!(q.scale(), 1.0, "nothing finite to calibrate on");
    }

    #[test]
    fn int8_calibration_on_subnormal_data_round_trips() {
        // `1e-44 / 127` underflows to zero: the scale must still be finite
        // and positive, and the sweep must equal the scalar round trip.
        let vals = [1e-44f32, -5e-45];
        let q = Int8Quantizer::calibrate(&vals);
        assert!(q.scale().is_finite() && q.scale() > 0.0, "scale {:e}", q.scale());
        let m = Matrix::from_vec(1, 2, vals.to_vec()).unwrap();
        let rt = round_trip_int8(q, &m);
        let expect: Vec<u32> =
            vals.iter().map(|&v| q.dequantize(q.quantize(v)).to_bits()).collect();
        assert_eq!(rt.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), expect);
        assert_eq!(rt.as_slice(), &vals, "subnormal codes are exact at the minimum scale");
    }

    #[test]
    fn int8_clamps_outliers() {
        let q = Int8Quantizer::with_scale(0.1);
        assert_eq!(q.quantize(1e9), 127);
        assert_eq!(q.quantize(-1e9), -127);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn int8_rejects_bad_scale() {
        Int8Quantizer::with_scale(0.0);
    }

    #[test]
    fn int8_roundtrip_idempotent() {
        let q = Int8Quantizer::with_scale(0.05);
        let m = Matrix::from_fn(3, 3, |r, c| (r as f32 - c as f32) * 0.3);
        let once = round_trip_int8(q, &m);
        assert_eq!(round_trip_int8(q, &once), once);
    }

    proptest! {
        #[test]
        fn prop_f16_error_bounded(v in -60000.0f32..60000.0) {
            let h = Half::from_f32(v);
            let err = (h.to_f32() - v).abs();
            // Relative error for normals, absolute bound near zero.
            prop_assert!(err <= v.abs() / 1024.0 + 1e-7, "v={v} err={err}");
        }

        #[test]
        fn prop_int8_error_within_half_scale(v in -100.0f32..100.0) {
            let q = Int8Quantizer::calibrate(&[100.0]);
            let back = q.dequantize(q.quantize(v));
            prop_assert!((back - v).abs() <= q.scale() / 2.0 + 1e-6);
        }
    }
}
