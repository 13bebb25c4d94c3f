//! Feature quantization (§4.3.1 of the paper).
//!
//! TorchSparse stores features in FP16 to halve DRAM traffic. INT8 is
//! investigated and rejected because scatter reduction needs ≥16-bit
//! intermediates; that verdict is a cost-model result (`Engine::price`),
//! so only the FP16 storage pass runs on the host:
//! [`round_trip_f16_in_place`], the "simulate FP16 storage" pass over a
//! whole [`Matrix`].

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

    proptest! {
        #[test]
        fn prop_f16_error_bounded(v in -60000.0f32..60000.0) {
            let h = Half::from_f32(v);
            let err = (h.to_f32() - v).abs();
            // Relative error for normals, absolute bound near zero.
            prop_assert!(err <= v.abs() / 1024.0 + 1e-7, "v={v} err={err}");
        }
    }
}
