//! Blocked matrix multiplication dispatched onto the shared runtime pool.
//!
//! Sparse convolution lowers to many GEMMs of shape `|map| x Cin x Cout`
//! (Algorithm 2 of the paper). This module provides one entry point,
//! [`mm_into_packed_on`]: `C += A * B` on an explicit pool, with B a
//! [`PackedB`]. Row panels run on a persistent [`ThreadPool`] — no
//! per-call thread spawning.
//!
//! The paper's batched `bmm` (§4.2) exists only in the simulated-GPU cost
//! model: the host executor streams map rows and never pads a group.
//!
//! Results are bitwise identical to the naive triple loop (same
//! accumulation order within each output element) for every thread
//! count — the panel partition is fixed by [`PANEL`], never by the lane
//! count, so scheduling cannot change the arithmetic. The tests and the
//! root crate's parallel-determinism property tests verify this.
//!
//! Arithmetic within a panel is delegated to the
//! [`microkernel`](crate::microkernel) module, which picks its kernel once
//! per process from the CPU ([`microkernel::active`]); no caller chooses.
//! B is always pre-packed into the microkernel's panel-major layout, so
//! inference never streams row-major B.

use crate::microkernel::{self, Kernel, PackedB};
use crate::{Matrix, TensorError};
use torchsparse_runtime::{Task, ThreadPool};

/// Row-panel size for parallel partitioning.
const PANEL: usize = 64;
/// Below this flop count a GEMM is executed inline: queueing tasks costs
/// more than the arithmetic. Dispatching a task costs on the order of a few
/// microseconds; this bound keeps inline only the GEMMs whose whole runtime
/// is comparable to that. On the reference host (AVX2, single core, release
/// profile) the vectorized kernel sustains 26-43 GFLOP/s on paper-shaped
/// GEMMs, so 1e6 flops is ~25-40 us of microkernel work — comfortably above
/// per-task dispatch cost (DESIGN.md §5e "Calibration" records the
/// measurement).
const MIN_PARALLEL_FLOPS: f64 = 1.0e6;

/// Options of [`mm_into_packed_on`]. It has no fields: the kernel is
/// the process's ([`microkernel::active`]), never a caller's choice. The
/// type stays so existing callers that pass `GemmOpts::default()` keep
/// compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmOpts {}

/// The panel driver of [`mm_into_packed_on`] on `kernel`: partitions C
/// into [`PANEL`]-row panels and runs the microkernel over each, inline or
/// on the pool. The partition never depends on the pool width.
fn mm_into_dispatch(pool: &ThreadPool, kernel: Kernel, a: &Matrix, b: &PackedB, c: &mut Matrix) {
    let (m, k, n) = (a.rows(), b.k(), b.n());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a_data = a.as_slice();
    let c_data = c.as_mut_slice();

    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    if pool.threads() <= 1 && !pool.is_recording() || flops < MIN_PARALLEL_FLOPS || m <= PANEL {
        for (i, panel) in c_data.chunks_mut(PANEL * n).enumerate() {
            microkernel::gemm_panel(kernel, a_data, b, k, n, i * PANEL, panel);
        }
        return;
    }
    let tasks: Vec<Task<'_>> = c_data
        .chunks_mut(PANEL * n)
        .enumerate()
        .map(|(i, panel)| {
            Box::new(move || microkernel::gemm_panel(kernel, a_data, b, k, n, i * PANEL, panel))
                as Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// `C += A * B` where B was pre-packed with [`PackedB::pack`].
///
/// The one GEMM entry point: weights are constant across frames, so every
/// layer packs its weights once, when it is constructed (a convolution's
/// kernel-offset matrices, SPVCNN's point MLPs), and every GEMM streams the
/// packed panels sequentially. Results are bitwise identical to the naive
/// triple loop over row-major B.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
pub fn mm_into_packed_on(
    pool: &ThreadPool,
    a: &Matrix,
    b: &PackedB,
    c: &mut Matrix,
    _opts: GemmOpts,
) -> Result<(), TensorError> {
    if a.cols() != b.k() {
        return Err(TensorError::ShapeMismatch { op: "mm", lhs: a.shape(), rhs: (b.k(), b.n()) });
    }
    if c.shape() != (a.rows(), b.n()) {
        return Err(TensorError::ShapeMismatch {
            op: "mm_out",
            lhs: c.shape(),
            rhs: (a.rows(), b.n()),
        });
    }
    mm_into_dispatch(pool, microkernel::active(), a, b, c);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Naive reference GEMM (triple loop) used by tests as the ground truth.
    fn mm_reference(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
        if a.cols() != b.rows() {
            return Err(TensorError::ShapeMismatch { op: "mm", lhs: a.shape(), rhs: b.shape() });
        }
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for kk in 0..a.cols() {
                let av = a[(i, kk)];
                for j in 0..b.cols() {
                    c[(i, j)] += av * b[(kk, j)];
                }
            }
        }
        Ok(c)
    }

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0f32..1.0))
    }

    /// `A * B` through the entry point, on `pool`.
    fn mm_on(pool: &ThreadPool, a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        mm_into_packed_on(pool, a, &PackedB::pack(b), &mut c, GemmOpts::default())?;
        Ok(c)
    }

    /// `A * B` through the entry point, on the global pool.
    fn mm(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
        mm_on(ThreadPool::global(), a, b)
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(&mut rng, 7, 7);
        assert_eq!(mm(&a, &Matrix::eye(7)).unwrap(), a);
        assert_eq!(mm(&Matrix::eye(7), &a).unwrap(), a);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(mm(&a, &b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn empty_dims_ok() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        assert_eq!(mm(&a, &b).unwrap().shape(), (0, 2));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        assert_eq!(mm(&a, &b).unwrap(), Matrix::zeros(2, 2));
    }

    #[test]
    fn matches_reference_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 33, 9), (130, 64, 48), (65, 300, 7)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let fast = mm(&a, &b).unwrap();
            let slow = mm_reference(&a, &b).unwrap();
            let diff = fast.max_abs_diff(&slow).unwrap();
            assert!(diff < 1e-4, "({m},{k},{n}) diff {diff}");
        }
    }

    #[test]
    fn large_parallel_path_matches_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 200, 128);
        let b = random_matrix(&mut rng, 128, 96);
        let fast = mm(&a, &b).unwrap();
        let slow = mm_reference(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn bitwise_identical_across_pool_widths() {
        // The partition is fixed by PANEL, not by lane count, so every pool
        // width computes exactly the same bits.
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 300, 200);
        let b = random_matrix(&mut rng, 200, 64);
        let serial = mm_on(&ThreadPool::new(1), &a, &b).unwrap();
        for threads in [2, 4, 8] {
            let parallel = mm_on(&ThreadPool::new(threads), &a, &b).unwrap();
            assert_eq!(
                serial.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parallel.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = PackedB::pack(&Matrix::eye(2));
        let mut c = Matrix::filled(2, 2, 10.0);
        mm_into_packed_on(ThreadPool::global(), &a, &b, &mut c, GemmOpts::default()).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 11.0, 11.0, 11.0]);
    }

    #[test]
    fn accumulate_rejects_bad_out_shape() {
        let a = Matrix::zeros(2, 2);
        let b = PackedB::pack(&Matrix::zeros(2, 2));
        let mut c = Matrix::zeros(3, 2);
        assert!(
            mm_into_packed_on(ThreadPool::global(), &a, &b, &mut c, GemmOpts::default()).is_err()
        );
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Both kernels where the CPU runs both, for the in-process sweeps.
    fn every_kernel() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Portable];
        if torchsparse_runtime::cpu_features().avx2 {
            ks.push(Kernel::Avx2);
        }
        ks
    }

    #[test]
    fn packed_mm_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let pb = PackedB::pack(&Matrix::zeros(4, 5));
        let mut c = Matrix::zeros(2, 5);
        assert!(
            mm_into_packed_on(ThreadPool::global(), &a, &pb, &mut c, GemmOpts::default()).is_err()
        );
        let pb = PackedB::pack(&Matrix::zeros(3, 5));
        let mut bad_c = Matrix::zeros(2, 4);
        assert!(mm_into_packed_on(ThreadPool::global(), &a, &pb, &mut bad_c, GemmOpts::default())
            .is_err());
    }

    #[test]
    fn packed_mm_matches_reference_bitwise_across_pool_widths() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = random_matrix(&mut rng, 300, 96);
        let b = random_matrix(&mut rng, 96, 50);
        let packed = PackedB::pack(&b);
        let reference = mm_reference(&a, &b).unwrap();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let mut c = Matrix::zeros(300, 50);
            mm_into_packed_on(&pool, &a, &packed, &mut c, GemmOpts::default()).unwrap();
            assert_eq!(bits(&c), bits(&reference), "threads={threads}");
        }
    }

    proptest! {
        /// Both kernels are **bitwise** equal to the naive reference loop on arbitrary shapes — including ragged tails
        /// (`n % 16 != 0`, `m % 4 != 0`) and degenerate k.
        #[test]
        fn prop_all_kernels_bitwise_match_reference(
            m in 1usize..80, k in 1usize..48, n in 1usize..40, seed in 0u64..1000
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let reference = mm_reference(&a, &b).unwrap();
            let packed = PackedB::pack(&b);
            let pool = ThreadPool::new(1);
            for kernel in every_kernel() {
                let mut c = Matrix::zeros(m, n);
                mm_into_dispatch(&pool, kernel, &a, &packed, &mut c);
                prop_assert!(bits(&c) == bits(&reference), "{:?}", kernel);
            }
        }

        #[test]
        fn prop_mm_matches_reference(
            m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let fast = mm(&a, &b).unwrap();
            let slow = mm_reference(&a, &b).unwrap();
            prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
        }

        #[test]
        fn prop_mm_distributes_over_addition(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b1 = random_matrix(&mut rng, k, n);
            let b2 = random_matrix(&mut rng, k, n);
            let lhs = mm(&a, &(&b1 + &b2)).unwrap();
            let rhs = &mm(&a, &b1).unwrap() + &mm(&a, &b2).unwrap();
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
        }
    }
}
