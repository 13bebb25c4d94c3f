//! Plain matrix multiplication on the shared runtime pool, through the one
//! GEMM kernel.
//!
//! Sparse convolution lowers to many GEMMs of shape `|map| x Cin x Cout`
//! (Algorithm 2 of the paper), which the convolution executor streams
//! through the fused gather–GEMM–scatter kernel
//! ([`microkernel::gemm_gather_scatter`]). This module provides one entry
//! point for a plain GEMM, [`mm_into_packed_on`]: `C += A * B` on an
//! explicit pool, with B a [`PackedB`]. It drives that same kernel over
//! identity rows — each [`PANEL`]-row panel of C gathers its own rows of A
//! and scatters into itself — on a persistent [`ThreadPool`], with no
//! per-call thread spawning. One kernel family serves every GEMM.
//!
//! The paper's batched `bmm` (§4.2) exists only in the simulated-GPU cost
//! model: the host executor streams map rows and never pads a group.
//!
//! Results are bitwise identical for every thread count — the panel
//! partition is fixed by [`PANEL`], never by the lane count, so scheduling
//! cannot change the arithmetic — and, on a zeroed C, to the naive triple
//! loop. The tests and the root crate's parallel-determinism property tests
//! verify this. The kernel's instruction set is the process's, picked once
//! from the CPU ([`microkernel::active`]); no caller chooses.

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

/// Options of [`mm_into_packed_on`]. It has no fields: there is one kernel,
/// the fused one every convolution runs, on the process's instruction set
/// ([`microkernel::active`]), never a caller's choice. The type stays so
/// existing callers that pass `GemmOpts::default()` keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmOpts {}

/// The panel driver of [`mm_into_packed_on`] on `kernel`: partitions C
/// into [`PANEL`]-row panels and runs the fused kernel over each panel's
/// identity rows, inline or on the pool. The partition never depends on
/// the pool width.
fn mm_into_dispatch(pool: &ThreadPool, kernel: Kernel, a: &Matrix, b: &PackedB, c: &mut Matrix) {
    let (m, k, n) = (a.rows(), b.k(), b.n());
    if m == 0 || n == 0 {
        return;
    }
    let a_data = a.as_slice();
    // A panel's gather and scatter rows, counted from its first row.
    let identity: [u32; PANEL] = std::array::from_fn(|i| i as u32);
    let panel = |i: usize, c_panel: &mut [f32]| {
        let rows = &identity[..c_panel.len() / n];
        let a_panel = &a_data[i * PANEL * k..(i * PANEL + rows.len()) * k];
        microkernel::gather_scatter_with(kernel, a_panel, k, rows, b, n, false, c_panel, rows);
    };
    let panels = c.as_mut_slice().chunks_mut(PANEL * n).enumerate();

    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    if pool.threads() <= 1 && !pool.is_recording() || flops < MIN_PARALLEL_FLOPS || m <= PANEL {
        for (i, c_panel) in panels {
            panel(i, c_panel);
        }
        return;
    }
    let panel = &panel;
    let tasks: Vec<Task<'_>> =
        panels.map(|(i, c_panel)| Box::new(move || panel(i, c_panel)) as Task<'_>).collect();
    pool.run(tasks);
}

/// `C += A * B` where B was pre-packed with [`PackedB::pack`].
///
/// The one plain-GEMM entry point: weights are constant across frames, so
/// every layer packs its weights once, when it is constructed, and every
/// GEMM streams the packed panels sequentially.
///
/// Each element of C takes one add: the `k`-ascending dot product of its
/// A row and B column, formed from `+0.0` with multiply-then-add and the
/// `a == 0.0` terms skipped. On a zeroed C the result is therefore bitwise
/// the naive triple loop's. On a non-zero C it is "C plus a dot product
/// formed from zero", not term-by-term accumulation into C; a `-0.0` in C
/// becomes `+0.0` where the row of A is all zeros.
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

    /// The restated contract: C plus a product formed from zero, one add per
    /// element — not term-by-term accumulation into C — so a `-0.0` in C
    /// becomes `+0.0` where the row of A is all zeros. Two panels, both
    /// kernels.
    #[test]
    fn adds_a_product_formed_from_zero_onto_existing_c() {
        let mut rng = StdRng::seed_from_u64(5);
        let (m, k, n) = (PANEL + 6, 40, 20);
        let mut a = random_matrix(&mut rng, m, k);
        a.row_mut(3).fill(0.0);
        a.row_mut(PANEL + 2).fill(-0.0);
        let b = random_matrix(&mut rng, k, n);
        let mut seed = Matrix::from_fn(m, n, |_, _| rng.random_range(-1e3f32..1e3));
        seed.row_mut(3).fill(-0.0);
        seed.row_mut(PANEL + 2).fill(-0.0);
        let product = mm_reference(&a, &b).unwrap();
        let expect = Matrix::from_fn(m, n, |i, j| seed[(i, j)] + product[(i, j)]);
        let mut term_by_term = seed.clone();
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    term_by_term[(i, j)] += a[(i, kk)] * b[(kk, j)];
                }
            }
        }
        assert_ne!(bits(&expect), bits(&term_by_term), "the two contracts differ here");
        let packed = PackedB::pack(&b);
        for kernel in every_kernel() {
            let mut c = seed.clone();
            mm_into_dispatch(&ThreadPool::new(1), kernel, &a, &packed, &mut c);
            assert_eq!(bits(&c), bits(&expect), "{kernel:?}");
            for r in [3, PANEL + 2] {
                assert!(c.row(r).iter().all(|v| v.to_bits() == 0), "{kernel:?} row {r}: +0.0");
            }
        }
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
