//! Dense linear-algebra substrate for the TorchSparse reproduction.
//!
//! The TorchSparse paper (MLSys 2022) builds sparse convolution out of dense
//! primitives: matrix multiplication (`mm`), batched matrix multiplication
//! (`bmm`), and half-precision feature storage. On the authors' testbed these
//! are provided by cuBLAS/cuDNN; here we provide portable, well-tested CPU
//! implementations of the ones the host executor runs (batching is a
//! property of the simulated GPU's cost model only):
//!
//! - [`Matrix`]: a row-major `f32` matrix with the shape/indexing conventions
//!   of a feature buffer (`rows` = points, `cols` = channels).
//! - [`gemm`]: multi-threaded single-precision GEMM against a pre-packed
//!   B, driven through the fused gather–GEMM–scatter kernel over identity
//!   rows.
//! - [`Half`]: software IEEE-754 binary16 with round-to-nearest-even, used to
//!   reproduce the FP16 quantization study (§4.3.1, Table 3).
//! - [`quant`]: the FP16 feature-storage round trip (INT8 is priced by the
//!   cost model only, never run).
//! - [`microkernel`]: the one GEMM kernel, fused gather–GEMM–scatter, and
//!   the precision sweeps (AVX2 with a portable fallback, picked once per
//!   process from the CPU) plus the [`PackedB`] panel-major weight layout,
//!   the one B operand every GEMM reads.
//! - [`dense`]: a dense volumetric 3D convolution used **only** as a
//!   correctness oracle for the sparse engine's property tests.
//!
//! # Example
//!
//! ```
//! use torchsparse_runtime::ThreadPool;
//! use torchsparse_tensor::gemm::{mm_into_packed_on, GemmOpts};
//! use torchsparse_tensor::{Matrix, PackedB};
//!
//! # fn main() -> Result<(), torchsparse_tensor::TensorError> {
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! // Weights are packed once, then reused by every GEMM.
//! let b = PackedB::pack(&Matrix::eye(3));
//! let mut c = Matrix::zeros(2, 3);
//! mm_into_packed_on(ThreadPool::global(), &a, &b, &mut c, GemmOpts::default())?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `microkernel::x86` submodule opts back in
// (locally, with per-call safety comments) for `std::arch` intrinsics. All
// other modules remain unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod half;
mod matrix;

pub mod dense;
pub mod gemm;
pub mod microkernel;
pub mod quant;

pub use error::TensorError;
pub use half::Half;
pub use matrix::Matrix;
pub use microkernel::PackedB;
