//! Trace-driven GPU cost simulator.
//!
//! The TorchSparse paper's optimizations act on four first-order quantities
//! of a CUDA device: **memory transactions** (128-byte, warp-coalesced),
//! **L2 cache reuse**, **GEMM utilization** (a strong function of workload
//! size and batching), and **kernel launch counts**. This crate models all
//! four so that the reproduction's CPU engine can *execute* sparse
//! convolutions while *accounting* what each design choice would cost on a
//! real GPU. Because the paper's evaluation reports relative speedups, a
//! simulator that preserves these mechanisms reproduces the experiment
//! shapes without CUDA.
//!
//! - [`DeviceProfile`]: published characteristics of GTX 1080 Ti /
//!   RTX 2080 Ti / RTX 3090 plus a few calibrated model parameters.
//! - [`MemorySim`]: counts memory transactions (pipeline cost) and simulates
//!   a set-associative LRU L2 over the *actual access trace* (DRAM cost).
//!   The latency of a movement phase is the max of the two — this is what
//!   makes scalar FP16 access disappointing (§4.3.1) and locality-aware
//!   ordering rewarding (§4.3.2).
//! - [`GemmModel`]: a saturating-utilization GEMM latency model reproducing
//!   the batching behaviour of Figure 7.
//! - [`Timeline`]: per-stage latency ledger used for the Figure 4 breakdown
//!   and end-to-end totals.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod cache;
mod device;
mod gemm_model;
mod memory;
mod timeline;

pub use device::DeviceProfile;
pub use gemm_model::{GemmModel, GemmShape, Precision};
pub use memory::{AccessMode, ElemWidth, MemorySim, PhaseReport};
pub use timeline::{Stage, Timeline};

/// Simulated latency in microseconds.
///
/// A plain `f64` newtype: all simulator outputs are deterministic functions
/// of the trace, so latencies are exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Micros(pub f64);

impl Micros {
    /// Zero latency.
    pub const ZERO: Micros = Micros(0.0);

    /// The wrapped value in microseconds.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Frames per second if one frame takes this long.
    ///
    /// Returns `f64::INFINITY` for zero latency.
    pub fn fps(self) -> f64 {
        1e6 / self.0
    }
}

impl std::ops::Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl std::ops::Mul<f64> for Micros {
    type Output = Micros;
    fn mul(self, rhs: f64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl std::iter::Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        Micros(iter.map(|m| m.0).sum())
    }
}

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1e3 {
            write!(f, "{:.3} ms", self.0 / 1e3)
        } else {
            write!(f, "{:.1} us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_arithmetic() {
        let a = Micros(10.0) + Micros(5.0);
        assert_eq!(a, Micros(15.0));
        let mut b = Micros(1.0);
        b += Micros(2.0);
        assert_eq!(b, Micros(3.0));
        assert_eq!(Micros(10.0) - Micros(4.0), Micros(6.0));
        assert_eq!(Micros(3.0) * 2.0, Micros(6.0));
    }

    #[test]
    fn micros_sum() {
        let total: Micros = [Micros(1.0), Micros(2.0), Micros(3.0)].into_iter().sum();
        assert_eq!(total, Micros(6.0));
    }

    #[test]
    fn micros_fps() {
        assert!((Micros(100_000.0).fps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn micros_display() {
        assert_eq!(Micros(500.0).to_string(), "500.0 us");
        assert_eq!(Micros(2500.0).to_string(), "2.500 ms");
    }
}
