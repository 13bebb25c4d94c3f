//! GEMM latency model (§3 Principle I, §4.2, Figure 7).
//!
//! Matrix multiplication on a GPU only approaches peak throughput when the
//! workload offers enough parallel tiles to fill every SM. Sparse
//! convolution's per-offset GEMMs are *small* (tens of thousands of rows,
//! 16-256 channels), so the paper measures only ~30% utilization for the
//! separate-matmul baseline and shows that batching restores regularity.
//!
//! We model utilization with a saturating curve in the *effective row count*
//! (rows x batch for bmm): `util(r) = util_max * r / (r + rows_half)`,
//! attenuated for very narrow channel dimensions. The two parameters live in
//! [`DeviceProfile`] and are calibrated once against the paper's anchors
//! (8.1 TFLOP/s separate / 11.9 TFLOP/s adaptive on RTX 2080 Ti, Table 2).

use crate::{DeviceProfile, Micros};

/// Numeric precision of a GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit floating point.
    Fp32,
    /// 16-bit storage with FP32 accumulation (tensor-core style).
    Fp16,
}

/// Shape of a (possibly batched) GEMM: `batch x (m x k) . (k x n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of the left operand (map entries for sparse conv).
    pub m: usize,
    /// Reduction dimension (input channels).
    pub k: usize,
    /// Columns of the right operand (output channels).
    pub n: usize,
    /// Batch count (1 for a plain `mm`).
    pub batch: usize,
}

impl GemmShape {
    /// A single (non-batched) GEMM.
    pub fn mm(m: usize, k: usize, n: usize) -> GemmShape {
        GemmShape { m, k, n, batch: 1 }
    }

    /// A batched GEMM of `batch` equal problems.
    pub fn bmm(batch: usize, m: usize, k: usize, n: usize) -> GemmShape {
        GemmShape { m, k, n, batch }
    }

    /// Total floating point operations (2mnk per problem).
    pub fn flops(&self) -> f64 {
        2.0 * self.batch as f64 * self.m as f64 * self.k as f64 * self.n as f64
    }
}

/// The GEMM latency model for one device.
#[derive(Debug, Clone)]
pub struct GemmModel {
    device: DeviceProfile,
}

impl GemmModel {
    /// Creates a model for `device`.
    pub fn new(device: DeviceProfile) -> GemmModel {
        GemmModel { device }
    }

    /// The device this model simulates.
    #[cfg(test)]
    pub(crate) fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Peak throughput for a precision, TFLOP/s.
    pub fn peak_tflops(&self, precision: Precision) -> f64 {
        match precision {
            Precision::Fp32 => self.device.fp32_tflops,
            Precision::Fp16 => self.device.fp16_tflops,
        }
    }

    /// Modeled utilization in `(0, util_max]` for a shape.
    ///
    /// Batched problems contribute their full row count to the parallelism
    /// pool — this is why `bmm` over many small maps beats sequential `mm`
    /// (Figure 7) even though each sub-problem is unchanged.
    pub fn utilization(&self, shape: GemmShape) -> f64 {
        let rows = (shape.m * shape.batch) as f64;
        if rows == 0.0 {
            return 0.0;
        }
        let width = shape.k.min(shape.n) as f64;
        // Wide-channel GEMMs expose extra tile parallelism along n/k, so
        // they saturate at fewer rows (a 256-channel layer with 2k rows is
        // a perfectly healthy cuBLAS problem).
        let width_credit = (width / 64.0).clamp(1.0, 4.0);
        let row_util = rows * width_credit / (rows * width_credit + self.device.gemm_rows_half);
        // Narrow channel dimensions cannot fill a tile's k/n extents.
        let channel_util = (width / 64.0).min(1.0);
        self.device.gemm_util_max * row_util * channel_util.max(0.25)
    }

    /// Achieved throughput for a shape, TFLOP/s.
    pub(crate) fn achieved_tflops(&self, shape: GemmShape, precision: Precision) -> f64 {
        self.peak_tflops(precision) * self.utilization(shape)
    }

    /// Latency of one kernel executing `shape`, including launch overhead.
    pub fn latency(&self, shape: GemmShape, precision: Precision) -> Micros {
        let launch = Micros(self.device.launch_overhead_us);
        if shape.flops() == 0.0 {
            return launch;
        }
        let tflops = self.achieved_tflops(shape, precision);
        // flops / (TFLOP/s) = picoseconds * flops; convert to microseconds.
        let compute_us = shape.flops() / (tflops * 1e6);
        launch + Micros(compute_us)
    }

    /// Latency of running each shape as its own kernel (the separate
    /// baseline of Figure 6b: one launch per weight offset).
    #[cfg(test)]
    pub(crate) fn sequential_latency(&self, shapes: &[GemmShape], precision: Precision) -> Micros {
        shapes.iter().map(|&s| self.latency(s, precision)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GemmModel {
        GemmModel::new(DeviceProfile::rtx_2080ti())
    }

    #[test]
    fn flops_counting() {
        assert_eq!(GemmShape::mm(10, 20, 30).flops(), 12_000.0);
        assert_eq!(GemmShape::bmm(2, 10, 20, 30).flops(), 24_000.0);
    }

    #[test]
    fn utilization_increases_with_rows() {
        let m = model();
        let small = m.utilization(GemmShape::mm(1_000, 64, 64));
        let large = m.utilization(GemmShape::mm(1_000_000, 64, 64));
        assert!(small < large);
        assert!(large <= m.device().gemm_util_max);
    }

    #[test]
    fn batching_raises_utilization() {
        // The Figure 7 mechanism: same per-problem size, more batch, more
        // utilization.
        let m = model();
        let separate = m.utilization(GemmShape::mm(20_000, 32, 32));
        let batched = m.utilization(GemmShape::bmm(13, 20_000, 32, 32));
        assert!(batched > separate * 1.3);
    }

    #[test]
    fn figure7_speedup_band() {
        // 26 equal maps of ~60k rows (a MinkUNet first-layer workload on
        // SemanticKITTI, Figure 12), C=32: batching everything in one bmm
        // should land in the paper's ~1.2-1.6x band over sequential mm
        // (Figure 7 shows ~1.5x at full batch).
        let m = model();
        let shapes: Vec<GemmShape> = (0..26).map(|_| GemmShape::mm(60_000, 32, 32)).collect();
        let separate = m.sequential_latency(&shapes, Precision::Fp16);
        let batched = m.latency(GemmShape::bmm(26, 60_000, 32, 32), Precision::Fp16);
        let speedup = separate.as_f64() / batched.as_f64();
        assert!((1.2..1.7).contains(&speedup), "batching speedup {speedup} off the Figure 7 band");
    }

    #[test]
    fn table2_utilization_anchors() {
        // Table 2 (SemanticKITTI column): separate matmul at ~8.1 TFLOP/s,
        // adaptive grouping at ~11.9 TFLOP/s on RTX 2080 Ti with FP16.
        let m = model();
        let separate = m.achieved_tflops(GemmShape::mm(60_000, 32, 32), Precision::Fp16);
        assert!((6.0..11.0).contains(&separate), "separate anchor {separate} TFLOP/s off");
        let grouped = m.achieved_tflops(GemmShape::bmm(26, 60_000, 32, 32), Precision::Fp16);
        assert!((10.0..13.5).contains(&grouped), "grouped anchor {grouped} TFLOP/s off");
    }

    #[test]
    fn separate_baseline_utilization_anchor() {
        // §3: MinkUNet (0.5x) separate matmul achieves ~30% utilization on
        // RTX 2080 Ti. A typical first-layer per-offset map has ~30-60k rows
        // at C=32.
        let m = model();
        let util = m.utilization(GemmShape::mm(45_000, 32, 32));
        assert!((0.15..0.45).contains(&util), "baseline utilization {util} out of band");
    }

    #[test]
    fn fp16_faster_only_with_tensor_cores() {
        let shape = GemmShape::mm(100_000, 64, 64);
        let turing = GemmModel::new(DeviceProfile::rtx_2080ti());
        assert!(turing.latency(shape, Precision::Fp16) < turing.latency(shape, Precision::Fp32));
        let pascal = GemmModel::new(DeviceProfile::gtx_1080ti());
        assert_eq!(pascal.latency(shape, Precision::Fp16), pascal.latency(shape, Precision::Fp32));
    }

    #[test]
    fn empty_shape_costs_launch_only() {
        let m = model();
        let lat = m.latency(GemmShape::mm(0, 32, 32), Precision::Fp32);
        assert_eq!(lat.as_f64(), m.device().launch_overhead_us);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        // Many tiny kernels are slower than one fused kernel even at equal
        // FLOPs — the reason excessive kernel calls hurt (Figure 6b).
        let m = model();
        let tiny: Vec<GemmShape> = (0..27).map(|_| GemmShape::mm(100, 16, 16)).collect();
        let fused = m.latency(GemmShape::bmm(27, 100, 16, 16), Precision::Fp32);
        let separate = m.sequential_latency(&tiny, Precision::Fp32);
        assert!(separate.as_f64() > 3.0 * fused.as_f64());
    }

    #[test]
    fn narrow_channels_penalized() {
        let m = model();
        let narrow = m.utilization(GemmShape::mm(100_000, 4, 4));
        let wide = m.utilization(GemmShape::mm(100_000, 128, 128));
        assert!(narrow < wide);
    }
}
