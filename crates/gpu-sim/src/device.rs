/// Characteristics of a simulated NVIDIA GPU.
///
/// The published numbers (peak TFLOP/s, DRAM bandwidth, L2 capacity) come
/// straight from vendor datasheets for the three devices the paper evaluates
/// on. The remaining fields are *model parameters* calibrated once so the
/// simulator reproduces the paper's measured utilization anchors (e.g. the
/// separate-matmul baseline running at ~30% utilization on RTX 2080 Ti,
/// §3 Principle I); they are never tuned per experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name, e.g. `"RTX 3090"`.
    pub name: String,
    /// Peak FP32 GEMM throughput achievable by a saturating kernel, TFLOP/s.
    pub fp32_tflops: f64,
    /// Peak FP16 GEMM throughput, TFLOP/s. Devices without FP16 tensor cores
    /// (GTX 1080 Ti) get the FP32 figure — the paper leans on this to show
    /// its gains are not tensor-core artifacts (§5.2).
    pub fp16_tflops: f64,
    /// DRAM bandwidth, GB/s.
    pub dram_gbs: f64,
    /// Memory-transaction pipeline bandwidth as a multiple of DRAM bandwidth.
    ///
    /// Calibrated so that scalar FP16 scatter/gather lands at the paper's
    /// observed ~1.3x (not the naive 2x) over FP32 while vectorized FP16
    /// reaches ~1.9x (§4.3.1, Table 3 rows 2-3).
    pub xact_bandwidth_ratio: f64,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity (ways per set); lines are 128 bytes.
    pub l2_ways: usize,
    /// Effective per-kernel launch overhead in a busy stream (launches
    /// pipeline asynchronously, so this is the inter-kernel gap, not the
    /// full CPU-side launch cost), microseconds.
    pub launch_overhead_us: f64,
    /// Maximum fraction of peak a GEMM ever reaches on sparse-conv shapes.
    pub gemm_util_max: f64,
    /// GEMM rows at which utilization reaches half of `gemm_util_max`
    /// (the knee of the Figure 7 curve).
    pub gemm_rows_half: f64,
}

impl DeviceProfile {
    /// NVIDIA GTX 1080 Ti (Pascal): no FP16 tensor cores.
    pub fn gtx_1080ti() -> DeviceProfile {
        DeviceProfile {
            name: "GTX 1080Ti".to_owned(),
            fp32_tflops: 11.3,
            fp16_tflops: 11.3, // Pascal FP16 offers no GEMM speedup
            dram_gbs: 484.0,
            xact_bandwidth_ratio: 1.35,
            l2_bytes: 2_752 * 1024,
            l2_ways: 16,
            launch_overhead_us: 2.0,
            gemm_util_max: 0.85,
            gemm_rows_half: 6_000.0,
        }
    }

    /// NVIDIA RTX 2080 Ti (Turing): FP16 tensor cores, 5.5 MB L2.
    pub fn rtx_2080ti() -> DeviceProfile {
        DeviceProfile {
            name: "RTX 2080Ti".to_owned(),
            fp32_tflops: 13.4,
            // Effective FP16 GEMM peak for the memory-adjacent shapes of
            // sparse convolution; calibrated against the paper's anchor of
            // 8.1 TFLOP/s at ~30% utilization (§3).
            fp16_tflops: 26.9,
            dram_gbs: 616.0,
            xact_bandwidth_ratio: 1.35,
            l2_bytes: 5_632 * 1024,
            l2_ways: 16,
            launch_overhead_us: 1.5,
            gemm_util_max: 0.85,
            gemm_rows_half: 8_500.0,
        }
    }

    /// NVIDIA RTX 3090 (Ampere): highest bandwidth and FLOPs of the trio.
    pub fn rtx_3090() -> DeviceProfile {
        DeviceProfile {
            name: "RTX 3090".to_owned(),
            fp32_tflops: 35.6,
            fp16_tflops: 71.0,
            dram_gbs: 936.0,
            xact_bandwidth_ratio: 1.35,
            l2_bytes: 6_144 * 1024,
            l2_ways: 16,
            launch_overhead_us: 1.2,
            gemm_util_max: 0.85,
            gemm_rows_half: 15_000.0,
        }
    }

    /// All three evaluation devices, in the paper's order.
    pub fn evaluation_devices() -> Vec<DeviceProfile> {
        vec![Self::gtx_1080ti(), Self::rtx_2080ti(), Self::rtx_3090()]
    }

    /// Whether FP16 GEMM is faster than FP32 on this device.
    #[cfg(test)]
    pub(crate) fn has_fp16_gemm(&self) -> bool {
        self.fp16_tflops > self.fp32_tflops
    }

    /// Number of 128-byte L2 cache lines.
    #[cfg(test)]
    pub(crate) fn l2_lines(&self) -> usize {
        (self.l2_bytes / 128) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_generation() {
        let p = DeviceProfile::gtx_1080ti();
        let t = DeviceProfile::rtx_2080ti();
        let a = DeviceProfile::rtx_3090();
        assert!(p.fp32_tflops < t.fp32_tflops && t.fp32_tflops < a.fp32_tflops);
        assert!(p.dram_gbs < t.dram_gbs && t.dram_gbs < a.dram_gbs);
        assert!(p.l2_bytes < t.l2_bytes && t.l2_bytes < a.l2_bytes);
    }

    #[test]
    fn pascal_has_no_fp16_speedup() {
        assert!(!DeviceProfile::gtx_1080ti().has_fp16_gemm());
        assert!(DeviceProfile::rtx_2080ti().has_fp16_gemm());
        assert!(DeviceProfile::rtx_3090().has_fp16_gemm());
    }

    #[test]
    fn l2_line_count() {
        assert_eq!(DeviceProfile::rtx_2080ti().l2_lines(), 5_632 * 1024 / 128);
    }

    #[test]
    fn evaluation_devices_are_three() {
        assert_eq!(DeviceProfile::evaluation_devices().len(), 3);
    }
}
