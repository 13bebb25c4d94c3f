//! The memory-movement cost model (§4.3 of the paper).
//!
//! Two costs bound a scatter/gather phase:
//!
//! 1. **Transaction pipeline**: every warp-level memory operation occupies a
//!    128-byte transaction slot regardless of how many useful bytes it
//!    carries. A warp of 32 threads issuing scalar FP16 (2-byte) accesses
//!    uses only 64/128 = 50% of its transaction (§4.3.1, Figure 8a), so the
//!    transaction count does not drop when switching FP32→FP16 — only
//!    *vectorized* FP16 (each thread moving 2 halves) restores 100%
//!    utilization and halves the count (Figure 8b).
//! 2. **DRAM traffic**: fetches on read misses plus write-backs of dirtied
//!    lines, at 32-byte sector granularity, simulated over the actual
//!    access trace by [`L2Cache`].
//!
//! The phase latency is the max of the two; which one binds is precisely
//! what the paper's Table 3 ablation explores.

use crate::cache::{L2Cache, LINE_BYTES};
use crate::{DeviceProfile, Micros};

/// Storage width of one feature element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemWidth {
    /// 32-bit float.
    F32,
    /// 16-bit float (the paper's quantized features).
    F16,
    /// 8-bit integer (investigated and found unhelpful for scatter, §4.3.1).
    I8,
}

impl ElemWidth {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            ElemWidth::F32 => 4,
            ElemWidth::F16 => 2,
            ElemWidth::I8 => 1,
        }
    }
}

/// How a kernel's threads issue memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessMode {
    /// Element storage width.
    pub elem: ElemWidth,
    /// Elements moved per thread per instruction (1 = scalar; 2 = the
    /// paper's vectorized FP16 access via `half2`).
    pub vector_width: u64,
}

impl AccessMode {
    /// Scalar FP32 access (the all-baseline configuration).
    pub fn scalar_f32() -> AccessMode {
        AccessMode { elem: ElemWidth::F32, vector_width: 1 }
    }

    /// Scalar FP16 access: half the bytes but 50%-utilized transactions.
    #[cfg(test)]
    pub(crate) fn scalar_f16() -> AccessMode {
        AccessMode { elem: ElemWidth::F16, vector_width: 1 }
    }

    /// Vectorized FP16 access (`half2`): full transactions, half the count.
    #[cfg(test)]
    pub(crate) fn vectorized_f16() -> AccessMode {
        AccessMode { elem: ElemWidth::F16, vector_width: 2 }
    }

    /// Useful bytes one 128-byte transaction carries under this mode:
    /// `min(128, 32 threads x elem x vector_width)`.
    pub(crate) fn useful_bytes_per_transaction(self) -> u64 {
        (32 * self.elem.bytes() * self.vector_width).min(LINE_BYTES)
    }

    /// Transaction utilization in `(0, 1]`.
    #[cfg(test)]
    pub(crate) fn utilization(self) -> f64 {
        self.useful_bytes_per_transaction() as f64 / LINE_BYTES as f64
    }
}

/// Accumulated cost of one memory-movement phase (one gather, one scatter,
/// or a fused run of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Useful bytes the kernel asked to move.
    pub useful_bytes: u64,
    /// 128-byte transactions issued.
    pub transactions: u64,
    /// DRAM bytes fetched on read misses (32-byte sector granularity).
    pub dram_fetched: u64,
    /// DRAM bytes written back from dirtied lines.
    pub dram_written_back: u64,
    /// L2 line hits.
    pub l2_hits: u64,
    /// L2 line misses.
    pub l2_misses: u64,
}

impl PhaseReport {
    /// Total DRAM bytes transferred (fetches + write-backs).
    pub(crate) fn dram_bytes(&self) -> u64 {
        self.dram_fetched + self.dram_written_back
    }

    /// Latency on `device`: max of transaction-pipeline time and DRAM time.
    pub fn latency(&self, device: &DeviceProfile) -> Micros {
        let xact_bw = device.dram_gbs * device.xact_bandwidth_ratio; // GB/s
        let xact_us = (self.transactions * LINE_BYTES) as f64 / (xact_bw * 1e3);
        let dram_us = self.dram_bytes() as f64 / (device.dram_gbs * 1e3);
        Micros(xact_us.max(dram_us))
    }

    /// Merges another report into this one.
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: PhaseReport) {
        self.useful_bytes += other.useful_bytes;
        self.transactions += other.transactions;
        self.dram_fetched += other.dram_fetched;
        self.dram_written_back += other.dram_written_back;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
    }
}

/// The trace-driven memory simulator: transaction accounting plus an L2
/// cache replayed over the engine's actual access addresses.
///
/// The engine allocates disjoint address ranges for its buffers (input
/// features, gather buffer, scatter buffer, output features) via
/// [`MemorySim::alloc`], then calls [`MemorySim::read`]/[`MemorySim::write`]
/// in exactly the order its CUDA kernels would touch memory. Phase
/// boundaries ([`MemorySim::take_report`]) let the caller attribute costs.
///
/// # Example
///
/// ```
/// use torchsparse_gpusim::{AccessMode, DeviceProfile, MemorySim};
///
/// let device = DeviceProfile::rtx_2080ti();
/// let mut sim = MemorySim::new(&device);
/// let buf = sim.alloc(1024);
/// sim.write(buf, 0, 512, AccessMode::scalar_f32());
/// sim.read(buf, 0, 512, AccessMode::scalar_f32());
/// let report = sim.take_report();
/// assert!(report.l2_hits > 0); // the read hits lines the write allocated
/// ```
#[derive(Debug)]
pub struct MemorySim {
    cache: L2Cache,
    report: PhaseReport,
    next_base: u64,
}

impl MemorySim {
    /// Creates a simulator with the device's L2 configuration.
    pub fn new(device: &DeviceProfile) -> MemorySim {
        MemorySim {
            cache: L2Cache::new(device.l2_bytes, device.l2_ways),
            report: PhaseReport::default(),
            next_base: 0,
        }
    }

    /// Allocates a buffer of `bytes` and returns its base address.
    ///
    /// Buffers are laid out contiguously with line alignment, like a GPU
    /// memory-pool allocator.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_base;
        let aligned = bytes.div_ceil(LINE_BYTES) * LINE_BYTES;
        self.next_base += aligned.max(LINE_BYTES);
        base
    }

    fn account(&mut self, addr: u64, bytes: u64, mode: AccessMode, is_write: bool) {
        if bytes == 0 {
            return;
        }
        self.report.useful_bytes += bytes;
        let per_xact = mode.useful_bytes_per_transaction();
        self.report.transactions += bytes.div_ceil(per_xact);
        let (missed, traffic) = self.cache.access_range_rw(addr, bytes, is_write);
        let touched = {
            let first = addr / LINE_BYTES;
            let last = (addr + bytes - 1) / LINE_BYTES;
            last - first + 1
        };
        self.report.dram_fetched += traffic.fetched;
        self.report.dram_written_back += traffic.written_back;
        self.report.l2_misses += missed;
        self.report.l2_hits += touched - missed;
    }

    /// Records a read of `[base + offset, base + offset + bytes)`.
    pub fn read(&mut self, base: u64, offset: u64, bytes: u64, mode: AccessMode) {
        self.account(base + offset, bytes, mode, false);
    }

    /// Records a write (write-allocate, no read-for-ownership; the eventual
    /// write-back is charged on the clean-to-dirty transition).
    pub fn write(&mut self, base: u64, offset: u64, bytes: u64, mode: AccessMode) {
        self.account(base + offset, bytes, mode, true);
    }

    /// Streams unrelated traffic through the L2 (models cache pollution by
    /// a GEMM between movement phases) without charging the current phase.
    pub fn pollute_cache(&mut self, bytes: u64) {
        self.cache.pollute(bytes);
    }

    /// Returns the report accumulated since the last call and resets it.
    /// The L2 contents persist across phases (that is the point).
    pub fn take_report(&mut self) -> PhaseReport {
        std::mem::take(&mut self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceProfile {
        DeviceProfile::rtx_2080ti()
    }

    #[test]
    fn access_mode_utilization() {
        assert_eq!(AccessMode::scalar_f32().useful_bytes_per_transaction(), 128);
        assert_eq!(AccessMode::scalar_f16().useful_bytes_per_transaction(), 64);
        assert_eq!(AccessMode::vectorized_f16().useful_bytes_per_transaction(), 128);
        assert!((AccessMode::scalar_f16().utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scalar_f16_moves_half_bytes_same_transactions() {
        // The §4.3.1 phenomenon: same element count, FP16 scalar issues the
        // same number of transactions as FP32.
        let dev = device();
        let elems: u64 = 1 << 20;

        let mut sim32 = MemorySim::new(&dev);
        let b32 = sim32.alloc(elems * 4);
        sim32.read(b32, 0, elems * 4, AccessMode::scalar_f32());
        let r32 = sim32.take_report();

        let mut sim16 = MemorySim::new(&dev);
        let b16 = sim16.alloc(elems * 2);
        sim16.read(b16, 0, elems * 2, AccessMode::scalar_f16());
        let r16 = sim16.take_report();

        assert_eq!(r32.transactions, r16.transactions);
        assert_eq!(r16.useful_bytes * 2, r32.useful_bytes);
        assert_eq!(r16.dram_fetched * 2, r32.dram_fetched, "DRAM fetch halves with FP16");
    }

    #[test]
    fn vectorized_f16_halves_transactions() {
        let dev = device();
        let elems: u64 = 1 << 20;
        let mut sim = MemorySim::new(&dev);
        let b = sim.alloc(elems * 2);
        sim.read(b, 0, elems * 2, AccessMode::scalar_f16());
        let scalar = sim.take_report();
        let mut sim = MemorySim::new(&dev);
        let b = sim.alloc(elems * 2);
        sim.read(b, 0, elems * 2, AccessMode::vectorized_f16());
        let vec = sim.take_report();
        assert_eq!(vec.transactions * 2, scalar.transactions);
    }

    #[test]
    fn table3_speedup_shape() {
        // Cold streaming access (no reuse): FP32 -> scalar FP16 should give a
        // modest speedup (~1.35x with the calibrated transaction ratio),
        // while vectorized FP16 approaches 2x — the paper's Table 3 rows 1-3.
        let dev = device();
        let elems: u64 = 8 << 20; // far larger than L2

        let run = |mode: AccessMode, bytes_per_elem: u64| {
            let mut sim = MemorySim::new(&dev);
            let b = sim.alloc(elems * bytes_per_elem);
            sim.read(b, 0, elems * bytes_per_elem, mode);
            sim.take_report().latency(&dev).as_f64()
        };

        let fp32 = run(AccessMode::scalar_f32(), 4);
        let fp16_scalar = run(AccessMode::scalar_f16(), 2);
        let fp16_vec = run(AccessMode::vectorized_f16(), 2);

        let s_scalar = fp32 / fp16_scalar;
        let s_vec = fp32 / fp16_vec;
        assert!(
            (1.1..1.6).contains(&s_scalar),
            "scalar FP16 speedup {s_scalar} out of the paper's band"
        );
        assert!((1.8..2.05).contains(&s_vec), "vectorized FP16 speedup {s_vec} off");
        assert!(s_vec > s_scalar);
    }

    #[test]
    fn rmw_pattern_charges_fetch_and_writeback() {
        // Weight-stationary scatter: read-modify-write of output rows.
        let dev = device();
        let mut sim = MemorySim::new(&dev);
        let b = sim.alloc(1 << 20);
        sim.read(b, 0, 128, AccessMode::scalar_f32());
        sim.write(b, 0, 128, AccessMode::scalar_f32());
        let r = sim.take_report();
        assert_eq!(r.dram_fetched, 128);
        assert_eq!(r.dram_written_back, 128);
        assert_eq!(r.dram_bytes(), 256);
    }

    #[test]
    fn streaming_write_does_not_fetch() {
        let dev = device();
        let mut sim = MemorySim::new(&dev);
        let b = sim.alloc(1 << 20);
        sim.write(b, 0, 1 << 20, AccessMode::scalar_f32());
        let r = sim.take_report();
        assert_eq!(r.dram_fetched, 0);
        assert_eq!(r.dram_written_back, 1 << 20);
    }

    #[test]
    fn cache_reuse_cuts_dram() {
        let dev = device();
        let mut sim = MemorySim::new(&dev);
        let b = sim.alloc(4096);
        sim.read(b, 0, 4096, AccessMode::scalar_f32());
        let cold = sim.take_report();
        sim.read(b, 0, 4096, AccessMode::scalar_f32());
        let warm = sim.take_report();
        assert_eq!(cold.dram_fetched, 4096);
        assert_eq!(warm.dram_bytes(), 0);
        assert_eq!(warm.l2_hits, 32);
        // Warm access is still transaction-bound, not free.
        assert!(warm.latency(&dev) > Micros::ZERO);
        assert!(warm.latency(&dev) < cold.latency(&dev));
    }

    #[test]
    fn pollution_not_charged_but_evicts() {
        let dev = device();
        let mut sim = MemorySim::new(&dev);
        let b = sim.alloc(4096);
        sim.read(b, 0, 4096, AccessMode::scalar_f32());
        sim.take_report();
        sim.pollute_cache(8 * dev.l2_bytes);
        let polluted_report = sim.take_report();
        assert_eq!(polluted_report.transactions, 0, "pollution is free for the phase");
        sim.read(b, 0, 4096, AccessMode::scalar_f32());
        let after = sim.take_report();
        assert_eq!(after.dram_fetched, 4096, "pollution must have evicted the buffer");
    }

    #[test]
    fn alloc_is_disjoint_and_aligned() {
        let dev = device();
        let mut sim = MemorySim::new(&dev);
        let a = sim.alloc(100);
        let b = sim.alloc(1);
        let c = sim.alloc(129);
        assert_eq!(a % 128, 0);
        assert_eq!(b % 128, 0);
        assert!(b >= a + 128);
        assert!(c >= b + 128);
    }

    #[test]
    fn zero_byte_access_is_free() {
        let dev = device();
        let mut sim = MemorySim::new(&dev);
        let b = sim.alloc(128);
        sim.read(b, 0, 0, AccessMode::scalar_f32());
        assert_eq!(sim.take_report(), PhaseReport::default());
    }

    #[test]
    fn random_half_line_rows_fetch_sectors_only() {
        // FP16 rows of 64 bytes at random line-sized strides: each miss
        // fetches only the two touched sectors, not the whole line — the
        // sector-granularity property that lets FP16 halve DRAM traffic
        // even for narrow rows.
        let dev = device();
        let mut sim = MemorySim::new(&dev);
        let b = sim.alloc(1 << 22);
        for i in 0..1000u64 {
            sim.read(b, i * 997 * 128 % (1 << 22), 64, AccessMode::scalar_f16());
        }
        let r = sim.take_report();
        assert!(r.dram_fetched <= 1000 * 64 + 64, "fetched {}", r.dram_fetched);
    }

    #[test]
    fn report_merge() {
        let mut a = PhaseReport {
            useful_bytes: 1,
            transactions: 2,
            dram_fetched: 3,
            dram_written_back: 4,
            l2_hits: 5,
            l2_misses: 6,
        };
        a.merge(PhaseReport {
            useful_bytes: 10,
            transactions: 20,
            dram_fetched: 30,
            dram_written_back: 40,
            l2_hits: 50,
            l2_misses: 60,
        });
        assert_eq!(a.useful_bytes, 11);
        assert_eq!(a.transactions, 22);
        assert_eq!(a.dram_bytes(), 77);
        assert_eq!(a.l2_hits, 55);
        assert_eq!(a.l2_misses, 66);
    }
}
