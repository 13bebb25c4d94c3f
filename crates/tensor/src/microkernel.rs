//! SIMD compute kernels with runtime CPU-feature dispatch.
//!
//! The paper's thesis is that sparse convolution reduces to many GEMMs plus
//! data movement (§4.2, §4.3); on the CPU side every FLOP the scheduling
//! layers arrange ultimately flows through the inner loops in this module.
//! Two implementations of each primitive are provided, and the process
//! picks one once, from the CPU ([`active`]) — no caller chooses:
//!
//! - [`Kernel::Avx2`]: `std::arch` intrinsics running rows of A against a
//!   strip of up to four [`NR`]-wide panels of B (eight `ymm`
//!   accumulators), each row visiting only its nonzero `k` — wherever AVX2
//!   is detected;
//! - [`Kernel::Portable`]: fixed-width-array loops ([`NR`] lanes) shaped so
//!   the autovectorizer can chew on them — the kernel on every other CPU,
//!   and the one `TORCHSPARSE_SIMD=off` forces.
//!
//! There is one kernel family, the fused gather–GEMM–scatter
//! ([`gemm_gather_scatter`]), and it reads B in one layout, [`PackedB`]. A
//! plain GEMM (`gemm::mm_into_packed_on`) is the same kernel over identity
//! rows. The original blocked scalar loop over row-major B is the unit
//! tests' oracle, the semantic reference both kernels are held to.
//!
//! # Why one row against a wide strip
//!
//! Convolution inputs are post-ReLU: about 44% of the A values that reach
//! the GEMM are exact zeros (nonzero share 0.56 on the MinkUNet benchmark
//! frames, 0.57 on CenterPoint's), placed irregularly. The contract
//! inherited from the scalar loop skips `a == 0.0` terms — it must, or
//! `0 * inf` and `-0.0 + 0.0` would change bits — and a register tile whose
//! rows share one `k` loop can only honour it with a branch (a coin flip
//! the predictor loses) or a blend (all the arithmetic, none of the saving)
//! per (row, `k`). A row on its own has one zero pattern: it becomes a
//! bitmask, built 64 `k` at a time with one vector compare per eight
//! values, and the set bits are walked lowest first, so the skip is work
//! not done instead of a decision per scalar. Width replaces height as the
//! source of independent accumulators: four panels give eight add chains
//! and amortize the mask and each A broadcast over 64 output columns.
//! Where the output is too narrow for that (one or two panels), four or two
//! rows walk the same strip side by side, each along its own mask, in
//! lockstep for as long as all of them have nonzeros left. A mask word with
//! no zero at all — the network's input layer, a dense probe — takes a
//! plain counted loop over the same terms.
//!
//! # Bitwise determinism
//!
//! All kernels vectorize along the **N** (output-channel) dimension: one
//! accumulator lane owns one output element, and the reduction over `k`
//! walks in ascending order with a multiply followed by an add — exactly
//! the scalar kernel's per-element accumulation order. The strip kernel's
//! bit walk (`trailing_zeros`, then clear the lowest set bit) visits the
//! nonzero `k` of each 64-wide word in ascending order and the words in
//! ascending order, so it is the same sequence with the skipped terms
//! already removed; its mask test (`NEQ_UQ` against zero: NaN counts as
//! nonzero, `±0.0` as zero) is the scalar `a != 0.0`; rows never share an
//! accumulator, so how the walks of several rows interleave is invisible.
//! Lane width, strip width and row grouping therefore cannot change the
//! arithmetic, and `Portable` and `Avx2` produce bitwise identical results
//! (the `gemm` property tests assert this against a naive triple loop, the
//! strip sweep against the scalar oracle at every density). Neither
//! contracts the multiply-add into a fused multiply-add, which would round
//! once instead of twice and change results.
//!
//! # Weight packing
//!
//! [`PackedB`] stores a weight matrix panel-major: the `n` columns are split
//! into [`NR`]-wide panels and each panel's `k` rows are laid out
//! contiguously (zero-padded at the ragged edge). A GEMM streaming a packed
//! B reads it strictly sequentially instead of striding by `n` every `k`
//! step. Weights are constant across frames, so every layer packs its
//! weights once, when it is constructed (a convolution's kernel-offset
//! matrices, SPVCNN's point MLPs), keeps only the packed buffer and reuses
//! it for every GEMM.

use crate::Half;
use std::sync::OnceLock;

/// `f32` lanes per SIMD vector on the widest supported path (AVX2 `__m256`).
pub(crate) const LANES: usize = 8;
/// Panel width in output channels: two SIMD vectors per panel.
pub(crate) const NR: usize = 2 * LANES;

/// One compute-kernel implementation, picked once per process by
/// [`active`]. See the module docs for the contract both satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Fixed-width-array loops the autovectorizer can lower: the kernel on
    /// CPUs without AVX2, and under `TORCHSPARSE_SIMD=off`.
    Portable,
    /// AVX2 strip microkernel (mul-then-add; bitwise identical to
    /// `Portable`).
    Avx2,
}

impl Kernel {
    /// Short display name used by the benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// The process-wide kernel, resolved once from the CPU features probed at
/// pool init: [`Kernel::Avx2`] where AVX2 is detected, else
/// [`Kernel::Portable`]. `TORCHSPARSE_SIMD=off` (or `portable`) forces the
/// portable kernel; `auto`, `on` or unset auto-detect, and anything else
/// warns and auto-detects.
///
/// No public function takes a [`Kernel`]: this is the only place one is
/// chosen, so AVX2 code never runs on a CPU that lacks it.
pub fn active() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let (kernel, warning) = select(std::env::var("TORCHSPARSE_SIMD").ok().as_deref());
        if let Some(w) = warning {
            torchsparse_runtime::warn_env_once("TORCHSPARSE_SIMD", &w);
        }
        kernel
    })
}

/// Resolves a kernel from an optional `TORCHSPARSE_SIMD` value; factored out
/// of [`active`] so the policy is testable without touching process state.
///
/// Strict parse: `off`/`portable` and `auto`/`on` are the recognized values
/// (case-insensitive). Anything else auto-detects and returns a warning
/// message naming the variable and the kernel fallback.
fn select(env: Option<&str>) -> (Kernel, Option<String>) {
    let auto =
        if torchsparse_runtime::cpu_features().avx2 { Kernel::Avx2 } else { Kernel::Portable };
    match env.map(str::trim) {
        None => (auto, None),
        Some(s) if s.eq_ignore_ascii_case("off") || s.eq_ignore_ascii_case("portable") => {
            (Kernel::Portable, None)
        }
        Some(s) if s.eq_ignore_ascii_case("auto") || s.eq_ignore_ascii_case("on") => (auto, None),
        Some(s) => (
            auto,
            Some(format!(
                "TORCHSPARSE_SIMD={s:?} is not one of off/portable/auto; \
                 falling back to auto-detection ({})",
                auto.name()
            )),
        ),
    }
}

/// A weight matrix pre-packed into the microkernel's panel-major layout.
///
/// Columns are grouped into [`NR`]-wide panels; within a panel the `k` rows
/// are contiguous, so the GEMM inner loop streams B sequentially. The
/// ragged last panel is zero-padded — padded lanes accumulate exact zeros
/// that are never stored, so packing cannot change results.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Packs a row-major `k x n` matrix.
    pub fn pack(b: &crate::Matrix) -> PackedB {
        let (k, n) = b.shape();
        let panels = n.div_ceil(NR);
        let mut data = vec![0.0f32; panels * k * NR];
        let src = b.as_slice();
        for p in 0..panels {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let base = p * k * NR;
            for kk in 0..k {
                let row = &src[kk * n + j0..kk * n + j0 + w];
                data[base + kk * NR..base + kk * NR + w].copy_from_slice(row);
            }
        }
        PackedB { k, n, data }
    }

    /// Rows of the original matrix (the GEMM reduction dimension).
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Columns of the original matrix (output channels).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reconstructs the row-major matrix, bit for bit: packing only moves
    /// values, so `pack` then `unpack` is the identity on every `f32`.
    pub fn unpack(&self) -> crate::Matrix {
        crate::Matrix::from_fn(self.k, self.n, |kk, j| {
            let p = j / NR;
            self.data[p * self.k * NR + kk * NR + (j % NR)]
        })
    }

    /// The packed panel for columns `p*NR ..`: `k` rows of `NR` lanes.
    fn panel(&self, p: usize) -> &[f32] {
        &self.data[p * self.k * NR..(p + 1) * self.k * NR]
    }
}

/// Fused gather–GEMM–scatter over one batch of kernel-map entries.
///
/// For each entry `i`, computes the row product
/// `a[in_rows[i]] · B` (A rows read *through* the map indices — the gather
/// is folded into the panel loads, no materialized A or partial-sum buffer
/// exists), optionally rounds the product to binary16 (the unfused path's
/// 16-bit partial-sum storage), and accumulates it into row `out_rel[i]` of
/// `out` (a row-major block with `n` columns) with one FP32 add per
/// element — the scatter epilogue.
///
/// # Bitwise contract
///
/// Per output element this performs exactly the unfused sequence: a
/// zero-initialized dot product over `kk` ascending with mul-then-add and
/// the `a == 0.0` skip (the GEMM into a zeroed psum buffer), an optional
/// per-element f16 round trip (psum storage), then a single `+=` into the
/// output row (the scatter). Either kernel therefore produces bits
/// identical to gather → GEMM → scatter at any tiling.
///
/// # Panics
///
/// Panics when index/shape invariants are violated: mismatched
/// `in_rows`/`out_rel` lengths, an `in_rows` entry past `a`'s rows, an
/// `out_rel` entry past `out`'s rows, or a B operand that is not `k x n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_gather_scatter(
    a: &[f32],
    k: usize,
    in_rows: &[u32],
    b: &PackedB,
    n: usize,
    round_f16: bool,
    out: &mut [f32],
    out_rel: &[u32],
) {
    gather_scatter_with(active(), a, k, in_rows, b, n, round_f16, out, out_rel);
}

/// [`gemm_gather_scatter`] on `kernel`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_scatter_with(
    kernel: Kernel,
    a: &[f32],
    k: usize,
    in_rows: &[u32],
    b: &PackedB,
    n: usize,
    round_f16: bool,
    out: &mut [f32],
    out_rel: &[u32],
) {
    assert_eq!(in_rows.len(), out_rel.len(), "one output row per gathered row");
    if n == 0 || in_rows.is_empty() {
        return;
    }
    for &src in in_rows {
        assert!(k == 0 || (src as usize + 1) * k <= a.len(), "gather row in bounds");
    }
    for &dst in out_rel {
        assert!((dst as usize + 1) * n <= out.len(), "scatter row in bounds");
    }
    assert!(b.k == k && b.n == n, "packed B is k x n");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => x86::fused_rows(a, k, in_rows, b, n, round_f16, out, out_rel),
        _ => fused_rows_portable(kernel, a, k, in_rows, b, n, round_f16, out, out_rel, 0),
    }
}

/// The portable fused kernel, and the ragged-tail delegate of the AVX2 path
/// (`p_start` marks where the full-width panels stopped; `kernel` rounds
/// the f16 partial sums).
#[allow(clippy::too_many_arguments)]
fn fused_rows_portable(
    kernel: Kernel,
    a: &[f32],
    k: usize,
    in_rows: &[u32],
    b: &PackedB,
    n: usize,
    round_f16: bool,
    out: &mut [f32],
    out_rel: &[u32],
    p_start: usize,
) {
    for p in p_start..n.div_ceil(NR) {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let panel = b.panel(p);
        for (&src, &dst) in in_rows.iter().zip(out_rel) {
            let a_row = &a[src as usize * k..src as usize * k + k];
            // Padded lanes multiply stored zeros into acc[w..], which is
            // never read back.
            let mut acc = [0.0f32; NR];
            for (kk, &aval) in a_row.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                let b_row = &panel[kk * NR..kk * NR + NR];
                for (av, bv) in acc.iter_mut().zip(b_row) {
                    *av += aval * bv;
                }
            }
            if round_f16 {
                f16_round_trip_with(kernel, &mut acc[..w]);
            }
            let o = dst as usize * n + j0;
            for (ov, av) in out[o..o + w].iter_mut().zip(&acc[..w]) {
                *ov += av;
            }
        }
    }
}

/// Rounds every element to the nearest binary16 and back (FP16 storage
/// simulation) in one slice sweep.
///
/// On the AVX2 kernel with F16C the hardware converters run, which
/// implement exactly the same round-to-nearest-even semantics as
/// [`Half::from_f32`] for every non-NaN input; blocks containing NaNs fall
/// back to the software converter so NaN payload canonicalization is also
/// identical. The result is therefore bitwise equal to the scalar sweep for
/// *all* inputs.
pub fn f16_round_trip_slice(data: &mut [f32]) {
    f16_round_trip_with(active(), data);
}

/// [`f16_round_trip_slice`] on `kernel`.
fn f16_round_trip_with(kernel: Kernel, data: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        let cpu = torchsparse_runtime::cpu_features();
        if kernel == Kernel::Avx2 && cpu.avx2 && cpu.f16c {
            x86::f16_round_trip(data);
            return;
        }
    }
    let _ = kernel;
    for v in data {
        *v = Half::from_f32(*v).to_f32();
    }
}

/// The `std::arch` implementations. This is the only module in the crate
/// allowed to use `unsafe`. Three `#[target_feature]` functions are its
/// entry points — the AVX2 fused rows and row accumulate, and the F16C
/// storage round trip — each entered only through a safe wrapper after a
/// check of the CPU feature ([`active`] picks [`Kernel::Avx2`] only after
/// the same check). The other unsafe functions are their helpers: plain
/// pointer arithmetic over lengths the safe wrappers validated.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{Kernel, PackedB, LANES, NR};
    use crate::Half;
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_broadcast_ss, _mm256_cmp_ps, _mm256_cmpgt_epi32,
        _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_maskload_ps, _mm256_movemask_ps,
        _mm256_mul_ps, _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setzero_ps, _mm256_storeu_ps,
        _CMP_NEQ_UQ, _CMP_UNORD_Q, _MM_FROUND_TO_NEAREST_INT,
    };

    /// Panels per strip: two accumulators per panel, so a full strip holds
    /// eight `ymm` accumulators and leaves eight for the B loads and the A
    /// broadcast.
    const STRIP: usize = 4;

    /// `k` per nonzero bitmask.
    const WORD: usize = 64;

    /// The accumulators of one A row against a strip of `P` panels.
    type Acc<const P: usize> = [[__m256; 2]; P];

    /// Where the [`NR`]-wide column panels of a [`PackedB`] live: row `kk`
    /// of panel `p` starts `p * panel_stride + kk * NR` floats past `base`.
    #[derive(Clone, Copy)]
    struct Panels {
        base: *const f32,
        panel_stride: usize,
        /// Panels whose `k` rows all have [`NR`] readable lanes: every
        /// (zero-padded) panel.
        count: usize,
    }

    impl Panels {
        /// Checks that `b` holds a `k x n` operand — the bound every B load
        /// of the strip kernel relies on — and describes its panels.
        fn new(b: &PackedB, k: usize, n: usize) -> Panels {
            assert!(b.k == k && b.n == n, "packed B is k x n");
            let count = n.div_ceil(NR);
            assert_eq!(b.data.len(), count * k * NR, "packed B holds every panel");
            Panels { base: b.data.as_ptr(), panel_stride: k * NR, count }
        }

        /// Row 0 of panel `p`. A wrapping offset, because an empty (`k = 0`)
        /// operand has no row 0 to point at; the pointer is only ever
        /// dereferenced at a row `kk < k`, which lies inside the operand.
        fn at(self, p: usize) -> *const f32 {
            debug_assert!(p < self.count, "panel index in range");
            self.base.wrapping_add(p * self.panel_stride)
        }
    }

    /// Panics unless the CPU runs AVX2, the condition every AVX2
    /// `target_feature` entry below relies on. [`active`](super::active)
    /// picks [`Kernel::Avx2`] only after the same check, so this never
    /// fires; it keeps each safe entry point sound on its own, at one cached
    /// load per call.
    fn assert_avx2() {
        assert!(torchsparse_runtime::cpu_features().avx2, "AVX2 kernel on a CPU without AVX2");
    }

    /// Bit `i` is set iff `a[i] != 0.0`, for the `len <= WORD` floats at
    /// `a`: `NEQ_UQ` against zero, so NaN counts as nonzero and `±0.0` as
    /// zero — the scalar kernels' `a == 0.0` skip test, eight values per
    /// compare.
    ///
    /// # Safety
    ///
    /// Requires AVX; `a` must be readable for `len` floats.
    #[inline(always)]
    unsafe fn nonzero_mask(a: *const f32, len: usize) -> u64 {
        debug_assert!(len <= WORD);
        let zero = _mm256_setzero_ps();
        let mut mask = 0u64;
        let mut i = 0;
        // SAFETY: every full load ends at or below `len`; the masked load
        // touches only its first `len - i` lanes (masked-off lanes are not
        // accessed and read as +0.0, which sets no bit).
        unsafe {
            while i + LANES <= len {
                let lanes = _mm256_cmp_ps::<_CMP_NEQ_UQ>(_mm256_loadu_ps(a.add(i)), zero);
                mask |= (_mm256_movemask_ps(lanes) as u64) << i;
                i += LANES;
            }
            if i < len {
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((len - i) as i32), lane);
                let tail = _mm256_maskload_ps(a.add(i), live);
                let lanes = _mm256_cmp_ps::<_CMP_NEQ_UQ>(tail, zero);
                mask |= (_mm256_movemask_ps(lanes) as u64) << i;
            }
        }
        mask
    }

    /// One term of the reduction: `acc += a[kk] * B[kk]` across the strip's
    /// `P` panels, mul then add.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `a[kk]` and the [`NR`] floats of row `kk` of each of
    /// the `P` panels from `b` must be readable.
    #[inline(always)]
    unsafe fn axpy<const P: usize>(
        acc: &mut Acc<P>,
        a: *const f32,
        kk: usize,
        b: *const f32,
        panels: Panels,
    ) {
        // SAFETY: the caller vouched for exactly these reads.
        unsafe {
            let av = _mm256_broadcast_ss(&*a.add(kk));
            let b_row = b.add(kk * NR);
            for (p, lanes) in acc.iter_mut().enumerate() {
                let b0 = _mm256_loadu_ps(b_row.add(p * panels.panel_stride));
                let b1 = _mm256_loadu_ps(b_row.add(p * panels.panel_stride + LANES));
                lanes[0] = _mm256_add_ps(lanes[0], _mm256_mul_ps(av, b0));
                lanes[1] = _mm256_add_ps(lanes[1], _mm256_mul_ps(av, b1));
            }
        }
    }

    /// [`axpy`] at the lowest set bit of `mask`, which is cleared.
    ///
    /// # Safety
    ///
    /// `mask` must be nonzero with no bit at or above `len` set; then as
    /// [`axpy`] for every `kk < len`.
    #[inline(always)]
    unsafe fn axpy_lowest<const P: usize>(
        mask: &mut u64,
        len: usize,
        acc: &mut Acc<P>,
        a: *const f32,
        b: *const f32,
        panels: Panels,
    ) {
        let kk = mask.trailing_zeros() as usize;
        *mask &= *mask - 1;
        debug_assert!(kk < len, "mask bits stay inside the word");
        // SAFETY: kk < len, which the caller vouched for.
        unsafe { axpy::<P>(acc, a, kk, b, panels) }
    }

    /// The row-sparse strip microkernel, one bitmask word at a time: `len <=
    /// WORD` reduction terms of `R` rows of A, each row against the same
    /// strip of `P` adjacent [`NR`]-wide panels of B, added onto `acc` (two
    /// vectors per row and panel) and returned.
    ///
    /// The `a == 0.0` skip of the scalar contract is skipped *work* here,
    /// not a branch per scalar: each row's nonzero bitmask is built once
    /// ([`nonzero_mask`]) and only its set bits are visited, lowest first —
    /// so every output lane still sees its terms in ascending `k`, mul then
    /// add, and a skipped `k` never touches B. Post-ReLU activations are
    /// about 44% exact zeros; the data-dependent branches left are loop
    /// exits, a few per word.
    ///
    /// Rows never share an accumulator, so how their walks interleave is
    /// invisible in the result. `R > 1` exists for narrow strips, where one
    /// row's two or four accumulators cannot hide the add latency: the rows
    /// step in lockstep for as many nonzeros as the sparsest of them has in
    /// the word (`R` independent chains in flight), then each finishes its
    /// own remainder. A word with no zero in any row takes a plain counted
    /// loop over the same terms in the same order, which spares fully dense
    /// inputs the bit scans and lets the rows share each B load.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Every `a_rows[i]` must be readable for `len` floats,
    /// and for every `kk < len` and `p < P` the [`NR`] floats at `b + kk *
    /// NR + p * panels.panel_stride` must be readable.
    #[inline(always)]
    unsafe fn strip_word<const R: usize, const P: usize>(
        a_rows: [*const f32; R],
        len: usize,
        b: *const f32,
        panels: Panels,
        mut acc: [Acc<P>; R],
    ) -> [Acc<P>; R] {
        debug_assert!((1..=WORD).contains(&len));
        let mut masks = [0u64; R];
        // SAFETY: `len` floats of every A row are readable, and a mask built
        // from them has bit kk set only for kk < len — so every `axpy`
        // below reads an A element and B rows the caller vouched for.
        unsafe {
            for (mask, a_row) in masks.iter_mut().zip(a_rows) {
                *mask = nonzero_mask(a_row, len);
            }
            if masks.iter().all(|&m| m == u64::MAX >> (WORD - len)) {
                for kk in 0..len {
                    for (lanes, a_row) in acc.iter_mut().zip(a_rows) {
                        axpy::<P>(lanes, a_row, kk, b, panels);
                    }
                }
                return acc;
            }
            if R > 1 {
                let common = masks.iter().fold(WORD as u32, |c, m| c.min(m.count_ones()));
                for _ in 0..common {
                    for ((mask, lanes), a_row) in masks.iter_mut().zip(&mut acc).zip(a_rows) {
                        axpy_lowest::<P>(mask, len, lanes, a_row, b, panels);
                    }
                }
            }
            for ((mask, lanes), a_row) in masks.iter_mut().zip(&mut acc).zip(a_rows) {
                while *mask != 0 {
                    axpy_lowest::<P>(mask, len, lanes, a_row, b, panels);
                }
            }
        }
        acc
    }

    /// Stores the accumulators of `R` rows, `stride` floats apart from `dst`.
    ///
    /// # Safety
    ///
    /// Requires AVX; `dst` must be writable for `P * NR` floats at each of
    /// `R` rows `stride` floats apart.
    #[inline(always)]
    unsafe fn store_rows<const R: usize, const P: usize>(
        acc: &[Acc<P>; R],
        dst: *mut f32,
        stride: usize,
    ) {
        for (i, lanes) in acc.iter().enumerate() {
            for (p, pair) in lanes.iter().enumerate() {
                // SAFETY: row i < R, lanes p * NR..(p + 1) * NR < P * NR.
                unsafe {
                    _mm256_storeu_ps(dst.add(i * stride + p * NR), pair[0]);
                    _mm256_storeu_ps(dst.add(i * stride + p * NR + LANES), pair[1]);
                }
            }
        }
    }

    /// The map entries of one fused batch, and where their products go.
    struct Scatter<'a> {
        in_rows: &'a [u32],
        out_rel: &'a [u32],
        round_f16: bool,
        out: &'a mut [f32],
        n: usize,
    }

    /// AVX2 entry point for the fused gather–GEMM–scatter kernel. Shapes
    /// and indices were validated by the safe wrapper
    /// ([`gemm_gather_scatter`](super::gemm_gather_scatter)).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn fused_rows(
        a: &[f32],
        k: usize,
        in_rows: &[u32],
        b: &PackedB,
        n: usize,
        round_f16: bool,
        out: &mut [f32],
        out_rel: &[u32],
    ) {
        let mut s = Scatter { in_rows, out_rel, round_f16, out, n };
        assert_avx2();
        // SAFETY: the CPU runs AVX2, checked just above.
        unsafe { fused_rows_avx2(a, k, b, &mut s) }
    }

    /// Fused kernel over groups of `R` map entries and one strip of `P`
    /// full panels starting at panel `p0`: the gathered A rows (read
    /// straight through the indices) run through [`strip_word`], word after
    /// word from zeroed accumulators, into a stack tile; each entry's
    /// product row is then optionally f16-rounded and added into its
    /// scattered output row. Returns the first entry not covered by a whole
    /// group.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Every `s.in_rows` entry must index a row of `a` (`k`
    /// floats each) and panels `p0..p0 + P` must be inside `panels.count` of
    /// a B with `k` rows; the output rows are bounds-checked slices.
    #[inline(always)]
    unsafe fn fused_groups<const R: usize, const P: usize>(
        a: &[f32],
        k: usize,
        panels: Panels,
        p0: usize,
        entries: std::ops::Range<usize>,
        s: &mut Scatter<'_>,
    ) -> usize {
        debug_assert!(p0 + P <= panels.count, "strip inside the full panels");
        debug_assert!(R * P <= STRIP, "the group's product rows fit the tile");
        let mut tile = [0.0f32; STRIP * NR];
        let mut r = entries.start;
        while r + R <= entries.end {
            // SAFETY: the safe wrapper asserted (src + 1) * k <= a.len() for
            // every gather index, the `Panels` constructor checked B, every
            // word ends at k0 + len <= k, and the tile holds
            // R * P * NR <= STRIP * NR floats.
            unsafe {
                let mut a_rows = [a.as_ptr(); R];
                for (a_row, &src) in a_rows.iter_mut().zip(&s.in_rows[r..r + R]) {
                    debug_assert!((src as usize + 1) * k <= a.len(), "gather row in bounds");
                    *a_row = a.as_ptr().add(src as usize * k);
                }
                let mut acc = [[[_mm256_setzero_ps(); 2]; P]; R];
                let mut k0 = 0;
                while k0 < k {
                    let b = panels.at(p0).add(k0 * NR);
                    let len = (k - k0).min(WORD);
                    acc = strip_word::<R, P>(a_rows, len, b, panels, acc);
                    a_rows = a_rows.map(|a_row| a_row.add(len));
                    k0 += WORD;
                }
                store_rows(&acc, tile.as_mut_ptr(), P * NR);
            }
            for (row, &dst) in tile.chunks_exact_mut(P * NR).zip(&s.out_rel[r..r + R]) {
                debug_assert!((dst as usize + 1) * s.n <= s.out.len(), "scatter row in bounds");
                if s.round_f16 {
                    super::f16_round_trip_with(Kernel::Avx2, row);
                }
                let o = dst as usize * s.n + p0 * NR;
                accumulate_row(&mut s.out[o..o + P * NR], row);
            }
            r += R;
        }
        r
    }

    /// Fused gather–GEMM–scatter: the strip kernel over every full
    /// [`NR`]-wide panel, widest strips first; within a strip the batch's
    /// entries run in groups of `R` (`R * P = 4`), leftover entries one at
    /// a time. The ragged last panel delegates to the portable loop, which
    /// accumulates each element in the identical order.
    #[target_feature(enable = "avx2")]
    unsafe fn fused_rows_avx2(a: &[f32], k: usize, b: &PackedB, s: &mut Scatter<'_>) {
        let n = s.n;
        let panels = Panels::new(b, k, n);
        let all = 0..s.in_rows.len();
        let full = n / NR;
        let mut p = 0;
        while p < full {
            let width = (full - p).min(STRIP);
            // SAFETY: the safe wrapper bounds-checked every gather index
            // against `a`, `Panels::new` checked B, and
            // p + width <= n / NR <= panels.count.
            unsafe {
                match width {
                    4 => fused_groups::<1, 4>(a, k, panels, p, all.clone(), s),
                    3 => fused_groups::<1, 3>(a, k, panels, p, all.clone(), s),
                    2 => {
                        let done = fused_groups::<2, 2>(a, k, panels, p, all.clone(), s);
                        fused_groups::<1, 2>(a, k, panels, p, done..all.end, s)
                    }
                    _ => {
                        let done = fused_groups::<4, 1>(a, k, panels, p, all.clone(), s);
                        fused_groups::<1, 1>(a, k, panels, p, done..all.end, s)
                    }
                };
            }
            p += width;
        }
        if full * NR < n {
            let Scatter { in_rows, out_rel, round_f16, .. } = *s;
            super::fused_rows_portable(
                Kernel::Avx2,
                a,
                k,
                in_rows,
                b,
                n,
                round_f16,
                s.out,
                out_rel,
                full,
            );
        }
    }

    /// `dst[i] += src[i]`: the strip kernel's scatter epilogue.
    fn accumulate_row(dst: &mut [f32], src: &[f32]) {
        // SAFETY: only the AVX2 fused kernel calls this, so avx2 was
        // detected.
        unsafe { accumulate_row_avx2(dst, src) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_row_avx2(dst: &mut [f32], src: &[f32]) {
        let len = dst.len().min(src.len());
        let mut i = 0;
        // SAFETY: i + LANES <= len bounds every load/store below.
        unsafe {
            let s = src.as_ptr();
            let d = dst.as_mut_ptr();
            while i + LANES <= len {
                let sum = _mm256_add_ps(_mm256_loadu_ps(d.add(i)), _mm256_loadu_ps(s.add(i)));
                _mm256_storeu_ps(d.add(i), sum);
                i += LANES;
            }
        }
        for (d, s) in dst[i..len].iter_mut().zip(&src[i..len]) {
            *d += s;
        }
    }

    // The cvtps_ph rounding immediate is a 3-bit field: the
    // round-to-nearest-even selector only (no room for the NO_EXC flag).
    const F16_ROUND: i32 = _MM_FROUND_TO_NEAREST_INT;

    /// F16C round trip; its one caller
    /// ([`f16_round_trip_with`](super::f16_round_trip_with)) checked the
    /// CPU for AVX2 and F16C.
    pub(super) fn f16_round_trip(data: &mut [f32]) {
        // SAFETY: the caller checked avx2 (so avx) and f16c.
        unsafe { f16_round_trip_f16c(data) }
    }

    #[target_feature(enable = "avx,f16c")]
    unsafe fn f16_round_trip_f16c(data: &mut [f32]) {
        let len = data.len();
        let mut i = 0;
        while i + LANES <= len {
            // SAFETY: i + LANES <= len.
            unsafe {
                let p = data.as_mut_ptr().add(i);
                let v = _mm256_loadu_ps(p);
                // NaN payloads canonicalize differently in hardware; punt
                // those (rare, fault-path-only) blocks to the software
                // converter so all kernels agree bitwise on every input.
                if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) == 0 {
                    let h = _mm256_cvtps_ph::<F16_ROUND>(v);
                    _mm256_storeu_ps(p, _mm256_cvtph_ps(h));
                } else {
                    for v in &mut data[i..i + LANES] {
                        *v = Half::from_f32(*v).to_f32();
                    }
                }
            }
            i += LANES;
        }
        for v in &mut data[i..] {
            *v = Half::from_f32(*v).to_f32();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Both kernels where the CPU runs both, for the in-process sweeps.
    fn every_kernel() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Portable];
        if torchsparse_runtime::cpu_features().avx2 {
            ks.push(Kernel::Avx2);
        }
        ks
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs one full-matrix GEMM (`C += A*B`) through the fused kernel over
    /// identity rows, as `gemm::mm_into_packed_on` does: each element of C
    /// takes one add of its product formed from zero.
    fn run_panel(kernel: Kernel, a: &Matrix, b: &PackedB, c: &mut Matrix) {
        let rows: Vec<u32> = (0..a.rows() as u32).collect();
        let (k, n) = (a.cols(), b.n());
        gather_scatter_with(kernel, a.as_slice(), k, &rows, b, n, false, c.as_mut_slice(), &rows);
    }

    /// Cache block size along the reduction dimension of the scalar oracle
    /// (unchanged from the pre-vectorization GEMM; per-element order is `kk`
    /// ascending regardless of blocking).
    const KBLOCK: usize = 256;

    /// The original blocked scalar loop over row-major B, verbatim — the
    /// semantic reference for the zero-skip behaviour every kernel sweep is
    /// held to.
    fn panel_scalar_dense(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        c_panel: &mut [f32],
    ) {
        let rows_here = c_panel.len() / n;
        for kb in (0..k).step_by(KBLOCK) {
            let k_end = (kb + KBLOCK).min(k);
            for r in 0..rows_here {
                let a_row = &a[(row0 + r) * k..(row0 + r) * k + k];
                let c_row = &mut c_panel[r * n..(r + 1) * n];
                for kk in kb..k_end {
                    let aval = a_row[kk];
                    if aval == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aval * bv;
                    }
                }
            }
        }
    }

    /// The scalar oracle: one full-matrix GEMM (`C += A*B`) through the
    /// blocked scalar loop.
    fn scalar_panel(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        panel_scalar_dense(a.as_slice(), b.as_slice(), a.cols(), b.cols(), 0, c.as_mut_slice());
    }

    /// The plain GEMM's contract on the scalar oracle: `seed` plus the
    /// product formed from zero, one add per element.
    fn plain_reference(a: &Matrix, b: &Matrix, seed: &Matrix) -> Matrix {
        let mut product = Matrix::zeros(a.rows(), b.cols());
        scalar_panel(a, b, &mut product);
        Matrix::from_fn(a.rows(), b.cols(), |i, j| seed[(i, j)] + product[(i, j)])
    }

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0f32..1.0))
    }

    #[test]
    fn env_selection_policy() {
        assert_eq!(select(Some("off")), (Kernel::Portable, None));
        assert_eq!(select(Some(" Portable ")), (Kernel::Portable, None));
        let (auto, none) = select(None);
        assert!(none.is_none());
        let avx2 = torchsparse_runtime::cpu_features().avx2;
        assert_eq!(auto, if avx2 { Kernel::Avx2 } else { Kernel::Portable });
        assert_eq!(select(Some("on")), (auto, None));
        assert_eq!(select(Some("AUTO")), (auto, None));
    }

    #[test]
    fn env_selection_warns_on_unknown_values() {
        for bad in ["avx512", "1", "yes", "", "scalar"] {
            let (kernel, warning) = select(Some(bad));
            let (auto, _) = select(None);
            assert_eq!(kernel, auto, "{bad:?} must fall back to auto-detection");
            let w = warning.unwrap_or_else(|| panic!("{bad:?} must produce a warning"));
            assert!(w.contains("TORCHSPARSE_SIMD"), "warning must name the variable: {w}");
            assert!(w.contains(kernel.name()), "warning must name the fallback kernel: {w}");
        }
    }

    #[test]
    fn packed_round_trip_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(k, n) in &[(1, 1), (3, 16), (5, 17), (8, 48), (13, 100), (64, 1), (0, 5)] {
            let b = random_matrix(&mut rng, k, n);
            let packed = PackedB::pack(&b);
            assert_eq!(packed.k(), k);
            assert_eq!(packed.n(), n);
            assert_eq!(bits(&packed.unpack()), bits(&b), "({k},{n})");
        }
    }

    #[test]
    fn all_kernels_bitwise_equal_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 16),
            (5, 3, 17),   // ragged tail columns
            (7, 16, 31),  // ragged rows and columns
            (64, 32, 64), // full tiles
            (9, 0, 8),    // k = 0
            (6, 1, 24),   // k = 1
        ] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let packed = PackedB::pack(&b);
            let mut reference = Matrix::zeros(m, n);
            scalar_panel(&a, &b, &mut reference);
            for kernel in every_kernel() {
                let mut c = Matrix::zeros(m, n);
                run_panel(kernel, &a, &packed, &mut c);
                assert_eq!(bits(&c), bits(&reference), "{} ({m},{k},{n})", kernel.name());
            }
        }
    }

    #[test]
    fn kernels_accumulate_into_existing_c() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 6, 9);
        let b = random_matrix(&mut rng, 9, 20);
        let packed = PackedB::pack(&b);
        let seed = random_matrix(&mut rng, 6, 20);
        let reference = plain_reference(&a, &b, &seed);
        for kernel in every_kernel() {
            let mut c = seed.clone();
            run_panel(kernel, &a, &packed, &mut c);
            assert_eq!(bits(&c), bits(&reference), "{}", kernel.name());
        }
    }

    #[test]
    fn zero_rows_in_a_are_skipped_consistently() {
        // All-zero rows of A: every kernel must leave C untouched for them,
        // exactly like the scalar zero-skip.
        let mut rng = StdRng::seed_from_u64(17);
        let mut a = random_matrix(&mut rng, 8, 6);
        for j in 0..6 {
            a[(3, j)] = 0.0;
            a[(7, j)] = 0.0;
        }
        let b = random_matrix(&mut rng, 6, 19);
        let packed = PackedB::pack(&b);
        let mut reference = Matrix::zeros(8, 19);
        scalar_panel(&a, &b, &mut reference);
        for kernel in every_kernel() {
            let mut c = Matrix::zeros(8, 19);
            run_panel(kernel, &a, &packed, &mut c);
            assert_eq!(bits(&c), bits(&reference), "{}", kernel.name());
        }
    }

    /// Unfused scalar reference for the fused kernel: materialized gather,
    /// GEMM into a zeroed psum buffer, optional f16 psum rounding, then
    /// scatter accumulation — the exact sequence `gemm_gather_scatter`
    /// folds away.
    fn fused_reference(
        a: &Matrix,
        b: &Matrix,
        entries: &[(u32, u32)],
        n_out: usize,
        round_f16: bool,
    ) -> Matrix {
        let (k, n) = b.shape();
        let mut gathered = Matrix::zeros(entries.len(), k);
        for (i, &(src, _)) in entries.iter().enumerate() {
            gathered.row_mut(i).copy_from_slice(a.row(src as usize));
        }
        let mut psum = Matrix::zeros(entries.len(), n);
        scalar_panel(&gathered, b, &mut psum);
        if round_f16 {
            for v in psum.as_mut_slice() {
                *v = Half::from_f32(*v).to_f32();
            }
        }
        let mut out = Matrix::zeros(n_out, n);
        for (i, &(_, dst)) in entries.iter().enumerate() {
            for (o, p) in out.row_mut(dst as usize).iter_mut().zip(psum.row(i)) {
                *o += p;
            }
        }
        out
    }

    fn run_fused(
        kernel: Kernel,
        a: &Matrix,
        b: &PackedB,
        entries: &[(u32, u32)],
        n_out: usize,
        round_f16: bool,
    ) -> Matrix {
        let in_rows: Vec<u32> = entries.iter().map(|&(s, _)| s).collect();
        let out_rel: Vec<u32> = entries.iter().map(|&(_, d)| d).collect();
        let mut out = Matrix::zeros(n_out, b.n());
        gather_scatter_with(
            kernel,
            a.as_slice(),
            a.cols(),
            &in_rows,
            b,
            b.n(),
            round_f16,
            out.as_mut_slice(),
            &out_rel,
        );
        out
    }

    #[test]
    fn fused_matches_gather_gemm_scatter_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(m_in, k, n, n_out, n_entries) in &[
            (10usize, 8usize, 16usize, 10usize, 10usize),
            (20, 4, 32, 12, 17),  // skinny k, odd entry count
            (15, 16, 31, 15, 15), // ragged tail columns
            (8, 3, 7, 9, 5),      // below one panel
            (30, 32, 64, 30, 64), // full tiles
            (6, 1, 24, 6, 3),     // k = 1
        ] {
            let a = random_matrix(&mut rng, m_in, k);
            let b = random_matrix(&mut rng, k, n);
            let packed = PackedB::pack(&b);
            let entries: Vec<(u32, u32)> = (0..n_entries)
                .map(|_| (rng.random_range(0..m_in as u32), rng.random_range(0..n_out as u32)))
                .collect();
            for round_f16 in [false, true] {
                let reference = fused_reference(&a, &b, &entries, n_out, round_f16);
                for kernel in every_kernel() {
                    let out = run_fused(kernel, &a, &packed, &entries, n_out, round_f16);
                    assert_eq!(
                        bits(&out),
                        bits(&reference),
                        "{} ({m_in},{k},{n}) round={round_f16}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_skips_zero_gather_rows_like_the_scalar_loop() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut a = random_matrix(&mut rng, 9, 6);
        for j in 0..6 {
            a[(2, j)] = 0.0;
        }
        let b = random_matrix(&mut rng, 6, 19);
        let packed = PackedB::pack(&b);
        let entries: Vec<(u32, u32)> = vec![(2, 0), (5, 0), (2, 3), (8, 2)];
        let reference = fused_reference(&a, &b, &entries, 4, false);
        for kernel in every_kernel() {
            let out = run_fused(kernel, &a, &packed, &entries, 4, false);
            assert_eq!(bits(&out), bits(&reference), "{}", kernel.name());
        }
    }

    /// A `rows x cols` matrix whose entries are nonzero with probability
    /// `density`; a quarter of the zeros are `-0.0`.
    fn sparse_matrix(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.random_range(0.0f64..1.0) < density {
                rng.random_range(0.25f32..1.0)
                    * if rng.random_range(0..2) == 0 { -1.0 } else { 1.0 }
            } else if rng.random_range(0..4) == 0 {
                -0.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn strip_kernel_matches_scalar_oracle_across_density_k_n() {
        // 7 rows / 13 map entries (with duplicate gather and scatter rows)
        // never fill a whole multiple of any row tile; `k` straddles the
        // 8-lane mask loads and the 64-bit mask words; `n` covers every
        // strip width (1 to 4 panels, 4 + 2, 4 + 4) and ragged tails.
        let mut rng = StdRng::seed_from_u64(41);
        let (m, n_out, n_entries) = (7usize, 5usize, 13usize);
        for density in [0.0, 0.1, 0.56, 1.0] {
            for k in [0usize, 1, 7, 8, 63, 64, 65, 130, 300] {
                for n in [16usize, 20, 32, 48, 64, 70, 96, 128] {
                    let a = sparse_matrix(&mut rng, m, k, density);
                    let b = random_matrix(&mut rng, k, n);
                    let packed = PackedB::pack(&b);
                    let seed = random_matrix(&mut rng, m, n);
                    let entries: Vec<(u32, u32)> = (0..n_entries)
                        .map(|_| (rng.random_range(0..m as u32), rng.random_range(0..n_out as u32)))
                        .collect();
                    let plain = plain_reference(&a, &b, &seed);
                    let fused: Vec<Matrix> =
                        [false, true].map(|r| fused_reference(&a, &b, &entries, n_out, r)).into();
                    for kernel in every_kernel() {
                        let what = format!("{} d={density} k={k} n={n}", kernel.name());
                        let mut c = seed.clone();
                        run_panel(kernel, &a, &packed, &mut c);
                        assert_eq!(bits(&c), bits(&plain), "plain {what}");
                        for (round_f16, want) in [false, true].into_iter().zip(&fused) {
                            let out = run_fused(kernel, &a, &packed, &entries, n_out, round_f16);
                            assert_eq!(bits(&out), bits(want), "fused round={round_f16} {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strip_kernel_skips_exactly_what_the_scalar_test_skips() {
        // Rows 0 and 3: only signed zeros. Rows 1, 2, 4, 5: zeros wherever
        // B is poisoned; rows 2 and 5 also hold a NaN, which is *not* zero.
        // B rows 0, 3 and 70 (a second mask word) hold inf / -inf / NaN: a
        // masked multiply-add instead of a skip would leak `0 * inf = NaN`
        // into the first two kinds of row, and only A's own NaN may turn
        // the third into NaN. Six rows make one 4-row group plus leftovers
        // at n = 16, three 2-row groups at n = 32, single rows at n = 64.
        let k = 72usize;
        let poisoned = [(0usize, f32::INFINITY), (3, f32::NEG_INFINITY), (70, f32::NAN)];
        let mut rng = StdRng::seed_from_u64(43);
        let mut a = random_matrix(&mut rng, 6, k);
        for r in 0..6 {
            for j in 0..k {
                if r % 3 == 0 {
                    a[(r, j)] = if j % 3 == 0 { -0.0 } else { 0.0 };
                } else if poisoned.iter().any(|&(row, _)| row == j) {
                    a[(r, j)] = if j == 3 { -0.0 } else { 0.0 };
                }
            }
            if r % 3 == 2 {
                a[(r, 5)] = f32::NAN;
            }
        }
        let entries: Vec<(u32, u32)> = (0..6).chain([1, 4, 0]).map(|r| (r, r % 3)).collect();
        let all = |m: &Matrix, r: usize, f: fn(&f32) -> bool| m.row(r).iter().all(f);
        for n in [16usize, 32, 64] {
            let mut b = random_matrix(&mut rng, k, n);
            for &(row, v) in &poisoned {
                b.row_mut(row).fill(v);
            }
            let packed = PackedB::pack(&b);
            // C starts at -0.0. A signed-zero row of A skips every term, so
            // its product is the +0.0 it started from (a multiply-add would
            // leak `0 * inf = NaN`), and that one add turns -0.0 into +0.0.
            let seed = Matrix::from_fn(6, n, |_, _| -0.0);
            let reference = plain_reference(&a, &b, &seed);
            let fused_want = fused_reference(&a, &b, &entries, 3, false);
            for kernel in every_kernel() {
                let mut c = seed.clone();
                run_panel(kernel, &a, &packed, &mut c);
                let out = run_fused(kernel, &a, &packed, &entries, 3, false);
                for r in [0, 3] {
                    assert!(all(&c, r, |v| v.to_bits() == 0), "-0.0 + (+0.0) product");
                    assert_eq!(bits(&c)[r * n..][..2 * n], bits(&reference)[r * n..][..2 * n]);
                    assert!(all(&c, r + 1, |v| v.is_finite()), "a skipped k never reads B");
                    assert!(all(&c, r + 2, |v| v.is_nan()), "NaN in A is not skipped");
                }
                assert!(all(&out, 0, |v| v.to_bits() == 0), "0.0 + 0.0 products");
                assert!(all(&out, 1, |v| v.is_finite()));
                assert!(all(&out, 2, |v| v.is_nan()));
                assert_eq!(bits(&out)[..2 * n], bits(&fused_want)[..2 * n], "n={n}");
            }
        }
    }

    #[test]
    fn f16_round_trip_slice_matches_scalar_exhaustively() {
        // Every binary16 value expands to an f32 the round trip must fix.
        let inputs: Vec<f32> = (0..=u16::MAX).map(|b| Half::from_bits(b).to_f32()).collect();
        for kernel in every_kernel() {
            let mut data = inputs.clone();
            f16_round_trip_with(kernel, &mut data);
            for (v, orig) in data.iter().zip(&inputs) {
                assert!(
                    v.to_bits() == orig.to_bits() || (v.is_nan() && orig.is_nan()),
                    "{}: {orig:?} -> {v:?}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn f16_conversions_match_scalar_on_hard_cases() {
        // Rounding boundaries, subnormals, overflow, signed zero, NaN/inf.
        let mut cases: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            65504.0,
            65520.0, // rounds to +inf in f16
            65519.9,
            -65520.0,
            5.960_464_5e-8,     // half the smallest f16 subnormal (ties to even)
            5.960_465e-8,       // just above -> smallest subnormal
            6.103_515_6e-5,     // smallest f16 normal
            6.097_555e-5,       // largest f16 subnormal
            1.0 + 1.0 / 2048.0, // exact tie -> even mantissa
            1.0 + 3.0 / 2048.0, // exact tie -> rounds up to even
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            1e-40, // f32 subnormal -> f16 zero
        ];
        let mut rng = StdRng::seed_from_u64(23);
        cases.extend((0..4096).map(|_| f32::from_bits(rng.random_range(0u32..=u32::MAX))));
        let reference: Vec<f32> = cases.iter().map(|&v| Half::from_f32(v).to_f32()).collect();
        for kernel in every_kernel() {
            let mut rounded = cases.clone();
            f16_round_trip_with(kernel, &mut rounded);
            for (i, (got, want)) in rounded.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} case {i} = {:?}",
                    kernel.name(),
                    cases[i]
                );
            }
        }
    }

    proptest! {
        /// Arbitrary shapes — including ragged column tails
        /// (`n % NR != 0`) and degenerate `k` — are bitwise identical
        /// across both kernels, against the scalar loop.
        #[test]
        fn prop_kernels_bitwise_equal(
            m in 1usize..40, k in 0usize..24, n in 1usize..40, seed in 0u64..500
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let packed = PackedB::pack(&b);
            let mut reference = Matrix::zeros(m, n);
            scalar_panel(&a, &b, &mut reference);
            for kernel in every_kernel() {
                let mut c = Matrix::zeros(m, n);
                run_panel(kernel, &a, &packed, &mut c);
                prop_assert!(
                    bits(&c) == bits(&reference),
                    "{} ({},{},{})", kernel.name(), m, k, n
                );
            }
        }

        /// The F16 round trip is bit-exact for arbitrary bit patterns
        /// (NaNs compare as both-NaN: payloads are canonicalized equally).
        #[test]
        fn prop_f16_round_trip_bit_exact(
            raw in proptest::collection::vec(0u32..u32::MAX, 1..64),
        ) {
            let vals: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
            let expect: Vec<u32> =
                vals.iter().map(|&v| Half::from_f32(v).to_f32().to_bits()).collect();
            for kernel in every_kernel() {
                let mut data = vals.clone();
                f16_round_trip_with(kernel, &mut data);
                let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                prop_assert!(got == expect, "{}", kernel.name());
            }
        }
    }
}
