//! Sparse convolution dataflows (§2.2, §4.3 of the paper): the numerics.
//!
//! Two dataflows are implemented, matching the systems the paper discusses:
//!
//! - [`run_gather_matmul_scatter`]: Algorithm 2 — gather per-offset feature
//!   matrices, run the (grouped) GEMMs, scatter-accumulate the partial sums
//!   — either through materialized buffers or through the fused
//!   gather–GEMM–scatter microkernel, with the §4.2.1 center-offset
//!   shortcut.
//! - [`run_fetch_on_demand`]: MinkowskiEngine's alternative that computes
//!   partial sums directly from the input features without materializing
//!   gather/scatter buffers (§5.2).
//!
//! Both execute the *real* computation on the CPU and nothing else: their
//! outputs are bit-identical across routes, grouping plans, kernels and
//! thread counts, and they see only a worker pool, the workspace arena and
//! the configuration. What the same kernels would cost on the simulated
//! GPU is a function of geometry alone and lives in [`crate::cost_model`].

use crate::config::{OptimizationConfig, Precision, SimdPolicy};
use crate::grouping::GroupPlan;
use crate::runtime::{Runtime, Task, ThreadPool};
use crate::tuning::ExecPolicy;
use crate::CoreError;
use torchsparse_coords::kernel_map::MapEntry;
use torchsparse_coords::KernelMap;
use torchsparse_tensor::gemm::GemmOpts;
use torchsparse_tensor::microkernel::{self, Kernel, PackedB};
use torchsparse_tensor::{gemm, quant, Matrix};

/// Everything a dataflow needs to execute one convolution.
#[derive(Debug)]
pub struct ConvWorkload<'a> {
    /// Input features (`n_in x c_in`), already in storage precision.
    pub in_feats: &'a Matrix,
    /// Per-offset weight matrices (`c_in x c_out` each).
    pub weights: &'a [Matrix],
    /// The same weights pre-packed into the microkernel's panel-major
    /// layout (one [`PackedB`] per offset, built once at plan time and
    /// reused across frames). `None` streams the row-major `weights`.
    pub packed: Option<&'a [PackedB]>,
    /// The kernel map.
    pub map: &'a KernelMap,
    /// Number of output points.
    pub n_out: usize,
    /// The center offset index if this is a submanifold layer whose center
    /// map is the identity (enables the §4.2.1 shortcut).
    pub center_identity: Option<usize>,
    /// Plan-time locality ordering for the fused gather–GEMM–scatter
    /// executor. `None` (or `fused_execution = false`) keeps the
    /// materialized gather/psum buffer path.
    pub fused: Option<&'a FusedOrder>,
    /// The tuned per-layer execution policy, when the plan carries one.
    /// `None` resolves every knob from the global [`OptimizationConfig`].
    /// Every selectable policy is bitwise-neutral — it changes execution
    /// speed and schedule, never the output bits.
    pub policy: Option<ExecPolicy>,
}

/// Resolves a [`SimdPolicy`] to a concrete compute kernel.
fn kernel_for(simd: SimdPolicy) -> Kernel {
    match simd {
        SimdPolicy::Auto => microkernel::active(),
        SimdPolicy::Portable => Kernel::Portable,
        SimdPolicy::Scalar => Kernel::Scalar,
    }
}

/// The compute kernel for one workload: a tuned policy's SIMD choice wins
/// over the global config. All kernels are bit-exact against each other,
/// so this only changes instruction throughput.
pub(crate) fn policy_kernel(config: &OptimizationConfig, policy: Option<&ExecPolicy>) -> Kernel {
    kernel_for(policy.map_or(config.simd, |p| p.simd))
}

/// The effective fused-execution switch for one workload: the
/// `TORCHSPARSE_FUSED` override outranks the plan's tuned policy, which
/// outranks the global `fused_execution` flag.
fn fused_for(config: &OptimizationConfig, policy: Option<&ExecPolicy>) -> bool {
    match crate::config::fused_override() {
        Some(forced) => forced,
        None => policy.map_or(config.fused_execution, |p| p.fused),
    }
}

/// GEMM options for one workload: the resolved kernel, FMA only if the
/// config opted in, and the tuned policy's row-panel width when present.
fn gemm_opts(config: &OptimizationConfig, policy: Option<&ExecPolicy>) -> GemmOpts {
    GemmOpts {
        kernel: Some(policy_kernel(config, policy)),
        fma: config.fma_gemm,
        panel_rows: policy.map(|p| p.panel_rows),
    }
}

impl ConvWorkload<'_> {
    fn c_in(&self) -> usize {
        self.in_feats.cols()
    }

    fn c_out(&self) -> usize {
        self.weights.first().map_or(0, Matrix::cols)
    }
}

/// Rounds a matrix to its storage precision, consuming it: FP32 is a true
/// identity (no copy at all) and the quantized precisions round in place.
///
/// Applied at layer boundaries so that numerical results reflect genuine
/// quantized storage while GEMMs accumulate in FP32 (tensor-core
/// semantics). Layers call this on the matrix they just computed, so the
/// FP32 path of a forward pass allocates nothing here. The rounding sweep
/// runs on the worker pool; per-element rounding is independent, so results
/// are bitwise identical at any thread count.
pub fn apply_storage_precision_owned(pool: &ThreadPool, m: Matrix, precision: Precision) -> Matrix {
    apply_storage_precision_owned_kernel(pool, m, precision, microkernel::active())
}

/// [`apply_storage_precision_owned`] with an explicit compute kernel (the
/// engine resolves its [`SimdPolicy`] once per layer). The SIMD sweeps are
/// bit-exact against the scalar per-element conversions for every input,
/// so the kernel choice never changes results.
pub fn apply_storage_precision_owned_kernel(
    pool: &ThreadPool,
    mut m: Matrix,
    precision: Precision,
    kernel: Kernel,
) -> Matrix {
    match precision {
        Precision::Fp32 => {}
        Precision::Fp16 => quant::round_trip_f16_in_place_kernel(pool, &mut m, kernel),
        Precision::Int8 => {
            let q = quant::Int8Quantizer::calibrate(m.as_slice());
            q.round_trip_in_place_kernel(pool, &mut m, kernel);
        }
    }
    m
}

/// Rows per gather/scatter task. Fixed (never derived from the thread
/// count) so the partition — and therefore every task's output — is
/// identical at any pool width.
const MOVE_CHUNK: usize = 64;

/// Plan-time locality reordering for the fused dataflow: the paper's
/// §4.3.2 locality-aware access orders, applied to the real CPU executor.
///
/// For every kernel offset the map entries are viewed in *output-row*
/// order and split at [`MOVE_CHUNK`]-row output boundaries. A fused
/// execution task that owns output rows `[c*MOVE_CHUNK, (c+1)*MOVE_CHUNK)`
/// then streams exactly `view(map, n).entries[starts[n][c]..starts[n][c+1]]`
/// for each offset `n` — contiguous and without scanning the rest of the
/// map. Because the per-offset in/out maps are partial bijections, each
/// output row appears at most once per offset, and the per-element
/// accumulation order (offsets ascending, one FP32 add per entry) is
/// exactly the unfused serial engine's.
///
/// Forward searches emit CSR ranges already sorted by output row, so for
/// them the order stores *only* the chunk split points and the view is the
/// map's own CSR slice — no entry copy, no producer permutation. Only
/// transposed decoder maps (whose mirrored ranges are input-sorted) pay a
/// materialized stable re-sort plus the original-index permutation.
///
/// Built once per [`ConvPlan`](crate::plan::ConvPlan), so compiled
/// sessions pay the (mostly metadata-only) build once per geometry and
/// reuse it every frame.
#[derive(Debug, Clone)]
pub struct FusedOrder {
    /// Per-offset chunk split points (`chunks + 1` values each):
    /// `starts[n][c]..starts[n][c + 1]` indexes the output-sorted view of
    /// offset `n` restricted to output-row chunk `c`.
    starts: Vec<Vec<u32>>,
    /// Per-offset materialized re-sort, present only when the map's CSR
    /// range is not already output-ascending: `.0` is the entries stably
    /// sorted by output row, `.1` the original entry index of each sorted
    /// position — exactly the partial-sum row the GEMM wrote, so a scatter
    /// task can stream `psums[n].row(orig[i])` without rebuilding producer
    /// lists at execute time. `None` = the CSR slice itself is the view
    /// and the producer index is the identity.
    resort: Vec<Option<Resort>>,
    /// Output rows per chunk this order was split at ([`MOVE_CHUNK`] unless
    /// a tuned policy chose otherwise). The executors partition their
    /// output blocks at exactly this width; any width produces identical
    /// bits because each output row lives in exactly one chunk and its
    /// per-entry accumulation order is unchanged.
    chunk_rows: usize,
}

/// One offset's materialized re-sort: the entries stably sorted by output
/// row, and the original entry index of each sorted position.
type Resort = (Vec<MapEntry>, Vec<u32>);

/// A borrowed output-sorted view of one offset's entries: the map's own
/// CSR slice for forward (already-sorted) offsets, or the plan-time
/// re-sorted copy for transposed ones.
#[derive(Debug, Clone, Copy)]
pub struct OffsetView<'a> {
    /// The offset's entries, sorted by output row.
    pub entries: &'a [MapEntry],
    orig: Option<&'a [u32]>,
}

impl OffsetView<'_> {
    /// The original map-entry index (the partial-sum producer row) of
    /// sorted position `i`.
    #[inline]
    pub fn producer(&self, i: usize) -> u32 {
        match self.orig {
            Some(orig) => orig[i],
            None => i as u32,
        }
    }
}

/// One offset's share of a [`FusedOrder`]: the chunk split points, plus the
/// materialized re-sort when the CSR range is not already output-sorted.
fn order_one_offset(
    src: &[MapEntry],
    chunks: usize,
    chunk_rows: usize,
) -> (Vec<u32>, Option<Resort>) {
    // Forward maps are already output-ascending; only transposed maps
    // actually pay the sort (stable, so entry order among equal outputs is
    // preserved) and the materialized copy.
    let resort = if src.windows(2).all(|w| w[0].output <= w[1].output) {
        None
    } else {
        let mut orig: Vec<u32> = (0..src.len() as u32).collect();
        orig.sort_by_key(|&i| src[i as usize].output);
        let entries: Vec<MapEntry> = orig.iter().map(|&i| src[i as usize]).collect();
        Some((entries, orig))
    };
    let entries = match &resort {
        Some((sorted, _)) => sorted.as_slice(),
        None => src,
    };
    let mut s = Vec::with_capacity(chunks + 1);
    let mut i = 0usize;
    for c in 0..chunks {
        s.push(i as u32);
        let hi = ((c + 1) * chunk_rows) as u32;
        while i < entries.len() && entries[i].output < hi {
            i += 1;
        }
    }
    s.push(i as u32);
    debug_assert_eq!(i, entries.len(), "map output out of range");
    (s, resort)
}

impl FusedOrder {
    /// Splits `map`'s entries (and re-sorts any non-output-sorted offsets)
    /// for a convolution producing `n_out` output rows, at the default
    /// [`MOVE_CHUNK`] width.
    #[must_use]
    pub fn build(map: &KernelMap, n_out: usize) -> FusedOrder {
        FusedOrder::build_chunked(map, n_out, MOVE_CHUNK)
    }

    /// [`build`](FusedOrder::build) with an explicit chunk width (the
    /// autotuner's gather/scatter granularity axis).
    #[must_use]
    pub fn build_chunked(map: &KernelMap, n_out: usize, chunk_rows: usize) -> FusedOrder {
        let chunk_rows = chunk_rows.max(1);
        let chunks = n_out.div_ceil(chunk_rows);
        let volume = map.num_offsets();
        let mut starts = Vec::with_capacity(volume);
        let mut resort = Vec::with_capacity(volume);
        for n in 0..volume {
            let (s, r) = order_one_offset(map.entries(n), chunks, chunk_rows);
            starts.push(s);
            resort.push(r);
        }
        FusedOrder { starts, resort, chunk_rows }
    }

    /// [`build`](FusedOrder::build) with the per-offset sort/split work
    /// running as tasks on the worker pool. Plan builds sit on the serial
    /// critical path of compiled sessions (and of every re-plan), so
    /// spreading the K³ independent offsets across lanes directly raises
    /// the engine's parallel fraction. The per-offset results are
    /// identical to the serial builder's — offsets are fully independent —
    /// so the constructed order is bitwise the same at any pool width.
    #[must_use]
    pub fn build_on(pool: &ThreadPool, map: &KernelMap, n_out: usize) -> FusedOrder {
        FusedOrder::build_on_chunked(pool, map, n_out, MOVE_CHUNK)
    }

    /// [`build_on`](FusedOrder::build_on) with an explicit chunk width.
    #[must_use]
    pub fn build_on_chunked(
        pool: &ThreadPool,
        map: &KernelMap,
        n_out: usize,
        chunk_rows: usize,
    ) -> FusedOrder {
        let chunk_rows = chunk_rows.max(1);
        let chunks = n_out.div_ceil(chunk_rows);
        let volume = map.num_offsets();
        let mut slots: Vec<Option<(Vec<u32>, Option<Resort>)>> = vec![None; volume];
        let tasks: Vec<Task<'_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(n, slot)| {
                Box::new(move || *slot = Some(order_one_offset(map.entries(n), chunks, chunk_rows)))
                    as Task<'_>
            })
            .collect();
        pool.run(tasks);
        let mut starts = Vec::with_capacity(volume);
        let mut resort = Vec::with_capacity(volume);
        for slot in slots.into_iter().flatten() {
            starts.push(slot.0);
            resort.push(slot.1);
        }
        debug_assert_eq!(starts.len(), volume, "every offset task must have run");
        FusedOrder { starts, resort, chunk_rows }
    }

    /// Output rows per chunk this order was split at.
    #[inline]
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The chunk split points of offset `n`.
    #[inline]
    pub fn starts(&self, n: usize) -> &[u32] {
        &self.starts[n]
    }

    /// The output-sorted entry view of offset `n`. `map` must be the map
    /// this order was built from.
    #[inline]
    pub fn view<'a>(&'a self, map: &'a KernelMap, n: usize) -> OffsetView<'a> {
        match &self.resort[n] {
            Some((entries, orig)) => OffsetView { entries, orig: Some(orig) },
            None => OffsetView { entries: map.entries(n), orig: None },
        }
    }

    /// How many offsets carry a materialized re-sort (zero for forward
    /// maps — the slice-view property the plan-memory accounting relies
    /// on).
    pub fn resorted_offsets(&self) -> usize {
        self.resort.iter().filter(|r| r.is_some()).count()
    }

    /// Bytes this order occupies beyond the kernel map it views (for the
    /// frozen-plan memory accounting).
    pub fn memory_bytes(&self) -> u64 {
        let starts: usize = self.starts.iter().map(|s| s.len() * 4).sum();
        let resort: usize = self
            .resort
            .iter()
            .flatten()
            .map(|(e, o)| e.len() * std::mem::size_of::<MapEntry>() + o.len() * 4)
            .sum();
        (starts + resort) as u64
    }
}

/// Process-wide count of [`FusedOrder`]s built *inside* the scatter because
/// the caller provided none. Engine paths always thread the plan-time order
/// through [`ConvWorkload::fused`], so steady-state compiled frames keep
/// this at zero — the regression test in `tests/fused_dataflow.rs` asserts
/// exactly that. Nonzero counts mean some call site is silently paying a
/// per-call metadata rebuild.
static SCATTER_FALLBACK_BUILDS: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// Total scatter-metadata fallback builds since process start (see
/// [`SCATTER_FALLBACK_BUILDS`]).
pub fn scatter_fallback_builds() -> usize {
    SCATTER_FALLBACK_BUILDS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Copies `in_feats[entries[i].input] -> f[i]` for all entries, partitioned
/// into [`MOVE_CHUNK`]-row tasks on the pool. Rows of `f` beyond
/// `entries.len()` are untouched (callers pre-zero padded buffers). Row
/// copies go through the microkernel's wide-vector path on SIMD hosts —
/// identical bytes, fewer instructions per feature row.
fn gather_rows(
    pool: &ThreadPool,
    kernel: Kernel,
    in_feats: &Matrix,
    entries: &[MapEntry],
    f: &mut Matrix,
) {
    let c_in = in_feats.cols();
    if entries.is_empty() || c_in == 0 {
        return;
    }
    if (pool.threads() <= 1 && !pool.is_recording()) || entries.len() <= MOVE_CHUNK {
        for (i, e) in entries.iter().enumerate() {
            microkernel::copy_row(kernel, f.row_mut(i), in_feats.row(e.input as usize));
        }
        return;
    }
    let dest = &mut f.as_mut_slice()[..entries.len() * c_in];
    let tasks: Vec<Task<'_>> = dest
        .chunks_mut(MOVE_CHUNK * c_in)
        .zip(entries.chunks(MOVE_CHUNK))
        .map(|(block, chunk)| {
            Box::new(move || {
                for (row, e) in block.chunks_mut(c_in).zip(chunk) {
                    microkernel::copy_row(kernel, row, in_feats.row(e.input as usize));
                }
            }) as Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// Rewrites every NaN in a finished output block to the one canonical
/// quiet NaN. IEEE 754 leaves the sign and payload of `NaN + NaN` to the
/// operand order, which the compiler — not the accumulation order — picks
/// per code path, so without this an input NaN meeting an `inf - inf` NaN
/// could leave different bits on different routes.
fn canonicalize_nans(block: &mut [f32]) {
    // Unconditional store: compiles to a compare-and-blend sweep.
    for v in block {
        *v = if v.is_nan() { f32::NAN } else { *v };
    }
}

/// Runs `reduce(c, block)` over every `chunk_rows`-row block of `out`, then
/// canonicalizes the block's NaNs while it is still hot: inline on a serial
/// pool (no task boxing), as one task wave otherwise. Blocks are disjoint
/// and the partition never depends on the pool width, so the result is the
/// same at any thread count.
fn reduce_chunks(
    pool: &ThreadPool,
    out: &mut Matrix,
    chunk_rows: usize,
    reduce: impl Fn(usize, &mut [f32]) + Sync,
) {
    let block_len = chunk_rows * out.cols();
    let run_chunk = |c: usize, block: &mut [f32]| {
        reduce(c, block);
        canonicalize_nans(block);
    };
    if pool.threads() <= 1 && !pool.is_recording() {
        for (c, block) in out.as_mut_slice().chunks_mut(block_len).enumerate() {
            run_chunk(c, block);
        }
        return;
    }
    let run_chunk = &run_chunk;
    let tasks: Vec<Task<'_>> = out
        .as_mut_slice()
        .chunks_mut(block_len)
        .enumerate()
        .map(|(c, block)| Box::new(move || run_chunk(c, block)) as Task<'_>)
        .collect();
    pool.run(tasks);
}

/// Scatter-accumulates every offset's partial sums into `out` (FP32
/// accumulation registers), one task per plan-time output chunk.
///
/// Each chunk walks the offsets in ascending order and, within an offset,
/// the chunk's entries of the plan-time output-sorted view. An output row
/// appears at most once per offset (the per-offset maps are partial
/// bijections), so every element sees one FP32 add per producer with
/// offsets ascending — the order a plain offset-major loop over the whole
/// map would give it, whatever the chunk width, schedule, or thread count.
///
/// `order` is the plan-time scatter metadata; `None` (hand-built workloads
/// only) falls back to an on-the-spot build, counted by
/// [`scatter_fallback_builds`].
fn scatter_accumulate(
    pool: &ThreadPool,
    kernel: Kernel,
    map: &KernelMap,
    psums: &[Option<Matrix>],
    out: &mut Matrix,
    order: Option<&FusedOrder>,
) {
    let c_out = out.cols();
    if out.rows() == 0 || c_out == 0 {
        return;
    }
    let built;
    let order = match order {
        Some(o) => o,
        None => {
            SCATTER_FALLBACK_BUILDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            built = FusedOrder::build(map, out.rows());
            &built
        }
    };
    let chunk = order.chunk_rows();
    reduce_chunks(pool, out, chunk, |c, block| {
        let base = (c * chunk) as u32;
        for (n, p) in psums.iter().enumerate() {
            let Some(p) = p else { continue };
            let view = order.view(map, n);
            let lo = order.starts(n)[c] as usize;
            let hi = order.starts(n)[c + 1] as usize;
            for (i, e) in view.entries[lo..hi].iter().enumerate() {
                let src = view.producer(lo + i);
                let rel = (e.output - base) as usize * c_out;
                microkernel::accumulate_row(
                    kernel,
                    &mut block[rel..rel + c_out],
                    p.row(src as usize),
                );
            }
        }
    });
}

/// Whether a group is the bare center-identity offset that the §4.2.1
/// shortcut computes as one dense GEMM, without data movement.
pub(crate) fn is_center_shortcut(
    config: &OptimizationConfig,
    center_identity: Option<usize>,
    offsets: &[usize],
) -> bool {
    config.skip_center_movement && offsets.len() == 1 && Some(offsets[0]) == center_identity
}

/// Executes the real numerics of one convolution through the fused
/// gather–GEMM–scatter microkernel: kernel-map rows stream straight from
/// `in_feats` through the strip kernel's register accumulators into `out`,
/// with no gathered or partial-sum buffer in between.
///
/// Per output element the accumulation order is exactly the buffered
/// route's — a zero-initialized k-ascending dot product per map entry (the
/// GEMM into a zeroed psum row), optional f16 rounding of that product (the
/// 16-bit psum store), then one FP32 add per entry with offsets ascending
/// (the scatter) — so results are bitwise identical to
/// [`scatter_accumulate`]'s at any thread count. Parallel tasks own
/// disjoint output-row blocks of the order's chunk width; the partition
/// never depends on the pool width.
fn run_fused_numerics(
    w: &ConvWorkload<'_>,
    fused: &FusedOrder,
    shortcut: Option<usize>,
    round_f16: bool,
    pool: &ThreadPool,
    kernel: Kernel,
    out: &mut Matrix,
) {
    let (c_in, c_out) = (w.c_in(), w.c_out());
    if out.rows() == 0 || c_out == 0 {
        return;
    }
    let a = w.in_feats.as_slice();
    let operand = |n: usize| match w.packed {
        Some(packed) => microkernel::BOperand::Packed(&packed[n]),
        None => microkernel::BOperand::Dense(w.weights[n].as_slice()),
    };
    let volume = w.map.num_offsets();
    let chunk = fused.chunk_rows();
    reduce_chunks(pool, out, chunk, |c, block| {
        let base = (c * chunk) as u32;
        let mut in_rows = [0u32; MOVE_CHUNK];
        let mut out_rel = [0u32; MOVE_CHUNK];
        for n in 0..volume {
            if Some(n) == shortcut {
                continue;
            }
            let lo = fused.starts(n)[c] as usize;
            let hi = fused.starts(n)[c + 1] as usize;
            let entries = &fused.view(w.map, n).entries[lo..hi];
            // The register staging tiles are fixed at MOVE_CHUNK rows, so
            // wider tuned chunks (and degenerate hand-built maps) stream
            // through this sub-chunk loop in MOVE_CHUNK-entry batches —
            // per-row accumulation order is unchanged either way.
            for batch in entries.chunks(MOVE_CHUNK) {
                for (j, e) in batch.iter().enumerate() {
                    in_rows[j] = e.input;
                    out_rel[j] = e.output - base;
                }
                microkernel::gemm_gather_scatter(
                    kernel,
                    a,
                    c_in,
                    &in_rows[..batch.len()],
                    operand(n),
                    c_out,
                    round_f16,
                    block,
                    &out_rel[..batch.len()],
                );
            }
        }
    });
}

/// `out += in . W_n` over all rows (the §4.2.1 center shortcut: rows are
/// aligned by the identity map).
fn center_gemm(
    w: &ConvWorkload<'_>,
    n: usize,
    pool: &ThreadPool,
    opts: GemmOpts,
    out: &mut Matrix,
) -> Result<(), CoreError> {
    match w.packed {
        Some(packed) => gemm::mm_into_packed_on(pool, w.in_feats, &packed[n], out, opts)?,
        None => gemm::mm_into_with(pool, w.in_feats, &w.weights[n], out, opts)?,
    }
    Ok(())
}

/// Executes Algorithm 2; returns the output feature matrix
/// (`n_out x c_out`).
///
/// Fused route: no gather/psum buffers at all — map rows stream through the
/// microkernel straight into the output, with the center shortcut still
/// running as one dense GEMM first. Grouping is bitwise-neutral for
/// numerics (bmm pad rows are zero and never scattered), so the fused route
/// ignores it. Unfused route: gather per-offset feature matrices, run the
/// (b)mm, keep partial sums, scatter-accumulate; the buffers come from the
/// runtime's workspace arena and are returned afterwards, so steady-state
/// forward passes allocate no feature buffers.
///
/// # Errors
///
/// Returns [`CoreError::Tensor`] if weight shapes are inconsistent with the
/// input features.
pub fn run_gather_matmul_scatter(
    w: &ConvWorkload<'_>,
    plan: &GroupPlan,
    config: &OptimizationConfig,
    runtime: &mut Runtime,
) -> Result<Matrix, CoreError> {
    let pool = runtime.pool();
    let kernel = policy_kernel(config, w.policy.as_ref());
    let opts = gemm_opts(config, w.policy.as_ref());
    let round_f16 = config.precision != Precision::Fp32;
    let mut out = Matrix::zeros(w.n_out, w.c_out());
    let is_shortcut = |offsets: &[usize]| is_center_shortcut(config, w.center_identity, offsets);

    if let Some(order) = w.fused.filter(|_| fused_for(config, w.policy.as_ref())) {
        let shortcut = plan.groups.iter().find(|g| is_shortcut(&g.offsets)).map(|g| g.offsets[0]);
        if let Some(n0) = shortcut {
            center_gemm(w, n0, &pool, opts, &mut out)?;
        }
        run_fused_numerics(w, order, shortcut, round_f16, &pool, kernel, &mut out);
        return Ok(out);
    }

    let mut psums: Vec<Option<Matrix>> = vec![None; w.map.num_offsets()];
    for g in &plan.groups {
        if is_shortcut(&g.offsets) {
            center_gemm(w, g.offsets[0], &pool, opts, &mut out)?;
            continue;
        }
        let members: Vec<usize> =
            g.offsets.iter().copied().filter(|&n| !w.map.entries(n).is_empty()).collect();
        if g.use_bmm && members.len() > 1 {
            // Grouped bmm (Algorithm 4): gather every member into a padded
            // workspace buffer, then one batched GEMM whose row panels of
            // *all* members run as a single task wave — group members are
            // concurrent, not sequential.
            let mut gathered: Vec<Matrix> = Vec::with_capacity(members.len());
            for &n in &members {
                let mut f = runtime.workspaces.take(g.padded_rows, w.c_in());
                gather_rows(&pool, kernel, w.in_feats, w.map.entries(n), &mut f);
                gathered.push(f);
            }
            let mut products: Vec<Matrix> =
                members.iter().map(|_| runtime.workspaces.take(g.padded_rows, w.c_out())).collect();
            let a_refs: Vec<&Matrix> = gathered.iter().collect();
            match w.packed {
                Some(packed) => {
                    let b_refs: Vec<&PackedB> = members.iter().map(|&n| &packed[n]).collect();
                    gemm::bmm_into_packed_on(&pool, &a_refs, &b_refs, &mut products, opts)?;
                }
                None => {
                    let b_refs: Vec<&Matrix> = members.iter().map(|&n| &w.weights[n]).collect();
                    gemm::bmm_into_with(&pool, &a_refs, &b_refs, &mut products, opts)?;
                }
            }
            for f in gathered {
                runtime.workspaces.give(f);
            }
            for (&n, mut p) in members.iter().zip(products) {
                if round_f16 {
                    // Partial sums are stored in 16-bit buffers.
                    quant::round_trip_f16_in_place_kernel(&pool, &mut p, kernel);
                }
                psums[n] = Some(p);
            }
        } else {
            for &n in &members {
                let entries = w.map.entries(n);
                let rows = if g.use_bmm { g.padded_rows } else { entries.len() };
                let mut f = runtime.workspaces.take(rows, w.c_in());
                gather_rows(&pool, kernel, w.in_feats, entries, &mut f);
                let mut p = runtime.workspaces.take(rows, w.c_out());
                match w.packed {
                    Some(packed) => {
                        gemm::mm_into_packed_on(&pool, &f, &packed[n], &mut p, opts)?;
                    }
                    None => gemm::mm_into_with(&pool, &f, &w.weights[n], &mut p, opts)?,
                }
                runtime.workspaces.give(f);
                if round_f16 {
                    // Partial sums are stored in 16-bit buffers.
                    quant::round_trip_f16_in_place_kernel(&pool, &mut p, kernel);
                }
                psums[n] = Some(p);
            }
        }
    }
    // Scatter-accumulate (FP32 accumulation registers).
    scatter_accumulate(&pool, kernel, w.map, &psums, &mut out, w.fused);
    for p in psums.into_iter().flatten() {
        runtime.workspaces.give(p);
    }
    Ok(out)
}

/// Executes the fetch-on-demand dataflow: partial sums are computed straight
/// from the input features and accumulated into the outputs, with no
/// gather/scatter buffers (Lin et al. 2021; used by MinkowskiEngine for
/// small workloads, §5.2). Partial sums stay in FP32 (no 16-bit psum
/// store) and the center shortcut is never used.
///
/// # Errors
///
/// Returns [`CoreError::Tensor`] on inconsistent weight shapes.
pub fn run_fetch_on_demand(
    w: &ConvWorkload<'_>,
    config: &OptimizationConfig,
    runtime: &mut Runtime,
) -> Result<Matrix, CoreError> {
    let mut out = Matrix::zeros(w.n_out, w.c_out());
    let pool = runtime.pool();
    let kernel = policy_kernel(config, w.policy.as_ref());
    let opts = gemm_opts(config, w.policy.as_ref());
    // Fused route: stream map rows straight through the microkernel into
    // `out` — no scratch buffers taken at all.
    if let Some(order) = w.fused.filter(|_| fused_for(config, w.policy.as_ref())) {
        run_fused_numerics(w, order, None, false, &pool, kernel, &mut out);
        return Ok(out);
    }
    // Unfused route: one scratch pair reused across all K^3 neighborhoods:
    // reshape keeps the backing storage whenever capacity suffices, and the
    // buffers return to the workspace arena afterwards for the next layer
    // or forward pass.
    let mut scratch = runtime.workspaces.take(0, w.c_in());
    let mut psum = runtime.workspaces.take(0, w.c_out());
    for n in 0..w.map.num_offsets() {
        let entries = w.map.entries(n);
        if entries.is_empty() {
            continue;
        }
        // out[k] += in[j] . W_n per entry, executed as one blocked GEMM
        // over the offset's rows — numerically identical to the per-entry
        // row-by-matrix products of the device kernel. Offsets ascend and
        // each output row appears at most once per offset, so this serial
        // walk is the same per-row order the fused route's chunk tasks
        // follow.
        scratch.reshape_zeroed(entries.len(), w.c_in());
        gather_rows(&pool, kernel, w.in_feats, entries, &mut scratch);
        psum.reshape_zeroed(entries.len(), w.c_out());
        match w.packed {
            Some(packed) => gemm::mm_into_packed_on(&pool, &scratch, &packed[n], &mut psum, opts)?,
            None => gemm::mm_into_with(&pool, &scratch, &w.weights[n], &mut psum, opts)?,
        }
        for (i, e) in entries.iter().enumerate() {
            microkernel::accumulate_row(kernel, out.row_mut(e.output as usize), psum.row(i));
        }
    }
    runtime.workspaces.give(scratch);
    runtime.workspaces.give(psum);
    // The serial walk above bypassed `reduce_chunks`.
    canonicalize_nans(out.as_mut_slice());
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::GroupingStrategy;
    use crate::grouping::plan_groups;
    use torchsparse_coords::kernel_map::search;
    use torchsparse_coords::{Coord, CoordHashMap};

    /// Deterministic pseudo-random matrix without a rand dependency.
    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 - 1000.0) / 500.0
        })
    }

    fn scene(n: i32) -> Vec<Coord> {
        let mut v = Vec::new();
        for x in 0..n {
            for y in 0..n {
                if (x + y) % 3 != 0 {
                    v.push(Coord::new(0, x, y, (x * 2 + y) % 5));
                }
            }
        }
        v
    }

    /// One submanifold 3x3x3 layer on a small fixed scene: features,
    /// weights and the kernel map.
    pub(crate) struct Parts {
        pub(crate) feats: Matrix,
        pub(crate) weights: Vec<Matrix>,
        pub(crate) map: KernelMap,
        pub(crate) n_out: usize,
    }

    pub(crate) fn workload_parts(c_in: usize, c_out: usize) -> Parts {
        let coords = scene(9);
        let feats = pseudo_matrix(coords.len(), c_in, 7);
        let weights: Vec<Matrix> =
            (0..27).map(|n| pseudo_matrix(c_in, c_out, 100 + n as u64)).collect();
        let (table, _) = CoordHashMap::build(&coords);
        let map = search(&coords, &table, 3, 1).unwrap();
        Parts { feats, weights, map, n_out: coords.len() }
    }

    impl Parts {
        fn workload<'a>(
            &'a self,
            fused: Option<&'a FusedOrder>,
            policy: Option<ExecPolicy>,
        ) -> ConvWorkload<'a> {
            ConvWorkload {
                in_feats: &self.feats,
                weights: &self.weights,
                packed: None,
                map: &self.map,
                n_out: self.n_out,
                center_identity: Some(13),
                fused,
                policy,
            }
        }

        /// Gather-matmul-scatter under `cfg`'s own grouping.
        fn run_gms(
            &self,
            cfg: &OptimizationConfig,
            fused: Option<&FusedOrder>,
            policy: Option<ExecPolicy>,
        ) -> Matrix {
            let plan = plan_groups(&self.map.sizes(), true, cfg.grouping);
            let w = self.workload(fused, policy);
            run_gather_matmul_scatter(&w, &plan, cfg, &mut Runtime::default()).unwrap()
        }

        /// Reference computation straight from the map definition
        /// (Equation 1).
        fn reference_output(&self) -> Matrix {
            let c_out = self.weights[0].cols();
            let mut out = Matrix::zeros(self.n_out, c_out);
            for (n, weight) in self.weights.iter().enumerate().take(self.map.num_offsets()) {
                for e in self.map.entries(n) {
                    for co in 0..c_out {
                        let mut acc = 0.0f32;
                        for ci in 0..self.feats.cols() {
                            acc += self.feats[(e.input as usize, ci)] * weight[(ci, co)];
                        }
                        out[(e.output as usize, co)] += acc;
                    }
                }
            }
            out
        }
    }

    #[test]
    fn all_fp32_configs_agree_with_reference() {
        let parts = workload_parts(8, 16);
        let expect = parts.reference_output();
        let strategies = [
            GroupingStrategy::Separate,
            GroupingStrategy::Symmetric,
            GroupingStrategy::Fixed,
            GroupingStrategy::Adaptive { epsilon: 0.3, s_threshold: usize::MAX },
            GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: 0 },
        ];
        for strategy in strategies {
            for skip_center in [false, true] {
                let mut cfg = OptimizationConfig::baseline_fp32();
                cfg.grouping = strategy;
                cfg.skip_center_movement = skip_center;
                let diff = parts.run_gms(&cfg, None, None).max_abs_diff(&expect).unwrap();
                assert!(diff < 1e-3, "strategy {strategy:?} skip={skip_center}: diff {diff}");
            }
        }
    }

    #[test]
    fn fetch_on_demand_matches_reference() {
        let parts = workload_parts(6, 10);
        let cfg = OptimizationConfig::minkowski_engine();
        let out = run_fetch_on_demand(&parts.workload(None, None), &cfg, &mut Runtime::default())
            .unwrap();
        assert!(out.max_abs_diff(&parts.reference_output()).unwrap() < 1e-3);
    }

    #[test]
    fn fp16_output_close_to_fp32() {
        let parts = workload_parts(8, 8);
        let expect = parts.reference_output();
        let mut cfg = OptimizationConfig::torchsparse();
        cfg.grouping = GroupingStrategy::Separate;
        let out = parts.run_gms(&cfg, None, None);
        let rel = out.max_abs_diff(&expect).unwrap() / expect.frobenius_norm().max(1e-6);
        assert!(rel < 0.01, "fp16 relative error {rel} too large");
    }

    #[test]
    fn int8_runs_and_roughly_matches() {
        let parts = workload_parts(4, 4);
        let mut cfg = OptimizationConfig::torchsparse();
        cfg.precision = Precision::Int8;
        cfg.grouping = GroupingStrategy::Separate;
        // INT8 storage was not applied to in_feats here (the conv layer does
        // that); this exercises the 16-bit partial-sum path only.
        let out = parts.run_gms(&cfg, None, None);
        assert!(out.max_abs_diff(&parts.reference_output()).unwrap() < 1.0);
    }

    fn bits_of(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_executor_bitwise_matches_unfused() {
        let parts = workload_parts(8, 16);
        let order = FusedOrder::build(&parts.map, parts.n_out);
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            for skip_center in [false, true] {
                let mut cfg = OptimizationConfig::torchsparse();
                cfg.precision = precision;
                cfg.skip_center_movement = skip_center;
                assert_eq!(
                    bits_of(&parts.run_gms(&cfg, Some(&order), None)),
                    bits_of(&parts.run_gms(&cfg, None, None)),
                    "{precision:?} skip_center={skip_center}"
                );
            }
        }
    }

    #[test]
    fn fused_fetch_on_demand_bitwise_matches_unfused() {
        let parts = workload_parts(6, 10);
        let order = FusedOrder::build(&parts.map, parts.n_out);
        let cfg = OptimizationConfig::minkowski_engine();
        let run = |fused: Option<&FusedOrder>| {
            run_fetch_on_demand(&parts.workload(fused, None), &cfg, &mut Runtime::default())
                .unwrap()
        };
        assert_eq!(bits_of(&run(Some(&order))), bits_of(&run(None)));
    }

    #[test]
    fn chunk_width_is_bitwise_neutral() {
        // Every gather/scatter chunk width the autotuner may pick streams
        // the same per-row addend order, so outputs are bit-identical to
        // the default MOVE_CHUNK split — fused and buffered (the policy
        // picks the route, so the buffered scatter walks `order` too).
        let parts = workload_parts(8, 16);
        let cfg = OptimizationConfig::torchsparse();
        let run = |order: &FusedOrder, fused: bool| {
            let policy = ExecPolicy { fused, ..ExecPolicy::from_config(&cfg) };
            parts.run_gms(&cfg, Some(order), Some(policy))
        };
        let baseline = FusedOrder::build(&parts.map, parts.n_out);
        assert_eq!(baseline.chunk_rows(), MOVE_CHUNK);
        for use_fused in [true, false] {
            let expect = bits_of(&run(&baseline, use_fused));
            for chunk in [1, 32, 128, 256, 1000] {
                let order = FusedOrder::build_chunked(&parts.map, parts.n_out, chunk);
                assert_eq!(order.chunk_rows(), chunk);
                assert_eq!(
                    bits_of(&run(&order, use_fused)),
                    expect,
                    "chunk={chunk} fused={use_fused}"
                );
            }
        }
    }

    #[test]
    fn policy_overrides_config_knobs() {
        // A plan-carried policy steers the fused route and SIMD kernel
        // without touching the global config — and stays bit-identical.
        let parts = workload_parts(8, 16);
        let order = FusedOrder::build(&parts.map, parts.n_out);
        let cfg = OptimizationConfig::torchsparse();
        let base = ExecPolicy::from_config(&cfg);
        let expect = bits_of(&parts.run_gms(&cfg, Some(&order), None));
        for policy in [
            base,
            ExecPolicy { fused: false, ..base },
            ExecPolicy { simd: SimdPolicy::Portable, ..base },
            ExecPolicy { simd: SimdPolicy::Scalar, ..base },
            ExecPolicy { panel_rows: 32, chunk_rows: 256, ..base },
        ] {
            assert_eq!(
                bits_of(&parts.run_gms(&cfg, Some(&order), Some(policy))),
                expect,
                "{policy:?}"
            );
        }
    }
}
