//! Sparse convolution dataflows (§2.2, §4.3 of the paper): the numerics.
//!
//! One dataflow runs on the host: [`gather_matmul_scatter_into`], Algorithm
//! 2 — per kernel offset, gather the mapped input rows, multiply by the
//! offset's weights, round the products to the 16-bit partial-sum store
//! when features are quantized, and scatter-accumulate them — with the
//! §4.2.1 center-offset shortcut. MinkowskiEngine's fetch-on-demand
//! dataflow (§5.2) is a *priced* choice, not a route: under
//! `fetch_on_demand_below` the cost model charges a small layer as
//! fetch-on-demand, and the layer runs these numerics like any other.
//!
//! It is a thin caller of one executor ([`run_fused_numerics`]): kernel-map
//! rows stream from the input features through the strip microkernel's
//! register accumulators straight into the output, in the plan-time
//! [`FusedOrder`], so no gathered or partial-sum buffer exists on the host.
//! A parallel pool runs one task per 64-row output block; a serial pool runs
//! the whole output as one block, offsets outermost, so each offset's
//! weights are read once per layer. Each finished block then runs the
//! layer's epilogue — the storage round and finiteness check, and the batch
//! norm, identity-shortcut add and ReLU the plan folded into the layer
//! (`Epilogue`), with the separate sweeps' f32 operations in their order.
//! It executes the *real* computation on the CPU and nothing else: outputs
//! are bit-identical across groupings, kernels and thread counts, and it
//! sees only a worker pool and the configuration. What the
//! same kernels would cost on the simulated GPU — including the movement
//! pipeline `fused_gather_scatter` selects — is a function of geometry alone
//! and lives in [`crate::cost_model`].

use crate::config::{OptimizationConfig, Precision};
use crate::runtime::{Task, ThreadPool};
use std::ops::Range;
use std::slice::SliceIndex;
use std::sync::atomic::{AtomicBool, Ordering};
use torchsparse_coords::kernel_map::MapEntry;
use torchsparse_coords::KernelMap;
use torchsparse_tensor::microkernel::{self, PackedB};
use torchsparse_tensor::Matrix;

/// Everything a dataflow needs to execute one convolution.
#[derive(Debug)]
pub(crate) struct ConvWorkload<'a> {
    /// Input features (`n_in x c_in`), already in storage precision.
    pub in_feats: &'a Matrix,
    /// Per-offset weights (`c_in x c_out` each) in the microkernel's
    /// panel-major layout: the layer's one copy, packed at construction.
    pub packed: &'a [PackedB],
    /// The kernel map, as this layer reads it.
    pub map: MapView<'a>,
    /// Number of output points.
    pub n_out: usize,
    /// The center offset index if this is a submanifold layer whose center
    /// map is the identity (enables the §4.2.1 shortcut).
    pub center_identity: Option<usize>,
    /// Plan-time locality ordering the executor streams the map in.
    pub fused: &'a FusedOrder,
}

impl ConvWorkload<'_> {
    fn c_in(&self) -> usize {
        self.in_feats.cols()
    }

    fn c_out(&self) -> usize {
        self.packed.first().map_or(0, PackedB::n)
    }
}

/// A convolution's kernel map as its executor, the cost model and the tuner
/// read it, borrowed: a searched map as it is, or — for a transposed
/// convolution — its encoder's map the other way round. Offset `n` then
/// reads the encoder's mirror offset `K^3 - 1 - n` (`n` for an even kernel,
/// which has no mirror) with input and output swapped, in the encoder's
/// order; on a plan's sorted levels that is output-ascending too, as the
/// fine row `s * coarse + o` of one offset rises with its coarse row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MapView<'a> {
    map: &'a KernelMap,
    transposed: bool,
}

impl<'a> MapView<'a> {
    /// `map` as searched, or read the other way round when `transposed`.
    pub(crate) fn new(map: &'a KernelMap, transposed: bool) -> MapView<'a> {
        MapView { map, transposed }
    }

    /// Number of kernel offsets.
    pub(crate) fn num_offsets(self) -> usize {
        self.map.num_offsets()
    }

    /// Entries `range` of offset `n` (`..` for all of them), in order.
    pub(crate) fn entries(
        self,
        n: usize,
        range: impl SliceIndex<[MapEntry], Output = [MapEntry]>,
    ) -> impl ExactSizeIterator<Item = MapEntry> + Clone + 'a {
        let (volume, swap) = (self.map.num_offsets(), self.transposed);
        let source = if swap && volume % 2 == 1 { volume - 1 - n } else { n };
        let read = move |&MapEntry { input, output }: &MapEntry| match swap {
            true => MapEntry { input: output, output: input },
            false => MapEntry { input, output },
        };
        self.map.entries(source)[range].iter().map(read)
    }

    /// Entries per offset.
    pub(crate) fn sizes(self) -> Vec<usize> {
        (0..self.num_offsets()).map(|n| self.entries(n, ..).len()).collect()
    }
}

/// Output rows per executor task on a parallel pool, and map entries per
/// staging batch. Fixed (never derived from the thread count) so the
/// partition is identical at any pool width; a serial pool runs all of a
/// layer's chunks as one block (see [`reduce_chunks`]).
const MOVE_CHUNK: usize = 64;

/// Plan-time locality split for the fused dataflow: the paper's §4.3.2
/// locality-aware access orders, applied to the real CPU executor.
///
/// Every offset of a [`MapView`] is output-ascending, so the order is just
/// each offset's split points at [`MOVE_CHUNK`]-row output boundaries: an
/// executor block that owns the output rows of chunks `c0..c1` — one chunk
/// per task on a parallel pool, every chunk on a serial one — streams
/// exactly entries `starts[n][c0]..starts[n][c1]` of each offset `n`, with
/// no entry copied and nothing else scanned. Each output row appears at most
/// once per offset, so the per-element accumulation order (offsets
/// ascending, one FP32 add per entry) is that of a plain offset-major loop
/// over the whole map. Built once per [`ConvPlan`](crate::plan::ConvPlan),
/// so compiled sessions pay it once per geometry.
#[derive(Debug, Clone)]
pub(crate) struct FusedOrder {
    /// Per-offset chunk split points (`chunks + 1` values each).
    starts: Vec<Vec<u32>>,
}

/// One offset's chunk split points.
fn chunk_starts(entries: impl Iterator<Item = MapEntry> + Clone, chunks: usize) -> Vec<u32> {
    debug_assert!(entries.clone().is_sorted_by_key(|e| e.output), "entries not output-sorted");
    let mut outputs = entries.map(|e| e.output).peekable();
    let mut s = Vec::with_capacity(chunks + 1);
    let mut i = 0u32;
    for c in 0..chunks {
        s.push(i);
        let hi = ((c + 1) * MOVE_CHUNK) as u32;
        while outputs.next_if(|&o| o < hi).is_some() {
            i += 1;
        }
    }
    s.push(i);
    debug_assert!(outputs.next().is_none(), "map output out of range");
    s
}

impl FusedOrder {
    /// Splits `map`'s entries for a convolution producing `n_out` output
    /// rows at [`MOVE_CHUNK`]-row output boundaries, with the per-offset
    /// work running as tasks on the worker pool. Plan builds sit on the
    /// serial critical path of compiled sessions (and of every re-plan), so
    /// spreading the K³ independent offsets across lanes directly raises
    /// the engine's parallel fraction. Offsets are fully independent, so the
    /// constructed order is bitwise the same at any pool width.
    #[must_use]
    pub(crate) fn build_on(pool: &ThreadPool, map: MapView<'_>, n_out: usize) -> FusedOrder {
        let chunks = n_out.div_ceil(MOVE_CHUNK);
        let mut starts = vec![Vec::new(); map.num_offsets()];
        let tasks: Vec<Task<'_>> = starts
            .iter_mut()
            .enumerate()
            .map(|(n, slot)| {
                Box::new(move || *slot = chunk_starts(map.entries(n, ..), chunks)) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        FusedOrder { starts }
    }

    /// The chunk split points of offset `n`.
    #[inline]
    pub(crate) fn starts(&self, n: usize) -> &[u32] {
        &self.starts[n]
    }

    /// Bytes this order occupies beyond the kernel map it splits (for the
    /// frozen-plan memory accounting).
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.starts.iter().map(|s| s.len() as u64 * 4).sum()
    }
}

/// Rewrites every NaN in a finished output block to the one canonical
/// quiet NaN. IEEE 754 leaves the sign and payload of `NaN + NaN` to the
/// operand order, which the compiler — not the accumulation order — picks
/// per code path, so without this an input NaN meeting an `inf - inf` NaN
/// could leave different bits on different kernels.
fn canonicalize_nans(block: &mut [f32]) {
    // Unconditional store: compiles to a compare-and-blend sweep.
    for v in block {
        *v = if v.is_nan() { f32::NAN } else { *v };
    }
}

/// The pointwise steps that follow a convolution, run on each finished
/// output block while it is still in cache instead of as whole-matrix
/// sweeps of their own. The plan marks which steps a convolution absorbs
/// ([`crate::plan::EpilogueSteps`]); the layer fills in the storage rounds.
///
/// Per element, in this order: round the convolution's output to binary16
/// storage; then, in a block whose rounded values are all finite, batch
/// norm `v * scale + shift` and its binary16 round, the identity-shortcut
/// add `v + shortcut`, and ReLU `v.max(0.0)`. These are the f32 operations
/// of the separate sweeps in their order, so the output bits are the same.
/// A layer re-run in FP32 after an overflow keeps its own output in FP32
/// but still stores the batch norm's in binary16, as the separate
/// `BatchNorm::apply` sweep does.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Epilogue<'a> {
    /// Binary16 storage of the convolution's output: round it, and report
    /// a non-finite rounded output.
    pub(crate) round_conv: bool,
    /// Binary16 storage of the batch norm's output.
    pub(crate) round_batch_norm: bool,
    /// Batch norm's per-channel `(scale, shift)`.
    pub(crate) batch_norm: Option<(&'a [f32], &'a [f32])>,
    /// The identity shortcut added after batch norm (same shape as the
    /// output).
    pub(crate) shortcut: Option<&'a Matrix>,
    /// Apply ReLU last.
    pub(crate) relu: bool,
}

impl Epilogue<'_> {
    /// Finishes output rows `first_row ..` held in `block` (`cols` wide).
    /// Returns `false`, leaving the later operations undone, when the
    /// rounded convolution output holds a non-finite value: the layer then
    /// re-runs in FP32, epilogue and all.
    fn finish(&self, first_row: usize, cols: usize, block: &mut [f32]) -> bool {
        if self.round_conv {
            microkernel::f16_round_trip_slice(block);
            if !block.iter().all(|v| v.is_finite()) {
                return false;
            }
        }
        if let Some((scale, shift)) = self.batch_norm {
            for row in block.chunks_mut(cols) {
                for (v, (s, sh)) in row.iter_mut().zip(scale.iter().zip(shift)) {
                    *v = *v * s + sh;
                }
            }
            if self.round_batch_norm {
                microkernel::f16_round_trip_slice(block);
            }
        }
        if let Some(shortcut) = self.shortcut {
            let rows = first_row * cols..first_row * cols + block.len();
            for (v, s) in block.iter_mut().zip(&shortcut.as_slice()[rows]) {
                *v += s;
            }
        }
        if self.relu {
            for v in block.iter_mut() {
                *v = v.max(0.0);
            }
        }
        true
    }
}

/// Runs `f(c0..c1, block)` over `out`'s [`MOVE_CHUNK`]-row chunks, where
/// `block` holds output rows `c0 * MOVE_CHUNK ..` up to chunk `c1` (or the
/// last row). A serial, non-recording pool makes one inline call over
/// every chunk — the whole buffer, so a convolution reads each offset's
/// weights once per layer instead of once per chunk; any other pool gets
/// one `c..c + 1` task per chunk in one wave (a recording pool keeps those
/// tasks so its trace shows the parallel task graph). Blocks are disjoint
/// and no row's arithmetic depends on which rows share its block, so the
/// result is the same at any thread count.
fn reduce_chunks(pool: &ThreadPool, out: &mut Matrix, f: impl Fn(Range<usize>, &mut [f32]) + Sync) {
    if pool.threads() <= 1 && !pool.is_recording() {
        f(0..out.rows().div_ceil(MOVE_CHUNK), out.as_mut_slice());
        return;
    }
    let block_len = MOVE_CHUNK * out.cols();
    let f = &f;
    let tasks: Vec<Task<'_>> = out
        .as_mut_slice()
        .chunks_mut(block_len)
        .enumerate()
        .map(|(c, block)| Box::new(move || f(c..c + 1, block)) as Task<'_>)
        .collect();
    pool.run(tasks);
}

/// Whether a group is the bare center-identity offset that the §4.2.1
/// shortcut multiplies in place, without data movement.
pub(crate) fn is_center_shortcut(
    config: &OptimizationConfig,
    center_identity: Option<usize>,
    offsets: &[usize],
) -> bool {
    config.skip_center_movement && offsets.len() == 1 && Some(offsets[0]) == center_identity
}

/// The one host executor: kernel-map rows stream straight from `in_feats`
/// through the strip kernel's register accumulators into `out`, with no
/// gathered or partial-sum buffer in between.
///
/// Per output element this is Algorithm 2's arithmetic — a zero-initialized
/// k-ascending dot product per map entry, optional f16 rounding of that
/// product (the 16-bit partial-sum store), then one FP32 add per entry with
/// the `shortcut` offset first, unrounded, and the others ascending —
/// whatever the kernel or thread count (`tests/support/conv_reference.rs` is
/// the scalar transcription the suites hold it to). The shortcut's product
/// lands in a `+0.0` row: a sum that starts from `+0.0` is never `-0.0`, so
/// that add is exact, as if the product were stored. Each [`reduce_chunks`]
/// block walks the offsets in that order, streaming its slice of each
/// offset's output-sorted entries: a parallel task owns one [`MOVE_CHUNK`]-row
/// block, and a serial pool runs the whole output as one block, so each
/// offset's weights stay hot across the layer instead of being re-read for
/// every chunk. Which rows
/// share a block never enters a row's own sum.
///
/// Each finished block has its NaNs canonicalized and then runs
/// `epilogue`. Returns `false` when the epilogue found a
/// non-finite rounded output in some block.
fn run_fused_numerics(
    w: &ConvWorkload<'_>,
    shortcut: Option<usize>,
    round_f16: bool,
    pool: &ThreadPool,
    epilogue: &Epilogue<'_>,
    out: &mut Matrix,
) -> bool {
    let (c_in, c_out) = (w.c_in(), w.c_out());
    if out.rows() == 0 || c_out == 0 {
        return true;
    }
    let a = w.in_feats.as_slice();
    let volume = w.map.num_offsets();
    let finite = AtomicBool::new(true);
    reduce_chunks(pool, out, |chunks, block| {
        let first_row = chunks.start * MOVE_CHUNK;
        let mut in_rows = [0u32; MOVE_CHUNK];
        let mut out_rel = [0u32; MOVE_CHUNK];
        // The §4.2.1 center offset first, its product kept in FP32, then
        // the rest ascending.
        let rest = (0..volume).filter(|&n| Some(n) != shortcut);
        for n in shortcut.into_iter().chain(rest) {
            let round_f16 = round_f16 && Some(n) != shortcut;
            let starts = w.fused.starts(n);
            let (lo, hi) = (starts[chunks.start] as usize, starts[chunks.end] as usize);
            let mut entries = w.map.entries(n, lo..hi);
            // The block's entries of offset `n`, output-ascending, stream
            // through the MOVE_CHUNK-row staging tiles with this offset's
            // weights hot; each output row still takes its adds offset by
            // offset, in ascending order.
            for batch in (lo..hi).step_by(MOVE_CHUNK) {
                let len = MOVE_CHUNK.min(hi - batch);
                for (j, e) in entries.by_ref().take(len).enumerate() {
                    in_rows[j] = e.input;
                    out_rel[j] = e.output - first_row as u32;
                }
                microkernel::gemm_gather_scatter(
                    a,
                    c_in,
                    &in_rows[..len],
                    &w.packed[n],
                    c_out,
                    round_f16,
                    block,
                    &out_rel[..len],
                );
            }
        }
        canonicalize_nans(block);
        if !epilogue.finish(first_row, c_out, block) {
            finite.store(false, Ordering::Relaxed);
        }
    });
    finite.into_inner()
}

/// Executes Algorithm 2 into `out` (reshaped to `n_out x c_out` and zeroed
/// here, its buffer reused), with `epilogue` run on every finished output
/// block. Returns `false` when the epilogue found a non-finite rounded
/// output.
///
/// With `skip_center_movement`, a submanifold layer's center offset is the
/// §4.2.1 shortcut: its map is the identity, so it needs no data movement,
/// and its product is never stored in 16 bits. The executor streams it
/// first in every output block, then the other offsets. Matmul grouping is
/// not an input: pad rows are never computed on the host, so only the cost
/// model builds a [`GroupPlan`](crate::grouping::GroupPlan).
pub(crate) fn gather_matmul_scatter_into(
    w: &ConvWorkload<'_>,
    config: &OptimizationConfig,
    pool: &ThreadPool,
    epilogue: &Epilogue<'_>,
    out: &mut Matrix,
) -> bool {
    out.reshape_zeroed(w.n_out, w.c_out());
    let shortcut = w.center_identity.filter(|_| config.skip_center_movement);
    let round_f16 = config.precision != Precision::Fp32;
    run_fused_numerics(w, shortcut, round_f16, pool, epilogue, out)
}

/// The scalar oracle the unit tests below (and the root suites) hold the
/// executor to.
#[cfg(test)]
#[path = "../../../tests/support/conv_reference.rs"]
#[allow(unreachable_pub)] // `pub` for the root suites that include it too
mod conv_reference;

/// The root suites' correctly rounded sum, the bound's reference below.
#[cfg(test)]
#[path = "../../../tests/support/accum.rs"]
#[allow(dead_code, unreachable_pub)] // shared with the root suites
mod accum;

#[cfg(test)]
pub(crate) mod tests {
    use super::accum::exact_sum;
    use super::conv_reference::conv_reference;
    use super::*;
    use torchsparse_coords::downsample::{fused_output_coords, Boundary};
    use torchsparse_coords::kernel_map::search_dilated_on;
    use torchsparse_coords::{Coord, CoordHashMap};
    use torchsparse_tensor::gemm::{self, GemmOpts};
    use torchsparse_tensor::quant::round_trip_f16_in_place;

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

    /// One convolution on a small fixed scene: features, weights, the
    /// kernel map, and the center offset when it is a submanifold layer.
    pub(crate) struct Parts {
        pub(crate) feats: Matrix,
        pub(crate) weights: Vec<Matrix>,
        /// `weights` packed, as the layer holds them.
        packed: Vec<PackedB>,
        pub(crate) map: KernelMap,
        /// Whether the layer reads `map` coarse to fine (transposed).
        transposed: bool,
        pub(crate) n_out: usize,
        center: Option<usize>,
    }

    /// A submanifold 3x3x3 layer on `coords`.
    fn submanifold_parts(coords: &[Coord], c_in: usize, c_out: usize) -> Parts {
        let (table, _) = CoordHashMap::build(coords);
        let map = search_dilated_on(ThreadPool::global(), coords, &table, 3, 1, 1).unwrap();
        parts(map, coords.len(), coords.len(), c_in, c_out, Some(13))
    }

    /// A submanifold 3x3x3 layer on a one-chunk scene.
    pub(crate) fn workload_parts(c_in: usize, c_out: usize) -> Parts {
        submanifold_parts(&scene(9), c_in, c_out)
    }

    /// The center shortcut's edges: a submanifold layer on a 2x2x2 block
    /// plus four isolated voxels, whose one map entry is the center. The
    /// isolated rows are all negative against `+0.0` center weights, so
    /// every term of their center product is `-0.0` and nothing else lands
    /// on them; with `nan`, a block row's features also hold a NaN.
    fn center_edge_parts(nan: bool) -> Parts {
        let mut coords: Vec<Coord> =
            (0..8).map(|i| Coord::new(0, i & 1, (i >> 1) & 1, i >> 2)).collect();
        coords.extend((1..=4).map(|i| Coord::new(0, 10 * i, 0, 0)));
        let mut parts = submanifold_parts(&coords, 5, 18);
        parts.weights[13] = Matrix::zeros(5, 18);
        parts.packed[13] = PackedB::pack(&parts.weights[13]);
        for r in 8..12 {
            for ch in 0..5 {
                parts.feats[(r, ch)] = -1.5 - ch as f32;
            }
        }
        if nan {
            parts.feats[(2, 1)] = f32::NAN;
        }
        parts
    }

    /// A 2x2x2 stride-2 downsampling layer over the sorted level `fine`,
    /// or the transposed layer that inverts it: the same map, read coarse
    /// to fine through a transposed [`MapView`].
    fn strided_parts(fine: Vec<Coord>, c_in: usize, c_out: usize, transposed: bool) -> Parts {
        let coarse = fused_output_coords(&fine, 2, 2, Boundary::unbounded()).unwrap().coords;
        let (table, _) = CoordHashMap::build(&fine);
        let map = search_dilated_on(ThreadPool::global(), &coarse, &table, 2, 2, 1).unwrap();
        let (n_in, n_out) =
            if transposed { (coarse.len(), fine.len()) } else { (fine.len(), coarse.len()) };
        Parts { transposed, ..parts(map, n_in, n_out, c_in, c_out, None) }
    }

    fn parts(
        map: KernelMap,
        n_in: usize,
        n_out: usize,
        c_in: usize,
        c_out: usize,
        center: Option<usize>,
    ) -> Parts {
        let feats = pseudo_matrix(n_in, c_in, 7);
        let weights: Vec<Matrix> =
            (0..map.num_offsets()).map(|n| pseudo_matrix(c_in, c_out, 100 + n as u64)).collect();
        let packed = weights.iter().map(PackedB::pack).collect();
        Parts { feats, weights, packed, map, transposed: false, n_out, center }
    }

    impl Parts {
        fn view(&self) -> MapView<'_> {
            MapView::new(&self.map, self.transposed)
        }

        fn workload<'a>(&'a self, fused: &'a FusedOrder) -> ConvWorkload<'a> {
            ConvWorkload {
                in_feats: &self.feats,
                packed: &self.packed,
                map: self.view(),
                n_out: self.n_out,
                center_identity: self.center,
                fused,
            }
        }

        /// Gather-matmul-scatter on the default-width order.
        fn run_gms(&self, cfg: &OptimizationConfig) -> Matrix {
            let order = FusedOrder::build_on(&ThreadPool::new(1), self.view(), self.n_out);
            let w = self.workload(&order);
            gather_matmul_scatter(&w, cfg, &ThreadPool::new(1))
        }

        /// The scalar oracle for gather-matmul-scatter under `cfg`. A
        /// transposed layer's oracle map is written out here: every entry
        /// swapped, at its own offset (the strided layers' 2x2x2 kernel has
        /// no mirror).
        fn reference(&self, cfg: &OptimizationConfig) -> Matrix {
            let shortcut = self.center.filter(|_| cfg.skip_center_movement);
            let round_f16 = cfg.precision != Precision::Fp32;
            let swapped = |n| {
                let swap = |e: &MapEntry| MapEntry { input: e.output, output: e.input };
                self.map.entries(n).iter().map(swap).collect()
            };
            let lists = || (0..self.map.num_offsets()).map(swapped).collect();
            let map = match self.transposed {
                true => &KernelMap::from_parts(2, 2, lists(), Default::default()).unwrap(),
                false => &self.map,
            };
            conv_reference(&self.feats, &self.weights, map, self.n_out, shortcut, round_f16)
        }
    }

    /// Gather-matmul-scatter into a fresh output, no epilogue.
    fn gather_matmul_scatter(
        w: &ConvWorkload<'_>,
        cfg: &OptimizationConfig,
        pool: &ThreadPool,
    ) -> Matrix {
        let mut out = Matrix::default();
        gather_matmul_scatter_into(w, cfg, pool, &Epilogue::default(), &mut out);
        out
    }

    fn bits_of(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn executor_matches_scalar_reference_bitwise() {
        let layers = [
            ("submanifold", workload_parts(8, 16)),
            ("strided", strided_parts(scene(9), 8, 20, false)),
            ("transposed", strided_parts(scene(9), 6, 8, true)),
            // Several chunks: a serial pool runs these as one whole-layer
            // block, offsets outermost, and wider pools as per-chunk tasks.
            ("submanifold, several chunks", submanifold_parts(&sites(1), 8, 16)),
            ("transposed, several chunks", strided_parts(sites(1), 6, 8, true)),
            ("center -0.0 terms", center_edge_parts(false)),
            ("center -0.0 terms and a NaN row", center_edge_parts(true)),
        ];
        for (name, parts) in &layers {
            assert_eq!(parts.transposed, name.starts_with("transposed"), "{name}");
            let order = FusedOrder::build_on(&ThreadPool::new(1), parts.view(), parts.n_out);
            if name.ends_with("several chunks") {
                assert!(parts.n_out.div_ceil(MOVE_CHUNK) >= 3, "{name}: {} rows", parts.n_out);
            }
            for precision in [Precision::Fp32, Precision::Fp16] {
                for skip_center in [false, true] {
                    let mut cfg = OptimizationConfig::torchsparse();
                    cfg.precision = precision;
                    cfg.skip_center_movement = skip_center;
                    let expect = bits_of(&parts.reference(&cfg));
                    for threads in [1, 3] {
                        let w = parts.workload(&order);
                        let pool = ThreadPool::new(threads);
                        let got = gather_matmul_scatter(&w, &cfg, &pool);
                        assert_eq!(
                            bits_of(&got),
                            expect,
                            "{name} {precision:?} skip_center={skip_center} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    /// A transposed view reads offset `n` from the encoder's mirror offset
    /// (an odd kernel) or from `n` (an even one) with input and output
    /// swapped, every entry once; on a sorted level each of its offsets is
    /// output-ascending, all `FusedOrder` asks of a map. A submanifold map
    /// read the other way round holds its own entries.
    #[test]
    fn a_transposed_view_reads_the_encoder_map_coarse_to_fine() {
        let fine = sites(1);
        for kernel in [2, 3] {
            let coarse = fused_output_coords(&fine, kernel, 2, Boundary::unbounded()).unwrap();
            let coarse = coarse.coords;
            let (table, _) = CoordHashMap::build(&fine);
            let map = search_dilated_on(ThreadPool::global(), &coarse, &table, kernel, 2, 1);
            let map = map.unwrap();
            let view = MapView::new(&map, true);
            let offs = torchsparse_coords::offsets::kernel_offsets(kernel).unwrap();
            let mut total = 0;
            for (n, d) in offs.iter().enumerate() {
                let sign = if kernel % 2 == 1 { -1 } else { 1 };
                let entries: Vec<MapEntry> = view.entries(n, ..).collect();
                for e in &entries {
                    let q = coarse[e.input as usize];
                    let up = Coord::new(q.batch, 2 * q.x, 2 * q.y, 2 * q.z);
                    let want = up.offset([sign * d[0], sign * d[1], sign * d[2]]);
                    assert_eq!(fine[e.output as usize], want, "kernel {kernel} offset {n}");
                }
                assert!(entries.windows(2).all(|w| w[0].output < w[1].output), "offset {n}");
                total += entries.len();
            }
            assert_eq!(total, map.total_entries(), "kernel {kernel}");
        }
        let map = submanifold_parts(&fine, 1, 1).map;
        let view = MapView::new(&map, true);
        for n in 0..27 {
            let mut read: Vec<MapEntry> = view.entries(n, ..).collect();
            read.sort_by_key(|e| (e.output, e.input));
            assert_eq!(read, map.entries(n), "offset {n}");
        }
    }

    /// The partition rule: a serial pool gets one call over every chunk and
    /// the whole buffer; a parallel or recording pool one task per
    /// `MOVE_CHUNK`-row chunk. Each block is the rows its range names.
    #[test]
    fn reduce_chunks_hands_a_serial_pool_the_whole_buffer_and_others_one_chunk_each() {
        let (rows, cols) = (3 * MOVE_CHUNK + 5, 2);
        let calls = |pool: &ThreadPool| {
            let mut out = Matrix::zeros(rows, cols);
            let seen = std::sync::Mutex::new(Vec::new());
            reduce_chunks(pool, &mut out, |chunks, block| {
                let first = chunks.start * MOVE_CHUNK * cols;
                for (i, v) in block.iter_mut().enumerate() {
                    *v = (first + i) as f32;
                }
                seen.lock().unwrap().push((chunks, block.len()));
            });
            let whole: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            assert_eq!(out.as_slice(), &whole[..], "every element written once, at its row");
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|(chunks, _)| chunks.start);
            seen
        };
        assert_eq!(calls(&ThreadPool::new(1)), vec![(0..4, rows * cols)]);
        let per_chunk: Vec<_> = [MOVE_CHUNK, MOVE_CHUNK, MOVE_CHUNK, 5]
            .iter()
            .enumerate()
            .map(|(c, r)| (c..c + 1, r * cols))
            .collect();
        assert_eq!(calls(&ThreadPool::new(3)), per_chunk, "parallel pool");
        assert_eq!(calls(&ThreadPool::new_recording()), per_chunk, "recording pool");
    }

    #[test]
    fn fp16_output_close_to_fp32() {
        let parts = workload_parts(8, 8);
        let expect = parts.reference(&OptimizationConfig::baseline_fp32());
        let out = parts.run_gms(&OptimizationConfig::torchsparse());
        let rel = out.max_abs_diff(&expect).unwrap() / expect.frobenius_norm().max(1e-6);
        assert!(rel < 0.01, "fp16 relative error {rel} too large");
    }

    /// An 8 x 8 x 6 block with a quarter of its voxels knocked out: dense
    /// enough that interior rows have a producer at most of the 27 offsets,
    /// so the order of the adds is actually at stake.
    fn sites(seed: i32) -> Vec<Coord> {
        let mut sites = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..6 {
                    if (x * 7 + y * 13 + z * 5 + seed) % 4 != 0 {
                        sites.push(Coord::new(0, x, y, z));
                    }
                }
            }
        }
        sites
    }

    fn features(rows: usize, c: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, c, |r, ch| {
            let v =
                (r as u64).wrapping_mul(0x9E37_79B9).wrapping_add(ch as u64).wrapping_mul(seed | 1);
            ((v % 1000) as f32 - 500.0) / 250.0
        })
    }

    /// The price of dropping the superaccumulator, bounded: every output
    /// element of the canonical-order FP32 reduction lies within
    /// `(k - 1) * eps * sum|addend|` of the oracle's correctly rounded sum of
    /// the same addends (`k` = the row's producer count) — the textbook bound
    /// for recursive summation, whose first add into the zeroed row is exact.
    /// Checked on one layer for FP32 and for FP16's f16-rounded partial sums
    /// (which is where `-0.0` addends come from).
    #[test]
    fn canonical_order_sum_is_within_recursive_summation_bound_of_oracle() {
        let coords = sites(1);
        let (c_in, c_out) = (6, 5);
        // Every fifth row is tiny, so FP16 rounds its products to signed zeros.
        let base = features(coords.len(), c_in, 71);
        let feats = Matrix::from_fn(coords.len(), c_in, |r, ch| {
            base[(r, ch)] * if r % 5 == 0 { 1.0e-7 } else { 1.0 }
        });
        let weights: Vec<Matrix> = (0..27).map(|n| features(c_in, c_out, 100 + n)).collect();
        let packed: Vec<PackedB> = weights.iter().map(PackedB::pack).collect();
        let (table, _) = CoordHashMap::build(&coords);
        let map =
            search_dilated_on(ThreadPool::global(), &coords, &table, 3, 1, 1).expect("map search");
        let n_out = coords.len();
        let order = FusedOrder::build_on(ThreadPool::global(), MapView::new(&map, false), n_out);

        for precision in [Precision::Fp32, Precision::Fp16] {
            let mut cfg = crate::EnginePreset::TorchSparse.config();
            cfg.precision = precision;
            // No center shortcut: every offset's product takes the psum store.
            cfg.skip_center_movement = false;

            // The addends of every output element, in any order: per offset,
            // the GEMM of the gathered rows (bit-identical to the engine's at
            // any kernel), f16-rounded when partial sums are stored in 16 bits.
            let mut addends: Vec<Vec<f32>> = vec![Vec::new(); n_out * c_out];
            for (n, weight) in packed.iter().enumerate() {
                let entries = map.entries(n);
                let gathered = Matrix::from_fn(entries.len(), c_in, |i, ch| {
                    feats[(entries[i].input as usize, ch)]
                });
                let mut products = Matrix::zeros(entries.len(), c_out);
                gemm::mm_into_packed_on(
                    ThreadPool::global(),
                    &gathered,
                    weight,
                    &mut products,
                    GemmOpts::default(),
                )
                .expect("shapes agree");
                if precision != Precision::Fp32 {
                    round_trip_f16_in_place(ThreadPool::global(), &mut products);
                }
                for (i, e) in entries.iter().enumerate() {
                    for co in 0..c_out {
                        addends[e.output as usize * c_out + co].push(products[(i, co)]);
                    }
                }
            }
            let negative_zeros =
                addends.iter().flatten().filter(|v| v.to_bits() == (-0.0f32).to_bits()).count();
            assert_eq!(negative_zeros > 0, precision == Precision::Fp16, "{precision:?}");

            let workload = ConvWorkload {
                in_feats: &feats,
                packed: &packed,
                map: MapView::new(&map, false),
                n_out,
                center_identity: Some(13),
                fused: &order,
            };
            let out = gather_matmul_scatter(&workload, &cfg, ThreadPool::global());
            let mut widest = 0usize;
            for (got, addends) in out.as_slice().iter().zip(&addends) {
                let k = addends.len();
                widest = widest.max(k);
                let oracle = f64::from(exact_sum(addends));
                let sum_abs: f64 = addends.iter().map(|&v| f64::from(v).abs()).sum();
                let bound = k.saturating_sub(1) as f64 * f64::from(f32::EPSILON) * sum_abs;
                let err = (f64::from(*got) - oracle).abs();
                assert!(
                    err <= bound,
                    "{precision:?}: {got} vs oracle {oracle} over {k} addends \
                     (err {err:e} > bound {bound:e})"
                );
            }
            assert!(widest >= 10, "the scene must exercise long producer lists, got {widest}");
        }
    }
}
