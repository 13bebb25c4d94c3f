use crate::config::{OptimizationConfig, Precision};
use crate::context::{CachedMap, Context, LayerWorkload, MapKey};
use crate::dataflow::{gather_matmul_scatter_into, ConvWorkload, Epilogue, FusedOrder, MapView};
use crate::faults::FaultSite;
use crate::mapping::build_layer_mapping_on;
use crate::module::Module;
use crate::plan::{ConvPlan, EpilogueSteps, LayerOp, Tracer};
use crate::runtime::Runtime;
use crate::CoreError;
use std::sync::Arc;
use torchsparse_coords::{offsets, Coord, CoordsError};
use torchsparse_gpusim::Micros;
use torchsparse_tensor::{Matrix, PackedB};

/// A sparse 3D convolution layer (`torchsparse.nn.Conv3d`).
///
/// Three flavors, selected by `stride`/`transposed`:
///
/// - **submanifold** (`stride == 1`): outputs at exactly the input sites;
/// - **strided downsampling** (`stride > 1`): output coordinates computed by
///   Algorithm 3;
/// - **transposed/inverse** (`transposed == true`): upsamples back to the
///   coordinates of the matching downsampling layer by reusing its cached
///   map with inputs and outputs swapped — no `indice_key` bookkeeping is
///   required of the user (§4.1).
///
/// # Example
///
/// ```
/// use torchsparse_core::SparseConv3d;
///
/// let conv = SparseConv3d::with_random_weights("conv1", 4, 16, 3, 1, 42);
/// assert_eq!(conv.c_in(), 4);
/// // One 4 x 16 matrix per offset of the 3x3x3 kernel, rebuilt from the
/// // packed copy the layer holds.
/// let weights = conv.weights();
/// assert_eq!(weights.len(), 27);
/// assert_eq!(weights[0].shape(), (4, 16));
/// ```
pub struct SparseConv3d {
    name: String,
    c_in: usize,
    c_out: usize,
    kernel_size: usize,
    stride: i32,
    dilation: i32,
    transposed: bool,
    /// The per-offset weights, packed once at construction into the
    /// microkernel's panel-major layout: the only copy the layer holds,
    /// shared with every [`ConvPlan`] (of every stream) via `Arc`.
    packed: Arc<Vec<PackedB>>,
}

/// A tiny deterministic generator for weight initialization (keeps the core
/// crate free of a `rand` dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SparseConv3d {
    /// Creates a convolution with explicit per-offset weights, packing them
    /// into the microkernel's layout; the row-major matrices are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Coords`] ([`CoordsError::ZeroStride`]) when
    /// `stride < 1`, [`CoreError::BadWeightCount`] when `weights.len()` is
    /// not `kernel_size^3` and [`CoreError::Tensor`] on a shape mismatch.
    pub fn new(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel_size: usize,
        stride: i32,
        transposed: bool,
        weights: Vec<Matrix>,
    ) -> Result<SparseConv3d, CoreError> {
        if stride < 1 {
            return Err(CoreError::Coords(CoordsError::ZeroStride));
        }
        let volume = offsets::kernel_volume(kernel_size);
        if weights.len() != volume {
            return Err(CoreError::BadWeightCount { expected: volume, actual: weights.len() });
        }
        for w in &weights {
            if w.shape() != (c_in, c_out) {
                return Err(CoreError::Tensor(torchsparse_tensor::TensorError::ShapeMismatch {
                    op: "conv_weights",
                    lhs: w.shape(),
                    rhs: (c_in, c_out),
                }));
            }
        }
        Ok(SparseConv3d {
            name: name.into(),
            c_in,
            c_out,
            kernel_size,
            stride,
            dilation: 1,
            transposed,
            packed: Arc::new(weights.iter().map(PackedB::pack).collect()),
        })
    }

    /// Creates a convolution with Kaiming-style random weights from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_size == 0` or `stride < 1` (configuration bugs, not
    /// input data).
    pub fn with_random_weights(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel_size: usize,
        stride: i32,
        seed: u64,
    ) -> SparseConv3d {
        assert!(kernel_size > 0, "kernel size must be positive");
        let volume = offsets::kernel_volume(kernel_size);
        let fan_in = (c_in * volume) as f32;
        let scale = (2.0 / fan_in).sqrt();
        let mut state = seed;
        let weights = (0..volume)
            .map(|_| {
                Matrix::from_fn(c_in, c_out, |_, _| {
                    // Uniform in [-scale, scale].
                    let u = (splitmix64(&mut state) >> 11) as f32 / (1u64 << 53) as f32;
                    (2.0 * u - 1.0) * scale
                })
            })
            .collect();
        // The weights above are exactly `volume` matrices of `c_in x c_out`,
        // so `new` fails only on a stride below 1.
        #[allow(clippy::expect_used)]
        SparseConv3d::new(name, c_in, c_out, kernel_size, stride, false, weights)
            .expect("stride must be at least 1")
    }

    /// Marks the convolution as transposed (inverse), builder style.
    #[must_use]
    pub fn into_transposed(mut self) -> SparseConv3d {
        self.transposed = true;
        self
    }

    /// Sets the dilation factor (builder style). Only stride-1,
    /// non-transposed convolutions may be dilated.
    ///
    /// # Panics
    ///
    /// Panics if `dilation < 1`, or if the layer is strided or transposed.
    #[must_use]
    pub fn with_dilation(mut self, dilation: i32) -> SparseConv3d {
        assert!(dilation >= 1, "dilation must be at least 1");
        assert!(
            self.stride == 1 && !self.transposed || dilation == 1,
            "dilation requires a stride-1 non-transposed convolution"
        );
        self.dilation = dilation;
        self
    }

    /// The dilation factor.
    #[cfg(test)]
    pub(crate) fn dilation(&self) -> i32 {
        self.dilation
    }

    /// Input channels.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channels.
    pub(crate) fn c_out(&self) -> usize {
        self.c_out
    }

    /// The kernel size.
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Convolution stride.
    pub fn stride(&self) -> i32 {
        self.stride
    }

    /// Whether this is a transposed (inverse) convolution.
    pub(crate) fn is_transposed(&self) -> bool {
        self.transposed
    }

    /// Whether this layer is a stride-1 submanifold convolution with an odd
    /// kernel (the case with identity center map and mirror symmetry).
    pub fn is_submanifold(&self) -> bool {
        self.stride == 1 && !self.transposed && self.kernel_size % 2 == 1
    }

    /// Stable per-layer tuning key (name).
    pub fn layer_name(&self) -> &str {
        &self.name
    }

    /// The per-offset weights as row-major `c_in x c_out` matrices, rebuilt
    /// bit for bit from the packed copy (a fresh allocation each call; the
    /// layer keeps no row-major copy).
    pub fn weights(&self) -> Vec<Matrix> {
        self.packed.iter().map(PackedB::unpack).collect()
    }

    /// The map cache key of this layer on an input at `in_stride`: keyed by
    /// the finer side, so a transposed layer finds the map of the
    /// downsampling layer it inverts.
    pub(crate) fn map_key(&self, in_stride: i32) -> MapKey {
        let fine_stride = if self.transposed { in_stride / self.stride } else { in_stride };
        MapKey {
            fine_stride,
            kernel_size: self.kernel_size,
            conv_stride: self.stride,
            dilation: self.dilation,
        }
    }

    /// The plan half: derives everything this layer needs from input
    /// *geometry* alone — kernel map (built or cached), output coordinates
    /// and stride, and the layer's grouping strategy. Charges nothing: it
    /// returns the `Mapping` latency of its map search (`None` when the map
    /// came from the cache) beside the plan for the caller to log, and under
    /// [`Context::record_workloads`] the layer's workload is recorded here.
    pub(crate) fn plan(
        &self,
        coords: &Arc<[Coord]>,
        in_stride: i32,
        in_channels: usize,
        ctx: &mut Context,
    ) -> Result<(ConvPlan, Option<Micros>), CoreError> {
        if in_channels != self.c_in {
            return Err(CoreError::ChannelMismatch { expected: self.c_in, actual: in_channels });
        }
        if coords.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let key = self.map_key(in_stride);
        let (cached, mapping) = if self.transposed {
            let cached = ctx.planner.cached_map(key).ok_or(CoreError::MissingCachedMap {
                stride: in_stride,
                kernel_size: self.kernel_size,
            })?;
            (cached, None)
        } else {
            acquire_map(key, coords, ctx)?
        };
        // A transposed conv reads the cached map coarse -> fine.
        let (out_coords, out_stride) = if self.transposed {
            (Arc::clone(&cached.fine), in_stride / self.stride)
        } else {
            (Arc::clone(&cached.coarse), in_stride * self.stride)
        };
        let map = MapView::new(&cached.map, self.transposed);

        let submanifold = self.is_submanifold();
        let center = if submanifold { offsets::center_index(self.kernel_size) } else { None };

        if ctx.record_workloads {
            ctx.workloads.push(LayerWorkload {
                name: self.name.clone(),
                map_sizes: map.sizes(),
                c_in: self.c_in,
                c_out: self.c_out,
                submanifold,
            });
        }
        // Plan-time locality split, once per geometry, on the worker pool:
        // plan builds are on the serial critical path of compiled sessions.
        let fused = Arc::new(FusedOrder::build_on(&ctx.runtime.pool(), map, out_coords.len()));

        let plan = ConvPlan {
            cached,
            transposed: self.transposed,
            out_coords,
            out_stride,
            center,
            c_in: self.c_in,
            c_out: self.c_out,
            grouping: ctx.grouping_for(&self.name),
            packed: Arc::clone(&self.packed),
            fused,
            epilogue: EpilogueSteps::default(),
        };
        Ok((plan, mapping))
    }

    /// The execute half: the feature-path numerics (gather/matmul/scatter,
    /// plus the storage rounds and overflow fallback) of `input` against a
    /// frozen [`ConvPlan`], written into `out` (reshaped here; its buffer is
    /// reused). Never builds maps, plans groups or touches the cost model.
    ///
    /// `epilogue` names the pointwise work of the steps the plan folded
    /// into this layer. It always runs inside the executor's output
    /// blocks, after the storage round and finiteness check. A layer whose
    /// FP16 output overflows, organically or by an injected fault, re-runs
    /// in FP32 with the same epilogue. Returns whether it re-ran.
    pub(crate) fn compute(
        &self,
        input: &Matrix,
        plan: &ConvPlan,
        epilogue: Epilogue<'_>,
        out: &mut Matrix,
        config: &OptimizationConfig,
        rt: &mut Runtime,
    ) -> Result<bool, CoreError> {
        if input.cols() != self.c_in {
            return Err(CoreError::ChannelMismatch { expected: self.c_in, actual: input.cols() });
        }
        if input.rows() == 0 {
            return Err(CoreError::EmptyInput);
        }
        let workload = ConvWorkload {
            in_feats: input,
            packed: &plan.packed,
            map: plan.map(),
            n_out: plan.out_coords.len(),
            center_identity: plan.center,
            fused: &plan.fused,
        };
        let pool = rt.pool();
        let quantized = config.precision != Precision::Fp32;
        // The overflow probe precedes the executor, so no other site is
        // probed in between and the injector's draws keep their order. An
        // injected overflow skips the quantized run it dooms.
        let inject = quantized
            && workload.n_out * self.c_out > 0
            && rt.faults.should_fail(FaultSite::Fp16Overflow);
        let epilogue = Epilogue { round_conv: quantized, round_batch_norm: quantized, ..epilogue };
        let reran = inject || !gather_matmul_scatter_into(&workload, config, &pool, &epilogue, out);
        if reran {
            rt.degradation.record(
                FaultSite::Fp16Overflow,
                "non-finite quantized output; layer re-run in FP32",
            );
            // The re-run's own output stays FP32 (a batch norm after it
            // still stores binary16): precision is a storage optimization,
            // and this layer just proved it loses too much.
            let fp32 = OptimizationConfig { precision: Precision::Fp32, ..config.clone() };
            let epilogue = Epilogue { round_conv: false, ..epilogue };
            gather_matmul_scatter_into(&workload, &fp32, &pool, &epilogue, out);
        }
        Ok(reran)
    }
}

/// Acquires the kernel map `key` over `coords` for a convolution or pooling
/// layer: from the planner's map cache when present, else searched on the
/// runtime's pool through its fault injector and stored. A frozen search
/// probes the level's index when the level has one. Returns the `Mapping`
/// latency of the search when one ran.
pub(crate) fn acquire_map(
    key: MapKey,
    coords: &Arc<[Coord]>,
    ctx: &mut Context,
) -> Result<(Arc<CachedMap>, Option<Micros>), CoreError> {
    if let Some(hit) = ctx.planner.cached_map(key) {
        // Map reuse across layers sharing (stride, kernel): free, as in
        // real engines' coordinate managers. An injected cache fault
        // invalidates the entry; the map is an optimization, not a
        // correctness dependency, so the fallback is a plain rebuild.
        if !ctx.runtime.faults.should_fail(FaultSite::KernelMapCache) {
            return Ok((hit, None));
        }
        ctx.runtime
            .degradation
            .record(FaultSite::KernelMapCache, "injected cache invalidation; map rebuilt");
    }
    let Context { config, device, planner, runtime, .. } = ctx;
    let level = if planner.frozen_index { planner.level_index(coords) } else { None };
    let mapping = build_layer_mapping_on(
        &runtime.pool(),
        coords,
        key.kernel_size,
        key.conv_stride,
        key.dilation,
        config,
        device,
        &mut runtime.faults,
        &mut runtime.degradation,
        planner.frozen_index,
        level,
    )?;
    let latency = mapping.latency;
    Ok((planner.store_map(key, mapping.into_cached(coords)), Some(latency)))
}

impl std::fmt::Debug for SparseConv3d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseConv3d")
            .field("name", &self.name)
            .field("c_in", &self.c_in)
            .field("c_out", &self.c_out)
            .field("kernel_size", &self.kernel_size)
            .field("stride", &self.stride)
            .field("transposed", &self.transposed)
            .finish()
    }
}

impl Module for SparseConv3d {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        tracer.push(LayerOp::Conv(self));
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        self.packed.len() * self.c_in * self.c_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationConfig;
    use crate::SparseTensor;
    use torchsparse_coords::Coord;
    use torchsparse_gpusim::{DeviceProfile, Stage};

    fn ctx() -> Context {
        Context::new(OptimizationConfig::torchsparse(), DeviceProfile::rtx_2080ti())
    }

    fn input(c: usize) -> SparseTensor {
        let coords: Vec<Coord> = (0..20)
            .map(|i| Coord::new(0, i % 5, (i / 5) % 4, i % 3))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let feats = Matrix::from_fn(coords.len(), c, |r, cc| ((r + cc) % 7) as f32 - 3.0);
        SparseTensor::new(coords, feats).unwrap()
    }

    #[test]
    fn weight_count_validated() {
        let err =
            SparseConv3d::new("c", 2, 2, 3, 1, false, vec![Matrix::zeros(2, 2); 26]).unwrap_err();
        assert!(matches!(err, CoreError::BadWeightCount { expected: 27, actual: 26 }));
    }

    #[test]
    fn weight_shape_validated() {
        let err = SparseConv3d::new("c", 2, 2, 1, 1, false, vec![Matrix::zeros(2, 3)]).unwrap_err();
        assert!(matches!(err, CoreError::Tensor(_)));
    }

    #[test]
    fn channel_mismatch_rejected() {
        let conv = SparseConv3d::with_random_weights("c", 8, 4, 3, 1, 0);
        let mut c = ctx();
        assert!(matches!(
            conv.forward(&input(4), &mut c),
            Err(CoreError::ChannelMismatch { expected: 8, actual: 4 })
        ));
    }

    #[test]
    fn submanifold_preserves_coords_and_stride() {
        let conv = SparseConv3d::with_random_weights("c", 4, 8, 3, 1, 1);
        let mut c = ctx();
        let x = input(4);
        let y = conv.forward(&x, &mut c).unwrap();
        assert_eq!(y.coords(), x.coords());
        assert_eq!(y.stride(), 1);
        assert_eq!(y.channels(), 8);
    }

    #[test]
    fn downsample_coarsens() {
        let conv = SparseConv3d::with_random_weights("d", 4, 8, 2, 2, 2);
        let mut c = ctx();
        let x = input(4);
        let y = conv.forward(&x, &mut c).unwrap();
        assert!(y.len() < x.len());
        assert_eq!(y.stride(), 2);
    }

    #[test]
    fn a_transposed_conv_restores_coords() {
        let down = SparseConv3d::with_random_weights("d", 4, 8, 2, 2, 3);
        let up = SparseConv3d::with_random_weights("u", 8, 4, 2, 2, 4).into_transposed();
        let mut c = ctx();
        let x = input(4);
        let mid = down.forward(&x, &mut c).unwrap();
        let y = up.forward(&mid, &mut c).unwrap();
        assert_eq!(y.coords(), x.coords());
        assert_eq!(y.stride(), 1);
        assert_eq!(y.channels(), 4);
    }

    #[test]
    fn a_transposed_conv_without_its_encoder_map_fails() {
        let up = SparseConv3d::with_random_weights("u", 4, 4, 2, 2, 5).into_transposed();
        let mut c = ctx();
        let x = SparseTensor::with_stride(input(4).coords().to_vec(), input(4).feats().clone(), 2)
            .unwrap();
        assert!(matches!(up.forward(&x, &mut c), Err(CoreError::MissingCachedMap { .. })));
    }

    #[test]
    fn map_cache_hit_skips_mapping_cost() {
        let conv1 = SparseConv3d::with_random_weights("a", 4, 4, 3, 1, 6);
        let conv2 = SparseConv3d::with_random_weights("b", 4, 4, 3, 1, 7);
        let mut c = ctx();
        let x = input(4);
        let y = conv1.forward(&x, &mut c).unwrap();
        let after_first = c.timeline().stage(Stage::Mapping);
        conv2.forward(&y, &mut c).unwrap();
        let after_second = c.timeline().stage(Stage::Mapping);
        assert_eq!(after_first, after_second, "second conv must reuse the cached map");
    }

    #[test]
    fn outputs_identical_across_engines_fp32() {
        // All FP32 engine presets compute numerically identical outputs.
        let conv = SparseConv3d::with_random_weights("c", 4, 6, 3, 1, 8);
        let x = input(4);
        let mut reference: Option<Matrix> = None;
        for cfg in [
            OptimizationConfig::baseline_fp32(),
            OptimizationConfig::minkowski_engine(),
            OptimizationConfig::spconv_fp32(),
        ] {
            let mut c = Context::new(cfg, DeviceProfile::rtx_2080ti());
            let y = conv.forward(&x, &mut c).unwrap();
            match &reference {
                None => reference = Some(y.feats().clone()),
                Some(r) => {
                    let diff = y.feats().max_abs_diff(r).unwrap();
                    assert!(diff < 1e-4, "preset output differs by {diff}");
                }
            }
        }
    }

    /// The layer holds its weights once, packed: `weights()` rebuilds the
    /// constructor's matrices bit for bit — a ragged last panel (19 output
    /// channels), signed zero, subnormals and NaN payloads included — and
    /// the private plans of two streams of one compiled model share that
    /// one copy with the layer.
    #[test]
    fn packed_weights_are_exact_and_shared_across_streams() {
        use crate::plan::StepPlan;
        use crate::{Engine, EnginePreset};

        let (c_in, c_out) = (4, 19);
        let special =
            [-0.0, f32::from_bits(1), f32::from_bits(0x7fc0_1234), f32::from_bits(0xffc0_0042)];
        let weights: Vec<Matrix> = (0..27)
            .map(|n| {
                Matrix::from_fn(c_in, c_out, |r, c| {
                    let i = (n * c_in + r) * c_out + c;
                    special.get(i % 13).copied().unwrap_or(i as f32 * 0.01 - 1.0)
                })
            })
            .collect();
        let bits = |ws: &[Matrix]| -> Vec<u32> {
            ws.iter().flat_map(|m| m.as_slice().iter().map(|v| v.to_bits())).collect()
        };
        let conv = SparseConv3d::new("head", c_in, c_out, 3, 1, false, weights.clone()).unwrap();
        assert_eq!(bits(&conv.weights()), bits(&weights));

        let shifted = |dx: i32| {
            let x = input(c_in);
            let coords = x.coords().iter().map(|c| Coord::new(0, c.x + dx, c.y, c.z)).collect();
            SparseTensor::new(coords, x.feats().clone()).unwrap()
        };
        let engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let (shared, _) = engine.compile(&conv, &shifted(0)).unwrap().into_parts();
        let mut streams = [shared.new_stream().unwrap(), shared.new_stream().unwrap()];
        for (stream, dx) in streams.iter_mut().zip([1, 2]) {
            shared.execute_on(stream, &shifted(dx)).unwrap();
        }
        let [a, b] = &streams;
        assert!(!Arc::ptr_eq(a.plan(), b.plan()), "two private re-plans");
        for stream in &streams {
            assert!(!Arc::ptr_eq(stream.plan(), shared.base_plan()));
            let [StepPlan::Conv(plan)] = stream.plan().steps.as_slice() else {
                panic!("a lone convolution plans one conv step");
            };
            assert!(Arc::ptr_eq(&plan.packed, &conv.packed), "plans share the layer's copy");
        }
    }

    #[test]
    fn param_count() {
        let conv = SparseConv3d::with_random_weights("c", 4, 8, 3, 1, 9);
        assert_eq!(conv.param_count(), 27 * 4 * 8);
    }

    #[test]
    fn dilated_conv_runs_and_differs() {
        let plain = SparseConv3d::with_random_weights("c", 4, 4, 3, 1, 11);
        let dilated = SparseConv3d::with_random_weights("c", 4, 4, 3, 1, 11).with_dilation(2);
        assert_eq!(dilated.dilation(), 2);
        let x = input(4);
        let mut c1 = ctx();
        let mut c2 = ctx();
        let a = plain.forward(&x, &mut c1).unwrap();
        let b = dilated.forward(&x, &mut c2).unwrap();
        assert_eq!(a.coords(), b.coords(), "dilation keeps submanifold coords");
        assert!(a.feats().max_abs_diff(b.feats()).unwrap() > 1e-6, "different receptive fields");
    }

    #[test]
    #[should_panic(expected = "stride-1 non-transposed")]
    fn dilation_rejected_on_strided_conv() {
        let _ = SparseConv3d::with_random_weights("c", 4, 4, 2, 2, 0).with_dilation(2);
    }

    #[test]
    fn dilation_has_its_own_cache_slot() {
        let plain = SparseConv3d::with_random_weights("a", 4, 4, 3, 1, 1);
        let dilated = SparseConv3d::with_random_weights("b", 4, 4, 3, 1, 2).with_dilation(2);
        let mut c = ctx();
        let x = input(4);
        plain.forward(&x, &mut c).unwrap();
        let after_plain = c.timeline().stage(Stage::Mapping);
        dilated.forward(&x, &mut c).unwrap();
        assert!(
            c.timeline().stage(Stage::Mapping) > after_plain,
            "dilated conv must build its own map, not reuse the undilated one"
        );
    }

    #[test]
    fn workload_recording() {
        let conv = SparseConv3d::with_random_weights("c", 4, 4, 3, 1, 10);
        let mut c = ctx();
        c.record_workloads = true;
        conv.forward(&input(4), &mut c).unwrap();
        assert_eq!(c.workloads.len(), 1);
        assert_eq!(c.workloads[0].name, "c");
        assert_eq!(c.workloads[0].map_sizes.len(), 27);
        assert!(c.workloads[0].submanifold);
    }
}
