use crate::config::{EnginePreset, OptimizationConfig};
use crate::context::Context;
use crate::module::Module;
use crate::{CoreError, SparseTensor};
use torchsparse_gpusim::{DeviceProfile, Micros, Timeline};

/// The inference engine: a configuration pinned to a simulated device.
///
/// An [`Engine`] owns a [`Context`] and exposes the end-to-end entry point
/// the paper's evaluation measures: run a model on an input scene and report
/// per-stage latency.
///
/// # Example
///
/// ```
/// use torchsparse_core::{Engine, EnginePreset, ReLU, SparseTensor};
/// use torchsparse_coords::Coord;
/// use torchsparse_gpusim::DeviceProfile;
/// use torchsparse_tensor::Matrix;
///
/// # fn main() -> Result<(), torchsparse_core::CoreError> {
/// let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_3090());
/// let x = SparseTensor::new(vec![Coord::new(0, 0, 0, 0)], Matrix::filled(1, 2, -1.0))?;
/// let y = engine.run(&ReLU::new("act"), &x)?;
/// assert_eq!(y.feats().as_slice(), &[0.0, 0.0]);
/// assert!(engine.last_latency().as_f64() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct Engine {
    ctx: Context,
}

impl Engine {
    /// Creates an engine from a preset on a device.
    ///
    /// # Panics
    ///
    /// Panics if the preset's configuration fails [`Context::validate`]
    /// (all shipped presets are valid; this guards future presets).
    pub fn new(preset: EnginePreset, device: DeviceProfile) -> Engine {
        Engine::with_config(preset.config(), device)
    }

    /// Creates an engine from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`Context::validate`] — a broken
    /// configuration is a programming bug, like a zero pooling stride. Use
    /// [`Engine::try_with_config`] to handle untrusted configurations.
    pub fn with_config(config: OptimizationConfig, device: DeviceProfile) -> Engine {
        Engine::try_with_config(config, device)
            .unwrap_or_else(|e| panic!("invalid engine configuration: {e}"))
    }

    /// Creates an engine from an explicit configuration, returning an error
    /// instead of panicking when the configuration cannot run.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when [`Context::validate`] rejects the
    /// configuration.
    pub(crate) fn try_with_config(
        config: OptimizationConfig,
        device: DeviceProfile,
    ) -> Result<Engine, CoreError> {
        let ctx = Context::new(config, device);
        ctx.validate()?;
        Ok(Engine { ctx })
    }

    /// Compiles `model` against `input`'s geometry into a
    /// [`CompiledSession`](crate::CompiledSession): planning (tracing,
    /// kernel maps, output coordinates, buffers) runs once here, and the
    /// session's `execute` then runs only feature-path work per frame.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] at [`Precision::Int8`](crate::Precision),
    /// which is priced ([`Engine::price`]), never run;
    /// [`CoreError::Untraceable`] when the model has no
    /// [`trace`](Module::trace) implementation, plus any planning error
    /// (validation, mapping, channel mismatches).
    pub fn compile<'m, M: Module + ?Sized>(
        self,
        model: &'m M,
        input: &SparseTensor,
    ) -> Result<crate::session::CompiledSession<'m>, CoreError> {
        crate::session::CompiledSession::compile(self.ctx, model, input)
    }

    /// The execution context (device, config, timeline, tuned parameters).
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Mutable context access (used by the tuner and by ablation drivers
    /// that flip configuration flags between runs).
    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Runs a model end-to-end on one input scene.
    ///
    /// Per-run state (cost ledger, map cache, degradation report) is reset
    /// first, so consecutive calls are independent measurements. The input
    /// is screened against the configuration's
    /// [`ValidationConfig`](crate::ValidationConfig) before any layer
    /// executes; under `Sanitize` the model runs on the repaired tensor and
    /// the repairs appear in [`Engine::degradation_report`].
    ///
    /// A traceable model runs as one ephemeral plan through the executor a
    /// compiled frame runs ([`Module::forward`]), so the run checks the
    /// runtime's [`deadline`](crate::Runtime::deadline) at the same `mapping` /
    /// `gather-gemm-scatter` / `epilogue` boundaries as a compiled frame.
    ///
    /// # Errors
    ///
    /// Validation failures under the `Reject` policy
    /// ([`CoreError::NonFiniteFeatures`], [`CoreError::ExtentOverflow`],
    /// [`CoreError::BudgetExceeded`], duplicate coordinates),
    /// [`CoreError::DeadlineExceeded`], [`CoreError::InvalidConfig`] at
    /// [`Precision::Int8`](crate::Precision), which is priced
    /// ([`Engine::price`]), never run, plus any [`CoreError`] raised by the
    /// model's layers.
    pub fn run<M: Module + ?Sized>(
        &mut self,
        model: &M,
        input: &SparseTensor,
    ) -> Result<SparseTensor, CoreError> {
        let input = self.ctx.begin_frame(input)?;
        model.forward(&input, &mut self.ctx)
    }

    /// Prices a model on one input scene without running it: the same
    /// validation and plan build as [`Engine::run`] (recording
    /// [`LayerWorkload`](crate::LayerWorkload)s when
    /// [`Context::record_workloads`] is on), then the plan's simulated
    /// timeline. No step executes, so a full-scale scene costs only its
    /// planning. [`Engine::last_timeline`] and
    /// [`Context::layer_profiles`] read the result as after a run.
    ///
    /// Simulated latency depends on geometry alone, so the price equals the
    /// timeline of a run whose layers never overflowed FP16 storage (an
    /// overflowing layer's FP32 re-run is the one cost only execution
    /// discovers).
    ///
    /// # Errors
    ///
    /// Validation failures as for [`Engine::run`],
    /// [`CoreError::Untraceable`] for a model that does not trace, and any
    /// planning error (mapping, shape or channel mismatches,
    /// [`CoreError::DeadlineExceeded`]).
    pub fn price<M: Module + ?Sized>(
        &mut self,
        model: &M,
        input: &SparseTensor,
    ) -> Result<&Timeline, CoreError> {
        let input = self.ctx.begin_frame(input)?;
        crate::session::price_ephemeral(model, &input, &mut self.ctx)?;
        Ok(self.ctx.timeline())
    }

    /// Every graceful-degradation decision of the last [`Engine::run`]
    /// (empty when the run needed no fallbacks).
    pub fn degradation_report(&self) -> &crate::faults::DegradationReport {
        &self.ctx.runtime.degradation
    }

    /// Per-stage simulated latency of the last [`Engine::run`] or
    /// [`Engine::price`]. The run itself only logged what to charge; the
    /// first read replays that log through the cost model
    /// ([`crate::cost_model`]) and later reads are free. A run whose
    /// timeline nobody reads simulates nothing.
    pub fn last_timeline(&self) -> &Timeline {
        self.ctx.timeline()
    }

    /// Total simulated latency of the last [`Engine::run`] (resolved like
    /// [`Engine::last_timeline`]).
    pub fn last_latency(&self) -> Micros {
        self.ctx.timeline().total()
    }

    /// Simulated frames per second of the last [`Engine::run`].
    pub fn last_fps(&self) -> f64 {
        self.last_latency().fps()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("ctx", &self.ctx).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReLU, Sequential, SparseConv3d};
    use torchsparse_coords::Coord;
    use torchsparse_tensor::Matrix;

    fn scene() -> SparseTensor {
        let coords: Vec<Coord> = (0..40)
            .map(|i| Coord::new(0, i % 8, (i / 8) % 5, (i % 3) - 1))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let n = coords.len();
        SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r * c) % 5) as f32 - 2.0)).unwrap()
    }

    fn tiny_model() -> Sequential {
        Sequential::new("net")
            .push(SparseConv3d::with_random_weights("conv1", 4, 8, 3, 1, 1))
            .push(ReLU::new("act1"))
            .push(SparseConv3d::with_random_weights("conv2", 8, 4, 3, 1, 2))
    }

    #[test]
    fn run_produces_output_and_latency() {
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let y = e.run(&tiny_model(), &scene()).unwrap();
        assert_eq!(y.channels(), 4);
        assert!(e.last_latency().as_f64() > 0.0);
        assert!(e.last_fps() > 0.0);
    }

    #[test]
    fn consecutive_runs_are_independent() {
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let model = tiny_model();
        let x = scene();
        e.run(&model, &x).unwrap();
        let first = e.last_latency();
        e.run(&model, &x).unwrap();
        let second = e.last_latency();
        assert_eq!(first, second, "deterministic simulator must repeat exactly");
    }

    #[test]
    fn presets_produce_equal_fp32_outputs() {
        let model = tiny_model();
        let x = scene();
        let mut reference: Option<Matrix> = None;
        for preset in
            [EnginePreset::BaselineFp32, EnginePreset::MinkowskiEngine, EnginePreset::SpConv]
        {
            let mut e = Engine::new(preset, DeviceProfile::rtx_2080ti());
            let y = e.run(&model, &x).unwrap();
            match &reference {
                None => reference = Some(y.feats().clone()),
                Some(r) => {
                    assert!(y.feats().max_abs_diff(r).unwrap() < 1e-4, "{preset:?} differs");
                }
            }
        }
    }

    #[test]
    fn price_reports_the_runs_latency_and_profiles() {
        let model = tiny_model();
        let x = scene();
        let mut run = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        run.context_mut().profile_layers = true;
        run.run(&model, &x).unwrap();
        let mut priced = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        priced.context_mut().profile_layers = true;
        let timeline = priced.price(&model, &x).unwrap().clone();
        assert_eq!(&timeline, run.last_timeline());
        assert_eq!(priced.last_timeline(), run.last_timeline());
        assert_eq!(priced.context().layer_profiles(), run.context().layer_profiles());
    }

    #[test]
    fn layer_profiles_sum_to_total() {
        let model = tiny_model();
        let x = scene();
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        e.context_mut().profile_layers = true;
        e.run(&model, &x).unwrap();
        let profiles = &e.context().layer_profiles();
        assert_eq!(profiles.len(), 3, "conv1 + relu + conv2");
        let sum: f64 = profiles.iter().map(|p| p.timeline.total().as_f64()).sum();
        let total = e.last_latency().as_f64();
        assert!((sum - total).abs() < 1e-6 * total.max(1.0), "profiles sum {sum} != total {total}");
        assert_eq!(profiles[0].name, "conv1");
        assert_eq!(profiles[0].input_points, x.len());
    }

    #[test]
    fn profiling_off_records_nothing() {
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        e.run(&tiny_model(), &scene()).unwrap();
        assert!(e.context().layer_profiles().is_empty());
    }

    #[test]
    fn torchsparse_beats_baseline_on_this_workload() {
        let model = tiny_model();
        let x = scene();
        let mut ts = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let mut base = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
        ts.run(&model, &x).unwrap();
        base.run(&model, &x).unwrap();
        assert!(
            ts.last_latency() < base.last_latency(),
            "TorchSparse {} should beat baseline {}",
            ts.last_latency(),
            base.last_latency()
        );
    }

    /// INT8 is priced, never run. `run`, `compile` and a compiled stream
    /// switched to INT8 fail with `InvalidConfig` before any step: no
    /// convolution draws the armed overflow, nothing is recorded, and the
    /// stream keeps the activation buffers its last frame left. `price`
    /// still returns the INT8 timeline.
    #[test]
    fn int8_is_priced_not_run() {
        use crate::{FaultSite, Precision};
        let (model, x) = (tiny_model(), scene());
        let rejected = |e: CoreError| match e {
            CoreError::InvalidConfig { reason } => reason.contains("Engine::price"),
            _ => false,
        };
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.precision = Precision::Int8;
        let mut e = Engine::with_config(cfg.clone(), DeviceProfile::rtx_2080ti());
        e.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
        assert!(rejected(e.run(&model, &x).unwrap_err()));
        let runtime = &e.context().runtime;
        assert!(runtime.activations.is_empty() && runtime.degradation.is_empty());
        assert!(runtime.faults.injected().is_empty() && runtime.faults.is_armed());
        assert!(e.price(&model, &x).unwrap().total() > Micros::ZERO);
        assert!(rejected(e.compile(&model, &x).unwrap_err()));

        cfg.precision = Precision::Fp16;
        let mut session =
            Engine::with_config(cfg, DeviceProfile::rtx_2080ti()).compile(&model, &x).unwrap();
        session.execute(&x).unwrap();
        let slots = |ctx: &Context| -> Vec<_> {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let slots = ctx.runtime.activations.iter();
            slots.map(|m| (m.as_slice().as_ptr(), m.capacity(), bits(m))).collect()
        };
        let before = slots(session.context());
        assert!(!before.is_empty());
        session.context_mut().config.precision = Precision::Int8;
        session.context_mut().runtime.faults.arm(FaultSite::Fp16Overflow);
        assert!(rejected(session.execute(&x).unwrap_err()));
        assert_eq!(slots(session.context()), before);
        assert!(session.degradation_report().is_empty());
        assert!(session.context().runtime.faults.injected().is_empty());
    }
}
