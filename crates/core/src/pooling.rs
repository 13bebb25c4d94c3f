//! Sparse spatial pooling.
//!
//! `torchsparse.nn` ships kernel-based max pooling alongside convolution;
//! detection heads and classification backbones use it to coarsen feature
//! maps without weights. Pooling reuses the exact mapping machinery of
//! convolution (output coordinate calculation + kernel map search + map
//! caching) and performs a per-channel max-reduction instead of GEMM.

use crate::context::{Context, MapKey};
use crate::conv::acquire_map;
use crate::module::Module;
use crate::plan::{LayerOp, PoolPlan, Tracer};
use crate::CoreError;
use std::sync::Arc;
use torchsparse_coords::Coord;
use torchsparse_gpusim::Micros;
use torchsparse_tensor::Matrix;

/// Reduction applied over a pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PoolReduction {
    /// Per-channel maximum.
    Max,
    /// Per-channel mean over the contributing inputs.
    Mean,
}

/// Sparse pooling (max or mean).
///
/// For every output site, reduces over the input sites its kernel window
/// covers. With `stride == 1` the output keeps the input's coordinates
/// (submanifold pooling); with `stride > 1` the output coordinates follow
/// Algorithm 3, exactly like a strided convolution.
///
/// # Example
///
/// ```
/// use torchsparse_core::{Module, SparseMaxPool3d};
///
/// let pool = SparseMaxPool3d::new("pool1", 2, 2);
/// assert_eq!(pool.name(), "pool1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMaxPool3d {
    name: String,
    kernel_size: usize,
    stride: i32,
    reduction: PoolReduction,
}

impl SparseMaxPool3d {
    /// Creates a max pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_size == 0` or `stride < 1` (configuration bugs).
    pub fn new(name: impl Into<String>, kernel_size: usize, stride: i32) -> SparseMaxPool3d {
        assert!(kernel_size > 0, "kernel size must be positive");
        assert!(stride >= 1, "stride must be at least 1");
        SparseMaxPool3d { name: name.into(), kernel_size, stride, reduction: PoolReduction::Max }
    }

    /// Creates an average pooling layer with the same window semantics.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_size == 0` or `stride < 1`.
    pub fn mean(name: impl Into<String>, kernel_size: usize, stride: i32) -> SparseMaxPool3d {
        let mut p = Self::new(name, kernel_size, stride);
        p.reduction = PoolReduction::Mean;
        p
    }

    /// The reduction this layer applies.
    #[cfg(test)]
    pub(crate) fn reduction(&self) -> PoolReduction {
        self.reduction
    }

    /// The map cache key of this layer on an input at `in_stride`.
    pub(crate) fn map_key(&self, in_stride: i32) -> MapKey {
        MapKey {
            fine_stride: in_stride,
            kernel_size: self.kernel_size,
            conv_stride: self.stride,
            dilation: 1,
        }
    }

    /// The plan half: acquires the kernel map exactly as a convolution does
    /// (pooling and convolution with the same (stride, kernel) share one
    /// map, as in real engines) and freezes the output geometry. Returns
    /// the `Mapping` latency of the search, when one ran, beside the plan.
    pub(crate) fn plan(
        &self,
        coords: &Arc<[Coord]>,
        in_stride: i32,
        ctx: &mut Context,
    ) -> Result<(PoolPlan, Option<Micros>), CoreError> {
        if coords.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let (cached, mapping) = acquire_map(self.map_key(in_stride), coords, ctx)?;
        let out_coords = Arc::clone(&cached.coarse);
        Ok((PoolPlan { cached, out_coords, out_stride: in_stride * self.stride }, mapping))
    }

    /// The execute half: per-channel reduction of `input` over the frozen
    /// map, written into `out` (reshaped here; its buffer is reused). Never
    /// builds maps or touches the cost model.
    pub(crate) fn compute(
        &self,
        input: &Matrix,
        plan: &PoolPlan,
        out: &mut Matrix,
    ) -> Result<(), CoreError> {
        if input.rows() == 0 {
            return Err(CoreError::EmptyInput);
        }
        let cached = &plan.cached;
        let n_out = plan.out_coords.len();
        out.reshape_zeroed(n_out, input.cols());
        if self.reduction == PoolReduction::Max {
            out.as_mut_slice().fill(f32::NEG_INFINITY);
        }
        let mut counts = vec![0u32; n_out];
        for n in 0..cached.map.num_offsets() {
            for e in cached.map.entries(n) {
                counts[e.output as usize] += 1;
                let src = input.row(e.input as usize);
                let dst = out.row_mut(e.output as usize);
                match self.reduction {
                    PoolReduction::Max => {
                        for (d, &s) in dst.iter_mut().zip(src) {
                            if s > *d {
                                *d = s;
                            }
                        }
                    }
                    PoolReduction::Mean => {
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                }
            }
        }
        for (i, &n) in counts.iter().enumerate() {
            if n == 0 {
                // Outputs with no contributing input (Algorithm 3 precludes
                // this) stay zero.
                out.row_mut(i).fill(0.0);
            } else if self.reduction == PoolReduction::Mean {
                let inv = 1.0 / n as f32;
                for v in out.row_mut(i) {
                    *v *= inv;
                }
            }
        }
        Ok(())
    }
}

impl Module for SparseMaxPool3d {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        tracer.push(LayerOp::Pool(self));
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationConfig;
    use crate::SparseTensor;
    use torchsparse_gpusim::{DeviceProfile, Stage};

    fn ctx() -> Context {
        Context::new(OptimizationConfig::torchsparse(), DeviceProfile::rtx_2080ti())
    }

    fn line_tensor() -> SparseTensor {
        let coords: Vec<Coord> = (0..6).map(|i| Coord::new(0, i, 0, 0)).collect();
        let feats = Matrix::from_fn(6, 2, |r, c| (r as f32) * if c == 0 { 1.0 } else { -1.0 });
        SparseTensor::new(coords, feats).unwrap()
    }

    #[test]
    fn submanifold_max_pool_takes_neighborhood_max() {
        let pool = SparseMaxPool3d::new("p", 3, 1);
        let mut c = ctx();
        let y = pool.forward(&line_tensor(), &mut c).unwrap();
        assert_eq!(y.coords(), line_tensor().coords());
        // Point x=2 sees x in {1,2,3}: channel0 max = 3, channel1 max = -1.
        assert_eq!(y.feats().row(2), &[3.0, -1.0]);
        // Endpoint x=5 sees {4,5}: max 5 / -4.
        assert_eq!(y.feats().row(5), &[5.0, -4.0]);
    }

    #[test]
    fn strided_pool_downsamples() {
        let pool = SparseMaxPool3d::new("p", 2, 2);
        let mut c = ctx();
        let y = pool.forward(&line_tensor(), &mut c).unwrap();
        assert_eq!(y.len(), 3);
        assert_eq!(y.stride(), 2);
        // Output site 0 covers inputs {0, 1}: max 1.0 on channel 0.
        assert_eq!(y.feats()[(0, 0)], 1.0);
    }

    #[test]
    fn pool_shares_map_with_conv() {
        use crate::SparseConv3d;
        let conv = SparseConv3d::with_random_weights("c", 2, 2, 3, 1, 1);
        let pool = SparseMaxPool3d::new("p", 3, 1);
        let mut c = ctx();
        let x = line_tensor();
        conv.forward(&x, &mut c).unwrap();
        let mapping_after_conv = c.timeline().stage(Stage::Mapping);
        pool.forward(&x, &mut c).unwrap();
        assert_eq!(
            c.timeline().stage(Stage::Mapping),
            mapping_after_conv,
            "pool must reuse the conv's cached map"
        );
    }

    #[test]
    fn pool_rejects_empty() {
        let pool = SparseMaxPool3d::new("p", 2, 2);
        let empty = SparseTensor::new(vec![], Matrix::zeros(0, 2)).unwrap();
        assert!(matches!(pool.forward(&empty, &mut ctx()), Err(CoreError::EmptyInput)));
    }

    #[test]
    #[should_panic(expected = "stride must be at least 1")]
    fn pool_rejects_zero_stride() {
        SparseMaxPool3d::new("p", 2, 0);
    }

    #[test]
    fn mean_pool_averages_window() {
        let pool = SparseMaxPool3d::mean("p", 3, 1);
        assert_eq!(pool.reduction(), PoolReduction::Mean);
        let mut c = ctx();
        let y = pool.forward(&line_tensor(), &mut c).unwrap();
        // Point x=2 sees x in {1,2,3}: mean of 1,2,3 = 2 on channel 0.
        assert_eq!(y.feats().row(2), &[2.0, -2.0]);
        // Endpoint x=0 sees {0,1}: mean 0.5 / -0.5.
        assert_eq!(y.feats().row(0), &[0.5, -0.5]);
    }

    #[test]
    fn mean_pool_matches_max_on_constant_field() {
        let x = line_tensor().with_feats(Matrix::filled(6, 2, 4.0)).unwrap();
        let mut c1 = ctx();
        let mut c2 = ctx();
        let a = SparseMaxPool3d::new("m", 3, 1).forward(&x, &mut c1).unwrap();
        let b = SparseMaxPool3d::mean("a", 3, 1).forward(&x, &mut c2).unwrap();
        assert_eq!(a.feats(), b.feats());
    }

    #[test]
    fn pool_map_search_runs_on_the_context_pool_and_injector() {
        use crate::faults::FaultSite;
        use crate::runtime::ThreadPool;
        use std::sync::Arc;
        let mut e = crate::Engine::with_config(ctx().config, DeviceProfile::rtx_2080ti());
        let pool = Arc::new(ThreadPool::new_recording());
        e.context_mut().runtime.set_pool(pool.clone());
        e.context_mut().runtime.faults.arm(FaultSite::GridTableBuild);
        let y = e.run(&SparseMaxPool3d::new("p", 2, 2), &line_tensor()).unwrap();
        assert_eq!(y.len(), 3);
        let tasks: usize = pool.take_trace().iter().map(Vec::len).sum();
        assert_eq!(tasks, 8, "one map-search task per offset of the 2x2x2 window");
        assert_eq!(e.context().runtime.faults.injected(), [FaultSite::GridTableBuild]);
        assert_eq!(e.degradation_report().count(FaultSite::GridTableBuild), 1);
    }

    #[test]
    fn pricing_costs_what_running_costs() {
        let pool = SparseMaxPool3d::new("p", 2, 2);
        let engine = || crate::Engine::with_config(ctx().config, DeviceProfile::rtx_2080ti());
        let (mut run, mut priced) = (engine(), engine());
        let x = line_tensor();
        run.run(&pool, &x).unwrap();
        assert_eq!(priced.price(&pool, &x).unwrap(), run.last_timeline());
    }
}
