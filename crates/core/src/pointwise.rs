//! Pointwise layers: batch normalization, ReLU, and global pooling.
//!
//! These are memory-bound streaming kernels. They never touch coordinates
//! or maps, so their simulated cost is a single read+write sweep over the
//! feature buffer, charged to the `Other` stage — which is how they appear
//! in the paper's Figure 4 breakdown. Each layer only traces itself; the
//! plan executor runs the crate-internal numerics halves — `apply`, in
//! place on the feature matrix it owns — and the sweep is part of the
//! plan's cost.

use crate::context::Context;
use crate::dataflow::apply_storage_precision_owned;
use crate::module::Module;
use crate::plan::{LayerOp, Tracer};
use crate::{CoreError, SparseTensor};
use torchsparse_tensor::Matrix;

/// Inference-mode batch normalization, folded to per-channel scale + shift.
///
/// # Example
///
/// ```
/// use torchsparse_core::BatchNorm;
///
/// let bn = BatchNorm::identity("bn1", 16);
/// assert_eq!(bn.channels(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm {
    name: String,
    scale: Vec<f32>,
    shift: Vec<f32>,
}

impl BatchNorm {
    /// Creates a batch norm with explicit per-channel scale and shift.
    ///
    /// # Panics
    ///
    /// Panics if `scale` and `shift` lengths differ.
    pub fn new(name: impl Into<String>, scale: Vec<f32>, shift: Vec<f32>) -> BatchNorm {
        assert_eq!(scale.len(), shift.len(), "scale/shift length mismatch");
        BatchNorm { name: name.into(), scale, shift }
    }

    /// An identity normalization (scale 1, shift 0) over `channels`.
    pub fn identity(name: impl Into<String>, channels: usize) -> BatchNorm {
        BatchNorm::new(name, vec![1.0; channels], vec![0.0; channels])
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.scale.len()
    }

    /// The feature-path numerics on a feature matrix the caller owns, in
    /// place: no allocation, no simulated cost, no per-layer profile (both
    /// come from the plan).
    pub(crate) fn apply(&self, mut feats: Matrix, ctx: &mut Context) -> Result<Matrix, CoreError> {
        if feats.cols() != self.channels() {
            return Err(CoreError::ChannelMismatch {
                expected: self.channels(),
                actual: feats.cols(),
            });
        }
        let pool = ctx.runtime.pool();
        feats.par_map_rows_inplace(&pool, |row| {
            for (v, (s, sh)) in row.iter_mut().zip(self.scale.iter().zip(&self.shift)) {
                *v = *v * s + sh;
            }
        });
        Ok(apply_storage_precision_owned(&pool, feats, ctx.config.precision))
    }
}

impl Module for BatchNorm {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        tracer.push(LayerOp::BatchNorm(self));
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        2 * self.channels()
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReLU {
    name: String,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> ReLU {
        ReLU { name: name.into() }
    }

    /// The feature-path numerics, in place (see [`BatchNorm::apply`]).
    pub(crate) fn apply(&self, mut feats: Matrix, ctx: &mut Context) -> Matrix {
        feats.par_map_inplace(&ctx.runtime.pool(), |v| v.max(0.0));
        feats
    }
}

impl Module for ReLU {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        tracer.push(LayerOp::Relu(self));
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Global average pooling over each batch (scene): produces one point per
/// batch at the origin, holding the mean feature vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalPool {
    name: String,
}

impl GlobalPool {
    /// Creates a global average pooling layer.
    pub fn new(name: impl Into<String>) -> GlobalPool {
        GlobalPool { name: name.into() }
    }

    /// The feature-path numerics (per-batch means). Output geometry is one
    /// point per batch at the origin, derived from the input's batches.
    pub(crate) fn compute(&self, input: &SparseTensor) -> Result<SparseTensor, CoreError> {
        if input.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let mut batches: Vec<i32> = input.coords().iter().map(|c| c.batch).collect();
        batches.sort_unstable();
        batches.dedup();
        let c = input.channels();
        let mut sums = vec![vec![0.0f32; c]; batches.len()];
        let mut counts = vec![0usize; batches.len()];
        for (i, coord) in input.coords().iter().enumerate() {
            // `batches` was collected from these very coordinates, so every
            // batch id is present in the sorted, deduped list.
            #[allow(clippy::expect_used)]
            let b = batches.binary_search(&coord.batch).expect("batch present");
            counts[b] += 1;
            for (s, v) in sums[b].iter_mut().zip(input.feats().row(i)) {
                *s += v;
            }
        }
        let coords: Vec<_> =
            batches.iter().map(|&b| torchsparse_coords::Coord::new(b, 0, 0, 0)).collect();
        let feats = Matrix::from_fn(batches.len(), c, |r, col| sums[r][col] / counts[r] as f32);
        SparseTensor::with_stride(coords, feats, input.stride())
    }
}

impl Module for GlobalPool {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        tracer.push(LayerOp::GlobalPool(self));
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
    use torchsparse_coords::Coord;
    use torchsparse_gpusim::{DeviceProfile, Stage};

    fn ctx() -> Context {
        Context::new(OptimizationConfig::baseline_fp32(), DeviceProfile::rtx_2080ti())
    }

    fn tensor() -> SparseTensor {
        SparseTensor::new(
            vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0), Coord::new(1, 0, 0, 0)],
            Matrix::from_vec(3, 2, vec![1.0, -2.0, 3.0, -4.0, 5.0, 6.0]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut c = ctx();
        let y = ReLU::new("r").forward(&tensor(), &mut c).unwrap();
        assert_eq!(y.feats().as_slice(), &[1.0, 0.0, 3.0, 0.0, 5.0, 6.0]);
        assert!(c.timeline().stage(Stage::Other).as_f64() > 0.0);
    }

    #[test]
    fn batchnorm_applies_affine() {
        let mut c = ctx();
        let bn = BatchNorm::new("bn", vec![2.0, 0.5], vec![1.0, 0.0]);
        let y = bn.forward(&tensor(), &mut c).unwrap();
        assert_eq!(y.feats().row(0), &[3.0, -1.0]);
        assert_eq!(bn.param_count(), 4);
    }

    #[test]
    fn batchnorm_rejects_wrong_channels() {
        let mut c = ctx();
        let bn = BatchNorm::identity("bn", 5);
        assert!(matches!(
            bn.forward(&tensor(), &mut c),
            Err(CoreError::ChannelMismatch { expected: 5, actual: 2 })
        ));
    }

    #[test]
    fn global_pool_means_per_batch() {
        let mut c = ctx();
        let y = GlobalPool::new("gp").forward(&tensor(), &mut c).unwrap();
        assert_eq!(y.len(), 2); // two batches
        assert_eq!(y.feats().row(0), &[2.0, -3.0]); // mean of batch 0
        assert_eq!(y.feats().row(1), &[5.0, 6.0]); // single point of batch 1
    }

    #[test]
    fn global_pool_rejects_empty() {
        let mut c = ctx();
        let empty = SparseTensor::new(vec![], Matrix::zeros(0, 2)).unwrap();
        assert!(matches!(
            GlobalPool::new("gp").forward(&empty, &mut c),
            Err(CoreError::EmptyInput)
        ));
    }

    #[test]
    fn identity_bn_preserves_values_fp32() {
        let mut c = ctx();
        let bn = BatchNorm::identity("bn", 2);
        let y = bn.forward(&tensor(), &mut c).unwrap();
        assert_eq!(y.feats(), tensor().feats());
    }
}
