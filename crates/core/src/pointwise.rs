//! Pointwise layers: batch normalization, ReLU, and global pooling.
//!
//! These are memory-bound streaming kernels. They never touch coordinates
//! or maps, so their simulated cost is a single read+write sweep over the
//! feature buffer, charged to the `Other` stage — which is how they appear
//! in the paper's Figure 4 breakdown. Each layer only traces itself, and
//! the sweep is part of the plan's cost. On the host, a batch norm or ReLU
//! right after a convolution runs inside that convolution's output blocks
//! (the plan's fused epilogue), its FP32 re-run after an overflow
//! included; anywhere else the plan executor runs the crate-internal
//! numerics half, `apply`, in place on the feature matrix it owns.

use crate::config::Precision;
use crate::module::Module;
use crate::plan::{LayerOp, Tracer};
use crate::runtime::ThreadPool;
use crate::CoreError;
use torchsparse_coords::Coord;
use torchsparse_tensor::{quant, Matrix};

/// Inference-mode batch normalization, folded to per-channel scale + shift.
///
/// # Example
///
/// ```
/// use torchsparse_core::{BatchNorm, Module};
///
/// let bn = BatchNorm::identity("bn1", 16);
/// assert_eq!(bn.name(), "bn1");
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
    pub(crate) fn channels(&self) -> usize {
        self.scale.len()
    }

    /// The per-channel `(scale, shift)` a convolution's fused epilogue
    /// applies in place of [`BatchNorm::apply`].
    pub(crate) fn scale_shift(&self) -> (&[f32], &[f32]) {
        (&self.scale, &self.shift)
    }

    /// The feature-path numerics, in place: `v * scale + shift`, stored in
    /// binary16 at FP16. No allocation, no simulated cost, no per-layer
    /// profile (both come from the plan).
    pub(crate) fn apply(
        &self,
        feats: &mut Matrix,
        precision: Precision,
        pool: &ThreadPool,
    ) -> Result<(), CoreError> {
        if feats.cols() != self.channels() {
            return Err(CoreError::ChannelMismatch {
                expected: self.channels(),
                actual: feats.cols(),
            });
        }
        feats.par_map_rows_inplace(pool, |row| {
            for (v, (s, sh)) in row.iter_mut().zip(self.scale.iter().zip(&self.shift)) {
                *v = *v * s + sh;
            }
        });
        if precision == Precision::Fp16 {
            quant::round_trip_f16_in_place(pool, feats);
        }
        Ok(())
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
    pub(crate) fn apply(&self, feats: &mut Matrix, pool: &ThreadPool) {
        feats.par_map_inplace(pool, |v| v.max(0.0));
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
/// batch at the origin, holding the mean feature vector. Rows are summed in
/// the plan's order, which on the input level is ascending by coordinate,
/// not the caller's row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalPool {
    name: String,
}

impl GlobalPool {
    /// Creates a global average pooling layer.
    pub fn new(name: impl Into<String>) -> GlobalPool {
        GlobalPool { name: name.into() }
    }

    /// The output coordinates the plan freezes: one origin per distinct
    /// batch of the ascending level `coords`, ascending.
    pub(crate) fn origins(coords: &[Coord]) -> Vec<Coord> {
        let mut batches: Vec<i32> = coords.iter().map(|c| c.batch).collect();
        batches.dedup();
        batches.into_iter().map(|b| Coord::new(b, 0, 0, 0)).collect()
    }

    /// The feature-path numerics: the mean of the rows of `feats` (at
    /// `coords`, summed in row order) in each batch of `origins`, into `out`.
    pub(crate) fn compute(
        &self,
        coords: &[Coord],
        feats: &Matrix,
        origins: &[Coord],
        out: &mut Matrix,
    ) -> Result<(), CoreError> {
        if coords.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let c = feats.cols();
        out.reshape_zeroed(origins.len(), c);
        let mut counts = vec![0usize; origins.len()];
        for (i, coord) in coords.iter().enumerate() {
            let b = origins
                .binary_search_by_key(&coord.batch, |o| o.batch)
                .map_err(|_| CoreError::PlanMismatch { reason: "batch missing from the plan" })?;
            counts[b] += 1;
            for (s, v) in out.row_mut(b).iter_mut().zip(feats.row(i)) {
                *s += v;
            }
        }
        for (b, &n) in counts.iter().enumerate() {
            for s in out.row_mut(b) {
                *s /= n as f32;
            }
        }
        Ok(())
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
    use crate::{Context, SparseTensor};
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
