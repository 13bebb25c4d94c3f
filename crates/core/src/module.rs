use crate::context::Context;
use crate::plan::Tracer;
use crate::{CoreError, SparseTensor};

/// A sparse neural network layer or block, in the PyTorch-like style of the
/// TorchSparse Python API (§4.1).
///
/// Implement [`Module::trace`]: a module that appends its
/// [`LayerOp`](crate::LayerOp)s runs through the one plan executor, both
/// dynamically ([`Module::forward`]'s provided body) and compiled into a
/// [`CompiledSession`](crate::CompiledSession), and can be priced without
/// running ([`Engine::price`](crate::Engine::price)). Work outside the
/// sparse network that only costs time traces as a
/// [`LayerOp::CostSurcharge`](crate::LayerOp::CostSurcharge). Containers
/// ([`Sequential`]) trace their children, so a container runs as one plan.
pub trait Module {
    /// Runs the module on an input tensor.
    ///
    /// The provided implementation traces the module, plans the traced ops
    /// against the input's geometry (an ephemeral
    /// [`ExecutionPlan`](crate::ExecutionPlan)), executes the plan with the
    /// executor of every compiled frame and logs the plan as one charge on
    /// the run's cost ledger.
    ///
    /// # Errors
    ///
    /// [`CoreError::Untraceable`] from a module that neither traces nor
    /// overrides `forward`, plus shape/channel mismatches, mapping
    /// failures and [`CoreError::DeadlineExceeded`] at a stage boundary.
    fn forward(&self, input: &SparseTensor, ctx: &mut Context) -> Result<SparseTensor, CoreError> {
        crate::session::run_ephemeral(self, input, ctx)
    }

    /// Appends this module's flattened [`LayerOp`](crate::LayerOp) sequence
    /// to `tracer`. Containers recurse into children; leaf layers push one
    /// op.
    ///
    /// # Errors
    ///
    /// The default implementation returns [`CoreError::Untraceable`]:
    /// modules whose control flow cannot be expressed in the layer-op IR
    /// (data-dependent branching, non-`Module` side inputs) must override
    /// [`Module::forward`] and cannot be compiled.
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        let _ = tracer;
        Err(CoreError::Untraceable { module: self.name().to_owned() })
    }

    /// A human-readable name for diagnostics and tuning keys.
    fn name(&self) -> &str;

    /// Number of learnable parameters.
    fn param_count(&self) -> usize {
        0
    }
}

/// A sequential container, equivalent to `nn.Sequential`.
///
/// # Example
///
/// ```
/// use torchsparse_core::{Module, ReLU, Sequential};
///
/// let block = Sequential::new("head")
///     .push(ReLU::new("act1"))
///     .push(ReLU::new("act2"));
/// assert_eq!(block.name(), "head");
/// ```
pub struct Sequential {
    name: String,
    modules: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new(name: impl Into<String>) -> Sequential {
        Sequential { name: name.into(), modules: Vec::new() }
    }

    /// Appends a module (builder style).
    #[must_use]
    pub fn push(mut self, module: impl Module + 'static) -> Sequential {
        self.modules.push(Box::new(module));
        self
    }

    /// Appends a boxed module in place.
    pub fn push_boxed(&mut self, module: Box<dyn Module>) {
        self.modules.push(module);
    }
}

impl Module for Sequential {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        for m in &self.modules {
            m.trace(tracer)?;
        }
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        self.modules.iter().map(|m| m.param_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationConfig;
    use torchsparse_coords::Coord;
    use torchsparse_gpusim::DeviceProfile;
    use torchsparse_tensor::Matrix;

    #[test]
    fn empty_sequential_is_identity() {
        let seq = Sequential::new("empty");
        assert!(seq.modules.is_empty());
        let x = SparseTensor::new(vec![Coord::new(0, 0, 0, 0)], Matrix::filled(1, 1, 3.0)).unwrap();
        let mut ctx = Context::new(OptimizationConfig::torchsparse(), DeviceProfile::rtx_2080ti());
        let y = seq.forward(&x, &mut ctx).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn sequential_runs_only_traceable_children() {
        struct Opaque;
        impl Module for Opaque {
            fn forward(
                &self,
                input: &SparseTensor,
                _: &mut Context,
            ) -> Result<SparseTensor, CoreError> {
                Ok(input.clone())
            }
            fn name(&self) -> &str {
                "opaque"
            }
            fn param_count(&self) -> usize {
                1
            }
        }
        let seq = Sequential::new("s").push(crate::ReLU::new("act")).push(Opaque);
        assert_eq!(seq.param_count(), 1);
        let x = SparseTensor::new(vec![Coord::new(0, 0, 0, 0)], Matrix::filled(1, 1, 3.0)).unwrap();
        let mut ctx = Context::new(OptimizationConfig::torchsparse(), DeviceProfile::rtx_2080ti());
        let err = seq.forward(&x, &mut ctx).unwrap_err();
        assert!(matches!(&err, CoreError::Untraceable { module } if module == "opaque"), "{err:?}");
    }
}
