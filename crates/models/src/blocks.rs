use torchsparse_core::{BatchNorm, CoreError, LayerOp, Module, ReLU, SparseConv3d, Tracer};

/// The ubiquitous conv → batch norm → ReLU unit.
pub struct ConvBnReLU {
    name: String,
    conv: SparseConv3d,
    bn: BatchNorm,
    relu: ReLU,
}

impl ConvBnReLU {
    /// Builds a unit with random conv weights and identity normalization.
    pub fn new(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel_size: usize,
        stride: i32,
        seed: u64,
    ) -> ConvBnReLU {
        let name = name.into();
        ConvBnReLU {
            conv: SparseConv3d::with_random_weights(
                format!("{name}.conv"),
                c_in,
                c_out,
                kernel_size,
                stride,
                seed,
            ),
            bn: BatchNorm::identity(format!("{name}.bn"), c_out),
            relu: ReLU::new(format!("{name}.relu")),
            name,
        }
    }

    /// Marks the inner convolution as transposed.
    #[must_use]
    pub fn into_transposed(mut self) -> ConvBnReLU {
        self.conv = self.conv.into_transposed();
        self
    }
}

impl Module for ConvBnReLU {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        self.conv.trace(tracer)?;
        self.bn.trace(tracer)?;
        self.relu.trace(tracer)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        self.conv.param_count() + self.bn.param_count()
    }
}

/// A sparse residual block: two 3x3x3 submanifold convolutions with a skip
/// connection (plus a 1x1x1 projection when the channel counts differ) —
/// the building block of MinkUNet's encoder and decoder stages.
pub struct ResidualBlock {
    name: String,
    conv1: SparseConv3d,
    bn1: BatchNorm,
    conv2: SparseConv3d,
    bn2: BatchNorm,
    projection: Option<SparseConv3d>,
    relu: ReLU,
}

impl ResidualBlock {
    /// Builds a residual block with random weights.
    pub fn new(name: impl Into<String>, c_in: usize, c_out: usize, seed: u64) -> ResidualBlock {
        let name = name.into();
        let projection = if c_in != c_out {
            Some(SparseConv3d::with_random_weights(
                format!("{name}.proj"),
                c_in,
                c_out,
                1,
                1,
                seed ^ 0xABCD,
            ))
        } else {
            None
        };
        ResidualBlock {
            conv1: SparseConv3d::with_random_weights(
                format!("{name}.conv1"),
                c_in,
                c_out,
                3,
                1,
                seed,
            ),
            bn1: BatchNorm::identity(format!("{name}.bn1"), c_out),
            conv2: SparseConv3d::with_random_weights(
                format!("{name}.conv2"),
                c_out,
                c_out,
                3,
                1,
                seed ^ 0x1234,
            ),
            bn2: BatchNorm::identity(format!("{name}.bn2"), c_out),
            relu: ReLU::new(format!("{name}.relu")),
            projection,
            name,
        }
    }
}

impl Module for ResidualBlock {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        // Save the input, run the main path, then add the (optionally
        // projected) shortcut — same coordinates, submanifold path — and
        // apply the final ReLU.
        tracer.push(LayerOp::Push);
        self.conv1.trace(tracer)?;
        self.bn1.trace(tracer)?;
        self.relu.trace(tracer)?;
        self.conv2.trace(tracer)?;
        self.bn2.trace(tracer)?;
        tracer.push(LayerOp::ResidualAdd { projection: self.projection.as_ref() });
        self.relu.trace(tracer)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        self.conv1.param_count()
            + self.conv2.param_count()
            + self.bn1.param_count()
            + self.bn2.param_count()
            + self.projection.as_ref().map_or(0, Module::param_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchsparse_coords::Coord;
    use torchsparse_core::{Context, DeviceProfile, EnginePreset, SparseTensor};
    use torchsparse_tensor::Matrix;

    fn ctx() -> Context {
        Context::new(EnginePreset::TorchSparse.config(), DeviceProfile::rtx_2080ti())
    }

    fn input(c: usize) -> SparseTensor {
        let coords: Vec<Coord> = (0..30)
            .map(|i| Coord::new(0, i % 6, (i / 6) % 5, i % 4))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let n = coords.len();
        SparseTensor::new(coords, Matrix::from_fn(n, c, |r, cc| ((r * 3 + cc) % 5) as f32 - 2.0))
            .unwrap()
    }

    #[test]
    fn conv_bn_relu_output_nonnegative() {
        let m = ConvBnReLU::new("u", 4, 8, 3, 1, 1);
        let y = m.forward(&input(4), &mut ctx()).unwrap();
        assert_eq!(y.channels(), 8);
        assert!(y.feats().as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn residual_block_same_channels_has_no_projection() {
        let b = ResidualBlock::new("r", 8, 8, 2);
        assert!(b.projection.is_none());
        let y = b.forward(&input(8), &mut ctx()).unwrap();
        assert_eq!(y.channels(), 8);
        assert_eq!(y.coords(), input(8).coords());
    }

    #[test]
    fn residual_block_projects_channel_change() {
        let b = ResidualBlock::new("r", 4, 16, 3);
        assert!(b.projection.is_some());
        let y = b.forward(&input(4), &mut ctx()).unwrap();
        assert_eq!(y.channels(), 16);
    }

    #[test]
    fn residual_identity_shortcut_matters() {
        // With zeroed conv weights the block must reduce to ReLU(shortcut).
        let mut b = ResidualBlock::new("r", 4, 4, 4);
        b.conv1 =
            SparseConv3d::new("z1", 4, 4, 3, 1, false, vec![Matrix::zeros(4, 4); 27]).unwrap();
        b.conv2 =
            SparseConv3d::new("z2", 4, 4, 3, 1, false, vec![Matrix::zeros(4, 4); 27]).unwrap();
        let x = input(4);
        let y = b.forward(&x, &mut ctx()).unwrap();
        let mut expected = x.feats().clone();
        expected.map_inplace(|v| v.max(0.0));
        assert_eq!(y.feats(), &expected);
    }

    #[test]
    fn param_counts_positive() {
        assert!(ConvBnReLU::new("u", 2, 4, 3, 1, 0).param_count() > 0);
        assert!(ResidualBlock::new("r", 2, 4, 0).param_count() > 0);
    }
}
