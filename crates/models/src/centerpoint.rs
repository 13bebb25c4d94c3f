use crate::blocks::{ConvBnReLU, ResidualBlock};
use torchsparse_core::{CoreError, LayerOp, Module, Tracer};
use torchsparse_gpusim::Stage;

/// CenterPoint's sparse 3D encoder (Yin et al. 2021): a SECOND-style
/// backbone of submanifold blocks and stride-2 downsamples, followed by a
/// dense detection head.
///
/// The paper notes (§5.2) that ~10% of CenterPoint's end-to-end runtime is
/// *not* point cloud computation (the BEV image convolutions and NMS of the
/// detection head). We reproduce the sparse encoder layer-for-layer and
/// model the dense head as a fixed 10% surcharge on the backbone latency,
/// charged to [`Stage::Other`] — exactly the accounting the paper applies
/// when it says "our speedup ratio on sparse convolution is 10% more for
/// CenterPoint".
///
/// The head traces as a cost-only [`LayerOp::CostSurcharge`], so the whole
/// model runs as one plan and compiles. Its fraction applies to what the
/// plan walk accrued before it: a dynamic frame's whole plan, map searches
/// included; a compiled frame's execute path.
pub struct CenterPoint {
    name: String,
    input_conv: ConvBnReLU,
    /// (optional downsample, block1, block2) per stage.
    stages: Vec<(Option<ConvBnReLU>, ResidualBlock, ResidualBlock)>,
    /// Dense-head surcharge as a fraction of backbone latency.
    head_fraction: f64,
}

impl CenterPoint {
    /// Builds the standard 4-stage encoder (widths 16/32/64/128) for
    /// `in_channels` input features.
    pub fn new(in_channels: usize, seed: u64) -> CenterPoint {
        Self::with_widths(in_channels, &[16, 32, 64, 128], seed)
    }

    /// Builds an encoder with explicit stage widths; stage 0 is
    /// submanifold-only, later stages begin with a kernel-3 stride-2
    /// downsample (the SECOND/CenterPoint convention).
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty.
    pub fn with_widths(in_channels: usize, widths: &[usize], seed: u64) -> CenterPoint {
        assert!(!widths.is_empty(), "at least one stage required");
        let input_conv = ConvBnReLU::new("input", in_channels, widths[0], 3, 1, seed);
        let mut stages = Vec::new();
        let mut c_prev = widths[0];
        for (i, &c) in widths.iter().enumerate() {
            let s = seed.wrapping_add(1000 + i as u64 * 13);
            let down = if i == 0 {
                None
            } else {
                Some(ConvBnReLU::new(format!("stage{i}.down"), c_prev, c, 3, 2, s))
            };
            let b1 = ResidualBlock::new(format!("stage{i}.block1"), c, c, s ^ 5);
            let b2 = ResidualBlock::new(format!("stage{i}.block2"), c, c, s ^ 6);
            stages.push((down, b1, b2));
            c_prev = c;
        }
        CenterPoint {
            name: "CenterPoint".to_owned(),
            input_conv,
            stages,
            head_fraction: 0.1 / 0.9, // head = 10% of the end-to-end total
        }
    }

    /// Number of backbone stages.
    #[cfg(test)]
    pub(crate) fn stages(&self) -> usize {
        self.stages.len()
    }
}

impl Module for CenterPoint {
    /// The backbone's layers, then the dense head (BEV convolutions + NMS):
    /// a fixed fraction of the sparse backbone latency, independent of the
    /// engine (§5.2).
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        self.input_conv.trace(tracer)?;
        for (down, b1, b2) in &self.stages {
            if let Some(d) = down {
                d.trace(tracer)?;
            }
            b1.trace(tracer)?;
            b2.trace(tracer)?;
        }
        tracer.push(LayerOp::CostSurcharge { stage: Stage::Other, fraction: self.head_fraction });
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        let stages: usize = self
            .stages
            .iter()
            .map(|(d, b1, b2)| {
                d.as_ref().map_or(0, Module::param_count) + b1.param_count() + b2.param_count()
            })
            .sum();
        self.input_conv.param_count() + stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchsparse_coords::Coord;
    use torchsparse_core::{DeviceProfile, Engine, EnginePreset, SparseTensor};
    use torchsparse_tensor::Matrix;

    fn scene() -> SparseTensor {
        // A dense contiguous slab (~1.5k points) so stride-2 downsampling
        // genuinely reduces the point count instead of dilating.
        let mut coords = Vec::new();
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..8 {
                    if (x + 2 * y + 3 * z) % 5 != 0 {
                        coords.push(Coord::new(0, x, y, z));
                    }
                }
            }
        }
        let n = coords.len();
        SparseTensor::new(coords, Matrix::from_fn(n, 5, |r, c| ((r * c) % 7) as f32 * 0.2)).unwrap()
    }

    #[test]
    fn forward_downsamples_three_times() {
        let net = CenterPoint::new(5, 3);
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let x = scene();
        let y = e.run(&net, &x).unwrap();
        assert_eq!(y.stride(), 8, "three stride-2 downsamples");
        assert_eq!(y.channels(), 128);
        assert!(y.len() < x.len());
    }

    #[test]
    fn head_charges_other_stage() {
        let net = CenterPoint::new(5, 4);
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        e.run(&net, &scene()).unwrap();
        let t = e.last_timeline();
        let frac = t.fraction(Stage::Other);
        // BatchNorm/ReLU also land in Other, so the fraction exceeds 10%,
        // but the head surcharge must push it clearly above zero.
        assert!(frac > 0.08, "other fraction {frac}");
    }

    #[test]
    fn custom_widths() {
        let net = CenterPoint::with_widths(5, &[8, 16], 0);
        assert_eq!(net.stages(), 2);
        let mut e = Engine::new(EnginePreset::SpConv, DeviceProfile::gtx_1080ti());
        let y = e.run(&net, &scene()).unwrap();
        assert_eq!(y.stride(), 2);
        assert_eq!(y.channels(), 16);
    }

    #[test]
    fn param_count_positive() {
        assert!(CenterPoint::new(5, 0).param_count() > 10_000);
    }
}
