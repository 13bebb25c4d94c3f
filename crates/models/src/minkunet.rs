use crate::blocks::{ConvBnReLU, ResidualBlock};
use torchsparse_core::{CoreError, LayerOp, Module, SparseConv3d, Tracer};

/// MinkUNet (Choy et al. 2019): the standard 4-stage sparse UNet for
/// semantic segmentation, at a configurable width multiplier.
///
/// Architecture (matching the MinkUNet used by TorchSparse's evaluation):
///
/// - stem: two 3x3x3 submanifold convolutions;
/// - 4 encoder stages: stride-2 downsample (kernel 2) + 2 residual blocks;
/// - 4 decoder stages: stride-2 transposed conv (kernel 2) + skip
///   concatenation + 2 residual blocks;
/// - classifier: 1x1x1 convolution to `num_classes`.
///
/// Reference channel widths at 1.0x: stem 32; encoder 32/64/128/256;
/// decoder 256/128/96/96.
///
/// # Example
///
/// ```
/// use torchsparse_core::Module;
/// use torchsparse_models::MinkUNet;
///
/// let net = MinkUNet::with_width(0.5, 4, 19, 42);
/// assert!(net.param_count() > 10_000);
/// ```
pub struct MinkUNet {
    name: String,
    stem1: ConvBnReLU,
    stem2: ConvBnReLU,
    /// (downsample, residual blocks) per encoder stage.
    encoders: Vec<(ConvBnReLU, Vec<ResidualBlock>)>,
    /// (upsample, residual blocks) per decoder stage.
    decoders: Vec<(ConvBnReLU, Vec<ResidualBlock>)>,
    classifier: SparseConv3d,
}

fn scaled(base: usize, width: f64) -> usize {
    ((base as f64 * width).round() as usize).max(2)
}

impl MinkUNet {
    /// Builds a MinkUNet with the given width multiplier, input channel
    /// count, class count, and weight seed (two residual blocks per stage —
    /// the MinkUNet-18 layout used throughout the paper).
    pub fn with_width(width: f64, in_channels: usize, num_classes: usize, seed: u64) -> MinkUNet {
        Self::with_width_and_depth(width, 2, in_channels, num_classes, seed)
    }

    /// Builds a MinkUNet with an explicit number of residual blocks per
    /// stage: `1` gives a MinkUNet-14-class network, `2` the standard
    /// MinkUNet-18, `3` a MinkUNet-34-class variant.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_stage == 0`.
    pub fn with_width_and_depth(
        width: f64,
        blocks_per_stage: usize,
        in_channels: usize,
        num_classes: usize,
        seed: u64,
    ) -> MinkUNet {
        assert!(blocks_per_stage >= 1, "at least one block per stage");
        // Reference MinkUNet widths.
        let stem_c = scaled(32, width);
        let enc_c: Vec<usize> = [32, 64, 128, 256].iter().map(|&c| scaled(c, width)).collect();
        let dec_c: Vec<usize> = [256, 128, 96, 96].iter().map(|&c| scaled(c, width)).collect();

        let stem1 = ConvBnReLU::new("stem1", in_channels, stem_c, 3, 1, seed);
        let stem2 = ConvBnReLU::new("stem2", stem_c, stem_c, 3, 1, seed ^ 1);

        let mut encoders = Vec::new();
        let mut c_prev = stem_c;
        for (i, &c) in enc_c.iter().enumerate() {
            let s = seed.wrapping_add(10 + i as u64 * 3);
            let down = ConvBnReLU::new(format!("enc{i}.down"), c_prev, c, 2, 2, s);
            let blocks = (0..blocks_per_stage)
                .map(|b| {
                    ResidualBlock::new(format!("enc{i}.block{}", b + 1), c, c, s ^ (b as u64 + 2))
                })
                .collect();
            encoders.push((down, blocks));
            c_prev = c;
        }

        // Skip channels feeding each decoder stage, deepest first: the
        // encoder outputs at strides 8, 4, 2 and the stem output at stride 1.
        let skips = [enc_c[2], enc_c[1], enc_c[0], stem_c];
        let mut decoders = Vec::new();
        for (i, &c) in dec_c.iter().enumerate() {
            let s = seed.wrapping_add(100 + i as u64 * 7);
            let up = ConvBnReLU::new(format!("dec{i}.up"), c_prev, c, 2, 2, s).into_transposed();
            let cat_c = c + skips[i];
            let blocks = (0..blocks_per_stage)
                .map(|b| {
                    let cin = if b == 0 { cat_c } else { c };
                    ResidualBlock::new(format!("dec{i}.block{}", b + 1), cin, c, s ^ (b as u64 + 2))
                })
                .collect();
            decoders.push((up, blocks));
            c_prev = c;
        }

        let classifier = SparseConv3d::with_random_weights(
            "classifier",
            c_prev,
            num_classes,
            1,
            1,
            seed ^ 0xFFFF,
        );

        MinkUNet {
            name: format!("MinkUNet({width}x)"),
            stem1,
            stem2,
            encoders,
            decoders,
            classifier,
        }
    }

    /// Number of encoder/decoder stages (4 each).
    #[cfg(test)]
    pub(crate) fn stages(&self) -> usize {
        self.encoders.len()
    }
}

impl Module for MinkUNet {
    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        self.stem1.trace(tracer)?;
        self.stem2.trace(tracer)?;
        // UNet skips on the tracer's value stack: the stem output and every
        // encoder stage except the bottleneck are saved, then popped in
        // reverse by the decoder concatenations (upsample, concatenate the
        // matching skip, refine).
        tracer.push(LayerOp::Push);
        let last = self.encoders.len().saturating_sub(1);
        for (i, (down, blocks)) in self.encoders.iter().enumerate() {
            down.trace(tracer)?;
            for b in blocks {
                b.trace(tracer)?;
            }
            if i != last {
                tracer.push(LayerOp::Push);
            }
        }
        for (up, blocks) in &self.decoders {
            up.trace(tracer)?;
            tracer.push(LayerOp::PopConcat);
            for b in blocks {
                b.trace(tracer)?;
            }
        }
        self.classifier.trace(tracer)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        let enc: usize = self
            .encoders
            .iter()
            .map(|(d, blocks)| {
                d.param_count() + blocks.iter().map(Module::param_count).sum::<usize>()
            })
            .sum();
        let dec: usize = self
            .decoders
            .iter()
            .map(|(u, blocks)| {
                u.param_count() + blocks.iter().map(Module::param_count).sum::<usize>()
            })
            .sum();
        self.stem1.param_count()
            + self.stem2.param_count()
            + enc
            + dec
            + self.classifier.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchsparse_coords::Coord;
    use torchsparse_core::{DeviceProfile, Engine, EnginePreset, SparseTensor};
    use torchsparse_tensor::Matrix;

    fn scene() -> SparseTensor {
        // A dense-ish blob so that four stride-2 downsamples keep points.
        let mut coords = std::collections::BTreeSet::new();
        for i in 0..500 {
            coords.insert(Coord::new(0, (i * 7) % 24, ((i * 13) / 3) % 20, (i * 3) % 16));
        }
        let coords: Vec<Coord> = coords.into_iter().collect();
        let n = coords.len();
        SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r + c) % 9) as f32 * 0.25))
            .unwrap()
    }

    #[test]
    fn forward_produces_per_point_classes() {
        let net = MinkUNet::with_width(0.25, 4, 5, 7);
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let x = scene();
        let y = e.run(&net, &x).unwrap();
        assert_eq!(y.len(), x.len(), "segmentation output is per input point");
        assert_eq!(y.channels(), 5);
        assert_eq!(y.stride(), 1);
        assert_eq!(y.coords(), x.coords());
    }

    #[test]
    fn width_scales_parameters() {
        let half = MinkUNet::with_width(0.5, 4, 19, 0).param_count();
        let full = MinkUNet::with_width(1.0, 4, 19, 0).param_count();
        assert!(full > 3 * half, "1.0x ({full}) should be ~4x the params of 0.5x ({half})");
    }

    #[test]
    fn four_stages() {
        assert_eq!(MinkUNet::with_width(0.25, 4, 2, 0).stages(), 4);
    }

    #[test]
    fn depth_variants_scale_parameters_and_run() {
        let shallow = MinkUNet::with_width_and_depth(0.25, 1, 4, 5, 0);
        let deep = MinkUNet::with_width_and_depth(0.25, 3, 4, 5, 0);
        assert!(deep.param_count() > shallow.param_count());
        let mut e = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let x = scene();
        let a = e.run(&shallow, &x).unwrap();
        let b = e.run(&deep, &x).unwrap();
        assert_eq!(a.len(), x.len());
        assert_eq!(b.len(), x.len());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_depth_panics() {
        MinkUNet::with_width_and_depth(0.25, 0, 4, 2, 0);
    }

    #[test]
    fn deterministic_outputs() {
        let net = MinkUNet::with_width(0.25, 4, 3, 9);
        let mut e = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
        let x = scene();
        let a = e.run(&net, &x).unwrap();
        let b = e.run(&net, &x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compiled_session_matches_dynamic_run() {
        let net = MinkUNet::with_width(0.25, 4, 5, 13);
        let x = scene();
        let mut dynamic = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
        let expected = dynamic.run(&net, &x).unwrap();
        let mut session = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti())
            .compile(&net, &x)
            .unwrap();
        let got = session.execute(&x).unwrap();
        assert_eq!(expected.coords(), got.coords());
        let a: Vec<u32> = expected.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = got.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "compiled MinkUNet must be bitwise identical to dynamic");
        assert!(
            session.last_timeline().total() < dynamic.last_latency(),
            "plan reuse must beat per-frame mapping"
        );
    }

    #[test]
    fn optimized_and_baseline_agree_fp32() {
        let net = MinkUNet::with_width(0.25, 4, 3, 11);
        let x = scene();
        let mut base = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.precision = torchsparse_core::Precision::Fp32; // isolate numerics from quantization
        let mut opt = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        let ya = base.run(&net, &x).unwrap();
        let yb = opt.run(&net, &x).unwrap();
        let diff = ya.feats().max_abs_diff(yb.feats()).unwrap();
        assert!(diff < 1e-3, "engines disagree by {diff}");
    }
}
