//! SPVCNN (Tang et al., ECCV 2020): sparse point-voxel convolution.
//!
//! The TorchSparse paper's motivating workloads include SPVNAS/SPVCNN — the
//! authors' architecture that pairs a **voxel branch** (a sparse UNet over
//! voxelized features, exactly the workload TorchSparse accelerates) with a
//! high-resolution **point branch** (per-point MLPs), fusing them through
//! *voxelization* (scatter-mean of point features into voxels) and
//! *trilinear devoxelization* (interpolating voxel features back onto the
//! points). This module implements that point-voxel mechanic on top of the
//! engine:
//!
//! - [`PointScene`]: continuous point positions + features;
//! - [`voxelize_features`]: scatter-mean onto an existing voxel coordinate
//!   system;
//! - [`devoxelize_trilinear`]: interpolation from the 8 surrounding voxels;
//! - [`Spvcnn`]: stem MLP → voxel UNet ‖ point MLP → fused classifier.

use crate::minkunet::MinkUNet;
use std::collections::HashMap;
use torchsparse_coords::Coord;
use torchsparse_core::cost_model::Charge;
use torchsparse_core::{Context, CoreError, Module, SparseTensor};
use torchsparse_tensor::gemm::{mm_into_packed_on, GemmOpts};
use torchsparse_tensor::{Matrix, PackedB};

/// A point cloud with continuous positions and per-point features — the
/// high-resolution side of the point-voxel representation.
#[derive(Debug, Clone, PartialEq)]
pub struct PointScene {
    /// Point positions in meters.
    pub positions: Vec<[f32; 3]>,
    /// Per-point features (`len x channels`).
    pub feats: Matrix,
}

impl PointScene {
    /// Creates a scene, validating lengths and positions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] when positions and feature rows
    /// disagree, and [`CoreError::PositionOutOfRange`] for a non-finite
    /// position.
    pub fn new(positions: Vec<[f32; 3]>, feats: Matrix) -> Result<PointScene, CoreError> {
        if positions.len() != feats.rows() {
            return Err(CoreError::LengthMismatch { coords: positions.len(), feats: feats.rows() });
        }
        if let Some(point) = positions.iter().position(|p| !p.iter().all(|v| v.is_finite())) {
            return Err(CoreError::PositionOutOfRange { point });
        }
        Ok(PointScene { positions, feats })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the scene is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Checks that every position, in voxel units at `voxel_size`, is finite
    /// and far enough inside the `i32` grid that the voxel it falls into and
    /// its trilinear neighbours are representable.
    fn check_voxel_range(&self, voxel_size: f32) -> Result<(), CoreError> {
        /// Largest voxel-unit magnitude accepted: `floor(u) + 1` stays far
        /// from `i32::MAX`.
        const MAX_VOXEL_UNITS: f32 = (1u32 << 30) as f32;
        let in_range = |p: &[f32; 3]| p.iter().all(|v| (v / voxel_size).abs() < MAX_VOXEL_UNITS);
        match self.positions.iter().position(|p| !in_range(p)) {
            Some(point) => Err(CoreError::PositionOutOfRange { point }),
            None => Ok(()),
        }
    }

    /// The voxel coordinate each point falls into at `voxel_size`.
    pub(crate) fn voxel_coords(&self, voxel_size: f32) -> Vec<Coord> {
        self.positions
            .iter()
            .map(|p| {
                Coord::new(
                    0,
                    (p[0] / voxel_size).floor() as i32,
                    (p[1] / voxel_size).floor() as i32,
                    (p[2] / voxel_size).floor() as i32,
                )
            })
            .collect()
    }
}

/// Scatter-means point features into a voxel tensor at `voxel_size`.
///
/// Returns the voxel tensor and, for each point, the index of its voxel —
/// the "point-to-voxel" map reused by devoxelization and fusion.
///
/// # Errors
///
/// Returns [`CoreError::EmptyInput`] for an empty scene and
/// [`CoreError::PositionOutOfRange`] for a position outside the voxel grid.
pub fn voxelize_features(
    scene: &PointScene,
    voxel_size: f32,
    ctx: &mut Context,
) -> Result<(SparseTensor, Vec<u32>), CoreError> {
    if scene.is_empty() {
        return Err(CoreError::EmptyInput);
    }
    scene.check_voxel_range(voxel_size)?;
    let per_point = scene.voxel_coords(voxel_size);
    let mut order: Vec<Coord> = per_point.clone();
    order.sort_unstable();
    order.dedup();
    let index: HashMap<Coord, u32> =
        order.iter().enumerate().map(|(i, &c)| (c, i as u32)).collect();

    let c = scene.feats.cols();
    let mut sums = Matrix::zeros(order.len(), c);
    let mut counts = vec![0u32; order.len()];
    let mut point_to_voxel = Vec::with_capacity(scene.len());
    for (i, coord) in per_point.iter().enumerate() {
        let v = index[coord];
        point_to_voxel.push(v);
        counts[v as usize] += 1;
        let dst = sums.row_mut(v as usize);
        for (d, &s) in dst.iter_mut().zip(scene.feats.row(i)) {
            *d += s;
        }
    }
    for (i, &n) in counts.iter().enumerate() {
        let inv = 1.0 / n as f32;
        for v in sums.row_mut(i) {
            *v *= inv;
        }
    }

    // Cost: stream the point features in, scatter-accumulate into voxels.
    ctx.defer(Charge::point_transfer(scene.len(), order.len(), c));
    Ok((SparseTensor::new(order, sums)?, point_to_voxel))
}

/// Trilinearly interpolates voxel features back onto points.
///
/// Each point reads the (up to) 8 voxels whose centers surround it; missing
/// voxels contribute zero with their weight dropped and the remaining
/// weights renormalized — the convention of the SPVCNN reference code.
///
/// # Errors
///
/// Returns [`CoreError::EmptyInput`] for an empty scene and
/// [`CoreError::PositionOutOfRange`] for a position outside the voxel grid.
pub fn devoxelize_trilinear(
    scene: &PointScene,
    voxels: &SparseTensor,
    voxel_size: f32,
    ctx: &mut Context,
) -> Result<Matrix, CoreError> {
    if scene.is_empty() {
        return Err(CoreError::EmptyInput);
    }
    scene.check_voxel_range(voxel_size)?;
    let index: HashMap<Coord, usize> =
        voxels.coords().iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let c = voxels.channels();
    let mut out = Matrix::zeros(scene.len(), c);

    for (i, p) in scene.positions.iter().enumerate() {
        // Position in voxel units, relative to voxel centers.
        let u = [p[0] / voxel_size - 0.5, p[1] / voxel_size - 0.5, p[2] / voxel_size - 0.5];
        let base = [u[0].floor(), u[1].floor(), u[2].floor()];
        let frac = [u[0] - base[0], u[1] - base[1], u[2] - base[2]];
        let mut total_w = 0.0f32;
        let mut acc = vec![0.0f32; c];
        for dx in 0..2 {
            for dy in 0..2 {
                for dz in 0..2 {
                    let w = (if dx == 0 { 1.0 - frac[0] } else { frac[0] })
                        * (if dy == 0 { 1.0 - frac[1] } else { frac[1] })
                        * (if dz == 0 { 1.0 - frac[2] } else { frac[2] });
                    if w <= 0.0 {
                        continue;
                    }
                    let coord = Coord::new(
                        0,
                        base[0] as i32 + dx,
                        base[1] as i32 + dy,
                        base[2] as i32 + dz,
                    );
                    if let Some(&v) = index.get(&coord) {
                        total_w += w;
                        for (a, &f) in acc.iter_mut().zip(voxels.feats().row(v)) {
                            *a += w * f;
                        }
                    }
                }
            }
        }
        if total_w > 0.0 {
            let inv = 1.0 / total_w;
            for (dst, a) in out.row_mut(i).iter_mut().zip(&acc) {
                *dst = a * inv;
            }
        }
    }

    // Cost: each point gathers up to 8 voxel rows (random) + writes one row.
    ctx.defer(Charge::point_transfer(8 * scene.len(), scene.len(), c));
    Ok(out)
}

/// A per-point MLP layer (linear + ReLU), the point branch's building block.
/// Its weight is packed once, here, like a convolution's.
#[derive(Debug)]
pub(crate) struct PointMlp {
    weight: PackedB,
}

impl PointMlp {
    /// Creates an MLP layer with deterministic pseudo-random weights.
    pub(crate) fn new(c_in: usize, c_out: usize, seed: u64) -> PointMlp {
        let scale = (2.0 / c_in as f32).sqrt();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let weight = Matrix::from_fn(c_in, c_out, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (((state >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 1.0) * scale
        });
        PointMlp { weight: PackedB::pack(&weight) }
    }

    /// Applies `relu(x . W)` on the context's pool, with simulated GEMM
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tensor`] on a channel mismatch.
    pub(crate) fn forward(&self, x: &Matrix, ctx: &mut Context) -> Result<Matrix, CoreError> {
        let mut y = Matrix::zeros(x.rows(), self.weight.n());
        let pool = ctx.runtime.pool();
        mm_into_packed_on(&pool, x, &self.weight, &mut y, GemmOpts::default())?;
        y.map_inplace(|v| v.max(0.0));
        ctx.defer(Charge::point_linear(x.rows(), x.cols(), self.weight.n()));
        Ok(y)
    }
}

/// SPVCNN: a voxel-branch MinkUNet fused with a high-resolution point
/// branch through voxelization / trilinear devoxelization.
///
/// # Example
///
/// ```
/// use torchsparse_models::Spvcnn;
///
/// let _net = Spvcnn::new(0.25, 4, 8, 0.1, 42);
/// ```
pub struct Spvcnn {
    point_stem: PointMlp,
    point_branch: PointMlp,
    voxel_branch: MinkUNet,
    classifier: PointMlp,
    hidden: usize,
    voxel_size: f32,
}

impl Spvcnn {
    /// Builds an SPVCNN with the given voxel-branch width multiplier, input
    /// channels, class count, voxel size, and weight seed.
    pub fn new(
        width: f64,
        in_channels: usize,
        num_classes: usize,
        voxel_size: f32,
        seed: u64,
    ) -> Spvcnn {
        let hidden = ((32.0 * width).round() as usize).max(4);
        Spvcnn {
            point_stem: PointMlp::new(in_channels, hidden, seed),
            point_branch: PointMlp::new(hidden, hidden, seed ^ 1),
            // The voxel branch predicts `hidden` features, not classes.
            voxel_branch: MinkUNet::with_width(width, hidden, hidden, seed ^ 2),
            classifier: PointMlp::new(hidden, num_classes, seed ^ 3),
            hidden,
            voxel_size,
        }
    }

    /// Hidden feature width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The sparse voxel branch (a MinkUNet over `hidden` channels). Exposed
    /// so streaming drivers can compile it into a
    /// [`CompiledSession`](torchsparse_core::CompiledSession); the point
    /// branch's voxelization is data-dependent and stays dynamic.
    pub fn voxel_branch(&self) -> &MinkUNet {
        &self.voxel_branch
    }

    /// Runs the network: per-point class scores (`len x num_classes`).
    ///
    /// # Errors
    ///
    /// Propagates layer errors; [`CoreError::EmptyInput`] on empty scenes.
    pub fn forward(&self, scene: &PointScene, ctx: &mut Context) -> Result<Matrix, CoreError> {
        if scene.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        // Shared stem on points.
        let stem = self.point_stem.forward(&scene.feats, ctx)?;
        let stem_scene = PointScene::new(scene.positions.clone(), stem.clone())?;

        // Voxel branch: voxelize -> sparse UNet -> devoxelize.
        let (voxels, _p2v) = voxelize_features(&stem_scene, self.voxel_size, ctx)?;
        let voxel_out = self.voxel_branch.forward(&voxels, ctx)?;
        let voxel_feats = devoxelize_trilinear(&stem_scene, &voxel_out, self.voxel_size, ctx)?;

        // Point branch: MLP at full resolution.
        let point_feats = self.point_branch.forward(&stem, ctx)?;

        // Fuse (add) and classify.
        let fused = &voxel_feats + &point_feats;
        self.classifier.forward(&fused, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use torchsparse_core::{EnginePreset, OptimizationConfig, ThreadPool};
    use torchsparse_gpusim::DeviceProfile;

    fn ctx() -> Context {
        Context::new(EnginePreset::TorchSparse.config(), DeviceProfile::rtx_2080ti())
    }

    fn fp32_ctx() -> Context {
        let mut cfg: OptimizationConfig = EnginePreset::TorchSparse.config();
        cfg.precision = torchsparse_core::Precision::Fp32;
        Context::new(cfg, DeviceProfile::rtx_2080ti())
    }

    fn scene(n: usize) -> PointScene {
        let positions: Vec<[f32; 3]> = (0..n)
            .map(|i| {
                let f = i as f32;
                [(f * 0.37) % 3.0, (f * 0.73) % 2.5, (f * 0.11) % 1.5]
            })
            .collect();
        let feats = Matrix::from_fn(n, 4, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.2);
        PointScene::new(positions, feats).unwrap()
    }

    #[test]
    fn point_scene_validation() {
        assert!(PointScene::new(vec![[0.0; 3]], Matrix::zeros(2, 4)).is_err());
        assert!(PointScene::new(vec![[0.0; 3]; 2], Matrix::zeros(2, 4)).is_ok());
    }

    #[test]
    fn voxelize_means_points_in_same_cell() {
        let s = PointScene::new(
            vec![[0.01, 0.01, 0.01], [0.05, 0.05, 0.05], [0.55, 0.0, 0.0]],
            Matrix::from_vec(3, 1, vec![1.0, 3.0, 7.0]).unwrap(),
        )
        .unwrap();
        let mut c = ctx();
        let (voxels, p2v) = voxelize_features(&s, 0.1, &mut c).unwrap();
        assert_eq!(voxels.len(), 2);
        assert_eq!(p2v[0], p2v[1]);
        assert_ne!(p2v[0], p2v[2]);
        // Mean of 1.0 and 3.0.
        let merged = voxels.coords().iter().position(|co| co.x == 0).unwrap();
        assert_eq!(voxels.feats()[(merged, 0)], 2.0);
    }

    #[test]
    fn devoxelize_constant_field_is_constant() {
        // Trilinear interpolation of a constant voxel field returns the
        // constant exactly (weights renormalize over present voxels).
        let s = scene(40);
        let mut c = ctx();
        let (voxels, _) = voxelize_features(&s, 0.25, &mut c).unwrap();
        let constant = voxels.with_feats(Matrix::filled(voxels.len(), 4, 3.5)).unwrap();
        let out = devoxelize_trilinear(&s, &constant, 0.25, &mut c).unwrap();
        for i in 0..s.len() {
            for ch in 0..4 {
                assert!(
                    (out[(i, ch)] - 3.5).abs() < 1e-5,
                    "point {i} channel {ch}: {}",
                    out[(i, ch)]
                );
            }
        }
    }

    #[test]
    fn devoxelize_point_at_voxel_center_copies_feature() {
        // A point exactly at a voxel center has weight 1 on that voxel.
        let s = PointScene::new(vec![[0.05, 0.05, 0.05]], Matrix::filled(1, 2, 1.0)).unwrap();
        let mut c = ctx();
        let (voxels, _) = voxelize_features(&s, 0.1, &mut c).unwrap();
        let painted = voxels.with_feats(Matrix::from_vec(1, 2, vec![4.0, -2.0]).unwrap()).unwrap();
        let out = devoxelize_trilinear(&s, &painted, 0.1, &mut c).unwrap();
        assert_eq!(out.row(0), &[4.0, -2.0]);
    }

    #[test]
    fn spvcnn_forward_shapes_and_determinism() {
        let net = Spvcnn::new(0.25, 4, 7, 0.2, 5);
        let s = scene(120);
        let mut c1 = fp32_ctx();
        let out1 = net.forward(&s, &mut c1).unwrap();
        assert_eq!(out1.shape(), (120, 7));
        assert!(c1.timeline().total().as_f64() > 0.0);
        let mut c2 = fp32_ctx();
        let out2 = net.forward(&s, &mut c2).unwrap();
        assert_eq!(out1, out2);
    }

    /// FNV-1a over an output's feature bits.
    fn digest(m: &Matrix) -> u64 {
        m.as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// SPVCNN's outputs at both executed storage precisions, pinned before
    /// the point MLPs packed their weights: the packed GEMM must not move a bit, on
    /// either kernel (the suite's `TORCHSPARSE_SIMD=off` pass holds the
    /// portable one to the same constants).
    #[test]
    fn spvcnn_output_bits_are_pinned() {
        use torchsparse_core::Precision;
        let net = Spvcnn::new(0.25, 4, 7, 0.2, 5);
        let s = scene(120);
        for (precision, want) in
            [(Precision::Fp32, 0x1eaa_04da_e476_5696u64), (Precision::Fp16, 0x5de5_6ca3_5747_1dd0)]
        {
            let mut cfg: OptimizationConfig = EnginePreset::TorchSparse.config();
            cfg.precision = precision;
            let mut c = Context::new(cfg, DeviceProfile::rtx_2080ti());
            let out = net.forward(&s, &mut c).unwrap();
            assert_eq!(digest(&out), want, "{precision:?}");
        }
    }

    #[test]
    fn point_mlp_runs_on_the_contexts_pool() {
        // 200 rows x 64 -> 64 channels: past the GEMM's parallel floor, so
        // a recording pool sees one wave of one task per 64-row panel.
        let mlp = PointMlp::new(64, 64, 9);
        let x = Matrix::from_fn(200, 64, |r, c| ((r * 3 + c) % 13) as f32 * 0.1 - 0.5);
        let recording = Arc::new(ThreadPool::new_recording());
        let mut c = ctx();
        c.runtime.set_pool(Arc::clone(&recording));
        let y = mlp.forward(&x, &mut c).unwrap();
        let trace = recording.take_trace();
        assert_eq!(trace.iter().map(Vec::len).collect::<Vec<_>>(), [4], "{trace:?}");
        let mut serial = Context::new(
            OptimizationConfig { threads: Some(1), ..EnginePreset::TorchSparse.config() },
            DeviceProfile::rtx_2080ti(),
        );
        assert_eq!(mlp.forward(&x, &mut serial).unwrap(), y);
    }

    #[test]
    fn spvcnn_point_branch_contributes() {
        // Zeroing the point features must change the output (the point
        // branch is live, not dead code).
        let net = Spvcnn::new(0.25, 4, 5, 0.2, 6);
        let s = scene(80);
        let zeroed = PointScene::new(s.positions.clone(), Matrix::zeros(80, 4)).unwrap();
        let mut c1 = fp32_ctx();
        let mut c2 = fp32_ctx();
        let a = net.forward(&s, &mut c1).unwrap();
        let b = net.forward(&zeroed, &mut c2).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() > 1e-6);
    }

    #[test]
    fn spvcnn_rejects_empty() {
        let net = Spvcnn::new(0.25, 4, 5, 0.2, 7);
        let empty = PointScene::new(vec![], Matrix::zeros(0, 4)).unwrap();
        assert!(matches!(net.forward(&empty, &mut ctx()), Err(CoreError::EmptyInput)));
    }

    #[test]
    fn spvcnn_rejects_positions_off_the_voxel_grid() {
        let feats = Matrix::zeros(2, 4);
        assert!(matches!(
            PointScene::new(vec![[0.0; 3], [0.0, f32::NAN, 0.0]], feats.clone()),
            Err(CoreError::PositionOutOfRange { point: 1 })
        ));
        // 1e12 m is 5e12 voxels at 0.2 m: past `i32`, so the voxel index
        // would saturate and its trilinear neighbour overflow.
        let far = PointScene::new(vec![[0.0; 3], [1.0e12, 0.0, 0.0]], feats).unwrap();
        let net = Spvcnn::new(0.25, 4, 5, 0.2, 8);
        assert!(matches!(
            net.forward(&far, &mut ctx()),
            Err(CoreError::PositionOutOfRange { point: 1 })
        ));
    }
}
