use crate::PointCloud;
use std::collections::HashMap;
use torchsparse_coords::Coord;
use torchsparse_core::{CoreError, SparseTensor};
use torchsparse_tensor::Matrix;

/// Quantizes point clouds into sparse voxel tensors.
///
/// Points falling into the same voxel are averaged (the standard
/// voxelization used by MinkUNet and CenterPoint preprocessing). Per-voxel
/// features are `[intensity, dx, dy, dz, ...]` — the mean intensity and the
/// mean offset of the points from the voxel center — zero-padded or
/// truncated to the requested channel count.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Voxelizer {
    /// Voxel edge length in meters.
    pub voxel_size: f32,
    /// Output feature channels.
    pub channels: usize,
    /// Batch index assigned to the produced tensor.
    pub batch: i32,
}

impl Voxelizer {
    /// Creates a voxelizer.
    ///
    /// # Panics
    ///
    /// Panics if `voxel_size` is not positive or `channels == 0`.
    pub(crate) fn new(voxel_size: f32, channels: usize) -> Voxelizer {
        assert!(voxel_size > 0.0, "voxel size must be positive");
        assert!(channels > 0, "channels must be positive");
        Voxelizer { voxel_size, channels, batch: 0 }
    }

    /// Voxelizes one scan.
    ///
    /// Points with non-finite coordinates are dropped (see
    /// [`Voxelizer::voxelize_counted`] to observe how many); feeding them to
    /// the grid math would otherwise saturate the `as i32` casts and pile
    /// every corrupt point into the `i32::MIN`/`i32::MAX` corner voxels.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] from tensor construction (cannot occur for a
    /// well-formed voxel map).
    pub(crate) fn voxelize(&self, scan: &PointCloud) -> Result<SparseTensor, CoreError> {
        self.voxelize_counted(scan).map(|(t, _)| t)
    }

    /// [`Voxelizer::voxelize`] that also reports how many points were
    /// dropped for having NaN or infinite coordinates.
    ///
    /// # Errors
    ///
    /// Same as [`Voxelizer::voxelize`].
    pub(crate) fn voxelize_counted(
        &self,
        scan: &PointCloud,
    ) -> Result<(SparseTensor, usize), CoreError> {
        // voxel -> (count, sum_intensity, sum_offset)
        let mut cells: HashMap<Coord, (usize, f32, [f32; 3])> = HashMap::new();
        let mut dropped = 0usize;
        for (p, &intensity) in scan.points.iter().zip(&scan.intensity) {
            if p.iter().any(|v| !v.is_finite()) {
                dropped += 1;
                continue;
            }
            let v = Coord::new(
                self.batch,
                (p[0] / self.voxel_size).floor() as i32,
                (p[1] / self.voxel_size).floor() as i32,
                (p[2] / self.voxel_size).floor() as i32,
            );
            let center = [
                (v.x as f32 + 0.5) * self.voxel_size,
                (v.y as f32 + 0.5) * self.voxel_size,
                (v.z as f32 + 0.5) * self.voxel_size,
            ];
            let entry = cells.entry(v).or_insert((0, 0.0, [0.0; 3]));
            entry.0 += 1;
            entry.1 += intensity;
            for a in 0..3 {
                entry.2[a] += p[a] - center[a];
            }
        }

        // Deterministic ordering.
        let mut coords: Vec<Coord> = cells.keys().copied().collect();
        coords.sort_unstable();

        let feats = Matrix::from_fn(coords.len(), self.channels, |r, c| {
            let (count, sum_i, sum_off) = cells[&coords[r]];
            let n = count as f32;
            match c {
                0 => sum_i / n,
                1..=3 => sum_off[c - 1] / (n * self.voxel_size),
                4 => 1.0, // occupancy constant, a common CenterPoint feature
                _ => 0.0,
            }
        });
        SparseTensor::new(coords, feats).map(|t| (t, dropped))
    }
}

/// Convenience wrapper: voxelizes `scan` at `voxel_size` into `channels`
/// feature channels.
///
/// # Errors
///
/// See [`Voxelizer::voxelize`].
///
/// # Example
///
/// ```
/// use torchsparse_data::{voxelize_scan, LidarConfig};
///
/// # fn main() -> Result<(), torchsparse_core::CoreError> {
/// let scan = LidarConfig::semantic_kitti().scaled(0.02).generate(1);
/// let tensor = voxelize_scan(&scan, 0.1, 4)?;
/// assert!(tensor.len() <= scan.len());
/// # Ok(())
/// # }
/// ```
pub fn voxelize_scan(
    scan: &PointCloud,
    voxel_size: f32,
    channels: usize,
) -> Result<SparseTensor, CoreError> {
    Voxelizer::new(voxel_size, channels).voxelize(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LidarConfig;

    fn cloud(points: Vec<[f32; 3]>) -> PointCloud {
        let n = points.len();
        PointCloud { points, intensity: vec![0.5; n] }
    }

    #[test]
    fn points_in_same_voxel_merge() {
        let scan = cloud(vec![[0.01, 0.01, 0.01], [0.04, 0.04, 0.04]]);
        let t = voxelize_scan(&scan, 0.1, 4).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.coords()[0], Coord::new(0, 0, 0, 0));
    }

    #[test]
    fn distinct_voxels_stay_separate() {
        let scan = cloud(vec![[0.05, 0.0, 0.0], [0.15, 0.0, 0.0], [-0.05, 0.0, 0.0]]);
        let t = voxelize_scan(&scan, 0.1, 2).unwrap();
        assert_eq!(t.len(), 3);
        // Negative coordinates floor correctly.
        assert!(t.coords().contains(&Coord::new(0, -1, 0, 0)));
    }

    #[test]
    fn intensity_channel_is_mean() {
        let mut scan = cloud(vec![[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]]);
        scan.intensity = vec![0.2, 0.8];
        let t = voxelize_scan(&scan, 1.0, 1).unwrap();
        assert!((t.feats()[(0, 0)] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn offsets_normalized_to_voxel_units() {
        let scan = cloud(vec![[0.9, 0.5, 0.5]]); // voxel center (0.5,0.5,0.5)
        let t = voxelize_scan(&scan, 1.0, 4).unwrap();
        assert!((t.feats()[(0, 1)] - 0.4).abs() < 1e-6);
        assert!(t.feats()[(0, 2)].abs() < 1e-6);
    }

    #[test]
    fn channel_padding_and_truncation() {
        let scan = cloud(vec![[0.0, 0.0, 0.0]]);
        let wide = voxelize_scan(&scan, 1.0, 8).unwrap();
        assert_eq!(wide.channels(), 8);
        assert_eq!(wide.feats()[(0, 7)], 0.0);
        let narrow = voxelize_scan(&scan, 1.0, 1).unwrap();
        assert_eq!(narrow.channels(), 1);
    }

    #[test]
    fn voxelization_unique_and_sorted() {
        let scan = LidarConfig::semantic_kitti().scaled(0.03).generate(9);
        let t = voxelize_scan(&scan, 0.1, 4).unwrap();
        t.validate_unique().unwrap();
        let mut sorted = t.coords().to_vec();
        sorted.sort_unstable();
        assert_eq!(t.coords(), &sorted[..]);
    }

    #[test]
    fn smaller_voxels_give_more_voxels() {
        let scan = LidarConfig::semantic_kitti().scaled(0.03).generate(10);
        let coarse = voxelize_scan(&scan, 0.4, 4).unwrap();
        let fine = voxelize_scan(&scan, 0.05, 4).unwrap();
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn non_finite_points_are_dropped_and_counted() {
        let scan = cloud(vec![
            [0.05, 0.05, 0.05],
            [f32::NAN, 0.0, 0.0],
            [0.0, f32::INFINITY, 0.0],
            [0.0, 0.0, f32::NEG_INFINITY],
            [0.15, 0.05, 0.05],
        ]);
        let (t, dropped) = Voxelizer::new(0.1, 4).voxelize_counted(&scan).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(t.len(), 2);
        // No saturated corner voxels from the corrupt points.
        assert!(t.coords().iter().all(|c| c.x.abs() < 100));
        assert!(t.feats().is_finite());
    }

    #[test]
    fn all_non_finite_scan_yields_empty_tensor() {
        let scan = cloud(vec![[f32::NAN; 3], [f32::INFINITY; 3]]);
        let (t, dropped) = Voxelizer::new(0.1, 4).voxelize_counted(&scan).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "voxel size must be positive")]
    fn zero_voxel_size_panics() {
        Voxelizer::new(0.0, 4);
    }
}
