//! Synthetic LiDAR datasets mimicking the statistics of SemanticKITTI,
//! nuScenes, and the Waymo Open Dataset.
//!
//! The paper's experiments run on real autonomous-driving scans, which we
//! cannot redistribute. What the paper's *system* results actually depend
//! on, however, is the workload geometry: how many points a scan has, how
//! they cluster (dense rings near the ego vehicle, sparse at range), and how
//! voxel occupancy decays with distance — these determine the per-offset
//! map-size distributions (Figure 12) that drive every optimization. This
//! crate therefore implements a physically-motivated rotating-LiDAR
//! simulator:
//!
//! - [`LidarConfig`]: beam/azimuth geometry with presets per dataset
//!   ([`LidarConfig::semantic_kitti`] 64-beam ~100k pts,
//!   [`LidarConfig::nuscenes`] 32-beam ~30k pts,
//!   [`LidarConfig::waymo`] dense 64-beam ~160k pts).
//! - Ray casting against a procedurally generated scene (ground plane +
//!   box obstacles) with range limits, dropout, and noise.
//! - [`voxelize_scan`]: quantization into a
//!   [`SparseTensor`], deduplicating points per voxel.
//! - [`aggregate_frames`]: multi-frame fusion with ego motion (the 1/3/10
//!   frame settings of the paper's nuScenes and Waymo benchmarks).
//! - [`poisson_arrivals`]: deterministic Poisson arrival schedules for
//!   multi-stream serving benchmarks.
//! - [`geometry_static_stream`]: replayed frame streams with identical
//!   coordinates and jittered features, the steady-state workload for
//!   compiled inference sessions.
//! - [`temporal_churn_stream`] / [`ego_drift_stream`] /
//!   [`dynamic_actors_stream`] / [`multi_sweep_stream`]: temporally
//!   *churning* streams whose geometry changes a controlled few percent per
//!   frame — the workload incremental delta re-planning amortizes.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod batch;
mod lidar;
mod multiframe;
mod stream;
mod temporal;
mod voxelize;

pub use batch::collate;
pub use lidar::{LidarConfig, PointCloud};
pub use multiframe::aggregate_frames;
pub use stream::{geometry_static_stream, poisson_arrivals};
pub use temporal::{
    dynamic_actors_stream, ego_drift_stream, multi_sweep_stream, temporal_churn_stream,
};
pub use voxelize::voxelize_scan;

/// A ready-made (generator, voxelizer) pair representing one benchmark
/// dataset at a chosen scale.
///
/// # Example
///
/// ```
/// use torchsparse_data::SyntheticDataset;
///
/// # fn main() -> Result<(), torchsparse_core::CoreError> {
/// let ds = SyntheticDataset::semantic_kitti(0.05, 4);
/// let scene = ds.scene(0)?;
/// assert!(scene.len() > 100);
/// assert_eq!(scene.channels(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The LiDAR model generating raw scans.
    pub lidar: LidarConfig,
    /// Voxel edge length in meters.
    pub voxel_size: f32,
    /// Feature channels per voxel.
    pub channels: usize,
    /// Number of aggregated frames per scene.
    pub frames: usize,
    /// Short dataset label used in experiment printouts.
    pub name: String,
}

impl SyntheticDataset {
    /// SemanticKITTI-like segmentation data at `scale` of full size.
    pub fn semantic_kitti(scale: f64, channels: usize) -> SyntheticDataset {
        SyntheticDataset {
            lidar: LidarConfig::semantic_kitti().scaled(scale),
            voxel_size: 0.05,
            channels,
            frames: 1,
            name: "SemanticKITTI".to_owned(),
        }
    }

    /// nuScenes-LiDARSeg-like data (32 beams, much sparser) with `frames`
    /// aggregated sweeps.
    pub fn nuscenes(scale: f64, channels: usize, frames: usize) -> SyntheticDataset {
        SyntheticDataset {
            lidar: LidarConfig::nuscenes().scaled(scale),
            voxel_size: 0.1,
            channels,
            frames,
            name: format!("nuScenes ({frames}f)"),
        }
    }

    /// Waymo-like detection data (dense 64-beam) with `frames` sweeps.
    pub fn waymo(scale: f64, channels: usize, frames: usize) -> SyntheticDataset {
        SyntheticDataset {
            lidar: LidarConfig::waymo().scaled(scale),
            voxel_size: 0.1,
            channels,
            frames,
            name: format!("Waymo ({frames}f)"),
        }
    }

    /// Generates the scene with the given index (fully deterministic).
    ///
    /// # Errors
    ///
    /// Propagates [`torchsparse_core::CoreError`] from tensor construction
    /// (cannot occur for non-degenerate configurations).
    pub fn scene(
        &self,
        index: u64,
    ) -> Result<torchsparse_core::SparseTensor, torchsparse_core::CoreError> {
        if self.frames <= 1 {
            let scan = self.lidar.generate(index);
            voxelize_scan(&scan, self.voxel_size, self.channels)
        } else {
            let scans: Vec<PointCloud> =
                (0..self.frames).map(|f| self.lidar.generate(index * 1000 + f as u64)).collect();
            let merged = aggregate_frames(&scans, 0.5);
            voxelize_scan(&merged, self.voxel_size, self.channels)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_scene_is_deterministic() {
        let ds = SyntheticDataset::nuscenes(0.05, 4, 1);
        let a = ds.scene(3).unwrap();
        let b = ds.scene(3).unwrap();
        assert_eq!(a, b);
        let c = ds.scene(4).unwrap();
        assert_ne!(a.coords(), c.coords());
    }

    #[test]
    fn nuscenes_sparser_than_kitti() {
        // The key dataset property behind Figure 12 / Table 1a.
        let sk = SyntheticDataset::semantic_kitti(0.05, 4).scene(0).unwrap();
        let ns = SyntheticDataset::nuscenes(0.05, 4, 1).scene(0).unwrap();
        assert!(
            sk.len() > 2 * ns.len(),
            "SemanticKITTI ({}) should be much denser than nuScenes ({})",
            sk.len(),
            ns.len()
        );
    }

    #[test]
    fn multiframe_increases_density() {
        let one = SyntheticDataset::waymo(0.03, 4, 1).scene(0).unwrap();
        let three = SyntheticDataset::waymo(0.03, 4, 3).scene(0).unwrap();
        assert!(three.len() > one.len());
    }

    #[test]
    fn scenes_have_unique_coords() {
        let ds = SyntheticDataset::semantic_kitti(0.03, 4);
        ds.scene(1).unwrap().validate_unique().unwrap();
    }
}
