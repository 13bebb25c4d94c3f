//! Sparse CNN model zoo: the seven benchmark configurations of the paper.
//!
//! The paper evaluates on two architectures across three datasets
//! (§5.1):
//!
//! - [`MinkUNet`] (Choy et al. 2019) at 0.5x / 1.0x width for semantic
//!   segmentation on SemanticKITTI and nuScenes-LiDARSeg;
//! - [`CenterPoint`]'s sparse 3D encoder (Yin et al. 2021, SECOND-style
//!   backbone) for detection on nuScenes and Waymo.
//!
//! Models are built from `torchsparse-core` layers exactly as a user would
//! compose them through the Python API (§4.1): plain constructors, no
//! `indice_key` / coordinate-manager annotations.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod blocks;
mod centerpoint;
mod minkunet;
mod spvcnn;

pub use blocks::{ConvBnReLU, ResidualBlock};
pub use centerpoint::CenterPoint;
pub use minkunet::MinkUNet;
pub use spvcnn::{devoxelize_trilinear, voxelize_features, PointScene, Spvcnn};

/// The seven (model, dataset) benchmark configurations of Figure 11, with
/// display names matching the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkModel {
    /// MinkUNet 0.5x width on SemanticKITTI.
    MinkUNetHalfSemanticKitti,
    /// MinkUNet 1.0x width on SemanticKITTI.
    MinkUNetFullSemanticKitti,
    /// MinkUNet (1 frame) on nuScenes-LiDARSeg.
    MinkUNetNuScenes1,
    /// MinkUNet (3 frames) on nuScenes-LiDARSeg.
    MinkUNetNuScenes3,
    /// CenterPoint (10 frames) on nuScenes detection.
    CenterPointNuScenes10,
    /// CenterPoint (1 frame) on Waymo.
    CenterPointWaymo1,
    /// CenterPoint (3 frames) on Waymo.
    CenterPointWaymo3,
}

impl BenchmarkModel {
    /// All seven configurations in the paper's plot order.
    pub const ALL: [BenchmarkModel; 7] = [
        BenchmarkModel::MinkUNetHalfSemanticKitti,
        BenchmarkModel::MinkUNetFullSemanticKitti,
        BenchmarkModel::MinkUNetNuScenes1,
        BenchmarkModel::MinkUNetNuScenes3,
        BenchmarkModel::CenterPointNuScenes10,
        BenchmarkModel::CenterPointWaymo1,
        BenchmarkModel::CenterPointWaymo3,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkModel::MinkUNetHalfSemanticKitti => "MinkUNet (0.5x) @ SemanticKITTI",
            BenchmarkModel::MinkUNetFullSemanticKitti => "MinkUNet (1.0x) @ SemanticKITTI",
            BenchmarkModel::MinkUNetNuScenes1 => "MinkUNet (1f) @ nuScenes-LiDARSeg",
            BenchmarkModel::MinkUNetNuScenes3 => "MinkUNet (3f) @ nuScenes-LiDARSeg",
            BenchmarkModel::CenterPointNuScenes10 => "CenterPoint (10f) @ nuScenes",
            BenchmarkModel::CenterPointWaymo1 => "CenterPoint (1f) @ Waymo",
            BenchmarkModel::CenterPointWaymo3 => "CenterPoint (3f) @ Waymo",
        }
    }

    /// Whether this is a segmentation (MinkUNet) configuration.
    pub fn is_segmentation(self) -> bool {
        matches!(
            self,
            BenchmarkModel::MinkUNetHalfSemanticKitti
                | BenchmarkModel::MinkUNetFullSemanticKitti
                | BenchmarkModel::MinkUNetNuScenes1
                | BenchmarkModel::MinkUNetNuScenes3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_benchmark_models() {
        assert_eq!(BenchmarkModel::ALL.len(), 7);
        let seg = BenchmarkModel::ALL.iter().filter(|m| m.is_segmentation()).count();
        assert_eq!(seg, 4);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = BenchmarkModel::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
