use crate::PointCloud;

/// Aggregates consecutive LiDAR sweeps into one cloud, compensating ego
/// motion.
///
/// Detection models on nuScenes and Waymo fuse multiple sweeps (the paper
/// benchmarks 1/3/10-frame variants) to densify the input. Frame `i`
/// (0 = newest) is shifted backwards along the ego trajectory by
/// `i * frame_displacement` meters along x before merging, which reproduces
/// the real effect: the aggregated cloud is denser *and* slightly smeared
/// along the direction of travel.
///
/// # Example
///
/// ```
/// use torchsparse_data::{aggregate_frames, LidarConfig};
///
/// let cfg = LidarConfig::semantic_kitti().scaled(0.02);
/// let frames = vec![cfg.generate(0), cfg.generate(1), cfg.generate(2)];
/// let merged = aggregate_frames(&frames, 0.5);
/// assert_eq!(merged.len(), frames.iter().map(|f| f.len()).sum::<usize>());
/// ```
pub fn aggregate_frames(frames: &[PointCloud], frame_displacement: f32) -> PointCloud {
    let mut merged = PointCloud::default();
    for (i, frame) in frames.iter().enumerate() {
        let shift = i as f32 * frame_displacement;
        for (p, &intensity) in frame.points.iter().zip(&frame.intensity) {
            merged.points.push([p[0] - shift, p[1], p[2]]);
            merged.intensity.push(intensity);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LidarConfig;

    #[test]
    fn empty_input_gives_empty_cloud() {
        assert!(aggregate_frames(&[], 0.5).is_empty());
    }

    #[test]
    fn single_frame_with_zero_shift_is_identity() {
        let cfg = LidarConfig::semantic_kitti().scaled(0.02);
        let f = cfg.generate(0);
        let merged = aggregate_frames(std::slice::from_ref(&f), 0.5);
        assert_eq!(merged, f);
    }

    #[test]
    fn frames_are_shifted_by_index() {
        let f = PointCloud { points: vec![[1.0, 2.0, 3.0]], intensity: vec![0.5] };
        let merged = aggregate_frames(&[f.clone(), f.clone(), f], 0.5);
        assert_eq!(merged.points[0], [1.0, 2.0, 3.0]);
        assert_eq!(merged.points[1], [0.5, 2.0, 3.0]);
        assert_eq!(merged.points[2], [0.0, 2.0, 3.0]);
    }

    #[test]
    fn counts_add_up() {
        let cfg = LidarConfig::waymo().scaled(0.02);
        let frames: Vec<PointCloud> = (0..3).map(|i| cfg.generate(i)).collect();
        let total: usize = frames.iter().map(PointCloud::len).sum();
        assert_eq!(aggregate_frames(&frames, 0.4).len(), total);
    }
}
