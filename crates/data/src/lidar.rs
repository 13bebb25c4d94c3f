use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A raw point cloud: XYZ positions (meters, sensor frame) with per-point
/// intensity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointCloud {
    /// Point positions.
    pub points: Vec<[f32; 3]>,
    /// Return intensities in `[0, 1]`.
    pub intensity: Vec<f32>,
}

impl PointCloud {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the cloud is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// An axis-aligned box obstacle in the procedural scene.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BoxObstacle {
    min: [f32; 3],
    max: [f32; 3],
}

impl BoxObstacle {
    /// Ray/slab intersection; returns the entry distance if the ray hits.
    fn intersect(&self, origin: [f32; 3], dir: [f32; 3]) -> Option<f32> {
        let mut t_near = f32::NEG_INFINITY;
        let mut t_far = f32::INFINITY;
        for a in 0..3 {
            if dir[a].abs() < 1e-9 {
                if origin[a] < self.min[a] || origin[a] > self.max[a] {
                    return None;
                }
                continue;
            }
            let inv = 1.0 / dir[a];
            let mut t0 = (self.min[a] - origin[a]) * inv;
            let mut t1 = (self.max[a] - origin[a]) * inv;
            if t0 > t1 {
                std::mem::swap(&mut t0, &mut t1);
            }
            t_near = t_near.max(t0);
            t_far = t_far.min(t1);
            if t_near > t_far {
                return None;
            }
        }
        if t_near > 0.05 {
            Some(t_near)
        } else {
            None
        }
    }
}

/// A rotating-LiDAR model with a procedural driving scene.
///
/// Rays are cast from a sensor mounted `sensor_height` above the ground
/// over `beams` elevation angles and `azimuth_steps` horizontal directions.
/// Each ray hits the nearest of: the ground plane, or one of
/// `num_obstacles` procedurally placed boxes (cars / walls / poles). Range
/// limits, per-ray dropout, and radial noise shape the return statistics.
///
/// # Example
///
/// ```
/// use torchsparse_data::LidarConfig;
///
/// let scan = LidarConfig::semantic_kitti().scaled(0.05).generate(7);
/// assert!(scan.len() > 50);
/// assert_eq!(scan.points.len(), scan.intensity.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LidarConfig {
    /// Number of laser beams (vertical channels).
    pub beams: usize,
    /// Azimuth samples per revolution.
    pub azimuth_steps: usize,
    /// Lowest beam elevation in degrees (negative = downward).
    pub elevation_min_deg: f32,
    /// Highest beam elevation in degrees.
    pub elevation_max_deg: f32,
    /// Maximum return range in meters.
    pub max_range: f32,
    /// Minimum return range in meters.
    pub min_range: f32,
    /// Probability that a ray produces no return.
    pub dropout: f32,
    /// Standard deviation of radial range noise in meters.
    pub range_noise: f32,
    /// Number of box obstacles in the scene.
    pub num_obstacles: usize,
    /// Half-extent of the obstacle field in meters.
    pub scene_extent: f32,
    /// Sensor height above ground in meters.
    pub sensor_height: f32,
}

impl LidarConfig {
    /// Velodyne HDL-64E-like configuration (SemanticKITTI): ~115k rays,
    /// ~100k returns.
    pub fn semantic_kitti() -> LidarConfig {
        LidarConfig {
            beams: 64,
            azimuth_steps: 1800,
            elevation_min_deg: -24.8,
            elevation_max_deg: 2.0,
            max_range: 80.0,
            min_range: 2.0,
            dropout: 0.08,
            range_noise: 0.03,
            num_obstacles: 60,
            scene_extent: 60.0,
            sensor_height: 1.73,
        }
    }

    /// nuScenes' 32-beam sensor: far sparser scans (~30k returns).
    pub(crate) fn nuscenes() -> LidarConfig {
        LidarConfig {
            beams: 32,
            azimuth_steps: 1090,
            elevation_min_deg: -30.0,
            elevation_max_deg: 10.0,
            max_range: 70.0,
            min_range: 1.0,
            dropout: 0.12,
            range_noise: 0.03,
            num_obstacles: 45,
            scene_extent: 55.0,
            sensor_height: 1.84,
        }
    }

    /// Waymo's dense mid-range sensor (~160k returns): the heaviest
    /// workload in the paper's detection benchmarks.
    pub fn waymo() -> LidarConfig {
        LidarConfig {
            beams: 64,
            azimuth_steps: 2650,
            elevation_min_deg: -17.6,
            elevation_max_deg: 2.4,
            max_range: 75.0,
            min_range: 1.5,
            dropout: 0.05,
            range_noise: 0.015,
            num_obstacles: 80,
            scene_extent: 55.0,
            sensor_height: 2.0,
        }
    }

    /// Returns a configuration with the ray count scaled by `scale`
    /// (applied as `sqrt(scale)` to both beams and azimuth steps so the
    /// angular sampling stays isotropic). Useful for fast tests and scaled
    /// benchmark runs.
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> LidarConfig {
        let f = scale.max(1e-6).sqrt();
        self.beams = ((self.beams as f64 * f).round() as usize).max(4);
        self.azimuth_steps = ((self.azimuth_steps as f64 * f).round() as usize).max(16);
        self
    }

    /// Generates one deterministic scan.
    pub fn generate(&self, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let obstacles = self.build_scene(&mut rng);
        let origin = [0.0, 0.0, self.sensor_height];

        let mut cloud = PointCloud::default();
        for b in 0..self.beams {
            let frac = if self.beams > 1 { b as f32 / (self.beams - 1) as f32 } else { 0.5 };
            let elev_deg =
                self.elevation_min_deg + frac * (self.elevation_max_deg - self.elevation_min_deg);
            let elev = elev_deg.to_radians();
            let (sin_e, cos_e) = elev.sin_cos();
            for a in 0..self.azimuth_steps {
                if rng.random::<f32>() < self.dropout {
                    continue;
                }
                let az = a as f32 / self.azimuth_steps as f32 * std::f32::consts::TAU;
                let (sin_a, cos_a) = az.sin_cos();
                let dir = [cos_e * cos_a, cos_e * sin_a, sin_e];

                // Nearest hit among ground and obstacles.
                let mut t_hit = f32::INFINITY;
                if dir[2] < -1e-6 {
                    let t_ground = -origin[2] / dir[2];
                    t_hit = t_hit.min(t_ground);
                }
                for ob in &obstacles {
                    if let Some(t) = ob.intersect(origin, dir) {
                        t_hit = t_hit.min(t);
                    }
                }
                if !t_hit.is_finite() || t_hit < self.min_range || t_hit > self.max_range {
                    continue;
                }
                let t = t_hit + rng.random_range(-1.0f32..1.0) * self.range_noise;
                let p = [origin[0] + dir[0] * t, origin[1] + dir[1] * t, origin[2] + dir[2] * t];
                // Intensity falls off with range, with per-return jitter.
                let intensity =
                    ((1.0 - t / self.max_range) * 0.8 + rng.random::<f32>() * 0.2).clamp(0.0, 1.0);
                cloud.points.push(p);
                cloud.intensity.push(intensity);
            }
        }
        cloud
    }

    fn build_scene(&self, rng: &mut StdRng) -> Vec<BoxObstacle> {
        let mut boxes = Vec::with_capacity(self.num_obstacles);
        for i in 0..self.num_obstacles {
            let cx = rng.random_range(-self.scene_extent..self.scene_extent);
            let cy = rng.random_range(-self.scene_extent..self.scene_extent);
            // Mix of car-sized boxes, poles, and building walls.
            let (hx, hy, hz) = match i % 5 {
                0 | 1 => (1.0 + rng.random::<f32>(), 2.0 + rng.random::<f32>(), 1.5), // cars
                2 => (0.2, 0.2, 4.0 + 2.0 * rng.random::<f32>()),                     // poles
                3 => (4.0 + 4.0 * rng.random::<f32>(), 1.0, 3.5),                     // walls
                _ => (1.5, 1.5, 2.0 + rng.random::<f32>()),                           // misc
            };
            boxes.push(BoxObstacle { min: [cx - hx, cy - hy, 0.0], max: [cx + hx, cy + hy, hz] });
        }
        boxes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = LidarConfig::semantic_kitti().scaled(0.02);
        assert_eq!(cfg.generate(5), cfg.generate(5));
        assert_ne!(cfg.generate(5), cfg.generate(6));
    }

    #[test]
    fn full_scale_point_counts_match_dataset_statistics() {
        // Full-scale generation is slow-ish; run once per preset and check
        // the return counts land in each dataset's documented band.
        let sk = LidarConfig::semantic_kitti().generate(0);
        assert!(
            (70_000..130_000).contains(&sk.len()),
            "SemanticKITTI-like scan has {} returns",
            sk.len()
        );
        let ns = LidarConfig::nuscenes().generate(0);
        assert!((15_000..45_000).contains(&ns.len()), "nuScenes-like scan has {}", ns.len());
        let wm = LidarConfig::waymo().generate(0);
        assert!((120_000..200_000).contains(&wm.len()), "Waymo-like scan has {}", wm.len());
        assert!(wm.len() > sk.len());
        assert!(sk.len() > ns.len());
    }

    #[test]
    fn points_respect_range_limits() {
        let cfg = LidarConfig::semantic_kitti().scaled(0.02);
        let scan = cfg.generate(1);
        for p in &scan.points {
            let r = (p[0] * p[0] + p[1] * p[1] + (p[2] - cfg.sensor_height).powi(2)).sqrt();
            assert!(r >= cfg.min_range - 0.2, "return at {r} below min range");
            assert!(r <= cfg.max_range + 0.2, "return at {r} beyond max range");
        }
    }

    #[test]
    fn ground_returns_lie_near_zero_height() {
        let mut cfg = LidarConfig::semantic_kitti().scaled(0.05);
        cfg.num_obstacles = 0;
        let scan = cfg.generate(2);
        assert!(!scan.is_empty());
        for p in &scan.points {
            assert!(p[2].abs() < 0.5, "pure-ground scene return at z={}", p[2]);
        }
    }

    #[test]
    fn obstacles_create_elevated_returns() {
        let cfg = LidarConfig::waymo().scaled(0.1);
        let scan = cfg.generate(3);
        let elevated = scan.points.iter().filter(|p| p[2] > 0.5).count();
        assert!(elevated > 0, "box obstacles must produce elevated returns");
    }

    #[test]
    fn dropout_reduces_returns() {
        let mut low = LidarConfig::semantic_kitti().scaled(0.05);
        low.dropout = 0.0;
        let mut high = low.clone();
        high.dropout = 0.5;
        assert!(high.generate(4).len() < low.generate(4).len());
    }

    #[test]
    fn intensity_in_unit_range() {
        let scan = LidarConfig::semantic_kitti().scaled(0.05).generate(5);
        assert!(scan.intensity.iter().all(|&i| (0.0..=1.0).contains(&i)));
    }

    #[test]
    fn box_intersection_basics() {
        let b = BoxObstacle { min: [5.0, -1.0, 0.0], max: [7.0, 1.0, 2.0] };
        // Ray straight along +x hits the near face at t=5.
        let t = b.intersect([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]).unwrap();
        assert!((t - 5.0).abs() < 1e-5);
        // Ray pointing away misses.
        assert!(b.intersect([0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]).is_none());
        // Ray offset in y misses.
        assert!(b.intersect([0.0, 5.0, 1.0], [1.0, 0.0, 0.0]).is_none());
    }
}
