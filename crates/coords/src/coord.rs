use std::fmt;

/// A batched integer 3D coordinate: `(batch, x, y, z)`.
///
/// Point cloud engines process mini-batches of scenes by prepending a batch
/// index to each voxel coordinate so that points from different scenes never
/// alias. Spatial components are signed because LiDAR scenes are centered on
/// the ego vehicle.
///
/// # Example
///
/// ```
/// use torchsparse_coords::Coord;
///
/// let p = Coord::new(0, 3, 5, -2);
/// let d = p.offset([1, 1, 1]);
/// assert_eq!(d, Coord::new(0, 4, 6, -1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Coord {
    /// Batch (scene) index.
    pub batch: i32,
    /// X coordinate in voxel units.
    pub x: i32,
    /// Y coordinate in voxel units.
    pub y: i32,
    /// Z coordinate in voxel units.
    pub z: i32,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(batch: i32, x: i32, y: i32, z: i32) -> Coord {
        Coord { batch, x, y, z }
    }

    /// Adds a spatial offset, leaving the batch index unchanged.
    pub fn offset(&self, d: [i32; 3]) -> Coord {
        Coord { batch: self.batch, x: self.x + d[0], y: self.y + d[1], z: self.z + d[2] }
    }

    /// Subtracts a spatial offset, leaving the batch index unchanged.
    pub(crate) fn offset_neg(&self, d: [i32; 3]) -> Coord {
        Coord { batch: self.batch, x: self.x - d[0], y: self.y - d[1], z: self.z - d[2] }
    }

    /// Scales the spatial components by `s` (used when moving between tensor
    /// strides: `s * q + δ` in Algorithm 1).
    pub(crate) fn scaled(&self, s: i32) -> Coord {
        Coord { batch: self.batch, x: self.x * s, y: self.y * s, z: self.z * s }
    }

    /// Whether all spatial components are divisible by `s` (the "modular
    /// check" of Algorithm 3).
    pub(crate) fn divisible_by(&self, s: i32) -> bool {
        self.x.rem_euclid(s) == 0 && self.y.rem_euclid(s) == 0 && self.z.rem_euclid(s) == 0
    }

    /// Divides the spatial components by `s` using floor division.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component is not divisible by `s`; use
    /// [`Coord::divisible_by`] first.
    pub(crate) fn divided(&self, s: i32) -> Coord {
        debug_assert!(self.divisible_by(s), "coordinate {self:?} not divisible by {s}");
        Coord {
            batch: self.batch,
            x: self.x.div_euclid(s),
            y: self.y.div_euclid(s),
            z: self.z.div_euclid(s),
        }
    }

    /// FNV-1a hash of the coordinate, the spatial hash function used by the
    /// conventional hashmap (§2.1.2: "the hash function can simply be
    /// flattening the coordinate of each dimension into an integer").
    pub fn fnv1a(&self) -> u64 {
        let mut h = crate::fnv::Fnv1a::new();
        for word in [self.batch, self.x, self.y, self.z] {
            h.write_i32(word);
        }
        h.finish()
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(b{}: {}, {}, {})", self.batch, self.x, self.y, self.z)
    }
}

impl From<(i32, i32, i32, i32)> for Coord {
    fn from((batch, x, y, z): (i32, i32, i32, i32)) -> Coord {
        Coord { batch, x, y, z }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_roundtrip() {
        let p = Coord::new(1, 2, 3, 4);
        assert_eq!(p.offset([5, -6, 7]).offset_neg([5, -6, 7]), p);
    }

    #[test]
    fn offset_preserves_batch() {
        let p = Coord::new(3, 0, 0, 0);
        assert_eq!(p.offset([1, 2, 3]).batch, 3);
    }

    #[test]
    fn scaled_multiplies_spatial_only() {
        let p = Coord::new(2, 1, -2, 3).scaled(2);
        assert_eq!(p, Coord::new(2, 2, -4, 6));
    }

    #[test]
    fn divisibility_with_negatives() {
        assert!(Coord::new(0, -4, 2, 0).divisible_by(2));
        assert!(!Coord::new(0, -3, 2, 0).divisible_by(2));
        // rem_euclid: -3 % 2 == 1, still not divisible.
        assert!(Coord::new(0, -6, -8, -10).divisible_by(2));
    }

    #[test]
    fn divided_floor_semantics() {
        assert_eq!(Coord::new(0, -4, 6, 0).divided(2), Coord::new(0, -2, 3, 0));
    }

    #[test]
    fn fnv_differs_on_components() {
        let a = Coord::new(0, 1, 2, 3).fnv1a();
        assert_ne!(a, Coord::new(1, 1, 2, 3).fnv1a());
        assert_ne!(a, Coord::new(0, 2, 1, 3).fnv1a());
        assert_ne!(a, Coord::new(0, 1, 2, 4).fnv1a());
    }

    #[test]
    fn fnv_deterministic() {
        assert_eq!(Coord::new(5, -7, 9, 11).fnv1a(), Coord::new(5, -7, 9, 11).fnv1a());
    }

    #[test]
    fn conversion_from_tuple() {
        let c: Coord = (1, 2, 3, 4).into();
        assert_eq!(c, Coord::new(1, 2, 3, 4));
    }
}
