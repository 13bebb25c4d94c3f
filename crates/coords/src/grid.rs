use crate::table::CoordIndex;
use crate::{Coord, CoordHashMap, CoordsError};

/// The collision-free grid table (§4.4), as a charge: the paper's dense
/// array over the coordinate bounding box, one cell per possible voxel.
///
/// "grid corresponds to a naive collision-free grid-based hashmap: it takes
/// larger memory space, but hashmap construction/query requires exactly one
/// DRAM access per entry" — this is the data structure SpConv uses for map
/// search, and the one TorchSparse's adaptive strategy picks when the scene
/// bounding box is affordable.
///
/// The table answers and charges like that device grid — one access per
/// insert and per in-box query, none outside the box,
/// [`CoordsError::GridTooLarge`] past the cell budget — but the host keeps
/// its points in a [`CoordHashMap`], so its memory scales with the points,
/// not with the box. The probe counts it reports are the grid's, never the
/// hashmap's.
///
/// # Example
///
/// ```
/// use torchsparse_coords::{Coord, CoordIndex, GridTable};
///
/// let coords = [Coord::new(0, 5, -3, 2), Coord::new(0, 6, -3, 2)];
/// let (grid, _probes) = GridTable::build(&coords, u64::MAX)?;
/// assert_eq!(grid.query(Coord::new(0, 6, -3, 2)), (Some(1), 1));
/// assert_eq!(grid.query(Coord::new(0, 9, 9, 9)), (None, 0));
/// # Ok::<(), torchsparse_coords::CoordsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridTable {
    bounds: BoundingBox,
    /// The points, keyed by coordinate; duplicates keep the first index.
    points: CoordHashMap,
}

impl GridTable {
    /// Builds a grid table over the bounding box of `coords`, assigning each
    /// coordinate its list position as the index. Returns the table and the
    /// number of memory accesses (exactly one write per coordinate).
    ///
    /// # Errors
    ///
    /// - [`CoordsError::EmptyCoordinates`] if `coords` is empty.
    /// - [`CoordsError::GridTooLarge`] if the bounding box needs more than
    ///   `cell_limit` cells (callers fall back to the hashmap in that case,
    ///   mirroring the paper's per-layer `[grid, hashmap]` choice).
    pub fn build(coords: &[Coord], cell_limit: u64) -> Result<(Self, u64), CoordsError> {
        let bounds = BoundingBox::of(coords).ok_or(CoordsError::EmptyCoordinates)?;
        let cells = bounds.cells();
        if cells > cell_limit {
            return Err(CoordsError::GridTooLarge { cells, limit: cell_limit });
        }
        let (points, _hash_probes) = CoordHashMap::build(coords);
        Ok((GridTable { bounds, points }, coords.len() as u64))
    }
}

impl CoordIndex for GridTable {
    fn query(&self, coord: Coord) -> (Option<u32>, u64) {
        if self.bounds.contains(coord) {
            (self.points.query(coord).0, 1)
        } else {
            // Out-of-box coordinates are rejected by the bounds check alone,
            // before touching memory.
            (None, 0)
        }
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    /// Host bytes: the hashmap holding the points. The device grid the
    /// cost model charges for would take 4 bytes per
    /// [`bounding_box_cells`] cell.
    fn memory_bytes(&self) -> u64 {
        self.points.memory_bytes()
    }
}

/// Cells the bounding box of `coords` spans over (batch, x, y, z) — what the
/// paper's dense grid would allocate — saturating at `u64::MAX` on 64-bit
/// overflow. Empty input needs zero cells.
///
/// [`GridTable::build`] checks its cell budget against this count, and
/// input validation its extent limit, so the two limits count the same
/// cells.
pub fn bounding_box_cells(coords: &[Coord]) -> u64 {
    BoundingBox::of(coords).map_or(0, |b| b.cells())
}

/// The inclusive bounding box of a coordinate set over (batch, x, y, z).
#[derive(Debug, Clone)]
struct BoundingBox {
    min: [i64; 4],
    max: [i64; 4],
}

impl BoundingBox {
    fn of(coords: &[Coord]) -> Option<Self> {
        let first = coords.first()?;
        let mut b = BoundingBox { min: axes(*first), max: axes(*first) };
        for &c in coords {
            for (d, v) in axes(c).into_iter().enumerate() {
                b.min[d] = b.min[d].min(v);
                b.max[d] = b.max[d].max(v);
            }
        }
        Some(b)
    }

    fn cells(&self) -> u64 {
        self.min
            .iter()
            .zip(&self.max)
            .try_fold(1u64, |cells, (lo, hi)| cells.checked_mul((hi - lo + 1) as u64))
            .unwrap_or(u64::MAX)
    }

    fn contains(&self, c: Coord) -> bool {
        let v = axes(c);
        (0..4).all(|d| (self.min[d]..=self.max[d]).contains(&v[d]))
    }
}

fn axes(c: Coord) -> [i64; 4] {
    [c.batch as i64, c.x as i64, c.y as i64, c.z as i64]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coords() -> Vec<Coord> {
        let mut v = Vec::new();
        for x in -3..3 {
            for y in 0..4 {
                v.push(Coord::new(0, x, y, x + y));
            }
        }
        v
    }

    #[test]
    fn build_and_query_roundtrip() {
        let coords = sample_coords();
        let (grid, accesses) = GridTable::build(&coords, u64::MAX).unwrap();
        assert_eq!(grid.len(), coords.len());
        assert_eq!(accesses, coords.len() as u64, "one access per insert");
        for (i, &c) in coords.iter().enumerate() {
            let (found, probes) = grid.query(c);
            assert_eq!(found, Some(i as u32));
            assert_eq!(probes, 1, "collision-free query is one access");
        }
    }

    #[test]
    fn missing_inside_box() {
        let coords = [Coord::new(0, 0, 0, 0), Coord::new(0, 2, 2, 2)];
        let (grid, _) = GridTable::build(&coords, u64::MAX).unwrap();
        assert_eq!(grid.query(Coord::new(0, 1, 1, 1)).0, None);
    }

    #[test]
    fn out_of_box_is_free() {
        let (grid, _) = GridTable::build(&[Coord::new(0, 0, 0, 0)], u64::MAX).unwrap();
        let (found, probes) = grid.query(Coord::new(0, 100, 100, 100));
        assert_eq!(found, None);
        assert_eq!(probes, 0);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(GridTable::build(&[], u64::MAX).unwrap_err(), CoordsError::EmptyCoordinates);
    }

    #[test]
    fn cell_limit_enforced() {
        let coords = [Coord::new(0, 0, 0, 0), Coord::new(0, 1000, 1000, 1000)];
        let err = GridTable::build(&coords, 1_000_000).unwrap_err();
        assert!(matches!(err, CoordsError::GridTooLarge { .. }));
    }

    #[test]
    fn agrees_with_hashmap() {
        let coords = sample_coords();
        let (grid, _) = GridTable::build(&coords, u64::MAX).unwrap();
        let (hash, _) = CoordHashMap::build(&coords);
        for x in -5..5 {
            for y in -2..6 {
                for z in -8..8 {
                    let c = Coord::new(0, x, y, z);
                    assert_eq!(grid.query(c).0, hash.query(c).0, "disagree on {c}");
                }
            }
        }
    }

    #[test]
    fn memory_scales_with_points_not_the_box() {
        // The paper's dense grid would take 4 bytes per box cell; the host
        // pays the hashmap over the points.
        let coords: Vec<Coord> = (0..10).map(|i| Coord::new(0, i * 37, i * 11, i * 5)).collect();
        let (grid, _) = GridTable::build(&coords, u64::MAX).unwrap();
        let (hash, _) = CoordHashMap::build(&coords);
        assert_eq!(grid.memory_bytes(), hash.memory_bytes());
        assert!(grid.memory_bytes() < 4 * bounding_box_cells(&coords));
    }

    #[test]
    fn bounding_box_cells_counts_batch_axis() {
        let coords = vec![Coord::new(0, 0, 0, 0), Coord::new(1, 1, 2, 3)];
        // batch 2 * x 2 * y 3 * z 4
        assert_eq!(bounding_box_cells(&coords), 48);
        assert_eq!(bounding_box_cells(&[]), 0);
        let wide = [Coord::new(0, i32::MIN, i32::MIN, i32::MIN), Coord::new(0, i32::MAX, 0, 0)];
        assert_eq!(bounding_box_cells(&wide), u64::MAX, "2^32 * 2^31 * 2^31 saturates");
        let err = GridTable::build(&wide, u64::MAX - 1).unwrap_err();
        assert_eq!(err, CoordsError::GridTooLarge { cells: u64::MAX, limit: u64::MAX - 1 });
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let coords = [Coord::new(0, 1, 1, 1), Coord::new(0, 1, 1, 1)];
        let (grid, _) = GridTable::build(&coords, u64::MAX).unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.query(coords[0]).0, Some(0));
    }
}
