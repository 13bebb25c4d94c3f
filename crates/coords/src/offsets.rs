//! Kernel offset enumeration `Δ^D(K)` (paper §2).
//!
//! Offsets are enumerated lexicographically over each axis range. For odd
//! kernel sizes the range is symmetric (`{-(K-1)/2 ..= (K-1)/2}`), which
//! gives the enumeration the *mirror property* the paper's symmetric
//! grouping and symmetric map search rely on (§4.2.1):
//! `offset[i] == -offset[volume - 1 - i]`, with the zero offset exactly in
//! the middle. For even kernel sizes the range is `{-(K-1)/2 ..= K/2}`
//! (floor-centered, matching MinkowskiEngine's convention for K=2
//! downsampling layers), and no mirror property holds.

use crate::CoordsError;

/// Enumerates the kernel offsets for a cubic 3D kernel of size `k`.
///
/// # Errors
///
/// Returns [`CoordsError::ZeroKernelSize`] if `k == 0`.
///
/// # Example
///
/// ```
/// use torchsparse_coords::offsets::kernel_offsets;
///
/// let d3 = kernel_offsets(3)?;
/// assert_eq!(d3.len(), 27);
/// assert_eq!(d3[0], [-1, -1, -1]);
/// assert_eq!(d3[13], [0, 0, 0]); // center is the middle index
/// assert_eq!(d3[26], [1, 1, 1]);
/// # Ok::<(), torchsparse_coords::CoordsError>(())
/// ```
pub fn kernel_offsets(k: usize) -> Result<Vec<[i32; 3]>, CoordsError> {
    if k == 0 {
        return Err(CoordsError::ZeroKernelSize);
    }
    let (lo, hi) = axis_range(k);
    let mut out = Vec::with_capacity(k * k * k);
    for x in lo..=hi {
        for y in lo..=hi {
            for z in lo..=hi {
                out.push([x, y, z]);
            }
        }
    }
    Ok(out)
}

/// The inclusive per-axis offset range for kernel size `k`.
///
/// Odd `k` gives a symmetric range; even `k` is floor-centered.
pub(crate) fn axis_range(k: usize) -> (i32, i32) {
    let k = k as i32;
    (-(k - 1) / 2, k / 2)
}

/// Kernel volume `K^3`.
pub fn kernel_volume(k: usize) -> usize {
    k * k * k
}

/// Index of the zero offset within [`kernel_offsets`], if present.
///
/// Present exactly when `k` is odd, at the middle index `(K^3 - 1) / 2`.
pub fn center_index(k: usize) -> Option<usize> {
    if k % 2 == 1 {
        Some((kernel_volume(k) - 1) / 2)
    } else {
        None
    }
}

/// Whether the enumeration has the mirror property
/// `offset[i] == -offset[volume - 1 - i]` (true exactly for odd `k`).
pub(crate) fn has_mirror_property(k: usize) -> bool {
    k % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_kernel_rejected() {
        assert_eq!(kernel_offsets(0).unwrap_err(), CoordsError::ZeroKernelSize);
    }

    #[test]
    fn k1_is_identity_only() {
        assert_eq!(kernel_offsets(1).unwrap(), vec![[0, 0, 0]]);
        assert_eq!(center_index(1), Some(0));
    }

    #[test]
    fn k2_is_floor_centered() {
        let offs = kernel_offsets(2).unwrap();
        assert_eq!(offs.len(), 8);
        assert_eq!(offs[0], [0, 0, 0]);
        assert_eq!(offs[7], [1, 1, 1]);
        assert_eq!(center_index(2), None);
        assert!(!has_mirror_property(2));
    }

    #[test]
    fn k3_mirror_property() {
        let offs = kernel_offsets(3).unwrap();
        for (i, off) in offs.iter().enumerate() {
            let m = offs[26 - i];
            assert_eq!([-off[0], -off[1], -off[2]], m, "mirror at index {i}");
        }
        assert_eq!(offs[center_index(3).unwrap()], [0, 0, 0]);
    }

    #[test]
    fn k5_mirror_property_and_volume() {
        let offs = kernel_offsets(5).unwrap();
        assert_eq!(offs.len(), 125);
        assert_eq!(offs[center_index(5).unwrap()], [0, 0, 0]);
        for (i, off) in offs.iter().enumerate() {
            let m = offs[124 - i];
            assert_eq!([-off[0], -off[1], -off[2]], m);
        }
    }

    #[test]
    fn offsets_unique() {
        for k in 1..=5 {
            let offs = kernel_offsets(k).unwrap();
            let mut sorted = offs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), offs.len(), "k={k} offsets must be unique");
        }
    }

    #[test]
    fn axis_ranges() {
        assert_eq!(axis_range(1), (0, 0));
        assert_eq!(axis_range(2), (0, 1));
        assert_eq!(axis_range(3), (-1, 1));
        assert_eq!(axis_range(4), (-1, 2));
        assert_eq!(axis_range(5), (-2, 2));
    }
}
