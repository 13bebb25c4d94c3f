//! Output coordinate calculation for strided sparse convolution
//! (Algorithm 3 / Appendix A, optimized in §4.4 and Figure 10).
//!
//! Downsampling applies a sliding window around each input point, keeps the
//! candidates that pass the *modular check* (`u % s == 0`) and the
//! *boundary check*, divides by the stride, and deduplicates. The paper
//! observes that a naive implementation runs this as **five separate GPU
//! kernels** with DRAM-materialized intermediates (broadcast_add → modular
//! check → boundary check → flatten to 1D → unique), making downsampling
//! memory-bound; TorchSparse fuses stages 1–4 into one kernel that keeps
//! intermediates in registers.
//!
//! Only the fused kernel runs here: the staged pipeline computes the same
//! coordinates and differs only in its DRAM traffic, a closed form of the
//! input size, the kernel volume and the output size. A configuration that
//! turns `fused_downsample` off is *charged* that traffic by the mapping
//! latency model (`torchsparse_core::mapping`); it still runs this kernel.

use crate::offsets::kernel_offsets;
use crate::table::MappingStats;
use crate::{Coord, CoordsError};

/// Optional inclusive-min / exclusive-max bounds on *output* coordinates.
///
/// CenterPoint-style detectors convolve over a fixed scene grid; MinkUNet
/// uses unbounded coordinates (`None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Boundary {
    /// Inclusive minimum output coordinate per axis, if bounded below.
    pub min: Option<[i32; 3]>,
    /// Exclusive maximum output coordinate per axis, if bounded above.
    pub max: Option<[i32; 3]>,
}

impl Boundary {
    /// An unbounded domain.
    pub fn unbounded() -> Boundary {
        Boundary::default()
    }

    /// Whether an output coordinate passes the boundary check.
    pub(crate) fn contains(&self, c: Coord) -> bool {
        if let Some(min) = self.min {
            if c.x < min[0] || c.y < min[1] || c.z < min[2] {
                return false;
            }
        }
        if let Some(max) = self.max {
            if c.x >= max[0] || c.y >= max[1] || c.z >= max[2] {
                return false;
            }
        }
        true
    }
}

/// Result of output-coordinate calculation.
#[derive(Debug, Clone, PartialEq)]
pub struct DownsampleOutput {
    /// Deduplicated output coordinates, sorted lexicographically.
    pub coords: Vec<Coord>,
    /// Memory traffic of the chosen implementation.
    pub stats: MappingStats,
}

/// The **fused** implementation (§4.4): stages 1–4 execute in a single
/// kernel with register-resident intermediates; only survivors are written
/// to DRAM, followed by the unique kernel.
///
/// The output set is query-side: `q` is an output iff `s * q + δ` is an
/// input for some kernel offset `δ` (and `q` passes `boundary`), sorted and
/// deduplicated.
///
/// # Errors
///
/// Returns [`CoordsError::ZeroKernelSize`] / [`CoordsError::ZeroStride`] on
/// degenerate parameters.
pub fn fused_output_coords(
    in_coords: &[Coord],
    kernel_size: usize,
    stride: i32,
    boundary: Boundary,
) -> Result<DownsampleOutput, CoordsError> {
    if stride <= 0 {
        return Err(CoordsError::ZeroStride);
    }
    let offs = kernel_offsets(kernel_size)?;
    let n = in_coords.len() as u64;
    let v = offs.len() as u64;
    let mut stats = MappingStats { kernel_launches: 2, ..MappingStats::default() };

    let mut survivors: Vec<Coord> = Vec::new();
    for p in in_coords {
        for &d in &offs {
            // All of this stays in registers on the GPU.
            let u = p.offset_neg(d);
            if !u.divisible_by(stride) {
                continue;
            }
            let q = u.divided(stride);
            if !boundary.contains(q) {
                continue;
            }
            survivors.push(q);
        }
    }
    stats.reads += n; // each input coordinate read once
    stats.writes += survivors.len() as u64; // only survivors touch DRAM

    // Unique kernel: read survivors, write deduplicated outputs.
    stats.reads += survivors.len() as u64;
    survivors.sort_unstable();
    survivors.dedup();
    stats.writes += survivors.len() as u64;

    // The fused variant never materializes the N*V candidate buffer; what
    // remains is the per-candidate register/ALU work of the fused kernel,
    // which the latency model costs separately.
    stats.candidate_ops = n * v;
    Ok(DownsampleOutput { coords: survivors, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line_scene() -> Vec<Coord> {
        (0..8).map(|i| Coord::new(0, i, 0, 0)).collect()
    }

    #[test]
    fn stride1_with_k1_is_identity_set() {
        let coords = line_scene();
        let out = fused_output_coords(&coords, 1, 1, Boundary::unbounded()).unwrap();
        assert_eq!(out.coords, coords);
    }

    #[test]
    fn stride2_k2_halves_line() {
        // K=2 offsets {0,1}: candidate u = p - δ; survivors are even sites.
        let coords = line_scene();
        let out = fused_output_coords(&coords, 2, 2, Boundary::unbounded()).unwrap();
        let expect: Vec<Coord> = (0..4).map(|i| Coord::new(0, i, 0, 0)).collect();
        assert_eq!(out.coords, expect);
    }

    #[test]
    fn paper_worked_example() {
        // §2.1.1: input (3, 5) with stride 2. For δ=(1,1): ((3,5)-(1,1))/2 = (1,2).
        // For δ=(0,0): (3,5) is not a multiple of 2 → no output. (Embedded in 3D, z=0.)
        let coords = vec![Coord::new(0, 3, 5, 0)];
        let out = fused_output_coords(&coords, 3, 2, Boundary::unbounded()).unwrap();
        assert!(out.coords.contains(&Coord::new(0, 1, 2, 0)));
        assert!(!out.coords.contains(&Coord::new(0, 3, 5, 0)));
        // Every output must be reachable: s*q + δ = p for some valid δ.
        for q in &out.coords {
            let s = q.scaled(2);
            let d = [3 - s.x, 5 - s.y, 0 - s.z];
            assert!(d.iter().all(|&v| (-1..=1).contains(&v)), "offset {d:?} out of kernel");
        }
    }

    #[test]
    fn boundary_clips_outputs() {
        let coords = line_scene();
        let boundary = Boundary { min: Some([0, 0, 0]), max: Some([2, 1, 1]) };
        let out = fused_output_coords(&coords, 2, 2, boundary).unwrap();
        assert_eq!(out.coords, vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)]);
    }

    #[test]
    fn boundary_contains_semantics() {
        let b = Boundary { min: Some([0, 0, 0]), max: Some([2, 2, 2]) };
        assert!(b.contains(Coord::new(0, 0, 0, 0)));
        assert!(b.contains(Coord::new(0, 1, 1, 1)));
        assert!(!b.contains(Coord::new(0, 2, 0, 0)));
        assert!(!b.contains(Coord::new(0, -1, 0, 0)));
        assert!(Boundary::unbounded().contains(Coord::new(0, 9999, -9999, 0)));
    }

    #[test]
    fn outputs_unique_and_sorted() {
        let coords: Vec<Coord> = (0..100).map(|i| Coord::new(0, i % 10, i % 7, i % 3)).collect();
        let out = fused_output_coords(&coords, 3, 2, Boundary::unbounded()).unwrap();
        let mut sorted = out.coords.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(out.coords, sorted);
    }

    #[test]
    fn zero_stride_rejected() {
        assert!(fused_output_coords(&line_scene(), 3, 0, Boundary::unbounded()).is_err());
    }

    #[test]
    fn negative_coordinates_downsample_with_floor() {
        // -4..4 at stride 2: sites at even coordinates, including negatives.
        let coords: Vec<Coord> = (-4..4).map(|i| Coord::new(0, i, 0, 0)).collect();
        let out = fused_output_coords(&coords, 2, 2, Boundary::unbounded()).unwrap();
        assert!(out.coords.contains(&Coord::new(0, -2, 0, 0)));
        assert!(out.coords.contains(&Coord::new(0, -1, 0, 0)));
    }

    proptest! {
        #[test]
        fn prop_fused_matches_the_query_side_definition(
            seed_coords in proptest::collection::vec((0i32..2, -6i32..6, -6i32..6, -6i32..6), 1..60),
            k in 1usize..4,
            s in 1i32..4,
            bounded in 0u8..2,
        ) {
            let coords: Vec<Coord> =
                seed_coords.iter().map(|&(b, x, y, z)| Coord::new(b, x, y, z)).collect();
            let boundary = if bounded == 1 {
                Boundary { min: Some([-2, -3, -1]), max: Some([3, 2, 4]) }
            } else {
                Boundary::unbounded()
            };
            let out = fused_output_coords(&coords, k, s, boundary).unwrap();
            // q is an output iff s*q + δ is an input for some offset δ: scan
            // every q whose window can reach the inputs' box, with no division.
            let inputs: std::collections::HashSet<Coord> = coords.iter().copied().collect();
            let offs = kernel_offsets(k).unwrap();
            let (lo, hi) = (-6 - k as i32, 6 + k as i32);
            let mut expect = Vec::new();
            for b in 0..2 {
                for x in lo..hi {
                    for y in lo..hi {
                        for z in lo..hi {
                            let q = Coord::new(b, x, y, z);
                            let base = q.scaled(s);
                            let hit = offs.iter().any(|&d| inputs.contains(&base.offset(d)));
                            if hit && boundary.contains(q) {
                                expect.push(q);
                            }
                        }
                    }
                }
            }
            expect.sort_unstable();
            prop_assert_eq!(out.coords, expect);
        }

        #[test]
        fn prop_every_output_reachable(
            seed_coords in proptest::collection::vec((-8i32..8, -8i32..8, -8i32..8), 1..40),
            s in 2i32..4,
        ) {
            let coords: Vec<Coord> =
                seed_coords.iter().map(|&(x, y, z)| Coord::new(0, x, y, z)).collect();
            let out = fused_output_coords(&coords, 3, s, Boundary::unbounded()).unwrap();
            // Every output q must satisfy s*q + δ ∈ P_in for some kernel offset δ.
            for q in &out.coords {
                let base = q.scaled(s);
                let reachable = kernel_offsets(3).unwrap().iter().any(|&d| {
                    coords.contains(&base.offset(d))
                });
                prop_assert!(reachable, "output {} unreachable", q);
            }
        }
    }
}
