//! Coordinate management for sparse convolution.
//!
//! Sparse convolution (paper §2) is driven entirely by *maps*
//! `M = {(p_j, q_k, W_δ)}` relating nonzero input coordinates to output
//! coordinates through kernel offsets. This crate implements every mapping
//! operation the paper describes:
//!
//! - [`Coord`]: a batched integer 3D coordinate.
//! - [`offsets`]: kernel offset enumeration `Δ^D(K)` with the symmetric
//!   ordering required by the paper's symmetric grouping (§4.2.1).
//! - [`CoordHashMap`]: the "conventional hashmap" — open addressing with
//!   linear probing, counting memory probes for the cost model (§4.4).
//! - [`GridTable`]: the collision-free grid table — exactly one memory
//!   access per construction/query entry, refused past a budget on its
//!   bounding box ([`bounding_box_cells`]). The dense storage is the
//!   paper's GPU cost, charged but not allocated: the host keeps the
//!   points in a hashmap, so every index here scales with the points.
//! - [`MphfIndex`]: a minimal-perfect-hash index over a frozen coordinate
//!   set (BBHash-style fingerprint cascade with rank/select bitmaps) —
//!   the succinct index compiled sessions build at plan time.
//! - [`downsample`]: output coordinate calculation for strided convolution
//!   (Algorithm 3) in the *fused* single-kernel form (§4.4, Figure 10b);
//!   the 5-stage *staged* baseline computes the same coordinates and is
//!   only priced, by the core crate's mapping model.
//! - [`kernel_map`]: map search (Algorithm 1) over any coordinate table,
//!   including the symmetry-exploiting fast path for odd-kernel stride-1
//!   layers.
//! - [`delta`]: incremental coordinate diffs, the layered [`DeltaIndex`],
//!   and kernel-map patching for temporal streams whose geometry churns a
//!   few percent per frame.
//!
//! All operations also report the access statistics ([`MappingStats`]) that
//! the GPU cost simulator folds into mapping latency.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod coord;
mod fnv;
mod grid;
mod hashmap;
mod mphf;
mod table;

pub mod delta;
pub mod downsample;
pub mod kernel_map;
pub mod offsets;

pub use coord::Coord;
pub use delta::{
    diff_coords, patch_strided_map, patch_submanifold_map, CoordDelta, DeltaIndex, PatchStats,
    StridedPatch, REMOVED_ROW,
};
pub use grid::{bounding_box_cells, GridTable};
pub use hashmap::CoordHashMap;
pub use kernel_map::KernelMap;
pub use mphf::MphfIndex;
pub use table::{CoordIndex, MappingStats};

use std::fmt;

/// Error type for coordinate-management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordsError {
    /// A kernel size of zero was requested.
    ZeroKernelSize,
    /// A stride of zero was requested.
    ZeroStride,
    /// A dilation below 1 was requested, or a dilated convolution with a
    /// stride above 1 (dilation applies to stride-1 layers only).
    InvalidDilation {
        /// The requested dilation.
        dilation: i32,
        /// The convolution stride it was requested with.
        stride: i32,
    },
    /// The coordinate set is empty where a non-empty set is required.
    EmptyCoordinates,
    /// A grid table would exceed the configured capacity limit.
    GridTooLarge {
        /// Number of cells the bounding box requires.
        cells: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Duplicate coordinates were supplied where uniqueness is required.
    DuplicateCoordinate(Coord),
}

impl fmt::Display for CoordsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordsError::ZeroKernelSize => write!(f, "kernel size must be at least 1"),
            CoordsError::ZeroStride => write!(f, "stride must be at least 1"),
            CoordsError::InvalidDilation { dilation, stride } => write!(
                f,
                "dilation {dilation} with stride {stride}: dilation must be at least 1, \
                 and dilated convolutions must have stride 1"
            ),
            CoordsError::EmptyCoordinates => write!(f, "coordinate set is empty"),
            CoordsError::GridTooLarge { cells, limit } => {
                write!(f, "grid table needs {cells} cells, exceeding the limit of {limit}")
            }
            CoordsError::DuplicateCoordinate(c) => {
                write!(f, "duplicate coordinate {c:?}")
            }
        }
    }
}

impl std::error::Error for CoordsError {}
