use std::fmt;
use torchsparse_coords::CoordsError;
use torchsparse_tensor::TensorError;

/// Error type for the sparse convolution engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A tensor-level operation failed.
    Tensor(TensorError),
    /// A coordinate/mapping operation failed.
    Coords(CoordsError),
    /// Coordinates and features disagree in length.
    LengthMismatch {
        /// Number of coordinates.
        coords: usize,
        /// Number of feature rows.
        feats: usize,
    },
    /// A layer received input with the wrong channel count.
    ChannelMismatch {
        /// The layer's expected input channels.
        expected: usize,
        /// The input's channel count.
        actual: usize,
    },
    /// A transposed convolution could not find the cached map of its
    /// matching downsampling layer.
    MissingCachedMap {
        /// The tensor stride the transposed layer ran at.
        stride: i32,
        /// The layer's kernel size.
        kernel_size: usize,
    },
    /// The layer's weight list does not match `kernel_size^3`.
    BadWeightCount {
        /// Expected number of per-offset weight matrices.
        expected: usize,
        /// Provided number.
        actual: usize,
    },
    /// An empty input tensor where computation requires points.
    EmptyInput,
    /// A point position is not finite, or too far out for its voxel index
    /// at the requested voxel size to fit the `i32` coordinate grid.
    PositionOutOfRange {
        /// Index of the first offending point.
        point: usize,
    },
    /// Input features contain NaN or infinite values (validation policy
    /// [`Reject`](crate::ValidationPolicy::Reject)).
    NonFiniteFeatures {
        /// Number of non-finite feature values found.
        count: usize,
    },
    /// The input's coordinate bounding box requires more grid cells than the
    /// validation budget allows — building a grid table over it would
    /// exhaust memory.
    ExtentOverflow {
        /// Cells the bounding box requires (`u64::MAX` when the product
        /// itself overflows 64 bits).
        cells: u64,
        /// The configured cell budget.
        limit: u64,
    },
    /// The input exceeds the configured point budget.
    BudgetExceeded {
        /// Points in the input.
        points: usize,
        /// The configured maximum.
        limit: usize,
    },
    /// A module tree could not be flattened into the layer-op IR because
    /// some module lacks a [`trace`](crate::Module::trace) implementation.
    Untraceable {
        /// Name of the module without a trace implementation.
        module: String,
    },
    /// The engine configuration is contradictory or unrunnable (see
    /// [`Context::validate`](crate::Context::validate)).
    InvalidConfig {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// A compiled execution plan desynchronized from the traced op list —
    /// an internal invariant violation, reported instead of panicking.
    PlanMismatch {
        /// What desynchronized.
        reason: &'static str,
    },
    /// A per-request deadline budget expired at a stage boundary (or an
    /// injected `deadline-overrun` stall fired there). The serving runtime
    /// classifies this as transient: the frame may be retried, and the
    /// stream itself stays healthy.
    DeadlineExceeded {
        /// The stage boundary where the expiry was detected: `"mapping"`,
        /// `"gather-gemm-scatter"`, or `"epilogue"`.
        stage: &'static str,
        /// The configured budget, microseconds (0 when no budget was set
        /// and the error came purely from an injected overrun).
        budget_us: u64,
        /// Wall-clock elapsed when detected, microseconds. Equals
        /// `budget_us` for injected overruns.
        elapsed_us: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::Coords(e) => write!(f, "coords error: {e}"),
            CoreError::LengthMismatch { coords, feats } => {
                write!(f, "{coords} coordinates but {feats} feature rows")
            }
            CoreError::ChannelMismatch { expected, actual } => {
                write!(f, "layer expects {expected} input channels, got {actual}")
            }
            CoreError::MissingCachedMap { stride, kernel_size } => write!(
                f,
                "no cached downsample map for transposed conv (stride {stride}, kernel {kernel_size})"
            ),
            CoreError::BadWeightCount { expected, actual } => {
                write!(f, "expected {expected} weight matrices, got {actual}")
            }
            CoreError::EmptyInput => write!(f, "input tensor has no points"),
            CoreError::PositionOutOfRange { point } => {
                write!(f, "point {point} is not finite or outside the voxel coordinate range")
            }
            CoreError::NonFiniteFeatures { count } => {
                write!(f, "input features contain {count} non-finite values")
            }
            CoreError::ExtentOverflow { cells, limit } => {
                write!(f, "coordinate extent needs {cells} grid cells, budget is {limit}")
            }
            CoreError::BudgetExceeded { points, limit } => {
                write!(f, "input has {points} points, budget is {limit}")
            }
            CoreError::Untraceable { module } => {
                write!(f, "module '{module}' cannot be traced into a layer-op IR")
            }
            CoreError::InvalidConfig { reason } => {
                write!(f, "invalid engine configuration: {reason}")
            }
            CoreError::PlanMismatch { reason } => {
                write!(f, "compiled plan out of sync with traced ops: {reason}")
            }
            CoreError::DeadlineExceeded { stage, budget_us, elapsed_us } => {
                write!(f, "deadline of {budget_us}us exceeded at {stage} boundary ({elapsed_us}us elapsed)")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Coords(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> CoreError {
        CoreError::Tensor(e)
    }
}

impl From<CoordsError> for CoreError {
    fn from(e: CoordsError) -> CoreError {
        CoreError::Coords(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants_nonempty() {
        let variants: Vec<CoreError> = vec![
            CoreError::Tensor(TensorError::DataLengthMismatch { expected: 1, actual: 2 }),
            CoreError::Coords(CoordsError::ZeroStride),
            CoreError::Coords(CoordsError::InvalidDilation { dilation: 2, stride: 2 }),
            CoreError::LengthMismatch { coords: 1, feats: 2 },
            CoreError::ChannelMismatch { expected: 4, actual: 8 },
            CoreError::MissingCachedMap { stride: 2, kernel_size: 2 },
            CoreError::BadWeightCount { expected: 27, actual: 26 },
            CoreError::EmptyInput,
            CoreError::PositionOutOfRange { point: 7 },
            CoreError::NonFiniteFeatures { count: 3 },
            CoreError::ExtentOverflow { cells: u64::MAX, limit: 1 << 28 },
            CoreError::BudgetExceeded { points: 1_000_000, limit: 500_000 },
            CoreError::Untraceable { module: "opaque".to_owned() },
            CoreError::InvalidConfig { reason: "zero threads".to_owned() },
            CoreError::PlanMismatch { reason: "op/step count differs" },
            CoreError::DeadlineExceeded { stage: "mapping", budget_us: 1_000, elapsed_us: 1_500 },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = CoreError::from(TensorError::DataLengthMismatch { expected: 1, actual: 2 });
        assert!(e.source().is_some());
        assert!(CoreError::EmptyInput.source().is_none());
    }
}
