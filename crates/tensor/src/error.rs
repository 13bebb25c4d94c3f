use std::fmt;

/// Error type for dense tensor operations.
///
/// Returned by every fallible public function in this crate. Implements
/// [`std::error::Error`] so it composes with downstream error handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands have incompatible shapes for the requested operation.
    ///
    /// Carries the operation name and the offending `(rows, cols)` pairs.
    ShapeMismatch {
        /// Name of the operation that failed (e.g. `"mm"`).
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: (usize, usize),
        /// Shape of the right-hand operand.
        rhs: (usize, usize),
    },
    /// An index was out of bounds for the matrix shape.
    IndexOutOfBounds {
        /// The requested `(row, col)` index.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
    /// A constructor received a data buffer whose length does not match the
    /// requested shape.
    DataLengthMismatch {
        /// Expected buffer length (`rows * cols`).
        expected: usize,
        /// Actual buffer length.
        actual: usize,
    },
    /// A requested shape has more elements (`rows * cols`) than `usize`
    /// can count.
    ShapeOverflow {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            TensorError::DataLengthMismatch { expected, actual } => {
                write!(f, "data buffer has {actual} elements, shape requires {expected}")
            }
            TensorError::ShapeOverflow { rows, cols } => {
                write!(f, "a {rows}x{cols} matrix has more elements than usize can count")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch { op: "mm", lhs: (2, 3), rhs: (4, 5) };
        assert_eq!(e.to_string(), "shape mismatch in mm: lhs is 2x3, rhs is 4x5");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
