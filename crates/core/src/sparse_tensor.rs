use crate::CoreError;
use torchsparse_coords::Coord;
use torchsparse_tensor::Matrix;

/// A sparse 3D tensor: a set of voxel coordinates with one feature vector
/// each, plus the *tensor stride* tracking how much the spatial resolution
/// has been coarsened by strided convolutions.
///
/// This is the engine's counterpart of `torchsparse.SparseTensor` — note
/// that, as the paper emphasizes (§4.1), users do not have to carry
/// `indice_key`s or coordinate managers: map caching is handled internally
/// by the [`crate::Context`].
///
/// # Example
///
/// ```
/// use torchsparse_core::SparseTensor;
/// use torchsparse_coords::Coord;
/// use torchsparse_tensor::Matrix;
///
/// # fn main() -> Result<(), torchsparse_core::CoreError> {
/// let coords = vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)];
/// let feats = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
/// let x = SparseTensor::new(coords, feats)?;
/// assert_eq!(x.len(), 2);
/// assert_eq!(x.channels(), 4);
/// assert_eq!(x.stride(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    coords: Vec<Coord>,
    feats: Matrix,
    stride: i32,
}

impl SparseTensor {
    /// Creates a sparse tensor at stride 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if `coords.len()` differs from
    /// the number of feature rows.
    pub fn new(coords: Vec<Coord>, feats: Matrix) -> Result<SparseTensor, CoreError> {
        Self::with_stride(coords, feats, 1)
    }

    /// Creates a sparse tensor at an explicit tensor stride.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] on a coordinate/feature length
    /// disagreement and [`CoreError::Coords`] on a non-positive stride.
    pub fn with_stride(
        coords: Vec<Coord>,
        feats: Matrix,
        stride: i32,
    ) -> Result<SparseTensor, CoreError> {
        if coords.len() != feats.rows() {
            return Err(CoreError::LengthMismatch { coords: coords.len(), feats: feats.rows() });
        }
        if stride < 1 {
            return Err(CoreError::Coords(torchsparse_coords::CoordsError::ZeroStride));
        }
        Ok(SparseTensor { coords, feats, stride })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the tensor has no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Feature channels per point.
    pub fn channels(&self) -> usize {
        self.feats.cols()
    }

    /// The coordinates.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// The feature matrix (`len x channels`).
    pub fn feats(&self) -> &Matrix {
        &self.feats
    }

    /// The tensor stride.
    pub fn stride(&self) -> i32 {
        self.stride
    }

    /// Replaces the features, keeping coordinates and stride.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if the row count changes.
    pub fn with_feats(&self, feats: Matrix) -> Result<SparseTensor, CoreError> {
        if feats.rows() != self.coords.len() {
            return Err(CoreError::LengthMismatch {
                coords: self.coords.len(),
                feats: feats.rows(),
            });
        }
        Ok(SparseTensor { coords: self.coords.clone(), feats, stride: self.stride })
    }

    /// Checks that all coordinates are unique (an engine invariant).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Coords`] carrying the first duplicate found.
    pub fn validate_unique(&self) -> Result<(), CoreError> {
        let mut sorted = self.coords.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(CoreError::Coords(
                    torchsparse_coords::CoordsError::DuplicateCoordinate(w[0]),
                ));
            }
        }
        Ok(())
    }

    /// Concatenates the feature channels of two tensors defined on the
    /// *same* coordinate list (the UNet skip connection).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if the coordinate lists differ.
    pub fn cat_features(&self, other: &SparseTensor) -> Result<SparseTensor, CoreError> {
        if self.coords != other.coords {
            return Err(CoreError::LengthMismatch {
                coords: self.coords.len(),
                feats: other.coords.len(),
            });
        }
        let feats = concat_channels(&self.feats, &other.feats, Vec::new())?;
        Ok(SparseTensor { coords: self.coords.clone(), feats, stride: self.stride })
    }
}

/// `[a | b]`: each row of `a` followed by the same row of `b`, built in
/// `buf`'s allocation with two slice copies per row.
///
/// # Errors
///
/// [`CoreError::LengthMismatch`] if the row counts differ.
pub(crate) fn concat_channels(
    a: &Matrix,
    b: &Matrix,
    mut buf: Vec<f32>,
) -> Result<Matrix, CoreError> {
    if a.rows() != b.rows() {
        return Err(CoreError::LengthMismatch { coords: a.rows(), feats: b.rows() });
    }
    buf.clear();
    buf.reserve_exact(a.len() + b.len());
    for r in 0..a.rows() {
        buf.extend_from_slice(a.row(r));
        buf.extend_from_slice(b.row(r));
    }
    Ok(Matrix::from_vec(a.rows(), a.cols() + b.cols(), buf)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor2() -> SparseTensor {
        SparseTensor::new(
            vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 2, 3)],
            Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32),
        )
        .unwrap()
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = SparseTensor::new(vec![Coord::new(0, 0, 0, 0)], Matrix::zeros(2, 3)).unwrap_err();
        assert_eq!(err, CoreError::LengthMismatch { coords: 1, feats: 2 });
    }

    #[test]
    fn bad_stride_rejected() {
        assert!(SparseTensor::with_stride(vec![], Matrix::zeros(0, 1), 0).is_err());
        assert!(SparseTensor::with_stride(vec![], Matrix::zeros(0, 1), -2).is_err());
    }

    #[test]
    fn accessors() {
        let t = tensor2();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.channels(), 3);
        assert_eq!(t.stride(), 1);
        assert_eq!(t.coords()[1], Coord::new(0, 1, 2, 3));
    }

    #[test]
    fn with_feats_checks_rows() {
        let t = tensor2();
        assert!(t.with_feats(Matrix::zeros(2, 8)).is_ok());
        assert!(t.with_feats(Matrix::zeros(3, 8)).is_err());
    }

    #[test]
    fn validate_unique_detects_duplicates() {
        let t = tensor2();
        assert!(t.validate_unique().is_ok());
        let dup = SparseTensor::new(
            vec![Coord::new(0, 1, 1, 1), Coord::new(0, 1, 1, 1)],
            Matrix::zeros(2, 1),
        )
        .unwrap();
        assert!(dup.validate_unique().is_err());
    }

    #[test]
    fn cat_features_concatenates_channels() {
        let a = tensor2();
        let b = a.with_feats(Matrix::filled(2, 2, 9.0)).unwrap();
        let c = a.cat_features(&b).unwrap();
        assert_eq!(c.channels(), 5);
        assert_eq!(c.feats()[(1, 0)], 3.0);
        assert_eq!(c.feats()[(1, 4)], 9.0);
    }

    #[test]
    fn cat_features_requires_same_coords() {
        let a = tensor2();
        let b = SparseTensor::new(vec![Coord::new(0, 9, 9, 9); 2], Matrix::zeros(2, 1));
        // b has duplicate coords but that's irrelevant: the coord lists differ.
        assert!(a.cat_features(&b.unwrap()).is_err());
    }
}
