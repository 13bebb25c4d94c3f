use crate::TensorError;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};
use torchsparse_runtime::{Task, ThreadPool};

/// Elements per task in the parallel element-wise sweeps
/// ([`Matrix::par_map_inplace`] and friends). Fixed so the partition never
/// depends on the worker count — every element is transformed independently,
/// so results are bitwise identical at any thread count regardless, but a
/// fixed chunk also keeps task traces comparable across runs.
const ELEMWISE_CHUNK: usize = 16 * 1024;

/// The element count of a `rows x cols` matrix, for the infallible
/// constructors.
///
/// # Panics
///
/// Panics, naming the shape, when `rows * cols` overflows `usize`.
fn element_count(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("matrix shape {rows}x{cols} overflows usize elements"))
}

/// A row-major `f32` matrix.
///
/// Used throughout the engine as the feature buffer representation: `rows`
/// index points (or map entries) and `cols` index channels. The layout
/// mirrors the contiguous feature tensors that GPU sparse-conv engines gather
/// into before GEMM.
///
/// # Example
///
/// ```
/// use torchsparse_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
/// assert_eq!(m[(0, 1)], 1.0);
/// assert_eq!(m.row(1), &[1.0, 2.0]);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; element_count(rows, cols)] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; element_count(rows, cols)] }
    }

    /// Creates an `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(element_count(rows, cols));
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a row-major data buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeOverflow`] if `rows * cols` overflows
    /// `usize`, and [`TensorError::DataLengthMismatch`] if `data.len() !=
    /// rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected = rows.checked_mul(cols).ok_or(TensorError::ShapeOverflow { rows, cols })?;
        if data.len() != expected {
            return Err(TensorError::DataLengthMismatch { expected, actual: data.len() });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Heap capacity of the underlying buffer, in elements. Buffer recycling
    /// uses this to tell whether a buffer needs no reallocation.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reshapes the matrix to `rows x cols` with all elements zeroed,
    /// reusing the existing heap buffer when its capacity suffices and
    /// growing it to exactly `rows * cols` elements otherwise.
    ///
    /// This is the buffer-recycling primitive: a dead activation's buffer
    /// is resized to the next layer's output shape without touching the
    /// allocator (after warm-up).
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        let len = element_count(rows, cols);
        self.data.clear();
        self.data.reserve_exact(len);
        self.data.resize(len, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a channel slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Checked element access.
    #[cfg(test)]
    pub(crate) fn get(&self, r: usize, c: usize) -> Option<f32> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Returns the transpose.
    #[cfg(test)]
    pub(crate) fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Returns a new matrix with the given rows stacked vertically.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if column counts differ.
    pub fn vstack(blocks: &[&Matrix]) -> Result<Matrix, TensorError> {
        if blocks.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = blocks[0].cols;
        for b in blocks {
            if b.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vstack",
                    lhs: (blocks[0].rows, cols),
                    rhs: b.shape(),
                });
            }
        }
        let rows = blocks.iter().map(|b| b.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            data.extend_from_slice(&b.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Zero-pads (or truncates) the matrix to `new_rows` rows.
    ///
    /// Used by fixed/adaptive grouping to pad per-weight feature buffers to a
    /// common batch row count before `bmm` (paper Figure 6c/d).
    #[cfg(test)]
    pub(crate) fn resized_rows(&self, new_rows: usize) -> Matrix {
        let mut m = Matrix::zeros(new_rows, self.cols);
        let n = self.rows.min(new_rows);
        m.data[..n * self.cols].copy_from_slice(&self.data[..n * self.cols]);
        m
    }

    /// Maximum absolute difference against another matrix of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f32, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max))
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// [`Matrix::map_inplace`] with the sweep dispatched onto a worker
    /// pool in fixed-size element chunks. Element-wise transforms touch
    /// each element exactly once, so the result is bitwise identical to
    /// the serial sweep at every thread count.
    pub fn par_map_inplace(&mut self, pool: &ThreadPool, f: impl Fn(f32) -> f32 + Sync) {
        if (pool.threads() <= 1 && !pool.is_recording()) || self.data.len() <= ELEMWISE_CHUNK {
            self.map_inplace(f);
            return;
        }
        let f_ref = &f;
        let tasks: Vec<Task<'_>> = self
            .data
            .chunks_mut(ELEMWISE_CHUNK)
            .map(|chunk| {
                Box::new(move || {
                    for v in chunk {
                        *v = f_ref(*v);
                    }
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
    }

    /// Applies a slice transform to the whole buffer in fixed
    /// [`ELEMWISE_CHUNK`] chunks dispatched onto a worker pool.
    ///
    /// This is the vectorization-friendly sibling of
    /// [`Matrix::par_map_inplace`]: `f` receives whole chunks, so SIMD
    /// sweeps (the FP16 storage round trip) amortize their dispatch over
    /// thousands of elements instead of paying a closure call per element.
    /// `f` must transform each element independently of its neighbours —
    /// then the fixed chunk partition keeps results bitwise identical to a
    /// single full-buffer call at every thread count.
    pub(crate) fn par_map_slices_inplace(
        &mut self,
        pool: &ThreadPool,
        f: impl Fn(&mut [f32]) + Sync,
    ) {
        if self.data.is_empty() {
            return;
        }
        if (pool.threads() <= 1 && !pool.is_recording()) || self.data.len() <= ELEMWISE_CHUNK {
            f(&mut self.data);
            return;
        }
        let f_ref = &f;
        let tasks: Vec<Task<'_>> = self
            .data
            .chunks_mut(ELEMWISE_CHUNK)
            .map(|chunk| Box::new(move || f_ref(chunk)) as Task<'_>)
            .collect();
        pool.run(tasks);
    }

    /// Applies `f` to every row, parallelized over row blocks sized to
    /// roughly [`ELEMWISE_CHUNK`] elements. Rows are disjoint, so this too
    /// is bitwise identical to the serial row loop at any thread count.
    pub fn par_map_rows_inplace(&mut self, pool: &ThreadPool, f: impl Fn(&mut [f32]) + Sync) {
        if self.cols == 0 || self.data.is_empty() {
            return;
        }
        let cols = self.cols;
        let rows_per_task = (ELEMWISE_CHUNK / cols).max(1);
        if (pool.threads() <= 1 && !pool.is_recording()) || self.rows <= rows_per_task {
            for row in self.data.chunks_mut(cols) {
                f(row);
            }
            return;
        }
        let f_ref = &f;
        let tasks: Vec<Task<'_>> = self
            .data
            .chunks_mut(rows_per_task * cols)
            .map(|block| {
                Box::new(move || {
                    for row in block.chunks_mut(cols) {
                        f_ref(row);
                    }
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
    }

    /// Whether every element is finite (no NaN or infinity); an empty
    /// matrix is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Number of NaN or infinite elements.
    #[cfg(test)]
    pub(crate) fn count_nonfinite(&self) -> usize {
        self.data.iter().filter(|v| !v.is_finite()).count()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add requires equal shapes");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub requires equal shapes");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl AddAssign<&Matrix> for Matrix {
    /// Element-wise accumulate.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign requires equal shapes");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * rhs).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let cs = self.cols.min(8);
            for c in 0..cs {
                write!(f, "{:>9.4}", self[(r, c)])?;
                if c + 1 < cs {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let m = Matrix::eye(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let e = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(e, TensorError::DataLengthMismatch { expected: 4, actual: 3 });
    }

    #[test]
    fn from_vec_rejects_a_shape_whose_element_count_overflows() {
        let e = Matrix::from_vec(1 << 63, 2, vec![]).unwrap_err();
        assert_eq!(e, TensorError::ShapeOverflow { rows: 1 << 63, cols: 2 });
        assert!(Matrix::from_vec(usize::MAX, usize::MAX, vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "matrix shape 4611686018427387904x8 overflows usize elements")]
    fn zeros_panics_on_a_shape_whose_element_count_overflows() {
        let _ = Matrix::zeros(1 << 62, 8);
    }

    #[test]
    fn every_infallible_constructor_rejects_an_overflowing_shape() {
        let overflows = |f: fn()| {
            let err = std::panic::catch_unwind(f).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("overflows usize elements"), "{msg}");
        };
        overflows(|| drop(Matrix::filled(1 << 62, 8, 1.0)));
        overflows(|| drop(Matrix::from_fn(1 << 62, 8, |_, _| 0.0)));
        overflows(|| Matrix::zeros(0, 0).reshape_zeroed(1 << 62, 8));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.row(1), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        Matrix::zeros(2, 2).row(2);
    }

    #[test]
    fn get_checked() {
        let m = Matrix::eye(2);
        assert_eq!(m.get(1, 1), Some(1.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 2), None);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::filled(1, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let s = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[1.0, 1.0]);
        assert_eq!(s.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn vstack_rejects_mismatched_cols() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(Matrix::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn vstack_empty_is_empty() {
        assert_eq!(Matrix::vstack(&[]).unwrap().shape(), (0, 0));
    }

    #[test]
    fn resized_rows_pads_with_zeros() {
        let m = Matrix::filled(2, 3, 5.0);
        let p = m.resized_rows(4);
        assert_eq!(p.shape(), (4, 3));
        assert_eq!(p.row(1), &[5.0, 5.0, 5.0]);
        assert_eq!(p.row(3), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn resized_rows_truncates() {
        let m = Matrix::from_fn(3, 1, |r, _| r as f32);
        let t = m.resized_rows(2);
        assert_eq!(t.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 1.0);
        assert_eq!((&a + &b).as_slice(), &[4.0; 4]);
        assert_eq!((&a - &b).as_slice(), &[2.0; 4]);
        assert_eq!((&a * 2.0).as_slice(), &[6.0; 4]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0; 4]);
    }

    #[test]
    fn max_abs_diff_and_norm() {
        let a = Matrix::filled(1, 2, 3.0);
        let b = Matrix::from_vec(1, 2, vec![3.5, 2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        assert!((Matrix::eye(2).frobenius_norm() - 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn finite_scan() {
        let mut m = Matrix::filled(2, 3, 1.5);
        assert!(m.is_finite());
        assert_eq!(m.count_nonfinite(), 0);
        m[(0, 1)] = f32::NAN;
        m[(1, 2)] = f32::NEG_INFINITY;
        assert!(!m.is_finite());
        assert_eq!(m.count_nonfinite(), 2);
        assert!(Matrix::zeros(0, 4).is_finite(), "empty matrix is finite");
    }

    #[test]
    fn max_abs_diff_shape_checked() {
        assert!(Matrix::zeros(1, 2).max_abs_diff(&Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Matrix::eye(2)).is_empty());
    }

    #[test]
    fn map_inplace_applies() {
        let mut m = Matrix::filled(1, 3, -1.0);
        m.map_inplace(|v| v.max(0.0));
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0]);
    }
}
