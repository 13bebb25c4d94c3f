//! Dense volumetric 3D convolution — the correctness oracle.
//!
//! The sparse engine must compute exactly what a dense convolution computes
//! at nonzero sites (the "submanifold" constraint pins outputs to the input
//! sparsity pattern). To verify every dataflow and grouping strategy we keep
//! a brutally simple dense reference: a `D x H x W x C` volume and a direct
//! 7-loop convolution. It is only used in tests and examples — it is far too
//! slow and memory-hungry for real scenes, which is the paper's motivation
//! for sparse convolution in the first place.

use crate::{Matrix, TensorError};

/// A dense 4D volume with shape `(dim[0], dim[1], dim[2], channels)`.
///
/// # Example
///
/// ```
/// use torchsparse_tensor::dense::DenseVolume;
///
/// let mut v = DenseVolume::zeros([4, 4, 4], 2);
/// v.set([1, 2, 3], &[1.0, -1.0]);
/// assert_eq!(v.at([1, 2, 3]), &[1.0, -1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVolume {
    dims: [usize; 3],
    channels: usize,
    data: Vec<f32>,
}

impl DenseVolume {
    /// Creates a zero-filled volume.
    pub fn zeros(dims: [usize; 3], channels: usize) -> Self {
        let len = dims[0] * dims[1] * dims[2] * channels;
        DenseVolume { dims, channels, data: vec![0.0; len] }
    }

    /// Spatial dimensions.
    pub(crate) fn dims(&self) -> [usize; 3] {
        self.dims
    }

    fn offset(&self, p: [usize; 3]) -> usize {
        debug_assert!(p[0] < self.dims[0] && p[1] < self.dims[1] && p[2] < self.dims[2]);
        ((p[0] * self.dims[1] + p[1]) * self.dims[2] + p[2]) * self.channels
    }

    /// Feature vector at a voxel.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn at(&self, p: [usize; 3]) -> &[f32] {
        let o = self.offset(p);
        &self.data[o..o + self.channels]
    }

    /// Writes the feature vector at a voxel.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds or `feat` has the wrong length.
    pub fn set(&mut self, p: [usize; 3], feat: &[f32]) {
        assert_eq!(feat.len(), self.channels, "feature length mismatch");
        let o = self.offset(p);
        self.data[o..o + self.channels].copy_from_slice(feat);
    }

    /// Whether the voxel has any nonzero channel.
    pub(crate) fn is_nonzero(&self, p: [usize; 3]) -> bool {
        self.at(p).iter().any(|&v| v != 0.0)
    }
}

/// Weights for a dense/sparse 3D convolution.
///
/// Layout matches the paper: `K^3` matrices of shape `Cin x Cout`, indexed by
/// the kernel offset enumeration order chosen by the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvWeights {
    kernel_size: usize,
    c_in: usize,
    c_out: usize,
    /// One `Cin x Cout` matrix per kernel offset, in offset-enumeration order.
    pub per_offset: Vec<Matrix>,
}

impl ConvWeights {
    /// Creates weights with every per-offset matrix provided explicitly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the number of matrices is not
    /// `kernel_size^3` or any matrix deviates from `c_in x c_out`.
    pub fn new(
        kernel_size: usize,
        c_in: usize,
        c_out: usize,
        per_offset: Vec<Matrix>,
    ) -> Result<Self, TensorError> {
        let volume = kernel_size * kernel_size * kernel_size;
        if per_offset.len() != volume {
            return Err(TensorError::ShapeMismatch {
                op: "conv_weights",
                lhs: (per_offset.len(), 0),
                rhs: (volume, 0),
            });
        }
        for m in &per_offset {
            if m.shape() != (c_in, c_out) {
                return Err(TensorError::ShapeMismatch {
                    op: "conv_weights",
                    lhs: m.shape(),
                    rhs: (c_in, c_out),
                });
            }
        }
        Ok(ConvWeights { kernel_size, c_in, c_out, per_offset })
    }

    /// Input channel count.
    pub(crate) fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub(crate) fn c_out(&self) -> usize {
        self.c_out
    }
}

/// Computes a *submanifold* dense convolution: for every nonzero input voxel,
/// accumulates `x[p + delta] . W[delta]` over all in-bounds kernel offsets —
/// outputs exist only at input sites, matching sparse convolution semantics
/// with stride 1 (paper Eq. 1 with `P_out = P_in`).
///
/// `offsets` supplies the kernel offset enumeration, index-aligned with
/// `weights.per_offset`; offsets range over `{-(K-1)/2 ..= (K-1)/2}^3`.
///
/// # Panics
///
/// Panics if `offsets.len() != weights.per_offset.len()`.
pub fn submanifold_conv3d_reference(
    input: &DenseVolume,
    weights: &ConvWeights,
    offsets: &[[i32; 3]],
) -> DenseVolume {
    assert_eq!(offsets.len(), weights.per_offset.len(), "offset/weight count mismatch");
    let dims = input.dims();
    let mut out = DenseVolume::zeros(dims, weights.c_out());
    for x in 0..dims[0] {
        for y in 0..dims[1] {
            for z in 0..dims[2] {
                if !input.is_nonzero([x, y, z]) {
                    continue; // submanifold: outputs only at input sites
                }
                let mut acc = vec![0.0f32; weights.c_out()];
                for (n, d) in offsets.iter().enumerate() {
                    let sx = x as i32 + d[0];
                    let sy = y as i32 + d[1];
                    let sz = z as i32 + d[2];
                    if sx < 0
                        || sy < 0
                        || sz < 0
                        || sx >= dims[0] as i32
                        || sy >= dims[1] as i32
                        || sz >= dims[2] as i32
                    {
                        continue;
                    }
                    let src = [sx as usize, sy as usize, sz as usize];
                    if !input.is_nonzero(src) {
                        continue;
                    }
                    let feat = input.at(src);
                    let w = &weights.per_offset[n];
                    for ci in 0..weights.c_in() {
                        let f = feat[ci];
                        if f == 0.0 {
                            continue;
                        }
                        for (co, a) in acc.iter_mut().enumerate() {
                            *a += f * w[(ci, co)];
                        }
                    }
                }
                out.set([x, y, z], &acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets_k3() -> Vec<[i32; 3]> {
        let mut v = Vec::new();
        for x in -1..=1 {
            for y in -1..=1 {
                for z in -1..=1 {
                    v.push([x, y, z]);
                }
            }
        }
        v
    }

    fn identity_weights(k: usize, c: usize) -> ConvWeights {
        let volume = k * k * k;
        let center = volume / 2;
        let per_offset = (0..volume)
            .map(|i| if i == center { Matrix::eye(c) } else { Matrix::zeros(c, c) })
            .collect();
        ConvWeights::new(k, c, c, per_offset).unwrap()
    }

    #[test]
    fn volume_get_set() {
        let mut v = DenseVolume::zeros([2, 3, 4], 2);
        v.set([1, 2, 3], &[5.0, 6.0]);
        assert_eq!(v.at([1, 2, 3]), &[5.0, 6.0]);
        assert!(v.is_nonzero([1, 2, 3]));
        assert!(!v.is_nonzero([0, 0, 0]));
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn set_rejects_wrong_feature_len() {
        DenseVolume::zeros([2, 2, 2], 3).set([0, 0, 0], &[1.0]);
    }

    #[test]
    fn weights_validation() {
        assert!(ConvWeights::new(3, 2, 2, vec![Matrix::zeros(2, 2); 27]).is_ok());
        assert!(ConvWeights::new(3, 2, 2, vec![Matrix::zeros(2, 2); 26]).is_err());
        assert!(ConvWeights::new(3, 2, 2, vec![Matrix::zeros(2, 3); 27]).is_err());
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut input = DenseVolume::zeros([4, 4, 4], 2);
        input.set([1, 1, 1], &[1.0, 2.0]);
        input.set([2, 3, 0], &[-1.0, 0.5]);
        let w = identity_weights(3, 2);
        let out = submanifold_conv3d_reference(&input, &w, &offsets_k3());
        assert_eq!(out.at([1, 1, 1]), &[1.0, 2.0]);
        assert_eq!(out.at([2, 3, 0]), &[-1.0, 0.5]);
        assert_eq!(out.at([0, 0, 0]), &[0.0, 0.0]);
    }

    #[test]
    fn submanifold_keeps_sparsity_pattern() {
        // A uniform all-ones kernel would dilate in a regular convolution;
        // submanifold must keep outputs only at input sites.
        let mut input = DenseVolume::zeros([5, 5, 5], 1);
        input.set([2, 2, 2], &[1.0]);
        let per_offset = vec![Matrix::filled(1, 1, 1.0); 27];
        let w = ConvWeights::new(3, 1, 1, per_offset).unwrap();
        let out = submanifold_conv3d_reference(&input, &w, &offsets_k3());
        assert_eq!(out.at([2, 2, 2]), &[1.0]);
        assert_eq!(out.at([2, 2, 1]), &[0.0], "no dilation allowed");
    }

    #[test]
    fn neighbors_contribute() {
        let mut input = DenseVolume::zeros([3, 3, 3], 1);
        input.set([1, 1, 1], &[2.0]);
        input.set([1, 1, 0], &[3.0]);
        let per_offset = vec![Matrix::filled(1, 1, 1.0); 27];
        let w = ConvWeights::new(3, 1, 1, per_offset).unwrap();
        let out = submanifold_conv3d_reference(&input, &w, &offsets_k3());
        // Each nonzero output sums both nonzero inputs (both within reach).
        assert_eq!(out.at([1, 1, 1]), &[5.0]);
        assert_eq!(out.at([1, 1, 0]), &[5.0]);
    }

    #[test]
    fn boundary_offsets_are_skipped() {
        let mut input = DenseVolume::zeros([2, 2, 2], 1);
        input.set([0, 0, 0], &[1.0]);
        let per_offset = vec![Matrix::filled(1, 1, 1.0); 27];
        let w = ConvWeights::new(3, 1, 1, per_offset).unwrap();
        let out = submanifold_conv3d_reference(&input, &w, &offsets_k3());
        assert_eq!(out.at([0, 0, 0]), &[1.0]); // only the center tap lands in-bounds on a nonzero
    }
}
