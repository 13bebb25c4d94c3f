//! Mini-batch collation: merge several scenes into one sparse tensor with
//! distinct batch indices — the sparse-tensor equivalent of
//! `torch.utils.data.default_collate`.

use torchsparse_coords::Coord;
use torchsparse_core::{CoreError, SparseTensor};
use torchsparse_tensor::Matrix;

/// Collates single-scene tensors into one batched tensor.
///
/// Scene `i`'s coordinates receive batch index `i`; features are stacked in
/// order. All scenes must share the channel count and tensor stride.
///
/// # Errors
///
/// - [`CoreError::EmptyInput`] if `scenes` is empty;
/// - [`CoreError::ChannelMismatch`] if channel counts differ;
/// - [`CoreError::Coords`] if strides differ.
///
/// # Example
///
/// ```
/// use torchsparse_data::{collate, SyntheticDataset};
///
/// # fn main() -> Result<(), torchsparse_core::CoreError> {
/// let ds = SyntheticDataset::nuscenes(0.02, 4, 1);
/// let batch = collate(&[ds.scene(0)?, ds.scene(1)?])?;
/// assert_eq!(batch.coords().iter().map(|c| c.batch).max(), Some(1));
/// # Ok(())
/// # }
/// ```
pub fn collate(scenes: &[SparseTensor]) -> Result<SparseTensor, CoreError> {
    let first = scenes.first().ok_or(CoreError::EmptyInput)?;
    let channels = first.channels();
    let stride = first.stride();
    let mut coords = Vec::new();
    let mut feat_blocks = Vec::new();
    for (b, scene) in scenes.iter().enumerate() {
        if scene.channels() != channels {
            return Err(CoreError::ChannelMismatch {
                expected: channels,
                actual: scene.channels(),
            });
        }
        if scene.stride() != stride {
            return Err(CoreError::Coords(torchsparse_coords::CoordsError::ZeroStride));
        }
        coords.extend(scene.coords().iter().map(|c| Coord::new(b as i32, c.x, c.y, c.z)));
        feat_blocks.push(scene.feats());
    }
    let feats = Matrix::vstack(&feat_blocks).map_err(CoreError::from)?;
    SparseTensor::with_stride(coords, feats, stride)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticDataset;
    use torchsparse_core::DeviceProfile;
    use torchsparse_core::{Engine, EnginePreset, Module};

    #[test]
    fn collate_assigns_batch_indices() {
        let ds = SyntheticDataset::nuscenes(0.02, 4, 1);
        let a = ds.scene(0).unwrap();
        let b = ds.scene(1).unwrap();
        let batch = collate(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(batch.len(), a.len() + b.len());
        assert!(batch.coords()[..a.len()].iter().all(|c| c.batch == 0));
        assert!(batch.coords()[a.len()..].iter().all(|c| c.batch == 1));
        batch.validate_unique().unwrap();
    }

    #[test]
    fn collate_rejects_empty_and_mismatched() {
        assert!(matches!(collate(&[]), Err(CoreError::EmptyInput)));
        let ds4 = SyntheticDataset::nuscenes(0.02, 4, 1);
        let ds5 = SyntheticDataset::nuscenes(0.02, 5, 1);
        let err = collate(&[ds4.scene(0).unwrap(), ds5.scene(0).unwrap()]).unwrap_err();
        assert!(matches!(err, CoreError::ChannelMismatch { .. }));
    }

    #[test]
    fn batched_inference_equals_per_scene_inference() {
        // Scenes in a batch must not interact: running them together gives
        // the same features as running them alone.
        let ds = SyntheticDataset::nuscenes(0.015, 4, 1);
        let a = ds.scene(3).unwrap();
        let b = ds.scene(4).unwrap();
        let batch = collate(&[a.clone(), b.clone()]).unwrap();

        let conv = torchsparse_core::SparseConv3d::with_random_weights("c", 4, 6, 3, 1, 9);
        let mut engine = Engine::new(EnginePreset::BaselineFp32, DeviceProfile::rtx_2080ti());

        let ya = engine.run(&conv, &a).unwrap();
        let yb = engine.run(&conv, &b).unwrap();
        let ybatch = engine.run(&conv, &batch).unwrap();

        // Batched coordinates preserve scene order.
        for (i, c) in ybatch.coords().iter().enumerate() {
            let (reference, idx) = if i < a.len() { (&ya, i) } else { (&yb, i - a.len()) };
            let r = reference.coords()[idx];
            assert_eq!((c.x, c.y, c.z), (r.x, r.y, r.z));
            for ch in 0..6 {
                let diff = (ybatch.feats()[(i, ch)] - reference.feats()[(idx, ch)]).abs();
                assert!(diff < 1e-4, "batch isolation violated at point {i} channel {ch}");
            }
        }
        let _ = conv.name();
    }
}
