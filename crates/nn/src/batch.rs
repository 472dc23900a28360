//! Batch-axis helpers shared by the layers and the trainer.
//!
//! The numeric path always runs on a batch: a single row-major tensor
//! whose leading dimension is the batch size `N` and whose trailing
//! dimensions are one sample's shape, so sample `s` is the contiguous
//! slice `data[s * sample_len .. (s + 1) * sample_len]`. A lone sample is
//! a batch of one (`stack(&[&x])`). Keeping batches in one allocation is
//! what lets dense layers run the whole batch as a single GEMM.

use crate::layer::{NnError, Result};
use scnn_tensor::{Shape, ShapeError, Tensor};

/// Splits a batch shape `[N, …]` into `(N, sample_shape)`.
///
/// # Errors
///
/// Returns a shape error for rank < 2 tensors (a batch always carries an
/// explicit leading axis, even for vector samples).
pub fn split_batch(shape: &Shape) -> Result<(usize, Shape)> {
    if shape.rank() < 2 {
        return Err(NnError::Shape(ShapeError::RankMismatch {
            expected: 2,
            actual: shape.rank(),
        }));
    }
    let n = shape.dim(0);
    let sample = Shape::from(shape.dims()[1..].to_vec());
    Ok((n, sample))
}

/// Stacks same-shaped sample tensors into one `[N, …]` batch tensor.
///
/// # Errors
///
/// Returns a shape error when `samples` is empty or the shapes disagree.
pub fn stack(samples: &[&Tensor]) -> Result<Tensor> {
    let first = samples.first().ok_or(NnError::Shape(ShapeError::ZeroDim))?;
    let sample_len = first.len();
    let mut data = Vec::with_capacity(samples.len() * sample_len);
    for s in samples {
        if s.shape() != first.shape() {
            return Err(NnError::Shape(ShapeError::Mismatch {
                left: s.dims().to_vec(),
                right: first.dims().to_vec(),
            }));
        }
        data.extend_from_slice(s.as_slice());
    }
    let mut dims = vec![samples.len()];
    dims.extend_from_slice(first.dims());
    Ok(Tensor::from_vec(data, dims)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_and_split_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [2, 3]).unwrap();
        let batch = stack(&[&a, &b]).unwrap();
        assert_eq!(batch.dims(), &[2, 2, 3]);
        let (n, sample_shape) = split_batch(batch.shape()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(sample_shape.dims(), &[2, 3]);
        assert_eq!(&batch.as_slice()[..6], a.as_slice());
        assert_eq!(&batch.as_slice()[6..], b.as_slice());
    }

    #[test]
    fn stack_rejects_empty_and_ragged() {
        assert!(stack(&[]).is_err());
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([3, 2]);
        assert!(stack(&[&a, &b]).is_err());
    }

    #[test]
    fn split_rejects_vectors() {
        assert!(split_batch(&Shape::from(vec![4])).is_err());
    }
}
