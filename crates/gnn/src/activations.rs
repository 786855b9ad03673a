//! Activation functions with explicit gradients.

use crate::Result;
use dmbs_matrix::{DenseMatrix, MatrixError};

/// Rectified linear unit applied element-wise, in place.
pub fn relu(mut x: DenseMatrix) -> DenseMatrix {
    x.map_inplace(|v| if v > 0.0 { v } else { 0.0 });
    x
}

/// Gradient of ReLU, in place: passes `upstream` through where the
/// activation is positive.  `activation` may be the pre-activation or the
/// ReLU output: `relu(v) > 0` exactly when `v > 0`, NaN included.  Each entry
/// becomes `1.0 * u` or `0.0 * u`, so a masked-out infinite or NaN gradient
/// stays NaN.
///
/// # Errors
///
/// Returns [`crate::GnnError::Matrix`] if the shapes differ.
pub fn relu_backward(activation: &DenseMatrix, mut upstream: DenseMatrix) -> Result<DenseMatrix> {
    if activation.shape() != upstream.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "relu_backward",
            lhs: activation.shape(),
            rhs: upstream.shape(),
        }
        .into());
    }
    for (u, &a) in upstream.as_mut_slice().iter_mut().zip(activation.as_slice()) {
        *u *= if a > 0.0 { 1.0 } else { 0.0 };
    }
    Ok(upstream)
}

/// Row-wise softmax with the usual max-subtraction for numerical stability.
pub fn softmax_rows(logits: &DenseMatrix) -> DenseMatrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = DenseMatrix::from_rows(&[vec![-1.0, 0.0, 2.0]]).unwrap();
        assert_eq!(relu(x).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let pre = DenseMatrix::from_rows(&[vec![-1.0, 3.0]]).unwrap();
        let up = DenseMatrix::from_rows(&[vec![5.0, 7.0]]).unwrap();
        assert_eq!(relu_backward(&pre, up).unwrap().as_slice(), &[0.0, 7.0]);
        assert!(relu_backward(&pre, DenseMatrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x =
            DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![1000.0, 1000.0, 1000.0]]).unwrap();
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-12);
    }
}
