//! GraphSAGE and linear layers with explicit forward/backward passes.

use crate::activations::{relu, relu_backward};
use crate::Result;
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::spmm::{spmm_parallel, spmm_transpose_parallel};
use dmbs_matrix::{CsrMatrix, DenseMatrix, MatrixError};

/// Cache of intermediate values produced by [`sage_forward`] and consumed by
/// [`sage_backward`] and [`sage_input_backward`].
#[derive(Debug, Clone)]
pub struct SageCache {
    /// Row-normalized sampled adjacency used for mean aggregation.
    pub a_norm: CsrMatrix,
    /// Self-side input embeddings (`rows × in_dim`).
    pub h_self: DenseMatrix,
    /// Aggregated neighbor embeddings (`rows × in_dim`).
    pub aggregated: DenseMatrix,
    /// The layer's output (`rows × out_dim`), after ReLU when it was applied.
    /// The next layer reads it as its input.
    pub output: DenseMatrix,
    /// Whether ReLU was applied.
    pub applied_relu: bool,
}

/// Weight gradients produced by [`sage_backward`].
#[derive(Debug, Clone)]
pub struct SageGrads {
    /// Gradient of the self weight matrix.
    pub d_w_self: DenseMatrix,
    /// Gradient of the neighbor weight matrix.
    pub d_w_neigh: DenseMatrix,
    /// Gradient of the pre-activation output (`rows × out_dim`), the input
    /// of [`sage_input_backward`].
    pub d_pre: DenseMatrix,
}

/// Forward pass of a mean-aggregator GraphSAGE layer:
///
/// ```text
/// Z = act( Â · H_neigh · W_neigh  +  H_self · W_self )
/// ```
///
/// where `Â` is the row-normalized sampled adjacency matrix (neighborhood
/// mean) produced by the sampling step, `H_neigh` holds embeddings for the
/// layer's column vertices and `H_self` embeddings for its row vertices.
/// `H_self` moves into the returned cache, which also holds the output `Z`.
///
/// The aggregation SpMM runs on `parallelism` worker threads
/// (byte-identical to serial at any thread count).
///
/// # Errors
///
/// Returns [`crate::GnnError::Matrix`] on dimension mismatches.
pub fn sage_forward(
    adjacency: &CsrMatrix,
    h_neigh: &DenseMatrix,
    h_self: DenseMatrix,
    w_self: &DenseMatrix,
    w_neigh: &DenseMatrix,
    apply_relu: bool,
    parallelism: Parallelism,
) -> Result<SageCache> {
    let mut a_norm = adjacency.clone();
    a_norm.normalize_rows();
    let aggregated = spmm_parallel(&a_norm, h_neigh, parallelism)?;
    let mut pre = h_self.matmul(w_self)?;
    pre.axpy(1.0, &aggregated.matmul(w_neigh)?)?;
    let output = if apply_relu { relu(pre) } else { pre };
    Ok(SageCache { a_norm, h_self, aggregated, output, applied_relu: apply_relu })
}

/// Weight-gradient half of the GraphSAGE backward pass, given the gradient
/// `upstream` of the layer's output (consumed: it becomes `d_pre`).  The
/// gradient for the layer's inputs is [`sage_input_backward`]'s job; a model
/// skips it where nothing reads it, as for the input features.
///
/// # Errors
///
/// Returns [`crate::GnnError::Matrix`] on dimension mismatches.
pub fn sage_backward(cache: &SageCache, upstream: DenseMatrix) -> Result<SageGrads> {
    if upstream.shape() != cache.output.shape() {
        let (lhs, rhs) = (cache.output.shape(), upstream.shape());
        return Err(MatrixError::DimensionMismatch { op: "sage_backward", lhs, rhs }.into());
    }
    let d_pre = if cache.applied_relu { relu_backward(&cache.output, upstream)? } else { upstream };
    let d_w_self = cache.h_self.transpose_matmul(&d_pre)?;
    let d_w_neigh = cache.aggregated.transpose_matmul(&d_pre)?;
    Ok(SageGrads { d_w_self, d_w_neigh, d_pre })
}

/// Input-gradient half of the GraphSAGE backward pass: returns
/// `(d_h_neigh, d_h_self)`, the gradients for the neighbor-side
/// (`cols × in_dim`) and self-side (`rows × in_dim`) inputs.  `w_self` and
/// `w_neigh` must be the weights used in the forward pass.  The
/// transposed-aggregation SpMM runs on `parallelism` worker threads.
///
/// # Errors
///
/// Returns [`crate::GnnError::Matrix`] on dimension mismatches.
pub fn sage_input_backward(
    cache: &SageCache,
    d_pre: &DenseMatrix,
    w_self: &DenseMatrix,
    w_neigh: &DenseMatrix,
    parallelism: Parallelism,
) -> Result<(DenseMatrix, DenseMatrix)> {
    let d_h_self = d_pre.matmul_transpose(w_self)?;
    let d_aggregated = d_pre.matmul_transpose(w_neigh)?;
    let d_h_neigh = spmm_transpose_parallel(&cache.a_norm, &d_aggregated, parallelism)?;
    Ok((d_h_neigh, d_h_self))
}

/// Forward pass of the linear classifier `logits = H · W`.
///
/// # Errors
///
/// Returns [`crate::GnnError::Matrix`] on dimension mismatches.
pub fn linear_forward(input: &DenseMatrix, weight: &DenseMatrix) -> Result<DenseMatrix> {
    Ok(input.matmul(weight)?)
}

/// Backward pass of the linear classifier given its forward `input`:
/// returns `(dW, dH)`.
///
/// # Errors
///
/// Returns [`crate::GnnError::Matrix`] on dimension mismatches.
pub fn linear_backward(
    input: &DenseMatrix,
    weight: &DenseMatrix,
    upstream: &DenseMatrix,
) -> Result<(DenseMatrix, DenseMatrix)> {
    let d_weight = input.transpose_matmul(upstream)?;
    let d_input = upstream.matmul_transpose(weight)?;
    Ok((d_weight, d_input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbs_matrix::CooMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_adjacency() -> CsrMatrix {
        // 2 rows (frontier), 3 cols (sampled vertices).
        CsrMatrix::from_coo(
            &CooMatrix::from_triples(2, 3, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]).unwrap(),
        )
    }

    #[test]
    fn sage_forward_is_mean_aggregation_plus_self() {
        let a = tiny_adjacency();
        let h_neigh = DenseMatrix::from_rows(&[vec![1.0], vec![3.0], vec![5.0]]).unwrap();
        let h_self = DenseMatrix::from_rows(&[vec![10.0], vec![20.0]]).unwrap();
        let w_self = DenseMatrix::identity(1);
        let w_neigh = DenseMatrix::identity(1);
        let cache =
            sage_forward(&a, &h_neigh, h_self, &w_self, &w_neigh, false, Parallelism::serial())
                .unwrap();
        // Row 0 aggregates mean(1, 3) = 2 plus self 10 = 12; row 1: 5 + 20 = 25.
        assert_eq!(cache.output.get(0, 0), 12.0);
        assert_eq!(cache.output.get(1, 0), 25.0);
        assert_eq!(cache.aggregated.get(0, 0), 2.0);
    }

    #[test]
    fn sage_relu_clamps_negative_outputs() {
        let a = tiny_adjacency();
        let h_neigh = DenseMatrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let h_self = DenseMatrix::from_rows(&[vec![-10.0], vec![10.0]]).unwrap();
        let out = sage_forward(
            &a,
            &h_neigh,
            h_self,
            &DenseMatrix::identity(1),
            &DenseMatrix::identity(1),
            true,
            Parallelism::serial(),
        )
        .unwrap()
        .output;
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(1, 0), 11.0);
    }

    /// Finite-difference check of every gradient the SAGE layer produces.
    #[test]
    fn sage_backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = tiny_adjacency();
        let h_neigh = DenseMatrix::random_uniform(3, 2, 1.0, &mut rng);
        let h_self = DenseMatrix::random_uniform(2, 2, 1.0, &mut rng);
        let w_self = DenseMatrix::random_uniform(2, 2, 1.0, &mut rng);
        let w_neigh = DenseMatrix::random_uniform(2, 2, 1.0, &mut rng);

        // Scalar objective: sum of outputs (upstream gradient of ones).
        let objective = |hn: &DenseMatrix, hs: &DenseMatrix, ws: &DenseMatrix, wn: &DenseMatrix| {
            sage_forward(&a, hn, hs.clone(), ws, wn, true, Parallelism::serial())
                .unwrap()
                .output
                .sum()
        };
        let cache = sage_forward(
            &a,
            &h_neigh,
            h_self.clone(),
            &w_self,
            &w_neigh,
            true,
            Parallelism::serial(),
        )
        .unwrap();
        let upstream = DenseMatrix::filled(cache.output.rows(), cache.output.cols(), 1.0);
        let grads = sage_backward(&cache, upstream).unwrap();
        let (d_h_neigh, d_h_self) =
            sage_input_backward(&cache, &grads.d_pre, &w_self, &w_neigh, Parallelism::serial())
                .unwrap();

        let eps = 1e-6;
        let check = |analytic: &DenseMatrix,
                     mut perturb: Box<dyn FnMut(usize, usize, f64) -> f64>| {
            for r in 0..analytic.rows() {
                for c in 0..analytic.cols() {
                    let num = (perturb(r, c, eps) - perturb(r, c, -eps)) / (2.0 * eps);
                    assert!(
                        (num - analytic.get(r, c)).abs() < 1e-5,
                        "finite difference mismatch at ({r}, {c}): {num} vs {}",
                        analytic.get(r, c)
                    );
                }
            }
        };

        let (hn, hs, ws, wn) = (h_neigh.clone(), h_self.clone(), w_self.clone(), w_neigh.clone());
        check(
            &grads.d_w_self,
            Box::new(move |r, c, d| {
                let mut w = ws.clone();
                w.set(r, c, w.get(r, c) + d);
                objective(&hn, &hs, &w, &wn)
            }),
        );
        let (hn, hs, ws, wn) = (h_neigh.clone(), h_self.clone(), w_self.clone(), w_neigh.clone());
        check(
            &grads.d_w_neigh,
            Box::new(move |r, c, d| {
                let mut w = wn.clone();
                w.set(r, c, w.get(r, c) + d);
                objective(&hn, &hs, &ws, &w)
            }),
        );
        let (hn, hs, ws, wn) = (h_neigh.clone(), h_self.clone(), w_self.clone(), w_neigh.clone());
        check(
            &d_h_neigh,
            Box::new(move |r, c, d| {
                let mut h = hn.clone();
                h.set(r, c, h.get(r, c) + d);
                objective(&h, &hs, &ws, &wn)
            }),
        );
        let (hn, hs, ws, wn) = (h_neigh, h_self, w_self, w_neigh);
        check(
            &d_h_self,
            Box::new(move |r, c, d| {
                let mut h = hs.clone();
                h.set(r, c, h.get(r, c) + d);
                objective(&hn, &h, &ws, &wn)
            }),
        );
    }

    #[test]
    fn linear_forward_backward_consistency() {
        let mut rng = StdRng::seed_from_u64(9);
        let input = DenseMatrix::random_uniform(3, 4, 1.0, &mut rng);
        let weight = DenseMatrix::random_uniform(4, 2, 1.0, &mut rng);
        let logits = linear_forward(&input, &weight).unwrap();
        assert_eq!(logits.shape(), (3, 2));
        let upstream = DenseMatrix::filled(3, 2, 1.0);
        let (d_w, d_h) = linear_backward(&input, &weight, &upstream).unwrap();
        assert_eq!(d_w.shape(), weight.shape());
        assert_eq!(d_h.shape(), input.shape());
        // d/dW of sum(H W) = H^T 1.
        let expected_dw = input.transpose_matmul(&upstream).unwrap();
        assert!(d_w.approx_eq(&expected_dw, 1e-12));
    }

    #[test]
    fn dimension_mismatches_are_errors() {
        let a = tiny_adjacency();
        let bad_h_neigh = DenseMatrix::zeros(2, 2); // needs 3 rows
        let h_self = DenseMatrix::zeros(2, 2);
        let w = DenseMatrix::identity(2);
        assert!(
            sage_forward(&a, &bad_h_neigh, h_self, &w, &w, true, Parallelism::serial()).is_err()
        );
        let input = DenseMatrix::zeros(2, 3);
        let weight = DenseMatrix::zeros(4, 2);
        assert!(linear_forward(&input, &weight).is_err());
    }

    #[test]
    fn sage_backward_rejects_misshaped_upstream() {
        let mut rng = StdRng::seed_from_u64(3);
        let h_neigh = DenseMatrix::random_uniform(3, 2, 1.0, &mut rng);
        let h_self = DenseMatrix::random_uniform(2, 2, 1.0, &mut rng);
        let w = DenseMatrix::identity(2);
        for apply_relu in [true, false] {
            let cache = sage_forward(
                &tiny_adjacency(),
                &h_neigh,
                h_self.clone(),
                &w,
                &w,
                apply_relu,
                Parallelism::serial(),
            )
            .unwrap();
            for (rows, cols) in [(3, 2), (2, 3), (1, 1)] {
                let upstream = DenseMatrix::zeros(rows, cols);
                assert!(sage_backward(&cache, upstream).is_err(), "{rows}x{cols}, {apply_relu}");
            }
        }
    }
}
