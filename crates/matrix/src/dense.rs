//! Row-major dense matrices.
//!
//! The GNN substrate (`dmbs-gnn`) uses dense matrices for embeddings, weights
//! and gradients.  Only the kernels needed there are implemented: GEMM,
//! transpose, element-wise maps, row reductions, row gather/scatter and a few
//! utility constructors.

use crate::error::MatrixError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A row-major dense matrix of `f64` values.
///
/// # Example
///
/// ```
/// use dmbs_matrix::DenseMatrix;
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = DenseMatrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        DenseMatrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if rows have differing
    /// lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MatrixError::InvalidStructure(format!(
                    "row {i} has length {} but expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix { rows: rows.len(), cols, data })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidStructure(format!(
                "buffer length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random_uniform<R: rand::Rng + ?Sized>(
        rows: usize,
        cols: usize,
        scale: f64,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        DenseMatrix { rows, cols, data }
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

    /// Borrow of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "dense index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "dense index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "dense matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order for cache friendliness on row-major data.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += aik * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self^T * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.rows() != rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "dense transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            for i in 0..self.cols {
                let aki = self.data[k * self.cols + i];
                if aki == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += aki * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self * rhs^T`.
    ///
    /// Each output element is the dot product of a row of `self` and a row
    /// of `rhs`, summed from `0.0` in ascending `k` without fused
    /// multiply-add, so the result is bit-identical to the naive dot loop.
    /// The kernel computes 4×4 output tiles with 16 independent
    /// accumulators; an edge tile repeats its last row or column and
    /// stores only the valid part.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "dense matmul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        const T: usize = 4;
        fn tile_rows(mat: &DenseMatrix, start: usize) -> [&[f64]; T] {
            std::array::from_fn(|t| mat.row((start + t).min(mat.rows - 1)))
        }
        let (n, m) = (self.cols, rhs.rows);
        let mut out = DenseMatrix::zeros(self.rows, m);
        for i in (0..self.rows).step_by(T) {
            let a = tile_rows(self, i);
            for j in (0..m).step_by(T) {
                let b = tile_rows(rhs, j);
                let mut acc = [[0.0f64; T]; T];
                for k in 0..n {
                    let bk = b.map(|row| row[k]);
                    for (acc_row, a_row) in acc.iter_mut().zip(&a) {
                        let av = a_row[k];
                        for (c, &bv) in acc_row.iter_mut().zip(&bk) {
                            *c += av * bv;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate().take(self.rows - i) {
                    let cols = T.min(m - j);
                    let o = (i + r) * m + j;
                    out.data[o..o + cols].copy_from_slice(&acc_row[..cols]);
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn add(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "dense add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(DenseMatrix { rows: self.rows, cols: self.cols, data })
    }

    /// In-place element-wise `self += alpha * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &DenseMatrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "dense axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a new matrix with `f` applied to each entry.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to each entry in place.
    pub fn map_inplace<F: Fn(f64) -> f64>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn hadamard(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "dense hadamard",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).collect();
        Ok(DenseMatrix { rows: self.rows, cols: self.cols, data })
    }

    /// Multiplies every entry by `alpha` and returns the result.
    pub fn scale(&self, alpha: f64) -> DenseMatrix {
        self.map(|v| v * alpha)
    }

    /// Horizontally concatenates `self` with `rhs` (`[self | rhs]`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if row counts differ.
    pub fn hstack(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "dense hstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let cols = self.cols + rhs.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(rhs.row(i));
        }
        Ok(DenseMatrix { rows: self.rows, cols, data })
    }

    /// Splits the matrix into `[left | right]` at column `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at > cols`.
    pub fn hsplit(&self, at: usize) -> (DenseMatrix, DenseMatrix) {
        assert!(at <= self.cols, "split column out of range");
        let mut left = DenseMatrix::zeros(self.rows, at);
        let mut right = DenseMatrix::zeros(self.rows, self.cols - at);
        for i in 0..self.rows {
            left.row_mut(i).copy_from_slice(&self.row(i)[..at]);
            right.row_mut(i).copy_from_slice(&self.row(i)[at..]);
        }
        (left, right)
    }

    /// Gathers the given rows into a new matrix (duplicates allowed).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            if src >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    row: src,
                    col: 0,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(out)
    }

    /// Vertically stacks a list of matrices with identical column counts.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if column counts differ.
    pub fn vstack(parts: &[DenseMatrix]) -> Result<DenseMatrix> {
        if parts.is_empty() {
            return Ok(DenseMatrix::zeros(0, 0));
        }
        let cols = parts[0].cols;
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            if p.cols != cols {
                return Err(MatrixError::DimensionMismatch {
                    op: "dense vstack",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            data.extend_from_slice(&p.data);
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Sum over every entry.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-row sums as a vector of length `rows`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Per-column mean as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (m, v) in means.iter_mut().zip(self.row(i)) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Index of the maximum entry in each row (`argmax`), used for
    /// classification decisions.
    pub fn row_argmax(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|i| {
                let row = self.row(i);
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Approximate equality within `tol` (same shape, max absolute difference).
    pub fn approx_eq(&self, rhs: &DenseMatrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self.data.iter().zip(&rhs.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Number of bytes required to store the matrix values.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl Default for DenseMatrix {
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = sample();
        let i = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, DenseMatrix::from_rows(&[vec![4.0, 5.0], vec![10.0, 11.0]]).unwrap());
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = sample();
        let b = DenseMatrix::zeros(2, 2);
        assert!(matches!(a.matmul(&b), Err(MatrixError::DimensionMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = DenseMatrix::random_uniform(4, 3, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(4, 5, 1.0, &mut rng);
        let direct = a.transpose().matmul(&b).unwrap();
        let fused = a.transpose_matmul(&b).unwrap();
        assert!(direct.approx_eq(&fused, 1e-12));
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = DenseMatrix::random_uniform(4, 3, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(5, 3, 1.0, &mut rng);
        let direct = a.matmul(&b.transpose()).unwrap();
        let fused = a.matmul_transpose(&b).unwrap();
        assert!(direct.approx_eq(&fused, 1e-12));
    }

    /// The naive dot loop the tiled kernel must reproduce bit for bit.
    fn matmul_transpose_oracle(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                let mut acc = 0.0;
                for (x, y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                out.data[i * b.rows + j] = acc;
            }
        }
        out
    }

    /// Maps a `(selector, value)` draw to an entry that is ±0.0, ±inf or NaN
    /// about a sixth of the time.
    fn special_entry((selector, v): (usize, f64)) -> f64 {
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN].get(selector).copied().unwrap_or(v)
    }

    proptest! {
        #[test]
        fn prop_matmul_transpose_tiled_is_byte_identical(
            (rows, inner, cols) in (0usize..11, 0usize..10, 0usize..11),
            a_vals in collection::vec((0usize..30, -2.0f64..2.0), 10 * 9),
            b_vals in collection::vec((0usize..30, -2.0f64..2.0), 10 * 9),
        ) {
            let a_vals = a_vals.into_iter().take(rows * inner).map(special_entry).collect();
            let b_vals = b_vals.into_iter().take(cols * inner).map(special_entry).collect();
            let a = DenseMatrix::from_vec(rows, inner, a_vals).unwrap();
            let b = DenseMatrix::from_vec(cols, inner, b_vals).unwrap();
            // Rust leaves the sign and payload of a NaN result unspecified
            // (the optimizer may swap the operands of an add), so every NaN
            // compares as one canonical NaN; all other bits must match.
            let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v };
            let bits = |m: &DenseMatrix| -> Vec<u64> {
                m.data.iter().map(|&v| canonical(v).to_bits()).collect()
            };
            let tiled = a.matmul_transpose(&b).unwrap();
            prop_assert_eq!(tiled.shape(), (rows, cols));
            prop_assert_eq!(bits(&tiled), bits(&matmul_transpose_oracle(&a, &b)));
        }
    }

    #[test]
    fn add_and_axpy() {
        let a = sample();
        let b = sample();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.get(1, 2), 12.0);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.get(0, 0), 3.0);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = sample();
        let h = a.hadamard(&a).unwrap();
        assert_eq!(h.get(1, 1), 25.0);
        assert_eq!(a.scale(2.0).get(0, 2), 6.0);
    }

    #[test]
    fn hstack_hsplit_roundtrip() {
        let a = sample();
        let b = sample();
        let stacked = a.hstack(&b).unwrap();
        assert_eq!(stacked.shape(), (2, 6));
        let (l, r) = stacked.hsplit(3);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn gather_rows_and_out_of_bounds() {
        let a = sample();
        let g = a.gather_rows(&[1, 0, 1]).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), a.row(1));
        assert!(a.gather_rows(&[5]).is_err());
    }

    #[test]
    fn vstack_shapes() {
        let a = sample();
        let v = DenseMatrix::vstack(&[a.clone(), a.clone()]).unwrap();
        assert_eq!(v.shape(), (4, 3));
        let bad = DenseMatrix::zeros(1, 2);
        assert!(DenseMatrix::vstack(&[a, bad]).is_err());
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.row_sums(), vec![6.0, 15.0]);
        assert_eq!(a.col_means(), vec![2.5, 3.5, 4.5]);
        assert!((a.frobenius_norm() - (91.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn row_argmax_picks_first_max() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 3.0, 3.0], vec![5.0, 2.0, 1.0]]).unwrap();
        assert_eq!(a.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn from_rows_validates_lengths() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn random_uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DenseMatrix::random_uniform(10, 10, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5));
    }
}
