//! Row-major dense matrices.
//!
//! The GNN substrate (`dmbs-gnn`) uses dense matrices for embeddings, weights
//! and gradients.  Only the kernels needed there are implemented: GEMM,
//! transpose, element-wise maps, row reductions, row gather/scatter and a few
//! utility constructors.
//!
//! # GEMM
//!
//! [`DenseMatrix::matmul`], [`DenseMatrix::transpose_matmul`] and
//! [`DenseMatrix::matmul_transpose`] share one register-tiled kernel body,
//! written as plain Rust and compiled three times: for AVX-512F (4×16
//! output tiles), AVX2 (4×8) and the target's baseline (4×4).  One dispatch
//! function picks the widest tier the CPU supports at run time; targets
//! other than x86_64 always run the baseline build.
//!
//! Every output element is `Σₖ a·b` summed from `+0.0` in ascending `k`,
//! with no fused multiply-add, so all tiers give the naive triple loop's
//! bits.  The accumulator is never `-0.0`, so on finite operands a `±0`
//! product leaves it unchanged.  Zero entries are not skipped: a non-finite
//! operand surfaces, and `0 · ∞` contributes NaN.

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
    /// Returns [`MatrixError::InvalidStructure`] if `data.len() != rows * cols`,
    /// including when `rows * cols` overflows `usize` (shapes read from
    /// untrusted bytes).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
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
    /// Every output element is `Σₖ self[i][k] · rhs[k][j]`, summed from
    /// `+0.0` in ascending `k` with no fused multiply-add, so the result is
    /// bit-identical to the naive triple loop on every kernel tier.  A
    /// non-finite operand surfaces: `0 · ∞` contributes NaN.
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
        Ok(gemm(WIDEST, self, false, rhs))
    }

    /// Matrix product `self^T * rhs`.
    ///
    /// Same summation contract as [`matmul`](Self::matmul), read through
    /// the transposed left operand without materializing it.
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
        Ok(gemm(WIDEST, self, true, rhs))
    }

    /// Matrix product `self * rhs^T`.
    ///
    /// Computed as [`matmul`](Self::matmul) on a transposed copy of `rhs`
    /// (in training, always a small weight matrix), so it has the same
    /// summation contract: each element is the dot product of a row of
    /// `self` and a row of `rhs`, summed from `+0.0` in ascending `k`.
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
        Ok(gemm(WIDEST, self, false, &rhs.transpose()))
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

/// Instruction-set tiers the GEMM kernel is compiled for, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// The target's baseline instruction set, 4×4 tiles.  Only the tier
    /// tests ask for it by name; otherwise it is the fallback.
    #[cfg_attr(not(test), allow(dead_code))]
    Portable,
    /// AVX2, 4×8 tiles.
    Avx2,
    /// AVX-512F, 4×16 tiles.
    Avx512,
}

/// The tier the public products ask for; [`gemm`] falls back from it to the
/// widest one the CPU supports.
const WIDEST: Tier = Tier::Avx512;

/// Rows of a register tile.
const TR: usize = 4;

/// Depth of one `k` block: a block of the right operand (`KB × n`) stays in
/// cache while every row tile of the output streams over it.
const KB: usize = 256;

/// `op(a) · b`, where `op` transposes when `transpose_a` is set, on the
/// widest tier up to `widest` that this CPU supports.  Shapes are checked
/// by the caller.  This is the only place a tier is chosen and the only
/// `unsafe` in the workspace.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn gemm(widest: Tier, a: &DenseMatrix, transpose_a: bool, b: &DenseMatrix) -> DenseMatrix {
    let m = if transpose_a { a.cols } else { a.rows };
    let mut out = DenseMatrix::zeros(m, b.cols);
    #[cfg(target_arch = "x86_64")]
    {
        if widest >= Tier::Avx512 && is_x86_feature_detected!("avx512f") {
            // SAFETY: `gemm_avx512` needs only AVX-512F, which
            // `is_x86_feature_detected!("avx512f")` just found on this CPU.
            unsafe { gemm_avx512(a, transpose_a, b, &mut out) };
            return out;
        }
        if widest >= Tier::Avx2 && is_x86_feature_detected!("avx2") {
            // SAFETY: `gemm_avx2` needs only AVX2, which
            // `is_x86_feature_detected!("avx2")` just found on this CPU.
            unsafe { gemm_avx2(a, transpose_a, b, &mut out) };
            return out;
        }
    }
    gemm_tiled::<4>(a, transpose_a, b, &mut out);
    out
}

/// [`gemm_tiled`] built for AVX-512F; callable only once [`gemm`] has
/// detected AVX-512F on this CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(a: &DenseMatrix, transpose_a: bool, b: &DenseMatrix, out: &mut DenseMatrix) {
    gemm_tiled::<16>(a, transpose_a, b, out);
}

/// [`gemm_tiled`] built for AVX2; callable only once [`gemm`] has detected
/// AVX2 on this CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: &DenseMatrix, transpose_a: bool, b: &DenseMatrix, out: &mut DenseMatrix) {
    gemm_tiled::<8>(a, transpose_a, b, out);
}

/// `acc += a · b` on one accumulator row of a register tile.
#[inline(always)]
fn axpy_row<const TC: usize>(acc: &mut [f64; TC], a: f64, b: &[f64; TC]) {
    for (c, &bv) in acc.iter_mut().zip(b) {
        *c += a * bv;
    }
}

/// The one GEMM body, `out += op(a) · b`, inlined into each tier so it is
/// compiled for that tier's vector width.
///
/// `op(a)` is read through strides, so `a` is never transposed in memory.
/// For each `k` block, each `TR`-row tile of `op(a)` is packed (the last
/// tile repeats its last row), then every `TR × TC` output tile accumulates
/// over the block in registers and is stored back.  A ragged last column
/// tile reads a zero-padded copy of its strip of `b`.  Padded rows and
/// columns are computed and dropped.  Each element is therefore summed
/// from `+0.0` in ascending `k`, and Rust never contracts `*` and `+` into
/// an FMA.  The accumulator rows are four named arrays, each updated by
/// [`axpy_row`]: the shape the optimizer keeps in registers.
#[inline(always)]
fn gemm_tiled<const TC: usize>(
    a: &DenseMatrix,
    transpose_a: bool,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
) {
    let (m, k, a_rs, a_cs) =
        if transpose_a { (a.cols, a.rows, 1, a.cols) } else { (a.rows, a.cols, a.cols, 1) };
    let n = b.cols;
    if m == 0 || n == 0 {
        return;
    }
    let full = n - n % TC;
    let mut a_pack = [[0.0f64; TR]; KB];
    let mut b_edge = vec![0.0f64; if full < n { KB * TC } else { 0 }];
    for k0 in (0..k).step_by(KB) {
        let kb = KB.min(k - k0);
        let b_block = &b.data[k0 * n..(k0 + kb) * n];
        for (dst, src) in b_edge.chunks_exact_mut(TC).zip(b_block.chunks_exact(n)) {
            dst[..n - full].copy_from_slice(&src[full..]);
        }
        for i in (0..m).step_by(TR) {
            for (p, packed) in a_pack[..kb].iter_mut().enumerate() {
                *packed =
                    std::array::from_fn(|r| a.data[(i + r).min(m - 1) * a_rs + (k0 + p) * a_cs]);
            }
            let rows = TR.min(m - i);
            for j in (0..n).step_by(TC) {
                let cols = TC.min(n - j);
                let (b_src, b_rs, b_j) =
                    if j < full { (b_block, n, j) } else { (&b_edge[..], TC, 0) };
                let mut acc = [[0.0f64; TC]; TR];
                for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
                    let o = (i + r) * n + j;
                    acc_row[..cols].copy_from_slice(&out.data[o..o + cols]);
                }
                let [mut c0, mut c1, mut c2, mut c3] = acc;
                for (&[a0, a1, a2, a3], b_row) in a_pack[..kb].iter().zip(b_src.chunks_exact(b_rs))
                {
                    let b_p: &[f64; TC] =
                        b_row[b_j..b_j + TC].try_into().expect("a tile lies inside its row");
                    axpy_row(&mut c0, a0, b_p);
                    axpy_row(&mut c1, a1, b_p);
                    axpy_row(&mut c2, a2, b_p);
                    axpy_row(&mut c3, a3, b_p);
                }
                for (r, acc_row) in [c0, c1, c2, c3].iter().enumerate().take(rows) {
                    let o = (i + r) * n + j;
                    out.data[o..o + cols].copy_from_slice(&acc_row[..cols]);
                }
            }
        }
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
    use rand::{Rng, SeedableRng};

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

    /// The naive dot loop: `out[i][j] = Σₖ a[i][k] · b[j][k]`, summed from
    /// `0.0` in ascending `k`.  Every product must reproduce it bit for bit.
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

    /// The portable build plus every SIMD tier this CPU supports.
    fn host_tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Avx2);
            }
            if is_x86_feature_detected!("avx512f") {
                tiers.push(Tier::Avx512);
            }
        }
        tiers
    }

    /// Entry bits with every NaN mapped to one canonical NaN: Rust leaves
    /// the sign and payload of a NaN result unspecified (the optimizer may
    /// swap the operands of an add); all other bits must match.
    fn bits(m: &DenseMatrix) -> Vec<u64> {
        let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v };
        m.data.iter().map(|&v| canonical(v).to_bits()).collect()
    }

    /// Asserts that all three products compute `a · b` (`a` is `m × k`, `b`
    /// is `k × n`) bit for bit like the oracle: the kernel on every host
    /// tier for `matmul` and `transpose_matmul`, and all three public
    /// methods (`matmul_transpose` is `matmul` on a transposed copy).
    fn assert_products_match_oracle(a: &DenseMatrix, b: &DenseMatrix) {
        let (at, bt) = (a.transpose(), b.transpose());
        let want = bits(&matmul_transpose_oracle(a, &bt));
        let case = format!("{:?} · {:?}", a.shape(), b.shape());
        for tier in host_tiers() {
            assert_eq!(bits(&gemm(tier, a, false, b)), want, "matmul on {tier:?}, {case}");
            assert_eq!(
                bits(&gemm(tier, &at, true, b)),
                want,
                "transpose_matmul on {tier:?}, {case}"
            );
        }
        assert_eq!(bits(&a.matmul(b).unwrap()), want, "matmul, {case}");
        assert_eq!(bits(&at.transpose_matmul(b).unwrap()), want, "transpose_matmul, {case}");
        assert_eq!(bits(&a.matmul_transpose(&bt).unwrap()), want, "matmul_transpose, {case}");
    }

    /// Maps a `(selector, value)` draw to an entry that is ±0.0, ±inf or NaN
    /// about a sixth of the time.
    fn special_entry((selector, v): (usize, f64)) -> f64 {
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN].get(selector).copied().unwrap_or(v)
    }

    /// Widest tile of any tier, in columns.
    const MAX_TC: usize = 16;

    #[test]
    fn products_match_oracle_on_every_edge_shape() {
        // Rows and columns 0..=2·16+3 give every tier full tiles plus every
        // ragged row and column edge; one shape's depth crosses a k block.
        let mut rng = StdRng::seed_from_u64(11);
        let mut entries = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| special_entry((rng.gen_range(0..30), rng.gen_range(-2.0..2.0))))
                .collect()
        };
        let mut shapes: Vec<_> = (0..=2 * MAX_TC + 3)
            .flat_map(|m| (0..=2 * MAX_TC + 3).map(move |n| (m, 3, n)))
            .collect();
        shapes.push((2 * MAX_TC + 3, KB + 5, 2 * MAX_TC + 3));
        for (m, k, n) in shapes {
            let a = DenseMatrix::from_vec(m, k, entries(m * k)).unwrap();
            let b = DenseMatrix::from_vec(k, n, entries(k * n)).unwrap();
            assert_products_match_oracle(&a, &b);
        }
    }

    proptest! {
        #[test]
        fn prop_products_match_oracle_on_every_tier(
            (m, n) in (0usize..2 * MAX_TC + 4, 0usize..2 * MAX_TC + 4),
            (deep, k) in (0usize..4, 0usize..12),
            a_vals in collection::vec((0usize..30, -2.0f64..2.0), (2 * MAX_TC + 3) * (KB + 8)),
            b_vals in collection::vec((0usize..30, -2.0f64..2.0), (2 * MAX_TC + 3) * (KB + 8)),
        ) {
            // A quarter of the cases run a depth across the first k block.
            let k = if deep == 0 { KB - 3 + k } else { k };
            let a_vals = a_vals.into_iter().take(m * k).map(special_entry).collect();
            let b_vals = b_vals.into_iter().take(k * n).map(special_entry).collect();
            let a = DenseMatrix::from_vec(m, k, a_vals).unwrap();
            let b = DenseMatrix::from_vec(k, n, b_vals).unwrap();
            assert_products_match_oracle(&a, &b);
        }
    }

    #[test]
    fn zero_times_infinity_surfaces_as_nan() {
        // A zero left entry does not skip its product: `0 · ∞` is NaN, as
        // in the oracle, in all three products.
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![f64::INFINITY], vec![2.0]]).unwrap();
        assert!(a.matmul(&b).unwrap().get(0, 0).is_nan());
        assert!(a.transpose().transpose_matmul(&b).unwrap().get(0, 0).is_nan());
        assert!(a.matmul_transpose(&b.transpose()).unwrap().get(0, 0).is_nan());
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
    fn from_vec_rejects_an_overflowing_shape() {
        // 2^32 · 2^32 (on 64-bit) wraps to 0 in a `usize` product, which an
        // empty buffer would match.
        let half = 1usize << (usize::BITS / 2);
        let err = DenseMatrix::from_vec(half, half, vec![]);
        assert!(matches!(err, Err(MatrixError::InvalidStructure(_))));
        assert!(DenseMatrix::from_vec(usize::MAX, 2, vec![]).is_err());
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
