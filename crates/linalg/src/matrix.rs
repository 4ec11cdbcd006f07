//! Dense row-major matrix with the small set of operations the explainer
//! stack needs: products, transposes, slicing and norms.

pub use crate::kernels::{cosine, dot, norm2};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major `f64` matrix.
///
/// The type is deliberately small: the CREW stack only needs dense kernels on
/// matrices of at most a few thousand rows (perturbation samples × words), so
/// a `Vec<f64>` backing store with explicit loops is simpler and fast enough.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Create a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: the innermost loop walks contiguous memory in both
        // `other` and `out`, which matters for the perturbation design
        // matrices (hundreds of rows). The zero-skip must stay: dropping it
        // would turn stored -0.0 outputs into +0.0 and break the bitwise
        // agreement with the sparse kernels.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                crate::kernels::axpy(a, other.row(k), out.row_mut(i));
            }
        }
        out
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows);
        self.matvec_into(v, &mut out);
        out
    }

    /// Matrix-vector product into a caller-provided buffer — the
    /// allocation-free core of [`Matrix::matvec`] (which is now a thin
    /// wrapper). `out` is cleared and refilled with one [`dot`] per row,
    /// so both entry points produce identical bits.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.cols, "vector length must equal cols");
        out.clear();
        out.extend((0..self.rows).map(|i| dot(self.row(i), v)));
    }

    /// `self^T * v` without materialising the transpose.
    pub fn tr_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length must equal rows");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let w = v[i];
            if w == 0.0 {
                continue;
            }
            crate::kernels::axpy(w, self.row(i), &mut out);
        }
        out
    }

    /// Gram matrix `self^T * self`, exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                crate::kernels::axpy(a, &row[i..], &mut g.row_mut(i)[i..]);
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Weighted Gram matrix `self^T * diag(w) * self`.
    ///
    /// # Panics
    /// Panics if `w.len() != self.rows()`.
    pub fn weighted_gram(&self, w: &[f64]) -> Matrix {
        assert_eq!(w.len(), self.rows, "weight length must equal rows");
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let wr = w[r];
            if wr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for i in 0..n {
                let a = wr * row[i];
                if a == 0.0 {
                    continue;
                }
                crate::kernels::axpy(a, &row[i..], &mut g.row_mut(i)[i..]);
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Elementwise scale in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Add `s * other` in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: f64, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        crate::kernels::axpy(s, &other.data, &mut self.data);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// True if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Squared Euclidean distance.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_shape_and_is_zero() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_round_trips_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = Matrix::from_rows(&[vec![1.0, -1.0, 2.0], vec![0.5, 0.0, 3.0]]);
        let v = vec![2.0, 1.0, -1.0];
        assert_eq!(m.matvec(&v), vec![-1.0, -2.0]);
    }

    #[test]
    fn tr_matvec_matches_transpose_matvec() {
        let m = Matrix::from_fn(4, 3, |i, j| (i + j) as f64 * 0.5 - 1.0);
        let v = vec![1.0, -2.0, 0.5, 3.0];
        let a = m.tr_matvec(&v);
        let b = m.transpose().matvec(&v);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_is_symmetric_and_matches_explicit() {
        let m = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).sin());
        let g = m.gram();
        let explicit = m.transpose().matmul(&m);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_gram_with_unit_weights_equals_gram() {
        let m = Matrix::from_fn(4, 3, |i, j| (i as f64 - j as f64) * 0.3);
        let g = m.gram();
        let wg = m.weighted_gram(&[1.0; 4]);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - wg[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_gram_zero_weight_drops_row() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![100.0, 100.0]]);
        let wg = m.weighted_gram(&[1.0, 0.0]);
        assert_eq!(wg[(0, 0)], 1.0);
        assert_eq!(wg[(0, 1)], 2.0);
        assert_eq!(wg[(1, 1)], 4.0);
    }

    #[test]
    fn cosine_basic_properties() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 2.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::identity(2);
        a.axpy(2.0, &b);
        a.scale(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }
}
