//! Compressed-sparse-row matrices for the offline (corpus) stage.
//!
//! The PPMI co-occurrence matrix is a sparse object — a vocabulary of V
//! words has V² dense entries but only as many nonzeros as observed
//! co-occurrence pairs — yet the seed pipeline materialised it densely and
//! paid O(V²·sketch) per randomized-SVD matvec. This module stores it in
//! CSR form and provides the sparse·dense kernels the SVD needs, at
//! O(nnz·sketch) per product.
//!
//! ## Determinism
//!
//! Construction sorts triplets by `(row, col, value-bits)` before
//! coalescing, so the layout — and therefore every accumulation order
//! downstream — is independent of the order triplets were produced in
//! (e.g. hash-map iteration order). The parallel kernels assign each
//! output *row* to exactly one task, so results are bitwise-identical at
//! any thread count.
//!
//! ## Bitwise agreement with the dense kernels
//!
//! [`Matrix::matmul`] skips zero left-hand entries, accumulating over the
//! inner index in ascending order. A CSR row stores exactly the nonzero
//! entries in ascending column order, so [`SparseMatrix::matmul_dense`]
//! performs the *same* sequence of non-trivial float operations and its
//! output is bitwise-identical to densifying first. The property suite in
//! `tests/` pins this down.

use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows handed to one pool task in the parallel sparse·dense product.
/// Small enough to load-balance ragged row lengths, large enough that the
/// per-task overhead stays invisible next to the row dot products.
const ROW_BLOCK: usize = 64;

/// Output-column tile width of the sparse·dense product. A row's stored
/// entries are replayed once per tile, so the out-row strip plus the hot
/// strips of `other` stay cache-resident when `other` is wide. Tiling
/// reorders nothing: each output cell still accumulates its products in
/// ascending stored-entry order, preserving the bitwise agreement with
/// the dense [`Matrix::matmul`] documented above.
const COL_BLOCK: usize = 128;

/// Dense-row-free CSR matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s slice of
    /// `col_idx`/`values`; length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column of each stored entry, ascending within a row.
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Build from `(row, col, value)` triplets in **any** order.
    ///
    /// Triplets are sorted by `(row, col, value bits)` and duplicates of
    /// the same cell are summed in that sorted order, so the result is
    /// identical no matter how the input was ordered. Exact-zero values
    /// (including coalesced sums that land on ±0.0) are dropped: the
    /// nonzero-only invariant is what makes the kernels bitwise-match
    /// their dense counterparts, which skip zero operands.
    ///
    /// # Panics
    /// Panics if a triplet indexes outside `rows × cols`.
    pub fn from_triplets(rows: usize, cols: usize, mut entries: Vec<(u32, u32, f64)>) -> Self {
        assert!(cols <= u32::MAX as usize, "column count exceeds u32 range");
        for &(r, c, _) in &entries {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "triplet ({r},{c}) outside {rows}x{cols}"
            );
        }
        entries.sort_unstable_by_key(|&(r, c, v)| (r, c, v.to_bits()));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut i = 0;
        while i < entries.len() {
            let (r, c, mut v) = entries[i];
            i += 1;
            while i < entries.len() && entries[i].0 == r && entries[i].1 == c {
                v += entries[i].2;
                i += 1;
            }
            if v != 0.0 {
                row_ptr[r as usize + 1] += 1;
                col_idx.push(c);
                values.push(v);
            }
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build from a dense matrix, keeping only nonzero entries.
    pub fn from_dense(a: &Matrix) -> Self {
        let mut entries = Vec::new();
        for i in 0..a.rows() {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 {
                    entries.push((i as u32, j as u32, v));
                }
            }
        }
        SparseMatrix::from_triplets(a.rows(), a.cols(), entries)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `i` as parallel `(columns, values)` slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Entry at `(i, j)`; zero when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Densify (tests and small-matrix interop).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                m[(i, c as usize)] = v;
            }
        }
        m
    }

    /// CSR transpose via a counting sort over columns — deterministic and
    /// O(nnz + rows + cols). Row `c` of the result stores column `c` of
    /// `self` with entries in ascending original-row order, which is
    /// exactly the accumulation order the dense transposed product uses.
    pub fn transpose(&self) -> SparseMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = next[c as usize];
                col_idx[slot] = r as u32;
                values[slot] = v;
                next[c as usize] += 1;
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Matrix-vector product: each row accumulates its stored entries in
    /// ascending column order.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must equal cols");
        (0..self.rows)
            .map(|i| {
                let (cols, vals) = self.row(i);
                let mut acc = 0.0;
                for (&c, &x) in cols.iter().zip(vals) {
                    acc += x * v[c as usize];
                }
                acc
            })
            .collect()
    }

    /// Sparse·dense product `self * other`, parallelised over row blocks
    /// on the shared worker pool when `threads > 1`. Each output row is
    /// produced by exactly one task, so the result is bitwise-identical
    /// at any thread count — and bitwise-identical to
    /// `self.to_dense().matmul(other)` (see module docs).
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_dense(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, other.rows(), "inner dimensions must agree");
        let out_cols = other.cols();
        let fill_row = |i: usize, out_row: &mut [f64]| {
            let (cols, vals) = self.row(i);
            let mut c0 = 0;
            while c0 < out_cols {
                let c1 = (c0 + COL_BLOCK).min(out_cols);
                for (&c, &v) in cols.iter().zip(vals) {
                    let orow = &other.row(c as usize)[c0..c1];
                    crate::kernels::axpy(v, orow, &mut out_row[c0..c1]);
                }
                c0 = c1;
            }
        };
        let pool = em_pool::global();
        if threads <= 1 || pool.workers() == 0 || self.rows <= ROW_BLOCK {
            let mut out = Matrix::zeros(self.rows, out_cols);
            for i in 0..self.rows {
                fill_row(i, out.row_mut(i));
            }
            return out;
        }
        // f64 bit-patterns behind atomics: blocks write disjoint rows, and
        // the atomic store keeps the fan-out free of unsafe aliasing (the
        // same idiom as the perturbation engine's response slots).
        let cells: Vec<AtomicU64> = (0..self.rows * out_cols)
            .map(|_| AtomicU64::new(0))
            .collect();
        let n_blocks = self.rows.div_ceil(ROW_BLOCK);
        pool.run(n_blocks, threads, &|b| {
            let start = b * ROW_BLOCK;
            let end = (start + ROW_BLOCK).min(self.rows);
            let mut buf = vec![0.0f64; out_cols];
            for i in start..end {
                buf.iter_mut().for_each(|x| *x = 0.0);
                fill_row(i, &mut buf);
                for (cell, &x) in cells[i * out_cols..(i + 1) * out_cols].iter().zip(&buf) {
                    cell.store(x.to_bits(), Ordering::Relaxed);
                }
            }
        });
        Matrix::from_vec(
            self.rows,
            out_cols,
            cells
                .into_iter()
                .map(|c| f64::from_bits(c.into_inner()))
                .collect(),
        )
    }

    /// Frobenius norm over stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> SparseMatrix {
        // 3x4:  [1 0 2 0]
        //       [0 0 0 0]
        //       [0 3 0 4]
        SparseMatrix::from_triplets(
            3,
            4,
            vec![(2, 3, 4.0), (0, 0, 1.0), (2, 1, 3.0), (0, 2, 2.0)],
        )
    }

    #[test]
    fn triplet_order_does_not_matter() {
        let a = example();
        let b = SparseMatrix::from_triplets(
            3,
            4,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 3, 4.0)],
        );
        assert_eq!(a, b);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 1), 0.0);
    }

    #[test]
    fn duplicates_coalesce_and_zeros_drop() {
        let a = SparseMatrix::from_triplets(2, 2, vec![(0, 0, 1.5), (0, 0, 0.5), (1, 1, 0.0)]);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.nnz(), 1);
        // A pair summing to zero is dropped too.
        let b = SparseMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (0, 1, -1.0)]);
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn dense_round_trip() {
        let a = example();
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(2, 3)], 4.0);
        assert_eq!(SparseMatrix::from_dense(&d), a);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = example();
        let t = a.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.to_dense(), a.to_dense().transpose());
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = example();
        let v = vec![1.0, -1.0, 0.5, 2.0];
        assert_eq!(a.matvec(&v), a.to_dense().matvec(&v));
    }

    #[test]
    fn matmul_dense_matches_dense_bitwise() {
        let a = example();
        let b = Matrix::from_fn(4, 3, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
        let sparse = a.matmul_dense(&b, 1);
        let dense = a.to_dense().matmul(&b);
        assert_eq!(sparse.rows(), dense.rows());
        for (x, y) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_thread_count_invariant() {
        // Big enough to cross the ROW_BLOCK threshold.
        let n = 3 * ROW_BLOCK + 7;
        let entries: Vec<(u32, u32, f64)> = (0..n)
            .flat_map(|i| {
                [
                    (i as u32, (i % 17) as u32, (i as f64 * 0.7).cos()),
                    (i as u32, ((i * 5) % 23) as u32, (i as f64 * 0.3).sin()),
                ]
            })
            .collect();
        let a = SparseMatrix::from_triplets(n, 23, entries);
        let b = Matrix::from_fn(23, 8, |i, j| ((i + 2 * j) as f64).cos());
        let serial = a.matmul_dense(&b, 1);
        let parallel = a.matmul_dense(&b, 4);
        for (x, y) in serial.as_slice().iter().zip(parallel.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = SparseMatrix::from_triplets(3, 3, vec![]);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.matvec(&[1.0, 2.0, 3.0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(a.frobenius_norm(), 0.0);
    }
}
