//! # em-linalg
//!
//! Dense linear-algebra kernels for the CREW entity-matching explainer
//! reproduction: matrices, Cholesky/ridge solvers, Householder QR,
//! randomized truncated SVD (for PPMI word embeddings) and the descriptive
//! statistics used by the evaluation metrics.
//!
//! The crate is intentionally self-contained (no BLAS bindings) so the
//! whole reproduction builds offline; sizes are small (≤ a few thousand
//! rows), so straightforward loops are fast enough.
//!
//! ```
//! use em_linalg::{Matrix, ridge};
//! // y = 2*x0 + 1
//! let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
//! let fit = ridge(&x, &[1.0, 3.0, 5.0], 1e-9).unwrap();
//! assert!((fit.coefficients[0] - 2.0).abs() < 1e-4);
//! assert!((fit.intercept - 1.0).abs() < 1e-4);
//! ```

// Index-based loops are kept where they mirror the textbook formulation
// of the numeric kernels; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
pub mod kernels;
pub mod matrix;
pub mod qr;
pub mod solve;
pub mod sparse;
pub mod stats;
pub mod svd;

pub use kernels::{axpy, cosine, dot, dot_columns, norm2};
pub use matrix::{sq_dist, Matrix};
pub use solve::{cholesky, ridge, ridge_regression, solve_spd, RidgeFit};
pub use sparse::SparseMatrix;
pub use svd::{randomized_svd, randomized_svd_sparse, symmetric_eigen, SvdOptions, TruncatedSvd};

/// Errors surfaced by the numeric kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A square matrix was required.
    NotSquare { rows: usize, cols: usize },
    /// Cholesky hit a non-positive pivot.
    NotPositiveDefinite { pivot: usize, value: f64 },
    /// A vector length did not match the matrix dimension.
    DimensionMismatch { expected: usize, got: usize },
    /// Sample weights were negative, non-finite or all zero.
    InvalidWeights,
    /// Ridge penalty was negative.
    InvalidLambda(f64),
    /// An operation was requested on an empty matrix.
    EmptyMatrix,
    /// Requested SVD rank was zero.
    InvalidRank(usize),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "expected a square matrix, got {rows}x{cols}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(
                    f,
                    "matrix is not positive definite (pivot {pivot} = {value})"
                )
            }
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            LinalgError::InvalidWeights => {
                write!(
                    f,
                    "sample weights must be non-negative, finite and not all zero"
                )
            }
            LinalgError::InvalidLambda(l) => {
                write!(f, "ridge penalty must be non-negative, got {l}")
            }
            LinalgError::EmptyMatrix => write!(f, "operation requires a non-empty matrix"),
            LinalgError::InvalidRank(k) => write!(f, "invalid SVD rank {k}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod proptests {
    use super::*;
    use propcheck::prelude::*;

    fn small_vec() -> impl Strategy<Value = Vec<f64>> {
        propcheck::collection::vec(-100.0f64..100.0, 2..20)
    }

    /// The naive sequential reduction the accumulation-order policy in
    /// [`kernels::dot`] is measured against.
    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    proptest! {
        #[test]
        fn unrolled_dot_within_documented_tolerance(a in small_vec(), b in small_vec()) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let fast = dot(a, b);
            let slow = naive_dot(a, b);
            let mag: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x * y).abs()).sum();
            let tol = 4.0 * n as f64 * f64::EPSILON * mag;
            prop_assert!(
                (fast - slow).abs() <= tol,
                "dot reassociation out of tolerance: {fast} vs {slow} (tol {tol})"
            );
            // The lane order is fixed: repeated calls are bitwise stable.
            prop_assert_eq!(fast.to_bits(), dot(a, b).to_bits());
        }

        #[test]
        fn unrolled_cosine_tracks_naive_reference(a in small_vec(), b in small_vec()) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let fast = cosine(a, b);
            let (na, nb) = (naive_dot(a, a).sqrt(), naive_dot(b, b).sqrt());
            let slow = if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                (naive_dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
            };
            // Cosine is normalised, so the reassociation error collapses
            // to a few ulps regardless of input magnitude.
            prop_assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
        }

        #[test]
        fn matvec_into_matches_matvec_bitwise(
            rows in 1usize..8,
            cols in 1usize..10,
            seed in 0u64..1000,
        ) {
            use em_rngs::{Rng, SeedableRng};
            let mut rng = em_rngs::rngs::StdRng::seed_from_u64(seed);
            let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-10.0..10.0));
            let v: Vec<f64> = (0..cols).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let fresh = m.matvec(&v);
            // A dirty, wrongly-sized buffer must be fully overwritten.
            let mut buf = vec![f64::NAN; 3];
            m.matvec_into(&v, &mut buf);
            prop_assert_eq!(buf.len(), rows);
            for (x, y) in buf.iter().zip(&fresh) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // And each entry obeys the documented dot tolerance.
            for (i, y) in fresh.iter().enumerate() {
                let slow = naive_dot(m.row(i), &v);
                let mag: f64 = m.row(i).iter().zip(&v).map(|(x, y)| (x * y).abs()).sum();
                let tol = 4.0 * cols as f64 * f64::EPSILON * mag;
                prop_assert!((y - slow).abs() <= tol);
            }
        }

        #[test]
        fn cosine_is_bounded(a in small_vec(), b in small_vec()) {
            let n = a.len().min(b.len());
            let c = cosine(&a[..n], &b[..n]);
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn ranks_are_a_permutation_average(xs in small_vec()) {
            let r = stats::ranks(&xs);
            // Fractional ranks always sum to n(n+1)/2.
            let n = xs.len() as f64;
            let sum: f64 = r.iter().sum();
            prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
        }

        #[test]
        fn spearman_is_bounded(xs in small_vec()) {
            let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 - 1.0).collect();
            let s = stats::spearman(&xs, &ys);
            prop_assert!((-1.0..=1.0).contains(&s));
        }

        #[test]
        fn ridge_fit_is_finite(rows in 3usize..12, cols in 1usize..4, seed in 0u64..1000) {
            use em_rngs::{Rng, SeedableRng};
            let mut rng = em_rngs::rngs::StdRng::seed_from_u64(seed);
            let x = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
            let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let fit = ridge(&x, &y, 0.01).unwrap();
            prop_assert!(fit.coefficients.iter().all(|c| c.is_finite()));
            prop_assert!(fit.intercept.is_finite());
            prop_assert!(fit.r_squared.is_finite());
        }

        #[test]
        fn solve_spd_inverts_gram_systems(n in 1usize..6, seed in 0u64..500) {
            use em_rngs::{Rng, SeedableRng};
            let mut rng = em_rngs::rngs::StdRng::seed_from_u64(seed);
            let m = Matrix::from_fn(n + 2, n, |_, _| rng.gen_range(-1.0..1.0));
            let mut a = m.gram();
            for i in 0..n { a[(i, i)] += 1.0; } // ensure SPD
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = a.matvec(&x_true);
            let x = solve_spd(&a, &b).unwrap();
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-6);
            }
        }
    }
}
