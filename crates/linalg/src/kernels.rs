//! Four-lane reduction kernels.
//!
//! Every dot-shaped reduction in the workspace funnels into this module,
//! and each kernel has exactly one implementation: unrolled scalar loops
//! over four independent accumulators. The accumulation-order policy is
//! the workspace-wide contract (DESIGN.md, "Hot kernels"):
//!
//! - lane `l` accumulates `Σ_k a[4k+l]·b[4k+l]`;
//! - the lanes combine as `(s0+s2)+(s1+s3)`;
//! - the `len % 4` tail is added sequentially.
//!
//! [`dot_columns`] applies the same order to the rows of a column-major
//! matrix. The order is fixed, so the same inputs give the same bits on
//! every call and at every thread count. It reassociates the sum relative
//! to a naive sequential loop, so results may differ from a textbook
//! reference by `O(n · ε · Σ|aᵢbᵢ|)` (the property suite pins this
//! bound). The tests below pin the policy itself bitwise at every length
//! 0..=12.

/// Dot product of two equal-length slices under the four-lane policy.
///
/// Every dot-shaped reduction in the workspace (matvec, cosine,
/// logistic/MLP forward passes, ridge) goes through this one kernel, so
/// internal bitwise contracts — batch ≡ scalar prediction, thread
/// invariance, store ≡ fresh — are unaffected by the reassociation.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut sum = (s0 + s2) + (s1 + s3);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += x * y;
    }
    sum
}

/// [`dot`] of `a` with every row of a column-major matrix, bit for bit:
/// `out[i] = dot(a, row_i)` where `row_i[j] = columns[j][i]`. It replays
/// `dot`'s lane order one column at a time over blocks of rows, so each
/// column is one pass over contiguous memory. A short `dot` per gathered
/// row gives the same bits but made CREW's model selection 1.75× slower
/// (DESIGN.md, "Incremental surrogate sweep").
///
/// # Panics
/// Panics if `a` and `columns` differ in length, or a column is shorter
/// than `out`.
pub fn dot_columns(a: &[f64], columns: &[&[f64]], out: &mut [f64]) {
    const ROWS: usize = 64;
    assert_eq!(a.len(), columns.len(), "dot_columns: length mismatch");
    let full = a.len() / 4 * 4;
    for (block, out) in out.chunks_mut(ROWS).enumerate() {
        let rows = block * ROWS..block * ROWS + out.len();
        let mut lanes = [[0.0f64; ROWS]; 4];
        for (j, (&c, column)) in a[..full].iter().zip(columns).enumerate() {
            for (s, &v) in lanes[j % 4].iter_mut().zip(&column[rows.clone()]) {
                *s += c * v;
            }
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = (lanes[0][i] + lanes[2][i]) + (lanes[1][i] + lanes[3][i]);
        }
        for (&c, column) in a[full..].iter().zip(&columns[full..]) {
            for (o, &v) in out.iter_mut().zip(&column[rows.clone()]) {
                *o += c * v;
            }
        }
    }
}

/// Euclidean norm of a slice (inherits [`dot`]'s lane order).
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Cosine similarity; 0.0 when either vector has zero norm. Three
/// separate [`dot`] passes (`a·a`, `b·b`, `a·b`): a fused one-pass loop
/// measured no faster (DESIGN.md, "Hot kernels").
///
/// # Panics
/// Panics if lengths differ.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine: length mismatch");
    let na = norm2(a);
    let nb = norm2(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// `y[i] += s * x[i]` over equal-length slices. Element-wise (no
/// reduction): one IEEE multiply and one IEEE add per element. Every
/// strip-accumulation loop in the workspace (dense `matmul`,
/// `tr_matvec`, Gram updates, sparse·dense tiles, attention context
/// vectors) routes through this one kernel.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(s: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (o, &v) in y.iter_mut().zip(x) {
        *o += s * v;
    }
}

/// Numerically-stable softmax into a caller buffer (cleared first), for
/// hot loops that evaluate many distributions without reallocating.
/// Four-lane policy:
///
/// 1. **max** — lane `l` tracks `max` over `xs[4k+l]` by strict-`>`
///    selection (`if x > m { m = x }`, so a NaN never replaces a lane
///    maximum); the four lane maxima are folded sequentially in lane
///    order 0..3, then the tail. Selection, not arithmetic, so a ±0.0
///    lane choice is value-neutral in the `(x - max).exp()` shift that
///    consumes it.
/// 2. **exp** — element-wise `(x - max).exp()`.
/// 3. **normalise** — the sum of exponentials uses [`dot`]'s four-lane
///    accumulation policy; the final divide is element-wise.
///
/// Empty input clears `out` and returns.
pub fn softmax_into(xs: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if xs.is_empty() {
        return;
    }
    let m = max4(xs);
    out.extend(xs.iter().map(|x| (x - m).exp()));
    let s = sum4(out);
    for e in out.iter_mut() {
        *e /= s;
    }
}

/// Four-lane maximum: lane `l` folds `xs[4k+l]` by strict-`>` selection,
/// lanes combine sequentially 0..3, tail appended sequentially.
#[inline]
fn max4(xs: &[f64]) -> f64 {
    let mut chunks = xs.chunks_exact(4);
    let mut m = [f64::NEG_INFINITY; 4];
    for x in &mut chunks {
        for l in 0..4 {
            if x[l] > m[l] {
                m[l] = x[l];
            }
        }
    }
    let mut best = f64::NEG_INFINITY;
    for &lane in &m {
        if lane > best {
            best = lane;
        }
    }
    for &x in chunks.remainder() {
        if x > best {
            best = x;
        }
    }
    best
}

/// Four-lane sum with [`dot`]'s combine order (`(s0+s2)+(s1+s3)` + tail).
#[inline]
fn sum4(xs: &[f64]) -> f64 {
    let mut chunks = xs.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for x in &mut chunks {
        s0 += x[0];
        s1 += x[1];
        s2 += x[2];
        s3 += x[3];
    }
    let mut sum = (s0 + s2) + (s1 + s3);
    for &x in chunks.remainder() {
        sum += x;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_rngs::{Rng, SeedableRng};

    /// The documented policy written out longhand: per-lane sums over
    /// `4k+l`, then `(s0+s2)+(s1+s3)`, then the tail in order.
    fn policy_sum(terms: &[f64]) -> f64 {
        let full = terms.len() / 4 * 4;
        let mut s = [0.0f64; 4];
        for (i, &t) in terms[..full].iter().enumerate() {
            s[i % 4] += t;
        }
        let mut sum = (s[0] + s[2]) + (s[1] + s[3]);
        for &t in &terms[full..] {
            sum += t;
        }
        sum
    }

    /// The documented max policy: strict-`>` per lane, lanes folded 0..3,
    /// then the tail.
    fn policy_max(xs: &[f64]) -> f64 {
        let full = xs.len() / 4 * 4;
        let mut m = [f64::NEG_INFINITY; 4];
        for (i, &x) in xs[..full].iter().enumerate() {
            if x > m[i % 4] {
                m[i % 4] = x;
            }
        }
        let mut best = f64::NEG_INFINITY;
        for x in m.into_iter().chain(xs[full..].iter().copied()) {
            if x > best {
                best = x;
            }
        }
        best
    }

    fn products(a: &[f64], b: &[f64]) -> Vec<f64> {
        a.iter().zip(b).map(|(x, y)| x * y).collect()
    }

    #[test]
    fn scalar_dot_matches_documented_policy() {
        // Magnitudes spread over many decades make float addition order
        // visible in the bits, so a reordered kernel cannot pass by luck.
        let mut rng = em_rngs::rngs::StdRng::seed_from_u64(0x4c41_4e45);
        let (mut dot_order_seen, mut sum_order_seen) = (false, false);
        for n in 0..=12 {
            let mut wide = || rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-6..6));
            let a: Vec<f64> = (0..n).map(|_| wide()).collect();
            let b: Vec<f64> = (0..n).map(|_| wide()).collect();

            let ab = policy_sum(&products(&a, &b));
            assert_eq!(dot(&a, &b).to_bits(), ab.to_bits(), "dot, n={n}");
            let sequential: f64 = products(&a, &b).iter().sum();
            dot_order_seen |= sequential.to_bits() != ab.to_bits();

            let (na, nb) = (
                policy_sum(&products(&a, &a)).sqrt(),
                policy_sum(&products(&b, &b)).sqrt(),
            );
            let cos = if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                (ab / (na * nb)).clamp(-1.0, 1.0)
            };
            assert_eq!(cosine(&a, &b).to_bits(), cos.to_bits(), "cosine, n={n}");

            // Logits whose exponentials spread over ~14 decades.
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-16.0..16.0)).collect();
            let mut out = vec![f64::NAN; 3];
            softmax_into(&xs, &mut out);
            assert_eq!(out.len(), n);
            if n == 0 {
                continue;
            }
            let m = policy_max(&xs);
            assert_eq!(max4(&xs).to_bits(), m.to_bits(), "max, n={n}");
            let exps: Vec<f64> = xs.iter().map(|x| (x - m).exp()).collect();
            let s = policy_sum(&exps);
            assert_eq!(sum4(&exps).to_bits(), s.to_bits(), "sum, n={n}");
            sum_order_seen |= exps.iter().sum::<f64>().to_bits() != s.to_bits();
            for (got, e) in out.iter().zip(&exps) {
                assert_eq!(got.to_bits(), (e / s).to_bits(), "softmax, n={n}");
            }
        }
        assert!(
            dot_order_seen && sum_order_seen,
            "inputs too tame to expose lane order"
        );
    }

    #[test]
    fn dot_columns_matches_dot_row_by_row() {
        let mut rng = em_rngs::rngs::StdRng::seed_from_u64(0x636f_6c73);
        for k in 0..=12 {
            for n in [0, 1, 5, 63, 64, 65, 130] {
                let mut wide = || rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-6..6));
                let a: Vec<f64> = (0..k).map(|_| wide()).collect();
                let columns: Vec<Vec<f64>> =
                    (0..k).map(|_| (0..n).map(|_| wide()).collect()).collect();
                let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
                let mut out = vec![f64::NAN; n];
                dot_columns(&a, &views, &mut out);
                for (i, got) in out.iter().enumerate() {
                    let row: Vec<f64> = columns.iter().map(|c| c[i]).collect();
                    assert_eq!(got.to_bits(), dot(&a, &row).to_bits(), "k={k} n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn softmax_handles_empty_and_singleton() {
        let mut out = vec![f64::NAN; 3];
        softmax_into(&[], &mut out);
        assert!(out.is_empty());
        softmax_into(&[42.0], &mut out);
        assert_eq!(out, vec![1.0]);
    }
}
