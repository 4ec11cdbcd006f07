//! Descriptive statistics and rank correlations used by the evaluation
//! metrics (stability, agreement, significance summaries).

pub use crate::kernels::softmax_into;

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for slices with fewer than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median (average of middle two for even lengths); 0.0 for empty input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Linear-interpolation percentile, `p` in `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Pearson correlation coefficient; 0.0 when either side is constant.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= f64::EPSILON || vy <= f64::EPSILON {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
}

/// Fractional ranks (average rank for ties), 1-based.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap());
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson on fractional ranks).
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman: length mismatch");
    pearson(&ranks(xs), &ranks(ys))
}

/// Kendall tau-b rank correlation, handling ties.
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "kendall_tau: length mismatch");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            if dx == 0.0 && dy == 0.0 {
                // tied in both: contributes to neither
            } else if dx == 0.0 {
                ties_x += 1;
            } else if dy == 0.0 {
                ties_y += 1;
            } else if dx * dy > 0.0 {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_x) as f64) * ((n0 - ties_y) as f64)).sqrt();
    if denom <= 0.0 {
        return 0.0;
    }
    ((concordant - discordant) as f64 / denom).clamp(-1.0, 1.0)
}

/// Min-max normalisation into `[0, 1]`; constant input maps to all 0.5.
pub fn min_max_normalize(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() <= f64::EPSILON {
        return vec![0.5; xs.len()];
    }
    xs.iter().map(|x| (x - lo) / (hi - lo)).collect()
}

/// Softmax with max-subtraction for numerical stability.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    softmax_into(xs, &mut out);
    out
}

/// Two-sided paired sign test p-value: under H0 (no difference), the
/// number of positive differences among non-zero differences is
/// Binomial(n, 1/2). Returns 1.0 when all differences are zero.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sign_test(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sign_test: length mismatch");
    let mut pos = 0u32;
    let mut n = 0u32;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            pos += 1;
            n += 1;
        } else if x < y {
            n += 1;
        }
    }
    if n == 0 {
        return 1.0;
    }
    // Two-sided: 2 * P(X <= min(pos, n-pos)), capped at 1.
    let k = pos.min(n - pos);
    let mut cdf = 0.0;
    for i in 0..=k {
        cdf += binomial_pmf(n, i, 0.5);
    }
    (2.0 * cdf).min(1.0)
}

fn binomial_pmf(n: u32, k: u32, p: f64) -> f64 {
    // Log-space to survive n in the hundreds.
    let ln = |x: u32| -> f64 { (1..=x).map(|i| (i as f64).ln()).sum() };
    let log_c = ln(n) - ln(k) - ln(n - k);
    (log_c + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// Percentile bootstrap confidence interval for the mean of paired
/// differences `a[i] − b[i]`. Deterministic for a given seed. Returns
/// `(lo, hi)` at the given confidence level (e.g. 0.95).
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn paired_bootstrap_ci(
    a: &[f64],
    b: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "paired_bootstrap_ci: length mismatch");
    assert!(!a.is_empty(), "paired_bootstrap_ci: empty input");
    assert!((0.0..1.0).contains(&confidence) && confidence > 0.0);
    use em_rngs::{Rng, SeedableRng};
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let mut rng = em_rngs::rngs::StdRng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples.max(1) {
        let mut sum = 0.0;
        for _ in 0..diffs.len() {
            sum += diffs[rng.gen_range(0..diffs.len())];
        }
        means.push(sum / diffs.len() as f64);
    }
    let alpha = (1.0 - confidence) / 2.0;
    (
        percentile(&means, alpha * 100.0),
        percentile(&means, (1.0 - alpha) * 100.0),
    )
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 25.0), 2.5);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_known_values() {
        let x = [1.0, 2.0, 3.0];
        assert!((kendall_tau(&x, &[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&x, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_normalize_bounds() {
        let v = min_max_normalize(&[5.0, 10.0, 7.5]);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 1.0);
        assert_eq!(v[2], 0.5);
        assert_eq!(min_max_normalize(&[3.0, 3.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        let q = softmax(&[0.0, 1.0, 2.0]);
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(q[2] > q[1] && q[1] > q[0]);
    }

    #[test]
    fn sign_test_detects_consistent_difference() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let b: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        let p = sign_test(&a, &b);
        assert!(p < 0.01, "consistent win should be significant, p = {p}");
    }

    #[test]
    fn sign_test_neutral_cases() {
        assert_eq!(sign_test(&[1.0, 1.0], &[1.0, 1.0]), 1.0);
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 1.0, 4.0, 3.0]; // 2 wins, 2 losses
        let p = sign_test(&a, &b);
        assert!(p > 0.5, "balanced wins should be insignificant, p = {p}");
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=20).map(|k| binomial_pmf(20, k, 0.5)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((binomial_pmf(4, 2, 0.5) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_ci_brackets_the_true_difference() {
        let a: Vec<f64> = (0..40).map(|i| 1.0 + 0.01 * i as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| 0.5 + 0.01 * i as f64).collect();
        let (lo, hi) = paired_bootstrap_ci(&a, &b, 0.95, 500, 7);
        assert!(lo <= 0.5 && 0.5 <= hi, "CI [{lo}, {hi}] must contain 0.5");
        assert!(
            lo > 0.4 && hi < 0.6,
            "CI [{lo}, {hi}] too wide for zero-variance diffs"
        );
    }

    #[test]
    fn bootstrap_ci_is_deterministic() {
        let a = [1.0, 2.0, 3.0, 2.5];
        let b = [0.5, 2.5, 2.0, 2.0];
        let x = paired_bootstrap_ci(&a, &b, 0.9, 200, 3);
        let y = paired_bootstrap_ci(&a, &b, 0.9, 200, 3);
        assert_eq!(x, y);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(1000.0) <= 1.0);
    }
}
