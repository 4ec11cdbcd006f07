//! Local surrogate fitting: the LIME-style weighted ridge regression that
//! converts a perturbation sample into word-level (or cluster-level)
//! attributions.

use crate::perturb::PerturbationSet;
use em_linalg::{dot, dot_columns, solve_spd, LinalgError, Matrix};
use em_matchers::ScratchPool;
use std::collections::HashMap;

/// Kernel and regularisation settings of the surrogate.
#[derive(Debug, Clone, Copy)]
pub struct SurrogateOptions {
    /// Exponential kernel width on mask distance (fraction of words
    /// dropped); LIME's default shape `exp(-d²/w²)`.
    pub kernel_width: f64,
    /// Ridge penalty.
    pub lambda: f64,
}

impl Default for SurrogateOptions {
    fn default() -> Self {
        SurrogateOptions {
            kernel_width: 0.75,
            lambda: 1e-3,
        }
    }
}

/// Result of a surrogate fit.
#[derive(Debug, Clone)]
pub struct SurrogateFit {
    /// One signed weight per feature (word or cluster).
    pub weights: Vec<f64>,
    /// Intercept of the local linear model.
    pub intercept: f64,
    /// Weighted R² on the perturbation sample.
    pub r_squared: f64,
}

/// Proximity weight of a sample given the fraction of words it kept.
pub fn kernel_weight(kept_fraction: f64, width: f64) -> f64 {
    let dropped = 1.0 - kept_fraction;
    (-(dropped * dropped) / (width * width)).exp()
}

/// Fit a word-level surrogate: design matrix = binary keep indicators.
/// A one-cut [`GroupSweep`] over the singleton groups, whose kept
/// fractions are exactly those indicators.
pub fn fit_word_surrogate(
    set: &PerturbationSet,
    opts: &SurrogateOptions,
) -> Result<SurrogateFit, crate::ExplainError> {
    GroupSweep::new(set, opts).fit_words()
}

/// Fit a group-level surrogate: one feature per group, valued as the
/// fraction of the group's words kept in the sample. Groups are lists of
/// word indices; they need not cover all words (uncovered words are simply
/// not part of any feature).
///
/// A one-cut [`GroupSweep`]; bit-identical to `ridge_regression` on the
/// explicit kept-fraction design.
pub fn fit_group_surrogate(
    set: &PerturbationSet,
    groups: &[Vec<usize>],
    opts: &SurrogateOptions,
) -> Result<SurrogateFit, crate::ExplainError> {
    GroupSweep::new(set, opts).fit(groups)
}

/// Group-level surrogates for a sequence of partitions ("cuts") of one
/// perturbation sample, each bit-identical to `ridge_regression` on the
/// cut's explicit kept-fraction design, but with every piece computed
/// once:
///
/// - per sample set: kernel weights, `Σw`, the weighted mean `ȳ`,
///   `w·(y−ȳ)` and the total sum of squares;
/// - per distinct group (keyed by its member list): the kept-fraction
///   column, its weighted mean, the centred column `xc`, `w·xc` and the
///   right-hand-side entry `Σ w·(y−ȳ)·xc`;
/// - per ordered group pair: the Gram entry `Σ (w·xc_a)·xc_b`, summed
///   over samples in row order with `a` the group listed first — the
///   orientation `Matrix::weighted_gram` uses for the upper triangle.
///
/// A cut then only assembles its K×K system, adds λ, solves it, and
/// scores the intercept with `dot` and the weighted R² with
/// `dot_columns` (`dot` of every sample's row). Consecutive dendrogram cuts
/// share all but the groups one merge touches; labels numbered by first
/// appearance list a pair of groups in the same order in every cut, so
/// their Gram entry is reused too. The word-level fit is the cut of all
/// singletons, so CREW's sweep starts with it and hands its columns and
/// Gram entries on to the group cuts (DESIGN.md, "Offline pipeline" →
/// "Incremental surrogate sweep").
pub struct GroupSweep<'a> {
    set: &'a PerturbationSet,
    opts: SurrogateOptions,
    /// Per-sample terms, built by the first cut that gets past group
    /// validation (so error order matches a lone fit).
    terms: Option<SampleTerms>,
    /// Column id of each distinct group seen so far.
    column_of: HashMap<Vec<usize>, usize>,
    xmean: Vec<f64>,
    rhs: Vec<f64>,
    /// `gram[a][b]`: the entry of column `a` listed before column `b`.
    gram: Vec<Vec<Option<f64>>>,
    buffers: Buffers,
}

/// The sweep's sample-length buffers. A finished sweep returns them to
/// [`BUFFERS`], so the next one (the next explanation on this worker)
/// refills warm memory instead of growing, and faulting in, fresh heap.
#[derive(Default)]
struct Buffers {
    /// `masks[i][w]` over every sample `i`, word-major, filled for word
    /// `w` on its first use (`word_ready[w]`): a group's kept counts
    /// are then sums of contiguous rows.
    words: Vec<bool>,
    word_ready: Vec<bool>,
    kept: Vec<u32>,
    /// Kept-fraction, centred and weighted-centred columns, one sample
    /// per row, column ids back to back.
    x: Vec<f64>,
    xc: Vec<f64>,
    wxc: Vec<f64>,
    /// Per-cut `dot(β, x_i)` of every sample `i`.
    fitted: Vec<f64>,
}

static BUFFERS: ScratchPool<Buffers> = ScratchPool::new();

/// The per-sample half of `ridge_regression`, shared by every cut.
struct SampleTerms {
    weights: Vec<f64>,
    /// `w / Σw`: the weighted-mean coefficients.
    norm: Vec<f64>,
    ymean: f64,
    /// `(y − ȳ)·w`: the right-hand side's sample factors.
    wy: Vec<f64>,
    ss_tot: f64,
}

impl SampleTerms {
    /// `ridge_regression`'s validation and sample loops, in its order.
    fn new(set: &PerturbationSet, opts: &SurrogateOptions) -> Result<Self, LinalgError> {
        let n = set.len();
        let y = &set.responses;
        for got in [y.len(), set.kept_fraction.len()] {
            if got != n {
                return Err(LinalgError::DimensionMismatch { expected: n, got });
            }
        }
        let weights: Vec<f64> = set
            .kept_fraction
            .iter()
            .map(|&f| kernel_weight(f, opts.kernel_width))
            .collect();
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(LinalgError::InvalidWeights);
        }
        if opts.lambda < 0.0 {
            return Err(LinalgError::InvalidLambda(opts.lambda));
        }
        let wsum: f64 = weights.iter().sum();
        if wsum <= 0.0 {
            return Err(LinalgError::InvalidWeights);
        }
        let norm: Vec<f64> = weights.iter().map(|&w| w / wsum).collect();
        let mut ymean = 0.0;
        for (&w, &v) in norm.iter().zip(y) {
            ymean += w * v;
        }
        let wy = y
            .iter()
            .zip(&weights)
            .map(|(&v, &w)| (v - ymean) * w)
            .collect();
        let mut ss_tot = 0.0;
        for (&w, &v) in weights.iter().zip(y) {
            ss_tot += w * (v - ymean) * (v - ymean);
        }
        Ok(SampleTerms {
            weights,
            norm,
            ymean,
            wy,
            ss_tot,
        })
    }
}

impl<'a> GroupSweep<'a> {
    pub fn new(set: &'a PerturbationSet, opts: &SurrogateOptions) -> Self {
        GroupSweep {
            set,
            opts: *opts,
            terms: None,
            column_of: HashMap::new(),
            xmean: Vec::new(),
            rhs: Vec::new(),
            gram: Vec::new(),
            buffers: BUFFERS.take(),
        }
    }

    /// Distinct group columns computed so far.
    pub(crate) fn columns(&self) -> usize {
        self.xmean.len()
    }

    /// Fit the word-level surrogate: the cut of all singleton groups,
    /// whose kept fractions are the words' 0/1 keep indicators.
    pub(crate) fn fit_words(&mut self) -> Result<SurrogateFit, crate::ExplainError> {
        let n_words = self.set.masks.first().map_or(0, |m| m.len());
        if n_words == 0 || self.set.is_empty() {
            return Err(crate::ExplainError::EmptyPair);
        }
        let singletons: Vec<Vec<usize>> = (0..n_words).map(|w| vec![w]).collect();
        self.fit(&singletons)
    }

    /// Fit the surrogate of one cut; `groups` in label order. Errors
    /// exactly as [`fit_group_surrogate`] would on the same cut.
    pub fn fit(&mut self, groups: &[Vec<usize>]) -> Result<SurrogateFit, crate::ExplainError> {
        if groups.is_empty() {
            return Err(crate::ExplainError::NoGroups);
        }
        let n_words = self.set.masks.first().map_or(0, |m| m.len());
        for g in groups {
            if g.is_empty() {
                return Err(crate::ExplainError::NoGroups);
            }
            if g.iter().any(|&i| i >= n_words) {
                return Err(crate::ExplainError::GroupIndexOutOfRange);
            }
        }
        if self.opts.kernel_width <= 0.0 {
            return Err(crate::ExplainError::InvalidKernelWidth(
                self.opts.kernel_width,
            ));
        }
        if self.terms.is_none() {
            let terms =
                SampleTerms::new(self.set, &self.opts).map_err(crate::ExplainError::Linalg)?;
            self.terms = Some(terms);
            let b = &mut self.buffers;
            b.words.resize(n_words * self.set.len(), false);
            b.word_ready.resize(n_words, false);
        }

        let cols: Vec<usize> = groups.iter().map(|g| self.column(g)).collect();
        self.fill_gram(&cols);
        let k = cols.len();
        let mut gram = Matrix::zeros(k, k);
        for i in 0..k {
            for j in i..k {
                let v = self.gram[cols[i]][cols[j]].expect("filled above");
                gram[(i, j)] = v;
                gram[(j, i)] = v;
            }
            gram[(i, i)] += self.opts.lambda;
        }
        let rhs: Vec<f64> = cols.iter().map(|&c| self.rhs[c]).collect();
        let beta = solve_spd(&gram, &rhs).map_err(crate::ExplainError::Linalg)?;

        let terms = self.terms.as_ref().expect("built above");
        let xmean: Vec<f64> = cols.iter().map(|&c| self.xmean[c]).collect();
        let intercept = terms.ymean - dot(&beta, &xmean);
        let r_squared = if terms.ss_tot <= f64::EPSILON {
            // A constant response is perfectly described by the intercept.
            1.0
        } else {
            let (n, b) = (self.set.len(), &mut self.buffers);
            let columns: Vec<&[f64]> = cols.iter().map(|&c| &b.x[c * n..(c + 1) * n]).collect();
            b.fitted.resize(n, 0.0);
            dot_columns(&beta, &columns, &mut b.fitted);
            let mut ss_res = 0.0;
            for ((&w, &y), &f) in terms.weights.iter().zip(&self.set.responses).zip(&b.fitted) {
                let pred = intercept + f;
                ss_res += w * (y - pred) * (y - pred);
            }
            (1.0 - ss_res / terms.ss_tot).clamp(-1.0, 1.0)
        };
        Ok(SurrogateFit {
            weights: beta,
            intercept,
            r_squared,
        })
    }

    /// Column id of `group`, computing its column on first sight.
    fn column(&mut self, group: &[usize]) -> usize {
        if let Some(&c) = self.column_of.get(group) {
            return c;
        }
        let (set, n) = (self.set, self.set.len());
        let b = &mut self.buffers;
        b.kept.clear();
        b.kept.resize(n, 0);
        for &w in group {
            let word = &mut b.words[w * n..(w + 1) * n];
            if !b.word_ready[w] {
                for (bit, mask) in word.iter_mut().zip(&set.masks) {
                    *bit = mask[w];
                }
                b.word_ready[w] = true;
            }
            for (k, &bit) in b.kept.iter_mut().zip(word.iter()) {
                *k += u32::from(bit);
            }
        }
        let terms = self.terms.as_ref().expect("sample terms precede columns");
        let c = self.xmean.len();
        let start = b.x.len();
        let len = group.len() as f64;
        b.x.extend(b.kept.iter().map(|&k| f64::from(k) / len));
        let x = &b.x[start..];
        let mut xmean = 0.0;
        for (&w, &v) in terms.norm.iter().zip(x) {
            xmean += w * v;
        }
        b.xc.extend(x.iter().map(|&v| v - xmean));
        let xc = &b.xc[start..];
        b.wxc
            .extend(terms.weights.iter().zip(xc).map(|(&w, &v)| w * v));
        let mut rhs = 0.0;
        for (&s, &v) in terms.wy.iter().zip(xc) {
            rhs += s * v;
        }
        self.xmean.push(xmean);
        self.rhs.push(rhs);
        self.gram.push(Vec::new());
        self.column_of.insert(group.to_vec(), c);
        c
    }

    /// The Gram entries of a cut's columns (`cols` in label order) that
    /// no earlier cut computed. Entry `(a, b)`, `a` listed first, is
    /// `Σ (w·xc_a)·xc_b` over samples in row order, as in
    /// `Matrix::weighted_gram`; that kernel's skipping of zero terms
    /// cannot change such a sum (it starts at +0, never becomes -0, and
    /// every term is finite). Four entries share one pass over the rows,
    /// each in its own accumulator, so each keeps its own row order; one
    /// entry per pass made the word fit, which computes all n·(n+1)/2
    /// entries at once, 1.1–1.3× slower at 40–80 words.
    fn fill_gram(&mut self, cols: &[usize]) {
        let mut missing = Vec::new();
        for (i, &a) in cols.iter().enumerate() {
            let row = &mut self.gram[a];
            for &b in &cols[i..] {
                if row.len() <= b {
                    row.resize(b + 1, None);
                }
                if row[b].is_none() {
                    missing.push((a, b));
                }
            }
        }
        let n = self.set.len();
        let (wxc, xc) = (&self.buffers.wxc, &self.buffers.xc);
        for block in missing.chunks(4) {
            // Pad a short block with its last pair (recomputed, unused).
            let pairs: [(usize, usize); 4] = std::array::from_fn(|l| block[l.min(block.len() - 1)]);
            let wa = pairs.map(|(a, _)| &wxc[a * n..(a + 1) * n]);
            let xb = pairs.map(|(_, b)| &xc[b * n..(b + 1) * n]);
            let mut sum = [0.0f64; 4];
            for r in 0..n {
                for l in 0..4 {
                    sum[l] += wa[l][r] * xb[l][r];
                }
            }
            for (&(a, b), &v) in block.iter().zip(&sum) {
                self.gram[a][b] = Some(v);
            }
        }
    }
}

impl Drop for GroupSweep<'_> {
    fn drop(&mut self) {
        let mut b = std::mem::take(&mut self.buffers);
        for v in [&mut b.x, &mut b.xc, &mut b.wxc] {
            v.clear();
        }
        b.words.clear();
        b.word_ready.clear();
        BUFFERS.put(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_linalg::ridge_regression;
    use em_rngs::rngs::StdRng;
    use em_rngs::{Rng, SeedableRng};
    use propcheck::prelude::*;

    /// Build a synthetic perturbation set where the response is a known
    /// linear function of the mask.
    fn linear_set(
        n_words: usize,
        true_weights: &[f64],
        samples: usize,
        seed: u64,
    ) -> PerturbationSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut masks = vec![vec![true; n_words]];
        for _ in 0..samples {
            let mut m: Vec<bool> = (0..n_words).map(|_| rng.gen_bool(0.5)).collect();
            if m.iter().all(|&b| !b) {
                m[0] = true;
            }
            masks.push(m);
        }
        let responses: Vec<f64> = masks
            .iter()
            .map(|m| {
                0.1 + m
                    .iter()
                    .zip(true_weights)
                    .map(|(&b, &w)| if b { w } else { 0.0 })
                    .sum::<f64>()
            })
            .collect();
        let kept_fraction = masks
            .iter()
            .map(|m| m.iter().filter(|&&b| b).count() as f64 / n_words as f64)
            .collect();
        PerturbationSet {
            masks,
            responses,
            kept_fraction,
        }
    }

    /// `ridge_regression` on an explicit design, with the surrogate's
    /// kernel weights: the oracle every sweep result must match bit for
    /// bit, errors included.
    fn fit(
        set: &PerturbationSet,
        x: Matrix,
        opts: &SurrogateOptions,
    ) -> Result<SurrogateFit, crate::ExplainError> {
        if opts.kernel_width <= 0.0 {
            return Err(crate::ExplainError::InvalidKernelWidth(opts.kernel_width));
        }
        let weights: Vec<f64> = set
            .kept_fraction
            .iter()
            .map(|&f| kernel_weight(f, opts.kernel_width))
            .collect();
        let fit = ridge_regression(&x, &set.responses, &weights, opts.lambda)
            .map_err(crate::ExplainError::Linalg)?;
        Ok(SurrogateFit {
            weights: fit.coefficients,
            intercept: fit.intercept,
            r_squared: fit.r_squared,
        })
    }

    /// The explicit word fit: the N×n design of binary keep indicators.
    fn explicit_word_fit(
        set: &PerturbationSet,
        opts: &SurrogateOptions,
    ) -> Result<SurrogateFit, crate::ExplainError> {
        let n_words = set.masks.first().map_or(0, |m| m.len());
        if n_words == 0 || set.is_empty() {
            return Err(crate::ExplainError::EmptyPair);
        }
        let x = Matrix::from_fn(
            set.len(),
            n_words,
            |i, j| if set.masks[i][j] { 1.0 } else { 0.0 },
        );
        fit(set, x, opts)
    }

    /// The explicit group fit: the N×K kept-fraction design.
    fn explicit_group_fit(
        set: &PerturbationSet,
        groups: &[Vec<usize>],
        opts: &SurrogateOptions,
    ) -> Result<SurrogateFit, crate::ExplainError> {
        if groups.is_empty() {
            return Err(crate::ExplainError::NoGroups);
        }
        let n_words = set.masks.first().map_or(0, |m| m.len());
        for g in groups {
            if g.is_empty() {
                return Err(crate::ExplainError::NoGroups);
            }
            if g.iter().any(|&i| i >= n_words) {
                return Err(crate::ExplainError::GroupIndexOutOfRange);
            }
        }
        let x = Matrix::from_fn(set.len(), groups.len(), |i, j| {
            let g = &groups[j];
            let kept = g.iter().filter(|&&w| set.masks[i][w]).count();
            kept as f64 / g.len() as f64
        });
        fit(set, x, opts)
    }

    /// Bitwise equality of two fit results (errors compared by value).
    fn same_bits(
        got: &Result<SurrogateFit, crate::ExplainError>,
        want: &Result<SurrogateFit, crate::ExplainError>,
    ) -> bool {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                g.weights.len() == w.weights.len()
                    && g.weights
                        .iter()
                        .zip(&w.weights)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                    && g.intercept.to_bits() == w.intercept.to_bits()
                    && g.r_squared.to_bits() == w.r_squared.to_bits()
            }
            (Err(g), Err(w)) => format!("{g:?}") == format!("{w:?}"),
            _ => false,
        }
    }

    /// Renumber labels by first appearance (what a dendrogram cut does).
    fn first_appearance(labels: &[usize]) -> Vec<usize> {
        let mut map = std::collections::HashMap::new();
        labels
            .iter()
            .map(|&l| {
                let next = map.len();
                *map.entry(l).or_insert(next)
            })
            .collect()
    }

    /// A random labelling of `n` items that uses every label in `0..k`.
    fn surjection(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
        let mut labels: Vec<usize> = (0..n)
            .map(|i| if i < k { i } else { rng.gen_range(0..k) })
            .collect();
        for i in (1..n).rev() {
            labels.swap(i, rng.gen_range(0..=i));
        }
        labels
    }

    /// Cuts of a random merge tree in ascending K (what `sweep_cuts`
    /// hands model selection), or independent random partitions per K
    /// with arbitrary label order (the k-medoids ablation's shape).
    fn random_cuts(rng: &mut StdRng, n: usize, k_hi: usize, nested: bool) -> Vec<Vec<Vec<usize>>> {
        let k_hi = k_hi.min(n);
        if !nested {
            return (1..=k_hi)
                .map(|k| em_cluster::groups_from_labels(&surjection(rng, n, k)))
                .collect();
        }
        let mut labels = first_appearance(&surjection(rng, n, k_hi));
        let mut cuts = vec![em_cluster::groups_from_labels(&labels)];
        for k in (1..k_hi).rev() {
            // Merge two random clusters of the k+1 into one.
            let a = rng.gen_range(0..=k);
            let b = (a + 1 + rng.gen_range(0..k)) % (k + 1);
            for l in labels.iter_mut() {
                if *l == b {
                    *l = a;
                }
            }
            labels = first_appearance(&labels);
            cuts.push(em_cluster::groups_from_labels(&labels));
        }
        cuts.reverse();
        cuts
    }

    // Every cut of a sweep equals the explicit ridge fit of that
    // cut under `to_bits()`: random masks across the 64-word
    // boundary, constant and varying responses, kernel widths,
    // penalties (λ = 0 exercises the solver's errors), nested and
    // non-nested partition sequences down to K = 1. Every other sweep
    // starts with the word fit (the all-singleton cut), as CREW's does,
    // which must equal the explicit 0/1 keep-indicator fit.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sweep_matches_the_explicit_fit_bit_for_bit(
            n_words in 1usize..81,
            samples in 1usize..300,
            seed in 0u64..1_000_000,
            kernel_width in 0.05f64..3.0,
            // λ choice × constant response (one case in four) × nesting.
            shape in 0usize..24,
            k_hi in 1usize..14,
        ) {
            let (lambda_pick, constant, nested) = (shape % 3, shape / 3 % 4 == 0, shape >= 12);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut masks = vec![vec![true; n_words]];
            for _ in 0..samples {
                let p = rng.gen_range(0.05..0.95);
                masks.push((0..n_words).map(|_| rng.gen_bool(p)).collect());
            }
            let level: f64 = rng.gen_range(0.0..1.0);
            let responses: Vec<f64> = masks
                .iter()
                .map(|_| if constant { level } else { rng.gen_range(0.0..1.0) })
                .collect();
            let kept_fraction = masks
                .iter()
                .map(|m| m.iter().filter(|&&b| b).count() as f64 / n_words as f64)
                .collect();
            let set = PerturbationSet { masks, responses, kept_fraction };
            let opts = SurrogateOptions {
                kernel_width,
                lambda: [0.0, 1e-3, 0.5][lambda_pick],
            };
            let cuts = random_cuts(&mut rng, n_words, k_hi, nested);
            let mut sweep = GroupSweep::new(&set, &opts);
            let mut distinct = std::collections::HashSet::new();
            if seed % 2 == 0 {
                let got = sweep.fit_words();
                let want = explicit_word_fit(&set, &opts);
                prop_assert!(same_bits(&got, &want), "words: sweep {:?} vs explicit {:?}", got, want);
                distinct.extend((0..n_words).map(|w| vec![w]));
                prop_assert_eq!(sweep.columns(), n_words);
            }
            for groups in &cuts {
                let got = sweep.fit(groups);
                let want = explicit_group_fit(&set, groups, &opts);
                prop_assert!(
                    same_bits(&got, &want),
                    "K = {}: sweep {:?} vs explicit {:?}", groups.len(), got, want
                );
                distinct.extend(groups.iter().cloned());
                prop_assert_eq!(sweep.columns(), distinct.len());
            }
        }
    }

    #[test]
    fn sweep_errors_match_the_explicit_fit() {
        let mut set = linear_set(3, &[0.1, 0.2, 0.3], 20, 4);
        // Word 2 is never kept: its all-zero column is singular at λ = 0.
        set.masks.iter_mut().for_each(|m| m[2] = false);
        let opts = SurrogateOptions::default();
        let with = |kernel_width, lambda| SurrogateOptions {
            kernel_width,
            lambda,
        };
        let cases: Vec<(Vec<Vec<usize>>, SurrogateOptions)> = vec![
            (vec![], opts),
            (vec![vec![0], vec![]], opts),
            (vec![vec![0], vec![99]], opts),
            // Group validation precedes the kernel-width check.
            (vec![vec![]], with(0.0, 1e-3)),
            (vec![vec![0, 1]], with(0.0, 1e-3)),
            (vec![vec![0, 1]], with(-1.0, 1e-3)),
            (vec![vec![0, 1]], with(f64::NAN, 1e-3)),
            (vec![vec![0, 1]], with(0.75, -1.0)),
            (vec![vec![0], vec![2]], with(0.75, 0.0)),
        ];
        for (groups, o) in &cases {
            let want = explicit_group_fit(&set, groups, o);
            assert!(want.is_err(), "{groups:?} {o:?} should fail");
            let got = fit_group_surrogate(&set, groups, o);
            assert!(same_bits(&got, &want), "{groups:?}: {got:?} vs {want:?}");
        }
        // A failed cut leaves the sweep usable for the next one.
        let mut sweep = GroupSweep::new(&set, &opts);
        assert!(matches!(
            sweep.fit(&[vec![0], vec![7]]),
            Err(crate::ExplainError::GroupIndexOutOfRange)
        ));
        let groups = [vec![0, 2], vec![1]];
        assert!(sweep.fit(&groups).is_ok());
        assert!(same_bits(
            &sweep.fit(&groups),
            &explicit_group_fit(&set, &groups, &opts)
        ));
    }

    #[test]
    fn word_surrogate_recovers_linear_model() {
        let truth = [0.4, -0.2, 0.0, 0.3];
        let set = linear_set(4, &truth, 300, 1);
        let fit = fit_word_surrogate(&set, &SurrogateOptions::default()).unwrap();
        for (w, t) in fit.weights.iter().zip(&truth) {
            assert!((w - t).abs() < 0.02, "weight {w} vs truth {t}");
        }
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn kernel_weight_decays_with_drops() {
        let full = kernel_weight(1.0, 0.75);
        let half = kernel_weight(0.5, 0.75);
        let none = kernel_weight(0.0, 0.75);
        assert_eq!(full, 1.0);
        assert!(half < full && half > none);
    }

    #[test]
    fn group_surrogate_attributes_weight_to_groups() {
        // Words 0,1 carry +0.3 each; words 2,3 carry -0.2 each.
        let truth = [0.3, 0.3, -0.2, -0.2];
        let set = linear_set(4, &truth, 400, 2);
        let groups = vec![vec![0, 1], vec![2, 3]];
        let fit = fit_group_surrogate(&set, &groups, &SurrogateOptions::default()).unwrap();
        // Group feature is kept-fraction, so weight ≈ sum of member effects.
        assert!((fit.weights[0] - 0.6).abs() < 0.05, "g0 {}", fit.weights[0]);
        assert!((fit.weights[1] + 0.4).abs() < 0.05, "g1 {}", fit.weights[1]);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn grouping_correlated_words_keeps_fidelity() {
        // A response that only depends on the *pair* of words being present
        // together is better explained by a group feature.
        let mut rng = StdRng::seed_from_u64(3);
        let n_words = 4;
        let mut masks = vec![vec![true; n_words]];
        for _ in 0..300 {
            let m: Vec<bool> = (0..n_words).map(|_| rng.gen_bool(0.5)).collect();
            masks.push(m);
        }
        let responses: Vec<f64> = masks
            .iter()
            .map(|m| if m[0] && m[1] { 0.9 } else { 0.2 })
            .collect();
        let kept_fraction = masks
            .iter()
            .map(|m| m.iter().filter(|&&b| b).count() as f64 / n_words as f64)
            .collect();
        let set = PerturbationSet {
            masks,
            responses,
            kept_fraction,
        };
        let word = fit_word_surrogate(&set, &SurrogateOptions::default()).unwrap();
        let group = fit_group_surrogate(
            &set,
            &[vec![0, 1], vec![2, 3]],
            &SurrogateOptions::default(),
        )
        .unwrap();
        // The group surrogate with 2 features should be close to the word
        // surrogate with 4 features in fit quality.
        assert!(group.r_squared > word.r_squared - 0.1);
        assert!(group.weights[0] > 0.3);
        assert!(group.weights[1].abs() < 0.1);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let set = linear_set(3, &[0.1, 0.1, 0.1], 20, 4);
        assert!(matches!(
            fit_group_surrogate(&set, &[], &SurrogateOptions::default()),
            Err(crate::ExplainError::NoGroups)
        ));
        assert!(matches!(
            fit_group_surrogate(&set, &[vec![]], &SurrogateOptions::default()),
            Err(crate::ExplainError::NoGroups)
        ));
        assert!(matches!(
            fit_group_surrogate(&set, &[vec![99]], &SurrogateOptions::default()),
            Err(crate::ExplainError::GroupIndexOutOfRange)
        ));
        assert!(matches!(
            fit_word_surrogate(
                &set,
                &SurrogateOptions {
                    kernel_width: 0.0,
                    ..Default::default()
                }
            ),
            Err(crate::ExplainError::InvalidKernelWidth(_))
        ));
    }

    #[test]
    fn constant_response_gives_zeroish_weights() {
        let set = {
            let mut s = linear_set(3, &[0.0, 0.0, 0.0], 50, 5);
            s.responses.iter_mut().for_each(|r| *r = 0.7);
            s
        };
        let fit = fit_word_surrogate(&set, &SurrogateOptions::default()).unwrap();
        for w in &fit.weights {
            assert!(w.abs() < 1e-6);
        }
        assert!((fit.intercept - 0.7).abs() < 1e-6);
    }
}
