//! Fidelity metrics: do the explanation's important units really drive the
//! model? All metrics query the actual matcher on unit-deletion
//! counterfactuals, following the standard MoRF (Most-Relevant-First)
//! protocol: units are ranked by their relevance *toward the predicted
//! class*, and drops are measured in the predicted class's score — so
//! explanations of non-matches (negative evidence) are scored correctly.

use crew_core::ExplanationUnit;
use em_data::{EntityPair, TokenizedPair};
use em_matchers::Matcher;

/// Probability of the unperturbed pair — the base score every fidelity
/// metric compares against. Each plain metric queries it exactly once; an
/// evaluation loop scoring the headline metrics of one `(matcher, pair)`
/// calls this once and passes it to [`fidelity_probes_with_base`].
pub fn base_probability(matcher: &dyn Matcher, tokenized: &TokenizedPair) -> f64 {
    matcher.predict_proba(&tokenized.apply_mask(&vec![true; tokenized.len()]))
}

/// Rank units by |weight| descending (ties by first member index) — the
/// display order.
pub fn ranked_units(units: &[ExplanationUnit]) -> Vec<&ExplanationUnit> {
    let mut v: Vec<&ExplanationUnit> = units.iter().collect();
    v.sort_by(|a, b| {
        b.weight
            .abs()
            .partial_cmp(&a.weight.abs())
            .unwrap()
            .then(a.member_indices.cmp(&b.member_indices))
    });
    v
}

/// Rank units by signed relevance toward a class: for `toward_match` the
/// most positive weights come first; for non-match the most negative.
pub fn relevance_ranked_units(
    units: &[ExplanationUnit],
    toward_match: bool,
) -> Vec<&ExplanationUnit> {
    let mut v: Vec<&ExplanationUnit> = units.iter().collect();
    v.sort_by(|a, b| {
        let ra = if toward_match { a.weight } else { -a.weight };
        let rb = if toward_match { b.weight } else { -b.weight };
        rb.partial_cmp(&ra)
            .unwrap()
            .then(a.member_indices.cmp(&b.member_indices))
    });
    v
}

/// Score of the predicted class: `p` for match, `1 − p` for non-match.
#[inline]
pub fn class_score(probability: f64, toward_match: bool) -> f64 {
    if toward_match {
        probability
    } else {
        1.0 - probability
    }
}

/// Flatten relevance-ranked units into a word-deletion order.
pub fn deletion_order(units: &[ExplanationUnit], toward_match: bool) -> Vec<usize> {
    let mut order = Vec::new();
    for u in relevance_ranked_units(units, toward_match) {
        for &i in &u.member_indices {
            if !order.contains(&i) {
                order.push(i);
            }
        }
    }
    order
}

/// MoRF deletion curve: the predicted class's score after removing the top
/// `f` fraction of words (most relevant first), for each fraction.
/// Fraction 0.0 gives the base class score. Returns `(fraction, score)`.
pub fn deletion_curve(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    fractions: &[f64],
) -> Result<Vec<(f64, f64)>, crate::MetricError> {
    if tokenized.is_empty() {
        return Err(crate::MetricError::EmptyPair);
    }
    let base = base_probability(matcher, tokenized);
    deletion_curve_from(matcher, tokenized, units, fractions, base)
}

/// [`deletion_curve`] of a non-empty pair whose base probability is
/// known. All deletion counterfactuals go through one
/// `predict_proba_batch` call.
fn deletion_curve_from(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    fractions: &[f64],
    base: f64,
) -> Result<Vec<(f64, f64)>, crate::MetricError> {
    let n = tokenized.len();
    let toward_match = base >= matcher.threshold();
    let order = deletion_order(units, toward_match);
    let mut probes: Vec<EntityPair> = Vec::with_capacity(fractions.len());
    for &f in fractions {
        if !(0.0..=1.0).contains(&f) {
            return Err(crate::MetricError::InvalidFraction(f));
        }
        let k = ((n as f64) * f).round() as usize;
        let mut mask = vec![true; n];
        for &i in order.iter().take(k) {
            mask[i] = false;
        }
        probes.push(tokenized.apply_mask(&mask));
    }
    let probs = matcher.predict_proba_batch(&probes);
    Ok(fractions
        .iter()
        .zip(probs)
        .map(|(&f, prob)| (f, class_score(prob, toward_match)))
        .collect())
}

/// AOPC (area over the MoRF curve) for deletion: the mean class-score drop
/// over the fraction grid. Higher means the explanation identifies the
/// evidence the model truly relies on — for matches *and* non-matches.
pub fn aopc_deletion(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    fractions: &[f64],
) -> Result<f64, crate::MetricError> {
    if tokenized.is_empty() {
        return Err(crate::MetricError::EmptyPair);
    }
    if fractions.is_empty() {
        return Err(crate::MetricError::EmptyFractionGrid);
    }
    let base = base_probability(matcher, tokenized);
    let base_cs = class_score(base, base >= matcher.threshold());
    let curve = deletion_curve_from(matcher, tokenized, units, fractions, base)?;
    Ok(curve.iter().map(|&(_, cs)| base_cs - cs).sum::<f64>() / curve.len() as f64)
}

/// Sufficiency: the predicted class's score when keeping ONLY the top
/// fraction of relevance-ranked explanation words (higher = the
/// explanation alone carries the decision).
pub fn sufficiency(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    fraction: f64,
) -> Result<f64, crate::MetricError> {
    let n = tokenized.len();
    if n == 0 {
        return Err(crate::MetricError::EmptyPair);
    }
    if !(0.0..=1.0).contains(&fraction) {
        return Err(crate::MetricError::InvalidFraction(fraction));
    }
    let toward_match = base_probability(matcher, tokenized) >= matcher.threshold();
    let order = deletion_order(units, toward_match);
    let k = ((n as f64) * fraction).round().max(1.0) as usize;
    let mut mask = vec![false; n];
    for &i in order.iter().take(k) {
        mask[i] = true;
    }
    if mask.iter().all(|&b| !b) {
        mask[0] = true;
    }
    let prob = matcher.predict_proba(&tokenized.apply_mask(&mask));
    Ok(class_score(prob, toward_match))
}

/// Comprehensiveness at one fraction: base class score minus the class
/// score after deleting the top-f relevant words.
pub fn comprehensiveness(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    fraction: f64,
) -> Result<f64, crate::MetricError> {
    if tokenized.is_empty() {
        return Err(crate::MetricError::EmptyPair);
    }
    let base = base_probability(matcher, tokenized);
    let base_cs = class_score(base, base >= matcher.threshold());
    let curve = deletion_curve_from(matcher, tokenized, units, &[fraction], base)?;
    Ok(base_cs - curve[0].1)
}

/// Does deleting the single most-relevant unit flip the hard decision?
pub fn decision_flip(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
) -> Result<bool, crate::MetricError> {
    let n = tokenized.len();
    if n == 0 {
        return Err(crate::MetricError::EmptyPair);
    }
    let before = base_probability(matcher, tokenized) >= matcher.threshold();
    let ranked = relevance_ranked_units(units, before);
    let Some(top) = ranked.first() else {
        return Ok(false);
    };
    let mut mask = vec![true; n];
    for &i in &top.member_indices {
        if i < n {
            mask[i] = false;
        }
    }
    let after = matcher.predict_proba(&tokenized.apply_mask(&mask)) >= matcher.threshold();
    Ok(before != after)
}

/// Standard fraction grid used by the evaluation (10%..50% in 10% steps).
pub fn standard_fractions() -> Vec<f64> {
    vec![0.1, 0.2, 0.3, 0.4, 0.5]
}

/// Unit-level MoRF curve: the predicted class's score after removing the
/// top `u` relevance-ranked units, for `u = 0..=max_units`. This compares
/// explanations at *equal reading effort* — a CREW unit is a whole cluster,
/// a LIME unit a single word — which is the comprehensibility-fidelity
/// trade-off the cluster representation targets.
pub fn unit_deletion_curve(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    max_units: usize,
) -> Result<Vec<f64>, crate::MetricError> {
    if tokenized.is_empty() {
        return Err(crate::MetricError::EmptyPair);
    }
    let base = base_probability(matcher, tokenized);
    Ok(unit_curve_from(matcher, tokenized, units, max_units, base))
}

/// [`unit_deletion_curve`] of a non-empty pair whose base probability is
/// known. The `max_units` deletion counterfactuals go through one
/// `predict_proba_batch` call.
fn unit_curve_from(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    max_units: usize,
    base: f64,
) -> Vec<f64> {
    let n = tokenized.len();
    let toward_match = base >= matcher.threshold();
    let ranked = relevance_ranked_units(units, toward_match);
    let mut mask = vec![true; n];
    let mut probes: Vec<EntityPair> = Vec::with_capacity(max_units);
    for u in 0..max_units {
        if let Some(unit) = ranked.get(u) {
            for &i in &unit.member_indices {
                if i < n {
                    mask[i] = false;
                }
            }
        }
        probes.push(tokenized.apply_mask(&mask));
    }
    let mut out = Vec::with_capacity(max_units + 1);
    out.push(class_score(base, toward_match));
    for prob in matcher.predict_proba_batch(&probes) {
        out.push(class_score(prob, toward_match));
    }
    out
}

/// Mean class-score drop over the first `max_units` unit deletions —
/// unit-level AOPC.
pub fn aopc_units(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    max_units: usize,
) -> Result<f64, crate::MetricError> {
    if tokenized.is_empty() {
        return Err(crate::MetricError::EmptyPair);
    }
    if max_units == 0 {
        return Err(crate::MetricError::InvalidK(0));
    }
    let base = base_probability(matcher, tokenized);
    let curve = unit_curve_from(matcher, tokenized, units, max_units, base);
    let base_cs = curve[0];
    Ok(curve[1..].iter().map(|cs| base_cs - cs).sum::<f64>() / max_units as f64)
}

/// The four headline fidelity metrics of one explained pair, as computed
/// by [`fidelity_probes_with_base`] in a single batched model query.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityProbes {
    /// [`aopc_deletion`] over the fraction grid.
    pub aopc_deletion: f64,
    /// [`aopc_units`] over the first `max_units` units.
    pub aopc_units: f64,
    /// [`decision_flip`] of the top-ranked unit.
    pub decision_flip: bool,
    /// [`sufficiency`] at the sufficiency fraction.
    pub sufficiency: f64,
}

/// All four headline fidelity metrics through **one**
/// `predict_proba_batch` call, given the pair's [`base_probability`].
///
/// Each individual form queries the base and then its probes, so an
/// evaluation loop scoring a pair through all four pays eight model
/// dispatches. This entry point builds every probe mask up front — the
/// deletion-fraction masks, the cumulative unit-deletion masks, the
/// top-unit flip mask (when a unit exists) and the sufficiency mask —
/// and queries them in a single batch.
///
/// Values are bitwise-identical to the individual forms: each probe's
/// probability depends only on its own masked pair (batch ≡ scalar is
/// pinned by the matcher test suites, at any batch composition), and the
/// per-metric aggregations here are verbatim copies. Every input one of
/// the individual forms rejects is rejected here too.
pub fn fidelity_probes_with_base(
    matcher: &dyn Matcher,
    tokenized: &TokenizedPair,
    units: &[ExplanationUnit],
    fractions: &[f64],
    max_units: usize,
    suff_fraction: f64,
    base: f64,
) -> Result<FidelityProbes, crate::MetricError> {
    let n = tokenized.len();
    if fractions.is_empty() {
        return Err(crate::MetricError::EmptyFractionGrid);
    }
    if n == 0 {
        return Err(crate::MetricError::EmptyPair);
    }
    if max_units == 0 {
        return Err(crate::MetricError::InvalidK(0));
    }
    if !(0.0..=1.0).contains(&suff_fraction) {
        return Err(crate::MetricError::InvalidFraction(suff_fraction));
    }
    let toward_match = base >= matcher.threshold();
    let base_cs = class_score(base, toward_match);
    let order = deletion_order(units, toward_match);
    let ranked = relevance_ranked_units(units, toward_match);

    let mut probes: Vec<EntityPair> = Vec::with_capacity(fractions.len() + max_units + 2);
    // Deletion-curve probes, one per fraction (same masks as
    // `deletion_curve`).
    for &f in fractions {
        if !(0.0..=1.0).contains(&f) {
            return Err(crate::MetricError::InvalidFraction(f));
        }
        let k = ((n as f64) * f).round() as usize;
        let mut mask = vec![true; n];
        for &i in order.iter().take(k) {
            mask[i] = false;
        }
        probes.push(tokenized.apply_mask(&mask));
    }
    // Cumulative unit-deletion probes (same masks as
    // `unit_deletion_curve`).
    {
        let mut mask = vec![true; n];
        for u in 0..max_units {
            if let Some(unit) = ranked.get(u) {
                for &i in &unit.member_indices {
                    if i < n {
                        mask[i] = false;
                    }
                }
            }
            probes.push(tokenized.apply_mask(&mask));
        }
    }
    // Top-unit flip probe — absent when there are no units, in which
    // case the flip answer is `false` without a query.
    let has_flip_probe = if let Some(top) = ranked.first() {
        let mut mask = vec![true; n];
        for &i in &top.member_indices {
            if i < n {
                mask[i] = false;
            }
        }
        probes.push(tokenized.apply_mask(&mask));
        true
    } else {
        false
    };
    // Sufficiency probe (keep-only mask of `sufficiency`).
    {
        let k = ((n as f64) * suff_fraction).round().max(1.0) as usize;
        let mut mask = vec![false; n];
        for &i in order.iter().take(k) {
            mask[i] = true;
        }
        if mask.iter().all(|&b| !b) {
            mask[0] = true;
        }
        probes.push(tokenized.apply_mask(&mask));
    }

    let probs = matcher.predict_proba_batch(&probes);
    let (del, rest) = probs.split_at(fractions.len());
    let (unit_probs, rest) = rest.split_at(max_units);
    let aopc_deletion = del
        .iter()
        .map(|&p| base_cs - class_score(p, toward_match))
        .sum::<f64>()
        / fractions.len() as f64;
    let aopc_units = unit_probs
        .iter()
        .map(|&p| base_cs - class_score(p, toward_match))
        .sum::<f64>()
        / max_units as f64;
    let mut tail = rest.iter();
    let decision_flip = if has_flip_probe {
        let after = *tail.next().expect("flip probe present") >= matcher.threshold();
        toward_match != after
    } else {
        false
    };
    let sufficiency = class_score(
        *tail.next().expect("sufficiency probe present"),
        toward_match,
    );
    Ok(FidelityProbes {
        aopc_deletion,
        aopc_units,
        decision_flip,
        sufficiency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{EntityPair, Record, Schema};
    use std::sync::Arc;

    /// Score = fraction of the pair's original words still present.
    struct FractionMatcher {
        total: usize,
    }
    impl Matcher for FractionMatcher {
        fn name(&self) -> &str {
            "fraction"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            let count = em_text::token_count(&pair.left().full_text())
                + em_text::token_count(&pair.right().full_text());
            count as f64 / self.total as f64
        }
    }

    /// Predicts match iff the token "a" is present (p 0.9/0.1).
    struct OnlyA;
    impl Matcher for OnlyA {
        fn name(&self) -> &str {
            "only-a"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            if em_text::tokenize(&pair.left().full_text()).contains(&"a".to_string()) {
                0.9
            } else {
                0.1
            }
        }
    }

    /// Predicts NON-match iff "bad" is present: p = 0.2 with "bad", 0.8
    /// without — used to check the non-match direction of the metrics.
    struct BadToken;
    impl Matcher for BadToken {
        fn name(&self) -> &str {
            "bad-token"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            if em_text::tokenize(&pair.left().full_text()).contains(&"bad".to_string()) {
                0.2
            } else {
                0.8
            }
        }
    }

    fn tokenized() -> TokenizedPair {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["a b c d e".into()]),
            Record::new(1, vec!["f g h i j".into()]),
        )
        .unwrap();
        TokenizedPair::new(pair)
    }

    fn bad_tokenized() -> TokenizedPair {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["bad x y".into()]),
            Record::new(1, vec!["z w".into()]),
        )
        .unwrap();
        TokenizedPair::new(pair)
    }

    fn unit(indices: &[usize], weight: f64) -> ExplanationUnit {
        ExplanationUnit {
            member_indices: indices.to_vec(),
            weight,
        }
    }

    #[test]
    fn ranked_units_order_by_abs_weight() {
        let units = vec![unit(&[0], 0.1), unit(&[1], -0.9), unit(&[2], 0.5)];
        let ranked = ranked_units(&units);
        assert_eq!(ranked[0].member_indices, vec![1]);
        assert_eq!(ranked[1].member_indices, vec![2]);
    }

    #[test]
    fn relevance_ranking_flips_with_class() {
        let units = vec![unit(&[0], 0.1), unit(&[1], -0.9), unit(&[2], 0.5)];
        let for_match = relevance_ranked_units(&units, true);
        assert_eq!(for_match[0].member_indices, vec![2]);
        let for_non = relevance_ranked_units(&units, false);
        assert_eq!(for_non[0].member_indices, vec![1]);
    }

    #[test]
    fn deletion_order_expands_units_without_duplicates() {
        let units = vec![unit(&[0, 2], 0.9), unit(&[2, 3], 0.5)];
        assert_eq!(deletion_order(&units, true), vec![0, 2, 3]);
    }

    #[test]
    fn deletion_curve_monotone_for_fraction_matcher() {
        let tp = tokenized();
        let m = FractionMatcher { total: 10 };
        let units: Vec<ExplanationUnit> =
            (0..10).map(|i| unit(&[i], 1.0 - i as f64 * 0.05)).collect();
        let curve = deletion_curve(&m, &tp, &units, &[0.0, 0.2, 0.5, 1.0]).unwrap();
        assert_eq!(curve[0].1, 1.0);
        assert_eq!(curve[1].1, 0.8);
        assert_eq!(curve[2].1, 0.5);
        assert_eq!(curve[3].1, 0.0);
    }

    #[test]
    fn aopc_matches_hand_computation() {
        let tp = tokenized();
        let m = FractionMatcher { total: 10 };
        let units: Vec<ExplanationUnit> = (0..10).map(|i| unit(&[i], 1.0)).collect();
        let aopc = aopc_deletion(&m, &tp, &units, &[0.1, 0.2, 0.3]).unwrap();
        assert!((aopc - 0.2).abs() < 1e-9);
    }

    #[test]
    fn aopc_higher_for_correct_explanation() {
        let tp = tokenized();
        let correct = vec![unit(&[0], 1.0), unit(&[1], 0.01)];
        let wrong = vec![unit(&[5], 1.0), unit(&[6], 0.9)];
        let good = aopc_deletion(&OnlyA, &tp, &correct, &[0.1, 0.2]).unwrap();
        let bad = aopc_deletion(&OnlyA, &tp, &wrong, &[0.1, 0.2]).unwrap();
        assert!(good > bad, "good {good} bad {bad}");
        assert!(good > 0.5);
        assert!(bad.abs() < 1e-9);
    }

    #[test]
    fn aopc_rewards_negative_evidence_on_non_matches() {
        // BadToken predicts non-match (0.2 < 0.5). A correct explanation
        // gives "bad" a strongly negative weight; deleting it flips the
        // model toward match, which MUST count as positive AOPC.
        let tp = bad_tokenized();
        let correct = vec![unit(&[0], -0.8), unit(&[1], 0.05)];
        let aopc = aopc_deletion(&BadToken, &tp, &correct, &[0.2, 0.4]).unwrap();
        assert!(aopc > 0.2, "non-match AOPC should be positive, got {aopc}");
        // A wrong explanation (mass on filler words) scores ~zero.
        let wrong = vec![unit(&[3], -0.9), unit(&[4], -0.8)];
        let zero = aopc_deletion(&BadToken, &tp, &wrong, &[0.2, 0.4]).unwrap();
        assert!(zero.abs() < 1e-9, "wrong explanation scored {zero}");
    }

    #[test]
    fn sufficiency_of_the_right_words_is_high() {
        let tp = tokenized();
        let correct = vec![unit(&[0], 1.0)];
        let wrong = vec![unit(&[9], 1.0)];
        assert_eq!(sufficiency(&OnlyA, &tp, &correct, 0.1).unwrap(), 0.9);
        assert_eq!(sufficiency(&OnlyA, &tp, &wrong, 0.1).unwrap(), 0.1);
    }

    #[test]
    fn sufficiency_works_for_non_matches() {
        // Keeping only "bad" (the non-match evidence) preserves the
        // non-match class score 0.8.
        let tp = bad_tokenized();
        let correct = vec![unit(&[0], -0.9)];
        let s = sufficiency(&BadToken, &tp, &correct, 0.2).unwrap();
        assert_eq!(s, 0.8);
    }

    #[test]
    fn decision_flip_detects_critical_units() {
        let tp = tokenized();
        assert!(decision_flip(&OnlyA, &tp, &[unit(&[0], 1.0)]).unwrap());
        assert!(!decision_flip(&OnlyA, &tp, &[unit(&[5], 1.0)]).unwrap());
        assert!(!decision_flip(&OnlyA, &tp, &[]).unwrap());
        // Non-match side: deleting "bad" flips BadToken to match.
        let btp = bad_tokenized();
        assert!(decision_flip(&BadToken, &btp, &[unit(&[0], -0.9)]).unwrap());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let tp = tokenized();
        let m = FractionMatcher { total: 10 };
        let units = vec![unit(&[0], 1.0)];
        assert!(deletion_curve(&m, &tp, &units, &[1.5]).is_err());
        assert!(deletion_curve(&m, &tp, &units, &[-0.1]).is_err());
        assert!(aopc_deletion(&m, &tp, &units, &[]).is_err());
        assert!(sufficiency(&m, &tp, &units, 2.0).is_err());
        let schema = Arc::new(Schema::new(vec!["t"]));
        let empty = TokenizedPair::new(
            EntityPair::new(
                schema,
                Record::new(0, vec!["".into()]),
                Record::new(1, vec!["".into()]),
            )
            .unwrap(),
        );
        assert!(deletion_curve(&m, &empty, &units, &[0.1]).is_err());
    }

    #[test]
    fn unit_curve_removes_whole_units() {
        let tp = tokenized();
        let m = FractionMatcher { total: 10 };
        let units = vec![
            unit(&[0, 1, 2], 0.9),
            unit(&[3, 4, 5], 0.5),
            unit(&[6, 7, 8, 9], 0.1),
        ];
        let curve = unit_deletion_curve(&m, &tp, &units, 3).unwrap();
        assert_eq!(curve, vec![1.0, 0.7, 0.4, 0.0]);
        let aopc = aopc_units(&m, &tp, &units, 3).unwrap();
        assert!((aopc - (0.3 + 0.6 + 1.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unit_curve_handles_fewer_units_than_requested() {
        let tp = tokenized();
        let m = FractionMatcher { total: 10 };
        let units = vec![unit(&[0], 1.0)];
        let curve = unit_deletion_curve(&m, &tp, &units, 3).unwrap();
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[1], curve[2]);
        assert!(aopc_units(&m, &tp, &units, 0).is_err());
    }

    #[test]
    fn comprehensiveness_equals_base_minus_curve() {
        let tp = tokenized();
        let m = FractionMatcher { total: 10 };
        let units: Vec<ExplanationUnit> = (0..10).map(|i| unit(&[i], 1.0)).collect();
        let c = comprehensiveness(&m, &tp, &units, 0.3).unwrap();
        assert!((c - 0.3).abs() < 1e-9);
    }

    #[test]
    fn class_score_directions() {
        assert_eq!(class_score(0.8, true), 0.8);
        assert!((class_score(0.8, false) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn combined_probes_match_individual_forms_bitwise() {
        let grid = [0.1, 0.2, 0.3];
        for (m, tp) in [
            (&FractionMatcher { total: 10 } as &dyn Matcher, tokenized()),
            (&OnlyA as &dyn Matcher, tokenized()),
            (&BadToken as &dyn Matcher, bad_tokenized()),
        ] {
            let units = vec![unit(&[0, 1], 0.9), unit(&[2], -0.4), unit(&[3], 0.2)];
            let base = base_probability(m, &tp);
            let combined = fidelity_probes_with_base(m, &tp, &units, &grid, 3, 0.3, base).unwrap();
            let aopc = aopc_deletion(m, &tp, &units, &grid).unwrap();
            let aopc_u = aopc_units(m, &tp, &units, 3).unwrap();
            let flip = decision_flip(m, &tp, &units).unwrap();
            let suff = sufficiency(m, &tp, &units, 0.3).unwrap();
            assert_eq!(combined.aopc_deletion.to_bits(), aopc.to_bits());
            assert_eq!(combined.aopc_units.to_bits(), aopc_u.to_bits());
            assert_eq!(combined.decision_flip, flip);
            assert_eq!(combined.sufficiency.to_bits(), suff.to_bits());
        }
    }

    #[test]
    fn combined_probes_with_no_units_report_no_flip() {
        let tp = tokenized();
        let m = FractionMatcher { total: 10 };
        let base = base_probability(&m, &tp);
        let combined = fidelity_probes_with_base(&m, &tp, &[], &[0.2, 0.4], 2, 0.3, base).unwrap();
        assert!(!combined.decision_flip);
        assert_eq!(
            combined.sufficiency,
            sufficiency(&m, &tp, &[], 0.3).unwrap()
        );
    }

    #[test]
    fn combined_probes_validate_like_the_individual_forms() {
        let tp = tokenized();
        let m = FractionMatcher { total: 10 };
        let units = vec![unit(&[0], 1.0)];
        let base = base_probability(&m, &tp);
        assert!(fidelity_probes_with_base(&m, &tp, &units, &[], 3, 0.3, base).is_err());
        assert!(fidelity_probes_with_base(&m, &tp, &units, &[1.5], 3, 0.3, base).is_err());
        assert!(fidelity_probes_with_base(&m, &tp, &units, &[0.1], 0, 0.3, base).is_err());
        assert!(fidelity_probes_with_base(&m, &tp, &units, &[0.1], 3, 2.0, base).is_err());
    }

    #[test]
    fn combined_probes_use_one_batch_query() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct BatchCounting {
            batches: AtomicUsize,
            queries: AtomicUsize,
        }
        impl Matcher for BatchCounting {
            fn name(&self) -> &str {
                "batch-counting"
            }
            fn predict_proba(&self, _pair: &EntityPair) -> f64 {
                self.queries.fetch_add(1, Ordering::SeqCst);
                0.7
            }
            fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
                self.batches.fetch_add(1, Ordering::SeqCst);
                self.queries.fetch_add(pairs.len(), Ordering::SeqCst);
                vec![0.7; pairs.len()]
            }
        }
        let tp = tokenized();
        let units = vec![unit(&[0], 1.0), unit(&[1], 0.5)];
        let m = BatchCounting {
            batches: AtomicUsize::new(0),
            queries: AtomicUsize::new(0),
        };
        let base = base_probability(&m, &tp);
        assert_eq!(m.queries.load(Ordering::SeqCst), 1);
        fidelity_probes_with_base(&m, &tp, &units, &[0.1, 0.2, 0.3], 3, 0.3, base).unwrap();
        assert_eq!(m.batches.load(Ordering::SeqCst), 1, "one batched dispatch");
        // 3 fraction probes + 3 unit probes + flip + sufficiency.
        assert_eq!(m.queries.load(Ordering::SeqCst), 1 + 8);
    }

    #[test]
    fn plain_forms_query_the_base_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountingMatcher {
            calls: AtomicUsize,
        }
        impl Matcher for CountingMatcher {
            fn name(&self) -> &str {
                "counting"
            }
            fn predict_proba(&self, _pair: &EntityPair) -> f64 {
                self.calls.fetch_add(1, Ordering::SeqCst);
                0.7
            }
        }
        let tp = tokenized();
        let units = vec![unit(&[0], 1.0)];
        let m = CountingMatcher {
            calls: AtomicUsize::new(0),
        };
        let grid = [0.1, 0.2, 0.3];
        let count = |run: &dyn Fn()| {
            m.calls.store(0, Ordering::SeqCst);
            run();
            m.calls.load(Ordering::SeqCst)
        };
        // One base query, then the form's own probes.
        let cases: [(&str, usize, &dyn Fn()); 7] = [
            ("deletion_curve", 1 + 3, &|| {
                deletion_curve(&m, &tp, &units, &grid).unwrap();
            }),
            ("aopc_deletion", 1 + 3, &|| {
                aopc_deletion(&m, &tp, &units, &grid).unwrap();
            }),
            ("comprehensiveness", 1 + 1, &|| {
                comprehensiveness(&m, &tp, &units, 0.3).unwrap();
            }),
            ("sufficiency", 1 + 1, &|| {
                sufficiency(&m, &tp, &units, 0.2).unwrap();
            }),
            ("decision_flip", 1 + 1, &|| {
                decision_flip(&m, &tp, &units).unwrap();
            }),
            ("unit_deletion_curve", 1 + 2, &|| {
                unit_deletion_curve(&m, &tp, &units, 2).unwrap();
            }),
            ("aopc_units", 1 + 2, &|| {
                aopc_units(&m, &tp, &units, 2).unwrap();
            }),
        ];
        for (name, expected, run) in cases {
            assert_eq!(count(run), expected, "{name}");
        }
    }
}
