//! The `Matcher` abstraction every explainer targets: a black box mapping
//! a pair of entity descriptions to a match probability.

use em_data::{Dataset, EntityPair};

/// A (possibly trained) entity-matching model.
///
/// Explainers ask a matcher only for the probabilities of (rebuilt)
/// pairs, the perturbation engine always through
/// [`Matcher::predict_proba_batch`]; `Send + Sync` lets it fan queries
/// out across threads.
pub trait Matcher: Send + Sync {
    /// Human-readable model name for reports.
    fn name(&self) -> &str;

    /// Match probability in `[0, 1]`.
    ///
    /// A model with batched inference implements this as a batch of one,
    /// `self.predict_proba_batch(std::slice::from_ref(pair))[0]`, so it
    /// has a single inference path.
    fn predict_proba(&self, pair: &EntityPair) -> f64;

    /// Match probabilities for a batch of pairs.
    ///
    /// The default maps [`Matcher::predict_proba`] over the slice, which
    /// is all a simple matcher (rules, ensemble, calibration wrapper)
    /// needs. The trained models (logistic, MLP, attention) implement
    /// their inference here, interning the batch's cells once and
    /// sharing per-call caches across its pairs. Either way, a pair's
    /// probability must not depend on the other pairs in its batch, on
    /// their order, or on which pooled scratch serves the call: the
    /// perturbation engine dedups and splits batches freely under the
    /// determinism contract.
    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        pairs.iter().map(|p| self.predict_proba(p)).collect()
    }

    /// Decision threshold (calibrated on validation data where available).
    fn threshold(&self) -> f64 {
        0.5
    }

    /// Hard decision.
    fn predict(&self, pair: &EntityPair) -> bool {
        self.predict_proba(pair) >= self.threshold()
    }
}

/// Precision/recall/F1 of a matcher on a labelled dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    pub true_positives: usize,
    pub false_positives: usize,
    pub false_negatives: usize,
    pub true_negatives: usize,
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub accuracy: f64,
}

/// Evaluate a matcher's hard decisions against ground truth.
pub fn evaluate(matcher: &dyn Matcher, data: &Dataset) -> EvalReport {
    // One batched query instead of a per-pair loop: a pair's probability
    // does not depend on the rest of its batch, so the thresholded
    // decisions are those of single-pair calls.
    let pairs: Vec<EntityPair> = data.examples().iter().map(|ex| ex.pair.clone()).collect();
    let probs = matcher.predict_proba_batch(&pairs);
    let threshold = matcher.threshold();
    confusion_report(
        data.examples()
            .iter()
            .zip(&probs)
            .map(|(ex, &p)| (p >= threshold, ex.label.is_match())),
    )
}

/// Count `(predicted, actual)` outcomes into a confusion matrix and
/// derive its report.
pub(crate) fn confusion_report(outcomes: impl IntoIterator<Item = (bool, bool)>) -> EvalReport {
    let (mut tp, mut fp, mut fn_, mut tn) = (0, 0, 0, 0);
    for outcome in outcomes {
        match outcome {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => tn += 1,
        }
    }
    report_from_counts(tp, fp, fn_, tn)
}

fn report_from_counts(tp: usize, fp: usize, fn_: usize, tn: usize) -> EvalReport {
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    let total = tp + fp + fn_ + tn;
    let accuracy = if total == 0 {
        0.0
    } else {
        (tp + tn) as f64 / total as f64
    };
    EvalReport {
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
        true_negatives: tn,
        precision,
        recall,
        f1,
        accuracy,
    }
}

/// Find the threshold maximising F1 on a labelled dataset (scans the
/// model's own scores as candidate cut points). A NaN score is never a
/// candidate; under `score >= threshold` it counts as a predicted
/// non-match.
pub fn best_f1_threshold(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    if scores.is_empty() {
        return 0.5;
    }
    let mut candidates: Vec<f64> = scores.iter().copied().filter(|s| !s.is_nan()).collect();
    candidates.push(0.5);
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("NaN scores are filtered out"));
    candidates.dedup();
    let mut best = (0.5, -1.0);
    for &t in &candidates {
        let f1 = confusion_report(scores.iter().zip(labels).map(|(&s, &l)| (s >= t, l))).f1;
        if f1 > best.1 {
            best = (t, f1);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{Label, LabeledPair, Record, Schema};
    use std::sync::Arc;

    /// A matcher that thresholds on token Jaccard — handy for tests.
    pub struct JaccardMatcher {
        pub threshold: f64,
    }

    impl Matcher for JaccardMatcher {
        fn name(&self) -> &str {
            "jaccard"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            em_text::jaccard(
                &em_text::tokenize(&pair.left().full_text()),
                &em_text::tokenize(&pair.right().full_text()),
            )
        }
        fn threshold(&self) -> f64 {
            self.threshold
        }
    }

    fn dataset() -> Dataset {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let mk = |id, s: &str| Record::new(id, vec![s.to_string()]);
        let examples = vec![
            LabeledPair {
                pair: EntityPair::new(Arc::clone(&schema), mk(0, "a b c"), mk(1, "a b c")).unwrap(),
                label: Label::Match,
            },
            LabeledPair {
                pair: EntityPair::new(Arc::clone(&schema), mk(2, "a b c"), mk(3, "a b d")).unwrap(),
                label: Label::Match,
            },
            LabeledPair {
                pair: EntityPair::new(Arc::clone(&schema), mk(4, "a b c"), mk(5, "x y z")).unwrap(),
                label: Label::NonMatch,
            },
            LabeledPair {
                pair: EntityPair::new(Arc::clone(&schema), mk(6, "p q"), mk(7, "p r")).unwrap(),
                label: Label::NonMatch,
            },
        ];
        Dataset::new("toy", schema, examples).unwrap()
    }

    #[test]
    fn evaluate_counts_confusion_matrix() {
        let d = dataset();
        let m = JaccardMatcher { threshold: 0.45 };
        let r = evaluate(&m, &d);
        assert_eq!(r.true_positives, 2);
        assert_eq!(r.true_negatives, 2);
        assert_eq!(r.f1, 1.0);
        assert_eq!(r.accuracy, 1.0);
    }

    #[test]
    fn evaluate_poor_threshold_degrades() {
        let d = dataset();
        let strict = evaluate(&JaccardMatcher { threshold: 0.99 }, &d);
        assert_eq!(strict.true_positives, 1); // only the identical pair
        assert!(strict.recall < 1.0);
        // Lax threshold admits the "p q"/"p r" pair (Jaccard 1/3) but not
        // the fully disjoint one (Jaccard 0).
        let lax = evaluate(&JaccardMatcher { threshold: 0.01 }, &d);
        assert_eq!(lax.false_positives, 1);
        assert!(lax.precision < 1.0);
    }

    #[test]
    fn f1_zero_when_nothing_predicted() {
        let r = report_from_counts(0, 0, 5, 5);
        assert_eq!(r.precision, 0.0);
        assert_eq!(r.recall, 0.0);
        assert_eq!(r.f1, 0.0);
        assert_eq!(r.accuracy, 0.5);
    }

    #[test]
    fn best_threshold_separates_classes() {
        let scores = vec![0.9, 0.8, 0.2, 0.1];
        let labels = vec![true, true, false, false];
        let t = best_f1_threshold(&scores, &labels);
        assert!(t > 0.2 && t <= 0.8, "threshold {t}");
        // Check it achieves perfect F1.
        let preds: Vec<bool> = scores.iter().map(|&s| s >= t).collect();
        assert_eq!(preds, labels);
    }

    #[test]
    fn best_threshold_handles_empty_and_degenerate() {
        assert_eq!(best_f1_threshold(&[], &[]), 0.5);
        // All same score: still returns a finite threshold.
        let t = best_f1_threshold(&[0.7, 0.7], &[true, false]);
        assert!(t.is_finite());
        // A NaN score is no candidate and counts as a missed match:
        // cutting at 0.1 admits the negative (F1 1/2), 0.5 and 0.9 do not
        // (F1 2/3), and the first best cut wins.
        let t = best_f1_threshold(&[f64::NAN, 0.9, 0.1], &[true, true, false]);
        assert_eq!(t, 0.5);
        assert_eq!(
            best_f1_threshold(&[f64::NAN, f64::NAN], &[true, false]),
            0.5
        );
    }
}
