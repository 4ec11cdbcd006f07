//! Ensemble matcher: average (optionally weighted) of member matchers'
//! probabilities. Used in the robustness experiments as a "harder" black
//! box — its decision surface mixes feature-level and token-level models,
//! which is closer to the production stacks EM explainers face.

use crate::matcher::{best_f1_threshold, Matcher};
use em_data::{Dataset, EntityPair};
use std::sync::Arc;

/// A weighted soft-voting ensemble.
pub struct EnsembleMatcher {
    members: Vec<(Arc<dyn Matcher>, f64)>,
    threshold: f64,
    name: String,
}

impl EnsembleMatcher {
    /// Build with explicit member weights.
    ///
    /// # Errors
    /// Rejects empty ensembles and non-positive/non-finite weights.
    pub fn new(members: Vec<(Arc<dyn Matcher>, f64)>) -> Result<Self, crate::MatcherError> {
        if members.is_empty() {
            return Err(crate::MatcherError::NoRules);
        }
        if members.iter().any(|(_, w)| *w <= 0.0 || !w.is_finite()) {
            return Err(crate::MatcherError::InvalidRuleWeight);
        }
        let name = format!(
            "ensemble({})",
            members
                .iter()
                .map(|(m, _)| m.name())
                .collect::<Vec<_>>()
                .join("+")
        );
        Ok(EnsembleMatcher {
            members,
            threshold: 0.5,
            name,
        })
    }

    /// Uniform-weight ensemble.
    pub fn uniform(members: Vec<Arc<dyn Matcher>>) -> Result<Self, crate::MatcherError> {
        EnsembleMatcher::new(members.into_iter().map(|m| (m, 1.0)).collect())
    }

    /// Calibrate the decision threshold on a labelled dataset.
    pub fn calibrate(&mut self, validation: &Dataset) {
        if validation.is_empty() {
            return;
        }
        let scores: Vec<f64> = validation
            .examples()
            .iter()
            .map(|ex| self.predict_proba(&ex.pair))
            .collect();
        let labels: Vec<bool> = validation
            .examples()
            .iter()
            .map(|ex| ex.label.is_match())
            .collect();
        self.threshold = best_f1_threshold(&scores, &labels);
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl Matcher for EnsembleMatcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        let weight_sum: f64 = self.members.iter().map(|(_, w)| w).sum();
        let score: f64 = self
            .members
            .iter()
            .map(|(m, w)| w * m.predict_proba(pair))
            .sum();
        score / weight_sum
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleMatcher;
    use em_data::{Record, Schema};

    struct Constant(f64);
    impl Matcher for Constant {
        fn name(&self) -> &str {
            "const"
        }
        fn predict_proba(&self, _: &EntityPair) -> f64 {
            self.0
        }
    }

    fn pair() -> EntityPair {
        let schema = Arc::new(Schema::new(vec!["t"]));
        EntityPair::new(
            schema,
            Record::new(0, vec!["x".into()]),
            Record::new(1, vec!["x".into()]),
        )
        .unwrap()
    }

    #[test]
    fn uniform_ensemble_averages() {
        let e = EnsembleMatcher::uniform(vec![Arc::new(Constant(0.2)), Arc::new(Constant(0.8))])
            .unwrap();
        assert!((e.predict_proba(&pair()) - 0.5).abs() < 1e-12);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn weights_shift_the_average() {
        let e = EnsembleMatcher::new(vec![
            (Arc::new(Constant(0.0)) as Arc<dyn Matcher>, 1.0),
            (Arc::new(Constant(1.0)) as Arc<dyn Matcher>, 3.0),
        ])
        .unwrap();
        assert!((e.predict_proba(&pair()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(EnsembleMatcher::uniform(vec![]).is_err());
        assert!(
            EnsembleMatcher::new(vec![(Arc::new(Constant(0.5)) as Arc<dyn Matcher>, 0.0)]).is_err()
        );
        assert!(EnsembleMatcher::new(vec![(
            Arc::new(Constant(0.5)) as Arc<dyn Matcher>,
            f64::NAN
        )])
        .is_err());
    }

    #[test]
    fn name_lists_members() {
        let e = EnsembleMatcher::uniform(vec![
            Arc::new(Constant(0.5)) as Arc<dyn Matcher>,
            Arc::new(RuleMatcher::uniform(1, 0.5).unwrap()),
        ])
        .unwrap();
        assert_eq!(e.name(), "ensemble(const+rules)");
    }

    #[test]
    fn calibration_moves_threshold() {
        use em_data::{Label, LabeledPair};
        // Member scores 0.6 on everything; with all-positive labels any
        // threshold <= 0.6 is perfect, so calibration keeps it <= 0.6.
        let schema = Arc::new(Schema::new(vec!["t"]));
        let examples = vec![LabeledPair {
            pair: EntityPair::new(
                Arc::clone(&schema),
                Record::new(0, vec!["a".into()]),
                Record::new(1, vec!["a".into()]),
            )
            .unwrap(),
            label: Label::Match,
        }];
        let val = Dataset::new("v", schema, examples).unwrap();
        let mut e = EnsembleMatcher::uniform(vec![Arc::new(Constant(0.6))]).unwrap();
        e.calibrate(&val);
        assert!(e.threshold() <= 0.6);
        assert!(e.predict(&val.examples()[0].pair));
    }

    /// Scores 0.8 on equal cells, 0.2 on different ones, and NaN when
    /// the left cell is empty.
    struct NanOnEmpty;
    impl Matcher for NanOnEmpty {
        fn name(&self) -> &str {
            "nan-on-empty"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            match pair.left().value(0) {
                "" => f64::NAN,
                l if l == pair.right().value(0) => 0.8,
                _ => 0.2,
            }
        }
    }

    #[test]
    fn calibration_survives_a_nan_emitting_member() {
        use em_data::{Label, LabeledPair};
        let schema = Arc::new(Schema::new(vec!["t"]));
        let example = |id: u64, l: &str, r: &str, label| LabeledPair {
            pair: EntityPair::new(
                Arc::clone(&schema),
                Record::new(2 * id, vec![l.into()]),
                Record::new(2 * id + 1, vec![r.into()]),
            )
            .unwrap(),
            label,
        };
        let examples = vec![
            example(0, "a", "a", Label::Match),
            example(1, "a", "b", Label::NonMatch),
            example(2, "", "a", Label::Match),
        ];
        let val = Dataset::new("v", Arc::clone(&schema), examples).unwrap();
        let mut e = EnsembleMatcher::uniform(vec![
            Arc::new(NanOnEmpty) as Arc<dyn Matcher>,
            Arc::new(Constant(0.5)),
        ])
        .unwrap();
        e.calibrate(&val);
        // Ensemble scores 0.65, 0.35 and NaN: the NaN is no candidate, and
        // the cut still separates the two finite scores.
        assert!(e.threshold().is_finite(), "threshold {}", e.threshold());
        assert!(e.predict(&val.examples()[0].pair));
        assert!(!e.predict(&val.examples()[1].pair));
    }
}
