//! # em-metrics
//!
//! Evaluation metrics for EM explanations, in three groups:
//!
//! - **fidelity** (to the model): deletion curves, AOPC, sufficiency,
//!   comprehensiveness, decision-flip — all computed by querying the real
//!   matcher on unit-deletion counterfactuals;
//! - **interpretability** (for the user): unit count, semantic coherence,
//!   attribute purity, compression — the proxies standing in for the
//!   paper's user-facing comprehensibility claims;
//! - **stability/agreement**: top-k Jaccard and rank correlation across
//!   seeds or across explainers.
//!
//! ```
//! use crew_core::ExplanationUnit;
//! let units = vec![
//!     ExplanationUnit { member_indices: vec![0], weight: 0.9 },
//!     ExplanationUnit { member_indices: vec![1], weight: -0.4 },
//! ];
//! let ranked = em_metrics::ranked_units(&units);
//! assert_eq!(ranked[0].weight, 0.9);
//! ```

pub mod fidelity;
pub mod interpretability;
pub mod stability;

pub use fidelity::{
    aopc_deletion, aopc_units, base_probability, class_score, comprehensiveness, decision_flip,
    deletion_curve, deletion_order, fidelity_probes_with_base, ranked_units,
    relevance_ranked_units, standard_fractions, sufficiency, unit_deletion_curve, FidelityProbes,
};
pub use interpretability::{interpretability, InterpretabilityReport};
pub use stability::{
    cluster_structure_ari, mean_pairwise_stability, topk_jaccard, weight_rank_correlation,
};

/// Errors from metric computation.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricError {
    /// The pair has no words.
    EmptyPair,
    /// A fraction was outside [0, 1].
    InvalidFraction(f64),
    /// The AOPC fraction grid was empty.
    EmptyFractionGrid,
    /// A unit had no members.
    EmptyUnit,
    /// A unit referenced a word outside the pair.
    UnitIndexOutOfRange { index: usize, n: usize },
    /// Two explanations cover different word counts.
    ExplanationMismatch { a: usize, b: usize },
    /// k must be positive.
    InvalidK(usize),
    /// Stability needs at least two explanations.
    NeedAtLeastTwo(usize),
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricError::EmptyPair => write!(f, "pair has no words"),
            MetricError::InvalidFraction(v) => write!(f, "fraction must be in [0,1], got {v}"),
            MetricError::EmptyFractionGrid => write!(f, "fraction grid is empty"),
            MetricError::EmptyUnit => write!(f, "explanation unit has no members"),
            MetricError::UnitIndexOutOfRange { index, n } => {
                write!(f, "unit references word {index} but pair has {n} words")
            }
            MetricError::ExplanationMismatch { a, b } => {
                write!(f, "explanations cover {a} vs {b} words")
            }
            MetricError::InvalidK(k) => write!(f, "k must be positive, got {k}"),
            MetricError::NeedAtLeastTwo(n) => {
                write!(f, "stability needs at least two explanations, got {n}")
            }
        }
    }
}

impl std::error::Error for MetricError {}

#[cfg(test)]
mod proptests {
    use super::*;
    use crew_core::{ExplanationUnit, WordExplanation};
    use em_data::{EntityPair, Record, Schema, TokenizedPair};
    use propcheck::prelude::*;
    use std::sync::Arc;

    fn expl(weights: Vec<f64>) -> WordExplanation {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let text = (0..weights.len())
            .map(|i| format!("w{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec![text]),
            Record::new(1, vec!["".into()]),
        )
        .unwrap();
        let tp = TokenizedPair::new(pair);
        WordExplanation {
            explainer: "prop".into(),
            words: tp.words().to_vec(),
            weights,
            base_score: 0.5,
            intercept: 0.0,
            surrogate_r2: 1.0,
        }
    }

    /// Two weight vectors of the same (random) length, generated as a
    /// vector of pairs so no case is rejected for mismatched lengths.
    fn weight_pairs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        propcheck::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..10)
            .prop_map(|v| v.into_iter().unzip())
    }

    proptest! {
        #[test]
        fn topk_jaccard_bounded_symmetric_reflexive(
            ws in weight_pairs(),
            k in 1usize..6,
        ) {
            let (wa, wb) = ws;
            let a = expl(wa);
            let b = expl(wb);
            prop_assert!((topk_jaccard(&a, &a, k).unwrap() - 1.0).abs() < 1e-12);
            let ab = topk_jaccard(&a, &b, k).unwrap();
            let ba = topk_jaccard(&b, &a, k).unwrap();
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!((ab - ba).abs() < 1e-12);
        }

        #[test]
        fn rank_correlation_bounded_and_symmetric(ws in weight_pairs()) {
            let (wa, wb) = ws;
            let a = expl(wa);
            let b = expl(wb);
            let ab = weight_rank_correlation(&a, &b).unwrap();
            let ba = weight_rank_correlation(&b, &a).unwrap();
            prop_assert!((-1.0..=1.0).contains(&ab));
            prop_assert!((ab - ba).abs() < 1e-12);
        }

        #[test]
        fn mean_pairwise_stability_bounded(ws in weight_pairs(), k in 1usize..5) {
            let (wa, wb) = ws;
            let s = mean_pairwise_stability(&[expl(wa), expl(wb)], k).unwrap();
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn ranked_units_is_a_sorted_permutation(
            ws in propcheck::collection::vec(-1.0f64..1.0, 1..12),
        ) {
            let units: Vec<ExplanationUnit> = ws
                .iter()
                .enumerate()
                .map(|(i, &w)| ExplanationUnit { member_indices: vec![i], weight: w })
                .collect();
            let ranked = ranked_units(&units);
            prop_assert_eq!(ranked.len(), units.len());
            for pair in ranked.windows(2) {
                prop_assert!(pair[0].weight.abs() >= pair[1].weight.abs());
            }
            let mut idx: Vec<usize> = ranked.iter().map(|u| u.member_indices[0]).collect();
            idx.sort_unstable();
            prop_assert_eq!(idx, (0..units.len()).collect::<Vec<_>>());
        }

        #[test]
        fn deletion_order_is_a_permutation(
            ws in propcheck::collection::vec(-1.0f64..1.0, 1..12),
            toward in 0u32..2,
        ) {
            let units: Vec<ExplanationUnit> = ws
                .iter()
                .enumerate()
                .map(|(i, &w)| ExplanationUnit { member_indices: vec![i], weight: w })
                .collect();
            let mut order = deletion_order(&units, toward == 1);
            order.sort_unstable();
            prop_assert_eq!(order, (0..units.len()).collect::<Vec<_>>());
        }

        #[test]
        fn class_score_is_complementary(p in 0.0f64..1.0) {
            let m = class_score(p, true);
            let n = class_score(p, false);
            prop_assert!((0.0..=1.0).contains(&m));
            prop_assert!((0.0..=1.0).contains(&n));
            prop_assert!((m + n - 1.0).abs() < 1e-12);
        }
    }
}
