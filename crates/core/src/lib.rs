//! # crew-core
//!
//! CREW — **C**luste**R**s of **E**xplanation **W**ords — an explanation
//! system for entity-matching models, reproducing *"Explaining Entity
//! Matching with Clusters of Words"* (Benassi, Guerra, Paganelli, Tiano —
//! ICDE 2024).
//!
//! CREW explains a black-box matcher's decision on one candidate pair as a
//! small set of **clusters of words**, built from three knowledge sources:
//! the semantic similarity of the words (corpus-trained embeddings), their
//! arrangement into the dataset's attributes, and their importance in
//! explaining the model (perturbation attributions).
//!
//! The crate also hosts the shared substrate every baseline explainer in
//! `em-baselines` builds on: the perturbation engine ([`perturb`](mod@perturb)), the
//! LIME-style weighted-ridge surrogate ([`surrogate`]) and the
//! [`Explainer`] trait with its common [`WordExplanation`] currency.
//!
//! ```no_run
//! use crew_core::{Crew, CrewOptions, Explainer};
//! use em_embed::{EmbeddingOptions, WordEmbeddings};
//! # fn demo(train: &em_data::Dataset, matcher: &dyn em_matchers::Matcher,
//! #         pair: &em_data::EntityPair) -> Result<(), Box<dyn std::error::Error>> {
//! let embeddings = WordEmbeddings::train_on_dataset(train, EmbeddingOptions::default())?;
//! let crew = Crew::new(std::sync::Arc::new(embeddings), CrewOptions::default());
//! let explanation = crew.explain_clusters(matcher, pair)?;
//! println!("{}", explanation.render(pair.schema()));
//! # Ok(())
//! # }
//! ```

pub mod counterfactual;
pub mod crew;
pub mod explainer;
pub mod explanation;
pub mod global;
pub mod knowledge;
pub mod perturb;
pub mod report;
pub mod surrogate;

pub use counterfactual::{
    explanation_robustness, find_counterfactual, Counterfactual, CounterfactualOptions,
};
pub use crew::{ClusterAlgorithm, Crew, CrewOptions};
pub use explainer::{estimate_word_importance, Explainer};
pub use explanation::{
    words_of, ClusterExplanation, ExplanationUnit, WordCluster, WordExplanation,
};
pub use global::{
    aggregate_explanations, explain_dataset, AttributeImportance, GlobalExplanation, RecurringWord,
};
pub use knowledge::{
    attribute_distances, combined_distances, combined_distances_with, importance_distances,
    opposite_sign_cannot_links, semantic_coherence, semantic_distances, semantic_distances_with,
    KnowledgeWeights,
};
pub use perturb::{
    perturb, query_masks, query_pairs, sample_masks, MaskStrategy, PerturbOptions, PerturbationSet,
};
pub use report::{cluster_explanation_to_json, word_explanation_to_json};
pub use surrogate::{
    fit_group_surrogate, fit_word_surrogate, kernel_weight, GroupSweep, SurrogateFit,
    SurrogateOptions,
};

/// Errors from the explanation stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainError {
    /// The pair has no words to explain.
    EmptyPair,
    /// Zero perturbation samples requested.
    NoSamples,
    /// Group surrogate called with no/empty groups.
    NoGroups,
    /// A group referenced a word outside the pair.
    GroupIndexOutOfRange,
    /// Kernel width must be positive.
    InvalidKernelWidth(f64),
    /// Knowledge mixing weights invalid (negative or all zero).
    InvalidWeights,
    /// Importance weight vector length mismatch.
    WeightLengthMismatch { expected: usize, got: usize },
    /// Fidelity retention target τ outside (0, 1].
    InvalidTau(f64),
    /// The matcher returned NaN or an infinity for a perturbed pair.
    NonFiniteModelOutput { sample: usize, value: f64 },
    /// Underlying solver failure.
    Linalg(em_linalg::LinalgError),
    /// Underlying clustering failure.
    Cluster(em_cluster::ClusterError),
}

impl std::fmt::Display for ExplainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExplainError::EmptyPair => write!(f, "pair has no words to explain"),
            ExplainError::NoSamples => write!(f, "perturbation sample budget must be positive"),
            ExplainError::NoGroups => write!(f, "group surrogate requires non-empty groups"),
            ExplainError::GroupIndexOutOfRange => {
                write!(f, "group references a word index outside the pair")
            }
            ExplainError::InvalidKernelWidth(w) => {
                write!(f, "kernel width must be positive, got {w}")
            }
            ExplainError::InvalidWeights => {
                write!(f, "knowledge weights must be non-negative and not all zero")
            }
            ExplainError::WeightLengthMismatch { expected, got } => {
                write!(f, "expected {expected} word weights, got {got}")
            }
            ExplainError::InvalidTau(t) => write!(f, "tau must be in (0,1], got {t}"),
            ExplainError::NonFiniteModelOutput { sample, value } => {
                write!(
                    f,
                    "matcher returned non-finite probability {value} on perturbed sample {sample}"
                )
            }
            ExplainError::Linalg(e) => write!(f, "solver failure: {e}"),
            ExplainError::Cluster(e) => write!(f, "clustering failure: {e}"),
        }
    }
}

impl std::error::Error for ExplainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExplainError::Linalg(e) => Some(e),
            ExplainError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use em_data::{EntityPair, Record, Schema, TokenizedPair};
    use propcheck::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn masks_always_keep_a_word(
            l in "[a-c ]{1,20}",
            r in "[a-c ]{1,20}",
            samples in 1usize..64,
            seed in 0u64..100,
        ) {
            let schema = Arc::new(Schema::new(vec!["t"]));
            let pair = EntityPair::new(
                schema,
                Record::new(0, vec![l]),
                Record::new(1, vec![r]),
            ).unwrap();
            let tp = TokenizedPair::new(pair);
            prop_assume!(!tp.is_empty());
            let opts = PerturbOptions { samples, seed, ..Default::default() };
            let masks = sample_masks(&tp, &opts).unwrap();
            prop_assert_eq!(masks.len(), samples + 1);
            for m in &masks {
                prop_assert!(m.iter().any(|&b| b));
                prop_assert_eq!(m.len(), tp.len());
            }
        }

        #[test]
        fn importance_distance_matrix_is_valid(ws in propcheck::collection::vec(-1.0f64..1.0, 2..15)) {
            let d = importance_distances(&ws);
            for i in 0..ws.len() {
                prop_assert_eq!(d[(i, i)], 0.0);
                for j in 0..ws.len() {
                    prop_assert!((0.0..=1.0).contains(&d[(i, j)]));
                    prop_assert!((d[(i, j)] - d[(j, i)]).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn kernel_weight_monotone(f1 in 0.0f64..1.0, f2 in 0.0f64..1.0) {
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            // Keeping more words => at least as close => at least the weight.
            prop_assert!(kernel_weight(hi, 0.75) >= kernel_weight(lo, 0.75) - 1e-12);
        }
    }
}
