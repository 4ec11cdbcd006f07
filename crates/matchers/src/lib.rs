//! # em-matchers
//!
//! Trainable entity-matching models — the black boxes the explainers
//! explain. Four model families:
//!
//! - [`LogisticMatcher`]: logistic regression over a Magellan-style
//!   per-attribute similarity feature table;
//! - [`MlpMatcher`]: the same features through a two-hidden-layer MLP
//!   (hand-rolled backprop + Adam);
//! - [`AttentionMatcher`]: a token-level soft-alignment model over
//!   corpus-trained word embeddings — the stand-in for the transformer
//!   matchers the paper targets (word-level perturbations exercise the same
//!   code path);
//! - [`RuleMatcher`]: an untrained weighted-similarity baseline.
//!
//! All implement the [`Matcher`] trait consumed by `crew-core`. The three
//! trained models have one inference path each: the batch path
//! ([`Matcher::predict_proba_batch`]) is the implementation, and
//! `predict_proba` is a batch of one. Training extracts its features
//! through the same path. A pair's probability never depends on the rest
//! of its batch, so batching is value-invisible. String-path twins of the
//! extractors exist only in the tests, as bitwise oracles.

// Index-based loops are kept where they mirror the textbook formulation
// of the numeric kernels; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
pub mod attention;
pub mod calibration;
pub mod ensemble;
pub mod features;
pub mod logistic;
pub mod matcher;
pub mod mlp;
pub mod rules;
pub mod scratch;

pub use attention::{AttentionMatcher, AttentionOptions};
pub use calibration::{expected_calibration_error, CalibratedMatcher};
pub use ensemble::EnsembleMatcher;
pub use features::{
    BatchScratch, ExtractScratch, FeatureExtractor, GLOBAL_FEATURES, PER_ATTRIBUTE_FEATURES,
};
pub use logistic::{LogisticMatcher, TrainOptions};
pub use matcher::{best_f1_threshold, evaluate, EvalReport, Matcher};
pub use mlp::MlpMatcher;
pub use rules::{Rule, RuleMatcher};
pub use scratch::ScratchPool;

/// Errors from model construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum MatcherError {
    /// Training set was empty.
    EmptyTrainingSet,
    /// A rule matcher was built with no rules.
    NoRules,
    /// Rule weight was non-positive or non-finite.
    InvalidRuleWeight,
    /// Threshold outside `[0, 1]`.
    InvalidThreshold(f64),
    /// Embedding training failed.
    Embedding(em_embed::EmbedError),
}

impl std::fmt::Display for MatcherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatcherError::EmptyTrainingSet => write!(f, "training set is empty"),
            MatcherError::NoRules => write!(f, "rule matcher needs at least one rule"),
            MatcherError::InvalidRuleWeight => {
                write!(f, "rule weights must be positive and finite")
            }
            MatcherError::InvalidThreshold(t) => write!(f, "threshold must be in [0,1], got {t}"),
            MatcherError::Embedding(e) => write!(f, "embedding training failed: {e}"),
        }
    }
}

impl std::error::Error for MatcherError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MatcherError::Embedding(e) => Some(e),
            _ => None,
        }
    }
}
