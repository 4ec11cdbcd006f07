//! Evaluation contexts: a prepared dataset (splits, embeddings) plus a
//! lazily trained, cached model zoo — everything an experiment runner
//! needs, derived deterministically from one seed.

use em_data::{Dataset, Split};
use em_embed::{EmbeddingOptions, WordEmbeddings};
use em_matchers::{
    AttentionMatcher, AttentionOptions, LogisticMatcher, Matcher, MlpMatcher, RuleMatcher,
    TrainOptions,
};
use em_synth::{generate, Family, GeneratorConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

/// Which matcher family to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatcherKind {
    Logistic,
    Mlp,
    Attention,
    Rules,
}

impl MatcherKind {
    pub fn all() -> [MatcherKind; 4] {
        [
            MatcherKind::Logistic,
            MatcherKind::Mlp,
            MatcherKind::Attention,
            MatcherKind::Rules,
        ]
    }

    pub fn label(self) -> &'static str {
        match self {
            MatcherKind::Logistic => "logistic",
            MatcherKind::Mlp => "mlp",
            MatcherKind::Attention => "attention",
            MatcherKind::Rules => "rules",
        }
    }
}

/// A prepared dataset with cached trained models.
pub struct EvalContext {
    pub family: Family,
    /// The generator configuration this context was prepared from (the
    /// identity the [`crate::store::ContextStore`] caches under).
    pub config: GeneratorConfig,
    pub dataset: Dataset,
    pub split: Split,
    pub embeddings: Arc<WordEmbeddings>,
    pub seed: u64,
    /// Lazily trained model zoo. Each kind owns a coalescing slot, so
    /// concurrent first requests train the model exactly once (the old
    /// check-unlock-train-insert sequence could train twice under
    /// concurrency, wasting work and making the trace schedule-dependent).
    zoo: Mutex<HashMap<MatcherKind, Arc<ModelSlot>>>,
}

/// The single-flight slot one matcher kind is trained in.
type ModelSlot = crate::store::Slot<Arc<dyn Matcher>>;

impl EvalContext {
    /// Prepare a context for one family: generate data, split 70/15/15,
    /// train embeddings on the training corpus.
    pub fn prepare(family: Family, config: GeneratorConfig) -> Result<Self, crate::EvalError> {
        let dataset = generate(family, config)?;
        let split = dataset.split(0.7, 0.15, config.seed)?;
        let embeddings = Arc::new(WordEmbeddings::train_on_dataset(
            &split.train,
            EmbeddingOptions::default(),
        )?);
        Ok(EvalContext {
            family,
            config,
            dataset,
            split,
            embeddings,
            seed: config.seed,
            zoo: Mutex::new(HashMap::new()),
        })
    }

    /// Prepare with the standard benchmark sizing.
    pub fn prepare_standard(family: Family, seed: u64) -> Result<Self, crate::EvalError> {
        EvalContext::prepare(
            family,
            GeneratorConfig {
                match_rate: family.standard_match_rate(),
                seed,
                ..Default::default()
            },
        )
    }

    /// Train (or fetch from cache) a matcher of the requested kind.
    /// Concurrent first requests coalesce on the kind's slot: the model
    /// is trained exactly once and the losers block for the result.
    pub fn matcher(&self, kind: MatcherKind) -> Result<Arc<dyn Matcher>, crate::EvalError> {
        let slot = {
            let mut zoo = self.zoo.lock().expect("matcher zoo lock poisoned");
            Arc::clone(
                zoo.entry(kind)
                    .or_insert_with(|| Arc::new(crate::store::Slot::new())),
            )
        };
        let (trained, _) = slot.get_or_try_init(|| {
            // Root-anchored like the store computes: whichever caller
            // trains first is schedule-dependent.
            let _span = em_obs::root_span!("matcher/train");
            em_obs::counter!("matcher/trained", 1);
            Ok::<_, crate::EvalError>(match kind {
                MatcherKind::Logistic => Arc::new(LogisticMatcher::fit(
                    &self.split.train,
                    &self.split.validation,
                    TrainOptions {
                        seed: self.seed,
                        ..Default::default()
                    },
                )?) as Arc<dyn Matcher>,
                MatcherKind::Mlp => Arc::new(MlpMatcher::fit(
                    &self.split.train,
                    &self.split.validation,
                    TrainOptions {
                        seed: self.seed,
                        ..Default::default()
                    },
                )?),
                // The context's embeddings are the ones `fit` would train:
                // the same split, with default options.
                MatcherKind::Attention => Arc::new(AttentionMatcher::fit_with_embeddings(
                    &self.split.train,
                    &self.split.validation,
                    Arc::clone(&self.embeddings),
                    AttentionOptions {
                        seed: self.seed,
                        ..Default::default()
                    },
                )?),
                MatcherKind::Rules => {
                    Arc::new(RuleMatcher::uniform(self.dataset.schema().len(), 0.5)?)
                }
            })
        })?;
        Ok(Arc::clone(&trained))
    }

    /// Build an [`em_data::EntityPair`] from raw attribute values against
    /// this context's schema — the boundary where a served request's JSON
    /// payload becomes a typed pair. Fails (length mismatch) map to a
    /// client error, not a panic.
    pub fn pair_from_values(
        &self,
        left: Vec<String>,
        right: Vec<String>,
    ) -> Result<em_data::EntityPair, em_data::DataError> {
        em_data::EntityPair::new(
            self.dataset.schema_arc(),
            em_data::Record::new(0, left),
            em_data::Record::new(1, right),
        )
    }

    /// Deterministic sample of test pairs to explain (stratified).
    pub fn pairs_to_explain(&self, n: usize) -> Vec<em_data::LabeledPair> {
        self.split
            .test
            .sample(n, self.seed ^ 0xe8)
            .examples()
            .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctx() -> EvalContext {
        EvalContext::prepare(
            Family::Beers,
            GeneratorConfig {
                entities: 60,
                pairs: 150,
                match_rate: 0.3,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn prepare_builds_consistent_splits() {
        let ctx = small_ctx();
        assert_eq!(
            ctx.split.train.len() + ctx.split.validation.len() + ctx.split.test.len(),
            150
        );
        assert!(ctx.embeddings.vocab_size() > 10);
    }

    #[test]
    fn matcher_cache_returns_same_instance() {
        let ctx = small_ctx();
        let a = ctx.matcher(MatcherKind::Rules).unwrap();
        let b = ctx.matcher(MatcherKind::Rules).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn trained_matchers_predict_probabilities() {
        let ctx = small_ctx();
        let m = ctx.matcher(MatcherKind::Logistic).unwrap();
        for ex in ctx.split.test.examples().iter().take(5) {
            let p = m.predict_proba(&ex.pair);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn pairs_to_explain_is_deterministic_and_sized() {
        let ctx = small_ctx();
        let a = ctx.pairs_to_explain(8);
        let b = ctx.pairs_to_explain(8);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pair.left().id, y.pair.left().id);
        }
    }

    #[test]
    fn matcher_kind_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            MatcherKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
