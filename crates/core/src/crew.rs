//! The CREW explainer: cluster-of-words explanations combining semantic,
//! attribute-arrangement and importance knowledge.
//!
//! Pipeline (reconstruction of the paper's approach from its abstract — see
//! DESIGN.md):
//!
//! 1. perturb the pair and fit a word-level surrogate → importances φ;
//! 2. build the combined word distance `α·d_sem + β·d_attr + γ·d_imp`;
//! 3. constrained average-linkage agglomerative clustering (opposite-sign
//!    extreme words cannot link);
//! 4. cut the dendrogram at every K, fit a *group-level* surrogate on the
//!    same perturbation sample (the [`GroupSweep`] of step 1 continued
//!    across the cuts), and pick the smallest K whose group R² retains
//!    `tau` of the best achievable group fidelity (the knee of the
//!    fidelity-vs-size curve);
//! 5. emit clusters with group-surrogate weights and semantic coherence.

use crate::explainer::Explainer;
use crate::explanation::{words_of, ClusterExplanation, WordCluster, WordExplanation};
use crate::knowledge::{
    combined_distances_with, opposite_sign_cannot_links, semantic_coherence, KnowledgeWeights,
};
use crate::perturb::{perturb, PerturbOptions, PerturbationSet};
use crate::surrogate::{GroupSweep, SurrogateOptions};
use em_cluster::{agglomerative, silhouette, sweep_cuts, Constraints, Linkage};
use em_data::{EntityPair, TokenizedPair};
use em_embed::WordEmbeddings;
use em_matchers::Matcher;
use std::sync::Arc;

/// Which flat-clustering driver produces the candidate partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterAlgorithm {
    /// Constrained agglomerative clustering (the CREW default): one
    /// dendrogram cut at every K, cannot-link constraints supported.
    Agglomerative,
    /// k-medoids per K — the flat-clustering ablation. Cannot-link
    /// constraints are not supported and are ignored on this path.
    KMedoids,
}

/// CREW configuration.
#[derive(Debug, Clone)]
pub struct CrewOptions {
    /// Perturbation sampling options (budget, strategy, seed, threads).
    pub perturb: PerturbOptions,
    /// Surrogate kernel/regularisation.
    pub surrogate: SurrogateOptions,
    /// Mixing weights of the three knowledge sources.
    pub knowledge: KnowledgeWeights,
    /// Clustering driver (agglomerative by default; k-medoids ablation).
    pub algorithm: ClusterAlgorithm,
    /// Linkage criterion of the agglomerative step.
    pub linkage: Linkage,
    /// Largest K considered during model selection.
    pub max_clusters: usize,
    /// Fidelity retention target: selected K is the smallest whose group
    /// R² reaches `tau` × the best group R² over the whole K range.
    pub tau: f64,
    /// Quantile of extreme-importance words receiving cannot-link
    /// constraints (0 disables constraints).
    pub cannot_link_quantile: f64,
    /// Semantic distance backend: exact all-pairs (the default, pinned
    /// bitwise to the original behaviour), the LSH ANN index, or the
    /// distinct-word-count auto switch.
    pub semantic: em_embed::SemanticMatrixOptions,
}

impl Default for CrewOptions {
    fn default() -> Self {
        CrewOptions {
            perturb: PerturbOptions::default(),
            surrogate: SurrogateOptions::default(),
            knowledge: KnowledgeWeights::default(),
            algorithm: ClusterAlgorithm::Agglomerative,
            linkage: Linkage::Average,
            max_clusters: 10,
            tau: 0.9,
            cannot_link_quantile: 0.15,
            // Auto is bitwise-identical to exact below the distinct-word
            // threshold, which per-pair word lists never approach.
            semantic: em_embed::SemanticMatrixOptions::default(),
        }
    }
}

/// The CREW explainer. Holds the word embeddings used for the semantic
/// knowledge source (typically trained once per dataset).
pub struct Crew {
    embeddings: Arc<WordEmbeddings>,
    options: CrewOptions,
}

impl Crew {
    pub fn new(embeddings: Arc<WordEmbeddings>, options: CrewOptions) -> Self {
        Crew {
            embeddings,
            options,
        }
    }

    /// Convenience constructor with default options.
    pub fn with_defaults(embeddings: Arc<WordEmbeddings>) -> Self {
        Crew::new(embeddings, CrewOptions::default())
    }

    pub fn options(&self) -> &CrewOptions {
        &self.options
    }

    /// Produce `(k, labels, silhouette)` candidate partitions for every K in
    /// the model selection range, in ascending K, using the configured
    /// clustering driver. `distances` and `word_weights` are the combined
    /// distance matrix and word-surrogate weights of an `n`-word pair.
    ///
    /// On the agglomerative path consecutive cuts come from one incremental
    /// merge replay ([`sweep_cuts`]) that also scores each cut's silhouette
    /// from shared accumulators, instead of re-running union-find and an
    /// O(n²·k) silhouette per K.
    pub fn candidate_partitions(
        &self,
        distances: &em_linalg::Matrix,
        word_weights: &[f64],
        n: usize,
    ) -> Result<Vec<(usize, Vec<usize>, f64)>, crate::ExplainError> {
        match self.options.algorithm {
            ClusterAlgorithm::Agglomerative => {
                let constraints = if self.options.cannot_link_quantile > 0.0 {
                    Constraints {
                        must_link: Vec::new(),
                        cannot_link: opposite_sign_cannot_links(
                            word_weights,
                            self.options.cannot_link_quantile,
                        ),
                    }
                } else {
                    Constraints::none()
                };
                let dendrogram = agglomerative(distances, self.options.linkage, &constraints)
                    .map_err(crate::ExplainError::Cluster)?;
                let k_lo = dendrogram.min_clusters().max(1);
                let k_hi = self
                    .options
                    .max_clusters
                    .min(dendrogram.max_clusters())
                    .max(k_lo);
                let cuts = sweep_cuts(&dendrogram, distances, k_lo, k_hi)
                    .map_err(crate::ExplainError::Cluster)?;
                Ok(cuts
                    .into_iter()
                    .map(|cut| (cut.k, cut.labels, cut.silhouette))
                    .collect())
            }
            ClusterAlgorithm::KMedoids => {
                let k_hi = self.options.max_clusters.min(n).max(1);
                (1..=k_hi)
                    .map(|k| {
                        let r = em_cluster::kmedoids(
                            distances,
                            k,
                            self.options.perturb.seed ^ k as u64,
                            40,
                        )
                        .map_err(crate::ExplainError::Cluster)?;
                        let sil = silhouette(distances, &r.labels)
                            .map_err(crate::ExplainError::Cluster)?;
                        Ok((k, r.labels, sil))
                    })
                    .collect()
            }
        }
    }

    /// Produce the full cluster-of-words explanation for one pair.
    pub fn explain_clusters(
        &self,
        matcher: &dyn Matcher,
        pair: &EntityPair,
    ) -> Result<ClusterExplanation, crate::ExplainError> {
        let tokenized = TokenizedPair::new(pair.clone());
        if tokenized.is_empty() {
            return Err(crate::ExplainError::EmptyPair);
        }
        if self.options.tau <= 0.0 || self.options.tau > 1.0 {
            return Err(crate::ExplainError::InvalidTau(self.options.tau));
        }

        // 1. Importance knowledge: one perturbation sample reused by both
        //    the word-level and every group-level surrogate.
        let set = {
            let _span = em_obs::span!("crew/perturb");
            perturb(&tokenized, matcher, &self.options.perturb)?
        };
        self.explain_clusters_with_set(&tokenized, &set)
    }

    /// Build the perturbation sample behind an explanation of `tokenized` —
    /// the only stage of the pipeline that queries the matcher. Explaining
    /// from a precomputed set via [`Crew::explain_clusters_with_set`] is
    /// bitwise-identical to [`Crew::explain_clusters`], which lets callers
    /// (the evaluation substrate, option ablations) pay the model queries
    /// once and reuse them across clustering variants.
    pub fn perturbation_set(
        &self,
        matcher: &dyn Matcher,
        tokenized: &TokenizedPair,
    ) -> Result<PerturbationSet, crate::ExplainError> {
        let _span = em_obs::span!("crew/perturb");
        perturb(tokenized, matcher, &self.options.perturb)
    }

    /// The matcher-query-free tail of [`Crew::explain_clusters`]: surrogate
    /// fits, knowledge distances, clustering and model selection, all from
    /// an existing perturbation sample of the same pair and budget.
    pub fn explain_clusters_with_set(
        &self,
        tokenized: &TokenizedPair,
        set: &PerturbationSet,
    ) -> Result<ClusterExplanation, crate::ExplainError> {
        let n = tokenized.len();
        if n == 0 {
            return Err(crate::ExplainError::EmptyPair);
        }
        if self.options.tau <= 0.0 || self.options.tau > 1.0 {
            return Err(crate::ExplainError::InvalidTau(self.options.tau));
        }
        em_obs::counter!("crew/explanations", 1);
        // One surrogate sweep serves the word fit (the all-singleton cut)
        // and every cut model selection scores.
        let mut sweep = GroupSweep::new(set, &self.options.surrogate);
        let word_fit = {
            let _span = em_obs::span!("crew/word_surrogate");
            sweep.fit_words()?
        };
        let word_level = WordExplanation {
            explainer: "crew".to_string(),
            words: words_of(tokenized),
            weights: word_fit.weights.clone(),
            base_score: set.base_score(),
            intercept: word_fit.intercept,
            surrogate_r2: word_fit.r_squared,
        };

        // Degenerate case: a single word is its own cluster.
        if n == 1 {
            return Ok(ClusterExplanation {
                clusters: vec![WordCluster {
                    member_indices: vec![0],
                    weight: word_fit.weights[0],
                    coherence: 1.0,
                }],
                selected_k: 1,
                group_r2: word_fit.r_squared,
                silhouette: 0.0,
                word_level,
            });
        }

        // 2. Combined distance over the three knowledge sources.
        let distances = {
            let _span = em_obs::span!("crew/distances");
            combined_distances_with(
                tokenized,
                &self.embeddings,
                &word_fit.weights,
                self.options.knowledge,
                &self.options.semantic,
            )?
        };

        // 3. Candidate partitions at every K, from the configured driver.
        //    (Agglomerative: one constrained dendrogram cut at each K;
        //    k-medoids ablation: an independent run per K.)
        let partitions = {
            let _span = em_obs::span!("crew/cluster");
            self.candidate_partitions(&distances, &word_fit.weights, n)?
        };

        // 4. Model selection over K: evaluate the group surrogate at every
        //    candidate partition, then pick the smallest K retaining at
        //    least `tau` of the *best achievable* group fidelity — the knee
        //    of the fidelity-vs-size curve. (Relative-to-best rather than
        //    relative-to-word-level: the word surrogate has more degrees of
        //    freedom and its R² may be unreachable by any grouping, which
        //    would otherwise push K to the ceiling.)
        //    The sweep computes each group's column and each Gram entry
        //    once, singletons included.
        let (selected_k, labels, group_fit, sil) = {
            let _span = em_obs::span!("crew/model_select");
            let word_columns = sweep.columns();
            let mut cuts: Vec<(usize, Vec<usize>, crate::surrogate::SurrogateFit, f64)> =
                Vec::with_capacity(partitions.len());
            let mut best_r2 = f64::NEG_INFINITY;
            for (k, labels, sil) in partitions {
                let groups = em_cluster::groups_from_labels(&labels);
                let fit = sweep.fit(&groups)?;
                best_r2 = best_r2.max(fit.r_squared);
                cuts.push((k, labels, fit, sil));
            }
            em_obs::counter!("crew/model_select/cuts", cuts.len() as u64);
            em_obs::counter!(
                "crew/model_select/columns",
                (sweep.columns() - word_columns) as u64
            );
            let target_r2 = self.options.tau * best_r2.max(0.0);
            let chosen = cuts
                .iter()
                .position(|(_, _, fit, _)| fit.r_squared >= target_r2)
                .unwrap_or(cuts.len() - 1);
            cuts.swap_remove(chosen)
        };

        // 5. Build ranked clusters with coherence.
        let mut groups = em_cluster::groups_from_labels(&labels);
        // Order members inside each cluster by their word-level importance
        // (most influential first) — this is both the natural display order
        // and the order deletion-based fidelity metrics walk a unit in.
        for g in &mut groups {
            g.sort_by(|&a, &b| {
                word_fit.weights[b]
                    .abs()
                    .partial_cmp(&word_fit.weights[a].abs())
                    .unwrap()
                    .then(a.cmp(&b))
            });
        }
        let mut clusters: Vec<WordCluster> = groups
            .into_iter()
            .enumerate()
            .map(|(g, member_indices)| {
                let coherence = semantic_coherence(
                    word_level.words.as_slice(),
                    &member_indices,
                    &self.embeddings,
                );
                WordCluster {
                    member_indices,
                    weight: group_fit.weights[g],
                    coherence,
                }
            })
            .collect();
        clusters.sort_by(|a, b| {
            b.weight
                .abs()
                .partial_cmp(&a.weight.abs())
                .unwrap()
                .then(a.member_indices[0].cmp(&b.member_indices[0]))
        });

        Ok(ClusterExplanation {
            word_level,
            clusters,
            selected_k,
            group_r2: group_fit.r_squared,
            silhouette: sil,
        })
    }

    /// Sweep every K and report `(k, group_r2, silhouette)` — the series
    /// behind the fidelity-vs-K figure.
    pub fn k_sweep(
        &self,
        matcher: &dyn Matcher,
        pair: &EntityPair,
    ) -> Result<Vec<(usize, f64, f64)>, crate::ExplainError> {
        let tokenized = TokenizedPair::new(pair.clone());
        if tokenized.is_empty() {
            return Err(crate::ExplainError::EmptyPair);
        }
        let set = perturb(&tokenized, matcher, &self.options.perturb)?;
        self.k_sweep_with_set(&tokenized, &set)
    }

    /// The matcher-query-free tail of [`Crew::k_sweep`], from an existing
    /// perturbation sample of the same pair and budget.
    pub fn k_sweep_with_set(
        &self,
        tokenized: &TokenizedPair,
        set: &PerturbationSet,
    ) -> Result<Vec<(usize, f64, f64)>, crate::ExplainError> {
        if tokenized.is_empty() {
            return Err(crate::ExplainError::EmptyPair);
        }
        let mut sweep = GroupSweep::new(set, &self.options.surrogate);
        let word_fit = sweep.fit_words()?;
        let distances = combined_distances_with(
            tokenized,
            &self.embeddings,
            &word_fit.weights,
            self.options.knowledge,
            &self.options.semantic,
        )?;
        // Same candidate partitions as the main pipeline (configured
        // algorithm, linkage and constraints), so the sweep shows exactly
        // the options the selection rule chose among.
        let partitions =
            self.candidate_partitions(&distances, &word_fit.weights, tokenized.len())?;
        partitions
            .into_iter()
            .map(|(k, labels, sil)| {
                let fit = sweep.fit(&em_cluster::groups_from_labels(&labels))?;
                Ok((k, fit.r_squared, sil))
            })
            .collect()
    }
}

impl Explainer for Crew {
    fn name(&self) -> &str {
        "crew"
    }

    /// Word-level view of CREW: each word inherits its cluster's weight
    /// split evenly among members (so cluster structure is reflected in the
    /// word ranking used by the shared fidelity metrics).
    fn explain(
        &self,
        matcher: &dyn Matcher,
        pair: &EntityPair,
    ) -> Result<WordExplanation, crate::ExplainError> {
        let ce = self.explain_clusters(matcher, pair)?;
        let mut weights = vec![0.0; ce.word_level.words.len()];
        for cluster in &ce.clusters {
            let share = cluster.weight / cluster.member_indices.len() as f64;
            for &i in &cluster.member_indices {
                weights[i] = share;
            }
        }
        Ok(WordExplanation {
            explainer: "crew".to_string(),
            words: ce.word_level.words.clone(),
            weights,
            base_score: ce.word_level.base_score,
            intercept: ce.word_level.intercept,
            surrogate_r2: ce.group_r2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{Record, Schema, Side};
    use em_embed::EmbeddingOptions;

    /// Matcher scoring by overlap of title tokens (word-sensitive).
    struct OverlapMatcher;
    impl Matcher for OverlapMatcher {
        fn name(&self) -> &str {
            "overlap"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            em_text::jaccard(
                &em_text::tokenize(&pair.left().full_text()),
                &em_text::tokenize(&pair.right().full_text()),
            )
        }
    }

    fn embeddings() -> Arc<WordEmbeddings> {
        let corpus: Vec<Vec<String>> = [
            "sonix bravia tv black",
            "sonix bravia television black",
            "veltron qled tv white",
            "veltron qled television white",
            "sonix tv",
            "veltron television",
        ]
        .iter()
        .map(|s| em_text::tokenize(s))
        .collect();
        Arc::new(
            WordEmbeddings::train(
                corpus.iter().map(|v| v.as_slice()),
                EmbeddingOptions {
                    dimensions: 16,
                    ..Default::default()
                },
            )
            .unwrap(),
        )
    }

    fn pair() -> EntityPair {
        let schema = Arc::new(Schema::new(vec!["title", "brand"]));
        EntityPair::new(
            schema,
            Record::new(0, vec!["sonix bravia tv black".into(), "sonix".into()]),
            Record::new(1, vec!["sonix bravia television".into(), "sonix".into()]),
        )
        .unwrap()
    }

    fn crew() -> Crew {
        Crew::new(
            embeddings(),
            CrewOptions {
                perturb: PerturbOptions {
                    samples: 200,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn produces_a_partition_of_all_words() {
        let c = crew();
        let ce = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        let n = ce.word_level.words.len();
        let mut seen = vec![false; n];
        for cl in &ce.clusters {
            for &i in &cl.member_indices {
                assert!(!seen[i], "word {i} in two clusters");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "partition must cover all words");
        assert_eq!(ce.clusters.len(), ce.selected_k);
        assert!(ce.selected_k >= 1 && ce.selected_k <= 10);
    }

    #[test]
    fn clusters_are_fewer_than_words() {
        let c = crew();
        let ce = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        assert!(
            ce.selected_k < ce.word_level.words.len(),
            "CREW should compress {} words into fewer clusters, got {}",
            ce.word_level.words.len(),
            ce.selected_k
        );
    }

    #[test]
    fn group_fidelity_close_to_word_fidelity() {
        let c = crew();
        let ce = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        assert!(
            ce.group_r2 >= 0.9 * ce.word_level.surrogate_r2 - 0.05,
            "group R² {} vs word R² {}",
            ce.group_r2,
            ce.word_level.surrogate_r2
        );
    }

    #[test]
    fn clusters_ranked_by_absolute_weight() {
        let c = crew();
        let ce = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        for w in ce.clusters.windows(2) {
            assert!(w[0].weight.abs() >= w[1].weight.abs() - 1e-12);
        }
        for cl in &ce.clusters {
            assert!((0.0..=1.0 + 1e-9).contains(&cl.coherence));
        }
    }

    #[test]
    fn explain_is_deterministic() {
        let c = crew();
        let a = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        let b = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        assert_eq!(a.selected_k, b.selected_k);
        assert_eq!(a.word_level.weights, b.word_level.weights);
        for (x, y) in a.clusters.iter().zip(&b.clusters) {
            assert_eq!(x.member_indices, y.member_indices);
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn word_view_spreads_cluster_weight() {
        let c = crew();
        let we = c.explain(&OverlapMatcher, &pair()).unwrap();
        let ce = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        // Sum of word weights equals sum of cluster weights.
        let word_sum: f64 = we.weights.iter().sum();
        let cluster_sum: f64 = ce.clusters.iter().map(|c| c.weight).sum();
        assert!((word_sum - cluster_sum).abs() < 1e-9);
        assert_eq!(we.explainer, "crew");
    }

    #[test]
    fn k_sweep_covers_range_and_r2_grows() {
        let c = crew();
        let sweep = c.k_sweep(&OverlapMatcher, &pair()).unwrap();
        // With cannot-link constraints the smallest achievable K may
        // exceed 1; the sweep still covers the selection range.
        assert!(sweep[0].0 >= 1);
        assert!(sweep.len() >= 5);
        // Fidelity at max K should be at least fidelity at K=1.
        assert!(sweep.last().unwrap().1 >= sweep[0].1 - 1e-9);
    }

    #[test]
    fn single_word_pair_yields_one_cluster() {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let p = EntityPair::new(
            schema,
            Record::new(0, vec!["solo".into()]),
            Record::new(1, vec!["".into()]),
        )
        .unwrap();
        let c = crew();
        let ce = c.explain_clusters(&OverlapMatcher, &p).unwrap();
        assert_eq!(ce.selected_k, 1);
        assert_eq!(ce.clusters[0].member_indices, vec![0]);
    }

    #[test]
    fn empty_pair_is_error() {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let p = EntityPair::new(
            schema,
            Record::new(0, vec!["".into()]),
            Record::new(1, vec!["".into()]),
        )
        .unwrap();
        assert!(matches!(
            crew().explain_clusters(&OverlapMatcher, &p),
            Err(crate::ExplainError::EmptyPair)
        ));
    }

    #[test]
    fn kmedoids_variant_also_partitions() {
        let opts = CrewOptions {
            algorithm: ClusterAlgorithm::KMedoids,
            perturb: PerturbOptions {
                samples: 100,
                ..Default::default()
            },
            ..Default::default()
        };
        let c = Crew::new(embeddings(), opts);
        let ce = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        let n = ce.word_level.words.len();
        let covered: usize = ce.clusters.iter().map(|cl| cl.member_indices.len()).sum();
        assert_eq!(covered, n);
        assert!(ce.selected_k >= 1);
        // Deterministic too.
        let c2 = Crew::new(
            embeddings(),
            CrewOptions {
                algorithm: ClusterAlgorithm::KMedoids,
                perturb: PerturbOptions {
                    samples: 100,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let ce2 = c2.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        assert_eq!(ce.selected_k, ce2.selected_k);
    }

    #[test]
    fn invalid_tau_is_error() {
        let opts = CrewOptions {
            tau: 0.0,
            ..Default::default()
        };
        let c = Crew::new(embeddings(), opts);
        assert!(matches!(
            c.explain_clusters(&OverlapMatcher, &pair()),
            Err(crate::ExplainError::InvalidTau(_))
        ));
    }

    #[test]
    fn cross_record_same_words_tend_to_cluster_together() {
        // With attribute + semantic knowledge, the "sonix" on both sides of
        // the title should co-cluster more often than with unrelated words.
        let c = crew();
        let ce = c.explain_clusters(&OverlapMatcher, &pair()).unwrap();
        let words = &ce.word_level.words;
        // Find the two title "sonix" occurrences.
        let l_sonix = words
            .iter()
            .position(|w| w.text == "sonix" && w.side == Side::Left && w.attribute == 0)
            .unwrap();
        let r_sonix = words
            .iter()
            .position(|w| w.text == "sonix" && w.side == Side::Right && w.attribute == 0)
            .unwrap();
        let cluster_of = |idx: usize| {
            ce.clusters
                .iter()
                .position(|c| c.member_indices.contains(&idx))
                .unwrap()
        };
        assert_eq!(
            cluster_of(l_sonix),
            cluster_of(r_sonix),
            "identical cross-record words should share a cluster"
        );
    }
}
