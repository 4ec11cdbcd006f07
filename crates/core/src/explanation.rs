//! Explanation data types shared by CREW and every baseline explainer.
//!
//! The common currency is the word-level attribution ([`WordExplanation`]);
//! CREW additionally produces a [`ClusterExplanation`], whose units are
//! groups of words. Both expose a uniform [`ExplanationUnit`] view so the
//! fidelity/interpretability metrics can treat all explainers identically.

use em_data::{Schema, TokenizedPair, WordUnit};

/// Per-word attribution for one pair.
#[derive(Debug, Clone)]
pub struct WordExplanation {
    /// Name of the explainer that produced this.
    pub explainer: String,
    /// The word units of the pair (aligned with `weights`).
    pub words: Vec<WordUnit>,
    /// Signed importance of each word (positive pushes toward "match").
    pub weights: Vec<f64>,
    /// Model probability on the unperturbed pair.
    pub base_score: f64,
    /// Surrogate intercept (local model value with everything dropped).
    pub intercept: f64,
    /// Weighted R² of the local surrogate on its perturbation sample
    /// (NaN-free; explainers without a surrogate report 1.0).
    pub surrogate_r2: f64,
}

impl WordExplanation {
    /// Indices of words ranked by |weight| descending (ties by index).
    pub fn ranked_indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.weights.len()).collect();
        idx.sort_by(|&a, &b| {
            self.weights[b]
                .abs()
                .partial_cmp(&self.weights[a].abs())
                .unwrap()
                .then(a.cmp(&b))
        });
        idx
    }

    /// The top-k words by |weight|.
    pub fn top_words(&self, k: usize) -> Vec<(&WordUnit, f64)> {
        self.ranked_indices()
            .into_iter()
            .take(k)
            .map(|i| (&self.words[i], self.weights[i]))
            .collect()
    }

    /// Units view: one unit per word whose |weight| contributes to the top
    /// `mass_threshold` fraction of total absolute weight. This defines the
    /// "effective explanation size" of word-level explainers.
    pub fn units(&self, mass_threshold: f64) -> Vec<ExplanationUnit> {
        let total: f64 = self.weights.iter().map(|w| w.abs()).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mut units = Vec::new();
        let mut cum = 0.0;
        for i in self.ranked_indices() {
            if cum >= mass_threshold * total {
                break;
            }
            let w = self.weights[i];
            if w.abs() <= f64::EPSILON {
                break;
            }
            cum += w.abs();
            units.push(ExplanationUnit {
                member_indices: vec![i],
                weight: w,
            });
        }
        units
    }

    /// Render a compact text table of the top-k attributions.
    pub fn render(&self, schema: &Schema, k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} explanation (base score {:.3}, surrogate R² {:.3})\n",
            self.explainer, self.base_score, self.surrogate_r2
        ));
        for (w, weight) in self.top_words(k) {
            out.push_str(&format!("  {:+.4}  {}\n", weight, w.label(schema)));
        }
        out
    }

    /// Approximate resident heap bytes of this explanation — the accounting
    /// unit of the byte-budgeted stores. An estimate, not an exact
    /// allocation count: it must only be monotone in the real footprint.
    pub fn approx_bytes(&self) -> usize {
        let words: usize = self
            .words
            .iter()
            .map(|w| w.text.len() + std::mem::size_of::<WordUnit>())
            .sum();
        words + self.weights.len() * 8 + self.explainer.len() + 64
    }
}

/// One cluster of a CREW explanation.
#[derive(Debug, Clone)]
pub struct WordCluster {
    /// Indices into the explanation's word list.
    pub member_indices: Vec<usize>,
    /// Group-level signed importance (from the group surrogate).
    pub weight: f64,
    /// Mean pairwise semantic similarity of the member words in `[0, 1]`
    /// (1 = perfectly coherent; singletons report 1).
    pub coherence: f64,
}

/// Cluster-of-words explanation — CREW's output.
#[derive(Debug, Clone)]
pub struct ClusterExplanation {
    /// The word-level explanation CREW computed internally (kept for
    /// fidelity comparisons and drill-down display).
    pub word_level: WordExplanation,
    /// The clusters, ranked by |weight| descending.
    pub clusters: Vec<WordCluster>,
    /// Number of clusters chosen by the model-selection step.
    pub selected_k: usize,
    /// Weighted R² of the group-level surrogate.
    pub group_r2: f64,
    /// Silhouette of the selected partition under the combined distance.
    pub silhouette: f64,
}

impl ClusterExplanation {
    /// Approximate resident heap bytes (see
    /// [`WordExplanation::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        let clusters: usize = self
            .clusters
            .iter()
            .map(|c| c.member_indices.len() * 8 + std::mem::size_of::<WordCluster>())
            .sum();
        self.word_level.approx_bytes() + clusters + 64
    }

    /// Units view (one unit per cluster).
    pub fn units(&self) -> Vec<ExplanationUnit> {
        self.clusters
            .iter()
            .map(|c| ExplanationUnit {
                member_indices: c.member_indices.clone(),
                weight: c.weight,
            })
            .collect()
    }

    /// Render the clusters as a text block.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "CREW explanation: {} clusters (group R² {:.3}, silhouette {:.3})\n",
            self.selected_k, self.group_r2, self.silhouette
        ));
        for (i, c) in self.clusters.iter().enumerate() {
            let labels: Vec<String> = c
                .member_indices
                .iter()
                .map(|&w| self.word_level.words[w].label(schema))
                .collect();
            out.push_str(&format!(
                "  #{:<2} {:+.4} (coherence {:.2}) {{{}}}\n",
                i + 1,
                c.weight,
                c.coherence,
                labels.join(", ")
            ));
        }
        out
    }
}

/// A unit of explanation: a set of words with one signed weight. Word-level
/// explainers produce singleton units; CREW produces cluster units.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationUnit {
    pub member_indices: Vec<usize>,
    pub weight: f64,
}

/// Convenience: build the `TokenizedPair`-aligned word list for an
/// explanation (all explainers must emit weights aligned with this order).
pub fn words_of(tokenized: &TokenizedPair) -> Vec<WordUnit> {
    tokenized.words().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{EntityPair, Record, Schema, Side};
    use std::sync::Arc;

    fn sample_explanation() -> (WordExplanation, Arc<Schema>) {
        let schema = Arc::new(Schema::new(vec!["title"]));
        let pair = EntityPair::new(
            Arc::clone(&schema),
            Record::new(0, vec!["alpha beta gamma".into()]),
            Record::new(1, vec!["alpha delta".into()]),
        )
        .unwrap();
        let tp = TokenizedPair::new(pair);
        let words = words_of(&tp);
        let weights = vec![0.5, -0.1, 0.0, 0.4, -0.3];
        (
            WordExplanation {
                explainer: "test".into(),
                words,
                weights,
                base_score: 0.8,
                intercept: 0.2,
                surrogate_r2: 0.95,
            },
            schema,
        )
    }

    #[test]
    fn ranking_orders_by_absolute_weight() {
        let (e, _) = sample_explanation();
        assert_eq!(e.ranked_indices(), vec![0, 3, 4, 1, 2]);
    }

    #[test]
    fn top_words_truncates() {
        let (e, _) = sample_explanation();
        let top = e.top_words(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 0.5);
        assert_eq!(top[1].1, 0.4);
        assert_eq!(top[0].0.text, "alpha");
        assert_eq!(top[0].0.side, Side::Left);
    }

    #[test]
    fn units_cover_requested_mass() {
        let (e, _) = sample_explanation();
        // |weights| = [.5,.1,0,.4,.3], total 1.3. 80% of mass = 1.04:
        // 0.5 + 0.4 = 0.9 < 1.04, + 0.3 = 1.2 >= 1.04 → 3 units.
        let units = e.units(0.8);
        assert_eq!(units.len(), 3);
        assert_eq!(units[0].member_indices, vec![0]);
        // Full mass keeps all non-zero words.
        assert_eq!(e.units(1.0).len(), 4);
    }

    #[test]
    fn units_of_zero_explanation_are_empty() {
        let (mut e, _) = sample_explanation();
        e.weights = vec![0.0; e.weights.len()];
        assert!(e.units(0.8).is_empty());
    }

    #[test]
    fn render_contains_labels_and_scores() {
        let (e, schema) = sample_explanation();
        let text = e.render(&schema, 3);
        assert!(text.contains("base score 0.800"));
        assert!(text.contains("L.title:alpha"));
        assert!(text.contains("+0.5000"));
    }

    #[test]
    fn cluster_explanation_units_and_render() {
        let (word_level, schema) = sample_explanation();
        let ce = ClusterExplanation {
            word_level,
            clusters: vec![
                WordCluster {
                    member_indices: vec![0, 3],
                    weight: 0.9,
                    coherence: 0.8,
                },
                WordCluster {
                    member_indices: vec![1, 4],
                    weight: -0.4,
                    coherence: 0.6,
                },
            ],
            selected_k: 2,
            group_r2: 0.92,
            silhouette: 0.4,
        };
        let units = ce.units();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].member_indices, vec![0, 3]);
        let text = ce.render(&schema);
        assert!(text.contains("2 clusters"));
        assert!(text.contains("L.title:alpha"));
        assert!(text.contains("R.title:alpha"));
    }
}
