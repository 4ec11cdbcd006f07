//! CREW's three knowledge sources, each materialised as a word-pair
//! distance matrix over the words of one candidate pair:
//!
//! 1. **semantic** — embedding cosine distance between word texts;
//! 2. **attribute** — the arrangement of words into (aligned) schema
//!    attributes: words in the same attribute (either record) are near;
//! 3. **importance** — distance between rank-normalised attribution
//!    weights, so words contributing equally to the decision cluster
//!    together.
//!
//! The combined CREW distance is their convex combination.

use em_data::{TokenizedPair, WordUnit};
use em_embed::{SemanticMatrixOptions, WordEmbeddings};
use em_linalg::Matrix;

/// Mixing weights of the combined distance (normalised at use time).
#[derive(Debug, Clone, Copy)]
pub struct KnowledgeWeights {
    pub semantic: f64,
    pub attribute: f64,
    pub importance: f64,
}

impl Default for KnowledgeWeights {
    fn default() -> Self {
        KnowledgeWeights {
            semantic: 1.0,
            attribute: 1.0,
            importance: 1.0,
        }
    }
}

impl KnowledgeWeights {
    /// Use only a subset of sources (ablation variants).
    pub fn only_semantic() -> Self {
        KnowledgeWeights {
            semantic: 1.0,
            attribute: 0.0,
            importance: 0.0,
        }
    }
    pub fn only_attribute() -> Self {
        KnowledgeWeights {
            semantic: 0.0,
            attribute: 1.0,
            importance: 0.0,
        }
    }
    pub fn only_importance() -> Self {
        KnowledgeWeights {
            semantic: 0.0,
            attribute: 0.0,
            importance: 1.0,
        }
    }

    fn normalised(self) -> Result<(f64, f64, f64), crate::ExplainError> {
        let (a, b, c) = (self.semantic, self.attribute, self.importance);
        if a < 0.0 || b < 0.0 || c < 0.0 || !(a + b + c).is_finite() {
            return Err(crate::ExplainError::InvalidWeights);
        }
        let sum = a + b + c;
        if sum <= 0.0 {
            return Err(crate::ExplainError::InvalidWeights);
        }
        Ok((a / sum, b / sum, c / sum))
    }
}

/// Semantic distance matrix over the pair's words (embedding cosine).
pub fn semantic_distances(tokenized: &TokenizedPair, embeddings: &WordEmbeddings) -> Matrix {
    semantic_distances_with(tokenized, embeddings, &SemanticMatrixOptions::exact())
}

/// [`semantic_distances`] with an explicit backend choice: exact all
/// pairs, the LSH-index neighbour-limited variant, or the distinct-word
/// auto switch (see [`em_embed::SemanticBackend`]).
pub fn semantic_distances_with(
    tokenized: &TokenizedPair,
    embeddings: &WordEmbeddings,
    semantic: &SemanticMatrixOptions,
) -> Matrix {
    let words: Vec<&str> = tokenized.words().iter().map(|w| w.text.as_str()).collect();
    em_embed::semantic_distance_matrix_with(embeddings, &words, semantic)
}

/// Attribute-arrangement distance: 0 for words in the same (aligned)
/// attribute — regardless of which record they come from — 1 otherwise.
/// This encodes the EM-specific schema knowledge: `L.title` words and
/// `R.title` words belong to the same semantic field.
pub fn attribute_distances(tokenized: &TokenizedPair) -> Matrix {
    let words = tokenized.words();
    let n = words.len();
    Matrix::from_fn(n, n, |i, j| {
        if words[i].attribute == words[j].attribute {
            0.0
        } else {
            1.0
        }
    })
}

/// Importance distance: absolute difference of rank-normalised weights.
/// Rank normalisation (fractional ranks mapped to `[0, 1]`) makes the distance
/// robust to the attribution scale of the underlying surrogate.
pub fn importance_distances(weights: &[f64]) -> Matrix {
    let n = weights.len();
    if n == 0 {
        return Matrix::zeros(0, 0);
    }
    let normalised = rank_normalised(weights);
    Matrix::from_fn(n, n, |i, j| (normalised[i] - normalised[j]).abs())
}

/// Fractional ranks mapped to [0,1] (the shared normalisation of
/// [`importance_distances`] and the fused [`combined_distances`] pass).
fn rank_normalised(weights: &[f64]) -> Vec<f64> {
    let n = weights.len();
    if n == 1 {
        return vec![0.5];
    }
    let ranks = em_linalg::stats::ranks(weights);
    ranks.iter().map(|r| (r - 1.0) / (n as f64 - 1.0)).collect()
}

/// The combined CREW distance.
///
/// # Errors
/// Rejects negative/zero-sum mixing weights and length mismatches.
pub fn combined_distances(
    tokenized: &TokenizedPair,
    embeddings: &WordEmbeddings,
    word_weights: &[f64],
    mix: KnowledgeWeights,
) -> Result<Matrix, crate::ExplainError> {
    combined_distances_with(
        tokenized,
        embeddings,
        word_weights,
        mix,
        &SemanticMatrixOptions::exact(),
    )
}

/// [`combined_distances`] with an explicit semantic-backend choice.
pub fn combined_distances_with(
    tokenized: &TokenizedPair,
    embeddings: &WordEmbeddings,
    word_weights: &[f64],
    mix: KnowledgeWeights,
    semantic: &SemanticMatrixOptions,
) -> Result<Matrix, crate::ExplainError> {
    let n = tokenized.len();
    if word_weights.len() != n {
        return Err(crate::ExplainError::WeightLengthMismatch {
            expected: n,
            got: word_weights.len(),
        });
    }
    let (ws, wa, wi) = mix.normalised()?;
    // Single fused pass over the n×n cells. Per cell this accumulates
    // `0 + ws·sem + wa·attr + wi·imp` with only the active sources, in
    // the same source order the previous `axpy` sequence applied — so
    // the result is bitwise-unchanged, without materialising the
    // attribute/importance matrices or re-walking the output per source.
    let sem = if ws > 0.0 {
        Some(semantic_distances_with(tokenized, embeddings, semantic))
    } else {
        None
    };
    let imp = if wi > 0.0 {
        Some(rank_normalised(word_weights))
    } else {
        None
    };
    let words = tokenized.words();
    Ok(Matrix::from_fn(n, n, |i, j| {
        let mut c = 0.0;
        if let Some(sem) = &sem {
            c += ws * sem[(i, j)];
        }
        if wa > 0.0 {
            let same = words[i].attribute == words[j].attribute;
            c += wa * if same { 0.0 } else { 1.0 };
        }
        if let Some(imp) = &imp {
            c += wi * (imp[i] - imp[j]).abs();
        }
        c
    }))
}

/// Cannot-link constraints CREW derives from the importance knowledge: a
/// strongly match-supporting word must not share a cluster with a strongly
/// match-opposing word. `quantile` (e.g. 0.25) selects how many extreme
/// words on each side are constrained.
pub fn opposite_sign_cannot_links(weights: &[f64], quantile: f64) -> Vec<(usize, usize)> {
    let n = weights.len();
    if n < 2 {
        return Vec::new();
    }
    let k = ((n as f64 * quantile).ceil() as usize).max(1);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap());
    let top: Vec<usize> = order
        .iter()
        .take(k)
        .copied()
        .filter(|&i| weights[i] > 0.0)
        .collect();
    let bottom: Vec<usize> = order
        .iter()
        .rev()
        .take(k)
        .copied()
        .filter(|&i| weights[i] < 0.0)
        .collect();
    let mut links = Vec::with_capacity(top.len() * bottom.len());
    for &a in &top {
        for &b in &bottom {
            links.push((a, b));
        }
    }
    links
}

/// Mean pairwise embedding similarity of a set of words (coherence of a
/// cluster); singletons and empty sets report 1.0.
pub fn semantic_coherence(
    words: &[WordUnit],
    member_indices: &[usize],
    embeddings: &WordEmbeddings,
) -> f64 {
    if member_indices.len() < 2 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    for (a_pos, &a) in member_indices.iter().enumerate() {
        for &b in &member_indices[a_pos + 1..] {
            sum += embeddings
                .similarity(&words[a].text, &words[b].text)
                .max(0.0);
            count += 1;
        }
    }
    sum / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{EntityPair, Record, Schema};
    use em_embed::EmbeddingOptions;
    use std::sync::Arc;

    fn tokenized() -> TokenizedPair {
        let schema = Arc::new(Schema::new(vec!["title", "brand"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["sonix tv black".into(), "sonix".into()]),
            Record::new(1, vec!["sonix television".into(), "sonix".into()]),
        )
        .unwrap();
        TokenizedPair::new(pair)
    }

    fn embeddings() -> WordEmbeddings {
        let corpus: Vec<Vec<String>> = [
            "sonix tv black",
            "sonix television black",
            "veltron tv white",
            "veltron television white",
        ]
        .iter()
        .map(|s| em_text::tokenize(s))
        .collect();
        WordEmbeddings::train(
            corpus.iter().map(|v| v.as_slice()),
            EmbeddingOptions {
                dimensions: 12,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn attribute_distance_is_binary_on_attribute_identity() {
        let tp = tokenized();
        let d = attribute_distances(&tp);
        let words = tp.words();
        for i in 0..words.len() {
            for j in 0..words.len() {
                let expect = if words[i].attribute == words[j].attribute {
                    0.0
                } else {
                    1.0
                };
                assert_eq!(d[(i, j)], expect);
            }
        }
        // Cross-record same-attribute words are near: L.title[0] and R.title[0].
        assert_eq!(d[(0, 5)], 0.0);
    }

    #[test]
    fn importance_distance_ranks_scale_free() {
        let d1 = importance_distances(&[0.1, 0.2, 0.3]);
        let d2 = importance_distances(&[1.0, 2.0, 3.0]); // same ranks
        for i in 0..3 {
            for j in 0..3 {
                assert!((d1[(i, j)] - d2[(i, j)]).abs() < 1e-12);
            }
        }
        assert_eq!(d1[(0, 2)], 1.0); // extremes are maximally distant
        assert_eq!(d1[(0, 0)], 0.0);
    }

    #[test]
    fn importance_distance_edge_sizes() {
        assert_eq!(importance_distances(&[]).rows(), 0);
        let d = importance_distances(&[0.5]);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn combined_is_convex_combination() {
        let tp = tokenized();
        let emb = embeddings();
        let w = vec![0.1; tp.len()];
        let c = combined_distances(&tp, &emb, &w, KnowledgeWeights::default()).unwrap();
        // All entries bounded by 1 (each source is bounded by 1).
        for i in 0..tp.len() {
            assert_eq!(c[(i, i)], 0.0);
            for j in 0..tp.len() {
                assert!((0.0..=1.0 + 1e-9).contains(&c[(i, j)]));
                assert!((c[(i, j)] - c[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ablation_weights_select_single_sources() {
        let tp = tokenized();
        let emb = embeddings();
        let w: Vec<f64> = (0..tp.len()).map(|i| i as f64).collect();
        let only_attr =
            combined_distances(&tp, &emb, &w, KnowledgeWeights::only_attribute()).unwrap();
        let direct = attribute_distances(&tp);
        for i in 0..tp.len() {
            for j in 0..tp.len() {
                assert_eq!(only_attr[(i, j)], direct[(i, j)]);
            }
        }
        let only_imp =
            combined_distances(&tp, &emb, &w, KnowledgeWeights::only_importance()).unwrap();
        let direct_imp = importance_distances(&w);
        for i in 0..tp.len() {
            for j in 0..tp.len() {
                assert!((only_imp[(i, j)] - direct_imp[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn invalid_mixes_are_rejected() {
        let tp = tokenized();
        let emb = embeddings();
        let w = vec![0.0; tp.len()];
        let zero = KnowledgeWeights {
            semantic: 0.0,
            attribute: 0.0,
            importance: 0.0,
        };
        assert!(combined_distances(&tp, &emb, &w, zero).is_err());
        let neg = KnowledgeWeights {
            semantic: -1.0,
            attribute: 1.0,
            importance: 1.0,
        };
        assert!(combined_distances(&tp, &emb, &w, neg).is_err());
        // Length mismatch.
        assert!(combined_distances(&tp, &emb, &[0.0], KnowledgeWeights::default()).is_err());
    }

    #[test]
    fn cannot_links_pair_extremes_of_opposite_sign() {
        let weights = [0.9, 0.5, 0.0, -0.4, -0.8];
        let links = opposite_sign_cannot_links(&weights, 0.25);
        // k = ceil(5*0.25) = 2 per side; top = {0,1}, bottom = {4,3}.
        assert!(links.contains(&(0, 4)));
        assert_eq!(links.len(), 4);
        // All-positive weights produce no links.
        assert!(opposite_sign_cannot_links(&[0.1, 0.2, 0.3], 0.5).is_empty());
        assert!(opposite_sign_cannot_links(&[0.1], 0.5).is_empty());
    }

    #[test]
    fn coherence_of_identical_words_is_one() {
        let tp = tokenized();
        let emb = embeddings();
        let words = tp.words();
        // words[0] = "sonix" (L.title), words[4] = "sonix" (R.title)
        assert_eq!(words[0].text, "sonix");
        assert_eq!(words[4].text, "sonix");
        let c = semantic_coherence(words, &[0, 4], &emb);
        assert!((c - 1.0).abs() < 1e-9);
        assert_eq!(semantic_coherence(words, &[0], &emb), 1.0);
        assert_eq!(semantic_coherence(words, &[], &emb), 1.0);
    }

    #[test]
    fn coherence_ranks_related_above_unrelated() {
        let tp = tokenized();
        let emb = embeddings();
        let words = tp.words();
        // "tv"(1) and "television"(5) share contexts; "black"(2) and
        // "sonix"(0) less so.
        assert_eq!(words[5].text, "television");
        let related = semantic_coherence(words, &[1, 5], &emb);
        let unrelated = semantic_coherence(words, &[0, 2], &emb);
        assert!(
            related >= unrelated,
            "related {related} unrelated {unrelated}"
        );
    }
}
