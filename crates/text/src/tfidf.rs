//! TF-IDF vectorisation over token streams, used by the logistic matcher's
//! whole-record cosine feature and by the CERTA support-set retrieval.

use std::collections::HashMap;

/// A fitted TF-IDF model: vocabulary plus smoothed inverse document
/// frequencies (`ln((1+N)/(1+df)) + 1`, the scikit-learn convention).
#[derive(Debug, Clone)]
pub struct TfIdf {
    vocab: HashMap<String, usize>,
    idf: Vec<f64>,
    n_docs: usize,
}

/// Sparse vector: sorted `(index, value)` pairs.
pub type SparseVec = Vec<(usize, f64)>;

impl TfIdf {
    /// Fit from an iterator of documents (each a token slice).
    pub fn fit<'a, I>(docs: I) -> Self
    where
        I: IntoIterator<Item = &'a [String]>,
    {
        let mut vocab: HashMap<String, usize> = HashMap::new();
        let mut df: Vec<usize> = Vec::new();
        let mut n_docs = 0usize;
        let mut seen: Vec<usize> = Vec::new();
        for doc in docs {
            n_docs += 1;
            seen.clear();
            for tok in doc {
                let next_id = vocab.len();
                let id = *vocab.entry(tok.clone()).or_insert(next_id);
                if id == df.len() {
                    df.push(0);
                }
                if !seen.contains(&id) {
                    seen.push(id);
                }
            }
            for &id in &seen {
                df[id] += 1;
            }
        }
        let idf = df
            .iter()
            .map(|&d| ((1.0 + n_docs as f64) / (1.0 + d as f64)).ln() + 1.0)
            .collect();
        TfIdf { vocab, idf, n_docs }
    }

    /// Number of documents the model was fitted on.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// IDF of a token, if in vocabulary.
    pub fn idf(&self, token: &str) -> Option<f64> {
        self.vocab.get(token).map(|&i| self.idf[i])
    }

    /// Vocabulary column of a token, if fitted.
    pub fn column(&self, token: &str) -> Option<usize> {
        self.vocab.get(token).copied()
    }

    /// IDF weight of a vocabulary column (panics if out of range).
    pub fn idf_of_column(&self, column: usize) -> f64 {
        self.idf[column]
    }

    /// [`TfIdf::transform`] from a pre-aggregated term-frequency list,
    /// in place: `counts` holds `(column, term_count)` sorted ascending by
    /// column with no duplicates, out-of-vocabulary tokens already
    /// dropped, and is turned into the document's TF-IDF vector without
    /// allocating. Bitwise-identical to `transform`: that path also
    /// multiplies `tf * idf` per entry, sorts by column, and only then
    /// accumulates the norm in ascending-column order.
    pub fn transform_sorted_counts(&self, counts: &mut SparseVec) {
        debug_assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        for (id, tf) in counts.iter_mut() {
            *tf *= self.idf[*id];
        }
        let norm: f64 = counts.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, v) in counts.iter_mut() {
                *v /= norm;
            }
        }
    }

    /// Transform a document into an L2-normalised sparse TF-IDF vector.
    /// Out-of-vocabulary tokens are dropped.
    pub fn transform(&self, doc: &[String]) -> SparseVec {
        let mut counts: HashMap<usize, f64> = HashMap::new();
        for tok in doc {
            if let Some(&id) = self.vocab.get(tok) {
                *counts.entry(id).or_insert(0.0) += 1.0;
            }
        }
        let mut vec: SparseVec = counts
            .into_iter()
            .map(|(id, tf)| (id, tf * self.idf[id]))
            .collect();
        vec.sort_by_key(|&(id, _)| id);
        let norm: f64 = vec.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, v) in &mut vec {
                *v /= norm;
            }
        }
        vec
    }

    /// Cosine similarity between the TF-IDF vectors of two documents.
    pub fn cosine(&self, a: &[String], b: &[String]) -> f64 {
        sparse_dot(&self.transform(a), &self.transform(b))
    }
}

/// Dot product of two sorted sparse vectors.
pub fn sparse_dot(a: &SparseVec, b: &SparseVec) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut sum = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

fn owned(words: &[&str]) -> Vec<String> {
    words.iter().map(|s| s.to_string()).collect()
}

/// Convenience: fit a TF-IDF model over `&str` documents (used in tests and
/// small examples).
pub fn fit_from_strs(docs: &[Vec<&str>]) -> TfIdf {
    let owned_docs: Vec<Vec<String>> = docs.iter().map(|d| owned(d)).collect();
    TfIdf::fit(owned_docs.iter().map(|d| d.as_slice()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<Vec<String>> {
        vec![
            owned(&["sony", "tv", "black"]),
            owned(&["sony", "headphones"]),
            owned(&["lg", "tv", "white"]),
        ]
    }

    #[test]
    fn fit_counts_documents_and_vocab() {
        let d = docs();
        let m = TfIdf::fit(d.iter().map(|x| x.as_slice()));
        assert_eq!(m.n_docs(), 3);
        assert_eq!(m.vocab_size(), 6);
    }

    #[test]
    fn idf_ranks_rare_above_common() {
        let d = docs();
        let m = TfIdf::fit(d.iter().map(|x| x.as_slice()));
        let idf_sony = m.idf("sony").unwrap();
        let idf_black = m.idf("black").unwrap();
        assert!(idf_black > idf_sony, "rare token should have higher idf");
        assert_eq!(m.idf("unknown"), None);
    }

    #[test]
    fn transform_is_normalised_and_sorted() {
        let d = docs();
        let m = TfIdf::fit(d.iter().map(|x| x.as_slice()));
        let v = m.transform(&owned(&["sony", "tv", "sony"]));
        let norm: f64 = v.iter().map(|&(_, x)| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        for w in v.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn transform_sorted_counts_matches_transform_bitwise() {
        let d = docs();
        let m = TfIdf::fit(d.iter().map(|x| x.as_slice()));
        let doc = owned(&["sony", "tv", "sony", "zzz", "black"]);
        // Build the (column, count) view the interned path would supply.
        let mut counts: Vec<(usize, f64)> = Vec::new();
        for tok in &doc {
            if let Some(col) = m.column(tok) {
                match counts.iter_mut().find(|(c, _)| *c == col) {
                    Some((_, n)) => *n += 1.0,
                    None => counts.push((col, 1.0)),
                }
            }
        }
        counts.sort_by_key(|&(c, _)| c);
        let mut fast = counts;
        m.transform_sorted_counts(&mut fast);
        let slow = m.transform(&doc);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn oov_tokens_are_dropped() {
        let d = docs();
        let m = TfIdf::fit(d.iter().map(|x| x.as_slice()));
        assert!(m.transform(&owned(&["zzz", "qqq"])).is_empty());
    }

    #[test]
    fn cosine_identical_docs_is_one() {
        let d = docs();
        let m = TfIdf::fit(d.iter().map(|x| x.as_slice()));
        let a = owned(&["sony", "tv", "black"]);
        assert!((m.cosine(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orders_by_overlap() {
        let d = docs();
        let m = TfIdf::fit(d.iter().map(|x| x.as_slice()));
        let q = owned(&["sony", "tv"]);
        let close = owned(&["sony", "tv", "black"]);
        let far = owned(&["lg", "white"]);
        assert!(m.cosine(&q, &close) > m.cosine(&q, &far));
    }

    #[test]
    fn sparse_dot_disjoint_is_zero() {
        let a = vec![(0, 1.0), (2, 1.0)];
        let b = vec![(1, 1.0), (3, 1.0)];
        assert_eq!(sparse_dot(&a, &b), 0.0);
        let c = vec![(2, 0.5)];
        assert_eq!(sparse_dot(&a, &c), 0.5);
    }

    #[test]
    fn empty_document_transforms_to_empty() {
        let d = docs();
        let m = TfIdf::fit(d.iter().map(|x| x.as_slice()));
        assert!(m.transform(&[]).is_empty());
        assert_eq!(m.cosine(&[], &owned(&["sony"])), 0.0);
    }
}
