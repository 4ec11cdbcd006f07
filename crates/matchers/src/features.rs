//! Pair → feature-vector extraction for the trainable matchers.
//!
//! For each attribute the extractor emits a bundle of similarity signals
//! (token Jaccard, symmetric Monge-Elkan, q-gram Jaccard, numeric-aware
//! similarity, null indicators, length ratio) plus whole-record TF-IDF
//! cosine and token-overlap features. This is the classic Magellan-style
//! feature table that makes the logistic/MLP matchers competitive while
//! remaining fully word-sensitive: dropping a word changes the features.

use em_data::{Dataset, EntityPair};
use em_text::{IdHashMap, SparseVec, TfIdf, TokenArena};

/// A fitted feature extractor (holds the TF-IDF vocabulary of the corpus).
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    tfidf: TfIdf,
    n_attributes: usize,
}

/// Reusable scratch state for [`FeatureExtractor::extract_batch_into`].
///
/// Everything in here is a per-*call* cache, not cross-call state: the
/// scratch is cleared (capacity retained) at the top of every
/// `extract_batch_into` call, so results never depend on what a previous
/// batch interned. Reusing the struct across calls only recycles
/// allocations — which is the whole point on the perturbation hot path,
/// where one explanation issues hundreds of highly redundant batches.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    arena: TokenArena,
    /// Arena token id → TF-IDF vocabulary column (`-1` = out of
    /// vocabulary); extended lazily as the arena interns new tokens.
    tfidf_col: Vec<i32>,
    /// `(left cell, right cell)` → the six per-attribute features.
    /// The bundle depends only on the two cell values, not on the
    /// attribute index, so the key omits it. Keyed by arena ids, so
    /// it hashes with [`em_text::IdHasher`].
    attr_cache: IdHashMap<(u32, u32), [f64; PER_ATTRIBUTE_FEATURES]>,
    /// Directional `(token a, token b)` → `jaro_winkler(a, b)`; jaro's
    /// scan order differs between `(a, b)` and `(b, a)`, so the key is
    /// deliberately not symmetrised.
    jw_cache: IdHashMap<(u32, u32), f64>,
    /// Interned cell ids of the current pair's left and right records.
    key_l: Vec<u32>,
    key_r: Vec<u32>,
    /// Whole-record features of the current pair, rewritten per pair.
    record_l: RecordFeatures,
    record_r: RecordFeatures,
    cols_scratch: Vec<u32>,
}

impl ExtractScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop cached content but keep allocated capacity.
    fn clear(&mut self) {
        self.arena.clear();
        self.tfidf_col.clear();
        self.attr_cache.clear();
        self.jw_cache.clear();
    }

    /// Rewrite the left (or right) record's whole-record features from
    /// its interned cell ids (`key_l`/`key_r`).
    fn record_features(&mut self, tfidf: &TfIdf, left: bool) {
        let (key, rec) = if left {
            (&self.key_l, &mut self.record_l)
        } else {
            (&self.key_r, &mut self.record_r)
        };
        // Gather in-vocabulary columns (with multiplicity) and all token
        // ids across the record's cells.
        let cols = &mut self.cols_scratch;
        cols.clear();
        rec.distinct.clear();
        for &cid in key {
            for &tid in self.arena.tokens(cid) {
                rec.distinct.push(tid);
                let col = self.tfidf_col[tid as usize];
                if col >= 0 {
                    cols.push(col as u32);
                }
            }
        }
        // Run-length encode the sorted columns into (column, count); the
        // counts are exact small integers, so accumulating them here is
        // bitwise-equal to `transform`'s `+= 1.0` hash-map counting.
        cols.sort_unstable();
        rec.tfidf.clear();
        for &c in cols.iter() {
            match rec.tfidf.last_mut() {
                Some(last) if last.0 == c as usize => last.1 += 1.0,
                _ => rec.tfidf.push((c as usize, 1.0)),
            }
        }
        tfidf.transform_sorted_counts(&mut rec.tfidf);
        rec.distinct.sort_unstable();
        rec.distinct.dedup();
    }
}

/// Whole-record derived data of one record view. Recomputed for every
/// pair into reused vectors: on masked batches a record-level memo hits
/// too rarely to pay for hashing its key and allocating its entries.
#[derive(Debug, Default)]
struct RecordFeatures {
    /// L2-normalised TF-IDF vector over vocabulary columns.
    tfidf: SparseVec,
    /// Sorted distinct token ids of the whole record.
    distinct: Vec<u32>,
}

/// Everything a matcher needs to serve `predict_proba_batch`
/// allocation-free: the extraction caches plus the row-major buffer the
/// feature rows are written into.
#[derive(Debug, Default)]
pub struct BatchScratch {
    pub extract: ExtractScratch,
    pub features: Vec<f64>,
}

/// Number of per-attribute features.
pub const PER_ATTRIBUTE_FEATURES: usize = 6;
/// Number of whole-record features.
pub const GLOBAL_FEATURES: usize = 3;

impl FeatureExtractor {
    /// Fit on the training corpus (both records of every pair).
    pub fn fit(train: &Dataset) -> Self {
        let mut docs: Vec<Vec<String>> = Vec::with_capacity(train.len() * 2);
        for ex in train.examples() {
            docs.push(em_text::tokenize(&ex.pair.left().full_text()));
            docs.push(em_text::tokenize(&ex.pair.right().full_text()));
        }
        FeatureExtractor {
            tfidf: TfIdf::fit(docs.iter().map(|d| d.as_slice())),
            n_attributes: train.schema().len(),
        }
    }

    /// Feature dimensionality for pairs over the fitted schema.
    pub fn dimensions(&self) -> usize {
        self.n_attributes * PER_ATTRIBUTE_FEATURES + GLOBAL_FEATURES
    }

    /// Extract the feature matrix of a batch of pairs (one row per pair).
    ///
    /// Thin wrapper over [`FeatureExtractor::extract_batch_into`] with a
    /// fresh scratch; hot callers (the matchers' `predict_proba_batch`)
    /// hold a reusable [`ExtractScratch`] instead.
    pub fn extract_batch(&self, pairs: &[EntityPair]) -> em_linalg::Matrix {
        let mut scratch = ExtractScratch::default();
        let mut buf = Vec::new();
        self.extract_batch_into(pairs, &mut scratch, &mut buf);
        em_linalg::Matrix::from_vec(pairs.len(), self.dimensions(), buf)
    }

    /// Extract a batch of pairs into a caller-provided row-major buffer
    /// (`pairs.len() × dimensions()`, fully overwritten). This is the
    /// extractor's only implementation: training, single pairs (a batch
    /// of one) and perturbation batches all run through it.
    ///
    /// Perturbed batches are highly redundant — drop masks leave most
    /// `(side, attribute)` cells untouched, and SingleSide/Landmark masks
    /// keep one whole record constant — so cell values are interned once
    /// into a [`TokenArena`] and every expensive kernel runs on integer id
    /// slices: per-cell similarity bundles are cached per distinct
    /// `(left, right)` cell-id pair and Jaro-Winkler per directional
    /// token-id pair. Whole-record TF-IDF vectors and distinct-token sets
    /// are rebuilt per pair from the interned cells into reused scratch
    /// vectors. Values are space-joined in `full_text` and the tokenizer
    /// splits on non-alphanumerics, so per-cell token sequences
    /// concatenate to exactly the full-record tokenisation. The caches
    /// live only for the call (the scratch is cleared on entry): no
    /// invalidation, no locking, and a hit returns exactly what a miss
    /// would compute, so a pair's row does not depend on the rest of its
    /// batch. A string-path oracle in the tests pins every row bitwise.
    ///
    /// # Panics
    /// Panics in debug builds if a pair's schema size differs from the
    /// fitted one; in release the extra/missing attributes are truncated or
    /// zero-filled (defensive for perturbed pairs, which keep the schema).
    pub fn extract_batch_into(
        &self,
        pairs: &[EntityPair],
        scratch: &mut ExtractScratch,
        out: &mut Vec<f64>,
    ) {
        scratch.clear();
        out.clear();
        out.reserve(pairs.len() * self.dimensions());
        for pair in pairs {
            debug_assert_eq!(
                pair.schema().len(),
                self.n_attributes,
                "schema size changed"
            );
            let row_start = out.len();
            // Intern each record's cells exactly once; the attribute loop
            // and the record-level features both read the cached ids
            // (EntityPair guarantees record length == schema length).
            scratch.key_l.clear();
            scratch.key_r.clear();
            for idx in 0..pair.left().len() {
                let cid = scratch.arena.intern_cell(pair.left().value(idx));
                scratch.key_l.push(cid);
            }
            for idx in 0..pair.right().len() {
                let cid = scratch.arena.intern_cell(pair.right().value(idx));
                scratch.key_r.push(cid);
            }
            for attr in 0..self.n_attributes.min(pair.schema().len()) {
                let l = scratch.key_l[attr];
                let r = scratch.key_r[attr];
                let feats = if let Some(&f) = scratch.attr_cache.get(&(l, r)) {
                    f
                } else {
                    let f =
                        interned_attribute_features(&scratch.arena, &mut scratch.jw_cache, l, r);
                    scratch.attr_cache.insert((l, r), f);
                    f
                };
                out.extend_from_slice(&feats);
            }
            while out.len() - row_start < self.n_attributes * PER_ATTRIBUTE_FEATURES {
                out.push(0.0);
            }
            // Extend the token → vocabulary-column memo over newly
            // interned tokens (ids are dense, so the memo is a flat vector).
            while scratch.tfidf_col.len() < scratch.arena.n_tokens() {
                let tid = scratch.tfidf_col.len() as u32;
                let col = self
                    .tfidf
                    .column(scratch.arena.token_text(tid))
                    .map_or(-1, |c| c as i32);
                scratch.tfidf_col.push(col);
            }
            scratch.record_features(&self.tfidf, true);
            scratch.record_features(&self.tfidf, false);
            let (lrec, rrec) = (&scratch.record_l, &scratch.record_r);
            out.push(em_text::sparse_dot(&lrec.tfidf, &rrec.tfidf));
            out.push(em_text::jaccard_sorted_ids(&lrec.distinct, &rrec.distinct));
            out.push(em_text::overlap_sorted_ids(&lrec.distinct, &rrec.distinct));
        }
    }

    /// Extract features for every pair of a dataset along with labels.
    pub fn extract_dataset(&self, data: &Dataset) -> (em_linalg::Matrix, Vec<f64>) {
        let pairs: Vec<EntityPair> = data.examples().iter().map(|ex| ex.pair.clone()).collect();
        let y: Vec<f64> = data.examples().iter().map(|ex| ex.label.as_f64()).collect();
        (self.extract_batch(&pairs), y)
    }
}

/// The per-attribute similarity bundle of one `(left, right)` cell pair,
/// on arena id slices. Null indicators come first: the similarity
/// features are forced to 0 when either side is missing, so "both null"
/// is not mistaken for "identical". Every kernel either reduces to
/// integer set counts ([`em_text::jaccard_sorted_ids`] over token/gram
/// ids) or consumes the cell's own strings (Jaro-Winkler on interned
/// token text, numeric similarity on the raw cell text), so the values
/// do not depend on how the batch assigned ids.
fn interned_attribute_features(
    arena: &TokenArena,
    jw_cache: &mut IdHashMap<(u32, u32), f64>,
    l: u32,
    r: u32,
) -> [f64; PER_ATTRIBUTE_FEATURES] {
    let lt = arena.tokens(l);
    let rt = arena.tokens(r);
    let both_empty = lt.is_empty() && rt.is_empty();
    let one_empty = lt.is_empty() != rt.is_empty();
    if both_empty || one_empty {
        return [
            0.0, // jaccard
            0.0, // monge-elkan
            0.0, // qgram jaccard
            0.0, // numeric/string sim
            if one_empty { 1.0 } else { 0.0 },
            if both_empty { 1.0 } else { 0.0 },
        ];
    }
    [
        em_text::jaccard_sorted_ids(arena.sorted_tokens(l), arena.sorted_tokens(r)),
        0.5 * (monge_elkan_ids(arena, jw_cache, lt, rt) + monge_elkan_ids(arena, jw_cache, rt, lt)),
        em_text::jaccard_sorted_ids(arena.grams(l), arena.grams(r)),
        em_text::numeric_or_string_similarity(arena.cell_text(l), arena.cell_text(r)),
        0.0,
        0.0,
    ]
}

/// [`em_text::monge_elkan`] over arena token-id sequences with a
/// directional Jaro-Winkler memo. Same accumulation: per `a`-token best
/// via `f64::max` in `b` sequence order, summed in `a` sequence order.
/// Both sides are known non-empty here.
fn monge_elkan_ids(
    arena: &TokenArena,
    jw_cache: &mut IdHashMap<(u32, u32), f64>,
    a: &[u32],
    b: &[u32],
) -> f64 {
    let mut sum = 0.0;
    for &ta in a {
        let mut best = 0.0f64;
        for &tb in b {
            let jw = match jw_cache.get(&(ta, tb)) {
                Some(&v) => v,
                None => {
                    let v = em_text::jaro_winkler(arena.token_text(ta), arena.token_text(tb));
                    jw_cache.insert((ta, tb), v);
                    v
                }
            };
            best = best.max(jw);
        }
        sum += best;
    }
    sum / a.len() as f64
}

/// A string-path twin of the extractor, kept as the bitwise oracle of its
/// rows: every kernel runs on the cells' strings, with no arena and no
/// cache.
#[cfg(test)]
mod oracle {
    use super::*;

    /// The feature vector of one pair.
    pub(super) fn extract(fe: &FeatureExtractor, pair: &EntityPair) -> Vec<f64> {
        let mut out = Vec::with_capacity(fe.dimensions());
        for attr in 0..fe.n_attributes.min(pair.schema().len()) {
            let l = pair.left().value(attr);
            let r = pair.right().value(attr);
            out.extend_from_slice(&attribute_features(l, r));
        }
        while out.len() < fe.n_attributes * PER_ATTRIBUTE_FEATURES {
            out.push(0.0);
        }
        // Whole-record features.
        let lt = em_text::tokenize(&pair.left().full_text());
        let rt = em_text::tokenize(&pair.right().full_text());
        out.push(fe.tfidf.cosine(&lt, &rt));
        out.push(em_text::jaccard(&lt, &rt));
        out.push(em_text::overlap_coefficient(&lt, &rt));
        out
    }

    /// The per-attribute similarity bundle on strings.
    fn attribute_features(l: &str, r: &str) -> [f64; PER_ATTRIBUTE_FEATURES] {
        let lt = em_text::tokenize(l);
        let rt = em_text::tokenize(r);
        let both_empty = lt.is_empty() && rt.is_empty();
        let one_empty = lt.is_empty() != rt.is_empty();
        if both_empty || one_empty {
            return [
                0.0,
                0.0,
                0.0,
                0.0,
                if one_empty { 1.0 } else { 0.0 },
                if both_empty { 1.0 } else { 0.0 },
            ];
        }
        [
            em_text::jaccard(&lt, &rt),
            em_text::monge_elkan_sym(&lt, &rt),
            em_text::qgram_jaccard(&l.to_lowercase(), &r.to_lowercase(), 3),
            em_text::numeric_or_string_similarity(l, r),
            0.0,
            0.0,
        ]
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use em_data::{Label, LabeledPair, Record, Schema};
    use propcheck::prelude::*;
    use std::sync::Arc;

    proptest! {
        // The interned batch path is bitwise-equal to the string oracle
        // on arbitrary cell content (empty, whitespace, non-ASCII,
        // duplicates, multi-token cells of up to ~150 chars, so the
        // string kernels run past one 64-char block), and reusing one
        // scratch across batches — or handing it a dirty output buffer —
        // changes nothing.
        #[test]
        fn interned_batch_matches_scalar_extract_bitwise(
            cells in propcheck::collection::vec(
                propcheck::collection::vec(".{1,10}", 0..14).prop_map(|words| words.join(" ")),
                8..16,
            ),
        ) {
            let schema = Arc::new(Schema::new(vec!["name", "info"]));
            let rec =
                |id: u64, a: &str, b: &str| Record::new(id, vec![a.to_string(), b.to_string()]);
            let mut pairs: Vec<EntityPair> = Vec::new();
            for chunk in cells.chunks_exact(4) {
                pairs.push(
                    EntityPair::new(
                        Arc::clone(&schema),
                        rec(pairs.len() as u64 * 2, &chunk[0], &chunk[1]),
                        rec(pairs.len() as u64 * 2 + 1, &chunk[2], &chunk[3]),
                    )
                    .unwrap(),
                );
            }
            let examples: Vec<LabeledPair> = pairs
                .iter()
                .enumerate()
                .map(|(i, p)| LabeledPair {
                    pair: p.clone(),
                    label: if i % 2 == 0 { Label::Match } else { Label::NonMatch },
                })
                .collect();
            let data = Dataset::new("prop", Arc::clone(&schema), examples).unwrap();
            let fe = FeatureExtractor::fit(&data);
            // Duplicate pairs exercise every cache level.
            pairs.push(pairs[0].clone());

            let mut scratch = ExtractScratch::new();
            let mut buf = Vec::new();
            fe.extract_batch_into(&pairs, &mut scratch, &mut buf);
            prop_assert_eq!(buf.len(), pairs.len() * fe.dimensions());
            for (i, pair) in pairs.iter().enumerate() {
                let want = oracle::extract(&fe, pair);
                let row = &buf[i * fe.dimensions()..(i + 1) * fe.dimensions()];
                for (a, b) in row.iter().zip(&want) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            // Second pass with the now-dirty scratch and a poisoned buffer.
            let mut buf2 = vec![f64::NAN; 3];
            fe.extract_batch_into(&pairs, &mut scratch, &mut buf2);
            prop_assert_eq!(buf.len(), buf2.len());
            for (a, b) in buf.iter().zip(&buf2) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{Label, LabeledPair, Record, Schema};
    use std::sync::Arc;

    /// The production feature row of one pair: a batch of one.
    fn extract(fe: &FeatureExtractor, pair: &EntityPair) -> Vec<f64> {
        fe.extract_batch(std::slice::from_ref(pair)).row(0).to_vec()
    }

    fn dataset() -> Dataset {
        let schema = Arc::new(Schema::new(vec!["title", "price"]));
        let mk = |id: u64, t: &str, p: &str| Record::new(id, vec![t.to_string(), p.to_string()]);
        let examples = vec![
            LabeledPair {
                pair: EntityPair::new(
                    Arc::clone(&schema),
                    mk(0, "sonix tv 55", "499"),
                    mk(1, "sonix television 55", "489"),
                )
                .unwrap(),
                label: Label::Match,
            },
            LabeledPair {
                pair: EntityPair::new(
                    Arc::clone(&schema),
                    mk(2, "veltron laptop", "999"),
                    mk(3, "koyama blender", "59"),
                )
                .unwrap(),
                label: Label::NonMatch,
            },
        ];
        Dataset::new("toy", schema, examples).unwrap()
    }

    #[test]
    fn dimensions_match_schema() {
        let fe = FeatureExtractor::fit(&dataset());
        assert_eq!(
            fe.dimensions(),
            2 * PER_ATTRIBUTE_FEATURES + GLOBAL_FEATURES
        );
    }

    #[test]
    fn extract_produces_correct_length_and_bounds() {
        let d = dataset();
        let fe = FeatureExtractor::fit(&d);
        for ex in d.examples() {
            let f = extract(&fe, &ex.pair);
            assert_eq!(f.len(), fe.dimensions());
            for &v in &f {
                assert!((0.0..=1.0 + 1e-9).contains(&v), "feature out of range: {v}");
            }
        }
    }

    #[test]
    fn matching_pair_scores_higher_overall() {
        let d = dataset();
        let fe = FeatureExtractor::fit(&d);
        let fm = extract(&fe, &d.examples()[0].pair);
        let fn_ = extract(&fe, &d.examples()[1].pair);
        let sum_m: f64 = fm.iter().sum();
        let sum_n: f64 = fn_.iter().sum();
        assert!(sum_m > sum_n);
    }

    #[test]
    fn null_indicators_fire() {
        let d = dataset();
        let fe = FeatureExtractor::fit(&d);
        let schema = d.schema_arc();
        let pair = EntityPair::new(
            schema,
            Record::new(10, vec!["x".into(), "".into()]),
            Record::new(11, vec!["x".into(), "5".into()]),
        )
        .unwrap();
        let f = extract(&fe, &pair);
        // price attribute block starts at PER_ATTRIBUTE_FEATURES; index 4 is
        // one-empty, 5 is both-empty.
        assert_eq!(f[PER_ATTRIBUTE_FEATURES + 4], 1.0);
        assert_eq!(f[PER_ATTRIBUTE_FEATURES + 5], 0.0);

        let pair2 = EntityPair::new(
            d.schema_arc(),
            Record::new(12, vec!["x".into(), "".into()]),
            Record::new(13, vec!["x".into(), "".into()]),
        )
        .unwrap();
        let f2 = extract(&fe, &pair2);
        assert_eq!(f2[PER_ATTRIBUTE_FEATURES + 4], 0.0);
        assert_eq!(f2[PER_ATTRIBUTE_FEATURES + 5], 1.0);
        // Similarities zeroed when null present.
        assert_eq!(f2[PER_ATTRIBUTE_FEATURES], 0.0);
    }

    #[test]
    fn dropping_a_word_changes_features() {
        let d = dataset();
        let fe = FeatureExtractor::fit(&d);
        let pair = &d.examples()[0].pair;
        let full = extract(&fe, pair);
        let mut perturbed = pair.clone();
        perturbed
            .record_mut(em_data::Side::Left)
            .set_value(0, "tv 55".into());
        let dropped = extract(&fe, &perturbed);
        assert_ne!(full, dropped);
    }

    #[test]
    fn extract_batch_matches_scalar_rows_bitwise() {
        let d = dataset();
        let fe = FeatureExtractor::fit(&d);
        // Duplicates and a null-attribute pair exercise both caches.
        let mut pairs: Vec<EntityPair> = d.examples().iter().map(|ex| ex.pair.clone()).collect();
        pairs.push(pairs[0].clone());
        pairs.push(
            EntityPair::new(
                d.schema_arc(),
                Record::new(10, vec!["x".into(), "".into()]),
                Record::new(11, vec!["x".into(), "5".into()]),
            )
            .unwrap(),
        );
        let x = fe.extract_batch(&pairs);
        assert_eq!(x.rows(), pairs.len());
        for (i, p) in pairs.iter().enumerate() {
            let f = oracle::extract(&fe, p);
            let batch_bits: Vec<u64> = x.row(i).iter().map(|v| v.to_bits()).collect();
            let oracle_bits: Vec<u64> = f.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_bits, oracle_bits, "row {i} differs");
        }
    }

    #[test]
    fn extract_dataset_shapes() {
        let d = dataset();
        let fe = FeatureExtractor::fit(&d);
        let (x, y) = fe.extract_dataset(&d);
        assert_eq!(x.rows(), 2);
        assert_eq!(x.cols(), fe.dimensions());
        assert_eq!(y, vec![1.0, 0.0]);
        // Training rows are the string path's rows, bit for bit.
        for (i, ex) in d.examples().iter().enumerate() {
            let want: Vec<u64> = oracle::extract(&fe, &ex.pair)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got: Vec<u64> = x.row(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {i} differs");
        }
    }
}
