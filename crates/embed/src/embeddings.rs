//! Word embeddings: PPMI + truncated SVD over the corpus, with hashed
//! character-trigram vectors as an out-of-vocabulary fallback so *every*
//! word of a pair gets a semantic position (model numbers, typos, rare
//! brands included).

use crate::ann::{pair_distance, AnnIndex, AnnOptions};
use crate::cooc::{CoocOptions, Cooccurrence};
use em_linalg::{randomized_svd, randomized_svd_sparse, Matrix, SvdOptions};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Options for embedding training.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingOptions {
    /// Embedding dimensionality.
    pub dimensions: usize,
    /// Co-occurrence options.
    pub cooc: CoocOptions,
    /// PPMI context-distribution smoothing exponent.
    pub smoothing: f64,
    /// Weight singular vectors by `sigma^p` (p=0.5 is the common choice).
    pub sigma_power: f64,
    /// Seed for the randomized SVD.
    pub seed: u64,
    /// Factorise the PPMI matrix through the CSR path (default). The
    /// sparse and dense paths are bitwise-equivalent; the flag exists so
    /// the dense path stays reachable as the property-tested reference.
    pub sparse: bool,
    /// Thread budget for the sparse matvecs (`0` = auto-size to the
    /// shared pool). Embeddings are bitwise-identical at any value.
    pub threads: usize,
}

impl Default for EmbeddingOptions {
    fn default() -> Self {
        EmbeddingOptions {
            dimensions: 48,
            cooc: CoocOptions::default(),
            smoothing: 0.75,
            sigma_power: 0.5,
            seed: 0xe4bed,
            sparse: true,
            threads: 0,
        }
    }
}

/// Trained word embeddings with trigram back-off.
///
/// Each entry stores the vector alongside its L2 norm, computed once at
/// construction: every cosine consumer (similarity, the distance
/// matrices, the ANN re-rank) divides by the same train-time bits
/// instead of re-normalising per call.
#[derive(Debug, Clone)]
pub struct WordEmbeddings {
    dims: usize,
    by_word: HashMap<String, (Vec<f64>, f64)>,
}

impl WordEmbeddings {
    /// Train embeddings on a corpus of sentences.
    ///
    /// Falls back to pure trigram vectors when the corpus is too small for a
    /// meaningful factorisation (fewer than 2 vocabulary words).
    pub fn train<'a, I>(sentences: I, opts: EmbeddingOptions) -> Result<Self, crate::EmbedError>
    where
        I: IntoIterator<Item = &'a [String]> + Clone,
    {
        if opts.dimensions == 0 {
            return Err(crate::EmbedError::InvalidDimensions(0));
        }
        let _train = em_obs::span!("embed/train");
        em_obs::counter!("embed/trainings", 1);
        let cooc = {
            let _span = em_obs::span!("cooc");
            Cooccurrence::build(sentences, opts.cooc)
        };
        let n = cooc.vocab().len();
        let mut by_word = HashMap::with_capacity(n);
        if n >= 2 {
            let k = opts.dimensions.min(n);
            let svd_opts = SvdOptions {
                seed: opts.seed,
                threads: opts.threads,
                ..Default::default()
            };
            let svd = {
                if opts.sparse {
                    let ppmi = {
                        let _span = em_obs::span!("ppmi");
                        cooc.ppmi_csr(opts.smoothing)
                    };
                    let _span = em_obs::span!("svd");
                    randomized_svd_sparse(&ppmi, k, svd_opts)
                } else {
                    let ppmi = {
                        let _span = em_obs::span!("ppmi");
                        cooc.ppmi_matrix(opts.smoothing)
                    };
                    let _span = em_obs::span!("svd");
                    randomized_svd(&ppmi, k, svd_opts)
                }
                .map_err(crate::EmbedError::Linalg)?
            };
            let _span = em_obs::span!("vectors");
            let kk = svd.sigma.len();
            for (id, word, _) in cooc.vocab().iter() {
                let mut v = Vec::with_capacity(kk);
                for c in 0..kk {
                    v.push(svd.u[(id as usize, c)] * svd.sigma[c].powf(opts.sigma_power));
                }
                // Pad to the requested dimensionality so all vectors align.
                v.resize(opts.dimensions, 0.0);
                let norm = em_linalg::norm2(&v);
                by_word.insert(word.to_string(), (v, norm));
            }
        } else {
            for (_, word, _) in cooc.vocab().iter() {
                let v = trigram_vector(word, opts.dimensions);
                let norm = em_linalg::norm2(&v);
                by_word.insert(word.to_string(), (v, norm));
            }
        }
        Ok(WordEmbeddings {
            dims: opts.dimensions,
            by_word,
        })
    }

    /// Train on the textual corpus of an `em_data::Dataset`: each record's
    /// attribute values become one sentence per record.
    pub fn train_on_dataset(
        dataset: &em_data::Dataset,
        opts: EmbeddingOptions,
    ) -> Result<Self, crate::EmbedError> {
        let mut sentences: Vec<Vec<String>> = Vec::with_capacity(dataset.len() * 2);
        for ex in dataset.examples() {
            for rec in [ex.pair.left(), ex.pair.right()] {
                sentences.push(em_text::tokenize(&rec.full_text()));
            }
        }
        Self::train(sentences.iter().map(|v| v.as_slice()), opts)
    }

    /// Rebuild from parts (used by the text-format loader).
    pub(crate) fn from_parts(dims: usize, by_word: HashMap<String, Vec<f64>>) -> Self {
        let by_word = by_word
            .into_iter()
            .map(|(w, v)| {
                let norm = em_linalg::norm2(&v);
                (w, (v, norm))
            })
            .collect();
        WordEmbeddings { dims, by_word }
    }

    /// Build embeddings directly from externally supplied vectors (for
    /// synthetic vocabularies in benchmarks and property tests). All
    /// vectors must have length `dims`.
    pub fn from_vectors<I>(dims: usize, vectors: I) -> Result<Self, crate::EmbedError>
    where
        I: IntoIterator<Item = (String, Vec<f64>)>,
    {
        if dims == 0 {
            return Err(crate::EmbedError::InvalidDimensions(0));
        }
        let mut by_word = HashMap::new();
        for (w, v) in vectors {
            if v.len() != dims {
                return Err(crate::EmbedError::InvalidDimensions(v.len()));
            }
            let norm = em_linalg::norm2(&v);
            by_word.insert(w, (v, norm));
        }
        Ok(WordEmbeddings { dims, by_word })
    }

    /// Iterate the in-vocabulary words (arbitrary order).
    pub fn words(&self) -> impl Iterator<Item = &str> {
        self.by_word.keys().map(|s| s.as_str())
    }

    /// Embedding dimensionality.
    pub fn dimensions(&self) -> usize {
        self.dims
    }

    /// Number of in-vocabulary words.
    pub fn vocab_size(&self) -> usize {
        self.by_word.len()
    }

    /// True if the word was seen during training.
    pub fn contains(&self, word: &str) -> bool {
        self.by_word.contains_key(word)
    }

    /// Vector for a word: trained vector if in vocabulary, otherwise a
    /// deterministic hashed character-trigram vector (so similar surface
    /// forms like "panasonic"/"panasonik" stay close).
    pub fn vector(&self, word: &str) -> Vec<f64> {
        if let Some((v, _)) = self.by_word.get(word) {
            return v.clone();
        }
        trigram_vector(word, self.dims)
    }

    /// Vector plus its L2 norm. In-vocabulary words return the norm
    /// cached at construction (`norm2` of the same bits, so identical to
    /// recomputing); out-of-vocabulary words get a fresh trigram vector
    /// and its norm.
    pub fn vector_norm(&self, word: &str) -> (Vec<f64>, f64) {
        if let Some((v, n)) = self.by_word.get(word) {
            return (v.clone(), *n);
        }
        let v = trigram_vector(word, self.dims);
        let n = em_linalg::norm2(&v);
        (v, n)
    }

    /// Cosine similarity between two words' vectors.
    ///
    /// When either word is out of vocabulary both are mapped through the
    /// trigram space so the comparison stays apples-to-apples.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        if a == b {
            return 1.0;
        }
        match (self.by_word.get(a), self.by_word.get(b)) {
            // Same arithmetic as `em_linalg::cosine`, with the norms
            // taken from the train-time cache.
            (Some((va, na)), Some((vb, nb))) => {
                if *na == 0.0 || *nb == 0.0 {
                    0.0
                } else {
                    (em_linalg::dot(va, vb) / (na * nb)).clamp(-1.0, 1.0)
                }
            }
            _ => em_linalg::cosine(&trigram_vector(a, self.dims), &trigram_vector(b, self.dims)),
        }
    }

    /// `k` nearest in-vocabulary neighbours of a word by cosine.
    pub fn nearest(&self, word: &str, k: usize) -> Vec<(String, f64)> {
        let (q, qn) = self.vector_norm(word);
        let mut scored: Vec<(String, f64)> = self
            .by_word
            .iter()
            .filter(|(w, _)| w.as_str() != word)
            .map(|(w, (v, n))| {
                let s = if qn == 0.0 || *n == 0.0 {
                    0.0
                } else {
                    (em_linalg::dot(&q, v) / (qn * n)).clamp(-1.0, 1.0)
                };
                (w.clone(), s)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

/// Deterministic hashed character-trigram vector (FNV-1a bucketed), L2
/// normalised. Gives OOV words a stable position where shared substrings
/// imply proximity.
pub fn trigram_vector(word: &str, dims: usize) -> Vec<f64> {
    let mut v = vec![0.0; dims];
    if dims == 0 {
        return v;
    }
    for g in em_text::qgrams(word, 3) {
        let h = fnv1a(g.as_bytes());
        v[(h % dims as u64) as usize] += 1.0;
    }
    let norm = em_linalg::norm2(&v);
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Backend selection for [`semantic_distance_matrix_with`] and
/// [`semantic_topk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticBackend {
    /// All-pairs exact distances — the original behaviour, O(k²·d) in
    /// the distinct-word count.
    Exact,
    /// Exact below [`SemanticMatrixOptions::auto_threshold`] distinct
    /// words (bitwise-identical to [`SemanticBackend::Exact`] there),
    /// ANN at or above it.
    Auto,
    /// Always the LSH index, regardless of vocabulary size.
    Ann,
}

/// Options of the semantic distance computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SemanticMatrixOptions {
    pub backend: SemanticBackend,
    /// LSH index parameters for the ANN backend.
    pub ann: AnnOptions,
    /// Neighbours kept per distinct word by the ANN matrix / top-k paths.
    pub neighbors: usize,
    /// `Auto` switches from exact to ANN at this many distinct words.
    pub auto_threshold: usize,
}

impl Default for SemanticMatrixOptions {
    fn default() -> Self {
        SemanticMatrixOptions {
            backend: SemanticBackend::Auto,
            ann: AnnOptions::default(),
            neighbors: 32,
            auto_threshold: 512,
        }
    }
}

impl SemanticMatrixOptions {
    /// The always-exact configuration (the pinned seed behaviour).
    pub fn exact() -> Self {
        SemanticMatrixOptions {
            backend: SemanticBackend::Exact,
            ..Default::default()
        }
    }
}

/// Distinct surface forms of a word list, in first-appearance order,
/// with their vectors and cached norms.
struct Interned {
    /// Distinct-form id of each input position.
    ids: Vec<usize>,
    vecs: Vec<Vec<f64>>,
    norms: Vec<f64>,
}

fn intern<S: AsRef<str>>(emb: &WordEmbeddings, words: &[S]) -> Interned {
    let mut id_of: HashMap<&str, usize> = HashMap::with_capacity(words.len());
    let mut ids = Vec::with_capacity(words.len());
    let mut vecs: Vec<Vec<f64>> = Vec::new();
    let mut norms: Vec<f64> = Vec::new();
    for w in words {
        let w = w.as_ref();
        let next = vecs.len();
        let id = *id_of.entry(w).or_insert(next);
        if id == vecs.len() {
            let (v, n) = emb.vector_norm(w);
            norms.push(n);
            vecs.push(v);
        }
        ids.push(id);
    }
    Interned { ids, vecs, norms }
}

/// Build a pairwise cosine-distance matrix (`1 - cos`) over a word list.
///
/// Duplicate surface forms are interned once: each distinct word's vector
/// and norm are fetched a single time and every pair is then one dot
/// product — the same arithmetic `em_linalg::cosine` performs, so the
/// distances are bitwise-unchanged, just without the per-pair norm
/// recomputation (this matrix is rebuilt for every explained pair).
pub fn semantic_distance_matrix<S: AsRef<str>>(emb: &WordEmbeddings, words: &[S]) -> Matrix {
    semantic_distance_matrix_with(emb, words, &SemanticMatrixOptions::exact())
}

/// [`semantic_distance_matrix`] with an explicit backend choice.
///
/// The exact path is the seed implementation verbatim. The ANN path
/// builds an [`AnnIndex`] over the distinct vectors, keeps each word's
/// `opts.neighbors` nearest distances (exact, bitwise equal to the
/// dense path's values for those pairs), and fills every non-neighbour
/// pair with a per-row horizon — the distance past each word's k-th
/// neighbour — so far pairs stay far without being computed.
pub fn semantic_distance_matrix_with<S: AsRef<str>>(
    emb: &WordEmbeddings,
    words: &[S],
    opts: &SemanticMatrixOptions,
) -> Matrix {
    let n = words.len();
    let interned = intern(emb, words);
    let k = interned.vecs.len();
    let pair_dist = if use_ann(opts, k) {
        ann_pair_distances(&interned, opts)
    } else {
        exact_pair_distances(&interned)
    };
    let ids = &interned.ids;
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i + 1..n {
            // Same-id pairs hit the zero diagonal of `pair_dist`.
            let dist = pair_dist[ids[i] * k + ids[j]];
            d[(i, j)] = dist;
            d[(j, i)] = dist;
        }
    }
    d
}

fn use_ann(opts: &SemanticMatrixOptions, distinct: usize) -> bool {
    match opts.backend {
        SemanticBackend::Exact => false,
        SemanticBackend::Ann => true,
        SemanticBackend::Auto => distinct >= opts.auto_threshold,
    }
}

/// Square tile edge of the batched [`exact_pair_distances`] fill. Tiles
/// of 32×32 pairs keep both bands of vectors (32 × dim `f64`s each) hot
/// in cache while the upper triangle is swept.
const DIST_TILE: usize = 32;

/// One distance per distinct-id pair: words repeat across a record's
/// attributes and its perturbed variants, so the number of distinct
/// forms `k` is usually well below `n` and the expensive dot products
/// collapse from n²/2 to k²/2. Scattering the cached value into the
/// n×n matrix is bitwise-identical to recomputing it per position.
///
/// The upper triangle is filled in [`DIST_TILE`]-square tiles rather
/// than entry-at-a-time so each band of vectors is reused across a whole
/// tile of four-lane dots (see `em_linalg::kernels`). Every entry
/// is an independent `dot` + scalar post-processing — no cross-entry
/// accumulation — so the tile traversal order is bitwise-irrelevant; the
/// in-module property test pins tiled ≡ per-entry.
fn exact_pair_distances(interned: &Interned) -> Vec<f64> {
    let (vecs, norms) = (&interned.vecs, &interned.norms);
    let k = vecs.len();
    let mut pair_dist = vec![0.0; k * k];
    let mut ta = 0usize;
    while ta < k {
        let ta1 = (ta + DIST_TILE).min(k);
        let mut tb = ta;
        while tb < k {
            let tb1 = (tb + DIST_TILE).min(k);
            for a in ta..ta1 {
                // Diagonal tiles only fill above the diagonal.
                let b_start = if tb <= a { a + 1 } else { tb };
                for b in b_start..tb1 {
                    let d = em_linalg::dot(&vecs[a], &vecs[b]);
                    let dist = pair_distance(d, norms[a], norms[b]);
                    pair_dist[a * k + b] = dist;
                    pair_dist[b * k + a] = dist;
                }
            }
            tb = tb1;
        }
        ta = ta1;
    }
    pair_dist
}

/// Entry-at-a-time reference fill the tiled builder is tested against.
#[cfg(test)]
fn exact_pair_distances_reference(interned: &Interned) -> Vec<f64> {
    let (vecs, norms) = (&interned.vecs, &interned.norms);
    let k = vecs.len();
    let mut pair_dist = vec![0.0; k * k];
    for a in 0..k {
        for b in a + 1..k {
            let d = em_linalg::dot(&vecs[a], &vecs[b]);
            let dist = pair_distance(d, norms[a], norms[b]);
            pair_dist[a * k + b] = dist;
            pair_dist[b * k + a] = dist;
        }
    }
    pair_dist
}

fn ann_pair_distances(interned: &Interned, opts: &SemanticMatrixOptions) -> Vec<f64> {
    let k = interned.vecs.len();
    let kn = opts.neighbors.max(1);
    let rows = ann_neighbor_rows(&interned.vecs, kn, &opts.ann);
    // Per-row horizon: anything past a word's k-th neighbour is at least
    // this far; a row with fewer than `kn` gathered neighbours has no
    // evidence and defaults to the maximum distance.
    let far: Vec<f64> = rows
        .iter()
        .map(|r| {
            if r.len() >= kn {
                r.last().map_or(1.0, |&(_, d)| d)
            } else {
                1.0
            }
        })
        .collect();
    let mut pair_dist = vec![0.0; k * k];
    for a in 0..k {
        for b in a + 1..k {
            let d = far[a].max(far[b]);
            pair_dist[a * k + b] = d;
            pair_dist[b * k + a] = d;
        }
    }
    // Neighbour entries overwrite the horizon with exact re-ranked
    // distances. The symmetric scatter is safe: `dot` is bitwise
    // symmetric, so when both rows list the pair they carry identical
    // bits and overwrite order cannot matter.
    for (i, row) in rows.iter().enumerate() {
        for &(j, d) in row {
            pair_dist[i * k + j as usize] = d;
            pair_dist[j as usize * k + i] = d;
        }
    }
    pair_dist
}

/// Build the LSH index over `vecs` and query every vector's `k` nearest
/// (self excluded), in parallel over rows with index-keyed slots so the
/// output is identical at any thread count.
fn ann_neighbor_rows(vecs: &[Vec<f64>], k: usize, ann: &AnnOptions) -> Vec<Vec<(u32, f64)>> {
    let n = vecs.len();
    if n == 0 {
        return Vec::new();
    }
    let index = AnnIndex::build(vecs, ann);
    let threads = if ann.threads == 0 {
        em_pool::default_threads()
    } else {
        ann.threads
    };
    let slots: Vec<OnceLock<Vec<(u32, f64)>>> = (0..n).map(|_| OnceLock::new()).collect();
    {
        let index = &index;
        em_pool::global().run(n, threads, &|i| {
            let _ = slots[i].set(index.top_k_of(i as u32, k));
        });
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("pool ran every row"))
        .collect()
}

/// Per-word nearest-neighbour lists over a word list's distinct forms.
#[derive(Debug, Clone)]
pub struct SemanticNeighbors {
    /// Distinct-form id of each input position.
    pub word_of: Vec<usize>,
    /// Per distinct form: up to `k` `(distinct id, distance)` pairs
    /// ranked by `(distance, id)`, self excluded.
    pub neighbors: Vec<Vec<(u32, f64)>>,
}

/// Top-`k` semantic neighbours of every distinct word in `words`.
///
/// This is the sparse replacement for the full distance matrix when the
/// consumer only needs each word's nearest context. The exact backend
/// brute-forces each row with an O(k) selection; the ANN backend routes
/// through the LSH index. Both parallelise over rows deterministically.
pub fn semantic_topk<S: AsRef<str>>(
    emb: &WordEmbeddings,
    words: &[S],
    k: usize,
    opts: &SemanticMatrixOptions,
) -> SemanticNeighbors {
    let interned = intern(emb, words);
    let distinct = interned.vecs.len();
    let neighbors = if use_ann(opts, distinct) {
        ann_neighbor_rows(&interned.vecs, k.max(1), &opts.ann)
            .into_iter()
            .map(|mut r| {
                r.truncate(k);
                r
            })
            .collect()
    } else {
        exact_neighbor_rows(&interned, k, opts)
    };
    SemanticNeighbors {
        word_of: interned.ids,
        neighbors,
    }
}

fn exact_neighbor_rows(
    interned: &Interned,
    k: usize,
    opts: &SemanticMatrixOptions,
) -> Vec<Vec<(u32, f64)>> {
    let n = interned.vecs.len();
    let threads = if opts.ann.threads == 0 {
        em_pool::default_threads()
    } else {
        opts.ann.threads
    };
    let cmp = |a: &(u32, f64), b: &(u32, f64)| {
        a.1.partial_cmp(&b.1)
            .expect("pair distances are finite")
            .then(a.0.cmp(&b.0))
    };
    let slots: Vec<OnceLock<Vec<(u32, f64)>>> = (0..n).map(|_| OnceLock::new()).collect();
    {
        let (vecs, norms) = (&interned.vecs, &interned.norms);
        em_pool::global().run(n, threads, &|i| {
            let mut scored: Vec<(u32, f64)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| {
                    let d = pair_distance(em_linalg::dot(&vecs[i], &vecs[j]), norms[i], norms[j]);
                    (j as u32, d)
                })
                .collect();
            if k > 0 && scored.len() > k {
                scored.select_nth_unstable_by(k - 1, cmp);
                scored.truncate(k);
            }
            scored.sort_unstable_by(cmp);
            scored.truncate(k);
            let _ = slots[i].set(scored);
        });
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("pool ran every row"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<String>> {
        // Brands co-occur with their product nouns; colours co-occur with
        // both; repeated enough for stable statistics.
        let raw = [
            "sony bravia tv black",
            "sony bravia tv silver",
            "samsung qled tv black",
            "samsung qled tv silver",
            "sony wh1000 headphones black",
            "bose qc45 headphones silver",
            "sony bravia tv",
            "samsung qled tv",
            "bose qc45 headphones",
            "sony wh1000 headphones",
        ];
        raw.iter().map(|s| em_text::tokenize(s)).collect()
    }

    fn train() -> WordEmbeddings {
        let c = corpus();
        WordEmbeddings::train(
            c.iter().map(|v| v.as_slice()),
            EmbeddingOptions {
                dimensions: 16,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn training_covers_vocabulary() {
        let e = train();
        assert!(e.contains("sony"));
        assert!(e.contains("tv"));
        assert!(!e.contains("unseen"));
        assert_eq!(e.dimensions(), 16);
        assert_eq!(e.vector("sony").len(), 16);
    }

    #[test]
    fn similarity_is_reflexive_and_bounded() {
        let e = train();
        assert_eq!(e.similarity("sony", "sony"), 1.0);
        let s = e.similarity("sony", "samsung");
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn distributionally_similar_words_are_closer() {
        let e = train();
        // "black" and "silver" occur in identical contexts; "black" and
        // "bravia" do not.
        let close = e.similarity("black", "silver");
        let far = e.similarity("black", "qc45");
        assert!(close > far, "close={close} far={far}");
    }

    #[test]
    fn oov_words_use_trigram_backoff() {
        let e = train();
        // Typo of an OOV brand should still be near the same OOV surface form.
        let same_ish = e.similarity("panasonic", "panasonik");
        let different = e.similarity("panasonic", "xyzzy");
        assert!(same_ish > different);
        assert!(same_ish > 0.5);
    }

    #[test]
    fn nearest_returns_sorted_topk() {
        let e = train();
        let nn = e.nearest("sony", 3);
        assert_eq!(nn.len(), 3);
        for w in nn.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(nn.iter().all(|(w, _)| w != "sony"));
    }

    #[test]
    fn trigram_vectors_are_normalised_and_deterministic() {
        let a = trigram_vector("bravia", 32);
        let b = trigram_vector("bravia", 32);
        assert_eq!(a, b);
        assert!((em_linalg::norm2(&a) - 1.0).abs() < 1e-12);
        assert_eq!(trigram_vector("", 0).len(), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let e1 = train();
        let e2 = train();
        assert_eq!(e1.vector("tv"), e2.vector("tv"));
    }

    #[test]
    fn sparse_and_dense_training_agree_bitwise() {
        let c = corpus();
        let mk = |sparse| {
            WordEmbeddings::train(
                c.iter().map(|v| v.as_slice()),
                EmbeddingOptions {
                    dimensions: 16,
                    sparse,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let sp = mk(true);
        let dn = mk(false);
        assert_eq!(sp.vocab_size(), dn.vocab_size());
        for w in dn.words() {
            for (x, y) in sp.vector(w).iter().zip(dn.vector(w)) {
                assert_eq!(x.to_bits(), y.to_bits(), "vector mismatch for {w:?}");
            }
        }
    }

    #[test]
    fn tiny_corpus_falls_back_to_trigrams() {
        let c: Vec<Vec<String>> = vec![em_text::tokenize("solo")];
        let e = WordEmbeddings::train(
            c.iter().map(|v| v.as_slice()),
            EmbeddingOptions {
                dimensions: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(e.contains("solo"));
        assert_eq!(e.vector("solo").len(), 8);
    }

    #[test]
    fn zero_dimensions_is_an_error() {
        let c = corpus();
        let err = WordEmbeddings::train(
            c.iter().map(|v| v.as_slice()),
            EmbeddingOptions {
                dimensions: 0,
                ..Default::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn distance_matrix_is_symmetric_zero_diagonal() {
        let e = train();
        let words: Vec<String> = ["sony", "tv", "black", "sony"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = semantic_distance_matrix(&e, &words);
        assert_eq!(d.rows(), 4);
        for i in 0..4 {
            assert_eq!(d[(i, i)], 0.0);
            for j in 0..4 {
                assert!((d[(i, j)] - d[(j, i)]).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&d[(i, j)]));
            }
        }
        // Duplicate words have zero distance.
        assert_eq!(d[(0, 3)], 0.0);
    }

    use propcheck::prelude::*;

    proptest! {
        #[test]
        fn tiled_distance_fill_matches_per_entry_bitwise(
            k in 0usize..80,
            dims in 1usize..12,
            seed in 0u64..1000,
        ) {
            use em_rngs::{Rng, SeedableRng};
            let mut rng = em_rngs::rngs::StdRng::seed_from_u64(seed);
            let vecs: Vec<Vec<f64>> = (0..k)
                .map(|i| {
                    if i % 7 == 3 {
                        // Exercise the zero-norm convention inside tiles.
                        vec![0.0; dims]
                    } else {
                        (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect()
                    }
                })
                .collect();
            let norms: Vec<f64> = vecs.iter().map(|v| em_linalg::norm2(v)).collect();
            let interned = Interned { ids: (0..k).collect(), vecs, norms };
            let tiled = exact_pair_distances(&interned);
            let reference = exact_pair_distances_reference(&interned);
            prop_assert_eq!(tiled.len(), reference.len());
            for (x, y) in tiled.iter().zip(&reference) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
