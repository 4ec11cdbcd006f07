//! The end-to-end streaming driver: block → match → explain, in bounded
//! batches, with a fixed matcher and CREW configuration.
//!
//! ## Memory bound
//!
//! The candidate list is never materialized: [`crate::Blocks`] holds the
//! per-block member lists and [`crate::CandidateStream`] k-way-merges
//! them into sorted deduplicated batches on demand, so candidate memory
//! is O(blocks), not O(candidates). At most two batches of
//! [`em_data::EntityPair`]s are materialized at once (the one being
//! explained and the next one, being scored alongside it), explanation
//! outputs are compacted to [`ExplainedMatch`] digests, and the
//! perturbation/explanation caches are byte-budgeted
//! ([`crate::StreamStores`]). Peak memory therefore depends on the
//! record collections, the batch size and the store budget — not on the
//! candidate count.
//!
//! ## Determinism
//!
//! The candidate sequence is sorted (see [`crate::Blocks::stream`]),
//! batches are processed in order, matching is a pure per-pair function,
//! and explanations are pure functions of pair content under a fixed
//! seed, computed into index-keyed slots. Cache hits return values
//! bitwise identical to a fresh computation (including after eviction),
//! so [`StreamOutcome::matches`] and [`StreamOutcome::entity_clusters`]
//! are identical at any `jobs` count — the property the `em-stream`
//! integration tests assert.

use crate::block::{block_candidates_with, build_blocks, BlockingConfig, CandidateSet};
use crate::store::StreamStores;
use crate::unionfind::UnionFind;
use crate::StreamError;
use crew_core::{ClusterExplanation, Crew, CrewOptions};
use em_data::{EntityPair, Record, Schema, TokenizedPair};
use em_embed::WordEmbeddings;
use em_eval::{pair_content_fingerprint, StoreBudget, StoreStats};
use em_matchers::Matcher;
use std::sync::{Arc, Mutex, OnceLock};

/// One candidate batch's materialized pairs and their match scores.
type ScoredBatch = (Vec<EntityPair>, Vec<f64>);

/// Configuration of one stream run.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    pub blocking: BlockingConfig,
    /// Candidate pairs materialized and scored per batch.
    pub batch: usize,
    /// Thread cap for matching/explaining (0 = auto).
    pub jobs: usize,
    /// Match-probability cut; `None` uses the matcher's own threshold.
    pub threshold: Option<f64>,
    /// CREW configuration (perturbation budget, clustering knobs). The
    /// perturbation seed lives here; it is global to the run, so equal
    /// pair content ⇒ equal explanation.
    pub crew: CrewOptions,
    /// Byte budget for the content-keyed stores; `None` = unbounded.
    pub store_budget: Option<StoreBudget>,
    /// Words kept in each match digest.
    pub top_words: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            blocking: BlockingConfig::default(),
            batch: 512,
            jobs: 0,
            threshold: None,
            crew: CrewOptions::default(),
            store_budget: Some(StoreBudget::total(256 << 20)),
            top_words: 5,
        }
    }
}

/// Compact digest of one explained match — what the pipeline retains
/// per match so outcome memory stays flat while the full explanations
/// live (bounded) in the stores.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainedMatch {
    pub left_id: u64,
    pub right_id: u64,
    /// Matcher probability.
    pub score: f64,
    /// Clusters the model-selection step chose.
    pub selected_k: usize,
    /// Order-sensitive hash of the full explanation (weights, clusters,
    /// selection) — the jobs-invariance tests compare these.
    pub explanation_fingerprint: u64,
    /// The top words by |attribution|.
    pub top_words: Vec<String>,
}

/// Everything a stream run reports.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Candidate pairs blocking emitted.
    pub candidates: usize,
    /// Cross-product size blocking avoided.
    pub comparisons: u64,
    /// Fraction of the cross product eliminated.
    pub reduction_ratio: f64,
    pub blocks: usize,
    pub oversized_blocks: usize,
    /// Token blocks skipped as stop-token blocks (recall-loss visibility).
    pub skipped_stop_tokens: usize,
    /// LSH-signature blocks kept / skipped (0 when LSH is disabled).
    pub lsh_blocks: usize,
    pub lsh_skipped: usize,
    /// Explained matches, in candidate (sorted-pair) order.
    pub matches: Vec<ExplainedMatch>,
    /// Entity clusters: connected components of the match graph over
    /// record ids (canonical order, singletons dropped).
    pub entity_clusters: Vec<Vec<u64>>,
    pub perturb_stats: StoreStats,
    pub explain_stats: StoreStats,
    /// Peak resident bytes of the bounded stores (0 when unbounded).
    pub peak_store_bytes: usize,
}

/// Run the full pipeline over two record collections.
///
/// `schema` must describe both collections; `matcher` and `embeddings`
/// are trained by the caller (in production from labelled history, in
/// the benchmarks from a synthetic context).
pub fn run_stream(
    schema: &Arc<Schema>,
    left: &[Record],
    right: &[Record],
    matcher: &dyn Matcher,
    embeddings: Arc<WordEmbeddings>,
    options: &StreamOptions,
) -> Result<StreamOutcome, StreamError> {
    let _stream = em_obs::span!("stream");
    let blocks = {
        let _g = em_obs::span!("block");
        build_blocks(left, right, &options.blocking, Some(&embeddings))
    };

    let crew = Crew::new(embeddings, options.crew.clone());
    let threshold = options.threshold.unwrap_or_else(|| matcher.threshold());
    let stores = match options.store_budget {
        Some(budget) => StreamStores::bounded(budget),
        None => StreamStores::unbounded(),
    };
    let threads = if options.jobs == 0 {
        em_pool::default_threads()
    } else {
        options.jobs
    };

    // Materialize one batch's pairs and score them. The call may run as a
    // pool task under `stream/explain`, so it re-enters the `stream` span
    // context: every match call lands in `stream/match` wherever it runs.
    let stream_ctx = em_obs::current_context();
    let score = |batch: &[(u32, u32)]| -> Result<ScoredBatch, StreamError> {
        let pairs = batch
            .iter()
            .map(|&(i, j)| {
                EntityPair::new(
                    Arc::clone(schema),
                    left[i as usize].clone(),
                    right[j as usize].clone(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let _ctx = em_obs::enter_context(stream_ctx);
        let _g = em_obs::span!("match");
        let scores = matcher.predict_proba_batch(&pairs);
        Ok((pairs, scores))
    };

    let mut matches: Vec<ExplainedMatch> = Vec::new();
    let mut matched_idx: Vec<(u32, u32)> = Vec::new();
    let mut candidate_count = 0usize;
    let mut stream = blocks.stream();
    // Pull only one batch's candidates out of the merge at a time.
    let mut batch = stream.next_batch(options.batch.max(1));
    let mut scored = if batch.is_empty() {
        None
    } else {
        Some(score(&batch)?)
    };
    while let Some((pairs, scores)) = scored {
        candidate_count += batch.len();
        let hits: Vec<usize> = (0..pairs.len())
            .filter(|&t| scores[t] >= threshold)
            .collect();

        // Explain this batch's matches in parallel; slots are keyed by
        // position so the merged order is schedule-independent. The next
        // batch is scored as one more task of the same fan-out (task 0,
        // the longest, claimed first), so no thread idles through a
        // serial scoring step. Scores are pure per-pair functions, so
        // when they are computed never changes a bit.
        let next = stream.next_batch(options.batch.max(1));
        let overlap = usize::from(!next.is_empty());
        let next_scored: OnceLock<Result<ScoredBatch, StreamError>> = OnceLock::new();
        let slots: Vec<OnceLock<ExplainedMatch>> =
            (0..hits.len()).map(|_| OnceLock::new()).collect();
        let first_error: Mutex<Option<StreamError>> = Mutex::new(None);
        {
            let _g = em_obs::span!("explain");
            em_pool::global().run(overlap + hits.len(), threads, &|t| {
                if t < overlap {
                    let _ = next_scored.set(score(&next));
                    return;
                }
                let t = t - overlap;
                let idx = hits[t];
                match explain_one(&stores, &crew, matcher, &pairs[idx], scores[idx], options) {
                    Ok(m) => {
                        let _ = slots[t].set(m);
                    }
                    Err(e) => {
                        let mut guard = first_error.lock().expect("error slot poisoned");
                        guard.get_or_insert(e);
                    }
                }
            });
        }
        // This batch's explain errors first, then the next batch's
        // materialization error: the order a serial loop reports them in.
        if let Some(e) = first_error.into_inner().expect("error slot poisoned") {
            return Err(e);
        }
        for (t, slot) in slots.into_iter().enumerate() {
            matches.push(slot.into_inner().expect("explained every hit"));
            matched_idx.push(batch[hits[t]]);
        }
        batch = next;
        scored = next_scored.into_inner().transpose()?;
    }
    drop(stream);
    em_obs::counter!("stream/candidates", candidate_count as u64);
    em_obs::counter!("stream/matches", matches.len() as u64);

    // Entity clusters: connected components of the match graph.
    let mut uf = UnionFind::new(blocks.left_len + blocks.right_len);
    for &(i, j) in &matched_idx {
        uf.union(i as usize, blocks.left_len + j as usize);
    }
    let entity_clusters: Vec<Vec<u64>> = uf
        .clusters()
        .into_iter()
        .map(|component| {
            component
                .into_iter()
                .map(|node| {
                    if node < blocks.left_len {
                        left[node].id
                    } else {
                        right[node - blocks.left_len].id
                    }
                })
                .collect()
        })
        .collect();

    let reduction_ratio = if blocks.comparisons == 0 {
        0.0
    } else {
        1.0 - candidate_count as f64 / blocks.comparisons as f64
    };
    Ok(StreamOutcome {
        candidates: candidate_count,
        comparisons: blocks.comparisons,
        reduction_ratio,
        blocks: blocks.len(),
        oversized_blocks: blocks.oversized,
        skipped_stop_tokens: blocks.skipped_stop_tokens,
        lsh_blocks: blocks.lsh_blocks,
        lsh_skipped: blocks.lsh_skipped,
        matches,
        entity_clusters,
        perturb_stats: stores.perturbation_stats(),
        explain_stats: stores.explanation_stats(),
        peak_store_bytes: stores.peak_bytes(),
    })
}

/// Blocking only — exposed for callers that want the candidate set
/// without scoring (the property tests, candidate-count sizing).
pub fn candidates_only(left: &[Record], right: &[Record], config: &BlockingConfig) -> CandidateSet {
    block_candidates_with(left, right, config, None)
}

/// [`candidates_only`] with embeddings available for LSH blocking.
pub fn candidates_only_with(
    left: &[Record],
    right: &[Record],
    config: &BlockingConfig,
    embeddings: Option<&WordEmbeddings>,
) -> CandidateSet {
    block_candidates_with(left, right, config, embeddings)
}

fn explain_one(
    stores: &StreamStores,
    crew: &Crew,
    matcher: &dyn Matcher,
    pair: &EntityPair,
    score: f64,
    options: &StreamOptions,
) -> Result<ExplainedMatch, StreamError> {
    let fingerprint = pair_content_fingerprint(pair);
    let tokenized = TokenizedPair::new(pair.clone());
    let ce = stores.explain(crew, matcher, &tokenized, fingerprint)?;
    Ok(digest(pair, score, &ce, options.top_words))
}

/// Compress a full explanation into the per-match digest.
fn digest(
    pair: &EntityPair,
    score: f64,
    ce: &ClusterExplanation,
    top_words: usize,
) -> ExplainedMatch {
    ExplainedMatch {
        left_id: pair.left().id,
        right_id: pair.right().id,
        score,
        selected_k: ce.selected_k,
        explanation_fingerprint: explanation_fingerprint(ce),
        top_words: ce
            .word_level
            .top_words(top_words)
            .into_iter()
            .map(|(w, _)| w.text.clone())
            .collect(),
    }
}

/// Order-sensitive FNV-1a over every numeric field of the explanation:
/// two explanations agree on this iff they are bitwise identical in all
/// the parts that matter (weights, clusters, model selection).
pub fn explanation_fingerprint(ce: &ClusterExplanation) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(ce.selected_k as u64);
    mix(ce.group_r2.to_bits());
    mix(ce.silhouette.to_bits());
    for w in &ce.word_level.weights {
        mix(w.to_bits());
    }
    for c in &ce.clusters {
        mix(c.weight.to_bits());
        mix(c.member_indices.len() as u64);
        for &m in &c.member_indices {
            mix(m as u64);
        }
    }
    h
}
