//! The perturbation engine: sample word-drop masks, rebuild textual pairs,
//! and query the matcher — optionally in parallel. All perturbation-based
//! explainers (CREW, LIME, Mojito, Landmark, LEMON) share this substrate,
//! so score differences reflect algorithms rather than plumbing.
//!
//! Query execution is batched and cache-aware: identical masks are
//! queried once (a dedup memo), pairs are rebuilt through a reusable
//! [`MaskedPairBuffer`] into pooled pairs instead of per-sample
//! allocation, blocks of rebuilt pairs go through
//! [`Matcher::predict_proba_batch`] so vectorisable models amortise
//! feature extraction, and blocks are distributed over the shared
//! `em-pool` worker pool. Each response depends only on its own mask, so
//! results are bitwise-identical at any thread count, block size, and on
//! the batched vs scalar matcher paths.

use em_data::{EntityPair, MaskedPairBuffer, Side, TokenizedPair};
use em_matchers::{Matcher, ScratchPool};
use em_rngs::rngs::StdRng;
use em_rngs::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// How drop masks are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskStrategy {
    /// LIME-for-text style: per sample, choose a drop count uniformly in
    /// `1..=n-1` and drop that many uniformly chosen words.
    UniformCount,
    /// Independent per-word keep with probability 0.5.
    Bernoulli,
    /// Attribute-stratified: like `UniformCount` but drops are spread over
    /// attributes proportionally, so a sample never silently concentrates
    /// on one attribute (CREW's schema-aware sampler).
    AttributeStratified,
    /// Only perturb one side, keeping the other fixed (Landmark-style).
    SingleSide(Side),
}

/// Options for perturbation sampling.
#[derive(Debug, Clone, Copy)]
pub struct PerturbOptions {
    /// Number of perturbed samples (the all-kept sample is added on top).
    pub samples: usize,
    pub strategy: MaskStrategy,
    pub seed: u64,
    /// Number of worker threads for model queries (1 = sequential).
    pub threads: usize,
}

impl Default for PerturbOptions {
    fn default() -> Self {
        PerturbOptions {
            samples: 256,
            strategy: MaskStrategy::AttributeStratified,
            seed: 0xc4e4,
            threads: 1,
        }
    }
}

/// A perturbation sample: masks (true = word kept) and the matcher's
/// response on each rebuilt pair. Row 0 is always the unperturbed pair.
#[derive(Debug, Clone)]
pub struct PerturbationSet {
    pub masks: Vec<Vec<bool>>,
    pub responses: Vec<f64>,
    /// Fraction of words kept per sample (cached for kernels).
    pub kept_fraction: Vec<f64>,
}

impl PerturbationSet {
    /// Number of samples (including the unperturbed row 0).
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Model probability on the original pair.
    pub fn base_score(&self) -> f64 {
        self.responses[0]
    }

    /// Approximate resident heap bytes of this set — the accounting unit
    /// of the byte-budgeted stores (masks dominate: one byte per word per
    /// sample the way `Vec<bool>` stores them).
    pub fn approx_bytes(&self) -> usize {
        let masks: usize = self.masks.iter().map(|m| m.len() + 24).sum();
        masks + (self.responses.len() + self.kept_fraction.len()) * 8 + 64
    }
}

/// Generate drop masks for a tokenized pair (without querying any model).
pub fn sample_masks(
    tokenized: &TokenizedPair,
    opts: &PerturbOptions,
) -> Result<Vec<Vec<bool>>, crate::ExplainError> {
    let n = tokenized.len();
    if n == 0 {
        return Err(crate::ExplainError::EmptyPair);
    }
    if opts.samples == 0 {
        return Err(crate::ExplainError::NoSamples);
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut masks = Vec::with_capacity(opts.samples + 1);
    masks.push(vec![true; n]); // row 0: original
    let perturbable: Vec<usize> = match opts.strategy {
        MaskStrategy::SingleSide(side) => tokenized.side_indices(side),
        _ => (0..n).collect(),
    };
    if perturbable.is_empty() {
        return Err(crate::ExplainError::EmptyPair);
    }
    // Built once per call: the groups never change, and every shuffle
    // starts from a fresh copy of its source order, so reusing `order`
    // leaves every RNG draw as it is.
    let groups = match opts.strategy {
        MaskStrategy::AttributeStratified => tokenized.attribute_groups(),
        _ => Vec::new(),
    };
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..opts.samples {
        let mut mask = vec![true; n];
        match opts.strategy {
            MaskStrategy::Bernoulli => {
                for &i in &perturbable {
                    mask[i] = rng.gen_bool(0.5);
                }
                // Never emit the all-dropped mask on this path either.
                if perturbable.iter().all(|&i| !mask[i]) {
                    mask[perturbable[rng.gen_range(0..perturbable.len())]] = true;
                }
            }
            MaskStrategy::UniformCount | MaskStrategy::SingleSide(_) => {
                let max_drop = perturbable.len().max(2) - 1;
                let n_drop = rng.gen_range(1..=max_drop.max(1));
                order.clone_from(&perturbable);
                partial_shuffle(&mut order, n_drop, &mut rng);
                for &i in order.iter().take(n_drop) {
                    mask[i] = false;
                }
            }
            MaskStrategy::AttributeStratified => {
                // Choose a global drop fraction, then apply it within every
                // non-empty attribute group independently.
                let frac: f64 = rng.gen_range(0.1..0.9);
                for group in &groups {
                    if group.is_empty() {
                        continue;
                    }
                    let n_drop = ((group.len() as f64 * frac).round() as usize).min(group.len());
                    order.clone_from(group);
                    partial_shuffle(&mut order, n_drop, &mut rng);
                    for &i in order.iter().take(n_drop) {
                        mask[i] = false;
                    }
                }
                if mask.iter().all(|&m| !m) {
                    mask[rng.gen_range(0..n)] = true;
                }
            }
        }
        masks.push(mask);
    }
    Ok(masks)
}

/// Fisher-Yates prefix shuffle: after the call the first `k` items are a
/// uniform random sample without replacement.
fn partial_shuffle(items: &mut [usize], k: usize, rng: &mut StdRng) {
    let n = items.len();
    for i in 0..k.min(n.saturating_sub(1)) {
        let j = rng.gen_range(i..n);
        items.swap(i, j);
    }
}

/// Number of pairs handed to one [`Matcher::predict_proba_batch`] call
/// when blocks are fanned out over pool workers. Large enough to
/// amortise the per-batch feature caches, small enough that blocks
/// load-balance across workers. On the inline path the whole query is a
/// single block: masked cell values recur across the full mask set, so
/// one batch maximises per-call cache hits. Block size never changes
/// results — batch prediction is bitwise-identical to the scalar loop.
const QUERY_BLOCK: usize = 32;

/// Run `total` items in blocks: one block spanning everything when the
/// query stays inline (no thread budget, no live pool workers, or too
/// few items to split), [`QUERY_BLOCK`]-sized blocks over the shared
/// pool otherwise. `run_block` receives `(start, end)` item ranges.
fn run_blocked(total: usize, threads: usize, run_block: &(dyn Fn(usize, usize) + Sync)) {
    let pool = em_pool::global();
    if threads <= 1 || pool.workers() == 0 || total <= QUERY_BLOCK {
        if total > 0 {
            em_obs::gauge!("perturb/batch_size", total as u64);
            run_block(0, total);
        }
    } else {
        let n_blocks = total.div_ceil(QUERY_BLOCK);
        pool.run(n_blocks, threads, &|b| {
            let start = b * QUERY_BLOCK;
            let end = (start + QUERY_BLOCK).min(total);
            em_obs::gauge!("perturb/batch_size", (end - start) as u64);
            run_block(start, end);
        });
    }
}

/// Masked-pair vectors shared by every [`query_masks`] block. A pooled
/// vector only recycles allocations: each block overwrites the prefix it
/// scores, so which vector a block receives never changes a response.
static MASKED_PAIRS: ScratchPool<Vec<EntityPair>> = ScratchPool::new();

/// Query the matcher on every masked rebuild of the pair.
///
/// Identical masks are queried once and their response is shared (drop
/// sampling on short pairs repeats masks often). Unique masks are
/// processed in blocks: each block rebuilds its pairs through one
/// [`MaskedPairBuffer`] and issues a single batched prediction; blocks
/// run on the shared worker pool when `threads > 1`. Responses land in
/// per-mask slots, so the output is independent of scheduling.
pub fn query_masks(
    tokenized: &TokenizedPair,
    masks: &[Vec<bool>],
    matcher: &dyn Matcher,
    threads: usize,
) -> Vec<f64> {
    let _span = em_obs::span!("perturb/query");
    // Dedup memo: input index → unique slot, unique slot → first input.
    let mut first_seen: HashMap<&[bool], usize> = HashMap::with_capacity(masks.len());
    let mut slot_of: Vec<usize> = Vec::with_capacity(masks.len());
    let mut unique: Vec<usize> = Vec::with_capacity(masks.len());
    for (i, mask) in masks.iter().enumerate() {
        let next = unique.len();
        let slot = *first_seen.entry(mask.as_slice()).or_insert(next);
        if slot == next {
            unique.push(i);
        }
        slot_of.push(slot);
    }

    em_obs::counter!("perturb/masks", masks.len() as u64);
    em_obs::counter!("perturb/unique_masks", unique.len() as u64);
    em_obs::counter!("perturb/pairs_queried", unique.len() as u64);

    // f64 bit-patterns behind atomics: blocks write disjoint slots, and
    // the atomic store keeps the fan-out free of unsafe aliasing.
    let slots: Vec<AtomicU64> = (0..unique.len()).map(|_| AtomicU64::new(0)).collect();
    run_blocked(unique.len(), threads, &|start, end| {
        let mut buffer = MaskedPairBuffer::new(tokenized);
        // Rebuild into pooled pairs: `clone_from` reuses each pooled
        // pair's record and string capacity, so a warm block allocates
        // nothing per mask. Surplus pairs from a larger earlier block stay
        // in the vector (outside the scored prefix) for the next caller.
        let mut pairs = MASKED_PAIRS.take();
        for (k, &i) in unique[start..end].iter().enumerate() {
            let rebuilt = buffer.apply(&masks[i]);
            match pairs.get_mut(k) {
                Some(pooled) => pooled.clone_from(rebuilt),
                None => pairs.push(rebuilt.clone()),
            }
        }
        let scores = matcher.predict_proba_batch(&pairs[..end - start]);
        MASKED_PAIRS.put(pairs);
        for (slot, p) in (start..end).zip(scores) {
            slots[slot].store(p.to_bits(), Ordering::SeqCst);
        }
    });
    slot_of
        .iter()
        .map(|&slot| f64::from_bits(slots[slot].load(Ordering::SeqCst)))
        .collect()
}

/// Query the matcher on a slice of pre-built pairs, in batched blocks,
/// on the shared pool when `threads > 1` — the substrate for explainers
/// whose perturbations are not pure drop masks (injection and
/// substitution loops in Landmark, LEMON, Mojito-COPY, CERTA).
///
/// Output order matches input order and is independent of scheduling.
pub fn query_pairs(pairs: &[EntityPair], matcher: &dyn Matcher, threads: usize) -> Vec<f64> {
    let _span = em_obs::span!("perturb/query");
    em_obs::counter!("perturb/pairs_queried", pairs.len() as u64);
    let slots: Vec<AtomicU64> = (0..pairs.len()).map(|_| AtomicU64::new(0)).collect();
    run_blocked(pairs.len(), threads, &|start, end| {
        for (slot, p) in (start..end).zip(matcher.predict_proba_batch(&pairs[start..end])) {
            slots[slot].store(p.to_bits(), Ordering::SeqCst);
        }
    });
    slots
        .iter()
        .map(|slot| f64::from_bits(slot.load(Ordering::SeqCst)))
        .collect()
}

/// Sample masks and query the matcher in one step.
///
/// Guards against misbehaving models: a non-finite probability from the
/// matcher is reported as [`crate::ExplainError::NonFiniteModelOutput`]
/// instead of silently corrupting the surrogate fit; out-of-range finite
/// values are clamped into `[0, 1]`.
pub fn perturb(
    tokenized: &TokenizedPair,
    matcher: &dyn Matcher,
    opts: &PerturbOptions,
) -> Result<PerturbationSet, crate::ExplainError> {
    let masks = {
        let _span = em_obs::span!("perturb/sample");
        sample_masks(tokenized, opts)?
    };
    let mut responses = query_masks(tokenized, &masks, matcher, opts.threads);
    for (i, r) in responses.iter_mut().enumerate() {
        if !r.is_finite() {
            return Err(crate::ExplainError::NonFiniteModelOutput {
                sample: i,
                value: *r,
            });
        }
        *r = r.clamp(0.0, 1.0);
    }
    let n = tokenized.len() as f64;
    let kept_fraction = masks
        .iter()
        .map(|m| m.iter().filter(|&&b| b).count() as f64 / n)
        .collect();
    Ok(PerturbationSet {
        masks,
        responses,
        kept_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{Record, Schema};
    use std::sync::Arc;

    struct CountingMatcher;
    impl Matcher for CountingMatcher {
        fn name(&self) -> &str {
            "counting"
        }
        // Score = fraction of words present on the left title.
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            em_text::token_count(pair.left().value(0)) as f64 / 4.0
        }
    }

    fn tokenized() -> TokenizedPair {
        let schema = Arc::new(Schema::new(vec!["title", "brand"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["one two three four".into(), "acme".into()]),
            Record::new(1, vec!["one two".into(), "acme".into()]),
        )
        .unwrap();
        TokenizedPair::new(pair)
    }

    #[test]
    fn row_zero_is_unperturbed() {
        let tp = tokenized();
        let set = perturb(&tp, &CountingMatcher, &PerturbOptions::default()).unwrap();
        assert!(set.masks[0].iter().all(|&b| b));
        assert_eq!(set.base_score(), 1.0);
        assert_eq!(set.kept_fraction[0], 1.0);
        assert_eq!(set.len(), 257);
    }

    #[test]
    fn masks_are_deterministic_per_seed() {
        let tp = tokenized();
        let opts = PerturbOptions {
            samples: 50,
            ..Default::default()
        };
        let a = sample_masks(&tp, &opts).unwrap();
        let b = sample_masks(&tp, &opts).unwrap();
        assert_eq!(a, b);
        let opts2 = PerturbOptions { seed: 999, ..opts };
        let c = sample_masks(&tp, &opts2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn no_mask_is_all_dropped() {
        let tp = tokenized();
        for strategy in [
            MaskStrategy::UniformCount,
            MaskStrategy::Bernoulli,
            MaskStrategy::AttributeStratified,
        ] {
            let opts = PerturbOptions {
                samples: 200,
                strategy,
                ..Default::default()
            };
            let masks = sample_masks(&tp, &opts).unwrap();
            for m in &masks {
                assert!(m.iter().any(|&b| b), "all-dropped mask from {strategy:?}");
            }
        }
    }

    #[test]
    fn uniform_count_always_drops_something() {
        let tp = tokenized();
        let opts = PerturbOptions {
            samples: 100,
            strategy: MaskStrategy::UniformCount,
            ..Default::default()
        };
        let masks = sample_masks(&tp, &opts).unwrap();
        for m in masks.iter().skip(1) {
            assert!(m.iter().any(|&b| !b), "a perturbed sample must drop a word");
        }
    }

    #[test]
    fn single_side_leaves_other_side_untouched() {
        let tp = tokenized();
        let opts = PerturbOptions {
            samples: 100,
            strategy: MaskStrategy::SingleSide(Side::Right),
            ..Default::default()
        };
        let masks = sample_masks(&tp, &opts).unwrap();
        let left = tp.side_indices(Side::Left);
        for m in &masks {
            for &i in &left {
                assert!(m[i], "left side must stay intact");
            }
        }
    }

    #[test]
    fn responses_reflect_masks() {
        let tp = tokenized();
        let set = perturb(
            &tp,
            &CountingMatcher,
            &PerturbOptions {
                samples: 64,
                ..Default::default()
            },
        )
        .unwrap();
        for (mask, &resp) in set.masks.iter().zip(&set.responses) {
            // Count kept words in left title (indices 0..4).
            let kept = mask[..4].iter().filter(|&&b| b).count();
            assert!((resp - kept as f64 / 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let tp = tokenized();
        let opts = PerturbOptions {
            samples: 100,
            threads: 1,
            ..Default::default()
        };
        let masks = sample_masks(&tp, &opts).unwrap();
        let seq = query_masks(&tp, &masks, &CountingMatcher, 1);
        let par = query_masks(&tp, &masks, &CountingMatcher, 4);
        assert_eq!(seq, par);
    }

    /// Counts distinct model invocations through either prediction path.
    struct InvocationCounter(std::sync::atomic::AtomicUsize);
    impl Matcher for InvocationCounter {
        fn name(&self) -> &str {
            "invocation-counter"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            self.0.fetch_add(1, Ordering::SeqCst);
            em_text::token_count(pair.left().value(0)) as f64 / 4.0
        }
    }

    #[test]
    fn duplicate_masks_are_queried_once() {
        let tp = tokenized();
        let n = tp.len();
        let mut distinct = vec![vec![true; n]; 1];
        let mut with_dup = vec![false; n];
        with_dup[0] = true;
        distinct.push(with_dup.clone());
        // 64 copies of each distinct mask, interleaved.
        let masks: Vec<Vec<bool>> = (0..128).map(|i| distinct[i % 2].clone()).collect();
        let counter = InvocationCounter(std::sync::atomic::AtomicUsize::new(0));
        let responses = query_masks(&tp, &masks, &counter, 1);
        assert_eq!(counter.0.load(Ordering::SeqCst), 2, "dedup memo missed");
        // Copies share their original's response.
        for chunk in responses.chunks(2) {
            assert_eq!(chunk[0], responses[0]);
            assert_eq!(chunk[1], responses[1]);
        }
    }

    #[test]
    fn query_pairs_matches_scalar_loop_at_any_thread_count() {
        let tp = tokenized();
        let opts = PerturbOptions {
            samples: 90,
            ..Default::default()
        };
        let masks = sample_masks(&tp, &opts).unwrap();
        let pairs: Vec<EntityPair> = masks.iter().map(|m| tp.apply_mask(m)).collect();
        let want: Vec<f64> = pairs
            .iter()
            .map(|p| CountingMatcher.predict_proba(p))
            .collect();
        for threads in [1usize, 2, 8] {
            assert_eq!(query_pairs(&pairs, &CountingMatcher, threads), want);
        }
    }

    #[test]
    fn empty_pair_and_zero_samples_are_errors() {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let empty = TokenizedPair::new(
            EntityPair::new(
                Arc::clone(&schema),
                Record::new(0, vec!["".into()]),
                Record::new(1, vec!["".into()]),
            )
            .unwrap(),
        );
        assert!(matches!(
            sample_masks(&empty, &PerturbOptions::default()),
            Err(crate::ExplainError::EmptyPair)
        ));
        let tp = tokenized();
        assert!(matches!(
            sample_masks(
                &tp,
                &PerturbOptions {
                    samples: 0,
                    ..Default::default()
                }
            ),
            Err(crate::ExplainError::NoSamples)
        ));
    }

    #[test]
    fn stratified_masks_touch_every_attribute() {
        let tp = tokenized();
        let opts = PerturbOptions {
            samples: 300,
            strategy: MaskStrategy::AttributeStratified,
            ..Default::default()
        };
        let masks = sample_masks(&tp, &opts).unwrap();
        // Both the title group and the brand group must get dropped in some
        // samples.
        let brand_indices = tp.cell_indices(Side::Left, 1);
        let brand_dropped = masks.iter().any(|m| brand_indices.iter().any(|&i| !m[i]));
        assert!(
            brand_dropped,
            "stratified sampling never perturbed the brand"
        );
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use em_data::{EntityPair, Record, Schema};
    use std::sync::Arc;

    struct NanMatcher;
    impl Matcher for NanMatcher {
        fn name(&self) -> &str {
            "nan"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            // NaN once the pair loses words; finite on the original.
            if em_text::token_count(&pair.left().full_text()) < 3 {
                f64::NAN
            } else {
                0.5
            }
        }
    }

    struct OutOfRangeMatcher;
    impl Matcher for OutOfRangeMatcher {
        fn name(&self) -> &str {
            "oob"
        }
        fn predict_proba(&self, _: &EntityPair) -> f64 {
            1.7
        }
    }

    fn tokenized() -> TokenizedPair {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["one two three".into()]),
            Record::new(1, vec!["four five".into()]),
        )
        .unwrap();
        TokenizedPair::new(pair)
    }

    #[test]
    fn nan_output_is_reported_not_propagated() {
        let tp = tokenized();
        let err = perturb(
            &tp,
            &NanMatcher,
            &PerturbOptions {
                samples: 64,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::ExplainError::NonFiniteModelOutput { .. }
        ));
        let msg = format!("{err}");
        assert!(msg.contains("non-finite"));
    }

    #[test]
    fn out_of_range_output_is_clamped() {
        let tp = tokenized();
        let set = perturb(
            &tp,
            &OutOfRangeMatcher,
            &PerturbOptions {
                samples: 16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(set.responses.iter().all(|&r| (0.0..=1.0).contains(&r)));
        assert_eq!(set.base_score(), 1.0);
    }
}
