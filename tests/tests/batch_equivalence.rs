//! Property tests for the batched perturbation engine.
//!
//! Two contracts keep the engine safe to use everywhere:
//!
//! 1. **Batch ≡ batch of one, bitwise.** A pair's probability must not
//!    depend on the rest of its batch: `Matcher::predict_proba_batch`
//!    returns exactly what a loop of single-pair `predict_proba` calls
//!    returns, for every matcher in the zoo. For the logistic, MLP and
//!    attention models, whose only inference path is the cached batch
//!    path, each of those calls is a batch of one; the simple matchers
//!    inherit the default loop.
//! 2. **Scheduling independence.** Queries fanned out over a shared worker
//!    pool land in per-index slots, so the result vector is bitwise
//!    identical to the sequential loop at any worker count.
//!
//! The pooled rebuild path is pinned here too: capacity-reusing
//! `clone_from` equals a fresh clone whatever the target held before,
//! `query_masks` over dirty pooled pairs equals the single-pair
//! `apply_mask` → `predict_proba` loop, and the mask sampler draws the
//! exact masks it always drew (digests recorded before its buffers were
//! hoisted out of the sample loop).

use crew_core::{query_masks, sample_masks, MaskStrategy, PerturbOptions};
use em_data::{EntityPair, Record, Schema, Side, TokenizedPair};
use em_matchers::{
    AttentionMatcher, AttentionOptions, CalibratedMatcher, EnsembleMatcher, LogisticMatcher,
    Matcher, MlpMatcher, RuleMatcher, TrainOptions,
};
use em_pool::WorkerPool;
use em_rngs::rngs::StdRng;
use em_rngs::{Rng, SeedableRng};
use em_synth::{generate, Family, GeneratorConfig};
use propcheck::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

struct Zoo {
    matchers: Vec<(&'static str, Arc<dyn Matcher>)>,
    test_pairs: Vec<EntityPair>,
}

/// Train the full matcher zoo once; every property case reuses it.
fn zoo() -> &'static Zoo {
    static ZOO: OnceLock<Zoo> = OnceLock::new();
    ZOO.get_or_init(|| {
        let dataset = generate(
            Family::Restaurants,
            GeneratorConfig {
                entities: 60,
                pairs: 160,
                match_rate: 0.25,
                hard_negative_rate: 0.5,
                seed: 23,
            },
        )
        .expect("synth dataset");
        let split = dataset.split(0.7, 0.15, 23).expect("split");
        let n_attrs = split.train.examples()[0].pair.schema().len();
        let logistic: Arc<dyn Matcher> = Arc::new(
            LogisticMatcher::fit(&split.train, &split.validation, TrainOptions::default())
                .expect("logistic"),
        );
        let mlp: Arc<dyn Matcher> = Arc::new(
            MlpMatcher::fit(&split.train, &split.validation, TrainOptions::default()).expect("mlp"),
        );
        let attention: Arc<dyn Matcher> = Arc::new(
            AttentionMatcher::fit(&split.train, &split.validation, AttentionOptions::default())
                .expect("attention"),
        );
        let rules: Arc<dyn Matcher> = Arc::new(RuleMatcher::uniform(n_attrs, 0.5).expect("rules"));
        let calibrated: Arc<dyn Matcher> = Arc::new(
            CalibratedMatcher::fit(
                LogisticMatcher::fit(&split.train, &split.validation, TrainOptions::default())
                    .expect("logistic for calibration"),
                &split.validation,
            )
            .expect("platt calibration"),
        );
        let ensemble: Arc<dyn Matcher> = Arc::new(
            EnsembleMatcher::uniform(vec![
                Arc::clone(&logistic),
                Arc::clone(&mlp),
                Arc::clone(&rules),
            ])
            .expect("ensemble"),
        );
        let test_pairs: Vec<EntityPair> = split
            .test
            .examples()
            .iter()
            .map(|ex| ex.pair.clone())
            .filter(|p| !TokenizedPair::new(p.clone()).is_empty())
            .collect();
        assert!(!test_pairs.is_empty(), "need non-empty test pairs");
        Zoo {
            matchers: vec![
                ("logistic", logistic),
                ("mlp", mlp),
                ("attention", attention),
                ("rules", rules),
                ("calibrated", calibrated),
                ("ensemble", ensemble),
            ],
            test_pairs,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Batch prediction is bitwise-identical to scoring each pair as a
    // batch of one, for every matcher in the zoo, over random batches of
    // masked real pairs (duplicates included — the engine dedups
    // upstream, the matcher contract must not rely on it).
    #[test]
    fn batch_prediction_is_bitwise_batch_of_one_for_every_matcher(
        seed in 0u64..500,
        count in 1usize..8,
    ) {
        let zoo = zoo();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<EntityPair> = Vec::with_capacity(count + 1);
        for _ in 0..count {
            let pair = &zoo.test_pairs[rng.gen_range(0..zoo.test_pairs.len())];
            let tp = TokenizedPair::new(pair.clone());
            let mask: Vec<bool> = (0..tp.len()).map(|_| rng.gen_bool(0.7)).collect();
            pairs.push(tp.apply_mask(&mask));
        }
        // Force a duplicate into every batch.
        pairs.push(pairs[0].clone());
        for (name, matcher) in &zoo.matchers {
            let batch = matcher.predict_proba_batch(&pairs);
            prop_assert_eq!(batch.len(), pairs.len());
            for (b, p) in batch.iter().zip(&pairs) {
                let one = matcher.predict_proba(p);
                prop_assert!(
                    b.to_bits() == one.to_bits(),
                    "matcher {} diverges: batch {} vs batch of one {}",
                    name, b, one
                );
            }
        }
    }

    // `query_masks` returns the same bits whatever thread budget it is
    // given (1 = inline loop, >1 = shared-pool fan-out).
    #[test]
    fn query_masks_is_thread_count_invariant(seed in 0u64..200) {
        let zoo = zoo();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ead);
        let pair = &zoo.test_pairs[rng.gen_range(0..zoo.test_pairs.len())];
        let tp = TokenizedPair::new(pair.clone());
        let masks = sample_masks(
            &tp,
            &PerturbOptions { samples: 96, seed, threads: 1, ..Default::default() },
        ).expect("masks");
        let matcher = &zoo.matchers[0].1;
        let sequential = query_masks(&tp, &masks, matcher.as_ref(), 1);
        for threads in [2usize, 8] {
            let parallel = query_masks(&tp, &masks, matcher.as_ref(), threads);
            prop_assert_eq!(sequential.len(), parallel.len());
            for (a, b) in sequential.iter().zip(&parallel) {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "threads={} diverges: {} vs {}",
                    threads, a, b
                );
            }
        }
    }

    // Explicit pools of 1, 2 and 8 workers produce the same per-mask
    // responses as the sequential engine — dynamic scheduling never leaks
    // into results because each index owns its slot.
    #[test]
    fn explicit_pools_match_sequential_query(seed in 0u64..200, workers in 1usize..9) {
        let zoo = zoo();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
        let pair = &zoo.test_pairs[rng.gen_range(0..zoo.test_pairs.len())];
        let tp = TokenizedPair::new(pair.clone());
        let masks = sample_masks(
            &tp,
            &PerturbOptions { samples: 48, seed, threads: 1, ..Default::default() },
        ).expect("masks");
        let matcher = &zoo.matchers[0].1;
        let sequential = query_masks(&tp, &masks, matcher.as_ref(), 1);
        let pool = WorkerPool::new(workers);
        let slots: Vec<AtomicU64> = (0..masks.len()).map(|_| AtomicU64::new(0)).collect();
        pool.run(masks.len(), workers, &|i| {
            let p = matcher.predict_proba(&tp.apply_mask(&masks[i]));
            slots[i].store(p.to_bits(), Ordering::SeqCst);
        });
        for (i, s) in sequential.iter().enumerate() {
            let p = f64::from_bits(slots[i].load(Ordering::SeqCst));
            prop_assert!(
                s.to_bits() == p.to_bits(),
                "workers={} slot {} diverges: {} vs {}",
                workers, i, s, p
            );
        }
    }
}

fn record(id: u64, values: &[&str]) -> Record {
    Record::new(id, values.iter().map(|v| v.to_string()).collect())
}

#[test]
fn record_clone_from_equals_a_fresh_clone() {
    let source = record(7, &["sonix tv", "", "499"]);
    let targets = [
        // More values, each longer than the source's.
        record(
            1,
            &["a much longer title than before", "brand", "999.99", "x"],
        ),
        // Fewer values.
        record(2, &["one"]),
        // Same arity, longer strings.
        record(3, &["sonix television 55 inch", "sonix corp", "1499"]),
        // Empty.
        Record::new(4, Vec::new()),
    ];
    for mut target in targets {
        target.clone_from(&source);
        assert_eq!(target, source.clone());
        assert_eq!(target.id, 7);
        assert_eq!(target.values(), source.values());
    }
}

#[test]
fn pair_clone_from_equals_a_fresh_clone() {
    let wide = Arc::new(Schema::new(vec!["title", "brand", "price"]));
    let narrow = Arc::new(Schema::new(vec!["name"]));
    let source = EntityPair::new(
        Arc::clone(&wide),
        record(1, &["sonix tv", "sonix", "499"]),
        record(2, &["sonix television", "", "489"]),
    )
    .unwrap();
    let targets = [
        // Another schema, fewer values per record.
        EntityPair::new(
            Arc::clone(&narrow),
            record(10, &["a long name from another schema"]),
            record(11, &["x"]),
        )
        .unwrap(),
        // Same schema, longer strings.
        EntityPair::new(
            Arc::clone(&wide),
            record(20, &["veltron laptop 15 inch", "veltron", "1299.00"]),
            record(21, &["veltron notebook 15", "veltron inc", "1249.00"]),
        )
        .unwrap(),
        // An equal schema behind a different handle.
        EntityPair::new(
            Arc::new(Schema::new(vec!["title", "brand", "price"])),
            record(30, &["", "", ""]),
            record(31, &["", "", ""]),
        )
        .unwrap(),
    ];
    for mut target in targets {
        target.clone_from(&source);
        assert_eq!(target, source.clone());
        assert!(
            std::ptr::eq(target.schema(), source.schema()),
            "the schema handle is re-pointed at the source's"
        );
    }
    // A schema with more attributes than the source's.
    let mut target = EntityPair::new(
        Arc::new(Schema::new(vec!["a", "b", "c", "d"])),
        record(40, &["w", "x", "y", "z"]),
        record(41, &["w", "x", "y", "z"]),
    )
    .unwrap();
    target.clone_from(&source);
    assert_eq!(target, source);
    assert_eq!(target.left().len(), 3);
}

#[test]
fn pooled_query_masks_equals_the_scalar_loop_for_every_matcher() {
    let zoo = zoo();
    // Pairs ordered so every query follows one over a different pair,
    // often a longer one, leaving dirty pooled pairs with more words and
    // other record ids behind.
    let mut pairs: Vec<&EntityPair> = zoo.test_pairs.iter().take(6).collect();
    pairs.sort_by_key(|p| std::cmp::Reverse(TokenizedPair::new((*p).clone()).len()));
    for (name, matcher) in &zoo.matchers {
        for threads in [1usize, 4] {
            for (k, pair) in pairs.iter().enumerate() {
                let tp = TokenizedPair::new((*pair).clone());
                let masks = sample_masks(
                    &tp,
                    &PerturbOptions {
                        samples: 80,
                        seed: k as u64,
                        threads,
                        ..Default::default()
                    },
                )
                .expect("masks");
                let got = query_masks(&tp, &masks, matcher.as_ref(), threads);
                let want: Vec<f64> = masks
                    .iter()
                    .map(|m| matcher.predict_proba(&tp.apply_mask(m)))
                    .collect();
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        g.to_bits() == w.to_bits(),
                        "{name} threads={threads} pair {k} mask {i}: pooled {g} vs single pair {w}"
                    );
                }
            }
        }
    }
}

/// FNV-1a over every mask, row lengths included.
fn masks_digest(h: &mut u64, masks: &[Vec<bool>]) {
    let mut mix = |byte: u8| {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for mask in masks {
        for b in (mask.len() as u64).to_le_bytes() {
            mix(b);
        }
        for &bit in mask {
            mix(u8::from(bit));
        }
    }
}

#[test]
fn sampled_masks_match_pinned_digests() {
    let schema = Arc::new(Schema::new(vec!["title", "brand", "price"]));
    let pairs: Vec<TokenizedPair> = [
        (
            ["Sony Bravia 55\" TV", "Sony", "499.99"],
            ["Bravia 55 inch television", "", "489"],
        ),
        (
            ["veltron laptop", "", ""],
            ["veltron notebook pro 15", "veltron inc", "1299"],
        ),
        (["one", "two", "three"], ["four", "five", "six"]),
    ]
    .iter()
    .enumerate()
    .map(|(i, (l, r))| {
        TokenizedPair::new(
            EntityPair::new(
                Arc::clone(&schema),
                record(2 * i as u64, l),
                record(2 * i as u64 + 1, r),
            )
            .unwrap(),
        )
    })
    .collect();
    let pinned = [
        (MaskStrategy::UniformCount, 0xdd51_3509_7c5b_87bf),
        (MaskStrategy::Bernoulli, 0xbb8a_d7da_c7c5_266b),
        (MaskStrategy::AttributeStratified, 0xd915_141a_8ecc_6f2a),
        (MaskStrategy::SingleSide(Side::Left), 0xd400_f7e6_38ee_7345),
        (MaskStrategy::SingleSide(Side::Right), 0xe145_f589_e08b_db25),
    ];
    for (strategy, want) in pinned {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for tp in &pairs {
            for seed in [0u64, 7, 1009] {
                let masks = sample_masks(
                    tp,
                    &PerturbOptions {
                        samples: 64,
                        strategy,
                        seed,
                        threads: 1,
                    },
                )
                .expect("masks");
                masks_digest(&mut h, &masks);
            }
        }
        assert_eq!(h, want, "{strategy:?} draws different masks");
    }
}
