//! Regression tests for the crew-core decision machinery on a seeded
//! synthetic family with a *trained* matcher (the crate's own unit tests
//! use planted toy models): counterfactuals found by
//! [`crew_core::find_counterfactual`] must actually flip the matcher's
//! thresholded decision, and the surrogate fidelity a fit reports must be
//! reproducible from the fit itself — never an overstatement.

use crew_core::{
    find_counterfactual, fit_word_surrogate, kernel_weight, ClusterAlgorithm,
    CounterfactualOptions, Crew, CrewOptions, PerturbationSet, SurrogateOptions,
};
use em_data::TokenizedPair;
use em_eval::{EvalContext, MatcherKind};
use em_matchers::Matcher;
use em_synth::{Family, GeneratorConfig};
use std::sync::Arc;

/// One small seeded family with a trained logistic matcher — the
/// cheapest "real model on real-shaped data" configuration.
fn seeded_context() -> EvalContext {
    EvalContext::prepare(
        Family::Restaurants,
        GeneratorConfig {
            entities: 50,
            pairs: 120,
            match_rate: Family::Restaurants.standard_match_rate(),
            hard_negative_rate: 0.6,
            seed: 7,
        },
    )
    .unwrap()
}

fn crew_for(ctx: &EvalContext) -> Crew {
    Crew::new(Arc::clone(&ctx.embeddings), CrewOptions::default())
}

/// Recompute the weighted R² of a surrogate fit on its own perturbation
/// sample, from first principles (same kernel, same weighted mean).
fn recomputed_fidelity(
    set: &PerturbationSet,
    weights: &[f64],
    intercept: f64,
    kernel_width: f64,
) -> f64 {
    let k: Vec<f64> = set
        .kept_fraction
        .iter()
        .map(|&f| kernel_weight(f, kernel_width))
        .collect();
    let wsum: f64 = k.iter().sum();
    let ymean: f64 = set
        .responses
        .iter()
        .zip(&k)
        .map(|(&y, &w)| w / wsum * y)
        .sum();
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for ((mask, &ki), &y) in set.masks.iter().zip(&k).zip(&set.responses) {
        let pred: f64 = intercept
            + mask
                .iter()
                .zip(weights)
                .map(|(&kept, &w)| if kept { w } else { 0.0 })
                .sum::<f64>();
        ss_res += ki * (y - pred) * (y - pred);
        ss_tot += ki * (y - ymean) * (y - ymean);
    }
    if ss_tot <= f64::EPSILON {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(-1.0, 1.0)
    }
}

/// A counterfactual returned by the greedy search must realise an actual
/// decision flip of the trained matcher — before and after probabilities
/// on opposite sides of the threshold, and the stored flipped pair
/// reproducing the after-probability when re-queried.
#[test]
fn counterfactuals_flip_the_trained_matcher() {
    let ctx = seeded_context();
    let matcher = ctx.matcher(MatcherKind::Logistic).unwrap();
    let crew = crew_for(&ctx);
    let threshold = matcher.threshold();

    let mut flips = 0;
    let mut predicted_matches = 0;
    for labeled in ctx.pairs_to_explain(10) {
        let pair = &labeled.pair;
        let base = matcher.predict_proba(pair);
        let explanation = crew.explain_clusters(matcher.as_ref(), pair).unwrap();
        let cf = find_counterfactual(
            matcher.as_ref(),
            pair,
            &explanation,
            CounterfactualOptions {
                max_removals: explanation.clusters.len(),
            },
        )
        .unwrap();
        if base >= threshold {
            predicted_matches += 1;
        }
        let Some(cf) = cf else { continue };
        flips += 1;
        assert_eq!(cf.probability_before, base, "before-probability drifted");
        assert_ne!(
            cf.probability_before >= threshold,
            cf.probability_after >= threshold,
            "counterfactual did not cross the decision threshold"
        );
        // The stored pair must reproduce the flip when re-queried.
        let requeried = matcher.predict_proba(&cf.flipped_pair);
        assert_eq!(
            requeried.to_bits(),
            cf.probability_after.to_bits(),
            "flipped pair does not reproduce the after-probability"
        );
        assert!(cf.cost() >= 1 && cf.cost() <= explanation.clusters.len());
        assert!(
            !cf.removed_words.is_empty(),
            "a flip with no removed words is vacuous"
        );
        // Every removed word belongs to a removed cluster.
        let allowed: std::collections::HashSet<usize> = cf
            .removed_clusters
            .iter()
            .flat_map(|&ci| explanation.clusters[ci].member_indices.iter().copied())
            .collect();
        for w in &cf.removed_words {
            assert!(allowed.contains(w), "word {w} removed outside its clusters");
        }
    }
    assert!(
        predicted_matches > 0,
        "the stratified sample should contain predicted matches"
    );
    assert!(
        flips > 0,
        "no counterfactual flip found on the whole seeded sample"
    );
}

/// The fidelity (weighted R²) a surrogate fit reports must equal the
/// fidelity actually achieved by its weights on the perturbation sample
/// — recomputed from first principles — and CREW must propagate that
/// exact value into the explanation it emits.
#[test]
fn reported_surrogate_fidelity_is_reproducible() {
    let ctx = seeded_context();
    let matcher = ctx.matcher(MatcherKind::Logistic).unwrap();
    let crew = crew_for(&ctx);
    let surrogate = SurrogateOptions::default();

    for labeled in ctx.pairs_to_explain(4) {
        let tokenized = TokenizedPair::new(labeled.pair.clone());
        let set = crew.perturbation_set(matcher.as_ref(), &tokenized).unwrap();
        let fit = fit_word_surrogate(&set, &surrogate).unwrap();
        let achieved =
            recomputed_fidelity(&set, &fit.weights, fit.intercept, surrogate.kernel_width);
        assert!(
            (achieved - fit.r_squared).abs() < 1e-9,
            "reported R² {} is not the achieved fidelity {}",
            fit.r_squared,
            achieved
        );
        // The explanation carries the same value, not a recomputation.
        let explanation = crew.explain_clusters_with_set(&tokenized, &set).unwrap();
        assert_eq!(
            explanation.word_level.surrogate_r2.to_bits(),
            fit.r_squared.to_bits(),
            "explanation drifted from the surrogate fit"
        );
    }
}

/// On a matcher that *is* linear in the kept words, the surrogate must
/// report near-perfect fidelity — a floor for the estimator itself.
#[test]
fn linear_model_reaches_near_perfect_fidelity() {
    use em_data::{EntityPair, Record, Schema};

    struct LinearMatcher;
    impl Matcher for LinearMatcher {
        fn name(&self) -> &str {
            "linear"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            // 0.1 per word present across both sides (8 words → [0, 0.8]).
            let count = em_text::token_count(&pair.left().full_text())
                + em_text::token_count(&pair.right().full_text());
            count as f64 * 0.1
        }
    }

    let schema = Arc::new(Schema::new(vec!["t"]));
    let pair = EntityPair::new(
        schema,
        Record::new(0, vec!["alpha beta gamma delta".into()]),
        Record::new(1, vec!["epsilon zeta eta theta".into()]),
    )
    .unwrap();
    let tokenized = TokenizedPair::new(pair);
    let set = crew_core::perturb(
        &tokenized,
        &LinearMatcher,
        &crew_core::PerturbOptions {
            samples: 200,
            ..Default::default()
        },
    )
    .unwrap();
    let fit = fit_word_surrogate(&set, &SurrogateOptions::default()).unwrap();
    assert!(
        fit.r_squared > 0.99,
        "linear model fit only reached R² {}",
        fit.r_squared
    );
    // Every word's weight must be close to its true contribution.
    for (i, w) in fit.weights.iter().enumerate() {
        assert!(
            (w - 0.1).abs() < 0.05,
            "word {i} weight {w} far from the true 0.1"
        );
    }
}

/// FNV-1a over little-endian `u64`s.
fn mix(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Model selection's outputs on the seeded Restaurants context's sample
/// of test pairs (`pairs_to_explain(20)`), pinned as digests computed
/// before the surrogate fits became one sweep across the cuts: the
/// selected K, group R², every cluster's members and weight bits, and
/// the full `k_sweep_with_set` series, for the agglomerative default
/// and the k-medoids ablation (non-nested cuts).
#[test]
fn model_selection_matches_pinned_digests() {
    let ctx = seeded_context();
    let matcher = ctx.matcher(MatcherKind::Logistic).unwrap();
    let pairs: Vec<TokenizedPair> = ctx
        .pairs_to_explain(20)
        .into_iter()
        .map(|labeled| TokenizedPair::new(labeled.pair))
        .collect();
    let pinned = [
        (ClusterAlgorithm::Agglomerative, 0x3d2c_58e7_8206_a8f6),
        (ClusterAlgorithm::KMedoids, 0x30f5_dfc1_8022_dfeb),
    ];
    for (algorithm, want) in pinned {
        let crew = Crew::new(
            Arc::clone(&ctx.embeddings),
            CrewOptions {
                algorithm,
                ..CrewOptions::default()
            },
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for tokenized in &pairs {
            let set = crew.perturbation_set(matcher.as_ref(), tokenized).unwrap();
            let ce = crew.explain_clusters_with_set(tokenized, &set).unwrap();
            mix(&mut h, ce.selected_k as u64);
            mix(&mut h, ce.group_r2.to_bits());
            for cluster in &ce.clusters {
                mix(&mut h, cluster.member_indices.len() as u64);
                for &m in &cluster.member_indices {
                    mix(&mut h, m as u64);
                }
                mix(&mut h, cluster.weight.to_bits());
            }
            for (k, r2, silhouette) in crew.k_sweep_with_set(tokenized, &set).unwrap() {
                mix(&mut h, k as u64);
                mix(&mut h, r2.to_bits());
                mix(&mut h, silhouette.to_bits());
            }
        }
        assert_eq!(h, want, "{algorithm:?} model selection changed: {h:#018x}");
    }
}
