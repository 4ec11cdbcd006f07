//! Integration tests for the extension features: blocking → match →
//! explain pipeline, counterfactuals, global explanations and JSON export.

use crew_core::{
    cluster_explanation_to_json, explain_dataset, find_counterfactual, CounterfactualOptions, Crew,
    CrewOptions, PerturbOptions,
};
use em_data::{EntityPair, Record};
use em_eval::{EvalContext, MatcherKind};
use em_stream::{block_candidates, BlockingConfig};
use em_synth::{Family, GeneratorConfig};
use std::sync::Arc;

fn ctx() -> EvalContext {
    EvalContext::prepare(
        Family::Products,
        GeneratorConfig {
            entities: 80,
            pairs: 200,
            match_rate: 0.25,
            seed: 21,
            ..Default::default()
        },
    )
    .unwrap()
}

fn fast_crew(ctx: &EvalContext) -> Crew {
    Crew::new(
        Arc::clone(&ctx.embeddings),
        CrewOptions {
            perturb: PerturbOptions {
                samples: 64,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn blocking_recovers_true_matches() {
    let ctx = ctx();
    // Build raw tables from the dataset's pairs; the i-th left and right
    // records of a match pair describe the same entity.
    let matches: Vec<_> = ctx
        .dataset
        .examples()
        .iter()
        .filter(|e| e.label.is_match())
        .take(30)
        .collect();
    let left: Vec<Record> = matches.iter().map(|e| e.pair.left().clone()).collect();
    let right: Vec<Record> = matches.iter().map(|e| e.pair.right().clone()).collect();
    let schema = ctx.dataset.schema_arc();

    // The default stop-token cap (64 members) cannot skip any block of
    // this 60-record input; a cap of 16 skips the three stop-token blocks
    // that link most records.
    let config = BlockingConfig {
        max_block_size: 16,
        ..Default::default()
    };
    let res = block_candidates(&left, &right, &config);
    // Recall of blocking on the aligned (i, i) truth pairs.
    let recalled = (0..left.len() as u32)
        .filter(|&i| res.pairs.binary_search(&(i, i)).is_ok())
        .count();
    assert!(
        recalled as f64 / left.len() as f64 > 0.8,
        "blocking recall too low: {recalled}/{}",
        left.len()
    );
    // And it prunes the cross product.
    assert!(res.reduction_ratio() > 0.3);

    // Materialised candidates are explainable end to end.
    let pairs: Vec<EntityPair> = res.pairs[..3.min(res.pairs.len())]
        .iter()
        .map(|&(i, j)| {
            let (l, r) = (left[i as usize].clone(), right[j as usize].clone());
            EntityPair::new(Arc::clone(&schema), l, r).unwrap()
        })
        .collect();
    let matcher = ctx.matcher(MatcherKind::Logistic).unwrap();
    let crew = fast_crew(&ctx);
    for p in &pairs {
        let ce = crew.explain_clusters(matcher.as_ref(), p).unwrap();
        assert!(!ce.clusters.is_empty());
    }
}

#[test]
fn counterfactuals_actually_flip_the_trained_matcher() {
    let ctx = ctx();
    let matcher = ctx.matcher(MatcherKind::Logistic).unwrap();
    let crew = fast_crew(&ctx);
    let mut flipped = 0;
    let mut tried = 0;
    for ex in ctx.pairs_to_explain(8) {
        let ce = crew.explain_clusters(matcher.as_ref(), &ex.pair).unwrap();
        let cf = find_counterfactual(
            matcher.as_ref(),
            &ex.pair,
            &ce,
            CounterfactualOptions {
                max_removals: ce.clusters.len(),
            },
        )
        .unwrap();
        tried += 1;
        if let Some(cf) = cf {
            flipped += 1;
            // Verify the flip is real: re-query the matcher on the pair.
            let before = matcher.predict(&ex.pair);
            let after = matcher.predict(&cf.flipped_pair);
            assert_ne!(before, after, "counterfactual did not flip");
        }
    }
    assert!(tried == 8);
    assert!(flipped >= 1, "no counterfactual found on any of 8 pairs");
}

#[test]
fn global_explanation_over_trained_matcher() {
    let ctx = ctx();
    let matcher = ctx.matcher(MatcherKind::Logistic).unwrap();
    let crew = fast_crew(&ctx);
    let sample = ctx.split.test.sample(10, 5);
    let g = explain_dataset(&crew, matcher.as_ref(), &sample, 10, 2).unwrap();
    assert_eq!(g.pairs_explained, 10);
    assert_eq!(g.attributes.len(), ctx.dataset.schema().len());
    // Attribute masses are sorted descending.
    for w in g.attributes.windows(2) {
        assert!(w[0].mean_abs_mass >= w[1].mean_abs_mass);
    }
    assert!(!g.recurring_words.is_empty());
    assert!(g.mean_clusters >= 1.0);
}

#[test]
fn json_export_is_valid_for_real_explanations() {
    let ctx = ctx();
    let matcher = ctx.matcher(MatcherKind::Logistic).unwrap();
    let crew = fast_crew(&ctx);
    for ex in ctx.pairs_to_explain(4) {
        let ce = crew.explain_clusters(matcher.as_ref(), &ex.pair).unwrap();
        let json = cluster_explanation_to_json(&ce, ex.pair.schema());
        assert!(
            crew_core::report::looks_like_valid_json(&json),
            "invalid JSON: {}",
            &json[..json.len().min(200)]
        );
        // Cluster count in the JSON matches the explanation.
        assert!(json.contains(&format!("\"selected_k\":{}", ce.selected_k)));
    }
}

#[test]
fn ensemble_is_explainable_and_calibrated() {
    let ctx = ctx();
    let members: Vec<Arc<dyn em_matchers::Matcher>> = vec![
        ctx.matcher(MatcherKind::Logistic).unwrap(),
        ctx.matcher(MatcherKind::Rules).unwrap(),
    ];
    let mut ensemble = em_matchers::EnsembleMatcher::uniform(members).unwrap();
    ensemble.calibrate(&ctx.split.validation);
    let quality = em_matchers::evaluate(&ensemble, &ctx.split.test);
    assert!(
        quality.f1 > 0.5,
        "calibrated ensemble too weak: {quality:?}"
    );
    let crew = fast_crew(&ctx);
    let pair = &ctx.pairs_to_explain(1)[0].pair;
    let ce = crew.explain_clusters(&ensemble, pair).unwrap();
    assert!(!ce.clusters.is_empty());
}
