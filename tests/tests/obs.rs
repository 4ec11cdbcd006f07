//! Properties of the observability layer (`em-obs`): recorded span trees
//! are well-formed, counters sum across threads, the aggregated
//! [`em_obs::TraceReport`] structure is invariant to how work is
//! scheduled, and — the contract that lets the probes live in hot paths —
//! enabling observation never changes what the instrumented code computes.
//!
//! Obs state is process-global, so every test body runs under one
//! file-local lock and resets the recorder before measuring.

use em_obs::TraceReport;
use propcheck::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialize all obs-touching tests in this binary and start each one
/// from a clean, enabled recorder.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    em_obs::set_enabled(true);
    em_obs::reset();
    guard
}

/// Collect and disable (the inverse of [`guard`]'s setup).
fn finish() -> TraceReport {
    let report = em_obs::collect();
    em_obs::set_enabled(false);
    report
}

/// Enter a `width`-ary span tree of the given depth once: every node at
/// level `l` is a span named `c{j}` nested under its level-`l-1` parent.
fn run_span_tree(level: usize, depth: usize, width: usize) {
    if level == depth {
        return;
    }
    for j in 0..width {
        let _span = em_obs::span!(&format!("c{j}"));
        run_span_tree(level + 1, depth, width);
    }
}

/// One pool fan-out whose recorded structure must not depend on the
/// thread budget: tasks adopt the submitter's span context, so they
/// aggregate under `submit` wherever they actually run.
fn run_pool_workload(tasks: usize, budget: usize) {
    let _span = em_obs::span!("submit");
    em_pool::global().run(tasks, budget, &|i| {
        let _task = em_obs::span!("task");
        em_obs::counter!("prop/done", 1);
        if i % 2 == 0 {
            let _even = em_obs::span!("even");
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Any nested execution produces a well-formed tree: one aggregated
    // node per distinct path, counts equal to the number of entries,
    // children preceded by their parents, depth consistent with the
    // path, and self time bounded by total time. Re-running the same
    // execution reproduces the structure projection exactly.
    #[test]
    fn span_trees_are_well_formed(
        depth in 1usize..4,
        width in 1usize..4,
        reps in 1u64..4,
    ) {
        let _g = guard();
        for _ in 0..reps {
            run_span_tree(0, depth, width);
        }
        let report = finish();

        // Distinct paths: width + width^2 + ... + width^depth.
        let expected: usize = (1..=depth).map(|d| width.pow(d as u32)).sum();
        prop_assert_eq!(report.spans.len(), expected);
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        prop_assert!(paths == sorted, "spans must be sorted by path");
        for s in &report.spans {
            // Each full path is entered exactly once per repetition.
            prop_assert!(s.count == reps, "path {}: count {} != reps {reps}", s.path, s.count);
            prop_assert_eq!(s.depth, s.path.split('/').count() - 1);
            prop_assert!(s.self_ns <= s.total_ns, "path {}", s.path);
            if s.depth > 0 {
                let parent = s.path.rsplit_once('/').unwrap().0;
                prop_assert!(
                    report.span(parent).is_some(),
                    "child {} has no aggregated parent",
                    s.path
                );
            }
        }

        // The structure projection is reproducible from scratch.
        let structure = report.structure();
        em_obs::set_enabled(true);
        em_obs::reset();
        for _ in 0..reps {
            run_span_tree(0, depth, width);
        }
        prop_assert_eq!(finish().structure(), structure);
    }

    // Counter increments from any number of threads sum exactly; gauges
    // keep the maximum observed value regardless of arrival order.
    #[test]
    fn counters_sum_and_gauges_max_across_threads(
        threads in 1usize..5,
        per_thread in 1u64..40,
    ) {
        let _g = guard();
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        em_obs::counter!("prop/sum", (t + 1) as u64);
                    }
                    em_obs::gauge!("prop/peak", (t + 1) as u64);
                });
            }
        });
        let report = finish();
        let expected: u64 = (1..=threads as u64).map(|t| t * per_thread).sum();
        prop_assert_eq!(
            report.counters,
            vec![("prop/sum".to_string(), expected)]
        );
        prop_assert_eq!(
            report.gauges,
            vec![("prop/peak".to_string(), threads as u64)]
        );
    }

    // The same fan-out traced with a 1-thread budget and a 4-thread
    // budget yields identical reports up to wall-clock: context
    // propagation anchors the tasks under the submitting span, and the
    // pool counts its batch once at submission.
    #[test]
    fn pool_trace_structure_is_budget_invariant(tasks in 1usize..12) {
        let _g = guard();
        run_pool_workload(tasks, 1);
        let sequential = finish();

        em_obs::set_enabled(true);
        em_obs::reset();
        run_pool_workload(tasks, 4);
        let concurrent = finish();

        prop_assert_eq!(sequential.structure(), concurrent.structure());
        let task = sequential.span("submit/task").expect("tasks recorded");
        prop_assert_eq!(task.count, tasks as u64);
        prop_assert!(sequential.span("task").is_none(), "task escaped its context");
    }
}

/// The acceptance property of the traced experiment driver: the same
/// seeded smoke suite traced at `--jobs 1` and `--jobs 4` aggregates to
/// bitwise-identical structure (span paths and counts, counters, gauges
/// — everything except nanoseconds). Store computations anchor at the
/// root precisely so that this holds even though *which* experiment pays
/// a shared miss differs between schedules.
#[test]
fn suite_trace_structure_is_jobs_invariant() {
    let _g = guard();
    let run = |jobs: usize| {
        em_obs::set_enabled(true);
        em_obs::reset();
        let session = em_eval::EvalSession::new(em_eval::ExperimentConfig::smoke());
        for r in em_eval::run_suite(&session, jobs) {
            r.result.expect("experiment failed");
        }
        finish()
    };
    let sequential = run(1);
    let concurrent = run(4);
    assert_eq!(
        sequential.structure(),
        concurrent.structure(),
        "trace structure must not depend on --jobs"
    );
    // The trace actually covers the pipeline: experiment spans, the
    // root-anchored store/matcher computations, and the CREW stages.
    for path in [
        "suite/T1",
        "store/explain",
        "store/context",
        "matcher/train",
        "store/explain/crew/cluster",
    ] {
        assert!(
            sequential.span(path).is_some(),
            "expected span {path} in the suite trace"
        );
    }
    // CREW's own counters, model selection's reuse counters included
    // (the structure check above makes them jobs-invariant).
    for counter in [
        "crew/explanations",
        "crew/model_select/cuts",
        "crew/model_select/columns",
    ] {
        assert!(
            sequential
                .counters
                .iter()
                .any(|(name, v)| name == counter && *v > 0),
            "counter {counter} missing"
        );
    }
}

/// Turning observation on must never change what the instrumented code
/// computes: a CREW explanation produced under full tracing is bitwise
/// identical to one produced with the recorder off.
#[test]
fn enabling_obs_never_changes_explanations() {
    use em_data::{EntityPair, Record, Schema};
    use em_matchers::Matcher;
    use std::sync::Arc;

    struct AnchorMatcher;
    impl Matcher for AnchorMatcher {
        fn name(&self) -> &str {
            "anchor"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            let l = em_text::tokenize(&pair.left().full_text());
            let r = em_text::tokenize(&pair.right().full_text());
            if l.iter().any(|t| t == "anchor") && r.iter().any(|t| t == "anchor") {
                0.95
            } else {
                0.05
            }
        }
    }

    let _g = guard();
    let schema = Arc::new(Schema::new(vec!["t"]));
    let pair = EntityPair::new(
        schema,
        Record::new(0, vec!["anchor alpha beta".into()]),
        Record::new(1, vec!["anchor gamma delta".into()]),
    )
    .unwrap();
    let corpus: Vec<Vec<String>> = vec![em_text::tokenize("anchor alpha beta gamma delta anchor")];
    let embeddings = Arc::new(
        em_embed::WordEmbeddings::train(
            corpus.iter().map(|v| v.as_slice()),
            em_embed::EmbeddingOptions {
                dimensions: 8,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let crew = crew_core::Crew::new(embeddings, crew_core::CrewOptions::default());

    let explain = |enabled: bool| {
        em_obs::set_enabled(enabled);
        em_obs::reset();
        crew.explain_clusters(&AnchorMatcher, &pair).unwrap()
    };
    let traced = explain(true);
    let report = finish();
    let quiet = explain(false);

    assert!(
        report.span("crew/perturb").is_some(),
        "tracing was on, the perturbation stage must be recorded"
    );
    let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&traced.word_level.weights),
        bits(&quiet.word_level.weights)
    );
    assert_eq!(traced.selected_k, quiet.selected_k);
    assert_eq!(traced.group_r2.to_bits(), quiet.group_r2.to_bits());
    assert_eq!(traced.silhouette.to_bits(), quiet.silhouette.to_bits());
    assert_eq!(traced.clusters.len(), quiet.clusters.len());
    for (t, q) in traced.clusters.iter().zip(&quiet.clusters) {
        assert_eq!(t.member_indices, q.member_indices);
        assert_eq!(t.weight.to_bits(), q.weight.to_bits());
    }
}

/// Serving an attention matcher trains the word embeddings once: the
/// context's matcher shares the context's embeddings instead of training
/// its own from the same split, and scores every test pair, and picks
/// its threshold, bit for bit as a standalone `AttentionMatcher::fit`.
#[test]
fn serving_an_attention_matcher_trains_the_embeddings_once() {
    use em_matchers::{AttentionMatcher, AttentionOptions, Matcher};

    let _g = guard();
    let config = em_eval::ExperimentConfig {
        matcher: em_eval::MatcherKind::Attention,
        ..em_eval::ExperimentConfig::smoke()
    };
    let state = em_serve::ServeState::load(em_synth::Family::Restaurants, config).expect("load");
    let report = finish();
    let trainings = report
        .counters
        .iter()
        .find(|(name, _)| name == "embed/trainings")
        .map(|(_, v)| *v);
    assert_eq!(trainings, Some(1), "embeddings trained more than once");

    let split = &state.ctx.split;
    let standalone = AttentionMatcher::fit(
        &split.train,
        &split.validation,
        AttentionOptions {
            seed: state.ctx.seed,
            ..AttentionOptions::default()
        },
    )
    .expect("standalone fit");
    assert_eq!(
        state.matcher.threshold().to_bits(),
        standalone.threshold().to_bits()
    );
    let pairs: Vec<em_data::EntityPair> = split
        .test
        .examples()
        .iter()
        .map(|e| e.pair.clone())
        .collect();
    let bits = |m: &dyn Matcher| -> Vec<u64> {
        m.predict_proba_batch(&pairs)
            .iter()
            .map(|p| p.to_bits())
            .collect()
    };
    assert_eq!(bits(state.matcher.as_ref()), bits(&standalone));
}
