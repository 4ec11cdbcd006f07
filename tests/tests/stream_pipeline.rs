//! End-to-end `em-stream` pipeline tests: the explained matched set is
//! bitwise identical at any `--jobs` count (with the bounded stores
//! active), the previously dormant CSV record loader drives the
//! pipeline from two ER-Magellan-shaped files to explained matches, and
//! the next batch's scoring, overlapped with this batch's explanations,
//! scores every candidate batch exactly once and reports errors in the
//! order a serial loop would.

use em_data::{record_table_from_csv, EntityPair, Record, Schema};
use em_eval::{EvalContext, MatcherKind, StoreBudget};
use em_matchers::Matcher;
use em_stream::{candidates_only, run_stream, StreamError, StreamOptions, StreamOutcome};
use em_synth::{record_collections, CollectionsConfig, Family, GeneratorConfig};
use std::sync::{Arc, Mutex, OnceLock};

fn shared_ctx() -> &'static EvalContext {
    static CTX: OnceLock<EvalContext> = OnceLock::new();
    CTX.get_or_init(|| {
        EvalContext::prepare(
            Family::Restaurants,
            GeneratorConfig {
                entities: 60,
                pairs: 150,
                ..Default::default()
            },
        )
        .expect("context prepares")
    })
}

fn assert_same_artifacts(a: &StreamOutcome, b: &StreamOutcome) {
    assert_eq!(a.candidates, b.candidates, "candidate count");
    assert_eq!(a.matches, b.matches, "explained matched set");
    assert_eq!(a.entity_clusters, b.entity_clusters, "entity clusters");
}

#[test]
fn synthetic_stream_is_deterministic_across_jobs() {
    let c = record_collections(
        Family::Restaurants,
        CollectionsConfig {
            entities: 60,
            duplicate_rate: 0.5,
            extra_right: 15,
            seed: 5,
        },
    )
    .expect("collections generate");
    let ctx = shared_ctx();
    let matcher = ctx.matcher(MatcherKind::Logistic).expect("matcher trains");

    let run = |jobs: usize| {
        run_stream(
            &c.schema,
            &c.left,
            &c.right,
            matcher.as_ref(),
            ctx.embeddings.clone(),
            &StreamOptions {
                jobs,
                batch: 16,
                // Tight budget so the jobs-invariance claim is tested
                // *with eviction racing the schedule*, not only on the
                // easy unbounded path.
                store_budget: Some(StoreBudget::total(2 << 20)),
                ..Default::default()
            },
        )
        .expect("pipeline runs")
    };
    let sequential = run(1);
    assert!(
        !sequential.matches.is_empty(),
        "workload must produce matches for the invariance to mean anything"
    );
    for jobs in [2, 4] {
        assert_same_artifacts(&sequential, &run(jobs));
    }
}

const LEFT_CSV: &str = "\
id,name,addr,city,phone
0,olive garden trattoria,12 elm street,springfield,555-0101
1,golden dragon noodles,88 canal road,riverton,555-0134
2,casa miguel cantina,7 mission plaza,riverton,555-0177
3,blue harbor oysters,1 wharf lane,porthaven,555-0190
4,maple diner,340 birch avenue,springfield,555-0122
";

const RIGHT_CSV: &str = "\
id,name,addr,city,phone
100,olive garden trattoria,12 elm st,springfield,555-0101
101,golden dragon noodle house,88 canal road,riverton,555-0134
102,casa miguel,7 mission plaza suite b,riverton,555-0177
103,harborview grill,19 dock street,porthaven,555-0260
104,mapel diner,340 birch avenue,springfield,555-0122
";

#[test]
fn csv_collections_stream_deterministically() {
    let left = record_table_from_csv(LEFT_CSV).expect("left CSV loads");
    let right = record_table_from_csv(RIGHT_CSV).expect("right CSV loads");
    assert_eq!(left.attributes, right.attributes, "tables must agree");
    let schema = Arc::new(Schema::new(left.attributes.clone()));

    let ctx = shared_ctx();
    let matcher = ctx.matcher(MatcherKind::Logistic).expect("matcher trains");
    let run = |jobs: usize| {
        run_stream(
            &schema,
            &left.records,
            &right.records,
            matcher.as_ref(),
            ctx.embeddings.clone(),
            &StreamOptions {
                jobs,
                batch: 3,
                // Explain every candidate: a threshold of 0 keeps the
                // test independent of where a synthetically trained
                // matcher happens to score these hand-written rows.
                threshold: Some(0.0),
                ..Default::default()
            },
        )
        .expect("pipeline runs")
    };

    let sequential = run(1);
    // Blocking must at least pair up the verbatim-named duplicates.
    assert!(sequential.candidates >= 4, "shared tokens must block");
    assert_eq!(sequential.matches.len(), sequential.candidates);
    for m in &sequential.matches {
        assert!(!m.top_words.is_empty(), "digests carry top words");
    }
    assert_same_artifacts(&sequential, &run(4));
}

#[test]
fn lsh_blocked_stream_is_deterministic_across_jobs() {
    let c = record_collections(
        Family::Restaurants,
        CollectionsConfig {
            entities: 40,
            duplicate_rate: 0.5,
            extra_right: 10,
            seed: 11,
        },
    )
    .expect("collections generate");
    let ctx = shared_ctx();
    let matcher = ctx.matcher(MatcherKind::Logistic).expect("matcher trains");

    let run = |jobs: usize| {
        run_stream(
            &c.schema,
            &c.left,
            &c.right,
            matcher.as_ref(),
            ctx.embeddings.clone(),
            &StreamOptions {
                jobs,
                batch: 16,
                blocking: em_stream::BlockingConfig {
                    lsh: Some(em_stream::LshBlocking::default()),
                    ..Default::default()
                },
                store_budget: Some(StoreBudget::total(2 << 20)),
                ..Default::default()
            },
        )
        .expect("pipeline runs")
    };
    let sequential = run(1);
    assert!(!sequential.matches.is_empty(), "workload produces matches");
    for jobs in [2, 4] {
        assert_same_artifacts(&sequential, &run(jobs));
    }
}

/// Delegates to `inner` and logs the `(left id, right id)` list of every
/// call it receives, in call order.
struct CallLog {
    inner: Arc<dyn Matcher>,
    calls: Mutex<Vec<Vec<(u64, u64)>>>,
}

impl CallLog {
    fn new(inner: Arc<dyn Matcher>) -> Self {
        CallLog {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Calls over more than one source pair: candidate batches. CREW's
    /// perturbation calls rebuild a single pair, so their ids all agree.
    fn candidate_batches(&self) -> Vec<Vec<(u64, u64)>> {
        self.calls
            .lock()
            .unwrap()
            .iter()
            .filter(|ids| ids.windows(2).any(|w| w[0] != w[1]))
            .cloned()
            .collect()
    }
}

impl Matcher for CallLog {
    fn name(&self) -> &str {
        "call-log"
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        self.predict_proba_batch(std::slice::from_ref(pair))[0]
    }

    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        let ids = pairs.iter().map(|p| (p.left().id, p.right().id)).collect();
        self.calls.lock().unwrap().push(ids);
        self.inner.predict_proba_batch(pairs)
    }

    fn threshold(&self) -> f64 {
        self.inner.threshold()
    }
}

#[test]
fn every_candidate_batch_is_scored_exactly_once() {
    let c = record_collections(
        Family::Restaurants,
        CollectionsConfig {
            entities: 40,
            duplicate_rate: 0.5,
            extra_right: 10,
            seed: 11,
        },
    )
    .expect("collections generate");
    let ctx = shared_ctx();
    let trained = ctx.matcher(MatcherKind::Logistic).expect("matcher trains");
    let options = StreamOptions::default();
    let candidates: Vec<(u64, u64)> = candidates_only(&c.left, &c.right, &options.blocking)
        .pairs
        .iter()
        .map(|&(i, j)| (c.left[i as usize].id, c.right[j as usize].id))
        .collect();
    // A final partial batch of at least two pairs, so it is told apart
    // from single-pair calls.
    let batch = (8..24)
        .find(|b| candidates.len() % b >= 2)
        .expect("some batch size leaves a partial batch");
    let want: Vec<Vec<(u64, u64)>> = candidates.chunks(batch).map(<[_]>::to_vec).collect();
    assert!(want.len() >= 3, "several batches overlap their scoring");

    let mut outcomes = Vec::new();
    for jobs in [1, 2] {
        let log = CallLog::new(Arc::clone(&trained));
        let outcome = run_stream(
            &c.schema,
            &c.left,
            &c.right,
            &log,
            ctx.embeddings.clone(),
            &StreamOptions {
                jobs,
                batch,
                ..options.clone()
            },
        )
        .expect("pipeline runs");
        assert!(!outcome.matches.is_empty(), "explains overlap the scoring");
        // No two explained pairs share content, so no store lookup can
        // hit or coalesce, and even the schedule-dependent store counters
        // must agree: the whole outcome is compared below.
        assert_eq!(outcome.perturb_stats.hits + outcome.explain_stats.hits, 0);
        assert_eq!(
            log.candidate_batches(),
            want,
            "jobs={jobs}: one call per candidate batch, in candidate order"
        );
        outcomes.push(format!("{outcome:?}"));
    }
    assert_eq!(outcomes[0], outcomes[1], "StreamOutcome differs by jobs");
}

#[test]
fn empty_candidate_stream_makes_no_match_call() {
    let schema = Arc::new(Schema::new(vec!["name"]));
    let left = vec![Record::new(0, vec!["olive garden".into()])];
    let right = vec![Record::new(1, vec!["harborview grill".into()])];
    let ctx = shared_ctx();
    let log = CallLog::new(ctx.matcher(MatcherKind::Logistic).expect("matcher trains"));
    for jobs in [1, 2] {
        let outcome = run_stream(
            &schema,
            &left,
            &right,
            &log,
            ctx.embeddings.clone(),
            &StreamOptions {
                jobs,
                ..Default::default()
            },
        )
        .expect("pipeline runs");
        assert_eq!(outcome.candidates, 0);
        assert!(outcome.matches.is_empty());
    }
    assert!(log.calls.lock().unwrap().is_empty(), "no batch, no call");
}

/// 1.0 on pairs whose left name keeps all three of its words, NaN once a
/// perturbation drops one: candidate pairs match, and explaining them
/// fails with a non-finite model output.
struct NanWhenPerturbed;

impl Matcher for NanWhenPerturbed {
    fn name(&self) -> &str {
        "nan-when-perturbed"
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        if em_text::token_count(pair.left().value(0)) == 3 {
            1.0
        } else {
            f64::NAN
        }
    }
}

/// Always 0.25.
struct Quarter;

impl Matcher for Quarter {
    fn name(&self) -> &str {
        "quarter"
    }

    fn predict_proba(&self, _pair: &EntityPair) -> f64 {
        0.25
    }
}

#[test]
fn build_errors_follow_the_previous_batch_explain_errors() {
    let schema = Arc::new(Schema::new(vec!["name", "city"]));
    // Left record 1 lacks its city, so the second batch of two candidates
    // ((1, 0) and (1, 1)) cannot be materialized.
    let left = vec![
        Record::new(
            0,
            vec!["olive garden trattoria".into(), "springfield".into()],
        ),
        Record::new(1, vec!["olive garden bistro".into()]),
    ];
    let right = vec![
        Record::new(
            2,
            vec!["olive garden trattoria".into(), "springfield".into()],
        ),
        Record::new(3, vec!["olive garden cafe".into(), "riverton".into()]),
    ];
    let embeddings = shared_ctx().embeddings.clone();
    let run = |matcher: &dyn Matcher, jobs: usize| {
        run_stream(
            &schema,
            &left,
            &right,
            matcher,
            embeddings.clone(),
            &StreamOptions {
                jobs,
                batch: 2,
                threshold: Some(0.5),
                ..Default::default()
            },
        )
    };
    for jobs in [1, 2] {
        // The first batch matches and fails to explain while the second
        // is being built: the explain error wins, as in a serial loop.
        match run(&NanWhenPerturbed, jobs) {
            Err(StreamError::Explain(e)) => assert!(
                matches!(e, crew_core::ExplainError::NonFiniteModelOutput { .. }),
                "jobs={jobs}: {e}"
            ),
            other => panic!("jobs={jobs}: want the explain error, got {other:?}"),
        }
        // Nothing matches, so the build error is the first error.
        match run(&Quarter, jobs) {
            Err(StreamError::Data(_)) => {}
            other => panic!("jobs={jobs}: want the data error, got {other:?}"),
        }
    }
}
