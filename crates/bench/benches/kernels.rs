//! Microbenchmarks of the perturbation-query hot path kernels: cell
//! tokenization (string vs arena-interned), batched feature extraction,
//! the bit-parallel string similarities (Levenshtein over cell pairs,
//! Jaro-Winkler over token pairs), the unrolled dense kernels
//! (`matvec`/`cosine`), the semantic
//! distance-matrix build, and one end-to-end single-pair CREW
//! explanation on the logistic matcher — the acceptance row for the
//! "explain one pair in under a millisecond" target — split into its
//! perturbation set, its query-free tail and the tail's model selection.

use crew_core::{
    combined_distances_with, fit_word_surrogate, Crew, CrewOptions, Explainer, GroupSweep,
    PerturbOptions, PerturbationSet,
};
use em_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use em_embed::{EmbeddingOptions, WordEmbeddings};
use em_linalg::Matrix;
use em_matchers::{ExtractScratch, FeatureExtractor, LogisticMatcher, TrainOptions};
use em_text::TokenArena;
use std::sync::Arc;

/// The standard synthetic splits every experiment trains on.
fn splits() -> (em_data::Dataset, em_data::Dataset, em_data::Dataset) {
    let d = em_synth::generate(
        em_synth::Family::Restaurants,
        em_synth::GeneratorConfig::default(),
    )
    .expect("standard synthetic dataset");
    let s = d.split(0.7, 0.15, 7).expect("split");
    (s.train, s.validation, s.test)
}

/// Distinct cell values of a dataset split (the tokenizer's real input
/// distribution, duplicates removed so the string path can't coast on
/// its own per-call caches).
fn cells_of(data: &em_data::Dataset) -> Vec<String> {
    let mut cells: Vec<String> = Vec::new();
    for ex in data.examples() {
        for rec in [ex.pair.left(), ex.pair.right()] {
            for i in 0..rec.len() {
                cells.push(rec.value(i).to_string());
            }
        }
    }
    cells.sort();
    cells.dedup();
    cells
}

fn bench_tokenize(c: &mut Criterion) {
    let (train, _, _) = splits();
    let cells = cells_of(&train);
    let mut group = c.benchmark_group("tokenize");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("string"), &cells, |b, cells| {
        b.iter(|| {
            let mut n = 0usize;
            for cell in cells {
                n += em_text::tokenize(cell).len();
            }
            n
        });
    });
    // Cold: cleared per iteration, so every cell is first-sight interned
    // (tokens + sorted set + gram set — strictly more work than the
    // string path's token list).
    group.bench_with_input(
        BenchmarkId::from_parameter("arena_cold"),
        &cells,
        |b, cells| {
            let mut arena = TokenArena::new();
            b.iter(|| {
                arena.clear();
                let mut n = 0usize;
                for cell in cells {
                    let id = arena.intern_cell(cell);
                    n += arena.tokens(id).len();
                }
                n
            });
        },
    );
    // Hot: every cell already interned — the perturbation-query pattern,
    // where masked variants recycle a tiny set of cell values.
    group.bench_with_input(
        BenchmarkId::from_parameter("arena_hot"),
        &cells,
        |b, cells| {
            let mut arena = TokenArena::new();
            for cell in cells {
                arena.intern_cell(cell);
            }
            b.iter(|| {
                let mut n = 0usize;
                for cell in cells {
                    let id = arena.intern_cell(cell);
                    n += arena.tokens(id).len();
                }
                n
            });
        },
    );
    group.finish();
}

fn bench_extract_batch(c: &mut Criterion) {
    let (train, _, test) = splits();
    let fe = FeatureExtractor::fit(&train);
    let pairs: Vec<em_data::EntityPair> = test
        .examples()
        .iter()
        .take(64)
        .map(|ex| ex.pair.clone())
        .collect();
    let mut group = c.benchmark_group("extract_batch");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("fresh_scratch"),
        &pairs,
        |b, pairs| {
            b.iter(|| fe.extract_batch(pairs));
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("reused_scratch"),
        &pairs,
        |b, pairs| {
            let mut scratch = ExtractScratch::new();
            let mut buf = Vec::new();
            b.iter(|| {
                fe.extract_batch_into(pairs, &mut scratch, &mut buf);
                buf.len()
            });
        },
    );
    group.finish();
}

/// Every `(left cell, right cell)` of every attribute of a split's
/// pairs, in both argument orders: the inputs of the extractor's
/// numeric-or-Levenshtein feature.
fn cell_pairs_of(data: &em_data::Dataset) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for ex in data.examples() {
        let (l, r) = (ex.pair.left(), ex.pair.right());
        for i in 0..l.len().min(r.len()) {
            let (a, b) = (l.value(i).to_string(), r.value(i).to_string());
            out.push((b.clone(), a.clone()));
            out.push((a, b));
        }
    }
    out
}

/// The similarity kernels behind every cell-pair feature miss, over
/// every Restaurants split (9,600 cell pairs, 44,974 token pairs), sized
/// so that the old kernels read above the kernels gate's 1 ms floor.
/// Only the Levenshtein row reliably fails the gate's 3× bound when its
/// kernel returns to the DP. The `Vec`-based Jaro is not slow enough to
/// do so on the Jaro-Winkler row, which therefore guards Jaro's speed
/// only weakly; the oracle property tests in `em_text::similarity` guard
/// its bits.
fn bench_similarity(c: &mut Criterion) {
    let (train, val, test) = splits();
    let cells: Vec<(String, String)> = [train, val, test].iter().flat_map(cell_pairs_of).collect();
    // The cells' tokens: Monge-Elkan scores every token of one cell
    // against every token of the other.
    let tokens: Vec<(Vec<String>, Vec<String>)> = cells
        .iter()
        .map(|(l, r)| (em_text::tokenize(l), em_text::tokenize(r)))
        .collect();
    let mut group = c.benchmark_group("similarity");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("levenshtein/cells"),
        &cells,
        |b, cells| {
            b.iter(|| {
                cells
                    .iter()
                    .map(|(l, r)| em_text::levenshtein(l, r))
                    .sum::<usize>()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("jaro_winkler/tokens"),
        &tokens,
        |b, tokens| {
            b.iter(|| {
                let mut sum = 0.0;
                for (lt, rt) in tokens {
                    for x in lt {
                        for y in rt {
                            sum += em_text::jaro_winkler(x, y);
                        }
                    }
                }
                sum
            });
        },
    );
    group.finish();
}

fn bench_dense_kernels(c: &mut Criterion) {
    use em_rngs::{Rng, SeedableRng};
    let mut rng = em_rngs::rngs::StdRng::seed_from_u64(0xbe9c);
    let m = Matrix::from_fn(256, 128, |_, _| rng.gen_range(-1.0..1.0));
    let v: Vec<f64> = (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let w: Vec<f64> = (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect();

    let mut group = c.benchmark_group("matvec");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("256x128"), &m, |b, m| {
        let mut out = Vec::new();
        b.iter(|| {
            m.matvec_into(&v, &mut out);
            out[0]
        });
    });
    group.finish();

    let mut group = c.benchmark_group("cosine");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("d128"), &v, |b, v| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..256 {
                acc += em_linalg::cosine(v, &w);
            }
            acc
        });
    });
    group.finish();
}

fn bench_distance_matrix(c: &mut Criterion) {
    let (train, _, _) = splits();
    // A realistic explained-pair word list: every word of eight records,
    // duplicates kept (the interner inside the kernel must earn its keep).
    let mut words: Vec<String> = Vec::new();
    for ex in train.examples().iter().take(4) {
        for rec in [ex.pair.left(), ex.pair.right()] {
            words.extend(em_text::tokenize(&rec.full_text()));
        }
    }
    let sentences: Vec<Vec<String>> = train
        .examples()
        .iter()
        .take(40)
        .flat_map(|ex| {
            [
                em_text::tokenize(&ex.pair.left().full_text()),
                em_text::tokenize(&ex.pair.right().full_text()),
            ]
        })
        .collect();
    let emb = WordEmbeddings::train(
        sentences.iter().map(|v| v.as_slice()),
        EmbeddingOptions {
            dimensions: 32,
            ..Default::default()
        },
    )
    .unwrap();
    let mut group = c.benchmark_group("distance_matrix");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{}w", words.len())),
        &words,
        |b, words| {
            b.iter(|| em_embed::semantic_distance_matrix(&emb, words));
        },
    );
    group.finish();
}

fn bench_explain_single(c: &mut Criterion) {
    let (train, val, test) = splits();
    let matcher = LogisticMatcher::fit(&train, &val, TrainOptions::default()).expect("fit");
    let pair = test.examples()[0].pair.clone();
    let sentences: Vec<Vec<String>> = vec![
        em_text::tokenize(&pair.left().full_text()),
        em_text::tokenize(&pair.right().full_text()),
    ];
    let emb = Arc::new(
        WordEmbeddings::train(
            sentences.iter().map(|v| v.as_slice()),
            EmbeddingOptions {
                dimensions: 32,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let crew = Crew::new(
        Arc::clone(&emb),
        CrewOptions {
            perturb: PerturbOptions {
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut group = c.benchmark_group("explain_single");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("logistic"), &pair, |b, pair| {
        b.iter(|| crew.explain(&matcher, pair).unwrap());
    });
    // Stage attribution: the matcher-query stage vs the query-free tail
    // (surrogates, knowledge distances, clustering, model selection).
    let tokenized = em_data::TokenizedPair::new(pair.clone());
    group.bench_with_input(
        BenchmarkId::from_parameter("perturb_set"),
        &tokenized,
        |b, tp| {
            b.iter(|| crew.perturbation_set(&matcher, tp).unwrap());
        },
    );
    let set = crew.perturbation_set(&matcher, &tokenized).unwrap();
    group.bench_with_input(
        BenchmarkId::from_parameter("cluster_tail"),
        &tokenized,
        |b, tp| {
            b.iter(|| crew.explain_clusters_with_set(tp, &set).unwrap());
        },
    );
    // Model selection alone: one group-surrogate sweep over the cuts the
    // tail scores, from the same set.
    let cuts = model_select_cuts(&crew, &emb, &tokenized, &set);
    let surrogate = crew.options().surrogate;
    group.bench_with_input(
        BenchmarkId::from_parameter("model_select"),
        &cuts,
        |b, cuts| {
            b.iter(|| {
                let mut sweep = GroupSweep::new(&set, &surrogate);
                cuts.iter()
                    .map(|groups| sweep.fit(groups).unwrap().r_squared)
                    .sum::<f64>()
            });
        },
    );
    group.finish();
}

/// The groups of every candidate partition model selection scores for
/// `set`, in ascending K: the tail's own steps up to `crew/model_select`.
fn model_select_cuts(
    crew: &Crew,
    embeddings: &WordEmbeddings,
    tokenized: &em_data::TokenizedPair,
    set: &PerturbationSet,
) -> Vec<Vec<Vec<usize>>> {
    let o = crew.options();
    let word_fit = fit_word_surrogate(set, &o.surrogate).expect("word fit");
    let distances = combined_distances_with(
        tokenized,
        embeddings,
        &word_fit.weights,
        o.knowledge,
        &o.semantic,
    )
    .expect("distances");
    crew.candidate_partitions(&distances, &word_fit.weights, tokenized.len())
        .expect("partitions")
        .iter()
        .map(|(_, labels, _)| em_cluster::groups_from_labels(labels))
        .collect()
}

criterion_group!(
    benches,
    bench_tokenize,
    bench_extract_batch,
    bench_similarity,
    bench_dense_kernels,
    bench_distance_matrix,
    bench_explain_single,
);
criterion_main!(benches);
