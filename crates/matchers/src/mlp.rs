//! Two-hidden-layer MLP matcher with hand-rolled backprop and Adam.
//!
//! Architecturally this is the "feature-level deep" matcher: same inputs as
//! the logistic model, non-linear decision surface. Its role in the
//! reproduction is to be a second, less linear black box for the explainers.

use crate::features::{BatchScratch, FeatureExtractor};
use crate::logistic::TrainOptions;
use crate::matcher::{best_f1_threshold, confusion_report, Matcher};
use crate::scratch::ScratchPool;
use em_data::{Dataset, EntityPair};
use em_linalg::stats::sigmoid;
use em_rngs::rngs::StdRng;
use em_rngs::seq::SliceRandom;
use em_rngs::{Rng, SeedableRng};

/// Dense layer parameters.
#[derive(Debug, Clone)]
struct Layer {
    /// Row-major `(out, in)` weight matrix.
    w: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        // Xavier-uniform init.
        let limit = (6.0 / (n_in + n_out) as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Layer {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            out.push(em_linalg::dot(row, x) + self.b[o]);
        }
    }
}

fn relu(v: &mut [f64]) {
    for x in v {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
}

/// Adam state for one parameter vector.
#[derive(Debug, Clone)]
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    fn new(n: usize) -> Self {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// A trained MLP matcher (features → 2×ReLU hidden → sigmoid).
pub struct MlpMatcher {
    extractor: FeatureExtractor,
    l1: Layer,
    l2: Layer,
    l3: Layer,
    threshold: f64,
    /// Reusable extraction scratch for `predict_proba_batch`. Purely an
    /// allocation cache (cleared per call), so contended callers can fall
    /// back to a fresh local scratch with identical results.
    scratch: ScratchPool<BatchScratch>,
}

/// Hidden layer widths.
const H1: usize = 32;
const H2: usize = 16;

impl MlpMatcher {
    /// Train with Adam + early stopping on validation F1.
    pub fn fit(
        train: &Dataset,
        validation: &Dataset,
        opts: TrainOptions,
    ) -> Result<Self, crate::MatcherError> {
        if train.is_empty() {
            return Err(crate::MatcherError::EmptyTrainingSet);
        }
        let extractor = FeatureExtractor::fit(train);
        let (x, y) = extractor.extract_dataset(train);
        let p = x.cols();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut l1 = Layer::new(p, H1, &mut rng);
        let mut l2 = Layer::new(H1, H2, &mut rng);
        let mut l3 = Layer::new(H2, 1, &mut rng);
        let mut adam = (
            Adam::new(l1.w.len() + l1.b.len()),
            Adam::new(l2.w.len() + l2.b.len()),
            Adam::new(l3.w.len() + l3.b.len()),
        );
        let lr = (opts.learning_rate * 0.01).max(1e-4); // Adam needs a small LR
        let (val_x, val_y) = extractor.extract_dataset(validation);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut best: (f64, Layer, Layer, Layer) =
            (f64::NEG_INFINITY, l1.clone(), l2.clone(), l3.clone());
        let mut stale = 0usize;

        // Reusable activation buffers.
        let mut act = Activations::default();

        for _epoch in 0..opts.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(opts.batch_size.max(1)) {
                let mut g1 = vec![0.0; l1.w.len() + l1.b.len()];
                let mut g2 = vec![0.0; l2.w.len() + l2.b.len()];
                let mut g3 = vec![0.0; l3.w.len() + l3.b.len()];
                for &i in batch {
                    let input = x.row(i);
                    let pred = forward(&l1, &l2, &l3, input, &mut act);
                    let (a1, a2) = (&act.a1, &act.a2);
                    let weight = if y[i] > 0.5 {
                        opts.positive_weight
                    } else {
                        1.0
                    };
                    // dL/dz3 for BCE+sigmoid.
                    let dz3 = weight * (pred - y[i]);

                    // Layer 3 grads.
                    for j in 0..H2 {
                        g3[j] += dz3 * a2[j];
                    }
                    g3[l3.w.len()] += dz3;

                    // Backprop into layer 2.
                    let mut dz2 = [0.0; H2];
                    for j in 0..H2 {
                        if a2[j] > 0.0 {
                            dz2[j] = dz3 * l3.w[j];
                        }
                    }
                    for o in 0..H2 {
                        if dz2[o] == 0.0 {
                            continue;
                        }
                        for k in 0..H1 {
                            g2[o * H1 + k] += dz2[o] * a1[k];
                        }
                        g2[l2.w.len() + o] += dz2[o];
                    }

                    // Backprop into layer 1.
                    let mut dz1 = vec![0.0; H1];
                    for k in 0..H1 {
                        if a1[k] <= 0.0 {
                            continue;
                        }
                        let mut acc = 0.0;
                        for o in 0..H2 {
                            acc += dz2[o] * l2.w[o * H1 + k];
                        }
                        dz1[k] = acc;
                    }
                    for o in 0..H1 {
                        if dz1[o] == 0.0 {
                            continue;
                        }
                        for k in 0..p {
                            g1[o * p + k] += dz1[o] * input[k];
                        }
                        g1[l1.w.len() + o] += dz1[o];
                    }
                }
                let scale = 1.0 / batch.len() as f64;
                for g in g1.iter_mut().chain(&mut g2).chain(&mut g3) {
                    *g *= scale;
                }
                step_layer(&mut l1, &mut adam.0, &g1, lr, opts.l2);
                step_layer(&mut l2, &mut adam.1, &g2, lr, opts.l2);
                step_layer(&mut l3, &mut adam.2, &g3, lr, opts.l2);
            }

            let (ex, ey) = if val_x.rows() > 0 {
                (&val_x, &val_y)
            } else {
                (&x, &y)
            };
            let f1 = f1_of(&l1, &l2, &l3, ex, ey);
            if f1 > best.0 + 1e-9 {
                best = (f1, l1.clone(), l2.clone(), l3.clone());
                stale = 0;
            } else {
                stale += 1;
                if stale > opts.patience {
                    break;
                }
            }
        }
        let (_, l1, l2, l3) = best;

        let (cal_x, cal_y) = if val_x.rows() > 0 {
            (&val_x, &val_y)
        } else {
            (&x, &y)
        };
        let scores: Vec<f64> = (0..cal_x.rows())
            .map(|i| forward(&l1, &l2, &l3, cal_x.row(i), &mut act))
            .collect();
        let labels: Vec<bool> = cal_y.iter().map(|&v| v > 0.5).collect();
        let threshold = best_f1_threshold(&scores, &labels);

        Ok(MlpMatcher {
            extractor,
            l1,
            l2,
            l3,
            threshold,
            scratch: ScratchPool::new(),
        })
    }

    fn batch_with_scratch(&self, pairs: &[EntityPair], scratch: &mut BatchScratch) -> Vec<f64> {
        self.extractor
            .extract_batch_into(pairs, &mut scratch.extract, &mut scratch.features);
        let mut act = Activations::default();
        scratch
            .features
            .chunks_exact(self.extractor.dimensions())
            .map(|row| forward(&self.l1, &self.l2, &self.l3, row, &mut act))
            .collect()
    }
}

fn step_layer(layer: &mut Layer, adam: &mut Adam, grads: &[f64], lr: f64, l2_penalty: f64) {
    let nw = layer.w.len();
    // Weight decay on weights only (not biases).
    let mut g = grads.to_vec();
    for i in 0..nw {
        g[i] += l2_penalty * layer.w[i];
    }
    let mut params: Vec<f64> = layer.w.iter().chain(&layer.b).copied().collect();
    adam.step(&mut params, &g, lr);
    layer.w.copy_from_slice(&params[..nw]);
    layer.b.copy_from_slice(&params[nw..]);
}

/// Per-layer activations of one forward pass: reused across rows, and
/// read back by training's backprop.
#[derive(Debug, Default)]
struct Activations {
    a1: Vec<f64>,
    a2: Vec<f64>,
    a3: Vec<f64>,
}

/// Features → ReLU → ReLU → sigmoid, one row at a time. Training,
/// threshold calibration and inference all score rows through it.
fn forward(l1: &Layer, l2: &Layer, l3: &Layer, input: &[f64], act: &mut Activations) -> f64 {
    l1.forward(input, &mut act.a1);
    relu(&mut act.a1);
    l2.forward(&act.a1, &mut act.a2);
    relu(&mut act.a2);
    l3.forward(&act.a2, &mut act.a3);
    sigmoid(act.a3[0])
}

fn f1_of(l1: &Layer, l2: &Layer, l3: &Layer, x: &em_linalg::Matrix, y: &[f64]) -> f64 {
    let mut act = Activations::default();
    confusion_report(
        (0..x.rows()).map(|i| (forward(l1, l2, l3, x.row(i), &mut act) >= 0.5, y[i] > 0.5)),
    )
    .f1
}

impl Matcher for MlpMatcher {
    fn name(&self) -> &str {
        "mlp"
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        self.predict_proba_batch(std::slice::from_ref(pair))[0]
    }

    /// One interned feature-extraction pass into a reused row-major
    /// buffer, then a batched forward reusing the activation buffers
    /// across rows.
    ///
    /// Deliberately NOT `Matrix::matmul`: its zero-skip optimisation can
    /// flip a `-0.0` accumulator to `+0.0` relative to the dot-product
    /// path (and ReLU produces exact zeros). The per-row `forward` is the
    /// one training runs on every row (early stopping, threshold
    /// calibration), so served scores keep the bits training saw and the
    /// pinned output digests keep theirs.
    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        let mut s = self.scratch.take();
        let out = self.batch_with_scratch(pairs, &mut s);
        self.scratch.put(s);
        out
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::evaluate;
    use em_synth::{generate, Family, GeneratorConfig};

    fn splits(seed: u64) -> (Dataset, Dataset, Dataset) {
        let cfg = GeneratorConfig {
            entities: 120,
            pairs: 400,
            match_rate: 0.25,
            hard_negative_rate: 0.5,
            seed,
        };
        let d = generate(Family::Songs, cfg).unwrap();
        let s = d.split(0.7, 0.15, seed).unwrap();
        (s.train, s.validation, s.test)
    }

    #[test]
    fn mlp_learns_to_match() {
        let (train, val, test) = splits(11);
        let m = MlpMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        let r = evaluate(&m, &test);
        assert!(r.f1 > 0.75, "MLP F1 too low: {r:?}");
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (train, val, test) = splits(12);
        let m = MlpMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        for ex in test.examples().iter().take(20) {
            let p = m.predict_proba(&ex.pair);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    /// `predict_proba` is a batch of one, so this pins that a pair's
    /// probability does not depend on the rest of its batch.
    #[test]
    fn batch_prediction_matches_batch_of_one_bitwise() {
        let (train, val, test) = splits(12);
        let m = MlpMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        let pairs: Vec<em_data::EntityPair> = test
            .examples()
            .iter()
            .take(20)
            .map(|ex| ex.pair.clone())
            .collect();
        let batch = m.predict_proba_batch(&pairs);
        for (p, pair) in batch.iter().zip(&pairs) {
            assert_eq!(p.to_bits(), m.predict_proba(pair).to_bits());
        }
    }

    #[test]
    fn deterministic_training() {
        let (train, val, test) = splits(13);
        let a = MlpMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        let b = MlpMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        for ex in test.examples().iter().take(10) {
            assert_eq!(a.predict_proba(&ex.pair), b.predict_proba(&ex.pair));
        }
    }

    #[test]
    fn empty_train_is_error() {
        let (train, val, _) = splits(14);
        assert!(MlpMatcher::fit(&train.sample(0, 0), &val, TrainOptions::default()).is_err());
    }

    #[test]
    fn adam_reduces_simple_loss() {
        // Sanity check the optimizer on a 1-parameter quadratic.
        let mut adam = Adam::new(1);
        let mut p = vec![5.0];
        for _ in 0..2000 {
            let g = vec![2.0 * p[0]]; // d/dp p^2
            adam.step(&mut p, &g, 0.01);
        }
        assert!(p[0].abs() < 0.1, "Adam failed to minimise: {}", p[0]);
    }
}
