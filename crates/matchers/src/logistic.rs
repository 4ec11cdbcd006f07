//! Logistic-regression matcher over the Magellan-style feature table.

use crate::features::{BatchScratch, FeatureExtractor};
use crate::matcher::{best_f1_threshold, confusion_report, Matcher};
use crate::scratch::ScratchPool;
use em_data::{Dataset, EntityPair};
use em_linalg::stats::sigmoid;
use em_rngs::rngs::StdRng;
use em_rngs::seq::SliceRandom;
use em_rngs::SeedableRng;

/// Training hyper-parameters shared by the gradient-trained matchers.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    pub epochs: usize,
    pub learning_rate: f64,
    pub l2: f64,
    pub batch_size: usize,
    pub seed: u64,
    /// Stop if validation F1 has not improved for this many epochs.
    pub patience: usize,
    /// Weight applied to positive examples in the loss (class imbalance).
    pub positive_weight: f64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 120,
            learning_rate: 0.3,
            l2: 1e-4,
            batch_size: 32,
            seed: 13,
            patience: 15,
            positive_weight: 2.0,
        }
    }
}

/// A trained logistic-regression matcher.
pub struct LogisticMatcher {
    extractor: FeatureExtractor,
    weights: Vec<f64>,
    bias: f64,
    threshold: f64,
    /// Reusable extraction scratch for `predict_proba_batch`. Purely an
    /// allocation cache (cleared per call), so contended callers can fall
    /// back to a fresh local scratch with identical results.
    scratch: ScratchPool<BatchScratch>,
}

impl LogisticMatcher {
    /// Train on `train`, calibrating the decision threshold on `validation`.
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
        let n = x.rows();
        let p = x.cols();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut w = vec![0.0; p];
        let mut b = 0.0;
        let mut vel_w = vec![0.0; p];
        let mut vel_b = 0.0;
        let momentum = 0.9;
        let mut order: Vec<usize> = (0..n).collect();

        let (val_x, val_y) = extractor.extract_dataset(validation);
        let mut best = (f64::NEG_INFINITY, w.clone(), b);
        let mut stale = 0usize;

        for _epoch in 0..opts.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(opts.batch_size.max(1)) {
                let mut grad_w = vec![0.0; p];
                let mut grad_b = 0.0;
                for &i in batch {
                    let row = x.row(i);
                    let z = em_linalg::dot(&w, row) + b;
                    let pred = sigmoid(z);
                    let weight = if y[i] > 0.5 {
                        opts.positive_weight
                    } else {
                        1.0
                    };
                    let err = weight * (pred - y[i]);
                    for (g, &xi) in grad_w.iter_mut().zip(row) {
                        *g += err * xi;
                    }
                    grad_b += err;
                }
                let scale = 1.0 / batch.len() as f64;
                for j in 0..p {
                    let g = grad_w[j] * scale + opts.l2 * w[j];
                    vel_w[j] = momentum * vel_w[j] - opts.learning_rate * g;
                    w[j] += vel_w[j];
                }
                vel_b = momentum * vel_b - opts.learning_rate * grad_b * scale;
                b += vel_b;
            }
            // Early stopping on validation F1 (falls back to train if the
            // validation set is empty).
            let (ex, ey) = if val_x.rows() > 0 {
                (&val_x, &val_y)
            } else {
                (&x, &y)
            };
            let f1 = f1_of_linear(&w, b, ex, ey);
            if f1 > best.0 + 1e-9 {
                best = (f1, w.clone(), b);
                stale = 0;
            } else {
                stale += 1;
                if stale > opts.patience {
                    break;
                }
            }
        }
        let (_, w, b) = best;

        // Calibrate the threshold on validation scores.
        let (cal_x, cal_y) = if val_x.rows() > 0 {
            (&val_x, &val_y)
        } else {
            (&x, &y)
        };
        let scores: Vec<f64> = (0..cal_x.rows())
            .map(|i| sigmoid(em_linalg::dot(&w, cal_x.row(i)) + b))
            .collect();
        let labels: Vec<bool> = cal_y.iter().map(|&v| v > 0.5).collect();
        let threshold = best_f1_threshold(&scores, &labels);

        Ok(LogisticMatcher {
            extractor,
            weights: w,
            bias: b,
            threshold,
            scratch: ScratchPool::new(),
        })
    }

    /// Learned feature weights (useful for sanity checks / docs).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn batch_with_scratch(&self, pairs: &[EntityPair], scratch: &mut BatchScratch) -> Vec<f64> {
        self.extractor
            .extract_batch_into(pairs, &mut scratch.extract, &mut scratch.features);
        scratch
            .features
            .chunks_exact(self.extractor.dimensions())
            .map(|row| sigmoid(em_linalg::dot(&self.weights, row) + self.bias))
            .collect()
    }
}

fn f1_of_linear(w: &[f64], b: f64, x: &em_linalg::Matrix, y: &[f64]) -> f64 {
    confusion_report(
        (0..x.rows()).map(|i| (sigmoid(em_linalg::dot(w, x.row(i)) + b) >= 0.5, y[i] > 0.5)),
    )
    .f1
}

impl Matcher for LogisticMatcher {
    fn name(&self) -> &str {
        "logistic"
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        self.predict_proba_batch(std::slice::from_ref(pair))[0]
    }

    /// One interned feature-extraction pass into a reused row-major
    /// buffer, then `sigmoid(dot(weights, row) + bias)` per row — the
    /// kernel training scores its rows with. The scratch only caches
    /// allocations, so which pooled scratch a call draws changes no
    /// value.
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
        let d = generate(Family::Restaurants, cfg).unwrap();
        let s = d.split(0.7, 0.15, seed).unwrap();
        (s.train, s.validation, s.test)
    }

    #[test]
    fn logistic_learns_to_match() {
        let (train, val, test) = splits(5);
        let m = LogisticMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        let r = evaluate(&m, &test);
        assert!(r.f1 > 0.8, "logistic F1 too low: {:?}", r);
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (train, val, test) = splits(6);
        let m = LogisticMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        for ex in test.examples().iter().take(30) {
            let p = m.predict_proba(&ex.pair);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    /// `predict_proba` is a batch of one, so this pins that a pair's
    /// probability does not depend on the rest of its batch.
    #[test]
    fn batch_prediction_matches_batch_of_one_bitwise() {
        let (train, val, test) = splits(6);
        let m = LogisticMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        let pairs: Vec<em_data::EntityPair> = test
            .examples()
            .iter()
            .take(40)
            .map(|ex| ex.pair.clone())
            .collect();
        let batch = m.predict_proba_batch(&pairs);
        for (p, pair) in batch.iter().zip(&pairs) {
            assert_eq!(p.to_bits(), m.predict_proba(pair).to_bits());
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (train, val, _) = splits(7);
        let a = LogisticMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        let b = LogisticMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.threshold(), b.threshold());
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let (train, val, _) = splits(8);
        let empty = train.sample(0, 0);
        // sample(0) returns empty dataset
        assert_eq!(empty.len(), 0);
        assert!(LogisticMatcher::fit(&empty, &val, TrainOptions::default()).is_err());
    }

    #[test]
    fn dropping_evidence_lowers_score() {
        let (train, val, test) = splits(9);
        let m = LogisticMatcher::fit(&train, &val, TrainOptions::default()).unwrap();
        // Take a confident match and blank one side's name attribute.
        let ex = test
            .examples()
            .iter()
            .find(|e| e.label.is_match() && m.predict_proba(&e.pair) > 0.7)
            .expect("need a confident match");
        let before = m.predict_proba(&ex.pair);
        let mut maimed = ex.pair.clone();
        maimed
            .record_mut(em_data::Side::Right)
            .set_value(0, String::new());
        let after = m.predict_proba(&maimed);
        assert!(after < before, "blanking the name should lower the score");
    }
}
