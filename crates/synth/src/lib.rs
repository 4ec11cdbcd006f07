//! # em-synth
//!
//! Seeded synthetic benchmark generators mirroring the five ER-Magellan
//! dataset families the CREW evaluation uses (products, citations,
//! restaurants, songs, beers). Matching pairs are produced by applying a
//! family-specific corruption profile (typos, abbreviations, token drops,
//! numeric jitter, attribute nulls) to a clean entity; non-matching pairs
//! mix hard negatives (sharing the family blocking key: brand, venue, city,
//! artist, brewery) with random negatives.
//!
//! Everything is deterministic for a given seed, so the experiment tables
//! regenerate bit-identically. Real ER-Magellan CSV exports can be used
//! instead via `em_data::dataset_from_joined_csv`.
//!
//! ```
//! use em_synth::{generate, Family, GeneratorConfig};
//! let config = GeneratorConfig { entities: 30, pairs: 60, ..Default::default() };
//! let dataset = generate(Family::Restaurants, config).unwrap();
//! assert_eq!(dataset.len(), 60);
//! // Deterministic: same seed, same data.
//! assert_eq!(generate(Family::Restaurants, config).unwrap().stats(), dataset.stats());
//! ```

pub mod collections;
pub mod corrupt;
pub mod family;
pub mod generator;
pub mod pools;

pub use collections::{record_collections, CollectionsConfig, RecordCollections};
pub use corrupt::{abbreviate, corrupt_value, jitter_number, typo, CorruptionProfile};
pub use family::Family;
pub use generator::{
    extended_benchmark, generate, scaling_pair, standard_benchmark, GeneratorConfig,
};

/// Errors from dataset generation.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// Need at least two entities to form non-matching pairs.
    TooFewEntities(usize),
    /// Requested zero pairs.
    NoPairs,
    /// A rate parameter was outside `[0, 1]`.
    InvalidRate(&'static str, f64),
    /// Propagated data-model error (should not happen by construction).
    Data(em_data::DataError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::TooFewEntities(n) => write!(f, "need at least 2 entities, got {n}"),
            SynthError::NoPairs => write!(f, "requested zero pairs"),
            SynthError::InvalidRate(name, v) => write!(f, "{name} must be in [0,1], got {v}"),
            SynthError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<em_data::DataError> for SynthError {
    fn from(e: em_data::DataError) -> Self {
        SynthError::Data(e)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use propcheck::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn any_valid_config_generates(seed in 0u64..500, rate in 0.05f64..0.5) {
            let cfg = GeneratorConfig {
                entities: 30,
                pairs: 60,
                match_rate: rate,
                hard_negative_rate: 0.5,
                seed,
            };
            let d = generate(Family::Restaurants, cfg).unwrap();
            prop_assert_eq!(d.len(), 60);
            let got_rate = d.match_count() as f64 / 60.0;
            prop_assert!((got_rate - rate).abs() < 0.05);
        }

        #[test]
        fn corruption_output_tokenizes(seed in 0u64..500) {
            use em_rngs::SeedableRng;
            let mut rng = em_rngs::rngs::StdRng::seed_from_u64(seed);
            let c = corrupt_value(
                "alpha beta 42 gamma delta",
                &CorruptionProfile::heavy(),
                &mut rng,
            );
            // Corrupted values never contain control characters and always
            // re-tokenize cleanly.
            prop_assert!(c.chars().all(|ch| !ch.is_control()));
            let _ = em_text::tokenize(&c);
        }
    }
}
