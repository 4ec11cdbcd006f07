//! # em-data
//!
//! The data model of the CREW reproduction: schemas, records, candidate
//! [`EntityPair`]s, the word-unit view ([`TokenizedPair`]) that explainers
//! operate on, labelled [`Dataset`]s with deterministic stratified splits,
//! and a CSV loader for DeepMatcher-style joined files.
//!
//! ```
//! use em_data::{Schema, Record, EntityPair, TokenizedPair};
//! use std::sync::Arc;
//! let schema = Arc::new(Schema::new(vec!["title", "brand"]));
//! let pair = EntityPair::new(
//!     schema,
//!     Record::new(0, vec!["sonix tv".into(), "sonix".into()]),
//!     Record::new(1, vec!["sonix television".into(), "sonix".into()]),
//! ).unwrap();
//! let words = TokenizedPair::new(pair);
//! assert_eq!(words.len(), 6); // every word tagged with side + attribute
//! ```

pub mod csv;
pub mod dataset;
pub mod schema;
pub mod tokens;

pub use csv::{
    dataset_from_joined_csv, dataset_from_magellan, dataset_to_joined_csv, parse_csv,
    record_table_from_csv, write_csv, RecordTable,
};
pub use dataset::{Dataset, DatasetStats, Label, LabeledPair, Split};
pub use schema::{EntityPair, Record, Schema, Side};
pub use tokens::{MaskedPairBuffer, TokenizedPair, WordUnit};

/// Errors from dataset construction and loading.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// Record value count does not match the schema.
    SchemaMismatch {
        record_id: u64,
        expected: usize,
        got: usize,
    },
    /// A pair built over a different schema was added to a dataset.
    ForeignSchema { record_id: u64 },
    /// Split fractions were invalid.
    InvalidSplit { train: f64, validation: f64 },
    /// CSV syntax or structure error.
    CsvParse { line: usize, message: String },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::SchemaMismatch {
                record_id,
                expected,
                got,
            } => write!(
                f,
                "record {record_id}: expected {expected} attribute values, got {got}"
            ),
            DataError::ForeignSchema { record_id } => {
                write!(
                    f,
                    "pair with left record {record_id} uses a different schema"
                )
            }
            DataError::InvalidSplit { train, validation } => write!(
                f,
                "invalid split fractions train={train} validation={validation}"
            ),
            DataError::CsvParse { line, message } => {
                write!(f, "CSV error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod proptests {
    use super::*;
    use propcheck::prelude::*;
    use std::sync::Arc;

    fn value() -> impl Strategy<Value = String> {
        "[a-z0-9 ]{0,20}"
    }

    proptest! {
        #[test]
        fn tokenized_pair_mask_roundtrip(l0 in value(), l1 in value(), r0 in value(), r1 in value()) {
            let schema = Arc::new(Schema::new(vec!["a", "b"]));
            let pair = EntityPair::new(
                schema,
                Record::new(0, vec![l0, l1]),
                Record::new(1, vec![r0, r1]),
            ).unwrap();
            let tp = TokenizedPair::new(pair);
            // Applying the full mask then retokenizing yields the same words.
            let rebuilt = tp.apply_mask(&vec![true; tp.len()]);
            let tp2 = TokenizedPair::new(rebuilt);
            prop_assert_eq!(tp.len(), tp2.len());
            for (a, b) in tp.words().iter().zip(tp2.words()) {
                prop_assert_eq!(&a.text, &b.text);
                prop_assert_eq!(a.side, b.side);
                prop_assert_eq!(a.attribute, b.attribute);
            }
        }

        #[test]
        fn csv_round_trip_any_field(fields in propcheck::collection::vec("[ -~]{0,15}", 1..5)) {
            let rows = vec![fields];
            let text = csv::write_csv(&rows);
            let parsed = csv::parse_csv(&text).unwrap();
            prop_assert_eq!(parsed, rows);
        }

        #[test]
        fn split_partitions(n_pos in 2usize..20, n_neg in 2usize..20, seed in 0u64..100) {
            let schema = Arc::new(Schema::new(vec!["v"]));
            let mut examples = Vec::new();
            for i in 0..n_pos + n_neg {
                let pair = EntityPair::new(
                    Arc::clone(&schema),
                    Record::new(i as u64, vec![format!("val {i}")]),
                    Record::new(1000 + i as u64, vec![format!("val {i}")]),
                ).unwrap();
                examples.push(LabeledPair { pair, label: Label::from_bool(i < n_pos) });
            }
            let d = Dataset::new("p", schema, examples).unwrap();
            let split = d.split(0.6, 0.2, seed).unwrap();
            prop_assert_eq!(
                split.train.len() + split.validation.len() + split.test.len(),
                n_pos + n_neg
            );
        }
    }
}
