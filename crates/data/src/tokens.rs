//! The word-unit view of a pair: every word tagged with its side, attribute
//! and position. This is the feature space all explainers operate in.

use crate::schema::{EntityPair, Side};

/// One occurrence of a word inside a pair of entity descriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordUnit {
    /// Lowercased word text.
    pub text: String,
    /// Which record the word comes from.
    pub side: Side,
    /// Attribute index in the pair's schema.
    pub attribute: usize,
    /// Position of the word inside its attribute value (0-based).
    pub position: usize,
}

impl WordUnit {
    /// Compact display form `L.title:sony`.
    pub fn label(&self, schema: &crate::schema::Schema) -> String {
        format!(
            "{}.{}:{}",
            self.side.tag(),
            schema.name(self.attribute),
            self.text
        )
    }
}

/// A pair decomposed into its word units, preserving enough structure to
/// reconstruct perturbed pairs.
#[derive(Debug, Clone)]
pub struct TokenizedPair {
    pair: EntityPair,
    words: Vec<WordUnit>,
}

impl TokenizedPair {
    /// Tokenize every attribute value of both records.
    pub fn new(pair: EntityPair) -> Self {
        let mut words = Vec::new();
        for side in [Side::Left, Side::Right] {
            let record = pair.record(side);
            for attr in 0..pair.schema().len() {
                for (position, text) in em_text::tokenize(record.value(attr))
                    .into_iter()
                    .enumerate()
                {
                    words.push(WordUnit {
                        text,
                        side,
                        attribute: attr,
                        position,
                    });
                }
            }
        }
        TokenizedPair { pair, words }
    }

    /// The underlying (unperturbed) pair.
    pub fn pair(&self) -> &EntityPair {
        &self.pair
    }

    /// All word units in (side, attribute, position) order.
    pub fn words(&self) -> &[WordUnit] {
        &self.words
    }

    /// Number of word units.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Indices of words on a given side.
    pub fn side_indices(&self, side: Side) -> Vec<usize> {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, w)| w.side == side)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of words in a given (side, attribute) cell.
    pub fn cell_indices(&self, side: Side, attribute: usize) -> Vec<usize> {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, w)| w.side == side && w.attribute == attribute)
            .map(|(i, _)| i)
            .collect()
    }

    /// Rebuild an [`EntityPair`] keeping only the words whose index is
    /// `true` in `mask`. Attribute values are reconstructed by joining the
    /// surviving words with single spaces; non-masked attributes keep
    /// their token order.
    ///
    /// # Panics
    /// Panics if `mask.len() != self.len()`.
    pub fn apply_mask(&self, mask: &[bool]) -> EntityPair {
        assert_eq!(
            mask.len(),
            self.words.len(),
            "mask length must equal word count"
        );
        let schema = self.pair.schema_arc();
        let mut pair = self.pair.clone();
        for side in [Side::Left, Side::Right] {
            for attr in 0..schema.len() {
                let mut value = String::new();
                for (i, w) in self.words.iter().enumerate() {
                    if w.side == side && w.attribute == attr && mask[i] {
                        if !value.is_empty() {
                            value.push(' ');
                        }
                        value.push_str(&w.text);
                    }
                }
                pair.record_mut(side).set_value(attr, value);
            }
        }
        pair
    }

    /// Rebuild a pair keeping masked words and *appending* extra words to
    /// their (side, attribute) cells — used by injection-style perturbations
    /// (Landmark, LEMON, Mojito-COPY).
    pub fn apply_mask_with_injections(
        &self,
        mask: &[bool],
        injections: &[(Side, usize, String)],
    ) -> EntityPair {
        let mut pair = self.apply_mask(mask);
        for (side, attr, text) in injections {
            let current = pair.record(*side).value(*attr).to_string();
            let new = if current.is_empty() {
                text.clone()
            } else {
                format!("{current} {text}")
            };
            pair.record_mut(*side).set_value(*attr, new);
        }
        pair
    }

    /// Group word indices by attribute (over both sides); the EM-schema
    /// arrangement CREW exploits.
    pub fn attribute_groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.pair.schema().len()];
        for (i, w) in self.words.iter().enumerate() {
            groups[w.attribute].push(i);
        }
        groups
    }
}

/// A reusable buffer for applying many masks to one [`TokenizedPair`]
/// without reallocating per sample.
///
/// [`TokenizedPair::apply_mask`] clones the pair and rebuilds every
/// attribute string from scratch on each call; over a 256-sample
/// perturbation run that is hundreds of redundant allocations and
/// re-joins. The buffer keeps one working pair and rewrites only the
/// `(side, attribute)` cells whose kept-set actually changed:
///
/// - cells whose mask bits are all `true` and that already hold their
///   full (normalised) value are skipped entirely — SingleSide and
///   Landmark masks leave half the cells untouched every sample;
/// - other cells are rewritten in place into their existing `String`
///   capacity via [`Record::value_mut`](crate::schema::Record::value_mut).
///
/// The produced pair is bitwise-identical to `apply_mask`'s output (the
/// same words joined by single spaces), so the scalar and buffered
/// paths are interchangeable under the determinism contract.
#[derive(Debug)]
pub struct MaskedPairBuffer<'a> {
    tokenized: &'a TokenizedPair,
    /// Working pair, always holding the most recently applied mask.
    pair: EntityPair,
    /// `(side, attribute, word-index range)` per cell; ranges are
    /// contiguous because words are emitted in (side, attribute,
    /// position) order.
    cells: Vec<(Side, usize, std::ops::Range<usize>)>,
    /// The full normalised value of each cell (all words kept).
    full_values: Vec<String>,
    /// Whether the working pair currently holds the full value of the
    /// cell (enables the all-kept skip).
    is_full: Vec<bool>,
}

impl<'a> MaskedPairBuffer<'a> {
    pub fn new(tokenized: &'a TokenizedPair) -> Self {
        let schema = tokenized.pair().schema_arc();
        let mut cells = Vec::with_capacity(schema.len() * 2);
        let words = tokenized.words();
        for side in [Side::Left, Side::Right] {
            for attr in 0..schema.len() {
                let start = words
                    .iter()
                    .position(|w| w.side == side && w.attribute == attr)
                    .unwrap_or(words.len());
                let end = start
                    + words[start..]
                        .iter()
                        .take_while(|w| w.side == side && w.attribute == attr)
                        .count();
                cells.push((side, attr, start..end));
            }
        }
        let full_values: Vec<String> = cells
            .iter()
            .map(|(_, _, range)| {
                let mut value = String::new();
                for w in &words[range.clone()] {
                    if !value.is_empty() {
                        value.push(' ');
                    }
                    value.push_str(&w.text);
                }
                value
            })
            .collect();
        let mut pair = tokenized.pair().clone();
        for ((side, attr, _), full) in cells.iter().zip(&full_values) {
            pair.record_mut(*side).value_mut(*attr).clone_from(full);
        }
        let is_full = vec![true; cells.len()];
        MaskedPairBuffer {
            tokenized,
            pair,
            cells,
            full_values,
            is_full,
        }
    }

    /// Apply `mask` and return the rebuilt pair (borrowed from the
    /// buffer; clone it if an owned pair is needed).
    ///
    /// # Panics
    /// Panics if `mask.len() != tokenized.len()`.
    pub fn apply(&mut self, mask: &[bool]) -> &EntityPair {
        assert_eq!(
            mask.len(),
            self.tokenized.len(),
            "mask length must equal word count"
        );
        let words = self.tokenized.words();
        for (cell, (side, attr, range)) in self.cells.iter().enumerate() {
            let all_kept = mask[range.clone()].iter().all(|&b| b);
            if all_kept {
                if !self.is_full[cell] {
                    self.pair
                        .record_mut(*side)
                        .value_mut(*attr)
                        .clone_from(&self.full_values[cell]);
                    self.is_full[cell] = true;
                }
                continue;
            }
            let value = self.pair.record_mut(*side).value_mut(*attr);
            value.clear();
            for i in range.clone() {
                if mask[i] {
                    if !value.is_empty() {
                        value.push(' ');
                    }
                    value.push_str(&words[i].text);
                }
            }
            self.is_full[cell] = false;
        }
        &self.pair
    }

    /// Apply `mask`, then append injected words to their cells —
    /// the buffered counterpart of
    /// [`TokenizedPair::apply_mask_with_injections`]. Injected cells
    /// are marked dirty so the next [`Self::apply`] restores them.
    pub fn apply_with_injections(
        &mut self,
        mask: &[bool],
        injections: &[(Side, usize, String)],
    ) -> &EntityPair {
        self.apply(mask);
        for (side, attr, text) in injections {
            let value = self.pair.record_mut(*side).value_mut(*attr);
            if !value.is_empty() {
                value.push(' ');
            }
            value.push_str(text);
            let cell = self
                .cells
                .iter()
                .position(|(s, a, _)| s == side && a == attr)
                .expect("injection cell exists in schema");
            self.is_full[cell] = false;
        }
        &self.pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Record, Schema};
    use std::sync::Arc;

    fn pair() -> EntityPair {
        let schema = Arc::new(Schema::new(vec!["title", "brand"]));
        let l = Record::new(1, vec!["Sony Bravia TV".into(), "Sony".into()]);
        let r = Record::new(2, vec!["Bravia 55 TV".into(), "".into()]);
        EntityPair::new(schema, l, r).unwrap()
    }

    #[test]
    fn tokenization_tags_side_attribute_position() {
        let tp = TokenizedPair::new(pair());
        assert_eq!(tp.len(), 7);
        let w = &tp.words()[0];
        assert_eq!(w.text, "sony");
        assert_eq!(w.side, Side::Left);
        assert_eq!(w.attribute, 0);
        assert_eq!(w.position, 0);
        let last = tp.words().last().unwrap();
        assert_eq!(last.text, "tv");
        assert_eq!(last.side, Side::Right);
    }

    #[test]
    fn side_and_cell_indices() {
        let tp = TokenizedPair::new(pair());
        assert_eq!(tp.side_indices(Side::Left).len(), 4);
        assert_eq!(tp.side_indices(Side::Right).len(), 3);
        assert_eq!(tp.cell_indices(Side::Left, 1).len(), 1);
        assert_eq!(tp.cell_indices(Side::Right, 1).len(), 0);
    }

    #[test]
    fn full_mask_reconstructs_normalised_pair() {
        let tp = TokenizedPair::new(pair());
        let all = vec![true; tp.len()];
        let rebuilt = tp.apply_mask(&all);
        assert_eq!(rebuilt.left().value(0), "sony bravia tv");
        assert_eq!(rebuilt.left().value(1), "sony");
        assert_eq!(rebuilt.right().value(0), "bravia 55 tv");
        assert_eq!(rebuilt.right().value(1), "");
    }

    #[test]
    fn empty_mask_empties_all_values() {
        let tp = TokenizedPair::new(pair());
        let none = vec![false; tp.len()];
        let rebuilt = tp.apply_mask(&none);
        for attr in 0..2 {
            assert_eq!(rebuilt.left().value(attr), "");
            assert_eq!(rebuilt.right().value(attr), "");
        }
    }

    #[test]
    fn partial_mask_drops_exact_words() {
        let tp = TokenizedPair::new(pair());
        let mut mask = vec![true; tp.len()];
        // Drop "bravia" from the left title (index 1).
        assert_eq!(tp.words()[1].text, "bravia");
        mask[1] = false;
        let rebuilt = tp.apply_mask(&mask);
        assert_eq!(rebuilt.left().value(0), "sony tv");
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn mask_length_mismatch_panics() {
        let tp = TokenizedPair::new(pair());
        tp.apply_mask(&[true]);
    }

    #[test]
    fn injections_append_to_cells() {
        let tp = TokenizedPair::new(pair());
        let mask = vec![true; tp.len()];
        let rebuilt = tp.apply_mask_with_injections(&mask, &[(Side::Right, 1, "sony".to_string())]);
        assert_eq!(rebuilt.right().value(1), "sony");
        let rebuilt2 =
            tp.apply_mask_with_injections(&mask, &[(Side::Left, 0, "extra".to_string())]);
        assert_eq!(rebuilt2.left().value(0), "sony bravia tv extra");
    }

    #[test]
    fn attribute_groups_cover_all_words() {
        let tp = TokenizedPair::new(pair());
        let groups = tp.attribute_groups();
        assert_eq!(groups.len(), 2);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, tp.len());
        // title group holds words from both sides
        assert_eq!(groups[0].len(), 6);
        assert_eq!(groups[1].len(), 1);
    }

    #[test]
    fn word_label_renders() {
        let tp = TokenizedPair::new(pair());
        let label = tp.words()[0].label(tp.pair().schema());
        assert_eq!(label, "L.title:sony");
    }

    #[test]
    fn buffer_matches_apply_mask_over_a_mask_stream() {
        let tp = TokenizedPair::new(pair());
        let mut buffer = MaskedPairBuffer::new(&tp);
        // A stream exercising all-kept, all-dropped, and partial masks in
        // sequence, including returns to the full mask (cache restore).
        let n = tp.len();
        let mut masks: Vec<Vec<bool>> = vec![vec![true; n], vec![false; n]];
        for i in 0..n {
            let mut m = vec![true; n];
            m[i] = false;
            masks.push(m);
            masks.push(vec![true; n]);
            let mut m2 = vec![false; n];
            m2[i] = true;
            masks.push(m2);
        }
        for mask in &masks {
            assert_eq!(buffer.apply(mask), &tp.apply_mask(mask));
        }
    }

    #[test]
    fn buffer_matches_apply_mask_with_injections() {
        let tp = TokenizedPair::new(pair());
        let mut buffer = MaskedPairBuffer::new(&tp);
        let mut mask = vec![true; tp.len()];
        mask[1] = false;
        let injections = vec![
            (Side::Right, 1, "sony".to_string()),
            (Side::Left, 0, "extra".to_string()),
        ];
        for _ in 0..3 {
            assert_eq!(
                buffer.apply_with_injections(&mask, &injections),
                &tp.apply_mask_with_injections(&mask, &injections)
            );
            // Interleave a plain apply to check injected cells recover.
            assert_eq!(buffer.apply(&mask), &tp.apply_mask(&mask));
        }
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn buffer_mask_length_mismatch_panics() {
        let tp = TokenizedPair::new(pair());
        MaskedPairBuffer::new(&tp).apply(&[true]);
    }
}
