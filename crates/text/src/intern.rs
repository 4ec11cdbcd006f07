//! Arena-interned tokenization for the perturbation-query hot path.
//!
//! A CREW explanation queries the matcher with hundreds of masked
//! variants of one pair. The masked cell *values* are drawn from a tiny
//! set (subsets of the original tokens), so re-tokenizing each variant
//! into fresh `Vec<String>`s — the `em_text::tokenize` path — burns
//! nearly all of its time allocating strings it has produced before.
//!
//! [`TokenArena`] interns at two levels:
//!
//! - **tokens** (and character q-grams) map to dense `u32` ids, so set
//!   kernels run on sorted integer slices
//!   ([`crate::similarity::jaccard_sorted_ids`]) instead of `HashSet`s
//!   of strings;
//! - **cells** (whole attribute values) map to ids whose token/gram
//!   slices are computed once and stored in flat arrays; re-interning a
//!   seen cell is a single hash lookup and no allocation.
//!
//! The arena is a scratch structure: callers `clear()` it between
//! batches (capacity is retained). Token ids are only meaningful within
//! one arena lifetime — they are *not* a persistent vocabulary (that is
//! [`crate::Vocabulary`]'s job).
//!
//! Determinism: tokens are produced by the same `scan_runs` +
//! char-wise-lowercase core as [`crate::tokenize`](fn@crate::tokenize), and gram sets by the
//! same padding rules as [`crate::qgrams`] over the `str::to_lowercase`
//! of the cell, so kernels over arena slices are bitwise-identical to
//! their string counterparts.

use crate::tokenize::{lowercase_run_into, scan_runs};
use std::collections::HashMap;

/// q-gram width used for interned gram sets; matches the `q = 3` the
/// matcher feature extractor passes to [`crate::qgram_jaccard`].
pub const GRAM_Q: usize = 3;

/// Per-cell index ranges into the arena's flat storage.
#[derive(Debug, Clone, Copy)]
struct CellSpans {
    seq: (u32, u32),
    sorted: (u32, u32),
    grams: (u32, u32),
}

/// Interner mapping cell text → token-id / gram-id slices; see the
/// module docs for the lifecycle.
#[derive(Debug)]
pub struct TokenArena {
    /// Whether [`Self::intern_cell`] materialises gram sets. Gram
    /// construction (lowercase + window hashing per distinct cell) is
    /// the most expensive part of first-sight interning; callers that
    /// never read [`Self::grams`] — e.g. the attention matcher's
    /// alignment path — opt out via [`Self::without_grams`].
    build_grams: bool,
    token_ids: HashMap<String, u32>,
    token_texts: Vec<String>,
    gram_ids: HashMap<String, u32>,
    cell_ids: HashMap<String, u32>,
    cell_texts: Vec<String>,
    cells: Vec<CellSpans>,
    /// Token ids of every cell in source order, concatenated.
    seq: Vec<u32>,
    /// Sorted, deduplicated token ids of every cell, concatenated.
    sorted: Vec<u32>,
    /// Sorted, deduplicated gram ids of every cell, concatenated.
    grams: Vec<u32>,
    tok_scratch: String,
    char_scratch: Vec<char>,
}

/// Sort the tail `v[start..]` and drop adjacent duplicates in place.
fn sort_dedup_tail(v: &mut Vec<u32>, start: usize) {
    v[start..].sort_unstable();
    let mut w = start;
    for r in start..v.len() {
        if w == start || v[w - 1] != v[r] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

impl Default for TokenArena {
    /// Grams are built by default so `Default`-derived scratch structs
    /// (e.g. the feature extractor's) keep the full contract.
    fn default() -> Self {
        TokenArena {
            build_grams: true,
            token_ids: HashMap::new(),
            token_texts: Vec::new(),
            gram_ids: HashMap::new(),
            cell_ids: HashMap::new(),
            cell_texts: Vec::new(),
            cells: Vec::new(),
            seq: Vec::new(),
            sorted: Vec::new(),
            grams: Vec::new(),
            tok_scratch: String::new(),
            char_scratch: Vec::new(),
        }
    }
}

impl TokenArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena that skips gram-set construction; [`Self::grams`]
    /// returns an empty slice for every cell. Use when only token
    /// sequences/sets are consumed.
    pub fn without_grams() -> Self {
        TokenArena {
            build_grams: false,
            ..Self::default()
        }
    }

    /// Drop all interned content but keep allocated capacity; call
    /// between batches so ids never leak across batch boundaries.
    pub fn clear(&mut self) {
        self.token_ids.clear();
        self.token_texts.clear();
        self.gram_ids.clear();
        self.cell_ids.clear();
        self.cell_texts.clear();
        self.cells.clear();
        self.seq.clear();
        self.sorted.clear();
        self.grams.clear();
    }

    /// Intern a cell value, tokenizing it on first sight; returns its id.
    pub fn intern_cell(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.cell_ids.get(text) {
            return id;
        }
        let id = self.cell_texts.len() as u32;
        let seq_start = self.seq.len();
        // Token sequence (source order, duplicates kept).
        let token_ids = &mut self.token_ids;
        let token_texts = &mut self.token_texts;
        let tok_scratch = &mut self.tok_scratch;
        let seq = &mut self.seq;
        scan_runs(text, |start, end| {
            tok_scratch.clear();
            lowercase_run_into(&text[start..end], tok_scratch);
            let tid = match token_ids.get(tok_scratch.as_str()) {
                Some(&tid) => tid,
                None => {
                    let tid = token_texts.len() as u32;
                    token_ids.insert(tok_scratch.clone(), tid);
                    token_texts.push(tok_scratch.clone());
                    tid
                }
            };
            seq.push(tid);
        });
        let seq_end = self.seq.len();
        // Sorted distinct token ids.
        let sorted_start = self.sorted.len();
        self.sorted.extend_from_slice(&self.seq[seq_start..seq_end]);
        sort_dedup_tail(&mut self.sorted, sorted_start);
        let sorted_end = self.sorted.len();
        // Sorted distinct gram ids over the '#'-padded lowercased text —
        // `str::to_lowercase` on purpose, mirroring the q-gram feature's
        // `qgram_jaccard(&l.to_lowercase(), ..)` call exactly.
        let gram_start = self.grams.len();
        if self.build_grams {
            let lower = text.to_lowercase();
            self.char_scratch.clear();
            self.char_scratch.push('#');
            self.char_scratch.extend(lower.chars());
            self.char_scratch.push('#');
            if self.char_scratch.len() < GRAM_Q {
                let gid = Self::intern_gram(
                    &mut self.gram_ids,
                    &mut self.tok_scratch,
                    &self.char_scratch,
                );
                self.grams.push(gid);
            } else {
                for w in self.char_scratch.windows(GRAM_Q) {
                    let gid = Self::intern_gram(&mut self.gram_ids, &mut self.tok_scratch, w);
                    self.grams.push(gid);
                }
            }
            sort_dedup_tail(&mut self.grams, gram_start);
        }
        let gram_end = self.grams.len();

        self.cell_ids.insert(text.to_string(), id);
        self.cell_texts.push(text.to_string());
        self.cells.push(CellSpans {
            seq: (seq_start as u32, seq_end as u32),
            sorted: (sorted_start as u32, sorted_end as u32),
            grams: (gram_start as u32, gram_end as u32),
        });
        id
    }

    fn intern_gram(
        gram_ids: &mut HashMap<String, u32>,
        scratch: &mut String,
        chars: &[char],
    ) -> u32 {
        scratch.clear();
        scratch.extend(chars.iter());
        match gram_ids.get(scratch.as_str()) {
            Some(&gid) => gid,
            None => {
                let gid = gram_ids.len() as u32;
                gram_ids.insert(scratch.clone(), gid);
                gid
            }
        }
    }

    /// Token ids of a cell in source order (duplicates kept).
    pub fn tokens(&self, cell: u32) -> &[u32] {
        let (s, e) = self.cells[cell as usize].seq;
        &self.seq[s as usize..e as usize]
    }

    /// Sorted, deduplicated token ids of a cell.
    pub fn sorted_tokens(&self, cell: u32) -> &[u32] {
        let (s, e) = self.cells[cell as usize].sorted;
        &self.sorted[s as usize..e as usize]
    }

    /// Sorted, deduplicated q-gram ids of a cell.
    pub fn grams(&self, cell: u32) -> &[u32] {
        let (s, e) = self.cells[cell as usize].grams;
        &self.grams[s as usize..e as usize]
    }

    /// Original (raw) text of an interned cell.
    pub fn cell_text(&self, cell: u32) -> &str {
        &self.cell_texts[cell as usize]
    }

    /// Lowercased text of an interned token id.
    pub fn token_text(&self, token: u32) -> &str {
        &self.token_texts[token as usize]
    }

    /// Number of distinct tokens interned so far (ids are `0..n_tokens`).
    pub fn n_tokens(&self) -> usize {
        self.token_texts.len()
    }

    /// Number of distinct cells interned so far.
    pub fn n_cells(&self) -> usize {
        self.cell_texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cell_texts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn interned_tokens_match_string_tokenizer() {
        let mut arena = TokenArena::new();
        for text in [
            "Sony WH-1000XM4 Headphones",
            "",
            "café—crème (2021)",
            "a a b",
        ] {
            let id = arena.intern_cell(text);
            let via_arena: Vec<&str> = arena
                .tokens(id)
                .iter()
                .map(|&t| arena.token_text(t))
                .collect();
            let via_strings = crate::tokenize(text);
            assert_eq!(via_arena, via_strings, "input: {text:?}");
        }
    }

    #[test]
    fn reinterning_returns_same_id() {
        let mut arena = TokenArena::new();
        let a = arena.intern_cell("sony tv");
        let b = arena.intern_cell("lg tv");
        let a2 = arena.intern_cell("sony tv");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.n_cells(), 2);
        // "tv" is shared between the cells.
        assert_eq!(arena.n_tokens(), 3);
        assert_eq!(arena.cell_text(a), "sony tv");
    }

    #[test]
    fn sorted_tokens_are_sorted_distinct() {
        let mut arena = TokenArena::new();
        let id = arena.intern_cell("b a c a b");
        assert_eq!(arena.tokens(id).len(), 5);
        let sorted = arena.sorted_tokens(id);
        assert_eq!(sorted.len(), 3);
        for w in sorted.windows(2) {
            assert!(w[0] < w[1]);
        }
        let from_seq: HashSet<u32> = arena.tokens(id).iter().copied().collect();
        let from_sorted: HashSet<u32> = sorted.iter().copied().collect();
        assert_eq!(from_seq, from_sorted);
    }

    #[test]
    fn gram_sets_match_qgrams_of_lowercased_text() {
        let mut arena = TokenArena::new();
        for text in ["Sony TV", "", "ab", "x"] {
            let id = arena.intern_cell(text);
            let expect: HashSet<String> = crate::qgrams(&text.to_lowercase(), GRAM_Q)
                .into_iter()
                .collect();
            assert_eq!(
                arena.grams(id).len(),
                expect.len(),
                "gram set size for {text:?}"
            );
            let sorted = arena.grams(id);
            for w in sorted.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn distinct_cells_share_gram_ids() {
        let mut arena = TokenArena::new();
        let a = arena.intern_cell("sony");
        let b = arena.intern_cell("sony x");
        let ga: HashSet<u32> = arena.grams(a).iter().copied().collect();
        let gb: HashSet<u32> = arena.grams(b).iter().copied().collect();
        // "#so"/"son"/"ony" grams are shared.
        assert!(ga.intersection(&gb).count() >= 3);
    }

    #[test]
    fn clear_resets_ids_but_keeps_working() {
        let mut arena = TokenArena::new();
        arena.intern_cell("one two");
        arena.intern_cell("three");
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.n_tokens(), 0);
        let id = arena.intern_cell("fresh start");
        assert_eq!(id, 0);
        assert_eq!(arena.tokens(id).len(), 2);
    }
}
