//! String and set similarity measures used both by the matcher feature
//! extractors and by the synthetic-data hard-negative miner.
//!
//! The two string kernels are bit-parallel and allocation-free up to
//! 64 chars. [`levenshtein`] runs Myers' bit-vector
//! algorithm in Hyyrö's block form over Unicode scalar values, and
//! [`jaro`] keeps the textbook greedy scan with its match flags in
//! bitsets. Both return exactly what the textbook dynamic program and
//! the `Vec`-based scan return (the test module keeps those as oracles):
//! an edit distance is an integer, and Jaro's match and transposition
//! counts, hence its float expression, are unchanged.

use std::collections::HashSet;

/// Chars a string kernel keeps on the stack; longer inputs spill to
/// the heap.
const STACK_CHARS: usize = 64;

/// Levenshtein edit distance (unit costs) between two strings, by chars.
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_counted(a, a.chars().count(), b, b.chars().count())
}

/// [`levenshtein`] of `a` and `b`, whose char counts are `la` and `lb`.
///
/// The distance is symmetric, so the shorter string is the pattern: its
/// match masks take `⌈m/64⌉` words per char, and the longer string is
/// scanned once. Up to [`STACK_CHARS`] pattern chars everything sits on
/// the stack; longer patterns use the same code over heap tables.
fn levenshtein_counted(a: &str, la: usize, b: &str, lb: usize) -> usize {
    let (pattern, m, text) = if la <= lb { (a, la, b) } else { (b, lb, a) };
    if m == 0 {
        return la.max(lb);
    }
    let words = m.div_ceil(64);
    if words > 1 {
        let mut ascii = vec![0u64; 128 * words];
        let mut other_chars = vec!['\0'; m];
        let mut other_masks = vec![0u64; (m + 1) * words];
        let table = MatchTable::build(
            pattern,
            words,
            &mut ascii,
            &mut other_chars,
            &mut other_masks,
        );
        return table.distance(m, text);
    }
    let mut ascii = [0u64; 128];
    let mut other_chars = ['\0'; STACK_CHARS];
    let mut other_masks = [0u64; STACK_CHARS + 1];
    let table = MatchTable::build(pattern, 1, &mut ascii, &mut other_chars, &mut other_masks);
    table.distance(m, text)
}

/// The pattern's match masks: bit `i % 64` of word `i / 64` of a char's
/// entry is set where pattern char `i` is that char. An entry is
/// `words` consecutive words.
struct MatchTable<'s> {
    words: usize,
    /// Entry of ASCII char `c` at `c * words`.
    ascii: &'s [u64],
    /// The pattern's distinct non-ASCII chars in first-seen order.
    other_chars: &'s [char],
    /// Entry `k` belongs to `other_chars[k]`; the entry after the last
    /// is all zero and serves every char the pattern lacks.
    other_masks: &'s [u64],
}

impl<'s> MatchTable<'s> {
    /// Fill zeroed tables with the masks of `pattern` (`words` words per
    /// entry; `other_chars` holds at least the pattern's char count and
    /// `other_masks` one entry more).
    fn build(
        pattern: &str,
        words: usize,
        ascii: &'s mut [u64],
        other_chars: &'s mut [char],
        other_masks: &'s mut [u64],
    ) -> Self {
        let mut n_other = 0;
        for (i, c) in pattern.chars().enumerate() {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            if c.is_ascii() {
                ascii[c as usize * words + word] |= bit;
            } else {
                let k = match other_chars[..n_other].iter().position(|&o| o == c) {
                    Some(k) => k,
                    None => {
                        other_chars[n_other] = c;
                        n_other += 1;
                        n_other - 1
                    }
                };
                other_masks[k * words + word] |= bit;
            }
        }
        MatchTable {
            words,
            ascii,
            other_chars: &other_chars[..n_other],
            other_masks,
        }
    }

    /// The entry of `c` (all zero when the pattern lacks `c`).
    fn masks(&self, c: char) -> &[u64] {
        let w = self.words;
        if c.is_ascii() {
            return &self.ascii[c as usize * w..][..w];
        }
        let k = self
            .other_chars
            .iter()
            .position(|&o| o == c)
            .unwrap_or(self.other_chars.len());
        &self.other_masks[k * w..][..w]
    }

    /// Edit distance between the `m`-char pattern and `text`, one text
    /// char per step. Each block keeps the vertical +1/−1 deltas of its
    /// 64 rows; the horizontal delta leaving a block's last row is the
    /// carry into the next block's first row, and the one leaving row
    /// `m` moves the distance. Row 0 is `D[0][j] = j`, so the first
    /// block's carry in is +1. The last block lives in locals, so a
    /// single-block pattern touches no memory but the table.
    fn distance(&self, m: usize, text: &str) -> usize {
        let full = self.words - 1;
        let mut blocks = vec![(!0u64, 0u64); full];
        let mut tail = (!0u64, 0u64);
        let last_row = ((m - 1) % 64) as u32;
        let mut dist = m;
        for c in text.chars() {
            let eq = self.masks(c);
            let mut carry = (1u64, 0u64);
            for (block, &eq) in blocks.iter_mut().zip(eq) {
                carry = advance_block(block, eq, carry, 63);
            }
            let (up, down) = advance_block(&mut tail, eq[full], carry, last_row);
            dist = dist + up as usize - down as usize;
        }
        dist
    }
}

/// One text char's step over one 64-row block of Hyyrö's formulation
/// of Myers' algorithm. `deltas` holds the block's vertical +1/−1 bit
/// vectors, `carry` the horizontal (+1, −1) bits entering its first
/// row; returns the horizontal (+1, −1) bits leaving row `out_row`.
#[inline(always)]
fn advance_block(deltas: &mut (u64, u64), eq: u64, carry: (u64, u64), out_row: u32) -> (u64, u64) {
    let (vp, vn) = *deltas;
    let (hp_in, hn_in) = carry;
    // A −1 arriving from above acts as a match in the first row (Myers'
    // block rule); it also stands in for the addition's carry across
    // the block boundary.
    let x = eq | hn_in;
    let d0 = (((x & vp).wrapping_add(vp)) ^ vp) | x | vn;
    let hp = vn | !(d0 | vp);
    let hn = d0 & vp;
    let out = ((hp >> out_row) & 1, (hn >> out_row) & 1);
    let hp = (hp << 1) | hp_in;
    let hn = (hn << 1) | hn_in;
    *deltas = (hn | !(d0 | hp), hp & d0);
    out
}

/// Normalised Levenshtein similarity in `[0, 1]`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let (la, lb) = (a.chars().count(), b.chars().count());
    let max_len = la.max(lb);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_counted(a, la, b, lb) as f64 / max_len as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        return jaro_slices(a.as_bytes(), b.as_bytes());
    }
    with_chars(a, |a| with_chars(b, |b| jaro_slices(a, b)))
}

/// Call `f` with the chars of `s`, on the stack up to [`STACK_CHARS`]
/// chars and on the heap beyond.
fn with_chars<R>(s: &str, f: impl FnOnce(&[char]) -> R) -> R {
    let mut buf = ['\0'; STACK_CHARS];
    let mut n = 0;
    for c in s.chars() {
        if n == STACK_CHARS {
            return f(&s.chars().collect::<Vec<char>>());
        }
        buf[n] = c;
        n += 1;
    }
    f(&buf[..n])
}

/// [`jaro`] over char (or, for ASCII input, byte) slices. Each char of
/// `a`, in order, takes the first unmatched equal char of `b` inside the
/// window. `b`'s match flags are a bitset and `a`'s matched chars are
/// kept in match order, which is `a` order, so the transpositions pair
/// the k-th of them with the k-th set flag of `b`. Both sit on the stack
/// up to [`STACK_CHARS`] chars.
fn jaro_slices<T: Copy + Eq + Default>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut flags_stack = [0u64; STACK_CHARS / 64];
    let mut flags_heap;
    let b_matched: &mut [u64] = if b.len() <= STACK_CHARS {
        &mut flags_stack
    } else {
        flags_heap = vec![0u64; b.len().div_ceil(64)];
        &mut flags_heap
    };
    let mut chars_stack = [T::default(); STACK_CHARS];
    let mut chars_heap;
    let a_matched: &mut [T] = if a.len() <= STACK_CHARS {
        &mut chars_stack
    } else {
        chars_heap = vec![T::default(); a.len()];
        &mut chars_heap
    };
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            let (word, bit) = (j / 64, 1u64 << (j % 64));
            if cb == ca && b_matched[word] & bit == 0 {
                b_matched[word] |= bit;
                a_matched[matches] = ca;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let transpositions = b_matched
        .iter()
        .enumerate()
        .flat_map(|(w, &bits)| set_bits(bits, w * 64))
        .zip(&a_matched[..matches])
        .filter(|&(j, &ca)| b[j] != ca)
        .count();
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
}

/// `offset +` each set bit of `bits`, lowest first.
fn set_bits(mut bits: u64, offset: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            offset + j
        })
    })
}

/// Jaro-Winkler similarity with standard prefix scale 0.1 and max prefix 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    (j + prefix * 0.1 * (1.0 - j)).min(1.0)
}

/// Jaccard similarity of two token multiset-as-sets.
pub fn jaccard<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Overlap coefficient `|A∩B| / min(|A|,|B|)`.
pub fn overlap_coefficient<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    inter / sa.len().min(sb.len()) as f64
}

/// Intersection size of two sorted, deduplicated slices (linear merge).
fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// [`jaccard`] over sorted, deduplicated id slices (the interned-token
/// hot path). Bitwise-identical to the `HashSet` version: intersection
/// and union sizes are exact integers, and the only float operation is
/// the final division.
pub fn jaccard_sorted_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = sorted_intersection_len(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// [`overlap_coefficient`] over sorted, deduplicated id slices;
/// bitwise-identical for the same reason as [`jaccard_sorted_ids`].
pub fn overlap_sorted_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let inter = sorted_intersection_len(a, b) as f64;
    inter / a.len().min(b.len()) as f64
}

/// Dice coefficient `2|A∩B| / (|A|+|B|)` on sets.
pub fn dice<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let denom = (sa.len() + sb.len()) as f64;
    if denom == 0.0 {
        1.0
    } else {
        2.0 * inter / denom
    }
}

/// Jaccard over character q-grams of whole strings.
pub fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    let ga = crate::tokenize::qgrams(a, q);
    let gb = crate::tokenize::qgrams(b, q);
    jaccard(&ga, &gb)
}

/// Monge-Elkan similarity: average best Jaro-Winkler match of each token of
/// `a` against tokens of `b` (asymmetric; callers can symmetrise).
pub fn monge_elkan(a_tokens: &[String], b_tokens: &[String]) -> f64 {
    if a_tokens.is_empty() {
        return if b_tokens.is_empty() { 1.0 } else { 0.0 };
    }
    if b_tokens.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for ta in a_tokens {
        let best = b_tokens
            .iter()
            .map(|tb| jaro_winkler(ta, tb))
            .fold(0.0f64, f64::max);
        sum += best;
    }
    sum / a_tokens.len() as f64
}

/// Symmetric Monge-Elkan (mean of both directions).
pub fn monge_elkan_sym(a_tokens: &[String], b_tokens: &[String]) -> f64 {
    0.5 * (monge_elkan(a_tokens, b_tokens) + monge_elkan(b_tokens, a_tokens))
}

/// Longest common subsequence length between token sequences.
pub fn lcs_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for ai in a {
        for (j, bj) in b.iter().enumerate() {
            cur[j + 1] = if ai == bj {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.iter_mut().for_each(|x| *x = 0);
    }
    prev[b.len()]
}

/// Numeric-aware similarity: if both strings parse as finite numbers,
/// compare as relative difference; otherwise fall back to Levenshtein
/// similarity. Useful for price/year attributes in EM records.
///
/// `str::parse::<f64>` also accepts `nan`, `inf`, `infinity` and
/// overflowing literals such as `1e400`; those cells are text here, so
/// two identical ones score 1.0.
pub fn numeric_or_string_similarity(a: &str, b: &str) -> f64 {
    match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        (Ok(x), Ok(y)) if x.is_finite() && y.is_finite() => {
            let denom = x.abs().max(y.abs());
            if denom == 0.0 {
                1.0
            } else {
                (1.0 - (x - y).abs() / denom).max(0.0)
            }
        }
        _ => levenshtein_similarity(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propcheck::prelude::*;
    use propcheck::{collection, TestCaseError};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// The textbook single-row dynamic program: the oracle
    /// [`levenshtein`] must equal.
    fn levenshtein_dp(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, cb) in b.iter().enumerate() {
                let cost = if ca == cb { 0 } else { 1 };
                cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    fn levenshtein_similarity_dp(a: &str, b: &str) -> f64 {
        let max_len = a.chars().count().max(b.chars().count());
        if max_len == 0 {
            return 1.0;
        }
        1.0 - levenshtein_dp(a, b) as f64 / max_len as f64
    }

    /// The `Vec`-based Jaro scan: the oracle [`jaro`] must equal.
    fn jaro_vec(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut a_matched = vec![false; a.len()];
        let mut b_matched = vec![false; b.len()];
        let mut matches = 0usize;
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_matched[j] && b[j] == *ca {
                    a_matched[i] = true;
                    b_matched[j] = true;
                    matches += 1;
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        let mut transpositions = 0usize;
        let mut j = 0usize;
        for (i, &am) in a_matched.iter().enumerate() {
            if !am {
                continue;
            }
            while !b_matched[j] {
                j += 1;
            }
            if a[i] != b[j] {
                transpositions += 1;
            }
            j += 1;
        }
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
    }

    fn jaro_winkler_vec(a: &str, b: &str) -> f64 {
        let j = jaro_vec(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count() as f64;
        (j + prefix * 0.1 * (1.0 - j)).min(1.0)
    }

    /// Every kernel of this module that has an oracle, in both argument
    /// orders, compared bit for bit.
    fn check_against_oracles(a: &str, b: &str) -> Result<(), TestCaseError> {
        let dp = levenshtein_dp(a, b);
        prop_assert_eq!(levenshtein(a, b), dp);
        prop_assert_eq!(levenshtein(b, a), dp);
        prop_assert_eq!(
            levenshtein_similarity(a, b).to_bits(),
            levenshtein_similarity_dp(a, b).to_bits()
        );
        for (x, y) in [(a, b), (b, a)] {
            prop_assert_eq!(jaro(x, y).to_bits(), jaro_vec(x, y).to_bits());
            prop_assert_eq!(
                jaro_winkler(x, y).to_bits(),
                jaro_winkler_vec(x, y).to_bits()
            );
        }
        Ok(())
    }

    /// 0–200 chars drawn from a few arbitrary scalar values and a few
    /// ASCII letters: heavy repetition on both match-table paths.
    fn repetitive() -> impl Strategy<Value = String> {
        (
            collection::vec(0u32..0x11_0000, 1..4),
            collection::vec(0u8..6, 0..=200),
        )
            .prop_map(|(alphabet, picks)| {
                let alphabet: Vec<char> = alphabet.into_iter().filter_map(char::from_u32).collect();
                picks
                    .iter()
                    .map(|&p| match alphabet.get(p as usize) {
                        Some(&c) => c,
                        None => (b'a' + p) as char,
                    })
                    .collect()
            })
    }

    /// A string of 0–200 chars and a copy with up to eight inserts,
    /// deletes and substitutions: long inputs at small distances, where
    /// every block's carry matters.
    fn edited_pair() -> impl Strategy<Value = (String, String)> {
        (
            "[abcé]{0,200}",
            collection::vec((0usize..200, 0u8..3, "[abdé]"), 0..8),
        )
            .prop_map(|(a, edits)| {
                let mut b: Vec<char> = a.chars().collect();
                for (pos, op, c) in edits {
                    let c = c.chars().next().expect("one char");
                    let i = pos.min(b.len());
                    match op {
                        0 => b.insert(i, c),
                        1 if i < b.len() => {
                            b.remove(i);
                        }
                        _ if i < b.len() => b[i] = c,
                        _ => b.push(c),
                    }
                }
                (a, b.into_iter().collect())
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernels_match_oracles_on_ascii_biased_text(a in ".{0,200}", b in ".{0,200}") {
            check_against_oracles(&a, &b)?;
        }

        #[test]
        fn kernels_match_oracles_on_arbitrary_unicode(
            a in collection::vec(0u32..0x11_0000, 0..=200),
            b in collection::vec(0u32..0x11_0000, 0..=200),
        ) {
            let a: String = a.into_iter().filter_map(char::from_u32).collect();
            let b: String = b.into_iter().filter_map(char::from_u32).collect();
            check_against_oracles(&a, &b)?;
        }

        #[test]
        fn kernels_match_oracles_on_repetitive_text(a in repetitive(), b in repetitive()) {
            check_against_oracles(&a, &b)?;
        }

        #[test]
        fn kernels_match_oracles_on_edited_copies(pair in edited_pair()) {
            check_against_oracles(&pair.0, &pair.1)?;
        }
    }

    #[test]
    fn kernels_match_oracles_at_block_edges() {
        let base: String = "the quick brown fox jumps over the lazy dog é 中 "
            .chars()
            .cycle()
            .take(200)
            .collect();
        for la in [0, 1, 63, 64, 65, 127, 128, 129, 192, 200] {
            for lb in [0, 1, 63, 64, 65, 127, 128, 129, 192, 200] {
                let a: String = base.chars().take(la).collect();
                let b: String = base.chars().skip(3).take(lb).collect();
                check_against_oracles(&a, &b).unwrap();
                let shifted: String = a.chars().rev().collect();
                check_against_oracles(&shifted, &b).unwrap();
            }
        }
    }

    #[test]
    fn levenshtein_known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_similarity_bounds() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_known_values() {
        assert!(approx(jaro("martha", "marhta"), 0.944_444_444_444_444_4));
        assert!(approx(jaro("dixon", "dicksonx"), 0.766_666_666_666_666_7));
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefix() {
        let jw = jaro_winkler("martha", "marhta");
        assert!(approx(jw, 0.961_111_111_111_111_1));
        assert!(jaro_winkler("prefixed", "prefixing") > jaro("prefixed", "prefixing"));
        assert!(jaro_winkler("abc", "abc") == 1.0);
    }

    #[test]
    fn jaccard_set_semantics() {
        let a = vec!["a", "b", "b", "c"];
        let b = vec!["b", "c", "d"];
        assert!(approx(jaccard(&a, &b), 0.5)); // {a,b,c} vs {b,c,d}: 2/4
        assert_eq!(jaccard::<&str>(&[], &[]), 1.0);
        assert_eq!(jaccard(&["x"], &[]), 0.0);
    }

    #[test]
    fn sorted_id_kernels_match_hashset_kernels_bitwise() {
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[]),
            (&[1], &[]),
            (&[0, 1, 2], &[1, 2, 3]),
            (&[0, 1, 2], &[0, 1, 2]),
            (&[5, 9], &[1, 2, 3, 4]),
            (&[2], &[0, 1, 2, 3, 4, 5]),
        ];
        for (a, b) in cases {
            assert_eq!(
                jaccard_sorted_ids(a, b).to_bits(),
                jaccard(a, b).to_bits(),
                "jaccard {a:?} vs {b:?}"
            );
            assert_eq!(
                overlap_sorted_ids(a, b).to_bits(),
                overlap_coefficient(a, b).to_bits(),
                "overlap {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn overlap_and_dice() {
        let a = vec![1, 2, 3];
        let b = vec![2, 3, 4, 5];
        assert!(approx(overlap_coefficient(&a, &b), 2.0 / 3.0));
        assert!(approx(dice(&a, &b), 4.0 / 7.0));
        assert_eq!(overlap_coefficient::<i32>(&[], &[]), 1.0);
    }

    #[test]
    fn qgram_jaccard_detects_typos_gracefully() {
        let clean = qgram_jaccard("panasonic", "panasonic", 3);
        let typo = qgram_jaccard("panasonic", "panasonik", 3);
        let other = qgram_jaccard("panasonic", "sony", 3);
        assert_eq!(clean, 1.0);
        assert!(typo > other);
        assert!(typo > 0.4);
    }

    #[test]
    fn monge_elkan_favours_token_permutations() {
        let a: Vec<String> = ["sony", "headphones"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let b: Vec<String> = ["headphones", "sony"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(approx(monge_elkan_sym(&a, &b), 1.0));
        let c: Vec<String> = ["bose", "speaker"].iter().map(|s| s.to_string()).collect();
        assert!(monge_elkan_sym(&a, &c) < 0.8);
    }

    #[test]
    fn monge_elkan_empty_cases() {
        let e: Vec<String> = vec![];
        let x: Vec<String> = vec!["a".into()];
        assert_eq!(monge_elkan(&e, &e), 1.0);
        assert_eq!(monge_elkan(&e, &x), 0.0);
        assert_eq!(monge_elkan(&x, &e), 0.0);
    }

    #[test]
    fn lcs_known() {
        assert_eq!(lcs_len(&['a', 'b', 'c', 'd'], &['a', 'x', 'c', 'y']), 2);
        assert_eq!(lcs_len::<char>(&[], &['a']), 0);
        let a = ["the", "quick", "fox"];
        let b = ["the", "slow", "quick", "brown", "fox"];
        assert_eq!(lcs_len(&a, &b), 3);
    }

    #[test]
    fn numeric_similarity_treats_non_finite_parses_as_text() {
        for cell in ["Nan", "Infinity", "inf", "-inf", "1e400"] {
            assert_eq!(numeric_or_string_similarity(cell, cell), 1.0, "{cell:?}");
        }
        assert_eq!(numeric_or_string_similarity("Nan", "Nab"), 1.0 - 1.0 / 3.0);
        let numeric = (1.0 - (499.0f64 - 489.0).abs() / 499.0).max(0.0);
        assert_eq!(
            numeric_or_string_similarity("499", "489").to_bits(),
            numeric.to_bits()
        );
    }

    #[test]
    fn numeric_similarity_compares_magnitudes() {
        assert!(approx(numeric_or_string_similarity("100", "100"), 1.0));
        assert!(approx(numeric_or_string_similarity("100", "50"), 0.5));
        assert!(numeric_or_string_similarity("100", "1000") < 0.2);
        assert_eq!(numeric_or_string_similarity("0", "0"), 1.0);
        // Non-numeric falls back to string similarity.
        assert!(numeric_or_string_similarity("red", "redd") > 0.7);
    }
}
