//! Seeded corruption operators that turn a clean entity description into a
//! "same entity, different source" variant — the phenomena real
//! ER-Magellan datasets exhibit: typos, abbreviations, dropped/reordered
//! tokens, rewritten units, missing attributes.

use em_rngs::rngs::StdRng;
use em_rngs::Rng;

/// Intensity knobs for the corruption pipeline (all probabilities in `[0, 1]`).
#[derive(Debug, Clone, Copy)]
pub struct CorruptionProfile {
    /// Per-token probability of a character-level typo.
    pub typo: f64,
    /// Per-token probability of abbreviating (keep a prefix + '.')-style.
    pub abbreviate: f64,
    /// Per-token probability of dropping the token entirely.
    pub drop_token: f64,
    /// Probability of shuffling adjacent token pairs once per value.
    pub swap_adjacent: f64,
    /// Per-attribute probability of nulling the whole value.
    pub null_attribute: f64,
    /// Per-numeric-token probability of small numeric jitter (e.g. price).
    pub numeric_jitter: f64,
}

impl CorruptionProfile {
    /// Mild corruption: near-duplicates (DBLP-ACM-like).
    pub fn mild() -> Self {
        CorruptionProfile {
            typo: 0.03,
            abbreviate: 0.05,
            drop_token: 0.05,
            swap_adjacent: 0.05,
            null_attribute: 0.02,
            numeric_jitter: 0.05,
        }
    }

    /// Moderate corruption (Amazon-Google-like).
    pub fn moderate() -> Self {
        CorruptionProfile {
            typo: 0.06,
            abbreviate: 0.10,
            drop_token: 0.12,
            swap_adjacent: 0.10,
            null_attribute: 0.06,
            numeric_jitter: 0.15,
        }
    }

    /// Heavy corruption: dirty sources (Abt-Buy-like textual noise).
    pub fn heavy() -> Self {
        CorruptionProfile {
            typo: 0.10,
            abbreviate: 0.15,
            drop_token: 0.20,
            swap_adjacent: 0.15,
            null_attribute: 0.12,
            numeric_jitter: 0.25,
        }
    }
}

/// Apply a character-level typo: substitution, deletion, insertion or
/// transposition, chosen uniformly. ASCII-oriented (the generators only
/// emit ASCII); non-ASCII tokens are returned unchanged.
pub fn typo(word: &str, rng: &mut StdRng) -> String {
    if word.is_empty() || !word.is_ascii() {
        return word.to_string();
    }
    let mut chars: Vec<u8> = word.as_bytes().to_vec();
    let pos = rng.gen_range(0..chars.len());
    match rng.gen_range(0..4u8) {
        0 => {
            // substitution with a nearby lowercase letter
            chars[pos] = b'a' + rng.gen_range(0..26u8);
        }
        1 => {
            if chars.len() > 1 {
                chars.remove(pos);
            }
        }
        2 => {
            chars.insert(pos, b'a' + rng.gen_range(0..26u8));
        }
        _ => {
            if pos + 1 < chars.len() {
                chars.swap(pos, pos + 1);
            } else if chars.len() > 1 {
                chars.swap(pos, pos - 1);
            }
        }
    }
    String::from_utf8(chars).unwrap_or_else(|_| word.to_string())
}

/// Abbreviate a word: keep the first 1-4 characters. Words of length ≤ 3
/// are returned unchanged.
pub fn abbreviate(word: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() <= 3 {
        return word.to_string();
    }
    let keep = rng.gen_range(1..=4.min(chars.len() - 1));
    chars[..keep].iter().collect()
}

/// Jitter a numeric token by up to ±15% (keeps integer-ness).
pub fn jitter_number(word: &str, rng: &mut StdRng) -> String {
    if let Ok(n) = word.parse::<f64>() {
        let factor = 1.0 + rng.gen_range(-0.15f64..0.15);
        let jittered = n * factor;
        if word.contains('.') {
            format!("{jittered:.2}")
        } else {
            format!("{}", jittered.round() as i64)
        }
    } else {
        word.to_string()
    }
}

/// Corrupt one attribute value according to the profile. Deterministic for
/// a given RNG state.
pub fn corrupt_value(value: &str, profile: &CorruptionProfile, rng: &mut StdRng) -> String {
    if value.is_empty() {
        return String::new();
    }
    if rng.gen_bool(profile.null_attribute.clamp(0.0, 1.0)) {
        return String::new();
    }
    let mut tokens: Vec<String> = value.split_whitespace().map(|s| s.to_string()).collect();
    // Token-level operators.
    let mut out: Vec<String> = Vec::with_capacity(tokens.len());
    for tok in tokens.drain(..) {
        if rng.gen_bool(profile.drop_token.clamp(0.0, 1.0)) && out.len() + 1 < 64 {
            continue;
        }
        let tok = if tok.chars().all(|c| c.is_ascii_digit() || c == '.')
            && rng.gen_bool(profile.numeric_jitter.clamp(0.0, 1.0))
        {
            jitter_number(&tok, rng)
        } else if rng.gen_bool(profile.abbreviate.clamp(0.0, 1.0)) {
            abbreviate(&tok, rng)
        } else if rng.gen_bool(profile.typo.clamp(0.0, 1.0)) {
            typo(&tok, rng)
        } else {
            tok
        };
        out.push(tok);
    }
    // Keep at least one token so a "match" pair retains some evidence.
    if out.is_empty() {
        if let Some(first) = value.split_whitespace().next() {
            out.push(first.to_string());
        }
    }
    if out.len() >= 2 && rng.gen_bool(profile.swap_adjacent.clamp(0.0, 1.0)) {
        let i = rng.gen_range(0..out.len() - 1);
        out.swap(i, i + 1);
    }
    out.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_rngs::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn typo_changes_but_stays_close() {
        let mut r = rng(1);
        for _ in 0..50 {
            let t = typo("panasonic", &mut r);
            assert!(em_text::levenshtein("panasonic", &t) <= 2);
        }
    }

    #[test]
    fn typo_edge_cases() {
        let mut r = rng(2);
        assert_eq!(typo("", &mut r), "");
        // Single char: never empties to zero-length via deletion guard.
        for _ in 0..20 {
            let t = typo("a", &mut r);
            assert!(!t.is_empty());
        }
        // Non-ASCII passes through.
        assert_eq!(typo("café", &mut r), "café");
    }

    #[test]
    fn abbreviate_shortens_long_words_only() {
        let mut r = rng(3);
        assert_eq!(abbreviate("tv", &mut r), "tv");
        assert_eq!(abbreviate("abc", &mut r), "abc");
        for _ in 0..20 {
            let a = abbreviate("international", &mut r);
            assert!(a.len() < "international".len());
            assert!("international".starts_with(&a));
        }
    }

    #[test]
    fn jitter_number_stays_within_15_percent() {
        let mut r = rng(4);
        for _ in 0..50 {
            let j: f64 = jitter_number("100", &mut r).parse().unwrap();
            assert!((84.0..=116.0).contains(&j), "jittered to {j}");
        }
        assert_eq!(jitter_number("abc", &mut r), "abc");
    }

    #[test]
    fn jitter_preserves_decimal_format() {
        let mut r = rng(5);
        let j = jitter_number("99.99", &mut r);
        assert!(j.contains('.'));
        assert!(j.parse::<f64>().is_ok());
    }

    #[test]
    fn corrupt_value_is_deterministic_per_seed() {
        let p = CorruptionProfile::moderate();
        let v = "sony bravia 55 inch oled tv";
        let a = corrupt_value(v, &p, &mut rng(42));
        let b = corrupt_value(v, &p, &mut rng(42));
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_value_never_empties_nonempty_input_unless_nulled() {
        let p = CorruptionProfile {
            typo: 0.5,
            abbreviate: 0.5,
            drop_token: 0.95,
            swap_adjacent: 0.5,
            null_attribute: 0.0,
            numeric_jitter: 0.5,
        };
        let mut r = rng(6);
        for _ in 0..50 {
            let c = corrupt_value("alpha beta gamma", &p, &mut r);
            assert!(!c.is_empty());
        }
    }

    #[test]
    fn null_attribute_probability_one_always_nulls() {
        let p = CorruptionProfile {
            null_attribute: 1.0,
            ..CorruptionProfile::mild()
        };
        let mut r = rng(7);
        assert_eq!(corrupt_value("anything here", &p, &mut r), "");
    }

    #[test]
    fn empty_value_stays_empty() {
        let p = CorruptionProfile::heavy();
        let mut r = rng(8);
        assert_eq!(corrupt_value("", &p, &mut r), "");
    }

    #[test]
    fn mild_profile_preserves_most_tokens() {
        let p = CorruptionProfile::mild();
        let mut r = rng(9);
        let original = "the quick brown fox jumps over the lazy dog again and again";
        let mut kept = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            let c = corrupt_value(original, &p, &mut r);
            let orig_tokens: Vec<&str> = original.split_whitespace().collect();
            let new_tokens: Vec<&str> = c.split_whitespace().collect();
            total += orig_tokens.len();
            kept += orig_tokens
                .iter()
                .filter(|t| new_tokens.contains(t))
                .count();
        }
        assert!(
            kept as f64 / total as f64 > 0.75,
            "mild should keep >75% tokens"
        );
    }

    #[test]
    fn heavy_profile_corrupts_more_than_mild() {
        let original = "alpha beta gamma delta epsilon zeta eta theta";
        let sim = |p: &CorruptionProfile, seed: u64| {
            let mut r = rng(seed);
            let mut total = 0.0;
            for _ in 0..40 {
                let c = corrupt_value(original, p, &mut r);
                total += em_text::jaccard(&em_text::tokenize(original), &em_text::tokenize(&c));
            }
            total / 40.0
        };
        assert!(sim(&CorruptionProfile::mild(), 1) > sim(&CorruptionProfile::heavy(), 1));
    }
}
