//! A multiplicative hasher for memo maps keyed by ids the program
//! itself hands out.
//!
//! `std`'s default SipHash is keyed per map so that nobody who picks the
//! keys can make them collide. That protection costs tens of
//! nanoseconds per lookup, which the perturbation hot path pays about a
//! million times per `stream` pass. [`IdHasher`] folds each written word
//! in with one add and one multiply by an odd constant and rotates the
//! well-mixed high bits down on `finish`, where the table picks its
//! bucket.
//!
//! It is unkeyed, so it is only for keys no client chooses, such as the
//! ids an interner hands out in first-seen order. Maps keyed by text, by
//! fingerprints or by anything a request carries keep `RandomState`: an
//! unkeyed hash on attacker-chosen keys invites hash flooding.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// ⌊2⁶⁴/φ⌋, the odd Fibonacci-hashing multiplier.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// See the module docs: an unkeyed multiplicative hasher for
/// program-assigned keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` over [`IdHasher`], for program-assigned keys only.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_spread() {
        assert_eq!(hash_of(&(3u32, 9u32)), hash_of(&(3u32, 9u32)));
        // Dense id pairs, the attribute-cache key: no collisions, and the
        // low bits (the bucket index of a small table) take every value.
        let mut hashes: Vec<u64> = (0..64u32)
            .flat_map(|l| (0..64u32).map(move |r| hash_of(&(l, r))))
            .collect();
        let low: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        assert_eq!(low.len(), 256);
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64 * 64);
    }
}
