//! A fast, non-cryptographic hasher for hot-path maps keyed by small
//! integers (request ids, sector tags).
//!
//! The standard library's default SipHash is DoS-resistant but costs tens
//! of cycles per `u64` key; the simulator's maps are keyed by internal
//! monotone counters that no adversary controls, so the firefox-style
//! multiply-xor hash (as popularised by `rustc-hash`) is the right trade.
//! Kept in-repo because the workspace builds with no registry access.
//!
//! Iteration order over these maps differs from SipHash's — which is why
//! the engine never iterates them (lookup/insert/remove only); the
//! byte-identity suite in `tests/golden_identity.rs` pins that property.
//!
//! The engine itself keeps no hash map on its hot path (the L2 indexes
//! its MSHR table directly); what still imports this module is the
//! `benchmark/` shadow engine.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiply-xor hasher (FxHash construction).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 2^64 / phi multiplier: spreads low-entropy integer keys across
/// the high bits that `HashMap` actually indexes with.
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            let (head, tail) = rest.split_at(8);
            self.add(u64::from_le_bytes(head.try_into().expect("8-byte chunk")));
            rest = tail;
        }
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
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
}

/// `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the fast hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip_with_integer_keys() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i * 3);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        for i in (0..10_000u64).step_by(2) {
            assert_eq!(m.remove(&i), Some(i * 3));
        }
        assert_eq!(m.len(), 5_000);
    }

    #[test]
    fn sequential_keys_spread_across_buckets() {
        // The multiply must push entropy into the high bits hashbrown
        // uses; identical low-bit patterns would degenerate to a list.
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| {
                let mut h = FxHasher::default();
                h.write_u64(i);
                h.finish()
            })
            .collect();
        let mut top7: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
        top7.sort_unstable();
        top7.dedup();
        assert!(top7.len() > 16, "high bits collapse: {} distinct of 64", top7.len());
    }
}
