//! Byte-string hashing and shard routing built on [`SplitMix64`].
//!
//! The KV service partitions its keyspace over N independent engines;
//! both the shard choice and the in-shard hash-table key are derived
//! from the same byte string, so the two hashes use *different* seeds —
//! otherwise every key landing on shard `s` would share low bits and
//! pile into a fraction of the shard's buckets.
//!
//! [`hash_bytes`] folds the input 8 bytes at a time through one
//! SplitMix64 step per chunk. That is one multiply-xor-shift mix per 8
//! bytes — not a cryptographic hash, but avalanche-quality distribution
//! for hash tables, and deterministic across platforms and runs (the
//! property every figure in this repository depends on).
//!
//! [`SplitMix64`]: crate::rng::SplitMix64

use crate::rng::{Rng, SplitMix64};

/// Seed for routing a key to a shard.
pub const SHARD_SEED: u64 = 0x5348_4152_445f_5345; // "SHARD_SE"

/// Seed for hashing a key within a shard's table.
pub const KEY_SEED: u64 = 0x4b45_595f_5345_4544; // "KEY_SEED"

/// Hashes `bytes` to a `u64` under `seed`. Distinct seeds give
/// independent hash functions of the same input.
#[must_use]
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    // Mix the length in up front so prefixes of each other ("a" vs
    // "a\0") cannot collide via the zero-padding of the last chunk.
    let mut h = SplitMix64::new(seed ^ (bytes.len() as u64)).next_u64();
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = SplitMix64::new(h ^ u64::from_le_bytes(w)).next_u64();
    }
    h
}

/// Routes `key` to a shard in `0..shards`.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    assert!(shards > 0, "shard_of requires at least one shard");
    // Multiply-shift map of the full 64-bit hash onto 0..shards: unlike
    // `h % shards` it uses the high bits, which are the best-mixed.
    (((hash_bytes(SHARD_SEED, key) as u128) * (shards as u128)) >> 64) as usize
}

/// Hashes `key` for use as a `u64` hash-table key inside a shard.
#[must_use]
pub fn table_key(key: &[u8]) -> u64 {
    hash_bytes(KEY_SEED, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_separated() {
        assert_eq!(hash_bytes(1, b"hello"), hash_bytes(1, b"hello"));
        assert_ne!(hash_bytes(1, b"hello"), hash_bytes(2, b"hello"));
        assert_ne!(
            hash_bytes(SHARD_SEED, b"hello"),
            hash_bytes(KEY_SEED, b"hello")
        );
    }

    #[test]
    fn empty_and_prefix_keys_are_distinct() {
        let _ = hash_bytes(SHARD_SEED, b""); // must not panic
        assert_ne!(hash_bytes(0, b"a"), hash_bytes(0, b"a\0"));
        assert_ne!(hash_bytes(0, b""), hash_bytes(0, b"\0"));
    }

    #[test]
    fn shards_are_roughly_balanced() {
        let shards = 8;
        let mut counts = vec![0u32; shards];
        for i in 0..80_000u32 {
            counts[shard_of(format!("user:{i}").as_bytes(), shards)] += 1;
        }
        for &c in &counts {
            // Expected 10 000 per shard; a proper hash stays within ±10%.
            assert!((9_000..11_000).contains(&c), "skewed shards: {counts:?}");
        }
    }

    #[test]
    fn single_shard_always_routes_to_zero() {
        assert_eq!(shard_of(b"anything", 1), 0);
    }

    #[test]
    fn table_keys_spread_within_one_shard() {
        // Keys that all route to one shard must still get well-spread
        // table keys (the reason KEY_SEED differs from SHARD_SEED).
        let shards = 8;
        let mut low_bits = std::collections::HashSet::new();
        let mut n = 0;
        for i in 0..10_000u32 {
            let key = format!("k{i}");
            if shard_of(key.as_bytes(), shards) == 0 {
                low_bits.insert(table_key(key.as_bytes()) & 0xFF);
                n += 1;
            }
        }
        assert!(n > 500, "sample too small: {n}");
        assert!(low_bits.len() > 200, "table keys collide in low bits");
    }
}
