//! A minimal Fx-style multiplicative hasher for integer keys.
//!
//! The traffic-matrix hot path hashes `(src, dst)` rank pairs millions of
//! times; SipHash (the std default) is needlessly slow for trusted integer
//! keys. This is the well-known FxHash word-mixing scheme, implemented
//! locally to keep the dependency set to the approved list.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx multiplier (a truncation of π's golden-ratio constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-mixing hasher; only suitable for trusted (non-adversarial) keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(hash_of(&(3u32, 5u32)), hash_of(&(3u32, 5u32)));
    }

    #[test]
    fn different_keys_usually_differ() {
        let a = hash_of(&(1u64 << 32 | 2));
        let b = hash_of(&(2u64 << 32 | 1));
        assert_ne!(a, b);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i as u64);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(500, 501)], 500);
    }

    #[test]
    fn byte_stream_hashing_covers_tail() {
        // 9 bytes exercises the partial-chunk path.
        let a = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9]);
        let b = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a, b);
    }
}
