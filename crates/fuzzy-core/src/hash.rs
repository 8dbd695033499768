//! A fast hasher for maps keyed by [`Value`](crate::Value)s.
//!
//! Answer dedup, aggregate groups, and `GROUP BY` all hash short keys made of
//! a one-byte tag plus one to four `f64` bit patterns (or a short string).
//! std's default SipHash spends most of its time on finalization rounds for
//! keys that small. [`ValueHashBuilder`] replaces it with a multiply-mix
//! state update per written word and one avalanche step in `finish`. The
//! avalanche matters: crisp integer-valued `f64`s have all-zero low mantissa
//! bits, and without a final mix those bits would pick the bucket.
//!
//! The builder is seeded once per process from std's `RandomState`, so hash
//! orders stay randomized across runs exactly like std's default maps; no
//! caller may depend on iteration order.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds [`ValueHasher`]s sharing one per-process random seed.
#[derive(Debug, Clone, Copy)]
pub struct ValueHashBuilder {
    seed: u64,
}

impl Default for ValueHashBuilder {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        ValueHashBuilder { seed: *SEED.get_or_init(|| RandomState::new().hash_one(MUL)) }
    }
}

impl BuildHasher for ValueHashBuilder {
    type Hasher = ValueHasher;

    fn build_hasher(&self) -> ValueHasher {
        ValueHasher { state: self.seed }
    }
}

/// Multiply-mix hasher with a final avalanche (see the module docs).
#[derive(Debug, Clone)]
pub struct ValueHasher {
    state: u64,
}

impl ValueHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(26) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for ValueHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    /// The murmur3 64-bit finalizer over the mixed state.
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Trapezoid, Value};
    use std::collections::HashSet;

    #[test]
    fn equal_values_hash_equal_and_crisp_integers_spread() {
        let b = ValueHashBuilder::default();
        assert_eq!(b.hash_one(Value::number(0.0)), b.hash_one(Value::number(-0.0)));
        let t = Trapezoid::new(1.0, 2.0, 3.0, 4.0).unwrap();
        assert_eq!(b.hash_one(Value::fuzzy(t)), b.hash_one(Value::fuzzy(t)));
        assert_eq!(b.hash_one(vec![Value::text("ann")]), b.hash_one([Value::text("ann")]));
        // Integer-valued floats share their low bits; the avalanche must
        // still spread them over the low bits that pick a bucket.
        let low: HashSet<u64> =
            (0..1024).map(|i| b.hash_one(Value::number(i as f64)) & 1023).collect();
        assert!(low.len() > 500, "only {} distinct low-bit patterns", low.len());
    }

    #[test]
    fn builders_share_the_process_seed() {
        let (a, b) = (ValueHashBuilder::default(), ValueHashBuilder::default());
        assert_eq!(a.hash_one(Value::text("x")), b.hash_one(Value::text("x")));
    }
}
