//! The two kinds of hash the workspace uses.
//!
//! * **Stable content hashes** (FNV-1a) for the serving layer's
//!   content-addressed stores. A cache key must be a pure function of
//!   the request *content* and stay stable across processes, platforms
//!   and releases — Rust's `std::hash` is explicitly none of those
//!   (SipHash is randomly keyed per process). This module provides
//!   128-bit FNV-1a over bytes, plus [`stable_key`] which hashes a
//!   [`Json`] document's canonical serialization (the `simcore::json`
//!   writer is deterministic: insertion-ordered keys, exact integer
//!   formatting), so two structurally identical documents always
//!   produce the same 32-hex-digit key.
//!
//!   128 bits makes accidental collisions astronomically unlikely at
//!   any realistic store size (the 64-bit variant in [`crate::fault`]
//!   is for seed mixing, where collisions are harmless). The serving
//!   tests plant a deliberately truncated key to prove the propcheck
//!   identity suite *detects* a colliding key function — see
//!   `crates/serve/tests/cache_identity.rs`.
//! * **[`LineHasher`]**, an unkeyed multiplicative hasher for the
//!   simulator's in-process tables keyed by line address ([`LineMap`]).
//!   It costs one multiply per key, where the default SipHash costs
//!   tens of cycles on the replay's hottest path. It is for in-process
//!   tables only and must never key anything persisted: its values are
//!   not part of any format, and nothing may depend on the iteration
//!   order of a table built with it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::LineAddr;
use crate::json::Json;

/// FNV-1a 128-bit offset basis.
pub const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
pub const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a over raw bytes.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// A 128-bit hash as 32 lowercase hex digits (fixed width, zero
/// padded — store keys must sort and compare as plain strings).
pub fn hex128(h: u128) -> String {
    format!("{h:032x}")
}

/// The stable key of a JSON document: [`fnv1a128`] over its compact
/// canonical serialization, rendered as 32 hex digits.
pub fn stable_key(doc: &Json) -> String {
    hex128(fnv1a128(doc.to_string().as_bytes()))
}

/// Odd multiplier of [`LineHasher`]: 2^64 divided by the golden ratio
/// (Fibonacci hashing), so consecutive keys spread over the high bits.
const LINE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// An unkeyed multiplicative hasher for line addresses: one multiply
/// per `write_u64`, with the high half of the product folded into the
/// low half. hashbrown takes its bucket index from the low bits and
/// its tag byte from the top 7 bits, so both halves must vary with the
/// key (`line_hasher_spreads_low_and_top_bits` checks this).
///
/// In-process tables only: see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(LINE_MUL);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by line address, hashed with [`LineHasher`].
/// Build one with `LineMap::default()`.
pub type LineMap<V> = HashMap<LineAddr, V, BuildHasherDefault<LineHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors for 128-bit FNV-1a (computed from the
    /// published offset basis and prime; the empty input must hash to
    /// the offset basis by definition).
    #[test]
    fn fnv1a128_matches_reference_vectors() {
        assert_eq!(fnv1a128(b""), FNV128_OFFSET);
        // One octet: (offset ^ 'a') * prime.
        let expected_a = (FNV128_OFFSET ^ b'a' as u128).wrapping_mul(FNV128_PRIME);
        assert_eq!(fnv1a128(b"a"), expected_a);
        // Avalanche sanity: near-identical inputs diverge.
        assert_ne!(fnv1a128(b"abc"), fnv1a128(b"abd"));
        assert_ne!(fnv1a128(b"abc"), fnv1a128(b"abc\0"));
    }

    #[test]
    fn hex128_is_fixed_width_lowercase() {
        assert_eq!(hex128(0), "0".repeat(32));
        assert_eq!(hex128(0xff), format!("{}ff", "0".repeat(30)));
        let h = hex128(fnv1a128(b"lu"));
        assert_eq!(h.len(), 32);
        assert!(h
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
    }

    #[test]
    fn stable_key_depends_on_structure_not_identity() {
        let a = Json::obj().with("app", "lu").with("cluster", 4u32);
        let b = Json::obj().with("app", "lu").with("cluster", 4u32);
        assert_eq!(stable_key(&a), stable_key(&b));
        // Key order matters (canonical = insertion order): a document
        // built differently is a different request.
        let swapped = Json::obj().with("cluster", 4u32).with("app", "lu");
        assert_ne!(stable_key(&a), stable_key(&swapped));
        let other = Json::obj().with("app", "lu").with("cluster", 8u32);
        assert_ne!(stable_key(&a), stable_key(&other));
    }

    fn line_hash(line: LineAddr) -> u64 {
        let mut h = LineHasher::default();
        h.write_u64(line);
        h.finish()
    }

    /// An identity or low-quality hash would put every strided line
    /// in one hashbrown bucket group (low 12 bits) or give them one tag
    /// byte (top 7 bits); either slows replay without changing a
    /// result, so this is the only place the regression would show.
    #[test]
    fn line_hasher_spreads_low_and_top_bits() {
        let distinct = |keys: &mut dyn Iterator<Item = LineAddr>| {
            let mut low = std::collections::BTreeSet::new();
            let mut top = std::collections::BTreeSet::new();
            for k in keys {
                let h = line_hash(k);
                low.insert(h & 0xfff);
                top.insert(h >> 57);
            }
            (low.len(), top.len())
        };
        let (low, top) = distinct(&mut (0..65_536u64));
        assert!(low >= 64 && top >= 64, "sequential: {low} low, {top} top");
        for k in 6..20 {
            let (low, top) = distinct(&mut (0..65_536u64).map(|i| i << k));
            assert!(
                low >= 64 && top >= 64,
                "stride 1<<{k}: {low} low, {top} top"
            );
        }
    }
}
