//! Stable content fingerprints for plan-cache keys.
//!
//! The staged compile pipeline caches `ExecutionPlan`s keyed on the exact
//! *content* of its three inputs — model IR, cluster, planner config. Rust's
//! default `Hash`/`SipHash` pair is unsuitable for that key: it is randomly
//! seeded per process, so fingerprints would not be stable across runs, and
//! `f64` (ubiquitous in the cost model) does not implement `Hash` at all.
//! This crate provides the one primitive the cache needs instead: an
//! explicit, seed-free FNV-1a accumulator with typed `push_*` methods, the
//! same FNV used by the planner's `EstimateCache` (collision-attack
//! resistance buys nothing against keys we produce ourselves).
//!
//! Conventions that keep fingerprints honest:
//!
//! * every variable-length sequence is prefixed with its length
//!   ([`Fingerprinter::push_len`]) so `["ab","c"]` and `["a","bc"]` differ;
//! * enums push a discriminant tag before their payload;
//! * floats hash their IEEE bit pattern ([`Fingerprinter::push_f64`]), so
//!   `0.45` and `0.4500000001` differ and `-0.0 != 0.0` (exactness matters
//!   more than float-equality semantics for cache keys);
//! * `Option`s push a presence byte first.
//!
//! # Examples
//!
//! ```
//! use whale_fp::Fingerprinter;
//!
//! let mut a = Fingerprinter::new("cluster");
//! a.push_u64(16).push_f64(15.7e12).push_str("V100-32GB");
//! let mut b = Fingerprinter::new("cluster");
//! b.push_u64(16).push_f64(15.7e12).push_str("V100-32GB");
//! assert_eq!(a.finish(), b.finish());
//!
//! let mut c = Fingerprinter::new("cluster");
//! c.push_u64(16).push_f64(9.3e12).push_str("V100-32GB");
//! assert_ne!(a.finish(), c.finish());
//! ```

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// A 64-bit content fingerprint. Stable across processes, platforms, and
/// builds: it depends only on the byte stream pushed into the
/// [`Fingerprinter`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a accumulator with typed push methods.
///
/// Construction takes a domain tag so fingerprints of different *kinds* of
/// objects never collide by construction (`Fingerprinter::new("graph")` and
/// `Fingerprinter::new("cluster")` diverge before the first push).
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    state: u64,
}

impl Fingerprinter {
    /// Start a fingerprint in the given domain (e.g. `"graph"`,
    /// `"cluster"`, `"planner-config"`).
    pub fn new(domain: &str) -> Fingerprinter {
        let mut fp = Fingerprinter { state: FNV_OFFSET };
        fp.push_str(domain);
        fp
    }

    /// Feed raw bytes.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
        self
    }

    /// Feed a `u64` (little-endian bytes).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Feed a `usize` widened to `u64` so 32- and 64-bit builds agree.
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.push_u64(v as u64)
    }

    /// Feed an `f64` as its IEEE-754 bit pattern.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// Feed a boolean as one byte.
    pub fn push_bool(&mut self, v: bool) -> &mut Self {
        self.push_bytes(&[v as u8])
    }

    /// Feed a string: length prefix, then UTF-8 bytes.
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes())
    }

    /// Feed a sequence-length prefix (call before iterating the sequence).
    pub fn push_len(&mut self, len: usize) -> &mut Self {
        self.push_u64(len as u64)
    }

    /// Feed an enum discriminant tag (call before the variant payload).
    pub fn push_tag(&mut self, tag: u8) -> &mut Self {
        self.push_bytes(&[tag])
    }

    /// Feed a nested, already-finished fingerprint.
    pub fn push_fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        self.push_u64(fp.0)
    }

    /// Finalize. The accumulator is unchanged, so pushes can continue and a
    /// later `finish` yields the extended fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Fingerprinter::new("t");
        a.push_u64(1).push_str("x").push_f64(0.5);
        let mut b = Fingerprinter::new("t");
        b.push_u64(1).push_str("x").push_f64(0.5);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn domains_separate() {
        let a = Fingerprinter::new("graph").finish();
        let b = Fingerprinter::new("cluster").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = Fingerprinter::new("t");
        a.push_str("ab").push_str("c");
        let mut b = Fingerprinter::new("t");
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn float_bits_distinguish_near_values() {
        let mut a = Fingerprinter::new("t");
        a.push_f64(0.45);
        let mut b = Fingerprinter::new("t");
        b.push_f64(0.45 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn single_bit_flip_changes_fingerprint() {
        let mut a = Fingerprinter::new("t");
        a.push_u64(0b1000);
        let mut b = Fingerprinter::new("t");
        b.push_u64(0b1001);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Fingerprint(0xdead_beef).to_string(), "00000000deadbeef");
    }

    #[test]
    fn finish_is_non_consuming_and_extendable() {
        let mut fp = Fingerprinter::new("t");
        fp.push_u64(1);
        let first = fp.finish();
        fp.push_u64(2);
        let second = fp.finish();
        assert_ne!(first, second);
        assert_eq!(fp.finish(), second);
    }
}
