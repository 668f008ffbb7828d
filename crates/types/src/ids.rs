//! Identifier newtypes used across the system.
//!
//! Every identifier is a transparent wrapper around an unsigned integer so it
//! is `Copy`, hashable and cheap, while keeping object ids, transaction ids,
//! versions and client ids statically distinct (C-NEWTYPE).

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of every id-keyed map: one 64×64→128-bit multiply by the
/// Fibonacci constant, folded (high half xor low half) so that both the low
/// bits (hashbrown's bucket index) and the top 7 bits (its control tag)
/// depend on every bit of the id. Several words (a tuple key) chain through
/// the state.
///
/// Not collision-resistant: ids are operator-assigned integers inside one
/// trust domain (see "Why the id maps do not use SipHash" in
/// `docs/ARCHITECTURE.md`). A deployment that exposes client-chosen ids swaps
/// the `BuildHasher` in [`IdMap`] / [`IdSet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// Keys that are not `u64`/`u32` words (none on the serving path).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by an id newtype (or a tuple of them), hashed with
/// [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of id newtypes, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Identifier of a database object (a key in the key-value store).
///
/// Objects in the evaluation workloads are numbered `0..n`, matching the
/// paper's synthetic workloads ("2000 objects numbered 0 through 1999").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Returns the raw numeric id.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

impl From<usize> for ObjectId {
    fn from(v: usize) -> Self {
        ObjectId(v as u64)
    }
}

/// A totally ordered object version.
///
/// The database tags each object with the version of the transaction that
/// most recently updated it; the version of a transaction is chosen larger
/// than the versions of all objects it accessed (§III-A).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Version(pub u64);

impl Version {
    /// The version of an object that has never been written by any
    /// transaction (its initial load).
    pub const INITIAL: Version = Version(0);

    /// Returns the next version (used by the database version clock).
    #[must_use]
    #[inline]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }

    /// Returns the maximum of two versions.
    #[must_use]
    #[inline]
    pub fn max(self, other: Version) -> Version {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns `true` if this version is strictly newer than `other`.
    #[inline]
    pub fn is_newer_than(self, other: Version) -> bool {
        self.0 > other.0
    }

    /// Returns the raw numeric version.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Version {
    fn from(v: u64) -> Self {
        Version(v)
    }
}

/// Identifier of a transaction (update or read-only).
///
/// Read-only transactions pass their `TxnId` with every cache read so the
/// cache can associate reads belonging to the same transaction (§III-B).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Returns the raw numeric id.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for TxnId {
    fn from(v: u64) -> Self {
        TxnId(v)
    }
}

/// Identifier of a cache server.
///
/// The evaluation simulates a single "column" (one cache, one database), but
/// the types support multiple caches since cache-serializability is defined
/// per cache server.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CacheId(pub u32);

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache{}", self.0)
    }
}

impl From<u32> for CacheId {
    fn from(v: u32) -> Self {
        CacheId(v)
    }
}

/// Identifier of a client (an update client talking to the database or a
/// read-only client talking to a cache).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

impl From<u32> for ClientId {
    fn from(v: u32) -> Self {
        ClientId(v)
    }
}

// Manual serde impls over the workspace's serde shim: the id newtypes
// serialize as their raw integer, matching how real serde treats
// transparent newtype structs.
macro_rules! impl_id_serde {
    ($($t:ty),*) => {$(
        impl serde::Serialize for $t {
            fn to_json(&self) -> serde::json::Json {
                serde::json::Json::U64(self.0 as u64)
            }
        }
        impl serde::Deserialize for $t {
            fn from_json(value: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
                match value {
                    serde::json::Json::U64(n) => Ok(Self(
                        (*n).try_into()
                            .map_err(|_| serde::json::JsonError::shape("id out of range"))?,
                    )),
                    _ => Err(serde::json::JsonError::shape("expected an integer id")),
                }
            }
        }
    )*};
}

impl_id_serde!(ObjectId, Version, TxnId, CacheId, ClientId);

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn version_ordering_and_next() {
        let v1 = Version(1);
        let v2 = v1.next();
        assert_eq!(v2, Version(2));
        assert!(v2 > v1);
        assert!(v2.is_newer_than(v1));
        assert!(!v1.is_newer_than(v2));
        assert!(!v1.is_newer_than(v1));
        assert_eq!(v1.max(v2), v2);
        assert_eq!(v2.max(v1), v2);
    }

    #[test]
    fn initial_version_is_oldest() {
        assert!(Version(1).is_newer_than(Version::INITIAL));
        assert_eq!(Version::INITIAL.next(), Version(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId(7).to_string(), "o7");
        assert_eq!(Version(3).to_string(), "v3");
        assert_eq!(TxnId(9).to_string(), "t9");
        assert_eq!(CacheId(1).to_string(), "cache1");
        assert_eq!(ClientId(2).to_string(), "client2");
    }

    #[test]
    fn conversions() {
        assert_eq!(ObjectId::from(5u64), ObjectId(5));
        assert_eq!(ObjectId::from(5usize), ObjectId(5));
        assert_eq!(Version::from(5u64), Version(5));
        assert_eq!(TxnId::from(5u64), TxnId(5));
        assert_eq!(CacheId::from(5u32), CacheId(5));
        assert_eq!(ClientId::from(5u32), ClientId(5));
        assert_eq!(ObjectId(5).as_u64(), 5);
        assert_eq!(Version(5).as_u64(), 5);
        assert_eq!(TxnId(5).as_u64(), 5);
    }

    #[test]
    fn ids_are_hashable_and_usable_as_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(ObjectId(1), Version(1));
        m.insert(ObjectId(2), Version(2));
        assert_eq!(m[&ObjectId(1)], Version(1));
        assert_eq!(m.len(), 2);
    }

    /// An identity "hasher" (what a naive integer hasher would be), to show
    /// the distribution checks below are not vacuous.
    #[derive(Default)]
    struct IdentityHasher(u64);

    impl Hasher for IdentityHasher {
        fn write_u64(&mut self, word: u64) {
            self.0 = word;
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("id keys hash as u64 words");
        }
        fn finish(&self) -> u64 {
            self.0
        }
    }

    /// The stripe `Striped` (crates/cache/src/stripe.rs) routes `key` to,
    /// with 16 stripes. It multiplies by the same constant as [`IdHasher`],
    /// so the keys of one stripe share four bits of that product.
    fn stripe_of(key: u64) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & 15) as usize
    }

    /// The key families the workloads produce.
    fn key_families() -> Vec<(&'static str, Vec<u64>)> {
        let strided = |stride: u64| (0..100_000u64).map(|i| i * stride).collect::<Vec<_>>();
        vec![
            ("dense", strided(1)),
            ("stride 16", strided(16)),
            ("stride 1024", strided(1024)),
            ("stride 2^32", strided(1 << 32)),
            ("txn ids from 2^62", (0..100_000u64).map(|i| (1 << 62) + i).collect()),
        ]
    }

    /// Pearson's χ² of `hashes` over `buckets` buckets selected by
    /// `(hash >> shift) & (buckets - 1)`, divided by its degrees of freedom
    /// (≈ 1 for a uniform random assignment, 0 for a perfectly even one).
    fn chi2_per_dof(hashes: &[u64], shift: u32, buckets: usize) -> f64 {
        let mut counts = vec![0u64; buckets];
        for h in hashes {
            counts[((h >> shift) as usize) & (buckets - 1)] += 1;
        }
        let expected = hashes.len() as f64 / buckets as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        chi2 / (buckets - 1) as f64
    }

    /// Every (family, stripe, bit range) whose hashes are further from
    /// uniform than `χ²/dof = 1.5` — over 6 000 keys per stripe a random
    /// assignment stays below 1.1 on the 1024 bucket-index values and below
    /// 1.4 on the 128 tag values.
    fn skewed_cases<H: Hasher + Default>() -> Vec<String> {
        let build = BuildHasherDefault::<H>::default();
        let mut skewed = Vec::new();
        for (family, keys) in key_families() {
            let mut per_stripe = vec![Vec::new(); 16];
            for key in keys {
                per_stripe[stripe_of(key)].push(build.hash_one(ObjectId(key)));
            }
            for (stripe, hashes) in per_stripe.iter().enumerate() {
                assert!(hashes.len() > 5_000, "{family}: stripe {stripe} is starved");
                for (bits, shift, buckets) in [("low 10", 0, 1024), ("top 7", 57, 128)] {
                    let x = chi2_per_dof(hashes, shift, buckets);
                    if x > 1.5 {
                        skewed.push(format!("{family} / stripe {stripe} / {bits} bits: {x:.1}"));
                    }
                }
            }
        }
        skewed
    }

    #[test]
    fn id_hasher_is_near_uniform_within_every_stripe() {
        let skewed = skewed_cases::<IdHasher>();
        assert!(skewed.is_empty(), "skewed: {skewed:#?}");
    }

    #[test]
    fn an_identity_hasher_fails_the_uniformity_check() {
        let skewed = skewed_cases::<IdentityHasher>().join("\n");
        // Small ids have no high bits: every tag is 0, whatever the stripe.
        assert!(skewed.contains("dense / stripe 0 / top 7 bits"), "{skewed}");
        // Strided ids have no low bits: every key lands in bucket 0.
        assert!(skewed.contains("stride 1024 / stripe 0 / low 10 bits"), "{skewed}");
        assert!(skewed.contains("stride 2^32 / stripe 0 / low 10 bits"), "{skewed}");
    }

    #[test]
    fn tuple_keys_mix_both_words() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let by_version: Vec<u64> = (0..20_000u64)
            .map(|v| build.hash_one((ObjectId(7), Version(v))))
            .collect();
        let by_object: Vec<u64> = (0..20_000u64)
            .map(|o| build.hash_one((ObjectId(o), Version(7))))
            .collect();
        for hashes in [&by_version, &by_object] {
            assert!(chi2_per_dof(hashes, 0, 1024) < 1.5);
            assert!(chi2_per_dof(hashes, 57, 128) < 1.5);
        }
        // Order matters: (a, b) and (b, a) are different keys.
        let swapped = (0..1_000u64)
            .filter(|&i| {
                build.hash_one((ObjectId(i), Version(i + 1)))
                    == build.hash_one((ObjectId(i + 1), Version(i)))
            })
            .count();
        assert_eq!(swapped, 0);
    }

    #[test]
    fn id_maps_behave_like_hash_maps() {
        let mut map: IdMap<TxnId, u32> = IdMap::default();
        let mut set: IdSet<ObjectId> = IdSet::default();
        for i in 0..1_000u64 {
            map.insert(TxnId((1 << 62) + i), i as u32);
            set.insert(ObjectId(i * 1024));
        }
        assert_eq!((map.len(), set.len()), (1_000, 1_000));
        assert_eq!(map[&TxnId((1 << 62) + 999)], 999);
        assert!(set.contains(&ObjectId(1024)) && !set.contains(&ObjectId(1)));
        assert_eq!(map.remove(&TxnId(1 << 62)), Some(0));
        // u32 ids and byte-slice keys go through the same mix.
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_ne!(build.hash_one(CacheId(1)), build.hash_one(CacheId(2)));
        assert_ne!(build.hash_one("a"), build.hash_one("b"));
    }

    #[test]
    fn serde_round_trip() {
        let o = ObjectId(42);
        let s = serde_json::to_string(&o).unwrap();
        let back: ObjectId = serde_json::from_str(&s).unwrap();
        assert_eq!(o, back);
    }
}
