//! A hasher state that is the same in every process.
//!
//! `std`'s `RandomState` draws a fresh key per process, so *which* buckets a
//! map's entries land in — and with that whether a removal leaves a
//! tombstone, and so the moment the table regrows — differs from run to run.
//! Nothing observable depends on it except the allocator: the maps the
//! request path churns made allocations per request wander in the fourth
//! digit for one seed. [`FixedState`] hashes alike everywhere, so a seeded
//! run repeats to the last allocation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, DefaultHasher, Hasher};

/// A [`BuildHasher`] with a fixed 64-bit key: SipHash (`std`'s
/// [`DefaultHasher`]) over the key, then the value.
///
/// `FixedState::default()` is unkeyed: for maps whose keys the program
/// chooses itself, or that are bounded so tightly that colliding keys cost
/// nothing. A map keyed by what *clients* choose (request ids, client ids)
/// takes [`FixedState::keyed`] with a key that is secret to the process —
/// `ubft_crypto`'s `Signer::hash_state` derives one from the replica's
/// signing key — so colliding keys cannot be computed from outside.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixedState(u64);

impl FixedState {
    /// The state keyed by `key`.
    pub fn keyed(key: u64) -> Self {
        FixedState(key)
    }
}

impl BuildHasher for FixedState {
    type Hasher = DefaultHasher;

    fn build_hasher(&self) -> DefaultHasher {
        let mut hasher = DefaultHasher::new();
        hasher.write_u64(self.0);
        hasher
    }
}

/// A `HashMap` hashed by a [`FixedState`].
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;

/// A `HashSet` hashed by a [`FixedState`].
pub type FixedSet<K> = HashSet<K, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_alike_and_different_keys_apart() {
        let (a, b) = (FixedState::keyed(7), FixedState::keyed(7));
        assert_eq!(a.hash_one(42u64), b.hash_one(42u64));
        assert_ne!(a.hash_one(42u64), FixedState::keyed(8).hash_one(42u64));
        assert_ne!(a.hash_one(42u64), FixedState::default().hash_one(42u64));
    }

    #[test]
    fn two_maps_with_one_history_iterate_alike() {
        let build = || {
            let mut m: FixedMap<u64, u64> = FixedMap::default();
            for i in 0..1_000 {
                m.insert(i * 7919, i);
                if i % 3 == 0 {
                    m.remove(&((i / 2) * 7919));
                }
            }
            (m.capacity(), m.into_iter().collect::<Vec<_>>())
        };
        assert_eq!(build(), build());
    }
}
