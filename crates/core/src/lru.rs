//! A deterministic bounded map with least-recently-*written* eviction.
//!
//! The engine's per-client bookkeeping (the request-dedup table, the
//! runtime's last-reply cache) is unbounded in the paper prototype: one
//! entry per client that ever issued a request. [`LruMap`] bounds it with
//! a capacity knob while preserving the property the rest of the stack
//! depends on: **eviction is a deterministic function of the insert
//! sequence**. Every insert gets a unique monotone stamp; when the map
//! exceeds its capacity the entry with the *smallest* stamp is evicted.
//! Stamps are unique, so there are no ties —
//! two replicas that perform the same inserts in the same order evict the
//! same keys, regardless of hash-map iteration order. That is what keeps
//! the checkpoint-certified dedup table identical across correct replicas
//! when a cap is set.
//!
//! Reads are deliberately *non-touching* (`get` does not refresh the
//! stamp): a dedup lookup on a retransmitted request must not perturb the
//! eviction order, because retransmission timing is not part of the
//! replicated state.

use std::hash::Hash;

use ubft_types::{FixedMap, FixedState};

/// Bounded map with deterministic least-recently-written eviction.
/// See the module docs for the eviction contract.
#[derive(Clone, Debug)]
pub struct LruMap<K, V> {
    map: FixedMap<K, (V, u64)>,
    cap: Option<usize>,
    clock: u64,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// An empty map. `cap = None` never evicts (today's unbounded
    /// behavior); `Some(c)` holds at most `c` entries. The keys
    /// are clients' to choose, so `hasher` should be keyed
    /// ([`FixedState::keyed`]).
    pub fn new(cap: Option<usize>, hasher: FixedState) -> Self {
        LruMap { map: FixedMap::with_hasher(hasher), cap, clock: 0 }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Non-touching lookup: does not refresh the entry's recency.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k).map(|(v, _)| v)
    }

    /// Resident entries in arbitrary order (callers sort canonically).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (v, _))| (k, v))
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Inserts (or overwrites) `k`, stamping it most recent, then evicts
    /// the least-recently-written entry if the map exceeds capacity.
    /// Returns the evicted pair, if any. The freshly inserted key is never
    /// the eviction victim.
    pub fn insert(&mut self, k: K, v: V) -> Option<(K, V)> {
        self.clock += 1;
        let stamp = self.clock;
        self.map.insert(k.clone(), (v, stamp));
        let cap = self.cap?;
        if self.map.len() <= cap {
            return None;
        }
        // Deterministic victim: unique stamps mean a unique minimum, so
        // hash-map iteration order cannot influence the choice.
        let victim = self
            .map
            .iter()
            .filter(|(_, (_, s))| *s != stamp)
            .min_by_key(|(_, (_, s))| *s)
            .map(|(key, _)| key.clone())?;
        self.map.remove(&victim).map(|(v, _)| (victim, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_never_evicts() {
        let mut m = LruMap::new(None, FixedState::default());
        for i in 0..10_000u32 {
            assert!(m.insert(i, i).is_none());
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&0), Some(&0));
    }

    #[test]
    fn evicts_least_recently_written_first() {
        let mut m = LruMap::new(Some(3), FixedState::default());
        for i in 0..3u32 {
            assert!(m.insert(i, i * 10).is_none());
        }
        // Re-writing 0 refreshes it; 1 is now the oldest write.
        assert!(m.insert(0, 100).is_none());
        let evicted = m.insert(3, 30);
        assert_eq!(evicted, Some((1, 10)));
        assert_eq!(m.get(&0), Some(&100));
        assert_eq!(m.get(&2), Some(&20));
        assert_eq!(m.get(&3), Some(&30));
    }

    #[test]
    fn get_does_not_touch() {
        let mut m = LruMap::new(Some(2), FixedState::default());
        m.insert(1, 1);
        m.insert(2, 2);
        // Reading 1 must not save it: it is still the oldest write.
        assert_eq!(m.get(&1), Some(&1));
        assert_eq!(m.insert(3, 3), Some((1, 1)));
    }

    #[test]
    fn eviction_sequence_is_deterministic() {
        // Two maps fed the same insert sequence evict identically, entry
        // for entry, regardless of internal hash ordering.
        let run = || {
            let mut m = LruMap::new(Some(16), FixedState::default());
            let mut evictions = Vec::new();
            for i in 0..1000u32 {
                let k = (i * 7) % 97;
                if let Some((k, _)) = m.insert(k, i) {
                    evictions.push(k);
                }
            }
            (evictions, m.len())
        };
        assert_eq!(run(), run());
    }
}
