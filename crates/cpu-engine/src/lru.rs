//! The byte-bounded LRU behind all three of Griffin's cache tiers: the
//! query result cache (`griffin::rescache`), the host decoded-list cache
//! ([`crate::CpuEngine`]) and the device list cache
//! (`griffin_gpu::GpuEngine`). A tier is this LRU plus its own key, value
//! and byte formula. DESIGN.md §14 describes the policy: one stamp clock
//! and a least-recent scan, a byte budget and an optional entry bound,
//! pins, and what "off" means — an off LRU (`Default`, or a `None`
//! budget) holds nothing and counts nothing, while a budget of 0 holds
//! nothing but counts every lookup as a miss.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Hit/miss/eviction accounting of one cache tier; all three tiers export
/// it under one metric scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups the cache could not answer (never counted while it is off).
    pub misses: u64,
    /// Entries displaced by the byte or entry bound.
    pub evictions: u64,
    /// Bytes the resident entries charge against the budget.
    pub bytes_resident: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    bytes: u64,
    stamp: u64,
}

/// Byte- and optionally entry-bounded LRU. See the module docs.
#[derive(Debug, Clone)]
pub struct Lru<K, V> {
    map: HashMap<K, Entry<V>>,
    clock: u64,
    /// `None` while the LRU is off.
    budget: Option<u64>,
    max_entries: usize,
    pinned: fn(&V) -> bool,
    /// `bytes_resident` is kept live: the sum of the entries' bytes.
    stats: CacheStats,
}

/// An LRU that is off (see the module docs).
impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            clock: 0,
            budget: None,
            max_entries: usize::MAX,
            pinned: |_| false,
            stats: CacheStats::default(),
        }
    }
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An LRU holding at most `budget_bytes` bytes, with no entry bound
    /// and nothing pinned.
    pub fn new(budget_bytes: u64) -> Self {
        Lru {
            budget: Some(budget_bytes),
            ..Default::default()
        }
    }

    /// Also bounds the number of resident entries.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries;
        self
    }

    /// Never evicts an entry whose value satisfies `pinned`.
    pub fn with_pins(mut self, pinned: fn(&V) -> bool) -> Self {
        self.pinned = pinned;
        self
    }

    /// Whether the LRU is on (has a budget, possibly 0).
    pub fn is_on(&self) -> bool {
        self.budget.is_some()
    }

    /// Looks `key` up, bumping its stamp on a hit; counts a hit or a miss
    /// unless the LRU is off.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.is_on() {
            return None;
        }
        self.clock += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.stamp = self.clock;
                self.stats.hits += 1;
                Some(&e.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The value under `key`, without stamps or counts.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|e| &e.value)
    }

    /// Whether `key` is resident, without stamps or counts.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Stores `value` under `key`, charging `bytes`. Refused while off,
    /// under an entry bound of 0, or when `bytes` alone exceeds the
    /// budget; otherwise an entry already under `key` is replaced (that is
    /// not an eviction) and least-recently-used entries are evicted until
    /// both bounds hold. Returns the evicted values, oldest first.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) -> Vec<V> {
        match self.budget {
            Some(budget) if bytes <= budget && self.max_entries > 0 => {}
            _ => return Vec::new(),
        }
        self.clock += 1;
        if let Some(old) = self.map.remove(&key) {
            self.stats.bytes_resident -= old.bytes;
        }
        let victims = self.evict(bytes, 1);
        self.stats.bytes_resident += bytes;
        let stamp = self.clock;
        self.map.insert(
            key,
            Entry {
                value,
                bytes,
                stamp,
            },
        );
        victims
    }

    /// Sets the byte budget, evicting least-recently-used entries until
    /// the resident set fits (returned oldest first); `None` turns the LRU
    /// off, dropping every entry as [`Lru::clear`] does.
    pub fn set_budget(&mut self, budget: Option<u64>) -> Vec<V> {
        self.budget = budget;
        if budget.is_none() {
            self.clear();
        }
        self.evict(0, 0)
    }

    /// Evicts unpinned entries, least recently used first, until `bytes`
    /// more bytes and `entries` more entries fit inside both bounds (or
    /// only pinned entries remain). Returns the victims in eviction order.
    fn evict(&mut self, bytes: u64, entries: usize) -> Vec<V> {
        let budget = self.budget.unwrap_or(0);
        let pinned = self.pinned;
        let mut victims = Vec::new();
        while self.stats.bytes_resident + bytes > budget
            || self.map.len() + entries > self.max_entries
        {
            let Some(key) = self
                .map
                .iter()
                .filter(|(_, e)| !pinned(&e.value))
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let e = self.map.remove(&key).expect("the victim is resident");
            self.stats.bytes_resident -= e.bytes;
            self.stats.evictions += 1;
            victims.push(e.value);
        }
        victims
    }

    /// Drops every entry (pinned ones too), keeping the hit/miss/eviction
    /// history.
    pub fn clear(&mut self) {
        self.map.clear();
        self.stats.bytes_resident = 0;
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Snapshot of the accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Every resident value, in no particular order (tear-down).
    pub fn into_values(self) -> impl Iterator<Item = V> {
        self.map.into_values().map(|e| e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn off_is_invisible_and_budget_zero_counts() {
        let mut off = Lru::<u32, u32>::default();
        assert!(off.insert(1, 1, 0).is_empty());
        assert_eq!(off.get(&1), None);
        assert_eq!(off.stats(), CacheStats::default());

        let mut zero = Lru::<u32, u32>::new(0);
        zero.insert(1, 1, 8);
        assert_eq!(zero.get(&1), None);
        assert_eq!(zero.stats().misses, 1, "budget 0 is on: misses count");
    }

    #[test]
    fn evicts_least_recently_used_and_skips_pins() {
        let mut lru = Lru::new(300).with_pins(|v: &Rc<u32>| Rc::strong_count(v) > 1);
        for k in 1..=3 {
            lru.insert(k, Rc::new(k), 100);
        }
        let held = Rc::clone(lru.get(&1).expect("resident")); // 1 is now newest, and pinned
        let victims = lru.insert(4, Rc::new(4), 200);
        assert_eq!(victims.iter().map(|v| **v).collect::<Vec<_>>(), [2, 3]);
        // Only the pinned entry is left to evict: the LRU goes over budget.
        assert!(lru.insert(5, Rc::new(5), 300).len() == 1);
        assert_eq!(lru.stats().bytes_resident, 400);
        drop(held);
        assert_eq!(lru.set_budget(Some(300)).len(), 1, "released, then evicted");
        assert_eq!(lru.stats().evictions, 4);
    }
}
