//! The LRU cache behind the service's result and partial-sum caches.
//!
//! Keys are the 128-bit keys the service derives from a job's
//! [`qns_api::Fingerprint`] (mixed with the routing policy for the
//! result cache, with a domain tag for the partial-sum cache); values
//! are completed [`Estimate`]s or per-level partial sums. The
//! implementation favours simplicity and observability over
//! asymptotics: recency is a monotone tick per entry, eviction scans
//! for the minimum tick — `O(capacity)` per eviction, which is noise
//! next to any simulation this workspace runs and keeps the structure
//! a single map.
//!
//! That map is a `BTreeMap` rather than a `HashMap` on purpose: the
//! eviction scan iterates the map, and which entry survives decides
//! which jobs later answer from cache. Recency ticks are unique today,
//! but keeping the iteration key-ordered means the cache's observable
//! behaviour can never silently become hash-order-dependent
//! (the crate's `clippy.toml` bans `HashMap` to pin that contract).

use qns_api::Estimate;
use qns_obs::Counter;
use std::collections::BTreeMap;

/// Hit/miss/eviction counters of one cache (monotone over its life).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced to make room for newer ones.
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits over total lookups; `0.0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A least-recently-used cache keyed by 128-bit fingerprint-derived
/// keys. The service keeps completed [`Estimate`]s in one (the
/// default value type) and per-level partial sums in another.
///
/// ```
/// use qns_serve::cache::LruCache;
/// use qns_api::Estimate;
///
/// let mut cache = LruCache::new(2);
/// cache.insert(1, Estimate::exact(0.1, "tnet"));
/// cache.insert(2, Estimate::exact(0.2, "tnet"));
/// cache.get(1);                                  // 1 is now the freshest
/// cache.insert(3, Estimate::exact(0.3, "tnet")); // evicts 2, not 1
/// assert!(cache.get(1).is_some());
/// assert!(cache.get(2).is_none());
/// assert_eq!(cache.counters().evictions, 1);
/// ```
#[derive(Debug)]
pub struct LruCache<V = Estimate> {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<u128, (V, u64)>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl<V> LruCache<V> {
    /// A cache holding at most `capacity` entries. Capacity `0` is a
    /// valid "caching disabled" configuration: every lookup misses and
    /// inserts are dropped.
    ///
    /// Counts into detached counters; use
    /// [`with_counters`](Self::with_counters) to export them through a
    /// [`qns_obs::Registry`].
    pub fn new(capacity: usize) -> Self {
        Self::with_counters(
            capacity,
            Counter::detached(),
            Counter::detached(),
            Counter::detached(),
        )
    }

    /// A cache whose hit/miss/eviction counts feed the given counter
    /// handles (typically registry-attached, so the cache's behaviour
    /// shows up in metric exports without a separate sync step).
    pub fn with_counters(
        capacity: usize,
        hits: Counter,
        misses: Counter,
        evictions: Counter,
    ) -> Self {
        LruCache {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            hits,
            misses,
            evictions,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: u128) -> Option<V>
    where
        V: Clone,
    {
        let found = self.touch(key).cloned();
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// The entry for `key` without touching recency or counters.
    pub(crate) fn peek(&self, key: u128) -> Option<&V> {
        self.entries.get(&key).map(|(value, _)| value)
    }

    /// The entry for `key`, for in-place update: refreshes its recency
    /// but counts neither a hit nor a miss.
    pub(crate) fn touch(&mut self, key: u128) -> Option<&mut V> {
        self.tick += 1;
        let (value, tick) = self.entries.get_mut(&key)?;
        *tick = self.tick;
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when the cache is full.
    pub fn insert(&mut self, key: u128, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Evict the stalest entry (minimum recency tick).
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                self.entries.remove(&oldest);
                self.evictions.inc();
            }
        }
        self.entries.insert(key, (value, self.tick));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The lifetime hit/miss/eviction counters, as a plain snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(v: f64) -> Estimate {
        Estimate::exact(v, "test")
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, est(1.0));
        c.insert(2, est(2.0));
        c.insert(3, est(3.0));
        // Touch 1 and 2; 3 becomes the LRU entry.
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_some());
        c.insert(4, est(4.0));
        assert!(c.get(3).is_none(), "LRU entry must be the one evicted");
        assert!(c.get(1).is_some() && c.get(2).is_some() && c.get(4).is_some());
        assert_eq!(c.counters().evictions, 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, est(1.0));
        c.insert(2, est(2.0));
        c.insert(2, est(2.5));
        assert_eq!(c.counters().evictions, 0);
        assert_eq!(c.get(2).unwrap().value, 2.5);
        assert!(c.get(1).is_some());
    }

    #[test]
    fn counters_track_hits_misses_and_rate() {
        let mut c = LruCache::new(2);
        assert_eq!(c.counters().hit_rate(), 0.0);
        c.insert(7, est(0.7));
        assert!(c.get(7).is_some());
        assert!(c.get(8).is_none());
        let k = c.counters();
        assert_eq!((k.hits, k.misses), (1, 1));
        assert!((k.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert(1, est(1.0));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
        assert_eq!(c.counters().evictions, 0);
    }
}
