//! A sharded, lock-striped LRU cache for concurrent resolvers.
//!
//! The collector's parallel `fid2path` worker pool (paper §IV — the
//! resolution stage is the pipeline's dominant cost) shares one cache
//! across workers. A single `Mutex<LruCache>` would serialize exactly
//! the stage we parallelized, so [`ShardedLruCache`] stripes the key
//! space over N independent [`LruCache`] shards, each behind its own
//! mutex, routed by key hash. Contention drops by ~N while the
//! aggregate capacity, stats, and eviction behaviour stay per-shard
//! LRU (global recency is approximated, as in any striped LRU).

use crate::lru::{LruCache, LruStats};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// A lock-striped LRU: N shards of [`LruCache`] routed by key hash.
///
/// All methods take `&self`, so one instance can be shared across a
/// worker pool behind an `Arc`. Capacity is split evenly across
/// shards (rounded up, so total capacity is at least the requested
/// value); capacity 0 disables caching entirely, matching
/// [`LruCache::new`].
pub struct ShardedLruCache<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLruCache<K, V> {
    /// A cache of `capacity` total entries striped over `shards` locks
    /// (`shards` is clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> ShardedLruCache<K, V> {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedLruCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            capacity,
        }
    }

    /// Mirror per-shard counters into telemetry instruments under
    /// `scope`. The registry deduplicates by name+labels, so all
    /// shards feed the same `hits_total`/`misses_total`/
    /// `evictions_total` counters and `entries` gauge additively.
    pub fn instrument(self, scope: &fsmon_telemetry::Scope) -> ShardedLruCache<K, V> {
        ShardedLruCache {
            shards: self
                .shards
                .into_iter()
                .map(|s| Mutex::new(s.into_inner().unwrap().instrument(scope)))
                .collect(),
            capacity: self.capacity,
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Configured total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current entry count summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether all shards are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters summed over shards.
    pub fn stats(&self) -> LruStats {
        let mut total = LruStats::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Approximate resident bytes at `entry_bytes` per entry.
    pub fn memory_bytes(&self, entry_bytes: usize) -> usize {
        self.len() * entry_bytes
    }

    /// Look up `key` in its shard, promoting on hit.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_of(key).lock().unwrap().get(key)
    }

    /// Whether `key` is resident, without promoting or counting — a
    /// read-only probe that leaves recency and hit/miss stats alone.
    pub fn contains(&self, key: &K) -> bool {
        self.shard_of(key).lock().unwrap().peek(key).is_some()
    }

    /// Insert (or refresh) `key` in its shard.
    pub fn insert(&self, key: K, value: V) {
        self.shard_of(&key).lock().unwrap().insert(key, value)
    }

    /// Remove `key` from its shard.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard_of(key).lock().unwrap().remove(key)
    }

    /// [`LruCache::retain`] over every shard, one lock at a time;
    /// returns the entries removed.
    pub fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap().retain(&mut f))
            .sum()
    }

    /// Clear every shard (counters survive, as for [`LruCache`]).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn basic_get_insert_remove() {
        let cache: ShardedLruCache<u64, String> = ShardedLruCache::new(100, 8);
        assert_eq!(cache.shard_count(), 8);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, "one".into());
        cache.insert(2, "two".into());
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        assert_eq!(cache.remove(&2).as_deref(), Some("two"));
        assert_eq!(cache.get(&2), None);
        // The read-only probe counts as neither hit nor miss.
        assert!(cache.contains(&1));
        assert!(!cache.contains(&2));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(cache.len(), 1);
        // Bulk pass: rewrite in place, keep everything.
        assert_eq!(
            cache.retain(|_, v| {
                v.push('!');
                true
            }),
            0
        );
        assert_eq!(cache.get(&1).as_deref(), Some("one!"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(0, 4);
        cache.insert(1, 1);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn capacity_splits_but_totals_at_least_requested() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(10, 4);
        for i in 0..1000 {
            cache.insert(i, i);
        }
        // Per-shard ceil(10/4)=3 → at most 12 resident, at least
        // bounded well below the 1000 inserted.
        assert!(
            cache.len() <= 12,
            "len {} exceeds striped capacity",
            cache.len()
        );
        assert!(cache.stats().evictions >= 1000 - 12);
    }

    /// Satellite stress test: hammer the cache from many threads and
    /// check the shard-summed stats are conserved — every lookup is
    /// accounted as exactly one hit or miss, evictions never exceed
    /// inserts, and residency respects striped capacity.
    #[test]
    fn concurrent_stress_conserves_stats() {
        let cache: Arc<ShardedLruCache<u64, u64>> = Arc::new(ShardedLruCache::new(256, 8));
        let gets = Arc::new(AtomicU64::new(0));
        let inserts = Arc::new(AtomicU64::new(0));
        let n_threads = 8;
        let per_thread = 5_000u64;
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let cache = cache.clone();
            let gets = gets.clone();
            let inserts = inserts.clone();
            handles.push(std::thread::spawn(move || {
                // Overlapping key ranges so threads contend on shards.
                for i in 0..per_thread {
                    let key = (t * 1_000 + i) % 2_048;
                    match i % 4 {
                        0 => {
                            cache.insert(key, i);
                            inserts.fetch_add(1, Ordering::Relaxed);
                        }
                        3 => {
                            cache.remove(&key);
                        }
                        _ => {
                            cache.get(&key);
                            gets.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        let gets = gets.load(Ordering::Relaxed);
        let inserts = inserts.load(Ordering::Relaxed);
        assert_eq!(
            stats.hits + stats.misses,
            gets,
            "every get must count as exactly one hit or miss"
        );
        assert!(
            stats.evictions <= inserts,
            "cannot evict more than inserted"
        );
        // 256 split over 8 shards = 32 each, exact striped bound.
        assert!(cache.len() <= 256, "len {} over capacity", cache.len());
        assert_eq!(cache.capacity(), 256);
    }
}
