//! A least-recently-used cache with hit/miss statistics.
//!
//! This is the cache the paper puts in front of `fid2path` ("we
//! implement the aggregator with a Least Recently Used (LRU) Cache to
//! store mappings of FIDs to source paths", §IV Processing) and sweeps
//! in Table VIII. O(1) get/insert via a hash map into an intrusive
//! doubly-linked list over a slab.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

const NIL: usize = usize::MAX;

/// Telemetry handles for an instrumented cache (see
/// [`LruCache::instrument`]).
struct LruTelemetry {
    hits: Arc<fsmon_telemetry::Counter>,
    misses: Arc<fsmon_telemetry::Counter>,
    evictions: Arc<fsmon_telemetry::Counter>,
    entries: Arc<fsmon_telemetry::Gauge>,
}

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted at capacity.
    pub evictions: u64,
}

impl LruStats {
    /// Hit ratio in [0, 1]; 0 when no lookups have happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A fixed-capacity LRU cache.
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    stats: LruStats,
    telemetry: Option<LruTelemetry>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (capacity 0 caches
    /// nothing — every lookup misses, matching a disabled cache).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: LruStats::default(),
            telemetry: None,
        }
    }

    /// Mirror this cache's counters into telemetry instruments under
    /// `scope` (`<scope>_hits_total`, `_misses_total`,
    /// `_evictions_total`, `_entries`). The fid2path caches register
    /// under `fsmon_fid2path` with an `mdt` label.
    pub fn instrument(mut self, scope: &fsmon_telemetry::Scope) -> LruCache<K, V> {
        self.telemetry = Some(LruTelemetry {
            hits: scope.counter("hits_total"),
            misses: scope.counter("misses_total"),
            evictions: scope.counter("evictions_total"),
            entries: scope.gauge("entries"),
        });
        self
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Approximate resident bytes, assuming `entry_bytes` per entry
    /// (used to reproduce the paper's collector-memory columns).
    pub fn memory_bytes(&self, entry_bytes: usize) -> usize {
        self.len() * entry_bytes
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                if let Some(t) = &self.telemetry {
                    t.hits.inc();
                }
                self.detach(idx);
                self.attach_front(idx);
                Some(self.slab[idx].value.clone())
            }
            None => {
                self.stats.misses += 1;
                if let Some(t) = &self.telemetry {
                    t.misses.inc();
                }
                None
            }
        }
    }

    /// Check for `key` without promoting or counting.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slab[idx].value)
    }

    /// Insert or update `key`, evicting the LRU entry at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            // Evict the tail.
            let victim = self.tail;
            self.detach(victim);
            let old_key = self.slab[victim].key.clone();
            self.map.remove(&old_key);
            self.free.push(victim);
            self.stats.evictions += 1;
            if let Some(t) = &self.telemetry {
                t.evictions.inc();
                t.entries.sub(1);
            }
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slab.push(Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        if let Some(t) = &self.telemetry {
            t.entries.add(1);
        }
    }

    /// Remove `key` (e.g. after a delete event invalidates a fid→path
    /// mapping).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        if let Some(t) = &self.telemetry {
            t.entries.sub(1);
        }
        Some(self.slab[idx].value.clone())
    }

    /// Visit every entry, in no particular order: `f` may rewrite the
    /// value in place and returns whether the entry stays. Recency and
    /// hit/miss counters are left alone. Returns how many entries `f`
    /// removed. One O(len) pass — for rare bulk invalidation (a renamed
    /// directory's cached descendants), not for the per-event path.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) -> usize {
        let slab = &mut self.slab;
        let mut dropped = Vec::new();
        self.map.retain(|key, idx| {
            let keep = f(key, &mut slab[*idx].value);
            if !keep {
                dropped.push(*idx);
            }
            keep
        });
        for &idx in &dropped {
            self.detach(idx);
            self.free.push(idx);
        }
        if let Some(t) = &self.telemetry {
            t.entries.sub(dropped.len() as i64);
        }
        dropped.len()
    }

    /// Drop every entry (counters survive).
    pub fn clear(&mut self) {
        if let Some(t) = &self.telemetry {
            t.entries.sub(self.map.len() as i64);
        }
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

impl<K, V> Drop for LruCache<K, V> {
    fn drop(&mut self) {
        // The entries gauge may be shared with other caches under the
        // same scope; give this cache's share back.
        if let Some(t) = &self.telemetry {
            t.entries.sub(self.map.len() as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_hit_and_miss_counting() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"b"), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.get(&"a"); // promote a
        c.insert("c", 3); // evicts b
        assert_eq!(c.peek(&"a"), Some(&1));
        assert_eq!(c.peek(&"b"), None);
        assert_eq!(c.peek(&"c"), Some(&3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn update_promotes_and_replaces() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // update, promotes a
        c.insert("c", 3); // evicts b
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.peek(&"b"), None);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.remove(&"a"), Some(1));
        assert_eq!(c.remove(&"a"), None);
        assert_eq!(c.len(), 1);
        c.insert("c", 3);
        c.insert("d", 4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&"b"), Some(2));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.get(&"d"), Some(4));
    }

    #[test]
    fn retain_rewrites_and_drops_without_touching_recency() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        let dropped = c.retain(|key, v| {
            *v *= 10;
            *key != "b"
        });
        assert_eq!(dropped, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&"a"), Some(&10));
        assert_eq!(c.peek(&"b"), None);
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        // "a" is still the least recently used: the freed slot takes
        // "d", the next insert evicts "a".
        c.insert("d", 4);
        c.insert("e", 5);
        assert_eq!(c.peek(&"a"), None);
        assert_eq!(c.peek(&"c"), Some(&30));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn clear_resets_entries_but_not_stats() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.get(&"a");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"b"), Some(2));
    }

    #[test]
    fn exhaustive_order_against_reference_model() {
        // Differential test against a naive Vec-based LRU.
        let mut c = LruCache::new(4);
        let mut model: Vec<(u32, u32)> = Vec::new(); // front = MRU
        let ops: Vec<u32> = (0..500).map(|i| (i * 7 + 3) % 13).collect();
        for (step, key) in ops.into_iter().enumerate() {
            if step % 3 == 0 {
                // insert
                let val = step as u32;
                if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                    model.remove(pos);
                } else if model.len() == 4 {
                    model.pop();
                }
                model.insert(0, (key, val));
                c.insert(key, val);
            } else {
                // get
                let expected = model.iter().position(|(k, _)| *k == key).map(|pos| {
                    let entry = model.remove(pos);
                    model.insert(0, entry);
                    model[0].1
                });
                assert_eq!(c.get(&key), expected, "step {step} key {key}");
            }
            assert_eq!(c.len(), model.len());
        }
    }

    #[test]
    fn memory_accounting() {
        let mut c = LruCache::new(100);
        for i in 0..10 {
            c.insert(i, i);
        }
        assert_eq!(c.memory_bytes(64), 640);
        assert_eq!(c.capacity(), 100);
    }
}
