//! A classic O(1) LRU cache: hash map into an index-linked recency list.

// The one audited exception to the crate's panic-freedom lints
// (INVARIANTS.md §2). Intrusive LRU list: prev/next are indices into a fixed
// arena and every mutation re-links both directions before releasing the
// lock, so the indices are maintained as an internal invariant, never read
// from external input. Checked get() in the hot path would hide real logic
// bugs that the debug-build panic is designed to surface.
#![allow(clippy::indexing_slicing)]

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Least-recently-used cache with a fixed capacity. `get` refreshes recency;
/// `insert` evicts the coldest entry when full. All operations are O(1)
/// expected.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry, keeping the capacity. Hit/miss accounting lives
    /// with the cache's owner (the engine's metrics registry), not here —
    /// the cache is pure storage.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.unlink(i);
                self.push_front(i);
                Some(self.nodes[i].value.clone())
            }
            None => None,
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry
    /// when the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        if self.map.len() == self.capacity {
            let coldest = self.tail;
            self.unlink(coldest);
            let old_key = self.nodes[coldest].key.clone();
            self.map.remove(&old_key);
            self.free.push(coldest);
        }
        let i = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(1)); // refresh a; b is now coldest
        cache.insert("c", 3); // evicts b
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"c"), Some(3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn insert_refreshes_existing_key() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10); // refresh + overwrite; b becomes coldest
        cache.insert("c", 3); // evicts b
        assert_eq!(cache.get(&"a"), Some(10));
        assert_eq!(cache.get(&"b"), None);
    }

    #[test]
    fn churn_stays_bounded_and_consistent() {
        let mut cache = LruCache::new(8);
        for round in 0..1000usize {
            cache.insert(round % 13, round);
            assert!(cache.len() <= 8);
            if let Some(v) = cache.get(&(round % 7)) {
                // Any cached value for key k was inserted at a round ≡ k mod 13.
                assert_eq!(v % 13, round % 7);
            }
        }
    }

    #[test]
    fn capacity_one_works() {
        let mut cache = LruCache::new(1);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.get(&"b"), Some(2));
        assert!(!cache.is_empty());
    }
}
