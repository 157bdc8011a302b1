//! One bounded cache policy for every long-lived cache.
//!
//! [`BudgetedLru`] backs the weak-cell map cache
//! ([`crate::faults::WeakMapCache`]), the clean-activation checkpoint store of
//! [`crate::session::EvalSession`] and the eden-serve session-shard pool.
//! The policy is the same for all three:
//!
//! * every entry has a cost (1 for a map or a shard, the byte size for a
//!   checkpoint);
//! * after an insert, least-recently-used entries are evicted until the
//!   resident cost fits the budget — the new entry last, so an entry larger
//!   than the whole budget is evicted by its own insert;
//! * inserting a key that is already resident keeps the resident value
//!   (first insert wins), refreshes it and evicts nothing;
//! * evicted values are handed back to the caller, which decides how to
//!   dispose of them.
//!
//! Recency is a doubly-linked list threaded through a slab, so a lookup is
//! one hash probe plus O(1) relinking, and the eviction order is exact and
//! deterministic for a deterministic access sequence.

use std::collections::HashMap;
use std::hash::Hash;

/// Cumulative counters of a [`BudgetedLru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted under the budget.
    pub evictions: u64,
    /// Total cost of the resident entries.
    pub resident: u64,
}

/// Slab index marking either end of the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    cost: usize,
    /// The next less recently used node, or [`NIL`].
    older: usize,
    /// The next more recently used node, or [`NIL`].
    newer: usize,
}

/// A keyed cache holding entries of varying cost under a total-cost budget,
/// evicting least-recently-used entries first (see the [module docs](self)).
#[derive(Debug)]
pub struct BudgetedLru<K, V> {
    index: HashMap<K, usize>,
    slab: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    oldest: usize,
    newest: usize,
    budget: usize,
    resident: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> BudgetedLru<K, V> {
    /// An empty cache whose resident cost never exceeds `budget` after an
    /// insert.
    pub fn new(budget: usize) -> Self {
        Self {
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            budget,
            resident: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Cumulative hit/miss/eviction totals and the current resident cost.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident: self.resident as u64,
        }
    }

    /// The value under `key`, marking it most recently used. Counts one hit
    /// or one miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let Some(&i) = self.index.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(i);
        Some(&self.node(i).value)
    }

    /// Stores the `(value, cost)` that `make` builds under `key`, then
    /// evicts least-recently-used entries until the resident cost fits the
    /// budget. Returns the value now associated with `key` and the evicted
    /// values, oldest first.
    ///
    /// If `key` is already resident, `make` is not called: the resident
    /// value is refreshed and returned, and nothing is evicted.
    pub fn insert_with(&mut self, key: K, make: impl FnOnce() -> (V, usize)) -> (V, Vec<V>) {
        if let Some(&i) = self.index.get(&key) {
            self.touch(i);
            return (self.node(i).value.clone(), Vec::new());
        }
        let (value, cost) = make();
        let node = Node {
            key: key.clone(),
            value: value.clone(),
            cost,
            older: NIL,
            newer: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.push_newest(i);
        self.index.insert(key, i);
        self.resident += cost;
        let mut evicted = Vec::new();
        while self.resident > self.budget {
            evicted.push(self.evict_lru());
        }
        (value, evicted)
    }

    /// The resident values, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slab.iter().flatten().map(|node| &node.value)
    }

    /// Drops every entry, keeping the cumulative counters.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.oldest = NIL;
        self.newest = NIL;
        self.resident = 0;
    }

    /// Removes and returns the least recently used value. Only called while
    /// the resident cost exceeds the budget, so the list is non-empty.
    fn evict_lru(&mut self) -> V {
        let i = self.oldest;
        self.unlink(i);
        let node = self.slab[i].take().expect("oldest node is resident");
        self.free.push(i);
        self.index.remove(&node.key);
        self.resident -= node.cost;
        self.evictions += 1;
        node.value
    }

    fn node(&self, i: usize) -> &Node<K, V> {
        self.slab[i].as_ref().expect("indexed node is resident")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node<K, V> {
        self.slab[i].as_mut().expect("indexed node is resident")
    }

    /// Moves node `i` to the most recently used end.
    fn touch(&mut self, i: usize) {
        if i != self.newest {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    fn unlink(&mut self, i: usize) {
        let Node { older, newer, .. } = *self.node(i);
        match older {
            NIL => self.oldest = newer,
            o => self.node_mut(o).newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.node_mut(n).older = older,
        }
    }

    fn push_newest(&mut self, i: usize) {
        let prev = self.newest;
        let node = self.node_mut(i);
        node.older = prev;
        node.newer = NIL;
        match prev {
            NIL => self.oldest = i,
            p => self.node_mut(p).newer = i,
        }
        self.newest = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(lru: &mut BudgetedLru<u32, u32>, key: u32) -> Vec<u32> {
        lru.insert_with(key, || (key, 1)).1
    }

    fn resident_keys(lru: &BudgetedLru<u32, u32>) -> Vec<u32> {
        let mut keys: Vec<u32> = lru.values().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn evicts_in_exact_least_recently_used_order() {
        let mut lru = BudgetedLru::new(3);
        for k in [1, 2, 3] {
            assert!(unit(&mut lru, k).is_empty());
        }
        assert_eq!(lru.get(&1), Some(&1)); // order now 2, 3, 1
        assert_eq!(unit(&mut lru, 4), vec![2]);
        assert_eq!(lru.get(&3), Some(&3)); // order now 1, 4, 3
        assert_eq!(unit(&mut lru, 5), vec![1]);
        assert_eq!(unit(&mut lru, 6), vec![4]);
        assert_eq!(resident_keys(&lru), vec![3, 5, 6]);
        assert_eq!(lru.get(&2), None);
    }

    #[test]
    fn mixed_costs_evict_until_the_budget_fits() {
        let mut lru = BudgetedLru::new(10);
        let insert = |lru: &mut BudgetedLru<u32, u32>, k: u32, cost: usize| {
            lru.insert_with(k, || (k, cost)).1
        };
        assert!(insert(&mut lru, 1, 4).is_empty());
        assert!(insert(&mut lru, 2, 4).is_empty());
        assert_eq!(insert(&mut lru, 3, 4), vec![1]); // 12 > 10: drop one
        assert!(insert(&mut lru, 4, 1).is_empty()); // 9 fits
        assert_eq!(insert(&mut lru, 5, 6), vec![2, 3]); // 15 → 11 → 7
        assert_eq!(lru.counters().resident, 7);
        assert_eq!(resident_keys(&lru), vec![4, 5]);
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_evicted_by_its_own_insert() {
        let mut lru = BudgetedLru::new(5);
        lru.insert_with(1, || (1, 2));
        let (value, evicted) = lru.insert_with(9, || (9, 9));
        // The new entry goes last, after everything older.
        assert_eq!(value, 9);
        assert_eq!(evicted, vec![1, 9]);
        assert!(lru.is_empty());
        assert_eq!(lru.counters().resident, 0);
        // The cache stays usable afterwards.
        assert!(unit(&mut lru, 2).is_empty());
        assert_eq!(lru.get(&2), Some(&2));
    }

    #[test]
    fn inserting_a_resident_key_refreshes_it_and_evicts_nothing() {
        let mut lru = BudgetedLru::new(2);
        unit(&mut lru, 1);
        unit(&mut lru, 2);
        // At the budget: a second insert of key 1 must neither build a new
        // value nor evict — the first insert wins.
        let (value, evicted) = lru.insert_with(1, || panic!("resident key rebuilt"));
        assert_eq!(value, 1);
        assert!(evicted.is_empty());
        assert_eq!(lru.len(), 2);
        // The refresh made key 2 the eviction victim.
        assert_eq!(unit(&mut lru, 3), vec![2]);
        assert_eq!(resident_keys(&lru), vec![1, 3]);
    }

    #[test]
    fn counters_are_exact_and_survive_clear() {
        let mut lru = BudgetedLru::new(2);
        assert_eq!(lru.get(&1), None);
        unit(&mut lru, 1);
        unit(&mut lru, 2);
        assert_eq!(lru.get(&1), Some(&1));
        assert_eq!(lru.get(&2), Some(&2));
        unit(&mut lru, 3); // evicts 1
        assert_eq!(lru.get(&1), None);
        assert_eq!(
            lru.counters(),
            CacheCounters {
                hits: 2,
                misses: 2,
                evictions: 1,
                resident: 2,
            }
        );
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(
            lru.counters(),
            CacheCounters {
                hits: 2,
                misses: 2,
                evictions: 1,
                resident: 0,
            }
        );
        // Freed slots are reused without disturbing the order.
        for k in [4, 5, 6] {
            unit(&mut lru, k);
        }
        assert_eq!(resident_keys(&lru), vec![5, 6]);
    }
}
