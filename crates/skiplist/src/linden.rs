//! The Lindén–Jonsson strict skiplist-based priority queue (`linden`).
//!
//! Lindén & Jonsson (OPODIS 2013) observed that most CAS traffic in
//! skiplist priority queues comes from physically unlinking the deleted
//! minimum at every level, and reduced `delete_min` to a *single* CAS
//! that sets a deletion flag on the claimed node's own next pointer,
//! deferring physical cleanup (batched "restructuring" of the deleted
//! prefix). Our substrate uses the same single-CAS logical claim on the
//! bottom-level next pointer; physical cleanup differs in that claimants
//! unlink eagerly via a helping search instead of batching prefix
//! restructures, which are not implemented. The strict linearizable
//! semantics are identical. Throughput is lower than the batched
//! original's would be: on the `perf_ledger` `uniform_p2` workload (two
//! threads on a 2-core host) `linden` runs at about 2.7 Mops/s, where
//! `klsm256` runs at about 9.7 (EXPERIMENTS.md "Skiplist node layout").
//!
//! The queue is strict: `delete_min` returns the minimal item in some
//! linearization (rank bound 0).

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use pq_traits::seed::{handle_seed, DEFAULT_QUEUE_SEED};
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, Value};

use crate::list::SkipList;

/// Strict, lock-free, linearizable skiplist priority queue.
#[derive(Debug)]
pub struct LindenPq {
    list: SkipList,
    seed: u64,
    handle_ctr: AtomicU64,
}

impl LindenPq {
    /// Create an empty queue with the default deterministic seed (the
    /// per-handle tower-height RNGs derive from it, so runs replay).
    pub fn new() -> Self {
        Self::with_seed(DEFAULT_QUEUE_SEED)
    }

    /// Create an empty queue whose handle RNGs derive from `seed`
    /// (handle `i` gets `seed ⊕ mix(i)`).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            list: SkipList::new(),
            seed,
            handle_ctr: AtomicU64::new(0),
        }
    }

    /// Smallest item without removing it.
    pub fn peek_min(&self) -> Option<Item> {
        self.list.peek_min()
    }
}

impl Default for LindenPq {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-thread handle for [`LindenPq`].
pub struct LindenHandle<'a> {
    list: &'a SkipList,
    rng: SmallRng,
}

impl PqHandle for LindenHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        self.list.insert(key, value, &mut self.rng);
    }

    fn delete_min(&mut self) -> Option<Item> {
        self.list.delete_min()
    }
}

impl ConcurrentPq for LindenPq {
    type Handle<'a> = LindenHandle<'a>;

    fn handle(&self) -> LindenHandle<'_> {
        let idx = self.handle_ctr.fetch_add(1, Ordering::Relaxed);
        LindenHandle {
            list: &self.list,
            rng: SmallRng::seed_from_u64(handle_seed(self.seed, idx)),
        }
    }

    fn name(&self) -> String {
        "linden".to_owned()
    }
}

impl RelaxationBound for LindenPq {
    fn rank_bound(&self, _threads: usize) -> Option<u64> {
        Some(0) // strict semantics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_sequential_order() {
        let q = LindenPq::new();
        let mut h = q.handle();
        for k in [7u64, 2, 9, 4, 1, 8] {
            h.insert(k, k);
        }
        let out: Vec<Key> = std::iter::from_fn(|| h.delete_min())
            .map(|i| i.key)
            .collect();
        assert_eq!(out, vec![1, 2, 4, 7, 8, 9]);
    }

    #[test]
    fn rank_bound_is_zero() {
        assert_eq!(LindenPq::new().rank_bound(64), Some(0));
    }

    #[test]
    fn concurrent_deletes_are_globally_sorted_per_thread() {
        // Strict semantics: each thread's deletion sequence must be
        // non-decreasing when no inserts run concurrently.
        let q = std::sync::Arc::new(LindenPq::new());
        {
            let mut h = q.handle();
            for k in 0..10_000u64 {
                h.insert(k, k);
            }
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut prev: Option<Key> = None;
                    while let Some(it) = h.delete_min() {
                        if let Some(p) = prev {
                            assert!(it.key >= p, "out-of-order strict deletion");
                        }
                        prev = Some(it.key);
                    }
                });
            }
        });
        assert_eq!(q.handle().delete_min(), None);
    }
}
