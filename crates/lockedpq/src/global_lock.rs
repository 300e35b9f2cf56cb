//! GlobalLock baseline (`globallock`): a sequential priority queue behind
//! a single mutex — our [`BinaryHeap`], as the paper's C++ benchmarks
//! use `std::priority_queue`.

use parking_lot::Mutex;

use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};
use seqpq::BinaryHeap;

/// Sequential priority queue protected by a global lock.
#[derive(Debug, Default)]
pub struct GlobalLockPq {
    heap: Mutex<BinaryHeap>,
}

impl GlobalLockPq {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored items (takes the lock).
    pub fn len(&self) -> usize {
        self.heap.lock().len()
    }

    /// `true` if no items are stored (takes the lock).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::with_capacity(cap)),
        }
    }
}

/// Per-thread handle for [`GlobalLockPq`].
pub struct GlobalLockHandle<'a> {
    q: &'a GlobalLockPq,
}

impl PqHandle for GlobalLockHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        self.q.heap.lock().insert(key, value);
    }

    fn delete_min(&mut self) -> Option<Item> {
        self.q.heap.lock().delete_min()
    }
}

impl ConcurrentPq for GlobalLockPq {
    type Handle<'a> = GlobalLockHandle<'a>;

    fn handle(&self) -> GlobalLockHandle<'_> {
        GlobalLockHandle { q: self }
    }

    fn name(&self) -> String {
        "globallock".to_owned()
    }
}

impl RelaxationBound for GlobalLockPq {
    fn rank_bound(&self, _threads: usize) -> Option<u64> {
        Some(0) // strict semantics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_order() {
        let q = GlobalLockPq::new();
        let mut h = q.handle();
        for k in [4u64, 1, 3, 2] {
            h.insert(k, k);
        }
        let out: Vec<Key> = std::iter::from_fn(|| h.delete_min()).map(|i| i.key).collect();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_strictness_and_conservation() {
        let q = std::sync::Arc::new(GlobalLockPq::new());
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
                    let mut prev = None;
                    while let Some(it) = h.delete_min() {
                        if let Some(p) = prev {
                            assert!(it.key >= p);
                        }
                        prev = Some(it.key);
                    }
                });
            }
        });
        assert!(q.is_empty());
    }
}
