//! The MultiQueue relaxed concurrent priority queue (`multiqueue`).
//!
//! Rihani, Sanders and Dementiev (SPAA 2015 brief announcement):
//! `c·P` sequential priority queues, each protected by a lock (the paper
//! under reproduction sets the tuning parameter `c = 4` and uses C++
//! `std::priority_queue`; we use the same array-based binary heap from
//! `seqpq`). Insertions push to a random queue; deletions peek the
//! minima of **two** randomly chosen queues and pop from the one with the
//! smaller head. "So far, no complete analysis of its semantic bounds
//! exists" — the expected rank error grows linearly with the thread
//! count, which the quality benchmark reproduces.
//!
//! Each sub-queue caches its current minimum key in an atomic so the
//! two-choice comparison does not need to take either lock; the lock is
//! only taken to mutate the chosen queue (with `try_lock` + re-roll on
//! contention, so operations never block on a busy sub-queue).

#![warn(missing_docs)]

mod sticky;

pub use sticky::{MultiQueueSticky, MultiQueueStickyHandle};

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pq_traits::telemetry;
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};
use seqpq::BinaryHeap;

/// Sentinel stored in the cached-minimum atomic of an empty sub-queue.
pub(crate) const EMPTY_MIN: u64 = u64::MAX;

// Deterministic per-handle seeding, now hoisted into `pq_traits::seed`
// so every queue crate shares one mixing function.
pub(crate) use pq_traits::seed::{handle_seed, DEFAULT_QUEUE_SEED as DEFAULT_SEED};

pub(crate) struct SubQueue {
    pub(crate) heap: Mutex<BinaryHeap>,
    /// Key of the heap's current minimum, or [`EMPTY_MIN`]. Updated under
    /// the lock after every mutation; read lock-free by the two-choice
    /// deletion.
    pub(crate) min_key: AtomicU64,
}

impl SubQueue {
    pub(crate) fn new() -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::new()),
            min_key: AtomicU64::new(EMPTY_MIN),
        }
    }

    pub(crate) fn publish_min(&self, heap: &BinaryHeap) {
        let key = heap.peek_min().map_or(EMPTY_MIN, |it| it.key);
        self.min_key.store(key, Ordering::Release);
    }
}

pub(crate) fn make_sub_queues(c: usize, threads: usize) -> Box<[CachePadded<SubQueue>]> {
    let n = (c * threads).max(2);
    (0..n).map(|_| CachePadded::new(SubQueue::new())).collect()
}

/// Two-choice deletion over a sub-queue array: sample the cached minima
/// of two distinct random sub-queues, pop from the smaller under its
/// lock. After `n` consecutive all-empty-looking samples (or `2n` total
/// rounds) fall back to a blocking full sweep so emptiness answers are
/// reliable without burning the whole round budget on an empty queue.
///
/// Shared by the plain [`MultiQueue`] and the slow path of
/// [`MultiQueueSticky`].
pub(crate) fn two_choice_pop(queues: &[CachePadded<SubQueue>], rng: &mut SmallRng) -> Option<Item> {
    let n = queues.len();
    let mut empty_rounds = 0;
    for _ in 0..2 * n {
        let a = rng.gen_range(0..n);
        let b = {
            let r = rng.gen_range(0..n - 1);
            if r >= a {
                r + 1
            } else {
                r
            }
        };
        let ka = queues[a].min_key.load(Ordering::Acquire);
        let kb = queues[b].min_key.load(Ordering::Acquire);
        let pick = if ka <= kb { a } else { b };
        if ka.min(kb) == EMPTY_MIN {
            telemetry::record(telemetry::Event::MqEmptySample);
            // Every sub-queue looking empty for a whole round's worth of
            // samples almost certainly means the queue *is* empty; go
            // verify with the sweep instead of burning the remaining
            // rounds on more empty samples.
            empty_rounds += 1;
            if empty_rounds >= n {
                break;
            }
            continue;
        }
        empty_rounds = 0;
        let q = &queues[pick];
        let Some(mut heap) = q.heap.try_lock() else {
            continue;
        };
        let item = heap.delete_min();
        q.publish_min(&heap);
        drop(heap);
        if let Some(item) = item {
            return Some(item);
        }
    }
    // Deterministic sweep: blockingly check each sub-queue once.
    for q in queues.iter() {
        let mut heap = q.heap.lock();
        if let Some(item) = heap.delete_min() {
            q.publish_min(&heap);
            return Some(item);
        }
    }
    None
}

/// The MultiQueue relaxed priority queue over the paper's binary-heap
/// sub-queues.
pub struct MultiQueue {
    queues: Box<[CachePadded<SubQueue>]>,
    seed: u64,
    handle_ctr: AtomicU64,
}

impl MultiQueue {
    /// Create a MultiQueue with `c * threads` sub-queues (the paper's
    /// benchmarks use `c = 4`) and the default deterministic seed.
    pub fn new(c: usize, threads: usize) -> Self {
        Self::with_seed(c, threads, DEFAULT_SEED)
    }

    /// Create a MultiQueue whose handle RNGs derive from `seed` (handle
    /// `i` gets `seed ⊕ mix(i)`), making benchmark runs reproducible.
    pub fn with_seed(c: usize, threads: usize, seed: u64) -> Self {
        Self {
            queues: make_sub_queues(c, threads),
            seed,
            handle_ctr: AtomicU64::new(0),
        }
    }

    /// Number of sub-queues.
    pub fn sub_queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Total items across all sub-queues. Takes every lock; for tests and
    /// quiescent inspection.
    pub fn len_quiescent(&self) -> usize {
        self.queues.iter().map(|q| q.heap.lock().len()).sum()
    }

    fn insert_impl(&self, key: Key, value: Value, rng: &mut SmallRng) {
        loop {
            let idx = rng.gen_range(0..self.queues.len());
            let q = &self.queues[idx];
            // Non-blocking: re-roll on contention instead of waiting.
            if let Some(mut heap) = q.heap.try_lock() {
                heap.insert(key, value);
                q.publish_min(&heap);
                return;
            }
        }
    }

    fn delete_min_impl(&self, rng: &mut SmallRng) -> Option<Item> {
        two_choice_pop(&self.queues, rng)
    }
}

impl std::fmt::Debug for MultiQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiQueue")
            .field("sub_queues", &self.queues.len())
            .finish()
    }
}

/// Per-thread handle for [`MultiQueue`].
pub struct MultiQueueHandle<'a> {
    q: &'a MultiQueue,
    rng: SmallRng,
}

impl PqHandle for MultiQueueHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        self.q.insert_impl(key, value, &mut self.rng);
    }

    fn delete_min(&mut self) -> Option<Item> {
        self.q.delete_min_impl(&mut self.rng)
    }
}

impl ConcurrentPq for MultiQueue {
    type Handle<'a> = MultiQueueHandle<'a>;

    fn handle(&self) -> MultiQueueHandle<'_> {
        let idx = self.handle_ctr.fetch_add(1, Ordering::Relaxed);
        MultiQueueHandle {
            q: self,
            rng: SmallRng::seed_from_u64(handle_seed(self.seed, idx)),
        }
    }

    fn name(&self) -> String {
        "multiqueue".to_owned()
    }
}

impl RelaxationBound for MultiQueue {
    fn rank_bound(&self, _threads: usize) -> Option<u64> {
        None // no analysed bound (paper: "no complete analysis exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_everything() {
        let q = MultiQueue::new(4, 2);
        let mut h = q.handle();
        for k in 0..1000u64 {
            h.insert(k, k);
        }
        let mut got: Vec<Key> = std::iter::from_fn(|| h.delete_min()).map(|i| i.key).collect();
        got.sort_unstable();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn sub_queue_count_is_c_times_p() {
        assert_eq!(MultiQueue::new(4, 8).sub_queue_count(), 32);
        assert_eq!(MultiQueue::new(2, 3).sub_queue_count(), 6);
        // Lower bound of 2 so two-choice always has two queues.
        assert_eq!(MultiQueue::new(1, 1).sub_queue_count(), 2);
    }

    #[test]
    fn returns_small_but_not_necessarily_min() {
        let q = MultiQueue::new(4, 1);
        let mut h = q.handle();
        for k in 0..100u64 {
            h.insert(k, k);
        }
        // First deletion is among the sub-queue minima: with 4 sub-queues
        // and uniform spraying it is very likely small but may not be 0.
        let first = h.delete_min().unwrap();
        assert!(first.key < 100);
    }

    #[test]
    fn empty_queue() {
        let q = MultiQueue::new(4, 2);
        let mut h = q.handle();
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn single_item_roundtrip() {
        let q = MultiQueue::new(4, 4);
        let mut h = q.handle();
        h.insert(9, 1);
        assert_eq!(h.delete_min(), Some(Item::new(9, 1)));
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn concurrent_conservation() {
        use std::sync::atomic::AtomicUsize;
        let q = std::sync::Arc::new(MultiQueue::new(4, 4));
        let deleted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                let deleted = &deleted;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut dels = 0;
                    for i in 0..8000u64 {
                        if (i + t) % 2 == 0 {
                            h.insert((i * 31) % 1000, t * 8000 + i);
                        } else if h.delete_min().is_some() {
                            dels += 1;
                        }
                    }
                    deleted.fetch_add(dels, Ordering::Relaxed);
                });
            }
        });
        let mut h = q.handle();
        let mut rest = 0;
        while h.delete_min().is_some() {
            rest += 1;
        }
        assert_eq!(deleted.load(Ordering::Relaxed) + rest, 16000);
    }

    #[test]
    fn no_duplicate_values_under_concurrency() {
        let q = std::sync::Arc::new(MultiQueue::new(2, 4));
        {
            let mut h = q.handle();
            for v in 0..4000u64 {
                h.insert(v % 50, v);
            }
        }
        let all = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = &q;
                let all = &all;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut mine = Vec::new();
                    while let Some(it) = h.delete_min() {
                        mine.push(it.value);
                    }
                    all.lock().unwrap().extend(mine);
                });
            }
        });
        let mut vals = all.into_inner().unwrap();
        assert_eq!(vals.len(), 4000);
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 4000);
    }

    #[test]
    fn handles_are_deterministic_per_seed() {
        // Two queues built with the same seed must produce identical
        // delete orders (the pre-fix `from_entropy` seeding made quality
        // runs unreproducible).
        let run = |seed: u64| -> Vec<Item> {
            let q = MultiQueue::with_seed(4, 2, seed);
            let mut h = q.handle();
            for k in 0..500u64 {
                h.insert((k * 37) % 251, k);
            }
            std::iter::from_fn(|| h.delete_min()).collect()
        };
        assert_eq!(run(7), run(7));
        // Different seeds should (overwhelmingly) diverge somewhere.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn successive_handles_get_distinct_rng_streams() {
        let q = MultiQueue::new(4, 2);
        let mut h1 = q.handle();
        let mut h2 = q.handle();
        // Same insert sequence through two handles sprays to different
        // sub-queues; if both handles shared an RNG stream the interleaved
        // picks would collide far more often. Weak but cheap signal: the
        // queue still conserves all items.
        for k in 0..100u64 {
            h1.insert(k, k);
            h2.insert(k, 100 + k);
        }
        assert_eq!(q.len_quiescent(), 200);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_multiset_preserved(keys in proptest::collection::vec(0u64..500, 1..300)) {
            let q = MultiQueue::new(4, 2);
            let mut h = q.handle();
            for (i, &k) in keys.iter().enumerate() {
                h.insert(k, i as u64);
            }
            let mut got: Vec<Key> = std::iter::from_fn(|| h.delete_min())
                .map(|i| i.key).collect();
            got.sort_unstable();
            let mut expect = keys.clone();
            expect.sort_unstable();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
