//! The MultiQueue relaxed concurrent priority queue (`multiqueue`,
//! `mq-sticky`).
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
//!
//! Williams, Sanders and Dementiev's engineering of the MultiQueue
//! ("Engineering MultiQueues: Fast Relaxed Concurrent Priority Queues",
//! arXiv:2107.01350) parametrises the handle by two orthogonal knobs;
//! `s = 1, m = 1` is the queue above (`multiqueue`), and every other
//! setting is named `mq-sticky…`:
//!
//! * **Queue stickiness `s`** — instead of rolling fresh random
//!   sub-queue indices for every operation, each handle keeps its two
//!   chosen sub-queues for `s` consecutive operations (re-rolling early
//!   on `try_lock` failure or apparent emptiness). This amortizes the
//!   random pick and, more importantly, keeps each handle's working set
//!   in a small number of sub-queue heaps, turning cache misses into
//!   hits.
//! * **Insertion/deletion buffers `m`** — each handle holds up to
//!   `m − 1` inserts in a local sorted buffer and commits them together
//!   with the `m`-th under a *single* lock acquire; symmetrically, a
//!   successful two-choice pop takes up to `m` smallest items, returns
//!   the first and serves subsequent `delete_min`s from the rest without
//!   touching shared state. At `m = 1` both buffers stay empty.
//!
//! Quality is kept from collapsing by never serving a buffer blindly:
//! `delete_min` compares the local buffer heads against the lock-free
//! sampled minima of the two sticky sub-queues and only returns a
//! buffered item when it is no larger than both samples. The relaxation
//! cost is therefore bounded by the staleness of `s` operations plus the
//! up-to-`m·P` items hidden in other threads' buffers.
//!
//! Buffered items are never lost: [`PqHandle::flush`] commits the
//! insertion buffer and returns deletion-buffered items to the shared
//! structure, and the handle calls it on drop. Handle RNGs are seeded
//! deterministically from the queue seed.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pq_traits::seed::{handle_seed, DEFAULT_QUEUE_SEED};
use pq_traits::telemetry;
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};
use seqpq::BinaryHeap;

/// Sentinel stored in the cached-minimum atomic of an empty sub-queue.
const EMPTY_MIN: u64 = u64::MAX;

struct SubQueue {
    heap: Mutex<BinaryHeap>,
    /// Key of the heap's current minimum, or [`EMPTY_MIN`]. Updated under
    /// the lock after every mutation; read lock-free by the two-choice
    /// deletion.
    min_key: AtomicU64,
}

impl SubQueue {
    fn new() -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::new()),
            min_key: AtomicU64::new(EMPTY_MIN),
        }
    }

    fn publish_min(&self, heap: &BinaryHeap) {
        let key = heap.peek_min().map_or(EMPTY_MIN, |it| it.key);
        self.min_key.store(key, Ordering::Release);
    }
}

/// Two-choice deletion over a sub-queue array: sample the cached minima
/// of two distinct random sub-queues, pop from the smaller under its
/// lock. After `n` consecutive all-empty-looking samples (or `2n` total
/// rounds) fall back to a blocking full sweep so emptiness answers are
/// reliable without burning the whole round budget on an empty queue.
///
/// The fallback of [`MultiQueueHandle`]'s `delete_min` once both sticky
/// sub-queues look empty.
fn two_choice_pop(queues: &[CachePadded<SubQueue>], rng: &mut SmallRng) -> Option<Item> {
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
/// sub-queues, with queue stickiness (`s`) and per-handle
/// insertion/deletion buffers (`m`).
pub struct MultiQueue {
    queues: Box<[CachePadded<SubQueue>]>,
    c: usize,
    stickiness: usize,
    batch: usize,
    seed: u64,
    handle_ctr: AtomicU64,
}

impl MultiQueue {
    /// Create a MultiQueue with `c * threads` sub-queues (at least 2;
    /// the paper's benchmarks use `c = 4`), handle stickiness `s`
    /// (operations between re-rolls; `1` = re-roll every op) and buffer
    /// capacity `m` (items per insertion/deletion buffer; `1` =
    /// unbuffered), and the default deterministic seed.
    pub fn new(c: usize, threads: usize, s: usize, m: usize) -> Self {
        Self::with_seed(c, threads, s, m, DEFAULT_QUEUE_SEED)
    }

    /// As [`new`](Self::new) with an explicit queue seed; handle `i`'s
    /// RNG derives from `seed ⊕ mix(i)`, making benchmark runs
    /// reproducible.
    pub fn with_seed(c: usize, threads: usize, s: usize, m: usize, seed: u64) -> Self {
        let n = (c * threads).max(2);
        Self {
            queues: (0..n).map(|_| CachePadded::new(SubQueue::new())).collect(),
            c,
            stickiness: s.max(1),
            batch: m.max(1),
            seed,
            handle_ctr: AtomicU64::new(0),
        }
    }

    /// Number of sub-queues.
    pub fn sub_queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Total items across all sub-queues (excluding items buffered in
    /// live handles). Takes every lock; for tests and quiescent
    /// inspection.
    pub fn len_quiescent(&self) -> usize {
        self.queues.iter().map(|q| q.heap.lock().len()).sum()
    }
}

impl std::fmt::Debug for MultiQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiQueue")
            .field("sub_queues", &self.queues.len())
            .field("stickiness", &self.stickiness)
            .field("batch", &self.batch)
            .finish()
    }
}

/// Per-thread handle for [`MultiQueue`].
///
/// Holds the sticky sub-queue pair, the RNG, and the insertion/deletion
/// buffers. Dropping the handle flushes both buffers back into the
/// shared structure.
pub struct MultiQueueHandle<'a> {
    q: &'a MultiQueue,
    rng: SmallRng,
    /// The two sticky sub-queue indices (deletes sample both; inserts
    /// go to `sticky[0]`).
    sticky: [usize; 2],
    /// Operations left before the sticky pair is re-rolled.
    uses_left: usize,
    /// Pending inserts (at most `m − 1`), sorted descending (last =
    /// smallest).
    ins_buf: Vec<Item>,
    /// Prefetched deletions (at most `m − 1`), sorted descending (last =
    /// smallest).
    del_buf: Vec<Item>,
}

/// Insert into a descending-sorted vector (last element = minimum).
fn insert_sorted_desc(buf: &mut Vec<Item>, item: Item) {
    let pos = buf.partition_point(|x| *x > item);
    buf.insert(pos, item);
}

impl<'a> MultiQueueHandle<'a> {
    /// Pick a fresh sticky pair and reset the stickiness budget.
    fn re_roll(&mut self) {
        let n = self.q.queues.len();
        let a = self.rng.gen_range(0..n);
        let r = self.rng.gen_range(0..n - 1);
        let b = if r >= a { r + 1 } else { r };
        self.sticky = [a, b];
        self.uses_left = self.q.stickiness;
    }

    /// Consume one operation from the stickiness budget.
    fn tick(&mut self) {
        self.uses_left = self.uses_left.saturating_sub(1);
    }

    /// Re-roll if the stickiness budget is spent.
    fn ensure_sticky(&mut self) {
        if self.uses_left == 0 {
            self.re_roll();
        }
    }

    /// Lock the sticky insertion sub-queue, re-rolling on contention.
    fn lock_insert_queue(&mut self) -> (&'a SubQueue, MutexGuard<'a, BinaryHeap>) {
        let queues: &'a [CachePadded<SubQueue>] = &self.q.queues;
        loop {
            self.ensure_sticky();
            let q = &queues[self.sticky[0]];
            if let Some(heap) = q.heap.try_lock() {
                return (q, heap);
            }
            self.re_roll();
        }
    }

    /// Commit the insertion buffer, and `last` if given, into one
    /// sub-queue under a single lock acquire. Returns the number of
    /// buffered items committed; only a commit that carries buffered
    /// items counts as a buffer flush, so at `m = 1` none does.
    fn commit_inserts(&mut self, last: Option<Item>) -> u64 {
        let buffered = self.ins_buf.len() as u64;
        if buffered == 0 && last.is_none() {
            return 0;
        }
        let (q, mut heap) = self.lock_insert_queue();
        for it in self.ins_buf.drain(..).chain(last) {
            heap.insert(it.key, it.value);
        }
        q.publish_min(&heap);
        if buffered > 0 {
            telemetry::record(telemetry::Event::MqBufferFlush);
            telemetry::record_n(
                telemetry::Event::MqBufferFlushItems,
                buffered + u64::from(last.is_some()),
            );
        }
        buffered
    }

    /// Return deletion-buffered items to the shared structure (they were
    /// popped but not yet handed to the caller). Returns the number of
    /// items returned.
    fn unspool_deletes(&mut self) -> u64 {
        if self.del_buf.is_empty() {
            return 0;
        }
        let (q, mut heap) = self.lock_insert_queue();
        let n = self.del_buf.len() as u64;
        for it in self.del_buf.drain(..) {
            heap.insert(it.key, it.value);
        }
        q.publish_min(&heap);
        n
    }

    /// Pop the minimum of sub-queue `pick` under one lock acquire and
    /// return it; up to `m − 1` further smallest items come along into
    /// the deletion buffer, which gives its largest items back so it
    /// never holds more than `m − 1`. Returns `None` on lock contention
    /// (after re-rolling) or if `pick` has been emptied by a race.
    fn pop_from(&mut self, pick: usize) -> Option<Item> {
        let q = &self.q.queues[pick];
        let Some(mut heap) = q.heap.try_lock() else {
            self.re_roll();
            return None;
        };
        let min = heap.delete_min();
        if min.is_some() {
            for _ in 1..self.q.batch {
                let Some(it) = heap.delete_min() else {
                    break;
                };
                insert_sorted_desc(&mut self.del_buf, it);
            }
            while self.del_buf.len() >= self.q.batch {
                // Front of the descending buffer = largest; give it back.
                let largest = self.del_buf.remove(0);
                heap.insert(largest.key, largest.value);
            }
        }
        q.publish_min(&heap);
        min
    }
}

impl PqHandle for MultiQueueHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        let item = Item::new(key, value);
        if self.ins_buf.len() + 1 < self.q.batch {
            insert_sorted_desc(&mut self.ins_buf, item);
        } else {
            self.commit_inserts(Some(item));
        }
        self.tick();
    }

    fn delete_min(&mut self) -> Option<Item> {
        loop {
            self.ensure_sticky();
            let [a, b] = self.sticky;
            let ka = self.q.queues[a].min_key.load(Ordering::Acquire);
            let kb = self.q.queues[b].min_key.load(Ordering::Acquire);
            let qmin = ka.min(kb);

            // Serve from a local buffer only while its head is no larger
            // than both sampled sub-queue minima — this is what keeps the
            // rank error from collapsing to "my own last m inserts".
            let ins_min = self.ins_buf.last().map_or(EMPTY_MIN, |it| it.key);
            let del_min = self.del_buf.last().map_or(EMPTY_MIN, |it| it.key);
            if ins_min <= del_min && ins_min <= qmin && !self.ins_buf.is_empty() {
                self.tick();
                return self.ins_buf.pop();
            }
            if del_min <= qmin && !self.del_buf.is_empty() {
                self.tick();
                return self.del_buf.pop();
            }

            if qmin == EMPTY_MIN {
                telemetry::record(telemetry::Event::MqEmptySample);
                // Both sticky sub-queues look empty, and both buffers are
                // empty (a non-empty one would have been served above).
                // Fall back to the randomized probe + sweep so the
                // emptiness answer is reliable.
                self.re_roll();
                return two_choice_pop(&self.q.queues, &mut self.rng);
            }

            // Two-choice pop from the smaller sampled sub-queue,
            // prefetching up to `m − 1` more items into the deletion
            // buffer.
            let pick = if ka <= kb { a } else { b };
            if let Some(item) = self.pop_from(pick) {
                self.tick();
                return Some(item);
            }
            // Lock contention or a race emptied the picked queue;
            // `pop_from` already re-rolled on contention. Re-roll on the
            // empty race too and retry.
            self.re_roll();
        }
    }

    fn flush(&mut self) -> u64 {
        self.commit_inserts(None) + self.unspool_deletes()
    }
}

impl Drop for MultiQueueHandle<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl ConcurrentPq for MultiQueue {
    type Handle<'a> = MultiQueueHandle<'a>;

    fn handle(&self) -> MultiQueueHandle<'_> {
        let idx = self.handle_ctr.fetch_add(1, Ordering::Relaxed);
        let mut h = MultiQueueHandle {
            q: self,
            rng: SmallRng::seed_from_u64(handle_seed(self.seed, idx)),
            sticky: [0, 1],
            uses_left: 0,
            ins_buf: Vec::with_capacity(self.batch - 1),
            del_buf: Vec::with_capacity(self.batch - 1),
        };
        h.re_roll();
        h
    }

    fn name(&self) -> String {
        match (self.c, self.stickiness, self.batch) {
            (4, 1, 1) => "multiqueue".to_owned(),
            (c, 1, 1) => format!("multiqueue-c{c}"),
            (4, 8, 8) => "mq-sticky".to_owned(),
            (4, s, m) => format!("mq-sticky-s{s}-m{m}"),
            (c, s, m) => format!("mq-sticky-c{c}-s{s}-m{m}"),
        }
    }
}

impl RelaxationBound for MultiQueue {
    fn rank_bound(&self, _threads: usize) -> Option<u64> {
        // No analysed bound (paper: "no complete analysis exists");
        // empirically the rank error adds O(m·P) buffered items and O(s)
        // staleness on top of the s = m = 1 queue (see EXPERIMENTS.md).
        None
    }
}

/// Tests of the s = m = 1 queue (`multiqueue`), plus the checks every
/// configuration shares; `sticky::tests` runs those on the buffered and
/// sticky settings.
#[cfg(test)]
mod tests {
    use super::*;

    /// Four handles alternate inserts and deletes on a `(4, 4, s, m)`
    /// queue; what they deleted plus what is left must be what went in.
    pub(crate) fn assert_concurrent_conservation(s: usize, m: usize) {
        use std::sync::atomic::AtomicUsize;
        let q = std::sync::Arc::new(MultiQueue::new(4, 4, s, m));
        let deleted = AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let q = &q;
                let deleted = &deleted;
                sc.spawn(move || {
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
                    // Handle drop flushes both buffers.
                });
            }
        });
        let mut h = q.handle();
        let mut rest = 0;
        while h.delete_min().is_some() {
            rest += 1;
        }
        assert_eq!(
            deleted.load(Ordering::Relaxed) + rest,
            16000,
            "items lost at s={s} m={m}"
        );
    }

    /// Four handles drain a `(2, 4, s, m)` queue of 4000 distinct values
    /// at once; each value must come out exactly once.
    pub(crate) fn assert_no_duplicate_values(s: usize, m: usize) {
        let q = std::sync::Arc::new(MultiQueue::new(2, 4, s, m));
        {
            let mut h = q.handle();
            for v in 0..4000u64 {
                h.insert(v % 50, v);
            }
        }
        let all = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let q = &q;
                let all = &all;
                sc.spawn(move || {
                    let mut h = q.handle();
                    let mut mine = Vec::new();
                    while let Some(it) = h.delete_min() {
                        mine.push(it.value);
                    }
                    // A racing flush from another finishing handle can
                    // repopulate the queue; one more drain round after
                    // flushing our own buffers.
                    h.flush();
                    while let Some(it) = h.delete_min() {
                        mine.push(it.value);
                    }
                    all.lock().unwrap().extend(mine);
                });
            }
        });
        let mut vals = all.into_inner().unwrap();
        assert_eq!(vals.len(), 4000, "s={s} m={m}");
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 4000, "s={s} m={m}");
    }

    /// Inserts `keys` into a `(4, 2, s, m)` queue through one handle and
    /// returns the drained keys, sorted.
    pub(crate) fn drained_keys(s: usize, m: usize, keys: &[Key]) -> Vec<Key> {
        let q = MultiQueue::new(4, 2, s, m);
        let mut h = q.handle();
        for (i, &k) in keys.iter().enumerate() {
            h.insert(k, i as u64);
        }
        let mut got: Vec<Key> = std::iter::from_fn(|| h.delete_min())
            .map(|i| i.key)
            .collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn sub_queue_count_is_c_times_p() {
        assert_eq!(MultiQueue::new(4, 8, 1, 1).sub_queue_count(), 32);
        assert_eq!(MultiQueue::new(2, 3, 8, 16).sub_queue_count(), 6);
        // Lower bound of 2 so two-choice always has two queues.
        assert_eq!(MultiQueue::new(1, 1, 1, 1).sub_queue_count(), 2);
    }

    #[test]
    fn concurrent_conservation() {
        assert_concurrent_conservation(1, 1);
    }

    #[test]
    fn no_duplicate_values_under_concurrency() {
        assert_no_duplicate_values(1, 1);
    }

    #[test]
    fn s1_m1_len_tracks_every_operation() {
        // Unbuffered config: every insert and delete reaches the shared
        // structure before it returns.
        let q = MultiQueue::new(4, 2, 1, 1);
        let mut h = q.handle();
        for k in 0..50u64 {
            h.insert(k, k);
            assert_eq!(q.len_quiescent(), k as usize + 1);
        }
        for left in (0..50usize).rev() {
            assert!(h.delete_min().is_some());
            assert_eq!(q.len_quiescent(), left);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_multiset_preserved(keys in proptest::collection::vec(0u64..500, 1..300)) {
            let mut expect = keys.clone();
            expect.sort_unstable();
            proptest::prop_assert_eq!(drained_keys(1, 1, &keys), expect);
        }
    }
}

/// Tests of the settings with stickiness `s > 1` or buffer size `m > 1`
/// (`mq-sticky…`), where items sit in per-handle buffers between
/// operations.
#[cfg(test)]
mod sticky {
    mod tests {
        use crate::tests::{
            assert_concurrent_conservation, assert_no_duplicate_values, drained_keys,
        };
        use crate::*;

        fn grid() -> Vec<(usize, usize)> {
            vec![(1, 1), (8, 1), (64, 1), (1, 16), (8, 16), (64, 16)]
        }

        #[test]
        fn drains_everything_across_the_ablation_grid() {
            for (s, m) in grid() {
                let q = MultiQueue::new(4, 2, s, m);
                let mut h = q.handle();
                for k in 0..1000u64 {
                    h.insert(k, k);
                }
                let mut got: Vec<Key> =
                    std::iter::from_fn(|| h.delete_min()).map(|i| i.key).collect();
                got.sort_unstable();
                assert_eq!(got, (0..1000).collect::<Vec<_>>(), "s={s} m={m}");
                assert_eq!(h.delete_min(), None);
            }
        }

        #[test]
        fn empty_queue_returns_none() {
            for (s, m) in grid() {
                let q = MultiQueue::new(4, 2, s, m);
                let mut h = q.handle();
                assert_eq!(h.delete_min(), None, "s={s} m={m}");
            }
        }

        #[test]
        fn flush_returns_number_of_committed_items() {
            let q = MultiQueue::new(4, 2, 8, 16);
            let mut h = q.handle();
            for k in 0..5u64 {
                h.insert(k, k);
            }
            // m=16 not reached, so all 5 items are still buffered.
            assert_eq!(h.flush(), 5);
            // Nothing left to commit on a second flush.
            assert_eq!(h.flush(), 0);
        }

        #[test]
        fn single_item_roundtrip_despite_buffering() {
            let q = MultiQueue::new(4, 4, 64, 16);
            let mut h = q.handle();
            h.insert(9, 1);
            // The item sits in the insertion buffer (m=16 not reached);
            // the delete must still find it.
            assert_eq!(h.delete_min(), Some(Item::new(9, 1)));
            assert_eq!(h.delete_min(), None);
        }

        #[test]
        fn flush_commits_buffered_inserts() {
            let q = MultiQueue::new(4, 2, 8, 16);
            let mut h = q.handle();
            for k in 0..10u64 {
                h.insert(k, k);
            }
            // m=16: nothing flushed yet.
            assert!(q.len_quiescent() < 10);
            h.flush();
            assert_eq!(q.len_quiescent(), 10);
        }

        #[test]
        fn drop_flushes_buffers_no_item_lost() {
            let q = MultiQueue::new(4, 2, 8, 16);
            {
                let mut h = q.handle();
                for k in 0..100u64 {
                    h.insert(k, k);
                }
                // Prime the deletion buffer too, then abandon the handle
                // with items still in both buffers.
                let _ = h.delete_min();
                h.insert(1000, 1000);
            }
            // 100 inserted + 1 extra − 1 deleted = 100 items must survive.
            assert_eq!(q.len_quiescent(), 100);
            let mut h = q.handle();
            let mut n = 0;
            while h.delete_min().is_some() {
                n += 1;
            }
            assert_eq!(n, 100);
        }

        #[test]
        fn deletion_buffer_defers_to_smaller_shared_minimum() {
            // One handle buffers large keys; a second handle inserts a
            // smaller key. The first handle's next delete must not
            // blindly serve its buffer.
            let q = MultiQueue::new(2, 1, 64, 4);
            let mut h1 = q.handle();
            for k in [50u64, 60, 70, 80] {
                h1.insert(k, k);
            }
            h1.flush();
            let first = h1.delete_min().unwrap();
            assert_eq!(first.key, 50);
            // del_buf now likely holds {60,70,80}.
            let mut h2 = q.handle();
            h2.insert(1, 1);
            h2.flush();
            let next = h1.delete_min().unwrap();
            assert_eq!(next.key, 1, "buffer head 60 must lose to published 1");
        }

        #[test]
        fn concurrent_conservation_with_buffers() {
            for (s, m) in [(8, 16), (64, 16)] {
                assert_concurrent_conservation(s, m);
            }
        }

        #[test]
        fn no_duplicate_values_under_concurrency() {
            assert_no_duplicate_values(8, 16);
        }

        #[test]
        fn deterministic_per_seed() {
            for (s, m) in [(1, 1), (8, 16)] {
                let run = |seed: u64| -> Vec<Item> {
                    let q = MultiQueue::with_seed(4, 2, s, m, seed);
                    let mut h = q.handle();
                    for k in 0..500u64 {
                        h.insert((k * 37) % 251, k);
                    }
                    std::iter::from_fn(|| h.delete_min()).collect()
                };
                assert_eq!(run(42), run(42), "s={s} m={m}");
                // Different seeds should (overwhelmingly) diverge somewhere.
                assert_ne!(run(42), run(43), "s={s} m={m}");
            }
        }

        proptest::proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
            #[test]
            fn prop_multiset_preserved(
                keys in proptest::collection::vec(0u64..500, 1..300),
                s in 1usize..32,
                m in 1usize..24,
            ) {
                let mut expect = keys.clone();
                expect.sort_unstable();
                proptest::prop_assert_eq!(drained_keys(s, m, &keys), expect);
            }
        }
    }
}
