//! The sticky, buffered MultiQueue (`mq-sticky`).
//!
//! Williams, Sanders and Dementiev's engineering of the MultiQueue
//! ("Engineering MultiQueues: Fast Relaxed Concurrent Priority Queues",
//! arXiv:2107.01350) removes the per-operation costs of the SPAA 2015
//! baseline with two orthogonal optimizations:
//!
//! * **Queue stickiness** — instead of rolling fresh random sub-queue
//!   indices for every operation, each handle keeps its two chosen
//!   sub-queues for `s` consecutive operations (re-rolling early on
//!   `try_lock` failure or apparent emptiness). This amortizes the random
//!   pick and, more importantly, keeps each handle's working set in a
//!   small number of sub-queue heaps, turning cache misses into hits.
//! * **Insertion/deletion buffers** — each handle accumulates up to `m`
//!   inserts in a local sorted buffer and flushes them into one sub-queue
//!   under a *single* lock acquire; symmetrically, a successful
//!   two-choice pop pulls up to `m` smallest items into a handle-local
//!   buffer and serves subsequent `delete_min`s from it without touching
//!   shared state.
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
//! structure, and the handle calls it on drop. With `s = 1, m = 1` the
//! structure degenerates to (a determinstically seeded) plain
//! [`MultiQueue`](crate::MultiQueue).

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pq_traits::telemetry;
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};

use crate::{handle_seed, make_sub_queues, two_choice_pop, SubQueue, DEFAULT_SEED, EMPTY_MIN};

/// Sticky, buffered MultiQueue: the [`crate::MultiQueue`] hot path
/// re-engineered with queue stickiness (`s`) and per-handle
/// insertion/deletion buffers (`m`).
pub struct MultiQueueSticky {
    queues: Box<[CachePadded<SubQueue>]>,
    c: usize,
    stickiness: usize,
    batch: usize,
    seed: u64,
    handle_ctr: AtomicU64,
}

impl MultiQueueSticky {
    /// Create a sticky MultiQueue with `c * threads` sub-queues, handle
    /// stickiness `s` (operations between re-rolls; `1` = re-roll every
    /// op like the plain MultiQueue) and buffer capacity `m` (items per
    /// insertion/deletion buffer; `1` = unbuffered).
    pub fn new(c: usize, threads: usize, s: usize, m: usize) -> Self {
        Self::with_seed(c, threads, s, m, DEFAULT_SEED)
    }

    /// As [`new`](Self::new) with an explicit queue seed; handle RNGs
    /// derive deterministically from `seed ⊕ handle counter`.
    pub fn with_seed(c: usize, threads: usize, s: usize, m: usize, seed: u64) -> Self {
        Self {
            queues: make_sub_queues(c, threads),
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

    /// Stickiness parameter `s`.
    pub fn stickiness(&self) -> usize {
        self.stickiness
    }

    /// Buffer capacity `m`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Total items across all sub-queues (excluding items buffered in
    /// live handles). Takes every lock; for tests and quiescent
    /// inspection.
    pub fn len_quiescent(&self) -> usize {
        self.queues.iter().map(|q| q.heap.lock().len()).sum()
    }
}

impl std::fmt::Debug for MultiQueueSticky {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiQueueSticky")
            .field("sub_queues", &self.queues.len())
            .field("stickiness", &self.stickiness)
            .field("batch", &self.batch)
            .finish()
    }
}

/// Per-thread handle for [`MultiQueueSticky`].
///
/// Holds the sticky sub-queue pair, the RNG, and the insertion/deletion
/// buffers. Dropping the handle flushes both buffers back into the
/// shared structure.
pub struct MultiQueueStickyHandle<'a> {
    q: &'a MultiQueueSticky,
    rng: SmallRng,
    /// The two sticky sub-queue indices (deletes sample both; insert
    /// flushes go to `sticky[0]`).
    sticky: [usize; 2],
    /// Operations left before the sticky pair is re-rolled.
    uses_left: usize,
    /// Pending inserts, sorted descending (last = smallest).
    ins_buf: Vec<Item>,
    /// Prefetched deletions, sorted descending (last = smallest).
    del_buf: Vec<Item>,
}

/// Insert into a descending-sorted vector (last element = minimum).
fn insert_sorted_desc(buf: &mut Vec<Item>, item: Item) {
    let pos = buf.partition_point(|x| *x > item);
    buf.insert(pos, item);
}

impl MultiQueueStickyHandle<'_> {
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

    /// Drain the insertion buffer into one sub-queue under a single lock
    /// acquire (the sticky insert queue; re-roll on contention). Returns
    /// the number of items committed.
    fn flush_inserts(&mut self) -> u64 {
        if self.ins_buf.is_empty() {
            return 0;
        }
        loop {
            self.ensure_sticky();
            let q = &self.q.queues[self.sticky[0]];
            let Some(mut heap) = q.heap.try_lock() else {
                self.re_roll();
                continue;
            };
            let n = self.ins_buf.len() as u64;
            for it in self.ins_buf.drain(..) {
                heap.insert(it.key, it.value);
            }
            q.publish_min(&heap);
            telemetry::record(telemetry::Event::MqBufferFlush);
            telemetry::record_n(telemetry::Event::MqBufferFlushItems, n);
            return n;
        }
    }

    /// Return deletion-buffered items to the shared structure (they were
    /// popped but not yet handed to the caller). Returns the number of
    /// items returned.
    fn unspool_deletes(&mut self) -> u64 {
        if self.del_buf.is_empty() {
            return 0;
        }
        loop {
            self.ensure_sticky();
            let q = &self.q.queues[self.sticky[0]];
            let Some(mut heap) = q.heap.try_lock() else {
                self.re_roll();
                continue;
            };
            let n = self.del_buf.len() as u64;
            for it in self.del_buf.drain(..) {
                heap.insert(it.key, it.value);
            }
            q.publish_min(&heap);
            return n;
        }
    }

    /// Refill the deletion buffer from `pick`: pop up to `m` smallest
    /// items under one lock acquire, then spill any overflow (the
    /// largest buffered items) back so the buffer never exceeds `m`.
    /// Returns `true` if at least one item was obtained.
    fn refill_from(&mut self, pick: usize) -> bool {
        let q = &self.q.queues[pick];
        let Some(mut heap) = q.heap.try_lock() else {
            self.re_roll();
            return false;
        };
        let mut got = false;
        for _ in 0..self.q.batch {
            match heap.delete_min() {
                Some(it) => {
                    insert_sorted_desc(&mut self.del_buf, it);
                    got = true;
                }
                None => break,
            }
        }
        while self.del_buf.len() > self.q.batch {
            // Front of the descending buffer = largest; give it back.
            let largest = self.del_buf.remove(0);
            heap.insert(largest.key, largest.value);
        }
        q.publish_min(&heap);
        got
    }
}

impl PqHandle for MultiQueueStickyHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        insert_sorted_desc(&mut self.ins_buf, Item::new(key, value));
        if self.ins_buf.len() >= self.q.batch {
            self.flush_inserts();
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
                // Both sticky sub-queues look empty and (by the checks
                // above) both buffers are empty. Commit any pending state
                // and fall back to the plain randomized probe + sweep so
                // the emptiness answer is as reliable as the baseline's.
                self.re_roll();
                return two_choice_pop(&self.q.queues, &mut self.rng);
            }

            // Two-choice pop from the smaller sampled sub-queue,
            // prefetching up to `m` items into the deletion buffer.
            let pick = if ka <= kb { a } else { b };
            if self.refill_from(pick) {
                self.tick();
                return self.del_buf.pop();
            }
            // Lock contention or a race emptied the picked queue;
            // `refill_from` already re-rolled on contention. Re-roll on
            // the empty race too and retry.
            self.re_roll();
        }
    }

    fn flush(&mut self) -> u64 {
        self.flush_inserts() + self.unspool_deletes()
    }
}

impl Drop for MultiQueueStickyHandle<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl ConcurrentPq for MultiQueueSticky {
    type Handle<'a> = MultiQueueStickyHandle<'a>;

    fn handle(&self) -> MultiQueueStickyHandle<'_> {
        let idx = self.handle_ctr.fetch_add(1, Ordering::Relaxed);
        let mut h = MultiQueueStickyHandle {
            q: self,
            rng: SmallRng::seed_from_u64(handle_seed(self.seed, idx)),
            sticky: [0, 1],
            uses_left: 0, // forces a re-roll on first use
            ins_buf: Vec::with_capacity(self.batch),
            del_buf: Vec::with_capacity(self.batch),
        };
        h.re_roll();
        h
    }

    fn name(&self) -> String {
        let (c, s, m) = (self.c, self.stickiness, self.batch);
        if (c, s, m) == (4, 8, 8) {
            "mq-sticky".to_owned()
        } else if c == 4 {
            format!("mq-sticky-s{s}-m{m}")
        } else {
            format!("mq-sticky-c{c}-s{s}-m{m}")
        }
    }
}

impl RelaxationBound for MultiQueueSticky {
    fn rank_bound(&self, _threads: usize) -> Option<u64> {
        // Like the plain MultiQueue, no analysed bound; empirically the
        // rank error adds O(m·P) buffered items and O(s) staleness on
        // top of the baseline (see EXPERIMENTS.md).
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<(usize, usize)> {
        vec![(1, 1), (8, 1), (64, 1), (1, 16), (8, 16), (64, 16)]
    }

    #[test]
    fn drains_everything_across_the_ablation_grid() {
        for (s, m) in grid() {
            let q = MultiQueueSticky::new(4, 2, s, m);
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
        let q = MultiQueueSticky::new(4, 2, 8, 16);
        let mut h = q.handle();
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn flush_returns_number_of_committed_items() {
        let q = MultiQueueSticky::new(4, 2, 8, 16);
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
        let q = MultiQueueSticky::new(4, 4, 64, 16);
        let mut h = q.handle();
        h.insert(9, 1);
        // The item sits in the insertion buffer (m=16 not reached); the
        // delete must still find it.
        assert_eq!(h.delete_min(), Some(Item::new(9, 1)));
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn flush_commits_buffered_inserts() {
        let q = MultiQueueSticky::new(4, 2, 8, 16);
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
        let q = MultiQueueSticky::new(4, 2, 8, 16);
        {
            let mut h = q.handle();
            for k in 0..100u64 {
                h.insert(k, k);
            }
            // Prime the deletion buffer too, then abandon the handle with
            // items still in both buffers.
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
        // smaller key. The first handle's next delete must not blindly
        // serve its buffer.
        let q = MultiQueueSticky::new(2, 1, 64, 4);
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
        use std::sync::atomic::AtomicUsize;
        for (s, m) in [(8usize, 16usize), (64, 16)] {
            let q = std::sync::Arc::new(MultiQueueSticky::new(4, 4, s, m));
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
    }

    #[test]
    fn no_duplicate_values_under_concurrency() {
        let q = std::sync::Arc::new(MultiQueueSticky::new(2, 4, 8, 16));
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
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 4000);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| -> Vec<Item> {
            let q = MultiQueueSticky::with_seed(4, 2, 8, 16, seed);
            let mut h = q.handle();
            for k in 0..500u64 {
                h.insert((k * 37) % 251, k);
            }
            std::iter::from_fn(|| h.delete_min()).collect()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn s1_m1_degenerates_to_plain_behavior() {
        // Unbuffered config: every insert is immediately visible.
        let q = MultiQueueSticky::new(4, 2, 1, 1);
        let mut h = q.handle();
        for k in 0..50u64 {
            h.insert(k, k);
        }
        assert_eq!(q.len_quiescent(), 50);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_multiset_preserved(
            keys in proptest::collection::vec(0u64..500, 1..300),
            s in 1usize..32,
            m in 1usize..24,
        ) {
            let q = MultiQueueSticky::new(4, 2, s, m);
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
