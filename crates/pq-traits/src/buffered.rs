//! Insert-buffering adapter: one implementation of handle-local insert
//! batching for any concurrent priority queue.
//!
//! [`Buffered`] wraps a [`ConcurrentPq`]; each of its handles parks up
//! to `m − 1` inserts in a private buffer and commits them to the inner
//! queue as one ascending run through [`PqHandle::insert_sorted_run`] —
//! when the buffer reaches `m` items, on [`PqHandle::flush`], and when
//! the handle drops. Queues with a bulk-insert path (an LSM block merge,
//! a skiplist finger descent, one flat-combining publication) override
//! that hook; every other queue takes the run item by item.
//!
//! # Delete-then-exchange
//!
//! A handle's own buffered inserts must be visible to its own deletions.
//! `delete_min` first takes `g = inner.delete_min()` and then compares
//! it with the buffer minimum `b`: if `b <= g` it returns `b` and parks
//! `g` in the buffer instead, otherwise it returns `g`; if the inner
//! queue reported empty it pops the buffer. Taking `g` *before* the
//! comparison means the rule needs no `peek` from the inner queue (a
//! peeked minimum can be deleted by another thread before it is acted
//! on) and never commits on the delete path (on a mixed workload a
//! commit per delete keeps the buffer from ever filling). Items compare
//! by key, then value; on equality the buffered item is returned. At
//! that point neither item is in the shared structure, so either choice
//! conserves both — what matters is that every queue family resolves
//! the tie the same way.
//!
//! Through a single handle over a strict inner queue the result is
//! exact: `g` is the inner minimum, `b` the buffer minimum, and the
//! smaller of the two is returned. Across `P` handles a deletion cannot
//! see the at most `m − 1` items each handle has parked, so the rank
//! bound widens by `(m − 1)·P` over the inner queue's.

use crate::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, Value};

/// A queue wrapper giving every handle an insert buffer of `m` items.
#[derive(Debug)]
pub struct Buffered<Q> {
    inner: Q,
    m: usize,
}

impl<Q> Buffered<Q> {
    /// Wrap `inner` with per-handle insert buffers committed at `m`
    /// items. `m` must be at least 2: a buffer of one commits on every
    /// insert, which is the bare queue.
    pub fn new(inner: Q, m: usize) -> Self {
        assert!(m >= 2, "an insert buffer of {m} buffers nothing");
        Self { inner, m }
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &Q {
        &self.inner
    }
}

impl<Q: ConcurrentPq> ConcurrentPq for Buffered<Q> {
    type Handle<'a>
        = BufferedHandle<'a, Q>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        BufferedHandle {
            inner: self.inner.handle(),
            ins_buf: Vec::with_capacity(self.m),
            m: self.m,
        }
    }

    fn name(&self) -> String {
        format!("{}-b{}", self.inner.name(), self.m)
    }
}

impl<Q: RelaxationBound> RelaxationBound for Buffered<Q> {
    fn rank_bound(&self, threads: usize) -> Option<u64> {
        let parked = (self.m as u64 - 1) * threads as u64;
        self.inner.rank_bound(threads).map(|bound| bound + parked)
    }

    fn rank_bound_is_guaranteed(&self) -> bool {
        self.inner.rank_bound_is_guaranteed()
    }
}

/// Handle of a [`Buffered`] queue: the inner handle plus the buffer.
pub struct BufferedHandle<'a, Q: ConcurrentPq + 'a> {
    inner: Q::Handle<'a>,
    /// Pending inserts, sorted descending so the minimum is `last()`;
    /// holds fewer than `m` items between operations and keeps its
    /// allocation across commits.
    ins_buf: Vec<Item>,
    m: usize,
}

impl<Q: ConcurrentPq> BufferedHandle<'_, Q> {
    fn park(&mut self, item: Item) {
        let pos = self.ins_buf.partition_point(|x| *x > item);
        self.ins_buf.insert(pos, item);
    }

    /// Hand the buffered items to the inner queue as one ascending run.
    /// Returns the number of committed items.
    fn commit(&mut self) -> u64 {
        let n = self.ins_buf.len() as u64;
        if n > 0 {
            self.ins_buf.reverse();
            self.inner.insert_sorted_run(&self.ins_buf);
            self.ins_buf.clear();
        }
        n
    }
}

impl<Q: ConcurrentPq> PqHandle for BufferedHandle<'_, Q> {
    fn insert(&mut self, key: Key, value: Value) {
        self.park(Item::new(key, value));
        if self.ins_buf.len() >= self.m {
            self.commit();
        }
    }

    fn delete_min(&mut self) -> Option<Item> {
        let Some(&b) = self.ins_buf.last() else {
            return self.inner.delete_min();
        };
        match self.inner.delete_min() {
            Some(g) if b <= g => {
                self.ins_buf.pop();
                self.park(g);
                Some(b)
            }
            Some(g) => Some(g),
            None => self.ins_buf.pop(),
        }
    }

    fn flush(&mut self) -> u64 {
        self.commit() + self.inner.flush()
    }
}

impl<Q: ConcurrentPq> Drop for BufferedHandle<'_, Q> {
    fn drop(&mut self) {
        // The inner handle drops after this and commits whatever it
        // buffers itself.
        self.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::Mutex;

    /// What the test double's own `flush` claims to have committed, so
    /// the adapter's sum is distinguishable from its own count.
    const INNER_FLUSH: u64 = 100;

    /// Trivially correct strict inner queue.
    #[derive(Default)]
    struct HeapPq(Mutex<BinaryHeap<Reverse<Item>>>);

    impl HeapPq {
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    struct HeapHandle<'a>(&'a HeapPq);

    impl PqHandle for HeapHandle<'_> {
        fn insert(&mut self, key: Key, value: Value) {
            self.0 .0.lock().unwrap().push(Reverse(Item::new(key, value)));
        }
        fn delete_min(&mut self) -> Option<Item> {
            self.0 .0.lock().unwrap().pop().map(|Reverse(it)| it)
        }
        fn flush(&mut self) -> u64 {
            INNER_FLUSH
        }
    }

    impl ConcurrentPq for HeapPq {
        type Handle<'a> = HeapHandle<'a>;
        fn handle(&self) -> HeapHandle<'_> {
            HeapHandle(self)
        }
        fn name(&self) -> String {
            "heap".to_owned()
        }
    }

    impl RelaxationBound for HeapPq {
        fn rank_bound(&self, _threads: usize) -> Option<u64> {
            Some(0)
        }
    }

    #[test]
    fn commits_exactly_at_m() {
        let q = Buffered::new(HeapPq::default(), 4);
        let mut h = q.handle();
        for k in [9u64, 1, 7] {
            h.insert(k, k);
        }
        assert_eq!(q.inner().len(), 0, "m - 1 items stay parked");
        h.insert(3, 3);
        assert_eq!(q.inner().len(), 4, "the m-th insert commits the run");
        h.insert(5, 5);
        assert_eq!(q.inner().len(), 4, "the buffer starts over");
    }

    #[test]
    fn flush_returns_committed_count_plus_inner_flush() {
        let q = Buffered::new(HeapPq::default(), 8);
        let mut h = q.handle();
        for k in 0..3u64 {
            h.insert(k, k);
        }
        assert_eq!(h.flush(), 3 + INNER_FLUSH);
        assert_eq!(q.inner().len(), 3);
        assert_eq!(h.flush(), INNER_FLUSH, "nothing left to commit");
    }

    #[test]
    fn drop_commits() {
        let q = Buffered::new(HeapPq::default(), 64);
        {
            let mut h = q.handle();
            for k in 0..10u64 {
                h.insert(k, k);
            }
        }
        assert_eq!(q.inner().len(), 10);
    }

    #[test]
    fn exchanges_when_the_buffer_minimum_wins_ties_included() {
        let q = Buffered::new(HeapPq::default(), 8);
        let mut h = q.handle();
        h.insert(5, 1);
        h.insert(8, 0);
        h.flush();
        h.insert(5, 0); // parked; same key as the inner minimum (5, 1)
        h.insert(2, 0); // parked; smaller than everything
        // b = (2, 0) <= g = (5, 1): b is returned and g parked.
        assert_eq!(h.delete_min(), Some(Item::new(2, 0)));
        assert_eq!(q.inner().len(), 1, "g left the inner queue");
        // b = (5, 0) <= g = (8, 0): the equal-key pair comes back in
        // item order with nothing lost or duplicated.
        assert_eq!(h.delete_min(), Some(Item::new(5, 0)));
        assert_eq!(h.delete_min(), Some(Item::new(5, 1)));
        assert_eq!(h.delete_min(), Some(Item::new(8, 0)));
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn empty_inner_falls_back_to_the_buffer() {
        let q = Buffered::new(HeapPq::default(), 8);
        let mut h = q.handle();
        h.insert(6, 0);
        h.insert(4, 0);
        assert_eq!(q.inner().len(), 0);
        assert_eq!(h.delete_min(), Some(Item::new(4, 0)));
        assert_eq!(h.delete_min(), Some(Item::new(6, 0)));
        assert_eq!(h.delete_min(), None);
    }

    /// Two inserts then one delete, repeated, checked op by op against a
    /// sorted `Vec`; the rest is drained at the end.
    fn assert_exact_through_one_handle(keys: impl Iterator<Item = Key>) {
        let q = Buffered::new(HeapPq::default(), 4);
        let mut h = q.handle();
        let mut model: Vec<Item> = Vec::new();
        for (i, key) in keys.enumerate() {
            h.insert(key, i as u64);
            model.push(Item::new(key, i as u64));
            if i % 2 == 1 {
                model.sort_unstable_by(|a, b| b.cmp(a));
                assert_eq!(h.delete_min(), model.pop(), "after insert {i}");
            }
        }
        model.sort_unstable_by(|a, b| b.cmp(a));
        while let Some(want) = model.pop() {
            assert_eq!(h.delete_min(), Some(want));
        }
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn exact_on_descending_keys() {
        // Every new key is the smallest so far: the buffer minimum wins
        // each comparison and every delete exchanges.
        assert_exact_through_one_handle((0..200u64).rev());
    }

    #[test]
    fn exact_on_ascending_keys() {
        // Every new key is the largest so far: no delete exchanges.
        assert_exact_through_one_handle(0..200u64);
    }

    #[test]
    fn name_and_rank_bound_derive_from_the_inner_queue() {
        let q = Buffered::new(HeapPq::default(), 16);
        assert_eq!(q.name(), "heap-b16");
        assert_eq!(q.rank_bound(8), Some(15 * 8));
        assert!(q.rank_bound_is_guaranteed());
    }

    #[test]
    #[should_panic(expected = "buffers nothing")]
    fn a_buffer_of_one_is_rejected() {
        let _ = Buffered::new(HeapPq::default(), 1);
    }
}
