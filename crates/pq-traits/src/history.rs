//! Per-thread operation histories for semantic checking.
//!
//! The `checker` crate verifies conservation and rank bounds from a
//! complete record of what every thread did to a queue. [`Recorded`]
//! wraps any [`ConcurrentPq`] and stamps each operation twice on a
//! queue-wide logical clock: a `start` load before the inner call and a
//! unique `ts` `fetch_add` after it returns (the completion convention
//! matches the harness's quality benchmark, so replay tooling can share
//! slack assumptions). Each handle buffers its records in a plain `Vec`
//! and commits it to the queue-level registry when dropped, so the
//! recording hot path is two atomics plus a vector push. Every
//! operation also passes through [`crate::chaos::tick`], so a checker
//! run under chaos perturbs even queues that have no internal telemetry
//! hook points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, Value};

/// One completed operation and its observed result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `insert(key, value)` returned.
    Insert(Item),
    /// `delete_min()` returned this result (`None` = appeared empty).
    DeleteMin(Option<Item>),
    /// `flush()` committed this many buffered items.
    Flush(u64),
}

/// An [`Op`] stamped with its invocation and completion times on the
/// queue's logical clock. Completion timestamps are unique per queue
/// (fetch_add), so sorting by `ts` yields one total order consistent
/// with per-thread program order — but *not* necessarily with
/// linearization order, since the operation's effect lands somewhere in
/// `[start, ts]`. Checkers exploit the interval: an observation that is
/// explainable at *either* endpoint (or is off by no more than the
/// in-flight operation count) cannot be blamed on the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Logical clock value when the operation was invoked (a plain
    /// load, so not unique — ties broken by `ts`).
    pub start: u64,
    /// Logical completion timestamp (unique).
    pub ts: u64,
    /// The operation.
    pub op: Op,
}

/// Recording wrapper around a concurrent priority queue.
///
/// Shareable by reference exactly like the queue it wraps; handles
/// created through it record every operation into
/// per-handle buffers collected by [`Recorded::take_histories`].
pub struct Recorded<Q> {
    inner: Q,
    clock: AtomicU64,
    histories: Mutex<Vec<Vec<OpRecord>>>,
}

impl<Q> Recorded<Q> {
    /// Wrap `inner`; every handle records its operations.
    pub fn new(inner: Q) -> Self {
        Self {
            inner,
            clock: AtomicU64::new(0),
            histories: Mutex::new(Vec::new()),
        }
    }

    /// Current logical clock value. All records committed so far have
    /// `ts` strictly below this; drivers capture it between phases (with
    /// the threads quiescent at a barrier) to partition histories.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Drain every committed per-handle history. Histories from handles
    /// that are still alive are not included — drop (or flush and drop)
    /// all handles first.
    pub fn take_histories(&self) -> Vec<Vec<OpRecord>> {
        std::mem::take(&mut *self.histories.lock().unwrap())
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &Q {
        &self.inner
    }

    /// Unwrap, discarding any recorded histories.
    pub fn into_inner(self) -> Q {
        self.inner
    }
}

impl<Q: ConcurrentPq> ConcurrentPq for Recorded<Q> {
    type Handle<'a>
        = RecordedHandle<'a, Q>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        RecordedHandle {
            inner: self.inner.handle(),
            owner: self,
            local: Vec::new(),
        }
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl<Q: RelaxationBound> RelaxationBound for Recorded<Q> {
    fn rank_bound(&self, threads: usize) -> Option<u64> {
        self.inner.rank_bound(threads)
    }

    fn rank_bound_is_guaranteed(&self) -> bool {
        self.inner.rank_bound_is_guaranteed()
    }
}

/// Handle produced by [`Recorded`]; forwards to the wrapped queue's
/// handle and logs each completed operation.
pub struct RecordedHandle<'a, Q: ConcurrentPq + 'a> {
    inner: Q::Handle<'a>,
    owner: &'a Recorded<Q>,
    local: Vec<OpRecord>,
}

impl<'a, Q: ConcurrentPq> RecordedHandle<'a, Q> {
    /// Invocation stamp, taken before the inner operation runs. Ops
    /// with completion stamps below the returned value have fully
    /// finished (stamped) at this point.
    #[inline]
    fn start(&self) -> u64 {
        self.owner.clock.load(Ordering::SeqCst)
    }

    #[inline]
    fn log(&mut self, start: u64, op: Op) {
        // Completion stamp *after* the operation returned: the record
        // order within a thread matches program order, and the clock
        // never runs ahead of the operations it describes.
        let ts = self.owner.clock.fetch_add(1, Ordering::SeqCst);
        self.local.push(OpRecord { start, ts, op });
    }
}

impl<'a, Q: ConcurrentPq> PqHandle for RecordedHandle<'a, Q> {
    #[inline]
    fn insert(&mut self, key: Key, value: Value) {
        crate::chaos::tick();
        let start = self.start();
        self.inner.insert(key, value);
        self.log(start, Op::Insert(Item::new(key, value)));
    }

    #[inline]
    fn delete_min(&mut self) -> Option<Item> {
        crate::chaos::tick();
        let start = self.start();
        let got = self.inner.delete_min();
        self.log(start, Op::DeleteMin(got));
        got
    }

    #[inline]
    fn flush(&mut self) -> u64 {
        let start = self.start();
        let n = self.inner.flush();
        self.log(start, Op::Flush(n));
        n
    }
}

impl<'a, Q: ConcurrentPq> Drop for RecordedHandle<'a, Q> {
    fn drop(&mut self) {
        if !self.local.is_empty() {
            let mut histories = self.owner.histories.lock().unwrap();
            histories.push(std::mem::take(&mut self.local));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny strict queue for exercising the wrapper.
    #[derive(Default)]
    struct VecPq {
        items: Mutex<Vec<Item>>,
    }

    struct VecPqHandle<'a>(&'a VecPq);

    impl ConcurrentPq for VecPq {
        type Handle<'a> = VecPqHandle<'a>;

        fn handle(&self) -> VecPqHandle<'_> {
            VecPqHandle(self)
        }

        fn name(&self) -> String {
            "vecpq".into()
        }
    }

    impl PqHandle for VecPqHandle<'_> {
        fn insert(&mut self, key: Key, value: Value) {
            self.0.items.lock().unwrap().push(Item::new(key, value));
        }

        fn delete_min(&mut self) -> Option<Item> {
            let mut items = self.0.items.lock().unwrap();
            let idx = items
                .iter()
                .enumerate()
                .min_by_key(|(_, it)| **it)
                .map(|(i, _)| i)?;
            Some(items.swap_remove(idx))
        }
    }

    #[test]
    fn records_ops_with_monotone_timestamps() {
        let q = Recorded::new(VecPq::default());
        assert_eq!(q.name(), "vecpq");
        {
            let mut h = q.handle();
            h.insert(3, 30);
            h.insert(1, 10);
            assert_eq!(h.delete_min(), Some(Item::new(1, 10)));
            assert_eq!(h.flush(), 0);
        }
        let boundary = q.now();
        assert_eq!(boundary, 4);
        {
            let mut h = q.handle();
            assert_eq!(h.delete_min(), Some(Item::new(3, 30)));
            assert_eq!(h.delete_min(), None);
        }
        let histories = q.take_histories();
        assert_eq!(histories.len(), 2);
        let mut all: Vec<OpRecord> = histories.concat();
        all.sort_by_key(|r| r.ts);
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].op, Op::Insert(Item::new(3, 30)));
        assert_eq!(all[3].op, Op::Flush(0));
        assert!(all[..4].iter().all(|r| r.ts < boundary));
        assert!(all[4..].iter().all(|r| r.ts >= boundary));
        assert_eq!(all[5].op, Op::DeleteMin(None));
        // Histories were drained.
        assert!(q.take_histories().is_empty());
    }
}
