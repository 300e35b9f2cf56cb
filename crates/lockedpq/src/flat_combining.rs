//! Generic flat-combining wrapper for lock-based queues.
//!
//! Flat combining (Hendler, Incze, Shavit, Tzafrir, SPAA 2010) replaces
//! lock *handoff* with op *delegation*: instead of every thread fighting
//! for the lock and crossing the coherence bus twice per operation, each
//! thread publishes its operation into a thread-private, cache-line-padded
//! publication record and spins locally. Whichever thread wins a
//! `try_lock` becomes the **combiner**: it scans the publication list and
//! applies *all* pending operations in one critical section, so the
//! shared structure stays hot in a single core's cache and the lock is
//! acquired once per batch of operations instead of once per operation.
//!
//! Pending `delete_min` requests are served *in key order from one heap
//! pass*: the combiner first applies every pending insert, then pops
//! once per pending delete request — consecutive pops with no
//! interleaved inserts yield ascending keys, which the combiner assigns
//! to requesters in slot order.
//!
//! The wrapper is **strict** (rank bound 0): every operation is applied
//! to the sequential substrate under the combiner lock, and the
//! linearization order is the order the combiner applies them.
//!
//! Telemetry: [`Event::FcLockAcquire`] per won combiner election,
//! [`Event::FcCombineRound`] per scan pass that applied work, and
//! [`Event::FcOpsCombined`] counting applied published operations.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pq_traits::telemetry::{self, Event};
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::mound::Mound;

/// A sequential structure the combiner applies published operations to.
///
/// Implemented by [`SeqSubstrate`] (any [`SequentialPq`], e.g. the binary
/// heap behind `fc-globallock`) and [`MoundSubstrate`] (`fc-mound`). All
/// calls happen under the combiner lock, so `&mut self` suffices even
/// for internally concurrent structures.
pub trait FcSubstrate: Send {
    /// Insert one item.
    fn apply_insert(&mut self, key: Key, value: Value);
    /// Remove and return a minimal item, or `None` if empty.
    fn apply_delete_min(&mut self) -> Option<Item>;
}

/// Adapter giving any [`SequentialPq`] the [`FcSubstrate`] interface.
pub struct SeqSubstrate<P>(pub P);

impl<P: SequentialPq + Send> FcSubstrate for SeqSubstrate<P> {
    fn apply_insert(&mut self, key: Key, value: Value) {
        self.0.insert(key, value);
    }
    fn apply_delete_min(&mut self) -> Option<Item> {
        self.0.delete_min()
    }
}

/// [`FcSubstrate`] over the [`Mound`]: the combiner drives the mound's
/// *exclusive-access* insert/delete paths (`insert_seq`/`delete_min_seq`)
/// with a private RNG. Because the combiner lock already serializes
/// everything, the mound's per-node locks and optimistic validation
/// retries are pure overhead — the seq paths elide both, which is the
/// concrete single-structure win combining buys on this substrate.
pub struct MoundSubstrate {
    mound: Mound,
    rng: SmallRng,
}

impl MoundSubstrate {
    /// Deterministically seeded mound substrate.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            mound: Mound::with_seed(seed),
            rng: SmallRng::seed_from_u64(seed ^ 0xF1A7_C0B1),
        }
    }
}

impl FcSubstrate for MoundSubstrate {
    fn apply_insert(&mut self, key: Key, value: Value) {
        self.mound.insert_seq(key, value, &mut self.rng);
    }
    fn apply_delete_min(&mut self) -> Option<Item> {
        self.mound.delete_min_seq()
    }
}

// Publication-record states. `ST_EMPTY`/`ST_DONE*` are terminal (owner
// side); `ST_INSERT`/`ST_DELETE` are pending requests the combiner
// consumes.
const ST_EMPTY: u64 = 0;
const ST_INSERT: u64 = 1;
const ST_DELETE: u64 = 2;
const ST_DONE: u64 = 3;
const ST_DONE_ITEM: u64 = 4;
const ST_DONE_EMPTY: u64 = 5;

/// One per-handle publication record, padded to its own cache line so a
/// spinning owner never shares a line with another handle's record or
/// with the combiner lock.
struct PubRecord {
    /// State machine word. Owner publishes with `Release` after writing
    /// args; combiner consumes with `Acquire` and completes with
    /// `Release` after writing results.
    op: AtomicU64,
    key: AtomicU64,
    value: AtomicU64,
    res_key: AtomicU64,
    res_value: AtomicU64,
}

impl Default for PubRecord {
    fn default() -> Self {
        Self {
            op: AtomicU64::new(ST_EMPTY),
            key: AtomicU64::new(0),
            value: AtomicU64::new(0),
            res_key: AtomicU64::new(0),
            res_value: AtomicU64::new(0),
        }
    }
}

/// Flat-combining concurrent priority queue over an [`FcSubstrate`].
///
/// Constructed via [`fc_globallock`] / [`fc_mound`] (or
/// [`FlatCombining::with_substrate`] for custom substrates) with a fixed
/// handle capacity; [`ConcurrentPq::handle`] panics beyond it.
pub struct FlatCombining<S: FcSubstrate> {
    name: String,
    shared: Mutex<S>,
    slots: Box<[CachePadded<PubRecord>]>,
    handle_ctr: AtomicUsize,
    /// Spin budget between combiner-lock probes. On a single-core host
    /// this is 0 — a spinning waiter only steals cycles from the
    /// combiner that would serve it, so the wait loop yields instead.
    spin: u32,
    /// Count of published-but-unserved records — a *hint* that lets the
    /// uncontended fast path skip the publication scan entirely.
    /// Correctness never depends on it: a publisher missed because its
    /// increment was not yet visible keeps probing the lock and serves
    /// itself at the next election.
    pending: CachePadded<AtomicUsize>,
}

/// `fc-globallock`: flat combining over the sequential binary heap (the
/// same substrate as the plain `globallock` queue, for a like-for-like
/// A/B).
pub fn fc_globallock(max_handles: usize) -> FlatCombining<SeqSubstrate<seqpq::BinaryHeap>> {
    FlatCombining::with_substrate(
        "fc-globallock".to_owned(),
        SeqSubstrate(seqpq::BinaryHeap::new()),
        max_handles,
    )
}

/// `fc-mound`: flat combining over the [`Mound`], deterministically
/// seeded.
pub fn fc_mound(max_handles: usize, seed: u64) -> FlatCombining<MoundSubstrate> {
    FlatCombining::with_substrate(
        "fc-mound".to_owned(),
        MoundSubstrate::with_seed(seed),
        max_handles,
    )
}

impl<S: FcSubstrate> FlatCombining<S> {
    /// Wrap `substrate` with `max_handles` publication slots.
    pub fn with_substrate(name: String, substrate: S, max_handles: usize) -> Self {
        let slots = (0..max_handles.max(1))
            .map(|_| CachePadded::new(PubRecord::default()))
            .collect();
        let parallel = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            name,
            shared: Mutex::new(substrate),
            slots,
            handle_ctr: AtomicUsize::new(0),
            spin: if parallel > 1 { 64 } else { 0 },
            pending: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// One combining critical section: scan the publication list and
    /// apply every pending operation, repeating while scans keep finding
    /// work (bounded so the combiner eventually steps down under
    /// saturation and a waiter is elected instead).
    fn combine(&self, sub: &mut S) {
        const MAX_ROUNDS: u32 = 4;
        let active = self.handle_ctr.load(Ordering::Relaxed).min(self.slots.len());
        for _ in 0..MAX_ROUNDS {
            if self.pending.load(Ordering::Relaxed) == 0 {
                break;
            }
            let mut applied: u64 = 0;
            let mut served: usize = 0;
            let mut any_delete = false;
            // Pass 1: inserts.
            for rec in &self.slots[..active] {
                match rec.op.load(Ordering::Acquire) {
                    ST_INSERT => {
                        sub.apply_insert(
                            rec.key.load(Ordering::Relaxed),
                            rec.value.load(Ordering::Relaxed),
                        );
                        rec.op.store(ST_DONE, Ordering::Release);
                        applied += 1;
                        served += 1;
                    }
                    ST_DELETE => any_delete = true,
                    // ST_EMPTY and the ST_DONE* states carry no work.
                    _ => {}
                }
            }
            // Pass 2: all pending deletes from one heap pass. Consecutive
            // pops with no interleaved inserts come out in ascending key
            // order, assigned to requesters in slot order.
            if any_delete {
                for rec in &self.slots[..active] {
                    if rec.op.load(Ordering::Acquire) == ST_DELETE {
                        match sub.apply_delete_min() {
                            Some(it) => {
                                rec.res_key.store(it.key, Ordering::Relaxed);
                                rec.res_value.store(it.value, Ordering::Relaxed);
                                rec.op.store(ST_DONE_ITEM, Ordering::Release);
                            }
                            None => rec.op.store(ST_DONE_EMPTY, Ordering::Release),
                        }
                        applied += 1;
                        served += 1;
                    }
                }
            }
            if served > 0 {
                self.pending.fetch_sub(served, Ordering::Relaxed);
            }
            if applied == 0 {
                break;
            }
            telemetry::record_quiet(Event::FcCombineRound);
            telemetry::record_n_quiet(Event::FcOpsCombined, applied);
        }
    }
}

impl<S: FcSubstrate> ConcurrentPq for FlatCombining<S> {
    type Handle<'a>
        = FcHandle<'a, S>
    where
        S: 'a;

    fn handle(&self) -> FcHandle<'_, S> {
        let slot = self.handle_ctr.fetch_add(1, Ordering::AcqRel);
        assert!(
            slot < self.slots.len(),
            "{}: more handles ({}) than publication slots ({}); construct with a larger \
             max_handles",
            self.name,
            slot + 1,
            self.slots.len()
        );
        FcHandle { q: self, slot }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

impl<S: FcSubstrate> RelaxationBound for FlatCombining<S> {
    /// Strict: every op is applied to the sequential substrate under
    /// the combiner lock.
    fn rank_bound(&self, _threads: usize) -> Option<u64> {
        Some(0)
    }
}

/// Per-thread handle: one publication slot.
pub struct FcHandle<'a, S: FcSubstrate> {
    q: &'a FlatCombining<S>,
    slot: usize,
}

impl<S: FcSubstrate> FcHandle<'_, S> {
    /// Execute `op` (`key`/`value` are read for `ST_INSERT` only).
    ///
    /// Fast path: if the combiner lock is free, skip publication
    /// entirely — apply the op directly (exactly the plain locked
    /// queue's path, minus the blocking `lock`) and run one combining
    /// scan for anyone who published meanwhile. Slow path: publish in
    /// this handle's record and spin until a combiner — possibly this
    /// thread, after a later election — applies it.
    fn run_op(&mut self, op: u64, key: Key, value: Value) -> Option<Item> {
        if let Some(mut sub) = self.q.shared.try_lock() {
            telemetry::record(Event::FcLockAcquire);
            let res = match op {
                ST_INSERT => {
                    sub.apply_insert(key, value);
                    None
                }
                ST_DELETE => sub.apply_delete_min(),
                _ => unreachable!("run_op on a non-request state"),
            };
            if self.q.pending.load(Ordering::Relaxed) > 0 {
                self.q.combine(&mut sub);
            }
            return res;
        }
        let rec = &*self.q.slots[self.slot];
        if op == ST_INSERT {
            rec.key.store(key, Ordering::Relaxed);
            rec.value.store(value, Ordering::Relaxed);
        }
        self.q.pending.fetch_add(1, Ordering::Relaxed);
        rec.op.store(op, Ordering::Release);
        let mut spins: u32 = 0;
        loop {
            match rec.op.load(Ordering::Acquire) {
                ST_DONE | ST_DONE_EMPTY => return None,
                ST_DONE_ITEM => {
                    return Some(Item::new(
                        rec.res_key.load(Ordering::Relaxed),
                        rec.res_value.load(Ordering::Relaxed),
                    ));
                }
                _pending => {
                    if let Some(mut sub) = self.q.shared.try_lock() {
                        telemetry::record(Event::FcLockAcquire);
                        self.q.combine(&mut sub);
                        // Own op was pending before the election, so the
                        // first full round applied it; loop to decode.
                    } else {
                        // With real parallelism, spin briefly on the
                        // local publication line between lock probes —
                        // an active combiner typically serves the record
                        // within a few hundred cycles. Single-core (or
                        // starved): yield so the combiner can run at all.
                        for _ in 0..self.q.spin {
                            std::hint::spin_loop();
                        }
                        spins += 1;
                        if self.q.spin == 0 || spins >= 32 {
                            std::thread::yield_now();
                        }
                    }
                }
            }
        }
    }
}

impl<S: FcSubstrate> PqHandle for FcHandle<'_, S> {
    fn insert(&mut self, key: Key, value: Value) {
        self.run_op(ST_INSERT, key, value);
    }

    fn delete_min(&mut self) -> Option<Item> {
        self.run_op(ST_DELETE, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_handle_is_a_strict_heap() {
        let q = fc_globallock(1);
        let mut h = q.handle();
        for k in [5u64, 1, 9, 3] {
            h.insert(k, k * 10);
        }
        let got: Vec<Key> = std::iter::from_fn(|| h.delete_min()).map(|it| it.key).collect();
        assert_eq!(got, vec![1, 3, 5, 9]);
        assert_eq!(h.delete_min(), None);
        assert_eq!(q.rank_bound(4), Some(0));
    }

    #[test]
    fn mound_substrate_drains_sorted() {
        let q = fc_mound(1, 0xFC);
        let mut h = q.handle();
        for k in (0..200u64).rev() {
            h.insert(k, k);
        }
        for k in 0..200u64 {
            assert_eq!(h.delete_min().map(|it| it.key), Some(k));
        }
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn concurrent_ops_conserve_items() {
        let q = std::sync::Arc::new(fc_globallock(5));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let q = q.clone();
            joins.push(std::thread::spawn(move || {
                let mut h = q.handle();
                let mut got = Vec::new();
                for i in 0..500u64 {
                    h.insert(t * 1_000 + i, t);
                    if i % 2 == 1 {
                        if let Some(it) = h.delete_min() {
                            got.push(it);
                        }
                    }
                }
                got
            }));
        }
        let mut seen: Vec<Item> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        let mut h = q.handle();
        while let Some(it) = h.delete_min() {
            seen.push(it);
        }
        assert_eq!(seen.len(), 2_000);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2_000, "an item was duplicated or lost");
    }
}
