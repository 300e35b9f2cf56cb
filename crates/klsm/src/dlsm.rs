//! The Distributed LSM (DLSM): one sequential LSM per thread.
//!
//! Operations are "essentially embarrassingly parallel" (paper, App. B):
//! each thread works on its own LSM, and inter-thread communication occurs
//! only when a deletion finds the local LSM empty and then *spies* items
//! from another thread. Items returned by `delete_min` are guaranteed to
//! be minimal **on the current thread**, which gives no global rank bound
//! for the standalone DLSM (it is the capacity cap inside the k-LSM that
//! yields the `k(P-1)` bound there).
//!
//! Each slot is a cache-padded mutex around a sequential [`Lsm`]. The
//! owning thread is the only one that ever *blocks* on its slot; spies use
//! `try_lock` and simply move to the next victim on failure, so the owner
//! fast path is an uncontended lock acquisition.

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lsm::Lsm;
use pq_traits::seed::{handle_seed, DEFAULT_QUEUE_SEED};
use pq_traits::telemetry;
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Distributed (thread-local) LSM priority queue.
#[derive(Debug)]
pub struct Dlsm {
    slots: Box<[CachePadded<Mutex<Lsm>>]>,
    next_slot: AtomicUsize,
    seed: u64,
}

impl Dlsm {
    /// Create a DLSM with `max_threads` slots. Each call to
    /// [`ConcurrentPq::handle`] claims one slot; claiming more panics.
    pub fn new(max_threads: usize) -> Self {
        Self::with_seed(max_threads, DEFAULT_QUEUE_SEED)
    }

    /// As [`Dlsm::new`], with an explicit queue seed for the per-handle
    /// RNGs (the slot index doubles as the handle index, so victim
    /// selection during spying replays deterministically).
    pub fn with_seed(max_threads: usize, seed: u64) -> Self {
        assert!(max_threads > 0, "DLSM needs at least one slot");
        Self {
            slots: (0..max_threads)
                .map(|_| CachePadded::new(Mutex::new(Lsm::new())))
                .collect(),
            next_slot: AtomicUsize::new(0),
            seed,
        }
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Claim the next free slot index.
    pub(crate) fn claim_slot(&self) -> usize {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        assert!(
            slot < self.slots.len(),
            "more handles ({}) than DLSM slots ({})",
            slot + 1,
            self.slots.len()
        );
        slot
    }

    /// Run `f` with exclusive access to `slot`'s LSM.
    pub(crate) fn with_slot<R>(&self, slot: usize, f: impl FnOnce(&mut Lsm) -> R) -> R {
        f(&mut self.slots[slot].lock())
    }

    /// Steal roughly half of some victim's items into `slot`. Victims are
    /// probed in a random rotation with `try_lock`; a busy victim is
    /// skipped (its owner is operating on it). Returns the number of
    /// items stolen.
    ///
    /// The original DLSM *copies* a victim's items and relies on shared
    /// ownership flags to avoid duplicates; we steal (move) half instead,
    /// which preserves the no-duplication invariant trivially and the same
    /// communication pattern (see DESIGN.md §2).
    pub(crate) fn spy_into(&self, slot: usize, rng: &mut SmallRng) -> usize {
        let n = self.slots.len();
        if n <= 1 {
            return 0;
        }
        telemetry::record(telemetry::Event::DlsmSpyAttempt);
        let rot = rng.gen_range(0..n);
        for off in 0..n {
            let victim = (rot + off) % n;
            if victim == slot {
                continue;
            }
            let Some(mut guard) = self.slots[victim].try_lock() else {
                continue;
            };
            if guard.is_empty() {
                continue;
            }
            // Alternate items so both threads keep a sample of the full
            // key range (stealing a contiguous suffix would hand one
            // thread only large keys). A single remaining item is stolen
            // outright so a victim can always be fully drained. The
            // split is one pass through the victim's pool-recycled
            // buffers; the victim's LSM (and its pool) stay in place.
            let steal = guard.split_alternating();
            drop(guard);
            debug_assert!(!steal.is_empty());
            let stolen = steal.len();
            telemetry::record(telemetry::Event::DlsmSpySteal);
            telemetry::record_n(telemetry::Event::DlsmSpyItems, stolen as u64);
            // Install the sorted loot as one bulk merge instead of
            // per-item insert cascades.
            let mut own = self.slots[slot].lock();
            own.merge_in_sorted(steal);
            return stolen;
        }
        0
    }

    /// Total number of items across all slots. Takes every lock; intended
    /// for tests and quiescent inspection only.
    pub fn len_quiescent(&self) -> usize {
        self.slots.iter().map(|s| s.lock().len()).sum()
    }
}

/// Per-thread handle for a standalone [`Dlsm`].
pub struct DlsmHandle<'a> {
    dlsm: &'a Dlsm,
    slot: usize,
    rng: SmallRng,
}

impl DlsmHandle<'_> {
    /// The slot index owned by this handle.
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl PqHandle for DlsmHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        self.dlsm.with_slot(self.slot, |l| l.insert(key, value));
    }

    fn delete_min(&mut self) -> Option<Item> {
        loop {
            if let Some(it) = self.dlsm.with_slot(self.slot, SequentialPq::delete_min) {
                return Some(it);
            }
            if self.dlsm.spy_into(self.slot, &mut self.rng) == 0 {
                return None;
            }
        }
    }

    /// The run lands in the local LSM as a single pre-sorted block
    /// instead of `run.len()` separate insert cascades.
    fn insert_sorted_run(&mut self, run: &[Item]) {
        self.dlsm.with_slot(self.slot, |l| l.merge_in_from(run));
    }
}

impl ConcurrentPq for Dlsm {
    type Handle<'a> = DlsmHandle<'a>;

    fn handle(&self) -> DlsmHandle<'_> {
        let slot = self.claim_slot();
        DlsmHandle {
            dlsm: self,
            slot,
            rng: SmallRng::seed_from_u64(handle_seed(self.seed, slot as u64)),
        }
    }

    fn name(&self) -> String {
        "dlsm".to_owned()
    }
}

impl RelaxationBound for Dlsm {
    fn rank_bound(&self, _threads: usize) -> Option<u64> {
        // Thread-local minimality only; no global rank bound.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_behaves_like_lsm() {
        let d = Dlsm::new(1);
        let mut h = d.handle();
        for k in [5u64, 1, 3, 2, 4] {
            h.insert(k, k);
        }
        let out: Vec<Key> = std::iter::from_fn(|| h.delete_min()).map(|i| i.key).collect();
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn handle_claims_distinct_slots() {
        let d = Dlsm::new(3);
        let h1 = d.handle();
        let h2 = d.handle();
        let h3 = d.handle();
        let mut slots = [h1.slot(), h2.slot(), h3.slot()];
        slots.sort_unstable();
        assert_eq!(slots, [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "more handles")]
    fn too_many_handles_panics() {
        let d = Dlsm::new(1);
        let _h1 = d.handle();
        let _h2 = d.handle();
    }

    #[test]
    fn dropping_batched_handle_flushes() {
        // The buffered run reaches the slot through `insert_sorted_run`.
        let d = pq_traits::Buffered::new(Dlsm::new(2), 64);
        {
            let mut h = d.handle();
            for k in 0..10u64 {
                h.insert(k, k);
            }
            assert_eq!(d.inner().len_quiescent(), 0, "below m: still buffered");
        }
        assert_eq!(d.inner().len_quiescent(), 10, "drop must commit the buffer");
    }

    #[test]
    fn spy_steals_from_nonempty_victim() {
        let d = Dlsm::new(2);
        let mut h1 = d.handle();
        let mut h2 = d.handle();
        for k in 0..100u64 {
            h1.insert(k, k);
        }
        // h2 is empty; delete_min must spy and return something.
        let got = h2.delete_min().expect("spy should find items");
        assert!(got.key < 100);
        assert_eq!(d.len_quiescent(), 99); // one item consumed by h2
    }

    #[test]
    fn no_items_lost_through_spying() {
        let d = Dlsm::new(4);
        let mut handles: Vec<_> = (0..4).map(|_| d.handle()).collect();
        for k in 0..200u64 {
            handles[(k % 2) as usize].insert(k, k);
        }
        let mut got = Vec::new();
        // Threads 2 and 3 drain everything via spying.
        loop {
            let mut progressed = false;
            for h in handles.iter_mut() {
                if let Some(it) = h.delete_min() {
                    got.push(it.key);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        let d = std::sync::Arc::new(Dlsm::new(4));
        let total = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let d = &d;
                let total = &total;
                s.spawn(move || {
                    let mut h = d.handle();
                    let mut count = 0usize;
                    for i in 0..5000u64 {
                        if t < 2 {
                            h.insert(i, t * 5000 + i);
                        } else if h.delete_min().is_some() {
                            count += 1;
                        }
                    }
                    total.fetch_add(count, Ordering::Relaxed);
                });
            }
        });
        let drained = {
            let mut h = d.handle_for_test();
            let mut n = 0;
            while h.delete_min().is_some() {
                n += 1;
            }
            n
        };
        assert_eq!(total.load(Ordering::Relaxed) + drained, 10000);
    }

    impl Dlsm {
        /// Test helper: a handle on slot 0 regardless of claims.
        fn handle_for_test(&self) -> DlsmHandle<'_> {
            DlsmHandle {
                dlsm: self,
                slot: 0,
                rng: SmallRng::seed_from_u64(7),
            }
        }
    }
}
