//! The composed k-LSM priority queue.
//!
//! "The k-LSM itself is a very simple data structure: it contains a DLSM,
//! limited to a maximum capacity of k per thread; and a SLSM with a pivot
//! range containing at most k+1 of its smallest items. Items are initially
//! inserted into the local DLSM. When its capacity overflows, its largest
//! block is batch-inserted into the SLSM. Deletions simply peek at both
//! the DLSM and SLSM, and return the smaller item." (paper, App. B)
//!
//! Deletions therefore skip at most `k(P-1)` items via the DLSM component
//! plus at most `k` via the SLSM — `kP` in total.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use pq_traits::seed::{handle_seed, DEFAULT_QUEUE_SEED};
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};

use crate::dlsm::Dlsm;
use crate::slsm::{Slsm, SlsmOutcome};

/// The k-LSM relaxed concurrent priority queue.
///
/// `delete_min` returns one of the `kP + 1` smallest items, where `k` is
/// the relaxation parameter and `P` the number of thread handles.
#[derive(Debug)]
pub struct Klsm {
    dlsm: Dlsm,
    slsm: Slsm,
    k: usize,
    seed: u64,
    handle_ctr: AtomicU64,
}

impl Klsm {
    /// Create a k-LSM with relaxation parameter `k` (> 0) for up to
    /// `max_threads` threads. The paper evaluates k ∈ {128, 256, 4096}.
    pub fn new(k: usize, max_threads: usize) -> Self {
        Self::with_seed(k, max_threads, DEFAULT_QUEUE_SEED)
    }

    /// As [`Klsm::new`], with an explicit queue seed for the per-handle
    /// RNGs (handle `i` gets `seed ⊕ mix(i)`), so merge/spy tie-breaks
    /// replay deterministically.
    pub fn with_seed(k: usize, max_threads: usize, seed: u64) -> Self {
        assert!(k > 0, "k-LSM requires k > 0");
        Self {
            dlsm: Dlsm::with_seed(max_threads, seed ^ 0xD15A),
            slsm: Slsm::with_seed(k, seed ^ 0x515A),
            k,
            seed,
            handle_ctr: AtomicU64::new(0),
        }
    }

    /// Relaxation parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Approximate number of stored items (shared component only counts
    /// precisely; thread-local items are counted quiescently).
    pub fn len_quiescent(&self) -> usize {
        self.dlsm.len_quiescent() + self.slsm.len_hint()
    }

    /// Access to the shared component (diagnostics/tests).
    pub fn slsm(&self) -> &Slsm {
        &self.slsm
    }
}

/// Per-thread handle for the [`Klsm`].
pub struct KlsmHandle<'a> {
    q: &'a Klsm,
    slot: usize,
    rng: SmallRng,
}

impl PqHandle for KlsmHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        // Insert locally; evict the largest local block into the SLSM on
        // overflow. The evicted block holds more than half of the local
        // items, so evictions are amortized over ≥ k/2 inserts.
        let evicted = self.q.dlsm.with_slot(self.slot, |local| {
            local.insert(key, value);
            if local.len() > self.q.k {
                local.pop_largest_block()
            } else {
                None
            }
        });
        if let Some(batch) = evicted {
            // Evicted blocks are already sorted; skip the batch sort.
            self.q.slsm.insert_sorted_batch(batch);
        }
    }

    fn delete_min(&mut self) -> Option<Item> {
        let q = self.q;
        loop {
            // Hold the slot for the whole peek/compare/delete so the
            // peeked local minimum cannot be spied away in between.
            let item = q.dlsm.with_slot(self.slot, |local| {
                match q.slsm.delete_min_if_better(local.peek_min(), &mut self.rng) {
                    SlsmOutcome::TookShared(item) => Some(item),
                    SlsmOutcome::UseLocal => local.delete_min(),
                    SlsmOutcome::Empty => None,
                }
            });
            if item.is_some() {
                return item;
            }
            // Both components empty: spy on other threads' locals.
            if q.dlsm.spy_into(self.slot, &mut self.rng) == 0 {
                return None;
            }
        }
    }
}

impl ConcurrentPq for Klsm {
    type Handle<'a> = KlsmHandle<'a>;

    fn handle(&self) -> KlsmHandle<'_> {
        let idx = self.handle_ctr.fetch_add(1, Ordering::Relaxed);
        KlsmHandle {
            q: self,
            slot: self.dlsm.claim_slot(),
            rng: SmallRng::seed_from_u64(handle_seed(self.seed, idx)),
        }
    }

    fn name(&self) -> String {
        format!("klsm{}", self.k)
    }
}

impl RelaxationBound for Klsm {
    fn rank_bound(&self, threads: usize) -> Option<u64> {
        // Each thread may hold up to `k` items in its local component,
        // which a deletion through another handle cannot see.
        Some((self.k * threads) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_returns_all_items() {
        let q = Klsm::new(8, 1);
        let mut h = q.handle();
        for k in (0..100u64).rev() {
            h.insert(k, k);
        }
        let mut got: Vec<Key> = std::iter::from_fn(|| h.delete_min()).map(|i| i.key).collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_evicts_to_slsm() {
        let q = Klsm::new(4, 1);
        let mut h = q.handle();
        for k in 0..64u64 {
            h.insert(k, k);
        }
        assert!(
            q.slsm().len_hint() > 0,
            "64 inserts with k=4 must have evicted to the SLSM"
        );
    }

    #[test]
    fn single_thread_relaxation_bound() {
        // With one thread the k-LSM skips at most k items.
        let k = 16usize;
        let q = Klsm::new(k, 1);
        let mut h = q.handle();
        for x in 0..1000u64 {
            h.insert((x * 7919) % 4096, x);
        }
        let mut live: Vec<Key> = (0..1000u64).map(|x| (x * 7919) % 4096).collect();
        while let Some(it) = h.delete_min() {
            let rank = live.iter().filter(|&&x| x < it.key).count();
            assert!(rank <= k, "rank {rank} exceeds k={k} on one thread");
            let pos = live.iter().position(|&x| x == it.key).unwrap();
            live.remove(pos);
        }
        assert!(live.is_empty());
    }

    #[test]
    fn empty_queue_returns_none() {
        let q = Klsm::new(128, 2);
        let mut h = q.handle();
        assert_eq!(h.delete_min(), None);
        h.insert(1, 1);
        assert!(h.delete_min().is_some());
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn deletes_see_other_threads_items_via_slsm_or_spy() {
        let q = Klsm::new(4, 2);
        let mut h1 = q.handle();
        let mut h2 = q.handle();
        for k in 0..32u64 {
            h1.insert(k, k);
        }
        // h2 must be able to drain items inserted by h1.
        let mut got = Vec::new();
        while let Some(it) = h2.delete_min() {
            got.push(it.key);
        }
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_conservation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let q = std::sync::Arc::new(Klsm::new(64, 4));
        let deleted = AtomicUsize::new(0);
        let inserted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                let deleted = &deleted;
                let inserted = &inserted;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut dels = 0usize;
                    let mut ins = 0usize;
                    for i in 0..10_000u64 {
                        if (t + i) % 2 == 0 {
                            h.insert((i * 2654435761) % 100_000, t * 10_000 + i);
                            ins += 1;
                        } else if h.delete_min().is_some() {
                            dels += 1;
                        }
                    }
                    deleted.fetch_add(dels, Ordering::Relaxed);
                    inserted.fetch_add(ins, Ordering::Relaxed);
                });
            }
        });
        // Drain the rest single-threaded.
        let mut h = KlsmHandle {
            q: &q,
            slot: 0,
            rng: SmallRng::seed_from_u64(3),
        };
        let mut rest = 0usize;
        while h.delete_min().is_some() {
            rest += 1;
        }
        assert_eq!(
            deleted.load(Ordering::Relaxed) + rest,
            inserted.load(Ordering::Relaxed),
            "items lost or duplicated"
        );
    }

    #[test]
    fn names_include_k() {
        assert_eq!(Klsm::new(256, 1).name(), "klsm256");
        assert_eq!(Klsm::new(4096, 1).name(), "klsm4096");
    }

    #[test]
    fn rank_bound_is_k_times_p() {
        let q = Klsm::new(128, 1);
        assert_eq!(q.rank_bound(8), Some(1024));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_multiset_preserved_single_thread(
            ops in proptest::collection::vec((proptest::bool::ANY, 0u64..2000), 0..500),
            k in 1usize..64,
        ) {
            let q = Klsm::new(k, 1);
            let mut h = q.handle();
            let mut model: Vec<Key> = Vec::new();
            let mut got: Vec<Key> = Vec::new();
            for (i, &(is_insert, key)) in ops.iter().enumerate() {
                if is_insert {
                    h.insert(key, i as u64);
                    model.push(key);
                } else if let Some(it) = h.delete_min() {
                    got.push(it.key);
                }
            }
            while let Some(it) = h.delete_min() {
                got.push(it.key);
            }
            got.sort_unstable();
            model.sort_unstable();
            proptest::prop_assert_eq!(got, model);
        }

        #[test]
        fn prop_single_thread_rank_bound(
            keys in proptest::collection::vec(0u64..10_000, 1..400),
            k in 1usize..32,
        ) {
            let q = Klsm::new(k, 1);
            let mut h = q.handle();
            for (i, &key) in keys.iter().enumerate() {
                h.insert(key, i as u64);
            }
            let mut live: Vec<Key> = keys.clone();
            live.sort_unstable();
            while let Some(it) = h.delete_min() {
                let rank = live.partition_point(|&x| x < it.key);
                proptest::prop_assert!(rank <= k, "rank {} > k {}", rank, k);
                let pos = live.binary_search(&it.key).unwrap();
                live.remove(pos);
            }
            proptest::prop_assert!(live.is_empty());
        }
    }
}
