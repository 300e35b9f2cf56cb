//! The SprayList relaxed priority queue (`spray`).
//!
//! Alistarh, Kopinsky, Li and Shavit (PPoPP 2015): `delete_min` performs
//! a random walk ("spray") over the head region of a lock-free skiplist
//! — starting at height O(log P) and jumping a uniformly random number of
//! nodes at each level — and claims the node it lands on. With the
//! parameters used here the returned item is among the O(P log³ P)
//! smallest with high probability, which removes the sequential
//! bottleneck of contending on the exact minimum.
//!
//! The paper's benchmark notes the original SprayList implementation was
//! "not stable" outside the uniform-workload/uniform-key configuration;
//! this Rust implementation is stable in all configurations (epoch-based
//! reclamation removes the memory-management races), so we report all of
//! them and note the difference in EXPERIMENTS.md.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use pq_traits::seed::{handle_seed, DEFAULT_QUEUE_SEED};
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, Value};

use crate::list::SkipList;

/// Relaxed skiplist priority queue with random-walk deletions.
#[derive(Debug)]
pub struct SprayList {
    list: SkipList,
    threads: usize,
    seed: u64,
    handle_ctr: AtomicU64,
}

impl SprayList {
    /// Create an empty SprayList tuned for `threads` participants (the
    /// spray height and jump lengths scale with `log₂ threads`), with
    /// the default deterministic seed for the per-handle spray RNGs.
    pub fn new(threads: usize) -> Self {
        Self::with_seed(threads, DEFAULT_QUEUE_SEED)
    }

    /// Create an empty SprayList whose handle RNGs derive from `seed`
    /// (handle `i` gets `seed ⊕ mix(i)`), making spray walks — and so
    /// quality runs — reproducible.
    pub fn with_seed(threads: usize, seed: u64) -> Self {
        Self {
            list: SkipList::new(),
            threads: threads.max(1),
            seed,
            handle_ctr: AtomicU64::new(0),
        }
    }

    /// The thread count the spray parameters are tuned for.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Per-thread handle for [`SprayList`].
pub struct SprayHandle<'a> {
    q: &'a SprayList,
    rng: SmallRng,
}

impl PqHandle for SprayHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        self.q.list.insert(key, value, &mut self.rng);
    }

    fn delete_min(&mut self) -> Option<Item> {
        self.q.list.spray_delete(&mut self.rng, self.q.threads)
    }
}

impl ConcurrentPq for SprayList {
    type Handle<'a> = SprayHandle<'a>;

    fn handle(&self) -> SprayHandle<'_> {
        let idx = self.handle_ctr.fetch_add(1, Ordering::Relaxed);
        SprayHandle {
            q: self,
            rng: SmallRng::seed_from_u64(handle_seed(self.seed, idx)),
        }
    }

    fn name(&self) -> String {
        "spray".to_owned()
    }
}

impl RelaxationBound for SprayList {
    fn rank_bound(&self, threads: usize) -> Option<u64> {
        // O(P log³ P) with high probability — not a hard bound, but the
        // quality benchmark uses it as the reference curve. `log` is the
        // floor of log₂ (P ≥ 2 here, so the subtraction cannot wrap);
        // `64 − leading_zeros` would be the *bit length* (⌊log₂P⌋ + 1),
        // which inflated the curve ~2.4× at P = 8 and ~8× at P = 2.
        let p = threads.max(2) as u64;
        let log_p = 63 - p.leading_zeros() as u64;
        Some(p * log_p * log_p * log_p)
    }

    fn rank_bound_is_guaranteed(&self) -> bool {
        // The curve above is w.h.p. only: a spray walk over random
        // towers can land arbitrarily deep, so per-deletion enforcement
        // would flag correct behavior.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_all_items() {
        let q = SprayList::new(4);
        let mut h = q.handle();
        for k in 0..500u64 {
            h.insert(k, k);
        }
        let mut got: Vec<Key> = std::iter::from_fn(|| h.delete_min())
            .map(|i| i.key)
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn returns_small_ranked_items() {
        let q = SprayList::new(8);
        let mut h = q.handle();
        for k in 0..10_000u64 {
            h.insert(k, k);
        }
        // Every spray should land well within the head region.
        for i in 0..200 {
            let it = h.delete_min().unwrap();
            // Generous envelope: rank bound for 8 threads is 8·3³ = 216
            // w.h.p.; items deleted so far shift the scale by i.
            assert!(
                it.key < 2048 + i,
                "spray returned item with excessive rank: {it:?}"
            );
        }
    }

    #[test]
    fn rank_bound_curve_is_p_times_floor_log2_p_cubed() {
        // Pin P·⌊log₂P⌋³ so a bit-length regression (⌊log₂P⌋ + 1, which
        // gave 8·4³ = 512 at P = 8) cannot sneak back in.
        let q = SprayList::new(4);
        for (p, want) in [(2usize, 2u64), (4, 32), (8, 216), (64, 13_824)] {
            assert_eq!(q.rank_bound(p), Some(want), "P = {p}");
        }
        // threads < 2 clamps to P = 2.
        assert_eq!(q.rank_bound(1), Some(2));
    }

    #[test]
    fn empty_returns_none() {
        let q = SprayList::new(2);
        let mut h = q.handle();
        assert_eq!(h.delete_min(), None);
        h.insert(3, 3);
        assert_eq!(h.delete_min(), Some(Item::new(3, 3)));
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn concurrent_conservation_mixed_config() {
        // Exercise the configurations under which the original C++
        // SprayList crashed: split workload and non-uniform keys.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let q = std::sync::Arc::new(SprayList::new(4));
        let inserted = AtomicUsize::new(0);
        let deleted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                let inserted = &inserted;
                let deleted = &deleted;
                s.spawn(move || {
                    let mut h = q.handle();
                    if t < 2 {
                        // Inserting half: ascending keys.
                        for i in 0..5000u64 {
                            h.insert(i, t * 5000 + i);
                        }
                        inserted.fetch_add(5000, Ordering::Relaxed);
                    } else {
                        // Deleting half.
                        let mut n = 0;
                        for _ in 0..5000 {
                            if h.delete_min().is_some() {
                                n += 1;
                            }
                        }
                        deleted.fetch_add(n, Ordering::Relaxed);
                    }
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
            inserted.load(Ordering::Relaxed)
        );
    }
}
