//! Rank replay structure: the "specialized sequential priority queue"
//! of the paper's quality benchmark (appendix F).
//!
//! Replaying a linearized operation log, the quality benchmark and the
//! checker ask one question of every deletion: *how many live items
//! have a strictly smaller key?* The replay is offline, so every key the
//! log inserts is known up front: [`RankMultiset`] keeps the live count
//! below each key of that compressed universe in a [`Fenwick`], plus a
//! count per exact [`Item`] so removing an item that is not live is
//! detected and changes nothing. The item counts sit in a B-tree, whose
//! memory follows the live count; a hash map under the replay's
//! insert/remove churn grows to more than twice that.

use std::collections::BTreeMap;

use pq_traits::{Item, Key};

use crate::Fenwick;

/// Multiset of [`Item`]s over a fixed key universe, answering "how many
/// live items have a key below `k`" in O(log n).
#[derive(Clone, Debug)]
pub struct RankMultiset {
    /// The key universe, sorted and deduplicated.
    keys: Vec<Key>,
    /// Live count of each exact item (absent = 0).
    counts: BTreeMap<Item, u64>,
    /// Position `i` in `0..=keys.len()` holds the number of live items
    /// whose key is below `keys[i]` (all of them at `keys.len()`).
    below: Fenwick,
}

impl RankMultiset {
    /// An empty multiset over the given keys (any order, duplicates
    /// allowed). Inserted items must have a key from this universe;
    /// queries and removals take any key.
    pub fn new(mut keys: Vec<Key>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        let below = Fenwick::new(keys.len() + 1);
        Self {
            keys,
            counts: BTreeMap::new(),
            below,
        }
    }

    /// Number of distinct keys in the universe.
    pub fn universe_len(&self) -> usize {
        self.keys.len()
    }

    /// Number of universe keys below `key`; for a universe key, its
    /// position in the sorted universe.
    pub fn key_index(&self, key: Key) -> usize {
        self.keys.partition_point(|&k| k < key)
    }

    /// Add one instance of `item`.
    ///
    /// # Panics
    /// If `item.key` is not in the universe.
    pub fn insert(&mut self, item: Item) {
        *self.counts.entry(item).or_default() += 1;
        self.shift(item.key, 1);
    }

    /// Remove one instance of `item`; `false` (and no change) if none
    /// is live.
    pub fn remove(&mut self, item: &Item) -> bool {
        let Some(n) = self.counts.get_mut(item) else {
            return false;
        };
        *n -= 1;
        if *n == 0 {
            self.counts.remove(item);
        }
        self.shift(item.key, -1);
        true
    }

    /// Number of live items.
    pub fn live_count(&self) -> u64 {
        self.below.get(self.keys.len()) as u64
    }

    /// Number of live items whose key is strictly below `key` — the
    /// rank a deletion of any item with this key is charged, so items
    /// with equal keys never inflate each other's rank.
    pub fn rank_below(&self, key: Key) -> u64 {
        self.below.get(self.key_index(key)) as u64
    }

    /// Every position above `key`'s gains `delta` live items below it.
    fn shift(&mut self, key: Key, delta: i64) {
        let idx = self.keys.binary_search(&key).expect("key in universe");
        self.below.range_add(idx + 1, self.below.len(), delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty() {
        let mut s = RankMultiset::new(Vec::new());
        assert_eq!(s.universe_len(), 0);
        assert_eq!(s.live_count(), 0);
        assert_eq!(s.rank_below(7), 0);
        assert!(!s.remove(&Item::new(1, 1)));
        // A universe with no live items ranks everything at zero too.
        let mut s = RankMultiset::new(vec![3, 1, 3]);
        assert_eq!(s.universe_len(), 2);
        assert_eq!(s.rank_below(Key::MAX), 0);
        assert!(!s.remove(&Item::new(1, 0)));
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn rank_of_min_is_zero() {
        let mut s = RankMultiset::new(vec![5, 2, 9, 1, 7]);
        for k in [5, 2, 9, 1, 7] {
            s.insert(Item::new(k, 0));
        }
        assert_eq!(s.rank_below(1), 0);
        assert!(s.remove(&Item::new(1, 0)));
        assert_eq!(s.rank_below(2), 0);
        assert_eq!(s.live_count(), 4);
    }

    #[test]
    fn rank_of_arbitrary_items() {
        let mut s = RankMultiset::new((0..10).map(|k| k * 10).collect());
        for k in 0..10 {
            s.insert(Item::new(k * 10, k));
        }
        assert_eq!(s.rank_below(50), 5);
        assert!(s.remove(&Item::new(50, 5)));
        // With (50, 5) gone, (90, 9) drops to rank 8.
        assert_eq!(s.rank_below(90), 8);
        // Keys outside the universe rank like their neighbours.
        assert_eq!(s.rank_below(55), 5);
        assert_eq!(s.rank_below(1000), 9);
    }

    #[test]
    fn duplicate_keys_distinct_values() {
        let mut s = RankMultiset::new(vec![7, 8]);
        for v in 0..5 {
            s.insert(Item::new(7, v));
        }
        s.insert(Item::new(7, 4));
        // Equal keys never count against each other.
        assert_eq!(s.rank_below(7), 0);
        assert_eq!(s.rank_below(8), 6);
        assert!(s.remove(&Item::new(7, 3)));
        assert!(!s.remove(&Item::new(7, 3)));
        // (7, 4) was inserted twice and goes twice.
        assert!(s.remove(&Item::new(7, 4)));
        assert!(s.remove(&Item::new(7, 4)));
        assert!(!s.remove(&Item::new(7, 4)));
        assert_eq!(s.rank_below(8), 3);
    }

    #[test]
    #[should_panic(expected = "key in universe")]
    fn insert_outside_universe_panics() {
        RankMultiset::new(vec![1, 2]).insert(Item::new(3, 0));
    }

    proptest! {
        /// Inserts of distinct items over a wide key range, each removal
        /// of a live item charged the number of live keys strictly
        /// below it; after every step the ranks stay monotone in the
        /// key and the count above every key is the live count.
        #[test]
        fn prop_invariants_under_mixed_ops(
            ops in proptest::collection::vec((0u8..3, 0u64..64), 0..300)
        ) {
            let mut s = RankMultiset::new(ops.iter().map(|&(_, k)| k).collect());
            let mut model: Vec<Item> = Vec::new();
            for (i, &(op, k)) in ops.iter().enumerate() {
                if op < 2 {
                    let item = Item::new(k, i as u64);
                    s.insert(item);
                    model.push(item);
                } else if !model.is_empty() {
                    let victim = model[(k as usize) % model.len()];
                    let expect = model.iter().filter(|it| it.key < victim.key).count() as u64;
                    prop_assert_eq!(s.rank_below(victim.key), expect);
                    prop_assert!(s.remove(&victim));
                    model.retain(|it| *it != victim);
                }
                prop_assert_eq!(s.live_count(), model.len() as u64);
                prop_assert_eq!(s.rank_below(Key::MAX), s.live_count());
                let mut prev = 0;
                for probe in 0..=64 {
                    let r = s.rank_below(probe);
                    prop_assert!(prev <= r);
                    prev = r;
                }
            }
        }

        /// Random inserts and removes over few keys and values, so
        /// equal keys, repeated identical items and removes of absent
        /// items all occur, against a plain vector of live items.
        #[test]
        fn prop_rank_matches_model(
            ops in proptest::collection::vec((proptest::bool::ANY, 0u64..8, 0u64..3), 1..300)
        ) {
            let mut s = RankMultiset::new(ops.iter().map(|&(_, k, _)| k).collect());
            let mut model: Vec<Item> = Vec::new();
            for (is_insert, key, value) in ops {
                let item = Item::new(key, value);
                if is_insert {
                    s.insert(item);
                    model.push(item);
                } else {
                    let live = model.iter().position(|&it| it == item);
                    prop_assert_eq!(s.remove(&item), live.is_some());
                    if let Some(i) = live {
                        model.swap_remove(i);
                    }
                }
                prop_assert_eq!(s.live_count(), model.len() as u64);
                for probe in 0..=8 {
                    let naive = model.iter().filter(|it| it.key < probe).count() as u64;
                    prop_assert_eq!(s.rank_below(probe), naive);
                }
            }
        }
    }
}
