//! A sorted block of items with a logically-deleted prefix.
//!
//! Blocks are the unit of storage in the LSM. A block owns a sorted array
//! of items plus a `first` index: deletions advance `first` instead of
//! shifting the array, so `pop_front` is O(1). The *capacity* of a block
//! is the smallest power of two ≥ the number of items it was built with;
//! the LSM maintains the paper's invariant `C/2 < len ≤ C` by compacting
//! blocks that decay below half capacity.
//!
//! The merge/compact kernels are allocation-free in steady state: merging
//! draws its output buffer from a [`BlockPool`] and recycles both source
//! buffers, and compaction reuses the block's own allocation via
//! `copy_within`/`truncate` instead of copying to a fresh vector.
//!
//! Merging dispatches on size: the bidirectional two-chain kernel from
//! [`crate::kernels::MERGE_PATH_MIN`] combined items up, and the scalar
//! cursor merge below it.

use crate::kernels;
use crate::pool::BlockPool;
use pq_traits::Item;

/// Sorted block with O(1) front removal.
#[derive(Clone, Debug)]
pub struct Block {
    items: Vec<Item>,
    first: usize,
    capacity: usize,
}

impl Block {
    /// Block holding a single item (capacity 1) in a one-slot buffer
    /// drawn from `pool`.
    pub fn singleton_from(pool: &mut BlockPool, item: Item) -> Self {
        let mut items = pool.acquire(1);
        items.push(item);
        Self {
            items,
            first: 0,
            capacity: 1,
        }
    }

    /// Block from a sorted, non-empty item vector.
    pub fn from_sorted(items: Vec<Item>) -> Self {
        debug_assert!(!items.is_empty());
        debug_assert!(items.windows(2).all(|w| w[0] <= w[1]));
        let capacity = items.len().next_power_of_two();
        Self {
            items,
            first: 0,
            capacity,
        }
    }

    /// An empty stand-in used to move a block out of a slot before
    /// replacing it. Never stored between operations.
    pub(crate) fn placeholder() -> Self {
        Self {
            items: Vec::new(),
            first: 0,
            capacity: 0,
        }
    }

    /// Number of live items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len() - self.first
    }

    /// `true` if no live items remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.first >= self.items.len()
    }

    /// Power-of-two capacity this block was sized for.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Smallest live item, if any.
    #[inline]
    pub fn peek(&self) -> Option<Item> {
        self.items.get(self.first).copied()
    }

    /// Remove and return the smallest live item.
    #[inline]
    pub fn pop_front(&mut self) -> Option<Item> {
        let item = self.items.get(self.first).copied()?;
        self.first += 1;
        Some(item)
    }

    /// Smallest live item of a block known to be non-empty. The LSM's
    /// fill invariant (`len > C/2 ≥ 0` between operations) makes this
    /// the common case, sparing the `Option` plumbing of [`Block::peek`]
    /// on the `delete_min` scan.
    #[inline]
    pub(crate) fn head(&self) -> Item {
        debug_assert!(!self.is_empty());
        self.items[self.first]
    }

    /// Logically delete the smallest live item of a non-empty block.
    #[inline]
    pub(crate) fn drop_front(&mut self) {
        debug_assert!(!self.is_empty());
        self.first += 1;
    }

    /// Live items in ascending order.
    #[inline]
    pub fn live_slice(&self) -> &[Item] {
        &self.items[self.first..]
    }

    /// Iterate over live items in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &Item> {
        self.live_slice().iter()
    }

    /// Two-way merge of the live items of two blocks into a buffer drawn
    /// from `pool`; both source buffers are recycled into `pool`. Runs
    /// the bidirectional two-chain kernel from
    /// [`kernels::MERGE_PATH_MIN`] combined items up and the scalar
    /// branchless cursor merge below it.
    pub fn merge_into(a: Block, b: Block, pool: &mut BlockPool) -> Block {
        let (sa, sb) = (a.live_slice(), b.live_slice());
        let total = sa.len() + sb.len();
        debug_assert!(total > 0, "merging two empty blocks");
        let mut out = pool.acquire(total);
        debug_assert!(out.is_empty() && out.capacity() >= total);
        if total >= kernels::MERGE_PATH_MIN {
            kernels::merge_bidirectional_append(sa, sb, &mut out);
        } else {
            kernels::scalar_merge_append(sa, sb, &mut out);
        }
        debug_assert_eq!(out.len(), total);
        pool.release(a.into_buffer());
        pool.release(b.into_buffer());
        Block::from_sorted(out)
    }

    /// Rebuild the block around its live items only, recomputing
    /// capacity. Reuses the block's own allocation: the live suffix is
    /// shifted to the front with `copy_within` and the tail truncated —
    /// no heap traffic.
    pub fn compact_in_place(&mut self) {
        debug_assert!(!self.is_empty());
        if self.first > 0 {
            let live = self.len();
            self.items.copy_within(self.first.., 0);
            self.items.truncate(live);
            self.first = 0;
        }
        self.capacity = self.items.len().next_power_of_two();
    }

    /// Consume the block, returning its live items sorted ascending.
    pub fn into_sorted_items(mut self) -> Vec<Item> {
        self.items.drain(..self.first);
        self.items
    }

    /// Consume the block, returning its raw buffer (including any
    /// logically-deleted prefix) for recycling.
    pub(crate) fn into_buffer(self) -> Vec<Item> {
        self.items
    }

    /// `true` if live items are sorted (tests only).
    #[doc(hidden)]
    pub fn is_sorted(&self) -> bool {
        self.live_slice().windows(2).all(|w| w[0] <= w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(keys: &[u64]) -> Vec<Item> {
        keys.iter().map(|&k| Item::new(k, 0)).collect()
    }

    fn merge(a: Block, b: Block) -> Block {
        Block::merge_into(a, b, &mut BlockPool::new())
    }

    #[test]
    fn singleton_from_pool_reuses_buffer() {
        let mut pool = BlockPool::new();
        let b = Block::singleton_from(&mut pool, Item::new(9, 0));
        assert_eq!((b.len(), b.capacity()), (1, 1));
        pool.release(b.into_buffer());
        let c = Block::singleton_from(&mut pool, Item::new(3, 0));
        assert_eq!(c.peek(), Some(Item::new(3, 0)));
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn capacity_rounds_up() {
        let b = Block::from_sorted(items(&[1, 2, 3, 4, 5]));
        assert_eq!(b.capacity(), 8);
        let b = Block::from_sorted(items(&[1, 2, 3, 4]));
        assert_eq!(b.capacity(), 4);
    }

    #[test]
    fn pop_front_in_order() {
        let mut b = Block::from_sorted(items(&[1, 3, 5]));
        assert_eq!(b.pop_front().map(|i| i.key), Some(1));
        assert_eq!(b.pop_front().map(|i| i.key), Some(3));
        assert_eq!(b.len(), 1);
        assert_eq!(b.pop_front().map(|i| i.key), Some(5));
        assert!(b.is_empty());
        assert_eq!(b.pop_front(), None);
    }

    #[test]
    fn merge_interleaves() {
        let a = Block::from_sorted(items(&[1, 4, 7]));
        let b = Block::from_sorted(items(&[2, 3, 9]));
        let m = merge(a, b);
        let got: Vec<u64> = m.iter().map(|i| i.key).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 7, 9]);
        assert_eq!(m.capacity(), 8);
    }

    #[test]
    fn merge_skips_deleted_prefix() {
        let mut a = Block::from_sorted(items(&[1, 4, 7]));
        a.pop_front();
        let b = Block::from_sorted(items(&[2, 9]));
        let m = merge(a, b);
        let got: Vec<u64> = m.iter().map(|i| i.key).collect();
        assert_eq!(got, vec![2, 4, 7, 9]);
    }

    #[test]
    fn merge_recycles_source_buffers() {
        let mut pool = BlockPool::new();
        let a = Block::from_sorted(items(&[1, 2, 3, 4]));
        let b = Block::from_sorted(items(&[5, 6, 7, 8]));
        let m = Block::merge_into(a, b, &mut pool);
        assert_eq!(m.len(), 8);
        // Both 4-capacity source buffers are parked for reuse.
        assert_eq!(pool.free_buffers(), 2);
        let reused = pool.acquire(4);
        assert!(reused.capacity() >= 4);
        assert_eq!(pool.stats().hits, 1);
    }

    /// Regression: `merge_into` must preserve the paper's block fill
    /// invariant `C/2 < len ≤ C` for every input shape, including blocks
    /// with logically-deleted prefixes.
    #[test]
    fn merge_into_preserves_capacity_invariant() {
        for na in 1usize..24 {
            for nb in 1usize..24 {
                for dead in 0..na.min(8) {
                    let mut a = Block::from_sorted(items(
                        &(0..na as u64).map(|k| 2 * k).collect::<Vec<_>>(),
                    ));
                    for _ in 0..dead {
                        a.pop_front();
                    }
                    if a.is_empty() {
                        continue;
                    }
                    let b = Block::from_sorted(items(
                        &(0..nb as u64).map(|k| 2 * k + 1).collect::<Vec<_>>(),
                    ));
                    let expect = a.len() + b.len();
                    let m = Block::merge_into(a, b, &mut BlockPool::new());
                    assert_eq!(m.len(), expect);
                    assert!(m.capacity().is_power_of_two());
                    assert!(
                        m.len() <= m.capacity() && 2 * m.len() > m.capacity(),
                        "C/2 < len <= C violated: len={} cap={}",
                        m.len(),
                        m.capacity()
                    );
                    assert!(m.is_sorted());
                }
            }
        }
    }

    #[test]
    fn compact_in_place_recomputes_capacity() {
        let mut b = Block::from_sorted(items(&[1, 2, 3, 4, 5, 6, 7, 8]));
        for _ in 0..6 {
            b.pop_front();
        }
        assert_eq!(b.capacity(), 8);
        b.compact_in_place();
        assert_eq!(b.len(), 2);
        assert_eq!(b.capacity(), 2);
        assert_eq!(b.pop_front(), Some(Item::new(7, 0)));
        assert_eq!(b.pop_front(), Some(Item::new(8, 0)));
    }

    #[test]
    fn compact_in_place_without_dead_prefix_is_noop_shrink() {
        let mut b = Block::from_sorted(items(&[1, 2, 3]));
        b.compact_in_place();
        assert_eq!(b.len(), 3);
        assert_eq!(b.capacity(), 4);
        assert!(b.is_sorted());
    }

    #[test]
    fn into_sorted_items_drops_deleted() {
        let mut b = Block::from_sorted(items(&[1, 2, 3]));
        b.pop_front();
        assert_eq!(b.into_sorted_items(), items(&[2, 3]));
    }
}
