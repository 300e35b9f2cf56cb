//! Sequential Log-Structured Merge-Tree (LSM) priority queue.
//!
//! Appendix B of the paper: "The LSM consists of a logarithmic number of
//! sorted arrays (called blocks) storing key-value containers (items).
//! Blocks have capacities C = 2^i and capacities within the LSM are
//! distinct. A block with capacity C must contain more than C/2 and at
//! most C items. Insertions initially add a new singleton block to the
//! LSM, and then merge blocks with identical capacities until all block
//! capacities within the LSM are once again distinct. Deletions simply
//! return the smallest of all blocks' minimal item."
//!
//! Both k-LSM components reuse this structure: the DLSM holds one LSM per
//! thread, and the SLSM publishes immutable LSM blocks behind an epoch.
//! This crate is purely sequential; `&mut self` everywhere.
//!
//! # Memory management
//!
//! Every block buffer is drawn from and recycled into a per-LSM
//! [`BlockPool`] (see [`pool`]), so the insert/delete steady state
//! performs no heap allocation: inserts stage in a one-item field and
//! pair into pool-drawn capacity-2 blocks, the merge cascade recycles
//! its sources, and compaction happens in place. `cargo test -p lsm
//! --test alloc_free` proves this with a counting global allocator.
//! Merging, draining and the head scan run the kernels from
//! [`kernels`]. There is one configuration; the arms it was chosen over
//! are recorded in EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod block;
pub mod kernels;
pub mod pool;

pub use block::Block;
pub use kernels::MERGE_PATH_MIN;
pub use pool::{BlockPool, PoolStats};

use std::collections::VecDeque;

use pq_traits::{Item, Key, SequentialPq, Value};

/// Sequential LSM priority queue.
///
/// Blocks are kept sorted by strictly decreasing capacity in a deque:
/// the front block is the largest (popped wholesale by the k-LSM's
/// eviction) and the back block is the smallest (where insertions
/// cascade). Insertion appends a singleton block and merges the tail run
/// right-to-left, so insertion cost is O(log n) amortized and
/// `delete_min` is O(log n) worst case (scan of ≤ log n block heads).
#[derive(Clone, Debug, Default)]
pub struct Lsm {
    /// Sorted by strictly decreasing capacity; front is largest.
    blocks: VecDeque<Block>,
    /// `heads[i]` mirrors `blocks[i]`'s smallest live item. `delete_min`
    /// and `peek_min` scan this dense array instead of dereferencing
    /// every block's buffer — one or two contiguous cache lines instead
    /// of a scattered load per block.
    heads: Vec<Item>,
    len: usize,
    pool: BlockPool,
    /// Deferred singleton: every other insert parks its item here in
    /// O(1) instead of materializing a capacity-1 block, and the next
    /// insert merges the pair straight into a capacity-2 block — the
    /// singleton block machinery (pool round-trip, capacity
    /// computation, deque and head-mirror pushes) drops out of the hot
    /// path entirely. `delete_min`/`peek_min` compare it against the
    /// block heads; drains flush it first.
    staged: Option<Item>,
}

impl Lsm {
    /// Create an empty LSM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an LSM holding `items` (need not be sorted) as a single
    /// block. O(n log n).
    pub fn from_items(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        Self::from_sorted(items)
    }

    /// Build an LSM from already-sorted items as a single block.
    pub fn from_sorted(items: Vec<Item>) -> Self {
        let mut lsm = Self::new();
        lsm.rebuild_from_sorted(items);
        lsm
    }

    /// Pool hit/miss/recycling counters for this LSM.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of blocks currently held. At most ⌈log₂ n⌉ + 1.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterate over `(capacity, live_len)` per block, largest first.
    pub fn block_shapes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.blocks.iter().map(|b| (b.capacity(), b.len()))
    }

    /// Iterate over all live items in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Item> {
        self.blocks
            .iter()
            .flat_map(|b| b.iter())
            .chain(self.staged.iter())
    }

    /// Remove and return the live items of the block with the *largest*
    /// capacity, sorted ascending. Used by the k-LSM to evict the bulk of
    /// a thread-local LSM into the shared LSM when it exceeds `k` items.
    /// O(1) structural cost: the largest block sits at the deque front.
    pub fn pop_largest_block(&mut self) -> Option<Vec<Item>> {
        let block = self.blocks.pop_front()?;
        // Front-shift of at most ~log n cached heads; eviction is rare.
        self.heads.remove(0);
        self.len -= block.len();
        Some(block.into_sorted_items())
    }

    /// Drain all live items, sorted ascending, via a k-way merge of the
    /// already-sorted blocks (no collect-then-sort). Used by DLSM
    /// spying. The drained block buffers are recycled into the pool.
    ///
    /// The k-way merge runs through the [`kernels`] loser tree — one
    /// comparison per tree level per emitted item, `O(total · log k)` —
    /// with its head mirror in a pooled scratch buffer.
    pub fn take_all_sorted(&mut self) -> Vec<Item> {
        self.flush_staged();
        match self.blocks.len() {
            0 => return Vec::new(),
            1 => {
                let block = self.blocks.pop_back().expect("one block");
                self.heads.clear();
                self.len = 0;
                return block.into_sorted_items();
            }
            _ => {}
        }
        let nb = self.blocks.len();
        let mut out = self.pool.acquire(self.len);
        let mut scratch = self.pool.acquire(nb.next_power_of_two());
        // ≤ ⌈log₂ n⌉ + 1 blocks on a 64-bit machine, so a fixed
        // run-slice array suffices.
        let mut runs: [&[Item]; kernels::MAX_FANOUT] = [&[]; kernels::MAX_FANOUT];
        debug_assert!(nb <= runs.len());
        for (slot, block) in runs.iter_mut().zip(self.blocks.iter()) {
            *slot = block.live_slice();
        }
        kernels::k_way_merge_into(&runs[..nb], &mut scratch, &mut out);
        self.pool.release(scratch);
        debug_assert_eq!(out.len(), self.len);
        for _ in 0..nb {
            let block = self.blocks.pop_back().expect("counted");
            self.pool.release(block.into_buffer());
        }
        self.heads.clear();
        self.len = 0;
        out
    }

    /// Replace this LSM's contents with `items` (already sorted), keeping
    /// the pool. Existing block buffers are recycled.
    pub fn rebuild_from_sorted(&mut self, items: Vec<Item>) {
        debug_assert!(items.windows(2).all(|w| w[0] <= w[1]));
        while let Some(block) = self.blocks.pop_back() {
            self.pool.release(block.into_buffer());
        }
        self.heads.clear();
        self.staged = None;
        self.len = items.len();
        if !items.is_empty() {
            let block = Block::from_sorted(items);
            let head = block.head();
            self.blocks.push_back(block);
            self.heads.push(head);
        }
        debug_assert!(self.check_invariants());
    }

    /// Materialize a staged singleton (if any) as a regular block so
    /// whole-structure operations (drains, splits) see every item in
    /// the block deque. Off the hot path; `len` already counts it.
    fn flush_staged(&mut self) {
        if let Some(item) = self.staged.take() {
            let singleton = Block::singleton_from(&mut self.pool, item);
            self.blocks.push_back(singleton);
            self.heads.push(item);
            self.restore_distinct_capacities();
        }
    }

    /// Merge a sorted batch into this LSM as one bulk operation: the
    /// batch is installed as a single tail block and the capacity
    /// cascade merges it into place, instead of `items.len()` separate
    /// insert cascades. Cost is proportional to the blocks the new
    /// block collides with — O(batch) amortized, never a full drain —
    /// so it is safe on the per-commit path of batched handles as well
    /// as for DLSM spying's stolen-item installs.
    pub fn merge_in_sorted(&mut self, items: Vec<Item>) {
        debug_assert!(items.windows(2).all(|w| w[0] <= w[1]));
        if items.is_empty() {
            return;
        }
        self.len += items.len();
        let block = Block::from_sorted(items);
        let head = block.head();
        self.blocks.push_back(block);
        self.heads.push(head);
        self.restore_distinct_capacities();
    }

    /// As [`Lsm::merge_in_sorted`], but copying from a borrowed sorted
    /// slice into a pool-drawn buffer, so a caller-retained staging
    /// buffer (e.g. a handle's insert buffer) can be reused across
    /// flushes without surrendering its allocation.
    pub fn merge_in_from(&mut self, items: &[Item]) {
        debug_assert!(items.windows(2).all(|w| w[0] <= w[1]));
        if items.is_empty() {
            return;
        }
        let mut buf = self.pool.acquire(items.len());
        buf.extend_from_slice(items);
        self.merge_in_sorted(buf);
    }

    /// Split for work stealing: drain everything, keep the even-indexed
    /// items (so both sides retain a sample of the full key range,
    /// including the minimum) and return the odd-indexed ones, sorted. A
    /// single remaining item is returned outright so a victim can always
    /// be fully drained. One pass, all buffers drawn from the pool.
    pub fn split_alternating(&mut self) -> Vec<Item> {
        if self.len == 0 {
            return Vec::new();
        }
        let all = self.take_all_sorted();
        if all.len() == 1 {
            return all;
        }
        let mut keep = self.pool.acquire(all.len().div_ceil(2));
        let mut steal = self.pool.acquire(all.len() / 2);
        for (i, &item) in all.iter().enumerate() {
            if i % 2 == 0 {
                keep.push(item);
            } else {
                steal.push(item);
            }
        }
        self.pool.release(all);
        self.len = keep.len();
        let block = Block::from_sorted(keep);
        let head = block.head();
        self.blocks.push_back(block);
        self.heads.push(head);
        debug_assert!(self.check_invariants());
        steal
    }

    /// Merge the tail run until all capacities are distinct again after
    /// an insertion appended a singleton: a single right-to-left cascade
    /// of pop/merge/push steps at the deque back. Each merge of two
    /// equal-capacity blocks (both filled past half) yields exactly the
    /// doubled capacity, so violations can only ever sit at the tail —
    /// no interior shifting, no restarts.
    ///
    /// Each level's pairwise merge dispatches through
    /// [`Block::merge_into`], so every level of at least
    /// [`kernels::MERGE_PATH_MIN`] combined items runs on the
    /// bidirectional two-chain kernel. (A fused variant that drained
    /// the whole colliding run in one loser-tree pass was benched and
    /// lost: its per-call tree setup and per-item replay cost more than
    /// the level-by-level rewrites it saved — see the EXPERIMENTS.md
    /// kernel ablation.)
    fn restore_distinct_capacities(&mut self) {
        let n = self.blocks.len();
        if n < 2 || self.blocks[n - 1].capacity() < self.blocks[n - 2].capacity() {
            debug_assert!(self.check_invariants());
            return;
        }
        // Carry the merged block in a local across cascade levels
        // instead of round-tripping it through the deques at each one.
        let mut carried = self.blocks.pop_back().expect("len >= 2");
        let mut carried_head = self.heads.pop().expect("mirrors blocks");
        while let Some(prev) = self.blocks.back() {
            if prev.capacity() > carried.capacity() {
                break;
            }
            let prev = self.blocks.pop_back().expect("checked non-empty");
            let prev_head = self.heads.pop().expect("mirrors blocks");
            carried_head = carried_head.min(prev_head);
            carried = Block::merge_into(prev, carried, &mut self.pool);
        }
        self.blocks.push_back(carried);
        self.heads.push(carried_head);
        debug_assert!(self.check_invariants());
    }

    /// Compact a non-empty block that has decayed to half its capacity
    /// or below (deletions shrink blocks in place; the paper's invariant
    /// is restored lazily here). Compaction happens in the block's own
    /// buffer; if the shrunken capacity collides with the right
    /// neighbour, one pairwise merge restores distinctness — the fill
    /// invariant guarantees the result cannot conflict any further
    /// (merged capacity ≥ the neighbour's but ≤ the pre-shrink one).
    fn shrink_at(&mut self, idx: usize) {
        self.blocks[idx].compact_in_place();
        if idx + 1 < self.blocks.len()
            && self.blocks[idx + 1].capacity() >= self.blocks[idx].capacity()
        {
            let right = self.blocks.remove(idx + 1).expect("index in range");
            self.heads.remove(idx + 1);
            let left = std::mem::replace(&mut self.blocks[idx], Block::placeholder());
            self.blocks[idx] = Block::merge_into(left, right, &mut self.pool);
            self.heads[idx] = self.blocks[idx].head();
        }
        debug_assert!(self.check_invariants());
    }

    /// Verify the paper's structural invariants (tests only):
    /// capacities strictly decreasing, each block `C/2 < len ≤ C`, len
    /// consistent.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        let caps_decreasing = self
            .blocks
            .iter()
            .zip(self.blocks.iter().skip(1))
            .all(|(a, b)| a.capacity() > b.capacity());
        let fill_ok = self
            .blocks
            .iter()
            .all(|b| b.len() * 2 > b.capacity() && b.len() <= b.capacity() && b.is_sorted());
        let len_ok = self.len
            == self.blocks.iter().map(Block::len).sum::<usize>() + usize::from(self.staged.is_some());
        let heads_ok = self.heads.len() == self.blocks.len()
            && self
                .heads
                .iter()
                .zip(self.blocks.iter())
                .all(|(&h, b)| b.peek() == Some(h));
        caps_decreasing && fill_ok && len_ok && heads_ok
    }
}

impl SequentialPq for Lsm {
    fn insert(&mut self, key: Key, value: Value) {
        let item = Item::new(key, value);
        self.len += 1;
        // Defer the singleton. Every other insert is a single field
        // store; the next one merges the staged pair — one compare, two
        // stores — directly into a capacity-2 block and lets the
        // cascade continue from there.
        match self.staged.take() {
            None => self.staged = Some(item),
            Some(prev) => {
                let (lo, hi) = if item <= prev { (item, prev) } else { (prev, item) };
                let mut buf = self.pool.acquire(2);
                buf.push(lo);
                buf.push(hi);
                self.blocks.push_back(Block::from_sorted(buf));
                self.heads.push(lo);
                self.restore_distinct_capacities();
            }
        }
    }

    fn delete_min(&mut self) -> Option<Item> {
        // Scan the dense head mirror, not the blocks: the whole scan
        // reads a few contiguous cache lines and dereferences exactly
        // one block buffer (the winner's), instead of chasing every
        // block's heap buffer for its head.
        if self.heads.is_empty() {
            if let Some(s) = self.staged.take() {
                self.len -= 1;
                return Some(s);
            }
            return None;
        }
        let idx = kernels::argmin(&self.heads);
        let best = self.heads[idx];
        if let Some(s) = self.staged {
            // A staged tie is served first: equal items are
            // bit-identical, so either order yields the same bytes.
            if s <= best {
                self.staged = None;
                self.len -= 1;
                return Some(s);
            }
        }
        debug_assert_eq!(self.blocks[idx].peek(), Some(best));
        let block = &mut self.blocks[idx];
        block.drop_front();
        self.len -= 1;
        if block.is_empty() {
            let empty = self.blocks.remove(idx).expect("index in range");
            self.heads.remove(idx);
            self.pool.release(empty.into_buffer());
        } else {
            // The winner's next head sits adjacent to the popped item —
            // almost always the same cache line.
            let head = block.head();
            let needs_shrink = 2 * block.len() <= block.capacity();
            self.heads[idx] = head;
            if needs_shrink {
                self.shrink_at(idx);
            }
        }
        debug_assert!(self.check_invariants());
        Some(best)
    }

    fn peek_min(&self) -> Option<Item> {
        match (self.heads.iter().min().copied(), self.staged) {
            (Some(h), Some(s)) => Some(h.min(s)),
            (h, s) => h.or(s),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        while let Some(block) = self.blocks.pop_back() {
            self.pool.release(block.into_buffer());
        }
        self.heads.clear();
        self.staged = None;
        self.len = 0;
    }
}

impl FromIterator<Item> for Lsm {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        Self::from_items(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_lsm() {
        let mut l = Lsm::new();
        assert!(l.is_empty());
        assert_eq!(l.delete_min(), None);
        assert_eq!(l.peek_min(), None);
        assert_eq!(l.block_count(), 0);
    }

    #[test]
    fn insert_merges_to_distinct_capacities() {
        let mut l = Lsm::new();
        for k in 0..8u64 {
            l.insert(k, 0);
            assert!(l.check_invariants(), "after insert {k}: {l:?}");
        }
        // 8 items fit in a single capacity-8 block.
        assert_eq!(l.block_count(), 1);
        assert_eq!(l.len(), 8);
    }

    #[test]
    fn block_count_is_logarithmic() {
        let mut l = Lsm::new();
        for k in 0..1000u64 {
            l.insert(k, 0);
        }
        assert!(l.block_count() <= 11, "blocks = {}", l.block_count());
    }

    #[test]
    fn sorted_output() {
        let mut l = Lsm::new();
        let keys = [13u64, 7, 42, 1, 99, 3, 56, 21, 0, 77];
        for &k in &keys {
            l.insert(k, k);
        }
        let out: Vec<Key> = std::iter::from_fn(|| l.delete_min()).map(|i| i.key).collect();
        let mut expect = keys.to_vec();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn from_sorted_builds_valid_lsm() {
        let items: Vec<Item> = (0..100).map(|k| Item::new(k, 0)).collect();
        let l = Lsm::from_sorted(items);
        assert_eq!(l.len(), 100);
        assert!(l.check_invariants());
        assert_eq!(l.peek_min(), Some(Item::new(0, 0)));
    }

    #[test]
    fn pop_largest_block_returns_sorted_bulk() {
        let mut l = Lsm::new();
        for k in (0..64u64).rev() {
            l.insert(k, 0);
        }
        let before = l.len();
        let bulk = l.pop_largest_block().unwrap();
        assert!(bulk.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(l.len() + bulk.len(), before);
        assert!(l.check_invariants());
    }

    #[test]
    fn take_all_sorted_drains() {
        let mut l = Lsm::from_items((0..37).map(|k| Item::new(37 - k, k)).collect());
        let all = l.take_all_sorted();
        assert_eq!(all.len(), 37);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
        assert!(l.is_empty());
        assert_eq!(l.block_count(), 0);
    }

    #[test]
    fn take_all_sorted_merges_many_blocks() {
        // Interleave inserts and deletes to build a multi-block shape,
        // then check the k-way merge output exactly.
        let mut l = Lsm::new();
        let mut expect = Vec::new();
        for k in 0..100u64 {
            let key = (k * 37) % 256;
            l.insert(key, k);
            expect.push(Item::new(key, k));
        }
        for _ in 0..23 {
            let it = l.delete_min().unwrap();
            let pos = expect.iter().position(|&e| e == it).unwrap();
            expect.remove(pos);
        }
        assert!(l.block_count() > 1, "want a multi-block merge");
        let all = l.take_all_sorted();
        expect.sort_unstable();
        assert_eq!(all, expect);
        assert!(l.is_empty());
    }

    #[test]
    fn steady_state_hits_the_pool() {
        let mut l = Lsm::new();
        for k in 0..512u64 {
            l.insert(k, 0);
        }
        for k in 0..10_000u64 {
            l.insert(k % 997, 0);
            l.delete_min();
        }
        let stats = l.pool_stats();
        assert!(
            stats.hit_rate() > 0.9,
            "steady state should recycle nearly every buffer: {stats:?}"
        );
        assert!(stats.recycled_bytes > 0);
    }

    #[test]
    fn rebuild_keeps_pool_and_contents() {
        let mut l = Lsm::new();
        for k in 0..64u64 {
            l.insert(k, 0);
        }
        l.rebuild_from_sorted((10..20).map(|k| Item::new(k, 1)).collect());
        assert_eq!(l.len(), 10);
        assert!(l.check_invariants());
        assert_eq!(l.peek_min(), Some(Item::new(10, 1)));
        // The old buffers were recycled, not leaked to the allocator.
        assert!(l.pool_stats().recycled_bytes > 0);
    }

    #[test]
    fn merge_in_sorted_bulk_installs() {
        let mut l = Lsm::new();
        for k in [5u64, 9, 1] {
            l.insert(k, 0);
        }
        l.merge_in_sorted(vec![Item::new(2, 1), Item::new(7, 1)]);
        assert_eq!(l.len(), 5);
        assert!(l.check_invariants());
        let out: Vec<Key> = std::iter::from_fn(|| l.delete_min()).map(|i| i.key).collect();
        assert_eq!(out, vec![1, 2, 5, 7, 9]);
        // Merging into an empty LSM installs directly.
        let mut e = Lsm::new();
        e.merge_in_sorted(vec![Item::new(3, 0)]);
        assert_eq!(e.len(), 1);
        e.merge_in_sorted(Vec::new());
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn split_alternating_halves() {
        let mut l = Lsm::new();
        for k in 0..101u64 {
            l.insert(k, k);
        }
        let steal = l.split_alternating();
        assert_eq!(steal.len(), 50);
        assert_eq!(l.len(), 51);
        assert!(l.check_invariants());
        assert!(steal.windows(2).all(|w| w[0] <= w[1]));
        // Stolen items are the odd-indexed ones; the victim keeps the min.
        assert_eq!(steal[0].key, 1);
        assert_eq!(l.peek_min(), Some(Item::new(0, 0)));
        // A single remaining item is stolen outright.
        let mut single = Lsm::new();
        single.insert(7, 7);
        let steal = single.split_alternating();
        assert_eq!(steal.len(), 1);
        assert!(single.is_empty());
        // And an empty LSM yields nothing.
        assert!(Lsm::new().split_alternating().is_empty());
    }

    /// Adversarial loser-tree shapes: all-equal, pre-sorted and
    /// reverse-sorted block sets, each with interior deletions, drained
    /// by `take_all_sorted` and compared against the sorted-`Vec` model.
    #[test]
    fn take_all_sorted_matches_pairwise_reference() {
        type KeyFn = Box<dyn Fn(u64) -> u64>;
        let shapes: [(&str, KeyFn); 3] = [
            ("all-equal", Box::new(|_| 42)),
            ("pre-sorted", Box::new(|k| k)),
            ("reverse-sorted", Box::new(|k| 500 - k)),
        ];
        for (name, keyed) in shapes {
            let mut l = Lsm::new();
            let mut model: Vec<Item> = Vec::new();
            for k in 0..500u64 {
                l.insert(keyed(k), k);
                model.push(Item::new(keyed(k), k));
            }
            model.sort();
            // Interior deletions give some blocks dead prefixes.
            for expect in model.drain(..77) {
                assert_eq!(l.delete_min(), Some(expect), "{name}");
            }
            assert!(l.block_count() > 1, "{name}: want a k-way merge");
            assert_eq!(l.take_all_sorted(), model, "{name}");
            assert!(l.is_empty());
        }
    }

    #[test]
    fn merge_in_from_retains_caller_buffer() {
        let mut l = Lsm::new();
        l.insert(5, 0);
        let staged = vec![Item::new(1, 1), Item::new(9, 1)];
        l.merge_in_from(&staged);
        assert_eq!(staged.len(), 2, "caller keeps the staging buffer");
        assert_eq!(l.len(), 3);
        assert!(l.check_invariants());
        l.merge_in_from(&[]);
        assert_eq!(l.len(), 3);
        let out: Vec<Key> = std::iter::from_fn(|| l.delete_min()).map(|i| i.key).collect();
        assert_eq!(out, vec![1, 5, 9]);
    }

    #[test]
    fn deletions_shrink_blocks() {
        let mut l = Lsm::new();
        for k in 0..128u64 {
            l.insert(k, 0);
        }
        for _ in 0..100 {
            l.delete_min();
            assert!(l.check_invariants());
        }
        assert_eq!(l.len(), 28);
    }

    #[test]
    fn staged_singleton_is_observable_everywhere() {
        // One insert parks the item in the staging slot: no block
        // exists yet, but every read path must see it.
        let mut l = Lsm::new();
        l.insert(7, 9);
        assert_eq!(l.len(), 1);
        assert_eq!(l.block_count(), 0);
        assert_eq!(l.peek_min(), Some(Item::new(7, 9)));
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![Item::new(7, 9)]);
        assert!(l.check_invariants());
        assert_eq!(l.delete_min(), Some(Item::new(7, 9)));
        assert_eq!(l.delete_min(), None);

        // Drains flush the staged item into the output.
        let mut l = Lsm::new();
        for k in [5u64, 3, 1] {
            l.insert(k, 0);
        }
        let drained: Vec<Key> = l.take_all_sorted().iter().map(|i| i.key).collect();
        assert_eq!(drained, vec![1, 3, 5]);
        assert!(l.is_empty());

        // A staged item smaller than every block head is served first.
        let mut l = Lsm::new();
        l.insert(5, 0);
        l.insert(3, 0);
        l.insert(1, 0);
        assert_eq!(l.delete_min(), Some(Item::new(1, 0)));
        assert_eq!(l.delete_min(), Some(Item::new(3, 0)));
        assert_eq!(l.delete_min(), Some(Item::new(5, 0)));
    }

    #[test]
    fn split_alternating_sees_staged_item() {
        let mut l = Lsm::new();
        for k in 0..5u64 {
            l.insert(k, 0);
        }
        // 5 inserts leave the fifth staged; the split must cover it.
        let steal = l.split_alternating();
        assert_eq!(steal.len() + l.len(), 5);
        let mut all: Vec<Key> = steal.iter().map(|i| i.key).collect();
        all.extend(l.take_all_sorted().iter().map(|i| i.key));
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    /// Every LSM telemetry counter names a path the one production
    /// configuration takes. Counters are process-wide and monotone, so
    /// sibling tests can only add to the deltas asserted here.
    #[cfg(feature = "telemetry")]
    #[test]
    fn lsm_counters_all_fire() {
        use pq_traits::telemetry::{snapshot, Event};
        let before = snapshot();
        let mut l = Lsm::new();
        for k in 0..512u64 {
            l.insert(k, 0);
        }
        for k in 0..10_000u64 {
            l.insert(k.wrapping_mul(0x9E37_79B9) % 4096, k);
            l.delete_min().expect("non-empty");
        }
        l.insert(0, 0);
        assert!(l.block_count() > 1, "want a loser-tree drain");
        assert_eq!(l.take_all_sorted().len(), 513);
        let d = snapshot().since(&before);
        for ev in [
            Event::LsmKernelBidiHit,
            Event::LsmKernelLoserTreePass,
            Event::LsmPoolHit,
            Event::LsmPoolRecycledBytes,
        ] {
            assert!(d.get(ev) > 0, "{} never fired", ev.name());
        }
    }

    proptest::proptest! {
        /// Every public mutation against a sorted-`Vec` model, which
        /// shares no code with the LSM: exact `delete_min` order, exact
        /// drain and split output, conservation through bulk installs
        /// and block eviction, invariants after every step.
        #[test]
        fn prop_matches_model(
            ops in proptest::collection::vec((0u8..10, 0u64..1000), 0..400)
        ) {
            let mut l = Lsm::new();
            let mut model: Vec<Item> = Vec::new();
            for (i, &(op, k)) in ops.iter().enumerate() {
                let i = i as u64;
                model.sort();
                match op {
                    0..=3 => {
                        l.insert(k, i);
                        model.push(Item::new(k, i));
                    }
                    4 | 5 => {
                        let expect = if model.is_empty() { None } else { Some(model.remove(0)) };
                        proptest::prop_assert_eq!(l.delete_min(), expect);
                    }
                    6 => proptest::prop_assert_eq!(l.take_all_sorted(), std::mem::take(&mut model)),
                    7 => {
                        // A sorted batch of `k % 40` items around `k`.
                        let batch: Vec<Item> =
                            (0..k % 40).map(|j| Item::new(k / 2 + j / 3, i * 64 + j)).collect();
                        model.extend_from_slice(&batch);
                        l.merge_in_sorted(batch);
                    }
                    8 => {
                        // Odd positions are stolen; a lone item goes too.
                        let (keep, steal): (Vec<Item>, Vec<Item>) = if model.len() == 1 {
                            (Vec::new(), model.clone())
                        } else {
                            (
                                model.iter().copied().step_by(2).collect(),
                                model.iter().copied().skip(1).step_by(2).collect(),
                            )
                        };
                        proptest::prop_assert_eq!(l.split_alternating(), steal);
                        model = keep;
                    }
                    _ => {
                        // Which items sit in the largest block is the
                        // LSM's business; the model checks that they are
                        // that block's, sorted, and leave both sides.
                        let front = l.block_shapes().next().map(|(_, live)| live);
                        let bulk = l.pop_largest_block();
                        proptest::prop_assert_eq!(bulk.as_ref().map(Vec::len), front);
                        for it in bulk.iter().flatten() {
                            let pos = model.binary_search(it);
                            proptest::prop_assert!(pos.is_ok(), "evicted unknown {:?}", it);
                            model.remove(pos.expect("checked"));
                        }
                        proptest::prop_assert!(bulk.iter().all(|b| b.windows(2).all(|w| w[0] <= w[1])));
                    }
                }
                proptest::prop_assert!(l.check_invariants());
                proptest::prop_assert_eq!(l.len(), model.len());
            }
            model.sort();
            proptest::prop_assert_eq!(l.take_all_sorted(), model);
        }

        #[test]
        fn prop_block_count_logarithmic(n in 1usize..2000) {
            let mut l = Lsm::new();
            for k in 0..n as u64 {
                l.insert(k, 0);
            }
            let bound = (usize::BITS - n.leading_zeros()) as usize + 1;
            proptest::prop_assert!(l.block_count() <= bound);
        }
    }
}
