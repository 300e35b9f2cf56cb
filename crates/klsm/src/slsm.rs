//! The Shared LSM (SLSM): a single global LSM with relaxed deletions.
//!
//! Blocks are immutable [`SharedBlock`]s published through an
//! epoch-protected, copy-on-write `BlockList`. The list also carries the
//! *pivot range*: per-block index ranges jointly covering (a subset of)
//! the `k+1` smallest live items at the time the list was built.
//! `delete_min` picks a random pivot entry and claims it with one CAS on
//! its shared taken flag; since the pivot covered the `k+1` smallest live
//! items when built and items are only ever *removed* afterwards, a
//! claimed entry skips at most `k` live items — the paper's SLSM bound.
//!
//! Structural changes (batch insert with merging, pivot rebuild, pruning
//! of empty blocks) all go through a single `compare_exchange` on the list
//! pointer, so every operation is lock-free: a failed CAS means another
//! thread made progress.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pq_traits::seed::{handle_seed, DEFAULT_QUEUE_SEED};
use pq_traits::telemetry;
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, Value};

use crate::shared_block::{Entry, SharedBlock};

/// Snapshot of the SLSM structure: blocks in decreasing capacity order
/// plus the pivot range computed when this snapshot was published.
#[derive(Debug)]
pub(crate) struct BlockList {
    blocks: Vec<Arc<SharedBlock>>,
    /// Pivot end index per block; the pivot segment of block `i` is
    /// `[blocks[i].first_hint(), ends[i])`.
    ends: Vec<usize>,
}

impl BlockList {
    fn empty() -> Self {
        Self {
            blocks: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Each non-empty block's first live item (refreshes first hints).
    fn block_mins(&self) -> impl Iterator<Item = Item> + '_ {
        self.blocks.iter().filter_map(|b| b.peek())
    }
}

/// Outcome of [`Slsm::delete_min_if_better`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlsmOutcome {
    /// A shared item was claimed; it compared smaller than the local peek.
    TookShared(Item),
    /// The caller's local item is smaller (or the SLSM is empty but the
    /// caller has a local item); the caller should delete locally.
    UseLocal,
    /// Both the SLSM and the caller's local component are empty.
    Empty,
}

/// The Shared LSM relaxed priority queue.
///
/// Standalone it is a lock-free, linearizable priority queue whose
/// `delete_min` returns one of the `k+1` smallest items. Inside the
/// [`crate::Klsm`] it stores the overflow blocks evicted from the
/// thread-local component.
#[derive(Debug)]
pub struct Slsm {
    list: Atomic<BlockList>,
    /// Approximate live item count, maintained after publication /
    /// successful takes. Used only for emptiness detection.
    live: AtomicUsize,
    k: usize,
    seed: u64,
    handle_ctr: AtomicU64,
}

impl Slsm {
    /// Create an empty SLSM with relaxation parameter `k` (deletions skip
    /// at most `k` items). `k = 0` gives strict semantics.
    pub fn new(k: usize) -> Self {
        Self::with_seed(k, DEFAULT_QUEUE_SEED)
    }

    /// As [`Slsm::new`], with an explicit queue seed for the per-handle
    /// RNGs (handle `i` gets `seed ⊕ mix(i)`), so relaxed pivot picks
    /// replay deterministically.
    pub fn with_seed(k: usize, seed: u64) -> Self {
        Self {
            list: Atomic::new(BlockList::empty()),
            live: AtomicUsize::new(0),
            k,
            seed,
            handle_ctr: AtomicU64::new(0),
        }
    }

    /// Relaxation parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Approximate number of live items.
    pub fn len_hint(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Insert a batch of items (need not be sorted). The batch becomes a
    /// new block; equal-capacity blocks are merged copy-on-write and the
    /// pivot range is recomputed before the new list is published.
    pub fn insert_batch(&self, mut items: Vec<Item>) {
        items.sort_unstable();
        self.insert_sorted_batch(items);
    }

    /// As [`Slsm::insert_batch`] for an already-sorted batch, skipping
    /// the sort. The k-LSM eviction path lands here: blocks popped from
    /// a thread-local LSM are sorted by construction.
    pub fn insert_sorted_batch(&self, items: Vec<Item>) {
        if items.is_empty() {
            return;
        }
        debug_assert!(items.windows(2).all(|w| w[0] <= w[1]));
        let n = items.len();
        let new_block = SharedBlock::from_batch(&items);
        let guard = epoch::pin();
        loop {
            let old = self.list.load(Ordering::Acquire, &guard);
            // SAFETY: `old` was published by us and is protected by the
            // guard; it is only freed through `defer_destroy` below.
            let old_ref = unsafe { old.deref() };
            let mut blocks: Vec<Arc<SharedBlock>> = old_ref
                .blocks
                .iter()
                .filter(|b| b.refresh_first().is_some())
                .cloned()
                .collect();
            // Insert keeping capacities decreasing, then merge duplicates.
            let pos = blocks
                .iter()
                .position(|b| b.capacity() <= new_block.capacity())
                .unwrap_or(blocks.len());
            blocks.insert(pos, new_block.clone());
            merge_duplicate_capacities(&mut blocks);
            let ends = compute_pivot(&blocks, self.k);
            let new = Owned::new(BlockList { blocks, ends });
            match self
                .list
                .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire, &guard)
            {
                Ok(_) => {
                    // SAFETY: `old` is now unreachable from the Atomic;
                    // epoch reclamation frees it after all guards drop.
                    unsafe { guard.defer_destroy(old) };
                    self.live.fetch_add(n, Ordering::Release);
                    return;
                }
                Err(e) => drop(e.new),
            }
        }
    }

    /// Claim and return one of the `k+1` smallest live items, or `None`
    /// if the SLSM appears empty.
    pub fn delete_min(&self, rng: &mut SmallRng) -> Option<Item> {
        match self.delete_min_if_better(None, rng) {
            SlsmOutcome::TookShared(item) => Some(item),
            SlsmOutcome::UseLocal => unreachable!("no local item supplied"),
            SlsmOutcome::Empty => None,
        }
    }

    /// The k-LSM deletion protocol: compare a random pivot candidate with
    /// the caller's local minimum and either claim the shared item (if it
    /// is smaller) or tell the caller to use its local one.
    pub fn delete_min_if_better(&self, local: Option<Item>, rng: &mut SmallRng) -> SlsmOutcome {
        let guard = epoch::pin();
        loop {
            let shared = self.list.load(Ordering::Acquire, &guard);
            // SAFETY: protected by `guard`, freed only via defer_destroy.
            let list = unsafe { shared.deref() };
            // Every pivot candidate is ≥ its block's first live item, so
            // a local item ≤ all of them would win against any probe.
            if let Some(loc) = local {
                if list.block_mins().all(|m| loc <= m) {
                    telemetry::record_quiet(telemetry::Event::SlsmLocalShortcut);
                    return SlsmOutcome::UseLocal;
                }
            }
            match pick_candidate(list, rng) {
                Some(entry) => {
                    if let Some(loc) = local {
                        if loc <= entry.item {
                            return SlsmOutcome::UseLocal;
                        }
                    }
                    if entry.try_take() {
                        self.live.fetch_sub(1, Ordering::Release);
                        return SlsmOutcome::TookShared(entry.item);
                    }
                    // Lost the race for this entry; retry.
                    telemetry::record(telemetry::Event::SlsmLostRace);
                }
                None => {
                    if self.live.load(Ordering::Acquire) == 0 {
                        return match local {
                            Some(_) => SlsmOutcome::UseLocal,
                            None => SlsmOutcome::Empty,
                        };
                    }
                    // Pivot exhausted but items remain: rebuild it.
                    self.rebuild_pivot(shared, &guard);
                }
            }
        }
    }

    /// Smallest live item without claiming it (refreshes first hints).
    pub fn peek_min(&self) -> Option<Item> {
        let guard = epoch::pin();
        let shared = self.list.load(Ordering::Acquire, &guard);
        // SAFETY: protected by `guard`.
        let list = unsafe { shared.deref() };
        list.block_mins().min()
    }

    /// Publish a fresh pivot range (and prune empty blocks). A failed CAS
    /// means another thread already changed the list — that is progress
    /// too, so failure is ignored.
    fn rebuild_pivot(&self, old: Shared<'_, BlockList>, guard: &Guard) {
        telemetry::record(telemetry::Event::SlsmPivotRebuild);
        // SAFETY: protected by `guard`.
        let old_ref = unsafe { old.deref() };
        let blocks: Vec<Arc<SharedBlock>> = old_ref
            .blocks
            .iter()
            .filter(|b| b.refresh_first().is_some())
            .cloned()
            .collect();
        let ends = compute_pivot(&blocks, self.k);
        let new = Owned::new(BlockList { blocks, ends });
        match self
            .list
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire, guard)
        {
            Ok(_) => {
                // SAFETY: `old` unreachable after successful CAS.
                unsafe { guard.defer_destroy(old) };
            }
            Err(e) => drop(e.new),
        }
    }

    /// Number of blocks in the current snapshot (tests/diagnostics).
    pub fn block_count(&self) -> usize {
        let guard = epoch::pin();
        // SAFETY: protected by `guard`.
        unsafe { self.list.load(Ordering::Acquire, &guard).deref() }
            .blocks
            .len()
    }
}

impl Drop for Slsm {
    fn drop(&mut self) {
        // SAFETY: &mut self means no concurrent accessors; unprotected
        // load and immediate drop are safe.
        unsafe {
            let p = self.list.load(Ordering::Relaxed, epoch::unprotected());
            if !p.is_null() {
                drop(p.into_owned());
            }
        }
    }
}

/// Merge adjacent blocks until capacities are strictly decreasing.
fn merge_duplicate_capacities(blocks: &mut Vec<Arc<SharedBlock>>) {
    let mut i = blocks.len();
    while i >= 2 {
        let a = blocks[i - 2].capacity();
        let b = blocks[i - 1].capacity();
        if b >= a {
            let small = blocks.remove(i - 1);
            let big = blocks.remove(i - 2);
            let merged = SharedBlock::merge(&big, &small);
            if merged.refresh_first().is_some() {
                let pos = blocks
                    .iter()
                    .position(|blk| blk.capacity() <= merged.capacity())
                    .unwrap_or(blocks.len());
                blocks.insert(pos, merged);
            }
            i = blocks.len();
        } else {
            i -= 1;
        }
    }
}

/// Compute pivot end indices covering the `k+1` smallest live items via a
/// cursor merge across the sorted blocks. O((k + B)·B) for B blocks.
fn compute_pivot(blocks: &[Arc<SharedBlock>], k: usize) -> Vec<usize> {
    let mut cursors: Vec<usize> = blocks
        .iter()
        .map(|b| b.refresh_first().unwrap_or(b.total_len()))
        .collect();
    let mut ends = cursors.clone();
    let mut chosen = 0usize;
    while chosen <= k {
        let mut best: Option<(usize, Item)> = None;
        for (i, b) in blocks.iter().enumerate() {
            // Advance cursor past entries taken since the last refresh.
            while cursors[i] < b.total_len() && b.entry(cursors[i]).is_taken() {
                cursors[i] += 1;
            }
            if cursors[i] < b.total_len() {
                let it = b.entry(cursors[i]).item;
                if best.is_none_or(|(_, cur)| it < cur) {
                    best = Some((i, it));
                }
            }
        }
        match best {
            Some((i, _)) => {
                cursors[i] += 1;
                ends[i] = cursors[i];
                chosen += 1;
            }
            None => break,
        }
    }
    ends
}

/// Pick a random live entry from the pivot range. Starts at a random
/// block and a random offset within its pivot segment, probing forward;
/// returns `None` if every pivot segment is exhausted.
fn pick_candidate(list: &BlockList, rng: &mut SmallRng) -> Option<Entry> {
    let nb = list.blocks.len();
    if nb == 0 {
        return None;
    }
    let mut reads = 0;
    let mut picked = None;
    let rot = rng.gen_range(0..nb);
    for off in 0..nb {
        let i = (rot + off) % nb;
        let block = &list.blocks[i];
        let first = block.first_hint();
        let end = list.ends[i].min(block.total_len());
        if first >= end {
            continue;
        }
        let start = rng.gen_range(first..end);
        // Probe [start, end), then wrap to [first, start).
        let live = block
            .next_live(start, end, &mut reads)
            .or_else(|| block.next_live(first, start, &mut reads));
        if let Some(j) = live {
            picked = Some(*block.entry(j));
            break;
        }
        // Entire segment taken: advance the hint so future scans skip it.
        block.advance_first(end);
    }
    telemetry::record_n_quiet(telemetry::Event::SlsmProbeEntries, reads as u64);
    picked
}

/// Per-thread handle for a standalone [`Slsm`].
pub struct SlsmHandle<'a> {
    slsm: &'a Slsm,
    rng: SmallRng,
}

impl PqHandle for SlsmHandle<'_> {
    fn insert(&mut self, key: Key, value: Value) {
        self.slsm.insert_batch(vec![Item::new(key, value)]);
    }

    fn delete_min(&mut self) -> Option<Item> {
        self.slsm.delete_min(&mut self.rng)
    }
}

impl ConcurrentPq for Slsm {
    type Handle<'a> = SlsmHandle<'a>;

    fn handle(&self) -> SlsmHandle<'_> {
        let idx = self.handle_ctr.fetch_add(1, Ordering::Relaxed);
        SlsmHandle {
            slsm: self,
            rng: SmallRng::seed_from_u64(handle_seed(self.seed, idx)),
        }
    }

    fn name(&self) -> String {
        format!("slsm{}", self.k)
    }
}

impl RelaxationBound for Slsm {
    fn rank_bound(&self, _threads: usize) -> Option<u64> {
        Some(self.k as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn empty_slsm() {
        let s = Slsm::new(8);
        assert_eq!(s.delete_min(&mut rng()), None);
        assert_eq!(s.peek_min(), None);
        assert_eq!(s.len_hint(), 0);
    }

    #[test]
    fn strict_mode_returns_exact_min() {
        let s = Slsm::new(0);
        s.insert_batch((0..50).map(|k| Item::new(50 - k, k)).collect());
        let mut r = rng();
        let mut prev = None;
        while let Some(it) = s.delete_min(&mut r) {
            if let Some(p) = prev {
                assert!(it.key >= p, "strict SLSM out of order: {it:?} after {p}");
            }
            prev = Some(it.key);
        }
    }

    #[test]
    fn relaxed_mode_returns_all_items() {
        let s = Slsm::new(16);
        s.insert_batch((0..200).map(|k| Item::new(k, k)).collect());
        let mut r = rng();
        let mut got: Vec<Key> = std::iter::from_fn(|| s.delete_min(&mut r))
            .map(|i| i.key)
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
        assert_eq!(s.len_hint(), 0);
    }

    #[test]
    fn relaxation_bound_holds_sequentially() {
        let k = 8usize;
        let s = Slsm::new(k);
        s.insert_batch((0..500).map(|x| Item::new(x, x)).collect());
        let mut r = rng();
        let mut live: Vec<Key> = (0..500).collect();
        while let Some(it) = s.delete_min(&mut r) {
            let rank = live.iter().filter(|&&x| x < it.key).count();
            assert!(rank <= k, "rank {rank} exceeds k={k}");
            let pos = live.iter().position(|&x| x == it.key).unwrap();
            live.remove(pos);
        }
        assert!(live.is_empty());
    }

    #[test]
    fn batches_merge_into_distinct_capacities() {
        let s = Slsm::new(4);
        for batch in 0..16u64 {
            s.insert_batch((0..4).map(|i| Item::new(batch * 4 + i, 0)).collect());
        }
        // 16 batches of capacity 4 must have merged: far fewer blocks.
        assert!(s.block_count() <= 5, "blocks = {}", s.block_count());
        assert_eq!(s.len_hint(), 64);
    }

    #[test]
    fn interleaved_insert_delete() {
        let s = Slsm::new(4);
        let mut r = rng();
        let mut inserted = 0u64;
        let mut deleted = 0u64;
        for round in 0..50u64 {
            s.insert_batch((0..10).map(|i| Item::new(round * 10 + i, 0)).collect());
            inserted += 10;
            for _ in 0..5 {
                if s.delete_min(&mut r).is_some() {
                    deleted += 1;
                }
            }
        }
        let mut rest = 0u64;
        while s.delete_min(&mut r).is_some() {
            rest += 1;
        }
        assert_eq!(deleted + rest, inserted);
    }

    #[test]
    fn concurrent_no_duplicates_no_losses() {
        let s = std::sync::Arc::new(Slsm::new(64));
        let threads = 4;
        let per = 2000u64;
        let taken: std::sync::Mutex<Vec<Item>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|sc| {
            for t in 0..threads {
                let s = &s;
                let taken = &taken;
                sc.spawn(move || {
                    let mut r = SmallRng::seed_from_u64(t);
                    let mut mine = Vec::new();
                    for i in 0..per {
                        let key = (i * 7919 + t * 13) % 10000;
                        s.insert_batch(vec![Item::new(key, t * per + i)]);
                        if i % 2 == 1 {
                            if let Some(it) = s.delete_min(&mut r) {
                                mine.push(it);
                            }
                        }
                    }
                    taken.lock().unwrap().extend(mine);
                });
            }
        });
        let mut r = rng();
        let mut all = taken.into_inner().unwrap();
        while let Some(it) = s.delete_min(&mut r) {
            all.push(it);
        }
        assert_eq!(all.len(), (threads * per) as usize, "lost or duplicated items");
        all.sort();
        all.dedup();
        assert_eq!(all.len(), (threads * per) as usize, "duplicate values returned");
    }

    #[test]
    fn concurrent_probes_across_bitmap_words() {
        // Large blocks with k = 64: pivot segments fill with taken
        // entries and span several 64-entry bitmap words, so probes and
        // the bitmap's `fetch_or`s race across word edges.
        let s = Slsm::new(64);
        let (threads, per, prefill) = (4u64, 3000u64, 4096u64);
        let item = |v: u64| Item::new(v * 5 % 12_289, v);
        s.insert_batch((0..prefill).map(item).collect());
        let taken: std::sync::Mutex<Vec<Item>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|sc| {
            for t in 0..threads {
                let (s, taken) = (&s, &taken);
                sc.spawn(move || {
                    let mut r = SmallRng::seed_from_u64(t);
                    let mut mine = Vec::new();
                    for i in (0..per).step_by(100) {
                        let base = prefill + t * per + i;
                        s.insert_batch((base..base + 100).map(item).collect());
                        mine.extend((0..100).filter_map(|_| s.delete_min(&mut r)));
                    }
                    taken.lock().unwrap().extend(mine);
                });
            }
        });
        let mut all = taken.into_inner().unwrap();
        all.extend(std::iter::from_fn(|| s.delete_min(&mut rng())));
        all.sort_unstable();
        let mut expect: Vec<Item> = (0..prefill + threads * per).map(item).collect();
        expect.sort_unstable();
        assert_eq!(all, expect, "items lost or duplicated");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_local_vs_shared_outcome_is_exact(
            batches in proptest::collection::vec(
                proptest::collection::vec(0u64..1000, 1..80), 1..8),
            takes in 0usize..200,
            k in 0usize..80,
            locs in proptest::collection::vec(0u64..1100, 1..16),
            seed in 0u64..1_000_000,
        ) {
            let s = Slsm::new(k);
            for (bi, batch) in batches.iter().enumerate() {
                s.insert_batch(batch.iter().enumerate()
                    .map(|(i, &key)| Item::new(key, (bi * 100 + i) as u64)).collect());
            }
            let mut r = SmallRng::seed_from_u64(seed);
            for _ in 0..takes {
                s.delete_min(&mut r);
            }
            for (i, &key) in locs.iter().enumerate() {
                // Values above every stored value, so ties on key break
                // towards the shared item.
                let loc = Item::new(key, 1_000_000 + i as u64);
                let (peek, live) = (s.peek_min(), s.len_hint());
                match s.delete_min_if_better(Some(loc), &mut r) {
                    SlsmOutcome::UseLocal => proptest::prop_assert_eq!(s.len_hint(), live),
                    SlsmOutcome::TookShared(e) => {
                        proptest::prop_assert!(peek.is_some_and(|p| p < loc));
                        proptest::prop_assert!(e < loc, "took {:?} ≥ local {:?}", e, loc);
                        proptest::prop_assert_eq!(s.len_hint(), live - 1);
                    }
                    SlsmOutcome::Empty => proptest::prop_assert!(false, "Empty with a local item"),
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_sequential_matches_multiset(
            batches in proptest::collection::vec(
                proptest::collection::vec(0u64..1000, 1..30), 1..10),
            k in 0usize..32,
        ) {
            let s = Slsm::new(k);
            let mut expect: Vec<Key> = Vec::new();
            for (bi, batch) in batches.iter().enumerate() {
                let items: Vec<Item> = batch.iter().enumerate()
                    .map(|(i, &key)| Item::new(key, (bi * 1000 + i) as u64)).collect();
                expect.extend(batch.iter().copied());
                s.insert_batch(items);
            }
            let mut r = rng();
            let mut got: Vec<Key> = std::iter::from_fn(|| s.delete_min(&mut r))
                .map(|i| i.key).collect();
            got.sort_unstable();
            expect.sort_unstable();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
