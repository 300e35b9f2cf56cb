//! Immutable shared blocks for the SLSM.
//!
//! A [`SharedBlock`] is a sorted array of entries. Each entry pairs an
//! item with a pointer to an [`AtomicBool`] *taken flag*. Flags live in
//! [`Segment`]s — one segment per inserted batch — and are **shared by
//! reference** between a block and every block later produced by merging
//! it: merging copies entries (item + flag pointer) but never the flags
//! themselves. A deletion claims an item by a single
//! `compare_exchange(false, true)` on its flag, so no matter how many
//! block generations an entry has been copied through, at most one
//! deletion can ever return it.
//!
//! Each block also keeps a `seen_taken` bitmap, one bit per entry, set
//! once some reader has observed that entry's flag taken. Flags never
//! revert, so a set bit is always true and [`SharedBlock::next_live`]
//! skips known-taken runs a word at a time instead of re-reading their
//! flags through the segment pointers.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use pq_traits::Item;

/// Taken flags for one inserted batch. Kept alive by `Arc`s held in every
/// block whose entries point into it.
#[derive(Debug)]
pub struct Segment {
    flags: Box<[AtomicBool]>,
}

impl Segment {
    /// A segment of `n` untaken flags.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Pointer to flag `i`. Valid for as long as the `Arc<Segment>` lives.
    #[inline]
    fn flag_ptr(&self, i: usize) -> *const AtomicBool {
        &self.flags[i] as *const AtomicBool
    }
}

/// One sorted slot in a shared block: an item plus its shared taken flag.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// The stored key-value pair.
    pub item: Item,
    flag: *const AtomicBool,
}

impl Entry {
    /// `true` if the item has been claimed by a deletion.
    #[inline]
    pub fn is_taken(&self) -> bool {
        // SAFETY: `flag` points into a Segment kept alive by the
        // SharedBlock holding this entry.
        unsafe { (*self.flag).load(Ordering::Acquire) }
    }

    /// Attempt to claim the item. Returns `true` exactly once per entry
    /// across all copies of it in all block generations.
    #[inline]
    pub fn try_take(&self) -> bool {
        // SAFETY: as in `is_taken`.
        unsafe {
            (*self.flag)
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        }
    }
}

/// Immutable sorted block of entries, plus the segments keeping the
/// entries' flags alive, a monotone `first` hint that skips the taken
/// prefix and a monotone bitmap of entries seen taken.
#[derive(Debug)]
pub struct SharedBlock {
    entries: Box<[Entry]>,
    /// Entries `[0, first)` are known taken. Monotone; advanced with
    /// `fetch_max`-style updates. A hint only — correctness never depends
    /// on it.
    first: AtomicUsize,
    /// Bit `i` set ⇒ entry `i` was seen taken. Monotone (only ever
    /// OR-ed into), so skipping a set bit never skips a live entry.
    seen_taken: Box<[AtomicU64]>,
    /// Keep-alive references for every segment the entries point into.
    segments: Box<[Arc<Segment>]>,
    capacity: usize,
}

// SAFETY: `Entry.flag` pointers target `AtomicBool`s inside `segments`,
// which the block owns (via Arc) for its whole lifetime; `AtomicBool` is
// Sync and entries are never mutated after construction.
unsafe impl Send for SharedBlock {}
unsafe impl Sync for SharedBlock {}

impl SharedBlock {
    /// Build a block from a sorted batch of items with a fresh segment of
    /// untaken flags.
    pub fn from_batch(items: &[Item]) -> Arc<Self> {
        debug_assert!(items.windows(2).all(|w| w[0] <= w[1]));
        let segment = Segment::new(items.len());
        let entries: Box<[Entry]> = items
            .iter()
            .enumerate()
            .map(|(i, &item)| Entry {
                item,
                flag: segment.flag_ptr(i),
            })
            .collect();
        Self::build(entries, Box::new([segment]))
    }

    fn build(entries: Box<[Entry]>, segments: Box<[Arc<Segment>]>) -> Arc<Self> {
        let capacity = entries.len().next_power_of_two().max(1);
        let seen_taken = (0..entries.len().div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        Arc::new(Self {
            entries,
            first: AtomicUsize::new(0),
            seen_taken,
            segments,
            capacity,
        })
    }

    /// Merge the live (untaken-at-copy-time) entries of two blocks into a
    /// fresh block. Flags are shared with the parents, so entries taken
    /// concurrently with the merge are simply observed as taken in the
    /// child.
    pub fn merge(a: &SharedBlock, b: &SharedBlock) -> Arc<Self> {
        let mut entries = Vec::with_capacity(a.len_hint() + b.len_hint());
        // Cursor merge over the raw entry arrays (same kernel shape as
        // `lsm::Block::merge_into`): taken entries are skipped inline,
        // so no filtering iterator adaptors sit on the hot loop.
        let (ea, eb) = (&a.entries, &b.entries);
        let mut i = a.first.load(Ordering::Relaxed).min(ea.len());
        let mut j = b.first.load(Ordering::Relaxed).min(eb.len());
        loop {
            while i < ea.len() && ea[i].is_taken() {
                i += 1;
            }
            while j < eb.len() && eb[j].is_taken() {
                j += 1;
            }
            match (i < ea.len(), j < eb.len()) {
                (true, true) => {
                    if ea[i].item <= eb[j].item {
                        entries.push(ea[i]);
                        i += 1;
                    } else {
                        entries.push(eb[j]);
                        j += 1;
                    }
                }
                (true, false) => {
                    entries.push(ea[i]);
                    i += 1;
                }
                (false, true) => {
                    entries.push(eb[j]);
                    j += 1;
                }
                (false, false) => break,
            }
        }
        let segments: Box<[Arc<Segment>]> = a
            .segments
            .iter()
            .chain(b.segments.iter())
            .cloned()
            .collect();
        Self::build(entries.into_boxed_slice(), segments)
    }

    /// Power-of-two capacity (based on live count at construction).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entries including taken ones.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.entries.len()
    }

    /// Upper bound on the number of live entries (total minus the known
    /// taken prefix).
    #[inline]
    pub fn len_hint(&self) -> usize {
        self.entries.len() - self.first.load(Ordering::Relaxed).min(self.entries.len())
    }

    /// Entry at index `i`.
    #[inline]
    pub fn entry(&self, i: usize) -> &Entry {
        &self.entries[i]
    }

    /// Current `first` hint.
    #[inline]
    pub fn first_hint(&self) -> usize {
        self.first.load(Ordering::Relaxed)
    }

    /// Advance the `first` hint to at least `to` (monotone).
    pub fn advance_first(&self, to: usize) {
        self.first.fetch_max(to, Ordering::Relaxed);
    }

    /// Index of the first live entry at or after the `first` hint,
    /// advancing the hint past any taken prefix found. `None` if the
    /// block is (currently) fully taken. Writes the hint only when it
    /// moved, so a refresh of an unchanged block is read-only.
    ///
    /// A plain scan, not [`SharedBlock::next_live`]: the hint already
    /// keeps the taken prefix from being re-read, and marking a prefix
    /// the hint is about to pass only adds bitmap writes (klsm256 on
    /// `sawtooth_p2` ran at 0.84× of the parent with the bitmap skip here
    /// and in `compute_pivot`, 0.92× without).
    pub fn refresh_first(&self) -> Option<usize> {
        let first = self.first.load(Ordering::Relaxed);
        let mut i = first;
        while i < self.entries.len() && self.entries[i].is_taken() {
            i += 1;
        }
        if i > first {
            self.first.fetch_max(i, Ordering::Relaxed);
        }
        (i < self.entries.len()).then_some(i)
    }

    /// First index in `[from, end)` whose taken flag reads untaken, or
    /// `None`. Entries already marked in `seen_taken` are skipped a run
    /// at a time without touching their flags; entries newly seen taken
    /// are OR-ed into the bitmap with one `fetch_or` per word. Adds the
    /// number of flags actually read to `reads`.
    pub(crate) fn next_live(&self, from: usize, end: usize, reads: &mut usize) -> Option<usize> {
        let end = end.min(self.entries.len());
        let mut i = from;
        while i < end {
            let w = i / 64;
            let word_end = ((w + 1) * 64).min(end);
            // Acquire pairs with the Release `fetch_or` below: skipping a
            // set bit is as good as the Acquire flag read that set it.
            // Most probes land on a live entry, so the start entry's flag
            // is read before its word: such probes never touch the
            // bitmap's cache line, which the other threads write.
            let mut seen = 0;
            if i != from {
                seen = self.seen_taken[w].load(Ordering::Acquire);
            }
            let mut newly = 0u64;
            let mut live = None;
            while i < word_end {
                // Length of the run of known-taken entries starting at `i`.
                let run = ((!seen) >> (i % 64)).trailing_zeros() as usize;
                if run > 0 {
                    i = (i + run).min(word_end);
                    continue;
                }
                *reads += 1;
                if !self.entries[i].is_taken() {
                    live = Some(i);
                    break;
                }
                if i == from {
                    seen = self.seen_taken[w].load(Ordering::Acquire);
                }
                newly |= 1 << (i % 64);
                i += 1;
            }
            if newly != 0 {
                self.seen_taken[w].fetch_or(newly, Ordering::Release);
            }
            if live.is_some() {
                return live;
            }
        }
        None
    }

    /// Smallest live item, if any (refreshes the `first` hint).
    pub fn peek(&self) -> Option<Item> {
        self.refresh_first().map(|i| self.entries[i].item)
    }

    /// Iterate over entries that are live right now, starting from the
    /// `first` hint. Concurrent takes may race; callers must still CAS.
    pub fn live_entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries[self.first.load(Ordering::Relaxed).min(self.entries.len())..]
            .iter()
            .filter(|e| !e.is_taken())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(keys: &[u64]) -> Vec<Item> {
        keys.iter().map(|&k| Item::new(k, 0)).collect()
    }

    #[test]
    fn take_succeeds_once() {
        let b = SharedBlock::from_batch(&items(&[1, 2, 3]));
        assert!(b.entry(1).try_take());
        assert!(!b.entry(1).try_take());
        assert!(b.entry(1).is_taken());
        assert!(!b.entry(0).is_taken());
    }

    #[test]
    fn merge_shares_flags() {
        let a = SharedBlock::from_batch(&items(&[1, 3]));
        let b = SharedBlock::from_batch(&items(&[2, 4]));
        let m = SharedBlock::merge(&a, &b);
        let got: Vec<u64> = m.live_entries().map(|e| e.item.key).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
        // Taking through the merged block marks the parent entry too.
        assert!(m.entry(0).try_take()); // key 1 lives in `a`
        assert!(a.entry(0).is_taken());
        assert!(!a.entry(0).try_take());
    }

    #[test]
    fn merge_filters_taken() {
        let a = SharedBlock::from_batch(&items(&[1, 3, 5]));
        assert!(a.entry(1).try_take()); // remove key 3
        let b = SharedBlock::from_batch(&items(&[2]));
        let m = SharedBlock::merge(&a, &b);
        let got: Vec<u64> = m.live_entries().map(|e| e.item.key).collect();
        assert_eq!(got, vec![1, 2, 5]);
        assert_eq!(m.total_len(), 3);
    }

    #[test]
    fn refresh_first_skips_taken_prefix() {
        let b = SharedBlock::from_batch(&items(&[1, 2, 3, 4]));
        assert!(b.entry(0).try_take());
        assert!(b.entry(1).try_take());
        assert_eq!(b.refresh_first(), Some(2));
        assert_eq!(b.first_hint(), 2);
        assert_eq!(b.peek(), Some(Item::new(3, 0)));
    }

    #[test]
    fn fully_taken_block() {
        let b = SharedBlock::from_batch(&items(&[7]));
        assert!(b.entry(0).try_take());
        assert_eq!(b.refresh_first(), None);
        assert_eq!(b.peek(), None);
        assert_eq!(b.live_entries().count(), 0);
    }

    #[test]
    fn capacity_is_power_of_two() {
        for n in [1usize, 2, 3, 5, 8, 9, 100] {
            let b = SharedBlock::from_batch(&items(&(0..n as u64).collect::<Vec<_>>()));
            assert!(b.capacity().is_power_of_two());
            assert!(b.capacity() >= n);
            assert!(b.capacity() < 2 * n.next_power_of_two());
        }
    }

    #[test]
    fn next_live_marks_seen_taken_and_skips_them() {
        let b = SharedBlock::from_batch(&items(&(0..200).collect::<Vec<_>>()));
        for i in 0..150 {
            assert!(b.entry(i).try_take());
        }
        let mut reads = 0;
        assert_eq!(b.next_live(0, 200, &mut reads), Some(150));
        assert_eq!(reads, 151);
        // Second pass: the start flag, then 149 taken entries skipped
        // through the bitmap, then the live one.
        reads = 0;
        assert_eq!(b.next_live(0, 200, &mut reads), Some(150));
        assert_eq!(reads, 2);
        assert_eq!(b.next_live(10, 10, &mut reads), None);
        assert_eq!(b.next_live(10, 150, &mut reads), None);
        assert_eq!(reads, 3, "a fully seen range reads only its start flag");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn prop_next_live_matches_linear_scan(
            taken in proptest::collection::vec(proptest::bool::ANY, 0..300),
            premark in proptest::collection::vec(proptest::bool::ANY, 300..301),
            bounds in proptest::collection::vec((0usize..320, 0usize..320), 1..8),
        ) {
            let n = taken.len();
            let b = SharedBlock::from_batch(&items(&(0..n as u64).collect::<Vec<_>>()));
            for (i, &t) in taken.iter().enumerate() {
                if t {
                    assert!(b.entry(i).try_take());
                    // Pre-mark a random subset of the taken entries.
                    if premark[i] {
                        b.seen_taken[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
                    }
                }
            }
            // Word-boundary pairs plus random (possibly empty or
            // inverted) ranges, each queried twice so the second query
            // runs against the bitmap the first one filled in.
            let edges = [(0, n), (63, 65), (64, 128), (0, 64), (127, n), (n, n)];
            for (from, end) in edges.into_iter().chain(bounds) {
                let want = (from..end.min(n)).find(|&i| !taken[i]);
                for _ in 0..2 {
                    proptest::prop_assert_eq!(b.next_live(from, end, &mut 0), want);
                }
            }
            for (i, w) in b.seen_taken.iter().enumerate() {
                let w = w.load(Ordering::Relaxed);
                for bit in 0..64 {
                    if w >> bit & 1 == 1 {
                        proptest::prop_assert!(taken[i * 64 + bit], "entry {} marked but live", i * 64 + bit);
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_takes_are_exclusive() {
        let b = SharedBlock::from_batch(&items(&(0..1000).collect::<Vec<_>>()));
        let taken = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        if b.entry(i).try_take() {
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), 1000);
    }
}
