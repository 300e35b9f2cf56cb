//! Fraser/Harris-style lock-free skiplist with epoch reclamation.
//!
//! # Algorithm
//!
//! Every node carries a tower of `Atomic<Node>` next pointers. A node is
//! *logically deleted* when the tag bit of its next pointer is set at a
//! level; the bottom level (level 0) is authoritative: the thread whose
//! CAS tags `next[0]` *claims* the node and is the only one that will
//! return its item and later retire its memory. Searches (`SkipList::find`)
//! help by physically unlinking every marked node they encounter, per
//! Harris' original scheme; a claimed node is retired only after the
//! claimant completes a clean search pass, which guarantees the node is
//! no longer reachable from the head at any level.
//!
//! Nodes are ordered by `(Item, node address)`. A node's memory is reused
//! only after it is retired and every thread that could reach it has
//! unpinned, so no two nodes a pinned thread can reach share an address:
//! every node's position is unique even under duplicate key-value
//! insertions. That uniqueness guarantees a search for a claimed node's
//! exact coordinate always encounters (and unlinks) the node itself
//! rather than stopping at an equal neighbour — the property the safety
//! of memory retirement rests on. No list-wide counter is needed.
//!
//! An insert publishes its node at the bottom level, then links the upper
//! levels from the predecessors of that same search; it searches again
//! only after a failed CAS (Fraser; Herlihy–Shavit).
//!
//! # Node layout
//!
//! A node is one heap block: the [`Node`] header followed by its `height`
//! next pointers, so a search hop is one dependent load. [`Node::alloc`]
//! and [`Node::dealloc`] compute the block's `Layout` from the height.
//! Retired nodes are therefore freed through `Guard::defer_unchecked`
//! with `Node::dealloc`: `defer_destroy` would free them with
//! `Box<Node>`'s layout.
//!
//! Priority-queue deletions only ever claim nodes near the head, but the
//! claim/unlink machinery is general and is reused by the SprayList's
//! random-walk deletions further into the list.

use std::alloc::{self, Layout};
use std::ptr;
use std::slice;
use std::sync::atomic::{AtomicU8, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Guard, Shared};
use rand::rngs::SmallRng;
use rand::Rng;

use pq_traits::telemetry;
use pq_traits::{Item, Key, Value};

/// Maximum tower height. 2^20 expected items per level-20 node; ample for
/// the paper's 10^6-element prefills.
pub const MAX_HEIGHT: usize = 20;

/// Tag bit marking a pointer's owning node as logically deleted at that
/// level.
const MARK: usize = 1;

/// Link-state handshake between an inserter and a claimant (deleter).
///
/// A claimant may catch a node whose inserter is still linking upper
/// levels. If the claimant retired the node after its own cleanup
/// search, the inserter could *re-link* the retired node at an upper
/// level, making freed memory reachable. Instead, retirement duty is
/// resolved by a CAS on this state: the loser of the race inherits the
/// duty — if the claimant's `INSERTING → CLAIMED_EARLY` CAS succeeds,
/// the inserter (the only thread that can create new links to the node)
/// unlinks and retires it when it finishes; otherwise the node was fully
/// linked and the claimant retires it as usual.
const LS_INSERTING: u8 = 0;
const LS_LINKED: u8 = 1;
const LS_CLAIMED_EARLY: u8 = 2;

/// A skiplist node: this header, then `height` next pointers in the same
/// heap block (see [`Node::alloc`]).
#[repr(C)]
pub(crate) struct Node {
    item: Item,
    /// See [`LS_INSERTING`].
    link_state: AtomicU8,
    /// Number of next pointers in the tower, in `1..=MAX_HEIGHT`.
    height: u8,
    /// Start of the tower; [`Node::tower`] reaches all `height` pointers.
    tower: [Atomic<Node>; 0],
}

// The tower starts where the header ends, at the offset `Layout::extend`
// gives it.
const _: () = assert!(std::mem::offset_of!(Node, tower) == std::mem::size_of::<Node>());

impl Node {
    /// Layout of a node block with `height` next pointers.
    fn layout(height: usize) -> Layout {
        let tower = Layout::array::<Atomic<Node>>(height).expect("tower layout");
        let (layout, _) = Layout::new::<Node>().extend(tower).expect("node layout");
        layout.pad_to_align()
    }

    /// Allocate an unlinked node holding `item` with `height` null next
    /// pointers.
    fn alloc(item: Item, height: usize) -> *const Node {
        // `height` sizes the block and is stored as a `u8`.
        assert!((1..=MAX_HEIGHT).contains(&height), "tower height {height}");
        let layout = Self::layout(height);
        // SAFETY: the layout has non-zero size; the header and every tower
        // slot are initialised before the pointer is returned.
        unsafe {
            let node = alloc::alloc(layout).cast::<Node>();
            if node.is_null() {
                alloc::handle_alloc_error(layout);
            }
            node.write(Node {
                item,
                link_state: AtomicU8::new(LS_INSERTING),
                height: height as u8,
                tower: [],
            });
            let tower = ptr::addr_of_mut!((*node).tower).cast::<Atomic<Node>>();
            for level in 0..height {
                tower.add(level).write(Atomic::null());
            }
            node
        }
    }

    /// Free a node block.
    ///
    /// # Safety
    /// `node` came from [`Node::alloc`], no thread can reach it any more,
    /// and it is freed exactly once.
    unsafe fn dealloc(node: *const Node) {
        let layout = Self::layout(usize::from((*node).height));
        alloc::dealloc(node.cast_mut().cast::<u8>(), layout);
    }

    /// The node's next pointers, bottom level first.
    #[inline]
    fn tower(&self) -> &[Atomic<Node>] {
        // SAFETY: `Node::alloc` initialised `height` pointers directly
        // after the header, in the same block.
        unsafe { slice::from_raw_parts(self.tower.as_ptr(), usize::from(self.height)) }
    }

    /// Total order over node coordinates.
    #[inline]
    fn coord(&self) -> (Item, usize) {
        (self.item, self as *const Node as usize)
    }
}

/// Lock-free skiplist priority-queue substrate.
pub struct SkipList {
    head: [Atomic<Node>; MAX_HEIGHT],
}

// SAFETY: all shared state is managed through `Atomic` pointers with
// epoch-protected access.
unsafe impl Send for SkipList {}
unsafe impl Sync for SkipList {}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

/// Search result: for each level, the predecessor of the target
/// coordinate and its successor, with all marked nodes on the path
/// unlinked.
struct Position<'g> {
    preds: [&'g [Atomic<Node>]; MAX_HEIGHT],
    succs: [Shared<'g, Node>; MAX_HEIGHT],
}

impl SkipList {
    /// Create an empty list.
    pub fn new() -> Self {
        Self {
            head: std::array::from_fn(|_| Atomic::null()),
        }
    }

    /// Geometric tower height in `[1, MAX_HEIGHT]` (p = 1/2).
    fn random_height(rng: &mut SmallRng) -> usize {
        let bits: u32 = rng.gen();
        ((bits.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Harris search for `target`, unlinking marked nodes encountered on
    /// the way. On return, `preds[l]`/`succs[l]` bracket the target
    /// coordinate at level `l` and no marked node with coordinate <
    /// `target` remains linked on the search path.
    fn find<'g>(&'g self, target: (Item, usize), guard: &'g Guard) -> Position<'g> {
        'retry: loop {
            let mut preds: [&'g [Atomic<Node>]; MAX_HEIGHT] = [&self.head; MAX_HEIGHT];
            let mut succs: [Shared<'g, Node>; MAX_HEIGHT] = [Shared::null(); MAX_HEIGHT];
            let mut pred: &'g [Atomic<Node>] = &self.head;
            for level in (0..MAX_HEIGHT).rev() {
                // A tag on pred's pointer marks *pred* as deleted, not its
                // successor — strip it so it cannot leak into succs (a
                // leaked tag would make a freshly inserted node's bottom
                // pointer appear claimed, losing the item).
                let mut cur = pred[level].load(Ordering::Acquire, guard).with_tag(0);
                // SAFETY: nodes are retired only after being
                // unreachable; the guard keeps reachable-at-load
                // memory alive.
                while let Some(cur_ref) = unsafe { cur.as_ref() } {
                    let next = cur_ref.tower()[level].load(Ordering::Acquire, guard);
                    if next.tag() == MARK {
                        // `cur` is logically deleted: help unlink it.
                        match pred[level].compare_exchange(
                            cur.with_tag(0),
                            next.with_tag(0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        ) {
                            Ok(_) => {
                                cur = next.with_tag(0);
                                continue;
                            }
                            Err(_) => {
                                telemetry::record(telemetry::Event::SkiplistFindRestart);
                                continue 'retry;
                            }
                        }
                    }
                    if cur_ref.coord() < target {
                        pred = cur_ref.tower();
                        cur = next.with_tag(0);
                    } else {
                        break;
                    }
                }
                preds[level] = pred;
                succs[level] = cur;
            }
            return Position { preds, succs };
        }
    }

    /// Insert a key-value pair.
    pub fn insert(&self, key: Key, value: Value, rng: &mut SmallRng) {
        let guard = &epoch::pin();
        let height = Self::random_height(rng);
        let node = Shared::from(Node::alloc(Item::new(key, value), height));
        // SAFETY: freshly allocated; once published it is protected by
        // the guard.
        let node_ref = unsafe { node.deref() };
        let target = node_ref.coord();
        // Publish at the bottom level.
        let pos = loop {
            let pos = self.find(target, guard);
            node_ref.tower()[0].store(pos.succs[0], Ordering::Relaxed);
            if pos.preds[0][0]
                .compare_exchange(
                    pos.succs[0],
                    node,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                )
                .is_ok()
            {
                break pos;
            }
            telemetry::record(telemetry::Event::SkiplistCasRetry);
        };
        self.link_upper(node, pos, guard);
    }

    /// Link a freshly published node's upper levels, starting from `pos`,
    /// the search that published it, then resolve retirement duty with
    /// any concurrent claimant (see [`LS_INSERTING`]). The tail of
    /// [`SkipList::insert`].
    fn link_upper<'g>(&'g self, node: Shared<'g, Node>, mut pos: Position<'g>, guard: &'g Guard) {
        // Link the upper levels. Abort if the node gets claimed meanwhile.
        // SAFETY: `node` is protected by the guard.
        let node_ref = unsafe { node.deref() };
        let tower = node_ref.tower();
        'link: for level in 1..tower.len() {
            loop {
                if tower[0].load(Ordering::Acquire, guard).tag() == MARK {
                    break 'link;
                }
                let succ = pos.succs[level];
                // Point our tower at the successor (tagged = claimed ⇒
                // stop linking).
                let cur = tower[level].load(Ordering::Acquire, guard);
                if cur.tag() == MARK {
                    break 'link;
                }
                if cur != succ
                    && tower[level]
                        .compare_exchange(cur, succ, Ordering::AcqRel, Ordering::Acquire, guard)
                        .is_err()
                {
                    // Tag appeared or concurrent fixup; re-evaluate.
                    continue;
                }
                if pos.preds[level][level]
                    .compare_exchange(succ, node, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_ok()
                {
                    continue 'link;
                }
                // Predecessor changed: search again, then retry this level.
                pos = self.find(node_ref.coord(), guard);
            }
        }
        // Linking finished (or aborted on a claim). Resolve retirement
        // duty with the claimant: if a claimant already marked the node
        // while we were linking, the unlink-and-retire falls to us —
        // only after our final cleanup search is the node guaranteed to
        // never be re-linked.
        if node_ref
            .link_state
            .compare_exchange(LS_INSERTING, LS_LINKED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            let _ = self.find(node_ref.coord(), guard);
            // SAFETY: we are the only linker; after our clean find pass
            // the node is unreachable, and the claimant ceded retirement
            // to us, so this is the unique retire.
            unsafe { Self::retire(node_ref, guard) };
        }
    }

    /// Free `node` once no pinned thread can reach it.
    ///
    /// # Safety
    /// `node` is unlinked at every level and retired exactly once.
    unsafe fn retire(node: &Node, guard: &Guard) {
        let node: *const Node = node;
        guard.defer_unchecked(move || Node::dealloc(node));
    }

    /// Mark the upper levels of a claimed node, help unlink it
    /// everywhere, and retire its memory. Must be called exactly once per
    /// node, by the claimant (the thread whose CAS tagged `next[0]`).
    fn finish_claim<'g>(&'g self, node: Shared<'g, Node>, guard: &'g Guard) {
        // SAFETY: claimant holds the guard; node not yet retired.
        let node_ref = unsafe { node.deref() };
        let tower = node_ref.tower();
        for level in (1..tower.len()).rev() {
            loop {
                let next = tower[level].load(Ordering::Acquire, guard);
                if next.tag() == MARK {
                    break;
                }
                if tower[level]
                    .compare_exchange(
                        next,
                        next.with_tag(MARK),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
        if node_ref
            .link_state
            .compare_exchange(
                LS_INSERTING,
                LS_CLAIMED_EARLY,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            // The inserter is still linking upper levels; it inherits the
            // unlink-and-retire duty (see LS_INSERTING docs). Help unlink
            // what is linked so far, but do NOT retire.
            let _ = self.find(node_ref.coord(), guard);
            return;
        }
        // Fully linked: a completed find pass unlinks the node at every
        // level it is still reachable on, so afterwards retirement is
        // safe.
        let _ = self.find(node_ref.coord(), guard);
        // SAFETY: unreachable after the clean find pass; claimed exactly
        // once and the inserter has finished, so retired exactly once.
        unsafe { Self::retire(node_ref, guard) };
    }

    /// Strict `delete_min`: claim the first live node on the bottom
    /// level.
    pub fn delete_min(&self) -> Option<Item> {
        let guard = &epoch::pin();
        let mut cur = self.head[0].load(Ordering::Acquire, guard);
        loop {
            // SAFETY: protected by `guard`.
            let cur_ref = unsafe { cur.as_ref() }?;
            let next = cur_ref.tower()[0].load(Ordering::Acquire, guard);
            if next.tag() == MARK {
                // Already claimed: move over it.
                cur = next.with_tag(0);
                continue;
            }
            match cur_ref.tower()[0].compare_exchange(
                next,
                next.with_tag(MARK),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => {
                    let item = cur_ref.item;
                    self.finish_claim(cur, guard);
                    return Some(item);
                }
                // Pointer changed (claimed by someone else or an insert
                // landed right after `cur`): re-read the same node.
                Err(_) => {
                    telemetry::record(telemetry::Event::SkiplistCasRetry);
                    continue;
                }
            }
        }
    }

    /// Relaxed spray deletion (Alistarh et al.): random-walk from the
    /// head and claim the node the walk lands on. `threads` parametrizes
    /// spray height and jump lengths. Falls back to a strict scan after
    /// repeated failed sprays so progress is guaranteed.
    pub fn spray_delete(&self, rng: &mut SmallRng, threads: usize) -> Option<Item> {
        let p = threads.max(2);
        let log_p = (usize::BITS - p.leading_zeros()) as usize; // bit length, ⌊log₂ p⌋ + 1
        let spray_height = (log_p + 1).min(MAX_HEIGHT);
        let max_jump = log_p.max(1) + 1;
        for _attempt in 0..2 {
            let guard = &epoch::pin();
            if let Some(item) = self.try_spray(rng, spray_height, max_jump, guard) {
                return Some(item);
            }
            // A failed spray says nothing about emptiness; only a live
            // node on the bottom level does. Returning `None` for a
            // non-empty list would end a harness phase early.
            if self.bottom_is_empty(guard) {
                return None;
            }
        }
        // Fallback keeps the operation lock-free overall.
        self.delete_min()
    }

    /// `true` iff the bottom level holds no live (unmarked) node — the
    /// authoritative emptiness signal.
    fn bottom_is_empty(&self, guard: &epoch::Guard) -> bool {
        let mut cur = self.head[0].load(Ordering::Acquire, guard);
        loop {
            // SAFETY: protected by `guard`.
            let Some(cur_ref) = (unsafe { cur.as_ref() }) else {
                return true;
            };
            let next = cur_ref.tower()[0].load(Ordering::Acquire, guard);
            if next.tag() == MARK {
                cur = next.with_tag(0);
                continue;
            }
            return false;
        }
    }

    fn try_spray<'g>(
        &'g self,
        rng: &mut SmallRng,
        spray_height: usize,
        max_jump: usize,
        guard: &'g Guard,
    ) -> Option<Item> {
        let mut pred: &'g [Atomic<Node>] = &self.head;
        let mut landed: Shared<'g, Node> = Shared::null();
        for level in (0..spray_height).rev() {
            let jumps = rng.gen_range(0..=max_jump);
            // Strip pred's own deletion tag; see `find`.
            let mut cur = pred[level].load(Ordering::Acquire, guard).with_tag(0);
            for _ in 0..jumps {
                // SAFETY: protected by `guard`.
                let Some(cur_ref) = (unsafe { cur.as_ref() }) else {
                    break;
                };
                let next = cur_ref.tower()[level].load(Ordering::Acquire, guard);
                if next.tag() == MARK {
                    // Don't count logically deleted nodes as progress.
                    cur = next.with_tag(0);
                    continue;
                }
                pred = cur_ref.tower();
                landed = cur;
                cur = next;
            }
        }
        // Walk to a live node from where we landed (bottom level).
        let mut cur = if landed.is_null() {
            self.head[0].load(Ordering::Acquire, guard)
        } else {
            landed
        };
        for _ in 0..64 {
            // SAFETY: protected by `guard`.
            let cur_ref = unsafe { cur.as_ref() }?;
            let next = cur_ref.tower()[0].load(Ordering::Acquire, guard);
            if next.tag() == MARK {
                cur = next.with_tag(0);
                continue;
            }
            match cur_ref.tower()[0].compare_exchange(
                next,
                next.with_tag(MARK),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => {
                    let item = cur_ref.item;
                    self.finish_claim(cur, guard);
                    return Some(item);
                }
                Err(_) => {
                    telemetry::record(telemetry::Event::SkiplistCasRetry);
                    continue;
                }
            }
        }
        None
    }

    /// Smallest live item without removing it.
    pub fn peek_min(&self) -> Option<Item> {
        let guard = &epoch::pin();
        let mut cur = self.head[0].load(Ordering::Acquire, guard);
        loop {
            // SAFETY: protected by `guard`.
            let cur_ref = unsafe { cur.as_ref() }?;
            let next = cur_ref.tower()[0].load(Ordering::Acquire, guard);
            if next.tag() == MARK {
                cur = next.with_tag(0);
                continue;
            }
            return Some(cur_ref.item);
        }
    }

    /// Snapshot of live items in ascending order. Quiescent use only
    /// (tests, diagnostics); concurrent mutations give a fuzzy view.
    pub fn collect_quiescent(&self) -> Vec<Item> {
        let guard = &epoch::pin();
        let mut out = Vec::new();
        let mut cur = self.head[0].load(Ordering::Acquire, guard);
        // SAFETY: protected by `guard`.
        while let Some(cur_ref) = unsafe { cur.as_ref() } {
            let next = cur_ref.tower()[0].load(Ordering::Acquire, guard);
            if next.tag() != MARK {
                out.push(cur_ref.item);
            }
            cur = next.with_tag(0);
        }
        out
    }
}

impl Drop for SkipList {
    fn drop(&mut self) {
        // SAFETY: &mut self guarantees quiescence; walk the bottom level
        // and free every node (claimed-but-unlinked nodes were already
        // retired by their claimants and are NOT on the bottom chain —
        // they were unlinked — so no double free).
        unsafe {
            let guard = epoch::unprotected();
            let mut cur = self.head[0].load(Ordering::Relaxed, guard);
            while let Some(cur_ref) = cur.as_ref() {
                let next = cur_ref.tower()[0].load(Ordering::Relaxed, guard);
                Node::dealloc(cur_ref);
                cur = next.with_tag(0);
            }
        }
    }
}

impl std::fmt::Debug for SkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipList").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xbeef)
    }

    #[test]
    fn empty_list() {
        let l = SkipList::new();
        assert_eq!(l.delete_min(), None);
        assert_eq!(l.peek_min(), None);
        assert!(l.collect_quiescent().is_empty());
    }

    #[test]
    fn sorted_delete_min() {
        let l = SkipList::new();
        let mut r = rng();
        for k in [9u64, 4, 7, 1, 8, 2, 6, 3, 5, 0] {
            l.insert(k, k, &mut r);
        }
        let out: Vec<Key> = std::iter::from_fn(|| l.delete_min())
            .map(|i| i.key)
            .collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(l.delete_min(), None);
    }

    #[test]
    fn duplicate_items_all_stored() {
        let l = SkipList::new();
        let mut r = rng();
        for _ in 0..50 {
            l.insert(7, 7, &mut r);
        }
        assert_eq!(l.collect_quiescent().len(), 50);
        let mut n = 0;
        while l.delete_min().is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn peek_matches_delete() {
        let l = SkipList::new();
        let mut r = rng();
        for k in [5u64, 3, 9] {
            l.insert(k, 0, &mut r);
        }
        assert_eq!(l.peek_min().map(|i| i.key), Some(3));
        assert_eq!(l.delete_min().map(|i| i.key), Some(3));
        assert_eq!(l.peek_min().map(|i| i.key), Some(5));
    }

    #[test]
    fn spray_returns_small_items() {
        let l = SkipList::new();
        let mut r = rng();
        for k in 0..1000u64 {
            l.insert(k, k, &mut r);
        }
        // Spray must return items near the head (small rank).
        for _ in 0..100 {
            let it = l.spray_delete(&mut r, 8).expect("non-empty");
            assert!(it.key < 600, "spray returned far-rank item {it:?}");
        }
    }

    #[test]
    fn spray_drains_whole_list() {
        let l = SkipList::new();
        let mut r = rng();
        for k in 0..300u64 {
            l.insert(k, k, &mut r);
        }
        let mut got: Vec<Key> = std::iter::from_fn(|| l.spray_delete(&mut r, 4))
            .map(|i| i.key)
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn collect_quiescent_sorted() {
        let l = SkipList::new();
        let mut r = rng();
        for k in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            l.insert(k, 0, &mut r);
        }
        let snap = l.collect_quiescent();
        assert_eq!(snap.len(), 8);
        assert!(snap.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn concurrent_insert_delete_conservation() {
        // Distinct items, then many duplicates: with keys in 0..4 and a
        // constant value every thread inserts the same few items, so
        // only the address tie-break tells their nodes apart.
        conservation(|r, n| (r.gen_range(0..100_000), n));
        conservation(|r, _| (r.gen_range(0..4), 0));
    }

    /// 4 threads alternate inserts of `item(rng, op number)` with
    /// `delete_min`; every inserted item must come out exactly once.
    fn conservation(item: impl Fn(&mut SmallRng, u64) -> (Key, Value) + Sync) {
        let l = SkipList::new();
        let (inserted, deleted) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (l, item) = (&l, &item);
                    s.spawn(move || {
                        let mut r = SmallRng::seed_from_u64(t);
                        let (mut ins, mut dels) = (0usize, 0usize);
                        for i in 0..5000u64 {
                            if (i + t) % 2 == 0 {
                                let (k, v) = item(&mut r, t * 5000 + i);
                                l.insert(k, v, &mut r);
                                ins += 1;
                            } else if l.delete_min().is_some() {
                                dels += 1;
                            }
                        }
                        (ins, dels)
                    })
                })
                .collect();
            workers.into_iter().fold((0, 0), |(ins, dels), w| {
                let (i, d) = w.join().unwrap();
                (ins + i, dels + d)
            })
        });
        let mut rest = 0usize;
        while l.delete_min().is_some() {
            rest += 1;
        }
        assert_eq!(deleted + rest, inserted);
    }

    #[test]
    fn concurrent_no_duplicate_values() {
        let l = std::sync::Arc::new(SkipList::new());
        let got = std::sync::Mutex::new(Vec::<Value>::new());
        // Pre-populate with unique values.
        {
            let mut r = rng();
            for v in 0..8000u64 {
                l.insert(v % 97, v, &mut r);
            }
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                let got = &got;
                s.spawn(move || {
                    let mut r = SmallRng::seed_from_u64(100 + t);
                    let mut mine = Vec::new();
                    loop {
                        let item = if t % 2 == 0 {
                            l.delete_min()
                        } else {
                            l.spray_delete(&mut r, 4)
                        };
                        match item {
                            Some(it) => mine.push(it.value),
                            None => break,
                        }
                    }
                    got.lock().unwrap().extend(mine);
                });
            }
        });
        let mut vals = got.into_inner().unwrap();
        let n = vals.len();
        assert_eq!(n, 8000, "items lost");
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), n, "duplicate deletion detected");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_sequential_matches_heap_model(
            ops in proptest::collection::vec((proptest::bool::ANY, 0u64..512), 0..400)
        ) {
            let l = SkipList::new();
            let mut r = rng();
            let mut model = std::collections::BinaryHeap::new();
            for (i, &(is_insert, k)) in ops.iter().enumerate() {
                if is_insert {
                    l.insert(k, i as u64, &mut r);
                    model.push(std::cmp::Reverse((k, i as u64)));
                } else {
                    let got = l.delete_min();
                    let expect = model.pop().map(|std::cmp::Reverse((k, v))| Item::new(k, v));
                    proptest::prop_assert_eq!(got, expect);
                }
            }
            proptest::prop_assert_eq!(l.collect_quiescent().len(), model.len());
        }

        #[test]
        fn prop_spray_drains_multiset(
            keys in proptest::collection::vec(0u64..256, 0..300),
            threads in 1usize..16,
        ) {
            let l = SkipList::new();
            let mut r = rng();
            for (i, &k) in keys.iter().enumerate() {
                l.insert(k, i as u64, &mut r);
            }
            let mut got: Vec<Key> = std::iter::from_fn(|| l.spray_delete(&mut r, threads))
                .map(|i| i.key)
                .collect();
            got.sort_unstable();
            let mut expect = keys.clone();
            expect.sort_unstable();
            proptest::prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn stress_mixed_spray_and_inserts() {
        let l = std::sync::Arc::new(SkipList::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                s.spawn(move || {
                    let mut r = SmallRng::seed_from_u64(t * 31);
                    for i in 0..3000u64 {
                        if i % 3 != 0 {
                            l.insert(r.gen_range(0..10_000), i, &mut r);
                        } else {
                            let _ = l.spray_delete(&mut r, 4);
                        }
                    }
                });
            }
        });
        // Sanity: list drains fully, sorted.
        let snap = l.collect_quiescent();
        assert!(snap.windows(2).all(|w| w[0] <= w[1]));
    }
}
