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
//! Nodes are ordered by `(Item, seq)` where `seq` is a per-list insertion
//! counter. This makes every node's position unique even under duplicate
//! key-value insertions, which in turn guarantees that a search for a
//! claimed node's exact coordinate always encounters (and unlinks) the
//! node itself rather than stopping at an equal neighbour — the property
//! the safety of memory retirement rests on.
//!
//! Priority-queue deletions only ever claim nodes near the head, but the
//! claim/unlink machinery is general and is reused by the SprayList's
//! random-walk deletions further into the list.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
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

pub(crate) struct Node {
    item: Item,
    /// Unique, monotone insertion sequence number; tie-breaker that makes
    /// node coordinates totally ordered even for duplicate items.
    seq: u64,
    /// See [`LS_INSERTING`].
    link_state: AtomicU8,
    tower: Box<[Atomic<Node>]>,
}

impl Node {
    #[inline]
    fn height(&self) -> usize {
        self.tower.len()
    }

    /// Total order over node coordinates.
    #[inline]
    fn coord(&self) -> (Item, u64) {
        (self.item, self.seq)
    }
}

/// Lock-free skiplist priority-queue substrate.
pub struct SkipList {
    head: Box<[Atomic<Node>]>,
    seq: AtomicU64,
    len: AtomicUsize,
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
            head: (0..MAX_HEIGHT).map(|_| Atomic::null()).collect(),
            seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
        }
    }

    /// Approximate number of live items.
    pub fn len_hint(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` if the list appears empty (no live node at the bottom
    /// level).
    pub fn is_empty_hint(&self) -> bool {
        self.len_hint() == 0
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
    fn find<'g>(&'g self, target: (Item, u64), guard: &'g Guard) -> Position<'g> {
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
                    let next = cur_ref.tower[level].load(Ordering::Acquire, guard);
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
                        pred = &cur_ref.tower;
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
        let item = Item::new(key, value);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let height = Self::random_height(rng);
        let mut node = Owned::new(Node {
            item,
            seq,
            link_state: AtomicU8::new(LS_INSERTING),
            tower: (0..height).map(|_| Atomic::null()).collect(),
        });
        let target = (item, seq);
        // Publish at the bottom level.
        let node_shared = loop {
            let pos = self.find(target, guard);
            node.tower[0].store(pos.succs[0], Ordering::Relaxed);
            match pos.preds[0][0].compare_exchange(
                pos.succs[0],
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(shared) => break shared,
                Err(e) => {
                    telemetry::record(telemetry::Event::SkiplistCasRetry);
                    node = e.new;
                }
            }
        };
        self.len.fetch_add(1, Ordering::Relaxed);
        self.link_upper(node_shared, target, height, guard);
    }

    /// Link a freshly published node's upper levels, then resolve
    /// retirement duty with any concurrent claimant (see
    /// [`LS_INSERTING`]). The tail of [`SkipList::insert`].
    fn link_upper<'g>(
        &'g self,
        node_shared: Shared<'g, Node>,
        target: (Item, u64),
        height: usize,
        guard: &'g Guard,
    ) {
        // Link the upper levels. Abort if the node gets claimed meanwhile.
        // SAFETY: `node_shared` is protected by the guard.
        let node_ref = unsafe { node_shared.deref() };
        'link: for level in 1..height {
            loop {
                if node_ref.tower[0].load(Ordering::Acquire, guard).tag() == MARK {
                    break 'link;
                }
                let pos = self.find(target, guard);
                let succ = pos.succs[level];
                // Point our tower at the successor (tagged = claimed ⇒
                // stop linking).
                let cur = node_ref.tower[level].load(Ordering::Acquire, guard);
                if cur.tag() == MARK {
                    break 'link;
                }
                if cur != succ
                    && node_ref.tower[level]
                        .compare_exchange(
                            cur,
                            succ,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        )
                        .is_err()
                {
                    // Tag appeared or concurrent fixup; re-evaluate.
                    continue;
                }
                if pos.preds[level][level]
                    .compare_exchange(
                        succ,
                        node_shared,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    continue 'link;
                }
                // Predecessor changed; retry this level.
            }
        }
        // Linking finished (or aborted on a claim). Resolve retirement
        // duty with the claimant: if a claimant already marked the node
        // while we were linking, the unlink-and-retire falls to us —
        // only after our final cleanup search is the node guaranteed to
        // never be re-linked.
        if node_ref
            .link_state
            .compare_exchange(
                LS_INSERTING,
                LS_LINKED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            let _ = self.find(node_ref.coord(), guard);
            // SAFETY: we are the only linker; after our clean find pass
            // the node is unreachable, and the claimant ceded retirement
            // to us, so this is the unique retire.
            unsafe { guard.defer_destroy(node_shared) };
        }
    }

    /// Mark the upper levels of a claimed node, help unlink it
    /// everywhere, and retire its memory. Must be called exactly once per
    /// node, by the claimant (the thread whose CAS tagged `next[0]`).
    fn finish_claim<'g>(&'g self, node: Shared<'g, Node>, guard: &'g Guard) {
        // SAFETY: claimant holds the guard; node not yet retired.
        let node_ref = unsafe { node.deref() };
        for level in (1..node_ref.height()).rev() {
            loop {
                let next = node_ref.tower[level].load(Ordering::Acquire, guard);
                if next.tag() == MARK {
                    break;
                }
                if node_ref.tower[level]
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
        self.len.fetch_sub(1, Ordering::Relaxed);
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
        unsafe { guard.defer_destroy(node) };
    }

    /// Strict `delete_min`: claim the first live node on the bottom
    /// level.
    pub fn delete_min(&self) -> Option<Item> {
        let guard = &epoch::pin();
        let mut cur = self.head[0].load(Ordering::Acquire, guard);
        loop {
            // SAFETY: protected by `guard`.
            let cur_ref = unsafe { cur.as_ref() }?;
            let next = cur_ref.tower[0].load(Ordering::Acquire, guard);
            if next.tag() == MARK {
                // Already claimed: move over it.
                cur = next.with_tag(0);
                continue;
            }
            match cur_ref.tower[0].compare_exchange(
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
        let log_p = (usize::BITS - p.leading_zeros()) as usize; // ⌈log2 p⌉+ε
        let spray_height = (log_p + 1).min(MAX_HEIGHT);
        let max_jump = log_p.max(1) + 1;
        for _attempt in 0..2 {
            let guard = &epoch::pin();
            if let Some(item) = self.try_spray(rng, spray_height, max_jump, guard) {
                return Some(item);
            }
            // Emptiness must be decided on the bottom level, not on
            // `len_hint`: an inserter publishes its bottom-level CAS
            // before incrementing the counter, so a relaxed count of 0
            // can coexist with a live, linked node — and returning
            // `None` then would terminate a harness phase early.
            if self.bottom_is_empty(guard) {
                return None;
            }
        }
        // Fallback keeps the operation lock-free overall.
        self.delete_min()
    }

    /// `true` iff the bottom level holds no live (unmarked) node — the
    /// authoritative emptiness signal, in contrast to the relaxed
    /// [`SkipList::len_hint`] counter which lags behind published
    /// inserts.
    fn bottom_is_empty(&self, guard: &epoch::Guard) -> bool {
        let mut cur = self.head[0].load(Ordering::Acquire, guard);
        loop {
            // SAFETY: protected by `guard`.
            let Some(cur_ref) = (unsafe { cur.as_ref() }) else {
                return true;
            };
            let next = cur_ref.tower[0].load(Ordering::Acquire, guard);
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
                let next = cur_ref.tower[level].load(Ordering::Acquire, guard);
                if next.tag() == MARK {
                    // Don't count logically deleted nodes as progress.
                    cur = next.with_tag(0);
                    continue;
                }
                pred = &cur_ref.tower;
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
            let next = cur_ref.tower[0].load(Ordering::Acquire, guard);
            if next.tag() == MARK {
                cur = next.with_tag(0);
                continue;
            }
            match cur_ref.tower[0].compare_exchange(
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
            let next = cur_ref.tower[0].load(Ordering::Acquire, guard);
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
            let next = cur_ref.tower[0].load(Ordering::Acquire, guard);
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
                let next = cur_ref.tower[0].load(Ordering::Relaxed, guard);
                drop(cur.into_owned());
                cur = next.with_tag(0);
            }
        }
    }
}

impl std::fmt::Debug for SkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipList")
            .field("len_hint", &self.len_hint())
            .finish()
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
        assert!(l.is_empty_hint());
    }

    #[test]
    fn spray_delete_ignores_stale_len_counter() {
        // Regression: `insert` publishes its bottom-level CAS before
        // incrementing `len`, so a concurrent spray can observe
        // `len_hint() == 0` with a live node already linked. Reproduce
        // that window deterministically by rolling the counter back and
        // assert spray_delete still finds the item instead of reporting
        // a false empty.
        let l = SkipList::new();
        let mut r = rng();
        l.insert(17, 170, &mut r);
        l.len.store(0, Ordering::Relaxed);
        assert_eq!(l.len_hint(), 0, "test precondition: counter lags");
        assert_eq!(
            l.spray_delete(&mut r, 4),
            Some(Item::new(17, 170)),
            "spray_delete must probe the bottom level, not the counter"
        );
        // Restore the counter invariant (the successful delete above
        // decremented it past zero in wrapping arithmetic).
        l.len.store(0, Ordering::Relaxed);
        assert_eq!(l.spray_delete(&mut r, 4), None, "now truly empty");
    }

    #[test]
    fn sorted_delete_min() {
        let l = SkipList::new();
        let mut r = rng();
        for k in [9u64, 4, 7, 1, 8, 2, 6, 3, 5, 0] {
            l.insert(k, k, &mut r);
        }
        let out: Vec<Key> = std::iter::from_fn(|| l.delete_min()).map(|i| i.key).collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(l.len_hint(), 0);
    }

    #[test]
    fn duplicate_items_all_stored() {
        let l = SkipList::new();
        let mut r = rng();
        for _ in 0..50 {
            l.insert(7, 7, &mut r);
        }
        assert_eq!(l.len_hint(), 50);
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
        use std::sync::atomic::AtomicUsize;
        let l = std::sync::Arc::new(SkipList::new());
        let deleted = AtomicUsize::new(0);
        let inserted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                let deleted = &deleted;
                let inserted = &inserted;
                s.spawn(move || {
                    let mut r = SmallRng::seed_from_u64(t);
                    let mut dels = 0usize;
                    let mut ins = 0usize;
                    for i in 0..5000u64 {
                        if (i + t) % 2 == 0 {
                            l.insert(r.gen_range(0..100_000), t * 5000 + i, &mut r);
                            ins += 1;
                        } else if l.delete_min().is_some() {
                            dels += 1;
                        }
                    }
                    deleted.fetch_add(dels, Ordering::Relaxed);
                    inserted.fetch_add(ins, Ordering::Relaxed);
                });
            }
        });
        let mut rest = 0usize;
        while l.delete_min().is_some() {
            rest += 1;
        }
        assert_eq!(
            deleted.load(Ordering::Relaxed) + rest,
            inserted.load(Ordering::Relaxed)
        );
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
            proptest::prop_assert_eq!(l.len_hint(), model.len());
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
