//! Proof that a skiplist node is one heap block, freed with the layout it
//! was allocated with.
//!
//! A counting global allocator records the `Layout` of every live block
//! in a fixed-size lock-free table. The test fails if any `dealloc`
//! passes a size or alignment that differs from the matching `alloc`, if
//! an `insert` makes other than exactly one allocation, or if dropping a
//! list leaves any of its bytes live.
//!
//! This file intentionally contains a single `#[test]`: the counters are
//! process-global, and a sibling test running on another thread would
//! pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use skiplist_pq::SkipList;

/// Slots in the live-block table (a power of two).
const SLOTS: usize = 1 << 17;
/// A slot that was never used; ends every probe sequence.
const EMPTY: usize = 0;
/// A slot whose block was freed; probes continue past it.
const FREED: usize = 1;

/// Address of the block in each slot, or `EMPTY` / `FREED`.
static ADDRS: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(EMPTY) }; SLOTS];
/// Size and alignment of the block in each slot, packed by [`pack`].
static LAYOUTS: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Smallest and largest block allocated since the test last reset them.
static MIN_SIZE: AtomicUsize = AtomicUsize::new(usize::MAX);
static MAX_SIZE: AtomicUsize = AtomicUsize::new(0);
/// Frees whose size or alignment differed from their block's alloc.
static MISMATCHES: AtomicU64 = AtomicU64::new(0);
/// The table overflowed, or a block was freed that it never recorded.
static LOST_TRACK: AtomicBool = AtomicBool::new(false);

// Every atomic here is `Relaxed`: a block's alloc happens-before its
// dealloc through the program's own synchronisation, and the counters
// are read only after the list's threads are done.

fn pack(layout: Layout) -> usize {
    (layout.size() << 6) | layout.align().trailing_zeros() as usize
}

fn home_slot(addr: usize) -> usize {
    (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize
        >> (usize::BITS - SLOTS.trailing_zeros())
}

fn record(addr: usize, layout: Layout) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
    MIN_SIZE.fetch_min(layout.size(), Ordering::Relaxed);
    MAX_SIZE.fetch_max(layout.size(), Ordering::Relaxed);
    let mut slot = home_slot(addr);
    for _ in 0..SLOTS {
        let cur = ADDRS[slot].load(Ordering::Relaxed);
        if (cur == EMPTY || cur == FREED)
            && ADDRS[slot]
                .compare_exchange(cur, addr, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            LAYOUTS[slot].store(pack(layout), Ordering::Relaxed);
            return;
        }
        slot = (slot + 1) % SLOTS;
    }
    LOST_TRACK.store(true, Ordering::Relaxed);
}

fn forget(addr: usize, layout: Layout) {
    LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    let mut slot = home_slot(addr);
    for _ in 0..SLOTS {
        match ADDRS[slot].load(Ordering::Relaxed) {
            EMPTY => break,
            cur if cur == addr => {
                if LAYOUTS[slot].load(Ordering::Relaxed) != pack(layout) {
                    MISMATCHES.fetch_add(1, Ordering::Relaxed);
                }
                ADDRS[slot].store(FREED, Ordering::Relaxed);
                return;
            }
            _ => slot = (slot + 1) % SLOTS,
        }
    }
    LOST_TRACK.store(true, Ordering::Relaxed);
}

struct TrackingAlloc;

// SAFETY: defers to `System` for every operation; only adds bookkeeping,
// which never allocates.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record(ptr as usize, layout);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record(ptr as usize, layout);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            forget(ptr as usize, layout);
            record(
                new as usize,
                Layout::from_size_align_unchecked(new_size, layout.align()),
            );
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        forget(ptr as usize, layout);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

#[test]
fn one_block_per_node_freed_with_its_layout() {
    const INSERTS: u64 = 10_000;
    let mut rng = SmallRng::seed_from_u64(0x1A70);

    // Warm up whatever thread-local state an insert touches, so the
    // measured window sees only the list's own blocks.
    drop({
        let warm = SkipList::new();
        warm.insert(1, 1, &mut rng);
        warm
    });

    let live_before = LIVE_BYTES.load(Ordering::SeqCst);
    let list = SkipList::new();
    MIN_SIZE.store(usize::MAX, Ordering::SeqCst);
    MAX_SIZE.store(0, Ordering::SeqCst);
    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..INSERTS {
        // Keys repeat, so duplicate items are in the mix.
        list.insert(i % 1000, i % 7, &mut rng);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let (min, max) = (
        MIN_SIZE.load(Ordering::SeqCst),
        MAX_SIZE.load(Ordering::SeqCst),
    );
    assert_eq!(
        allocs, INSERTS,
        "{INSERTS} inserts made {allocs} allocations; a node must be one block"
    );
    assert!(
        max >= min + 4 * std::mem::size_of::<usize>(),
        "tower heights were not mixed: node blocks spanned {min}..={max} bytes"
    );
    assert_eq!(list.collect_quiescent().len(), INSERTS as usize);

    drop(list);
    assert_eq!(
        MISMATCHES.load(Ordering::SeqCst),
        0,
        "a dealloc passed a layout that differs from its block's alloc"
    );
    assert_eq!(
        LIVE_BYTES.load(Ordering::SeqCst),
        live_before,
        "dropping the list left skiplist bytes live"
    );
    assert!(
        !LOST_TRACK.load(Ordering::SeqCst),
        "the live-block table lost track of a block"
    );
}
