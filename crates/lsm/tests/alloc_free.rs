//! Proof that the pooled LSM's insert/delete steady state performs zero
//! heap allocations after warmup.
//!
//! A counting global allocator tallies every `alloc`/`realloc`; after a
//! warmup phase that grows the structure past its working-set size (so
//! every buffer size class the steady state can request has been
//! allocated once and parked in the pool), a measured phase of the
//! uniform insert/delete-min workload must not allocate at all.
//!
//! This file intentionally contains a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the measured window. The test measures with event counting
//! off and then on, in the same process: recording into the telemetry
//! shard must not allocate on the hot path either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lsm::Lsm;
use pq_traits::{telemetry, SequentialPq};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers to `System` for every operation; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic splitmix64 stream for uniform keys.
fn next_key(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[test]
fn steady_state_insert_delete_allocates_nothing() {
    let mut l = Lsm::new();
    const SIZE: usize = 1024;
    const OPS: usize = 50_000;
    let mut rng = 0x5EEDu64;

    // Warmup, phase 1: grow well past the steady-state size and drain
    // back down. This forces merges up to a capacity class strictly
    // larger than any the measured phase can request, parking a buffer
    // of every class in the pool (and sizing the dense `heads` mirror
    // past any length the measured phase reaches), and exercises the
    // shrink/compact path.
    for _ in 0..4 * SIZE {
        l.insert(next_key(&mut rng), 0);
    }
    while l.len() > SIZE {
        l.delete_min();
    }
    for counting in [false, true] {
        telemetry::set_enabled(counting);
        // Warmup, phase 2: the exact workload shape of the measured
        // phase (uniform keys, alternating insert/delete at constant
        // size), long enough to touch every pool class and the
        // telemetry thread-local the steady state uses.
        for _ in 0..OPS {
            l.insert(next_key(&mut rng), 0);
            l.delete_min().expect("non-empty by construction");
        }

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let events = telemetry::snapshot();
        for _ in 0..OPS {
            l.insert(next_key(&mut rng), 0);
            l.delete_min().expect("non-empty by construction");
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        let counted = telemetry::snapshot().since(&events).total();

        assert_eq!(
            after - before,
            0,
            "steady-state insert/delete-min allocated {} time(s) over {OPS} op pairs \
             with counting {} (pool stats: {:?})",
            after - before,
            if counting { "on" } else { "off" },
            l.pool_stats()
        );
        // The measured window really ran with counting in that state.
        assert_eq!(counted > 0, counting, "{counted} events counted");
    }

    // Sanity: the pool really is carrying the load.
    let stats = l.pool_stats();
    assert!(
        stats.hit_rate() > 0.9,
        "expected a >90% pool hit rate in steady state, got {stats:?}"
    );
    assert_eq!(l.len(), SIZE);
}
