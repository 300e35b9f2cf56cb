//! Quickstart: create a k-LSM priority queue, share it across threads,
//! and drain it.
//!
//! ```text
//! cargo run -p pq-bench --release --example quickstart
//! ```

use klsm::Klsm;
use pq_traits::{ConcurrentPq, PqHandle, RelaxationBound};

fn main() {
    let threads = 4;
    // A k-LSM with relaxation k = 256: delete_min returns one of the
    // (k·P + 1) smallest items.
    let queue = Klsm::new(256, threads);
    println!(
        "created {} (rank bound for {} threads: {:?})",
        queue.name(),
        threads,
        queue.rank_bound(threads)
    );

    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let queue = &queue;
            s.spawn(move || {
                // Each thread gets its own handle; the handle owns the
                // thread-local component of the k-LSM.
                let mut h = queue.handle();
                for i in 0..25_000u64 {
                    h.insert(i.wrapping_mul(2654435761) % 1_000_000, t * 25_000 + i);
                }
                // Mixed phase: delete half of what we inserted.
                let mut deleted = 0u64;
                for _ in 0..12_500 {
                    if h.delete_min().is_some() {
                        deleted += 1;
                    }
                }
                println!("thread {t}: inserted 25000, deleted {deleted}");
            });
        }
    });

    // Drain the rest from the main thread. Note: handles are claimed per
    // thread, so we built the queue with enough slots — or simply use one
    // of the general-purpose wrappers for ad-hoc draining.
    let remaining = queue.len_quiescent();
    println!("items remaining after mixed phase: {remaining}");

    // Relaxed order: consecutive deletions are *approximately* sorted.
    let strict = lockedpq::GlobalLockPq::new();
    let mut h = strict.handle();
    for k in [5u64, 3, 9, 1] {
        h.insert(k, k);
    }
    print!("strict queue drains in exact order:");
    while let Some(item) = h.delete_min() {
        print!(" {}", item.key);
    }
    println!();
}
