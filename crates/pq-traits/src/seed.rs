//! Deterministic per-handle RNG seeding, shared by every queue crate.
//!
//! The `workloads` crate promises that a benchmark run is fully
//! determined by its seed; that contract only holds if the queues keep
//! it too. Several structures use a per-handle RNG on their operation
//! paths (the MultiQueue's two-choice sampling, the SprayList's spray
//! walk, the Mound's random leaf probe, the Lindén skiplist's tower
//! heights), and seeding those from entropy makes quality/rank-error
//! runs non-reproducible. Instead, every queue holds a 64-bit queue
//! seed plus a handle counter, and derives handle `i`'s RNG seed with
//! [`handle_seed`] — distinct streams per handle, identical streams
//! across runs.

/// Default queue seed used by `new()` constructors. Benchmarks that
/// want run-to-run variation pass their own seed to a `with_seed`
/// constructor instead.
pub const DEFAULT_QUEUE_SEED: u64 = 0x5EED_4D51;

/// Mix a handle index into a queue seed (splitmix-style odd constant so
/// consecutive indices map to well-separated seeds). Index 0 is offset
/// by one so `handle_seed(s, 0) != s` — the queue seed itself never
/// doubles as a handle seed.
#[inline]
pub fn handle_seed(queue_seed: u64, handle_idx: u64) -> u64 {
    queue_seed ^ handle_idx.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|i| handle_seed(DEFAULT_QUEUE_SEED, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "handle seeds must not collide");
        assert!(!seeds.contains(&DEFAULT_QUEUE_SEED));
        // Stable across calls (pure function of its inputs).
        assert_eq!(handle_seed(7, 3), handle_seed(7, 3));
        assert_ne!(handle_seed(7, 3), handle_seed(8, 3));
    }
}
