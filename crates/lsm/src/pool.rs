//! Size-classed pool of block buffers.
//!
//! Every structural change in the LSM — inserting a singleton, merging
//! two blocks in the cascade, compacting a decayed block, draining for a
//! spy — used to allocate a fresh `Vec<Item>` and drop the old one. The
//! companion k-LSM paper (arXiv:1503.05698) calls out pooling and reuse
//! of block arrays as essential to making the merge cascade competitive,
//! so this module keeps retired buffers on per-LSM free lists, one list
//! per power-of-two size class, and hands them back to the merge kernels.
//!
//! The pool is owned by a single [`crate::Lsm`] (which is `&mut self`
//! everywhere), so it needs no synchronisation: hit/miss bookkeeping is
//! two plain `u64` increments. The same events are additionally mirrored
//! into [`pq_traits::telemetry`] (`lsm_pool_hit` / `lsm_pool_miss` /
//! `lsm_pool_recycled_bytes`) so concurrent harness runs can export pool
//! behaviour per benchmark cell behind the `telemetry` cargo feature.

use pq_traits::telemetry;
use pq_traits::Item;

/// Retired buffers kept per size class. Two is the steady-state need of
/// the merge cascade (one source released per merge, one acquired one
/// class up); a little slack absorbs spy splits and shrink merges.
const MAX_FREE_PER_CLASS: usize = 4;

/// Plain counters describing pool behaviour since construction.
///
/// Always maintained (they cost two non-atomic increments per pool
/// operation), independent of the `telemetry` cargo feature, so the
/// microbenchmarks can report hit rates from any build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffer requests served from a free list.
    pub hits: u64,
    /// Buffer requests that fell back to a fresh heap allocation.
    pub misses: u64,
    /// Bytes of buffer capacity returned to free lists for reuse.
    pub recycled_bytes: u64,
    /// Buffers dropped because their free list was full.
    pub dropped: u64,
}

impl PoolStats {
    /// Fraction of requests served without allocating, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-LSM free lists of power-of-two `Vec<Item>` buffers.
#[derive(Debug, Default)]
pub struct BlockPool {
    /// `classes[c]` holds empty buffers with capacity ≥ `1 << c`.
    classes: Vec<Vec<Vec<Item>>>,
    stats: PoolStats,
}

/// Pools are intentionally not cloned with their owner: a cloned LSM
/// starts with empty free lists and zeroed counters (the buffers inside
/// the cloned blocks are cloned by `Block` itself).
impl Clone for BlockPool {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl BlockPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters since construction.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Size class that can serve a request for `min_capacity` items:
    /// `log2` of the next power of two.
    #[inline]
    fn class_for(min_capacity: usize) -> usize {
        min_capacity
            .next_power_of_two()
            .trailing_zeros() as usize
    }

    /// Fetch an empty buffer with capacity ≥ `min_capacity`, reusing a
    /// retired one when the matching free list is non-empty.
    ///
    /// Pool events use the telemetry `record_quiet` variants: the pool
    /// only runs under `&mut self`, so its events are not useful chaos
    /// hook points and must not tax the kernel hot path.
    #[inline]
    pub fn acquire(&mut self, min_capacity: usize) -> Vec<Item> {
        let class = Self::class_for(min_capacity);
        if let Some(buf) = self.classes.get_mut(class).and_then(Vec::pop) {
            debug_assert!(buf.is_empty() && buf.capacity() >= min_capacity);
            self.stats.hits += 1;
            telemetry::record_quiet(telemetry::Event::LsmPoolHit);
            return buf;
        }
        self.stats.misses += 1;
        telemetry::record_quiet(telemetry::Event::LsmPoolMiss);
        Vec::with_capacity(1usize << class)
    }

    /// Return a retired buffer to the free list matching its capacity
    /// (rounded *down* to a power of two, so an acquired buffer is never
    /// smaller than its class promises). Full lists drop the buffer.
    #[inline]
    pub fn release(&mut self, mut buf: Vec<Item>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let class = (usize::BITS - 1 - buf.capacity().leading_zeros()) as usize;
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let list = &mut self.classes[class];
        if list.len() >= MAX_FREE_PER_CLASS {
            self.stats.dropped += 1;
            return;
        }
        let bytes = (buf.capacity() * core::mem::size_of::<Item>()) as u64;
        self.stats.recycled_bytes += bytes;
        telemetry::record_n_quiet(telemetry::Event::LsmPoolRecycledBytes, bytes);
        list.push(buf);
    }

    /// Number of buffers currently parked on free lists.
    pub fn free_buffers(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_miss_then_hit() {
        let mut p = BlockPool::new();
        let buf = p.acquire(5);
        assert!(buf.capacity() >= 5);
        assert_eq!(p.stats().misses, 1);
        p.release(buf);
        assert_eq!(p.free_buffers(), 1);
        let again = p.acquire(5);
        assert!(again.capacity() >= 5);
        assert_eq!(p.stats().hits, 1);
        assert!(p.stats().recycled_bytes > 0);
    }

    #[test]
    fn release_rounds_capacity_down() {
        let mut p = BlockPool::new();
        // A capacity-5 buffer lands in class 2 (4), so acquiring for 8
        // must miss rather than hand back something too small.
        p.release(Vec::with_capacity(5));
        let buf = p.acquire(8);
        assert!(buf.capacity() >= 8);
        assert_eq!(p.stats().misses, 1);
        let small = p.acquire(3);
        assert!(small.capacity() >= 3);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn full_class_drops() {
        let mut p = BlockPool::new();
        for _ in 0..MAX_FREE_PER_CLASS + 2 {
            p.release(Vec::with_capacity(8));
        }
        assert_eq!(p.free_buffers(), MAX_FREE_PER_CLASS);
        assert_eq!(p.stats().dropped, 2);
    }

    #[test]
    fn clone_starts_empty() {
        let mut p = BlockPool::new();
        p.release(Vec::with_capacity(4));
        let q = p.clone();
        assert_eq!(q.free_buffers(), 0);
        assert_eq!(q.stats(), PoolStats::default());
    }

    #[test]
    fn zero_capacity_request_is_served() {
        let mut p = BlockPool::new();
        let buf = p.acquire(0);
        assert!(buf.capacity() >= 1);
    }
}
