//! Common traits and item types shared by every priority queue in this
//! workspace.
//!
//! The paper ("Benchmarking Concurrent Priority Queues", SPAA 2016)
//! considers priority queues over key-value pairs supporting exactly two
//! operations: `insert` and `delete_min`. Strict queues return *the*
//! minimal key in some linearization; relaxed queues may return one of the
//! `ρ` smallest keys, where `ρ` is a structure-specific relaxation bound
//! (e.g. `kP` for the k-LSM with relaxation parameter `k` on `P` threads).
//!
//! Concurrent queues here follow the same handle-based design as the
//! original C++ k-LSM: the shared queue object is cheap to share
//! (`&Q: Send + Sync`), and each thread obtains a [`PqHandle`] through
//! which it performs operations. For purely shared structures the handle
//! is a thin wrapper; for the k-LSM it owns the thread-local DLSM.
//!
//! ```
//! use pq_traits::{Item, SequentialPq};
//!
//! fn drain_sorted<P: SequentialPq>(pq: &mut P) -> Vec<Item> {
//!     std::iter::from_fn(|| pq.delete_min()).collect()
//! }
//! ```

#![warn(missing_docs)]

pub mod buffered;
pub mod chaos;
pub mod history;
pub mod instrument;
pub mod item;
pub mod seed;
pub mod telemetry;
pub mod trace;

pub use buffered::Buffered;
pub use history::{Op, OpRecord, Recorded, RecordedHandle};
pub use instrument::{Instrumented, OpCounts};
pub use item::{Item, Key, Value};
pub use seed::{handle_seed, DEFAULT_QUEUE_SEED};

/// A sequential priority queue over `(Key, Value)` pairs.
///
/// Used for the substrates (binary heap, pairing heap, LSM) and by the
/// lock-based wrappers. Mutation requires `&mut self`.
pub trait SequentialPq {
    /// Insert a key-value pair.
    fn insert(&mut self, key: Key, value: Value);

    /// Remove and return a pair with the minimal key, or `None` if empty.
    fn delete_min(&mut self) -> Option<Item>;

    /// Return the minimal key currently stored without removing it.
    fn peek_min(&self) -> Option<Item>;

    /// Number of stored items.
    fn len(&self) -> usize;

    /// `true` if no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all items.
    fn clear(&mut self) {
        while self.delete_min().is_some() {}
    }
}

/// A concurrent priority queue.
///
/// The queue itself is shared between threads by reference; every thread
/// calls [`ConcurrentPq::handle`] once and then performs all operations
/// through the returned [`PqHandle`].
pub trait ConcurrentPq: Send + Sync {
    /// Per-thread operation handle.
    type Handle<'a>: PqHandle
    where
        Self: 'a;

    /// Create a handle for the calling thread.
    ///
    /// Handles are not required to be `Send`; each thread must create its
    /// own. Creating more handles than the configured thread bound (where
    /// a structure has one, such as the k-LSM's thread slots) may panic.
    fn handle(&self) -> Self::Handle<'_>;

    /// Short display name used by the benchmark harness ("klsm256",
    /// "linden", "multiqueue", ...).
    fn name(&self) -> String;
}

/// Per-thread handle through which queue operations are performed.
pub trait PqHandle {
    /// Insert a key-value pair.
    fn insert(&mut self, key: Key, value: Value);

    /// Remove and return an item with a small key.
    ///
    /// For strict queues this is a minimal item in some linearization; for
    /// relaxed queues it is one of the `ρ` smallest, per the structure's
    /// documented relaxation bound. Returns `None` only if the queue
    /// appeared empty (for relaxed queues: *locally* empty — a concurrent
    /// insert may not yet be visible).
    fn delete_min(&mut self) -> Option<Item>;

    /// Commit any handle-buffered operations to the shared structure,
    /// returning how many buffered items were committed.
    ///
    /// Buffering handles (e.g. the sticky MultiQueue's insertion and
    /// deletion buffers) override this to push pending inserts into the
    /// shared queue and return deletion-buffered items to it, so that no
    /// item is lost when the handle goes idle. The harness calls it at
    /// the end of every measurement window and before emptiness checks;
    /// buffering handles must also call it on drop. The return value
    /// feeds the [`instrument::Instrumented`] flush counters so buffer
    /// commit frequency is observable. Default: no-op returning 0
    /// (unbuffered handles have nothing to commit).
    fn flush(&mut self) -> u64 {
        0
    }

    /// Insert an ascending-sorted run of items.
    ///
    /// [`Buffered`] commits its insert buffer through this hook, so a
    /// structure with a bulk-insert path (an LSM block merge, a skiplist
    /// finger descent, one flat-combining publication) overrides it to
    /// take the run in one step. Default: one [`PqHandle::insert`] per
    /// item.
    fn insert_sorted_run(&mut self, run: &[Item]) {
        for it in run {
            self.insert(it.key, it.value);
        }
    }
}

/// Relaxation metadata, used by the quality benchmark to compare measured
/// rank errors against claimed bounds.
pub trait RelaxationBound {
    /// Upper bound on the *rank* (0-based position within a snapshot of
    /// the queue) of items returned by `delete_min`, as a function of the
    /// number of participating threads. `Some(0)` means strict semantics;
    /// `None` means no bound is claimed (e.g. the MultiQueue).
    fn rank_bound(&self, threads: usize) -> Option<u64>;

    /// Whether [`RelaxationBound::rank_bound`] is a *guaranteed*
    /// per-operation bound — one a semantic checker may enforce on every
    /// deletion — as opposed to a probabilistic or expected reference
    /// curve (the SprayList's `O(P log³ P)` holds only with high
    /// probability, so individual deletions may land deeper). Defaults
    /// to `true`; queues whose bound is a curve, not a contract, must
    /// override.
    fn rank_bound_is_guaranteed(&self) -> bool {
        true
    }
}
