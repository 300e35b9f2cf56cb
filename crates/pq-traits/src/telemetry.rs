//! Queue-internal contention telemetry.
//!
//! The paper's *explanations* for its throughput and rank-error results
//! rest on internal events the benchmarks cannot see: CAS retries in the
//! skiplist, spy-driven work stealing in the DLSM, lost claim races and
//! pivot rebuilds in the SLSM, empty-looking samples and buffer flushes
//! in the MultiQueue. This module gives every queue crate a single,
//! dependency-free place to record those events.
//!
//! # Design
//!
//! Each recording thread owns a cache-line-aligned shard of counters
//! (one slot per [`Event`]); shards are registered in a global list and
//! summed on [`snapshot`]. Recording is therefore a single uncontended
//! relaxed `fetch_add` on a thread-private cache line — no shared-line
//! ping-pong even with dozens of threads hammering the same event.
//!
//! The counters are gated on the `telemetry` cargo feature: without
//! it, [`snapshot`] returns all zeros and the counting side of
//! [`record`]/[`record_n`] compiles to nothing. What always remains is
//! the [`crate::chaos`] hook — one relaxed load per call site — so the
//! schedule-perturbation stress layer can piggyback on these same
//! slow-path markers without a separate build. With the feature on,
//! every counted event is also forwarded to the [`crate::trace`]
//! flight recorder. Check [`enabled`] before paying for anything (e.g.
//! pre-computing a count to pass to [`record_n`]).
//!
//! Counters are process-global and **monotone** — there is deliberately
//! no reset. A reset would be a process-wide write racing every other
//! concurrently running cell or test (the parallel `cargo test` runner
//! makes that the common case, not the exception). Instead, consumers
//! take a [`snapshot`] before a cell and attribute with
//! [`EventCounts::since`] afterwards; deltas compose soundly no matter
//! how many cells run in parallel, as long as each cell's own events
//! land between its two snapshots (true when the cell joins its worker
//! threads before the closing snapshot).

use core::sync::atomic::AtomicU64;

/// A queue-internal event worth counting.
///
/// Each variant names the structure it belongs to; see the module docs
/// of the recording crates (and EXPERIMENTS.md §Observability) for what
/// each event means for the paper's explanations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// Skiplist: a `find` pass had to restart from the head because a
    /// helping unlink CAS failed.
    SkiplistFindRestart,
    /// Skiplist: a CAS on a node's bottom-level pointer failed (insert
    /// publish or delete-min claim lost a race) and was retried.
    SkiplistCasRetry,
    /// DLSM: a deletion found its thread-local LSM empty and went
    /// looking for a victim to spy from.
    DlsmSpyAttempt,
    /// DLSM: a spy attempt found a non-empty victim and stole items.
    DlsmSpySteal,
    /// DLSM: number of items moved by successful spies (recorded with
    /// [`record_n`]).
    DlsmSpyItems,
    /// SLSM: a `try_take` on a pivot candidate failed because another
    /// thread claimed the entry first.
    SlsmLostRace,
    /// SLSM: the pivot range was exhausted while live items remained and
    /// had to be rebuilt (the k-LSM slow path).
    SlsmPivotRebuild,
    /// MultiQueue: a two-choice sample observed both sub-queue minima as
    /// empty (spurious or real emptiness signal).
    MqEmptySample,
    /// MultiQueue (m > 1): a non-empty insertion buffer was committed to
    /// a sub-queue under one lock acquire.
    MqBufferFlush,
    /// MultiQueue (m > 1): number of items committed by buffer flushes,
    /// including an insert committed together with its buffer
    /// (recorded with [`record_n`]).
    MqBufferFlushItems,
    /// LSM block pool: a buffer request was served from a free list
    /// (no heap allocation).
    LsmPoolHit,
    /// LSM block pool: a buffer request missed every free list and fell
    /// back to a fresh heap allocation.
    LsmPoolMiss,
    /// LSM block pool: bytes of buffer capacity returned to a free list
    /// for reuse (recorded with [`record_n`]).
    LsmPoolRecycledBytes,
    /// LSM kernels: a merge ran through the bidirectional two-chain
    /// kernel (combined size ≥ `MERGE_PATH_MIN`).
    LsmKernelBidiHit,
    /// LSM kernels: a drain ran through the k-way loser tree (one
    /// `take_all_sorted` pass over ≥ 2 blocks).
    LsmKernelLoserTreePass,
    /// Flat combining: a thread won the combiner lock (`try_lock`
    /// succeeded) and entered a combining critical section.
    FcLockAcquire,
    /// Flat combining: one scan pass over the publication list that
    /// applied at least one pending operation.
    FcCombineRound,
    /// Flat combining: number of published operations applied by
    /// combiners on behalf of any thread (recorded with [`record_n`]).
    FcOpsCombined,
    /// SLSM: taken flags read by one pivot probe (recorded once per
    /// probe with [`record_n_quiet`]; entries skipped through the
    /// seen-taken bitmap are not reads).
    SlsmProbeEntries,
    /// SLSM: a deletion answered `UseLocal` from the block-list snapshot
    /// (the local item is ≤ every block's first live item) without
    /// probing the pivot range.
    SlsmLocalShortcut,
}

impl Event {
    /// Every event, in stable export order.
    pub const ALL: [Event; 20] = [
        Event::SkiplistFindRestart,
        Event::SkiplistCasRetry,
        Event::DlsmSpyAttempt,
        Event::DlsmSpySteal,
        Event::DlsmSpyItems,
        Event::SlsmLostRace,
        Event::SlsmPivotRebuild,
        Event::MqEmptySample,
        Event::MqBufferFlush,
        Event::MqBufferFlushItems,
        Event::LsmPoolHit,
        Event::LsmPoolMiss,
        Event::LsmPoolRecycledBytes,
        Event::LsmKernelBidiHit,
        Event::LsmKernelLoserTreePass,
        Event::FcLockAcquire,
        Event::FcCombineRound,
        Event::FcOpsCombined,
        Event::SlsmProbeEntries,
        Event::SlsmLocalShortcut,
    ];

    /// Number of distinct events.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used as the JSON key in metrics exports.
    pub fn name(self) -> &'static str {
        match self {
            Event::SkiplistFindRestart => "skiplist_find_restart",
            Event::SkiplistCasRetry => "skiplist_cas_retry",
            Event::DlsmSpyAttempt => "dlsm_spy_attempt",
            Event::DlsmSpySteal => "dlsm_spy_steal",
            Event::DlsmSpyItems => "dlsm_spy_items",
            Event::SlsmLostRace => "slsm_lost_race",
            Event::SlsmPivotRebuild => "slsm_pivot_rebuild",
            Event::MqEmptySample => "mq_empty_sample",
            Event::MqBufferFlush => "mq_buffer_flush",
            Event::MqBufferFlushItems => "mq_buffer_flush_items",
            Event::LsmPoolHit => "lsm_pool_hit",
            Event::LsmPoolMiss => "lsm_pool_miss",
            Event::LsmPoolRecycledBytes => "lsm_pool_recycled_bytes",
            Event::LsmKernelBidiHit => "lsm_kernel_bidi_hits",
            Event::LsmKernelLoserTreePass => "lsm_kernel_losertree_passes",
            Event::FcLockAcquire => "fc_lock_acquires",
            Event::FcCombineRound => "fc_combine_rounds",
            Event::FcOpsCombined => "fc_ops_combined",
            Event::SlsmProbeEntries => "slsm_probe_entries",
            Event::SlsmLocalShortcut => "slsm_local_shortcut",
        }
    }
}

/// Snapshot of every event counter, summed over all thread shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    counts: [u64; Event::COUNT],
}

impl EventCounts {
    /// Count recorded for one event.
    pub fn get(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// Iterate `(event, count)` pairs in [`Event::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        Event::ALL.iter().map(|&e| (e, self.get(e)))
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `true` if no event was recorded (always the case with the
    /// `telemetry` feature disabled).
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Per-event difference `self − earlier`, saturating at zero (counts
    /// are monotone between resets, so saturation only absorbs a
    /// concurrent reset).
    pub fn since(&self, earlier: &EventCounts) -> EventCounts {
        let mut out = EventCounts::default();
        for i in 0..Event::COUNT {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }
}

/// `true` when the crate was built with the `telemetry` feature, i.e.
/// when [`record`] actually records.
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// Record one occurrence of `event`.
#[inline]
pub fn record(event: Event) {
    record_n(event, 1);
}

/// Record `n` occurrences of `event` (bulk counters such as
/// [`Event::DlsmSpyItems`]).
///
/// Also the hook point for the schedule-perturbation shim: every
/// recorded event is forwarded to [`crate::chaos::on_event`] (one
/// relaxed load while chaos is disabled; may inject a yield or bounded
/// spin during a stress run) whether or not the `telemetry` feature is
/// on — the events mark the interesting slow-path transitions either
/// way. The flight recorder ([`crate::trace::on_event`]) sees the event
/// only where it is counted, i.e. with the feature on.
#[inline]
pub fn record_n(event: Event, n: u64) {
    crate::chaos::on_event(event);
    imp::record_n(event, n);
}

/// Record one occurrence of `event` WITHOUT marking a chaos hook point.
///
/// For events on purely sequential internal paths (e.g. the LSM block
/// pool, which only ever runs under `&mut self`): schedule perturbation
/// at such a site cannot surface interleavings, so the chaos shim's
/// relaxed load is pure overhead there. Also for per-operation counters
/// on hot paths (the SLSM probe), which are not slow-path markers. With the `telemetry` feature
/// disabled this compiles to nothing at all.
#[inline]
pub fn record_quiet(event: Event) {
    record_n_quiet(event, 1);
}

/// As [`record_quiet`], recording `n` occurrences. Quiet only with
/// respect to chaos: with the `telemetry` feature the flight recorder
/// still sees the event, since a timeline without the sequential-path
/// events (pool hits, kernel invocations) would misattribute their
/// cost to neighboring spans.
#[inline]
pub fn record_n_quiet(event: Event, n: u64) {
    imp::record_n(event, n);
}

/// Sum every thread's shard into one [`EventCounts`].
///
/// Counters are never reset; bracket a region with two snapshots and
/// diff them with [`EventCounts::since`] to attribute events to it.
pub fn snapshot() -> EventCounts {
    imp::snapshot()
}

/// One thread's counter shard, aligned to a cache line so concurrent
/// recording threads never share one. Kept out of the feature gate so
/// the type (and its alignment contract) is always compiled and
/// testable.
#[repr(align(64))]
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
struct Shard {
    counts: [AtomicU64; Event::COUNT],
}

impl Shard {
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    fn new() -> Self {
        Self {
            counts: core::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use super::{Event, EventCounts, Shard};
    use core::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex, OnceLock};

    /// All shards ever created. `Arc` keeps a shard (and its counts)
    /// alive after its owning thread exits, so totals never regress.
    fn registry() -> &'static Mutex<Vec<Arc<Shard>>> {
        static REGISTRY: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static SHARD: Arc<Shard> = {
            let shard = Arc::new(Shard::new());
            registry().lock().unwrap().push(Arc::clone(&shard));
            shard
        };
    }

    #[inline]
    pub fn record_n(event: Event, n: u64) {
        crate::trace::on_event(event, n);
        // The shard is thread-private for writes; the atomic only makes
        // cross-thread snapshot reads sound, it is never contended.
        SHARD.with(|s| {
            s.counts[event as usize].fetch_add(n, Ordering::Relaxed);
        });
    }

    pub fn snapshot() -> EventCounts {
        let mut out = EventCounts::default();
        for shard in registry().lock().unwrap().iter() {
            for e in Event::ALL {
                out.counts[e as usize] =
                    out.counts[e as usize].wrapping_add(shard.counts[e as usize].load(Ordering::Relaxed));
            }
        }
        out
    }

}

#[cfg(not(feature = "telemetry"))]
mod imp {
    use super::{Event, EventCounts};

    #[inline(always)]
    pub fn record_n(_event: Event, _n: u64) {}

    pub fn snapshot() -> EventCounts {
        EventCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = Event::ALL.iter().map(|e| e.name()).collect();
        assert!(names
            .iter()
            .all(|n| n.chars().all(|c| c.is_ascii_lowercase() || c == '_')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Event::COUNT);
    }

    #[test]
    fn shard_is_cache_line_aligned() {
        assert_eq!(core::mem::align_of::<Shard>() % 64, 0);
    }

    #[test]
    fn counts_since_saturates() {
        let mut a = EventCounts::default();
        let mut b = EventCounts::default();
        a.counts[0] = 5;
        b.counts[0] = 7;
        b.counts[1] = 2;
        let d = b.since(&a);
        assert_eq!(d.counts[0], 2);
        assert_eq!(d.counts[1], 2);
        assert_eq!(a.since(&b).counts[0], 0, "negative delta saturates");
        assert_eq!(d.total(), 4);
        assert!(!d.is_zero());
        assert!(EventCounts::default().is_zero());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn record_snapshot_reset_roundtrip() {
        // Other tests in the process may record concurrently, so assert
        // on deltas of one event from a dedicated thread.
        let before = snapshot().get(Event::SlsmPivotRebuild);
        std::thread::spawn(|| {
            record(Event::SlsmPivotRebuild);
            record_n(Event::SlsmPivotRebuild, 4);
        })
        .join()
        .unwrap();
        let after = snapshot().get(Event::SlsmPivotRebuild);
        assert!(after >= before + 5, "after {after} < before {before} + 5");
        assert!(enabled());
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_records_nothing() {
        record(Event::MqEmptySample);
        record_n(Event::MqEmptySample, 100);
        assert!(snapshot().is_zero());
        assert!(!enabled());
    }
}
