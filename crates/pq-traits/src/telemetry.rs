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
//! Every build compiles one recording path, switched at run time by a
//! hook word with one bit per consumer of an event: the
//! [`crate::chaos`] schedule-perturbation shim, these counters
//! ([`set_enabled`]) and the [`crate::trace`] flight recorder. An event
//! site loads the word once and returns if it is 0, so with everything
//! off (the default) it costs one relaxed load and a predicted branch;
//! otherwise an out-of-line path serves each consumer whose bit is set.
//! The benchmark binaries switch counting on for `--metrics` and
//! `--trace`. Check [`enabled`] before paying for anything (e.g.
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

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

    /// `true` if no event was recorded (always the case while counting
    /// has never been switched on).
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Per-event difference `self − earlier`, saturating at zero (counts
    /// are monotone, so saturation only absorbs snapshots passed in
    /// the wrong order).
    pub fn since(&self, earlier: &EventCounts) -> EventCounts {
        let mut out = EventCounts::default();
        for i in 0..Event::COUNT {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }
}

/// Bits of the run-time hook word: which of the three consumers of a
/// recorded event are switched on. [`crate::chaos::configure`] and
/// [`crate::chaos::disable`] flip [`hook::CHAOS`], [`set_enabled`]
/// flips [`hook::COUNT`], [`crate::trace::start`] and
/// [`crate::trace::stop`] flip [`hook::TRACE`].
pub(crate) mod hook {
    use core::sync::atomic::{AtomicU8, Ordering};

    /// Perturb the schedule at every non-quiet event site.
    pub const CHAOS: u8 = 1;
    /// Add every event to the counter shards.
    pub const COUNT: u8 = 2;
    /// Push every event into the flight recorder.
    pub const TRACE: u8 = 4;

    /// The hook word. The cargo feature `telemetry` only presets COUNT,
    /// for builds that want counting on without calling `set_enabled`.
    static HOOKS: AtomicU8 = AtomicU8::new(if cfg!(feature = "telemetry") { COUNT } else { 0 });

    /// The current hook bits (one relaxed load).
    #[inline]
    pub fn load() -> u8 {
        HOOKS.load(Ordering::Relaxed)
    }

    /// Set (`on`) or clear `bit`. Release, so a thread that sees the
    /// bit also sees the state its switch published first (the chaos
    /// configuration, the recorder's start marks).
    pub fn set(bit: u8, on: bool) {
        if on {
            HOOKS.fetch_or(bit, Ordering::Release);
        } else {
            HOOKS.fetch_and(!bit, Ordering::Release);
        }
    }
}

/// Switch event counting on or off, process-wide. Off is the default;
/// the benchmark binaries switch it on for `--metrics` and `--trace`.
/// Switching it off stops counting but keeps what was counted.
pub fn set_enabled(on: bool) {
    hook::set(hook::COUNT, on);
}

/// `true` while events are counted (see [`set_enabled`]).
#[inline]
pub fn enabled() -> bool {
    hook::load() & hook::COUNT != 0
}

/// Record one occurrence of `event`.
#[inline]
pub fn record(event: Event) {
    record_n(event, 1);
}

/// Record `n` occurrences of `event` (bulk counters such as
/// [`Event::DlsmSpyItems`]).
///
/// One relaxed load of the hook word and a predicted branch while
/// nothing is switched on. Otherwise the event goes, out of line, to
/// each consumer whose bit is set: the schedule-perturbation shim
/// ([`crate::chaos`]; the events mark the interesting slow-path
/// transitions), the counters, and the flight recorder
/// ([`crate::trace`]).
#[inline]
pub fn record_n(event: Event, n: u64) {
    let hooks = hook::load();
    if hooks != 0 {
        hooked(hooks, event, n);
    }
}

/// Record one occurrence of `event` WITHOUT marking a chaos hook point.
///
/// For events on purely sequential internal paths (e.g. the LSM block
/// pool, which only ever runs under `&mut self`): schedule perturbation
/// at such a site cannot surface interleavings. Also for per-operation
/// counters on hot paths (the SLSM probe), which are not slow-path
/// markers.
#[inline]
pub fn record_quiet(event: Event) {
    record_n_quiet(event, 1);
}

/// As [`record_quiet`], recording `n` occurrences. Quiet only with
/// respect to chaos: the counters and the flight recorder still see
/// the event, since a timeline without the sequential-path events
/// (pool hits, kernel invocations) would misattribute their cost to
/// neighboring spans.
#[inline]
pub fn record_n_quiet(event: Event, n: u64) {
    let hooks = hook::load() & !hook::CHAOS;
    if hooks != 0 {
        hooked(hooks, event, n);
    }
}

/// The switched-on path of [`record_n`], kept out of line so an event
/// site costs one load and one branch while every hook is off.
#[cold]
#[inline(never)]
fn hooked(hooks: u8, event: Event, n: u64) {
    if hooks & hook::CHAOS != 0 {
        crate::chaos::on_event(event);
    }
    if hooks & hook::COUNT != 0 {
        // The shard is thread-private for writes; the atomic only makes
        // cross-thread snapshot reads sound, it is never contended.
        SHARD.with(|s| {
            s.counts[event as usize].fetch_add(n, Ordering::Relaxed);
        });
    }
    if hooks & hook::TRACE != 0 {
        crate::trace::on_event(event, n);
    }
}

/// Sum every thread's shard into one [`EventCounts`].
///
/// Counters are never reset; bracket a region with two snapshots and
/// diff them with [`EventCounts::since`] to attribute events to it.
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

/// One thread's counter shard, aligned to a cache line so concurrent
/// recording threads never share one.
#[repr(align(64))]
struct Shard {
    counts: [AtomicU64; Event::COUNT],
}

impl Shard {
    fn new() -> Self {
        Self {
            counts: core::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// All shards ever created. `Arc` keeps a shard (and its counts) alive
/// after its owning thread exits, so totals never regress.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;

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

    /// Counting is switched process-wide: tests that switch it on share
    /// this lock, the test that switches it off holds it alone.
    static COUNTING: RwLock<()> = RwLock::new(());

    #[test]
    fn record_snapshot_reset_roundtrip() {
        let _on = COUNTING.read().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        assert!(enabled());
        // Other tests in the process may record concurrently, so assert
        // on deltas of one event from a dedicated thread.
        let before = snapshot().get(Event::SlsmPivotRebuild);
        std::thread::spawn(|| {
            record(Event::SlsmPivotRebuild);
            record_n(Event::SlsmPivotRebuild, 4);
            record_n_quiet(Event::SlsmPivotRebuild, 2);
        })
        .join()
        .unwrap();
        let after = snapshot().get(Event::SlsmPivotRebuild);
        assert!(after >= before + 7, "after {after} < before {before} + 7");
    }

    #[test]
    fn disabled_records_nothing() {
        let _off = COUNTING.write().unwrap_or_else(|e| e.into_inner());
        let was = enabled();
        set_enabled(false);
        assert!(!enabled());
        let before = snapshot();
        record(Event::MqEmptySample);
        record_n(Event::MqEmptySample, 100);
        record_quiet(Event::LsmPoolHit);
        assert_eq!(snapshot(), before);
        set_enabled(was);
    }
}
