//! Flight-recorder tracing: per-thread timestamped event timelines.
//!
//! The [`crate::telemetry`] counters say *that* a queue's slow paths
//! fired, summed over a whole benchmark cell; they cannot say *which
//! threads* hit them, *when*, or *in what phase* of the run. The
//! throughput cliffs the paper (and the Engineering-MultiQueues line)
//! explains — warm-up transients, spy storms, stickiness phase changes —
//! are time- and thread-resolved phenomena, so this module records a
//! timeline: every recording thread owns a cache-line-padded,
//! fixed-capacity ring buffer of timestamped records, written lock-free
//! by its owner and drained by the harness at cell end.
//!
//! Three record classes share the rings:
//!
//! * **Spans** ([`SpanOp`]) — op begin/end intervals. The latency
//!   harness records one span per operation (it already timestamps each
//!   op); the throughput and quality harnesses record one
//!   [`SpanOp::OpBatch`] span per 64-op batch, reusing the clock read
//!   the tick sampler already takes per batch; the window-end `flush` is
//!   recorded individually.
//! * **Telemetry events** — with the `telemetry` feature, every
//!   [`crate::telemetry::Event`] the counters record is forwarded here
//!   with its count, so the queue crates need no instrumentation sites
//!   of their own. Without the feature the queues' event sites compile
//!   to nothing and timelines hold spans and phases only.
//! * **Phase markers** ([`PhaseKind`]) — the harness marks
//!   prefill/measure/rep boundaries so events can be attributed to
//!   warm-up vs. steady state.
//!
//! # Run-time switch
//!
//! Like [`crate::chaos`], the recorder is always compiled and switched
//! on at run time: [`start`] activates it, [`stop`] deactivates and
//! drains it. While no trace is recording, every recording function
//! costs one relaxed load and a predicted branch, and the harness hot
//! loop tests a local flag taken once per worker.
//!
//! # Ring semantics
//!
//! Rings are flight recorders: when full they overwrite the **oldest**
//! record and bump a per-ring dropped-record count, so a drained
//! timeline is always the most recent window and truncation is never
//! silent — [`ThreadTimeline::dropped`] and [`TraceData::dropped_total`]
//! report exactly how many records were lost.
//!
//! Rings are single-producer (the owning thread); [`stop`] reads them
//! after deactivating tracing. The harness drains only after joining
//! its workers, so drains observe quiescent rings; a drain racing a
//! still-recording thread can at worst read one torn (garbled) record —
//! counters and slots are plain atomics, so this is a data-quality
//! caveat, not unsoundness.
//!
//! # Timestamps
//!
//! All timestamps are nanoseconds on a process-wide monotonic epoch
//! (first use of the module), so per-thread timelines merge into one
//! clock-normalized timeline without cross-thread clock games;
//! [`stop`] rebases them to the cell's [`start`] call.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::telemetry::Event;

/// Number of `u64` words per ring slot (timestamp, payload, tag).
const SLOT_WORDS: usize = 3;

/// Default ring capacity in records (per thread). At 24 bytes a record
/// this is ~768 KiB per recording thread, which holds several hundred
/// milliseconds of batch-level activity.
pub const DEFAULT_CAPACITY: usize = 1 << 15;

/// Operation kinds recorded as spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanOp {
    /// One `insert` call.
    Insert,
    /// One `delete_min` call (successful or empty).
    DeleteMin,
    /// One `flush` call (window-end buffer commit).
    Flush,
    /// A batch of harness operations (mixed insert/delete) recorded as
    /// one span; the record's `ops` field carries the batch size.
    OpBatch,
}

impl SpanOp {
    /// All span kinds, indexed by discriminant.
    const ALL: [SpanOp; 4] = [
        SpanOp::Insert,
        SpanOp::DeleteMin,
        SpanOp::Flush,
        SpanOp::OpBatch,
    ];

    /// Stable snake_case name (Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanOp::Insert => "insert",
            SpanOp::DeleteMin => "delete_min",
            SpanOp::Flush => "flush",
            SpanOp::OpBatch => "ops",
        }
    }
}

/// Harness phase boundaries recorded as instant markers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Prefill of this repetition is starting.
    Prefill,
    /// Prefill complete; the measured window is starting.
    Measure,
    /// This repetition's measured window ended (workers joined).
    RepEnd,
}

impl PhaseKind {
    /// All phase kinds, indexed by discriminant.
    const ALL: [PhaseKind; 3] = [PhaseKind::Prefill, PhaseKind::Measure, PhaseKind::RepEnd];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Prefill => "prefill",
            PhaseKind::Measure => "measure",
            PhaseKind::RepEnd => "rep_end",
        }
    }
}

/// Payload of one decoded trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordData {
    /// An operation span; `ts_ns` is the span begin.
    Span {
        /// What ran.
        op: SpanOp,
        /// Span length in nanoseconds.
        dur_ns: u64,
        /// Queue operations covered (1 for single ops, the batch size
        /// for [`SpanOp::OpBatch`]).
        ops: u32,
    },
    /// A queue-internal telemetry event (instantaneous).
    Event {
        /// Which event.
        event: Event,
        /// Occurrences recorded at this instant (`record_n`'s `n`).
        count: u64,
    },
    /// A harness phase boundary (instantaneous).
    Phase {
        /// Which boundary.
        phase: PhaseKind,
        /// Repetition index the boundary belongs to.
        rep: u32,
    },
}

/// One decoded record of a thread's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the cell's [`start`] (span records: the span's
    /// *begin*).
    pub ts_ns: u64,
    /// What happened.
    pub data: RecordData,
}

/// One thread's drained timeline.
#[derive(Clone, Debug, Default)]
pub struct ThreadTimeline {
    /// Stable thread identifier (ring registration order, process-wide).
    pub thread: u64,
    /// Records in ring order (roughly chronological; sort by `ts_ns`
    /// before rendering).
    pub records: Vec<TraceRecord>,
    /// Records lost to ring overwrite during this cell. Non-zero means
    /// `records` holds only the **newest** part of the timeline.
    pub dropped: u64,
}

/// Everything drained from one traced cell.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// Per-thread timelines, in thread-id order. Threads that recorded
    /// nothing during the cell are absent.
    pub timelines: Vec<ThreadTimeline>,
}

impl TraceData {
    /// Total records across all threads.
    pub fn records_total(&self) -> usize {
        self.timelines.iter().map(|t| t.records.len()).sum()
    }

    /// Total records lost to ring overwrite — non-zero totals must be
    /// surfaced wherever this trace is exported.
    pub fn dropped_total(&self) -> u64 {
        self.timelines.iter().map(|t| t.dropped).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.timelines.is_empty()
    }
}

/// One thread's ring. The first slot word starts a fresh cache line
/// (the atomics before it are written by the owner / reader only
/// around cell boundaries, never on the record fast path).
#[repr(align(64))]
struct Ring {
    /// Process-wide registration index (stable thread id).
    id: u64,
    /// Capacity in records.
    capacity: usize,
    /// Total records ever written by the owner (monotone).
    head: AtomicU64,
    /// `head` value at the most recent [`start`]; records before it
    /// belong to earlier cells and are excluded from drains.
    mark: AtomicU64,
    /// `capacity * SLOT_WORDS` words of record storage.
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(id: u64, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            id,
            capacity,
            head: AtomicU64::new(0),
            mark: AtomicU64::new(0),
            slots: (0..capacity * SLOT_WORDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Owner-only: append one record, overwriting the oldest when
    /// full.
    #[inline]
    fn push(&self, w0: u64, w1: u64, w2: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let base = (head as usize % self.capacity) * SLOT_WORDS;
        self.slots[base].store(w0, Ordering::Relaxed);
        self.slots[base + 1].store(w1, Ordering::Relaxed);
        self.slots[base + 2].store(w2, Ordering::Relaxed);
        // Release-publish the slot words before the new head.
        self.head.store(head + 1, Ordering::Release);
    }
}

/// Whether a trace is currently recording.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Ring capacity for rings created after the latest [`start`].
static CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_CAPACITY as u64);
/// Epoch nanoseconds of the latest [`start`] (drain rebases to it).
static START_NS: AtomicU64 = AtomicU64::new(0);
/// Registration order of recording threads (stable thread ids).
static RING_CTR: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: Arc<Ring> = {
        let ring = Arc::new(Ring::new(
            RING_CTR.fetch_add(1, Ordering::Relaxed),
            CAPACITY.load(Ordering::Relaxed) as usize,
        ));
        registry().lock().unwrap().push(Arc::clone(&ring));
        ring
    };
}

/// Record classes packed into a slot's tag word (bits 0–7).
mod class {
    pub const SPAN: u64 = 1;
    pub const EVENT: u64 = 2;
    pub const PHASE: u64 = 3;
}

/// `true` while a trace is being recorded ([`start`] … [`stop`]).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace epoch. Use sparingly — one
/// clock read; prefer [`Anchor`] for converting already-taken
/// [`Instant`]s.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Begin recording a traced cell: ring contents recorded before this
/// call are excluded from the next [`stop`], and dropped-record
/// accounting restarts. `capacity` sizes rings created after this call
/// (existing rings keep theirs); pass [`DEFAULT_CAPACITY`] when in
/// doubt.
pub fn start(capacity: usize) {
    CAPACITY.store(capacity.max(1) as u64, Ordering::Relaxed);
    for ring in registry().lock().unwrap().iter() {
        ring.mark
            .store(ring.head.load(Ordering::Acquire), Ordering::Relaxed);
    }
    START_NS.store(now_ns(), Ordering::Relaxed);
    ACTIVE.store(true, Ordering::Release);
}

/// Stop recording and drain every thread's ring into a merged,
/// clock-normalized [`TraceData`] (timestamps rebased to the matching
/// [`start`]). Rings of exited threads are released.
pub fn stop() -> TraceData {
    ACTIVE.store(false, Ordering::Release);
    let start_ns = START_NS.load(Ordering::Relaxed);
    let mut registry = registry().lock().unwrap();
    let mut timelines = Vec::new();
    for ring in registry.iter() {
        let head = ring.head.load(Ordering::Acquire);
        let mark = ring.mark.load(Ordering::Relaxed);
        let since = head.saturating_sub(mark);
        if since == 0 {
            continue;
        }
        let available = since.min(ring.capacity as u64);
        let dropped = since - available;
        let mut records = Vec::with_capacity(available as usize);
        for seq in (head - available)..head {
            let base = (seq as usize % ring.capacity) * SLOT_WORDS;
            let w0 = ring.slots[base].load(Ordering::Relaxed);
            let w1 = ring.slots[base + 1].load(Ordering::Relaxed);
            let w2 = ring.slots[base + 2].load(Ordering::Relaxed);
            if let Some(r) = decode(w0, w1, w2, start_ns) {
                records.push(r);
            }
        }
        timelines.push(ThreadTimeline {
            thread: ring.id,
            records,
            dropped,
        });
    }
    // Rings whose thread exited (strong count 1: only the registry
    // holds them) have been fully drained; release their memory so
    // repeated traced cells don't accumulate dead rings.
    registry.retain(|ring| Arc::strong_count(ring) > 1);
    timelines.sort_by_key(|t| t.thread);
    TraceData { timelines }
}

/// Decode one slot; `None` for never-written or torn slots.
fn decode(w0: u64, w1: u64, w2: u64, start_ns: u64) -> Option<TraceRecord> {
    let sub = ((w2 >> 8) & 0xFF) as usize;
    let data = match w2 & 0xFF {
        class::SPAN => RecordData::Span {
            op: *SpanOp::ALL.get(sub)?,
            dur_ns: w1,
            ops: (w2 >> 32) as u32,
        },
        class::EVENT => RecordData::Event {
            event: *Event::ALL.get(sub)?,
            count: w1,
        },
        class::PHASE => RecordData::Phase {
            phase: *PhaseKind::ALL.get(sub)?,
            rep: (w2 >> 32) as u32,
        },
        _ => return None,
    };
    Some(TraceRecord {
        ts_ns: w0.saturating_sub(start_ns),
        data,
    })
}

#[inline]
fn push(w0: u64, w1: u64, w2: u64) {
    RING.with(|ring| ring.push(w0, w1, w2));
}

/// Record an operation span from `begin_ns` to `end_ns` (both from
/// [`now_ns`] / [`Anchor::ns_at`]) covering `ops` queue operations.
#[inline]
pub fn span(op: SpanOp, begin_ns: u64, end_ns: u64, ops: u32) {
    if !active() {
        return;
    }
    push(
        begin_ns,
        end_ns.saturating_sub(begin_ns),
        class::SPAN | ((op as u64) << 8) | ((ops as u64) << 32),
    );
}

/// Record a harness phase boundary for repetition `rep`.
#[inline]
pub fn phase(kind: PhaseKind, rep: u32) {
    if !active() {
        return;
    }
    push(
        now_ns(),
        0,
        class::PHASE | ((kind as u64) << 8) | ((rep as u64) << 32),
    );
}

/// Telemetry hook: called for every event the `telemetry` counters
/// record (see [`crate::telemetry::record_n`]). One relaxed load while
/// no trace is running.
#[inline]
pub fn on_event(event: Event, n: u64) {
    if !active() {
        return;
    }
    push(now_ns(), n, class::EVENT | ((event as u64) << 8));
}

/// Converts thread-local [`Instant`]s to epoch nanoseconds with **no
/// extra clock reads**: anchor once (one clock read), then `ns_at` is
/// pure arithmetic. The harness anchors next to its own
/// `Instant::now()` so existing timestamps are reused for spans.
#[derive(Clone, Copy, Debug)]
pub struct Anchor {
    base: Instant,
    base_ns: u64,
}

impl Anchor {
    /// Anchor at `base`, which must be at (or a few nanoseconds before)
    /// the current instant.
    #[inline]
    pub fn at(base: Instant) -> Self {
        Self {
            base,
            base_ns: now_ns(),
        }
    }

    /// Epoch nanoseconds of `at` (must not precede the anchor).
    #[inline]
    pub fn ns_at(&self, at: Instant) -> u64 {
        self.base_ns + at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Epoch nanoseconds of the anchor itself.
    #[inline]
    pub fn base_ns(&self) -> u64 {
        self.base_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        for op in SpanOp::ALL {
            assert!(op.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        for p in PhaseKind::ALL {
            assert!(p.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        assert_eq!(SpanOp::ALL[SpanOp::Flush as usize], SpanOp::Flush);
        assert_eq!(PhaseKind::ALL[PhaseKind::RepEnd as usize], PhaseKind::RepEnd);
    }

    #[test]
    fn anchor_is_monotone() {
        let base = Instant::now();
        let a = Anchor::at(base);
        let later = a.ns_at(Instant::now());
        assert!(later >= a.base_ns());
        // An instant before the anchor saturates instead of panicking.
        assert_eq!(a.ns_at(base), a.base_ns());
    }

    // These tests drive the global recorder, so they run in one #[test]
    // to avoid cross-test interference under the parallel test runner
    // (same discipline as the chaos tests). Tests elsewhere in the crate
    // may still record telemetry events from their own threads while a
    // trace is active, so assertions look only at this test's threads.
    #[test]
    fn record_drain_roundtrip_overflow_and_multithread() {
        assert!(!active(), "tracing must start disabled");
        // Records while inactive go nowhere.
        span(SpanOp::Insert, 0, 10, 1);

        // --- Roundtrip with every record class.
        start(1024);
        assert!(active());
        let t0 = now_ns();
        phase(PhaseKind::Prefill, 0);
        span(SpanOp::Insert, t0, t0 + 50, 1);
        span(SpanOp::OpBatch, t0 + 50, t0 + 150, 64);
        on_event(Event::SlsmPivotRebuild, 7);
        phase(PhaseKind::RepEnd, 0);
        let data = stop();
        assert!(!active());
        // This thread's timeline is the one holding the batch span.
        let mine = &data
            .timelines
            .iter()
            .find(|t| {
                t.records.iter().any(|r| {
                    r.data == RecordData::Span { op: SpanOp::OpBatch, dur_ns: 100, ops: 64 }
                })
            })
            .expect("this thread's timeline was drained")
            .records;
        assert_eq!(mine.len(), 5, "all five records drained: {mine:?}");
        assert!(mine.iter().any(|r| matches!(
            r.data,
            RecordData::Event { event: Event::SlsmPivotRebuild, count: 7 }
        )));
        assert!(mine.iter().any(|r| matches!(
            r.data,
            RecordData::Phase { phase: PhaseKind::Prefill, rep: 0 }
        )));
        // Timestamps are rebased to the cell start.
        for r in mine {
            assert!(r.ts_ns < 10_000_000_000, "ts {} not cell-relative", r.ts_ns);
        }

        // --- A second cell must not see the first cell's records, and
        // ring overflow keeps the newest records while counting drops.
        // `start`'s capacity applies to rings created after it (existing
        // rings keep theirs), so record from a fresh thread.
        start(16);
        let t1 = now_ns();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..40u32 {
                    span(SpanOp::DeleteMin, t1 + i as u64, t1 + i as u64 + 1, 1);
                }
            });
        });
        let data = stop();
        let tl = data
            .timelines
            .iter()
            .find(|t| t.dropped > 0)
            .expect("the fresh thread overflowed its ring");
        // Ring overflow kept the newest 16 and reported 24 dropped.
        assert_eq!(tl.records.len(), 16);
        assert_eq!(tl.dropped, 24);
        assert_eq!(data.dropped_total(), 24);
        for r in &tl.records {
            assert!(
                matches!(r.data, RecordData::Span { op: SpanOp::DeleteMin, .. }),
                "stale record leaked into second cell: {r:?}"
            );
        }
        let ops: Vec<u64> = tl.records.iter().map(|r| r.ts_ns).collect();
        assert!(ops.windows(2).all(|w| w[0] <= w[1]), "ring order chronological");

        // --- Worker threads get their own timelines; rings survive
        // thread exit until drained.
        start(1024);
        let base = now_ns();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    span(SpanOp::OpBatch, base, base + 10, 64);
                    on_event(Event::MqEmptySample, 1);
                });
            }
        });
        let data = stop();
        let with_batch = data
            .timelines
            .iter()
            .filter(|t| {
                t.records
                    .iter()
                    .any(|r| matches!(r.data, RecordData::Span { op: SpanOp::OpBatch, .. }))
            })
            .count();
        assert_eq!(with_batch, 3, "one timeline per worker: {:?}", data.timelines.len());
        for t in &data.timelines {
            assert_eq!(t.dropped, 0);
        }
        // Thread ids are unique.
        let mut ids: Vec<u64> = data.timelines.iter().map(|t| t.thread).collect();
        ids.dedup();
        assert_eq!(ids.len(), data.timelines.len());
    }
}
