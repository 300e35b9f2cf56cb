//! End-to-end flight-recorder test: run real harness cells and check
//! the recorder captures what the acceptance criteria demand — one
//! timeline per worker thread, op spans at batch granularity, phase
//! markers, and a Chrome-trace export with one named track per thread.
//! Without `trace::start`, the same cells must record nothing; with
//! it, queue events arrive whether or not event counting is on.

use std::sync::{Mutex, MutexGuard};

use harness::{run_latency, run_quality, run_throughput, QueueSpec};
use pq_bench::trace_export::looks_like_chrome_trace;
use pq_bench::TraceFile;
use pq_traits::trace::{self, PhaseKind, RecordData, SpanOp};
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyDistribution, Workload};

const OPS_PER_THREAD: u64 = 5_000;

fn cell_cfg(threads: usize) -> BenchConfig {
    BenchConfig {
        threads,
        workload: Workload::Uniform,
        key_dist: KeyDistribution::uniform(16),
        prefill: 2_000,
        stop: StopCondition::OpsPerThread(OPS_PER_THREAD),
        reps: 1,
        seed: 7,
    }
}

/// The recorder is process global: the tests in this file take turns
/// so one test's cell never lands in the other's capture.
fn recorder() -> MutexGuard<'static, ()> {
    static RECORDER: Mutex<()> = Mutex::new(());
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Default)]
struct SpanTotals {
    /// Sum of `ops` over `OpBatch` spans.
    batch_ops: u64,
    /// Number of `OpBatch` spans.
    batches: usize,
    /// Sum of `ops` over `Insert` and `DeleteMin` spans.
    single_ops: u64,
    flushes: usize,
}

fn span_totals<'a>(records: impl Iterator<Item = &'a trace::TraceRecord>) -> SpanTotals {
    let mut t = SpanTotals::default();
    for rec in records {
        if let RecordData::Span { op, ops, .. } = rec.data {
            match op {
                SpanOp::OpBatch => {
                    t.batch_ops += u64::from(ops);
                    t.batches += 1;
                }
                SpanOp::Insert | SpanOp::DeleteMin => t.single_ops += u64::from(ops),
                SpanOp::Flush => t.flushes += 1,
            }
        }
    }
    t
}

fn all_records(data: &trace::TraceData) -> impl Iterator<Item = &trace::TraceRecord> {
    data.timelines.iter().flat_map(|tl| tl.records.iter())
}

#[test]
fn trace_inactive_cell_records_nothing() {
    let _turn = recorder();
    assert!(!trace::active());
    run_throughput(QueueSpec::parse("multiqueue").unwrap(), &cell_cfg(2));
    let data = trace::stop();
    assert!(
        data.is_empty(),
        "{} records without trace::start",
        data.records_total()
    );
    assert_eq!(data.dropped_total(), 0);
    // The exporter still produces a well-formed (empty) file.
    let mut tf = TraceFile::new();
    tf.push_cell("cell", 2, data);
    assert!(looks_like_chrome_trace(&tf.to_json()));
}

/// The acceptance-criterion cell: a 4-thread throughput run whose
/// export must contain one track per worker thread.
#[test]
fn four_thread_cell_yields_one_track_per_thread() {
    const THREADS: usize = 4;
    let _turn = recorder();
    trace::start(trace::DEFAULT_CAPACITY);
    assert!(trace::active());
    let r = run_throughput(QueueSpec::parse("multiqueue").unwrap(), &cell_cfg(THREADS));
    let data = trace::stop();
    assert!(!trace::active());
    assert_eq!(r.per_rep_thread_ops[0].len(), THREADS);

    // Every worker thread produced a timeline holding op spans; the
    // coordinator produced the phase markers.
    let workers: Vec<SpanTotals> = data
        .timelines
        .iter()
        .map(|tl| span_totals(tl.records.iter()))
        .filter(|s| s.batches + s.flushes > 0)
        .collect();
    assert_eq!(workers.len(), THREADS, "one span timeline per worker");
    // The hot loop records one span per 64-op batch and nothing per
    // op: ⌈5000 / 64⌉ = 79 batches and the window-end flush, exactly.
    for w in &workers {
        assert_eq!(w.batches, OPS_PER_THREAD.div_ceil(64) as usize, "batch spans per worker");
        assert_eq!(w.flushes, 1, "one flush span per worker");
    }
    let phases: Vec<PhaseKind> = all_records(&data)
        .filter_map(|rec| match rec.data {
            RecordData::Phase { phase, .. } => Some(phase),
            _ => None,
        })
        .collect();
    assert!(phases.contains(&PhaseKind::Prefill), "missing prefill marker");
    assert!(phases.contains(&PhaseKind::Measure), "missing measure marker");
    assert!(phases.contains(&PhaseKind::RepEnd), "missing rep-end marker");

    // Worker spans account for every measured op: OpBatch spans carry
    // the per-batch op counts.
    let total_ops: u64 = r.per_rep_thread_ops[0].iter().sum();
    let spans = span_totals(all_records(&data));
    assert_eq!(spans.batch_ops, total_ops, "OpBatch spans must cover every op");
    assert_eq!(spans.single_ops, 0, "throughput records no per-op spans");

    // The quality and latency cells run on the same worker loop: each
    // measured op is counted in exactly one span (the exporter's
    // attribution sums `ops` over all span kinds) — batch spans for
    // quality, the timing probe's per-op spans *instead of* them for
    // latency.
    let measured = THREADS as u64 * OPS_PER_THREAD;
    trace::start(trace::DEFAULT_CAPACITY);
    run_quality(QueueSpec::parse("multiqueue").unwrap(), &cell_cfg(THREADS));
    let spans = span_totals(all_records(&trace::stop()));
    assert_eq!((spans.batch_ops, spans.single_ops), (measured, 0), "quality cell");
    assert_eq!(spans.flushes, THREADS, "quality: one flush span per worker");
    trace::start(trace::DEFAULT_CAPACITY);
    run_latency(QueueSpec::parse("multiqueue").unwrap(), &cell_cfg(THREADS));
    let spans = span_totals(all_records(&trace::stop()));
    assert_eq!((spans.batch_ops, spans.single_ops), (0, measured), "latency cell");
    assert_eq!(spans.flushes, THREADS, "latency: one flush span per worker");

    // The export names one track per timeline and stays loadable
    // (traceEvents + attribution alongside).
    let mut tf = TraceFile::new();
    let timelines = data.timelines.len();
    let dropped = data.dropped_total();
    tf.push_cell("fig4a multiqueue t4", THREADS, data);
    let json = tf.to_json();
    assert!(looks_like_chrome_trace(&json));
    assert_eq!(
        json.matches("\"name\":\"thread_name\"").count(),
        timelines,
        "one thread_name metadata record per timeline"
    );
    assert_eq!(tf.dropped_total(), dropped);

    // Consecutive cells are isolated: a fresh start discards the first
    // cell's records instead of leaking them.
    trace::start(trace::DEFAULT_CAPACITY);
    let second = trace::stop();
    assert!(
        second.is_empty(),
        "second cell inherited {} stale records",
        second.records_total()
    );
}

/// Queue events reach the recorder whether or not the counters are on:
/// a capture of a klsm cell with counting off (`--trace` alone, in any
/// build) holds the k-LSM's event instants beside its spans.
#[test]
fn trace_alone_captures_queue_events() {
    let _turn = recorder();
    // No other test in this binary counts events.
    pq_traits::telemetry::set_enabled(false);
    trace::start(trace::DEFAULT_CAPACITY);
    run_throughput(QueueSpec::parse("klsm256").unwrap(), &cell_cfg(2));
    let data = trace::stop();
    let events = all_records(&data)
        .filter(|rec| matches!(rec.data, RecordData::Event { .. }))
        .count();
    assert!(events > 0, "no queue event among {} records", data.records_total());
    assert!(span_totals(all_records(&data)).batches > 0);
}
