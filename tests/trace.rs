//! End-to-end flight-recorder test: run real harness cells with the
//! trace feature active and check the recorder captures what the
//! acceptance criteria demand — one timeline per worker thread, op
//! spans, phase markers, and a Chrome-trace export with one named track
//! per thread. With the feature off, the same API must be callable and
//! record nothing.

use harness::{run_throughput, QueueSpec};
use pq_bench::TraceFile;
use pq_traits::trace;
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyDistribution, Workload};

fn cell_cfg(threads: usize) -> BenchConfig {
    BenchConfig {
        threads,
        workload: Workload::Uniform,
        key_dist: KeyDistribution::uniform(16),
        prefill: 2_000,
        stop: StopCondition::OpsPerThread(5_000),
        reps: 1,
        seed: 7,
    }
}

#[cfg(not(feature = "trace"))]
#[test]
fn trace_disabled_is_zero_cost_and_empty() {
    assert!(!trace::compiled());
    trace::start(trace::DEFAULT_CAPACITY);
    assert!(!trace::active());
    run_throughput(QueueSpec::parse("multiqueue").unwrap(), &cell_cfg(2));
    let data = trace::stop();
    assert!(data.is_empty());
    assert_eq!(data.dropped_total(), 0);
    // The exporter still produces a well-formed (empty) file.
    let mut tf = TraceFile::new();
    tf.push_cell("cell", 2, data);
    assert!(tf.to_json().contains("\"traceEvents\""));
}

#[cfg(feature = "trace")]
mod traced {
    use super::*;
    use harness::{run_latency, run_quality};
    use pq_traits::trace::{PhaseKind, RecordData, SpanOp};

    #[derive(Default)]
    struct SpanTotals {
        /// Sum of `ops` over `OpBatch` spans.
        batch_ops: u64,
        /// Sum of `ops` over `Insert` and `DeleteMin` spans.
        single_ops: u64,
        flushes: usize,
    }

    fn span_totals(data: &trace::TraceData) -> SpanTotals {
        let mut t = SpanTotals::default();
        for rec in data.timelines.iter().flat_map(|tl| tl.records.iter()) {
            if let RecordData::Span { op, ops, .. } = rec.data {
                match op {
                    SpanOp::OpBatch => t.batch_ops += u64::from(ops),
                    SpanOp::Insert | SpanOp::DeleteMin => t.single_ops += u64::from(ops),
                    SpanOp::Flush => t.flushes += 1,
                }
            }
        }
        t
    }

    /// The acceptance-criterion cell: a 4-thread throughput run whose
    /// export must contain one track per worker thread.
    #[test]
    fn four_thread_cell_yields_one_track_per_thread() {
        const THREADS: usize = 4;
        assert!(trace::compiled());
        trace::start(trace::DEFAULT_CAPACITY);
        assert!(trace::active());
        let r = run_throughput(QueueSpec::parse("multiqueue").unwrap(), &cell_cfg(THREADS));
        let data = trace::stop();
        assert!(!trace::active());
        assert_eq!(r.last_rep_thread_ops.len(), THREADS);

        // Every worker thread produced a timeline holding op spans; the
        // coordinator produced the phase markers.
        let span_timelines = data
            .timelines
            .iter()
            .filter(|tl| {
                tl.records
                    .iter()
                    .any(|rec| matches!(rec.data, RecordData::Span { .. }))
            })
            .count();
        assert_eq!(span_timelines, THREADS, "one span timeline per worker");
        let phases: Vec<PhaseKind> = data
            .timelines
            .iter()
            .flat_map(|tl| tl.records.iter())
            .filter_map(|rec| match rec.data {
                RecordData::Phase { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        assert!(phases.contains(&PhaseKind::Prefill), "missing prefill marker");
        assert!(phases.contains(&PhaseKind::Measure), "missing measure marker");
        assert!(phases.contains(&PhaseKind::RepEnd), "missing rep-end marker");

        // Worker spans account for every measured op: OpBatch spans
        // carry the per-batch op counts, plus one flush span per worker.
        let total_ops: u64 = r.last_rep_thread_ops.iter().sum();
        let spans = span_totals(&data);
        assert_eq!(spans.batch_ops, total_ops, "OpBatch spans must cover every op");
        assert_eq!(spans.single_ops, 0, "throughput records no per-op spans");
        assert_eq!(spans.flushes, THREADS, "one flush span per worker");

        // The quality and latency cells run on the same worker loop:
        // each measured op is counted in exactly one span (the
        // exporter's attribution sums `ops` over all span kinds) —
        // batch spans for quality, the timing probe's per-op spans
        // *instead of* them for latency.
        let measured = (THREADS * 5_000) as u64;
        trace::start(trace::DEFAULT_CAPACITY);
        run_quality(QueueSpec::parse("multiqueue").unwrap(), &cell_cfg(THREADS));
        let spans = span_totals(&trace::stop());
        assert_eq!((spans.batch_ops, spans.single_ops), (measured, 0), "quality cell");
        assert_eq!(spans.flushes, THREADS, "quality: one flush span per worker");
        trace::start(trace::DEFAULT_CAPACITY);
        run_latency(QueueSpec::parse("multiqueue").unwrap(), &cell_cfg(THREADS));
        let spans = span_totals(&trace::stop());
        assert_eq!((spans.batch_ops, spans.single_ops), (0, measured), "latency cell");
        assert_eq!(spans.flushes, THREADS, "latency: one flush span per worker");

        // The export names one track per timeline and stays loadable
        // (traceEvents + attribution alongside).
        let mut tf = TraceFile::new();
        let timelines = data.timelines.len();
        let dropped = data.dropped_total();
        tf.push_cell("fig4a multiqueue t4", THREADS, data);
        let json = tf.to_json();
        assert!(pq_bench::trace_export::looks_like_chrome_trace(&json));
        assert_eq!(
            json.matches("\"name\":\"thread_name\"").count(),
            timelines,
            "one thread_name metadata record per timeline"
        );
        assert_eq!(tf.dropped_total(), dropped);

        // Consecutive cells are isolated: a fresh start discards the
        // first cell's records instead of leaking them. (Kept in the
        // same #[test] as the cell above — the recorder is process
        // global, so parallel test threads must not share it.)
        trace::start(trace::DEFAULT_CAPACITY);
        let second = trace::stop();
        assert!(
            second.is_empty(),
            "second cell inherited {} stale records",
            second.records_total()
        );
    }
}
