//! The latency benchmark — appendix F's alternative to throughput:
//! "a number of queue operations could be prescribed, and the time
//! (latency) for this number and mix of operations measured."
//!
//! Every operation's wall time is recorded into a per-thread
//! log-bucketed [`Histogram`] (merged at the end), so memory use is
//! constant in the operation count while percentiles stay within ~3 %
//! of exact. The result reports percentiles separately for insertions
//! and deletions, which exposes effects throughput averages hide (e.g.
//! the k-LSM's cheap thread-local fast path vs. its expensive SLSM
//! eviction slow path, or the GlobalLock's fair-but-serial tail).

use std::time::Instant;

use pq_traits::trace::{self, SpanOp};
use pq_traits::{Item, Key, PqHandle, Value};
use workloads::config::{StopCondition, PREFILL_TAG};
use workloads::BenchConfig;

use crate::registry::QueueSpec;
use crate::stats::Histogram;
use crate::throughput::{run_once, Probe};
use crate::with_queue;

/// Latency percentiles in nanoseconds, extracted from a [`Histogram`]
/// (within its ~3 % bucket resolution; `max` is exact).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyProfile {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum observed (exact).
    pub max: u64,
    /// Number of operations measured.
    pub n: usize,
}

impl LatencyProfile {
    /// Extract the standard percentile set from a histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        Self {
            p50: h.percentile(0.5),
            p90: h.percentile(0.9),
            p99: h.percentile(0.99),
            p999: h.percentile(0.999),
            max: h.max(),
            n: h.count() as usize,
        }
    }
}

impl std::fmt::Display for LatencyProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {}ns, p90 {}ns, p99 {}ns, p99.9 {}ns, max {}ns (n={})",
            self.p50, self.p90, self.p99, self.p999, self.max, self.n
        )
    }
}

/// Result of one latency configuration.
#[derive(Clone, Debug)]
pub struct LatencyResult {
    /// Queue display name.
    pub queue: String,
    /// Worker thread count.
    pub threads: usize,
    /// Insertion latencies.
    pub insert: LatencyProfile,
    /// Deletion latencies (successful and empty deletions alike).
    pub delete: LatencyProfile,
    /// Full insertion-latency histogram (merged over threads).
    pub insert_hist: Histogram,
    /// Full deletion-latency histogram (merged over threads).
    pub delete_hist: Histogram,
}

/// Run the latency benchmark: a fixed per-thread operation budget
/// (duration-based configs are converted to 20k ops/thread), timing each
/// operation individually.
pub fn run_latency(spec: QueueSpec, cfg: &BenchConfig) -> LatencyResult {
    let ops_per_thread = match cfg.stop {
        StopCondition::OpsPerThread(n) => n,
        StopCondition::Duration(_) => 20_000,
    };
    let cfg = BenchConfig {
        stop: StopCondition::OpsPerThread(ops_per_thread),
        ..cfg.clone()
    };
    let prefill = cfg.prefill_items(PREFILL_TAG);
    let new_probe = |_| TimingProbe {
        tracing: trace::active(),
        anchor: trace::Anchor::at(Instant::now()),
        ins: Histogram::new(),
        del: Histogram::new(),
    };
    let (_, probes) = with_queue!(spec, cfg.threads, q => run_once(&q, &cfg, 0, &prefill, new_probe));
    let (mut ins, mut del) = (Histogram::new(), Histogram::new());
    for p in &probes {
        ins.merge(&p.ins);
        del.merge(&p.del);
    }
    LatencyResult {
        queue: spec.name(),
        threads: cfg.threads,
        insert: LatencyProfile::from_histogram(&ins),
        delete: LatencyProfile::from_histogram(&del),
        insert_hist: ins,
        delete_hist: del,
    }
}

/// Times every operation into per-thread histograms (successful and
/// empty deletions alike).
struct TimingProbe {
    tracing: bool,
    anchor: trace::Anchor,
    ins: Histogram,
    del: Histogram,
}

impl TimingProbe {
    /// Flight recorder: this probe already timestamps every operation,
    /// so spans are recorded per op from the clock reads it has taken,
    /// in place of the loop's batch spans.
    #[inline]
    fn span(&self, op: SpanOp, started: Instant, dur: u64) {
        if self.tracing {
            let begin = self.anchor.ns_at(started);
            trace::span(op, begin, begin + dur, 1);
        }
    }
}

impl Probe for TimingProbe {
    const BATCH_SPANS: bool = false;

    #[inline]
    fn insert<H: PqHandle>(&mut self, h: &mut H, key: Key, value: Value) {
        let started = Instant::now();
        h.insert(key, value);
        let dur = started.elapsed().as_nanos() as u64;
        self.ins.record(dur);
        self.span(SpanOp::Insert, started, dur);
    }

    #[inline]
    fn delete_min<H: PqHandle>(&mut self, h: &mut H) -> Option<Item> {
        let started = Instant::now();
        let item = h.delete_min();
        let dur = started.elapsed().as_nanos() as u64;
        self.del.record(dur);
        self.span(SpanOp::DeleteMin, started, dur);
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{KeyDistribution, Workload};

    fn cfg(threads: usize) -> BenchConfig {
        BenchConfig {
            threads,
            workload: Workload::Uniform,
            key_dist: KeyDistribution::uniform(16),
            prefill: 2_000,
            stop: StopCondition::OpsPerThread(2_000),
            reps: 1,
            seed: 5,
        }
    }

    #[test]
    fn latency_profiles_are_populated() {
        let r = run_latency(QueueSpec::GlobalLock, &cfg(2));
        assert!(r.insert.n > 0 && r.delete.n > 0);
        assert!(r.insert.p50 > 0);
        assert!(r.insert.p50 <= r.insert.p90);
        assert!(r.insert.p90 <= r.insert.p99);
        assert!(r.insert.p99 <= r.insert.p999);
        assert!(r.insert.p999 <= r.insert.max);
        // The exported histograms carry the same sample counts.
        assert_eq!(r.insert_hist.count() as usize, r.insert.n);
        assert_eq!(r.delete_hist.count() as usize, r.delete.n);
    }

    #[test]
    fn every_measured_op_is_timed_and_prefill_is_not() {
        // Prefill far larger than the op budget: timing it would show
        // up as extra insert samples.
        let mut c = cfg(2);
        c.prefill = 20_000;
        c.stop = StopCondition::OpsPerThread(300);
        let r = run_latency(QueueSpec::MultiQueue(4, 1, 1), &c);
        assert_eq!(r.insert.n + r.delete.n, 2 * 300);
        assert!(r.insert.n > 0 && r.delete.n > 0);
    }

    #[test]
    fn klsm_insert_fast_path_beats_globallock_median() {
        // Thread-local insertion should have a very low median compared
        // to anything taking a shared lock... on a time-sliced host we
        // only assert both are measured and sane.
        let k = run_latency(QueueSpec::Klsm(256), &cfg(2));
        assert!(k.insert.n > 0);
        assert!(k.insert.p50 < 1_000_000, "median insert above 1ms is wrong");
    }

    #[test]
    fn profile_of_empty_is_zero() {
        let p = LatencyProfile::from_histogram(&Histogram::new());
        assert_eq!(p.n, 0);
        assert_eq!(p.max, 0);
    }

    #[test]
    fn profile_percentiles_of_known_sample() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p = LatencyProfile::from_histogram(&h);
        // Values below 64 are bucketed exactly; beyond that the answer
        // is within one sub-bucket (~3 %) of the sorted-sample result.
        assert_eq!(p.p50, 50);
        assert_eq!(p.p90, 90);
        assert!(p.p99.abs_diff(99) <= 3, "p99 = {}", p.p99);
        assert_eq!(p.max, 100);
        assert_eq!(p.n, 100);
    }
}
