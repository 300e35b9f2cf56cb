//! The throughput benchmark.
//!
//! "We prefill priority queues with 10⁶ elements prior the benchmark, and
//! then measure throughput for 10 seconds, finally reporting on the
//! number of operations performed per second" (appendix F). Each
//! configuration runs `reps` times; the mean and 95 % confidence interval
//! over repetitions are reported, as in the paper.
//!
//! In addition to the scalar ops/s number, each repetition records a
//! time-sliced series: per-thread operation counts sampled at a fixed
//! tick, aggregated into operations-completed-per-tick. A queue whose
//! throughput decays over the window (e.g. because relaxation lets it
//! race ahead early and degrade later) shows up as first-tick vs
//! last-tick drift, which [`ThroughputResult::steady_state_warning`]
//! flags when it exceeds 2×.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use pq_traits::trace::{self, PhaseKind, SpanOp};
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, Value};
use workloads::config::{StopCondition, PREFILL_TAG, VALUE_SHIFT};
use workloads::{BenchConfig, KeyGen, OpKind, OpStream, ThreadRole};

use crate::registry::QueueSpec;
use crate::stats::Summary;
use crate::with_queue;

/// Sampling tick for the time-sliced throughput series: a tenth of the
/// measurement window, clamped to [5 ms, 100 ms], so short smoke runs
/// still produce a usable number of ticks while long runs stay at the
/// conventional 100 ms resolution. Fixed-ops runs use a 10 ms tick.
fn tick_for(stop: &StopCondition) -> Duration {
    match stop {
        StopCondition::Duration(d) => {
            (*d / 10).clamp(Duration::from_millis(5), Duration::from_millis(100))
        }
        StopCondition::OpsPerThread(_) => Duration::from_millis(10),
    }
}

/// Result of one throughput configuration.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Queue display name.
    pub queue: String,
    /// Worker thread count.
    pub threads: usize,
    /// Operations per second, one entry per repetition.
    pub per_rep_ops_per_sec: Vec<f64>,
    /// Summary over repetitions.
    pub summary: Summary,
    /// Per-thread operation counts of every repetition (outer index =
    /// repetition). Exposes fairness (a queue whose slow path starves
    /// some threads shows a skewed distribution even when the total
    /// looks healthy), summarized over repetitions with a confidence
    /// interval like throughput.
    pub per_rep_thread_ops: Vec<Vec<u64>>,
    /// Sampling tick of the time-sliced series, in milliseconds.
    pub tick_ms: f64,
    /// Operations completed per tick, aggregated over threads, one inner
    /// series per repetition. The trailing partial tick is dropped.
    pub per_rep_ticks: Vec<Vec<u64>>,
}

impl ThroughputResult {
    /// Mean throughput in million operations per second (the paper's
    /// MOps/s axis).
    pub fn mops(&self) -> f64 {
        self.summary.mean / 1e6
    }

    /// Fairness as min/max of per-thread op counts in [0, 1]; 1.0 means
    /// perfectly even progress, small values mean starvation.
    fn fairness_of(counts: &[u64]) -> f64 {
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            min as f64 / max as f64
        }
    }

    /// Fairness of each repetition, in repetition order.
    pub fn fairness_per_rep(&self) -> Vec<f64> {
        self.per_rep_thread_ops
            .iter()
            .map(|c| Self::fairness_of(c))
            .collect()
    }

    /// Mean / sd / 95 % CI of fairness over repetitions, mirroring the
    /// throughput summary.
    pub fn fairness_summary(&self) -> Summary {
        Summary::of(&self.fairness_per_rep())
    }

    /// Worst first-tick vs last-tick throughput ratio (≥ 1) over all
    /// repetitions with at least two ticks, or `None` when no repetition
    /// has enough ticks to compare. A stalled tick (zero ops) reports
    /// infinity.
    pub fn drift_ratio(&self) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for ticks in &self.per_rep_ticks {
            if ticks.len() < 2 {
                continue;
            }
            let first = ticks[0] as f64;
            let last = ticks[ticks.len() - 1] as f64;
            let r = if first == 0.0 && last == 0.0 {
                1.0
            } else if first == 0.0 || last == 0.0 {
                f64::INFINITY
            } else {
                (first / last).max(last / first)
            };
            worst = Some(worst.map_or(r, |w| w.max(r)));
        }
        worst
    }

    /// A human-readable warning when throughput drifted more than 2×
    /// between the first and last tick of any repetition — a sign the
    /// measurement window never reached steady state and the scalar
    /// ops/s number is misleading.
    pub fn steady_state_warning(&self) -> Option<String> {
        let r = self.drift_ratio()?;
        if r > 2.0 {
            Some(format!(
                "{} @ {} threads: throughput drifted {:.2}x between first and last \
                 {:.0}ms tick; window may not be steady-state",
                self.queue, self.threads, r, self.tick_ms
            ))
        } else {
            None
        }
    }
}

/// One repetition's raw measurements.
pub(crate) struct RepOutcome {
    ops_per_sec: f64,
    per_thread: Vec<u64>,
    ticks: Vec<u64>,
}

/// What a worker does around each measured operation: the one point
/// where the latency benchmark differs from throughput.
/// Both methods *perform* the operation through the worker's handle;
/// the defaults add nothing, so the unit probe compiles to the bare
/// calls.
pub(crate) trait Probe: Send {
    /// Whether the loop records an `OpBatch` span per 64-op batch. A
    /// probe that records a span per operation itself turns this off,
    /// so a traced cell counts every measured op in exactly one span
    /// (the exporter's attribution sums `ops` over all span kinds).
    const BATCH_SPANS: bool = true;

    /// Insert `(key, value)` through `h`.
    #[inline]
    fn insert<H: PqHandle>(&mut self, h: &mut H, key: Key, value: Value) {
        h.insert(key, value);
    }

    /// Delete through `h` and return what the queue returned.
    #[inline]
    fn delete_min<H: PqHandle>(&mut self, h: &mut H) -> Option<Item> {
        h.delete_min()
    }
}

/// The throughput benchmark observes nothing per operation.
impl Probe for () {}

/// Run the full throughput benchmark for one queue and configuration.
pub fn run_throughput(spec: QueueSpec, cfg: &BenchConfig) -> ThroughputResult {
    let prefill = cfg.prefill_items(PREFILL_TAG);
    let mut reps = Vec::with_capacity(cfg.reps);
    for rep in 0..cfg.reps {
        reps.push(with_queue!(spec, cfg.threads, q => run_once::<_, _, false>(&q, cfg, rep, &prefill, |_| (), || ()).0));
    }
    assemble(spec.name(), cfg, reps)
}

/// Like [`run_throughput`], but for a caller-constructed queue type
/// outside the registry: `make` builds a fresh queue for each
/// repetition. Used e.g. to A/B a queue against its
/// [`pq_traits::Instrumented`] wrapper when measuring wrapper overhead.
pub fn run_throughput_with<Q: ConcurrentPq>(
    name: &str,
    make: impl Fn() -> Q,
    cfg: &BenchConfig,
) -> ThroughputResult {
    let prefill = cfg.prefill_items(PREFILL_TAG);
    let mut reps = Vec::with_capacity(cfg.reps);
    for rep in 0..cfg.reps {
        let q = make();
        reps.push(run_once::<_, _, false>(&q, cfg, rep, &prefill, |_| (), || ()).0);
    }
    assemble(name.to_owned(), cfg, reps)
}

fn assemble(queue: String, cfg: &BenchConfig, reps: Vec<RepOutcome>) -> ThroughputResult {
    let per_rep_ops_per_sec: Vec<f64> = reps.iter().map(|r| r.ops_per_sec).collect();
    let per_rep_thread_ops: Vec<Vec<u64>> =
        reps.iter().map(|r| r.per_thread.clone()).collect();
    let per_rep_ticks: Vec<Vec<u64>> = reps.into_iter().map(|r| r.ticks).collect();
    ThroughputResult {
        queue,
        threads: cfg.threads,
        summary: Summary::of(&per_rep_ops_per_sec),
        per_rep_ops_per_sec,
        per_rep_thread_ops,
        tick_ms: tick_for(&cfg.stop).as_secs_f64() * 1e3,
        per_rep_ticks,
    }
}

/// Sum per-thread cumulative tick series into one aggregate
/// ops-per-tick series. Threads that stopped sampling early (shorter
/// series) are padded with their final total, so later ticks still
/// account for all threads' completed work.
fn aggregate_ticks(series: &[Vec<u64>], totals: &[u64]) -> Vec<u64> {
    let len = series.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(len);
    let mut prev = 0u64;
    for i in 0..len {
        let cum: u64 = series
            .iter()
            .zip(totals)
            .map(|(s, &total)| s.get(i).copied().unwrap_or(total))
            .sum();
        out.push(cum.saturating_sub(prev));
        prev = cum;
    }
    out
}

/// One repetition of every benchmark in this crate, and the checker's
/// recorded run — the only function that spawns workers. Each worker
/// inserts its chunk of `prefill` through its own handle, waits at the
/// prefill barrier, builds its probe (`probe(thread)` — after the
/// prefill, so prefill is never timed), waits for the start signal,
/// runs the mixed workload until `cfg.stop`, and flushes its handle
/// outside the measured window. With `DRAIN`, the workers then meet at
/// the barrier, the main thread calls `at_drain` while they are parked,
/// and each worker deletes through its handle until `None` and flushes
/// again. `DRAIN` is a const so that the benchmarks' instantiations
/// compile without the drain: as a run-time flag it changed the code
/// generated around the measured loop and slowed the throughput cells
/// (EXPERIMENTS.md "One worker loop for the checker"). Returns
/// operations per second over the window, per-thread operation counts,
/// the aggregated time-sliced series, and the probes in thread order.
pub(crate) fn run_once<Q: ConcurrentPq, P: Probe, const DRAIN: bool>(
    q: &Q,
    cfg: &BenchConfig,
    rep: usize,
    prefill: &[Item],
    probe: impl Fn(usize) -> P + Sync,
    at_drain: impl FnOnce(),
) -> (RepOutcome, Vec<P>) {
    let rep_seed = cfg.seed ^ (rep as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let threads = cfg.threads;
    let tick = tick_for(&cfg.stop);
    // Whichever of the two the stop condition leaves open never ends
    // the loop.
    let (budget, window) = match cfg.stop {
        StopCondition::OpsPerThread(n) => (n, Duration::MAX),
        StopCondition::Duration(d) => (u64::MAX, d),
    };
    let barrier = Barrier::new(threads + 1);
    let (barrier, probe) = (&barrier, &probe);

    // Per worker: (ops performed, window length in ns, cumulative op
    // count at each elapsed tick boundary, probe).
    let workers: Vec<(u64, u64, Vec<u64>, P)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let chunk = &prefill[t * prefill.len() / threads..(t + 1) * prefill.len() / threads];
                scope.spawn(move || {
                    let mut h = q.handle();
                    for it in chunk {
                        h.insert(it.key, it.value);
                    }
                    let role = ThreadRole::for_thread(cfg.workload, t, threads);
                    let mut ops = OpStream::new(role, rep_seed, t as u64);
                    let mut keys = KeyGen::new(cfg.key_dist, rep_seed, t as u64);
                    let mut next_value = (t as u64) << VALUE_SHIFT;
                    barrier.wait(); // prefill complete
                    let mut probe = probe(t);
                    barrier.wait(); // start signal
                    let started = Instant::now();
                    // Flight recorder: one OpBatch span per 64-op batch,
                    // reusing the per-batch `started.elapsed()` read the
                    // tick sampler already pays for — no extra clock reads
                    // in the hot loop (and nothing at all while inactive).
                    let tracing = trace::active();
                    let batch_spans = tracing && P::BATCH_SPANS;
                    let anchor = trace::Anchor::at(started);
                    let mut span_begin = anchor.base_ns();
                    let mut count = 0u64;
                    let mut ticks: Vec<u64> = Vec::new();
                    let mut next_tick = tick;
                    loop {
                        let batch = 64.min(budget - count);
                        for _ in 0..batch {
                            perform(&mut h, &mut probe, &mut ops, &mut keys, &mut next_value);
                        }
                        count += batch;
                        let elapsed = started.elapsed();
                        if batch_spans {
                            let end = anchor.base_ns() + elapsed.as_nanos() as u64;
                            trace::span(SpanOp::OpBatch, span_begin, end, batch as u32);
                            span_begin = end;
                        }
                        while elapsed >= next_tick {
                            ticks.push(count);
                            next_tick += tick;
                        }
                        if count >= budget || elapsed >= window {
                            break;
                        }
                    }
                    let ns = started.elapsed().as_nanos() as u64;
                    // Commit handle-buffered operations outside the timed
                    // window so buffered queues neither lose items nor get
                    // credited for uncommitted work.
                    h.flush();
                    if tracing {
                        trace::span(
                            SpanOp::Flush,
                            anchor.base_ns() + ns,
                            anchor.ns_at(Instant::now()),
                            1,
                        );
                    }
                    if DRAIN {
                        barrier.wait(); // window closed and flushed
                        barrier.wait(); // main ran `at_drain`
                        while h.delete_min().is_some() {}
                        h.flush();
                    }
                    (count, ns, ticks, probe)
                })
            })
            .collect();
        trace::phase(PhaseKind::Prefill, rep as u32);
        barrier.wait(); // wait for prefill
        trace::phase(PhaseKind::Measure, rep as u32);
        barrier.wait(); // release the workers
        if DRAIN {
            barrier.wait(); // workers flushed
            at_drain();
            barrier.wait(); // release them into the drain
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    trace::phase(PhaseKind::RepEnd, rep as u32);

    let (mut counts, mut series, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut window_ns = 0u64;
    for (count, ns, ticks, probe) in workers {
        counts.push(count);
        window_ns = window_ns.max(ns);
        series.push(ticks);
        probes.push(probe);
    }
    let ops = counts.iter().sum::<u64>() as f64;
    let secs = window_ns as f64 / 1e9;
    let outcome = RepOutcome {
        ops_per_sec: if secs > 0.0 { ops / secs } else { 0.0 },
        ticks: aggregate_ticks(&series, &counts),
        per_thread: counts,
    };
    (outcome, probes)
}

#[inline]
fn perform<H: PqHandle, P: Probe>(
    h: &mut H,
    probe: &mut P,
    ops: &mut OpStream,
    keys: &mut KeyGen,
    next_value: &mut u64,
) {
    match ops.next_op() {
        OpKind::Insert => {
            let key = keys.next_key();
            probe.insert(h, key, *next_value);
            *next_value += 1;
        }
        OpKind::DeleteMin => {
            if let Some(item) = probe.delete_min(h) {
                keys.observe_delete(item.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{KeyDistribution, Workload};

    fn tiny_cfg(threads: usize) -> BenchConfig {
        BenchConfig {
            threads,
            workload: Workload::Uniform,
            key_dist: KeyDistribution::uniform(16),
            prefill: 2_000,
            stop: StopCondition::Duration(Duration::from_millis(20)),
            reps: 2,
            seed: 11,
        }
    }

    #[test]
    fn reports_positive_throughput_for_every_queue() {
        for spec in [
            QueueSpec::Klsm(128),
            QueueSpec::Linden,
            QueueSpec::Spray,
            QueueSpec::MultiQueue(4, 1, 1),
            QueueSpec::GlobalLock,
        ] {
            let r = run_throughput(spec, &tiny_cfg(2));
            assert_eq!(r.per_rep_ops_per_sec.len(), 2);
            assert!(r.summary.mean > 0.0, "{spec} reported zero throughput");
        }
    }

    #[test]
    fn split_workload_runs() {
        let mut cfg = tiny_cfg(2);
        cfg.workload = Workload::Split;
        let r = run_throughput(QueueSpec::MultiQueue(4, 1, 1), &cfg);
        assert!(r.summary.mean > 0.0);
    }

    #[test]
    fn ops_per_thread_mode_counts_exactly() {
        let mut cfg = tiny_cfg(2);
        cfg.stop = StopCondition::OpsPerThread(1_000);
        cfg.reps = 1;
        let r = run_throughput(QueueSpec::GlobalLock, &cfg);
        // ops/s positive and finite; exact count is 2 × 1000 over the
        // measured window.
        assert!(r.summary.mean.is_finite() && r.summary.mean > 0.0);
    }

    #[test]
    fn ascending_keys_run() {
        let mut cfg = tiny_cfg(2);
        cfg.key_dist = KeyDistribution::ascending();
        let r = run_throughput(QueueSpec::Klsm(256), &cfg);
        assert!(r.summary.mean > 0.0);
    }

    #[test]
    fn last_rep_thread_ops_and_fairness_reported() {
        let mut cfg = tiny_cfg(2);
        cfg.stop = StopCondition::OpsPerThread(500);
        cfg.reps = 1;
        let r = run_throughput(QueueSpec::MultiQueue(4, 1, 1), &cfg);
        let last = r.per_rep_thread_ops.last().expect("one rep recorded");
        // Fixed-ops mode: both threads do exactly 500 ops → fairness 1.
        assert_eq!(last, &vec![500, 500]);
        assert_eq!(ThroughputResult::fairness_of(last), 1.0);
        assert_eq!(r.fairness_per_rep(), vec![1.0]);
    }

    #[test]
    fn last_rep_thread_ops_kept_for_every_rep() {
        let mut cfg = tiny_cfg(2);
        cfg.stop = StopCondition::OpsPerThread(400);
        cfg.reps = 3;
        let r = run_throughput(QueueSpec::MultiQueue(4, 1, 1), &cfg);
        // Every rep's counts are kept, not only the last one's.
        assert_eq!(r.per_rep_thread_ops.len(), 3);
        // Fixed-ops mode: both threads do exactly 400 ops → fairness 1.
        for rep in &r.per_rep_thread_ops {
            assert_eq!(rep, &vec![400, 400]);
        }
        assert_eq!(r.fairness_per_rep(), vec![1.0; 3]);
        assert_eq!(r.fairness_summary().mean, 1.0);
    }

    #[test]
    fn per_rep_thread_ops_reconcile_with_each_reps_total() {
        // Regression for the old `per_thread_ops` field, which silently
        // held only the last repetition while reading like an aggregate:
        // every repetition's per-thread counts must sum to that rep's
        // total (exact in fixed-ops mode).
        let mut cfg = tiny_cfg(3);
        cfg.stop = StopCondition::OpsPerThread(250);
        cfg.reps = 4;
        let r = run_throughput(QueueSpec::GlobalLock, &cfg);
        assert_eq!(r.per_rep_thread_ops.len(), 4);
        for (i, rep) in r.per_rep_thread_ops.iter().enumerate() {
            assert_eq!(rep.len(), 3, "rep {i} thread count");
            assert_eq!(rep.iter().sum::<u64>(), 3 * 250, "rep {i} total");
            // The tick series of the same rep never exceeds its total.
            assert!(r.per_rep_ticks[i].iter().sum::<u64>() <= 3 * 250);
        }
        let all_reps_sum: u64 = r
            .per_rep_thread_ops
            .iter()
            .flat_map(|rep| rep.iter())
            .sum();
        assert_eq!(all_reps_sum, 4 * 3 * 250);
    }

    #[test]
    fn buffered_queue_conserves_items_across_window_flush() {
        // mq-sticky buffers up to m inserts per handle; the harness
        // flush at window end must commit them so nothing is lost.
        let mut cfg = tiny_cfg(2);
        cfg.stop = StopCondition::OpsPerThread(2_000);
        cfg.reps = 1;
        let r = run_throughput(QueueSpec::MultiQueue(4, 8, 16), &cfg);
        assert!(r.summary.mean > 0.0);
    }

    #[test]
    fn time_sliced_series_has_expected_ticks() {
        // 100 ms window → 10 ms tick → ~10 ticks; require at least 5 so
        // the series is usable for drift detection, and check the series
        // never exceeds the total op count.
        let mut cfg = tiny_cfg(2);
        cfg.stop = StopCondition::Duration(Duration::from_millis(100));
        cfg.reps = 1;
        let r = run_throughput(QueueSpec::MultiQueue(4, 1, 1), &cfg);
        assert_eq!(r.tick_ms, 10.0);
        assert_eq!(r.per_rep_ticks.len(), 1);
        let ticks = &r.per_rep_ticks[0];
        assert!(ticks.len() >= 5, "only {} ticks in a 100ms window", ticks.len());
        let total: u64 = r.per_rep_thread_ops[0].iter().sum();
        assert!(ticks.iter().sum::<u64>() <= total);
        assert!(ticks.iter().any(|&t| t > 0), "all ticks empty");
    }

    #[test]
    fn tick_adapts_to_short_windows() {
        assert_eq!(
            tick_for(&StopCondition::Duration(Duration::from_millis(150))),
            Duration::from_millis(15)
        );
        // Clamped below and above.
        assert_eq!(
            tick_for(&StopCondition::Duration(Duration::from_millis(10))),
            Duration::from_millis(5)
        );
        assert_eq!(
            tick_for(&StopCondition::Duration(Duration::from_secs(10))),
            Duration::from_millis(100)
        );
        assert_eq!(
            tick_for(&StopCondition::OpsPerThread(1_000)),
            Duration::from_millis(10)
        );
    }

    #[test]
    fn aggregate_ticks_pads_short_series_with_totals() {
        // Thread 0 sampled three ticks; thread 1 finished after one.
        let series = vec![vec![10, 20, 30], vec![5]];
        let totals = vec![35, 8];
        // Cumulative: [15, 28, 38] → per-tick [15, 13, 10].
        assert_eq!(aggregate_ticks(&series, &totals), vec![15, 13, 10]);
        // No threads sampled anything → empty series.
        assert_eq!(aggregate_ticks(&[vec![], vec![]], &totals), Vec::<u64>::new());
    }

    #[test]
    fn run_throughput_with_matches_registry_shape() {
        let mut cfg = tiny_cfg(2);
        cfg.stop = StopCondition::OpsPerThread(500);
        cfg.reps = 2;
        let r = run_throughput_with(
            "custom-mq",
            || multiqueue_pq::MultiQueue::new(2, 2, 1, 1),
            &cfg,
        );
        assert_eq!(r.queue, "custom-mq");
        assert_eq!(r.per_rep_ops_per_sec.len(), 2);
        assert!(r.summary.mean > 0.0);
        assert_eq!(r.per_rep_thread_ops, vec![vec![500, 500]; 2]);
    }

    #[test]
    fn drift_ratio_flags_unsteady_windows() {
        let mk = |ticks: Vec<Vec<u64>>| ThroughputResult {
            queue: "x".into(),
            threads: 2,
            per_rep_ops_per_sec: vec![],
            summary: crate::Summary::of(&[]),
            per_rep_thread_ops: vec![],
            tick_ms: 10.0,
            per_rep_ticks: ticks,
        };
        // Steady: ratio close to 1, no warning.
        let steady = mk(vec![vec![100, 95, 105, 100]]);
        assert!(steady.drift_ratio().unwrap() < 1.2);
        assert!(steady.steady_state_warning().is_none());
        // 3x decay between first and last tick: warn.
        let decaying = mk(vec![vec![300, 200, 150, 100]]);
        assert!((decaying.drift_ratio().unwrap() - 3.0).abs() < 1e-9);
        assert!(decaying.steady_state_warning().is_some());
        // Stalled final tick: infinite drift.
        let stalled = mk(vec![vec![300, 0]]);
        assert!(stalled.drift_ratio().unwrap().is_infinite());
        // Not enough ticks to compare.
        assert!(mk(vec![vec![42]]).drift_ratio().is_none());
        assert!(mk(vec![]).steady_state_warning().is_none());
    }

    #[test]
    fn fairness_of_empty_result_is_zero() {
        let r = ThroughputResult {
            queue: "x".into(),
            threads: 0,
            per_rep_ops_per_sec: vec![],
            summary: crate::Summary::of(&[]),
            per_rep_thread_ops: vec![],
            tick_ms: 0.0,
            per_rep_ticks: vec![],
        };
        assert_eq!(ThroughputResult::fairness_of(&[]), 0.0);
        assert!(r.fairness_per_rep().is_empty());
    }
}
