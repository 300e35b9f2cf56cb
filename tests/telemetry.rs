//! Integration tests for the observability layer.
//!
//! The ungated tests reconcile the [`Instrumented`] wrapper's sharded
//! per-handle counters against the exact operation counts the harness
//! performed. The `telemetry`-feature-gated tests drive each queue into
//! its instrumented slow path and check the process-global event
//! counters move; with the feature disabled, the same call sites must
//! compile to nothing and the snapshot stays zero.

use std::sync::{Arc, Mutex};

use harness::run_throughput_with;
use pq_traits::{ConcurrentPq, Instrumented};
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyDistribution, Workload};

type Mq = multiqueue_pq::MultiQueue;

/// Delegating adapter so the test can keep each repetition's
/// [`Instrumented`] queue alive (and readable) after
/// `run_throughput_with` drops the per-rep queue it was handed.
struct Probe(Arc<Instrumented<Mq>>);

impl ConcurrentPq for Probe {
    type Handle<'a> = <Instrumented<Mq> as ConcurrentPq>::Handle<'a>;

    fn handle(&self) -> Self::Handle<'_> {
        self.0.handle()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

#[test]
fn instrumented_counts_reconcile_with_harness_op_counts() {
    const PREFILL: usize = 2_000;
    const OPS: u64 = 5_000;
    const THREADS: usize = 2;
    const REPS: usize = 2;
    let captured: Arc<Mutex<Vec<Arc<Instrumented<Mq>>>>> = Arc::new(Mutex::new(Vec::new()));
    let cfg = BenchConfig {
        threads: THREADS,
        workload: Workload::Uniform,
        key_dist: KeyDistribution::uniform(16),
        prefill: PREFILL,
        stop: StopCondition::OpsPerThread(OPS),
        reps: REPS,
        seed: 42,
    };
    let sink = Arc::clone(&captured);
    let r = run_throughput_with(
        "probe",
        move || {
            let q = Arc::new(Instrumented::new(Mq::new(2, THREADS, 1, 1)));
            sink.lock().unwrap().push(Arc::clone(&q));
            Probe(q)
        },
        &cfg,
    );
    // Fixed-ops mode: the harness performed exactly OPS ops per thread.
    assert_eq!(r.last_rep_thread_ops, vec![OPS; THREADS]);
    let queues = captured.lock().unwrap();
    assert_eq!(queues.len(), REPS);
    for q in queues.iter() {
        let c = q.counts();
        // Every harness operation — prefill inserts plus the workload
        // mix — went through an instrumented handle, so the wrapper's
        // totals must reconcile exactly with the op counts the
        // ThroughputResult reports.
        assert_eq!(
            c.total(),
            PREFILL as u64 + THREADS as u64 * OPS,
            "inserts {} + deletes {} + empty {} != prefill + threads * ops",
            c.inserts,
            c.deletes,
            c.empty_deletes
        );
        assert!(c.inserts >= PREFILL as u64, "prefill not counted");
        // The harness flushes each worker's handle at window end.
        assert!(c.flushes >= THREADS as u64, "flushes {} < {THREADS}", c.flushes);
    }
}

#[cfg(not(feature = "telemetry"))]
#[test]
fn telemetry_disabled_records_nothing_through_queues() {
    use pq_traits::PqHandle;

    let q = multiqueue_pq::MultiQueue::new(4, 1, 8, 16);
    let mut h = q.handle();
    for k in 0..100u64 {
        h.insert(k, k);
    }
    h.flush();
    while h.delete_min().is_some() {}
    assert!(!pq_traits::telemetry::enabled());
    assert!(pq_traits::telemetry::snapshot().is_zero());
}

#[cfg(feature = "telemetry")]
mod events {
    use super::Mq;
    use pq_traits::telemetry::{self, Event};
    use pq_traits::{ConcurrentPq, PqHandle};

    // Each test below asserts on the delta of event families no other
    // test in this binary touches, so parallel test threads cannot
    // contaminate each other's counts.

    /// Serialises the two tests that count buffer flushes: one of them
    /// asserts a zero delta, which a parallel flush would break.
    static FLUSH_COUNTING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn sticky_buffer_flush_items_match_committed_inserts() {
        let _serial = FLUSH_COUNTING.lock().unwrap_or_else(|e| e.into_inner());
        let before = telemetry::snapshot();
        let q = multiqueue_pq::MultiQueue::new(4, 2, 8, 16);
        let mut h = q.handle();
        for k in 0..10u64 {
            h.insert(k, k);
        }
        // m=16 not reached: all ten items still sit in the buffer.
        assert_eq!(h.flush(), 10);
        let delta = telemetry::snapshot().since(&before);
        assert!(delta.get(Event::MqBufferFlush) >= 1);
        assert_eq!(delta.get(Event::MqBufferFlushItems), 10);
    }

    #[test]
    fn unbuffered_multiqueue_records_no_buffer_flush() {
        let _serial = FLUSH_COUNTING.lock().unwrap_or_else(|e| e.into_inner());
        let before = telemetry::snapshot();
        let q = Mq::new(4, 1, 1, 1);
        let mut h = q.handle();
        for k in 0..100u64 {
            h.insert(k, k);
        }
        // m = 1: every insert commits on its own, so nothing is buffered.
        assert_eq!(h.flush(), 0);
        let delta = telemetry::snapshot().since(&before);
        assert_eq!(delta.get(Event::MqBufferFlush), 0);
        assert_eq!(delta.get(Event::MqBufferFlushItems), 0);
        assert_eq!(q.len_quiescent(), 100);
    }

    #[test]
    fn dlsm_spy_events_recorded() {
        let before = telemetry::snapshot();
        let d = klsm::dlsm::Dlsm::new(2);
        let mut h1 = d.handle();
        let mut h2 = d.handle();
        for k in 0..100u64 {
            h1.insert(k, k);
        }
        // h2's local LSM is empty: the deletion must spy from h1.
        assert!(h2.delete_min().is_some());
        let delta = telemetry::snapshot().since(&before);
        assert!(delta.get(Event::DlsmSpyAttempt) >= 1);
        assert!(delta.get(Event::DlsmSpySteal) >= 1);
        assert!(delta.get(Event::DlsmSpyItems) >= 1);
        assert!(delta.get(Event::DlsmSpyItems) <= 100);
    }

    #[test]
    fn slsm_pivot_rebuild_recorded_on_drain() {
        let before = telemetry::snapshot();
        let s = klsm::slsm::Slsm::new(0);
        let mut h = s.handle();
        for k in 0..64u64 {
            h.insert(k, k);
        }
        // k = 0 keeps the pivot range at a single item, so draining
        // repeatedly exhausts and rebuilds it.
        let mut drained = 0;
        while h.delete_min().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 64);
        let delta = telemetry::snapshot().since(&before);
        assert!(
            delta.get(Event::SlsmPivotRebuild) >= 1,
            "no pivot rebuild over {drained} deletions"
        );
    }

    /// Guards the SLSM probe mechanism by count, not by time: at P = 1
    /// the op stream, and so every count, repeats exactly. Without the
    /// seen-taken bitmap a probe re-reads the taken entries earlier
    /// pivots left behind (70–600 flag reads per call at k = 256);
    /// without the snapshot check every deletion probes. The local side
    /// wins more often as deletions eat into the prefill (29 % of calls
    /// shortcut after 2·10⁵ ops, 63 % after 10⁶), hence 10⁶ ops.
    #[test]
    fn slsm_probe_reads_few_flags_and_mostly_shortcuts() {
        use rand::{Rng, SeedableRng};

        let before = telemetry::snapshot();
        let q = klsm::Klsm::new(256, 1);
        let mut h = q.handle();
        let mut r = rand::rngs::SmallRng::seed_from_u64(26);
        for v in 0..100_000u64 {
            h.insert(r.gen::<u32>() as u64, v);
        }
        let mut deletes = 0u64;
        for v in 100_000..1_100_000u64 {
            if r.gen_bool(0.5) {
                h.insert(r.gen::<u32>() as u64, v);
            } else {
                assert!(h.delete_min().is_some());
                deletes += 1;
            }
        }
        let delta = telemetry::snapshot().since(&before);
        // One SLSM call per deletion (the queue never runs dry); every
        // call that does not shortcut probes at least once. Another
        // test's standalone SLSM may add a few probes, never shortcuts.
        let shortcuts = delta.get(Event::SlsmLocalShortcut);
        let probing_calls = deletes - shortcuts;
        let reads = delta.get(Event::SlsmProbeEntries) as f64 / probing_calls as f64;
        assert!(reads < 4.0, "{reads:.2} flag reads per probe");
        let share = shortcuts as f64 / deletes as f64;
        assert!(share > 0.5, "shortcut on {share:.2} of SLSM calls");
    }

    #[test]
    fn mq_empty_sample_recorded_on_empty_queue() {
        let before = telemetry::snapshot();
        let q = Mq::new(2, 1, 1, 1);
        let mut h = q.handle();
        assert!(h.delete_min().is_none());
        let delta = telemetry::snapshot().since(&before);
        assert!(delta.get(Event::MqEmptySample) >= 1);
    }

    /// Regression test for the old `telemetry::reset()` race: resetting
    /// the process-global counters mid-run destroyed other cells'
    /// counts when the test runner (or a benchmark binary) ran cells in
    /// parallel. The counters are now monotone — there is no reset —
    /// and every consumer brackets its cell with `snapshot()` +
    /// `since()`. Under that discipline a cell's delta can only
    /// over-count (concurrent cells add events), never under-count, so
    /// each thread here must observe at least its own contribution no
    /// matter how the cells interleave.
    #[test]
    fn delta_snapshots_are_sound_under_parallel_cells() {
        const THREADS: usize = 4;
        const EMPTY_DELETES: u64 = 64;
        let before_all = telemetry::snapshot();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let before = telemetry::snapshot();
                    // Each cell owns a private empty MultiQueue; every
                    // delete_min on it records at least one
                    // MqEmptySample, so the cell's own contribution has
                    // a known floor.
                    let q = Mq::new(2, 1, 1, 1);
                    let mut h = q.handle();
                    for _ in 0..EMPTY_DELETES {
                        assert!(h.delete_min().is_none());
                    }
                    let delta = telemetry::snapshot().since(&before);
                    assert!(
                        delta.get(Event::MqEmptySample) >= EMPTY_DELETES,
                        "cell under-counted its own empty samples: {} < {EMPTY_DELETES}",
                        delta.get(Event::MqEmptySample)
                    );
                });
            }
        });
        let delta_all = telemetry::snapshot().since(&before_all);
        assert!(
            delta_all.get(Event::MqEmptySample) >= THREADS as u64 * EMPTY_DELETES,
            "global delta lost events from parallel cells: {} < {}",
            delta_all.get(Event::MqEmptySample),
            THREADS as u64 * EMPTY_DELETES
        );
    }

    #[test]
    fn skiplist_contention_records_cas_retries() {
        // CAS retries need a real race: hammer delete_min/insert pairs
        // from several threads over a tiny key range so claims collide.
        // One round is overwhelmingly likely to record a retry; retry a
        // few rounds to keep the test deterministic on slow hosts.
        let before = telemetry::snapshot();
        for _round in 0..5 {
            let q = skiplist_pq::LindenPq::new();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let q = &q;
                    scope.spawn(move || {
                        let mut h = q.handle();
                        for i in 0..10_000u64 {
                            h.insert(i % 8, t << 32 | i);
                            h.delete_min();
                        }
                    });
                }
            });
            let delta = telemetry::snapshot().since(&before);
            if delta.get(Event::SkiplistCasRetry) > 0 {
                return;
            }
        }
        let delta = telemetry::snapshot().since(&before);
        assert!(
            delta.get(Event::SkiplistCasRetry) > 0,
            "no CAS retry recorded across 5 contention rounds"
        );
    }
}
