//! Recorded benchmark scenarios: run a workload against a queue and
//! collect the complete operation history for verification.
//!
//! A scenario mirrors the harness's benchmark shape — deterministic
//! prefill, a barrier-synchronized mixed phase driven by the `workloads`
//! generators, then a concurrent drain — but runs every operation
//! through a [`Recorded`] wrapper so the checker sees exactly what each
//! thread did and observed. The logical-clock values captured between
//! phases partition the merged history: mixed-phase records are below
//! [`ScenarioHistory::drain_start`], the concurrent drain sits between
//! that and [`ScenarioHistory::residual_start`], and everything at or
//! above the latter is the main thread's single-threaded residual sweep.

use std::sync::Barrier;

use pq_traits::{ConcurrentPq, OpRecord, PqHandle, Recorded};
use workloads::config::{prefill_items, PREFILL_TAG, VALUE_SHIFT};
use workloads::{KeyDistribution, KeyGen, OpKind, OpStream, ThreadRole, Workload};

/// One checker scenario cell: which workload to run against the queue
/// and how much of it.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Worker thread count for the mixed and drain phases.
    pub threads: usize,
    /// Items inserted (and recorded) before the mixed phase starts.
    pub prefill: usize,
    /// Mixed-phase operations per worker thread.
    pub ops_per_thread: usize,
    /// Operation mix (uniform / split / alternating / ...).
    pub workload: Workload,
    /// Key distribution for inserts.
    pub key_dist: KeyDistribution,
    /// Master seed: prefill keys, op streams and key streams all derive
    /// from it, so a scenario replays exactly (given deterministic
    /// queue seeding).
    pub seed: u64,
    /// Also check per-thread deletion monotonicity during the
    /// *concurrent* drain phase. Only valid for fully linearizable
    /// strict queues (`linden`, `global-lock`); queues that are strict
    /// only up to in-flight operations (hunt, mound, cbpq) may
    /// legitimately reorder within a thread under contention. The
    /// single-threaded residual-sweep order check applies to every
    /// declared-strict queue regardless of this flag.
    pub strict_drain_check: bool,
}

impl CheckConfig {
    /// A small default cell: uniform mixed workload over uniform
    /// 20-bit keys — large enough to exercise contention, small enough
    /// to run hundreds of cells in a CI budget.
    pub fn quick(threads: usize) -> Self {
        Self {
            threads,
            prefill: 256,
            ops_per_thread: 2_000,
            workload: Workload::Uniform,
            key_dist: KeyDistribution::uniform(20),
            seed: 0xC0FFEE,
            strict_drain_check: false,
        }
    }

    /// Human-readable cell label, e.g. `"uniform/uniform20/t4"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/t{}",
            self.workload.name(),
            self.key_dist.name(),
            self.threads
        )
    }
}

/// Complete recorded history of one scenario run.
#[derive(Debug)]
pub struct ScenarioHistory {
    /// Per-handle operation records (workers and the residual sweep).
    pub histories: Vec<Vec<OpRecord>>,
    /// Clock value at which the concurrent drain phase began; captured
    /// while every worker was parked at a barrier, so it cleanly
    /// separates mixed-phase records from drain-phase records.
    pub drain_start: u64,
    /// Clock value at which the main thread's single-threaded residual
    /// sweep began (all workers joined).
    pub residual_start: u64,
}

/// Run one scenario against `queue`, recording every operation.
///
/// Phases: each worker prefills its chunk (recorded inserts), runs
/// `ops_per_thread` mixed operations, flushes, drains until the queue
/// looks empty, flushes again and exits; the main thread then performs
/// a final single-threaded residual sweep through one extra handle.
/// Total handles: `threads + 1`, matching the registry's slot
/// allowance for slot-bounded queues.
pub fn run_scenario<Q: ConcurrentPq>(queue: &Recorded<Q>, cfg: &CheckConfig) -> ScenarioHistory {
    let threads = cfg.threads.max(1);
    let prefill = prefill_items(cfg.key_dist, cfg.seed, cfg.prefill, PREFILL_TAG);
    let barrier = Barrier::new(threads + 1);
    let drain_start = std::thread::scope(|s| {
        for t in 0..threads {
            let barrier = &barrier;
            let prefill = &prefill;
            s.spawn(move || {
                let mut h = queue.handle();
                // Deterministic prefill split: thread t takes every
                // threads-th item starting at t.
                for it in prefill.iter().skip(t).step_by(threads) {
                    h.insert(it.key, it.value);
                }
                barrier.wait(); // prefill complete
                barrier.wait(); // start mixed phase
                let role = ThreadRole::for_thread(cfg.workload, t, threads);
                let mut ops = OpStream::new(role, cfg.seed, t as u64);
                let mut keys = KeyGen::new(cfg.key_dist, cfg.seed, t as u64);
                let mut next_value = (t as u64) << VALUE_SHIFT;
                for _ in 0..cfg.ops_per_thread {
                    match ops.next_op() {
                        OpKind::Insert => {
                            h.insert(keys.next_key(), next_value);
                            next_value += 1;
                        }
                        OpKind::DeleteMin => {
                            if let Some(item) = h.delete_min() {
                                keys.observe_delete(item.key);
                            }
                        }
                    }
                }
                h.flush();
                barrier.wait(); // mixed phase complete
                barrier.wait(); // main captured the drain boundary
                while h.delete_min().is_some() {}
                h.flush();
                // Handle drops here, committing its history.
            });
        }
        barrier.wait(); // prefill complete
        barrier.wait(); // start mixed phase
        barrier.wait(); // mixed phase complete
        let boundary = queue.now();
        barrier.wait(); // release workers into the drain
        boundary
    });
    let residual_start = queue.now();
    {
        // Single-threaded residual sweep: workers have quiesced, so one
        // pass to `None` through a fresh handle empties every queue in
        // the registry (relaxed queues fall back to reliable scans once
        // uncontended).
        let mut h = queue.handle();
        h.flush();
        while h.delete_min().is_some() {}
        h.flush();
    }
    ScenarioHistory {
        histories: queue.take_histories(),
        drain_start,
        residual_start,
    }
}
