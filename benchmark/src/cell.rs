//! One cell: one fresh queue, one repetition of
//! `harness::run_throughput_with`, counted from outside.

use std::sync::Arc;
use std::time::Instant;

use harness::{run_throughput_with, with_queue, QueueSpec};
use pq_traits::{ConcurrentPq, Instrumented, Item, Key, OpCounts, PqHandle, Value};
use workloads::BenchConfig;

use crate::spec::layer_of;
use crate::timed::{Recorder, Timed};

/// Lends a queue to `run_throughput_with`, which otherwise owns and
/// drops the queue it measures — taking the `Instrumented` counters and
/// the teardown time with it.
pub struct ByRef<'q, Q>(pub &'q Q);

impl<Q: ConcurrentPq> ConcurrentPq for ByRef<'_, Q> {
    type Handle<'a>
        = Q::Handle<'a>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        let q: &Q = self.0;
        q.handle()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// A queue that does nothing: what remains when it is measured is the
/// harness loop, the op stream and the key generator.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOpQueue;

pub struct NoOpHandle(Item);

impl ConcurrentPq for NoOpQueue {
    type Handle<'a> = NoOpHandle;

    fn handle(&self) -> NoOpHandle {
        NoOpHandle(Item::new(0, 0))
    }

    fn name(&self) -> String {
        "noop".to_owned()
    }
}

impl PqHandle for NoOpHandle {
    #[inline]
    fn insert(&mut self, key: Key, value: Value) {
        self.0 = std::hint::black_box(Item::new(key, value));
    }

    #[inline]
    fn delete_min(&mut self) -> Option<Item> {
        Some(std::hint::black_box(self.0))
    }
}

/// What wraps the queue while it is measured.
#[derive(Clone)]
pub enum Wrap {
    /// Nothing: the arm `Instrumented`'s own cost is measured against.
    Bare,
    /// `Instrumented`: every end-to-end cell.
    Counted,
    /// `Instrumented<Timed<_>>`: the traced pass; the cell's log is filed
    /// with the recorder.
    Timed(Arc<Recorder>),
}

/// The outcome of one cell.
#[derive(Clone, Debug, Default)]
pub struct Cell {
    /// Inserts plus `delete_min` calls that returned an item, inside the
    /// measured phase (prefill subtracted).
    pub successful: u64,
    /// `delete_min` calls that returned `None` inside the measured phase.
    pub empty: u64,
    /// Length of the measured phase.
    pub window_s: f64,
    /// Everything else the cell cost: prefill generation, construction,
    /// prefill inserts, thread start and join, flush, teardown.
    pub setup_s: f64,
    /// Operations completed per harness tick.
    pub ticks: Vec<u64>,
    /// Resident-set growth from before construction to after the
    /// measured phase, with the queue still alive.
    pub rss_growth_bytes: i64,
}

impl Cell {
    pub fn attempted(&self) -> u64 {
        self.successful + self.empty
    }
}

/// Measured-phase operation counts: the harness prefills through the
/// same instrumented handles, so exactly `prefill` inserts come off.
pub fn measured_ops(counts: OpCounts, prefill: usize) -> (u64, u64) {
    let inserts = counts
        .inserts
        .checked_sub(prefill as u64)
        .expect("the harness inserts the whole prefill before measuring");
    (inserts + counts.deletes, counts.empty_deletes)
}

/// Run one cell of `queue` under `cfg` (which must ask for one rep).
pub fn run_queue<Q: ConcurrentPq>(
    queue: Q,
    name: &str,
    cfg: &BenchConfig,
    wrap: &Wrap,
    started: Instant,
) -> Cell {
    assert_eq!(cfg.reps, 1, "a cell is one repetition");
    let rss_before = rss_bytes();
    let mut cell = Cell::default();
    let (result, counts) = match wrap {
        Wrap::Bare => {
            let r = run_throughput_with(name, || ByRef(&queue), cfg);
            drop(queue);
            (r, None)
        }
        Wrap::Counted => {
            let q = Instrumented::new(queue);
            let r = run_throughput_with(name, || ByRef(&q), cfg);
            cell.rss_growth_bytes = rss_bytes() - rss_before;
            (r, Some(q.counts()))
        }
        Wrap::Timed(rec) => {
            assert_eq!(
                cfg.prefill % cfg.threads,
                0,
                "prefill must split into equal chunks"
            );
            let per_handle = (cfg.prefill / cfg.threads) as u64;
            let q = Instrumented::new(Timed::new(
                queue,
                rec,
                format!("{}.{name}", layer_of(name)),
                per_handle,
            ));
            let r = run_throughput_with(name, || ByRef(&q), cfg);
            (r, Some(q.counts()))
        }
    };
    // Every arm has dropped the queue by here: teardown is inside
    // `started.elapsed()`.
    let attempted: u64 = result.per_rep_thread_ops[0].iter().sum();
    (cell.successful, cell.empty) = match counts {
        Some(c) => measured_ops(c, cfg.prefill),
        None => (attempted, 0),
    };
    assert_eq!(
        cell.attempted(),
        attempted,
        "{name}: instrumented and harness op counts disagree"
    );
    cell.window_s = attempted as f64 / result.per_rep_ops_per_sec[0];
    cell.setup_s = started.elapsed().as_secs_f64() - cell.window_s;
    cell.ticks = result.per_rep_ticks.into_iter().next().unwrap_or_default();
    cell
}

/// Run one cell of a registry queue.
pub fn run_spec(spec: QueueSpec, cfg: &BenchConfig, wrap: &Wrap) -> Cell {
    let started = Instant::now();
    let name = spec.name();
    with_queue!(spec, cfg.threads, q => run_queue(q, &name, cfg, wrap, started))
}

/// Run one cell of the queue called `name`: a registry queue, or `noop`.
pub fn run_named(name: &str, cfg: &BenchConfig, wrap: &Wrap) -> Cell {
    if name == "noop" {
        return run_queue(NoOpQueue, name, cfg, wrap, Instant::now());
    }
    run_spec(crate::spec::queue_spec(name), cfg, wrap)
}

/// Resident set size of this process in bytes (0 where `/proc` is absent).
pub fn rss_bytes() -> i64 {
    proc_status_kb("VmRSS:") * 1024
}

/// High-water mark of the resident set size, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") as f64 / 1024.0
}

fn proc_status_kb(field: &str) -> i64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::config::StopCondition;
    use workloads::{KeyDistribution, Workload};

    fn cfg(stop: StopCondition, prefill: usize) -> BenchConfig {
        BenchConfig {
            threads: 2,
            workload: Workload::Uniform,
            key_dist: KeyDistribution::uniform(32),
            prefill,
            stop,
            reps: 1,
            seed: 3,
        }
    }

    #[test]
    fn prefill_is_subtracted_from_instrumented_counts() {
        let counts = OpCounts {
            inserts: 1_500,
            deletes: 400,
            empty_deletes: 7,
            flushes: 2,
            flushed_items: 0,
        };
        assert_eq!(measured_ops(counts, 1_000), (900, 7));
        assert_eq!(measured_ops(counts, 0), (1_900, 7));
    }

    #[test]
    #[should_panic(expected = "whole prefill")]
    fn fewer_inserts_than_prefill_is_a_bug_not_a_number() {
        measured_ops(
            OpCounts {
                inserts: 10,
                ..OpCounts::default()
            },
            11,
        );
    }

    #[test]
    fn fixed_ops_cell_counts_exactly_and_excludes_prefill() {
        let cfg = cfg(StopCondition::OpsPerThread(3_000), 1_000);
        for wrap in [Wrap::Bare, Wrap::Counted, Wrap::Timed(Recorder::new())] {
            let c = run_spec(QueueSpec::GlobalLock, &cfg, &wrap);
            assert_eq!(c.attempted(), 6_000);
            assert_eq!(
                c.empty, 0,
                "a 1000-item prefill cannot drain under a 50/50 mix"
            );
            assert!(c.window_s > 0.0 && c.setup_s > 0.0);
        }
    }

    #[test]
    fn empty_deletes_are_attempted_but_never_successful() {
        // Only deleters, nothing to delete: every operation fails.
        let mut cfg = cfg(StopCondition::OpsPerThread(500), 0);
        cfg.workload = Workload::Biased { insert_permille: 0 };
        let c = run_spec(QueueSpec::GlobalLock, &cfg, &Wrap::Counted);
        assert_eq!((c.successful, c.empty, c.attempted()), (0, 1_000, 1_000));
    }

    #[test]
    fn traced_cell_files_a_log_of_measured_ops_only() {
        let rec = Recorder::new();
        let cfg = cfg(StopCondition::OpsPerThread(2_000), 600);
        run_spec(QueueSpec::Linden, &cfg, &Wrap::Timed(Arc::clone(&rec)));
        let logs = rec.take();
        let [log] = &logs[..] else {
            panic!("one log filed, got {}", logs.len())
        };
        assert_eq!(log.name, "skiplist.linden");
        assert_eq!(log.threads.len(), 2);
        assert_eq!(log.op_mean_ns().0, 4_000, "prefill inserts are not stamped");
    }

    #[test]
    fn noop_queue_always_has_an_item() {
        let q = NoOpQueue;
        let mut h = q.handle();
        h.insert(5, 6);
        assert_eq!(h.delete_min(), Some(Item::new(5, 6)));
        assert_eq!(h.flush(), 0);
    }
}
