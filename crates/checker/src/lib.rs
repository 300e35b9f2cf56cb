//! Semantic correctness checking for the workspace's concurrent
//! priority queues.
//!
//! The paper's quality (rank-error) comparison is only meaningful if
//! every queue *conserves* items and respects its declared relaxation
//! bound under real interleavings — Gruber's thesis devotes a chapter
//! to exactly this validation gap. This crate closes it:
//!
//! 1. [`run_and_check`] records one run through the harness's
//!    [`harness::run_recorded`] — the worker loop every benchmark runs,
//!    on a [`pq_traits::Recorded`] queue — with its drain phase on:
//!    prefill, the mixed phase, a concurrent drain by the same workers
//!    and a single-threaded residual sweep, every operation stamped on
//!    the log's logical clock.
//! 2. [`verify::check`] reads the history through the quality
//!    benchmark's replay ([`harness::replay`]), one pass that yields
//!    each deletion's in-flight low and the conservation tally, and
//!    reports conservation violations (lost / duplicated / invented
//!    items), rank-bound violations against each queue's
//!    [`pq_traits::RelaxationBound`], and strict-order violations for
//!    queues that claim bound 0.
//! 3. [`mutants`] provides intentionally broken wrappers (dropping,
//!    duplicating, bound-violating) proving the checker detects each
//!    violation class — a checker that cannot fire proves nothing.
//!
//! Pair with [`pq_traits::chaos`] to perturb schedules at the queues'
//! contention hot spots while checking; a chaos seed makes a stressful
//! schedule reproducible.
//!
//! ```
//! use checker::{run_and_check, CheckConfig};
//!
//! let queue = lockedpq::GlobalLockPq::new();
//! let report = run_and_check(queue, &CheckConfig::quick(2), None);
//! assert!(report.is_clean(), "{}", report.violation_json());
//! ```

#![warn(missing_docs)]

pub mod mutants;
pub mod verify;

pub use mutants::{BoundViolator, ItemDropper, ItemDuplicator};
pub use verify::{check, rank_slack, CheckReport};

use pq_traits::{ConcurrentPq, Recorded, RelaxationBound};
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyDistribution, Workload};

/// One checker cell: which workload to run against the queue and how
/// much of it.
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
    /// from it, so a cell replays exactly (given deterministic queue
    /// seeding).
    pub seed: u64,
    /// Also check per-thread deletion monotonicity during the
    /// *concurrent* drain phase. Only valid for fully linearizable
    /// strict queues, the ones [`harness::QueueSpec::strict_drain`]
    /// names; queues that are strict only up to in-flight operations
    /// (hunt, mound, cbpq) may legitimately reorder within a thread
    /// under contention. The
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

/// Record one run of `cfg` against `queue`, drain included, and verify
/// the history.
///
/// `chaos_seed` is informational: it tags the report with the seed the
/// cell ran under (the caller is responsible for configuring
/// [`pq_traits::chaos`] around the call).
pub fn run_and_check<Q: ConcurrentPq + RelaxationBound>(
    queue: Q,
    cfg: &CheckConfig,
    chaos_seed: Option<u64>,
) -> CheckReport {
    let recorded = Recorded::new(queue);
    let name = recorded.name();
    let bench = BenchConfig {
        threads: cfg.threads.max(1),
        workload: cfg.workload,
        key_dist: cfg.key_dist,
        prefill: cfg.prefill,
        stop: StopCondition::OpsPerThread(cfg.ops_per_thread as u64),
        reps: 1,
        seed: cfg.seed,
    };
    let run = harness::run_recorded(&recorded, &bench, true);
    check(&name, recorded.inner(), cfg, &run, chaos_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockedpq::GlobalLockPq;

    fn cfg(threads: usize) -> CheckConfig {
        CheckConfig {
            threads,
            prefill: 512,
            ops_per_thread: 2_000,
            workload: Workload::Uniform,
            key_dist: KeyDistribution::uniform(20),
            seed: 0xC0FFEE,
            strict_drain_check: true,
        }
    }

    #[test]
    fn clean_strict_queue_passes() {
        let report = run_and_check(GlobalLockPq::new(), &cfg(2), None);
        assert!(report.is_clean(), "{}", report.violation_json());
        assert!(report.inserts > 0);
        assert!(report.deletes > 0);
        assert_eq!(report.inserts, report.deletes, "conservation balance");
        assert!(report.strict);
        assert!(report.rank_checked > 0);
    }

    #[test]
    fn detects_lost_items() {
        let mutant = ItemDropper::new(GlobalLockPq::new(), 37);
        let report = run_and_check(mutant, &cfg(2), None);
        assert!(report.lost > 0, "dropper must be caught: {report:?}");
        assert_eq!(report.duplicated, 0);
        assert_eq!(report.invented, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn detects_duplicated_items() {
        let mutant = ItemDuplicator::new(GlobalLockPq::new(), 23);
        let report = run_and_check(mutant, &cfg(2), None);
        assert!(report.duplicated > 0, "duplicator must be caught: {report:?}");
        assert_eq!(report.lost, 0);
        assert_eq!(report.invented, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn detects_rank_bound_violations() {
        let mutant = BoundViolator::new(GlobalLockPq::new(), 11, 64);
        let report = run_and_check(mutant, &cfg(2), None);
        assert!(
            report.rank_violations > 0,
            "bound violator must be caught: {report:?}"
        );
        // Conservation stays clean: the violator only reorders.
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicated, 0);
        assert_eq!(report.invented, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn violation_reports_are_deterministic() {
        // Same seed → byte-identical violation report, clean or broken.
        let clean_a = run_and_check(GlobalLockPq::new(), &cfg(2), Some(9)).violation_json();
        let clean_b = run_and_check(GlobalLockPq::new(), &cfg(2), Some(9)).violation_json();
        assert_eq!(clean_a, clean_b);
        // Single-threaded, the whole schedule is seed-deterministic, so
        // a broken queue's (non-zero) violation report reproduces
        // byte-identically too.
        let broken_a =
            run_and_check(ItemDropper::new(GlobalLockPq::new(), 37), &cfg(1), Some(9))
                .violation_json();
        let broken_b =
            run_and_check(ItemDropper::new(GlobalLockPq::new(), 37), &cfg(1), Some(9))
                .violation_json();
        assert_eq!(broken_a, broken_b);
        assert_ne!(clean_a, broken_a);
    }

    #[test]
    fn report_json_shapes() {
        // The violation object is what a checker cell nests under
        // "violations": one flat JSON object naming the cell, with an
        // absent chaos seed as null and a present one as a number.
        let report = run_and_check(GlobalLockPq::new(), &cfg(1), None);
        let json = report.violation_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
        assert!(json.contains(&format!("\"queue\": \"{}\"", report.queue)));
        assert!(json.contains("\"threads\": 1,"));
        assert!(json.contains("\"chaos_seed\": null"));
        assert!(json.contains("\"lost\": 0,"));
        let seeded = run_and_check(GlobalLockPq::new(), &cfg(1), Some(9));
        assert!(seeded.violation_json().contains("\"chaos_seed\": 9,"));
    }
}
