//! Semantic correctness checking for the workspace's concurrent
//! priority queues.
//!
//! The paper's quality (rank-error) comparison is only meaningful if
//! every queue *conserves* items and respects its declared relaxation
//! bound under real interleavings — Gruber's thesis devotes a chapter
//! to exactly this validation gap. This crate closes it:
//!
//! 1. [`scenario::run_scenario`] drives a deterministic `workloads`
//!    scenario (prefill → barrier-synchronized mixed phase → concurrent
//!    drain → single-threaded residual sweep) against any queue through
//!    the [`pq_traits::Recorded`] wrapper, collecting every thread's
//!    operation history with logical timestamps.
//! 2. [`verify::check`] replays the merged history through the rank
//!    multiset the quality benchmark uses ([`seqpq::RankMultiset`]) and
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
//! # use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};
//! # use std::sync::Mutex;
//! # struct Locked(Mutex<seqpq::BinaryHeap>);
//! # struct LockedHandle<'a>(&'a Locked);
//! # impl ConcurrentPq for Locked {
//! #     type Handle<'a> = LockedHandle<'a>;
//! #     fn handle(&self) -> LockedHandle<'_> { LockedHandle(self) }
//! #     fn name(&self) -> String { "locked".into() }
//! # }
//! # impl PqHandle for LockedHandle<'_> {
//! #     fn insert(&mut self, key: Key, value: Value) { self.0 .0.lock().unwrap().insert(key, value) }
//! #     fn delete_min(&mut self) -> Option<Item> { self.0 .0.lock().unwrap().delete_min() }
//! # }
//! # impl RelaxationBound for Locked {
//! #     fn rank_bound(&self, _threads: usize) -> Option<u64> { Some(0) }
//! # }
//! let queue = Locked(Mutex::new(seqpq::BinaryHeap::new()));
//! let report = run_and_check(queue, &CheckConfig::quick(2), None);
//! assert!(report.is_clean(), "{}", report.violation_json());
//! ```

#![warn(missing_docs)]

pub mod mutants;
pub mod scenario;
pub mod verify;

pub use mutants::{BoundViolator, ItemDropper, ItemDuplicator};
pub use scenario::{run_scenario, CheckConfig, ScenarioHistory};
pub use verify::{check, rank_slack, CheckReport};

use pq_traits::{ConcurrentPq, Recorded, RelaxationBound};

/// Run one recorded scenario against `queue` and verify the history.
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
    let scenario = run_scenario(&recorded, cfg);
    check(&name, recorded.inner(), cfg, &scenario, chaos_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_traits::{ConcurrentPq, Item, Key, PqHandle, RelaxationBound, SequentialPq, Value};
    use std::sync::Mutex;
    use workloads::{KeyDistribution, Workload};

    /// Strict reference queue: a sequential binary heap under a mutex.
    /// Keeps the checker's own tests independent of the queue crates.
    struct LockedHeap(Mutex<seqpq::BinaryHeap>);

    impl LockedHeap {
        fn new() -> Self {
            Self(Mutex::new(seqpq::BinaryHeap::new()))
        }
    }

    struct LockedHeapHandle<'a>(&'a LockedHeap);

    impl ConcurrentPq for LockedHeap {
        type Handle<'a> = LockedHeapHandle<'a>;

        fn handle(&self) -> LockedHeapHandle<'_> {
            LockedHeapHandle(self)
        }

        fn name(&self) -> String {
            "locked-heap".into()
        }
    }

    impl PqHandle for LockedHeapHandle<'_> {
        fn insert(&mut self, key: Key, value: Value) {
            self.0 .0.lock().unwrap().insert(key, value);
        }

        fn delete_min(&mut self) -> Option<Item> {
            self.0 .0.lock().unwrap().delete_min()
        }
    }

    impl RelaxationBound for LockedHeap {
        fn rank_bound(&self, _threads: usize) -> Option<u64> {
            Some(0)
        }
    }

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
        let report = run_and_check(LockedHeap::new(), &cfg(2), None);
        assert!(report.is_clean(), "{}", report.violation_json());
        assert!(report.inserts > 0);
        assert!(report.deletes > 0);
        assert_eq!(report.inserts, report.deletes, "conservation balance");
        assert!(report.strict);
        assert!(report.rank_checked > 0);
    }

    #[test]
    fn detects_lost_items() {
        let mutant = ItemDropper::new(LockedHeap::new(), 37);
        let report = run_and_check(mutant, &cfg(2), None);
        assert!(report.lost > 0, "dropper must be caught: {report:?}");
        assert_eq!(report.duplicated, 0);
        assert_eq!(report.invented, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn detects_duplicated_items() {
        let mutant = ItemDuplicator::new(LockedHeap::new(), 23);
        let report = run_and_check(mutant, &cfg(2), None);
        assert!(report.duplicated > 0, "duplicator must be caught: {report:?}");
        assert_eq!(report.lost, 0);
        assert_eq!(report.invented, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn detects_rank_bound_violations() {
        let mutant = BoundViolator::new(LockedHeap::new(), 11, 64);
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
        let clean_a = run_and_check(LockedHeap::new(), &cfg(2), Some(9)).violation_json();
        let clean_b = run_and_check(LockedHeap::new(), &cfg(2), Some(9)).violation_json();
        assert_eq!(clean_a, clean_b);
        // Single-threaded, the whole schedule is seed-deterministic, so
        // a broken queue's (non-zero) violation report reproduces
        // byte-identically too.
        let broken_a =
            run_and_check(ItemDropper::new(LockedHeap::new(), 37), &cfg(1), Some(9))
                .violation_json();
        let broken_b =
            run_and_check(ItemDropper::new(LockedHeap::new(), 37), &cfg(1), Some(9))
                .violation_json();
        assert_eq!(broken_a, broken_b);
        assert_ne!(clean_a, broken_a);
    }

    #[test]
    fn report_json_shapes() {
        let report = run_and_check(LockedHeap::new(), &cfg(1), None);
        let full = report.to_json();
        assert!(full.starts_with('{') && full.ends_with('}'));
        assert!(full.contains("\"kind\": \"checker\""));
        assert!(full.contains("\"violations\": {"));
        assert!(full.contains("\"chaos_seed\": null"));
        let violations = report.violation_json();
        assert!(full.contains(&violations));
    }
}
