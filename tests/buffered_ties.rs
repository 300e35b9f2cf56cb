//! Buffered-handle tie audit: when a handle's insert buffer holds the
//! same minimum key as the shared structure, serving the delete from
//! either side must neither duplicate nor lose an item.
//!
//! mq-sticky is the one queue whose handles buffer inserts locally; it
//! resolves a delete by comparing the buffer minimum against the sampled
//! minima of its sticky sub-queues. A buffered item is *not* in the
//! shared structure, so serving it from the buffer on a tie is always
//! safe — these tests pin that down with duplicate-heavy workloads where
//! ties occur on nearly every delete.

use harness::{with_queue, QueueSpec};
use pq_traits::{ConcurrentPq, PqHandle};

/// mq-sticky with and without stickiness, both with insert buffers.
fn buffered_specs() -> Vec<QueueSpec> {
    vec![QueueSpec::MultiQueue(4, 8, 8), QueueSpec::MultiQueue(4, 1, 4)]
}

/// Directed tie: one item with the contested key is committed to the
/// shared structure (via flush), a second with the same key sits in the
/// handle buffer. Both must come back, each exactly once.
#[test]
fn buffered_min_tied_with_shared_min_neither_duplicates_nor_loses() {
    for spec in buffered_specs() {
        with_queue!(spec, 1, q => {
            let mut h = q.handle();
            h.insert(5, 1);
            h.flush(); // value 1 now lives in the shared structure
            h.insert(5, 2); // value 2 stays buffered: exact key tie
            h.insert(9, 3); // keeps the buffer non-empty after the tie pop
            let mut vals: Vec<u64> = Vec::new();
            while let Some(it) = h.delete_min() {
                assert!(it.key == 5 || it.key == 9, "{spec} phantom key {}", it.key);
                vals.push(it.value);
            }
            vals.sort_unstable();
            assert_eq!(vals, vec![1, 2, 3], "{spec} lost or duplicated a tied item");
        });
    }
}

/// Many-way tie: every item carries the same key, split between flushed
/// and buffered halves, so each delete resolves a buffered-vs-shared
/// tie. Values are unique, so conservation is exact.
#[test]
fn all_keys_tied_between_buffer_and_shared_structure() {
    for spec in buffered_specs() {
        with_queue!(spec, 1, q => {
            let mut h = q.handle();
            for v in 0..64u64 {
                h.insert(7, v);
                if v % 2 == 0 {
                    h.flush();
                }
            }
            let mut vals: Vec<u64> = Vec::new();
            while let Some(it) = h.delete_min() {
                assert_eq!(it.key, 7, "{spec}");
                vals.push(it.value);
            }
            vals.sort_unstable();
            assert_eq!(vals, (0..64).collect::<Vec<_>>(), "{spec} tie mishandled");
        });
    }
}

/// Checker-verified concurrent regression: a two-key space forces
/// buffered-min == shared-min ties on nearly every delete across
/// threads. The conservation ledger (every inserted item returned
/// exactly once) must stay clean at 2 and 4 threads.
#[test]
fn checker_conservation_holds_under_tie_heavy_workload() {
    for spec in buffered_specs() {
        for threads in [2usize, 4] {
            let cfg = checker::CheckConfig {
                threads,
                prefill: 64,
                ops_per_thread: 800,
                workload: workloads::Workload::Uniform,
                key_dist: workloads::KeyDistribution::uniform(2),
                seed: 0x71E5,
                strict_drain_check: false,
            };
            let report = with_queue!(spec, threads, q => checker::run_and_check(q, &cfg, None));
            assert!(
                report.is_clean(),
                "{spec} t{threads}: {}",
                report.violation_json()
            );
            assert_eq!(
                report.inserts, report.deletes,
                "{spec} t{threads}: conservation imbalance under ties"
            );
        }
    }
}
