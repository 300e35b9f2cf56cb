//! Cross-crate integration tests: every queue in the registry satisfies
//! the basic priority-queue contract through the shared trait interface.

use harness::{with_queue, QueueSpec};
use pq_traits::{ConcurrentPq, Item, PqHandle};

#[test]
fn empty_queue_returns_none_everywhere() {
    for spec in QueueSpec::registry() {
        with_queue!(spec, 1, q => {
            let mut h = q.handle();
            assert_eq!(h.delete_min(), None, "{spec}");
        });
    }
}

#[test]
fn multiset_preserved_sequentially() {
    let keys: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(48271) % 4096).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    for spec in QueueSpec::registry() {
        let mut got = with_queue!(spec, 1, q => {
            let mut h = q.handle();
            for (i, &k) in keys.iter().enumerate() {
                h.insert(k, i as u64);
            }
            let mut out: Vec<u64> = Vec::new();
            while let Some(it) = h.delete_min() {
                out.push(it.key);
            }
            out
        });
        got.sort_unstable();
        assert_eq!(got, expect, "{spec} lost or duplicated items");
    }
}

#[test]
fn values_travel_with_keys() {
    for spec in QueueSpec::registry() {
        with_queue!(spec, 1, q => {
            let mut h = q.handle();
            for k in 0..100u64 {
                h.insert(k, k * 1000 + 7);
            }
            let mut seen = std::collections::HashSet::new();
            while let Some(Item { key, value }) = h.delete_min() {
                assert_eq!(value, key * 1000 + 7, "{spec} mixed up a value");
                assert!(seen.insert(value), "{spec} duplicated value {value}");
            }
            assert_eq!(seen.len(), 100, "{spec}");
        });
    }
}

#[test]
fn strict_queues_return_exact_minimum_sequentially() {
    for spec in [
        QueueSpec::Linden,
        QueueSpec::GlobalLock,
        QueueSpec::Hunt,
        QueueSpec::Mound,
        QueueSpec::Cbpq,
        QueueSpec::FcGlobalLock(1),
        QueueSpec::FcMound(1),
        // Buffered flat combining is still exact through a single handle:
        // a delete returns the smaller of the buffer minimum and the
        // strict inner minimum.
        QueueSpec::FcGlobalLock(16),
        QueueSpec::FcMound(16),
    ] {
        with_queue!(spec, 1, q => {
            let mut h = q.handle();
            let keys = [44u64, 2, 99, 17, 56, 3, 71, 23, 8, 61];
            for (i, &k) in keys.iter().enumerate() {
                h.insert(k, i as u64);
            }
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            for want in sorted {
                assert_eq!(h.delete_min().map(|i| i.key), Some(want), "{spec}");
            }
        });
    }
}

#[test]
fn names_match_registry() {
    for spec in QueueSpec::registry() {
        // The substrate ablations are the same queue type over another
        // heap; the type names itself without the substrate.
        if matches!(spec, QueueSpec::GlobalLockPairing | QueueSpec::MultiQueuePairing(_)) {
            continue;
        }
        let name = with_queue!(spec, 1, q => q.name());
        assert_eq!(name, spec.name(), "queue self-name diverges from registry");
    }
}

#[test]
fn reinsertion_after_drain_works() {
    for spec in QueueSpec::registry() {
        with_queue!(spec, 1, q => {
            let mut h = q.handle();
            for round in 0..3 {
                for k in 0..200u64 {
                    h.insert(k, round * 200 + k);
                }
                let mut n = 0;
                while h.delete_min().is_some() {
                    n += 1;
                }
                assert_eq!(n, 200, "{spec} round {round}");
            }
        });
    }
}

#[test]
fn duplicate_keys_handled_everywhere() {
    for spec in QueueSpec::registry() {
        with_queue!(spec, 1, q => {
            let mut h = q.handle();
            for v in 0..500u64 {
                h.insert(42, v);
            }
            let mut vals: Vec<u64> = Vec::new();
            while let Some(it) = h.delete_min() {
                assert_eq!(it.key, 42);
                vals.push(it.value);
            }
            vals.sort_unstable();
            assert_eq!(vals, (0..500).collect::<Vec<_>>(), "{spec}");
        });
    }
}

/// A small semantic-checker cell for integration testing: big enough to
/// hit concurrent interleavings, small enough to run the whole registry
/// at several thread counts inside the normal test budget.
fn checker_cfg(threads: usize, strict_drain: bool) -> checker::CheckConfig {
    checker::CheckConfig {
        threads,
        prefill: 128,
        ops_per_thread: 600,
        workload: workloads::Workload::Uniform,
        key_dist: workloads::KeyDistribution::uniform(16),
        seed: 0xC0FFEE,
        strict_drain_check: strict_drain,
    }
}

#[test]
fn checker_passes_every_registry_queue() {
    // Conservation + rank-bound verification over the full registry at
    // 1, 2 and 4 threads. Concurrent-drain monotonicity is additionally
    // asserted for the fully linearizable strict queues.
    for spec in QueueSpec::registry() {
        let strict_drain = matches!(
            spec,
            QueueSpec::Linden
                | QueueSpec::GlobalLock
                | QueueSpec::FcGlobalLock(1)
                | QueueSpec::FcMound(1)
        );
        for threads in [1usize, 2, 4] {
            let cfg = checker_cfg(threads, strict_drain);
            let report = with_queue!(spec, threads, q => checker::run_and_check(q, &cfg, None));
            assert!(
                report.is_clean(),
                "{spec} t{threads}: {}",
                report.violation_json()
            );
            assert!(report.inserts > 0 && report.deletes > 0, "{spec} t{threads}");
            assert_eq!(
                report.inserts, report.deletes,
                "{spec} t{threads}: conservation imbalance"
            );
        }
    }
}

#[test]
fn checker_violation_reports_are_seed_deterministic() {
    // The machine-readable violation report must reproduce
    // byte-identically for identical (scenario, chaos) seeds — that is
    // what makes a red CI cell replayable.
    for spec in QueueSpec::registry() {
        let cfg = checker_cfg(2, false);
        let a = with_queue!(spec, 2, q => checker::run_and_check(q, &cfg, Some(3)));
        let b = with_queue!(spec, 2, q => checker::run_and_check(q, &cfg, Some(3)));
        assert_eq!(
            a.violation_json(),
            b.violation_json(),
            "{spec}: violation report not deterministic"
        );
    }
}

#[test]
fn seeded_queues_replay_identical_deletion_sequences() {
    // Regression for the from_entropy bugfix: with deterministic handle
    // seeding, two identical-seed single-threaded runs of the
    // RNG-driven queues (linden restarts, spray walks, mound leaf
    // probes) must delete in byte-identical order — including ties,
    // which is where RNG-dependent structure shows.
    let run = |spec: QueueSpec| -> Vec<Item> {
        with_queue!(spec, 1, q => {
            let mut h = q.handle();
            // Duplicate-heavy keys so internal tower/leaf randomness
            // influences traversal order on every operation.
            for i in 0..900u64 {
                h.insert(i % 7, i);
            }
            h.flush();
            let mut out = Vec::new();
            while let Some(it) = h.delete_min() {
                out.push(it);
            }
            out
        })
    };
    for spec in [QueueSpec::Linden, QueueSpec::Spray, QueueSpec::Mound] {
        let a = run(spec);
        let b = run(spec);
        assert_eq!(a.len(), 900, "{spec}");
        assert_eq!(a, b, "{spec}: deletion sequence depends on entropy");
    }
}
