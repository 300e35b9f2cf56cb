//! Differential testing: every queue against a reference model on
//! randomized operation sequences (single-handle, so outcomes are
//! deterministic per queue semantics).
//!
//! * Multiset equivalence holds for *all* queues: the set of (key,
//!   value) pairs returned across the whole run equals the set
//!   inserted.
//! * Strict queues additionally match the reference heap's exact key
//!   sequence, operation by operation.

use harness::{with_queue, QueueSpec};
use pq_traits::{ConcurrentPq, Item, PqHandle, SequentialPq};
use proptest::prelude::*;

fn strict_specs() -> Vec<QueueSpec> {
    vec![
        QueueSpec::Linden,
        QueueSpec::GlobalLock,
        QueueSpec::Hunt,
        QueueSpec::Mound,
        QueueSpec::Cbpq,
        QueueSpec::FcGlobalLock,
        QueueSpec::FcMound(1),
    ]
}

fn relaxed_specs() -> Vec<QueueSpec> {
    vec![
        QueueSpec::Klsm(16),
        QueueSpec::Klsm(256),
        QueueSpec::Dlsm,
        QueueSpec::Slsm(32),
        QueueSpec::Spray,
        QueueSpec::MultiQueue(4),
        QueueSpec::MqSticky(4, 8, 8),
        QueueSpec::MqSticky(4, 64, 16),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64),
    Delete,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4096).prop_map(Op::Insert),
        Just(Op::Delete),
    ]
}

/// Operations for the pooled-LSM differential test: plain queue ops plus
/// the spy-style bulk kernels the DLSM drives (`take_all_sorted`,
/// `split_alternating`, `merge_in_sorted`).
#[derive(Clone, Copy, Debug)]
enum LsmOp {
    Insert(u64),
    Delete,
    /// Drain everything sorted, verify, reinstall as one bulk merge.
    SpyDrain,
    /// Steal the odd-indexed half, verify, merge it straight back.
    SpySplit,
}

fn lsm_op_strategy() -> impl Strategy<Value = LsmOp> {
    // The vendored proptest stub's `prop_oneof!` is unweighted; bias
    // toward plain ops by listing insert/delete twice.
    prop_oneof![
        (0u64..4096).prop_map(LsmOp::Insert),
        (4096u64..8192).prop_map(LsmOp::Insert),
        Just(LsmOp::Delete),
        Just(LsmOp::Delete),
        Just(LsmOp::SpyDrain),
        Just(LsmOp::SpySplit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn strict_queues_match_reference_exactly(
        ops in proptest::collection::vec(op_strategy(), 0..300)
    ) {
        for spec in strict_specs() {
            with_queue!(spec, 1, q => {
                let mut h = q.handle();
                let mut model = std::collections::BinaryHeap::new();
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Insert(k) => {
                            h.insert(k, i as u64);
                            model.push(std::cmp::Reverse(k));
                        }
                        Op::Delete => {
                            let got = h.delete_min().map(|it| it.key);
                            let expect = model.pop().map(|std::cmp::Reverse(k)| k);
                            prop_assert_eq!(got, expect, "{} diverged at op {}", spec, i);
                        }
                    }
                }
                Ok::<(), proptest::test_runner::TestCaseError>(())
            })?;
        }
    }

    #[test]
    fn all_queues_preserve_the_multiset(
        ops in proptest::collection::vec(op_strategy(), 0..300)
    ) {
        for spec in strict_specs().into_iter().chain(relaxed_specs()) {
            with_queue!(spec, 1, q => {
                let mut h = q.handle();
                let mut inserted: Vec<Item> = Vec::new();
                let mut returned: Vec<Item> = Vec::new();
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Insert(k) => {
                            h.insert(k, i as u64);
                            inserted.push(Item::new(k, i as u64));
                        }
                        Op::Delete => {
                            if let Some(it) = h.delete_min() {
                                returned.push(it);
                            }
                        }
                    }
                }
                while let Some(it) = h.delete_min() {
                    returned.push(it);
                }
                inserted.sort();
                returned.sort();
                prop_assert_eq!(&inserted, &returned, "{} lost/duplicated items", spec);
                Ok::<(), proptest::test_runner::TestCaseError>(())
            })?;
        }
    }

    /// The pooled LSM against the reference binary heap, with spy-style
    /// bulk drains and splits interleaved into the insert/delete stream.
    /// Item values are unique per insert, so both strict structures must
    /// return byte-identical items in byte-identical order.
    #[test]
    fn pooled_lsm_matches_binary_heap_with_spy_interleavings(
        ops in proptest::collection::vec(lsm_op_strategy(), 0..400)
    ) {
        let mut l = lsm::Lsm::new();
        let mut model = seqpq::BinaryHeap::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                LsmOp::Insert(k) => {
                    l.insert(k, i as u64);
                    model.insert(k, i as u64);
                }
                LsmOp::Delete => {
                    prop_assert_eq!(l.delete_min(), model.delete_min(), "diverged at op {}", i);
                }
                LsmOp::SpyDrain => {
                    let all = l.take_all_sorted();
                    prop_assert!(all.windows(2).all(|w| w[0] <= w[1]));
                    let mut expect: Vec<Item> = model.iter().copied().collect();
                    expect.sort_unstable();
                    prop_assert_eq!(&all, &expect, "drain mismatch at op {}", i);
                    prop_assert!(l.is_empty());
                    l.merge_in_sorted(all);
                }
                LsmOp::SpySplit => {
                    let before = l.len();
                    let steal = l.split_alternating();
                    prop_assert!(steal.windows(2).all(|w| w[0] <= w[1]));
                    prop_assert_eq!(l.len() + steal.len(), before);
                    // The victim keeps the minimum unless fully drained.
                    if !l.is_empty() {
                        prop_assert_eq!(l.peek_min(), model.peek_min());
                    }
                    l.merge_in_sorted(steal);
                }
            }
            prop_assert!(l.check_invariants(), "invariants broken at op {}", i);
            prop_assert_eq!(l.len(), model.len());
            prop_assert_eq!(l.peek_min(), model.peek_min());
        }
        // Drain both to the end: exact item-for-item agreement.
        while let Some(expect) = model.delete_min() {
            prop_assert_eq!(l.delete_min(), Some(expect));
        }
        prop_assert_eq!(l.delete_min(), None);
        // The workload above cycles buffers constantly; the pool must
        // have been carrying most of that traffic.
        if !ops.is_empty() {
            let stats = l.pool_stats();
            prop_assert!(stats.hits + stats.misses > 0);
        }
    }

    /// Flat-combining queues against `seqpq::BinaryHeap` under real
    /// multi-thread interleavings. Each thread runs its own
    /// proptest-generated op plan through its own handle; whatever the
    /// combiner interleaving, the multiset of items handed back across
    /// all threads plus the final drain must equal the multiset the
    /// reference heap holds after replaying every insert.
    #[test]
    fn flat_combining_matches_reference_heap_under_interleavings(
        plans in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 0..120),
            2..3,
        ),
    ) {
        for spec in [QueueSpec::FcGlobalLock, QueueSpec::FcMound(1)] {
            let threads = plans.len();
            let returned = with_queue!(spec, threads, q => {
                let mut out: Vec<Item> = std::thread::scope(|s| {
                    let joins: Vec<_> = plans
                        .iter()
                        .enumerate()
                        .map(|(t, plan)| {
                            let mut h = q.handle();
                            s.spawn(move || {
                                let mut got = Vec::new();
                                for (i, op) in plan.iter().enumerate() {
                                    match *op {
                                        Op::Insert(k) => {
                                            h.insert(k, (t * 1_000_000 + i) as u64)
                                        }
                                        Op::Delete => {
                                            if let Some(it) = h.delete_min() {
                                                got.push(it);
                                            }
                                        }
                                    }
                                }
                                h.flush();
                                got
                            })
                        })
                        .collect();
                    joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
                });
                let mut drain = q.handle();
                while let Some(it) = drain.delete_min() {
                    out.push(it);
                }
                out
            });
            let mut model = seqpq::BinaryHeap::new();
            for (t, plan) in plans.iter().enumerate() {
                for (i, op) in plan.iter().enumerate() {
                    if let Op::Insert(k) = *op {
                        model.insert(k, (t * 1_000_000 + i) as u64);
                    }
                }
            }
            let mut expect: Vec<Item> = Vec::new();
            while let Some(it) = model.delete_min() {
                expect.push(it);
            }
            let mut got = returned;
            got.sort();
            expect.sort();
            prop_assert_eq!(&got, &expect, "{} diverged from reference heap", spec);
        }
    }

    #[test]
    fn relaxed_queues_never_return_phantom_items(
        keys in proptest::collection::vec(0u64..100, 1..100)
    ) {
        for spec in relaxed_specs() {
            with_queue!(spec, 1, q => {
                let mut h = q.handle();
                let mut live: std::collections::HashSet<Item> = std::collections::HashSet::new();
                for (i, &k) in keys.iter().enumerate() {
                    h.insert(k, i as u64);
                    live.insert(Item::new(k, i as u64));
                }
                while let Some(it) = h.delete_min() {
                    prop_assert!(
                        live.remove(&it),
                        "{} returned item never inserted (or twice): {:?}",
                        spec,
                        it
                    );
                }
                prop_assert!(live.is_empty(), "{} kept items back", spec);
                Ok::<(), proptest::test_runner::TestCaseError>(())
            })?;
        }
    }
}
