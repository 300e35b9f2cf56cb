//! The quality (rank-error) benchmark.
//!
//! "The quality benchmark initially records all inserted and deleted
//! items together with their timestamp in a log; this log is then used to
//! reconstruct a global, linear sequence of all operations. A specialized
//! sequential priority queue is then used to replay this sequence and
//! efficiently determine the rank of all deleted items. Our quality
//! benchmark is pessimistic, i.e., it may return artificially inflated
//! ranks when items with duplicate keys are encountered." (appendix F)
//!
//! The log is [`pq_traits::Recorded`], the same one the checker
//! verifies: every operation, prefill inserts included, gets a unique
//! completion stamp from the queue-wide SeqCst clock once it has
//! returned, so sorting by stamp yields a valid linearization order
//! directly (see DESIGN.md §2). The replay structure is `seqpq`'s
//! [`RankMultiset`], a count of live items per key; because the log
//! stores full `(key, unique value)` items, our replay does **not**
//! inflate ranks for duplicate keys — deletions remove the exact item
//! instance.

use std::collections::{BTreeMap, HashSet};

use pq_traits::{ConcurrentPq, Op, OpRecord, PqHandle, Recorded, Value};
use seqpq::{Fenwick, RankMultiset};
use workloads::config::{StopCondition, PREFILL_TAG};
use workloads::BenchConfig;

use crate::registry::QueueSpec;
use crate::stats::Summary;
use crate::throughput::run_once;
use crate::with_queue;

/// Result of one quality configuration.
#[derive(Clone, Debug)]
pub struct QualityResult {
    /// Queue display name.
    pub queue: String,
    /// Worker thread count.
    pub threads: usize,
    /// Summary over the ranks of all deleted items (mean rank = the
    /// paper's "rank error"; rank 0 = strict minimum).
    pub rank: Summary,
    /// Median rank.
    pub p50: u64,
    /// 99th-percentile rank.
    pub p99: u64,
    /// Maximum observed rank — the direct check of a claimed relaxation
    /// bound (must stay ≤ bound up to timestamp-inversion noise).
    pub max: u64,
    /// Summary over per-item *delay*: how many deletions of strictly
    /// larger keys passed an item over while it was live (the second
    /// quality metric of the MultiQueue literature; 0 for strict queues).
    pub delay: Summary,
    /// Number of deletions replayed.
    pub deletions: usize,
}

/// One recorded run: every handle's operation log and the clock values
/// that split it into phases (both `u64::MAX` without a drain).
#[derive(Debug)]
pub struct RecordedRun {
    /// Per-handle operation records, the residual sweep's last.
    pub histories: Vec<Vec<OpRecord>>,
    /// Read while the workers were parked after their post-window
    /// flush: records below it are prefill and mixed phase.
    pub drain_start: u64,
    /// Read after the workers joined: records at or above it are the
    /// single-threaded residual sweep's.
    pub residual_start: u64,
}

/// Run rep 0 of `cfg` on `queue`, recording every operation. With
/// `drain`, the workers then delete until their handles see `None`, and
/// the main thread sweeps the residue through one extra handle
/// (`threads + 1` handles, the registry's slot allowance), so a
/// conserving queue ends empty.
pub fn run_recorded<Q: ConcurrentPq>(
    queue: &Recorded<Q>,
    cfg: &BenchConfig,
    drain: bool,
) -> RecordedRun {
    let prefill = cfg.prefill_items(PREFILL_TAG);
    let (mut drain_start, mut residual_start) = (u64::MAX, u64::MAX);
    if !drain {
        run_once::<_, _, false>(queue, cfg, 0, &prefill, |_| (), || ());
    } else {
        run_once::<_, _, true>(queue, cfg, 0, &prefill, |_| (), || drain_start = queue.now());
        // Uncontended, one pass to `None` empties every registry queue
        // (relaxed queues fall back to reliable scans).
        residual_start = queue.now();
        let mut h = queue.handle();
        h.flush();
        while h.delete_min().is_some() {}
        h.flush();
    }
    RecordedRun {
        histories: queue.take_histories(),
        drain_start,
        residual_start,
    }
}

/// Run the rank-error benchmark for one queue and configuration. The
/// configuration's stop condition should be [`StopCondition::OpsPerThread`]
/// so the log stays bounded; a duration-based config is converted to a
/// 50k-ops-per-thread budget.
pub fn run_quality(spec: QueueSpec, cfg: &BenchConfig) -> QualityResult {
    let ops_per_thread = match cfg.stop {
        StopCondition::OpsPerThread(n) => n,
        StopCondition::Duration(_) => 50_000,
    };
    let cfg = BenchConfig {
        stop: StopCondition::OpsPerThread(ops_per_thread),
        ..cfg.clone()
    };
    let histories = with_queue!(spec, cfg.threads, q => {
        run_recorded(&Recorded::new(q), &cfg, false).histories
    });
    // The log is the run's largest allocation and briefly exists twice
    // while the histories are joined: the prefill and the queue go
    // first, the histories right after.
    let mut log = histories.concat();
    drop(histories);
    log.sort_unstable_by_key(|r| r.ts);
    let (mut ranks, delays) = replay(&log);
    let rank = Summary::of_u64(&ranks);
    ranks.sort_unstable();
    let pct = |p: f64| -> u64 {
        if ranks.is_empty() {
            0
        } else {
            ranks[((ranks.len() - 1) as f64 * p) as usize]
        }
    };
    QualityResult {
        queue: spec.name(),
        threads: cfg.threads,
        rank,
        p50: pct(0.5),
        p99: pct(0.99),
        max: ranks.last().copied().unwrap_or(0),
        delay: Summary::of_u64(&delays),
        deletions: ranks.len(),
    }
}

/// Replay the log, sorted by completion stamp, through a
/// [`RankMultiset`], recording the rank of every deleted item. Flushes
/// and empty deletions carry no item and are skipped.
///
/// The rank of a deleted item is the number of live items with a
/// **strictly smaller key**, so equal-key ties never inflate ranks.
///
/// A deletion may appear in the log slightly before its matching insert
/// (the stamp is taken after the operation completes, so two racing
/// operations can invert); such deletions are parked and scored with
/// the rank and delay the item has when its insert arrives.
///
/// Alongside ranks, the replay computes per-item *delay* (Rihani et al.):
/// how many deletions of strictly larger keys occurred while the item was
/// live. A Fenwick tree over the compressed key universe turns "deletion
/// of `x` passes over every live smaller key" into a prefix add; an
/// item's delay is the point value at its key, relative to a baseline
/// captured when the item entered the queue.
fn replay(log: &[OpRecord]) -> (Vec<u64>, Vec<u64>) {
    let mut live = RankMultiset::new(
        log.iter()
            .filter_map(|r| match r.op {
                Op::Insert(item) => Some(item.key),
                _ => None,
            })
            .collect(),
    );
    let mut passes = Fenwick::new(live.universe_len());
    // A B-tree, like the multiset's item counts: its memory follows the
    // live count, which a hash map under this churn overshoots.
    let mut baselines: BTreeMap<Value, i64> = BTreeMap::new();
    let mut ranks = Vec::new();
    let mut delays = Vec::new();
    let mut pending: HashSet<Value> = HashSet::new();
    for r in log {
        let (item, is_insert) = match r.op {
            Op::Insert(item) => (item, true),
            Op::DeleteMin(Some(item)) => (item, false),
            Op::DeleteMin(None) | Op::Flush(_) => continue,
        };
        if is_insert {
            live.insert(item);
            baselines.insert(item.value, passes.get(live.key_index(item.key)));
            // A deletion already observed deletes the item right away:
            // it spent no time in the replay queue, and its rank/delay
            // are what they'd have been on arrival.
            if !pending.remove(&item.value) {
                continue;
            }
        }
        let rank = live.rank_below(item.key);
        if !live.remove(&item) {
            pending.insert(item.value);
            continue;
        }
        let idx = live.key_index(item.key);
        let baseline = baselines.remove(&item.value).unwrap_or(0);
        ranks.push(rank);
        delays.push((passes.get(idx) - baseline).max(0) as u64);
        // This deletion passes over every live item with a smaller key.
        passes.prefix_add(idx, 1);
    }
    (ranks, delays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_traits::Item;
    use workloads::{KeyDistribution, Workload};

    fn tiny_cfg(threads: usize) -> BenchConfig {
        BenchConfig {
            threads,
            workload: Workload::Uniform,
            key_dist: KeyDistribution::uniform(16),
            prefill: 2_000,
            stop: StopCondition::OpsPerThread(3_000),
            reps: 1,
            seed: 99,
        }
    }

    #[test]
    fn strict_queue_has_near_zero_rank_single_thread() {
        let r = run_quality(QueueSpec::GlobalLock, &tiny_cfg(1));
        assert!(r.deletions > 0);
        assert_eq!(r.rank.mean, 0.0, "single-threaded strict queue must have rank 0");
    }

    #[test]
    fn single_thread_klsm_matches_recorded_golden() {
        // P = 1 is deterministic, so the whole pipeline — prefill
        // split, op/key streams, value numbering, which ops get logged
        // and stamped, replay — is pinned by one number. Re-recorded on
        // top of a82c50d when the SLSM started answering `UseLocal` from
        // the block-list snapshot before probing the pivot: the outcome
        // of each comparison is unchanged, but skipped probes no longer
        // draw from the handle RNG, so later picks differ. Previous
        // values (recorded at 6fc7b5d): rank.mean 19.514095536413468,
        // max 125, delay.mean 17.650352388410337. The seen-taken bitmap
        // alone reproduced them bit-identically.
        let cfg = BenchConfig {
            stop: StopCondition::OpsPerThread(5_000),
            seed: 11,
            ..tiny_cfg(1)
        };
        let r = run_quality(QueueSpec::Klsm(128), &cfg);
        assert_eq!(r.rank.mean, 17.252545027407987);
        assert_eq!(r.max, 127);
        assert_eq!(r.deletions, 2554);
        assert_eq!(r.delay.mean, 16.147611589663274);
    }

    #[test]
    fn linden_near_zero_rank_single_thread() {
        let r = run_quality(QueueSpec::Linden, &tiny_cfg(1));
        assert_eq!(r.rank.mean, 0.0);
    }

    #[test]
    fn klsm_rank_within_bound_single_thread() {
        let r = run_quality(QueueSpec::Klsm(128), &tiny_cfg(1));
        assert!(r.deletions > 0);
        // Single thread: bound is k.
        assert!(
            r.rank.mean <= 128.0,
            "mean rank {} exceeds k=128",
            r.rank.mean
        );
    }

    #[test]
    fn multiqueue_rank_positive_but_moderate() {
        let r = run_quality(QueueSpec::MultiQueue(4, 1, 1), &tiny_cfg(2));
        assert!(r.deletions > 0);
        assert!(r.rank.mean < 10_000.0);
    }

    #[test]
    fn concurrent_strict_queue_small_rank() {
        // With concurrency, timestamp inversion can make even a strict
        // queue show tiny nonzero ranks, but they must stay minuscule
        // compared to relaxed queues.
        let r = run_quality(QueueSpec::GlobalLock, &tiny_cfg(4));
        assert!(r.rank.mean < 5.0, "strict queue mean rank {}", r.rank.mean);
    }

    #[test]
    fn recorded_run_drains_only_when_asked() {
        let cfg = tiny_cfg(2);
        for spec in [QueueSpec::GlobalLock, QueueSpec::MultiQueue(4, 8, 8)] {
            let run = with_queue!(spec, 2, q => run_recorded(&Recorded::new(q), &cfg, true));
            assert!(run.drain_start <= run.residual_start, "{spec}");
            let (residual, workers) = run.histories.split_last().unwrap();
            assert!(residual.iter().all(|r| r.ts >= run.residual_start), "{spec}");
            // The workers drain through their own handles: deletes and
            // flushes only, and not nothing.
            let drain = || workers.iter().flatten().filter(|r| r.ts >= run.drain_start);
            assert!(drain().all(|r| !matches!(r.op, Op::Insert(_))), "{spec}");
            assert!(drain().any(|r| matches!(r.op, Op::DeleteMin(Some(_)))), "{spec}");
            let count = |f: fn(&Op) -> bool| run.histories.iter().flatten().filter(|r| f(&r.op)).count();
            let inserts = count(|op| matches!(op, Op::Insert(_)));
            assert_eq!(inserts, count(|op| matches!(op, Op::DeleteMin(Some(_)))), "{spec}");

            // Undrained, each worker's log is its prefill chunk, 3 000
            // mixed ops and the post-window flush.
            let run = with_queue!(spec, 2, q => run_recorded(&Recorded::new(q), &cfg, false));
            assert_eq!((run.drain_start, run.residual_start), (u64::MAX, u64::MAX));
            assert_eq!(run.histories.len(), 2, "{spec}");
            assert_eq!(run.histories.concat().len(), cfg.prefill + 2 * 3_001, "{spec}");
            assert!(run.histories.iter().all(|h| matches!(h.last().unwrap().op, Op::Flush(_))));
        }
    }

    fn ins(key: u64, value: u64) -> Op {
        Op::Insert(Item::new(key, value))
    }

    fn del(key: u64, value: u64) -> Op {
        Op::DeleteMin(Some(Item::new(key, value)))
    }

    /// `ops` as a log stamped in the given order.
    fn log(ops: &[Op]) -> Vec<OpRecord> {
        (0..)
            .zip(ops)
            .map(|(ts, &op)| OpRecord { start: ts, ts, op })
            .collect()
    }

    #[test]
    fn replay_handles_inverted_delete_insert_pairs() {
        // The delete of (5, 1) is stamped before its insert; it is
        // scored when the insert arrives, against the smaller key 2.
        let (ranks, delays) = replay(&log(&[ins(2, 0), del(5, 1), ins(5, 1)]));
        assert_eq!(ranks, vec![1]);
        assert_eq!(delays, vec![0]);
    }

    #[test]
    fn replay_ranks_against_prefill() {
        // Prefill {0,10,20}; delete key 20 → rank 2.
        let (ranks, _) = replay(&log(&[
            ins(0, 100),
            ins(10, 101),
            ins(20, 102),
            del(20, 102),
        ]));
        assert_eq!(ranks, vec![2]);
    }

    #[test]
    fn replay_skips_flushes_and_empty_deletes() {
        let (ranks, _) = replay(&log(&[
            ins(3, 0),
            Op::DeleteMin(None),
            ins(1, 1),
            Op::Flush(2),
            del(3, 0),
        ]));
        assert_eq!(ranks, vec![1]);
    }

    #[test]
    fn replay_delay_counts_passes_by_larger_deletions() {
        // Prefill {1, 5, 9}. Delete 9 (passes 1 and 5), delete 5
        // (passes 1), delete 1: delays 0, 1, 2 in deletion order.
        let (ranks, delays) = replay(&log(&[
            ins(1, 0),
            ins(5, 1),
            ins(9, 2),
            del(9, 2),
            del(5, 1),
            del(1, 0),
        ]));
        assert_eq!(ranks, vec![2, 1, 0]);
        assert_eq!(delays, vec![0, 1, 2]);
    }

    #[test]
    fn replay_delay_baseline_excludes_pre_insert_passes() {
        // Delete 9 from the prefill first, THEN insert 1; 1's delay must
        // not count the earlier pass.
        let (_, delays) = replay(&log(&[
            ins(9, 2),
            ins(3, 3),
            del(9, 2),
            ins(1, 10),
            del(3, 3),
            del(1, 10),
        ]));
        // 9: delay 0 (prefill baseline, nothing deleted before).
        // 3: passed over once (by 9's deletion).
        // 1: inserted after 9's deletion; only 3's deletion passes it.
        assert_eq!(delays, vec![0, 1, 1]);
    }

    #[test]
    fn strict_queue_has_zero_delay_single_thread() {
        let r = run_quality(QueueSpec::GlobalLock, &tiny_cfg(1));
        assert_eq!(r.delay.mean, 0.0, "strict queue must never pass items over");
    }

    #[test]
    fn relaxed_queue_has_positive_delay() {
        let r = run_quality(QueueSpec::Klsm(128), &tiny_cfg(1));
        // k-LSM with k=128 skips items regularly even single-threaded.
        assert!(r.delay.mean > 0.0, "klsm delay {}", r.delay.mean);
    }
}
