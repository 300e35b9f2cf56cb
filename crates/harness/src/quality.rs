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
//! Timestamps come from a single global `fetch_add` counter bumped at
//! each operation's completion, which yields a valid linearization order
//! directly (see DESIGN.md §2). The replay structure is the
//! order-statistic treap from `seqpq`; because the log stores full
//! `(key, unique value)` items, our replay does **not** inflate ranks for
//! duplicate keys — deletions remove the exact item instance.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use pq_traits::{Item, Key, PqHandle, Value};
use seqpq::{Fenwick, OsTreap};
use workloads::config::{StopCondition, PREFILL_TAG};
use workloads::BenchConfig;

use crate::registry::QueueSpec;
use crate::stats::Summary;
use crate::throughput::{run_once, Probe};
use crate::with_queue;

/// One logged operation.
#[derive(Clone, Copy, Debug)]
struct LogEntry {
    ts: u64,
    item: Item,
    is_insert: bool,
}

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
    let prefill = cfg.prefill_items(PREFILL_TAG);
    let clock = AtomicU64::new(0);
    let new_probe = |_| LogProbe {
        clock: &clock,
        log: Vec::with_capacity(ops_per_thread as usize),
    };
    let (_, probes) = with_queue!(spec, cfg.threads, q => run_once(&q, &cfg, 0, &prefill, new_probe));
    let mut log: Vec<LogEntry> = probes.into_iter().flat_map(|p| p.log).collect();
    log.sort_unstable_by_key(|e| e.ts);
    let (mut ranks, delays) = replay(log, prefill);
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

/// Logs every operation with a linearization timestamp: the cell-wide
/// `clock` is bumped once the operation has completed. Empty deletions
/// are not logged. The harness flushes each handle before the logs are
/// collected: buffered inserts become visible (they are already
/// logged), and deletion-buffered items return to the queue (they were
/// never logged as deleted).
struct LogProbe<'a> {
    clock: &'a AtomicU64,
    log: Vec<LogEntry>,
}

impl LogProbe<'_> {
    fn push(&mut self, item: Item, is_insert: bool) {
        let ts = self.clock.fetch_add(1, Ordering::Relaxed);
        self.log.push(LogEntry { ts, item, is_insert });
    }
}

impl Probe for LogProbe<'_> {
    #[inline]
    fn insert<H: PqHandle>(&mut self, h: &mut H, key: Key, value: Value) {
        h.insert(key, value);
        self.push(Item::new(key, value), true);
    }

    #[inline]
    fn delete_min<H: PqHandle>(&mut self, h: &mut H) -> Option<Item> {
        let item = h.delete_min()?;
        self.push(item, false);
        Some(item)
    }
}

/// Replay the linearized log against an order-statistic treap, recording
/// the rank of every deleted item.
///
/// The rank of a deleted item is the number of live items with a
/// **strictly smaller key** — computed as the order-statistic rank of
/// the key-floor item `(key, 0)`, so equal-key ties never inflate ranks.
/// (The paper's replay "may return artificially inflated ranks when
/// items with duplicate keys are encountered"; logging full
/// `(key, unique id)` pairs lets us avoid that pessimism.)
///
/// A deletion may appear in the log slightly before its matching insert
/// (the timestamp is taken after the operation completes, so two racing
/// operations can invert); such deletions are buffered and resolved with
/// rank computed when the insert arrives.
///
/// Alongside ranks, the replay computes per-item *delay* (Rihani et al.):
/// how many deletions of strictly larger keys occurred while the item was
/// live. A Fenwick tree over the compressed key universe turns "deletion
/// of `x` passes over every live smaller key" into a prefix add; an
/// item's delay is the point value at its key, relative to a baseline
/// captured when the item entered the queue.
fn replay(log: Vec<LogEntry>, prefill: Vec<Item>) -> (Vec<u64>, Vec<u64>) {
    // Compress the key universe.
    let mut keys: Vec<Key> = prefill
        .iter()
        .chain(log.iter().map(|e| &e.item))
        .map(|it| it.key)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let key_idx = |k: Key| keys.binary_search(&k).expect("key in universe");

    let mut treap = OsTreap::new();
    let mut passes = Fenwick::new(keys.len());
    let mut baselines: HashMap<Value, i64> = HashMap::new();
    for it in prefill {
        treap.insert_item(it);
        baselines.insert(it.value, 0);
    }
    let mut ranks = Vec::new();
    let mut delays = Vec::new();
    let mut pending: HashSet<Value> = HashSet::new();
    let delete = |treap: &mut OsTreap,
                      passes: &mut Fenwick,
                      baselines: &mut HashMap<Value, i64>,
                      item: &Item|
     -> Option<(u64, u64)> {
        let rank = treap.rank_of(&Item::new(item.key, 0));
        treap.remove_item(item)?;
        let idx = key_idx(item.key);
        let baseline = baselines.remove(&item.value).unwrap_or(0);
        let delay = (passes.get(idx) - baseline).max(0) as u64;
        // This deletion passes over every live item with a smaller key.
        passes.prefix_add(idx, 1);
        Some((rank, delay))
    };
    for e in log {
        if e.is_insert {
            treap.insert_item(e.item);
            baselines.insert(e.item.value, passes.get(key_idx(e.item.key)));
            if pending.remove(&e.item.value) {
                // Deletion already observed: the item spent no time in
                // the replay queue; rank/delay are what they'd have been
                // on arrival.
                let (r, d) = delete(&mut treap, &mut passes, &mut baselines, &e.item)
                    .expect("item was just inserted");
                ranks.push(r);
                delays.push(d);
            }
        } else {
            match delete(&mut treap, &mut passes, &mut baselines, &e.item) {
                Some((r, d)) => {
                    ranks.push(r);
                    delays.push(d);
                }
                None => {
                    pending.insert(e.item.value);
                }
            }
        }
    }
    (ranks, delays)
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
    fn replay_handles_inverted_delete_insert_pairs() {
        let item = Item::new(5, 1);
        let log = vec![
            LogEntry {
                ts: 0,
                item,
                is_insert: false,
            },
            LogEntry {
                ts: 1,
                item,
                is_insert: true,
            },
        ];
        let (ranks, delays) = replay(log, vec![]);
        assert_eq!(ranks, vec![0]);
        assert_eq!(delays, vec![0]);
    }

    #[test]
    fn replay_ranks_against_prefill() {
        // Prefill {0,10,20}; delete key 20 → rank 2.
        let prefill = vec![Item::new(0, 100), Item::new(10, 101), Item::new(20, 102)];
        let log = vec![LogEntry {
            ts: 0,
            item: Item::new(20, 102),
            is_insert: false,
        }];
        let (ranks, _) = replay(log, prefill);
        assert_eq!(ranks, vec![2]);
    }

    #[test]
    fn replay_delay_counts_passes_by_larger_deletions() {
        // Prefill {1, 5, 9}. Delete 9 (passes 1 and 5), delete 5
        // (passes 1), delete 1: delays 0, 1, 2 in deletion order.
        let prefill = vec![Item::new(1, 0), Item::new(5, 1), Item::new(9, 2)];
        let del = |key, value, ts| LogEntry {
            ts,
            item: Item::new(key, value),
            is_insert: false,
        };
        let (ranks, delays) = replay(vec![del(9, 2, 0), del(5, 1, 1), del(1, 0, 2)], prefill);
        assert_eq!(ranks, vec![2, 1, 0]);
        assert_eq!(delays, vec![0, 1, 2]);
    }

    #[test]
    fn replay_delay_baseline_excludes_pre_insert_passes() {
        // Delete 9 from the prefill first, THEN insert 1; 1's delay must
        // not count the earlier pass.
        let prefill = vec![Item::new(9, 2), Item::new(3, 3)];
        let log = vec![
            LogEntry {
                ts: 0,
                item: Item::new(9, 2),
                is_insert: false,
            },
            LogEntry {
                ts: 1,
                item: Item::new(1, 10),
                is_insert: true,
            },
            LogEntry {
                ts: 2,
                item: Item::new(3, 3),
                is_insert: false,
            },
            LogEntry {
                ts: 3,
                item: Item::new(1, 10),
                is_insert: false,
            },
        ];
        let (_, delays) = replay(log, prefill);
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
