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
//! returned, so completion-stamp order is a valid linearization order
//! directly (see DESIGN.md §2). [`replay`] walks the per-handle logs in
//! that order, in place, and is the one replay of a recorded run: the
//! quality benchmark folds its completion ranks and delays, the checker
//! its in-flight lows and its tally. The replay structure is `seqpq`'s
//! [`RankMultiset`], a count of live items per key; because the log
//! stores full `(key, unique value)` items, our replay does **not**
//! inflate ranks for duplicate keys — deletions remove the exact item
//! instance.

use std::{cmp::Reverse, collections::{BTreeMap, BinaryHeap, HashMap}};

use pq_traits::{ConcurrentPq, Item, Key, Op, OpRecord, PqHandle, Recorded, Value};
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
    // Sized up front, as is the replay's key universe: vectors grown by
    // doubling raise the run's peak RSS (EXPERIMENTS.md "One replay for
    // quality and the checker").
    let n = histories
        .iter()
        .flatten()
        .filter(|r| matches!(r.op, Op::DeleteMin(Some(_))))
        .count();
    let (mut ranks, mut delays) = (Vec::with_capacity(n), Vec::with_capacity(n));
    replay(&histories, |d| {
        ranks.push(d.rank);
        delays.push(d.delay);
    });
    // The log is the run's largest allocation: the prefill and the
    // queue go before the replay, the log before the summary.
    drop(histories);
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

/// One deletion as the replay scores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deletion {
    /// The deleted item.
    pub item: Item,
    /// Live items with a strictly smaller key at the step where the
    /// deletion is scored: its completion, or its insert's for a
    /// deletion stamped before its insert. The paper's rank.
    pub rank: u64,
    /// The lowest such count at any step from the deletion's invocation
    /// stamp to its completion stamp, where its effect landed: the rank
    /// a checker can blame on the queue. `None` for a deletion scored
    /// at its insert.
    pub low: Option<u64>,
    /// Deletions of strictly larger keys while the item was live.
    pub delay: u64,
}

/// What a replay counted besides the scored deletions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Insert records.
    pub inserts: u64,
    /// Successful deletion records, scored or not.
    pub deletes: u64,
    /// `delete_min() == None` records.
    pub empty_deletes: u64,
    /// Items reported committed by `flush()` records.
    pub flushed_items: u64,
    /// Items still live at the end.
    pub lost: u64,
    /// Unscored deletions of an item the log inserts.
    pub duplicated: u64,
    /// Deletions of an item the log never inserts.
    pub invented: u64,
}

/// Replay a recorded run through a [`RankMultiset`] of the live items,
/// every record at its completion stamp, calling `on_delete` for each
/// deletion as it is scored.
///
/// The rank of a deleted item is the number of live items with a
/// **strictly smaller key**, so equal-key ties never inflate ranks.
/// Each successful deletion is also probed at its invocation stamp and
/// followed to its completion for its in-flight low.
///
/// A deletion may be stamped before its matching insert (two racing
/// operations can invert); it is parked and scored when the insert
/// arrives. Deletions still parked at the end are duplicates or
/// inventions.
///
/// Alongside ranks, the replay computes per-item *delay* (Rihani et al.):
/// how many deletions of strictly larger keys occurred while the item was
/// live. A Fenwick tree over the compressed key universe turns "deletion
/// of `x` passes over every live smaller key" into a prefix add; an
/// item's delay is the point value at its key, relative to a baseline
/// captured when the item entered the queue.
pub fn replay(histories: &[Vec<OpRecord>], mut on_delete: impl FnMut(Deletion)) -> Tally {
    // Sized up front; see `run_quality`.
    let keys = || {
        histories.iter().flatten().filter_map(|r| match r.op {
            Op::Insert(item) => Some(item.key),
            _ => None,
        })
    };
    let mut universe = Vec::with_capacity(keys().count());
    universe.extend(keys());
    let mut live = RankMultiset::new(universe);
    let mut passes = Fenwick::new(live.universe_len());
    // A B-tree, like the multiset's item counts: its memory follows the
    // live count, which a hash map under this churn overshoots.
    let mut baselines: BTreeMap<Value, i64> = BTreeMap::new();
    let mut parked: HashMap<Item, u64> = HashMap::new();
    let mut tally = Tally::default();
    // The histories are walked in place. Each is in program order, so
    // its next record is the only one of it that can be in flight: the
    // handle invoked it after its previous record completed. A heap
    // holds each history's next event: a successful deletion's probe
    // at `start` until it is probed, else the completion at `ts`. An
    // operation whose invocation load returned `v` started after every
    // operation stamped below `v` had completed, so probes go before
    // completions of equal stamp.
    let event = |h: usize, i: usize| {
        let rec: &OpRecord = histories[h].get(i)?;
        let probe = matches!(rec.op, Op::DeleteMin(Some(_)));
        Some(Reverse(if probe { (rec.start, false, h) } else { (rec.ts, true, h) }))
    };
    let mut heap: BinaryHeap<_> = (0..histories.len()).filter_map(|h| event(h, 0)).collect();
    let mut next = vec![0; histories.len()];
    // The probed deletions, at most one per history: the history, the
    // deleted key, the key's rank now and its lowest rank so far. Only
    // an insert or removal of a smaller key moves the rank, by one.
    let mut in_flight: Vec<(usize, Key, u64, u64)> = Vec::with_capacity(histories.len());
    let mut last = 0;
    while let Some(Reverse((stamp, completion, h))) = heap.pop() {
        debug_assert!(stamp >= last, "history {h} is not sorted by its stamps");
        last = stamp;
        let rec = histories[h][next[h]];
        next[h] += usize::from(completion);
        heap.extend(if completion { event(h, next[h]) } else { Some(Reverse((rec.ts, true, h))) });
        match rec.op {
            Op::DeleteMin(Some(item)) if !completion => {
                let now = live.rank_below(item.key);
                in_flight.push((h, item.key, now, now));
            }
            Op::Insert(item) => {
                tally.inserts += 1;
                let idx = live.key_index(item.key);
                if let Some(n) = parked.remove(&item) {
                    // The item spends no time in the replay queue, so
                    // the live set stays as it is.
                    if n > 1 {
                        parked.insert(item, n - 1);
                    }
                    let rank = live.rank_below(item.key);
                    on_delete(Deletion { item, rank, low: None, delay: 0 });
                    passes.prefix_add(idx, 1);
                } else {
                    live.insert(item);
                    baselines.insert(item.value, passes.get(idx));
                    for (_, _, now, _) in in_flight.iter_mut().filter(|d| item.key < d.1) {
                        *now += 1;
                    }
                }
            }
            Op::DeleteMin(Some(item)) => {
                tally.deletes += 1;
                let at = in_flight.iter().position(|d| d.0 == h);
                let (_, _, rank, low) = in_flight.swap_remove(at.expect("probed before its completion"));
                debug_assert_eq!(rank, live.rank_below(item.key));
                if !live.remove(&item) {
                    *parked.entry(item).or_default() += 1;
                    continue;
                }
                for (_, _, now, lowest) in in_flight.iter_mut().filter(|d| item.key < d.1) {
                    *now -= 1;
                    *lowest = (*lowest).min(*now);
                }
                let idx = live.key_index(item.key);
                let baseline = baselines.remove(&item.value).unwrap_or(0);
                let delay = (passes.get(idx) - baseline).max(0) as u64;
                on_delete(Deletion { item, rank, low: Some(low), delay });
                // This deletion passes over every live item with a smaller key.
                passes.prefix_add(idx, 1);
            }
            Op::DeleteMin(None) => tally.empty_deletes += 1,
            Op::Flush(n) => tally.flushed_items += n,
        }
    }
    // An item is never both live and parked (an insert meets a parked
    // deletion first, a deletion a live instance), so what is live now
    // was lost, and a parked deletion duplicates an item the log
    // inserts or invents one it does not.
    tally.lost = live.live_count();
    if !parked.is_empty() {
        for rec in histories.iter().flatten() {
            if let Op::Insert(item) = rec.op {
                tally.duplicated += parked.remove(&item).unwrap_or(0);
            }
        }
        tally.invented = parked.values().sum();
    }
    tally
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

    /// `ops` as one handle's log, stamped in the given order.
    fn log(ops: &[Op]) -> Vec<Vec<OpRecord>> {
        vec![(0..)
            .zip(ops)
            .map(|(ts, &op)| OpRecord { start: ts, ts, op })
            .collect()]
    }

    /// Every scored deletion of a replay, in scoring order.
    fn deletions(histories: &[Vec<OpRecord>]) -> Vec<Deletion> {
        let mut out = Vec::new();
        replay(histories, |d| out.push(d));
        out
    }

    fn ranks(histories: &[Vec<OpRecord>]) -> Vec<u64> {
        deletions(histories).iter().map(|d| d.rank).collect()
    }

    fn delays(histories: &[Vec<OpRecord>]) -> Vec<u64> {
        deletions(histories).iter().map(|d| d.delay).collect()
    }

    #[test]
    fn replay_handles_inverted_delete_insert_pairs() {
        // The delete of (5, 1) is stamped before its insert; it is
        // scored when the insert arrives, against the smaller key 2,
        // with no delay and no in-flight low.
        let d = deletions(&log(&[ins(2, 0), del(5, 1), ins(5, 1)]));
        let scored = Deletion { item: Item::new(5, 1), rank: 1, low: None, delay: 0 };
        assert_eq!(d, vec![scored]);
    }

    #[test]
    fn replay_ranks_against_prefill() {
        // Prefill {0,10,20}; delete key 20 → rank 2.
        let r = ranks(&log(&[
            ins(0, 100),
            ins(10, 101),
            ins(20, 102),
            del(20, 102),
        ]));
        assert_eq!(r, vec![2]);
    }

    #[test]
    fn replay_skips_flushes_and_empty_deletes() {
        let h = log(&[
            ins(3, 0),
            Op::DeleteMin(None),
            ins(1, 1),
            Op::Flush(2),
            del(3, 0),
        ]);
        assert_eq!(ranks(&h), vec![1]);
        let tally = replay(&h, |_| ());
        let counted = Tally {
            inserts: 2,
            deletes: 1,
            empty_deletes: 1,
            flushed_items: 2,
            lost: 1,
            ..Tally::default()
        };
        assert_eq!(tally, counted);
    }

    #[test]
    fn replay_delay_counts_passes_by_larger_deletions() {
        // Prefill {1, 5, 9}. Delete 9 (passes 1 and 5), delete 5
        // (passes 1), delete 1: delays 0, 1, 2 in deletion order.
        let h = log(&[
            ins(1, 0),
            ins(5, 1),
            ins(9, 2),
            del(9, 2),
            del(5, 1),
            del(1, 0),
        ]);
        assert_eq!(ranks(&h), vec![2, 1, 0]);
        assert_eq!(delays(&h), vec![0, 1, 2]);
    }

    #[test]
    fn replay_delay_baseline_excludes_pre_insert_passes() {
        // Delete 9 from the prefill first, THEN insert 1; 1's delay must
        // not count the earlier pass.
        let d = delays(&log(&[
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
        assert_eq!(d, vec![0, 1, 1]);
    }

    /// Histories of four handles driven by `steps`: a step of a handle
    /// with no operation in flight invokes its next one (`start` is a
    /// load of the clock), otherwise it completes the one in flight
    /// (`ts` is the clock's next value), so the stamps are valid
    /// `Recorded` stamps. Items are `(5·v mod 7, v)`, inserts take
    /// fresh values and deletions any value below 100, so the histories
    /// hold deletions stamped before their insert, duplicated and
    /// invented deletions, and equal keys.
    fn simulate(steps: &[(usize, u64, u64)]) -> Vec<Vec<OpRecord>> {
        let item = |v: u64| Item::new(5 * v % 7, v);
        let mut histories = vec![Vec::new(); 4];
        let mut invoked: Vec<Option<(u64, Op)>> = vec![None; 4];
        let (mut clock, mut fresh) = (0, 0);
        for &(h, kind, v) in steps {
            match invoked[h].take() {
                Some((start, op)) => {
                    histories[h].push(OpRecord { start, ts: clock, op });
                    clock += 1;
                }
                None => {
                    let op = match kind {
                        0..=3 => {
                            fresh += 1;
                            Op::Insert(item(fresh - 1))
                        }
                        4..=6 => Op::DeleteMin(Some(item(v))),
                        7 => Op::DeleteMin(None),
                        _ => Op::Flush(v),
                    };
                    invoked[h] = Some((clock, op));
                }
            }
        }
        histories
    }

    /// The replay as one sort: the records concatenated, a probe event
    /// at each successful deletion's `start` and a completion event at
    /// every record's `ts`, sorted with probes first on equal stamps.
    /// Plain vectors stand in for the rank structures: the live items
    /// with their delays so far, the parked deletions and the in-flight
    /// lows, each low refreshed after every event.
    fn sorted_replay(histories: &[Vec<OpRecord>]) -> (Vec<Deletion>, Tally) {
        let records = histories.concat();
        let mut events: Vec<(u64, bool, usize)> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if let Op::DeleteMin(Some(_)) = r.op {
                events.push((r.start, false, i));
            }
            events.push((r.ts, true, i));
        }
        events.sort_unstable();
        let below = |live: &[(Item, u64)], key: Key| {
            live.iter().filter(|(it, _)| it.key < key).count() as u64
        };
        let pass = |live: &mut [(Item, u64)], key: Key| {
            for (_, delay) in live.iter_mut().filter(|(it, _)| it.key < key) {
                *delay += 1;
            }
        };
        let mut live: Vec<(Item, u64)> = Vec::new();
        let mut parked: Vec<Item> = Vec::new();
        let mut lows: Vec<(usize, Key, u64)> = Vec::new();
        let (mut out, mut tally) = (Vec::new(), Tally::default());
        for (_, completion, i) in events {
            match records[i].op {
                Op::DeleteMin(Some(item)) if !completion => {
                    lows.push((i, item.key, below(&live, item.key)));
                }
                Op::Insert(item) => {
                    tally.inserts += 1;
                    match parked.iter().position(|&p| p == item) {
                        Some(p) => {
                            parked.swap_remove(p);
                            let rank = below(&live, item.key);
                            out.push(Deletion { item, rank, low: None, delay: 0 });
                            pass(&mut live, item.key);
                        }
                        None => live.push((item, 0)),
                    }
                }
                Op::DeleteMin(Some(item)) => {
                    tally.deletes += 1;
                    let at = lows.iter().position(|l| l.0 == i).unwrap();
                    let (_, _, low) = lows.swap_remove(at);
                    match live.iter().position(|&(it, _)| it == item) {
                        Some(p) => {
                            let rank = below(&live, item.key);
                            let (_, delay) = live.swap_remove(p);
                            out.push(Deletion { item, rank, low: Some(low), delay });
                            pass(&mut live, item.key);
                        }
                        None => parked.push(item),
                    }
                }
                Op::DeleteMin(None) => tally.empty_deletes += 1,
                Op::Flush(n) => tally.flushed_items += n,
            }
            for l in &mut lows {
                l.2 = l.2.min(below(&live, l.1));
            }
        }
        tally.lost = live.len() as u64;
        for item in parked {
            if records.iter().any(|r| r.op == Op::Insert(item)) {
                tally.duplicated += 1;
            } else {
                tally.invented += 1;
            }
        }
        (out, tally)
    }

    proptest::proptest! {
        /// The in-place walk scores the same deletions, in the same
        /// order, and counts the same tally as the sorted replay.
        #[test]
        fn prop_replay_matches_sorted_replay(
            steps in proptest::collection::vec((0usize..4, 0u64..9, 0u64..100), 0..300)
        ) {
            let histories = simulate(&steps);
            let mut walked = Vec::new();
            let tally = replay(&histories, |d| walked.push(d));
            proptest::prop_assert_eq!((walked, tally), sorted_replay(&histories));
        }
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
