//! History verification: conservation, rank-bound replay, and
//! strict-order spot checks.

use harness::RecordedRun;
use pq_traits::{Key, Op, RelaxationBound};

use crate::CheckConfig;

/// Extra rank allowance on top of a queue's declared bound, absorbing
/// the stamping noise the interval replay cannot eliminate: an
/// operation's effect lands anywhere between its invocation and
/// completion stamps, so up to `threads − 1` in-flight peers can
/// distort a deletion's observed rank at every step of its interval.
/// `4·threads` with a floor of 16 separates real bound violations (the
/// mutation wrappers produce ranks ≳ 60) from that noise with margin
/// on both sides.
pub fn rank_slack(threads: usize) -> u64 {
    (4 * threads as u64).max(16)
}

/// Result of checking one recorded run.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckReport {
    /// Queue display name.
    pub queue: String,
    /// Worker thread count.
    pub threads: usize,
    /// Workload name (operation mix).
    pub workload: String,
    /// Key distribution name.
    pub key_dist: String,
    /// Master seed of the cell.
    pub seed: u64,
    /// Chaos seed the cell ran under, if perturbation was on.
    pub chaos_seed: Option<u64>,

    /// Recorded insert operations (prefill + mixed phase).
    pub inserts: u64,
    /// Recorded successful deletions (all phases).
    pub deletes: u64,
    /// Recorded `delete_min() == None` observations.
    pub empty_deletes: u64,
    /// Total items reported committed by `flush()` calls.
    pub flushed_items: u64,

    /// Items inserted but never deleted (still "in" the queue after the
    /// residual sweep claimed emptiness) — lost.
    pub lost: u64,
    /// Deletions of an item beyond its insert count — duplicated.
    pub duplicated: u64,
    /// Deletions of an item that was never inserted — invented.
    pub invented: u64,

    /// Deletions whose rank the replay checked (every deletion of a
    /// live item).
    pub rank_checked: u64,
    /// Largest observed rank.
    pub rank_max: u64,
    /// Mean observed rank.
    pub rank_mean: f64,
    /// The queue's declared bound for this thread count (`None` =
    /// unbounded; rank violations are then not counted).
    pub rank_bound: Option<u64>,
    /// Whether the declared bound is a guaranteed per-operation bound.
    /// Probabilistic reference curves (the SprayList) are reported but
    /// not enforced — exceeding them is expected tail behavior, not a
    /// violation.
    pub rank_bound_enforced: bool,
    /// Slack added to the bound before flagging (see [`rank_slack`]).
    pub rank_slack: u64,
    /// Deletions whose rank exceeded `bound + slack`.
    pub rank_violations: u64,

    /// Whether strict-order spot checks applied (declared bound 0).
    pub strict: bool,
    /// Strict queues: drain-phase deletions within one thread that went
    /// backwards (smaller key after larger).
    pub monotonicity_violations: u64,
    /// Strict queues: out-of-order deletions in the single-threaded
    /// residual sweep (must be exactly sorted).
    pub residual_order_violations: u64,
}

impl CheckReport {
    /// Sum of all violation counters.
    pub fn violations_total(&self) -> u64 {
        self.lost
            + self.duplicated
            + self.invented
            + self.rank_violations
            + self.monotonicity_violations
            + self.residual_order_violations
    }

    /// `true` when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations_total() == 0
    }

    /// The deterministic subset of the report: cell identity plus
    /// violation counters. Two runs of the same cell with the same
    /// seeds must produce byte-identical strings — statistics like mean
    /// rank, which legitimately vary with interleaving, are excluded.
    pub fn violation_json(&self) -> String {
        format!(
            "{{\"queue\": \"{}\", \"threads\": {}, \"workload\": \"{}\", \
             \"key_dist\": \"{}\", \"seed\": {}, \"chaos_seed\": {}, \
             \"lost\": {}, \"duplicated\": {}, \"invented\": {}, \
             \"rank_violations\": {}, \"monotonicity_violations\": {}, \
             \"residual_order_violations\": {}}}",
            json_escape(&self.queue),
            self.threads,
            json_escape(&self.workload),
            json_escape(&self.key_dist),
            self.seed,
            self.chaos_seed
                .map_or("null".to_owned(), |s| s.to_string()),
            self.lost,
            self.duplicated,
            self.invented,
            self.rank_violations,
            self.monotonicity_violations,
            self.residual_order_violations,
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Verify one recorded run against the queue's declared semantics.
///
/// Checks, in order:
/// 1. **Strict spot checks** (declared bound 0 only) — per-thread
///    drain-phase deletions are non-decreasing, and the single-threaded
///    residual sweep is exactly sorted.
/// 2. **Rank replay** — the run goes through [`harness::replay`], the
///    quality benchmark's replay; each deletion's in-flight low (the
///    lowest count of strictly smaller live keys at any replay step
///    from its invocation stamp to its completion stamp, since its
///    effect landed somewhere in between) must stay within the declared
///    [`RelaxationBound`] plus [`rank_slack`]. A deletion stamped
///    before its insert is not ranked.
/// 3. **Conservation** — the run ends with a residual sweep to
///    emptiness, so nothing may remain: items the replay leaves live
///    are *lost*, deletions it leaves parked are *duplicated* (the item
///    was inserted) or *invented* (it never was).
pub fn check<Q: RelaxationBound>(
    queue_name: &str,
    queue: &Q,
    cfg: &CheckConfig,
    run: &RecordedRun,
    chaos_seed: Option<u64>,
) -> CheckReport {
    let threads = cfg.threads.max(1);
    let bound = queue.rank_bound(threads);
    let enforced = queue.rank_bound_is_guaranteed();
    let slack = rank_slack(threads);
    let strict = bound == Some(0) && enforced;

    // --- Strict per-thread order (uses per-handle record streams,
    // which are in program order by construction). The mixed phase's
    // concurrent inserts may reorder deletions; the concurrent drain is
    // checked only on request (`cfg.strict_drain_check`): queues that
    // are strict only up to in-flight operations (hunt, mound, cbpq)
    // may reorder within a thread under contention, but the
    // single-threaded residual sweep must be sorted for every
    // declared-strict queue.
    let (mut monotonicity_violations, mut residual_order_violations) = (0, 0);
    let from = if cfg.strict_drain_check { run.drain_start } else { run.residual_start };
    if strict {
        for history in &run.histories {
            let mut prev: Option<Key> = None;
            for rec in history.iter().filter(|r| r.ts >= from) {
                let Op::DeleteMin(Some(item)) = rec.op else { continue };
                if prev.is_some_and(|p| item.key < p) {
                    if rec.ts >= run.residual_start {
                        residual_order_violations += 1;
                    } else {
                        monotonicity_violations += 1;
                    }
                }
                prev = Some(item.key);
            }
        }
    }

    // --- Rank replay. Both endpoints of a deletion's interval can be
    // high when it is in flight long: peers delete the smaller items
    // present at its invocation, then inserters add new smaller ones
    // before its completion. A step in between where the rank was small
    // exonerates the queue, so the low is what is judged.
    let (mut rank_checked, mut rank_sum, mut rank_max, mut rank_violations) = (0, 0, 0, 0);
    let tally = harness::replay(&run.histories, |d| {
        let Some(rank) = d.low else { return };
        rank_checked += 1;
        rank_sum += rank;
        rank_max = rank_max.max(rank);
        if let (true, Some(b)) = (enforced, bound) {
            if rank > b + slack {
                rank_violations += 1;
            }
        }
    });

    CheckReport {
        queue: queue_name.to_owned(),
        threads: cfg.threads,
        workload: cfg.workload.name(),
        key_dist: cfg.key_dist.name(),
        seed: cfg.seed,
        chaos_seed,
        inserts: tally.inserts,
        deletes: tally.deletes,
        empty_deletes: tally.empty_deletes,
        flushed_items: tally.flushed_items,
        lost: tally.lost,
        duplicated: tally.duplicated,
        invented: tally.invented,
        rank_checked,
        rank_max,
        rank_mean: if rank_checked > 0 { rank_sum as f64 / rank_checked as f64 } else { 0.0 },
        rank_bound: bound,
        rank_bound_enforced: enforced,
        rank_slack: slack,
        rank_violations,
        strict,
        monotonicity_violations,
        residual_order_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_traits::{Item, OpRecord};

    /// A queue that is nothing but its declared bound: `check` reads
    /// only that, so hand-built histories need no real queue.
    struct Bound(u64);

    impl RelaxationBound for Bound {
        fn rank_bound(&self, _threads: usize) -> Option<u64> {
            Some(self.0)
        }
    }

    fn rec(start: u64, ts: u64, op: Op) -> OpRecord {
        OpRecord { start, ts, op }
    }

    fn ins(key: u64, value: u64) -> Op {
        Op::Insert(Item::new(key, value))
    }

    fn del(key: u64, value: u64) -> Op {
        Op::DeleteMin(Some(Item::new(key, value)))
    }

    /// Check `histories` as one single-threaded cell (slack 16) with
    /// the strict spot checks out of range, so only conservation and
    /// the rank replay speak.
    fn check_histories(histories: Vec<Vec<OpRecord>>) -> CheckReport {
        let run = RecordedRun {
            histories,
            drain_start: u64::MAX,
            residual_start: u64::MAX,
        };
        check(
            "hand-built",
            &Bound(0),
            &CheckConfig::quick(1),
            &run,
            None,
        )
    }

    /// One backwards deletion in each phase: mixed (stamps 6–7, below
    /// `drain_start` 8), concurrent drain (8–9, below `residual_start`
    /// 10) and residual sweep (10–11, its own history).
    fn check_phases(bound: u64, strict_drain_check: bool) -> CheckReport {
        let mut worker: Vec<_> = (0..6).map(|k| rec(k, k, ins(k + 1, k))).collect();
        worker.extend([
            rec(6, 6, del(2, 1)),
            rec(7, 7, del(1, 0)),
            rec(8, 8, del(4, 3)),
            rec(9, 9, del(3, 2)),
        ]);
        let residual = vec![rec(10, 10, del(6, 5)), rec(11, 11, del(5, 4))];
        let run = RecordedRun {
            histories: vec![worker, residual],
            drain_start: 8,
            residual_start: 10,
        };
        let cfg = CheckConfig {
            strict_drain_check,
            ..CheckConfig::quick(1)
        };
        check("hand-built", &Bound(bound), &cfg, &run, None)
    }

    #[test]
    fn strict_order_checks_fire_only_in_their_phase() {
        let r = check_phases(0, true);
        assert!(r.strict);
        assert_eq!((r.monotonicity_violations, r.residual_order_violations), (1, 1));
        let r = check_phases(0, false);
        assert_eq!((r.monotonicity_violations, r.residual_order_violations), (0, 1));
        for strict_drain_check in [true, false] {
            let r = check_phases(4, strict_drain_check);
            assert!(!r.strict);
            assert_eq!((r.monotonicity_violations, r.residual_order_violations), (0, 0));
        }
    }

    #[test]
    fn delete_stamped_before_its_insert_is_parked_not_ranked() {
        // Three smaller keys already present would give the deletion
        // rank 3 if it were ranked when its insert arrives.
        let setup = vec![
            rec(0, 0, ins(1, 0)),
            rec(1, 1, ins(2, 1)),
            rec(2, 2, ins(3, 2)),
        ];
        let inserter = vec![rec(3, 4, ins(9, 7))];
        let deleter = vec![rec(3, 3, del(9, 7))];
        let r = check_histories(vec![setup, inserter, deleter]);
        assert_eq!((r.inserts, r.deletes), (4, 1));
        assert_eq!((r.invented, r.duplicated), (0, 0));
        // The three setup items are still in; only they count as lost.
        assert_eq!(r.lost, 3);
        assert_eq!(r.rank_checked, 0);
        assert_eq!(r.rank_violations, 0);
    }

    #[test]
    fn invented_item_is_counted_and_not_ranked() {
        let r = check_histories(vec![vec![rec(0, 0, ins(5, 0)), rec(1, 1, del(7, 3))]]);
        assert_eq!(r.invented, 1);
        assert_eq!((r.lost, r.duplicated), (1, 0));
        assert_eq!(r.rank_checked, 0);
    }

    #[test]
    fn item_deleted_twice_is_duplicated_once() {
        let h = vec![
            rec(0, 0, ins(5, 0)),
            rec(1, 1, del(5, 0)),
            rec(2, 2, del(5, 0)),
        ];
        let r = check_histories(vec![h]);
        assert_eq!(r.duplicated, 1);
        assert_eq!((r.lost, r.invented), (0, 0));
        assert_eq!(r.rank_checked, 1);
    }

    #[test]
    fn same_item_inserted_and_deleted_twice_is_clean() {
        let h = vec![
            rec(0, 0, ins(5, 0)),
            rec(1, 1, ins(5, 0)),
            rec(2, 2, ins(8, 1)),
            rec(3, 3, del(5, 0)),
            rec(4, 4, del(5, 0)),
            rec(5, 5, del(8, 1)),
        ];
        let r = check_histories(vec![h]);
        assert!(r.is_clean(), "{}", r.violation_json());
        assert_eq!(
            (r.inserts, r.deletes, r.rank_checked, r.rank_max),
            (3, 3, 3, 0)
        );
    }

    #[test]
    fn deletion_is_judged_on_its_smaller_interval_endpoint() {
        // `(100, 0)` is the minimum when the deletion is invoked; 20
        // smaller keys are inserted while it is in flight, so its
        // completion-stamp rank is 20 > 0 + slack.
        let histories = |del_start| {
            let mut inserter = vec![rec(0, 0, ins(100, 0))];
            inserter.extend((0..20).map(|k| rec(k + 1, k + 1, ins(k, k + 1))));
            vec![inserter, vec![rec(del_start, 21, del(100, 0))]]
        };
        let r = check_histories(histories(1));
        assert_eq!((r.rank_checked, r.rank_max, r.rank_violations), (1, 0, 0));
        // Invoked after the inserts, the same deletion has rank 20 at
        // both endpoints and is a violation.
        let r = check_histories(histories(21));
        assert_eq!((r.rank_checked, r.rank_max, r.rank_violations), (1, 20, 1));
    }

    #[test]
    fn deletion_is_judged_on_its_lowest_rank_while_in_flight() {
        // `(100, 0)` and 20 smaller keys are live when the deletion is
        // invoked (stamp 21). A peer deletes the 20 (stamps 21–40), then
        // inserts 20 new smaller keys (41–60) before the deletion
        // completes (61), and finally drains them (62–81). The rank is
        // 20 at both endpoints but 0 between stamps 40 and 41, where
        // the deletion can take effect: a strict queue did nothing
        // wrong. This is the schedule of a deleter descheduled while
        // the other threads keep a split workload running.
        let mut setup = vec![rec(0, 0, ins(100, 0))];
        setup.extend((1..=20).map(|k| rec(k, k, ins(50 + k, k))));
        let mut peer: Vec<_> = (1..=20).map(|k| rec(20 + k, 20 + k, del(50 + k, k))).collect();
        peer.extend((1..=20).map(|k| rec(40 + k, 40 + k, ins(k, 100 + k))));
        peer.extend((1..=20).map(|k| rec(61 + k, 61 + k, del(k, 100 + k))));
        let deleter = vec![rec(21, 61, del(100, 0))];
        let r = check_histories(vec![setup, peer, deleter]);
        assert!(r.is_clean(), "{}", r.violation_json());
        assert_eq!((r.rank_checked, r.rank_max), (41, 0));
    }

    #[test]
    fn one_replay_read_by_quality_and_checker() {
        // Four handles, interleaved:
        //   ts 0–1  setup   inserts (10, 0) and (1, 1)
        //   ts 5    A       deletes (10, 0), invoked at 2: rank 1 then,
        //                   0 once B's deletion lands, 2 at completion
        //   ts 2–4  B       deletes (1, 1), inserts (2, 2) and (3, 3)
        //   ts 6    C       deletes (20, 4), stamped before its insert
        //   ts 7    B       inserts (20, 4): C's deletion is scored now
        //   ts 8    B       deletes (2, 2)
        //   ts 9    C       deletes (3, 3), invoked at 7
        let setup = vec![rec(0, 0, ins(10, 0)), rec(1, 1, ins(1, 1))];
        let a = vec![rec(2, 5, del(10, 0))];
        let b = vec![
            rec(2, 2, del(1, 1)),
            rec(3, 3, ins(2, 2)),
            rec(4, 4, ins(3, 3)),
            rec(6, 7, ins(20, 4)),
            rec(8, 8, del(2, 2)),
        ];
        let c = vec![rec(6, 6, del(20, 4)), rec(7, 9, del(3, 3))];
        let histories = vec![setup, a, b, c];

        let mut quality = Vec::new();
        harness::replay(&histories, |d| quality.push((d.item.key, d.rank, d.low, d.delay)));
        assert_eq!(
            quality,
            vec![
                (1, 0, Some(0), 0),
                // In flight, (10, 0) was the minimum for a moment.
                (10, 2, Some(0), 0),
                // Inverted: quality scores it, the checker cannot.
                (20, 2, None, 0),
                // Passed over by the deletions of 10 and 20.
                (2, 0, Some(0), 2),
                (3, 0, Some(0), 2),
            ]
        );

        // The checker ranks the four deletions with a low, by the low.
        let r = check_histories(histories);
        assert!(r.is_clean(), "{}", r.violation_json());
        assert_eq!((r.inserts, r.deletes, r.lost), (5, 5, 0));
        assert_eq!((r.rank_checked, r.rank_max, r.rank_mean), (4, 0, 0.0));
    }
}
