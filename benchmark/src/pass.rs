//! What the two passes share: running jobs and keeping the tally of
//! operations attempted and failed.

use std::time::Duration;

use workloads::config::StopCondition;

use crate::job::{cell_limit, Fields, JobFailure, Runner, FIXED_JOB_LIMIT};
use crate::report::Outcome;
use crate::spec::{Plan, WorkloadSpec, E2E_QUEUES};
use crate::stats::median;

pub struct Pass<'a> {
    pub runner: &'a Runner,
    pub w: &'a WorkloadSpec,
    pub plan: &'a Plan,
    pub seed: u64,
    pub out: Outcome,
    /// Highest resident-set high-water mark among the jobs so far.
    pub peak_rss_mb: f64,
}

/// What the correctness gate found over the eight queues.
pub struct Gate {
    pub violations: u64,
    pub ops: u64,
    pub check_s: f64,
}

impl<'a> Pass<'a> {
    pub fn new(runner: &'a Runner, w: &'a WorkloadSpec, plan: &'a Plan, seed: u64) -> Pass<'a> {
        Pass {
            runner,
            w,
            plan,
            seed,
            out: Outcome::default(),
            peak_rss_mb: 0.0,
        }
    }

    /// Run one job. A job that fails or hangs becomes a finding and is
    /// charged `charge` failed operations; the pass goes on.
    fn job(&mut self, job: &str, limit: Duration, charge: u64) -> Option<Fields> {
        match self.runner.run(job, limit) {
            Ok(fields) => {
                self.peak_rss_mb = self.peak_rss_mb.max(fields.get("peak_rss_mb"));
                Some(fields)
            }
            Err(why) => {
                self.out.attempted += charge;
                self.out.failed += charge;
                self.out.findings.push(match why {
                    JobFailure::Failed(why) => format!("{job}: failed: {why}"),
                    JobFailure::TimedOut => format!("{job}: killed after {limit:?}"),
                });
                None
            }
        }
    }

    /// One throughput cell of `queue` with `share` of the run's seconds
    /// and the streams of `round`. Counted and traced cells of the eight
    /// end-to-end queues add to the attempted/failed tally.
    pub fn cell(&mut self, queue: &str, wrap: &str, share: f64, round: usize) -> Option<Fields> {
        let cfg = self.plan.cell_config(self.w, self.seed, round, share);
        // All operations of a cell that produced no numbers count as failed.
        let charge = match cfg.stop {
            StopCondition::OpsPerThread(n) => n * cfg.threads as u64,
            StopCondition::Duration(_) => 1,
        };
        let cell = self.job(
            &format!("cell:{queue}:{wrap}:{share}:{round}"),
            cell_limit(&cfg),
            charge,
        )?;
        if wrap != "bare" && E2E_QUEUES.contains(&queue) {
            self.out.attempted += attempted(&cell);
            self.out.failed += cell.count("empty");
        }
        Some(cell)
    }

    /// The correctness gate: every end-to-end queue through
    /// `checker::run_and_check` with the workload's op mix and keys.
    ///
    /// Lost, duplicated or invented items and strict-order violations
    /// count at once. A rank-bound violation counts only if it repeats in
    /// three runs out of three: the checker judges a deletion's rank at
    /// its invocation and completion stamps, and on a 2-core host a
    /// consumer preempted mid-delete across the producer's batch boundary
    /// shows a large rank at both (seen once in about 25 `sawtooth_p2`
    /// gate cells of the strict queues).
    pub fn gate(&mut self) -> Gate {
        let mut gate = Gate {
            violations: 0,
            ops: 0,
            check_s: 0.0,
        };
        let charge = (self.plan.check_ops * self.w.threads) as u64;
        for queue in E2E_QUEUES {
            let (mut hard, mut rank) = (0, u64::MAX);
            for _attempt in 0..3 {
                let Some(check) = self.job(&format!("check:{queue}"), FIXED_JOB_LIMIT, charge)
                else {
                    break;
                };
                gate.ops += check.count("ops");
                gate.check_s += check.get("check_s");
                hard += check.count("hard_violations");
                rank = rank.min(check.count("rank_violations"));
                if rank == 0 {
                    break;
                }
            }
            let violations = hard + if rank == u64::MAX { 0 } else { rank };
            if violations > 0 {
                gate.violations += violations;
                self.out.findings.push(format!(
                    "{queue}: {violations} checker violations (listed on stderr)"
                ));
            }
        }
        self.out.attempted += gate.ops;
        self.out.failed += gate.violations;
        gate
    }

    /// Mean rank error of `queue`: the median over `runs` runs, each on
    /// the streams of another round, and the deletions behind it.
    pub fn rank(&mut self, queue: &str, ops: u64, runs: usize) -> Option<(f64, u64)> {
        let (mut means, mut deletions) = (Vec::new(), 0);
        for round in 0..runs {
            let rank = self.job(&format!("rank:{queue}:{ops}:{round}"), FIXED_JOB_LIMIT, 0)?;
            means.push(rank.get("rank_mean"));
            deletions += rank.count("deletions");
        }
        Some((median(&means), deletions))
    }
}

/// Successful operations per second / 10⁶ of a cell. Empty deletes never count.
pub fn mops(cell: &Fields) -> f64 {
    cell.get("successful") / cell.get("window_s") / 1e6
}

/// Attempted operations of a cell.
pub fn attempted(cell: &Fields) -> u64 {
    cell.count("successful") + cell.count("empty")
}

/// Thread-nanoseconds per attempted operation of a cell.
pub fn thread_ns_per_op(cell: &Fields, threads: usize) -> f64 {
    cell.get("window_s") * 1e9 * threads as f64 / attempted(cell) as f64
}
