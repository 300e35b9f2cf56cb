//! Jobs: every measured unit runs in a process of its own.
//!
//! The lock-free queues leak through the vendored epoch stub and the LSM
//! queues allocate in bulk, so inside one long-lived process a cell's
//! speed depends on what ran before it (measured on `sawtooth_p2`:
//! klsm128 fell from 7.6 to 4.1 Mops/s between the first and the fifth
//! round of one process, and holds 7.3–8.0 in fresh processes). A fresh
//! process per job removes that coupling — a change to one queue cannot
//! move another queue's numbers — and turns "a cell that panics or hangs
//! is reported as failed, not dropped" into an exit code and a kill.
//!
//! The parent re-runs its own executable with its own arguments plus
//! `--job <spec>`; the child prints one line of `key=value` fields.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use checker::{run_and_check, CheckConfig};
use harness::{run_quality, with_queue, QueueSpec};
use pq_traits::telemetry;
use workloads::config::StopCondition;
use workloads::{BenchConfig, Workload};

use crate::cell::{peak_rss_mb, run_named, Wrap};
use crate::json::Json;
use crate::spec::{layer_of, queue_spec, Plan, WorkloadSpec};
use crate::stats::cv;
use crate::timed::{trace_json, Op, Recorder};

/// What a job reported: numbers by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fields(BTreeMap<String, f64>);

impl Fields {
    /// The value of `key`; `NaN` if the job did not report it.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(f64::NAN)
    }

    /// The value of a counter field; 0 if the job did not report it.
    pub fn count(&self, key: &str) -> u64 {
        self.0.get(key).map_or(0, |v| *v as u64)
    }

    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.0.insert(key.into(), value);
    }

    /// Fields whose name starts with `prefix`, with the prefix removed.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, f64)> {
        self.0
            .iter()
            .filter_map(move |(k, v)| Some((k.strip_prefix(prefix)?, *v)))
    }

    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    pub fn parse(line: &str) -> Result<Fields, String> {
        let mut fields = Fields::default();
        for token in line.split_whitespace() {
            let (k, v) = token
                .split_once('=')
                .ok_or_else(|| format!("'{token}' is not key=value"))?;
            fields.set(k, v.parse::<f64>().map_err(|e| format!("'{token}': {e}"))?);
        }
        Ok(fields)
    }
}

/// Why a job produced no numbers.
#[derive(Clone, Debug, PartialEq)]
pub enum JobFailure {
    /// It exited non-zero (a panic included) or printed no result.
    Failed(String),
    /// It ran past its limit and was killed.
    TimedOut,
}

/// Starts jobs: this executable, this run's arguments, one job each.
pub struct Runner {
    exe: PathBuf,
    args: Vec<String>,
}

impl Runner {
    pub fn new(args: &[String]) -> Result<Runner, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
        Ok(Runner {
            exe,
            args: args.to_vec(),
        })
    }

    /// Run `job` in a fresh process, for at most `limit`.
    pub fn run(&self, job: &str, limit: Duration) -> Result<Fields, JobFailure> {
        let mut command = Command::new(&self.exe);
        command
            .args(&self.args)
            .args(["--job", job])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        run_command(command, limit)
    }
}

fn run_command(mut command: Command, limit: Duration) -> Result<Fields, JobFailure> {
    let mut child = command
        .spawn()
        .map_err(|e| JobFailure::Failed(format!("cannot start: {e}")))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Read on a helper thread so the wait can time out; killing the
    // child closes the pipe and ends the read.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let read = stdout.read_to_string(&mut text).map(|_| text);
        // The receiver is gone only after a time-out.
        let _ = tx.send(read);
    });
    let received = rx.recv_timeout(limit);
    if received.is_err() {
        // Already exited is the only way kill fails; wait() reaps either way.
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| JobFailure::Failed(format!("wait: {e}")))?;
    reader.join().expect("the reader thread does not panic");
    let text = match received {
        Ok(Ok(text)) => text,
        Ok(Err(e)) => return Err(JobFailure::Failed(format!("unreadable output: {e}"))),
        Err(_) => return Err(JobFailure::TimedOut),
    };
    if !status.success() {
        return Err(JobFailure::Failed(format!("{status}")));
    }
    let line = text
        .lines()
        .last()
        .ok_or_else(|| JobFailure::Failed("no result line".to_owned()))?;
    Fields::parse(line).map_err(JobFailure::Failed)
}

/// Ten times a cell's window, plus room for set-up; fixed-ops cells get
/// the time their op count would take at 0.02 Mops/s.
pub fn cell_limit(cfg: &BenchConfig) -> Duration {
    let window = match cfg.stop {
        StopCondition::Duration(d) => d,
        StopCondition::OpsPerThread(n) => Duration::from_secs_f64(n as f64 / 200_000.0),
    };
    window * 10 + Duration::from_secs(30)
}

/// Limit for correctness and rank-error jobs, which run fixed op counts.
pub const FIXED_JOB_LIMIT: Duration = Duration::from_secs(120);

/// Fully linearizable strict queues, for which per-thread monotonicity
/// may be asserted during the concurrent drain (as in `checker_stress`).
fn strict_drain(spec: QueueSpec) -> bool {
    matches!(
        spec,
        QueueSpec::Linden | QueueSpec::GlobalLock | QueueSpec::FcMound(1)
    )
}

/// The child side: run the job `spec` describes and return its fields.
///
/// * `cell:<queue>:<bare|counted|timed>:<share>:<round>` — one
///   throughput cell with `share` of the run's seconds and the streams of
///   `round`; `timed` appends the cell's spans and histograms as one JSON
///   line to `trace_path`.
/// * `check:<queue>` — one correctness-gate cell.
/// * `rank:<queue>:<ops>:<round>` — one rank-error run of `ops`
///   operations per thread.
pub fn run_child(
    spec: &str,
    w: &WorkloadSpec,
    plan: &Plan,
    seed: u64,
    trace_path: &Path,
) -> Result<Fields, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let number = |s: &str| s.parse::<f64>().map_err(|e| format!("job '{spec}': {e}"));
    let mut out = match parts[..] {
        ["cell", queue, wrap, share, round] => {
            let cfg = plan.cell_config(w, seed, number(round)? as usize, number(share)?);
            cell_job(queue, wrap, &cfg, w, trace_path)?
        }
        ["check", queue] => check_job(queue, w, plan, seed),
        ["rank", queue, ops, round] => {
            let cfg = plan.cell_config(w, seed, number(round)? as usize, plan.e2e_share(w));
            rank_job(queue, number(ops)? as u64, cfg)
        }
        _ => return Err(format!("unknown job '{spec}'")),
    };
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

fn cell_job(
    queue: &str,
    wrap: &str,
    cfg: &BenchConfig,
    w: &WorkloadSpec,
    trace_path: &Path,
) -> Result<Fields, String> {
    let rec = Recorder::new();
    let wrap = match wrap {
        "bare" => Wrap::Bare,
        "counted" => Wrap::Counted,
        "timed" => Wrap::Timed(std::sync::Arc::clone(&rec)),
        other => return Err(format!("unknown wrap '{other}'")),
    };
    let before = telemetry::snapshot();
    let cell = run_named(queue, cfg, &wrap);
    let events = telemetry::snapshot().since(&before);

    let mut out = Fields::default();
    out.set("successful", cell.successful as f64);
    out.set("empty", cell.empty as f64);
    out.set("window_s", cell.window_s);
    out.set("setup_s", cell.setup_s);
    out.set("prefill", cfg.prefill as f64);
    out.set("rss_growth_bytes", cell.rss_growth_bytes as f64);
    out.set("tick_cv", cv(&cell.ticks));
    out.set("ticks", cell.ticks.len() as f64);
    for (event, n) in events.iter().filter(|(_, n)| *n > 0) {
        out.set(format!("ev.{}", event.name()), n as f64);
    }
    let logs = rec.take();
    if let [log] = &logs[..] {
        let (ins, del) = (log.histogram(Op::Insert), log.histogram(Op::DeleteMin));
        out.set("insert_n", ins.count() as f64);
        out.set("insert_ns_p50", ins.percentile(0.5) as f64);
        out.set("delete_n", del.count() as f64);
        out.set("delete_ns_p50", del.percentile(0.5) as f64);
        out.set("delete_ns_p99", del.percentile(0.99) as f64);
        let (spans, mean_ns) = log.op_mean_ns();
        out.set("span_n", spans as f64);
        out.set("span_mean_ns", mean_ns);
        let line = Json::obj([
            ("workload", Json::str(w.name)),
            ("cell", Json::str(format!("{}.{queue}", layer_of(queue)))),
            ("seed", Json::Int(cfg.seed)),
            ("trace", trace_json(&logs)),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(trace_path)
            .and_then(|mut f| writeln!(f, "{line}"));
        appended.map_err(|e| format!("{}: {e}", trace_path.display()))?;
    }
    Ok(out)
}

fn check_job(queue: &str, w: &WorkloadSpec, plan: &Plan, seed: u64) -> Fields {
    let spec = queue_spec(queue);
    let cfg = CheckConfig {
        threads: w.threads,
        prefill: plan.check_ops / 2,
        ops_per_thread: plan.check_ops,
        workload: match w.workload {
            // Scaled so a gate cell still sees several insert and
            // delete phases.
            Workload::Sorting { batch } => Workload::Sorting {
                batch: batch.min(plan.check_ops as u64 / 4),
            },
            other => other,
        },
        key_dist: w.key_dist,
        seed,
        strict_drain_check: strict_drain(spec),
    };
    let started = Instant::now();
    let report = with_queue!(spec, w.threads, q => run_and_check(q, &cfg, None));
    if !report.is_clean() {
        eprintln!(
            "checker: {queue} on {}: {}",
            w.name,
            report.violation_json()
        );
    }
    let mut out = Fields::default();
    out.set(
        "ops",
        (report.inserts + report.deletes + report.empty_deletes) as f64,
    );
    // Rank verdicts rest on invocation/completion stamps; the others
    // need none.
    out.set("rank_violations", report.rank_violations as f64);
    out.set(
        "hard_violations",
        (report.violations_total() - report.rank_violations) as f64,
    );
    out.set("check_s", started.elapsed().as_secs_f64());
    out
}

/// Mean rank error under an end-to-end cell's configuration (thread
/// count, op mix, key distribution, prefill), over `ops` operations per
/// thread — or the cell's own count, if that is smaller.
fn rank_job(queue: &str, ops: u64, mut cfg: BenchConfig) -> Fields {
    let ops = match cfg.stop {
        StopCondition::OpsPerThread(n) => n.min(ops),
        StopCondition::Duration(_) => ops,
    };
    // A prefill equal to the op count stays equal, so the queue still
    // cannot drain.
    if cfg.stop == StopCondition::OpsPerThread(cfg.prefill as u64) {
        cfg.prefill = ops as usize;
    }
    cfg.stop = StopCondition::OpsPerThread(ops);
    let q = run_quality(queue_spec(queue), &cfg);
    let mut out = Fields::default();
    out.set("rank_mean", q.rank.mean);
    out.set("deletions", q.deletions as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn fields_round_trip_with_every_digit() {
        let mut f = Fields::default();
        f.set("window_s", 0.1 + 0.2);
        f.set("successful", 123_456_789.0);
        f.set("ev.skiplist_cas_retry", 7.0);
        let back = Fields::parse(&f.render()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.count("successful"), 123_456_789);
        assert_eq!(back.count("absent"), 0);
        assert!(back.get("absent").is_nan());
        assert_eq!(
            back.with_prefix("ev.").collect::<Vec<_>>(),
            [("skiplist_cas_retry", 7.0)]
        );
        assert!(Fields::parse("a=1 b").is_err());
        assert!(Fields::parse("a=x").is_err());
    }

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.args(["-c", script]).stdout(Stdio::piped());
        c
    }

    #[test]
    fn a_job_that_fails_or_hangs_is_reported_not_dropped() {
        let ok = run_command(sh("echo noise; echo a=1 b=2.5"), Duration::from_secs(10)).unwrap();
        assert_eq!((ok.get("a"), ok.get("b")), (1.0, 2.5));
        let failed = run_command(sh("echo a=1; exit 101"), Duration::from_secs(10));
        assert!(
            matches!(failed, Err(JobFailure::Failed(ref why)) if why.contains("101")),
            "{failed:?}"
        );
        let silent = run_command(sh("true"), Duration::from_secs(10));
        assert_eq!(silent, Err(JobFailure::Failed("no result line".to_owned())));
        let started = Instant::now();
        let hung = run_command(sh("exec sleep 30"), Duration::from_millis(100));
        assert_eq!(hung, Err(JobFailure::TimedOut));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the hung job was killed, not waited for"
        );
    }

    #[test]
    fn child_jobs_report_their_fields() {
        let w = workload("uniform_p2").unwrap();
        let plan = Plan::smoke();
        let trace =
            std::env::temp_dir().join(format!("perf_ledger_job_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&trace);

        let cell = run_child("cell:linden:timed:0.01:0", w, &plan, 5, &trace).unwrap();
        assert!(
            cell.count("successful") > 0
                && cell.get("window_s") > 0.0
                && cell.get("peak_rss_mb") > 0.0
        );
        assert_eq!(
            cell.count("span_n"),
            cell.count("successful") + cell.count("empty")
        );
        let line = std::fs::read_to_string(&trace).unwrap();
        assert!(
            line.contains(r#""cell": "skiplist.linden""#)
                && line.contains(r#""name": "skiplist.linden.rep""#)
        );
        let _ = std::fs::remove_file(&trace);

        let noop = run_child("cell:noop:counted:0.01:1", w, &plan, 5, &trace).unwrap();
        assert!(noop.count("successful") > 0 && noop.get("span_n").is_nan());

        let check = run_child("check:globallock", w, &plan, 5, &trace).unwrap();
        assert_eq!(
            (
                check.count("hard_violations"),
                check.count("rank_violations")
            ),
            (0, 0)
        );
        assert!(check.count("ops") >= 2 * plan.check_ops as u64);

        let rank = run_child("rank:klsm128:2000:0", w, &plan, 5, &trace).unwrap();
        assert!(rank.get("rank_mean") >= 0.0 && rank.count("deletions") > 0);

        assert!(run_child("cell:linden:sideways:0.01:0", w, &plan, 5, &trace).is_err());
        assert!(run_child("mystery:linden", w, &plan, 5, &trace).is_err());
    }
}
