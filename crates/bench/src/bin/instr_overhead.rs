//! A/B overhead check for an actively recording flight recorder.
//!
//! Runs the same uniform throughput workload on a plain MultiQueue
//! twice — once untraced, once with the flight recorder
//! ([`pq_traits::trace`]) capturing batch spans — and fails (exit 1)
//! when the traced arm is more than `--max-trace-overhead-pct` percent
//! slower, or recorded nothing. This guards the batch-span design
//! against regressions that put clock reads or shared-line traffic in
//! the hot loop; `scripts/bench_smoke.sh` runs it. (The `Instrumented`
//! counters need no gate here: every `perf_ledger` cell runs through
//! them, and its traced pass reports their cost.)
//!
//! Needs `--features trace`; without it the binary exits 2, as
//! `--trace` does on the grid tools.
//!
//! ```text
//! cargo run -p pq-bench --release --features trace --bin instr_overhead -- \
//!     --threads 4 --max-trace-overhead-pct 5
//! ```

use std::time::Duration;

use harness::{experiments, run_throughput_with};
use multiqueue_pq::MultiQueue;
use pq_bench::cli;
use pq_traits::trace;
use workloads::config::StopCondition;
use workloads::BenchConfig;

struct Args {
    threads: usize,
    prefill: usize,
    duration_ms: u64,
    reps: usize,
    seed: u64,
    max_trace_overhead_pct: f64,
}

const USAGE: &str = "usage: instr_overhead [--threads N] [--prefill N] [--duration-ms N] \
                     [--reps N] [--seed N] [--max-trace-overhead-pct F]\n\
                     (build with --features trace)";

fn parse(mut argv: cli::Args) -> Result<Args, String> {
    if !trace::compiled() {
        return Err("instr_overhead requires building with --features trace".to_owned());
    }
    let mut args = Args {
        threads: 4,
        prefill: 100_000,
        duration_ms: 300,
        reps: 3,
        seed: 0x5EED,
        max_trace_overhead_pct: 5.0,
    };
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--threads" => args.threads = argv.positive()?,
            "--prefill" => args.prefill = argv.value()?,
            "--duration-ms" => args.duration_ms = argv.value()?,
            "--reps" => args.reps = argv.value()?,
            "--seed" => args.seed = argv.value()?,
            "--max-trace-overhead-pct" => args.max_trace_overhead_pct = argv.value()?,
            _ => return argv.unknown(),
        }
    }
    Ok(args)
}

fn main() {
    let args = cli::parse_or_exit(USAGE, parse);
    let exp = experiments::by_id("fig4a").expect("uniform experiment registered");
    let cfg = BenchConfig {
        threads: args.threads,
        workload: exp.workload,
        key_dist: exp.key_dist,
        prefill: args.prefill,
        stop: StopCondition::Duration(Duration::from_millis(args.duration_ms)),
        reps: args.reps,
        seed: args.seed,
    };

    let mq = || MultiQueue::new(4, args.threads);
    eprintln!("running plain multiqueue ({} threads)...", args.threads);
    let plain = run_throughput_with("multiqueue", mq, &cfg);
    eprintln!("  {:.3} MOps/s", plain.mops());

    // Same plain queue, with the flight recorder actively capturing
    // batch spans during the run.
    eprintln!("running traced multiqueue ({} threads)...", args.threads);
    trace::start(trace::DEFAULT_CAPACITY);
    let traced = run_throughput_with("traced-multiqueue", mq, &cfg);
    let data = trace::stop();
    eprintln!(
        "  {:.3} MOps/s ({} trace records, {} dropped)",
        traced.mops(),
        data.records_total(),
        data.dropped_total(),
    );

    // How much slower than plain the traced arm ran, in percent of
    // plain. Run-to-run noise makes it occasionally *faster*; only a
    // positive gap beyond the limit is a failure.
    let base = plain.summary.mean;
    let overhead_pct = if base > 0.0 {
        (base - traced.summary.mean) / base * 100.0
    } else {
        0.0
    };
    println!(
        "plain {:.3} MOps/s ({} sub-queues), traced {:.3} MOps/s, \
         trace overhead {overhead_pct:.2}% (limit {:.2}%)",
        plain.mops(),
        4 * args.threads,
        traced.mops(),
        args.max_trace_overhead_pct,
    );
    let mut failed = false;
    if data.records_total() == 0 {
        eprintln!("instr_overhead: FAIL — trace arm recorded nothing");
        failed = true;
    }
    if overhead_pct > args.max_trace_overhead_pct {
        eprintln!(
            "instr_overhead: FAIL — tracing costs {overhead_pct:.2}% > {:.2}%",
            args.max_trace_overhead_pct
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("instr_overhead: OK");
}
