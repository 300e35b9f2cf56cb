//! A/B overhead check for the observability layers.
//!
//! Runs the same uniform throughput workload on a plain MultiQueue and
//! A/Bs two instrumentation layers against it:
//!
//! * the [`Instrumented`] wrapper (per-handle sharded op counters),
//!   gated at `--max-overhead-pct` percent of plain throughput;
//! * when built with `--features trace`, an arm with an active
//!   flight-recorder trace ([`pq_traits::trace`]), gated at
//!   `--max-trace-overhead-pct` percent — guarding the batch-span
//!   design against regressions that put clock reads or shared-line
//!   traffic in the hot loop.
//!
//! Fails (exit 1) when either layer exceeds its limit; this binary is
//! the regression guard `scripts/bench_smoke.sh` runs in CI.
//!
//! ```text
//! cargo run -p pq-bench --release --bin instr_overhead -- \
//!     --threads 4 --max-overhead-pct 5
//! ```

use std::time::Duration;

use harness::{experiments, run_throughput_with};
use pq_bench::cli;
use pq_traits::{trace, Instrumented};
use workloads::config::StopCondition;
use workloads::BenchConfig;

type Mq = multiqueue_pq::MultiQueue<seqpq::BinaryHeap>;

struct Args {
    threads: usize,
    prefill: usize,
    duration_ms: u64,
    reps: usize,
    seed: u64,
    max_overhead_pct: f64,
    max_trace_overhead_pct: f64,
}

const USAGE: &str = "usage: instr_overhead [--threads N] [--prefill N] [--duration-ms N] \
                     [--reps N] [--seed N] [--max-overhead-pct F] [--max-trace-overhead-pct F]";

fn parse(mut argv: cli::Args) -> Result<Args, String> {
    let mut args = Args {
        threads: 4,
        prefill: 100_000,
        duration_ms: 300,
        reps: 3,
        seed: 0x5EED,
        max_overhead_pct: 5.0,
        max_trace_overhead_pct: 5.0,
    };
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--threads" => args.threads = argv.positive()?,
            "--prefill" => args.prefill = argv.value()?,
            "--duration-ms" => args.duration_ms = argv.value()?,
            "--reps" => args.reps = argv.value()?,
            "--seed" => args.seed = argv.value()?,
            "--max-overhead-pct" => args.max_overhead_pct = argv.value()?,
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
    let subqueues = 4 * args.threads.max(1);

    eprintln!("running plain multiqueue ({} threads)...", args.threads);
    let plain = run_throughput_with(
        "multiqueue",
        || Mq::new(4, args.threads),
        &cfg,
    );
    eprintln!("  {:.3} MOps/s", plain.mops());
    eprintln!("running instrumented multiqueue ({} threads)...", args.threads);
    let wrapped = run_throughput_with(
        "instrumented-multiqueue",
        || Instrumented::new(Mq::new(4, args.threads)),
        &cfg,
    );
    eprintln!("  {:.3} MOps/s", wrapped.mops());

    // How much slower than plain an arm ran, in percent of plain.
    let base = plain.summary.mean;
    let overhead = |arm: f64| if base > 0.0 { (base - arm) / base * 100.0 } else { 0.0 };
    let overhead_pct = overhead(wrapped.summary.mean);
    println!(
        "plain {:.3} MOps/s ({subqueues} sub-queues), instrumented {:.3} MOps/s, \
         overhead {overhead_pct:.2}% (limit {:.2}%)",
        plain.mops(),
        wrapped.mops(),
        args.max_overhead_pct,
    );
    // Run-to-run noise makes the wrapped run occasionally *faster*;
    // only a positive gap beyond the limit is a failure.
    let mut failed = false;
    if overhead_pct > args.max_overhead_pct {
        eprintln!(
            "instr_overhead: FAIL — instrumentation costs {overhead_pct:.2}% > {:.2}%",
            args.max_overhead_pct
        );
        failed = true;
    }

    // Trace-on arm: same plain queue, but with the flight recorder
    // actively capturing batch spans during the run.
    if trace::compiled() {
        eprintln!("running traced multiqueue ({} threads)...", args.threads);
        trace::start(trace::DEFAULT_CAPACITY);
        let traced = run_throughput_with(
            "traced-multiqueue",
            || Mq::new(4, args.threads),
            &cfg,
        );
        let data = trace::stop();
        eprintln!(
            "  {:.3} MOps/s ({} trace records, {} dropped)",
            traced.mops(),
            data.records_total(),
            data.dropped_total(),
        );
        let trace_overhead_pct = overhead(traced.summary.mean);
        println!(
            "traced {:.3} MOps/s, trace overhead {trace_overhead_pct:.2}% (limit {:.2}%)",
            traced.mops(),
            args.max_trace_overhead_pct,
        );
        if data.records_total() == 0 {
            eprintln!("instr_overhead: FAIL — trace arm recorded nothing");
            failed = true;
        }
        if trace_overhead_pct > args.max_trace_overhead_pct {
            eprintln!(
                "instr_overhead: FAIL — tracing costs {trace_overhead_pct:.2}% > {:.2}%",
                args.max_trace_overhead_pct
            );
            failed = true;
        }
    } else {
        eprintln!("trace feature not compiled; skipping trace-on arm");
    }

    if failed {
        std::process::exit(1);
    }
    println!("instr_overhead: OK");
}
