//! Per-operation latency measurement (appendix F's throughput/latency
//! switch): prescribe an operation count per thread and report insert
//! and delete latency percentiles for every queue.
//!
//! ```text
//! cargo run -p pq-bench --release --bin latency -- --threads 4
//! ```

use harness::{run_latency, Experiment, QueueSpec};
use pq_bench::cli::{run_grid, GridArgs};
use pq_bench::{format_latency_table, MetricsReport};
use workloads::config::StopCondition;
use workloads::BenchConfig;

fn main() {
    let defaults = GridArgs {
        seed: 0x1A7,
        ..GridArgs::new("fig4a", &[2], StopCondition::OpsPerThread(20_000))
    };
    let args = defaults.from_env("latency");
    let cell = |_: &Experiment, spec: QueueSpec, cfg: &BenchConfig| run_latency(spec, cfg);
    let push = MetricsReport::push_latency_cell;
    run_grid("latency", &args, push, cell, |_, exp, rows| {
        println!("{}", format_latency_table(exp, &args.threads, rows));
    });
}
