//! Regenerate the paper's rank-error tables (tables 1, 2 and 5).
//!
//! ```text
//! cargo run -p pq-bench --release --bin quality -- --experiment table2a
//! cargo run -p pq-bench --release --bin quality -- --all
//! ```

use harness::{run_quality, Experiment, QueueSpec};
use pq_bench::cli::{run_grid, GridArgs};
use pq_bench::{format_quality_table, MetricsReport};
use workloads::config::StopCondition;
use workloads::BenchConfig;

fn main() {
    let defaults = GridArgs {
        queues: QueueSpec::quality_set(),
        // The paper's tables report 2, 4 and 8 threads.
        ..GridArgs::new("table2a", &[2, 4, 8], StopCondition::OpsPerThread(20_000))
    };
    let args = defaults.from_env("quality");
    let cell = |exp: &Experiment, spec: QueueSpec, cfg: &BenchConfig| {
        let r = run_quality(spec, cfg);
        eprintln!(
            "  [{}] {} @ {} threads: mean rank {:.1} (sd {:.1}, p50 {}, p99 {}, max {}), \
             mean delay {:.1}, n={}",
            exp.id,
            r.queue,
            cfg.threads,
            r.rank.mean,
            r.rank.sd,
            r.p50,
            r.p99,
            r.max,
            r.delay.mean,
            r.deletions
        );
        r
    };
    let push = MetricsReport::push_quality_cell;
    run_grid("quality", &args, push, cell, |_, exp, rows| {
        let title = format!("rank error — {}", exp.describe());
        println!("\n{}", format_quality_table(&title, &args.threads, rows));
    });
}
