//! Regenerate the paper's throughput figures.
//!
//! Each figure is a (workload × key distribution) cell swept over thread
//! counts with one series per queue. Defaults are scaled so `--all`
//! completes in minutes on a laptop; pass `--prefill 1000000
//! --duration-ms 10000 --reps 10 --threads 1,2,...` for paper-scale runs.
//!
//! ```text
//! cargo run -p pq-bench --release --bin figures -- --experiment fig4a
//! cargo run -p pq-bench --release --bin figures -- --all
//! ```

use std::time::Duration;

use harness::{run_latency, run_throughput, QueueSpec, ThroughputResult};
use pq_bench::cli::{run_grid, GridArgs};
use pq_bench::{format_throughput_table, render_chart, render_csv, MetricsReport, Series};
use workloads::config::StopCondition;
use workloads::BenchConfig;

fn main() {
    let defaults = GridArgs {
        reps: 3,
        ..GridArgs::new(
            "fig4a",
            &[1, 2, 4, 8],
            StopCondition::Duration(Duration::from_millis(150)),
        )
    };
    let args = defaults.from_env("figures");
    let cell = |exp: &harness::Experiment, spec: QueueSpec, cfg: &BenchConfig| {
        let r = run_throughput(spec, cfg);
        eprintln!(
            "  [{}] {} @ {} threads: {:.3} MOps/s",
            exp.id,
            r.queue,
            cfg.threads,
            r.mops()
        );
        if let Some(w) = r.steady_state_warning() {
            eprintln!("  warning: {w}");
        }
        r
    };
    let push = MetricsReport::push_throughput_cell;
    run_grid("figures", &args, push, cell, |grid, exp, rows| {
        // With --metrics, also profile per-op latency for each queue at
        // the largest thread count so one invocation yields counters,
        // time series and latency histograms in a single document.
        if args.metrics.is_some() {
            let t = args.threads.iter().copied().max().unwrap_or(1);
            for &spec in &args.queues {
                let cfg = BenchConfig {
                    stop: StopCondition::OpsPerThread(10_000),
                    reps: 1,
                    ..args.config(exp, t)
                };
                let (label, push) = (format!("{spec} latency"), MetricsReport::push_latency_cell);
                let r = grid.cell(exp, &label, t, push, || run_latency(spec, &cfg));
                eprintln!(
                    "  [{}] {} latency @ {} threads: insert p50 {}ns, delete p50 {}ns",
                    exp.id, r.queue, t, r.insert.p50, r.delete.p50
                );
            }
        }
        let title = format!("{} — {}", exp.id, exp.describe());
        let names = args.queues.iter().map(QueueSpec::name);
        if args.csv {
            let series: Vec<(String, Vec<(f64, f64)>)> = names
                .zip(rows)
                .map(|(name, row)| {
                    let points = row.iter().map(|r| (r.mops(), r.summary.ci95 / 1e6));
                    (name, points.collect())
                })
                .collect();
            print!("{}", render_csv(exp.id, &args.threads, &series));
            return;
        }
        println!("\n{}", format_throughput_table(&title, &args.threads, rows));
        if args.chart {
            let series: Vec<Series> = names
                .zip(rows)
                .map(|(name, row)| Series {
                    name,
                    ys: row.iter().map(ThroughputResult::mops).collect(),
                })
                .collect();
            println!("{}", render_chart(&title, &args.threads, &series, 16));
        }
    });
}
