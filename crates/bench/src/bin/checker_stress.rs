//! Semantic-checker stress matrix under schedule perturbation.
//!
//! Runs the full queue registry through the checker's recorded run
//! (`checker::run_and_check`) across the workload × key-distribution
//! grid, with the chaos shim (`pq_traits::chaos`) injecting seeded
//! yields and spin-backoff at the queues' telemetry hot spots. Every
//! cell runs twice with identical seeds and the two deterministic
//! violation reports must match byte-for-byte; any violation or
//! mismatch fails the run (exit 1).
//!
//! `--mutation-test` additionally runs the three intentionally broken
//! wrappers (item-dropping, item-duplicating, bound-violating) over a
//! strict base queue and fails unless the checker flags each one —
//! proving the matrix's green cells are meaningful.
//!
//! ```text
//! cargo run -p pq-bench --release --bin checker_stress -- \
//!     --threads 4 --ops 2000 --chaos-seed 7 --mutation-test \
//!     --metrics BENCH_checker.json
//! ```

use checker::{run_and_check, BoundViolator, CheckConfig, CheckReport, ItemDropper, ItemDuplicator};
use harness::{with_queue, QueueSpec};
use pq_bench::cli;
use pq_bench::metrics::{events_since, MetricsReport};
use pq_traits::chaos::{self, ChaosConfig};
use pq_traits::seed::handle_seed;
use pq_traits::telemetry;
use workloads::{KeyDistribution, Workload};

struct Args {
    threads: usize,
    prefill: usize,
    ops: usize,
    seed: u64,
    chaos_seed: u64,
    no_chaos: bool,
    mutation_test: bool,
    queues: Vec<QueueSpec>,
    metrics: Option<String>,
}

const USAGE: &str = "usage: checker_stress [--threads N] [--prefill N] [--ops N] [--seed N] \
                     [--chaos-seed N] [--no-chaos] [--mutation-test] [--queue a,b]... \
                     [--metrics out.json]";

fn parse(mut argv: cli::Args) -> Result<Args, String> {
    let mut args = Args {
        threads: 3,
        prefill: 384,
        ops: 1_500,
        seed: 0xC0FFEE,
        chaos_seed: 0xC4405,
        no_chaos: false,
        mutation_test: false,
        queues: Vec::new(),
        metrics: None,
    };
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--threads" => args.threads = argv.positive()?,
            "--prefill" => args.prefill = argv.value()?,
            "--ops" => args.ops = argv.positive()?,
            "--seed" => args.seed = argv.value()?,
            "--chaos-seed" => args.chaos_seed = argv.value()?,
            "--no-chaos" => args.no_chaos = true,
            "--mutation-test" => args.mutation_test = true,
            "--queue" => args.queues.extend(argv.queues()?),
            "--metrics" => args.metrics = Some(argv.string()?),
            _ => return argv.unknown(),
        }
    }
    Ok(args)
}

/// Run one cell twice under identical seeds; report any violation or
/// determinism mismatch. Returns the first run's report.
fn run_cell<F>(
    cfg: &CheckConfig,
    chaos_seed: Option<u64>,
    failures: &mut u64,
    injected: &mut u64,
    metrics: &mut MetricsReport,
    run: F,
) -> CheckReport
where
    F: Fn() -> CheckReport,
{
    let configure = || {
        if let Some(seed) = chaos_seed {
            chaos::configure(ChaosConfig::aggressive(seed));
        }
    };
    configure();
    let before = telemetry::snapshot();
    let a = run();
    let events = events_since(&before);
    *injected += chaos::injected();
    configure();
    let b = run();
    *injected += chaos::injected();
    chaos::disable();
    metrics.push_checker_cell(&a, &events);
    if !a.is_clean() {
        eprintln!(
            "VIOLATION {} {}: {}",
            a.queue,
            cfg.label(),
            a.violation_json()
        );
        *failures += 1;
    }
    if a.violation_json() != b.violation_json() {
        eprintln!(
            "NONDETERMINISM {} {}: run A {} vs run B {}",
            a.queue,
            cfg.label(),
            a.violation_json(),
            b.violation_json()
        );
        metrics.push_warning(&format!(
            "nondeterministic violation report for {} ({})",
            a.queue,
            cfg.label()
        ));
        *failures += 1;
    }
    a
}

/// One mutation-test case: a label, a runner for the broken wrapper,
/// and an accessor for the violation counter it must trip.
type MutantCase = (
    &'static str,
    fn(&CheckConfig, Option<u64>) -> CheckReport,
    fn(&CheckReport) -> u64,
);

/// Mutation tests: each broken wrapper must be flagged with its
/// violation class, or the checker itself is broken.
fn run_mutation_tests(args: &Args, failures: &mut u64, injected: &mut u64, metrics: &mut MetricsReport) {
    let cfg = CheckConfig {
        threads: args.threads,
        prefill: args.prefill,
        ops_per_thread: args.ops,
        workload: Workload::Uniform,
        key_dist: KeyDistribution::uniform(20),
        seed: args.seed,
        strict_drain_check: false,
    };
    let chaos_seed = (!args.no_chaos).then_some(args.chaos_seed);
    if let Some(seed) = chaos_seed {
        chaos::configure(ChaosConfig::aggressive(seed));
    }
    let cases: [MutantCase; 3] = [
        (
            "lost",
            |cfg, cs| {
                run_and_check(
                    ItemDropper::new(skiplist_pq::LindenPq::new(), 37),
                    cfg,
                    cs,
                )
            },
            |r| r.lost,
        ),
        (
            "duplicated",
            |cfg, cs| {
                run_and_check(
                    ItemDuplicator::new(skiplist_pq::LindenPq::new(), 23),
                    cfg,
                    cs,
                )
            },
            |r| r.duplicated,
        ),
        (
            "rank_violations",
            |cfg, cs| {
                run_and_check(
                    BoundViolator::new(skiplist_pq::LindenPq::new(), 11, 64),
                    cfg,
                    cs,
                )
            },
            |r| r.rank_violations,
        ),
    ];
    for (class, run, count) in cases {
        let before = telemetry::snapshot();
        let report = run(&cfg, chaos_seed);
        let events = events_since(&before);
        let n = count(&report);
        metrics.push_checker_cell(&report, &events);
        if n == 0 {
            eprintln!(
                "MUTATION MISS: {} produced no '{class}' violations: {}",
                report.queue,
                report.violation_json()
            );
            metrics.push_warning(&format!(
                "mutation test missed: {} should raise '{class}'",
                report.queue
            ));
            *failures += 1;
        } else {
            println!("mutant {:<14} caught: {class} = {n}", report.queue);
        }
    }
    *injected += chaos::injected();
    chaos::disable();
}

fn main() {
    let args = cli::parse_or_exit(USAGE, parse);
    let specs = if args.queues.is_empty() {
        QueueSpec::registry()
    } else {
        args.queues.clone()
    };
    let workloads = [Workload::Uniform, Workload::Split, Workload::Alternating];
    let key_dists = [
        KeyDistribution::uniform(20),
        KeyDistribution::ascending(),
        KeyDistribution::descending(),
    ];

    let mut metrics = MetricsReport::new("checker_stress");
    if args.metrics.is_some() {
        telemetry::set_enabled(true);
    }
    let mut failures = 0u64;
    let mut cells = 0u64;
    let mut injected = 0u64;
    let started = std::time::Instant::now();

    for spec in &specs {
        for workload in workloads {
            for key_dist in key_dists {
                let cfg = CheckConfig {
                    threads: args.threads,
                    prefill: args.prefill,
                    ops_per_thread: args.ops,
                    workload,
                    key_dist,
                    seed: args.seed,
                    strict_drain_check: spec.strict_drain(),
                };
                // Per-cell chaos seed: mixed so cells see different
                // schedules, but derived so the whole matrix replays
                // from one `--chaos-seed`.
                let cell_seed = (!args.no_chaos).then(|| handle_seed(args.chaos_seed, cells));
                let report = run_cell(&cfg, cell_seed, &mut failures, &mut injected, &mut metrics, || {
                    with_queue!(*spec, args.threads, q => run_and_check(q, &cfg, cell_seed))
                });
                cells += 1;
                println!(
                    "{:<22} {:<28} {} (rank max {} mean {:.2})",
                    report.queue,
                    cfg.label(),
                    if report.is_clean() { "clean" } else { "VIOLATION" },
                    report.rank_max,
                    report.rank_mean,
                );
            }
        }
    }

    if args.mutation_test {
        run_mutation_tests(&args, &mut failures, &mut injected, &mut metrics);
    }

    if let Some(path) = &args.metrics {
        if let Err(e) = metrics.write(path) {
            eprintln!("checker_stress: failed to write {path}: {e}");
            std::process::exit(2);
        }
        println!("metrics written to {path}");
    }
    eprintln!(
        "checker_stress: {cells} cells ({} queues), {injected} chaos events injected, {:.1}s",
        specs.len(),
        started.elapsed().as_secs_f64(),
    );
    if failures > 0 {
        eprintln!("checker_stress: {failures} failing cells");
        std::process::exit(1);
    }
    println!("checker_stress: all cells clean and deterministic");
}

#[cfg(test)]
mod tests {
    #[test]
    fn an_empty_mixed_phase_is_an_error_an_empty_prefill_is_not() {
        let parse = |argv: &str| {
            super::parse(super::cli::Args::new(argv.split_whitespace().map(str::to_owned).collect()))
        };
        assert_eq!(parse("--ops 0").err().unwrap(), "--ops must be >= 1");
        assert_eq!(parse("--prefill 0").map(|a| a.prefill), Ok(0));
    }
}
