//! Flat-combining A/B gate plus the batch-size ablation frontier.
//!
//! Part one interleaves single-rep rounds of each flat-combining queue
//! with its plain locked counterpart (`fc-globallock` vs `globallock`,
//! `fc-mound` vs `mound`) so both arms see the same machine state, and
//! reports the geometric-mean speedup across all rounds and pairs.
//! `--min-speedup` turns that into an exit gate for CI.
//!
//! Part two sweeps the insert-batch size m ∈ {1, 4, 16, 64} across the
//! batching families (`mq-sticky`, `klsm128`, `klsm4096`, `dlsm`,
//! `spray`, `fc-globallock`, `fc-mound`), measuring throughput *and*
//! rank error for every cell — the throughput/quality frontier that
//! shows what a larger batch buys and what it costs. Every family but
//! `mq-sticky` buffers through `pq_traits::Buffered` from m = 2.
//!
//! `--threads` defaults to the host's hardware thread count.
//!
//! ```text
//! cargo run -p pq-bench --release --bin batch_ablation -- \
//!     --duration-ms 500 --min-speedup 1.1 \
//!     --out BENCH_flat_combining.json
//! ```

use std::time::Duration;

use harness::{run_quality, run_throughput, QueueSpec, ThroughputResult};
use pq_bench::cli;
use pq_bench::metrics::{json_escape, json_f64, json_f64_array};
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyDistribution, Workload};

struct Args {
    threads: usize,
    prefill: usize,
    duration_ms: u64,
    ab_rounds: usize,
    ab_batch: usize,
    quality_ops: u64,
    seed: u64,
    min_speedup: f64,
    out: String,
}

const USAGE: &str = "usage: batch_ablation [--threads N] [--prefill N] [--duration-ms N] \
                     [--ab-rounds N] [--ab-batch M] [--quality-ops N] [--seed N] \
                     [--min-speedup F] [--out BENCH_flat_combining.json]";

fn parse(mut argv: cli::Args) -> Result<Args, String> {
    let mut args = Args {
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        prefill: 50_000,
        duration_ms: 400,
        ab_rounds: 3,
        ab_batch: 16,
        quality_ops: 10_000,
        seed: 0x5EED,
        min_speedup: 0.0,
        out: "BENCH_flat_combining.json".to_owned(),
    };
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--threads" => args.threads = argv.positive()?,
            "--prefill" => args.prefill = argv.value()?,
            "--duration-ms" => args.duration_ms = argv.value()?,
            "--ab-rounds" => args.ab_rounds = argv.positive()?,
            "--ab-batch" => args.ab_batch = argv.value()?,
            "--quality-ops" => args.quality_ops = argv.value()?,
            "--seed" => args.seed = argv.value()?,
            "--min-speedup" => args.min_speedup = argv.value()?,
            "--out" => args.out = argv.string()?,
            _ => return argv.unknown(),
        }
    }
    Ok(args)
}

fn base_cfg(args: &Args) -> BenchConfig {
    BenchConfig {
        threads: args.threads,
        workload: Workload::Uniform,
        key_dist: KeyDistribution::uniform(1 << 20),
        prefill: args.prefill,
        stop: StopCondition::Duration(Duration::from_millis(args.duration_ms)),
        reps: 1,
        seed: args.seed,
    }
}

/// One interleaved A/B pair: alternate single-rep rounds of the fc arm
/// and the plain arm so cache/frequency drift hits both equally, and
/// return the per-round throughput ratios fc/plain.
fn ab_pair(fc: QueueSpec, plain: QueueSpec, args: &Args) -> Vec<f64> {
    let mut ratios = Vec::with_capacity(args.ab_rounds);
    for round in 0..args.ab_rounds {
        let mut cfg = base_cfg(args);
        cfg.seed = args.seed.wrapping_add(round as u64);
        let fc_r = run_throughput(fc, &cfg);
        let plain_r = run_throughput(plain, &cfg);
        let (f, p) = (fc_r.summary.mean, plain_r.summary.mean);
        eprintln!(
            "  round {round}: {} {:.3} MOps/s vs {} {:.3} MOps/s ({:.2}x)",
            fc.name(),
            fc_r.mops(),
            plain.name(),
            plain_r.mops(),
            if p > 0.0 { f / p } else { 0.0 },
        );
        if p > 0.0 && f > 0.0 {
            ratios.push(f / p);
        }
    }
    ratios
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Throughput repetitions per frontier cell: the fewest that give
/// `ops_per_sec_ci95` a spread to report.
const FRONTIER_REPS: usize = 3;

/// A frontier row: family label plus the batch-parameterized spec.
type Family = (&'static str, fn(usize) -> QueueSpec);

struct Cell {
    family: &'static str,
    batch: usize,
    throughput: ThroughputResult,
    rank_mean: f64,
    rank_max: u64,
}

fn main() {
    let args = cli::parse_or_exit(USAGE, parse);

    // --- Part one: interleaved A/B of fc vs the plain locked queue ---
    // The fc arm runs with its insert batching on (`--ab-batch`, 1 to
    // disable): buffered inserts skipping the lock entirely plus
    // combined deletes are the wrapper's deal, and the plain arm's
    // strict semantics stay the baseline.
    let pairs = [
        (QueueSpec::FcGlobalLock(args.ab_batch), QueueSpec::GlobalLock),
        (QueueSpec::FcMound(args.ab_batch), QueueSpec::Mound),
    ];
    let mut ab_json = Vec::new();
    let mut all_ratios = Vec::new();
    for (fc, plain) in pairs {
        eprintln!("A/B {} vs {} ({} threads)...", fc.name(), plain.name(), args.threads);
        let ratios = ab_pair(fc, plain, &args);
        let g = geomean(&ratios);
        ab_json.push(format!(
            "    {{\"fc\": \"{}\", \"plain\": \"{}\", \"rounds\": {}, \"geomean\": {}}}",
            json_escape(&fc.name()),
            json_escape(&plain.name()),
            json_f64_array(&ratios),
            json_f64(g),
        ));
        all_ratios.extend(ratios);
    }
    let ab_geomean = geomean(&all_ratios);
    println!("fc vs plain locked geomean speedup: {ab_geomean:.3}x");

    // --- Part two: batch-size ablation frontier ---
    let batches = [1usize, 4, 16, 64];
    let families: [Family; 7] = [
        ("mq-sticky", |m| QueueSpec::MqSticky(4, 8, m)),
        ("klsm128", |m| QueueSpec::KlsmBatch(128, m)),
        ("klsm4096", |m| QueueSpec::KlsmBatch(4096, m)),
        ("dlsm", |m| QueueSpec::DlsmBatch(m)),
        ("spray", |m| QueueSpec::SprayBatch(m)),
        ("fc-globallock", |m| QueueSpec::FcGlobalLock(m)),
        ("fc-mound", |m| QueueSpec::FcMound(m)),
    ];
    let mut cells: Vec<Cell> = Vec::new();
    for (family, mk) in families {
        for m in batches {
            let spec = mk(m);
            eprintln!("cell {} m={m} ({})...", family, spec.name());
            let mut tcfg = base_cfg(&args);
            tcfg.reps = FRONTIER_REPS;
            let tput = run_throughput(spec, &tcfg);
            let mut qcfg = base_cfg(&args);
            qcfg.stop = StopCondition::OpsPerThread(args.quality_ops);
            let quality = run_quality(spec, &qcfg);
            eprintln!(
                "  {:.3} MOps/s, rank mean {:.2} max {}",
                tput.mops(),
                quality.rank.mean,
                quality.max,
            );
            cells.push(Cell {
                family,
                batch: m,
                throughput: tput,
                rank_mean: quality.rank.mean,
                rank_max: quality.max,
            });
        }
    }
    let cell_json = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"family\": \"{}\", \"batch\": {}, \"queue\": \"{}\", \
                 \"mops\": {}, \"ops_per_sec_ci95\": {}, \
                 \"rank_mean\": {}, \"rank_max\": {}}}",
                c.family,
                c.batch,
                json_escape(&c.throughput.queue),
                json_f64(c.throughput.mops()),
                json_f64(c.throughput.summary.ci95),
                json_f64(c.rank_mean),
                c.rank_max,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \"meta\": {},\n  \"threads\": {},\n  \"prefill\": {},\n  \"duration_ms\": {},\n  \
         \"ab_rounds\": {},\n  \"ab_batch\": {},\n  \"quality_ops\": {},\n  \"seed\": {},\n  \
         \"ab_pairs\": [\n{}\n  ],\n  \"ab_geomean_speedup\": {},\n  \
         \"frontier\": [\n{cell_json}\n  ]\n}}\n",
        pq_bench::run_metadata_json(args.threads),
        args.threads,
        args.prefill,
        args.duration_ms,
        args.ab_rounds,
        args.ab_batch,
        args.quality_ops,
        args.seed,
        ab_json.join(",\n"),
        json_f64(ab_geomean),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("batch_ablation: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("wrote {}", args.out);

    if args.min_speedup > 0.0 && ab_geomean < args.min_speedup {
        eprintln!(
            "batch_ablation: fc geomean speedup {ab_geomean:.3}x below the \
             --min-speedup {:.3}x gate",
            args.min_speedup
        );
        std::process::exit(1);
    }
}
