//! `perf_ledger`: the repo's benchmark. One workload per process; every
//! metric printed by name with its unit; correctness checked on the way.
//!
//! ```text
//! perf_ledger --workload uniform_p2 --seed 1 --seconds 20 --trace 0   # end to end
//! perf_ledger --workload uniform_p2 --seed 1 --seconds 20 --trace 1   # per layer
//! perf_ledger --workload uniform_p1 --seed 1 --smoke --trace 1        # every path, quickly
//! perf_ledger --print-benchmark-json > BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result the driver reads; the
//! same numbers with sample counts, per-cell detail and host facts go
//! to `<out-dir>/ledger.<workload>.<e2e|traced>.json`, and the traced
//! pass writes its spans to `<out-dir>/trace.<workload>.jsonl`, one line
//! per traced cell.

mod cell;
mod e2e;
mod job;
mod json;
mod layers;
mod pass;
mod report;
mod spec;
mod stats;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;

use spec::{Plan, WorkloadSpec};

struct Args {
    workload: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out_dir: PathBuf,
    /// Set in the child processes the passes start (see `job`).
    job: Option<String>,
}

const USAGE: &str =
    "usage: perf_ledger --workload <uniform_p2|uniform_p1|split_asc_p2|sawtooth_p2> \
                     [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out-dir DIR]\n       \
                     perf_ledger --print-benchmark-json";

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut traced = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut job = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("missing value after {arg}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--job" => job = Some(value()?.clone()),
            "--print-benchmark-json" => {
                spec::validate(&spec::end_to_end(), 16)?;
                spec::validate(&spec::per_layer(), 128)?;
                print!("{}", spec::benchmark_json().pretty());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        traced,
        smoke,
        out_dir,
        job,
    }))
}

fn write_file(path: &std::path::Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args, argv: &[String]) -> Result<bool, String> {
    let w = args.workload;
    if report::nproc() < w.threads {
        return Err(format!(
            "{} needs {} hardware threads, this host offers {}: refused, not time-sliced",
            w.name,
            w.threads,
            report::nproc()
        ));
    }
    let plan = if args.smoke {
        Plan::smoke()
    } else {
        Plan::new(args.seconds)
    };
    let trace_path = args.out_dir.join(format!("trace.{}.jsonl", w.name));
    if let Some(job) = &args.job {
        println!(
            "{}",
            job::run_child(job, w, &plan, args.seed, &trace_path)?.render()
        );
        return Ok(true);
    }

    let runner = job::Runner::new(argv)?;
    let pass = pass::Pass::new(&runner, w, &plan, args.seed);
    let (name, defs, outcome) = if args.traced {
        ("traced", spec::per_layer(), layers::run(pass, &trace_path))
    } else {
        ("e2e", spec::end_to_end(), e2e::run(pass))
    };

    for m in &outcome.metrics {
        let unit = defs
            .iter()
            .find(|d| d.name == m.name)
            .map_or("", |d| d.unit);
        println!("{:<44} {:>16.6} {:<8} n={}", m.name, m.value, unit, m.n);
    }
    for f in &outcome.findings {
        eprintln!("finding: {f}");
    }
    let meta = report::meta(w, &plan, args.seed, args.traced);
    let report_path = args.out_dir.join(format!("ledger.{}.{name}.json", w.name));
    write_file(&report_path, &outcome.report(&defs, meta).pretty())?;
    println!("{}", outcome.result_line(&defs)?);
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Option<Args>, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "sawtooth_p2",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.traced, a.smoke),
            ("sawtooth_p2", 42, 20.0, true, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&[]).is_err(), "workload is required");
        assert!(args(&["--workload", "fig4a"]).is_err());
        assert!(args(&["--workload", "uniform_p2", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "uniform_p2", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "uniform_p2", "--seed"]).is_err());
        assert!(args(&["--workload", "uniform_p2", "--frobnicate"]).is_err());
    }
}
