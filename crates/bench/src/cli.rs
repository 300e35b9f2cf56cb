//! The one flag parser and the one grid runner of the `pq-bench`
//! binaries.
//!
//! * [`Args`] — an argv cursor: typed values, comma lists, queue names.
//!   Every parse error is an `Err(String)`, which [`parse_or_exit`]
//!   turns into `error: …` on stderr and exit code 2.
//! * [`GridArgs`] — the flag set `figures`, `quality` and `latency`
//!   share; a tool supplies only its defaults.
//! * [`run_grid`] — the experiments × queues × threads loop with the
//!   per-cell telemetry snapshot, flight-recorder start/stop and the
//!   `--metrics` / `--trace` exports. Either flag switches event
//!   counting on for the run.

use std::str::FromStr;
use std::time::Duration;

use harness::{experiments, Experiment, QueueSpec};
use pq_traits::telemetry::{self, EventCounts};
use pq_traits::trace;
use workloads::config::StopCondition;
use workloads::BenchConfig;

use crate::{events_since, MetricsReport, TraceFile};

/// Cursor over a binary's arguments: [`Args::next_flag`] yields a flag,
/// the other methods read and parse that flag's value.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    /// Cursor over `argv` (program name already removed).
    pub fn new(argv: Vec<String>) -> Self {
        Self {
            rest: argv.into_iter(),
            flag: String::new(),
        }
    }

    /// The next flag, or `None` when the arguments are used up.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.rest.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value, verbatim.
    pub fn string(&mut self) -> Result<String, String> {
        self.rest
            .next()
            .ok_or_else(|| format!("missing value after {}", self.flag))
    }

    /// The current flag's value, parsed.
    pub fn value<T: FromStr>(&mut self) -> Result<T, String> {
        let s = self.string()?;
        s.parse()
            .map_err(|_| format!("bad value '{s}' after {}", self.flag))
    }

    /// The current flag's value as a comma-separated list; an item that
    /// `parse` refuses is reported as `<what> '<item>'`.
    pub fn list<T>(
        &mut self,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let s = self.string()?;
        s.split(',')
            .map(|item| parse(item.trim()).ok_or_else(|| format!("{what} '{item}'")))
            .collect()
    }

    /// The current flag's value as a count of at least one.
    pub fn positive(&mut self) -> Result<usize, String> {
        match self.value()? {
            0 => Err(format!("{} must be >= 1", self.flag)),
            n => Ok(n),
        }
    }

    /// The current flag's value as a list of registry queue names.
    pub fn queues(&mut self) -> Result<Vec<QueueSpec>, String> {
        self.list("unknown queue", QueueSpec::parse)
    }

    /// The error for a flag the binary does not know.
    pub fn unknown<T>(&self) -> Result<T, String> {
        Err(format!("unknown argument '{}'", self.flag))
    }
}

/// Parse the process arguments with `parse`. `--help` / `-h` anywhere
/// prints `usage` and exits 0; a parse error prints `error: …` and
/// exits 2.
pub fn parse_or_exit<T>(usage: &str, parse: impl FnOnce(Args) -> Result<T, String>) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    parse(Args::new(argv)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The flags shared by `figures`, `quality` and `latency`.
#[derive(Clone, Debug)]
pub struct GridArgs {
    /// `--experiment <id>` (repeatable) / `--all`.
    pub experiments: Vec<Experiment>,
    /// `--threads 1,2,4` / `--machine <name>` (a paper machine's grid).
    pub threads: Vec<usize>,
    /// `--queues a,b,c`.
    pub queues: Vec<QueueSpec>,
    /// `--prefill N`.
    pub prefill: usize,
    /// `--duration-ms N` or `--ops-per-thread N`, whichever came last.
    pub stop: StopCondition,
    /// `--reps N`.
    pub reps: usize,
    /// `--seed N`.
    pub seed: u64,
    /// `--metrics <path>`: structured per-cell JSON export.
    pub metrics: Option<String>,
    /// `--trace <path>`: flight-recorder export.
    pub trace: Option<String>,
    /// `--csv`: `figures` prints CSV instead of its table.
    pub csv: bool,
    /// `--chart`: `figures` prints an ASCII chart after its table.
    pub chart: bool,
}

impl GridArgs {
    /// A tool's defaults: its experiment, thread grid and stop
    /// condition, over the paper queue set, 10⁵ prefill, one
    /// repetition and the repo-wide seed.
    pub fn new(experiment: &str, threads: &[usize], stop: StopCondition) -> Self {
        Self {
            experiments: vec![
                experiments::by_id(experiment).expect("default experiment is registered")
            ],
            threads: threads.to_vec(),
            queues: QueueSpec::paper_set(),
            prefill: 100_000,
            stop,
            reps: 1,
            seed: 0x5EED,
            metrics: None,
            trace: None,
            csv: false,
            chart: false,
        }
    }

    /// Parse the process arguments over these defaults (see
    /// [`parse_or_exit`]).
    pub fn from_env(self, tool: &str) -> Self {
        let ids: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
        let usage = format!(
            "usage: {tool} [--experiment <id>]... [--all] [--threads 1,2,4,8] \
             [--machine mars|saturn|ceres|pluto] [--queues klsm128,linden,...] [--prefill N] \
             [--duration-ms N | --ops-per-thread N] [--reps N] [--seed N] \
             [--metrics out.json] [--trace out.trace.json] [--csv] [--chart]\n\
             experiments: {}",
            ids.join(", ")
        );
        parse_or_exit(&usage, |argv| self.parse(argv))
    }

    /// Apply `argv` over these defaults.
    pub fn parse(mut self, mut argv: Args) -> Result<Self, String> {
        let mut selected: Option<Vec<Experiment>> = None;
        while let Some(flag) = argv.next_flag() {
            match flag.as_str() {
                "--experiment" => {
                    let id = argv.string()?;
                    let e = experiments::by_id(&id).ok_or(format!("unknown experiment '{id}'"))?;
                    selected.get_or_insert_with(Vec::new).push(e);
                }
                "--all" => selected = Some(experiments::all()),
                "--threads" => {
                    let at_least_one = |s: &str| s.parse().ok().filter(|&t| t >= 1);
                    self.threads = argv.list("bad thread count", at_least_one)?;
                }
                // Thread grids of the paper's four machines (physical cores,
                // then into hyperthreading where the machine has it).
                "--machine" => {
                    self.threads = match argv.string()?.as_str() {
                        "mars" => vec![1, 2, 4, 8, 16],               // 8 cores, 2-way HT
                        "saturn" => vec![1, 2, 4, 8, 16, 32, 48],     // 48 cores, no HT
                        "ceres" => vec![1, 2, 4, 8, 16, 32, 64, 128], // 64 cores, 8-way HT
                        "pluto" => vec![1, 2, 4, 8, 16, 32, 61, 122], // 61 cores, 4-way HT
                        other => return Err(format!("unknown machine '{other}'")),
                    };
                }
                "--queues" => self.queues = argv.queues()?,
                "--prefill" => self.prefill = argv.value()?,
                "--duration-ms" => {
                    let ms = argv.positive()? as u64;
                    self.stop = StopCondition::Duration(Duration::from_millis(ms))
                }
                "--ops-per-thread" => {
                    self.stop = StopCondition::OpsPerThread(argv.positive()? as u64)
                }
                "--reps" => self.reps = argv.positive()?,
                "--seed" => self.seed = argv.value()?,
                "--metrics" => self.metrics = Some(argv.string()?),
                "--trace" => self.trace = Some(argv.string()?),
                "--csv" => self.csv = true,
                "--chart" => self.chart = true,
                _ => return argv.unknown(),
            }
        }
        if let Some(selected) = selected {
            self.experiments = selected;
        }
        Ok(self)
    }

    /// The configuration of the `exp` cell at `threads` workers.
    pub fn config(&self, exp: &Experiment, threads: usize) -> BenchConfig {
        BenchConfig {
            threads,
            workload: exp.workload,
            key_dist: exp.key_dist,
            prefill: self.prefill,
            stop: self.stop,
            reps: self.reps,
            seed: self.seed,
        }
    }
}

/// The `--metrics` and `--trace` documents one grid run accumulates.
pub struct Grid {
    report: Option<MetricsReport>,
    tracefile: Option<TraceFile>,
}

impl Grid {
    /// Run one cell between a telemetry snapshot pair and, with
    /// `--trace`, inside one flight-recorder capture, then append it
    /// to the exports: `label` names it in the trace (`"<queue>"`, or
    /// `"<queue> latency"` for a secondary cell), `push` (one of
    /// `MetricsReport::push_*_cell`) adds it to the metrics report.
    pub fn cell<R>(
        &mut self,
        exp: &Experiment,
        label: &str,
        threads: usize,
        push: fn(&mut MetricsReport, &str, &R, &EventCounts),
        run: impl FnOnce() -> R,
    ) -> R {
        let before = telemetry::snapshot();
        if self.tracefile.is_some() {
            trace::start(trace::DEFAULT_CAPACITY);
        }
        let r = run();
        if let Some(tf) = self.tracefile.as_mut() {
            let label = format!("{} {label} t{threads}", exp.id);
            tf.push_cell(&label, threads, trace::stop());
        }
        if let Some(report) = self.report.as_mut() {
            push(report, exp.id, &r, &events_since(&before));
        }
        r
    }
}

/// Run `cell` for every experiment × queue × thread count of `args`
/// (each through [`Grid::cell`] with `push`), hand each experiment's
/// `rows[queue][thread]` to `emit`, and write the `--metrics` and
/// `--trace` documents at the end (exit 1 if one cannot be written).
/// Either document switches event counting on for the whole run.
pub fn run_grid<R>(
    tool: &str,
    args: &GridArgs,
    push: fn(&mut MetricsReport, &str, &R, &EventCounts),
    mut cell: impl FnMut(&Experiment, QueueSpec, &BenchConfig) -> R,
    mut emit: impl FnMut(&mut Grid, &Experiment, &[Vec<R>]),
) {
    let mut grid = Grid {
        report: args.metrics.as_ref().map(|_| MetricsReport::new(tool)),
        tracefile: args.trace.as_ref().map(|_| TraceFile::new()),
    };
    if grid.report.is_some() || grid.tracefile.is_some() {
        telemetry::set_enabled(true);
    }
    for exp in &args.experiments {
        let mut rows: Vec<Vec<R>> = Vec::new();
        for &spec in &args.queues {
            let mut row = Vec::new();
            for &t in &args.threads {
                let cfg = args.config(exp, t);
                row.push(grid.cell(exp, &spec.name(), t, push, || cell(exp, spec, &cfg)));
            }
            rows.push(row);
        }
        emit(&mut grid, exp, &rows);
    }
    let written = |path: &str, result: std::io::Result<()>| {
        if let Err(e) = result {
            eprintln!("{tool}: cannot write {path}: {e}");
            std::process::exit(1);
        }
    };
    if let (Some(path), Some(report)) = (&args.metrics, &grid.report) {
        written(path, report.write(path));
        eprintln!("wrote {path} ({} cells)", report.len());
    }
    if let (Some(path), Some(tf)) = (&args.trace, &grid.tracefile) {
        written(path, tf.write(path));
        let dropped = tf.dropped_total();
        eprintln!("wrote trace {path} (dropped records: {dropped})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `argv` parsed over each tool's defaults (as their `main`s build
    /// them: figures, quality, latency).
    fn parse_each(argv: &str) -> Vec<Result<GridArgs, String>> {
        let window = StopCondition::Duration(Duration::from_millis(150));
        let ops = StopCondition::OpsPerThread(20_000);
        let tools = [
            GridArgs::new("fig4a", &[1, 2, 4, 8], window),
            GridArgs::new("table2a", &[2, 4, 8], ops),
            GridArgs::new("fig4a", &[2], ops),
        ];
        let argv: Vec<String> = argv.split_whitespace().map(str::to_owned).collect();
        tools
            .into_iter()
            .map(|defaults| defaults.parse(Args::new(argv.clone())))
            .collect()
    }

    #[test]
    fn same_argv_parses_to_the_same_grid_under_every_tools_defaults() {
        let argv = "--experiment fig4e --experiment table5a --threads 1,3 --prefill 77 \
                    --queues linden,mq-sticky-s1-m16 --ops-per-thread 9 --reps 4 --seed 12 \
                    --metrics m.json --csv --chart";
        for g in parse_each(argv) {
            let g = g.unwrap();
            let ids: Vec<&str> = g.experiments.iter().map(|e| e.id).collect();
            assert_eq!(ids, ["fig4e", "fig8a"]);
            assert_eq!(g.threads, [1, 3]);
            assert_eq!(g.queues, [QueueSpec::Linden, QueueSpec::MultiQueue(4, 1, 16)]);
            assert_eq!((g.prefill, g.reps, g.seed), (77, 4, 12));
            assert_eq!(g.stop, StopCondition::OpsPerThread(9));
            assert_eq!(g.metrics.as_deref(), Some("m.json"));
            assert!(g.csv && g.chart && g.trace.is_none());
            let cfg = g.config(&g.experiments[0], 3);
            assert_eq!((cfg.threads, cfg.prefill, cfg.stop), (3, 77, g.stop));
        }
        // The later stop flag wins, a machine is a thread grid, --all
        // is every experiment.
        for g in parse_each("--ops-per-thread 5 --duration-ms 30 --machine mars --all") {
            let g = g.unwrap();
            assert_eq!(g.stop, StopCondition::Duration(Duration::from_millis(30)));
            assert_eq!(g.threads, [1, 2, 4, 8, 16]);
            assert_eq!(g.experiments.len(), experiments::all().len());
        }
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for (argv, want) in [
            ("--prefill", "missing value after --prefill"),
            ("--prefill many", "bad value 'many' after --prefill"),
            ("--seed -1", "bad value '-1' after --seed"),
            ("--threads 2,0", "bad thread count '0'"),
            ("--frobnicate", "unknown argument '--frobnicate'"),
            ("--queues linden,nosuch", "unknown queue 'nosuch'"),
            ("--queues klsm0", "unknown queue 'klsm0'"),
            ("--reps 0", "--reps must be >= 1"),
            ("--ops-per-thread 0", "--ops-per-thread must be >= 1"),
            ("--duration-ms 0", "--duration-ms must be >= 1"),
            ("--experiment fig99", "unknown experiment 'fig99'"),
            ("--machine venus", "unknown machine 'venus'"),
        ] {
            for g in parse_each(argv) {
                assert_eq!(g.unwrap_err(), want, "argv: {argv}");
            }
        }
    }
}
