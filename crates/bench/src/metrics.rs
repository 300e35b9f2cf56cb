//! Structured JSON metrics export for the benchmark binaries.
//!
//! Every binary that accepts `--metrics <path>` funnels its results
//! through a [`MetricsReport`]: one *cell* per (queue, threads,
//! workload) configuration, carrying the scalar summaries, the
//! time-sliced throughput series, latency histograms, and the
//! queue-internal event counters ([`pq_traits::telemetry`]) observed
//! while that cell ran (the binaries switch counting on whenever they
//! write `--metrics` or `--trace`, so every build exports real counts).
//! The JSON is
//! handwritten (the workspace is dependency-free by design) and kept
//! deliberately flat so downstream tooling can consume it with nothing
//! more than a generic JSON parser.
//!
//! Top-level shape:
//!
//! ```json
//! {
//!   "tool": "figures",
//!   "meta": { "schema_version": 6, ... },
//!   "cells": [ { "kind": "throughput", ... }, ... ],
//!   "warnings": [ "..." ]
//! }
//! ```

use harness::{Histogram, LatencyResult, QualityResult, ThroughputResult};
use checker::CheckReport;
use pq_traits::telemetry::{self, EventCounts};

/// Version of the exported JSON layout, bumped on breaking shape
/// changes. Version 2 added the `meta` block itself; version 3 added
/// the runtime-detected `cpu_features` list; version 4 dropped the
/// LSM kernel-tier field (the LSM has one kernel configuration) and
/// added the host's `nproc` and the `oversubscribed` flag, so a
/// recorded run states whether its thread count was scaling or
/// time-slicing; version 5 dropped `features.trace` (the flight
/// recorder is compiled into every build and switched on by `--trace`);
/// version 6 dropped `features` and the top-level `telemetry_enabled`
/// (event counting is compiled into every build and switched on
/// whenever a binary writes `--metrics`).
pub const SCHEMA_VERSION: u32 = 6;

/// The self-describing `meta` object every JSON export embeds: schema
/// version, worker thread count (0 when the
/// export spans several thread counts and the per-cell value governs),
/// host OS/arch, hardware thread count, whether `threads` exceeds it,
/// and the runtime-detected CPU feature set, so a BENCH_*.json can be
/// interpreted long after the run that produced it.
pub(crate) fn run_metadata_json(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu_features = detected_cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"os\": \"{}\", \"arch\": \"{}\", \
         \"threads\": {threads}, \"nproc\": {nproc}, \"oversubscribed\": {}, \
         \"cpu_features\": [{cpu_features}]}}",
        json_escape(std::env::consts::OS),
        json_escape(std::env::consts::ARCH),
        threads > nproc,
    )
}

/// Runtime-detected vector extensions of the host CPU, in a fixed
/// order. Empty on non-x86_64 targets.
fn detected_cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {
                $(if std::arch::is_x86_feature_detected!($f) {
                    out.push($f);
                })*
            };
        }
        probe!("sse4.2", "avx", "avx2", "avx512f", "avx512bw", "avx512dq", "avx512vl");
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an optional integer as a JSON value (`None` is `null`).
fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_owned(), |v| v.to_string())
}

/// Render an `f64` as a JSON value; non-finite values become `null`
/// (JSON has no Infinity/NaN).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

/// Render a slice of `f64` as a JSON array of [`json_f64`] values.
fn json_f64_array(xs: &[f64]) -> String {
    let body = xs.iter().map(|&v| json_f64(v)).collect::<Vec<_>>().join(", ");
    format!("[{body}]")
}

fn json_u64_array(xs: &[u64]) -> String {
    let body = xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!("[{body}]")
}

/// Event counters as a JSON object keyed by [`telemetry::Event::name`],
/// in stable [`telemetry::Event::ALL`] order.
fn events_json(events: &EventCounts) -> String {
    let body = events
        .iter()
        .map(|(e, c)| format!("\"{}\": {c}", e.name()))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// A histogram as `{count, min, max, mean, p50, p90, p99, p999,
/// buckets}` where `buckets` lists only non-empty buckets as
/// `[inclusive_lower_bound, count]` pairs.
fn histogram_json(h: &Histogram) -> String {
    let buckets = h
        .nonzero_buckets()
        .map(|(lo, c)| format!("[{lo},{c}]"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"buckets\": [{buckets}]}}",
        h.count(),
        h.min(),
        h.max(),
        json_f64(h.mean()),
        h.percentile(0.5),
        h.percentile(0.9),
        h.percentile(0.99),
        h.percentile(0.999),
    )
}

/// Accumulates benchmark cells and warnings, then serializes them to a
/// JSON document. Cells are rendered eagerly so the report only holds
/// strings.
#[derive(Debug)]
pub struct MetricsReport {
    tool: String,
    cells: Vec<String>,
    warnings: Vec<String>,
    max_threads: usize,
}

impl MetricsReport {
    /// A new empty report for `tool` (the binary name, e.g. "figures").
    pub fn new(tool: &str) -> Self {
        Self {
            tool: tool.to_owned(),
            cells: Vec::new(),
            warnings: Vec::new(),
            max_threads: 0,
        }
    }

    /// Number of cells pushed so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell has been pushed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Record a free-form warning (also useful to mirror to stderr).
    pub fn push_warning(&mut self, warning: &str) {
        self.warnings.push(json_escape(warning));
    }

    /// Add a throughput cell: summary, per-repetition series, fairness,
    /// the time-sliced ops-per-tick series and drift ratio, plus the
    /// telemetry events recorded while the cell ran. Automatically
    /// appends the steady-state warning when the cell drifted > 2×.
    pub fn push_throughput_cell(
        &mut self,
        experiment: &str,
        r: &ThroughputResult,
        events: &EventCounts,
    ) {
        self.max_threads = self.max_threads.max(r.threads);
        if let Some(w) = r.steady_state_warning() {
            self.push_warning(&w);
        }
        let per_rep = json_f64_array(&r.per_rep_ops_per_sec);
        let ticks = r
            .per_rep_ticks
            .iter()
            .map(|t| json_u64_array(t))
            .collect::<Vec<_>>()
            .join(", ");
        let drift = r.drift_ratio().map_or("null".to_owned(), json_f64);
        self.cells.push(format!(
            "{{\"kind\": \"throughput\", \"experiment\": \"{}\", \"queue\": \"{}\", \
             \"threads\": {}, \"ops_per_sec_mean\": {}, \"ops_per_sec_ci95\": {}, \
             \"mops_mean\": {}, \"per_rep_ops_per_sec\": {per_rep}, \
             \"fairness_mean\": {}, \"tick_ms\": {}, \"ticks_per_rep\": [{ticks}], \
             \"drift_ratio\": {drift}, \"events\": {}}}",
            json_escape(experiment),
            json_escape(&r.queue),
            r.threads,
            json_f64(r.summary.mean),
            json_f64(r.summary.ci95),
            json_f64(r.mops()),
            json_f64(r.fairness_summary().mean),
            json_f64(r.tick_ms),
            events_json(events),
        ));
    }

    /// Add a rank-error (quality) cell.
    pub fn push_quality_cell(
        &mut self,
        experiment: &str,
        r: &QualityResult,
        events: &EventCounts,
    ) {
        self.max_threads = self.max_threads.max(r.threads);
        self.cells.push(format!(
            "{{\"kind\": \"quality\", \"experiment\": \"{}\", \"queue\": \"{}\", \
             \"threads\": {}, \"rank_mean\": {}, \"rank_sd\": {}, \"rank_p50\": {}, \
             \"rank_p99\": {}, \"rank_max\": {}, \"delay_mean\": {}, \"deletions\": {}, \
             \"events\": {}}}",
            json_escape(experiment),
            json_escape(&r.queue),
            r.threads,
            json_f64(r.rank.mean),
            json_f64(r.rank.sd),
            r.p50,
            r.p99,
            r.max,
            json_f64(r.delay.mean),
            r.deletions,
            events_json(events),
        ));
    }

    /// Add a latency cell with full insert/delete histograms.
    pub fn push_latency_cell(
        &mut self,
        experiment: &str,
        r: &LatencyResult,
        events: &EventCounts,
    ) {
        self.max_threads = self.max_threads.max(r.threads);
        self.cells.push(format!(
            "{{\"kind\": \"latency\", \"experiment\": \"{}\", \"queue\": \"{}\", \
             \"threads\": {}, \"insert\": {}, \"delete\": {}, \"events\": {}}}",
            json_escape(experiment),
            json_escape(&r.queue),
            r.threads,
            histogram_json(&r.insert_hist),
            histogram_json(&r.delete_hist),
            events_json(events),
        ));
    }

    /// Add a checker cell: the semantic checker's run statistics and
    /// verdicts, with the deterministic violation counters as the
    /// nested [`CheckReport::violation_json`] object, plus the telemetry
    /// events recorded while the cell ran. Flags a warning per violating
    /// cell so report consumers can't miss a red matrix entry.
    pub fn push_checker_cell(&mut self, r: &CheckReport, events: &EventCounts) {
        self.max_threads = self.max_threads.max(r.threads);
        if !r.is_clean() {
            self.push_warning(&format!(
                "checker violations in {} ({} t{}): {}",
                r.queue,
                r.workload,
                r.threads,
                r.violations_total()
            ));
        }
        self.cells.push(format!(
            "{{\"kind\": \"checker\", \"queue\": \"{}\", \"threads\": {}, \
             \"workload\": \"{}\", \"key_dist\": \"{}\", \"seed\": {}, \
             \"chaos_seed\": {}, \"inserts\": {}, \"deletes\": {}, \
             \"empty_deletes\": {}, \"flushed_items\": {}, \
             \"rank_checked\": {}, \"rank_max\": {}, \"rank_mean\": {}, \
             \"rank_bound\": {}, \"rank_bound_enforced\": {}, \
             \"rank_slack\": {}, \"strict\": {}, \
             \"violations\": {}, \"events\": {}}}",
            json_escape(&r.queue),
            r.threads,
            json_escape(&r.workload),
            json_escape(&r.key_dist),
            r.seed,
            json_opt_u64(r.chaos_seed),
            r.inserts,
            r.deletes,
            r.empty_deletes,
            r.flushed_items,
            r.rank_checked,
            r.rank_max,
            json_f64(r.rank_mean),
            json_opt_u64(r.rank_bound),
            r.rank_bound_enforced,
            r.rank_slack,
            r.strict,
            r.violation_json(),
            events_json(events),
        ));
    }

    /// Serialize the whole report.
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| format!("    {c}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let warnings = self
            .warnings
            .iter()
            .map(|w| format!("    \"{w}\""))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"tool\": \"{}\",\n  \"meta\": {},\n  \
             \"cells\": [\n{cells}\n  ],\n  \
             \"warnings\": [\n{warnings}\n  ]\n}}\n",
            json_escape(&self.tool),
            run_metadata_json(self.max_threads),
        )
    }

    /// Write the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Snapshot-delta helper: the telemetry events recorded since `before`.
/// Binaries call `telemetry::snapshot()` before a cell and this after,
/// so concurrent cells in one process don't bleed into each other's
/// counters without needing a global reset.
pub fn events_since(before: &EventCounts) -> EventCounts {
    telemetry::snapshot().since(before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Summary;

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// string literals, and no trailing garbage.
    fn assert_balanced(json: &str) {
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escape = false;
        for c in json.chars() {
            if escape {
                escape = false;
                continue;
            }
            match c {
                '\\' if in_str => escape = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {json}");
        }
        assert!(!in_str, "unterminated string in {json}");
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
    }

    fn throughput_result(ticks: Vec<Vec<u64>>) -> ThroughputResult {
        ThroughputResult {
            queue: "testq".into(),
            threads: 2,
            per_rep_ops_per_sec: vec![1e6, 1.1e6],
            summary: Summary::of(&[1e6, 1.1e6]),
            per_rep_thread_ops: vec![vec![500, 500], vec![550, 550]],
            tick_ms: 10.0,
            per_rep_ticks: ticks,
        }
    }

    #[test]
    fn checker_cell_embeds_report_and_warns_on_violations() {
        let mut r = CheckReport {
            queue: "testq".into(),
            threads: 2,
            workload: "uniform".into(),
            key_dist: "uniform20".into(),
            seed: 7,
            chaos_seed: Some(9),
            inserts: 100,
            deletes: 99,
            empty_deletes: 3,
            flushed_items: 0,
            lost: 1,
            duplicated: 0,
            invented: 0,
            rank_checked: 99,
            rank_max: 4,
            rank_mean: 0.5,
            rank_bound: Some(0),
            rank_bound_enforced: true,
            rank_slack: 16,
            rank_violations: 0,
            strict: true,
            monotonicity_violations: 0,
            residual_order_violations: 0,
        };
        let mut m = MetricsReport::new("checker_stress");
        m.push_checker_cell(&r, &EventCounts::default());
        let json = m.to_json();
        assert_balanced(&json);
        assert!(json.contains("\"kind\": \"checker\""));
        assert!(json.contains("\"chaos_seed\": 9"));
        assert!(json.contains("\"rank_mean\": 0.500000"));
        assert!(json.contains("\"rank_bound\": 0,"));
        assert!(json.contains("\"events\": {"));
        assert!(json.contains("checker violations in testq"));
        // The deterministic violation counters are one nested object.
        assert!(json.contains(&format!("\"violations\": {}", r.violation_json())));
        // A clean report adds no warning; absent seeds and bounds are
        // null.
        r.lost = 0;
        r.chaos_seed = None;
        r.rank_bound = None;
        let mut clean = MetricsReport::new("checker_stress");
        clean.push_checker_cell(&r, &EventCounts::default());
        let json = clean.to_json();
        assert_balanced(&json);
        assert!(!json.contains("checker violations"));
        assert!(json.contains("\"chaos_seed\": null"));
        assert!(json.contains("\"rank_bound\": null"));
        assert!(json.contains(&r.violation_json()));
    }

    #[test]
    fn report_json_is_balanced_and_carries_cells() {
        let mut m = MetricsReport::new("figures");
        m.push_throughput_cell(
            "fig4a",
            &throughput_result(vec![vec![100, 100, 100]]),
            &EventCounts::default(),
        );
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        let json = m.to_json();
        assert_balanced(&json);
        assert!(json.contains("\"tool\": \"figures\""));
        assert!(json.contains("\"kind\": \"throughput\""));
        assert!(json.contains("\"queue\": \"testq\""));
        assert!(json.contains("\"ticks_per_rep\": [[100,100,100]]"));
        // Every event name is present even when counts are zero.
        for e in pq_traits::telemetry::Event::ALL {
            assert!(json.contains(e.name()), "missing event {}", e.name());
        }
    }

    #[test]
    fn drifting_cell_appends_warning() {
        let mut m = MetricsReport::new("figures");
        m.push_throughput_cell(
            "fig4a",
            &throughput_result(vec![vec![300, 200, 100]]),
            &EventCounts::default(),
        );
        let json = m.to_json();
        assert_balanced(&json);
        assert!(json.contains("drifted"), "missing drift warning: {json}");
        assert!(json.contains("\"drift_ratio\": 3.000000"));
    }

    #[test]
    fn stalled_tick_serializes_drift_as_null() {
        let mut m = MetricsReport::new("figures");
        m.push_throughput_cell(
            "fig4a",
            &throughput_result(vec![vec![300, 0]]),
            &EventCounts::default(),
        );
        let json = m.to_json();
        assert_balanced(&json);
        assert!(json.contains("\"drift_ratio\": null"));
    }

    #[test]
    fn latency_cell_exports_histograms() {
        let mut ins = Histogram::new();
        let mut del = Histogram::new();
        for v in 1..=100u64 {
            ins.record(v * 10);
            del.record(v * 20);
        }
        let r = LatencyResult {
            queue: "testq".into(),
            threads: 4,
            insert: harness::LatencyProfile::from_histogram(&ins),
            delete: harness::LatencyProfile::from_histogram(&del),
            insert_hist: ins,
            delete_hist: del,
        };
        let mut m = MetricsReport::new("latency");
        m.push_latency_cell("fig4a", &r, &EventCounts::default());
        let json = m.to_json();
        assert_balanced(&json);
        assert!(json.contains("\"kind\": \"latency\""));
        assert!(json.contains("\"count\": 100"));
        assert!(json.contains("\"buckets\": [["));
    }

    #[test]
    fn quality_cell_exports_rank_stats() {
        let r = QualityResult {
            queue: "testq".into(),
            threads: 4,
            rank: Summary::of_u64(&[10, 20, 30]),
            p50: 20,
            p99: 30,
            max: 30,
            delay: Summary::of_u64(&[1, 2, 3]),
            deletions: 3,
        };
        let mut m = MetricsReport::new("quality");
        m.push_quality_cell("table2a", &r, &EventCounts::default());
        let json = m.to_json();
        assert_balanced(&json);
        assert!(json.contains("\"kind\": \"quality\""));
        assert!(json.contains("\"rank_p99\": 30"));
        assert!(json.contains("\"deletions\": 3"));
    }

    #[test]
    fn meta_block_is_self_describing() {
        let mut m = MetricsReport::new("figures");
        m.push_throughput_cell(
            "fig4a",
            &throughput_result(vec![vec![100, 100]]),
            &EventCounts::default(),
        );
        let json = m.to_json();
        assert_balanced(&json);
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains(&format!("\"os\": \"{}\"", std::env::consts::OS)));
        assert!(json.contains(&format!("\"arch\": \"{}\"", std::env::consts::ARCH)));
        // The meta thread count is the max over cells (2 here).
        assert!(json.contains("\"threads\": 2,"), "meta threads missing: {json}");
        // v6: nothing is a compiled feature any more (the recorder and
        // the counters are switched at run time).
        assert!(!json.contains("\"features\""), "meta still lists features: {json}");
        assert!(!json.contains("telemetry_enabled"), "{json}");
        assert!(json.contains("\"cpu_features\": ["), "meta cpu_features missing: {json}");
        // v4: the host's hardware thread count and whether the run
        // exceeded it.
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(json.contains(&format!("\"nproc\": {nproc},")), "meta nproc missing: {json}");
        assert!(json.contains(&format!("\"oversubscribed\": {},", 2 > nproc)));
        // The standalone helper matches what the report embeds.
        let over = run_metadata_json(nproc + 1);
        assert_balanced(&over);
        assert!(over.contains(&format!("\"threads\": {}", nproc + 1)));
        assert!(over.contains("\"oversubscribed\": true"));
        assert!(run_metadata_json(0).contains("\"oversubscribed\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut m = MetricsReport::new("we\"ird\\tool\n");
        m.push_warning("warn \"quoted\"");
        let json = m.to_json();
        assert_balanced(&json);
        assert!(json.contains("we\\\"ird\\\\tool\\n"));
    }
}
