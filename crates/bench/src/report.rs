//! Plain-text table rendering in the layout of the paper's figures
//! (throughput vs. threads, one series per queue) and tables (rank error
//! per thread count), plus the per-op latency percentile table.

use harness::{Experiment, LatencyResult, QualityResult, ThroughputResult};

/// Width of a table's queue column: its header or its longest queue
/// name, whichever is wider.
fn name_width<'a>(names: impl Iterator<Item = &'a str>) -> usize {
    names.map(str::len).fold("queue".len(), usize::max)
}

/// Render a throughput matrix: rows = queues, columns = thread counts,
/// cells = MOps/s mean ± 95 % CI. `results[q][t]` pairs with
/// `threads[t]`.
pub fn format_throughput_table(
    title: &str,
    threads: &[usize],
    results: &[Vec<ThroughputResult>],
) -> String {
    let w = name_width(results.iter().flatten().map(|r| r.queue.as_str()));
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!("{:<w$}", "queue"));
    for t in threads {
        out.push_str(&format!("{:>20}", format!("{t} thr [MOps/s]")));
    }
    out.push('\n');
    for row in results {
        let name = row.first().map(|r| r.queue.as_str()).unwrap_or("?");
        out.push_str(&format!("{name:<w$}"));
        for r in row {
            out.push_str(&format!(
                "{:>20}",
                format!("{:.3} ±{:.3}", r.mops(), r.summary.ci95 / 1e6)
            ));
        }
        out.push('\n');
    }
    out
}

/// Render a rank-error table: rows = queues, columns = thread counts,
/// cells = mean rank (standard deviation), matching the layout of the
/// paper's tables 1/2/5.
pub fn format_quality_table(
    title: &str,
    threads: &[usize],
    results: &[Vec<QualityResult>],
) -> String {
    let w = name_width(results.iter().flatten().map(|r| r.queue.as_str()));
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!("{:<w$}", "queue"));
    for t in threads {
        out.push_str(&format!("{:>24}", format!("{t} thr rank (sd)")));
    }
    out.push('\n');
    for row in results {
        let name = row.first().map(|r| r.queue.as_str()).unwrap_or("?");
        out.push_str(&format!("{name:<w$}"));
        for r in row {
            out.push_str(&format!(
                "{:>24}",
                format!("{:.1} ({:.1})", r.rank.mean, r.rank.sd)
            ));
        }
        out.push('\n');
    }
    out
}

/// Render per-op latency percentiles: for each thread count one header
/// and one row per queue, thread counts separated by a blank line.
/// `results[q][t]` pairs with `threads[t]`.
pub fn format_latency_table(
    exp: &Experiment,
    threads: &[usize],
    results: &[Vec<LatencyResult>],
) -> String {
    let mut out = String::new();
    for (i, t) in threads.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let cells: Vec<&LatencyResult> = results.iter().filter_map(|row| row.get(i)).collect();
        let w = name_width(cells.iter().map(|r| r.queue.as_str()));
        // Every measured op is one sample, so the budget that ran can
        // be read off any cell.
        let ops_per_thread = cells.first().map_or(0, |r| (r.insert.n + r.delete.n) / t);
        out.push_str(&format!(
            "# per-op latency [ns] — {} workload, {} keys, {t} threads, {ops_per_thread} ops/thread\n\n",
            exp.workload.name(),
            exp.key_dist.name(),
        ));
        out.push_str(&format!(
            "{:<w$} {:>10} {:>10} {:>10} {:>12} | {:>10} {:>10} {:>10} {:>12}\n",
            "queue",
            "ins p50",
            "ins p90",
            "ins p99",
            "ins max",
            "del p50",
            "del p90",
            "del p99",
            "del max"
        ));
        for r in cells {
            out.push_str(&format!(
                "{:<w$} {:>10} {:>10} {:>10} {:>12} | {:>10} {:>10} {:>10} {:>12}\n",
                r.queue,
                r.insert.p50,
                r.insert.p90,
                r.insert.p99,
                r.insert.max,
                r.delete.p50,
                r.delete.p90,
                r.delete.p99,
                r.delete.max
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Summary;

    /// A 20-character registry name, longer than any other in the
    /// tests' tables.
    const LONG: &str = "mq-sticky-c2-s64-m16";

    /// Every header and row line of `table` (titles and blank lines
    /// skipped) has the same width, so the columns line up.
    fn assert_columns_line_up(table: &str) {
        let widths: Vec<usize> = table
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.chars().count())
            .collect();
        assert!(widths.len() >= 2, "no header and rows in:\n{table}");
        assert!(
            widths.iter().all(|&w| w == widths[0]),
            "ragged columns {widths:?} in:\n{table}"
        );
    }

    fn tp(queue: &str, mean: f64) -> ThroughputResult {
        ThroughputResult {
            queue: queue.to_owned(),
            threads: 2,
            per_rep_ops_per_sec: vec![mean],
            summary: Summary::of(&[mean]),
            per_rep_thread_ops: vec![vec![mean as u64 / 2; 2]],
            tick_ms: 10.0,
            per_rep_ticks: vec![],
        }
    }

    #[test]
    fn throughput_table_contains_queues_and_values() {
        let table = format_throughput_table(
            "fig4a",
            &[1, 2],
            &[
                vec![tp("klsm128", 2e6), tp("klsm128", 3e6)],
                vec![tp(LONG, 12e6), tp(LONG, 13e6)],
            ],
        );
        assert!(table.contains("fig4a"));
        assert!(table.contains("klsm128"));
        assert!(table.contains("2.000"));
        assert!(table.contains("3.000"));
        assert!(table.contains(LONG));
        assert_columns_line_up(&table);
    }

    #[test]
    fn quality_table_contains_rank() {
        let q = |queue: &str| QualityResult {
            queue: queue.into(),
            threads: 4,
            rank: Summary::of_u64(&[10, 20, 30]),
            p50: 20,
            p99: 30,
            max: 30,
            delay: Summary::of_u64(&[1, 2, 3]),
            deletions: 3,
        };
        let table = format_quality_table("table2a", &[4], &[vec![q("multiqueue")], vec![q(LONG)]]);
        assert!(table.contains("multiqueue"));
        assert!(table.contains("20.0"));
        assert!(table.contains(LONG));
        assert_columns_line_up(&table);
    }

    #[test]
    fn latency_table_has_a_section_per_thread_count_and_reads_the_budget_off_a_cell() {
        let cell = |queue: &str, threads: usize, ops: u64| {
            let mut h = harness::Histogram::new();
            for v in 0..ops * threads as u64 / 2 {
                h.record(100 + v);
            }
            let profile = harness::LatencyProfile::from_histogram(&h);
            LatencyResult {
                queue: queue.into(),
                threads,
                insert: profile,
                delete: profile,
                insert_hist: h.clone(),
                delete_hist: h,
            }
        };
        let exp = harness::experiments::by_id("fig4a").unwrap();
        let rows = [
            vec![cell("linden", 1, 40), cell("linden", 2, 40)],
            vec![cell(LONG, 1, 40), cell(LONG, 2, 40)],
        ];
        let table = format_latency_table(&exp, &[1, 2], &rows);
        assert!(table.contains("uniform workload, uniform32 keys, 1 threads, 40 ops/thread"));
        assert!(table.contains("uniform32 keys, 2 threads, 40 ops/thread"));
        assert_eq!(table.matches("\nlinden ").count(), 2);
        assert_eq!(table.matches(&format!("\n{LONG} ")).count(), 2);
        assert_columns_line_up(&table);
    }
}
