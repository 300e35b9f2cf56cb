//! Drives the built binary the way the driver does, in `--smoke` size:
//! every workload, both passes, every metric of `BENCHMARK.json` present
//! in the result line, and the error paths exit non-zero.

use std::path::Path;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn ledger(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
        .args(args)
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("perf_ledger starts")
}

/// The `"name"` values of one list of `BENCHMARK.json`, which keeps one
/// entry per line.
fn names(benchmark_json: &str, list: &str) -> Vec<String> {
    let section = benchmark_json
        .split(&format!("\"{list}\": ["))
        .nth(1)
        .expect("list present");
    let section = &section[..section.find("\n  ]").expect("list closed")];
    section
        .lines()
        .filter_map(|l| l.split("\"name\": \"").nth(1))
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn every_workload_and_pass_reports_every_metric() {
    let benchmark_json = include_str!("../../BENCHMARK.json");
    let workloads = names(benchmark_json, "workloads");
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let started = Instant::now();
            let out = ledger(&[
                "--workload",
                workload,
                "--seed",
                "11",
                "--smoke",
                "--trace",
                trace,
            ]);
            let took = started.elapsed();
            let stdout = String::from_utf8(out.stdout).unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {stderr}\n{stdout}"
            );
            assert!(
                took < Duration::from_secs(30),
                "{workload} --trace {trace} took {took:?}"
            );

            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with(r#"{"correct": true, "attempted": "#),
                "{line}"
            );
            assert!(line.contains(r#""failed": 0, "metrics": {"#), "{line}");
            let expected = names(benchmark_json, list);
            for name in &expected {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace}: no {name} in {line}"
                );
            }
            assert_eq!(
                line.matches("\"value\": ").count(),
                expected.len(),
                "no metric beyond the list"
            );

            let pass = if trace == "1" { "traced" } else { "e2e" };
            let report = Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("ledger.{workload}.{pass}.json"));
            let report = std::fs::read_to_string(report).expect("report written");
            for key in [
                "\"nproc\"",
                "\"oversubscribed\": false",
                "\"rustc\"",
                "\"git_commit\"",
                "\"smoke\": true",
            ] {
                assert!(
                    report.contains(key),
                    "{key} missing from the {workload} {pass} report"
                );
            }
            if trace == "1" {
                let trace_file =
                    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace.{workload}.jsonl"));
                let spans = std::fs::read_to_string(trace_file).expect("trace written");
                for name in [
                    "skiplist.linden.cell",
                    "skiplist.linden.rep",
                    "skiplist.linden.delete_min",
                ] {
                    assert!(
                        spans.contains(&format!("\"name\": \"{name}\"")),
                        "{name} span missing for {workload}"
                    );
                }
            }
        }
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nonsense"][..],
        &["--trace", "1"][..],
        &["--workload", "uniform_p2", "--seconds", "-1"][..],
    ] {
        let out = ledger(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
