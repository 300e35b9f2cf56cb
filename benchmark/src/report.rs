//! What a run hands back: the metrics by name, the attempted/failed
//! tally, and the facts that make a report self-describing.

use std::process::Command;

use crate::json::Json;
use crate::spec::{MetricDef, Plan, WorkloadSpec};

/// One measured metric. `n` is the number of samples behind the value
/// (rounds for a median, spans for a percentile, operations for a rate).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub n: u64,
}

/// The result of one pass over one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted inside measured phases plus operations the
    /// correctness gate replayed.
    pub attempted: u64,
    /// Empty `delete_min` returns inside measured phases, checker
    /// violations, and all operations of a cell that panicked or hung.
    pub failed: u64,
    /// What went wrong, one line each; empty on a clean run.
    pub findings: Vec<String>,
    /// Per-cell detail for the report file.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, n: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            n,
        });
    }

    pub fn correct(&self) -> bool {
        self.findings.is_empty()
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of `defs`.
    /// A metric the pass did not produce, or produced as a non-number, is
    /// an error: the driver must never see a hole.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == d.name)
                .ok_or_else(|| format!("metric '{}' was not measured", d.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric '{}' is not a number", d.name));
            }
            metrics.push((
                d.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(d.unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string())
    }

    /// The report file: the result plus sample counts, per-cell detail
    /// and the host facts.
    pub fn report(&self, defs: &[MetricDef], meta: Json) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let unit = defs
                    .iter()
                    .find(|d| d.name == m.name)
                    .map_or("", |d| d.unit);
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(unit)),
                        ("n", Json::Int(m.n)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("meta", meta),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            ),
            ("metrics", Json::Obj(metrics)),
            ("detail", Json::Obj(self.detail.clone())),
        ])
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_features() -> Vec<Json> {
    let mut f: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! detect {
            ($($name:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($name) {
                    f.push($name);
                }
            )*};
        }
        detect!("sse4.2", "popcnt", "avx", "avx2", "bmi2", "avx512f", "avx512bw");
    }
    f.push(std::env::consts::ARCH);
    f.into_iter().map(Json::str).collect()
}

/// First line a command prints, or "unknown" (the driver's checkout is
/// not a git repository, and a stripped image may lack either tool).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The facts a report needs to be read on its own.
pub fn meta(w: &WorkloadSpec, plan: &Plan, seed: u64, traced: bool) -> Json {
    let features: &[&str] = if cfg!(feature = "telemetry") {
        &["telemetry"]
    } else {
        &[]
    };
    Json::obj([
        ("benchmark", Json::str("perf_ledger")),
        ("workload", Json::str(w.name)),
        ("traced", Json::Bool(traced)),
        ("smoke", Json::Bool(plan.smoke)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(plan.seconds)),
        ("rounds", Json::Int(plan.rounds(w) as u64)),
        (
            "e2e_cell_seconds",
            Json::Num(plan.seconds * plan.e2e_share(w)),
        ),
        ("threads", Json::Int(w.threads as u64)),
        ("nproc", Json::Int(nproc() as u64)),
        // A run with fewer hardware threads than workers is refused, so
        // a report that exists was never time-sliced by its own design.
        ("oversubscribed", Json::Bool(false)),
        ("cpu_features", Json::Arr(cpu_features())),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "cargo_features",
            Json::Arr(features.iter().map(|f| Json::str(*f)).collect()),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release: lto=thin codegen-units=1"
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{end_to_end, workload};

    fn full_outcome() -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (i, d) in end_to_end().iter().enumerate() {
            o.push(d.name.clone(), 1.5 + i as f64, 5);
        }
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = full_outcome().result_line(&end_to_end()).unwrap();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}"#), "{line}");
        assert!(!line.contains('\n'));
        assert_eq!(line.matches("\"value\"").count(), end_to_end().len());
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error_not_a_hole() {
        let mut o = full_outcome();
        o.metrics.retain(|m| m.name != "mops.linden");
        assert!(o
            .result_line(&end_to_end())
            .unwrap_err()
            .contains("mops.linden"));
        let mut o = full_outcome();
        o.metrics[3].value = f64::NAN;
        assert!(o.result_line(&end_to_end()).is_err());
    }

    #[test]
    fn findings_make_the_run_incorrect() {
        let mut o = full_outcome();
        o.findings.push("linden: lost 3 items".to_owned());
        assert!(o
            .result_line(&end_to_end())
            .unwrap()
            .starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn meta_describes_the_host_and_the_run() {
        let m = meta(workload("uniform_p1").unwrap(), &Plan::new(20.0), 9, false).to_string();
        for key in [
            "nproc",
            "oversubscribed",
            "cpu_features",
            "rustc",
            "git_commit",
            "cargo_features",
            "seed",
            "rounds",
            "e2e_cell_seconds",
            "threads",
        ] {
            assert!(m.contains(&format!("\"{key}\"")), "{key} missing from {m}");
        }
    }
}
