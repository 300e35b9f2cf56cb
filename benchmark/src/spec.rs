//! What the ledger measures: the four workloads, the eight end-to-end
//! queues, and the dictionary of metric names. `BENCHMARK.json` at the
//! repo root is generated from this file (`perf_ledger
//! --print-benchmark-json`) and a unit test keeps the two identical.

use std::time::Duration;

use harness::QueueSpec;
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyDistribution, Workload};

use crate::json::Json;

/// Seconds one driver run measures; `--seconds` defaults to it.
pub const RUN_SECONDS: u64 = 20;

/// The queues of the end-to-end cells, fixed by name: the paper's main
/// set minus klsm4096, plus one buffered and one combining queue.
pub const E2E_QUEUES: [&str; 8] = [
    "klsm128",
    "klsm256",
    "linden",
    "spray",
    "multiqueue",
    "mq-sticky",
    "globallock",
    "fc-mound",
];

/// Queues whose rank error is repeatable enough to gate.
pub const RANK_GATED: [&str; 2] = ["klsm128", "klsm256"];

/// Queues whose rank error is scheduler-dominated at P = 2: context only.
pub const RANK_CONTEXT: [&str; 3] = ["multiqueue", "mq-sticky", "spray"];

/// Component cells: registry families outside the end-to-end set. Too
/// unstable (or too slow) to gate, so they are per-layer only.
pub const COMPONENT_QUEUES: [&str; 7] = [
    "dlsm",
    "slsm256",
    "klsm4096",
    "mound",
    "hunt",
    "fc-globallock",
    "cbpq",
];

/// The crate a registry queue lives in — the layer name its metrics carry.
pub fn layer_of(queue: &str) -> &'static str {
    match queue {
        q if q.starts_with("klsm") || q.starts_with("slsm") || q.starts_with("dlsm") => "klsm",
        "linden" | "spray" => "skiplist",
        "multiqueue" | "mq-sticky" => "multiqueue",
        "cbpq" => "cbpq",
        _ => "lockedpq",
    }
}

pub fn queue_spec(name: &str) -> QueueSpec {
    QueueSpec::parse(name).unwrap_or_else(|| panic!("'{name}' is not a registry queue"))
}

/// How a cell's measured phase ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stop {
    /// A timed window: the cell's share of `--seconds`.
    Timed,
    /// A fixed operation count per thread. `ops_per_thread` is what an
    /// end-to-end cell of the default run does (`RUN_SECONDS` over
    /// `rounds` × 8 cells). A cell with a smaller budget does
    /// proportionally fewer, rounded down to a multiple of `multiple_of`
    /// (and never below it); no cell does more, because the queues' speed
    /// depends on the size (spray on `split_asc_p2`: 1.4 Mops/s at
    /// 250 k operations, 0.34 at 500 k, 0.14 at 10⁶).
    FixedOps {
        ops_per_thread: u64,
        multiple_of: u64,
    },
}

/// How many items a cell holds before its measured phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Prefill {
    Items(usize),
    /// As many as each thread's operation count, so a consumer can never
    /// truly drain the queue and every `None` is a spurious miss.
    OpsPerThread,
}

/// One workload of the ledger. Names are permanent.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub threads: usize,
    pub workload: Workload,
    pub key_dist: KeyDistribution,
    pub prefill: Prefill,
    pub stop: Stop,
    /// Interleaved rounds of the end-to-end pass; each metric is the
    /// median over them. Sized so a run's measured phases add up to about
    /// `RUN_SECONDS`.
    pub rounds: usize,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "uniform_p2",
        why: "paper fig4a at P=2: 50/50 mix, uniform 32-bit keys, steady 1e5 items; substrate and synchronisation both on the critical path",
        threads: 2,
        workload: Workload::Uniform,
        key_dist: KeyDistribution::uniform(32),
        prefill: Prefill::Items(100_000),
        stop: Stop::Timed,
        rounds: 10,
    },
    WorkloadSpec {
        name: "uniform_p1",
        why: "the same cell at P=1: bypasses contention (locks, CAS retries, combining, spying), so only substrate and handle layers show",
        threads: 1,
        workload: Workload::Uniform,
        key_dist: KeyDistribution::uniform(32),
        prefill: Prefill::Items(100_000),
        stop: Stop::Timed,
        rounds: 10,
    },
    // Fixed op counts: in a timed window the consumer of a fast-delete
    // queue (linden) outruns the producer and drains any affordable
    // prefill, and the harness would then count empty deletes.
    WorkloadSpec {
        name: "split_asc_p2",
        why: "paper fig4e at P=2: one producer, one consumer, ascending keys, fixed op count with equal prefill; tail inserts beside head deletes, every empty delete is spurious",
        threads: 2,
        workload: Workload::Split,
        key_dist: KeyDistribution::ascending(),
        prefill: Prefill::OpsPerThread,
        stop: Stop::FixedOps { ops_per_thread: 250_000, multiple_of: 2 },
        rounds: 12,
    },
    // Whole insert/delete cycles (2 x 65536 operations per thread): a
    // timed window would end mid-cycle, and insert phases run several
    // times faster than delete phases.
    WorkloadSpec {
        name: "sawtooth_p2",
        why: "sorting batches of 65536 at P=2, whole cycles: queue size swings 1e3 to 1.3e5, exercising merge cascades, heap growth and node allocation in a cache-resident regime",
        threads: 2,
        workload: Workload::Sorting { batch: SAWTOOTH_BATCH },
        key_dist: KeyDistribution::uniform(32),
        prefill: Prefill::Items(1_000),
        stop: Stop::FixedOps { ops_per_thread: 6 * SAWTOOTH_BATCH, multiple_of: 2 * SAWTOOTH_BATCH },
        rounds: 10,
    },
];

const SAWTOOTH_BATCH: u64 = 65_536;

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of everything one run does, derived from `--seconds` alone.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seconds: f64,
    /// 0.1 s windows, 2 rounds, everything else shrunk to match.
    pub smoke: bool,
    /// Operations per thread of a rank-error run (gated queues).
    pub quality_ops: u64,
    /// Rank-error runs per gated queue; the metric is their median.
    pub rank_runs: usize,
    /// Mixed-phase operations per thread of a correctness-gate cell.
    pub check_ops: usize,
}

impl Plan {
    pub fn new(seconds: f64) -> Plan {
        Plan {
            seconds,
            smoke: false,
            quality_ops: 200_000,
            rank_runs: 5,
            check_ops: 20_000,
        }
    }

    /// Every code path in well under 30 s.
    pub fn smoke() -> Plan {
        Plan {
            seconds: 0.1 * 2.0 * E2E_QUEUES.len() as f64,
            smoke: true,
            quality_ops: 5_000,
            rank_runs: 2,
            check_ops: 1_000,
        }
    }

    pub fn rounds(&self, w: &WorkloadSpec) -> usize {
        if self.smoke {
            2
        } else {
            w.rounds
        }
    }

    /// Share of the run one end-to-end cell gets.
    pub fn e2e_share(&self, w: &WorkloadSpec) -> f64 {
        1.0 / (self.rounds(w) * E2E_QUEUES.len()) as f64
    }

    /// The harness configuration of one cell that gets `share` of the
    /// run's measured seconds, in round `round`. Op and key streams derive
    /// from the run's seed and the round alone: the queues of one round
    /// see the same streams, and the rounds of a run sample several, so a
    /// queue whose speed hangs on the key sequence (klsm256 at P = 1
    /// varies twofold from seed to seed) is not judged on a single one.
    pub fn cell_config(
        &self,
        w: &WorkloadSpec,
        seed: u64,
        round: usize,
        share: f64,
    ) -> BenchConfig {
        let stop = match w.stop {
            Stop::Timed => StopCondition::Duration(Duration::from_secs_f64(self.seconds * share)),
            Stop::FixedOps {
                ops_per_thread,
                multiple_of,
            } => {
                let default_budget = RUN_SECONDS as f64 / (w.rounds * E2E_QUEUES.len()) as f64;
                let scale = (self.seconds * share / default_budget).min(1.0);
                let n = (ops_per_thread as f64 * scale).round() as u64 / multiple_of * multiple_of;
                StopCondition::OpsPerThread(n.max(multiple_of))
            }
        };
        let prefill = match (w.prefill, stop) {
            (Prefill::Items(n), _) => n,
            (Prefill::OpsPerThread, StopCondition::OpsPerThread(n)) => n as usize,
            (Prefill::OpsPerThread, StopCondition::Duration(_)) => {
                unreachable!("a timed cell has no op count to prefill")
            }
        };
        BenchConfig {
            threads: w.threads,
            workload: w.workload,
            key_dist: w.key_dist,
            prefill,
            stop,
            reps: 1,
            seed: seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// One entry of the metric dictionary.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening of the median, as a share of the parent's
    /// median; end-to-end metrics only.
    pub bound: Option<f64>,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics: what a user of the queues sees. Same names on
/// every workload; taken from the untraced run only.
///
/// Bounds are three times the largest run-to-run spread seen while the
/// ledger was sized on the 2-core reference host (see README, "A/A"),
/// capped at the 0.25 the driver allows: the host's own speed drifts by
/// 10-20 % over minutes, and a bound inside that drift would reject
/// changes for the weather.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    let mut m = vec![def("setup_s", "s", Lower, Some(0.25))];
    for q in E2E_QUEUES {
        m.push(def(format!("mops.{q}"), "Mops/s", Higher, Some(0.25)));
    }
    m.push(def("mops.geomean", "Mops/s", Higher, Some(0.25)));
    for q in RANK_GATED {
        m.push(def(format!("rank_mean.{q}"), "items", Lower, Some(0.25)));
    }
    m.push(def("peak_rss_mb", "MB", Lower, Some(0.20)));
    m
}

/// The per-layer metrics: the cost budget, reported by the traced run.
/// The layer-metric → end-to-end-metric → workload table is in
/// `benchmark/README.md`.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut m = vec![
        def("failed_share", "ratio", Lower, None),
        def("harness.loop_ns", "ns/op", Lower, None),
        def("workloads.keygen_ns", "ns/op", Lower, None),
        def("workloads.opstream_ns", "ns/op", Lower, None),
    ];
    for q in E2E_QUEUES {
        m.push(def(format!("harness.tick_cv.{q}"), "ratio", Lower, None));
    }
    for heap in ["binary_heap", "pairing_heap", "dary_heap"] {
        m.push(def(format!("seqpq.{heap}.op_ns"), "ns/op", Lower, None));
    }
    m.extend([
        def("lsm.op_ns", "ns/op", Lower, None),
        def("lsm.insert_ns", "ns/op", Lower, None),
        def("lsm.delete_ns", "ns/op", Lower, None),
        def("lsm.pool_hit_rate", "ratio", Higher, None),
        def("klsm.dlsm.mops", "Mops/s", Higher, None),
        def("klsm.slsm256.mops", "Mops/s", Higher, None),
        def("klsm.klsm4096.mops", "Mops/s", Higher, None),
        def("klsm.dlsm.empty_share", "ratio", Lower, None),
        def("klsm.spy_attempt_per_kop", "1/kop", Lower, None),
        def("klsm.spy_steal_per_kop", "1/kop", Lower, None),
        def("klsm.slsm_lost_race_per_kop", "1/kop", Lower, None),
        def("klsm.slsm_pivot_rebuild_per_kop", "1/kop", Lower, None),
        def("skiplist.find_restart_per_kop", "1/kop", Lower, None),
        def("skiplist.cas_retry_per_kop", "1/kop", Lower, None),
        def("multiqueue.empty_sample_per_kop", "1/kop", Lower, None),
        def("multiqueue.flush_items_per_flush", "items", Higher, None),
        def("klsm.sync_ns.klsm256", "ns/op", Lower, None),
        def("multiqueue.sync_ns.multiqueue", "ns/op", Lower, None),
        def("lockedpq.sync_ns.globallock", "ns/op", Lower, None),
    ]);
    for q in E2E_QUEUES {
        let layer = layer_of(q);
        m.push(def(format!("{layer}.{q}.insert_ns_p50"), "ns", Lower, None));
        m.push(def(format!("{layer}.{q}.delete_ns_p50"), "ns", Lower, None));
        m.push(def(format!("{layer}.{q}.delete_ns_p99"), "ns", Lower, None));
    }
    for q in RANK_CONTEXT {
        m.push(def(
            format!("{}.{q}.rank_mean", layer_of(q)),
            "items",
            Lower,
            None,
        ));
    }
    for q in ["mound", "hunt", "fc-globallock", "cbpq"] {
        m.push(def(
            format!("{}.{q}.mops", layer_of(q)),
            "Mops/s",
            Higher,
            None,
        ));
    }
    for q in LEAK_QUEUES {
        m.push(def(
            format!("epoch.leak_bytes_per_op.{q}"),
            "B/op",
            Lower,
            None,
        ));
    }
    m.extend([
        def("checker.violations", "count", Lower, None),
        def("checker.check_s", "s", Lower, None),
        def("pq-traits.instrumented_overhead_pct", "%", Lower, None),
        def("pq-traits.traced_overhead_pct", "%", Lower, None),
    ]);
    for q in E2E_QUEUES {
        m.push(def(format!("trace.accounted_pct.{q}"), "%", Higher, None));
    }
    m
}

/// Lock-free queues that leak through the vendored epoch stub.
pub const LEAK_QUEUES: [&str; 3] = ["linden", "spray", "klsm256"];

/// The driver's limits on names, units and list sizes.
pub fn validate(defs: &[MetricDef], max: usize) -> Result<(), String> {
    if defs.is_empty() || defs.len() > max {
        return Err(format!("{} metrics, allowed 1..={max}", defs.len()));
    }
    for (i, d) in defs.iter().enumerate() {
        valid_name(&d.name)?;
        let unit_ok = !d.unit.is_empty()
            && d.unit.len() <= 16
            && d.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        if !unit_ok {
            return Err(format!("unit '{}' of '{}' is not allowed", d.unit, d.name));
        }
        if let Some(b) = d.bound {
            if !(b > 0.0 && b <= 0.25) {
                return Err(format!("bound {b} of '{}' is outside (0, 0.25]", d.name));
            }
        }
        if defs[..i].iter().any(|e| e.name == d.name) {
            return Err(format!("'{}' is used twice", d.name));
        }
    }
    Ok(())
}

/// A name starts with a letter or digit and holds at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> Result<(), String> {
    let ok = name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    if ok {
        Ok(())
    } else {
        Err(format!("'{name}' is not a valid metric name"))
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let better = |b: Better| {
        Json::str(if b == Better::Higher {
            "higher"
        } else {
            "lower"
        })
    };
    let metric = |d: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(d.name.as_str())),
            ("unit", Json::str(d.unit)),
            ("better", better(d.better)),
        ];
        if let Some(b) = d.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionaries_meet_the_drivers_limits() {
        let e2e = end_to_end();
        validate(&e2e, 16).unwrap();
        validate(&per_layer(), 128).unwrap();
        assert!(e2e.iter().all(|d| d.bound.is_some()));
        assert!(per_layer().iter().all(|d| d.bound.is_none()));
        // No name in both lists.
        let layer = per_layer();
        assert!(e2e.iter().all(|d| layer.iter().all(|l| l.name != d.name)));
        // The driver needs set-up time as its own metric.
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn name_and_size_rules_reject_what_the_driver_refuses() {
        assert!(valid_name("mops.mq-sticky").is_ok());
        assert!(valid_name("skiplist.linden.delete_ns_p99").is_ok());
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(valid_name(bad).is_err(), "{bad:?}");
        }
        let one = || def("a", "ms", Better::Lower, Some(0.1));
        assert!(validate(&[], 16).is_err());
        assert!(validate(&vec![one(); 2], 16).is_err(), "duplicate name");
        let many: Vec<MetricDef> = (0..17)
            .map(|i| def(format!("m{i}"), "ms", Better::Lower, Some(0.1)))
            .collect();
        assert!(validate(&many, 16).is_err());
        assert!(validate(&many, 128).is_ok());
        assert!(validate(&[def("a", "ms", Better::Lower, Some(0.3))], 16).is_err());
        assert!(validate(&[def("a", "m s", Better::Lower, None)], 16).is_err());
        assert!(validate(&[def("a", "seventeen_chars__", Better::Lower, None)], 16).is_err());
    }

    #[test]
    fn workloads_and_queues_are_the_named_ones() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["uniform_p2", "uniform_p1", "split_asc_p2", "sawtooth_p2"]
        );
        for w in &WORKLOADS {
            valid_name(w.name).unwrap();
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for q in E2E_QUEUES.iter().chain(&COMPONENT_QUEUES) {
            assert_eq!(queue_spec(q).name(), *q);
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json().pretty(),
            "regenerate with: perf_ledger --print-benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn cell_configs_follow_seconds_share_and_round() {
        let plan = Plan::new(20.0);
        let split = workload("split_asc_p2").unwrap();
        let cfg = plan.cell_config(split, 7, 0, plan.e2e_share(split));
        assert_eq!(cfg.stop, StopCondition::OpsPerThread(250_000));
        assert_eq!((cfg.prefill, cfg.seed, cfg.reps), (250_000, 7, 1));
        // Half the share, half the operations; still equal prefill chunks.
        let half = plan.cell_config(split, 7, 0, plan.e2e_share(split) / 2.0);
        assert_eq!(
            (half.stop, half.prefill),
            (StopCondition::OpsPerThread(125_000), 125_000)
        );
        // A larger share never grows the cell: the queues' speed depends on its size.
        assert_eq!(
            plan.cell_config(split, 7, 0, 0.5).stop,
            StopCondition::OpsPerThread(250_000)
        );

        // Sawtooth cells run whole cycles, however small their share.
        let saw = workload("sawtooth_p2").unwrap();
        assert_eq!(
            plan.cell_config(saw, 7, 0, plan.e2e_share(saw)).stop,
            StopCondition::OpsPerThread(393_216)
        );
        let tiny = Plan::smoke().cell_config(saw, 7, 0, 0.001);
        assert_eq!(
            (tiny.stop, tiny.prefill),
            (StopCondition::OpsPerThread(131_072), 1_000)
        );

        let uni = workload("uniform_p2").unwrap();
        let timed = plan.cell_config(uni, 7, 0, plan.e2e_share(uni));
        assert_eq!(
            timed.stop,
            StopCondition::Duration(Duration::from_millis(250))
        );
        assert_eq!(timed.prefill, 100_000);
        // Rounds replay different streams; the same round, the same ones.
        let r3 = plan.cell_config(uni, 7, 3, 0.1).seed;
        assert_ne!(r3, 7);
        assert_eq!(r3, plan.cell_config(uni, 7, 3, 0.5).seed);
        assert_ne!(r3, plan.cell_config(uni, 8, 3, 0.1).seed);
    }
}
