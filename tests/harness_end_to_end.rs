//! End-to-end checks of the measurement harness across the whole
//! experiment grid.

use std::time::Duration;

use harness::{experiments, run_quality, run_throughput, QueueSpec};
use workloads::config::StopCondition;
use workloads::BenchConfig;

fn quick(exp: &experiments::Experiment, threads: usize) -> BenchConfig {
    BenchConfig {
        threads,
        workload: exp.workload,
        key_dist: exp.key_dist,
        prefill: 2_000,
        stop: StopCondition::Duration(Duration::from_millis(15)),
        reps: 2,
        seed: 0xE2E,
    }
}

#[test]
fn every_grid_cell_produces_throughput_for_every_paper_queue() {
    for exp in experiments::all() {
        for spec in QueueSpec::paper_set() {
            let cfg = quick(&exp, 2);
            let r = run_throughput(spec, &cfg);
            assert!(
                r.summary.mean > 0.0,
                "{} produced zero throughput on {}",
                spec,
                exp.id
            );
            assert_eq!(r.per_rep_ops_per_sec.len(), 2);
        }
    }
}

#[test]
fn throughput_repetitions_are_independent_and_nonzero() {
    let exp = experiments::by_id("fig4a").unwrap();
    let mut cfg = quick(&exp, 2);
    cfg.reps = 5;
    let r = run_throughput(QueueSpec::MultiQueue(4, 1, 1), &cfg);
    assert_eq!(r.per_rep_ops_per_sec.len(), 5);
    assert!(r.per_rep_ops_per_sec.iter().all(|&x| x > 0.0));
    assert!(r.summary.ci95 >= 0.0);
}

#[test]
fn quality_runs_on_split_and_alternating_workloads() {
    for id in ["fig4e", "fig8a"] {
        let exp = experiments::by_id(id).unwrap();
        let cfg = BenchConfig {
            threads: 2,
            workload: exp.workload,
            key_dist: exp.key_dist,
            prefill: 5_000,
            stop: StopCondition::OpsPerThread(2_000),
            reps: 1,
            seed: 1,
        };
        let r = run_quality(QueueSpec::Klsm(128), &cfg);
        assert!(r.deletions > 0, "no deletions replayed for {id}");
    }
}

#[test]
fn single_thread_runs_supported_everywhere() {
    let exp = experiments::by_id("fig4a").unwrap();
    for spec in QueueSpec::paper_set() {
        let r = run_throughput(spec, &quick(&exp, 1));
        assert!(r.summary.mean > 0.0, "{spec} at 1 thread");
    }
}

#[test]
fn eight_thread_oversubscribed_runs_complete() {
    // The host may have fewer cores; oversubscription must still finish.
    let exp = experiments::by_id("fig4a").unwrap();
    let mut cfg = quick(&exp, 8);
    cfg.reps = 1;
    for spec in [QueueSpec::Klsm(256), QueueSpec::MultiQueue(4, 1, 1)] {
        let r = run_throughput(spec, &cfg);
        assert!(r.summary.mean > 0.0, "{spec} at 8 threads");
    }
}

#[test]
fn hold_model_cell_exists_and_runs() {
    let exp = experiments::by_id("hold").unwrap();
    let r = run_throughput(QueueSpec::GlobalLock, &quick(&exp, 2));
    assert!(r.summary.mean > 0.0);
}
