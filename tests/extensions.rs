//! Integration tests for the extension features: latency mode, shaped
//! key distributions, sorting/biased workloads, the instrumentation
//! wrapper, and the appendix-D survey queues under the harness.

use harness::{experiments, run_latency, run_quality, run_throughput, QueueSpec};
use pq_traits::{ConcurrentPq, Instrumented, PqHandle};
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyDistribution, KeyShape, Workload};

fn cfg(workload: Workload, key_dist: KeyDistribution, threads: usize) -> BenchConfig {
    BenchConfig {
        threads,
        workload,
        key_dist,
        prefill: 3_000,
        stop: StopCondition::OpsPerThread(3_000),
        reps: 1,
        seed: 0xE77,
    }
}

#[test]
fn latency_mode_covers_paper_queues() {
    for spec in [QueueSpec::Klsm(128), QueueSpec::MultiQueue(4), QueueSpec::Linden] {
        let r = run_latency(
            spec,
            &cfg(Workload::Uniform, KeyDistribution::uniform(16), 2),
        );
        assert!(r.insert.n > 0, "{spec}: no insert latencies");
        assert!(r.delete.n > 0, "{spec}: no delete latencies");
        assert!(r.insert.p50 <= r.insert.max);
    }
}

#[test]
fn shaped_key_distributions_run_end_to_end() {
    for shape in [
        KeyShape::Zipf,
        KeyShape::Exponential,
        KeyShape::Triangular,
        KeyShape::Bimodal,
    ] {
        let c = cfg(Workload::Uniform, KeyDistribution::shaped(shape, 16), 2);
        let r = run_throughput(QueueSpec::Klsm(256), &c);
        assert!(r.summary.mean > 0.0, "{shape:?}");
    }
}

#[test]
fn zipf_keys_stress_the_duplicate_path() {
    // Heavy head: many duplicate small keys, like the 8-bit benchmark
    // but sharper. Quality must still be within the k-LSM bound.
    let c = cfg(Workload::Uniform, KeyDistribution::shaped(KeyShape::Zipf, 16), 2);
    let r = run_quality(QueueSpec::Klsm(128), &c);
    assert!(r.deletions > 0);
    assert!(
        r.rank.mean < 256.0,
        "zipf mean rank {} exceeds bound",
        r.rank.mean
    );
}

#[test]
fn sorting_workload_produces_throughput() {
    let exp = experiments::by_id("sorting").expect("sorting experiment registered");
    let c = cfg(exp.workload, exp.key_dist, 2);
    for spec in [QueueSpec::Klsm(256), QueueSpec::GlobalLock] {
        let r = run_throughput(spec, &c);
        assert!(r.summary.mean > 0.0, "{spec}");
    }
}

#[test]
fn biased_workload_grows_queue() {
    // 90 % inserts: the queue must grow ≈ 0.8 × ops.
    let c = cfg(
        Workload::Biased { insert_permille: 900 },
        KeyDistribution::uniform(16),
        2,
    );
    let r = run_throughput(QueueSpec::MultiQueue(4), &c);
    assert!(r.summary.mean > 0.0);
}

#[test]
fn survey_queues_run_the_paper_grid_cell() {
    let exp = experiments::by_id("fig4a").unwrap();
    for spec in [QueueSpec::Hunt, QueueSpec::Mound, QueueSpec::Cbpq] {
        let c = cfg(exp.workload, exp.key_dist, 2);
        let r = run_throughput(spec, &c);
        assert!(r.summary.mean > 0.0, "{spec}");
    }
}

#[test]
fn strict_survey_queues_have_zero_rank_single_thread() {
    for spec in [QueueSpec::Mound, QueueSpec::Cbpq, QueueSpec::Hunt] {
        let c = cfg(Workload::Uniform, KeyDistribution::uniform(16), 1);
        let r = run_quality(spec, &c);
        assert_eq!(r.rank.mean, 0.0, "{spec} claimed strict but mean rank > 0");
    }
}

#[test]
fn instrumented_wrapper_counts_under_concurrency() {
    // 4 worker handles plus the final drain handle.
    let q = Instrumented::new(klsm::Klsm::new(64, 5));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..1_000 {
                    if (i + t) % 2 == 0 {
                        h.insert(i, t * 1000 + i);
                    } else {
                        let _ = h.delete_min();
                    }
                }
            });
        }
    });
    let c = q.counts();
    assert_eq!(c.inserts, 2_000);
    assert_eq!(c.deletes + c.empty_deletes, 2_000);
    assert_eq!(c.total(), 4_000);
    // Conservation: net items must equal what is actually left.
    let mut h = q.handle();
    let mut left = 0i64;
    while h.delete_min().is_some() {
        left += 1;
    }
    assert_eq!(left, c.net_items());
}

#[test]
fn latency_percentiles_are_ordered_for_survey_queues() {
    for spec in [QueueSpec::Mound, QueueSpec::Cbpq] {
        let r = run_latency(
            spec,
            &cfg(Workload::Uniform, KeyDistribution::uniform(16), 2),
        );
        assert!(r.insert.p50 <= r.insert.p90 && r.insert.p90 <= r.insert.p99);
        assert!(r.delete.p50 <= r.delete.p90 && r.delete.p90 <= r.delete.p99);
    }
}
