//! Benchmark configuration: the full parameter set of appendix F.

use std::time::Duration;

use pq_traits::Item;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::keys::{KeyDistribution, KeyGen};

/// Value-space partition that makes every inserted value unique within
/// a run (the harness and the checker share it): worker thread `t`
/// numbers its inserts from `t << VALUE_SHIFT`, and the prefill uses
/// the thread-id tag [`PREFILL_TAG`].
pub const VALUE_SHIFT: u32 = 40;
/// Thread-id tag marking prefill values.
pub const PREFILL_TAG: u64 = 0xFF << VALUE_SHIFT;

/// The prefill stream: `n` items with keys from `key_dist` on a
/// dedicated generator stream (thread id `u64::MAX`, seed offset
/// `0xF00D`, so it never collides with a worker's stream) and values
/// `value_base + i`.
pub fn prefill_items(key_dist: KeyDistribution, seed: u64, n: usize, value_base: u64) -> Vec<Item> {
    let mut gen = KeyGen::new(key_dist, seed ^ 0xF00D, u64::MAX);
    (0..n)
        .map(|i| Item::new(gen.next_key(), value_base + i as u64))
        .collect()
}

/// Which threads insert and which delete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every thread performs ~50 % insertions and ~50 % deletions,
    /// randomly chosen.
    Uniform,
    /// Half the threads only insert, the other half only delete.
    Split,
    /// Every thread strictly alternates insertions and deletions.
    Alternating,
    /// Every thread inserts with the given probability (in permille) and
    /// deletes otherwise — appendix F's general "operation distribution"
    /// knob; `Uniform` is the 500‰ special case.
    Biased {
        /// Probability of an insert, in permille (0–1000).
        insert_permille: u16,
    },
    /// Every thread alternates *batches* of insertions and deletions;
    /// large batches correspond to the sorting benchmark of Larkin, Sen
    /// and Tarjan (cited in §2).
    Sorting {
        /// Operations per batch.
        batch: u64,
    },
}

impl Workload {
    /// Short name used in reports.
    pub fn name(&self) -> String {
        match self {
            Workload::Uniform => "uniform".to_owned(),
            Workload::Split => "split".to_owned(),
            Workload::Alternating => "alternating".to_owned(),
            Workload::Biased { insert_permille } => format!("biased{insert_permille}"),
            Workload::Sorting { batch } => format!("sorting{batch}"),
        }
    }
}

/// Stop criterion: run for a fixed time (throughput mode) or a fixed
/// per-thread operation count (latency / quality mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// Measure for this long and report operations per second.
    Duration(Duration),
    /// Perform exactly this many operations per thread.
    OpsPerThread(u64),
}

/// A full benchmark configuration (appendix F parameter set).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Thread count.
    pub threads: usize,
    /// Thread role assignment.
    pub workload: Workload,
    /// Key base range and dependency.
    pub key_dist: KeyDistribution,
    /// Items inserted before measurement starts (paper: 10⁶).
    pub prefill: usize,
    /// Throughput window or operation budget.
    pub stop: StopCondition,
    /// Independent repetitions (paper: 10, reporting mean and confidence
    /// intervals).
    pub reps: usize,
    /// Master seed; every thread/rep derives its own deterministic
    /// sub-stream.
    pub seed: u64,
}

impl BenchConfig {
    /// The paper's standard configuration scaled for quick runs: uniform
    /// workload, uniform 32-bit keys, 10⁶ prefill.
    pub fn paper_default(threads: usize) -> Self {
        Self {
            threads,
            workload: Workload::Uniform,
            key_dist: KeyDistribution::uniform(32),
            prefill: 1_000_000,
            stop: StopCondition::Duration(Duration::from_millis(300)),
            reps: 10,
            seed: 0x5EED,
        }
    }

    /// Human-readable configuration id, e.g.
    /// `"uniform workload, uniform32 keys"`.
    pub fn label(&self) -> String {
        format!("{} workload, {} keys", self.workload.name(), self.key_dist.name())
    }

    /// Generate the prefill items "according to the workload and key
    /// distribution" (appendix F): keys from the configured distribution,
    /// values encoding a unique id ≥ `value_base`.
    pub fn prefill_items(&self, value_base: u64) -> Vec<Item> {
        prefill_items(self.key_dist, self.seed, self.prefill, value_base)
    }

    /// Deterministic RNG for auxiliary decisions of rep `rep`.
    pub fn rep_rng(&self, rep: usize) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_add(rep as u64 * 0x9E37_79B9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        let mut c = BenchConfig::paper_default(4);
        assert_eq!(c.label(), "uniform workload, uniform32 keys");
        c.workload = Workload::Split;
        c.key_dist = KeyDistribution::ascending();
        assert_eq!(c.label(), "split workload, ascending keys");
    }

    #[test]
    fn prefill_respects_count_and_distribution() {
        let mut c = BenchConfig::paper_default(2);
        c.prefill = 1000;
        c.key_dist = KeyDistribution::uniform(8);
        let items = c.prefill_items(500);
        assert_eq!(items.len(), 1000);
        assert!(items.iter().all(|it| it.key < 256));
        assert_eq!(items[0].value, 500);
        assert_eq!(items[999].value, 1499);
    }

    #[test]
    fn prefill_deterministic() {
        let c = {
            let mut c = BenchConfig::paper_default(2);
            c.prefill = 100;
            c
        };
        assert_eq!(c.prefill_items(0), c.prefill_items(0));
    }

    #[test]
    fn workload_names() {
        assert_eq!(Workload::Uniform.name(), "uniform");
        assert_eq!(Workload::Split.name(), "split");
        assert_eq!(Workload::Alternating.name(), "alternating");
    }
}
