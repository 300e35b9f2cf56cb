//! Measurement harness: throughput and quality (rank-error) benchmarks
//! over every queue in the workspace, with statistics.
//!
//! * [`registry`] — the set of benchmarked queues ("klsm128", "linden",
//!   "multiqueue", ...) and a static-dispatch macro to instantiate them.
//! * [`throughput`] — the paper's throughput benchmark: prefill, then
//!   count insert+delete operations completed in a fixed time window,
//!   repeated `reps` times, reporting mean and 95 % confidence interval.
//!   Its worker loop is the only one in the workspace; the next two
//!   benchmarks run it too, quality on a recorded queue and latency
//!   with a per-thread timing probe, and so does the `checker` crate.
//! * [`quality`] — the rank-error benchmark (appendix F): log every
//!   operation through [`pq_traits::Recorded`], replay the per-thread
//!   logs in completion-stamp order through [`seqpq::RankMultiset`] and
//!   record the rank of every deleted item.
//!   [`run_recorded`] is that recorded run on its own; with its drain
//!   phase on, the workers and one extra handle then empty the queue,
//!   which is the run the `checker` crate verifies. [`replay`] is the
//!   one replay of a recorded run: quality folds its completion ranks
//!   and delays, the checker its in-flight lows and its tally.
//! * [`latency`] — appendix F's throughput/latency switch: per-operation
//!   wall times with insert/delete percentile profiles.
//! * [`stats`] — mean / standard deviation / confidence intervals.
//! * [`experiments`] — the paper's experiment grid (figures 1–9, tables
//!   1–5) as named configurations, plus the hold-model and sorting
//!   extension cells.

#![warn(missing_docs)]

pub mod experiments;
pub mod latency;
pub mod quality;
pub mod registry;
pub mod stats;
pub mod throughput;

pub use experiments::Experiment;
pub use latency::{run_latency, LatencyProfile, LatencyResult};
pub use quality::{replay, run_quality, run_recorded, Deletion, QualityResult, RecordedRun, Tally};
pub use registry::QueueSpec;
pub use stats::{Histogram, Summary};
pub use throughput::{run_throughput, run_throughput_with, ThroughputResult};
