//! Measurement harness: throughput and quality (rank-error) benchmarks
//! over every queue in the workspace, with statistics.
//!
//! * [`registry`] — the set of benchmarked queues ("klsm128", "linden",
//!   "multiqueue", ...) and a static-dispatch macro to instantiate them.
//! * [`throughput`] — the paper's throughput benchmark: prefill, then
//!   count insert+delete operations completed in a fixed time window,
//!   repeated `reps` times, reporting mean and 95 % confidence interval.
//!   Its worker loop is the only one in the crate; the next two
//!   benchmarks are per-thread probes on it.
//! * [`quality`] — the rank-error benchmark (appendix F): log every
//!   operation with a linearization timestamp, reconstruct the global
//!   sequence, replay it against an order-statistic treap and record the
//!   rank of every deleted item.
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
pub use quality::{run_quality, QualityResult};
pub use registry::QueueSpec;
pub use stats::{Histogram, Summary};
pub use throughput::{run_throughput, run_throughput_with, ThroughputResult};
