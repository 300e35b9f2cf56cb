//! Shared helpers for the figure/table regeneration binaries: the flag
//! parser and grid runner, the JSON and trace exports, tables and charts.

#![warn(missing_docs)]

pub mod cli;
pub mod metrics;
pub mod plot;
pub mod report;
pub mod trace_export;

pub use metrics::{events_since, MetricsReport};
pub use trace_export::TraceFile;
pub use plot::{render_chart, render_csv, Series};
pub use report::{format_latency_table, format_quality_table, format_throughput_table};
