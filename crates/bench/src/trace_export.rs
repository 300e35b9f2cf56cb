//! Flight-recorder trace export: Chrome trace-event JSON plus a derived
//! attribution report.
//!
//! The harness records per-thread timelines into [`pq_traits::trace`];
//! this module turns the drained [`TraceData`] of one or more benchmark
//! cells into a single file with two consumers in mind:
//!
//! 1. **Humans with a trace viewer.** The top-level `traceEvents` array
//!    is standard Chrome trace-event JSON: load the file in
//!    [Perfetto](https://ui.perfetto.dev) or `chrome://tracing` and get
//!    one process group per cell with one track per worker thread —
//!    op spans as slices, telemetry events as instants, phase
//!    boundaries as process-scoped markers.
//! 2. **Scripts.** A sibling top-level `attribution` key (trace viewers
//!    ignore unknown keys) carries the derived report: a per-thread ×
//!    per-time-slice op-rate matrix (the contention heatmap), telemetry
//!    counter deltas per harness phase, a stall detector flagging
//!    slices where a thread's op rate drops more than 10× below its
//!    own median, and — never silently — the per-thread dropped-record
//!    counts from ring overflow.
//!
//! Timestamps are exported in microseconds (the trace-event unit),
//! relative to each cell's `trace::start`.

use pq_traits::telemetry::Event;
use pq_traits::trace::{PhaseKind, RecordData, TraceData};

use crate::metrics::json_escape;

/// Target number of time slices for the attribution matrices. The
/// actual count can be one higher from rounding at the tail.
const TARGET_SLICES: usize = 50;

/// A thread whose op rate in a slice falls below `median / STALL_FACTOR`
/// (its own median over active slices) is flagged as stalled there.
const STALL_FACTOR: f64 = 10.0;

/// Nanoseconds to the trace-event microsecond unit, keeping sub-µs
/// precision as a decimal fraction.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

/// One traced benchmark cell awaiting export.
struct CellTrace {
    label: String,
    threads: usize,
    data: TraceData,
}

/// Accumulates traced cells and serializes them into one
/// Perfetto-loadable JSON document.
#[derive(Default)]
pub struct TraceFile {
    cells: Vec<CellTrace>,
}

impl TraceFile {
    /// An empty trace file.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no cell has been added.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Add one traced cell: `label` names the process group in the
    /// viewer (e.g. `"fig4a multiqueue t4"`), `threads` is the worker
    /// count the cell ran with, `data` the drained recorder output.
    pub fn push_cell(&mut self, label: &str, threads: usize, data: TraceData) {
        self.cells.push(CellTrace {
            label: label.to_owned(),
            threads,
            data,
        });
    }

    /// Total dropped records across all cells (ring overflow).
    pub fn dropped_total(&self) -> u64 {
        self.cells.iter().map(|c| c.data.dropped_total()).sum()
    }

    /// Serialize every cell into one JSON document.
    pub fn to_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        let mut reports: Vec<String> = Vec::new();
        for (idx, cell) in self.cells.iter().enumerate() {
            let pid = idx + 1;
            cell_events(pid, cell, &mut events);
            reports.push(attribution(cell));
        }
        format!(
            "{{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n{}\n],\n\"attribution\": [\n{}\n]\n}}\n",
            events.join(",\n"),
            reports.join(",\n"),
        )
    }

    /// Write the document to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Emit the trace events of one cell under process id `pid`.
fn cell_events(pid: usize, cell: &CellTrace, out: &mut Vec<String>) {
    out.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(&cell.label)
    ));
    for tl in &cell.data.timelines {
        let tid = tl.thread + 1;
        let suffix = if tl.dropped > 0 {
            format!(" (dropped {})", tl.dropped)
        } else {
            String::new()
        };
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"thread {}{}\"}}}}",
            tl.thread,
            json_escape(&suffix)
        ));
        for r in &tl.records {
            match r.data {
                RecordData::Span { op, dur_ns, ops } => out.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                     \"ts\":{},\"dur\":{},\"args\":{{\"ops\":{ops}}}}}",
                    op.name(),
                    us(r.ts_ns),
                    us(dur_ns),
                )),
                RecordData::Event { event, count } => out.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
                     \"tid\":{tid},\"ts\":{},\"args\":{{\"count\":{count}}}}}",
                    event.name(),
                    us(r.ts_ns),
                )),
                RecordData::Phase { phase, rep } => out.push(format!(
                    "{{\"name\":\"{} rep{rep}\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\
                     \"tid\":{tid},\"ts\":{},\"args\":{{}}}}",
                    phase.name(),
                    us(r.ts_ns),
                )),
            }
        }
    }
}

/// Ops a span contributes, attributed to the slice of its midpoint.
fn span_slot(ts_ns: u64, dur_ns: u64, slice_ns: u64) -> usize {
    ((ts_ns + dur_ns / 2) / slice_ns) as usize
}

/// Build one cell's attribution report.
fn attribution(cell: &CellTrace) -> String {
    let data = &cell.data;
    let end_ns = data
        .timelines
        .iter()
        .flat_map(|t| t.records.iter())
        .map(|r| match r.data {
            RecordData::Span { dur_ns, .. } => r.ts_ns + dur_ns,
            _ => r.ts_ns,
        })
        .max()
        .unwrap_or(0);
    let slice_ns = (end_ns / TARGET_SLICES as u64).max(1);
    let slices = (end_ns / slice_ns + 1) as usize;

    // Per-thread × per-slice matrices: queue ops (from spans) and
    // telemetry event occurrences (from instants).
    let mut op_rows: Vec<String> = Vec::new();
    let mut ev_rows: Vec<String> = Vec::new();
    let mut stalls: Vec<String> = Vec::new();
    let mut dropped: Vec<String> = Vec::new();
    for tl in &data.timelines {
        let mut ops_per_slice = vec![0u64; slices];
        let mut evs_per_slice = vec![0u64; slices];
        for r in &tl.records {
            match r.data {
                RecordData::Span { dur_ns, ops, .. } => {
                    let s = span_slot(r.ts_ns, dur_ns, slice_ns).min(slices - 1);
                    ops_per_slice[s] += ops as u64;
                }
                RecordData::Event { count, .. } => {
                    let s = (r.ts_ns / slice_ns) as usize;
                    evs_per_slice[s.min(slices - 1)] += count;
                }
                RecordData::Phase { .. } => {}
            }
        }
        for (slice, ops) in stalled_slices(&ops_per_slice) {
            stalls.push(format!(
                "{{\"thread\":{},\"slice\":{slice},\"ops\":{ops}}}",
                tl.thread
            ));
        }
        op_rows.push(format!(
            "{{\"thread\":{},\"ops\":{}}}",
            tl.thread,
            u64_array(&ops_per_slice)
        ));
        ev_rows.push(format!(
            "{{\"thread\":{},\"events\":{}}}",
            tl.thread,
            u64_array(&evs_per_slice)
        ));
        if tl.dropped > 0 {
            dropped.push(format!("{{\"thread\":{},\"dropped\":{}}}", tl.thread, tl.dropped));
        }
    }

    format!(
        "{{\"cell\":\"{}\",\"threads\":{},\"records\":{},\"dropped_total\":{},\
         \"dropped_by_thread\":[{}],\"slice_us\":{},\"slices\":{slices},\
         \"op_rate_matrix\":[{}],\"event_rate_matrix\":[{}],\
         \"stalls\":[{}],\"phase_deltas\":[{}]}}",
        json_escape(&cell.label),
        cell.threads,
        data.records_total(),
        data.dropped_total(),
        dropped.join(","),
        us(slice_ns),
        op_rows.join(","),
        ev_rows.join(","),
        stalls.join(","),
        phase_deltas(data).join(","),
    )
}

fn u64_array(xs: &[u64]) -> String {
    let body = xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!("[{body}]")
}

/// Median of a thread's op counts over its *active* range (first to
/// last slice with any ops), then every active-range slice below
/// `median / STALL_FACTOR` is a stall. Using the thread's own median
/// makes the detector scale-free: a slow-but-steady thread is not
/// stalled, a thread that collapses mid-run is.
fn stalled_slices(ops_per_slice: &[u64]) -> Vec<(usize, u64)> {
    let first = ops_per_slice.iter().position(|&o| o > 0);
    let last = ops_per_slice.iter().rposition(|&o| o > 0);
    let (Some(first), Some(last)) = (first, last) else {
        return Vec::new();
    };
    let active = &ops_per_slice[first..=last];
    if active.len() < 3 {
        return Vec::new(); // too short to call anything a stall
    }
    let mut sorted: Vec<u64> = active.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2] as f64;
    if median <= 0.0 {
        return Vec::new();
    }
    active
        .iter()
        .enumerate()
        .filter(|&(_, &o)| (o as f64) < median / STALL_FACTOR)
        .map(|(i, &o)| (first + i, o))
        .collect()
}

/// Telemetry counter deltas between consecutive phase markers, merged
/// over threads. Markers are ordered by timestamp; interval `i` spans
/// marker `i` to marker `i+1` (the last runs to the end of the trace).
fn phase_deltas(data: &TraceData) -> Vec<String> {
    let mut markers: Vec<(u64, PhaseKind, u32)> = data
        .timelines
        .iter()
        .flat_map(|t| t.records.iter())
        .filter_map(|r| match r.data {
            RecordData::Phase { phase, rep } => Some((r.ts_ns, phase, rep)),
            _ => None,
        })
        .collect();
    markers.sort_unstable_by_key(|&(ts, ..)| ts);
    if markers.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(markers.len());
    for (i, &(begin_ns, phase, rep)) in markers.iter().enumerate() {
        let end_ns = markers.get(i + 1).map(|&(ts, ..)| ts).unwrap_or(u64::MAX);
        let mut counts = [0u64; Event::COUNT];
        let mut ops = 0u64;
        for tl in &data.timelines {
            for r in &tl.records {
                if r.ts_ns < begin_ns || r.ts_ns >= end_ns {
                    continue;
                }
                match r.data {
                    RecordData::Event { event, count } => counts[event as usize] += count,
                    RecordData::Span { ops: n, .. } => ops += n as u64,
                    RecordData::Phase { .. } => {}
                }
            }
        }
        let events = Event::ALL
            .iter()
            .filter(|&&e| counts[e as usize] > 0)
            .map(|&e| format!("\"{}\":{}", e.name(), counts[e as usize]))
            .collect::<Vec<_>>()
            .join(",");
        out.push(format!(
            "{{\"phase\":\"rep{rep}/{}\",\"start_us\":{},\"ops\":{ops},\"events\":{{{events}}}}}",
            phase.name(),
            us(begin_ns),
        ));
    }
    out
}

/// Shorthand used by the binaries: a span-only smoke check that the
/// export looks like a Chrome trace (used in tests; real validation is
/// loading it in Perfetto).
pub fn looks_like_chrome_trace(json: &str) -> bool {
    json.trim_start().starts_with('{')
        && json.contains("\"traceEvents\"")
        && json.contains("\"attribution\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_traits::trace::{SpanOp, ThreadTimeline, TraceRecord};

    fn span(ts: u64, dur: u64, ops: u32) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            data: RecordData::Span {
                op: SpanOp::OpBatch,
                dur_ns: dur,
                ops,
            },
        }
    }

    fn data_with(records: Vec<Vec<TraceRecord>>, dropped: u64) -> TraceData {
        TraceData {
            timelines: records
                .into_iter()
                .enumerate()
                .map(|(i, records)| ThreadTimeline {
                    thread: i as u64,
                    records,
                    dropped: if i == 0 { dropped } else { 0 },
                })
                .collect(),
        }
    }

    #[test]
    fn export_has_one_track_per_thread() {
        let mk = |base: u64| {
            (0..10)
                .map(|i| span(base + i * 1000, 800, 64))
                .collect::<Vec<_>>()
        };
        let mut f = TraceFile::new();
        f.push_cell("cell-a t4", 4, data_with(vec![mk(0), mk(5), mk(9), mk(13)], 0));
        let json = f.to_json();
        assert!(looks_like_chrome_trace(&json));
        for t in 0..4 {
            assert!(
                json.contains(&format!("\"name\":\"thread {t}\"")),
                "missing track for thread {t}"
            );
        }
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 40);
        assert!(json.contains("\"op_rate_matrix\""));
        assert!(json.contains("\"dropped_total\":0"));
    }

    #[test]
    fn dropped_records_are_reported_not_silent() {
        let records = vec![span(0, 100, 64), span(200, 100, 64)];
        let mut f = TraceFile::new();
        f.push_cell("lossy", 1, data_with(vec![records], 123));
        assert_eq!(f.dropped_total(), 123);
        let json = f.to_json();
        assert!(json.contains("\"dropped_total\":123"));
        assert!(json.contains("{\"thread\":0,\"dropped\":123}"));
        assert!(json.contains("dropped 123"), "track name must flag the loss");
    }

    #[test]
    fn phase_deltas_split_events_by_marker() {
        let recs = vec![
            TraceRecord {
                ts_ns: 0,
                data: RecordData::Phase {
                    phase: PhaseKind::Prefill,
                    rep: 0,
                },
            },
            TraceRecord {
                ts_ns: 10,
                data: RecordData::Event {
                    event: Event::MqEmptySample,
                    count: 2,
                },
            },
            TraceRecord {
                ts_ns: 100,
                data: RecordData::Phase {
                    phase: PhaseKind::Measure,
                    rep: 0,
                },
            },
            TraceRecord {
                ts_ns: 150,
                data: RecordData::Event {
                    event: Event::MqEmptySample,
                    count: 5,
                },
            },
            span(200, 50, 64),
        ];
        let deltas = phase_deltas(&data_with(vec![recs], 0));
        assert_eq!(deltas.len(), 2);
        assert!(deltas[0].contains("\"phase\":\"rep0/prefill\""));
        assert!(deltas[0].contains("\"mq_empty_sample\":2"));
        assert!(deltas[0].contains("\"ops\":0"));
        assert!(deltas[1].contains("\"phase\":\"rep0/measure\""));
        assert!(deltas[1].contains("\"mq_empty_sample\":5"));
        assert!(deltas[1].contains("\"ops\":64"));
    }

    #[test]
    fn stall_detector_flags_collapse_not_steady_slow() {
        // Steady thread: no stalls even though the rate is low.
        assert!(stalled_slices(&[5, 5, 5, 5, 5]).is_empty());
        // Collapsed mid-run: the near-zero slice is flagged.
        let flagged = stalled_slices(&[100, 100, 3, 100, 100]);
        assert_eq!(flagged, vec![(2, 3)]);
        // Leading/trailing idle slices are outside the active range.
        assert!(stalled_slices(&[0, 0, 50, 50, 50, 0]).is_empty());
        // All-zero and too-short inputs are not judged.
        assert!(stalled_slices(&[0, 0, 0]).is_empty());
        assert!(stalled_slices(&[100, 1]).is_empty());
    }

    #[test]
    fn empty_trace_file_serializes() {
        let f = TraceFile::new();
        assert!(f.is_empty());
        assert_eq!(f.dropped_total(), 0);
        assert!(looks_like_chrome_trace(&f.to_json()));
    }
}
