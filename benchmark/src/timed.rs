//! The traced run's span recorder: a queue adapter that stamps every
//! call into a queue crate, from the benchmark's side of the API.
//!
//! Span tree: one *cell* span per (queue, rep) → one *rep* span per worker
//! thread (first measured operation to end of flush) → one *op* span per
//! `insert` / `delete_min` / `flush` call, named `<crate>.<queue>.<op>`.
//! Every op lands in a per-thread log-bucketed histogram; a bounded
//! sample of raw op spans is kept beside it. Everything stays in memory
//! until the cell has ended; [`trace_json`] then renders it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use harness::Histogram;
use pq_traits::{ConcurrentPq, Item, Key, PqHandle, Value};

use crate::json::Json;

/// Keep every `SAMPLE_EVERY`-th op span raw, up to `SAMPLE_CAP` per thread.
const SAMPLE_EVERY: u64 = 1024;
const SAMPLE_CAP: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Insert,
    DeleteMin,
    Flush,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Insert => "insert",
            Op::DeleteMin => "delete_min",
            Op::Flush => "flush",
        }
    }
}

/// Everything one worker thread recorded in one cell.
#[derive(Debug)]
pub struct ThreadLog {
    pub thread: u32,
    /// One histogram per [`Op`], indexed by `Op as usize`.
    ops: [Histogram; 3],
    /// `(op, start_ns, end_ns)` of the sampled op spans.
    samples: Vec<(Op, u64, u64)>,
    /// First measured op start and last op end: the rep span.
    rep: Option<(u64, u64)>,
}

/// One traced cell: its span and the logs of its worker threads.
#[derive(Debug)]
pub struct CellLog {
    /// `<crate>.<queue>`, the prefix of the cell's op-span names.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub threads: Vec<ThreadLog>,
}

impl CellLog {
    /// The cell's histogram of one op kind, merged over threads.
    pub fn histogram(&self, op: Op) -> Histogram {
        let mut h = Histogram::new();
        for t in &self.threads {
            h.merge(&t.ops[op as usize]);
        }
        h
    }

    /// Count and mean duration (ns) of the measured insert and
    /// delete_min spans together.
    pub fn op_mean_ns(&self) -> (u64, f64) {
        let (i, d) = (self.histogram(Op::Insert), self.histogram(Op::DeleteMin));
        let n = i.count() + d.count();
        if n == 0 {
            return (0, f64::NAN);
        }
        (
            n,
            (i.mean() * i.count() as f64 + d.mean() * d.count() as f64) / n as f64,
        )
    }
}

/// Collects the logs of the traced cells of a process; span times count
/// from its creation.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    cells: Mutex<Vec<CellLog>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            cells: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// The logs of the cells that have ended, in the order they ended.
    pub fn take(&self) -> Vec<CellLog> {
        std::mem::take(
            &mut *self
                .cells
                .lock()
                .expect("nothing panics while holding the lock"),
        )
    }
}

/// The trace of some cells: every span (cell, rep and sampled op spans;
/// `parent` 0 is the root) plus the per-thread histograms as `[bucket
/// lower bound, count]` pairs.
pub fn trace_json(cells: &[CellLog]) -> Json {
    let mut spans = Vec::new();
    let mut histograms = Vec::new();
    // Appends a span and returns its id.
    let mut span = |parent: u64,
                    name: String,
                    (start_ns, end_ns): (u64, u64),
                    cell: u32,
                    thread: Option<u32>| {
        let id = spans.len() as u64 + 1;
        spans.push(Json::obj([
            ("id", Json::Int(id)),
            ("parent", Json::Int(parent)),
            ("name", Json::Str(name)),
            ("start_ns", Json::Int(start_ns)),
            ("end_ns", Json::Int(end_ns)),
            ("cell", Json::Int(cell.into())),
            ("thread", thread.map_or(Json::Null, |t| Json::Int(t.into()))),
        ]));
        id
    };
    for (cell, c) in (1u32..).zip(cells) {
        let cell_id = span(
            0,
            format!("{}.cell", c.name),
            (c.start_ns, c.end_ns),
            cell,
            None,
        );
        for t in &c.threads {
            let rep = t.rep.unwrap_or((c.start_ns, c.start_ns));
            let rep_id = span(
                cell_id,
                format!("{}.rep", c.name),
                rep,
                cell,
                Some(t.thread),
            );
            for &(op, start_ns, end_ns) in &t.samples {
                span(
                    rep_id,
                    format!("{}.{}", c.name, op.name()),
                    (start_ns, end_ns),
                    cell,
                    Some(t.thread),
                );
            }
            for op in [Op::Insert, Op::DeleteMin, Op::Flush] {
                let h = &t.ops[op as usize];
                histograms.push(Json::obj([
                    ("name", Json::str(format!("{}.{}", c.name, op.name()))),
                    ("cell", Json::Int(cell.into())),
                    ("thread", Json::Int(t.thread.into())),
                    ("count", Json::Int(h.count())),
                    ("mean_ns", Json::Num(h.mean())),
                    (
                        "buckets",
                        Json::Arr(
                            h.nonzero_buckets()
                                .map(|(lo, n)| Json::Arr(vec![Json::Int(lo), Json::Int(n)]))
                                .collect(),
                        ),
                    ),
                ]));
            }
        }
    }
    Json::obj([
        ("spans", Json::Arr(spans)),
        ("histograms", Json::Arr(histograms)),
    ])
}

/// A queue whose handles stamp every call. The first
/// `prefill_per_handle` inserts of each handle are the harness's prefill
/// and are passed through unstamped, so the histograms hold measured
/// operations only.
pub struct Timed<Q> {
    inner: Q,
    rec: Arc<Recorder>,
    name: String,
    start: Instant,
    prefill_per_handle: u64,
    next_thread: AtomicU32,
    threads: Mutex<Vec<ThreadLog>>,
}

impl<Q> Timed<Q> {
    /// Wrap `inner` as the cell `name` (`<crate>.<queue>`); its log is
    /// filed with `rec` when the adapter is dropped.
    pub fn new(inner: Q, rec: &Arc<Recorder>, name: String, prefill_per_handle: u64) -> Self {
        Timed {
            inner,
            rec: Arc::clone(rec),
            name,
            start: Instant::now(),
            prefill_per_handle,
            next_thread: AtomicU32::new(0),
            threads: Mutex::new(Vec::new()),
        }
    }
}

impl<Q> Drop for Timed<Q> {
    fn drop(&mut self) {
        // A poisoned lock means a worker panicked; the cell is reported
        // as failed elsewhere, so its log is simply not filed.
        let Ok(threads) = self.threads.get_mut() else {
            return;
        };
        let Ok(mut cells) = self.rec.cells.lock() else {
            return;
        };
        cells.push(CellLog {
            name: std::mem::take(&mut self.name),
            start_ns: self.rec.ns(self.start),
            end_ns: self.rec.ns(Instant::now()),
            threads: std::mem::take(threads),
        });
    }
}

pub struct TimedHandle<'a, Q: ConcurrentPq + 'a> {
    inner: Q::Handle<'a>,
    owner: &'a Timed<Q>,
    prefill_left: u64,
    seen: u64,
    log: Option<ThreadLog>,
}

impl<'a, Q: ConcurrentPq> TimedHandle<'a, Q> {
    #[inline]
    fn stamp(&mut self, op: Op, start: Instant, end: Instant) {
        let log = self.log.as_mut().expect("log is taken only on drop");
        let ns = end.duration_since(start).as_nanos() as u64;
        log.ops[op as usize].record(ns);
        self.seen += 1;
        let sampled = self.seen % SAMPLE_EVERY == 1 && log.samples.len() < SAMPLE_CAP;
        if sampled || log.rep.is_none() || op == Op::Flush {
            let (s, e) = (self.owner.rec.ns(start), self.owner.rec.ns(end));
            if sampled {
                log.samples.push((op, s, e));
            }
            log.rep = Some((log.rep.map_or(s, |r| r.0), e));
        }
    }
}

impl<'a, Q: ConcurrentPq> PqHandle for TimedHandle<'a, Q> {
    #[inline]
    fn insert(&mut self, key: Key, value: Value) {
        if self.prefill_left > 0 {
            self.prefill_left -= 1;
            return self.inner.insert(key, value);
        }
        let start = Instant::now();
        self.inner.insert(key, value);
        self.stamp(Op::Insert, start, Instant::now());
    }

    #[inline]
    fn delete_min(&mut self) -> Option<Item> {
        let start = Instant::now();
        let out = self.inner.delete_min();
        self.stamp(Op::DeleteMin, start, Instant::now());
        out
    }

    fn flush(&mut self) -> u64 {
        let start = Instant::now();
        let out = self.inner.flush();
        self.stamp(Op::Flush, start, Instant::now());
        out
    }
}

impl<'a, Q: ConcurrentPq> Drop for TimedHandle<'a, Q> {
    fn drop(&mut self) {
        if let (Some(log), Ok(mut threads)) = (self.log.take(), self.owner.threads.lock()) {
            threads.push(log);
        }
    }
}

impl<Q: ConcurrentPq> ConcurrentPq for Timed<Q> {
    type Handle<'a>
        = TimedHandle<'a, Q>
    where
        Q: 'a;

    fn handle(&self) -> TimedHandle<'_, Q> {
        let thread = self.next_thread.fetch_add(1, Ordering::Relaxed);
        TimedHandle {
            inner: self.inner.handle(),
            owner: self,
            prefill_left: self.prefill_per_handle,
            seen: 0,
            log: Some(ThreadLog {
                thread,
                ops: [Histogram::new(), Histogram::new(), Histogram::new()],
                samples: Vec::new(),
                rep: None,
            }),
        }
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::NoOpQueue;

    #[test]
    fn prefill_is_skipped_and_every_measured_call_is_stamped() {
        let rec = Recorder::new();
        let q = Timed::new(NoOpQueue, &rec, "bench.noop".to_owned(), 3);
        {
            let mut h = q.handle();
            for k in 0..5 {
                h.insert(k, k); // 3 prefill + 2 measured
            }
            for _ in 0..4 {
                assert!(h.delete_min().is_some());
            }
            h.flush();
        }
        drop(q);
        let logs = rec.take();
        let [log] = &logs[..] else {
            panic!("one cell filed on drop, got {}", logs.len())
        };
        assert_eq!(log.threads.len(), 1);
        assert_eq!(log.histogram(Op::Insert).count(), 2);
        assert_eq!(log.histogram(Op::DeleteMin).count(), 4);
        assert_eq!(log.histogram(Op::Flush).count(), 1);
        assert_eq!(log.op_mean_ns().0, 6);
        let t = &log.threads[0];
        let (start, end) = t.rep.expect("rep span");
        assert!(log.start_ns <= start && start <= end && end <= log.end_ns);
        // The trace holds the cell span, the rep span under it, and the
        // sampled first op under the rep.
        let json = trace_json(&logs).to_string();
        assert!(json.contains(r#""name": "bench.noop.cell""#));
        assert!(json.contains(r#""name": "bench.noop.rep""#));
        assert!(json.contains(r#""name": "bench.noop.insert""#));
        assert!(
            json.contains(r#""parent": 2"#),
            "op span under the rep span: {json}"
        );
    }
}
