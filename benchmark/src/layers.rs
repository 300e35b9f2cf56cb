//! The traced pass: the per-layer cost budget.
//!
//! Same cells as the end-to-end pass (each in a process of its own), one
//! round, three arms per queue back to back — bare, `Instrumented`,
//! `Instrumented<Timed<_>>` — plus
//! what only a layer-by-layer view needs: a no-op queue for the harness
//! loop, the generators alone, the sequential substrates alone, the
//! component cells of the registry families outside the end-to-end set,
//! and (built with `--features telemetry`) the queue-internal event
//! counters around each cell. Nothing measured here is gated.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use pq_traits::telemetry::Event;
use pq_traits::{Item, Key, SequentialPq, Value};
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyGen, OpKind, OpStream, ThreadRole};

use crate::job::Fields;
use crate::json::Json;
use crate::pass::{attempted, mops, thread_ns_per_op, Pass};
use crate::report::Outcome;
use crate::spec::{layer_of, COMPONENT_QUEUES, E2E_QUEUES, LEAK_QUEUES, RANK_CONTEXT};
use crate::stats::geomean;

/// Shares of `--seconds`; they sum to about 0.9.
const SHARE_NOOP: f64 = 0.02; // × 2 arms
const SHARE_BARE: f64 = 0.02; // × 8 queues
const SHARE_COUNTED: f64 = 0.03; // × 8 queues
const SHARE_TIMED: f64 = 0.04; // × 8 queues
const SHARE_COMPONENT: f64 = 0.005; // × 7 queues, some of them very slow
const SHARE_SUBSTRATE: f64 = 0.012; // × 7 drives

/// Calls per generator microbenchmark.
const GENERATOR_CALLS: u64 = 1 << 21;

/// A sequential queue that does nothing: the cost of [`drive`] itself.
#[derive(Default)]
struct NoOpSeq(Option<Item>);

impl SequentialPq for NoOpSeq {
    fn insert(&mut self, key: Key, value: Value) {
        self.0 = std::hint::black_box(Some(Item::new(key, value)));
    }
    fn delete_min(&mut self) -> Option<Item> {
        std::hint::black_box(self.0)
    }
    fn peek_min(&self) -> Option<Item> {
        self.0
    }
    fn len(&self) -> usize {
        usize::from(self.0.is_some())
    }
}

/// What one [`drive`] cost.
#[derive(Clone, Copy, Debug, Default)]
struct Drive {
    ops: u64,
    ns: u64,
    /// `(calls, summed span ns)`; filled by stamped drives only.
    insert: (u64, u64),
    delete: (u64, u64),
}

impl Drive {
    fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops as f64
    }
}

fn mean(x: (u64, u64)) -> f64 {
    x.1 as f64 / x.0 as f64
}

/// Run the cell's op and key streams against a sequential queue, from
/// one thread, with the cell's prefill: the streams of all the cell's
/// worker threads taken in turn, so a split or sawtooth cell keeps its
/// op mix. `stamped` brackets every call with clock reads, to split the
/// cost by op kind.
fn drive<P: SequentialPq>(pq: &mut P, cfg: &BenchConfig, stamped: bool) -> Drive {
    for it in cfg.prefill_items(0xFF << 40) {
        pq.insert(it.key, it.value);
    }
    let mut streams: Vec<(OpStream, KeyGen)> = (0..cfg.threads)
        .map(|t| {
            let role = ThreadRole::for_thread(cfg.workload, t, cfg.threads);
            (
                OpStream::new(role, cfg.seed, t as u64),
                KeyGen::new(cfg.key_dist, cfg.seed, t as u64),
            )
        })
        .collect();
    let (max_ops, budget) = match cfg.stop {
        StopCondition::OpsPerThread(n) => (n * cfg.threads as u64, Duration::MAX),
        StopCondition::Duration(d) => (u64::MAX, d),
    };
    let mut d = Drive::default();
    let mut value = 0u64;
    let started = Instant::now();
    while d.ops < max_ops {
        for i in 0..256usize {
            let (ops, keys) = &mut streams[i % cfg.threads];
            match ops.next_op() {
                OpKind::Insert => {
                    let key = keys.next_key();
                    value += 1;
                    if stamped {
                        let t = Instant::now();
                        pq.insert(key, value);
                        d.insert = (d.insert.0 + 1, d.insert.1 + t.elapsed().as_nanos() as u64);
                    } else {
                        pq.insert(key, value);
                    }
                }
                OpKind::DeleteMin => {
                    let t = stamped.then(Instant::now);
                    let item = pq.delete_min();
                    if let Some(t) = t {
                        d.delete = (d.delete.0 + 1, d.delete.1 + t.elapsed().as_nanos() as u64);
                    }
                    if let Some(item) = item {
                        keys.observe_delete(item.key);
                    }
                }
            }
        }
        d.ops += 256;
        d.ns = started.elapsed().as_nanos() as u64;
        if started.elapsed() >= budget {
            break;
        }
    }
    d
}

/// ns per call of a generator, over [`GENERATOR_CALLS`] calls.
fn generator_ns(mut call: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut sink = 0u64;
    for _ in 0..GENERATOR_CALLS {
        sink = sink.wrapping_add(call());
    }
    std::hint::black_box(sink);
    started.elapsed().as_nanos() as f64 / GENERATOR_CALLS as f64
}

/// Events of several cells, with the operations they cover.
#[derive(Default)]
struct EventTally {
    events: BTreeMap<String, u64>,
    ops: u64,
}

impl EventTally {
    fn add(&mut self, cell: &Fields) {
        for (event, n) in cell.with_prefix("ev.") {
            *self.events.entry(event.to_owned()).or_default() += n as u64;
        }
        self.ops += attempted(cell);
    }

    fn get(&self, event: Event) -> u64 {
        self.events.get(event.name()).copied().unwrap_or(0)
    }

    /// Events per thousand attempted operations.
    fn per_kop(&self, event: Event) -> f64 {
        self.get(event) as f64 * 1e3 / self.ops as f64
    }
}

pub fn run(mut p: Pass, trace_path: &Path) -> Outcome {
    let (w, plan, seed) = (p.w, p.plan, p.seed);
    let threads = w.threads;
    // Traced cells append to the file; start it empty.
    if let Err(e) = trace_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_path, ""))
    {
        p.out
            .findings
            .push(format!("{}: {e}", trace_path.display()));
    }

    // checker: the same gate the end-to-end pass runs.
    let gate = p.gate();
    p.out
        .push("checker.violations", gate.violations as f64, gate.ops);
    p.out
        .push("checker.check_s", gate.check_s, E2E_QUEUES.len() as u64);

    // workloads: the generators alone.
    let mut keys = KeyGen::new(w.key_dist, seed, 0);
    p.out.push(
        "workloads.keygen_ns",
        generator_ns(|| keys.next_key()),
        GENERATOR_CALLS,
    );
    let mut ops = OpStream::new(ThreadRole::for_thread(w.workload, 0, threads), seed, 0);
    p.out.push(
        "workloads.opstream_ns",
        generator_ns(|| ops.next_op() as u64),
        GENERATOR_CALLS,
    );

    // seqpq, lsm: the sequential substrates alone, net of the driver.
    let sub_cfg = plan.cell_config(w, seed, 0, SHARE_SUBSTRATE);
    let base = drive(&mut NoOpSeq::default(), &sub_cfg, false);
    let base_stamped = drive(&mut NoOpSeq::default(), &sub_cfg, true);
    let mut substrate_ns = |name: &str, d: Drive| {
        let net = d.ns_per_op() - base.ns_per_op();
        p.out.push(name, net, d.ops);
        net
    };
    let heap_ns = substrate_ns(
        "seqpq.binary_heap.op_ns",
        drive(&mut seqpq::BinaryHeap::new(), &sub_cfg, false),
    );
    substrate_ns(
        "seqpq.pairing_heap.op_ns",
        drive(&mut seqpq::PairingHeap::new(), &sub_cfg, false),
    );
    substrate_ns(
        "seqpq.dary_heap.op_ns",
        drive(&mut seqpq::DaryHeap::<4>::new(), &sub_cfg, false),
    );
    let mut lsm = lsm::Lsm::new();
    let lsm_ns = substrate_ns("lsm.op_ns", drive(&mut lsm, &sub_cfg, false));
    let pool = lsm.pool_stats();
    let stamped = drive(&mut lsm::Lsm::new(), &sub_cfg, true);
    p.out.push(
        "lsm.insert_ns",
        mean(stamped.insert) - mean(base_stamped.insert),
        stamped.insert.0,
    );
    p.out.push(
        "lsm.delete_ns",
        mean(stamped.delete) - mean(base_stamped.delete),
        stamped.delete.0,
    );
    p.out.push(
        "lsm.pool_hit_rate",
        pool.hit_rate(),
        pool.hits + pool.misses,
    );

    // harness: its loop over a queue that does nothing, counted and
    // traced — the latter calibrates what the adapter's clock reads cost.
    let noop = p.cell("noop", "counted", SHARE_NOOP, 0);
    let loop_ns = noop
        .as_ref()
        .map_or(f64::NAN, |c| thread_ns_per_op(c, threads));
    p.out.push(
        "harness.loop_ns",
        loop_ns,
        noop.as_ref().map_or(0, attempted),
    );
    let clock_ns = p
        .cell("noop", "timed", SHARE_NOOP, 0)
        .map_or(f64::NAN, |c| c.get("span_mean_ns"));

    // The eight end-to-end queues, three arms each, back to back.
    let (mut bare_rate, mut counted_rate, mut timed_rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut klsm_ev, mut skip_ev, mut mq_ev) = (
        EventTally::default(),
        EventTally::default(),
        EventTally::default(),
    );
    let mut counted_ns = BTreeMap::new();
    let mut cells_detail = Vec::new();
    for name in E2E_QUEUES {
        let layer = layer_of(name);
        let bare = p.cell(name, "bare", SHARE_BARE, 0);
        let counted = p.cell(name, "counted", SHARE_COUNTED, 0);
        let timed = p.cell(name, "timed", SHARE_TIMED, 0);
        let (Some(bare), Some(counted), Some(timed)) = (bare, counted, timed) else {
            continue;
        };

        let rate = |c: &Fields| attempted(c) as f64 / c.get("window_s");
        bare_rate.push(rate(&bare));
        counted_rate.push(rate(&counted));
        timed_rate.push(rate(&timed));
        let ns = thread_ns_per_op(&counted, threads);
        counted_ns.insert(name, ns);
        p.out.push(
            format!("harness.tick_cv.{name}"),
            counted.get("tick_cv"),
            counted.count("ticks"),
        );
        match layer {
            "klsm" => klsm_ev.add(&counted),
            "skiplist" => skip_ev.add(&counted),
            "multiqueue" => mq_ev.add(&counted),
            _ => {}
        }
        if LEAK_QUEUES.contains(&name) {
            let ops = attempted(&counted) + counted.count("prefill");
            p.out.push(
                format!("epoch.leak_bytes_per_op.{name}"),
                counted.get("rss_growth_bytes") / ops as f64,
                ops,
            );
        }
        p.out.push(
            format!("{layer}.{name}.insert_ns_p50"),
            timed.get("insert_ns_p50"),
            timed.count("insert_n"),
        );
        p.out.push(
            format!("{layer}.{name}.delete_ns_p50"),
            timed.get("delete_ns_p50"),
            timed.count("delete_n"),
        );
        p.out.push(
            format!("{layer}.{name}.delete_ns_p99"),
            timed.get("delete_ns_p99"),
            timed.count("delete_n"),
        );
        // Does the trace account for the time? Harness loop plus the mean
        // op span, net of the adapter's own clock cost, against the
        // untraced cost per operation.
        let span_ns = timed.get("span_mean_ns");
        p.out.push(
            format!("trace.accounted_pct.{name}"),
            100.0 * (loop_ns + span_ns - clock_ns) / ns,
            timed.count("span_n"),
        );
        cells_detail.push((
            name.to_owned(),
            Json::obj([
                ("untraced_thread_ns_per_op", Json::Num(ns)),
                (
                    "traced_thread_ns_per_op",
                    Json::Num(thread_ns_per_op(&timed, threads)),
                ),
                ("mean_span_ns", Json::Num(span_ns)),
                ("spans", Json::Int(timed.count("span_n"))),
                ("clock_ns", Json::Num(clock_ns)),
                ("loop_ns", Json::Num(loop_ns)),
            ]),
        ));
    }
    p.out
        .detail
        .push(("traced_cells".to_owned(), Json::Obj(cells_detail)));
    let arms = bare_rate.len() as u64;
    p.out.push(
        "pq-traits.instrumented_overhead_pct",
        100.0 * (1.0 - geomean(&counted_rate) / geomean(&bare_rate)),
        arms,
    );
    p.out.push(
        "pq-traits.traced_overhead_pct",
        100.0 * (1.0 - geomean(&timed_rate) / geomean(&counted_rate)),
        arms,
    );

    // Synchronisation is what is left of a queue's cost once the harness
    // loop and its sequential substrate are taken out.
    for (metric, queue, substrate) in [
        ("klsm.sync_ns.klsm256", "klsm256", lsm_ns),
        ("multiqueue.sync_ns.multiqueue", "multiqueue", heap_ns),
        ("lockedpq.sync_ns.globallock", "globallock", heap_ns),
    ] {
        if let Some(ns) = counted_ns.get(queue) {
            p.out.push(metric, ns - loop_ns - substrate, 1);
        }
    }

    // Component cells: the registry families outside the end-to-end set.
    for name in COMPONENT_QUEUES {
        let Some(c) = p.cell(name, "counted", SHARE_COMPONENT, 0) else {
            continue;
        };
        if name == "dlsm" || name == "slsm256" {
            klsm_ev.add(&c);
        }
        p.out.push(
            format!("{}.{name}.mops", layer_of(name)),
            mops(&c),
            attempted(&c),
        );
        if name == "dlsm" {
            p.out.push(
                "klsm.dlsm.empty_share",
                c.get("empty") / attempted(&c) as f64,
                attempted(&c),
            );
        }
    }

    // Queue-internal events (all zero unless built with `telemetry`).
    for (metric, tally, event) in [
        ("klsm.spy_attempt_per_kop", &klsm_ev, Event::DlsmSpyAttempt),
        ("klsm.spy_steal_per_kop", &klsm_ev, Event::DlsmSpySteal),
        ("klsm.slsm_lost_race_per_kop", &klsm_ev, Event::SlsmLostRace),
        (
            "klsm.slsm_pivot_rebuild_per_kop",
            &klsm_ev,
            Event::SlsmPivotRebuild,
        ),
        (
            "skiplist.find_restart_per_kop",
            &skip_ev,
            Event::SkiplistFindRestart,
        ),
        (
            "skiplist.cas_retry_per_kop",
            &skip_ev,
            Event::SkiplistCasRetry,
        ),
        (
            "multiqueue.empty_sample_per_kop",
            &mq_ev,
            Event::MqEmptySample,
        ),
    ] {
        p.out.push(metric, tally.per_kop(event), tally.ops);
    }
    let flushes = mq_ev.get(Event::MqBufferFlush);
    let per_flush = if flushes == 0 {
        0.0
    } else {
        mq_ev.get(Event::MqBufferFlushItems) as f64 / flushes as f64
    };
    p.out
        .push("multiqueue.flush_items_per_flush", per_flush, flushes);

    // Rank error of the relaxed queues that are not gated.
    for name in RANK_CONTEXT {
        if let Some((mean, deletions)) = p.rank(name, plan.quality_ops, 1) {
            p.out.push(
                format!("{}.{name}.rank_mean", layer_of(name)),
                mean,
                deletions,
            );
        }
    }

    p.out.push(
        "failed_share",
        p.out.failed as f64 / p.out.attempted.max(1) as f64,
        p.out.attempted,
    );
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{KeyDistribution, Workload};

    fn cfg(workload: Workload, ops: u64, prefill: usize) -> BenchConfig {
        BenchConfig {
            threads: 2,
            workload,
            key_dist: KeyDistribution::uniform(32),
            prefill,
            stop: StopCondition::OpsPerThread(ops),
            reps: 1,
            seed: 5,
        }
    }

    #[test]
    fn drive_keeps_the_cells_op_mix_and_prefill() {
        // Split at two threads: streams alternate insert / delete, so
        // the heap ends where it started.
        let mut heap = seqpq::BinaryHeap::new();
        let d = drive(&mut heap, &cfg(Workload::Split, 1_024, 1_024), true);
        assert_eq!(d.ops, 2_048);
        assert_eq!((d.insert.0, d.delete.0), (1_024, 1_024));
        assert_eq!(heap.len(), 1_024);
        // Unstamped drives record no per-kind split.
        let plain = drive(
            &mut seqpq::BinaryHeap::new(),
            &cfg(Workload::Uniform, 512, 100),
            false,
        );
        assert_eq!((plain.ops, plain.insert.0, plain.delete.0), (1_024, 0, 0));
        assert!(plain.ns > 0);
    }

    #[test]
    fn timed_drives_stop_on_their_budget() {
        let mut c = cfg(Workload::Uniform, 0, 100);
        c.stop = StopCondition::Duration(Duration::from_millis(20));
        let d = drive(&mut NoOpSeq::default(), &c, false);
        assert!(d.ops >= 256 && d.ns >= 20_000_000);
    }

    #[test]
    fn event_tally_sums_cells() {
        let cell = |retries: f64, ops: f64| {
            let mut f = Fields::default();
            f.set("ev.skiplist_cas_retry", retries);
            f.set("successful", ops);
            f.set("empty", 0.0);
            f
        };
        let mut t = EventTally::default();
        t.add(&cell(3.0, 500.0));
        t.add(&cell(5.0, 1_500.0));
        assert_eq!((t.ops, t.get(Event::SkiplistCasRetry)), (2_000, 8));
        assert_eq!(t.per_kop(Event::SkiplistCasRetry), 4.0);
        assert_eq!(t.per_kop(Event::MqEmptySample), 0.0);
    }
}
