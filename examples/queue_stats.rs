//! Instrumented split-workload run: how often does each queue's
//! `delete_min` come up empty?
//!
//! Under the paper's *split* workload, half the threads only insert and
//! half only delete; whenever the deleting half outruns the inserting
//! half, deletions return `None`. The rate of such empty deletions — and
//! whether a queue reports empty *spuriously* while items are in flight
//! (relaxed structures may) — is a behavioural fingerprint the plain
//! throughput numbers hide. The [`pq_traits::Instrumented`] wrapper
//! counts all three operation kinds without touching the queues.
//!
//! ```text
//! cargo run -p pq-bench --release --example queue_stats
//! ```

use harness::{with_queue, QueueSpec};
use pq_traits::{ConcurrentPq, Instrumented, OpCounts, PqHandle};
use workloads::{KeyDistribution, KeyGen, OpKind, OpStream, ThreadRole, Workload};

const OPS_PER_THREAD: u64 = 100_000;
const THREADS: usize = 4;

fn run_split<Q: ConcurrentPq>(q: Q) -> (OpCounts, i64) {
    let q = Instrumented::new(q);
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = &q;
            let barrier = &barrier;
            s.spawn(move || {
                let mut h = q.handle();
                barrier.wait();
                let role = ThreadRole::for_thread(Workload::Split, t, THREADS);
                let mut ops = OpStream::new(role, 0x57A7, t as u64);
                let mut keys = KeyGen::new(KeyDistribution::uniform(16), 0x57A7, t as u64);
                let mut value = (t as u64) << 40;
                for i in 0..OPS_PER_THREAD {
                    match ops.next_op() {
                        OpKind::Insert => {
                            h.insert(keys.next_key(), value);
                            value += 1;
                        }
                        OpKind::DeleteMin => {
                            let _ = h.delete_min();
                        }
                    }
                    // On an oversubscribed host a thread can burn its
                    // whole time slice against an empty queue; yield
                    // periodically so inserters and deleters interleave
                    // like they would on dedicated cores.
                    if i % 256 == 255 {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    let counts = q.counts();
    // Drain to verify conservation: remaining must equal net inserts.
    let mut h = q.handle();
    let mut left = 0i64;
    while h.delete_min().is_some() {
        left += 1;
    }
    (counts, left)
}

fn main() {
    println!(
        "split workload, {THREADS} threads × {OPS_PER_THREAD} ops, uniform 16-bit keys\n"
    );
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>14} {:>12}",
        "queue", "inserts", "deletes", "empty dels", "empty rate", "conserved"
    );
    for spec in [
        QueueSpec::Klsm(256),
        QueueSpec::Linden,
        QueueSpec::Spray,
        QueueSpec::MultiQueue(4, 1, 1),
        QueueSpec::GlobalLock,
        QueueSpec::Cbpq,
        QueueSpec::Mound,
    ] {
        let (c, left) = with_queue!(spec, THREADS, q => run_split(q));
        let attempts = c.deletes + c.empty_deletes;
        println!(
            "{:<12} {:>10} {:>10} {:>12} {:>13.1}% {:>12}",
            spec.name(),
            c.inserts,
            c.deletes,
            c.empty_deletes,
            100.0 * c.empty_deletes as f64 / attempts.max(1) as f64,
            left == c.net_items()
        );
        assert_eq!(left, c.net_items(), "{spec}: conservation violated");
    }
    println!("\nempty-delete rate shows how often the deleting half outruns the inserters;");
    println!("conservation (drained == inserts − deletes) holds for every queue");
}
