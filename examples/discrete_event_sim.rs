//! Discrete event simulation on a shared event queue — the hold model.
//!
//! DES is the paper's first motivating application and the origin of the
//! *hold model* (Jones 1986): each processed event schedules a successor
//! a random increment in the future, so the queue "holds" a steady
//! population of pending events whose keys drift upward — exactly the
//! ascending key distribution that reverses the paper's throughput
//! rankings.
//!
//! We simulate a bank of M/M/1-style service stations. Each event carries
//! its timestamp as the key; workers repeatedly pop the (approximately)
//! earliest event, advance that station's state, and schedule the next
//! event. With a relaxed queue, events can be processed slightly out of
//! timestamp order; the example quantifies that as the *causality
//! violation* count (event timestamp below the maximum timestamp already
//! processed for the same station), the metric parallel-DES cares about.
//!
//! ```text
//! cargo run -p pq-bench --release --example discrete_event_sim
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use harness::{with_queue, QueueSpec};
use pq_traits::{ConcurrentPq, PqHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const STATIONS: usize = 64;
const EVENTS: u64 = 400_000;

struct SimState {
    /// Highest event timestamp processed so far across all stations; an
    /// event whose timestamp is below it was processed out of order
    /// (a potential causality violation if the stations interact).
    global_clock: AtomicU64,
    /// Sum of how far below the global clock late events were (the
    /// "temporal error" a rollback mechanism would have to repair).
    lateness: AtomicU64,
    processed: AtomicU64,
    violations: AtomicU64,
    outstanding: AtomicUsize,
}

fn run_sim<Q: ConcurrentPq>(q: &Q, threads: usize, seed: u64) -> (u64, u64, u64) {
    let state = SimState {
        global_clock: AtomicU64::new(0),
        lateness: AtomicU64::new(0),
        processed: AtomicU64::new(0),
        violations: AtomicU64::new(0),
        outstanding: AtomicUsize::new(STATIONS),
    };
    // Seed one initial event per station; key = timestamp, value =
    // station id.
    {
        let mut h = q.handle();
        let mut rng = SmallRng::seed_from_u64(seed);
        for st in 0..STATIONS {
            h.insert(rng.gen_range(1..100), st as u64);
        }
    }
    std::thread::scope(|s| {
        for t in 0..threads {
            let state = &state;
            s.spawn(move || {
                let mut h = q.handle();
                let mut rng = SmallRng::seed_from_u64(seed ^ ((t as u64 + 1) * 0x9E37));
                loop {
                    match h.delete_min() {
                        Some(ev) => {
                            let (ts, station) = (ev.key, ev.value as usize % STATIONS);
                            // Causality accounting against the global
                            // simulation clock.
                            let clock = state.global_clock.fetch_max(ts, Ordering::AcqRel);
                            if ts < clock {
                                state.violations.fetch_add(1, Ordering::Relaxed);
                                state.lateness.fetch_add(clock - ts, Ordering::Relaxed);
                            }
                            let n = state.processed.fetch_add(1, Ordering::Relaxed);
                            if n < EVENTS {
                                // Schedule the follow-up event: now + a
                                // random service/interarrival delta
                                // (the hold model's dependent key).
                                let delta: u64 = rng.gen_range(1..256);
                                h.insert(ts + delta, station as u64);
                            } else {
                                state.outstanding.fetch_sub(1, Ordering::AcqRel);
                            }
                        }
                        None => {
                            if state.outstanding.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
            });
        }
    });
    (
        state.processed.into_inner(),
        state.violations.into_inner(),
        state.lateness.into_inner(),
    )
}

fn main() {
    let threads = 4;
    println!(
        "hold-model DES: {STATIONS} stations, {EVENTS} events, {threads} worker threads\n"
    );
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>12} {:>14}",
        "queue", "time [ms]", "events", "late events", "late/event", "avg lateness"
    );
    for spec in [
        QueueSpec::GlobalLock,
        QueueSpec::Linden,
        QueueSpec::MultiQueue(4, 1, 1),
        QueueSpec::Spray,
        QueueSpec::Klsm(256),
    ] {
        let started = std::time::Instant::now();
        let (processed, violations, lateness) =
            with_queue!(spec, threads, q => run_sim(&q, threads, 0xD15EA5E));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<12} {:>10.1} {:>12} {:>14} {:>12.5} {:>14.2}",
            spec.name(),
            ms,
            processed,
            violations,
            violations as f64 / processed as f64,
            if violations > 0 {
                lateness as f64 / violations as f64
            } else {
                0.0
            }
        );
    }
    println!(
        "\nstrict queues keep per-station causality almost intact; relaxed queues trade\n\
         bounded reordering for throughput — the application must tolerate (or roll back)\n\
         the violations, as in optimistic parallel DES"
    );
}
