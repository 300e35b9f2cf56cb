//! Concurrency stress tests: conservation (no lost items), uniqueness
//! (no duplicated deletions) and strict-order checks under real thread
//! interleavings, for every queue in the registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use harness::{with_queue, QueueSpec};
use pq_traits::{ConcurrentPq, PqHandle};

/// Mixed insert/delete stress: every inserted value is unique; afterwards
/// (deleted ∪ drained) must equal exactly the inserted multiset.
fn conservation_stress(spec: QueueSpec, threads: usize, ops_per_thread: u64) {
    let inserted = AtomicU64::new(0);
    let deleted_values: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    with_queue!(spec, threads, q => {
        std::thread::scope(|s| {
            for t in 0..threads as u64 {
                let q = &q;
                let inserted = &inserted;
                let deleted_values = &deleted_values;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut mine = Vec::new();
                    let mut ins = 0u64;
                    for i in 0..ops_per_thread {
                        if (i ^ t) % 2 == 0 {
                            let key = i.wrapping_mul(0x9E3779B97F4A7C15) >> 40;
                            h.insert(key, (t << 48) | i);
                            ins += 1;
                        } else if let Some(it) = h.delete_min() {
                            mine.push(it.value);
                        }
                    }
                    inserted.fetch_add(ins, Ordering::Relaxed);
                    deleted_values.lock().unwrap().extend(mine);
                });
            }
        });
        // Drain the remainder.
        let mut h = q.handle();
        let mut rest = deleted_values.into_inner().unwrap();
        while let Some(it) = h.delete_min() {
            rest.push(it.value);
        }
        let n = rest.len() as u64;
        assert_eq!(n, inserted.load(Ordering::Relaxed), "{spec}: items lost");
        rest.sort_unstable();
        rest.dedup();
        assert_eq!(rest.len() as u64, n, "{spec}: duplicate deletions");
    });
}

#[test]
fn conservation_klsm128() {
    conservation_stress(QueueSpec::Klsm(128), 4, 10_000);
}

#[test]
fn conservation_klsm4096() {
    conservation_stress(QueueSpec::Klsm(4096), 4, 10_000);
}

#[test]
fn conservation_dlsm() {
    conservation_stress(QueueSpec::Dlsm, 4, 10_000);
}

#[test]
fn conservation_slsm() {
    conservation_stress(QueueSpec::Slsm(64), 4, 5_000);
}

#[test]
fn conservation_linden() {
    conservation_stress(QueueSpec::Linden, 4, 10_000);
}

#[test]
fn conservation_spray() {
    conservation_stress(QueueSpec::Spray, 4, 10_000);
}

#[test]
fn conservation_multiqueue() {
    conservation_stress(QueueSpec::MultiQueue(4), 4, 10_000);
}

#[test]
fn conservation_globallock() {
    conservation_stress(QueueSpec::GlobalLock, 4, 10_000);
}

#[test]
fn conservation_hunt() {
    conservation_stress(QueueSpec::Hunt, 4, 10_000);
}

#[test]
fn conservation_mound() {
    conservation_stress(QueueSpec::Mound, 4, 10_000);
}

#[test]
fn conservation_cbpq() {
    conservation_stress(QueueSpec::Cbpq, 4, 10_000);
}

#[test]
fn strict_queues_never_go_backwards_without_concurrent_inserts() {
    // Delete-only phase on a prefilled queue: every strict queue must
    // emit a non-decreasing sequence per thread.
    for spec in [QueueSpec::Linden, QueueSpec::GlobalLock] {
        with_queue!(spec, 4, q => {
            {
                let mut h = q.handle();
                for i in 0..20_000u64 {
                    h.insert(i.wrapping_mul(48271) % 100_000, i);
                }
            }
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let q = &q;
                    s.spawn(move || {
                        let mut h = q.handle();
                        let mut prev = None;
                        while let Some(it) = h.delete_min() {
                            if let Some(p) = prev {
                                assert!(it.key >= p, "{} went backwards", spec);
                            }
                            prev = Some(it.key);
                        }
                    });
                }
            });
        });
    }
}

#[test]
fn relaxed_queues_stay_coarsely_ordered_during_drain() {
    // Deleting from a prefilled relaxed queue, the k-th deletion can be
    // at rank ≤ bound, so one thread's emitted keys may locally invert
    // but must globally trend upward: the mean of its first decile stays
    // below the mean of its last decile.
    for spec in [QueueSpec::Klsm(128), QueueSpec::Spray, QueueSpec::MultiQueue(4)] {
        with_queue!(spec, 2, q => {
            {
                let mut h = q.handle();
                for i in 0..10_000u64 {
                    h.insert(i, i);
                }
            }
            let per_thread = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let q = &q;
                    let per_thread = &per_thread;
                    s.spawn(move || {
                        let mut h = q.handle();
                        let mut mine = Vec::new();
                        while let Some(it) = h.delete_min() {
                            mine.push(it.key);
                        }
                        per_thread.lock().unwrap().push(mine);
                    });
                }
            });
            let per_thread = per_thread.into_inner().unwrap();
            let total: usize = per_thread.iter().map(Vec::len).sum();
            assert_eq!(total, 10_000, "{spec}");
            let mean = |ks: &[u64]| ks.iter().sum::<u64>() as f64 / ks.len() as f64;
            // A thread that got under 20 deletions (descheduled while the
            // other drained) has deciles of one key: too few to trend.
            for keys in per_thread.iter().filter(|ks| ks.len() >= 20) {
                let decile = keys.len() / 10;
                let (first, last) = (mean(&keys[..decile]), mean(&keys[keys.len() - decile..]));
                assert!(
                    first < last,
                    "{spec}: first-decile mean {first} not below last-decile mean {last} \
                     over {} deletions",
                    keys.len()
                );
            }
        });
    }
}
