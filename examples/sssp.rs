//! Single-source shortest paths with a relaxed concurrent priority queue.
//!
//! The paper's introduction names shortest-path algorithms as a key
//! application that "can often accommodate" relaxation: a parallel
//! Dijkstra-style label-correcting search stays *correct* with a relaxed
//! queue — popping a non-minimal label only causes re-expansion, never a
//! wrong result. This example runs the same search over several queues
//! and reports the price of relaxation as wasted (stale) pops.
//!
//! ```text
//! cargo run -p pq-bench --release --example sssp
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use harness::QueueSpec;
use harness::with_queue;
use pq_traits::{ConcurrentPq, PqHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Graph {
    /// Adjacency: `adj[u]` = (v, weight) pairs.
    adj: Vec<Vec<(u32, u32)>>,
}

impl Graph {
    /// Random connected-ish digraph: a Hamiltonian backbone plus random
    /// extra edges.
    fn random(nodes: usize, extra_edges: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut adj = vec![Vec::new(); nodes];
        for (u, edges) in adj.iter_mut().enumerate().take(nodes - 1) {
            edges.push((u as u32 + 1, rng.gen_range(1..100)));
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..nodes);
            let v = rng.gen_range(0..nodes);
            if u != v {
                adj[u].push((v as u32, rng.gen_range(1..100)));
            }
        }
        Self { adj }
    }

    /// Sequential Dijkstra reference.
    fn dijkstra(&self, src: usize) -> Vec<u64> {
        let mut dist = vec![u64::MAX; self.adj.len()];
        let mut heap = std::collections::BinaryHeap::new();
        dist[src] = 0;
        heap.push(std::cmp::Reverse((0u64, src as u32)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w as u64;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        dist
    }
}

/// Parallel label-correcting SSSP over any concurrent priority queue.
/// Returns (distances, wasted_pops).
fn parallel_sssp<Q: ConcurrentPq>(q: &Q, g: &Graph, src: usize, threads: usize) -> (Vec<u64>, u64) {
    let dist: Vec<AtomicU64> = (0..g.adj.len()).map(|_| AtomicU64::new(u64::MAX)).collect();
    dist[src].store(0, Ordering::Relaxed);
    // Items in the queue or being expanded; termination when zero.
    let outstanding = AtomicUsize::new(1);
    let wasted = AtomicU64::new(0);
    {
        let mut h = q.handle();
        h.insert(0, src as u64);
    }
    std::thread::scope(|s| {
        for _ in 0..threads {
            let dist = &dist;
            let outstanding = &outstanding;
            let wasted = &wasted;
            s.spawn(move || {
                let mut h = q.handle();
                loop {
                    match h.delete_min() {
                        Some(item) => {
                            let (d, u) = (item.key, item.value as usize);
                            if d > dist[u].load(Ordering::Acquire) {
                                wasted.fetch_add(1, Ordering::Relaxed);
                            } else {
                                for &(v, w) in &g.adj[u] {
                                    let nd = d + w as u64;
                                    // CAS-min on the label.
                                    let mut cur = dist[v as usize].load(Ordering::Acquire);
                                    while nd < cur {
                                        match dist[v as usize].compare_exchange_weak(
                                            cur,
                                            nd,
                                            Ordering::AcqRel,
                                            Ordering::Acquire,
                                        ) {
                                            Ok(_) => {
                                                outstanding.fetch_add(1, Ordering::AcqRel);
                                                h.insert(nd, v as u64);
                                                break;
                                            }
                                            Err(now) => cur = now,
                                        }
                                    }
                                }
                            }
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                        }
                        None => {
                            if outstanding.load(Ordering::Acquire) == 0 {
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
        dist.into_iter().map(|d| d.into_inner()).collect(),
        wasted.into_inner(),
    )
}

fn main() {
    let threads = 4;
    let g = Graph::random(50_000, 200_000, 7);
    let reference = g.dijkstra(0);
    println!("graph: 50000 nodes, ~250000 edges; 4 worker threads\n");
    println!("{:<12} {:>12} {:>12} {:>10}", "queue", "time [ms]", "wasted pops", "correct");

    for spec in [
        QueueSpec::GlobalLock,
        QueueSpec::Linden,
        QueueSpec::MultiQueue(4, 1, 1),
        QueueSpec::Spray,
        QueueSpec::Klsm(256),
        QueueSpec::Klsm(4096),
    ] {
        let started = std::time::Instant::now();
        let (dist, wasted) = with_queue!(spec, threads, q => parallel_sssp(&q, &g, 0, threads));
        let elapsed = started.elapsed();
        let correct = dist == reference;
        println!(
            "{:<12} {:>12.1} {:>12} {:>10}",
            spec.name(),
            elapsed.as_secs_f64() * 1e3,
            wasted,
            correct
        );
        assert!(correct, "{} produced wrong distances", spec.name());
    }
    println!("\nall queues produced exact shortest paths; relaxation only adds re-expansions");
}
