//! Sequential priority-queue substrates.
//!
//! The paper's GlobalLock baseline and the MultiQueue both wrap C++'s
//! `std::priority_queue` (an array-based binary heap). This crate provides
//! the equivalent [`BinaryHeap`] (min-heap over [`pq_traits::Item`]), the
//! alternative [`PairingHeap`] and [`DaryHeap`] substrates (sequential
//! cost cells of `perf_ledger`; no concurrent queue runs on them), and the
//! [`OsTreap`] order-statistic treap that powers the quality benchmark's
//! rank replay (appendix F: "a specialized sequential priority queue is
//! then used to replay this sequence and efficiently determine the rank of
//! all deleted items").

#![warn(missing_docs)]

pub mod binary_heap;
pub mod dary_heap;
pub mod fenwick;
pub mod ostreap;
pub mod pairing_heap;

pub use binary_heap::BinaryHeap;
pub use dary_heap::DaryHeap;
pub use fenwick::Fenwick;
pub use ostreap::OsTreap;
pub use pairing_heap::PairingHeap;
