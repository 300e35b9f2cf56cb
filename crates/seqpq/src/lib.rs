//! Sequential priority-queue substrates.
//!
//! The paper's GlobalLock baseline and the MultiQueue both wrap C++'s
//! `std::priority_queue` (an array-based binary heap). This crate provides
//! the equivalent [`BinaryHeap`] (min-heap over [`pq_traits::Item`]), the
//! alternative [`PairingHeap`] and [`DaryHeap`] substrates (sequential
//! cost cells of `perf_ledger`; no concurrent queue runs on them), and the
//! [`RankMultiset`] — a [`Fenwick`] count over the replay's compressed key
//! universe — that answers every rank query of the quality benchmark and
//! the checker (appendix F: "a specialized sequential priority queue is
//! then used to replay this sequence and efficiently determine the rank of
//! all deleted items").

#![warn(missing_docs)]

pub mod binary_heap;
pub mod dary_heap;
pub mod fenwick;
pub mod pairing_heap;
pub mod rank_multiset;

pub use binary_heap::BinaryHeap;
pub use dary_heap::DaryHeap;
pub use fenwick::Fenwick;
pub use pairing_heap::PairingHeap;
pub use rank_multiset::RankMultiset;
