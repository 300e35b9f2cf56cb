//! D-ary min-heap: the cache-friendly variant of the binary heap.
//!
//! Larkin, Sen and Tarjan's empirical study (the paper's reference for
//! sorting-style benchmarks) found implicit 4-ary heaps the strongest
//! simple priority queue on modern hardware: a wider node fans out the
//! tree, shortening sift paths and packing siblings into one cache line.
//! `perf_ledger` records its sequential cost (`seqpq.dary_heap.op_ns`)
//! next to [`crate::BinaryHeap`] and [`crate::PairingHeap`].

use pq_traits::{Item, Key, SequentialPq, Value};

/// Array-based d-ary min-heap. `D` is the arity (≥ 2); `DaryHeap<4>` is
/// the classic quaternary heap.
#[derive(Clone, Debug)]
pub struct DaryHeap<const D: usize = 4> {
    data: Vec<Item>,
}

impl<const D: usize> Default for DaryHeap<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> DaryHeap<D> {
    /// Create an empty heap.
    pub fn new() -> Self {
        assert!(D >= 2, "arity must be at least 2");
        Self { data: Vec::new() }
    }

    /// Create an empty heap with room for `cap` items.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(D >= 2, "arity must be at least 2");
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    #[inline]
    fn parent(i: usize) -> usize {
        (i - 1) / D
    }

    #[inline]
    fn first_child(i: usize) -> usize {
        i * D + 1
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let p = Self::parent(i);
            if self.data[i] < self.data[p] {
                self.data.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.data.len();
        loop {
            let first = Self::first_child(i);
            if first >= n {
                break;
            }
            let last = (first + D).min(n);
            let mut smallest = first;
            for c in first + 1..last {
                if self.data[c] < self.data[smallest] {
                    smallest = c;
                }
            }
            if self.data[smallest] < self.data[i] {
                self.data.swap(i, smallest);
                i = smallest;
            } else {
                break;
            }
        }
    }

    /// Check the heap invariant; used by tests.
    #[doc(hidden)]
    pub fn is_valid_heap(&self) -> bool {
        (1..self.data.len()).all(|i| self.data[Self::parent(i)] <= self.data[i])
    }
}

impl<const D: usize> SequentialPq for DaryHeap<D> {
    fn insert(&mut self, key: Key, value: Value) {
        self.data.push(Item::new(key, value));
        self.sift_up(self.data.len() - 1);
    }

    fn delete_min(&mut self) -> Option<Item> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.data.swap(0, last);
        let min = self.data.pop();
        if !self.data.is_empty() {
            self.sift_down(0);
        }
        min
    }

    fn peek_min(&self) -> Option<Item> {
        self.data.first().copied()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn clear(&mut self) {
        self.data.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_output_arity_4() {
        let mut h = DaryHeap::<4>::new();
        for k in [9u64, 1, 8, 2, 7, 3, 6, 4, 5, 0] {
            h.insert(k, k);
        }
        let out: Vec<Key> = std::iter::from_fn(|| h.delete_min()).map(|i| i.key).collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_output_arity_8() {
        let mut h = DaryHeap::<8>::new();
        for k in (0..200u64).rev() {
            h.insert(k, k);
        }
        let out: Vec<Key> = std::iter::from_fn(|| h.delete_min()).map(|i| i.key).collect();
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn empty_heap() {
        let mut h = DaryHeap::<4>::new();
        assert!(h.is_empty());
        assert_eq!(h.delete_min(), None);
        assert_eq!(h.peek_min(), None);
    }

    #[test]
    fn invariant_under_interleaving() {
        let mut h = DaryHeap::<4>::new();
        for i in 0..1000u64 {
            if i % 3 == 2 {
                h.delete_min();
            } else {
                h.insert((i * 2654435761) % 509, i);
            }
            assert!(h.is_valid_heap());
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_binary_heap(keys in proptest::collection::vec(0u64..1000, 0..250)) {
            let mut d = DaryHeap::<4>::new();
            let mut b = crate::BinaryHeap::new();
            for (i, &k) in keys.iter().enumerate() {
                d.insert(k, i as u64);
                b.insert(k, i as u64);
            }
            loop {
                let x = d.delete_min();
                let y = b.delete_min();
                proptest::prop_assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        }
    }
}
