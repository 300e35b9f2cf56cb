//! Pairing heap, an alternative sequential substrate.
//!
//! Larkin, Sen and Tarjan's "back-to-basics" study (cited by the paper as
//! the sorting-style benchmark precedent) found pairing heaps competitive
//! with binary heaps. No concurrent queue runs on it; `perf_ledger`
//! records its sequential cost (`seqpq.pairing_heap.op_ns`) beside the
//! binary heap's.
//!
//! Arena-based implementation: nodes live in a `Vec` and are addressed by
//! index, with a free list for reuse. This avoids per-node allocation and
//! keeps the structure cache-friendly, per the workspace performance
//! guidance (heap allocations are moderately expensive; reuse them).

use pq_traits::{Item, Key, SequentialPq, Value};

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    item: Item,
    /// First child, or NIL.
    child: u32,
    /// Next sibling in the child list, or NIL. Doubles as the free-list
    /// link for vacant nodes.
    sibling: u32,
}

/// Pairing min-heap over [`Item`]s with arena storage.
#[derive(Clone, Debug)]
pub struct PairingHeap {
    nodes: Vec<Node>,
    root: u32,
    free: u32,
    len: usize,
}

impl Default for PairingHeap {
    fn default() -> Self {
        // NOT derivable: `root` and `free` must start at NIL, not 0.
        Self::new()
    }
}

impl PairingHeap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            root: NIL,
            free: NIL,
            len: 0,
        }
    }

    /// Create an empty heap with room for `cap` items.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
            root: NIL,
            free: NIL,
            len: 0,
        }
    }

    fn alloc(&mut self, item: Item) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].sibling;
            self.nodes[idx as usize] = Node {
                item,
                child: NIL,
                sibling: NIL,
            };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "pairing heap capacity exceeded");
            self.nodes.push(Node {
                item,
                child: NIL,
                sibling: NIL,
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize].sibling = self.free;
        self.free = idx;
    }

    /// Meld two non-NIL trees, returning the new root.
    fn meld(&mut self, a: u32, b: u32) -> u32 {
        debug_assert!(a != NIL && b != NIL);
        let (parent, child) = if self.nodes[a as usize].item <= self.nodes[b as usize].item {
            (a, b)
        } else {
            (b, a)
        };
        self.nodes[child as usize].sibling = self.nodes[parent as usize].child;
        self.nodes[parent as usize].child = child;
        parent
    }

    /// Two-pass pairing combine of a sibling list.
    fn combine_siblings(&mut self, first: u32) -> u32 {
        if first == NIL {
            return NIL;
        }
        // Pass 1: pair up left to right.
        let mut pairs: Vec<u32> = Vec::new();
        let mut cur = first;
        while cur != NIL {
            let next = self.nodes[cur as usize].sibling;
            self.nodes[cur as usize].sibling = NIL;
            if next != NIL {
                let after = self.nodes[next as usize].sibling;
                self.nodes[next as usize].sibling = NIL;
                pairs.push(self.meld(cur, next));
                cur = after;
            } else {
                pairs.push(cur);
                cur = NIL;
            }
        }
        // Pass 2: meld right to left.
        let mut root = pairs.pop().expect("at least one pair");
        while let Some(t) = pairs.pop() {
            root = self.meld(t, root);
        }
        root
    }

    /// Verify heap order over the whole arena; used by tests.
    #[doc(hidden)]
    pub fn is_valid_heap(&self) -> bool {
        if self.root == NIL {
            return self.len == 0;
        }
        let mut stack = vec![self.root];
        let mut seen = 0usize;
        while let Some(n) = stack.pop() {
            seen += 1;
            let mut c = self.nodes[n as usize].child;
            while c != NIL {
                if self.nodes[c as usize].item < self.nodes[n as usize].item {
                    return false;
                }
                stack.push(c);
                c = self.nodes[c as usize].sibling;
            }
        }
        seen == self.len
    }
}

impl SequentialPq for PairingHeap {
    fn insert(&mut self, key: Key, value: Value) {
        let idx = self.alloc(Item::new(key, value));
        self.root = if self.root == NIL {
            idx
        } else {
            self.meld(self.root, idx)
        };
        self.len += 1;
    }

    fn delete_min(&mut self) -> Option<Item> {
        if self.root == NIL {
            return None;
        }
        let old_root = self.root;
        let item = self.nodes[old_root as usize].item;
        let first_child = self.nodes[old_root as usize].child;
        self.root = self.combine_siblings(first_child);
        self.release(old_root);
        self.len -= 1;
        Some(item)
    }

    fn peek_min(&self) -> Option<Item> {
        (self.root != NIL).then(|| self.nodes[self.root as usize].item)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.root = NIL;
        self.free = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_usable() {
        // Regression: a derived Default once initialized root/free to 0
        // instead of NIL, corrupting the arena on first insert.
        let mut h = PairingHeap::default();
        h.insert(2, 2);
        h.insert(1, 1);
        assert_eq!(h.delete_min(), Some(Item::new(1, 1)));
        assert_eq!(h.delete_min(), Some(Item::new(2, 2)));
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn empty_heap() {
        let mut h = PairingHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.delete_min(), None);
        assert_eq!(h.peek_min(), None);
    }

    #[test]
    fn sorted_output() {
        let mut h = PairingHeap::new();
        for k in [9u64, 1, 8, 2, 7, 3, 6, 4, 5, 0] {
            h.insert(k, k);
        }
        let out: Vec<Key> = std::iter::from_fn(|| h.delete_min()).map(|i| i.key).collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn arena_reuse_after_deletes() {
        let mut h = PairingHeap::new();
        for k in 0..100u64 {
            h.insert(k, 0);
        }
        for _ in 0..100 {
            h.delete_min();
        }
        let arena_size = h.nodes.len();
        for k in 0..100u64 {
            h.insert(k, 1);
        }
        // Freed nodes must be reused, not newly allocated.
        assert_eq!(h.nodes.len(), arena_size);
        assert_eq!(h.len(), 100);
        assert!(h.is_valid_heap());
    }

    #[test]
    fn interleaved_ops_keep_invariant() {
        let mut h = PairingHeap::new();
        for i in 0..500u64 {
            h.insert((i * 2654435761) % 997, i);
            if i % 4 == 3 {
                assert!(h.delete_min().is_some());
            }
        }
        assert!(h.is_valid_heap());
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_binary_heap(keys in proptest::collection::vec(0u64..500, 0..300)) {
            let mut ph = PairingHeap::new();
            let mut bh = crate::BinaryHeap::new();
            for (i, &k) in keys.iter().enumerate() {
                ph.insert(k, i as u64);
                bh.insert(k, i as u64);
            }
            loop {
                let a = ph.delete_min();
                let b = bh.delete_min();
                proptest::prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        #[test]
        fn prop_mixed_ops_match_binary_heap(
            ops in proptest::collection::vec((proptest::bool::ANY, 0u64..100), 0..400)
        ) {
            let mut ph = PairingHeap::new();
            let mut bh = crate::BinaryHeap::new();
            for (i, &(is_insert, k)) in ops.iter().enumerate() {
                if is_insert {
                    ph.insert(k, i as u64);
                    bh.insert(k, i as u64);
                } else {
                    proptest::prop_assert_eq!(ph.delete_min(), bh.delete_min());
                }
                proptest::prop_assert_eq!(ph.len(), bh.len());
            }
        }
    }
}
