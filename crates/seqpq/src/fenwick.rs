//! Fenwick (binary indexed) tree in range-update / point-query form.
//!
//! Used by the quality benchmark's *delay* metric: every replayed
//! deletion of key `x` adds +1 to all smaller keys ("they were passed
//! over"), and an item's accumulated delay is read when it is deleted —
//! exactly a prefix range-add with point queries over the compressed key
//! universe. [`crate::RankMultiset`] keeps its live counts the same way,
//! with an insert adding +1 to every larger key.

/// Fenwick tree over `n` positions supporting `add` on a prefix/range
/// and `get` at a point, both O(log n).
#[derive(Clone, Debug)]
pub struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    /// Tree over positions `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// `true` if the tree has no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add `delta` to every position in `0..end` (prefix add).
    pub fn prefix_add(&mut self, end: usize, delta: i64) {
        self.range_add(0, end, delta);
    }

    /// Add `delta` to every position in `start..end`.
    pub fn range_add(&mut self, start: usize, end: usize, delta: i64) {
        debug_assert!(start <= end && end <= self.len());
        // Difference-array trick on a standard Fenwick: add at `start`,
        // negate at `end`.
        self.suffix_point_add(start, delta);
        if end < self.len() {
            self.suffix_point_add(end, -delta);
        }
    }

    /// Internal: add `delta` to the difference array at `i` (affects all
    /// point queries at positions ≥ i).
    fn suffix_point_add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.len());
        let mut i = i + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t = Fenwick::new(0);
        assert!(t.is_empty());
    }

    #[test]
    fn prefix_add_affects_only_prefix() {
        let mut t = Fenwick::new(8);
        t.prefix_add(3, 5);
        for i in 0..3 {
            assert_eq!(t.get(i), 5, "position {i}");
        }
        for i in 3..8 {
            assert_eq!(t.get(i), 0, "position {i}");
        }
    }

    #[test]
    fn range_add_and_overlaps() {
        let mut t = Fenwick::new(10);
        t.range_add(2, 7, 3);
        t.range_add(5, 10, 2);
        let expect = [0, 0, 3, 3, 3, 5, 5, 2, 2, 2];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(t.get(i), e, "position {i}");
        }
    }

    #[test]
    fn full_prefix_is_whole_array() {
        let mut t = Fenwick::new(4);
        t.prefix_add(4, 1);
        for i in 0..4 {
            assert_eq!(t.get(i), 1);
        }
    }

    #[test]
    fn matches_naive_model_random_ops() {
        let n = 64;
        let mut t = Fenwick::new(n);
        let mut model = vec![0i64; n];
        let mut state = 0x12345678u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let delta = (next() % 9) as i64 - 4;
            t.range_add(lo, hi, delta);
            for x in model.iter_mut().take(hi).skip(lo) {
                *x += delta;
            }
            let probe = (next() % n as u64) as usize;
            assert_eq!(t.get(probe), model[probe]);
        }
    }
}
