//! Key-value item type used by all queues in the workspace.

/// Priority key. The paper benchmarks 8-, 16- and 32-bit integer ranges
/// plus ascending/descending dependent keys; `u64` accommodates all of
/// them (the ascending distribution adds the operation number to a random
/// base and can exceed 32 bits in long runs).
pub type Key = u64;

/// Payload value. The benchmarks use it to carry a unique operation id so
/// the quality benchmark can match insertions to deletions.
pub type Value = u64;

/// A key-value pair. Ordered by key, then value, so that items with equal
/// keys still have a deterministic total order (required by the
/// order-statistic replay structure).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Item {
    /// Priority key (smaller = higher priority).
    pub key: Key,
    /// Payload.
    pub value: Value,
}

impl Item {
    /// Create an item.
    #[inline]
    pub const fn new(key: Key, value: Value) -> Self {
        Self { key, value }
    }
}

impl PartialOrd for Item {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Item {
    #[inline]
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.key, self.value).cmp(&(other.key, other.value))
    }
}

impl From<(Key, Value)> for Item {
    #[inline]
    fn from((key, value): (Key, Value)) -> Self {
        Self { key, value }
    }
}

impl From<Item> for (Key, Value) {
    #[inline]
    fn from(it: Item) -> Self {
        (it.key, it.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_key_then_value() {
        let a = Item::new(1, 9);
        let b = Item::new(2, 0);
        let c = Item::new(1, 10);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn tuple_conversions_roundtrip() {
        let it: Item = (7, 42).into();
        assert_eq!(it, Item::new(7, 42));
        let t: (Key, Value) = it.into();
        assert_eq!(t, (7, 42));
    }

    #[test]
    fn equal_items_compare_equal() {
        assert_eq!(
            Item::new(3, 3).cmp(&Item::new(3, 3)),
            core::cmp::Ordering::Equal
        );
    }
}
