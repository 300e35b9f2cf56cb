//! Lock-free skiplist substrate and the two skiplist-based competitors
//! benchmarked by the paper.
//!
//! * [`list::SkipList`] — a Fraser/Harris-style lock-free skiplist with
//!   marked (tagged) next pointers, helping searches, and epoch-based
//!   memory reclamation (crossbeam-epoch). Each node is one heap block
//!   (header plus tower), nodes are ordered by `(Item, node address)`,
//!   and the list holds only its head: no list-wide counter. This is
//!   the substrate the original SprayList builds on (Fraser's skiplist)
//!   and the basis of the Lindén–Jonsson queue.
//! * [`linden::LindenPq`] — strict, linearizable, lock-free priority
//!   queue: `delete_min` claims the first live node of the bottom level
//!   with a single CAS on the node's own next pointer (Lindén &
//!   Jonsson's logical-deletion technique; see the module docs for how
//!   our physical cleanup differs from their batched restructuring).
//! * [`spray::SprayList`] — relaxed priority queue: `delete_min` performs
//!   a random *spray* walk over the head of the list and claims the node
//!   it lands on, returning one of the O(P log³ P) smallest items
//!   (Alistarh et al., PPoPP 2015).

#![warn(missing_docs)]

pub mod linden;
pub mod list;
pub mod spray;

pub use linden::LindenPq;
pub use list::SkipList;
pub use spray::SprayList;
