//! The benchmarked queue family and a static-dispatch helper.
//!
//! The harness runs generic code over `Q: ConcurrentPq`; the
//! `with_queue!` macro expands one monomorphized arm per queue so no
//! dynamic dispatch (or GAT-incompatible trait objects) is needed.

/// Identifies a queue configuration to benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueSpec {
    /// k-LSM with the given relaxation parameter.
    Klsm(usize),
    /// Standalone distributed (thread-local) LSM.
    Dlsm,
    /// Standalone shared LSM with the given relaxation parameter.
    Slsm(usize),
    /// Lindén–Jonsson strict skiplist queue.
    Linden,
    /// SprayList.
    Spray,
    /// MultiQueue with the given `c` (sub-queues = c·P).
    MultiQueue(usize),
    /// Sticky, buffered MultiQueue with `(c, s, m)`: sub-queues = c·P,
    /// stickiness `s` operations, insertion/deletion buffers of `m`
    /// items (Williams/Sanders engineering of the MultiQueue).
    MqSticky(usize, usize, usize),
    /// Sequential heap behind a global lock.
    GlobalLock,
    /// Hunt et al. fine-grained heap.
    Hunt,
    /// Liu & Spear mound (lock-based variant).
    Mound,
    /// Braginsky-style chunk-based priority queue (FAA deletions).
    Cbpq,
    /// Flat-combining wrapper over the sequential binary heap (the
    /// `globallock` substrate).
    FcGlobalLock,
    /// Flat-combining wrapper over the mound. The field is not a
    /// parameter: every `FcMound(_)` builds the same queue, and only
    /// `FcMound(1)` parses (from `fc-mound`). It stays because the
    /// frozen benchmark (`benchmark/src/job.rs`) matches
    /// `QueueSpec::FcMound(1)`.
    FcMound(usize),
}

impl QueueSpec {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            QueueSpec::Klsm(k) => format!("klsm{k}"),
            QueueSpec::Dlsm => "dlsm".to_owned(),
            QueueSpec::Slsm(k) => format!("slsm{k}"),
            QueueSpec::Linden => "linden".to_owned(),
            QueueSpec::Spray => "spray".to_owned(),
            QueueSpec::MultiQueue(c) => {
                if *c == 4 {
                    "multiqueue".to_owned()
                } else {
                    format!("multiqueue-c{c}")
                }
            }
            QueueSpec::MqSticky(c, s, m) => {
                if (*c, *s, *m) == (4, 8, 8) {
                    "mq-sticky".to_owned()
                } else if *c == 4 {
                    format!("mq-sticky-s{s}-m{m}")
                } else {
                    format!("mq-sticky-c{c}-s{s}-m{m}")
                }
            }
            QueueSpec::GlobalLock => "globallock".to_owned(),
            QueueSpec::Hunt => "hunt".to_owned(),
            QueueSpec::Mound => "mound".to_owned(),
            QueueSpec::Cbpq => "cbpq".to_owned(),
            QueueSpec::FcGlobalLock => "fc-globallock".to_owned(),
            QueueSpec::FcMound(_) => "fc-mound".to_owned(),
        }
    }

    /// Parse a name produced by [`QueueSpec::name`]. Every numeric
    /// parameter except the SLSM's `k` (where 0 is the strict SLSM) must
    /// be positive: the constructors would panic on a zero `k` and clamp
    /// a zero `c`, `s` or `m`, so the queue would run under another name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dlsm" => Some(QueueSpec::Dlsm),
            "linden" => Some(QueueSpec::Linden),
            "spray" => Some(QueueSpec::Spray),
            "multiqueue" => Some(QueueSpec::MultiQueue(4)),
            "mq-sticky" => Some(QueueSpec::MqSticky(4, 8, 8)),
            "globallock" => Some(QueueSpec::GlobalLock),
            "hunt" => Some(QueueSpec::Hunt),
            "mound" => Some(QueueSpec::Mound),
            "cbpq" => Some(QueueSpec::Cbpq),
            "fc-globallock" => Some(QueueSpec::FcGlobalLock),
            "fc-mound" => Some(QueueSpec::FcMound(1)),
            _ => {
                if let Some(rest) = s.strip_prefix("mq-sticky-") {
                    // "c{c}-s{s}-m{m}" or "s{s}-m{m}" (c defaults to 4).
                    let mut c = 4usize;
                    let mut parts = rest.split('-');
                    let mut part = parts.next()?;
                    if let Some(cv) = part.strip_prefix('c') {
                        c = positive(cv)?;
                        part = parts.next()?;
                    }
                    let sv = positive(part.strip_prefix('s')?)?;
                    let mv = positive(parts.next()?.strip_prefix('m')?)?;
                    if parts.next().is_some() {
                        return None;
                    }
                    Some(QueueSpec::MqSticky(c, sv, mv))
                } else if let Some(k) = s.strip_prefix("klsm") {
                    positive(k).map(QueueSpec::Klsm)
                } else if let Some(k) = s.strip_prefix("slsm") {
                    k.parse().ok().map(QueueSpec::Slsm)
                } else if let Some(c) = s.strip_prefix("multiqueue-c") {
                    positive(c).map(QueueSpec::MultiQueue)
                } else {
                    None
                }
            }
        }
    }

    /// Every queue family, one representative parameterization each plus
    /// the sticky variants: the list the checker matrix and the
    /// cross-queue contract tests run over. Append only —
    /// `checker_stress` derives each cell's chaos seed from its position,
    /// so reordering or removing an entry changes every later cell's
    /// schedule.
    pub fn registry() -> Vec<QueueSpec> {
        vec![
            QueueSpec::Klsm(16),
            QueueSpec::Klsm(128),
            QueueSpec::Klsm(4096),
            QueueSpec::Dlsm,
            QueueSpec::Slsm(32),
            QueueSpec::Linden,
            QueueSpec::Spray,
            QueueSpec::MultiQueue(4),
            QueueSpec::MqSticky(4, 8, 8),
            QueueSpec::GlobalLock,
            QueueSpec::Hunt,
            QueueSpec::Mound,
            QueueSpec::Cbpq,
            QueueSpec::FcGlobalLock,
            QueueSpec::FcMound(1),
            QueueSpec::MqSticky(4, 1, 1),
            QueueSpec::MqSticky(2, 64, 16),
        ]
    }

    /// The seven queue variants of the paper's main comparison
    /// (figure 1): klsm128/256/4096, linden, spray, multiqueue,
    /// globallock.
    pub fn paper_set() -> Vec<QueueSpec> {
        vec![
            QueueSpec::Klsm(128),
            QueueSpec::Klsm(256),
            QueueSpec::Klsm(4096),
            QueueSpec::Linden,
            QueueSpec::Spray,
            QueueSpec::MultiQueue(4),
            QueueSpec::GlobalLock,
        ]
    }

    /// The queues evaluated in the rank-error tables (klsm variants and
    /// the MultiQueue; strict queues trivially have rank 0, but we
    /// include linden as a control as the paper's tables do).
    pub fn quality_set() -> Vec<QueueSpec> {
        vec![
            QueueSpec::Klsm(128),
            QueueSpec::Klsm(256),
            QueueSpec::Klsm(4096),
            QueueSpec::MultiQueue(4),
            QueueSpec::MqSticky(4, 8, 8),
            QueueSpec::Spray,
            QueueSpec::Linden,
        ]
    }

    /// Fully linearizable strict queues: the only ones for which
    /// per-thread monotonicity may be asserted during the *concurrent*
    /// drain. Hunt, mound and cbpq are strict only up to in-flight
    /// operations. The frozen benchmark (`benchmark/src/job.rs`) keeps
    /// its own copy of this list.
    pub fn strict_drain(&self) -> bool {
        matches!(
            self,
            QueueSpec::Linden
                | QueueSpec::GlobalLock
                | QueueSpec::FcGlobalLock
                | QueueSpec::FcMound(_)
        )
    }
}

/// A numeric queue parameter that must be at least 1.
fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&v| v > 0)
}

impl std::fmt::Display for QueueSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Instantiate the queue described by a [`QueueSpec`] and run `$body`
/// with `$q` bound to it. `$threads` is the number of worker threads
/// (an extra handle slot is provisioned for prefilling where the
/// structure caps handles).
#[macro_export]
macro_rules! with_queue {
    ($spec:expr, $threads:expr, $q:ident => $body:expr) => {{
        let threads: usize = $threads;
        match $spec {
            $crate::QueueSpec::Klsm(k) => {
                let $q = ::klsm::Klsm::new(k, threads + 1);
                $body
            }
            $crate::QueueSpec::Dlsm => {
                let $q = ::klsm::Dlsm::new(threads + 1);
                $body
            }
            $crate::QueueSpec::Slsm(k) => {
                let $q = ::klsm::Slsm::new(k);
                $body
            }
            $crate::QueueSpec::Linden => {
                let $q = ::skiplist_pq::LindenPq::new();
                $body
            }
            $crate::QueueSpec::Spray => {
                let $q = ::skiplist_pq::SprayList::new(threads);
                $body
            }
            $crate::QueueSpec::MultiQueue(c) => {
                let $q = ::multiqueue_pq::MultiQueue::new(c, threads);
                $body
            }
            $crate::QueueSpec::MqSticky(c, s, m) => {
                let $q = ::multiqueue_pq::MultiQueueSticky::new(c, threads, s, m);
                $body
            }
            $crate::QueueSpec::GlobalLock => {
                let $q = ::lockedpq::GlobalLockPq::new();
                $body
            }
            $crate::QueueSpec::Hunt => {
                let $q = ::lockedpq::HuntHeap::new();
                $body
            }
            $crate::QueueSpec::Mound => {
                let $q = ::lockedpq::Mound::new();
                $body
            }
            $crate::QueueSpec::Cbpq => {
                let $q = ::cbpq::Cbpq::new();
                $body
            }
            $crate::QueueSpec::FcGlobalLock => {
                let $q = ::lockedpq::fc_globallock(threads + 1);
                $body
            }
            $crate::QueueSpec::FcMound(_) => {
                let $q = ::lockedpq::fc_mound(threads + 1, ::pq_traits::seed::DEFAULT_QUEUE_SEED);
                $body
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        let specs = [
            QueueSpec::Klsm(128),
            QueueSpec::Klsm(4096),
            QueueSpec::Dlsm,
            QueueSpec::Slsm(256),
            QueueSpec::Slsm(0),
            QueueSpec::Linden,
            QueueSpec::Spray,
            QueueSpec::MultiQueue(4),
            QueueSpec::MultiQueue(2),
            QueueSpec::MqSticky(4, 8, 8),
            QueueSpec::MqSticky(4, 64, 16),
            QueueSpec::MqSticky(2, 1, 1),
            QueueSpec::GlobalLock,
            QueueSpec::Hunt,
            QueueSpec::Mound,
            QueueSpec::Cbpq,
            QueueSpec::FcGlobalLock,
            QueueSpec::FcMound(1),
        ];
        for s in specs {
            assert_eq!(QueueSpec::parse(&s.name()), Some(s), "{s:?}");
        }
        assert_eq!(QueueSpec::parse("nonsense"), None);
        assert_eq!(QueueSpec::parse("mq-sticky-s8"), None);
        assert_eq!(QueueSpec::parse("mq-sticky-s8-m4-x1"), None);
        // A zero k, c, s or m would panic in the constructor or be
        // clamped to another queue than the name says.
        for zero in [
            "klsm0",
            "multiqueue-c0",
            "mq-sticky-s0-m8",
            "mq-sticky-s8-m0",
            "mq-sticky-c0-s8-m8",
        ] {
            assert_eq!(QueueSpec::parse(zero), None, "{zero}");
        }
    }

    #[test]
    fn insert_buffered_names_do_not_parse() {
        for name in [
            "klsm128-b16",
            "dlsm-b16",
            "spray-b16",
            "fc-globallock-b16",
            "fc-mound-b16",
        ] {
            assert_eq!(QueueSpec::parse(name), None, "{name}");
        }
    }

    #[test]
    fn sticky_names_match_expectations() {
        assert_eq!(QueueSpec::MqSticky(4, 8, 8).name(), "mq-sticky");
        assert_eq!(QueueSpec::MqSticky(4, 64, 16).name(), "mq-sticky-s64-m16");
        assert_eq!(QueueSpec::MqSticky(2, 1, 4).name(), "mq-sticky-c2-s1-m4");
    }

    #[test]
    fn paper_set_has_seven_variants() {
        assert_eq!(QueueSpec::paper_set().len(), 7);
    }

    #[test]
    fn with_queue_instantiates_every_spec() {
        use pq_traits::{ConcurrentPq, PqHandle};
        for spec in QueueSpec::registry() {
            let drained = with_queue!(spec, 1, q => {
                let mut h = q.handle();
                for k in 0..50u64 {
                    h.insert(k, k);
                }
                h.flush();
                let mut n = 0;
                while h.delete_min().is_some() {
                    n += 1;
                }
                n
            });
            assert_eq!(drained, 50, "{spec}");
        }
    }
}
