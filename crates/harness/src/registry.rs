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
    /// k-LSM with the given relaxation parameter behind
    /// [`pq_traits::Buffered`] insert buffers of the given size (`<= 1`
    /// = the bare queue, as for every `*Batch`/`Fc*` variant below).
    KlsmBatch(usize, usize),
    /// Standalone distributed (thread-local) LSM.
    Dlsm,
    /// Standalone DLSM with insert buffers of the given size.
    DlsmBatch(usize),
    /// Standalone shared LSM with the given relaxation parameter.
    Slsm(usize),
    /// Lindén–Jonsson strict skiplist queue.
    Linden,
    /// SprayList.
    Spray,
    /// SprayList with insert buffers of the given size.
    SprayBatch(usize),
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
    /// `globallock` substrate) with insert buffers of the given size
    /// (1 = unbuffered, strict).
    FcGlobalLock(usize),
    /// Flat-combining wrapper over the mound with insert buffers of the
    /// given size (1 = unbuffered, strict).
    FcMound(usize),
}

impl QueueSpec {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            QueueSpec::Klsm(k) => format!("klsm{k}"),
            QueueSpec::KlsmBatch(k, m) => format!("klsm{k}-b{m}"),
            QueueSpec::Dlsm => "dlsm".to_owned(),
            QueueSpec::DlsmBatch(m) => format!("dlsm-b{m}"),
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
            QueueSpec::SprayBatch(m) => format!("spray-b{m}"),
            QueueSpec::FcGlobalLock(m) => {
                if *m <= 1 {
                    "fc-globallock".to_owned()
                } else {
                    format!("fc-globallock-b{m}")
                }
            }
            QueueSpec::FcMound(m) => {
                if *m <= 1 {
                    "fc-mound".to_owned()
                } else {
                    format!("fc-mound-b{m}")
                }
            }
        }
    }

    /// Parse a name produced by [`QueueSpec::name`].
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
            "fc-globallock" => Some(QueueSpec::FcGlobalLock(1)),
            "fc-mound" => Some(QueueSpec::FcMound(1)),
            _ => {
                if let Some(rest) = s.strip_prefix("mq-sticky-") {
                    // "c{c}-s{s}-m{m}" or "s{s}-m{m}" (c defaults to 4).
                    let mut c = 4usize;
                    let mut parts = rest.split('-');
                    let mut part = parts.next()?;
                    if let Some(cv) = part.strip_prefix('c') {
                        c = cv.parse().ok()?;
                        part = parts.next()?;
                    }
                    let sv: usize = part.strip_prefix('s')?.parse().ok()?;
                    let mv: usize = parts.next()?.strip_prefix('m')?.parse().ok()?;
                    if parts.next().is_some() {
                        return None;
                    }
                    Some(QueueSpec::MqSticky(c, sv, mv))
                } else if let Some(m) = s.strip_prefix("dlsm-b") {
                    parse_batch(m).map(QueueSpec::DlsmBatch)
                } else if let Some(m) = s.strip_prefix("spray-b") {
                    parse_batch(m).map(QueueSpec::SprayBatch)
                } else if let Some(m) = s.strip_prefix("fc-globallock-b") {
                    parse_batch(m).map(QueueSpec::FcGlobalLock)
                } else if let Some(m) = s.strip_prefix("fc-mound-b") {
                    parse_batch(m).map(QueueSpec::FcMound)
                } else if let Some(rest) = s.strip_prefix("klsm") {
                    // "klsm{k}" or "klsm{k}-b{m}".
                    if let Some((k, m)) = rest.split_once("-b") {
                        match (k.parse().ok(), parse_batch(m)) {
                            (Some(k), Some(m)) => Some(QueueSpec::KlsmBatch(k, m)),
                            _ => None,
                        }
                    } else {
                        rest.parse().ok().map(QueueSpec::Klsm)
                    }
                } else if let Some(k) = s.strip_prefix("slsm") {
                    k.parse().ok().map(QueueSpec::Slsm)
                } else if let Some(c) = s.strip_prefix("multiqueue-c") {
                    c.parse().ok().map(QueueSpec::MultiQueue)
                } else {
                    None
                }
            }
        }
    }

    /// Every queue family, one representative parameterization each plus
    /// the buffered and sticky variants: the list the checker matrix and
    /// the cross-queue contract tests run over. Append only —
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
            QueueSpec::SprayBatch(16),
            QueueSpec::FcGlobalLock(1),
            QueueSpec::FcGlobalLock(16),
            QueueSpec::FcMound(1),
            QueueSpec::FcMound(16),
            QueueSpec::KlsmBatch(128, 16),
            QueueSpec::DlsmBatch(16),
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
}

/// The `<m>` of a `-b<m>` suffix; a buffer of zero items does not exist.
fn parse_batch(m: &str) -> Option<usize> {
    m.parse().ok().filter(|&m| m > 0)
}

impl std::fmt::Display for QueueSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Instantiate the queue described by a [`QueueSpec`] and run `$body`
/// with `$q` bound to it. `$threads` is the number of worker threads
/// (an extra handle slot is provisioned for prefilling where the
/// structure caps handles). The `*Batch(m)` / `Fc*(m)` specs build the
/// bare queue type for `m <= 1` and `pq_traits::Buffered` around it
/// from `m = 2`.
#[macro_export]
macro_rules! with_queue {
    ($spec:expr, $threads:expr, $q:ident => $body:expr) => {{
        let threads: usize = $threads;
        match $spec {
            $crate::QueueSpec::Klsm(k) | $crate::QueueSpec::KlsmBatch(k, 0 | 1) => {
                let $q = ::klsm::Klsm::new(k, threads + 1);
                $body
            }
            $crate::QueueSpec::KlsmBatch(k, m) => {
                let $q = ::pq_traits::Buffered::new(::klsm::Klsm::new(k, threads + 1), m);
                $body
            }
            $crate::QueueSpec::Dlsm | $crate::QueueSpec::DlsmBatch(0 | 1) => {
                let $q = ::klsm::Dlsm::new(threads + 1);
                $body
            }
            $crate::QueueSpec::DlsmBatch(m) => {
                let $q = ::pq_traits::Buffered::new(::klsm::Dlsm::new(threads + 1), m);
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
            $crate::QueueSpec::Spray | $crate::QueueSpec::SprayBatch(0 | 1) => {
                let $q = ::skiplist_pq::SprayList::new(threads);
                $body
            }
            $crate::QueueSpec::SprayBatch(m) => {
                let $q = ::pq_traits::Buffered::new(::skiplist_pq::SprayList::new(threads), m);
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
            $crate::QueueSpec::FcGlobalLock(0 | 1) => {
                let $q = ::lockedpq::fc_globallock(threads + 1);
                $body
            }
            $crate::QueueSpec::FcGlobalLock(m) => {
                let $q = ::pq_traits::Buffered::new(::lockedpq::fc_globallock(threads + 1), m);
                $body
            }
            $crate::QueueSpec::FcMound(0 | 1) => {
                let $q = ::lockedpq::fc_mound(threads + 1, ::pq_traits::seed::DEFAULT_QUEUE_SEED);
                $body
            }
            $crate::QueueSpec::FcMound(m) => {
                let $q = ::pq_traits::Buffered::new(
                    ::lockedpq::fc_mound(threads + 1, ::pq_traits::seed::DEFAULT_QUEUE_SEED),
                    m,
                );
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
            QueueSpec::KlsmBatch(128, 16),
            QueueSpec::Dlsm,
            QueueSpec::DlsmBatch(16),
            QueueSpec::Slsm(256),
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
            QueueSpec::SprayBatch(16),
            QueueSpec::FcGlobalLock(1),
            QueueSpec::FcGlobalLock(16),
            QueueSpec::FcMound(1),
            QueueSpec::FcMound(64),
        ];
        for s in specs {
            assert_eq!(QueueSpec::parse(&s.name()), Some(s), "{s:?}");
        }
        assert_eq!(QueueSpec::parse("nonsense"), None);
        assert_eq!(QueueSpec::parse("mq-sticky-s8"), None);
        assert_eq!(QueueSpec::parse("mq-sticky-s8-m4-x1"), None);
        assert_eq!(QueueSpec::parse("klsm128-bx"), None);
        assert_eq!(QueueSpec::parse("dlsm-b"), None);
        for family in ["klsm128", "dlsm", "spray", "fc-globallock", "fc-mound"] {
            assert_eq!(QueueSpec::parse(&format!("{family}-b0")), None, "{family}-b0");
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
