//! Schedule-perturbation ("chaos") shim for stress testing.
//!
//! Concurrency bugs in the queues live on their slow paths: a `find`
//! restart in the skiplist, a lost CAS, a DLSM spy, an SLSM pivot
//! rebuild, a sticky-MultiQueue buffer flush. Those are exactly the
//! points already annotated with [`crate::telemetry`] events, so this
//! module piggybacks on them: [`crate::telemetry::record_n`] forwards
//! every event to [`on_event`], which — when chaos is enabled — rolls a
//! thread-local deterministic RNG and injects either a
//! `std::thread::yield_now()` or a short bounded spin. Stretching the
//! window around contended transitions makes rare interleavings common,
//! and seeding the RNG makes a stress run's perturbation *schedule*
//! reproducible (the OS scheduler still has the last word, but a failing
//! seed usually keeps failing).
//!
//! Chaos is a **runtime** switch, not a cargo feature: [`configure`]
//! and [`disable`] flip the CHAOS bit of the telemetry hook word, so
//! while nothing is switched on an event site costs the one relaxed
//! load and predicted branch it pays anyway. When disabled (the
//! default), nothing else happens.
//!
//! Per-thread streams derive from `global seed ⊕ mix(registration
//! index)` using the same mixing as [`crate::seed::handle_seed`];
//! [`configure`] bumps an epoch so threads re-derive their stream and
//! the process can run many independent chaos cells.

use core::sync::atomic::{AtomicU64, Ordering};
use std::cell::Cell;

use crate::seed::handle_seed;
use crate::telemetry::{hook, Event};

/// The current configuration epoch; 0 until the first [`configure`].
static EPOCH: AtomicU64 = AtomicU64::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);
/// Per-mille probability of a `yield_now` per event.
static YIELD_PERMILLE: AtomicU64 = AtomicU64::new(0);
/// Per-mille probability of a bounded spin per event.
static SPIN_PERMILLE: AtomicU64 = AtomicU64::new(0);
/// Upper bound (exclusive) on injected spin iterations.
static SPIN_MAX: AtomicU64 = AtomicU64::new(0);
/// Registration order of perturbing threads within the current epoch.
static THREAD_CTR: AtomicU64 = AtomicU64::new(0);
/// Total perturbations injected since the last [`configure`]. For
/// logging only — never put this in a report that must be
/// run-to-run deterministic.
static INJECTED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// (epoch this thread last reseeded at, xorshift64* state).
    static STATE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Chaos injection parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Global seed; per-thread streams derive from it.
    pub seed: u64,
    /// Per-mille probability of injecting `thread::yield_now()` at a
    /// hook event.
    pub yield_permille: u32,
    /// Per-mille probability of injecting a bounded spin instead.
    pub spin_permille: u32,
    /// Exclusive upper bound on spin iterations per injection.
    pub spin_max: u32,
}

impl ChaosConfig {
    /// Defaults that perturb aggressively enough to matter on slow
    /// paths without collapsing throughput: 40‰ yields, 100‰ spins of
    /// up to 128 iterations.
    pub fn aggressive(seed: u64) -> Self {
        Self {
            seed,
            yield_permille: 40,
            spin_permille: 100,
            spin_max: 128,
        }
    }
}

/// Enable chaos injection process-wide with `cfg`. Threads pick up the
/// new configuration (and re-derive their RNG stream) at their next
/// hook event. Resets the [`injected`] counter.
pub fn configure(cfg: ChaosConfig) {
    SEED.store(cfg.seed, Ordering::Relaxed);
    YIELD_PERMILLE.store(cfg.yield_permille as u64, Ordering::Relaxed);
    SPIN_PERMILLE.store(cfg.spin_permille as u64, Ordering::Relaxed);
    SPIN_MAX.store(cfg.spin_max.max(1) as u64, Ordering::Relaxed);
    THREAD_CTR.store(0, Ordering::Relaxed);
    INJECTED.store(0, Ordering::Relaxed);
    // Bump last so a racing on_event never sees a half-written config
    // under the new epoch with the old seed. Skip 0 (the disabled
    // sentinel) on wrap.
    let mut next = EPOCH.load(Ordering::Relaxed).wrapping_add(1);
    if next == 0 {
        next = 1;
    }
    EPOCH.store(next, Ordering::Release);
    hook::set(hook::CHAOS, true);
}

/// Disable chaos injection process-wide.
pub fn disable() {
    hook::set(hook::CHAOS, false);
}

/// `true` while chaos injection is configured on.
#[inline]
pub fn enabled() -> bool {
    hook::load() & hook::CHAOS != 0
}

/// Perturbations injected since the last [`configure`] (diagnostic
/// only; not deterministic across runs).
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Telemetry hook: called by [`crate::telemetry::record_n`] for every
/// recorded event while chaos is on. A single relaxed load when chaos
/// is off.
#[inline]
pub fn on_event(_event: Event) {
    tick();
}

/// Event-less perturbation point: a single relaxed load when chaos is
/// off, a seeded yield/spin roll when it is on. Queues without internal
/// telemetry events (the locked heaps, the chunk queue) still get
/// perturbed through this — [`crate::history::RecordedHandle`] calls it
/// on every operation, so the checker stresses every queue uniformly.
#[inline]
pub fn tick() {
    if !enabled() {
        return;
    }
    perturb(EPOCH.load(Ordering::Acquire));
}

#[cold]
fn perturb(epoch: u64) {
    STATE.with(|cell| {
        let (seen, mut s) = cell.get();
        if seen != epoch {
            let idx = THREAD_CTR.fetch_add(1, Ordering::Relaxed);
            s = handle_seed(SEED.load(Ordering::Relaxed), idx);
            if s == 0 {
                s = 0x9E37_79B9_7F4A_7C15;
            }
        }
        // xorshift64* step; state is never zero.
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        cell.set((epoch, s));

        let roll = s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
        let roll = roll % 1000;
        let yield_p = YIELD_PERMILLE.load(Ordering::Relaxed);
        let spin_p = SPIN_PERMILLE.load(Ordering::Relaxed);
        if roll < yield_p {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        } else if roll < yield_p + spin_p {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            let spins = s >> 48 | 1;
            let spins = spins % SPIN_MAX.load(Ordering::Relaxed).max(1) + 1;
            for _ in 0..spins {
                core::hint::spin_loop();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Chaos state is process-global, so keep everything in one test to
    // avoid cross-test interference under the parallel test runner.
    #[test]
    fn configure_enable_disable_roundtrip() {
        assert!(!enabled(), "chaos must start disabled");
        on_event(Event::SkiplistCasRetry); // no-op, must not panic

        configure(ChaosConfig {
            seed: 42,
            yield_permille: 0,
            spin_permille: 1000,
            spin_max: 4,
        });
        assert!(enabled());
        for _ in 0..64 {
            on_event(Event::SkiplistCasRetry);
        }
        // Other tests in this binary may record telemetry events (and
        // thus perturb) concurrently, so assert lower bounds only.
        assert!(injected() >= 64, "spin_permille=1000 injects every event");

        // Reconfiguring resets the injection counter and epoch.
        configure(ChaosConfig::aggressive(7));
        assert!(enabled());
        assert!(injected() < 64, "configure resets the injected counter");

        disable();
        assert!(!enabled());
        on_event(Event::MqBufferFlush); // no-op, must not panic
    }
}
