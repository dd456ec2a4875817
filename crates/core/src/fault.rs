//! Fault-injection hook points for the serving stack.
//!
//! Production serving code (worker pool, monitor loop, simulation
//! supervisor) consults a [`FaultCell`] at a small number of
//! well-defined sites. When no hook is armed the consultation is a
//! single relaxed atomic load — the facility is free in production
//! builds. When a test arms a [`FaultHook`] (e.g. the deterministic
//! `FailPoint` in `octopus-testkit`), the hook decides per site whether
//! to proceed, panic, delay, fail, or deny — which is how the chaos
//! suites prove that the monitor survives worker panics, sim-thread
//! panics, delayed steps, forced pinned-ring windows (`RetryAfter` with
//! cause `RingPinned`), and failed
//! restructures without losing exactness or liveness.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A place in the serving stack where a fault may be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A worker-pool task is about to execute. `seq` is a global,
    /// monotonically increasing evaluation number (only advanced while
    /// a hook is armed), so plans can target "the n-th task".
    WorkerTask {
        /// Armed-evaluation sequence number of this task.
        seq: u64,
    },
    /// The simulation thread is about to compute `step` (an ordinary
    /// deformation step).
    SimStep {
        /// The step about to be computed.
        step: u32,
    },
    /// The simulation thread is about to compute `step`, and the
    /// restructure schedule fires at that step — a failure injected
    /// here models a failed connectivity restructure.
    Restructure {
        /// The step about to be computed.
        step: u32,
    },
    /// The monitor is about to publish a finished step into the
    /// snapshot ring. [`FaultAction::Deny`] here forces a pinned-ring
    /// back-pressure window (`RetryAfter` with cause `RingPinned` at the
    /// oldest retained step) without needing a real pinned reader.
    RingPublish {
        /// Newest step currently published in the ring.
        latest_step: u32,
    },
}

/// What an armed hook asks the consulting site to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: run normally.
    Proceed,
    /// Panic with the given message (sites catch this with their
    /// regular panic machinery, so it models a genuine crash).
    Panic(String),
    /// Sleep for the given number of milliseconds, then run normally
    /// (models a stalled worker or a slow simulation step).
    DelayMs(u64),
    /// Fail the operation with the given message instead of running it
    /// (models e.g. a restructure that errors out). The underlying
    /// state is left untouched, so the operation may be retried.
    Fail(String),
    /// Refuse the operation (models resource exhaustion, e.g. a full
    /// snapshot ring). Sites map this to their back-pressure error.
    Deny,
}

/// Decides, per [`FaultSite`] evaluation, which [`FaultAction`] to take.
///
/// Implementations must be deterministic given the sequence of sites
/// they observe — the chaos suites rely on replaying the same plan
/// against a fault-free reference run.
pub trait FaultHook: Send + Sync {
    /// Evaluate one site consultation.
    fn evaluate(&self, site: FaultSite) -> FaultAction;
}

/// A shareable, arm-able fault hook slot.
///
/// Sites keep an `Arc<FaultCell>` and call [`FaultCell::fire`] at each
/// hook point. Disarmed (the default), `fire` is one relaxed atomic
/// load and returns [`FaultAction::Proceed`] — no locking, no
/// allocation. [`FaultCell::arm`] installs a hook for the lifetime of a
/// test; [`FaultCell::disarm`] removes it.
#[derive(Default)]
pub struct FaultCell {
    armed: AtomicBool,
    hook: RwLock<Option<Arc<dyn FaultHook>>>,
    task_seq: AtomicU64,
}

impl FaultCell {
    /// New, disarmed cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install `hook`; subsequent [`FaultCell::fire`] calls consult it.
    pub fn arm(&self, hook: Arc<dyn FaultHook>) {
        *self.hook.write().unwrap_or_else(PoisonError::into_inner) = Some(hook);
        self.armed.store(true, Ordering::Release);
    }

    /// Remove the hook; [`FaultCell::fire`] returns to the free path.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
        *self.hook.write().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Whether a hook is currently armed (one relaxed load).
    #[inline]
    pub fn armed(&self) -> bool {
        // relaxed: an advisory fast-path gate — a caller that sees a
        // stale value just takes the wrong branch for one call, and
        // the slow path reads the hook itself under the RwLock, which
        // synchronizes with arm/disarm.
        self.armed.load(Ordering::Relaxed)
    }

    /// Next worker-task evaluation number. Only meaningful while
    /// armed; sites call it lazily inside the armed branch so the
    /// counter does not advance in production.
    #[inline]
    pub fn next_task_seq(&self) -> u64 {
        // relaxed: a test-only sequence number; fetch_add is atomic
        // per se, and no other memory hangs off its value.
        self.task_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Consult the armed hook for `site`. Disarmed: returns
    /// [`FaultAction::Proceed`] after a single relaxed load.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> FaultAction {
        if !self.armed() {
            return FaultAction::Proceed;
        }
        self.fire_slow(site)
    }

    #[cold]
    fn fire_slow(&self, site: FaultSite) -> FaultAction {
        let guard = self.hook.read().unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(hook) => hook.evaluate(site),
            None => FaultAction::Proceed,
        }
    }
}

impl std::fmt::Debug for FaultCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultCell")
            .field("armed", &self.armed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysDeny;
    impl FaultHook for AlwaysDeny {
        fn evaluate(&self, _site: FaultSite) -> FaultAction {
            FaultAction::Deny
        }
    }

    #[test]
    fn disarmed_cell_proceeds() {
        let cell = FaultCell::new();
        assert!(!cell.armed());
        assert_eq!(
            cell.fire(FaultSite::SimStep { step: 1 }),
            FaultAction::Proceed
        );
    }

    #[test]
    fn arm_disarm_roundtrip() {
        let cell = FaultCell::new();
        cell.arm(Arc::new(AlwaysDeny));
        assert!(cell.armed());
        assert_eq!(
            cell.fire(FaultSite::RingPublish { latest_step: 3 }),
            FaultAction::Deny
        );
        cell.disarm();
        assert_eq!(
            cell.fire(FaultSite::RingPublish { latest_step: 3 }),
            FaultAction::Proceed
        );
    }

    #[test]
    fn task_seq_is_monotone() {
        let cell = FaultCell::new();
        assert_eq!(cell.next_task_seq(), 0);
        assert_eq!(cell.next_task_seq(), 1);
        assert_eq!(cell.next_task_seq(), 2);
    }
}
