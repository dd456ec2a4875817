//! Deterministic fault injection for the chaos suites.
//!
//! [`FailPoint`] is the workspace's one [`FaultHook`] implementation: a
//! builder over per-class triggers (worker-task panics, sim-step
//! panics/failures/delays, restructure failures, ring-publish denials)
//! with atomic injection counters, so a test can both *cause* a precise
//! fault and later *assert* exactly how many times it fired — e.g. that
//! `sim_restarts_total` equals the number of injected sim panics.
//!
//! Determinism: triggers key on the step number / evaluation ordinal
//! carried by the [`FaultSite`], not on wall-clock or randomness, so a
//! seeded simulation run injects the same faults every time. The only
//! scheduling-dependent trigger is [`FailPoint::worker_panic_on_task`]
//! (worker tasks race for the ordinal), which is deterministic in
//! *whether* it fires, not in which worker it hits — exactly what the
//! chaos properties need.
//!
//! [`with_watchdog`] is the companion liveness harness: it runs a
//! closure on a helper thread and panics (instead of hanging CI) if the
//! closure neither returns nor panics within the budget.

use octopus_core::fault::{FaultAction, FaultHook, FaultSite};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A deterministic, composable fault plan (module docs).
///
/// Build one with the fluent methods, wrap it in an `Arc`, and hand a
/// clone to `MonitorLoop::set_fault_hook`; keep the original to read
/// the injection counters afterwards.
#[derive(Debug, Default)]
pub struct FailPoint {
    /// Panic the n-th evaluated worker task (1-based ordinal).
    worker_panic_task: Option<u64>,
    /// Panic the simulation thread when it is about to take this step.
    sim_panic_step: Option<u32>,
    /// Refuse (without stepping) when about to take this step. One-shot
    /// — a retry of the refused step succeeds, modelling a transient
    /// fault. Encoded as `step + 1` (0 = unset) so firing can atomically
    /// clear it.
    sim_fail_step: AtomicU64,
    /// Delay this step by the given duration before taking it.
    sim_delay: Option<(u32, Duration)>,
    /// Refuse a scheduled restructure firing at this step (one-shot,
    /// same encoding as `sim_fail_step`).
    restructure_fail_step: AtomicU64,
    /// Deny the next N ring publishes (forced pinned-ring window).
    ring_denials_left: AtomicU64,

    worker_tasks_seen: AtomicU64,
    worker_panics: AtomicU64,
    sim_panics: AtomicU64,
    sim_failures: AtomicU64,
    sim_delays: AtomicU64,
    restructure_failures: AtomicU64,
    ring_denials: AtomicU64,
}

impl FailPoint {
    /// An empty plan: every site proceeds.
    pub fn new() -> FailPoint {
        FailPoint::default()
    }

    /// Panic the `n`-th worker task evaluated after arming (1-based).
    pub fn worker_panic_on_task(mut self, n: u64) -> FailPoint {
        self.worker_panic_task = Some(n);
        self
    }

    /// Panic the simulation thread when it is about to take `step`.
    pub fn panic_sim_at(mut self, step: u32) -> FailPoint {
        self.sim_panic_step = Some(step);
        self
    }

    /// Refuse `step` with an injected failure — the simulation does
    /// *not* advance, and the trigger is one-shot, so retrying the same
    /// step succeeds.
    pub fn fail_sim_at(self, step: u32) -> FailPoint {
        // relaxed: builder runs single-threaded before the plan is
        // armed; publication to the sim/worker threads happens via the
        // Arc hand-off in set_fault_hook.
        self.sim_fail_step
            .store(u64::from(step) + 1, Ordering::Relaxed);
        self
    }

    /// Stall the simulation thread for `ms` milliseconds before taking
    /// `step` (a slow step, not a failed one).
    pub fn delay_sim_step(mut self, step: u32, ms: u64) -> FailPoint {
        self.sim_delay = Some((step, Duration::from_millis(ms)));
        self
    }

    /// Refuse the restructure scheduled to fire at `step` (one-shot —
    /// the retried restructure succeeds).
    pub fn fail_restructure_at(self, step: u32) -> FailPoint {
        // relaxed: single-threaded builder (see fail_sim_at).
        self.restructure_fail_step
            .store(u64::from(step) + 1, Ordering::Relaxed);
        self
    }

    /// Deny the next `times` ring publishes — a forced back-pressure
    /// window surfacing as `RetryAfter` with cause `RingPinned` (the
    /// oldest retained step) to callers.
    pub fn deny_ring_publishes(self, times: u64) -> FailPoint {
        // relaxed: single-threaded builder (see fail_sim_at).
        self.ring_denials_left.store(times, Ordering::Relaxed);
        self
    }

    // relaxed: (all six readers below) injection counters asserted
    // after the monitor/sim threads are joined — the join is the
    // happens-before edge; the loads need no ordering of their own.

    /// Worker-task panics injected so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Sim-thread panics injected so far.
    pub fn sim_panics(&self) -> u64 {
        // relaxed: counter read post-join (see above).
        self.sim_panics.load(Ordering::Relaxed)
    }

    /// Sim-step refusals (injected `Fail`s) so far.
    pub fn sim_failures(&self) -> u64 {
        // relaxed: counter read post-join (see above).
        self.sim_failures.load(Ordering::Relaxed)
    }

    /// Delayed steps so far.
    pub fn sim_delays(&self) -> u64 {
        // relaxed: counter read post-join (see above).
        self.sim_delays.load(Ordering::Relaxed)
    }

    /// Restructure refusals so far.
    pub fn restructure_failures(&self) -> u64 {
        // relaxed: counter read post-join (see above).
        self.restructure_failures.load(Ordering::Relaxed)
    }

    /// Ring publishes denied so far.
    pub fn ring_denials(&self) -> u64 {
        // relaxed: counter read post-join (see above).
        self.ring_denials.load(Ordering::Relaxed)
    }
}

impl FaultHook for FailPoint {
    fn evaluate(&self, site: FaultSite) -> FaultAction {
        match site {
            FaultSite::WorkerTask { .. } => {
                // Ordinal of this evaluation under *this* plan — the
                // FaultCell's own seq keeps counting across hooks, so
                // a per-plan counter keeps tests independent.
                // relaxed: (this arm and every counter bump in this
                // match) the RMWs are atomic per se — each ordinal is
                // claimed once, each one-shot trigger fires once — and
                // the counters are only asserted post-join.
                let seen = self.worker_tasks_seen.fetch_add(1, Ordering::Relaxed) + 1;
                if self.worker_panic_task == Some(seen) {
                    self.worker_panics.fetch_add(1, Ordering::Relaxed);
                    return FaultAction::Panic(format!("injected: worker task {seen} panicked"));
                }
                FaultAction::Proceed
            }
            FaultSite::SimStep { step } => {
                if self.sim_panic_step == Some(step) {
                    // relaxed: post-join counter (see WorkerTask arm).
                    self.sim_panics.fetch_add(1, Ordering::Relaxed);
                    return FaultAction::Panic(format!("injected: sim panicked at step {step}"));
                }
                let armed = u64::from(step) + 1;
                // relaxed: the CAS itself makes the one-shot trigger
                // fire exactly once; no other memory depends on it.
                if self
                    .sim_fail_step
                    .compare_exchange(armed, 0, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    // relaxed: post-join counter (see WorkerTask arm).
                    self.sim_failures.fetch_add(1, Ordering::Relaxed);
                    return FaultAction::Fail(format!("injected: step {step} refused"));
                }
                if let Some((s, d)) = self.sim_delay {
                    if s == step {
                        // relaxed: post-join counter (see WorkerTask arm).
                        self.sim_delays.fetch_add(1, Ordering::Relaxed);
                        return FaultAction::DelayMs(d.as_millis() as u64);
                    }
                }
                FaultAction::Proceed
            }
            FaultSite::Restructure { step } => {
                let armed = u64::from(step) + 1;
                // relaxed: one-shot CAS (see the SimStep arm).
                if self
                    .restructure_fail_step
                    .compare_exchange(armed, 0, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    // relaxed: post-join counter (see WorkerTask arm).
                    self.restructure_failures.fetch_add(1, Ordering::Relaxed);
                    return FaultAction::Fail(format!(
                        "injected: restructure at step {step} refused"
                    ));
                }
                // A panic/fail/delay plan keyed on this step applies to
                // the restructuring step too — re-dispatch as SimStep.
                self.evaluate(FaultSite::SimStep { step })
            }
            FaultSite::RingPublish { .. } => {
                // relaxed: the atomic decrement alone bounds the deny
                // window exactly; counter asserted post-join.
                let denied = self
                    .ring_denials_left
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok();
                if denied {
                    // relaxed: post-join counter (see WorkerTask arm).
                    self.ring_denials.fetch_add(1, Ordering::Relaxed);
                    return FaultAction::Deny;
                }
                FaultAction::Proceed
            }
        }
    }
}

/// Runs `f` on a helper thread and panics if it neither returns nor
/// panics within `timeout` — the chaos suite's no-deadlock harness.
///
/// On success the closure's value is returned; if the closure panics,
/// the payload is re-raised on the caller thread (so `#[should_panic]`
/// and failure messages behave as if `f` had run inline). On timeout
/// the helper thread is *leaked* (there is no safe way to kill it) and
/// the caller panics with `name` in the message — CI sees a fast,
/// attributable failure instead of a hung job.
pub fn with_watchdog<T, F>(name: &str, timeout: Duration, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = f();
        // Receiver gone only on watchdog timeout; nothing to do then.
        let _ = tx.send(());
        out
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // Closure panicked before sending: join returns its payload.
            match handle.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: '{name}' still running after {timeout:?} — possible deadlock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_window_is_exact() {
        let fp = FailPoint::new().deny_ring_publishes(2);
        let site = FaultSite::RingPublish { latest_step: 1 };
        assert_eq!(fp.evaluate(site), FaultAction::Deny);
        assert_eq!(fp.evaluate(site), FaultAction::Deny);
        assert_eq!(fp.evaluate(site), FaultAction::Proceed);
        assert_eq!(fp.ring_denials(), 2);
    }

    #[test]
    fn worker_ordinal_trigger_fires_once() {
        let fp = FailPoint::new().worker_panic_on_task(2);
        let a = fp.evaluate(FaultSite::WorkerTask { seq: 0 });
        let b = fp.evaluate(FaultSite::WorkerTask { seq: 1 });
        let c = fp.evaluate(FaultSite::WorkerTask { seq: 2 });
        assert_eq!(a, FaultAction::Proceed);
        assert!(matches!(b, FaultAction::Panic(_)));
        assert_eq!(c, FaultAction::Proceed);
        assert_eq!(fp.worker_panics(), 1);
    }

    #[test]
    fn restructure_site_prefers_restructure_plan() {
        let fp = FailPoint::new().fail_restructure_at(4).panic_sim_at(4);
        let a = fp.evaluate(FaultSite::Restructure { step: 4 });
        assert!(matches!(a, FaultAction::Fail(_)));
        // Without a restructure plan, the step-keyed plan applies.
        let fp = FailPoint::new().panic_sim_at(4);
        assert!(matches!(
            fp.evaluate(FaultSite::Restructure { step: 4 }),
            FaultAction::Panic(_)
        ));
    }

    #[test]
    fn watchdog_passes_value_and_panics_on_hang() {
        assert_eq!(with_watchdog("ok", Duration::from_secs(5), || 7), 7);
        let hung = std::panic::catch_unwind(|| {
            with_watchdog("hang", Duration::from_millis(50), || loop {
                std::thread::sleep(Duration::from_millis(10));
            })
        });
        let msg = *hung
            .expect_err("must time out")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("hang"), "{msg}");
    }
}
