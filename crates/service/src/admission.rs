//! Admission control in front of the monitor's query paths.
//!
//! The monitor alone assumes a well-behaved client: nothing bounds how
//! much query work piles onto the worker pool, and the only
//! back-pressure signal is [`crate::ServiceError::RingFull`]. Under
//! heavy multi-tenant traffic that is not enough — the serving stack
//! needs **bounded queues** (reject early, not after memory is spent),
//! **fairness** (one chatty tenant must not starve the rest), and
//! **deadline shedding** (work nobody is waiting for anymore must never
//! reach the pool). [`Admission`] provides all three:
//!
//! * **Bounded per-tenant queues** — each tenant owns a FIFO of pending
//!   query batches, capped at [`AdmissionConfig::queue_capacity`].
//!   Enqueueing into a full queue is refused with
//!   [`crate::ServiceError::RetryAfter`] carrying a suggested backoff,
//!   so callers can retry politely ([`Backoff`]) instead of spinning.
//! * **Fair dequeue** — round robin by count: each tenant carries a
//!   *pass*, the number of batches admitted for it (a late arrival
//!   starts at the current minimum); the non-empty tenant with the
//!   smallest pass is served next (deterministic tie-break on tenant
//!   id), so every busy tenant gets an equal share regardless of
//!   arrival order.
//! * **Deadline shedding** — a batch may carry a deadline; if it
//!   expires while queued, dequeue drops it *before* it reaches the
//!   pool, counts it (`admission_shed_total`, `deadline_miss_total`)
//!   and reports it in the drain outcome so the caller can notify the
//!   client.
//!
//! The monitor front-end is [`crate::MonitorLoop::set_admission`] /
//! [`crate::MonitorLoop::enqueue`] /
//! [`crate::MonitorLoop::drain_admitted`]; with admission attached,
//! ring back-pressure is also surfaced as `RetryAfter` instead of the
//! raw `RingFull`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use octopus_geom::Aabb;

use crate::batch::QueryResult;
use crate::monitor::{Overload, ServiceError};
use crate::telemetry::AdmissionMetrics;

/// Admission-layer tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum pending batches *per tenant*; enqueueing beyond this is
    /// refused with [`crate::ServiceError::RetryAfter`].
    pub queue_capacity: usize,
    /// Deadline applied to batches enqueued without an explicit one
    /// (`None` = no deadline: queued work never expires).
    pub default_deadline: Option<Duration>,
    /// Base of the suggested backoff carried by `RetryAfter`.
    pub base_backoff: Duration,
    /// Cap of the suggested backoff.
    pub max_backoff: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: 64,
            default_deadline: None,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        }
    }
}

/// Handle of one enqueued batch (unique per admission front, see
/// [`crate::MonitorLoop::set_admission`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub u64);

/// One queued batch.
struct Pending {
    ticket: TicketId,
    queries: Vec<Aabb>,
    deadline: Option<Instant>,
}

/// One tenant's bounded FIFO plus its place in the fair order.
struct TenantQueue {
    tenant: u32,
    pass: u64,
    queue: VecDeque<Pending>,
}

/// A batch handed out by the fair dequeue, ready to execute.
#[derive(Debug)]
pub(crate) struct Admitted {
    /// The ticket issued when the batch was enqueued.
    pub ticket: TicketId,
    /// The tenant that enqueued it.
    pub tenant: u32,
    /// The queries to execute.
    pub queries: Vec<Aabb>,
}

/// A batch dropped by deadline shedding, reported so the caller can
/// tell the waiting client.
#[derive(Clone, Debug)]
pub struct ShedTicket {
    /// The dropped batch's ticket.
    pub ticket: TicketId,
    /// The tenant it belonged to.
    pub tenant: u32,
    /// How many queries it contained (each counts as a deadline miss).
    pub queries: usize,
}

/// One admitted batch's executed results
/// (from [`crate::MonitorLoop::drain_admitted`]).
#[derive(Debug)]
pub struct AdmittedBatch {
    /// The ticket returned by [`crate::MonitorLoop::enqueue`].
    pub ticket: TicketId,
    /// The tenant that enqueued it.
    pub tenant: u32,
    /// The snapshot step the batch was answered at.
    pub step: u32,
    /// Per-query result buffers (recycle via
    /// [`crate::MonitorLoop::recycle`]).
    pub results: Vec<QueryResult>,
}

/// Everything one [`crate::MonitorLoop::drain_admitted`] call did:
/// executed batches in fair order, plus the batches deadline shedding
/// dropped on the way.
#[derive(Debug, Default)]
pub struct DrainOutcome {
    /// Executed batches, in fair dequeue order.
    pub batches: Vec<AdmittedBatch>,
    /// Batches dropped because their deadline expired while queued.
    pub shed: Vec<ShedTicket>,
}

/// Cumulative admission counters (mirrored into telemetry when
/// attached; always readable via
/// [`crate::MonitorLoop::admission_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Batches accepted into a queue.
    pub enqueued: u64,
    /// Batches handed to the pool by the fair dequeue.
    pub admitted: u64,
    /// Batches dropped by deadline shedding.
    pub shed_tickets: u64,
    /// Individual queries inside shed batches.
    pub deadline_misses: u64,
    /// Enqueue attempts refused with `RetryAfter` (queue full).
    pub rejected: u64,
    /// Batches currently queued across all tenants.
    pub queue_depth: usize,
}

/// The admission front: bounded per-tenant queues, round-robin fair
/// dequeue, deadline shedding (see the module docs). The monitor owns
/// it and changes it through `&mut self`, so issuing a ticket and
/// queueing its batch cannot be split by another caller.
pub(crate) struct Admission {
    cfg: AdmissionConfig,
    tenants: Vec<TenantQueue>,
    next_ticket: u64,
    depth: usize,
    enqueued: u64,
    admitted: u64,
    shed_tickets: u64,
    deadline_misses: u64,
    rejected: u64,
    shed_log: Vec<ShedTicket>,
    metrics: Option<AdmissionMetrics>,
}

impl Admission {
    /// New admission front with no tenants registered (tenants appear
    /// on first enqueue).
    pub(crate) fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            tenants: Vec::new(),
            next_ticket: 0,
            depth: 0,
            enqueued: 0,
            admitted: 0,
            shed_tickets: 0,
            deadline_misses: 0,
            rejected: 0,
            shed_log: Vec::new(),
            metrics: None,
        }
    }

    fn tenant_mut(&mut self, tenant: u32) -> &mut TenantQueue {
        if let Some(i) = self.tenants.iter().position(|t| t.tenant == tenant) {
            return &mut self.tenants[i];
        }
        // A new tenant starts at the current minimum pass so it gets
        // its fair share from now on — no burst credit for arriving
        // late, no penalty either.
        let pass = self.tenants.iter().map(|t| t.pass).min().unwrap_or(0);
        self.tenants.push(TenantQueue {
            tenant,
            pass,
            queue: VecDeque::new(),
        });
        self.tenants.last_mut().expect("just pushed")
    }

    fn publish_depth(&self) {
        if let Some(m) = &self.metrics {
            m.queue_depth.set_u64(self.depth as u64);
        }
    }

    pub(crate) fn attach_metrics(&mut self, metrics: &AdmissionMetrics) {
        self.metrics = Some(metrics.clone());
        self.publish_depth();
    }

    /// Total batches currently queued across all tenants.
    pub(crate) fn queue_depth(&self) -> usize {
        self.depth
    }

    /// The suggested backoff for the current pressure level: the base,
    /// doubled once the queue is at capacity, capped.
    pub(crate) fn suggested_backoff(&self, queued: usize) -> Duration {
        let base = self.cfg.base_backoff;
        let suggestion = if queued >= self.cfg.queue_capacity {
            base.checked_mul(2).unwrap_or(self.cfg.max_backoff)
        } else {
            base
        };
        suggestion.min(self.cfg.max_backoff)
    }

    /// Queues `queries` for `tenant`. `deadline` is relative to `now`
    /// (falling back to the configured default); expired batches are
    /// shed at dequeue, before they reach the pool. A deadline past
    /// the clock's range never expires.
    pub(crate) fn enqueue(
        &mut self,
        tenant: u32,
        queries: Vec<Aabb>,
        deadline: Option<Duration>,
        now: Instant,
    ) -> Result<TicketId, ServiceError> {
        let capacity = self.cfg.queue_capacity;
        let deadline = deadline
            .or(self.cfg.default_deadline)
            .and_then(|d| now.checked_add(d));
        let queued = self
            .tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .map_or(0, |t| t.queue.len());
        if queued >= capacity {
            self.rejected += 1;
            if let Some(m) = &self.metrics {
                m.retry_after.inc();
            }
            return Err(ServiceError::RetryAfter {
                suggested_backoff: self.suggested_backoff(queued),
                cause: Overload::QueueFull {
                    tenant,
                    depth: queued,
                },
            });
        }
        let ticket = TicketId(self.next_ticket);
        self.next_ticket += 1;
        self.tenant_mut(tenant).queue.push_back(Pending {
            ticket,
            queries,
            deadline,
        });
        self.depth += 1;
        self.enqueued += 1;
        if let Some(m) = &self.metrics {
            m.enqueued.inc();
        }
        self.publish_depth();
        Ok(ticket)
    }

    /// Fair dequeue: pops the next non-expired batch from the
    /// non-empty tenant with the smallest pass, shedding every expired
    /// batch it encounters on the way (counted and logged; shed batches
    /// do not advance the tenant's pass — fairness charges for work
    /// executed, not work dropped). `None` when all queues are empty.
    pub(crate) fn next_admitted(&mut self, now: Instant) -> Option<Admitted> {
        loop {
            let idx = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.queue.is_empty())
                .min_by_key(|(_, t)| (t.pass, t.tenant))
                .map(|(i, _)| i)?;
            let t = &mut self.tenants[idx];
            let tenant = t.tenant;
            let pending = t.queue.pop_front().expect("selected queue is non-empty");
            self.depth -= 1;
            if pending.deadline.is_some_and(|d| now >= d) {
                self.shed_tickets += 1;
                self.deadline_misses += pending.queries.len() as u64;
                if let Some(m) = &self.metrics {
                    m.shed.inc();
                    m.deadline_misses.add(pending.queries.len() as u64);
                }
                self.shed_log.push(ShedTicket {
                    ticket: pending.ticket,
                    tenant,
                    queries: pending.queries.len(),
                });
                continue;
            }
            self.tenants[idx].pass += 1;
            self.admitted += 1;
            if let Some(m) = &self.metrics {
                m.admitted.inc();
            }
            self.publish_depth();
            return Some(Admitted {
                ticket: pending.ticket,
                tenant,
                queries: pending.queries,
            });
        }
    }

    /// Takes the accumulated shed log (cleared afterwards).
    pub(crate) fn take_shed(&mut self) -> Vec<ShedTicket> {
        self.publish_depth();
        std::mem::take(&mut self.shed_log)
    }

    /// Cumulative counters.
    pub(crate) fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            enqueued: self.enqueued,
            admitted: self.admitted,
            shed_tickets: self.shed_tickets,
            deadline_misses: self.deadline_misses,
            rejected: self.rejected,
            queue_depth: self.depth,
        }
    }

    /// Counts the ring-back-pressure conversion (`RingFull` →
    /// `RetryAfter`) into the retry-after family.
    pub(crate) fn note_retry_after(&self) {
        if let Some(m) = &self.metrics {
            m.retry_after.inc();
        }
    }
}

/// Caller-side bounded exponential backoff for
/// [`crate::ServiceError::RetryAfter`] /
/// [`crate::ServiceError::RingFull`] back-pressure: delays double from
/// `base` up to `cap`, honouring the server's `suggested_backoff` when
/// it is larger.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// Backoff schedule `min(cap, base·2ⁿ)` for attempt n = 0, 1, 2, …
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff {
            base,
            cap: cap.max(base),
            attempt: 0,
        }
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt += 1;
        self.base
            .checked_mul(1 << exp)
            .unwrap_or(self.cap)
            .min(self.cap)
    }

    /// Attempts consumed since construction or the last
    /// [`Backoff::reset`].
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Restarts the schedule from `base` (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Runs `op`, retrying on retryable back-pressure errors
    /// ([`crate::ServiceError::retry_hint`]) with bounded exponential
    /// delays, at most `max_retries` retries. Non-retryable errors and
    /// the error of the final exhausted attempt propagate unchanged.
    pub fn run<T>(
        &mut self,
        max_retries: u32,
        mut op: impl FnMut() -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let Some(hint) = e.retry_hint() else {
                        return Err(e);
                    };
                    if self.attempt >= max_retries {
                        return Err(e);
                    }
                    let delay = self.next_delay().max(hint).min(self.cap);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes(n: usize) -> Vec<Aabb> {
        use octopus_geom::Point3;
        (0..n)
            .map(|i| {
                let o = i as f32 * 0.1;
                Aabb::new(Point3::new(o, o, o), Point3::new(o + 0.2, o + 0.2, o + 0.2))
            })
            .collect()
    }

    #[test]
    fn equal_weights_interleave_deterministically() {
        let mut adm = Admission::new(AdmissionConfig::default());
        let now = Instant::now();
        for _ in 0..3 {
            adm.enqueue(7, boxes(1), None, now).unwrap();
            adm.enqueue(3, boxes(1), None, now).unwrap();
        }
        let order: Vec<u32> =
            std::iter::from_fn(|| adm.next_admitted(now).map(|a| a.tenant)).collect();
        assert_eq!(order, vec![3, 7, 3, 7, 3, 7], "tie-break on tenant id");
    }

    #[test]
    fn full_queue_is_refused_with_retry_after() {
        let mut adm = Admission::new(AdmissionConfig {
            queue_capacity: 2,
            ..AdmissionConfig::default()
        });
        let now = Instant::now();
        adm.enqueue(0, boxes(1), None, now).unwrap();
        adm.enqueue(0, boxes(1), None, now).unwrap();
        let err = adm.enqueue(0, boxes(1), None, now).unwrap_err();
        match err {
            ServiceError::RetryAfter {
                suggested_backoff,
                cause:
                    Overload::QueueFull {
                        tenant: 0,
                        depth: 2,
                    },
            } => assert!(!suggested_backoff.is_zero()),
            other => panic!("expected RetryAfter, got {other:?}"),
        }
        assert_eq!(adm.stats().rejected, 1);
        // Another tenant's queue is unaffected by tenant 0 being full.
        adm.enqueue(1, boxes(1), None, now).unwrap();
    }

    #[test]
    fn expired_batches_are_shed_at_dequeue() {
        let mut adm = Admission::new(AdmissionConfig::default());
        let now = Instant::now();
        adm.enqueue(0, boxes(3), Some(Duration::ZERO), now).unwrap();
        adm.enqueue(0, boxes(2), None, now).unwrap();
        // Dequeue strictly after the deadline instant.
        let later = now + Duration::from_millis(1);
        let a = adm.next_admitted(later).expect("live batch admitted");
        assert_eq!(a.queries.len(), 2, "the expired batch was skipped");
        let stats = adm.stats();
        assert_eq!(stats.shed_tickets, 1);
        assert_eq!(stats.deadline_misses, 3);
        assert_eq!(adm.take_shed().len(), 1);
        assert!(adm.take_shed().is_empty(), "shed log drains");
    }

    #[test]
    fn interleaved_enqueues_and_drains_hand_out_every_ticket_once() {
        let mut adm = Admission::new(AdmissionConfig::default());
        let now = Instant::now();
        let mut issued = Vec::new();
        let mut drained = Vec::new();
        for round in 0..12u32 {
            issued.push(adm.enqueue(round % 3, boxes(1), None, now).unwrap());
            if round % 2 == 1 {
                drained.extend(adm.next_admitted(now).map(|a| a.ticket));
            }
        }
        drained.extend(std::iter::from_fn(|| {
            adm.next_admitted(now).map(|a| a.ticket)
        }));
        let mut distinct = issued.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), issued.len(), "ticket ids are distinct");
        drained.sort();
        assert_eq!(drained, distinct, "every ticket drained exactly once");
        let stats = adm.stats();
        assert_eq!(stats.enqueued, stats.admitted);
        assert_eq!(stats.enqueued, 12);
        assert_eq!(adm.queue_depth(), 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(8));
        assert_eq!(b.next_delay(), Duration::from_millis(1));
        assert_eq!(b.next_delay(), Duration::from_millis(2));
        assert_eq!(b.next_delay(), Duration::from_millis(4));
        assert_eq!(b.next_delay(), Duration::from_millis(8));
        assert_eq!(b.next_delay(), Duration::from_millis(8), "capped");
        assert_eq!(b.attempts(), 5);
        b.reset();
        assert_eq!(b.next_delay(), Duration::from_millis(1));
    }

    #[test]
    fn backoff_run_retries_only_retryable_errors() {
        let mut b = Backoff::new(Duration::from_micros(1), Duration::from_micros(10));
        let mut calls = 0;
        let out: Result<u32, _> = b.run(5, || {
            calls += 1;
            if calls < 3 {
                Err(ServiceError::RetryAfter {
                    suggested_backoff: Duration::from_micros(1),
                    cause: Overload::RingPinned { pinned_step: 4 },
                })
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 3);

        let mut b = Backoff::new(Duration::from_micros(1), Duration::from_micros(10));
        let mut calls = 0;
        let out: Result<u32, _> = b.run(5, || {
            calls += 1;
            Err(ServiceError::NoStepInFlight)
        });
        assert!(matches!(out, Err(ServiceError::NoStepInFlight)));
        assert_eq!(calls, 1, "non-retryable errors are not retried");
    }

    #[test]
    fn backoff_run_exhausts_after_max_retries() {
        let mut b = Backoff::new(Duration::from_micros(1), Duration::from_micros(5));
        let mut calls = 0;
        let out: Result<(), _> = b.run(3, || {
            calls += 1;
            Err(ServiceError::RingFull { pinned_step: 1 })
        });
        assert!(matches!(out, Err(ServiceError::RingFull { .. })));
        assert_eq!(calls, 4, "initial attempt + 3 retries");
    }
}
