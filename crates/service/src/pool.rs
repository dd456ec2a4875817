//! The persistent worker pool: long-lived, parked worker threads shared
//! by the batch executor and the batch engine.
//!
//! Spawning scoped threads per batch — stack allocation, kernel thread
//! creation, TLS setup, join teardown — is a fixed cost paid on every
//! call, large enough to lose to the sequential executor at small
//! batches. [`WorkerPool`] pays it once: workers are spawned at
//! construction, park in a channel `recv` (condvar-based under the
//! hood) between submissions, and live until the pool is dropped.
//!
//! [`WorkerPool::run`] is a *scoped* submission: the closures may borrow
//! from the caller's stack (`&Octopus`, `&Mesh`, `&mut QueryScratch`, …)
//! because `run` does not return until every submitted task has
//! finished — the same guarantee `std::thread::scope` gives, without the
//! spawns. A panicking task is caught on the worker (so the worker
//! survives to serve later batches), and the payload is re-thrown on the
//! calling thread once all of the call's tasks have completed.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use octopus_core::fault::{FaultAction, FaultCell, FaultHook, FaultSite};
use octopus_telemetry::StaticCounter;

use crate::latch::Latch;
use crate::telemetry::PoolMetrics;

/// One unit of work for [`WorkerPool::run`]: a closure that may borrow
/// from the submitting stack frame (the pool blocks until it finishes).
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// The lifetime-erased job actually shipped to a worker thread: the
/// task plus the submission's completion latch. Executing (catch the
/// unwind, run, count down) happens in the worker loop, so submission
/// costs one box per task — no wrapper closure.
struct Job {
    task: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
    fault: Arc<FaultCell>,
}

impl Job {
    fn execute(self) {
        let Job { task, latch, fault } = self;
        let outcome = panic::catch_unwind(AssertUnwindSafe(move || {
            inject_task_fault(&fault);
            task();
        }))
        .err();
        latch.complete(outcome);
    }
}

/// Consults the pool's fault cell at the per-task site. Runs *inside*
/// the panic containment (of [`Job::execute`] or the inline-first
/// path), so an injected panic rides the normal propagation machinery
/// and the completion latch always counts down — injection can never
/// deadlock a submission. The site is evaluated **before** the task
/// body runs, i.e. before any result buffer is leased, so an injected
/// panic cannot leak recycler buffers either.
fn inject_task_fault(fault: &FaultCell) {
    if !fault.armed() {
        return;
    }
    match fault.fire(FaultSite::WorkerTask {
        seq: fault.next_task_seq(),
    }) {
        FaultAction::Panic(msg) => panic!("{msg}"),
        FaultAction::DelayMs(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        FaultAction::Proceed | FaultAction::Fail(_) | FaultAction::Deny => {}
    }
}

/// Process-wide count of worker threads ever spawned by the service
/// layer's [`WorkerPool`]s. The steady-state tests assert this stays
/// flat across batches. A telemetry
/// [`StaticCounter`] rather than a hand-rolled atomic so it can be
/// mirrored into registry snapshots as `pool_threads_spawned_total`.
static THREADS_SPAWNED: StaticCounter = StaticCounter::new();

/// Total worker threads spawned by the service layer so far in this
/// process (instrumentation behind the zero-spawn steady-state tests).
pub fn threads_spawned_total() -> usize {
    THREADS_SPAWNED.value() as usize
}

/// A persistent pool of parked worker threads executing scoped task
/// submissions (see the module docs).
///
/// `threads` is the pool's *total* parallelism: the calling thread
/// always executes one task of each [`WorkerPool::run`] inline, so a
/// pool of `threads = n` spawns `n - 1` background workers — and a pool
/// of 1 spawns none and degenerates to plain sequential calls with no
/// synchronisation at all.
///
/// Tasks of one `run` call must not themselves call `run` on the same
/// pool: the inner call's jobs would queue behind the outer tasks that
/// are blocked waiting for them. The service layer never nests
/// submissions.
pub struct WorkerPool {
    /// One channel per worker; jobs are dealt round-robin. Dropping the
    /// senders disconnects the channels and the workers exit.
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Telemetry handles, shared with the worker threads (which count
    /// their own park/unpark transitions). First-attach-wins; `&self`
    /// attachable because workers already hold clones of the cell.
    metrics: Arc<OnceLock<PoolMetrics>>,
    /// Fault-injection slot consulted once per task (a relaxed load
    /// when disarmed); shared with every job shipped to the workers.
    fault: Arc<FaultCell>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of total parallelism `threads` (min 1; `threads - 1`
    /// background workers).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let metrics: Arc<OnceLock<PoolMetrics>> = Arc::new(OnceLock::new());
        let mut senders = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for _ in 1..threads {
            let (tx, rx) = channel::<Job>();
            let metrics = Arc::clone(&metrics);
            THREADS_SPAWNED.inc();
            handles.push(std::thread::spawn(move || {
                // Parked here between submissions; exits when the pool
                // drops its sender. `execute` contains any unwind, so
                // one loop serves the pool's whole life. Draining
                // already-queued jobs via `try_recv` distinguishes a
                // genuine park (empty queue → blocking `recv`) from
                // back-to-back work, so the park/unpark counters see
                // state transitions, not per-job noise.
                loop {
                    match rx.try_recv() {
                        Ok(job) => job.execute(),
                        Err(TryRecvError::Disconnected) => break,
                        Err(TryRecvError::Empty) => {
                            if let Some(m) = metrics.get() {
                                m.parks.inc();
                            }
                            match rx.recv() {
                                Ok(job) => {
                                    if let Some(m) = metrics.get() {
                                        m.unparks.inc();
                                    }
                                    job.execute();
                                }
                                Err(_) => break,
                            }
                        }
                    }
                }
            }));
            senders.push(tx);
        }
        WorkerPool {
            senders,
            handles,
            threads,
            metrics,
            fault: Arc::new(FaultCell::new()),
        }
    }

    /// Arms `hook` on the per-task fault site (chaos testing; see
    /// [`octopus_core::fault`]).
    pub fn arm_faults(&self, hook: Arc<dyn FaultHook>) {
        self.fault.arm(hook);
    }

    /// Disarms the per-task fault site.
    pub fn disarm_faults(&self) {
        self.fault.disarm();
    }

    /// Attaches telemetry: submission sizes, queue depth and the
    /// workers' park/unpark transitions start recording. First attach
    /// wins (the handles are shared with running workers).
    pub fn attach_metrics(&self, metrics: &PoolMetrics) {
        let _ = self.metrics.set(metrics.clone());
    }

    /// The pool's total parallelism (background workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of background worker threads (0 for a pool of 1).
    pub fn worker_threads(&self) -> usize {
        self.handles.len()
    }

    /// Executes every task, the first inline on the calling thread and
    /// the rest dealt round-robin to the parked workers, and returns
    /// once **all** of them have finished. If any task panicked, the
    /// first captured payload is re-thrown here — after the barrier, so
    /// borrowed data is never still in use when the caller unwinds, and
    /// the pool remains fully usable for later submissions.
    // One of the workspace's two unsafe opt-ins (the other is geom's
    // prefetch): the task-lifetime erasure below is the crate's only
    // unsafe code, scoped to this method.
    #[allow(unsafe_code)]
    pub fn run(&self, tasks: Vec<Task<'_>>) {
        if let Some(m) = self.metrics.get() {
            if !tasks.is_empty() {
                m.runs.inc();
                m.tasks_per_run.record(tasks.len() as u64);
                // Depth of the worker queues for this submission: all
                // tasks except the one the caller runs inline.
                let queued = if self.senders.is_empty() {
                    0
                } else {
                    tasks.len() - 1
                };
                m.queue_depth.set_u64(queued as u64);
            }
        }
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else { return };
        let latch = Arc::new(Latch::default());
        for (j, task) in tasks.enumerate() {
            // SAFETY: the job runs before `run` returns — the latch
            // below blocks (even when the inline task panics) until
            // every submitted job has completed, so the erased borrows
            // never outlive the frames they point into. This is the
            // `std::thread::scope` guarantee with recycled threads.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe {
                std::mem::transmute::<Task<'_>, Box<dyn FnOnce() + Send + 'static>>(task)
            };
            let job = Job {
                task,
                latch: Arc::clone(&latch),
                fault: Arc::clone(&self.fault),
            };
            latch.add();
            if self.senders.is_empty() {
                job.execute();
            } else if let Err(returned) = self.senders[j % self.senders.len()].send(job) {
                // Worker unreachable (cannot happen while the pool is
                // alive, but don't lose the task): run it inline.
                returned.0.execute();
            }
        }
        let inline_panic = panic::catch_unwind(AssertUnwindSafe(|| {
            inject_task_fault(&self.fault);
            first();
        }))
        .err();
        let worker_panic = latch.wait();
        if let Some(p) = worker_panic.or(inline_panic) {
            panic::resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect first so every worker's `recv` errors out, then
        // join — no stop message can race past queued jobs because the
        // channel drains in order before reporting disconnection.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_executes_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        for round in 1..=5usize {
            let tasks: Vec<Task<'_>> = (0..round)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn tasks_may_borrow_mutably_from_the_caller() {
        let pool = WorkerPool::new(3);
        let mut slots = [0u64; 7];
        {
            let tasks: Vec<Task<'_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, s)| Box::new(move || *s = i as u64 + 1) as Task<'_>)
                .collect();
            pool.run(tasks);
        }
        assert_eq!(slots, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn single_thread_pool_spawns_nothing_and_runs_inline() {
        // Both properties are read off this pool and this thread: the
        // process-wide spawn count moves whenever a sibling test builds
        // a pool, so it cannot show that this one built none.
        let pool = WorkerPool::new(1);
        assert_eq!(pool.worker_threads(), 0);
        let caller = std::thread::current().id();
        let ran_on = std::sync::Mutex::new(Vec::new());
        pool.run(vec![
            Box::new(|| ran_on.lock().unwrap().push(std::thread::current().id())) as Task<'_>,
            Box::new(|| ran_on.lock().unwrap().push(std::thread::current().id())) as Task<'_>,
        ]);
        assert_eq!(ran_on.into_inner().unwrap(), vec![caller, caller]);
    }

    #[test]
    fn empty_submission_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(Vec::new());
    }

    #[test]
    fn panics_propagate_but_do_not_poison_the_pool() {
        let pool = WorkerPool::new(3);
        for round in 0..3 {
            // A panicking task on a *worker* thread (the inline task is
            // the first one, which succeeds here).
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(vec![
                    Box::new(|| {}) as Task<'_>,
                    Box::new(|| panic!("task boom")) as Task<'_>,
                    Box::new(|| {}) as Task<'_>,
                ]);
            }));
            assert!(caught.is_err(), "round {round}: panic must propagate");
            // The pool still works: the panicked worker survived.
            let ok = AtomicUsize::new(0);
            let tasks: Vec<Task<'_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
            assert_eq!(ok.load(Ordering::Relaxed), 4, "round {round}");
        }
    }

    #[test]
    fn inline_task_panic_still_waits_for_workers() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&finished);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| panic!("inline boom")) as Task<'_>,
                Box::new(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    f.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>,
            ]);
        }));
        assert!(caught.is_err());
        // By the time `run` unwound, the worker task had completed — the
        // barrier held even though the inline task panicked.
        assert_eq!(finished.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_joins_all_workers_without_hanging() {
        let pool = WorkerPool::new(4);
        let n = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    n.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        drop(pool); // must terminate promptly — the test would hang otherwise
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }
}
