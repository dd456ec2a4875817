//! The worker pool's completion latch: the one hand-off in the service
//! that threads really race on.
//!
//! [`crate::WorkerPool::run`] erases the lifetime of the tasks it ships
//! to its workers, which is sound only because it does not return
//! before every shipped task has finished. The latch is that barrier:
//! the caller [`Latch::add`]s one count per shipped job, each worker
//! [`Latch::complete`]s its job (with the job's panic payload, if any),
//! and [`Latch::wait`] blocks until the count is back to zero.
//!
//! Its primitives come from `octopus_sync`, so under
//! `RUSTFLAGS="--cfg octopus_model"` the model suite below explores
//! every interleaving of completers against the waiter: `wait` returns
//! only after every added job completed, two completers never leave the
//! waiter asleep, and a completer's panic payload reaches the waiter.
//! A seeded double that reads the count and waits in separate lock
//! scopes (a lost wake-up) fails the suite.

use std::any::Any;

use octopus_sync::{Condvar, Mutex, PoisonError};

/// Completion latch for one `run` call: counts outstanding submitted
/// tasks and carries the first panic payload back to the caller.
#[derive(Default)]
pub(crate) struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

#[derive(Default)]
struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    // Lock poisoning cannot wedge the latch: the critical sections
    // below never unwind (counter arithmetic and an Option insert), but
    // a fault-injected panic elsewhere on a worker must not turn into a
    // poisoned-latch deadlock for every later submission — so every
    // acquisition recovers the guard instead of unwrapping.
    pub(crate) fn add(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remaining += 1;
    }

    pub(crate) fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.remaining -= 1;
        if let Some(p) = panic {
            s.panic.get_or_insert(p);
        }
        if s.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every added job has completed; returns the first
    /// panic payload a completer reported. The count is read and the
    /// wait entered under one guard, so a completion cannot slip
    /// between them.
    pub(crate) fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while s.remaining > 0 {
            s = self.done.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.panic.take()
    }
}

#[cfg(all(test, octopus_model))]
mod model {
    //! Run with
    //! `RUSTFLAGS="--cfg octopus_model" cargo test -p octopus-service --lib latch::`.

    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use octopus_sync::atomic::{AtomicUsize, Ordering};
    use octopus_sync::{model, thread, Arc, PoisonError};

    use super::Latch;

    type Payload = Option<Box<dyn Any + Send>>;

    /// Seeded-bug double of [`Latch::wait`]: the count is read under
    /// one guard and the wait entered under another, so the last
    /// completion can notify while nobody waits yet — a lost wake-up.
    fn wait_lost_wakeup(latch: &Latch) -> Payload {
        let lock = || latch.state.lock().unwrap_or_else(PoisonError::into_inner);
        while lock().remaining > 0 {
            drop(latch.done.wait(lock()));
        }
        lock().panic.take()
    }

    /// The shape of `WorkerPool::run`: one count is added per job just
    /// before the job is handed to its completer, then the submitter
    /// waits — so the first job may complete before the second is
    /// added. `panics[j]` makes job `j` report a payload. Returns what
    /// the waiter received and how many jobs had finished by then.
    fn submit_two(panics: [bool; 2], wait: fn(&Latch) -> Payload) -> (Payload, usize) {
        let latch = Arc::new(Latch::default());
        let finished = Arc::new(AtomicUsize::new(0));
        let completers: Vec<_> = panics
            .into_iter()
            .enumerate()
            .map(|(job, panics)| {
                latch.add();
                let (latch, finished) = (Arc::clone(&latch), Arc::clone(&finished));
                thread::spawn(move || {
                    finished.fetch_add(1, Ordering::SeqCst);
                    latch.complete(panics.then(|| Box::new(format!("job {job}")) as _));
                })
            })
            .collect();
        let payload = wait(&latch);
        let seen = finished.load(Ordering::SeqCst);
        for c in completers {
            c.join().unwrap();
        }
        (payload, seen)
    }

    #[test]
    fn wait_returns_only_after_every_job_completed() {
        model(|| {
            let (payload, seen) = submit_two([false, false], Latch::wait);
            assert!(payload.is_none());
            assert_eq!(seen, 2, "wait returned before every job completed");
        });
    }

    #[test]
    fn two_completers_never_deadlock_the_waiter() {
        // A deadlock is a model failure: every explored schedule of the
        // two completers racing each other to zero must let the waiter
        // finish.
        model(|| {
            let latch = Arc::new(Latch::default());
            latch.add();
            latch.add();
            let completers: Vec<_> = (0..2)
                .map(|_| {
                    let latch = Arc::clone(&latch);
                    thread::spawn(move || latch.complete(None))
                })
                .collect();
            assert!(latch.wait().is_none());
            for c in completers {
                c.join().unwrap();
            }
        });
    }

    #[test]
    fn a_completers_panic_payload_reaches_the_waiter() {
        model(|| {
            let (payload, seen) = submit_two([false, true], Latch::wait);
            assert_eq!(seen, 2);
            let msg = payload.and_then(|p| p.downcast::<String>().ok());
            assert_eq!(msg.as_deref().map(String::as_str), Some("job 1"));
        });
    }

    #[test]
    fn lost_wakeup_double_fails_the_check() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            model(|| {
                submit_two([false, false], wait_lost_wakeup);
            });
        }));
        let msg = match result {
            Ok(()) => panic!("model checker missed the seeded lost wake-up"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
        };
        assert!(msg.contains("deadlock"), "unexpected failure report: {msg}");
    }
}
