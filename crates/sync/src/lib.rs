//! Synchronisation facade for the octopus concurrency protocols.
//!
//! Modules that implement cross-thread protocols (the telemetry
//! metrics' shard registry, the worker pool's completion latch) import
//! their sync primitives from this crate instead of `std::sync` —
//! `xtask lint` enforces it. In ordinary
//! builds everything here **is** the `std::sync` type (zero-cost
//! re-export). Under `RUSTFLAGS="--cfg octopus_model"` the same names
//! resolve to the vendored loom doubles, so the model suites can
//! exhaustively explore the protocols' interleavings.
//!
//! The facade deliberately exposes only the subset the shimmed modules
//! use: `Mutex`/`Condvar`/`Arc`, the atomic integers + bool, and
//! `thread::{spawn, yield_now}` for the model suites themselves.

#[cfg(not(octopus_model))]
pub use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, TryLockError};

#[cfg(not(octopus_model))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(octopus_model))]
pub mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

#[cfg(octopus_model)]
pub use loom::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, TryLockError};

#[cfg(octopus_model)]
pub mod atomic {
    pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(octopus_model)]
pub mod thread {
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

/// Runs `f` under the deterministic interleaving explorer when built
/// with `--cfg octopus_model`; simply runs it once otherwise, so a
/// suite accidentally executed without the cfg still exercises the
/// code (single-schedule) instead of silently passing an empty test.
pub fn model<F: Fn() + 'static>(f: F) {
    #[cfg(octopus_model)]
    loom::model(f);
    #[cfg(not(octopus_model))]
    f();
}
