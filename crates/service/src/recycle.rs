//! The free list of result buffers for the serving hot path.
//!
//! The batch executor hands each query's result out as an owned
//! `Vec<VertexId>` — the one steady-state allocation PR 2 left in the
//! hot path. [`ResultRecycler`] closes it: callers return finished
//! batches via `ParallelExecutor::recycle`, the buffers go onto a free
//! list, and the next batch leases them instead of allocating. Any
//! `Vec<VertexId>` may come back (a cloned result's included); the list
//! holds at most [`MAX_FREE`] of them.

use octopus_geom::VertexId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Upper bound on pooled buffers — a backstop against a caller leasing
/// huge bursts and returning them all at once.
const MAX_FREE: usize = 4096;

/// Counters of the result-buffer free list, for the zero-allocation
/// steady-state assertions (`ParallelExecutor::recycle_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecycleStats {
    /// Buffers handed out in total (`reused + allocated`).
    pub leased: usize,
    /// Leases served from the free list (no allocation).
    pub reused: usize,
    /// Leases that had to allocate a fresh buffer.
    pub allocated: usize,
    /// Buffers currently parked on the free list.
    pub free: usize,
}

/// The free list of result buffers (module docs).
///
/// Leasing takes `&self` so pool workers can draw buffers concurrently
/// mid-batch; returns go through the executor's `&mut self` API.
#[derive(Debug, Default)]
pub(crate) struct ResultRecycler {
    free: Mutex<Vec<Vec<VertexId>>>,
    reused: AtomicUsize,
    allocated: AtomicUsize,
}

impl ResultRecycler {
    /// Hands out a cleared buffer, recycled when possible.
    pub(crate) fn lease(&self) -> Vec<VertexId> {
        // The free list holds only plain buffers — a panic while the
        // lock was held cannot leave it inconsistent, so poisoning
        // carries no information here: recover the guard and continue.
        let recycled = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match recycled {
            Some(buf) => {
                // relaxed: monotone stats cell, read only by `stats`.
                self.reused.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                // relaxed: monotone stats cell, read only by `stats`.
                self.allocated.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Returns a buffer: cleared (capacity kept) and parked when the
    /// free list has room, dropped otherwise.
    pub(crate) fn give_back(&self, mut buf: Vec<VertexId>) {
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        if free.len() < MAX_FREE {
            buf.clear();
            free.push(buf);
        }
    }

    /// Point-in-time counters of the free list (module docs).
    pub(crate) fn stats(&self) -> RecycleStats {
        // relaxed: advisory monotone stats, see `lease`.
        let reused = self.reused.load(Ordering::Relaxed);
        let allocated = self.allocated.load(Ordering::Relaxed);
        RecycleStats {
            leased: reused + allocated,
            reused,
            allocated,
            free: self
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }

    /// Heap bytes parked on the free list.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<VertexId>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycles_returned_buffers() {
        let r = ResultRecycler::default();
        let mut buf = r.lease();
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        r.give_back(buf);
        let buf2 = r.lease();
        assert!(buf2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(buf2.capacity(), cap, "capacity survives the round trip");
        let s = r.stats();
        assert_eq!((s.leased, s.reused, s.allocated), (2, 1, 1));
    }

    #[test]
    fn free_list_is_capped() {
        let r = ResultRecycler::default();
        for _ in 0..MAX_FREE + 3 {
            r.give_back(Vec::with_capacity(1));
        }
        assert_eq!(r.stats().free, MAX_FREE);
    }
}
