//! The temporal seed cache: warm-starting repeated monitoring queries
//! from the previous step's boundary-vertex sample.
//!
//! A monitoring query repeated (or slightly drifted) at step N+1 used to
//! re-probe the whole surface index even though its step-N answer is a
//! near-perfect seed set. The cache stores, per quantised query box, the
//! **boundary-vertex sample** collected by the last full probe: every
//! surface vertex inside the query box dilated by a fixed margin
//! ([`octopus_core::Probe::Collect`]). A later lookup is a
//! *hit* when the dilation still provably covers the query after the
//! deformation drift accumulated since the entry was collected — a
//! vertex can have moved at most the per-step maximum displacement
//! summed over the elapsed steps, so
//! `q.dilated(drift) ⊆ entry.q.dilated(margin)` guarantees the cached
//! sample is a superset of `surface ∩ q` at the *current* positions.
//! That is exactly [`octopus_core::Probe::Cached`]'s exactness
//! contract: warm-started results equal the full probe, always.
//!
//! Invalidation rules:
//!
//! * **Restructuring** (`Mesh::restructure_epoch` advanced) changes the
//!   surface set itself — all entries are dropped (counted as `stale`).
//! * **Re-layout** permutes the id space — entries survive, translated
//!   through the permutation ([`SeedCache::translate`]); positions are
//!   untouched by a relabelling, so drift accounting stays valid.
//! * **Drift past the margin** (or a query box that outgrew its entry's
//!   coverage) drops the entry (`stale`) and the query falls back to a
//!   full probe, which refills the entry.

use octopus_geom::{hilbert::quantize, Aabb, VertexId};
use octopus_mesh::Mesh;
use std::collections::{HashMap, VecDeque};

/// How much cumulative drift a candidate list collected on `mesh`
/// absorbs by default: 8 typical edge lengths. Larger, and entries
/// survive more drift but candidate lists grow. The seed cache's
/// dilation margin and a standing query's default band are both this.
pub(crate) fn default_margin(mesh: &Mesh) -> f32 {
    let typical_edge = (mesh.bounding_box().volume() / mesh.num_vertices().max(1) as f64)
        .cbrt()
        .max(f64::MIN_POSITIVE) as f32;
    8.0 * typical_edge
}

/// Hit/miss/invalidation counters of the temporal seed cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeedCacheStats {
    /// Lookups that found a provably still-valid entry.
    pub hits: u64,
    /// Lookups with no entry for the quantised key.
    pub misses: u64,
    /// Entries invalidated: restructure-epoch advances (all entries),
    /// drift past the margin, or coverage outgrown.
    pub stale: u64,
    /// Entries (re)inserted after a full probe.
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl SeedCacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        crate::telemetry::hit_rate(self.hits, self.hits + self.misses)
    }
}

/// Cache key: query centre quantised onto a coarse lattice plus per-axis
/// extent buckets — near-identical (repeated or slightly drifted) boxes
/// collide onto the same key; the entry's coverage check does the exact
/// validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key {
    cell: [u32; 3],
    size: [u32; 3],
}

/// Bits per axis of the centre lattice.
const KEY_BITS: u32 = 8;
/// Extent quantisation: fractions of the domain diagonal per bucket.
const SIZE_BUCKETS: f32 = 4096.0;

#[derive(Debug)]
struct Entry {
    /// The query box the sample was collected for.
    q: Aabb,
    /// Cumulative-drift meter reading at collection time.
    cum_drift: f32,
    /// Surface vertices inside `q.dilated(margin)` at collection time.
    candidates: Vec<VertexId>,
}

/// The temporal seed cache (see the module docs).
#[derive(Debug)]
pub(crate) struct SeedCache {
    /// Dilation margin of every entry's candidate box.
    margin: f32,
    /// Quantisation frame (the at-ingest mesh bounds; only key
    /// consistency matters, not exactness).
    bounds: Aabb,
    diag: f32,
    /// Restructure epoch the entries are valid for.
    epoch: u64,
    map: HashMap<Key, Entry>,
    /// Insertion order, for bounded eviction.
    order: VecDeque<Key>,
    cap: usize,
    stats: SeedCacheStats,
}

impl SeedCache {
    pub(crate) fn new(margin: f32, bounds: Aabb, cap: usize, epoch: u64) -> SeedCache {
        SeedCache {
            margin,
            bounds,
            diag: bounds.extent().length().max(f32::MIN_POSITIVE),
            epoch,
            map: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
            stats: SeedCacheStats::default(),
        }
    }

    pub(crate) fn margin(&self) -> f32 {
        self.margin
    }

    pub(crate) fn stats(&self) -> SeedCacheStats {
        self.stats
    }

    fn key_of(&self, q: &Aabb) -> Key {
        let e = q.extent();
        let mut size = [0u32; 3];
        for axis in 0..3 {
            size[axis] = (e[axis] / self.diag * SIZE_BUCKETS) as u32;
        }
        Key {
            cell: quantize(q.center(), &self.bounds, KEY_BITS),
            size,
        }
    }

    /// Aligns the cache with the restructure epoch of the snapshot being
    /// queried. Any change of epoch (restructuring changed the surface
    /// set — or the caller moved to a different retained generation)
    /// drops every entry.
    pub(crate) fn begin_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.stats.stale += self.map.len() as u64;
            self.map.clear();
            self.order.clear();
            self.epoch = epoch;
        }
    }

    /// Validity core shared by [`SeedCache::lookup`] and
    /// [`SeedCache::validate`]: checks (and prunes, counting `stale`)
    /// the entry for `q` without touching the hit/miss counters.
    /// Returns the key when a provably valid entry remains.
    fn validate_key(&mut self, q: &Aabb, cum_drift: f32) -> Option<Key> {
        let key = self.key_of(q);
        let valid = match self.map.get(&key) {
            None => return None,
            Some(e) => {
                let drift = (cum_drift - e.cum_drift).abs();
                drift < self.margin && e.q.dilated(self.margin).contains_box(&q.dilated(drift))
            }
        };
        if !valid {
            self.map.remove(&key);
            // Keep the eviction queue in sync: a pruned key must not
            // linger (the refill would re-push it, growing the queue
            // without bound over stale→refill cycles).
            self.order.retain(|k| *k != key);
            self.stats.stale += 1;
            return None;
        }
        Some(key)
    }

    /// True when a provably valid entry exists for `q` — same pruning
    /// side effects as a lookup, but **no** hit/miss accounting. Group
    /// planning probes all members with this first, so `hits` only
    /// counts lookups that actually warm-start a query.
    pub(crate) fn validate(&mut self, q: &Aabb, cum_drift: f32) -> bool {
        self.validate_key(q, cum_drift).is_some()
    }

    /// Records `n` lookups that could not warm-start (no or invalid
    /// entry, or a group member's miss forcing the whole group onto the
    /// full probe).
    pub(crate) fn count_misses(&mut self, n: u64) {
        self.stats.misses += n;
    }

    /// Looks up a provably valid candidate list for `q` at the current
    /// cumulative drift `cum_drift`. On a hit the returned slice
    /// satisfies the warm-start superset contract; entries that fail the
    /// coverage check are dropped (stale).
    pub(crate) fn lookup(&mut self, q: &Aabb, cum_drift: f32) -> Option<&[VertexId]> {
        match self.validate_key(q, cum_drift) {
            None => {
                self.stats.misses += 1;
                None
            }
            Some(key) => {
                self.stats.hits += 1;
                Some(&self.map[&key].candidates)
            }
        }
    }

    /// Stores (or refreshes) the boundary-vertex sample collected for
    /// `q` by a full probe at drift meter `cum_drift`.
    pub(crate) fn insert(&mut self, q: &Aabb, cum_drift: f32, candidates: Vec<VertexId>) {
        let key = self.key_of(q);
        // Refreshing an existing entry cannot grow the map — evicting
        // for it would throw out an unrelated live entry.
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.cap {
                let Some(old) = self.order.pop_front() else {
                    break;
                };
                if self.map.remove(&old).is_some() {
                    self.stats.evictions += 1;
                }
            }
            self.order.push_back(key);
        }
        self.map.insert(
            key,
            Entry {
                q: *q,
                cum_drift,
                candidates,
            },
        );
        self.stats.insertions += 1;
    }

    /// Applies a re-layout permutation (`old id → perm[old id]`) to
    /// every cached candidate list. Geometry is untouched by a
    /// relabelling, so boxes and drift meters stay valid.
    pub(crate) fn translate(&mut self, perm: &[VertexId]) {
        for e in self.map.values_mut() {
            for v in &mut e.candidates {
                *v = perm[*v as usize];
            }
        }
    }

    /// Entries currently cached.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Length of the eviction queue (must track `len` ±0, never grow
    /// past it).
    #[cfg(test)]
    pub(crate) fn order_len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::Point3;

    fn unit_cache(margin: f32) -> SeedCache {
        SeedCache::new(margin, Aabb::new(Point3::ORIGIN, Point3::splat(1.0)), 8, 0)
    }

    #[test]
    fn repeated_query_hits_until_drift_exceeds_margin() {
        let mut c = unit_cache(0.1);
        let q = Aabb::cube(Point3::splat(0.5), 0.2);
        assert!(c.lookup(&q, 0.0).is_none(), "cold cache misses");
        c.insert(&q, 0.0, vec![1, 2, 3]);
        assert_eq!(c.lookup(&q, 0.04).unwrap(), &[1, 2, 3]);
        assert_eq!(c.lookup(&q, 0.09).unwrap(), &[1, 2, 3], "within margin");
        assert!(c.lookup(&q, 0.15).is_none(), "drift past the margin");
        assert_eq!(c.stats().stale, 1);
        // The full probe refills; hits resume from the new meter.
        c.insert(&q, 0.15, vec![9]);
        assert_eq!(c.lookup(&q, 0.2).unwrap(), &[9]);
    }

    #[test]
    fn drifted_query_box_hits_while_covered() {
        let mut c = unit_cache(0.1);
        let q = Aabb::cube(Point3::splat(0.5), 0.2);
        c.insert(&q, 0.0, vec![7]);
        // Same key (centre moved within a lattice cell), still covered.
        let drifted = Aabb::cube(Point3::splat(0.5005), 0.2);
        assert!(c.lookup(&drifted, 0.05).is_some());
        // Covered fails once drift + offset exceed the margin.
        assert!(c.lookup(&drifted, 0.0999).is_none());
        // Entry was dropped as stale; next lookup is a plain miss.
        assert_eq!(c.stats().stale, 1);
    }

    #[test]
    fn epoch_change_drops_everything() {
        let mut c = unit_cache(0.1);
        let q = Aabb::cube(Point3::splat(0.3), 0.1);
        c.insert(&q, 0.0, vec![4]);
        c.begin_epoch(1);
        assert_eq!(c.len(), 0);
        assert!(c.lookup(&q, 0.0).is_none());
        assert_eq!(c.stats().stale, 1);
    }

    #[test]
    fn translate_remaps_candidate_ids() {
        let mut c = unit_cache(0.2);
        let q = Aabb::cube(Point3::splat(0.5), 0.1);
        c.insert(&q, 0.0, vec![0, 2]);
        c.translate(&[5, 4, 3, 2, 1, 0]);
        assert_eq!(c.lookup(&q, 0.0).unwrap(), &[5, 3]);
    }

    #[test]
    fn capacity_is_bounded_with_fifo_eviction() {
        let mut c = unit_cache(0.05);
        for i in 0..20 {
            let q = Aabb::cube(Point3::splat(0.04 * i as f32 + 0.02), 0.01);
            c.insert(&q, 0.0, vec![i]);
        }
        assert!(c.len() <= 8);
        assert!(c.stats().evictions >= 12);
    }

    #[test]
    fn stale_refill_cycles_do_not_grow_the_eviction_queue() {
        // Regression: the stale path used to drop the map entry but
        // leave its key queued, so every stale→refill cycle leaked one
        // key — unbounded growth in a long-running drifting monitor.
        let mut c = unit_cache(0.1);
        let q = Aabb::cube(Point3::splat(0.5), 0.2);
        for i in 0..50u32 {
            let cum = 0.2 * i as f32; // every step exceeds the margin
            assert!(c.lookup(&q, cum).is_none(), "cycle {i}");
            c.insert(&q, cum, vec![i]);
            assert!(c.lookup(&q, cum).is_some(), "cycle {i}");
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.order_len(), 1, "eviction queue must not leak keys");
        assert!(c.stats().stale >= 49);
    }

    #[test]
    fn refreshing_at_capacity_does_not_evict_other_entries() {
        // Regression: insert used to run the eviction loop before
        // noticing the key already existed, so refreshing an entry at
        // capacity threw out an unrelated live one.
        let mut c = unit_cache(0.01);
        let boxes: Vec<Aabb> = (0..8)
            .map(|i| Aabb::cube(Point3::splat(0.1 * i as f32 + 0.05), 0.008))
            .collect();
        for b in &boxes {
            c.insert(b, 0.0, vec![1]);
        }
        assert_eq!(c.len(), 8, "cache at capacity");
        let evictions_before = c.stats().evictions;
        for _ in 0..5 {
            c.insert(&boxes[0], 0.0, vec![2]); // refresh, not grow
        }
        assert_eq!(c.stats().evictions, evictions_before);
        for (i, b) in boxes.iter().enumerate() {
            assert!(c.lookup(b, 0.0).is_some(), "entry {i} was evicted");
        }
    }

    #[test]
    fn validate_prunes_but_does_not_count_hits_or_misses() {
        let mut c = unit_cache(0.1);
        let q = Aabb::cube(Point3::splat(0.5), 0.2);
        assert!(!c.validate(&q, 0.0));
        c.insert(&q, 0.0, vec![3]);
        assert!(c.validate(&q, 0.05));
        assert!(!c.validate(&q, 0.5), "past the margin");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "validate must not count");
        assert_eq!(s.stale, 1, "but it must prune");
        c.count_misses(3);
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn hit_rate_reports_fraction() {
        let mut c = unit_cache(0.1);
        let q = Aabb::cube(Point3::splat(0.5), 0.2);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(&q, 0.0, vec![1]);
        let _ = c.lookup(&q, 0.0);
        let _ = c.lookup(&Aabb::cube(Point3::splat(0.9), 0.01), 0.0);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
