//! Standing queries: subscriptions answered with incremental result
//! deltas, valid for as long as an exact drift bound says so.
//!
//! A monitoring client that re-issues the same range query every step
//! pays a full probe → walk → crawl per step even though almost nothing
//! changed: per-step vertex displacement is tiny relative to the query
//! extent. A *subscription* turns that repeated query into a standing
//! one and answers each poll with a [`ResultDelta`] — the vertices that
//! entered and left the result set since the previous poll — computed
//! without re-executing the query. A *rebuild* (the slow path) crawls
//! the query dilated by the subscription's *band*, seeded by the
//! snapshot's probe like any other query, and keeps every vertex it
//! finds as a *candidate*, stamped with its membership and the distance
//! from its position to the query's boundary
//! ([`octopus_geom::Aabb::boundary_dist`]), sorted ascending by that
//! distance. Everything after that rests on three invariants.
//!
//! # 1. The drift bound goes through the anchor
//!
//! The registry keeps one copy of the positions, the *anchor*, and per
//! absorbed step one number: `D(t) = max_v |p_t(v) − anchor(v)|`, an
//! O(V) pass (`max_displacement`) paid only while subscriptions
//! exist, and paid by the producer: the anchor is shared (an `Arc`)
//! with a generation counter, [`crate::MonitorLoop::begin_step`] sends
//! both with the step, and the simulation thread measures `D` over the
//! buffer it has just filled. The generation is bumped at every change
//! of the anchor — the first subscribe, the last unsubscribe, a
//! re-anchoring rebuild, a restructure's extension and a re-layout's
//! relabelling — and the registry takes the measured value only while
//! the generation it came with is still current; otherwise (the anchor
//! moved while the step was in flight) it measures the pass itself. A
//! maximum is exact in any order, so either way `D` is bit-identical.
//! A subscription rebuilt at step `r` stores `ref = D(r)`; by
//! the triangle inequality through the anchor no vertex is farther than
//! `δ = ref + D(t)` from where it was at `r`. The anchor may move at
//! any time without invalidating anybody: moving it at `t` adds `D(t)`
//! to every subscription's `ref` (the chain anchor → old anchor → `r`
//! still bounds the same displacement) and restarts `D` at 0. It moves
//! exactly when a rebuild crawls at a snapshot with `D(t) > 0` — a late
//! subscribe, an exhausted band, a non-finite position — so that the
//! rebuilt subscription starts from `ref = 0`; there is no threshold.
//! What follows:
//!
//! * (a) Under monotone drift `δ` equals the sum of per-step maximum
//!   displacements (the meter this one replaced); under anything else
//!   it is smaller. For every deformation sequence no subscription
//!   rebuilds more often than under that sum.
//! * (b) When every live band exceeds twice the field's displacement
//!   bound — the default band under every field in `octopus-sim`, which
//!   all displace around a rest state — nothing rebuilds after
//!   `subscribe` and the anchor never moves. A narrow-band neighbour
//!   that keeps rebuilding moves the anchor each time and so degrades
//!   the others towards, by (a) never past, the summed meter.
//! * (c) `δ` is not monotone. The re-tested prefix is therefore bounded
//!   by the subscription's *running maximum* of `δ` since its rebuild
//!   (invariant 3); validity uses the current `δ < band`.
//! * (d) A non-finite position makes `D = ∞` and every poll a rebuild
//!   only while it lasts: the rebuild moves the anchor, and once anchor
//!   and positions are finite again so is `D`.
//! * (e) `δ` is rounded *up* (`sum_up`) before it is compared with a
//!   boundary distance or a band.
//!
//! # 2. Candidates ⊇ every active vertex within `band` of the box
//!
//! … measured at the vertex's *reference position*: where it was at the
//! rebuild, or where it was born if a later connectivity event added
//! it. A vertex that is not a candidate was more than `band` from the
//! box there and has moved at most `δ < band` since, so it cannot be a
//! member. Deformation keeps this for free. A connectivity event
//! (`SubscriptionRegistry::restructured`, called by the monitor as it
//! absorbs the restructured step) *patches* the list instead of
//! re-crawling it, because [`octopus_mesh::Mesh`]'s restructuring
//! operations can only orphan existing vertices and append new ids:
//! orphaned candidates are dropped (members among them are owed as
//! `left` at the next poll) and every new active vertex inside the
//! dilated box is adopted at boundary distance 0, i.e. always
//! re-tested. A new vertex outside it is covered like any
//! non-candidate, its anchor entry being its birth position. A mid-run
//! re-layout only relabels ids; `SubscriptionRegistry::translate`
//! pushes candidates, members and the anchor through the permutation.
//!
//! # 3. The re-tested prefix is the running maximum of `δ`
//!
//! A *delta poll* (the fast path, whenever `δ < band`) point-tests the
//! candidates whose reference boundary distance is at most the largest
//! `δ` seen since the rebuild — a prefix of the sorted list — against
//! the current positions. A candidate beyond it has never been within
//! reach of the boundary, so its rebuild-time flag still holds; one
//! inside it is re-tested at every poll, so its flag is current. The
//! result can only change where a re-tested flag flips: the flips *are*
//! the delta, and they are applied to the member list in place.
//!
//! A rebuild happens at `subscribe`, when `δ ≥ band` (which includes
//! `δ = ∞`), and at every poll of a zero band — nowhere else.
//!
//! The registry is owned by [`crate::MonitorLoop`]
//! ([`crate::MonitorLoop::subscribe`] /
//! [`crate::MonitorLoop::poll_subscriptions`]); the service test suite
//! verifies that cumulatively applied deltas reproduce a linear scan at
//! every polled step, across restructures, re-layouts and subscription
//! churn.

use crate::snapshot::Snapshot;
use octopus_core::QueryScratch;
use octopus_geom::{Aabb, Point3, VertexId};
use octopus_mesh::Mesh;
use std::sync::Arc;

/// Opaque handle of a standing query registered with
/// [`crate::MonitorLoop::subscribe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub(crate) u64);

/// The incremental answer of one subscription poll: how the result set
/// changed since the previous poll (or since the subscribe, for the
/// first poll). Both lists are sorted ascending by vertex id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResultDelta {
    /// The step the delta was computed at (the ring's latest step).
    pub step: u32,
    /// Vertices now in the result that were not at the previous poll.
    pub entered: Vec<VertexId>,
    /// Vertices no longer in the result that were at the previous poll.
    pub left: Vec<VertexId>,
}

impl ResultDelta {
    /// True when the result set did not change since the previous poll.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.left.is_empty()
    }
}

/// Per-subscription counters: how often the delta fast path served a
/// poll versus a full refresh crawl.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubscriptionStats {
    /// Total polls answered.
    pub polls: u64,
    /// Polls served by the delta path (prefix re-test, no crawl).
    pub delta_polls: u64,
    /// Full refresh crawls run (includes the one at subscribe time; a
    /// connectivity event patched into the candidate list is not one).
    pub full_refreshes: u64,
    /// Candidates point-tested across all delta polls.
    pub retested: u64,
    /// Candidates retained: by the last refresh, as patched by the
    /// connectivity events since.
    pub candidates: usize,
    /// Current result-set size.
    pub members: usize,
}

impl SubscriptionStats {
    /// Fraction of polls served by the delta path (0 before any poll).
    pub fn delta_hit_rate(&self) -> f64 {
        crate::telemetry::hit_rate(self.delta_polls, self.polls)
    }
}

/// One vertex within the band at its reference position.
struct Candidate {
    v: VertexId,
    /// Distance from the reference position to the query's boundary
    /// (both sides: depth for insiders, gap for outsiders); 0 for a
    /// vertex adopted by a connectivity event.
    boundary_dist: f32,
    /// Membership as of the last poll: rebuild-accurate beyond the
    /// re-tested prefix, re-tested every poll inside it.
    member: bool,
}

struct Subscription {
    id: u64,
    query: Aabb,
    band: f32,
    /// `D` at the last rebuild plus every `D` a moving anchor folded in
    /// since: with the registry's current `D` it bounds how far any
    /// vertex is from its reference position.
    ref_drift: f32,
    /// Largest `δ` any poll has seen since the last rebuild.
    max_delta: f32,
    /// Sorted ascending by `boundary_dist`.
    candidates: Vec<Candidate>,
    /// The result set as of the last poll, sorted ascending by id.
    members: Vec<VertexId>,
    /// Members a connectivity event orphaned since the last poll.
    owed_left: Vec<VertexId>,
    stats: SubscriptionStats,
}

impl Subscription {
    /// The bound `δ` under the registry's current `D`, while the band
    /// still covers it; `None` means rebuild.
    fn valid_delta(&self, drift: f32) -> Option<f32> {
        let delta = sum_up(self.ref_drift, drift);
        (delta < self.band).then_some(delta)
    }

    /// The fast path: point-test the prefix of candidates within the
    /// running maximum of `δ` of the boundary and apply the flips to the
    /// member list. Allocates nothing when nothing flipped.
    fn retest(&mut self, delta: f32, positions: &[Point3]) -> (Vec<VertexId>, Vec<VertexId>) {
        self.max_delta = self.max_delta.max(delta);
        let mut entered = Vec::new();
        let mut left = std::mem::take(&mut self.owed_left);
        let mut retested = 0u64;
        for c in &mut self.candidates {
            if c.boundary_dist > self.max_delta {
                break;
            }
            retested += 1;
            let member = self.query.contains(positions[c.v as usize]);
            if member != c.member {
                c.member = member;
                if member { &mut entered } else { &mut left }.push(c.v);
            }
        }
        self.stats.delta_polls += 1;
        self.stats.retested += retested;
        if !(entered.is_empty() && left.is_empty()) {
            entered.sort_unstable();
            left.sort_unstable();
            self.members.retain(|v| left.binary_search(v).is_err());
            self.members.extend_from_slice(&entered);
            self.members.sort_unstable();
            self.stats.members = self.members.len();
        }
        (entered, left)
    }
}

/// The monitor-owned collection of standing queries.
#[derive(Default)]
pub(crate) struct SubscriptionRegistry {
    subs: Vec<Subscription>,
    next_id: u64,
    /// Recycled crawl-output buffer for rebuilds.
    buf: Vec<VertexId>,
    /// The positions `drift` is measured from, in the newest snapshot's
    /// id space; empty without subscriptions. Shared with the steps in
    /// flight that measure against it.
    anchor: Arc<Vec<Point3>>,
    /// Bumped at every change of `anchor`: a drift measured against
    /// another generation is not this anchor's.
    generation: u64,
    /// `D` of the newest absorbed step.
    drift: f32,
    reanchors: u64,
    patched_events: u64,
    /// The cumulative counters of removed subscriptions (`candidates`
    /// and `members` stay zero): the registry-wide totals keep them.
    retired: SubscriptionStats,
}

impl SubscriptionRegistry {
    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    /// `D` of the newest absorbed step (0 without subscriptions).
    pub(crate) fn drift(&self) -> f32 {
        self.drift
    }

    /// How often a rebuild moved the anchor.
    pub(crate) fn reanchors(&self) -> u64 {
        self.reanchors
    }

    /// Connectivity events patched into the candidate lists.
    pub(crate) fn patched_events(&self) -> u64 {
        self.patched_events
    }

    /// What a step needs to measure `D` on the simulation thread: the
    /// anchor and its generation (`None` without subscriptions, when
    /// nothing is measured).
    pub(crate) fn anchor_for_step(&self) -> Option<(Arc<Vec<Point3>>, u64)> {
        (!self.subs.is_empty()).then(|| (Arc::clone(&self.anchor), self.generation))
    }

    /// `D` of `positions` (the anchor's ids, at the newest step): the
    /// `(generation, D)` the simulation thread measured when it was
    /// measured against this anchor, else one pass here.
    fn drift_of(&self, positions: &[Point3], measured: Option<(u64, f32)>) -> f32 {
        match measured {
            Some((generation, drift)) if generation == self.generation => {
                debug_assert_eq!(
                    drift.to_bits(),
                    max_displacement(&self.anchor, positions).to_bits(),
                    "the drift measured on the simulation thread is not this anchor's"
                );
                drift
            }
            _ => max_displacement(&self.anchor, positions),
        }
    }

    /// The newest step's positions, as its deformation update is
    /// absorbed, and the `(generation, D)` the simulation thread
    /// measured for them: sets `D`. Costs nothing without
    /// subscriptions.
    pub(crate) fn deformed(&mut self, positions: &[Point3], measured: Option<(u64, f32)>) {
        if !self.subs.is_empty() {
            self.drift = self.drift_of(positions, measured);
        }
    }

    /// The newest step's mesh, as its restructuring update is absorbed
    /// and before a re-layout can relabel it, and the `(generation, D)`
    /// the simulation thread measured over the ids that existed: sets
    /// `D`, anchors the appended ids where they were born and patches
    /// every candidate list (invariant 2) — O(candidates + new ids), no
    /// crawl.
    pub(crate) fn restructured(&mut self, mesh: &Mesh, measured: Option<(u64, f32)>) {
        if self.subs.is_empty() {
            return;
        }
        let positions = mesh.positions();
        let born = self.anchor.len();
        self.drift = self.drift_of(&positions[..born], measured);
        if born < positions.len() {
            Arc::make_mut(&mut self.anchor).extend_from_slice(&positions[born..]);
            self.generation += 1;
        }
        for sub in &mut self.subs {
            let owed_left = &mut sub.owed_left;
            sub.candidates.retain(|c| {
                let active = mesh.is_vertex_active(c.v);
                if !active && c.member {
                    owed_left.push(c.v);
                }
                active
            });
            let dilated = sub.query.dilated(sub.band);
            let adopted = (born..positions.len())
                .filter(|&v| mesh.is_vertex_active(v as VertexId) && dilated.contains(positions[v]))
                .map(|v| Candidate {
                    v: v as VertexId,
                    boundary_dist: 0.0,
                    member: false,
                });
            sub.candidates.splice(0..0, adopted);
            sub.stats.candidates = sub.candidates.len();
        }
        self.patched_events += 1;
    }

    /// Registers a standing query and builds its candidate list against
    /// the given (newest) snapshot.
    pub(crate) fn subscribe(
        &mut self,
        query: Aabb,
        band: f32,
        snap: &Snapshot<'_>,
        scratch: &mut QueryScratch,
    ) -> SubscriptionId {
        let id = self.next_id;
        self.next_id += 1;
        if self.subs.is_empty() {
            // Nothing was being measured: the anchor starts here.
            self.set_anchor(snap.mesh.positions());
        }
        self.subs.push(Subscription {
            id,
            query,
            band: band.max(0.0),
            ref_drift: 0.0,
            max_delta: 0.0,
            candidates: Vec::new(),
            members: Vec::new(),
            owed_left: Vec::new(),
            stats: SubscriptionStats::default(),
        });
        self.rebuild(self.subs.len() - 1, snap, scratch);
        SubscriptionId(id)
    }

    /// Removes a subscription; returns whether it existed. Its counters
    /// stay in [`SubscriptionRegistry::total_stats`]. The anchor goes
    /// with the last one: nothing measures against it any more.
    pub(crate) fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(i) = self.subs.iter().position(|s| s.id == id.0) else {
            return false;
        };
        let gone = self.subs.remove(i).stats;
        self.retired.polls += gone.polls;
        self.retired.delta_polls += gone.delta_polls;
        self.retired.full_refreshes += gone.full_refreshes;
        self.retired.retested += gone.retested;
        if self.subs.is_empty() {
            self.anchor = Arc::default();
            self.generation += 1;
            self.drift = 0.0;
        }
        true
    }

    /// Moves the anchor to `positions`: in place unless a step in
    /// flight still reads the old one.
    fn set_anchor(&mut self, positions: &[Point3]) {
        match Arc::get_mut(&mut self.anchor) {
            Some(anchor) => {
                anchor.clear();
                anchor.extend_from_slice(positions);
            }
            None => self.anchor = Arc::new(positions.to_vec()),
        }
        self.generation += 1;
    }

    /// Applies a re-layout permutation (old id → new id) to every
    /// retained id and to the anchor. Geometry is untouched by a
    /// relabelling, so every bound stays valid; the candidate order is
    /// by boundary distance, which ids don't affect.
    pub(crate) fn translate(&mut self, perm: &[VertexId]) {
        if self.subs.is_empty() {
            return;
        }
        let mut anchor = vec![Point3::ORIGIN; self.anchor.len()];
        for (old, &new) in perm.iter().enumerate() {
            anchor[new as usize] = self.anchor[old];
        }
        self.anchor = Arc::new(anchor);
        self.generation += 1;
        for sub in &mut self.subs {
            for c in &mut sub.candidates {
                c.v = perm[c.v as usize];
            }
            for v in sub.members.iter_mut().chain(&mut sub.owed_left) {
                *v = perm[*v as usize];
            }
            sub.members.sort_unstable();
        }
    }

    /// The subscription's current result set (sorted ids), as of its
    /// last poll (or the subscribe).
    pub(crate) fn result(&self, id: SubscriptionId) -> Option<&[VertexId]> {
        self.subs
            .iter()
            .find(|s| s.id == id.0)
            .map(|s| s.members.as_slice())
    }

    /// The drift band subscription `id` was registered with.
    #[cfg(test)]
    pub(crate) fn band(&self, id: SubscriptionId) -> Option<f32> {
        self.subs.iter().find(|s| s.id == id.0).map(|s| s.band)
    }

    pub(crate) fn stats(&self, id: SubscriptionId) -> Option<SubscriptionStats> {
        self.subs.iter().find(|s| s.id == id.0).map(|s| s.stats)
    }

    /// Aggregate counters (the registry's telemetry feed): the
    /// cumulative ones over every subscription ever registered, the
    /// `candidates` and `members` gauges over the live ones.
    pub(crate) fn total_stats(&self) -> SubscriptionStats {
        let mut total = self.retired;
        for s in &self.subs {
            total.polls += s.stats.polls;
            total.delta_polls += s.stats.delta_polls;
            total.full_refreshes += s.stats.full_refreshes;
            total.retested += s.stats.retested;
            total.candidates += s.stats.candidates;
            total.members += s.stats.members;
        }
        total
    }

    /// True when the next [`SubscriptionRegistry::poll_all`] will crawl
    /// for at least one subscription (and so needs the snapshot's
    /// probe): a rebuild only ever follows from another one, so when no
    /// bound is exhausted before the poll none is during it.
    pub(crate) fn must_crawl(&self) -> bool {
        self.subs
            .iter()
            .any(|s| s.valid_delta(self.drift).is_none())
    }

    /// Polls every subscription against the newest snapshot, returning
    /// each subscription's delta since its previous poll.
    pub(crate) fn poll_all(
        &mut self,
        snap: &Snapshot<'_>,
        scratch: &mut QueryScratch,
    ) -> Vec<(SubscriptionId, ResultDelta)> {
        let mut out = Vec::with_capacity(self.subs.len());
        for i in 0..self.subs.len() {
            let (entered, left) = match self.subs[i].valid_delta(self.drift) {
                Some(delta) => self.subs[i].retest(delta, snap.mesh.positions()),
                None => self.rebuild(i, snap, scratch),
            };
            let sub = &mut self.subs[i];
            sub.stats.polls += 1;
            out.push((
                SubscriptionId(sub.id),
                ResultDelta {
                    step: snap.step,
                    entered,
                    left,
                },
            ));
        }
        out
    }

    /// The slow path: crawl the band-dilated query and rebuild the
    /// boundary-distance-sorted candidate list of `subs[at]` from the
    /// snapshot's positions, which become the anchor if they are not
    /// already. Returns how the result set changed.
    fn rebuild(
        &mut self,
        at: usize,
        snap: &Snapshot<'_>,
        scratch: &mut QueryScratch,
    ) -> (Vec<VertexId>, Vec<VertexId>) {
        let positions = snap.mesh.positions();
        if self.drift > 0.0 {
            for sub in &mut self.subs {
                sub.ref_drift = sum_up(sub.ref_drift, self.drift);
            }
            self.set_anchor(positions);
            self.drift = 0.0;
            self.reanchors += 1;
        }
        let sub = &mut self.subs[at];
        self.buf.clear();
        let dilated = sub.query.dilated(sub.band);
        snap.exec
            .query_with(scratch, snap.mesh, &dilated, snap.probe, &mut self.buf);
        sub.candidates.clear();
        sub.candidates.reserve(self.buf.len());
        for &v in &self.buf {
            let p = positions[v as usize];
            sub.candidates.push(Candidate {
                v,
                boundary_dist: sub.query.boundary_dist(p),
                member: sub.query.contains(p),
            });
        }
        sub.candidates.sort_unstable_by(|a, b| {
            a.boundary_dist
                .total_cmp(&b.boundary_dist)
                .then(a.v.cmp(&b.v))
        });
        // The anchor is this snapshot: D(r) = 0.
        sub.ref_drift = 0.0;
        sub.max_delta = 0.0;
        sub.owed_left.clear();
        sub.stats.full_refreshes += 1;
        sub.stats.candidates = sub.candidates.len();
        let mut now: Vec<VertexId> = sub
            .candidates
            .iter()
            .filter(|c| c.member)
            .map(|c| c.v)
            .collect();
        now.sort_unstable();
        let changed = diff_sorted(&sub.members, &now);
        sub.members = now;
        sub.stats.members = sub.members.len();
        changed
    }
}

/// `a + b`, rounded up by a few ulps: enough to cover the rounding of
/// the sum itself, of the distance passes behind its terms and of the
/// boundary distances it is compared with, so that a bound never reads
/// smaller than the displacement it stands for. `∞` stays `∞`.
fn sum_up(a: f32, b: f32) -> f32 {
    (a + b) * (1.0 + 4.0 * f32::EPSILON)
}

/// Set difference of two sorted id lists: `(new − old, old − new)`.
fn diff_sorted(old: &[VertexId], new: &[VertexId]) -> (Vec<VertexId>, Vec<VertexId>) {
    let mut entered = Vec::new();
    let mut left = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                left.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                entered.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    left.extend_from_slice(&old[i..]);
    entered.extend_from_slice(&new[j..]);
    (entered, left)
}

/// Largest per-vertex distance between two position arrays of the same
/// length — one O(V) pass (squared distances; one sqrt at the end):
/// the drift `D` of `after` against the anchor `before`. Run by the
/// simulation thread over the buffer it hands off, and here whenever
/// that measurement is not of the current anchor.
///
/// A non-finite distance (a vertex at NaN/∞ on either side) compares
/// false against every maximum, so it is tracked separately and
/// saturates the result to `∞`: no drift bound holds for that vertex,
/// and every subscription must take its exact rebuild path.
///
/// Folded over [`DISPLACEMENT_LANES`] independent accumulators so the
/// compiler vectorises it (one running maximum and one `|=` flag is a
/// serial dependency chain: 163 µs against 118 µs on 90 k vertices). A
/// maximum is exact in any order, so the value is bit-identical to the
/// one-accumulator loop's.
pub(crate) fn max_displacement(before: &[Point3], after: &[Point3]) -> f32 {
    debug_assert_eq!(before.len(), after.len());
    let mut max_sq = [0.0f32; DISPLACEMENT_LANES];
    let mut finite = [true; DISPLACEMENT_LANES];
    let mut before = before.chunks_exact(DISPLACEMENT_LANES);
    let mut after = after.chunks_exact(DISPLACEMENT_LANES);
    for (a, b) in before.by_ref().zip(after.by_ref()) {
        for lane in 0..DISPLACEMENT_LANES {
            let d = a[lane].dist_sq(b[lane]);
            finite[lane] &= d.is_finite();
            max_sq[lane] = max_sq[lane].max(d);
        }
    }
    for (a, b) in before.remainder().iter().zip(after.remainder()) {
        let d = a.dist_sq(*b);
        finite[0] &= d.is_finite();
        max_sq[0] = max_sq[0].max(d);
    }
    if finite.contains(&false) {
        f32::INFINITY
    } else {
        max_sq.into_iter().fold(0.0, f32::max).sqrt()
    }
}

/// Independent accumulators of [`max_displacement`]'s fold.
const DISPLACEMENT_LANES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_sorted_computes_both_directions() {
        let (entered, left) = diff_sorted(&[1, 3, 5, 9], &[2, 3, 9, 10]);
        assert_eq!(entered, vec![2, 10]);
        assert_eq!(left, vec![1, 5]);
        let (entered, left) = diff_sorted(&[], &[4]);
        assert_eq!(entered, vec![4]);
        assert!(left.is_empty());
        let (entered, left) = diff_sorted(&[7], &[7]);
        assert!(entered.is_empty() && left.is_empty());
    }

    #[test]
    fn delta_hit_rate_handles_zero_polls() {
        let stats = SubscriptionStats::default();
        assert_eq!(stats.delta_hit_rate(), 0.0);
        let stats = SubscriptionStats {
            polls: 4,
            delta_polls: 3,
            ..Default::default()
        };
        assert!((stats.delta_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sum_up_never_reads_below_the_real_sum() {
        let mut rng = octopus_geom::rng::SplitMix64::new(0x5EED);
        for _ in 0..10_000 {
            let (a, b) = (rng.range_f32(0.0, 3.0), rng.range_f32(0.0, 3.0));
            assert!(f64::from(sum_up(a, b)) >= f64::from(a) + f64::from(b));
        }
        assert_eq!(sum_up(0.0, 0.0), 0.0);
        assert_eq!(sum_up(f32::INFINITY, 0.5), f32::INFINITY);
        assert_eq!(sum_up(f32::INFINITY, f32::INFINITY), f32::INFINITY);
    }

    /// The one-accumulator loop the chunked fold replaced.
    fn max_displacement_scalar(before: &[Point3], after: &[Point3]) -> f32 {
        let mut max_sq = 0.0f32;
        let mut bad = false;
        for (a, b) in before.iter().zip(after) {
            let d = a.dist_sq(*b);
            bad |= !d.is_finite();
            if d > max_sq {
                max_sq = d;
            }
        }
        if bad {
            f32::INFINITY
        } else {
            max_sq.sqrt()
        }
    }

    #[test]
    fn chunked_max_displacement_is_bit_identical_to_the_scalar_loop() {
        let mut rng = octopus_geom::rng::SplitMix64::new(0xD15);
        let mut point = |scale: f32| {
            Point3::new(
                rng.range_f32(-scale, scale),
                rng.range_f32(-scale, scale),
                rng.range_f32(-scale, scale),
            )
        };
        for len in [0usize, 1, 7, 8, 9, 1000] {
            let before: Vec<Point3> = (0..len).map(|_| point(10.0)).collect();
            let after: Vec<Point3> = before
                .iter()
                .map(|p| *p + (point(0.1) - Point3::ORIGIN))
                .collect();
            let want = max_displacement_scalar(&before, &after);
            assert_eq!(
                max_displacement(&before, &after).to_bits(),
                want.to_bits(),
                "len {len}"
            );
            assert_eq!(want == 0.0, len == 0, "len {len}: premise");
            // A non-finite coordinate anywhere — the head, a full
            // chunk's interior, the remainder — saturates the meter.
            for at in [0, len / 2, len.saturating_sub(1)] {
                for bad in [f32::NAN, f32::INFINITY] {
                    if len == 0 {
                        continue;
                    }
                    let mut poisoned = after.clone();
                    poisoned[at].y = bad;
                    assert_eq!(max_displacement(&before, &poisoned), f32::INFINITY);
                    assert_eq!(max_displacement(&poisoned, &after), f32::INFINITY);
                    assert_eq!(max_displacement_scalar(&before, &poisoned), f32::INFINITY);
                }
            }
        }
    }
}
