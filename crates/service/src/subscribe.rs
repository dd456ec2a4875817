//! Standing queries: subscriptions answered with incremental result
//! deltas off the monitor's drift meter.
//!
//! A monitoring client that re-issues the same range query every step
//! pays a full probe → walk → crawl per step even though almost nothing
//! changed: per-step vertex displacement is tiny relative to the query
//! extent. A *subscription* turns that repeated query
//! into a standing one and answers each poll with a
//! [`ResultDelta`] — the vertices that entered and left the result set
//! since the previous poll — computed without re-executing the query:
//!
//! * **Refresh** (the slow path): one crawl of the query dilated by the
//!   subscription's *band*, seeded by the snapshot's probe like any
//!   other query, collects every active vertex within `band`
//!   of the query, each stamped with the distance from its position to
//!   the query's boundary ([`octopus_geom::Aabb::boundary_dist`]) and
//!   its membership, sorted ascending by that distance. The monitor's
//!   cumulative max-displacement meter and the mesh's restructure epoch
//!   are recorded as the reference.
//! * **Delta poll** (the fast path): with `δ = meter_now − meter_ref <
//!   band` and an unchanged epoch, every vertex has moved at most `δ`
//!   since the refresh, so only candidates whose refresh-time boundary
//!   distance is `≤ δ` can possibly have crossed the boundary — a
//!   prefix of the sorted candidate list. Those are point-tested
//!   against the current positions; everything farther keeps its
//!   membership. Vertices that were outside the band at refresh were
//!   `> band` from the boundary and cannot have entered at all. `δ` is
//!   monotone within an epoch, so a candidate re-tested at one poll is
//!   re-tested at every later poll and the untested suffix always
//!   carries refresh-accurate flags — the poll's member set is exactly
//!   the fresh query's result.
//! * **Invalidation**: a restructure (epoch bump) can orphan or add
//!   vertices, and `δ ≥ band` exhausts the band — either forces a full
//!   refresh at the next poll. A mid-run re-layout only relabels ids,
//!   so subscriptions survive it by translating their candidate and
//!   member ids through the permutation.
//!
//! The registry is owned by [`crate::MonitorLoop`]
//! ([`crate::MonitorLoop::subscribe`] /
//! [`crate::MonitorLoop::poll_subscriptions`]); the service test suite
//! verifies that cumulatively applied deltas reproduce a fresh full
//! query at every polled step, across restructures and re-layouts.

use crate::snapshot::Snapshot;
use octopus_core::QueryScratch;
use octopus_geom::{Aabb, VertexId};

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
    /// Full refresh crawls run (includes the one at subscribe time).
    pub full_refreshes: u64,
    /// Candidates point-tested across all delta polls.
    pub retested: u64,
    /// Candidates retained by the last refresh.
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

/// One vertex within the band at refresh time.
struct Candidate {
    v: VertexId,
    /// Distance from the refresh-time position to the query's boundary
    /// (both sides: depth for insiders, gap for outsiders).
    boundary_dist: f32,
    /// Membership, accurate as of the last poll that re-tested this
    /// candidate (refresh-accurate until the drift prefix reaches it).
    member: bool,
}

struct Subscription {
    id: u64,
    query: Aabb,
    band: f32,
    /// Drift-meter reading at the last refresh.
    ref_drift: f32,
    /// Restructure epoch at the last refresh.
    ref_epoch: u64,
    /// Sorted ascending by `boundary_dist`.
    candidates: Vec<Candidate>,
    /// Current result set, sorted ascending by id.
    members: Vec<VertexId>,
    stats: SubscriptionStats,
}

/// The monitor-owned collection of standing queries.
#[derive(Default)]
pub(crate) struct SubscriptionRegistry {
    subs: Vec<Subscription>,
    next_id: u64,
    /// Recycled crawl-output buffer for refreshes.
    buf: Vec<VertexId>,
}

impl SubscriptionRegistry {
    pub(crate) fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    /// Registers a standing query and runs its initial refresh against
    /// the given snapshot.
    pub(crate) fn subscribe(
        &mut self,
        query: Aabb,
        band: f32,
        snap: &Snapshot<'_>,
        scratch: &mut QueryScratch,
    ) -> SubscriptionId {
        let id = self.next_id;
        self.next_id += 1;
        let mut sub = Subscription {
            id,
            query,
            band: band.max(0.0),
            ref_drift: snap.cum_drift,
            ref_epoch: snap.mesh.restructure_epoch(),
            candidates: Vec::new(),
            members: Vec::new(),
            stats: SubscriptionStats::default(),
        };
        refresh(&mut sub, &mut self.buf, snap, scratch);
        sub.members = sub
            .candidates
            .iter()
            .filter(|c| c.member)
            .map(|c| c.v)
            .collect();
        sub.members.sort_unstable();
        sub.stats.candidates = sub.candidates.len();
        sub.stats.members = sub.members.len();
        self.subs.push(sub);
        SubscriptionId(id)
    }

    /// Removes a subscription; returns whether it existed.
    pub(crate) fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let before = self.subs.len();
        self.subs.retain(|s| s.id != id.0);
        self.subs.len() != before
    }

    /// Applies a re-layout permutation (old id → new id) to every
    /// retained candidate and member id. Geometry and drift meters are
    /// untouched by a relabelling, so the delta path stays valid; the
    /// candidate order is by boundary distance, which ids don't affect.
    pub(crate) fn translate(&mut self, perm: &[VertexId]) {
        for sub in &mut self.subs {
            for c in &mut sub.candidates {
                c.v = perm[c.v as usize];
            }
            for v in &mut sub.members {
                *v = perm[*v as usize];
            }
            sub.members.sort_unstable();
        }
    }

    /// The subscription's current result set (sorted ids), as of its
    /// last poll (or the subscribe-time refresh).
    pub(crate) fn result(&self, id: SubscriptionId) -> Option<&[VertexId]> {
        self.subs
            .iter()
            .find(|s| s.id == id.0)
            .map(|s| s.members.as_slice())
    }

    pub(crate) fn stats(&self, id: SubscriptionId) -> Option<SubscriptionStats> {
        self.subs.iter().find(|s| s.id == id.0).map(|s| s.stats)
    }

    /// Aggregate counters across all live subscriptions (the registry's
    /// telemetry feed; an unsubscribe drops that subscription's share).
    pub(crate) fn total_stats(&self) -> SubscriptionStats {
        let mut total = SubscriptionStats::default();
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

    /// Polls every subscription against one snapshot, returning each
    /// subscription's delta since its previous poll.
    pub(crate) fn poll_all(
        &mut self,
        snap: &Snapshot<'_>,
        scratch: &mut QueryScratch,
    ) -> Vec<(SubscriptionId, ResultDelta)> {
        let mut out = Vec::with_capacity(self.subs.len());
        for sub in &mut self.subs {
            sub.stats.polls += 1;
            let drift = snap.cum_drift - sub.ref_drift;
            let delta_valid = snap.mesh.restructure_epoch() == sub.ref_epoch
                && snap.cum_drift >= sub.ref_drift
                && drift < sub.band;
            if delta_valid {
                // Fast path: only the prefix within the accumulated
                // drift of the boundary can have changed membership.
                let positions = snap.mesh.positions();
                let mut retested = 0u64;
                for c in sub.candidates.iter_mut() {
                    if c.boundary_dist > drift {
                        break;
                    }
                    retested += 1;
                    c.member = sub.query.contains(positions[c.v as usize]);
                }
                sub.stats.delta_polls += 1;
                sub.stats.retested += retested;
            } else {
                refresh(sub, &mut self.buf, snap, scratch);
            }
            let mut now: Vec<VertexId> = sub
                .candidates
                .iter()
                .filter(|c| c.member)
                .map(|c| c.v)
                .collect();
            now.sort_unstable();
            let (entered, left) = diff_sorted(&sub.members, &now);
            sub.members = now;
            sub.stats.candidates = sub.candidates.len();
            sub.stats.members = sub.members.len();
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
}

/// The slow path: re-crawl the band-dilated query and rebuild the
/// boundary-distance-sorted candidate list from current positions.
fn refresh(
    sub: &mut Subscription,
    buf: &mut Vec<VertexId>,
    snap: &Snapshot<'_>,
    scratch: &mut QueryScratch,
) {
    buf.clear();
    let dilated = sub.query.dilated(sub.band);
    snap.exec
        .query_with(scratch, snap.mesh, &dilated, snap.probe, buf);
    let positions = snap.mesh.positions();
    sub.candidates.clear();
    sub.candidates.reserve(buf.len());
    for &v in buf.iter() {
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
    sub.ref_drift = snap.cum_drift;
    sub.ref_epoch = snap.mesh.restructure_epoch();
    sub.stats.full_refreshes += 1;
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
}
