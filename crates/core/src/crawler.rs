//! Shared traversal machinery: the crawl (BFS) and the directed walk.
//!
//! Both [`crate::Octopus`] and [`crate::OctopusCon`] execute queries by
//! walking mesh edges; this module owns the scratch state (visited set,
//! BFS queue) so repeated queries reuse allocations — the "data
//! structures used during crawling" whose footprint Fig. 10(b) reports.

use octopus_geom::{Region, VertexId};
use octopus_mesh::Mesh;

#[cfg(test)]
use octopus_geom::Aabb;

/// Epoch-stamped dense membership set: a `Vec<u32>` of stamps plus a
/// current-generation counter. Starting a new generation is O(1) — bump
/// the counter — except on the (once per `u32::MAX` generations) wrap,
/// where the whole array is cleared so stamps from the previous counter
/// cycle can never alias a future generation. All epoch-stamped scratch
/// in the workspace (the crawler's visited set, the executor's
/// per-component seeding scratch) shares this one audited
/// implementation.
#[derive(Clone, Debug)]
pub(crate) struct EpochStamps {
    epoch: u32,
    stamps: Vec<u32>,
}

impl EpochStamps {
    pub(crate) fn with_len(n: usize) -> EpochStamps {
        // The generation counter starts at 1 so a pristine set (all
        // stamps 0) reads as *unmarked* even before the first `begin` —
        // probing a never-used scratch answers truthfully instead of
        // "everything visited".
        EpochStamps {
            epoch: 1,
            stamps: vec![0; n],
        }
    }

    /// Starts a new generation over `n` slots. Slots added by a resize
    /// are filled with the *previous* generation's stamp, i.e. they
    /// start unmarked; on counter wrap every slot is cleared (the fix
    /// for stale-stamp aliasing across `u32` cycles).
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamps.len() != n {
            self.stamps.resize(n, self.epoch);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks slot `i`; returns `true` when it was not yet marked in the
    /// current generation.
    #[inline]
    pub(crate) fn mark(&mut self, i: usize) -> bool {
        let slot = &mut self.stamps[i];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// True when slot `i` is marked in the current generation.
    #[inline]
    pub(crate) fn is_marked(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.stamps.capacity() * std::mem::size_of::<u32>()
    }

    /// Test hook: jump the generation counter (e.g. next to the wrap
    /// point) without touching the stamps, simulating the billions of
    /// intermediate queries that would get it there naturally.
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// Reusable traversal scratch state.
#[derive(Debug)]
pub(crate) struct Crawler {
    visited: EpochStamps,
    queue: Vec<VertexId>,
    /// Vertices examined by the last crawl (inside + frontier outside).
    pub crawl_visited: usize,
    /// Vertices stepped through by the last directed walk.
    pub walk_visited: usize,
}

impl Crawler {
    pub(crate) fn new(num_vertices: usize) -> Crawler {
        Crawler {
            visited: EpochStamps::with_len(num_vertices),
            queue: Vec::new(),
            crawl_visited: 0,
            walk_visited: 0,
        }
    }

    /// Prepares for a new query: O(1) (O(V) on the rare epoch wrap, see
    /// [`EpochStamps::begin`]).
    pub(crate) fn begin_query(&mut self, num_vertices: usize) {
        // Restructuring may have added vertices; `begin` resizes.
        self.visited.begin(num_vertices);
        self.queue.clear();
        self.crawl_visited = 0;
        self.walk_visited = 0;
    }

    /// Test hook for the epoch-wrap regression tests.
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        self.visited.force_epoch(epoch);
    }

    /// Seeds the BFS with a start vertex known to lie inside the query.
    /// Returns `true` when the vertex was fresh (not yet part of this
    /// query's result) — in that case it is also appended to `out`.
    #[inline]
    pub(crate) fn seed(&mut self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
        if self.visited.mark(v as usize) {
            out.push(v);
            self.queue.push(v);
            true
        } else {
            false
        }
    }

    /// The crawling phase (§IV-B): breadth-first traversal along mesh
    /// edges from all seeded vertices. An edge is never followed past a
    /// vertex outside the query region, so the work done is proportional
    /// to the result size times the mesh degree — not the dataset size.
    ///
    /// Generic over [`Region`] (monomorphised — the box fast path is
    /// unchanged), so the same BFS serves boxes, convex regions, and any
    /// future shape with a containment predicate.
    pub(crate) fn crawl<R: Region>(&mut self, mesh: &Mesh, q: &R, out: &mut Vec<VertexId>) {
        self.crawl_with(mesh, q, |w| out.push(w));
    }

    /// [`Crawler::crawl`] without result materialisation: `visit` fires
    /// once per newly discovered in-region vertex (seeds, already
    /// marked, are the caller's to fold). This is the aggregate-query
    /// path — counting or summing positions needs no result vector.
    pub(crate) fn crawl_with<R: Region>(
        &mut self,
        mesh: &Mesh,
        q: &R,
        mut visit: impl FnMut(VertexId),
    ) {
        // Positions are read in place, from the array the simulation
        // wrote: one vertex is one 12-byte load, and nothing derived
        // from positions is built or locked for a crawl. How many lines
        // a crawl touches is set by the vertex *order* (see
        // `crate::layout`), not by a second copy of the coordinates.
        let positions = mesh.positions();
        // Likewise the adjacency, resolved once: the mesh holds it
        // behind a shared handle, a hop the loop need not repeat.
        let adjacency = mesh.adjacency();
        // The hot path is *branchless* on freshness and containment.
        // Whether a neighbour was already visited is decided by the
        // crawl wavefront, which under a locality-optimised layout is
        // uncorrelated with the id order of the adjacency list — a
        // `if !visited` branch there is a coin flip that costs a
        // pipeline flush per miss and made every well-packed layout
        // measure *slower* than the generator order. Instead: the stamp
        // store is unconditional (re-marking is idempotent), freshness
        // and containment fold to 0/1 integers, and the conditional
        // queue append becomes an always-write with a 0/1 tail bump.
        let epoch = self.visited.epoch;
        let stamps = &mut self.visited.stamps[..];
        // The queue is a grow-only Vec: BFS pops advance `head`. Keeping
        // popped ids in place costs nothing (the buffer is result-sized
        // either way) and buys the branchless append below.
        let queue = &mut self.queue;
        let mut head = 0usize;
        let mut rejected = 0usize;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let neighbors = adjacency.neighbors(v);
            let start = queue.len();
            // Room for the worst case up front, so the inner loop
            // writes unconditionally and the final length is just
            // `truncate`d back.
            queue.resize(start + neighbors.len(), 0);
            let mut tail = start;
            for &w in neighbors {
                let wi = w as usize;
                let slot = &mut stamps[wi];
                let fresh = (*slot != epoch) as usize;
                *slot = epoch;
                let p = positions[wi];
                let inside = q.contains_coords(p.x, p.y, p.z) as usize;
                let take = fresh & inside;
                queue[tail] = w;
                tail += take;
                rejected += fresh - take;
            }
            queue.truncate(tail);
            for &w in &queue[start..tail] {
                visit(w);
            }
        }
        self.crawl_visited += head + rejected;
    }

    /// The directed walk (§IV-D): from `start`, repeatedly move to the
    /// neighbour strictly closest to the query region until a vertex
    /// inside the region is found. Returns that vertex, or `None` when no
    /// neighbour improves the distance (then the query region does not
    /// intersect this part of the mesh).
    ///
    /// Termination: the distance to `q` strictly decreases every step, so
    /// the walk can never revisit a vertex.
    pub(crate) fn directed_walk<R: Region>(
        &mut self,
        mesh: &Mesh,
        q: &R,
        start: VertexId,
    ) -> Option<VertexId> {
        let (found, steps, _) = greedy_walk(mesh, q, start);
        self.walk_visited += steps;
        found
    }

    /// Heap bytes of the scratch structures: the visited stamps and
    /// the queue. The crawl reads [`Mesh::positions`] in place, so it
    /// owns no position state and adds none to the mesh.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.visited.heap_bytes() + self.queue.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// One greedy directed walk (§IV-D): from `start`, repeatedly move to
/// the neighbour strictly closest to `q` until a vertex inside `q` is
/// found or no neighbour improves the distance. Returns `(found vertex,
/// vertices stepped through, squared distance at termination)` — the
/// distance is `0.0` on success and gates the caller's retry heuristics
/// on failure.
///
/// Termination: the distance to `q` strictly decreases every step, so
/// the walk can never revisit a vertex. Shared by [`Crawler`] and the
/// executor's component walk, which runs one walk per (query, unseeded
/// component) pair for the single and the group seeder alike.
///
/// Generic over [`Region`]: the walk only compares distances, so any
/// guidance metric that is zero exactly on containment preserves both
/// termination and the found-vertex contract (see
/// [`octopus_geom::ConvexRegion`]'s lower-bound distance).
pub(crate) fn greedy_walk<R: Region>(
    mesh: &Mesh,
    q: &R,
    start: VertexId,
) -> (Option<VertexId>, usize, f32) {
    let positions = mesh.positions();
    let mut steps = 0usize;
    let mut cur = start;
    let mut cur_dist = q.dist_sq(positions[cur as usize]);
    loop {
        steps += 1;
        if cur_dist == 0.0 {
            return (Some(cur), steps, 0.0);
        }
        let mut best = cur;
        let mut best_dist = cur_dist;
        for &w in mesh.neighbors(cur) {
            let d = q.dist_sq(positions[w as usize]);
            if d < best_dist {
                best = w;
                best_dist = d;
            }
        }
        if best == cur {
            // Local minimum: no neighbour is closer (Algorithm 1's
            // `minDistance = oldMinDistance` break).
            return (None, steps, cur_dist);
        }
        cur = best;
        cur_dist = best_dist;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::Point3;
    use octopus_meshgen::voxel::VoxelRegion;

    fn box_mesh(n: usize) -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
    }

    fn scan(mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
        mesh.positions()
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(**p))
            .map(|(i, _)| i as VertexId)
            .collect()
    }

    fn crawl_from_all_inside(crawler: &mut Crawler, mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
        crawler.begin_query(mesh.num_vertices());
        let mut out = Vec::new();
        for (i, p) in mesh.positions().iter().enumerate() {
            if q.contains(*p) {
                crawler.seed(i as VertexId, &mut out);
                break; // single seed: box meshes are connected inside q
            }
        }
        crawler.crawl(mesh, q, &mut out);
        out
    }

    #[test]
    fn crawl_collects_exactly_the_contained_vertices() {
        let mesh = box_mesh(5);
        let q = Aabb::new(Point3::splat(0.15), Point3::splat(0.75));
        let mut c = Crawler::new(mesh.num_vertices());
        let mut got = crawl_from_all_inside(&mut c, &mesh, &q);
        got.sort_unstable();
        assert_eq!(got, scan(&mesh, &q));
    }

    #[test]
    fn nan_vertex_is_never_reported_and_does_not_block_the_crawl() {
        let mut mesh = box_mesh(4);
        let q = Aabb::new(Point3::splat(-0.1), Point3::splat(1.1));
        let center = Point3::splat(0.5);
        let poisoned = (0..mesh.num_vertices() as VertexId)
            .find(|&v| mesh.position(v) == center)
            .expect("a 4³ lattice has a vertex at the centre");
        let around = mesh.neighbors(poisoned).to_vec();
        // Each coordinate alone must fail containment.
        for axis in 0..3 {
            let mut p = center;
            match axis {
                0 => p.x = f32::NAN,
                1 => p.y = f32::NAN,
                _ => p.z = f32::NAN,
            }
            mesh.positions_mut()[poisoned as usize] = p;
            let mut c = Crawler::new(mesh.num_vertices());
            let mut got = crawl_from_all_inside(&mut c, &mesh, &q);
            got.sort_unstable();
            // `scan` applies the same closed comparisons, so it skips
            // the NaN vertex too: everything else is reached around it.
            assert_eq!(got, scan(&mesh, &q), "axis {axis}");
            assert!(!got.contains(&poisoned), "axis {axis}");
            assert_eq!(got.len(), mesh.num_vertices() - 1, "axis {axis}");
            assert!(around.iter().all(|w| got.contains(w)), "axis {axis}");
        }
    }

    #[test]
    fn consecutive_queries_reuse_scratch_state_correctly() {
        let mesh = box_mesh(4);
        let mut c = Crawler::new(mesh.num_vertices());
        for step in 0..5 {
            let lo = 0.1 + 0.05 * step as f32;
            let q = Aabb::new(Point3::splat(lo), Point3::splat(lo + 0.5));
            let mut got = crawl_from_all_inside(&mut c, &mesh, &q);
            got.sort_unstable();
            assert_eq!(got, scan(&mesh, &q), "query {step}");
        }
    }

    #[test]
    fn directed_walk_reaches_query_on_convex_mesh() {
        let mesh = box_mesh(6);
        let q = Aabb::new(Point3::splat(0.4), Point3::splat(0.6));
        let mut c = Crawler::new(mesh.num_vertices());
        c.begin_query(mesh.num_vertices());
        // Start from the far corner (vertex at (0,0,0) exists in lattice).
        let start = 0;
        let found = c
            .directed_walk(&mesh, &q, start)
            .expect("walk must reach the query");
        assert!(q.contains(mesh.position(found)));
        assert!(c.walk_visited > 1);
    }

    #[test]
    fn directed_walk_returns_none_for_disjoint_query() {
        let mesh = box_mesh(4);
        let q = Aabb::new(Point3::splat(5.0), Point3::splat(6.0));
        let mut c = Crawler::new(mesh.num_vertices());
        c.begin_query(mesh.num_vertices());
        assert_eq!(c.directed_walk(&mesh, &q, 0), None);
    }

    #[test]
    fn walk_starting_inside_returns_immediately() {
        let mesh = box_mesh(4);
        let q = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let mut c = Crawler::new(mesh.num_vertices());
        c.begin_query(mesh.num_vertices());
        assert_eq!(c.directed_walk(&mesh, &q, 3), Some(3));
        assert_eq!(c.walk_visited, 1);
    }

    #[test]
    fn seed_deduplicates() {
        let mesh = box_mesh(2);
        let mut c = Crawler::new(mesh.num_vertices());
        c.begin_query(mesh.num_vertices());
        let mut out = Vec::new();
        assert!(c.seed(5, &mut out));
        assert!(!c.seed(5, &mut out));
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn epoch_array_grows_after_restructuring_adds_vertices() {
        let mut mesh = box_mesh(2);
        let mut c = Crawler::new(mesh.num_vertices());
        let q = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let _ = crawl_from_all_inside(&mut c, &mesh, &q);
        mesh.enable_restructuring().unwrap();
        mesh.refine_tet(0).unwrap(); // adds a vertex
        let mut got = crawl_from_all_inside(&mut c, &mesh, &q);
        got.sort_unstable();
        assert_eq!(got, scan(&mesh, &q));
    }

    #[test]
    fn epoch_stamps_clear_on_wrap() {
        let mut s = EpochStamps::with_len(4);
        s.begin(4);
        assert!(s.mark(2));
        assert!(s.is_marked(2));
        // Jump to the wrap point: the next generation restarts the
        // counter at 1 — the same value slot 2 already holds. Without
        // the wrap-clear, the stale stamp would alias as "marked".
        s.force_epoch(u32::MAX);
        s.begin(4);
        assert!(!s.is_marked(2), "stale stamp aliased across the wrap");
        assert!(s.mark(2), "stale stamp must not block a fresh mark");
    }

    #[test]
    fn pristine_stamps_read_as_unmarked() {
        // Regression: a never-used set must not claim everything is
        // marked (epoch and stamps both starting at 0 would).
        let s = EpochStamps::with_len(3);
        assert!(!s.is_marked(0));
        let mut s = EpochStamps::with_len(0);
        s.begin(2);
        assert!(s.mark(1));
    }

    #[test]
    fn epoch_stamps_resize_starts_unmarked() {
        let mut s = EpochStamps::with_len(2);
        s.begin(2);
        assert!(s.mark(0));
        // Grow mid-lifetime: the new slots must not read as marked, in
        // this generation or the next.
        s.begin(5);
        assert!(s.mark(4));
        s.begin(5);
        assert!(s.mark(4));
    }

    #[test]
    fn crawler_epoch_wraparound_does_not_alias_stale_entries() {
        // Regression test: a query stamps vertices with epoch 1; after
        // the u32 counter wraps, the epoch is 1 again. If the wrap did
        // not clear the stamp array, every vertex from that old query
        // would falsely read as already visited and the crawl would
        // return an empty result.
        let mesh = box_mesh(4);
        let q = Aabb::new(Point3::splat(0.1), Point3::splat(0.9));
        let mut c = Crawler::new(mesh.num_vertices());
        let expected = scan(&mesh, &q);
        let mut first = crawl_from_all_inside(&mut c, &mesh, &q); // epoch 1
        first.sort_unstable();
        assert_eq!(first, expected);
        // Simulate the u32::MAX - 1 intermediate queries.
        c.force_epoch(u32::MAX);
        for round in 0..3 {
            let mut got = crawl_from_all_inside(&mut c, &mesh, &q);
            got.sort_unstable();
            assert_eq!(got, expected, "query {round} after the wrap");
        }
    }
}
