//! The crawl (§IV-B): one BFS over a group of one or more queries on a
//! shared frontier, driven by [`crate::Octopus::query_group`] and every
//! other query entry — a single box, a k-NN cube, an aggregate, a
//! convex region, [`crate::OctopusCon`] and [`crate::ApproxOctopus`]
//! each crawl as a group of one.
//!
//! On a mesh larger than cache the crawl is bound by memory, not
//! instructions, so its loop is cut to the loads it needs: the usual
//! neighbour test reads one `u64` mask (no epoch beside it) and a
//! neighbour already seen costs no position load, the queue is a plain
//! `Vec`, and each pop hints the adjacency of the entries that will be
//! popped 8 and 16 pops later.

use octopus_geom::{Region, VertexId};
use octopus_mesh::Mesh;

/// Maximum queries per overlap group of the shared-frontier batch crawl:
/// the per-vertex membership mask is a `u64`, one bit per group member.
/// Schedulers split larger overlap groups at this bound (equivalently:
/// fall back to per-query handling above it).
pub const MAX_GROUP: usize = 64;

/// Scratch state for the **shared-frontier crawl**: one BFS over a group
/// of 1 ≤ k ≤ [`MAX_GROUP`] queries with a per-vertex membership
/// bitmask, so a vertex inside k overlapping queries is expanded once,
/// not k times.
///
/// Per-query crawl semantics hold bit by bit: a vertex is
/// marked/collected for member `j` exactly when a BFS of query `j`
/// alone would have marked/collected it (reached from `j`'s seeds
/// through vertices inside `q_j`), so demultiplexed results equal the
/// per-query answers. The sharing shows up in the *event* counters:
/// `expansions` + `rejected` count distinct traversal events (each
/// costing one neighbour-list scan or one position load), while the
/// per-member counters sum to what k independent crawls would have
/// paid (for a group of one the two agree).
///
/// The vertex masks carry no epoch: `visited` and `pending` read zero
/// outside a group, so the common neighbour test — nothing new for any
/// member — is one 8-byte load. Every vertex whose `visited` left zero
/// is on the queue or, when it was never queued, on the `touched` list:
/// the crawl zeroes exactly those when it ends, while their lines are
/// still in cache, and [`GroupScratch::begin_group`] whatever a group
/// that was never crawled left, so a group costs what it touched.
/// Component masks keep a per-group epoch instead (`comp_stamp`):
/// clearing them all per group would cost O(components). The masks
/// are sized for the mesh when the scratch is made and grow with it.
#[derive(Debug, Default)]
pub(crate) struct GroupScratch {
    /// Member bits that have marked this vertex (inside or boundary).
    visited: Vec<u64>,
    /// Member bits waiting to expand from this vertex (≠ 0 ⇔ queued).
    pending: Vec<u64>,
    /// Every vertex whose `visited` went from 0 to non-zero this group
    /// without being queued at that moment (the queue names the rest).
    touched: Vec<VertexId>,
    /// The BFS queue: a plain `Vec` read from a head index, so the
    /// crawl can look ahead at the entries it will expand next.
    queue: Vec<VertexId>,
    /// The popped vertex's neighbours new to a member it expands for.
    fresh: Vec<VertexId>,
    /// Epoch of the current group, gating `comp_seeded`.
    epoch: u32,
    /// Per-component epoch gating `comp_seeded`.
    comp_stamp: Vec<u32>,
    /// Member bits that obtained a probe seed in this component.
    comp_seeded: Vec<u64>,
    /// Per-member seed counts (crawl entry points) for the current group.
    pub(crate) per_seeds: Vec<usize>,
    /// Per-member visited counts, the `PhaseTimings::crawl_visited`
    /// convention (expansions + rejected boundary marks, attributed to
    /// each member they served).
    pub(crate) per_visited: Vec<usize>,
    /// Distinct expansion events of the shared BFS — each popped vertex
    /// counts once, however many member queries it served.
    expansions: usize,
    /// Distinct rejected-neighbour events — each examination that marked
    /// a neighbour outside ≥ 1 member query counts once.
    rejected: usize,
}

/// How many pops ahead the crawl hints a queued vertex's CSR offsets.
const OFFSETS_AHEAD: usize = 16;
/// How many pops ahead the crawl hints the first line of a queued
/// vertex's neighbour list (its offsets were hinted earlier).
const NEIGHBORS_AHEAD: usize = 8;

/// Calls `f(bit)` for every set bit of `mask`, lowest first.
#[inline]
fn for_each_bit(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

impl GroupScratch {
    /// Prepares for a new group of `k ≤ MAX_GROUP` queries over a mesh
    /// with `num_vertices` vertices and `num_components` connected
    /// components. Costs what the previous group touched when it was
    /// never crawled, nothing otherwise (plus O(V) on a resize,
    /// O(components) on the rare epoch wrap).
    pub(crate) fn begin_group(&mut self, num_vertices: usize, num_components: usize, k: usize) {
        assert!(
            k <= MAX_GROUP,
            "group of {k} exceeds the {MAX_GROUP} mask bits"
        );
        // Reset before any resize: the queued and touched ids index the
        // arrays as the last group's mesh sized them.
        for &v in self.queue.iter().chain(&self.touched) {
            self.visited[v as usize] = 0;
            self.pending[v as usize] = 0;
        }
        self.touched.clear();
        self.visited.resize(num_vertices, 0);
        self.pending.resize(num_vertices, 0);
        if self.comp_stamp.len() != num_components {
            self.comp_stamp.resize(num_components, self.epoch);
            self.comp_seeded.resize(num_components, 0);
        }
        if self.epoch == u32::MAX {
            self.comp_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
        self.per_seeds.clear();
        self.per_seeds.resize(k, 0);
        self.per_visited.clear();
        self.per_visited.resize(k, 0);
        self.expansions = 0;
        self.rejected = 0;
    }

    /// Seeds vertex `v`, known inside the queries of the members in
    /// `mask`, into the shared frontier: appended to the result list of
    /// each member it is fresh for, and queued when fresh for any.
    /// Only `visited` is written: seeding comes before the crawl, so a
    /// seed's pending bits are its visited bits, and
    /// [`GroupScratch::crawl`] sets them from there — one mask line per
    /// seed in the probe instead of two.
    #[inline]
    pub(crate) fn seed(&mut self, v: VertexId, mask: u64, results: &mut [Vec<VertexId>]) {
        let i = v as usize;
        let seen = self.visited[i];
        let new = mask & !seen;
        if new == 0 {
            return;
        }
        if seen == 0 {
            self.queue.push(v);
        }
        self.visited[i] = seen | new;
        for_each_bit(new, |bit| {
            results[bit].push(v);
            self.per_seeds[bit] += 1;
        });
    }

    /// Records that members in `mask` obtained a probe seed in component
    /// `c` (gates the per-member directed-walk phase).
    #[inline]
    pub(crate) fn mark_component(&mut self, c: usize, mask: u64) {
        if self.comp_stamp[c] != self.epoch {
            self.comp_stamp[c] = self.epoch;
            self.comp_seeded[c] = 0;
        }
        self.comp_seeded[c] |= mask;
    }

    /// True when member `j` has a probe seed in component `c`.
    #[inline]
    pub(crate) fn component_seeded(&self, c: usize, j: usize) -> bool {
        self.comp_stamp[c] == self.epoch && self.comp_seeded[c] & (1u64 << j) != 0
    }

    /// The crawl: one level-less BFS over the members' regions. Each
    /// queue entry expands once per wave of newly arrived member bits;
    /// neighbours are tested against exactly the members that reached
    /// them, and fresh inside-members are demultiplexed into `results`.
    /// An edge is never followed past a vertex outside a member's
    /// region, so the work is proportional to the results times the
    /// mesh degree, not to the dataset.
    ///
    /// Generic over [`Region`] (monomorphised: the box path pays
    /// nothing for convex regions). Positions are read in place, from
    /// the array the simulation wrote, and only for a neighbour new to
    /// some member: how many lines a crawl touches is set by the vertex
    /// *order* (see `crate::layout`), not by a copy of the coordinates.
    ///
    /// Popping a vertex hints the CSR offsets of the entry
    /// `OFFSETS_AHEAD` (16) places further down the queue and the
    /// neighbour list of the one `NEIGHBORS_AHEAD` (8) places down, so
    /// the adjacency of the next expansions is already on its way when
    /// they come up.
    pub(crate) fn crawl<R: Region>(
        &mut self,
        mesh: &Mesh,
        queries: &[R],
        results: &mut [Vec<VertexId>],
    ) {
        let positions = mesh.positions();
        let adjacency = mesh.adjacency();
        // The fields as locals: stores through the mask slices cannot
        // then force the counters and buffer pointers back to memory.
        let visited = &mut self.visited[..];
        let pending = &mut self.pending[..];
        let per_visited = &mut self.per_visited[..];
        let touched = &mut self.touched;
        let queue = &mut self.queue;
        let fresh = &mut self.fresh;
        // The queue holds exactly the seeds, each once: each expands
        // for the members it was seeded for.
        debug_assert!(queue.iter().all(|&v| pending[v as usize] == 0));
        for &v in queue.iter() {
            pending[v as usize] = visited[v as usize];
        }
        let (mut head, mut rejected) = (0usize, 0usize);
        while let Some(&v) = queue.get(head) {
            if let Some(&ahead) = queue.get(head + OFFSETS_AHEAD) {
                adjacency.prefetch_offsets(ahead);
            }
            if let Some(&ahead) = queue.get(head + NEIGHBORS_AHEAD) {
                adjacency.prefetch_neighbors(ahead);
            }
            head += 1;
            let i = v as usize;
            let m = pending[i];
            pending[i] = 0;
            debug_assert!(m != 0, "queued vertex must have pending bits");
            for_each_bit(m, |bit| per_visited[bit] += 1);
            // Whether a neighbour is new is decided by the wavefront,
            // which under a locality-optimised order is uncorrelated
            // with the order of the neighbour list: a branch on it is a
            // coin flip. So the list is first filtered without one —
            // every neighbour written, the count bumped by 0 or 1 —
            // and only the new ones are handled.
            let neighbors = adjacency.neighbors(v);
            if fresh.len() < neighbors.len() {
                fresh.resize(neighbors.len(), 0);
            }
            let mut n = 0;
            for &w in neighbors {
                fresh[n] = w;
                n += usize::from(m & !visited[w as usize] != 0);
            }
            for &w in &fresh[..n] {
                let wi = w as usize;
                let seen = visited[wi];
                let new = m & !seen;
                visited[wi] = seen | new;
                let p = positions[wi];
                let mut enq = 0u64;
                for_each_bit(new, |bit| {
                    if queries[bit].contains_coords(p.x, p.y, p.z) {
                        enq |= 1u64 << bit;
                        results[bit].push(w);
                    } else {
                        // A boundary mark counts as a visit.
                        per_visited[bit] += 1;
                    }
                });
                if enq != 0 {
                    if pending[wi] == 0 {
                        queue.push(w);
                    }
                    pending[wi] |= enq;
                } else if seen == 0 {
                    touched.push(w);
                }
                rejected += usize::from(enq != new);
            }
        }
        // Each pop is one expansion event.
        self.expansions += head;
        self.rejected += rejected;
        // Every pop zeroed its pending bits: the visited masks are all
        // that is left to clear, on lines this crawl just touched.
        for &v in queue.iter().chain(touched.iter()) {
            visited[v as usize] = 0;
        }
        queue.clear();
        touched.clear();
    }

    /// Distinct traversal events of the last shared crawl — the
    /// deterministic "how much work did sharing save" counter (compare
    /// against the sum of the per-member `per_visited`).
    pub(crate) fn shared_visited(&self) -> usize {
        self.expansions + self.rejected
    }

    /// Heap bytes of the per-vertex masks: 16 B per vertex of the
    /// largest mesh crawled, whatever the result sizes.
    pub(crate) fn mask_bytes(&self) -> usize {
        (self.visited.capacity() + self.pending.capacity()) * std::mem::size_of::<u64>()
    }

    /// Heap bytes of the scratch structures: the masks, plus the queue
    /// and touched list (which grow with the results), the neighbour
    /// filter's buffer and the component masks.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.mask_bytes()
            + (self.touched.capacity() + self.queue.capacity() + self.fresh.capacity())
                * std::mem::size_of::<VertexId>()
            + self.comp_stamp.capacity() * std::mem::size_of::<u32>()
            + self.comp_seeded.capacity() * std::mem::size_of::<u64>()
    }

    /// Test hook: jump the component epoch (e.g. next to the wrap
    /// point), simulating the billions of groups that would get it
    /// there naturally.
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::{Aabb, Point3};
    use octopus_meshgen::voxel::VoxelRegion;

    fn box_mesh(n: usize) -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
    }

    fn scan(mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
        (0..mesh.num_vertices() as VertexId)
            .filter(|&v| q.contains(mesh.position(v)))
            .collect()
    }

    /// Seeds `queries` (every inside vertex of member `j` when
    /// `all_inside`, else only its first) into a new group on `g`.
    fn seeded(
        g: &mut GroupScratch,
        mesh: &Mesh,
        queries: &[Aabb],
        all_inside: bool,
    ) -> Vec<Vec<VertexId>> {
        g.begin_group(mesh.num_vertices(), 1, queries.len());
        let mut results = vec![Vec::new(); queries.len()];
        for (j, q) in queries.iter().enumerate() {
            let inside = scan(mesh, q);
            let take = if all_inside { inside.len() } else { 1 };
            for &v in &inside[..take] {
                g.seed(v, 1 << j, &mut results);
            }
        }
        results
    }

    /// A group crawled from one seed per member: the crawl must reach
    /// the rest (a box's lattice vertices are edge-connected).
    fn crawled(g: &mut GroupScratch, mesh: &Mesh, queries: &[Aabb]) -> Vec<Vec<VertexId>> {
        let mut results = seeded(g, mesh, queries, false);
        g.crawl(mesh, queries, &mut results);
        for r in &mut results {
            r.sort_unstable();
        }
        results
    }

    /// A group of one crawled from its first inside vertex.
    fn crawled_alone(g: &mut GroupScratch, mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
        crawled(g, mesh, std::slice::from_ref(q)).remove(0)
    }

    #[test]
    fn crawl_collects_exactly_the_contained_vertices() {
        let mesh = box_mesh(5);
        let q = Aabb::new(Point3::splat(0.15), Point3::splat(0.75));
        let mut g = GroupScratch::default();
        assert_eq!(crawled_alone(&mut g, &mesh, &q), scan(&mesh, &q));
        // Every pop and every boundary mark is one event of the one
        // member: the shared and the per-member counts agree.
        assert_eq!(g.shared_visited(), g.per_visited[0]);
        assert_eq!(g.per_seeds, [1]);
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
            let mut g = GroupScratch::default();
            let got = crawled_alone(&mut g, &mesh, &q);
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
        let mut g = GroupScratch::default();
        for step in 0..5 {
            let lo = 0.1 + 0.05 * step as f32;
            let q = Aabb::new(Point3::splat(lo), Point3::splat(lo + 0.5));
            assert_eq!(
                crawled_alone(&mut g, &mesh, &q),
                scan(&mesh, &q),
                "query {step}"
            );
        }
    }

    #[test]
    fn seed_deduplicates_per_member() {
        let mesh = box_mesh(2);
        let mut g = GroupScratch::default();
        g.begin_group(mesh.num_vertices(), 1, 2);
        let mut results = vec![Vec::new(); 2];
        g.seed(5, 0b01, &mut results);
        g.seed(5, 0b01, &mut results);
        g.seed(5, 0b11, &mut results);
        assert_eq!(results, [vec![5], vec![5]]);
        assert_eq!(g.per_seeds, [1, 1]);
        assert_eq!(g.queue, [5], "queued once for both members");
    }

    #[test]
    fn masks_grow_after_restructuring_adds_vertices() {
        let mut mesh = box_mesh(2);
        let mut g = GroupScratch::default();
        let q = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let _ = crawled_alone(&mut g, &mesh, &q);
        mesh.enable_restructuring().unwrap();
        mesh.refine_tet(0).unwrap(); // adds a vertex
        assert_eq!(crawled_alone(&mut g, &mesh, &q), scan(&mesh, &q));
    }

    #[test]
    fn component_epoch_wrap_does_not_alias_stale_marks() {
        // Component 0 is marked at epoch 1; after the u32 counter wraps
        // the epoch is 1 again. Without the wrap-clear the stale stamp
        // would read as "seeded" and phase 2 would skip a walk.
        let mut g = GroupScratch::default();
        g.begin_group(4, 2, 1);
        g.mark_component(0, 1);
        assert!(g.component_seeded(0, 0) && !g.component_seeded(1, 0));
        g.force_epoch(u32::MAX);
        for round in 0..3 {
            g.begin_group(4, 2, 1);
            assert!(!g.component_seeded(0, 0), "round {round} after the wrap");
        }
        // Pristine component slots read as unseeded too.
        let mut g = GroupScratch::default();
        g.begin_group(4, 3, 1);
        assert!(!(0..3).any(|c| g.component_seeded(c, 0)));
    }

    #[test]
    fn a_group_seeded_but_never_crawled_leaves_nothing_behind() {
        let mesh = box_mesh(6);
        let left = [
            Aabb::new(Point3::splat(0.0), Point3::splat(0.6)),
            Aabb::new(Point3::splat(0.2), Point3::splat(0.9)),
        ];
        let right = [
            Aabb::new(Point3::splat(0.1), Point3::splat(0.7)),
            Aabb::new(Point3::new(0.3, 0.0, 0.0), Point3::new(1.0, 0.5, 0.5)),
            Aabb::new(Point3::splat(0.5), Point3::splat(1.0)),
        ];
        let mut fresh = GroupScratch::default();
        let want = crawled(&mut fresh, &mesh, &right);
        for (j, q) in right.iter().enumerate() {
            assert_eq!(want[j], scan(&mesh, q), "member {j}");
        }
        // Every inside vertex of `left` is visited and queued with
        // pending bits; the group then ends without a crawl.
        let mut g = GroupScratch::default();
        seeded(&mut g, &mesh, &left, true);
        assert!(g.queue.len() > mesh.num_vertices() / 4);
        assert_eq!(crawled(&mut g, &mesh, &right), want);
        assert_eq!(g.per_visited, fresh.per_visited);
        assert_eq!(g.shared_visited(), fresh.shared_visited());
    }
}
