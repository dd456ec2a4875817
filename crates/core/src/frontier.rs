//! The shared-frontier group crawl: one BFS over a group of overlapping
//! queries, driven by [`crate::Octopus::query_group`] for groups of two
//! or more (a single query runs the sequential crawl instead).
//!
//! On a mesh larger than cache the crawl is bound by memory, not
//! instructions, so its loop is cut to the loads it needs: the usual
//! neighbour test reads one `u64` mask (no epoch beside it), the queue
//! is a plain `Vec`, and each pop hints the adjacency of the entries
//! that will be popped 8 and 16 pops later.

use octopus_geom::{Aabb, VertexId};
use octopus_mesh::Mesh;

/// Maximum queries per overlap group of the shared-frontier batch crawl:
/// the per-vertex membership mask is a `u64`, one bit per group member.
/// Schedulers split larger overlap groups at this bound (equivalently:
/// fall back to per-query handling above it).
pub const MAX_GROUP: usize = 64;

/// Scratch state for the **shared-frontier group crawl**: one BFS over a
/// group of ≤ [`MAX_GROUP`] overlapping queries with a per-vertex
/// membership bitmask, so a vertex inside k overlapping queries is
/// expanded once, not k times.
///
/// Per-query crawl semantics are preserved bit by bit: a vertex is
/// marked/collected for member `j` exactly when the sequential crawl of
/// query `j` alone would have marked/collected it (reached from `j`'s
/// seeds through vertices inside `q_j`), so demultiplexed results equal
/// the per-query baseline. The sharing shows up in the *event* counters:
/// `expansions` + `rejected` count distinct traversal events (each
/// costing one neighbour-list scan or one position load), while the
/// per-member counters sum to what k independent crawls would have
/// paid.
///
/// The vertex masks carry no epoch: `visited` and `pending` read zero
/// outside a group, so the common neighbour test — nothing new for any
/// member, most tests on overlapping bursts — is one 8-byte load.
/// The `touched` list records every vertex whose `visited` left zero,
/// and [`GroupScratch::begin_group`] zeroes exactly those, so starting
/// a group costs what the last one touched. Component masks keep a
/// per-group epoch instead (`comp_stamp`): clearing them all per group
/// would cost O(components). Sized lazily on first use: a scratch that
/// only ever runs single queries holds no heap memory here.
#[derive(Debug, Default)]
pub(crate) struct GroupScratch {
    /// Member bits that have marked this vertex (inside or boundary).
    visited: Vec<u64>,
    /// Member bits waiting to expand from this vertex (≠ 0 ⇔ queued).
    pending: Vec<u64>,
    /// Every vertex whose `visited` went from 0 to non-zero this group
    /// (a vertex with pending bits is visited, so this covers both).
    touched: Vec<VertexId>,
    /// The BFS queue: a plain `Vec` read from a head index, so the
    /// crawl can look ahead at the entries it will expand next.
    queue: Vec<VertexId>,
    /// Epoch of the current group, gating `comp_seeded`.
    epoch: u32,
    /// Per-component epoch gating `comp_seeded`.
    comp_stamp: Vec<u32>,
    /// Member bits that obtained a probe seed in this component.
    comp_seeded: Vec<u64>,
    /// Per-member seed counts (crawl entry points) for the current group.
    pub(crate) per_seeds: Vec<usize>,
    /// Per-member visited counts, matching the sequential
    /// `PhaseTimings::crawl_visited` convention (expansions + rejected
    /// boundary marks, attributed to each member they served).
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

impl GroupScratch {
    /// Prepares for a new group of `k ≤ MAX_GROUP` queries over a mesh
    /// with `num_vertices` vertices and `num_components` connected
    /// components. Costs what the previous group touched (plus O(V) on
    /// a resize, O(components) on the rare epoch wrap).
    pub(crate) fn begin_group(&mut self, num_vertices: usize, num_components: usize, k: usize) {
        assert!(
            k <= MAX_GROUP,
            "group of {k} exceeds the {MAX_GROUP} mask bits"
        );
        // Reset before any resize: the touched ids index the arrays as
        // the last group's mesh sized them.
        for &v in &self.touched {
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

    /// Seeds vertex `v` (known inside member `bit`'s query) into the
    /// shared frontier; appends it to that member's result list when
    /// fresh. Returns whether it was fresh for that member.
    pub(crate) fn seed(&mut self, v: VertexId, bit: u32, results: &mut [Vec<VertexId>]) -> bool {
        let i = v as usize;
        let m = 1u64 << bit;
        let seen = self.visited[i];
        if seen & m != 0 {
            return false;
        }
        if seen == 0 {
            self.touched.push(v);
        }
        self.visited[i] = seen | m;
        results[bit as usize].push(v);
        self.per_seeds[bit as usize] += 1;
        if self.pending[i] == 0 {
            self.queue.push(v);
        }
        self.pending[i] |= m;
        true
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

    /// True when member `bit` has a probe seed in component `c`.
    #[inline]
    pub(crate) fn component_seeded(&self, c: usize, bit: u32) -> bool {
        self.comp_stamp[c] == self.epoch && self.comp_seeded[c] & (1u64 << bit) != 0
    }

    /// The shared crawl: one level-less BFS over the union region. Each
    /// queue entry expands once per wave of newly arrived member bits;
    /// neighbours are tested against exactly the members that reached
    /// them, and fresh inside-members are demultiplexed into `results`.
    ///
    /// Popping a vertex hints the CSR offsets of the entry
    /// `OFFSETS_AHEAD` (16) places further down the queue and the
    /// neighbour list of the one `NEIGHBORS_AHEAD` (8) places down, so
    /// the adjacency of the next expansions is already on its way when
    /// they come up.
    pub(crate) fn crawl(&mut self, mesh: &Mesh, queries: &[Aabb], results: &mut [Vec<VertexId>]) {
        let positions = mesh.positions();
        let adjacency = mesh.adjacency();
        // The fields as locals: stores through the mask slices cannot
        // then force the counters and buffer pointers back to memory.
        let visited = &mut self.visited[..];
        let pending = &mut self.pending[..];
        let per_visited = &mut self.per_visited[..];
        let touched = &mut self.touched;
        let queue = &mut self.queue;
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
            let mut pop_bits = m;
            while pop_bits != 0 {
                let bit = pop_bits.trailing_zeros() as usize;
                pop_bits &= pop_bits - 1;
                per_visited[bit] += 1;
            }
            for &w in adjacency.neighbors(v) {
                let wi = w as usize;
                let seen = visited[wi];
                let new = m & !seen;
                if new == 0 {
                    continue;
                }
                if seen == 0 {
                    touched.push(w);
                }
                visited[wi] = seen | new;
                let p = positions[wi];
                let mut enq = 0u64;
                let mut bits = new;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    if queries[bit as usize].contains(p) {
                        enq |= 1u64 << bit;
                        results[bit as usize].push(w);
                    } else {
                        // Boundary mark, per the sequential convention.
                        per_visited[bit as usize] += 1;
                    }
                }
                if enq != 0 {
                    if pending[wi] == 0 {
                        queue.push(w);
                    }
                    pending[wi] |= enq;
                }
                rejected += usize::from(enq != new);
            }
        }
        // Each pop is one expansion event.
        self.expansions += head;
        self.rejected += rejected;
    }

    /// Distinct traversal events of the last shared crawl — the
    /// deterministic "how much work did sharing save" counter (compare
    /// against the sum of the per-member `per_visited`).
    pub(crate) fn shared_visited(&self) -> usize {
        self.expansions + self.rejected
    }

    /// Heap bytes of the scratch structures.
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.visited.capacity() + self.pending.capacity()) * std::mem::size_of::<u64>()
            + (self.touched.capacity() + self.queue.capacity()) * std::mem::size_of::<VertexId>()
            + self.comp_stamp.capacity() * std::mem::size_of::<u32>()
            + self.comp_seeded.capacity() * std::mem::size_of::<u64>()
    }

    /// Test hook mirroring `EpochStamps::force_epoch`.
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
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
                g.seed(v, j as u32, &mut results);
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
        assert!(g.touched.len() > mesh.num_vertices() / 4);
        assert_eq!(crawled(&mut g, &mesh, &right), want);
        assert_eq!(g.per_visited, fresh.per_visited);
        assert_eq!(g.shared_visited(), fresh.shared_visited());
    }
}
