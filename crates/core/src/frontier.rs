//! The shared-frontier group crawl: one BFS over a group of overlapping
//! queries, driven by [`crate::Octopus::query_group`] for groups of two
//! or more (a single query runs the sequential crawl instead).

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
/// All mask arrays are epoch-stamped (the `EpochStamps` trick):
/// starting a new group is O(1) and a vertex's masks are lazily zeroed
/// on first touch, so one scratch serves any number of groups. Sized
/// lazily on first use: a scratch that only ever runs single queries
/// holds no heap memory here.
#[derive(Debug, Default)]
pub(crate) struct GroupScratch {
    epoch: u32,
    /// Per-vertex epoch stamp gating `visited`/`pending`.
    stamp: Vec<u32>,
    /// Member bits that have marked this vertex (inside or boundary).
    visited: Vec<u64>,
    /// Member bits waiting to expand from this vertex (≠ 0 ⇔ queued).
    pending: Vec<u64>,
    queue: std::collections::VecDeque<VertexId>,
    /// Per-component epoch stamp gating `comp_seeded`.
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

impl GroupScratch {
    /// Prepares for a new group of `k ≤ MAX_GROUP` queries over a mesh
    /// with `num_vertices` vertices and `num_components` connected
    /// components. O(1) amortised (O(V) only on resize or on the rare
    /// epoch wrap).
    pub(crate) fn begin_group(&mut self, num_vertices: usize, num_components: usize, k: usize) {
        assert!(
            k <= MAX_GROUP,
            "group of {k} exceeds the {MAX_GROUP} mask bits"
        );
        if self.stamp.len() != num_vertices {
            self.stamp.resize(num_vertices, self.epoch);
            self.visited.resize(num_vertices, 0);
            self.pending.resize(num_vertices, 0);
        }
        if self.comp_stamp.len() != num_components {
            self.comp_stamp.resize(num_components, self.epoch);
            self.comp_seeded.resize(num_components, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
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

    /// Lazily zeroes vertex `v`'s masks on first touch this group.
    #[inline]
    fn touch(&mut self, v: usize) {
        if self.stamp[v] != self.epoch {
            self.stamp[v] = self.epoch;
            self.visited[v] = 0;
            self.pending[v] = 0;
        }
    }

    /// Seeds vertex `v` (known inside member `bit`'s query) into the
    /// shared frontier; appends it to that member's result list when
    /// fresh. Returns whether it was fresh for that member.
    pub(crate) fn seed(&mut self, v: VertexId, bit: u32, results: &mut [Vec<VertexId>]) -> bool {
        let i = v as usize;
        self.touch(i);
        let m = 1u64 << bit;
        if self.visited[i] & m != 0 {
            return false;
        }
        self.visited[i] |= m;
        results[bit as usize].push(v);
        self.per_seeds[bit as usize] += 1;
        if self.pending[i] == 0 {
            self.queue.push_back(v);
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
    pub(crate) fn crawl(&mut self, mesh: &Mesh, queries: &[Aabb], results: &mut [Vec<VertexId>]) {
        let positions = mesh.positions();
        let adjacency = mesh.adjacency();
        while let Some(v) = self.queue.pop_front() {
            let i = v as usize;
            let m = self.pending[i];
            self.pending[i] = 0;
            debug_assert!(m != 0, "queued vertex must have pending bits");
            self.expansions += 1;
            let mut pop_bits = m;
            while pop_bits != 0 {
                let bit = pop_bits.trailing_zeros() as usize;
                pop_bits &= pop_bits - 1;
                self.per_visited[bit] += 1;
            }
            let neighbors = adjacency.neighbors(v);
            // Neighbour positions are random accesses; hint them all
            // before testing (lists are short — the mesh degree).
            for &w in neighbors {
                octopus_geom::mem::prefetch_read(positions, w as usize);
            }
            for &w in neighbors {
                let wi = w as usize;
                self.touch(wi);
                let new = m & !self.visited[wi];
                if new == 0 {
                    continue;
                }
                self.visited[wi] |= new;
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
                        self.per_visited[bit as usize] += 1;
                    }
                }
                if enq != 0 {
                    if self.pending[wi] == 0 {
                        self.queue.push_back(w);
                    }
                    self.pending[wi] |= enq;
                }
                if enq != new {
                    self.rejected += 1;
                }
            }
        }
    }

    /// Distinct traversal events of the last shared crawl — the
    /// deterministic "how much work did sharing save" counter (compare
    /// against the sum of the per-member `per_visited`).
    pub(crate) fn shared_visited(&self) -> usize {
        self.expansions + self.rejected
    }

    /// Heap bytes of the scratch structures.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.stamp.capacity() * std::mem::size_of::<u32>()
            + (self.visited.capacity() + self.pending.capacity()) * std::mem::size_of::<u64>()
            + self.comp_stamp.capacity() * std::mem::size_of::<u32>()
            + self.comp_seeded.capacity() * std::mem::size_of::<u64>()
            + self.queue.capacity() * std::mem::size_of::<VertexId>()
    }

    /// Test hook mirroring `EpochStamps::force_epoch`.
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}
