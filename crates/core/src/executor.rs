//! The OCTOPUS query executor (Algorithm 1).

use crate::frontier::GroupScratch;
use crate::metrics::{ExecMode, ExecutorMetrics};
use crate::shape::{AggregateKind, AggregateValue, QueryShape, ShapeResult};
use crate::surface_grid::SurfaceGrid;
use octopus_geom::mem::gather;
use octopus_geom::{Aabb, Point3, Region, VertexId};
use octopus_mesh::{Csr, Mesh, MeshError, SurfaceDelta};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-phase timing and work counters for one query execution — the raw
/// material of the paper's Fig. 9(b) and Fig. 10(a) breakdowns.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Time spent in the surface probe, whichever [`Probe`] ran it.
    pub surface_probe: Duration,
    /// Always zero: no probe runs from a cached candidate list any
    /// more. The field stays because the repository benchmark's
    /// recorder reads it; it goes when a benchmark change drops it.
    pub cache_probe: Duration,
    /// Time spent in a planner-routed shared linear scan (zero on the
    /// probe/crawl path).
    pub linear_scan: Duration,
    /// Time spent in directed walks: from the first walk that ran to
    /// the end of phase 2, zero when `walks` is (every component was
    /// seeded by the probe or skipped by the bound).
    pub directed_walk: Duration,
    /// Time spent crawling (BFS).
    pub crawling: Duration,
    /// Surface vertices found inside the query (crawl seeds).
    pub start_vertices: usize,
    /// Vertices stepped through by the directed walks.
    pub walk_visited: usize,
    /// Components walked: those the probe left seedless and the probe's
    /// component bound ([`Probe::Grid`] has one, [`Probe::Surface`]
    /// none) could not rule out.
    pub walks: usize,
    /// Seedless components the bound ruled out, so no walk ran:
    /// `walks + walks_pruned` is what [`Probe::Surface`] walks.
    pub walks_pruned: usize,
    /// Vertices examined during the crawl (result + frontier).
    pub crawl_visited: usize,
    /// Surface ids a [`Probe::Grid`] visited (zero under
    /// [`Probe::Surface`], which visits all S) — against S it is what
    /// the grid saved.
    pub grid_candidates: usize,
    /// Result size.
    pub results: usize,
}

impl PhaseTimings {
    /// Total execution time of the query.
    pub fn total(&self) -> Duration {
        self.surface_probe
            + self.cache_probe
            + self.linear_scan
            + self.directed_walk
            + self.crawling
    }

    /// Accumulates another query's timings (for per-benchmark totals).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.surface_probe += other.surface_probe;
        self.cache_probe += other.cache_probe;
        self.linear_scan += other.linear_scan;
        self.directed_walk += other.directed_walk;
        self.crawling += other.crawling;
        self.start_vertices += other.start_vertices;
        self.walk_visited += other.walk_visited;
        self.walks += other.walks;
        self.walks_pruned += other.walks_pruned;
        self.crawl_visited += other.crawl_visited;
        self.grid_candidates += other.grid_candidates;
        self.results += other.results;
    }
}

/// The OCTOPUS query execution strategy (§IV).
///
/// Holds the component map — a component label per vertex, and the
/// mesh surface as one ascending id list per component — and an
/// optional telemetry sink; no positions and no scratch. It is
/// immutable once built: restructuring derives the next generation's
/// executor ([`Octopus::restructured`]) and a re-layout the relabelled
/// one ([`Octopus::relabelled`]). Every query brings its own
/// [`QueryScratch`] ([`Octopus::make_scratch`]) and [`Probe`], so any
/// number of threads may query one `&Octopus`. Queries take the mesh by
/// reference: OCTOPUS reads the *live* positions directly from memory
/// and therefore needs no notification of deformation steps — the
/// paper's central claim.
///
/// ```
/// use octopus_core::{Octopus, Probe};
/// use octopus_geom::{Aabb, Point3};
/// use octopus_meshgen::{tet::tetrahedralize, VoxelRegion};
///
/// let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
/// let mut mesh = tetrahedralize(&VoxelRegion::solid_box(&bounds, 6, 6, 6))?;
/// let engine = Octopus::new(&mesh)?;
/// let mut scratch = engine.make_scratch(&mesh);
///
/// // The simulation rewrites positions in place — no maintenance call.
/// for p in mesh.positions_mut() {
///     p.x *= 1.01;
/// }
///
/// let q = Aabb::cube(Point3::splat(0.5), 0.2);
/// let mut result = Vec::new();
/// let stats = engine.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut result);
/// assert_eq!(stats.results, result.len());
/// assert!(result.iter().all(|&v| {
///     let p = mesh.position(v);
///     (0.3..=0.7).contains(&(p.x / 1.01)) || (0.3..=0.7).contains(&p.x)
/// }));
/// # Ok::<(), octopus_mesh::MeshError>(())
/// ```
#[derive(Debug)]
pub struct Octopus {
    components: ComponentMap,
    /// Telemetry sink, attachable once per executor through `&self`
    /// (snapshot-ring generations share an executor behind `Arc`, so
    /// attachment must not need `&mut`). `None` until attached; every
    /// query entry point records into it when present.
    metrics: OnceLock<Arc<ExecutorMetrics>>,
}

/// Per-thread scratch state for query execution: the crawl's member
/// masks (no epoch: zero outside a query, each crawl zeroing the
/// vertices it touched when it ends), its look-ahead queue and the
/// per-component seeding masks. A single query is a group
/// of one, so every entry point uses the same state. Obtained from
/// [`Octopus::make_scratch`]; every scratch may serve any number of
/// queries and groups, in any order, against the `Octopus` it came from.
#[derive(Debug)]
pub struct QueryScratch {
    group: GroupScratch,
    /// Reusable staging buffer for the shape queries (k-nearest
    /// candidate sets, aggregate members) so they stay allocation-free
    /// in steady state like the box path.
    shape_buf: Vec<VertexId>,
}

impl QueryScratch {
    /// Heap bytes of the scratch structures.
    pub fn memory_bytes(&self) -> usize {
        self.group.memory_bytes() + self.shape_buf.capacity() * std::mem::size_of::<VertexId>()
    }

    /// The part of [`QueryScratch::memory_bytes`] sized by the mesh
    /// rather than by results: the crawl's two `u64` masks per vertex.
    pub fn mask_bytes(&self) -> usize {
        self.group.mask_bytes()
    }
}

/// Connected-component bookkeeping for the component-aware directed walk.
///
/// **Reproduction finding.** The paper's §IV-C argues that "each disjoint
/// sub-mesh obtained by the intersection of the query and a non-convex
/// mesh contains at least one surface vertex inside the query range",
/// and Algorithm 1 therefore only walks when *no* surface vertex at all
/// is inside the query. That claim fails when the query simultaneously
/// (a) contains surface vertices of one region and (b) fully encloses
/// interior material elsewhere — e.g. a box clipping neuron A's membrane
/// while sitting inside neuron B's trunk: B's sub-mesh has no surface
/// vertex in the box and Algorithm 1 silently returns only A's vertices.
///
/// Component ids depend only on connectivity, so they are — like the
/// surface — invariant under deformation and maintainable at zero cost
/// per time step. Tracking which components contributed probe seeds and
/// walking each seedless component separately closes the gap whenever
/// the interior material belongs to a different connected component. The
/// residual single-component case (query enclosed in a concave feature
/// of the *same* component that it also clips elsewhere, or in-query
/// vertices whose graph neighbours all lie outside a sub-cell-sized
/// query) remains a documented limitation inherited from the paper.
///
/// **What it costs, and who prunes it.** A walk per seedless component
/// is a strided start search over that component's surface plus a
/// greedy descent (`walk_component`) — 6–7 µs per query and component
/// on the two-neuron meshes, nearly always to learn that the component
/// is nowhere near the box. Under [`Probe::Surface`] every seedless
/// component is walked. Under [`Probe::Grid`] the grid — built by
/// [`Octopus::surface_grid`] with these labels — holds the bounding
/// box of each component's surface anchors, and phase 2 first asks
/// whether the component can hold a vertex inside the query's bounds
/// at all ([`SurfaceGrid::component_in_reach`]): a comparison per
/// component instead of a walk, exact under the premise stated in
/// [`crate::surface_grid`].
///
/// **How it follows the mesh.** Built once by a search over every
/// vertex ([`Csr::connected_components`]); after that a restructuring
/// delta *patches* it ([`ComponentMap::patch`], O(what the operations
/// touched)) and a relabelling *maps* it ([`ComponentMap::relabelled`]).
/// The search runs again only when a patch cannot vouch for its result
/// — a delta that skips an operation, a cut edge whose ends do not meet
/// again within [`MEET_BUDGET`] — and the executor's metrics count each
/// time it does.
/// Ids are the search's on a fresh build and after a relabelling;
/// patched ones are the same partition under other numbers.
///
/// [`Csr::connected_components`]: octopus_mesh::Csr::connected_components
///
/// **The surface lives here.** The paper keeps the surface in a hash
/// table so that a restructure can delete from it in O(1) (§IV-E); the
/// component-aware walk needs the surface split by component anyway,
/// so these lists are the executor's only copy of it. The full probe
/// reads them one run per component; a restructure edits them from the
/// delta, a binary search and a shift per id.
#[derive(Clone, Debug, Default)]
struct ComponentMap {
    /// Component id per vertex.
    component_of: Vec<u32>,
    /// Surface vertex ids grouped by component, each list ascending;
    /// its length is the number of components.
    surface_by_component: Vec<Vec<VertexId>>,
    /// Typical edge length (sampled when the executor was first built)
    /// — the scale against which a failed walk's stall distance is
    /// judged. Deformation and restructuring drift it, which is fine:
    /// it only gates a retry heuristic.
    edge_scale: f32,
    /// [`Mesh::restructure_epoch`] of the mesh the map describes: a
    /// delta must advance it to the next mesh's for a patch to apply.
    epoch: u64,
}

/// The id of a vertex a patch has not placed (never left in a map).
const UNPLACED: u32 = u32::MAX;

/// Vertices [`still_joined`] may visit before it gives up on confirming
/// that a cut left its component whole.
const MEET_BUDGET: usize = 1024;

impl ComponentMap {
    /// The map of `mesh`, whose surface vertices are `surface`
    /// (ascending), by a search over every vertex.
    fn build(mesh: &Mesh, surface: &[VertexId], edge_scale: f32) -> ComponentMap {
        let (component_of, count) = mesh.adjacency().connected_components();
        let mut surface_by_component = vec![Vec::new(); count];
        for &v in surface {
            surface_by_component[component_of[v as usize] as usize].push(v);
        }
        ComponentMap {
            component_of,
            surface_by_component,
            edge_scale,
            epoch: mesh.restructure_epoch(),
        }
    }

    /// Number of components.
    #[inline]
    fn count(&self) -> usize {
        self.surface_by_component.len()
    }

    /// Number of surface vertices, S.
    fn surface_len(&self) -> usize {
        self.surface_by_component.iter().map(Vec::len).sum()
    }

    /// The surface vertices, ascending.
    fn sorted_surface(&self) -> Vec<VertexId> {
        let mut ids = self.surface_by_component.concat();
        ids.sort_unstable();
        ids
    }

    /// Brings the map to `mesh`, the mesh it describes after `delta`'s
    /// operations: patched when [`ComponentMap::patch`] vouches for it,
    /// searched afresh otherwise. Returns whether it patched.
    ///
    /// The search keeps the surface the lists hold with `delta`
    /// applied — old surface − `removed` + `added`, as §IV-E2's index
    /// updates have it. A patch that gave up may have edited some of
    /// the lists already; the surface comes out the same, since it only
    /// removed ids of `removed` and inserted ids of `added`.
    fn follow(&mut self, mesh: &Mesh, delta: &SurfaceDelta) -> bool {
        let patched = self.patch(mesh, delta);
        if !patched {
            let mut removed = delta.removed.clone();
            removed.sort_unstable();
            let mut surface: Vec<VertexId> = (self.surface_by_component.iter().flatten())
                .filter(|v| removed.binary_search(v).is_err())
                .chain(&delta.added)
                .copied()
                .collect();
            surface.sort_unstable();
            surface.dedup();
            *self = ComponentMap::build(mesh, &surface, self.edge_scale);
        }
        debug_assert!(
            self.matches_rebuild(mesh),
            "the patched component map diverged from the search"
        );
        patched
    }

    /// Patches the map into the map of `mesh`, given that `delta`
    /// carries every operation between the mesh the map describes and
    /// `mesh`. Returns `false` — the map is then half-patched and must be
    /// rebuilt — when it cannot vouch for the result: `delta` does not
    /// account for every epoch in between, or a cut may have split a
    /// component.
    ///
    /// It rests on the operations' shape: none joins two components (a
    /// removal only deletes edges; a refinement's new edges all end at
    /// its new vertex, inside the refined cell), and the edges they
    /// delete are `delta.cut`, all between `delta.touched` vertices. So
    /// * a new vertex joins its smallest neighbour's component (an older
    ///   vertex: a refinement appends its centroid after the corners);
    /// * a touched vertex left in no live cell is a component of its
    ///   own, as the search has it: the first such vertex of a component
    ///   nothing else of survives keeps the old id, any other gets a
    ///   fresh one;
    /// * every other vertex keeps its component, unless a cut split it —
    ///   which it did not if the ends of the cut edges that are still in
    ///   a live cell meet again, group by group where cut edges chain
    ///   into each other (an old path between two surviving vertices
    ///   detours around every cut run it used). [`cuts_rejoined`] checks
    ///   that by searches that stop as soon as their ends have met; most
    ///   operations cut nothing and search nothing.
    ///
    /// Surface lists follow `delta.removed` / `delta.added`.
    fn patch(&mut self, mesh: &Mesh, delta: &SurfaceDelta) -> bool {
        let (old_n, n) = (self.component_of.len(), mesh.num_vertices());
        if self.epoch + delta.ops != mesh.restructure_epoch()
            || n < old_n
            || !cuts_rejoined(mesh.adjacency(), &delta.cut)
        {
            return false;
        }
        // Vertices that left the surface go while their ids still name
        // their lists (an orphan below may get a new one).
        for &v in &delta.removed {
            let Some(&k) = self.component_of.get(v as usize) else {
                return false;
            };
            let ids = &mut self.surface_by_component[k as usize];
            match ids.binary_search(&v) {
                Ok(at) => ids.remove(at),
                Err(_) => return false,
            };
        }
        self.component_of.resize(n, UNPLACED);
        for v in old_n..n {
            self.component_of[v] = match mesh.neighbors(v as VertexId).first() {
                Some(&w) => self.component_of[w as usize],
                None => self.fresh_id(),
            };
        }
        if self.component_of[old_n..].contains(&UNPLACED) {
            return false;
        }
        // The components that kept a touched vertex in a live cell keep
        // their ids; a touched vertex without one is an orphan.
        let (mut kept, mut orphans) = (Vec::new(), Vec::new());
        for &v in &delta.touched {
            match self.component_of.get(v as usize) {
                None => return false,
                Some(&k) if mesh.is_vertex_active(v) => kept.push(k),
                Some(_) => orphans.push(v),
            }
        }
        kept.sort_unstable();
        for v in orphans.into_iter().filter(|&v| (v as usize) < old_n) {
            let k = self.component_of[v as usize];
            if kept.binary_search(&k).is_ok() {
                self.component_of[v as usize] = self.fresh_id();
            } else {
                kept.insert(kept.partition_point(|&j| j < k), k);
            }
        }
        for &v in &delta.added {
            let ids = &mut self.surface_by_component[self.component_of[v as usize] as usize];
            match ids.binary_search(&v) {
                Ok(_) => return false,
                Err(at) => ids.insert(at, v),
            }
        }
        self.epoch = mesh.restructure_epoch();
        true
    }

    /// A new component with no surface vertex yet; returns its id.
    fn fresh_id(&mut self) -> u32 {
        self.surface_by_component.push(Vec::new());
        self.count() as u32 - 1
    }

    /// The map of the same mesh after a vertex relabelling (`old`
    /// became `perm[old]`): every id moves with its vertex, the ids are
    /// renumbered in the order of each component's smallest vertex —
    /// the order the search numbers them in — and the surface lists are
    /// mapped and re-sorted. O(V + S log S) and no search: equal to a
    /// fresh build of the relabelled mesh.
    fn relabelled(&self, perm: &[VertexId]) -> ComponentMap {
        let mut component_of = vec![UNPLACED; self.component_of.len()];
        for (old, &new) in perm.iter().enumerate() {
            component_of[new as usize] = self.component_of[old];
        }
        let mut renumbered = vec![UNPLACED; self.count()];
        let mut next = 0;
        for k in &mut component_of {
            let id = &mut renumbered[*k as usize];
            if *id == UNPLACED {
                *id = next;
                next += 1;
            }
            *k = *id;
        }
        let mut surface_by_component = vec![Vec::new(); self.count()];
        for (ids, &k) in self.surface_by_component.iter().zip(&renumbered) {
            let mut moved: Vec<VertexId> = ids.iter().map(|&v| perm[v as usize]).collect();
            moved.sort_unstable();
            surface_by_component[k as usize] = moved;
        }
        ComponentMap {
            component_of,
            surface_by_component,
            ..*self
        }
    }

    /// True when the map is the search's over `mesh` up to the
    /// numbering: the same partition, and its surface vertices filed
    /// under the parts the search puts them in. The debug builds'
    /// cross-check of every patch.
    fn matches_rebuild(&self, mesh: &Mesh) -> bool {
        let fresh = ComponentMap::build(mesh, &self.sorted_surface(), self.edge_scale);
        if fresh.count() != self.count() || fresh.component_of.len() != self.component_of.len() {
            return false;
        }
        let mut to_fresh = vec![UNPLACED; self.count()];
        for (&ours, &theirs) in self.component_of.iter().zip(&fresh.component_of) {
            let slot = &mut to_fresh[ours as usize];
            if *slot != UNPLACED && *slot != theirs {
                return false;
            }
            *slot = theirs;
        }
        let mut image = to_fresh.clone();
        image.sort_unstable();
        image.dedup();
        image.len() == self.count()
            && !image.contains(&UNPLACED)
            && to_fresh
                .iter()
                .zip(&self.surface_by_component)
                .all(|(&k, ids)| fresh.surface_by_component[k as usize] == *ids)
    }
}

/// Whether deleting the `cut` edges left every component whole: the
/// ends of edges that chain into each other (share an end) form a
/// group, and each group's ends still in a live cell must still meet
/// ([`still_joined`]). Ends without a live cell are orphans, which the
/// caller makes components of their own; a chain through one joins the
/// ends on either side into one group, as a path through it did.
fn cuts_rejoined(adjacency: &Csr, cut: &[(VertexId, VertexId)]) -> bool {
    let mut ends: Vec<VertexId> = cut.iter().flat_map(|&(a, b)| [a, b]).collect();
    ends.sort_unstable();
    ends.dedup();
    let at = |v: VertexId| ends.binary_search(&v).expect("every end is listed");
    let mut parent: Vec<usize> = (0..ends.len()).collect();
    for &(a, b) in cut {
        let (ra, rb) = (root(&mut parent, at(a)), root(&mut parent, at(b)));
        parent[ra] = rb;
    }
    let mut groups: Vec<(usize, VertexId)> = Vec::new();
    for (i, &v) in ends.iter().enumerate() {
        if adjacency.degree(v) > 0 {
            groups.push((root(&mut parent, i), v));
        }
    }
    groups.sort_unstable();
    groups
        .chunk_by(|a, b| a.0 == b.0)
        .all(|run| run.len() < 2 || still_joined(adjacency, run.iter().map(|&(_, v)| v)))
}

/// The representative of `i`'s set in a union-find forest, halving the
/// path on the way.
fn root(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Whether `sources` — distinct vertices of one component before the
/// cut — still lie in one component. A search grows from each source in
/// turn, one vertex at a time; searches that reach each other's
/// vertices merge, and the answer is yes as soon as one search holds
/// every source. No when a search runs out of vertices before that (its
/// source's piece was cut off), or when the searches visited
/// [`MEET_BUDGET`] vertices without meeting: a caller that cannot tell
/// those apart searches the whole mesh anyway.
fn still_joined(adjacency: &Csr, sources: impl Iterator<Item = VertexId>) -> bool {
    let mut owner: HashMap<VertexId, usize> = HashMap::new();
    let mut queues: Vec<VecDeque<VertexId>> = Vec::new();
    for (i, v) in sources.enumerate() {
        owner.insert(v, i);
        queues.push(VecDeque::from([v]));
    }
    // Union-find over the searches; only a root's queue is in use.
    let mut parent: Vec<usize> = (0..queues.len()).collect();
    let mut searches = queues.len();
    while searches > 1 && owner.len() <= MEET_BUDGET {
        for i in 0..queues.len() {
            if parent[i] != i {
                continue;
            }
            let Some(v) = queues[i].pop_front() else {
                return false;
            };
            for &w in adjacency.neighbors(v) {
                match owner.entry(w) {
                    Entry::Vacant(slot) => {
                        slot.insert(i);
                        queues[i].push_back(w);
                    }
                    Entry::Occupied(slot) => {
                        let other = root(&mut parent, *slot.get());
                        if other != i {
                            parent[other] = i;
                            let merged = std::mem::take(&mut queues[other]);
                            queues[i].extend(merged);
                            searches -= 1;
                            if searches == 1 {
                                return true;
                            }
                        }
                    }
                }
            }
        }
    }
    searches <= 1
}

/// Samples ~1000 vertices' first edges for the typical edge length.
///
/// **Isolated-vertex convention**: vertices with no adjacency edges
/// carry no length information and are skipped *without consuming a
/// sample slot*. On meshes where coarsening has orphaned many
/// vertices a strided pass can land exclusively on orphans — in that
/// case a dense fallback scan finds the surviving edges, so the scale
/// is `0.0` only when the mesh truly has no edges (and never because
/// the sampler got unlucky). A zero scale would silently disable the
/// directed-walk retry heuristic that is gated on it.
fn sample_edge_scale(mesh: &Mesh) -> f32 {
    let n = mesh.num_vertices();
    let stride = (n / 1000).max(1);
    let mut total = 0.0f64;
    let mut edges = 0usize;
    for v in (0..n).step_by(stride) {
        if let Some(&w) = mesh.neighbors(v as u32).first() {
            total += f64::from(mesh.position(v as u32).dist(mesh.position(w)));
            edges += 1;
        }
    }
    if edges == 0 && stride > 1 {
        // Strided pass hit only isolated vertices: fall back to a dense
        // scan, bounded by the same sample budget.
        for v in 0..n {
            if let Some(&w) = mesh.neighbors(v as u32).first() {
                total += f64::from(mesh.position(v as u32).dist(mesh.position(w)));
                edges += 1;
                if edges >= 1000 {
                    break;
                }
            }
        }
    }
    if edges == 0 {
        0.0
    } else {
        (total / edges as f64) as f32
    }
}

impl Octopus {
    /// Builds the executor for `mesh`: extracts the surface once and
    /// buckets it by connected component (a search over every vertex).
    pub fn new(mesh: &Mesh) -> Result<Octopus, MeshError> {
        let surface = mesh.surface()?;
        let components = ComponentMap::build(mesh, surface.vertices(), sample_edge_scale(mesh));
        Ok(Octopus {
            components,
            metrics: OnceLock::new(),
        })
    }

    /// Creates a query scratch sized for `mesh`, so no query pays for
    /// the per-vertex masks; it grows when a later mesh has more
    /// vertices. Callers give each thread its own scratch and share the
    /// executor itself behind `&Octopus` (see [`Octopus::query_with`]).
    pub fn make_scratch(&self, mesh: &Mesh) -> QueryScratch {
        let mut group = GroupScratch::default();
        group.begin_group(mesh.num_vertices(), self.components.count(), 0);
        QueryScratch {
            group,
            shape_buf: Vec::new(),
        }
    }

    /// Number of surface vertices, S — the probe-cost factor of Eq. 1.
    pub fn surface_len(&self) -> usize {
        self.components.surface_len()
    }

    /// The surface vertex ids in the full probe's order: component by
    /// component, each component's ids ascending.
    pub fn surface(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.components
            .surface_by_component
            .iter()
            .flatten()
            .copied()
    }

    /// This executor's [`SurfaceGrid`] anchored at `positions`: its
    /// surface ids bucketed into cells of edge `cell`, and each of its
    /// connected components bounded by its surface anchors — the grid
    /// every [`Probe::Grid`] handed to this executor must come from. An
    /// executor derived by [`Octopus::restructured`] or
    /// [`Octopus::relabelled`] needs its own (the former can patch this
    /// one: [`Octopus::patched_surface_grid`]).
    pub fn surface_grid(&self, positions: &[Point3], cell: f32) -> SurfaceGrid {
        SurfaceGrid::build(
            &self.components.sorted_surface(),
            positions,
            &self.components.component_of,
            self.components.count(),
            cell,
        )
    }

    /// [`Octopus::surface_grid`] of this executor derived from `grid`,
    /// the grid of the executor this one was [`Octopus::restructured`]
    /// from by `delta`, instead of built: `delta`'s removed ids
    /// dropped, its added ids filed at `positions`, and the component
    /// bounds taken again under this executor's labels
    /// ([`SurfaceGrid::patched`]). It holds exactly this executor's
    /// surface ids and keeps `grid`'s cell; O(S) in sequential copies,
    /// where a build gathers every surface position and sorts.
    pub fn patched_surface_grid(
        &self,
        grid: &SurfaceGrid,
        positions: &[Point3],
        delta: &SurfaceDelta,
    ) -> SurfaceGrid {
        grid.patched(
            &delta.removed,
            &delta.added,
            positions,
            &self.components.component_of,
            self.components.count(),
        )
    }

    /// The executor for the post-restructuring `mesh` (§IV-E2;
    /// connectivity changed, positions are irrelevant), while `self`
    /// keeps answering for the pre-restructuring snapshot. The
    /// component map is copied and patched from `delta`, its surface
    /// lists by `delta.removed` / `delta.added` — O(what the operations
    /// touched), no re-extraction, and a search over the mesh only
    /// where the patch cannot vouch for itself (see
    /// `ComponentMap::patch`; the attached metrics count both
    /// outcomes). `delta` must carry every operation since the mesh
    /// this executor describes; one that skips an operation costs the
    /// search, never a stale map. Not needed for deformation. This is
    /// how a snapshot ring gives each retained connectivity generation
    /// its own executor — older pinned snapshots stay queryable while
    /// newer steps restructure ahead of them.
    ///
    /// Only `mesh`'s adjacency and restructure epoch are read, never
    /// its surface or face table: a [`Mesh::snapshot`] is all the ring
    /// needs to hand in, and the executor's own lists are from here on
    /// the only holder of S on the serving side. Telemetry carries
    /// over: every ring generation keeps recording into the same metric
    /// family.
    pub fn restructured(&self, mesh: &Mesh, delta: &SurfaceDelta) -> Octopus {
        let mut components = self.components.clone();
        let patched = components.follow(mesh, delta);
        self.note_component_map(patched);
        Octopus {
            components,
            metrics: self.metrics.clone(),
        }
    }

    /// The executor for `mesh` = this executor's mesh relabelled by
    /// `perm` (vertex `old` became `perm[old]`, as
    /// [`Mesh::permute_vertices`] does): the component map and its
    /// surface lists are mapped through the permutation, which leaves
    /// them equal to a fresh build's. Like [`Octopus::restructured`] it
    /// derives instead of extracting or searching (and inherits
    /// telemetry), so a re-layout costs the monitor no surface
    /// extraction and cannot fail. A `mesh` of another connectivity
    /// generation than this executor's gets a search over the mapped
    /// surface, counted as a restructure's search is.
    pub fn relabelled(&self, mesh: &Mesh, perm: &[VertexId]) -> Octopus {
        let map = &self.components;
        let relabels = mesh.restructure_epoch() == map.epoch
            && mesh.num_vertices() == map.component_of.len()
            && perm.len() == map.component_of.len();
        let components = if relabels {
            map.relabelled(perm)
        } else {
            let mut surface: Vec<VertexId> = self.surface().map(|v| perm[v as usize]).collect();
            surface.sort_unstable();
            ComponentMap::build(mesh, &surface, map.edge_scale)
        };
        debug_assert!(components.matches_rebuild(mesh));
        self.note_component_map(relabels);
        Octopus {
            components,
            metrics: self.metrics.clone(),
        }
    }

    /// The component map, for tests: each vertex's component id, and
    /// each component's surface vertices, ascending (one list per
    /// component). Ids are arbitrary up to renumbering; the partition
    /// and the lists are what [`octopus_mesh::Csr::connected_components`]
    /// gives.
    #[doc(hidden)]
    pub fn component_map(&self) -> (&[u32], &[Vec<VertexId>]) {
        (
            &self.components.component_of,
            &self.components.surface_by_component,
        )
    }

    /// Executes a query over any [`Region`] — a box, or the generalised
    /// crawl predicate behind [`QueryShape::Convex`] — seeded by
    /// `probe`, appending every vertex of `mesh` whose current position
    /// lies in `region` to `out`. Returns per-phase timings. `scratch`
    /// is the caller's ([`Octopus::make_scratch`]): many threads may
    /// call this simultaneously on one `&Octopus` + one `&Mesh`, each
    /// with its own scratch and output vector.
    ///
    /// Implements Algorithm 1: **surface probe** (the ids `probe`
    /// visits — all surface vertices under [`Probe::Surface`], the
    /// paper's probe; those inside the region seed the crawl) →
    /// **directed walk** → **crawling** (BFS bounded by the region). It
    /// runs as a group of one of [`Octopus::query_group`]'s: the same
    /// probe, walks and crawl kernel.
    ///
    /// Monomorphised per region type, so the box path pays nothing for
    /// the generality: probe and crawl test the region's containment,
    /// the component-aware directed walks follow its guidance distance.
    /// Exactness needs `region.dist_sq` to be zero exactly on
    /// containment, which both [`Aabb`] and
    /// [`octopus_geom::ConvexRegion`] guarantee.
    ///
    /// # Accuracy
    /// Extends Algorithm 1 with a **component-aware** directed walk (the
    /// reproduction finding documented on `ComponentMap` in
    /// `crates/core/src/executor.rs`): the walk runs for every connected
    /// component that produced no probe seed, not only when no seed
    /// exists at all. Exact whenever each query-intersecting piece of
    /// each component either supplies a surface vertex inside the
    /// region or is reachable by a greedy walk — the residual gap (a
    /// concave same-component pocket fully inside region-free space, or
    /// queries smaller than the local cell size) is inherited from the
    /// paper and pinned by
    /// `tests/surface_maintenance.rs::inherited_algorithm1_gap_is_pinned`.
    pub fn query_with<R: Region>(
        &self,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        region: &R,
        probe: Probe<'_>,
        out: &mut Vec<VertexId>,
    ) -> PhaseTimings {
        let t = self.run_one(scratch, mesh, region, probe, out);
        self.note(ExecMode::Fresh, &t);
        t
    }

    /// Answers any [`QueryShape`] — the one entry for every shape: a box
    /// or convex region runs [`Octopus::query_with`], k-NN the exact
    /// expanding-cube search (`run_knn`), an aggregate a fold over the
    /// scratch's recycled id buffer (`run_aggregate`). Every box query the
    /// shape reduces to is seeded by `probe`; the monitor serves shape
    /// batches through it.
    pub fn query_shape(
        &self,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        shape: &QueryShape,
        probe: Probe<'_>,
    ) -> (ShapeResult, PhaseTimings) {
        let mut out = Vec::new();
        let t = match shape {
            QueryShape::Box(q) => self.query_with(scratch, mesh, q, probe, &mut out),
            QueryShape::Convex(r) => self.query_with(scratch, mesh, r, probe, &mut out),
            QueryShape::KNearest { k, point } => {
                let t = run_knn(self, scratch, mesh, *k, *point, &mut out, probe);
                self.note(ExecMode::Knn, &t);
                t
            }
            QueryShape::Aggregate { region, kind } => {
                let (value, t) = run_aggregate(self, scratch, mesh, region, *kind, probe);
                self.note(ExecMode::Aggregate, &t);
                return (ShapeResult::Aggregate(value), t);
            }
        };
        (ShapeResult::Vertices(out), t)
    }

    /// Executes a **group** of ≤ [`MAX_GROUP`](crate::MAX_GROUP) box
    /// queries under one [`Probe`], appending query `i`'s result to
    /// `results[i]` and writing its statistics to `timings[i]` — the
    /// probed entry point the service's plan runner calls once per group. A group of any
    /// size, one included, runs one shared-frontier crawl: a single
    /// probe pass tested against the group's union box first and the
    /// members second, per-query component-aware directed walks, and
    /// one BFS over the members' regions with a per-vertex membership
    /// bitmask, so a vertex inside k overlapping queries is loaded and
    /// expanded once, not k times. A group of one is recorded as
    /// [`ExecMode::Fresh`], like [`Octopus::query_with`].
    ///
    /// Per-query results are identical (as sets) to running
    /// [`Octopus::query_with`] per query, and so are the per-query work
    /// counters of `timings` (`start_vertices`, `walks`,
    /// `walks_pruned`, `walk_visited`, `crawl_visited`, `results`).
    /// **Shared phases are attributed to the group's first member**:
    /// the wall times of the probe, the walks and the crawl are paid
    /// once per group, so they sit on `timings[0]` and are zero on the
    /// other members — summing a batch's timings then sums real time.
    ///
    /// Returns the number of distinct traversal events of the crawl
    /// (each costing one neighbour-list scan or one boundary position
    /// load): compare against the members' summed `crawl_visited` for
    /// what sharing saved (equal for a group of one).
    ///
    /// # Exactness contract of the probes
    /// [`Probe::Grid`] results equal [`Probe::Surface`] results **iff**
    /// `reach` is at least the largest per-axis distance any surface
    /// vertex of `mesh` lies from its anchor in `grid`
    /// ([`SurfaceGrid::reach`] at the mesh's *current* positions) and
    /// `grid` buckets exactly this executor's surface ids: the cells
    /// overlapping a member box dilated by `reach` then hold every
    /// surface vertex inside the box, and every visited id passes the
    /// same containment test the full probe applies (see
    /// [`crate::surface_grid`]). A group probes the cells of its union
    /// box once.
    ///
    /// # Panics
    /// When `queries.len() > MAX_GROUP`, or the `results` or `timings`
    /// arities don't match `queries`.
    pub fn query_group(
        &self,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        queries: &[Aabb],
        probe: Probe<'_>,
        results: &mut [Vec<VertexId>],
        timings: &mut [PhaseTimings],
    ) -> usize {
        assert_eq!(results.len(), queries.len(), "one result list per query");
        assert_eq!(timings.len(), queries.len(), "one timing record per query");
        if queries.is_empty() {
            return 0;
        }
        self.run_group(scratch, mesh, queries, probe, results, timings);
        if let Some(m) = self.metrics.get() {
            m.record_group(timings);
        }
        scratch.group.shared_visited()
    }

    /// Heap bytes of the executor: a component label per vertex and the
    /// per-component surface lists. A query's traversal state is its
    /// [`QueryScratch`]'s ([`QueryScratch::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        let map = &self.components;
        let lists: usize = map.surface_by_component.iter().map(Vec::capacity).sum();
        (map.component_of.capacity() + lists) * std::mem::size_of::<u32>()
            + map.surface_by_component.capacity() * std::mem::size_of::<Vec<VertexId>>()
    }

    /// Attaches a telemetry sink; from now on every query entry point
    /// records its [`PhaseTimings`] into the registry-backed histograms
    /// of `metrics`. Works through `&self` (executors are shared behind
    /// `Arc` by the snapshot ring) and is first-attach-wins: later
    /// calls on an already-instrumented executor are no-ops.
    pub fn attach_metrics(&self, metrics: &Arc<ExecutorMetrics>) {
        let _ = self.metrics.set(Arc::clone(metrics));
    }

    /// The attached telemetry sink, if any.
    pub fn metrics(&self) -> Option<&Arc<ExecutorMetrics>> {
        self.metrics.get()
    }

    /// Publishes [`Octopus::memory_bytes`] to the attached sink's
    /// memory gauge, returning it.
    pub fn publish_memory(&self) -> usize {
        let bytes = self.memory_bytes();
        if let Some(m) = self.metrics.get() {
            m.set_memory(bytes);
        }
        bytes
    }

    /// Count how the component map followed a restructure or a
    /// relabelling, when a sink is attached.
    fn note_component_map(&self, patched: bool) {
        if let Some(m) = self.metrics.get() {
            m.record_component_map(patched);
        }
    }

    /// Feed one query's timings to the sink, when attached.
    #[inline]
    fn note(&self, mode: ExecMode, t: &PhaseTimings) {
        if let Some(m) = self.metrics.get() {
            m.record(mode, t);
        }
    }
}

/// What the seeding phases of Algorithm 1 know about where the surface
/// is — for one query or for a whole group (see
/// [`Octopus::query_group`]): which surface ids phase 1 visits, and
/// which seedless components phase 2 need not walk. Every visited id
/// is tested against the query at its current position and every walk
/// that runs is the same walk; the variants differ only in how much
/// they skip.
#[derive(Clone, Copy, Debug)]
pub enum Probe<'a> {
    /// The full surface (the paper's probe): O(S), one ascending run
    /// per component, and a walk into every component the probe left
    /// seedless.
    Surface,
    /// The cells of `grid` overlapping the query's bounds dilated by
    /// `reach`: O(box), and a walk only into the seedless components
    /// whose anchor box those dilated bounds intersect. Exact iff
    /// `reach` bounds the snapshot's displacement from the grid's
    /// anchors and `grid` came from this executor — see the contract on
    /// [`Octopus::query_group`].
    Grid {
        /// [`Octopus::surface_grid`] of the executor being queried.
        grid: &'a SurfaceGrid,
        /// [`SurfaceGrid::reach`] of the mesh being queried.
        reach: f32,
    },
}

impl Probe<'_> {
    /// Runs `visit(v, positions[v])` over the ids this probe visits
    /// for a region bounded by `bounds` (every list of `surface` for
    /// [`Probe::Surface`]). Returns the ids a grid visited, zero for
    /// the full probe.
    ///
    /// Both variants feed one [`gather`] call site — the full surface
    /// is a run per component, a grid probe a run per cell row — so `visit` has a
    /// single caller and is inlined into the loop; gathering in each
    /// arm of a match left the seeding closure out of line and made the
    /// full probe four times slower.
    #[inline]
    fn run(
        self,
        surface: &[Vec<VertexId>],
        positions: &[Point3],
        bounds: &Aabb,
        mut visit: impl FnMut(VertexId, Point3),
    ) -> usize {
        let (full, cells) = match self {
            Probe::Surface => (Some(surface), None),
            Probe::Grid { grid, reach } => (None, Some(grid.runs(bounds, reach))),
        };
        let mut grid_visited = 0;
        let runs = full.into_iter().flatten().map(Vec::as_slice);
        for ids in runs.chain(cells.into_iter().flatten()) {
            grid_visited += ids.len();
            gather(ids, positions, &mut visit);
        }
        if full.is_some() {
            0
        } else {
            grid_visited
        }
    }

    /// Phase 2's question: can component `c` hold a vertex inside
    /// `bounds`? The full probe bounds nothing and says yes; the grid
    /// intersects the component's anchor box with `bounds` dilated by
    /// `reach` ([`SurfaceGrid::component_in_reach`]).
    #[inline]
    fn reaches(self, c: usize, bounds: &Aabb) -> bool {
        match self {
            Probe::Surface => true,
            Probe::Grid { grid, reach } => grid.component_in_reach(c, bounds, reach),
        }
    }
}

/// Where the seeding phases of Algorithm 1 put what they find, for the
/// members of one group (a single query is a group of one): the shared
/// frontier's member masks. Phase 1 ([`probe_seeds`]) tests the union
/// of the members' bounds first, so a vertex outside the group costs
/// one test instead of k; phase 2 ([`walk_seedless`]) walks per member.
/// Member `j` is bit `j` of a mask.
struct GroupSeeds<'a, R> {
    queries: &'a [R],
    union: Aabb,
    group: &'a mut GroupScratch,
    results: &'a mut [Vec<VertexId>],
}

impl<'a, R: Region> GroupSeeds<'a, R> {
    fn new(
        queries: &'a [R],
        group: &'a mut GroupScratch,
        results: &'a mut [Vec<VertexId>],
    ) -> Self {
        let union = queries.iter().map(R::bounds).reduce(|a, b| a.union(&b));
        let union = union.unwrap_or(Aabb::EMPTY);
        GroupSeeds {
            queries,
            union,
            group,
            results,
        }
    }

    /// The members whose region contains `p`.
    #[inline]
    fn members(&self, p: Point3) -> u64 {
        let mut mask = 0;
        if self.union.contains(p) {
            for (j, q) in self.queries.iter().enumerate() {
                mask |= u64::from(q.contains(p)) << j;
            }
        }
        mask
    }
}

/// Phase 1 of Algorithm 1, the surface probe: one pass over the ids
/// `probe` visits for the members' bounds, seeding every id inside a
/// member under that member. Returns the ids a grid visited.
///
/// The hot pass is a pure membership test over a prefetching gather
/// ([`gather`]); the branchless containment keeps the loop
/// pipeline-friendly. The closest-vertex bookkeeping of Algorithm 1 is
/// only needed when *no* surface vertex is inside the query (the rare
/// directed-walk case), so it is phase 2's start search instead of a
/// burden on every probe.
///
/// Out of line on purpose: inlined into the group seeder, the gather
/// loop competed for registers with the walk and crawl phases and
/// reloaded its slice pointers and bounds from the stack every
/// iteration — measured 5–7 % on the probe of a four-member group over
/// 39 k surface ids, 2 % of an `analysis-burst` request.
#[inline(never)]
fn probe_seeds<R: Region>(
    probe: Probe<'_>,
    components: &ComponentMap,
    positions: &[Point3],
    seeds: &mut GroupSeeds<'_, R>,
) -> usize {
    let bounds = seeds.union;
    let surface = &components.surface_by_component;
    probe.run(surface, positions, &bounds, |v, p| {
        let mask = seeds.members(p);
        if mask != 0 {
            seeds.group.seed(v, mask, seeds.results);
            let c = components.component_of[v as usize] as usize;
            seeds.group.mark_component(c, mask);
        }
    })
}

/// Phase 2 of Algorithm 1, component-aware directed walks: for every
/// (member, component) pair phase 1 left seedless, a component that may
/// still intersect the member's region with fully interior material is
/// walked — unless the probe's bound rules it out. The counters go to
/// the member's `timings`; returns the wall time from the first walk
/// that ran.
fn walk_seedless<R: Region>(
    probe: Probe<'_>,
    components: &ComponentMap,
    mesh: &Mesh,
    seeds: &mut GroupSeeds<'_, R>,
    timings: &mut [PhaseTimings],
) -> Duration {
    let mut started = None;
    let queries = seeds.queries;
    for (j, (t, q)) in timings.iter_mut().zip(queries).enumerate() {
        let bounds = q.bounds();
        for c in 0..components.count() {
            if seeds.group.component_seeded(c, j) {
                continue;
            }
            if !probe.reaches(c, &bounds) {
                t.walks_pruned += 1;
                continue;
            }
            started.get_or_insert_with(Instant::now);
            t.walks += 1;
            let (found, steps) = walk_component(components, c, mesh, q);
            t.walk_visited += steps;
            if let Some(inside) = found {
                seeds.group.seed(inside, 1 << j, seeds.results);
            }
        }
    }
    started.map_or(Duration::ZERO, |t1| t1.elapsed())
}

/// The walk policy for one component the probe left seedless and its
/// bound ([`Probe::reaches`]) could not rule out: a
/// *strided* scan picks a near-closest surface vertex of the component
/// as the walk start. Any start yields the correct result (exactness
/// comes from walk + crawl, §IV-D); the closest is only a
/// walk-shortening heuristic, so sampling every k-th candidate trades a
/// slightly longer walk for a cheaper start search. A failed walk
/// retries once from a denser sample, but only when the stall happened
/// *near* the query (within a few edge lengths) — a stall far away
/// means this component simply does not reach the query (the common
/// case on multi-component meshes under [`Probe::Surface`], which has
/// no bound to say so beforehand), and a denser start would walk to
/// the same frontier. A full O(S·V) scan per
/// unseeded component would dominate such workloads.
///
/// Returns the in-region vertex the walk reached, if any, and the
/// vertices stepped through.
fn walk_component<R: Region>(
    components: &ComponentMap,
    c: usize,
    mesh: &Mesh,
    q: &R,
) -> (Option<VertexId>, usize) {
    let comp_ids = &components.surface_by_component[c];
    let near = 4.0 * components.edge_scale;
    let near_sq = near * near;
    let mut steps = 0usize;
    for sample_target in [512usize, 4096] {
        let stride = (comp_ids.len() / sample_target).max(1);
        let Some(start) = closest_of(comp_ids.iter().step_by(stride), mesh.positions(), q) else {
            break;
        };
        let (found, walked, end_dist_sq) = greedy_walk(mesh, q, start);
        steps += walked;
        if found.is_some() || stride == 1 || end_dist_sq > near_sq {
            return (found, steps);
        }
    }
    (None, steps)
}

/// One greedy directed walk (§IV-D): from `start`, repeatedly move to
/// the neighbour strictly closest to `q` until a vertex inside `q` is
/// found or no neighbour improves the distance. Returns `(found vertex,
/// vertices stepped through, squared distance at termination)` — the
/// distance is `0.0` on success and gates the caller's retry heuristics
/// on failure.
///
/// Termination: the distance to `q` strictly decreases every step, so
/// the walk can never revisit a vertex. Shared by the component walk
/// (one walk per (member, unseeded component) pair),
/// [`crate::OctopusCon`] and [`crate::ApproxOctopus`].
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

impl Octopus {
    /// Algorithm 1 for a group of 1 ≤ k ≤ [`MAX_GROUP`](crate::MAX_GROUP) regions (see
    /// [`Octopus::query_group`]): one probe, per-member walks, one
    /// shared-frontier crawl.
    fn run_group<R: Region>(
        &self,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        queries: &[R],
        probe: Probe<'_>,
        results: &mut [Vec<VertexId>],
        timings: &mut [PhaseTimings],
    ) {
        let components = &self.components;
        let group = &mut scratch.group;
        group.begin_group(mesh.num_vertices(), components.count(), queries.len());
        timings.fill(PhaseTimings::default());
        let mut seeds = GroupSeeds::new(queries, &mut *group, &mut *results);
        // Phase 1: the shared probe; phase 2: per-member walks.
        let t0 = Instant::now();
        let grid_candidates = probe_seeds(probe, components, mesh.positions(), &mut seeds);
        let probe_time = t0.elapsed();
        let walk_time = walk_seedless(probe, components, mesh, &mut seeds, timings);

        // Phase 3: the shared-frontier crawl.
        let t2 = Instant::now();
        group.crawl(mesh, queries, results);
        let crawl_time = t2.elapsed();

        for (j, t) in timings.iter_mut().enumerate() {
            t.start_vertices = group.per_seeds[j];
            t.crawl_visited = group.per_visited[j];
            t.results = results[j].len();
        }
        let first = &mut timings[0];
        first.surface_probe = probe_time;
        first.grid_candidates = grid_candidates;
        first.directed_walk = walk_time;
        first.crawling = crawl_time;
    }

    /// [`Octopus::run_group`] for one region, appending to `out`.
    fn run_one<R: Region>(
        &self,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        region: &R,
        probe: Probe<'_>,
        out: &mut Vec<VertexId>,
    ) -> PhaseTimings {
        let mut t = PhaseTimings::default();
        let regions = std::slice::from_ref(region);
        let (results, timings) = (std::slice::from_mut(out), std::slice::from_mut(&mut t));
        self.run_group(scratch, mesh, regions, probe, results, timings);
        t
    }
}

// The concurrent service layer shares `&Octopus` and `&Mesh` across its
// workers and moves scratches into them; regressing these bounds (e.g.
// by adding interior mutability) must fail loudly at compile time.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    const fn assert_send<T: Send>() {}
    assert_sync_send::<Octopus>();
    assert_send::<QueryScratch>();
};

/// Surface vertex among `ids` closest to `q` (squared guidance
/// distance), or `None` for an empty iterator.
pub(crate) fn closest_of<'a, R: Region>(
    ids: impl Iterator<Item = &'a VertexId>,
    positions: &[octopus_geom::Point3],
    q: &R,
) -> Option<VertexId> {
    let mut best = None;
    let mut best_dist = f32::INFINITY;
    for &v in ids {
        let d = q.dist_sq(positions[v as usize]);
        if d < best_dist {
            best_dist = d;
            best = Some(v);
        }
    }
    best
}

/// The `k` active vertices nearest `point` (Euclidean distance, ties
/// broken by ascending id), appended to `out` in ascending (distance,
/// id) order — fewer than `k` only when the mesh has fewer than `k`
/// active vertices, and none for a non-finite `point` (no cube around
/// it bounds anything). Served as [`QueryShape::KNearest`].
///
/// Exact expanding-cube reduction to box queries: query the cube of
/// half-extent `r` around `point`; once ≥ `k` results lie within
/// Euclidean distance `r` (the cube's inscribed ball) the true `k`
/// nearest are all among the candidates — any vertex within distance
/// `r` is inside the cube. Otherwise `r` doubles; the cube eventually
/// covers the whole mesh, so at most O(log) box queries run, each warm
/// on the shared probe/walk/crawl machinery.
fn run_knn(
    octopus: &Octopus,
    scratch: &mut QueryScratch,
    mesh: &Mesh,
    k: usize,
    point: Point3,
    out: &mut Vec<VertexId>,
    probe: Probe<'_>,
) -> PhaseTimings {
    let components = &octopus.components;
    let mut total = PhaseTimings::default();
    if k == 0 || !point.is_finite() || components.surface_len() == 0 {
        return total;
    }
    let bbox = mesh.bounding_box();
    let positions = mesh.positions();
    // Initial half-extent: a few edge lengths, scaled by ∛k (uniform
    // density would put k vertices in a cube of that order), pushed out
    // to reach the mesh when the query point lies far outside it.
    let edge = components.edge_scale;
    let diag = bbox.extent().length();
    let mut r = if edge > 0.0 {
        edge * (k as f32).cbrt().max(1.0)
    } else {
        diag
    };
    if r.is_nan() || r <= 0.0 {
        r = 1.0; // degenerate (single-point) mesh: any positive seed works
    }
    r += bbox.dist(point);

    let mut buf = std::mem::take(&mut scratch.shape_buf);
    loop {
        buf.clear();
        let cube = Aabb::cube(point, r);
        let stats = octopus.run_one(scratch, mesh, &cube, probe, &mut buf);
        total.accumulate(&stats);
        let r_sq = r * r;
        let within = buf
            .iter()
            .filter(|&&v| point.dist_sq(positions[v as usize]) <= r_sq)
            .count();
        if within >= k || cube.contains_box(&bbox) {
            break;
        }
        r *= 2.0;
    }

    // Deterministic selection: ascending (distance², id). Squared
    // distances order identically to distances, ties included.
    let mut ranked: Vec<(f32, VertexId)> = buf
        .iter()
        .map(|&v| (point.dist_sq(positions[v as usize]), v))
        .collect();
    ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    out.extend(ranked.iter().map(|&(_, v)| v));
    scratch.shape_buf = buf;
    total.results = ranked.len();
    total
}

/// Aggregate query over `q`: the count (and, for
/// [`AggregateKind::Centroid`], the mean position) of the vertices
/// inside `q`. The query runs as a group of one into the scratch's
/// recycled staging buffer, which is then folded, so an aggregate
/// allocates nothing in steady state and hands no id list out. Equal,
/// by construction, to aggregating [`Octopus::query_with`]'s ids (the
/// differential suite asserts it). Served as [`QueryShape::Aggregate`].
fn run_aggregate(
    octopus: &Octopus,
    scratch: &mut QueryScratch,
    mesh: &Mesh,
    q: &Aabb,
    kind: AggregateKind,
    probe: Probe<'_>,
) -> (AggregateValue, PhaseTimings) {
    let mut buf = std::mem::take(&mut scratch.shape_buf);
    buf.clear();
    let mut stats = octopus.run_one(scratch, mesh, q, probe, &mut buf);
    let count = buf.len();
    let centroid = (kind == AggregateKind::Centroid && count > 0).then(|| {
        // f64 accumulation: a billion-f32 sum in f32 would lose the
        // centroid entirely.
        let t = Instant::now();
        let positions = mesh.positions();
        let mut sum = [0f64; 3];
        for &v in &buf {
            let p = positions[v as usize];
            sum[0] += f64::from(p.x);
            sum[1] += f64::from(p.y);
            sum[2] += f64::from(p.z);
        }
        stats.crawling += t.elapsed();
        let n = count as f64;
        Point3::new(
            (sum[0] / n) as f32,
            (sum[1] / n) as f32,
            (sum[2] / n) as f32,
        )
    });
    scratch.shape_buf = buf;
    (AggregateValue { count, centroid }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::rng::SplitMix64;
    use octopus_geom::Point3;
    use octopus_meshgen::voxel::VoxelRegion;
    use octopus_meshgen::{neuron, NeuroLevel};

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

    /// The paper's path: the full probe, through a scratch of its own.
    fn full_probe(o: &Octopus, mesh: &Mesh, q: &Aabb, out: &mut Vec<VertexId>) -> PhaseTimings {
        o.query_with(&mut o.make_scratch(mesh), mesh, q, Probe::Surface, out)
    }

    fn assert_exact(octopus: &Octopus, mesh: &Mesh, q: &Aabb, ctx: &str) {
        let mut out = Vec::new();
        let stats = full_probe(octopus, mesh, q, &mut out);
        out.sort_unstable();
        let expected = scan(mesh, q);
        assert_eq!(out, expected, "{ctx}");
        assert_eq!(stats.results, expected.len(), "{ctx}: stats.results");
    }

    #[test]
    fn exact_on_box_mesh_queries_touching_surface() {
        let mesh = box_mesh(6);
        let o = Octopus::new(&mesh).unwrap();
        // Query overlapping a corner — surface vertices inside.
        assert_exact(
            &o,
            &mesh,
            &Aabb::new(Point3::ORIGIN, Point3::splat(0.4)),
            "corner",
        );
        // Query covering everything.
        assert_exact(
            &o,
            &mesh,
            &Aabb::new(Point3::splat(-1.0), Point3::splat(2.0)),
            "universe",
        );
    }

    #[test]
    fn interior_query_uses_directed_walk() {
        let mesh = box_mesh(8);
        let o = Octopus::new(&mesh).unwrap();
        // Strictly interior query: no surface vertex inside.
        let q = Aabb::new(Point3::splat(0.4), Point3::splat(0.6));
        let mut out = Vec::new();
        let stats = full_probe(&o, &mesh, &q, &mut out);
        assert_eq!(stats.start_vertices, 1, "one walk-found seed");
        assert!(stats.walk_visited > 0, "walk must have run");
        out.sort_unstable();
        assert_eq!(out, scan(&mesh, &q));
    }

    #[test]
    fn empty_query_returns_empty_without_false_positives() {
        let mesh = box_mesh(4);
        let o = Octopus::new(&mesh).unwrap();
        let q = Aabb::new(Point3::splat(3.0), Point3::splat(4.0));
        let mut out = Vec::new();
        let stats = full_probe(&o, &mesh, &q, &mut out);
        assert!(out.is_empty());
        assert_eq!(stats.results, 0);
        assert!(stats.walk_visited > 0, "walk ran and gave up");
    }

    #[test]
    fn exact_on_nonconvex_two_component_neuron_mesh() {
        let mesh = neuron(NeuroLevel::L1, 0.5).unwrap();
        let o = Octopus::new(&mesh).unwrap();
        let mut rng = SplitMix64::new(13);
        let bounds = mesh.bounding_box();
        for i in 0..30 {
            let c = Point3::new(
                rng.range_f32(bounds.min.x, bounds.max.x),
                rng.range_f32(bounds.min.y, bounds.max.y),
                rng.range_f32(bounds.min.z, bounds.max.z),
            );
            let q = Aabb::cube(c, rng.range_f32(0.02, 0.2));
            assert_exact(&o, &mesh, &q, &format!("neuron query {i}"));
        }
    }

    #[test]
    fn query_spanning_both_neuron_cells_finds_both_submeshes() {
        let mesh = neuron(NeuroLevel::L1, 0.5).unwrap();
        let o = Octopus::new(&mesh).unwrap();
        // A slab across the middle of the domain usually intersects both
        // cells (they are confined to x < 0.49 and x > 0.51).
        let q = Aabb::new(Point3::new(0.0, 0.3, 0.0), Point3::new(1.0, 0.7, 1.0));
        let mut out = Vec::new();
        full_probe(&o, &mesh, &q, &mut out);
        let expected = scan(&mesh, &q);
        let mut got = out.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
        let left = expected.iter().any(|&v| mesh.position(v).x < 0.49);
        let right = expected.iter().any(|&v| mesh.position(v).x > 0.51);
        assert!(
            left && right,
            "slab must hit both disjoint cells for this to be a real test"
        );
    }

    #[test]
    fn stays_exact_under_deformation_without_any_maintenance() {
        let mesh = box_mesh(5);
        let o = Octopus::new(&mesh).unwrap();
        let mut mesh = mesh;
        let mut rng = SplitMix64::new(17);
        for step in 0..5 {
            // Massive in-place update (bounded so the box stays box-ish).
            for p in mesh.positions_mut() {
                p.x += rng.range_f32(-0.01, 0.01);
                p.y += rng.range_f32(-0.01, 0.01);
                p.z += rng.range_f32(-0.01, 0.01);
            }
            let q = Aabb::cube(
                Point3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                0.25,
            );
            assert_exact(&o, &mesh, &q, &format!("step {step}"));
        }
    }

    #[test]
    fn restructuring_is_handled_via_deltas() {
        let mut mesh = box_mesh(3);
        mesh.enable_restructuring().unwrap();
        let mut o = Octopus::new(&mesh).unwrap();
        let frozen = (mesh.snapshot(), Octopus::new(&mesh).unwrap());
        for c in [0u32, 5, 9] {
            let delta = mesh.remove_cell(c).unwrap();
            o = o.restructured(&mesh, &delta);
        }
        let (_, delta) = mesh.refine_tet(20).unwrap();
        o = o.restructured(&mesh, &delta);
        let q = Aabb::new(Point3::ORIGIN, Point3::splat(0.8));
        assert_exact(&o, &mesh, &q, "after restructuring");
        let mut surface: Vec<VertexId> = o.surface().collect();
        surface.sort_unstable();
        assert_eq!(surface, mesh.surface().unwrap().vertices());
        // A generation derived from is untouched: it still answers for
        // its own (pre-restructuring) snapshot.
        assert_exact(&frozen.1, &frozen.0, &q, "the frozen generation");
    }

    #[test]
    fn edge_scale_survives_orphan_heavy_meshes() {
        // Coarsening orphans vertices; the surviving edges must keep
        // the scale positive (here n < 1000, so the strided pass is
        // already dense — the convention check, not the fallback).
        let mut mesh = box_mesh(2);
        mesh.enable_restructuring().unwrap();
        for c in (0..mesh.cell_capacity() as u32).rev() {
            if mesh.num_cells() <= 1 {
                break;
            }
            if mesh.is_cell_alive(c) {
                mesh.remove_cell(c).unwrap();
            }
        }
        let orphans = (0..mesh.num_vertices() as u32)
            .filter(|&v| mesh.neighbors(v).is_empty())
            .count();
        assert!(orphans > 0, "coarsening must orphan vertices");
        assert!(
            sample_edge_scale(&mesh) > 0.0,
            "one live cell left => edges exist => scale must be positive"
        );

        // And a truly edgeless mesh reports 0 (documented convention).
        let lonely = Mesh::from_tets(vec![Point3::ORIGIN; 0], vec![]).unwrap();
        assert_eq!(sample_edge_scale(&lonely), 0.0);
    }

    #[test]
    fn edge_scale_dense_fallback_when_strided_pass_hits_only_orphans() {
        // 3000 vertices => stride = 3, so the strided pass samples ids
        // 0, 3, 6, … only. The single live tet sits on ids ≡ 1 (mod 3):
        // every sampled vertex is isolated and the pre-fix sampler
        // reported 0.0, silently disabling the walk-retry gate. The
        // dense fallback must find the four edges instead.
        let n = 3000usize;
        let mut positions = vec![Point3::ORIGIN; n];
        positions[1] = Point3::new(0.0, 0.0, 0.0);
        positions[4] = Point3::new(1.0, 0.0, 0.0);
        positions[7] = Point3::new(0.0, 1.0, 0.0);
        positions[10] = Point3::new(0.0, 0.0, 1.0);
        let mesh = Mesh::from_tets(positions, vec![[1, 4, 7, 10]]).unwrap();
        let stride = (n / 1000).max(1);
        assert_eq!(stride, 3, "test premise: strided slots are 0 mod 3");
        for v in (0..n).step_by(stride) {
            assert!(
                mesh.neighbors(v as u32).is_empty(),
                "test premise: vertex {v} must be isolated"
            );
        }
        let scale = sample_edge_scale(&mesh);
        assert!(
            scale > 0.0,
            "dense fallback must recover the live tet's edge length"
        );
        // Sanity: it found the real geometry (unit-ish edges).
        assert!((0.5..=2.0).contains(&scale), "scale {scale}");
    }

    #[test]
    fn probe_dominates_for_small_queries_crawl_for_large() {
        let mesh = box_mesh(10);
        let o = Octopus::new(&mesh).unwrap();
        let mut out = Vec::new();
        let small = full_probe(&o, &mesh, &Aabb::cube(Point3::splat(0.2), 0.05), &mut out);
        out.clear();
        let large = full_probe(
            &o,
            &mesh,
            &Aabb::new(Point3::splat(0.05), Point3::splat(0.95)),
            &mut out,
        );
        assert!(large.crawl_visited > small.crawl_visited * 5);
        assert!(large.results > small.results);
    }

    #[test]
    fn timings_accumulate() {
        let mut total = PhaseTimings::default();
        let a = PhaseTimings {
            surface_probe: Duration::from_micros(5),
            cache_probe: Duration::from_micros(2),
            linear_scan: Duration::from_micros(4),
            directed_walk: Duration::from_micros(1),
            crawling: Duration::from_micros(10),
            start_vertices: 2,
            walk_visited: 3,
            walks: 1,
            walks_pruned: 4,
            crawl_visited: 20,
            grid_candidates: 7,
            results: 15,
        };
        total.accumulate(&a);
        total.accumulate(&a);
        assert_eq!(total.results, 30);
        assert_eq!((total.walks, total.walks_pruned), (2, 8));
        assert_eq!(total.grid_candidates, 14);
        assert_eq!(total.total(), Duration::from_micros(44));
    }

    /// One group through the unified entry point: per-member sorted
    /// results, timings, and the shared event count.
    fn grouped(
        o: &Octopus,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        queries: &[Aabb],
        probe: Probe<'_>,
    ) -> (Vec<Vec<VertexId>>, Vec<PhaseTimings>, usize) {
        let mut results: Vec<Vec<VertexId>> = vec![Vec::new(); queries.len()];
        let mut timings = vec![PhaseTimings::default(); queries.len()];
        let shared = o.query_group(scratch, mesh, queries, probe, &mut results, &mut timings);
        for r in &mut results {
            r.sort_unstable();
        }
        (results, timings, shared)
    }

    /// A group of one under `probe`, through the group entry point.
    fn probed(
        o: &Octopus,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        q: &Aabb,
        probe: Probe<'_>,
    ) -> (Vec<VertexId>, PhaseTimings) {
        let (mut results, timings, _) = grouped(o, scratch, mesh, std::slice::from_ref(q), probe);
        (results.remove(0), timings[0])
    }

    #[test]
    fn grid_probe_matches_full_probe_under_drift() {
        // Bucket once, then deform without telling the grid: with the
        // snapshot's reach the grid probe seeds what the full probe
        // seeds, from a fraction of the ids. (The property suite
        // `tests/surface_grid_properties.rs` covers the corner cases.)
        let mut mesh = box_mesh(6);
        let o = Octopus::new(&mesh).unwrap();
        let mut scratch = o.make_scratch(&mesh);
        let grid = o.surface_grid(mesh.positions(), 0.3);
        let q = Aabb::new(Point3::splat(0.1), Point3::splat(0.55));
        let mut rng = SplitMix64::new(5);
        for step in 0..3 {
            for p in mesh.positions_mut() {
                p.x += rng.range_f32(-0.015, 0.015);
                p.y += rng.range_f32(-0.015, 0.015);
                p.z += rng.range_f32(-0.015, 0.015);
            }
            let reach = grid.reach(mesh.positions());
            assert!(reach > 0.0 && reach <= 0.045 * (step + 1) as f32);
            let probe = Probe::Grid { grid: &grid, reach };
            let (full, full_stats) = probed(&o, &mut scratch, &mesh, &q, Probe::Surface);
            let (got, stats) = probed(&o, &mut scratch, &mesh, &q, probe);
            assert_eq!(got, full, "step {step}");
            assert_eq!(got, scan(&mesh, &q), "step {step}");
            assert_eq!(stats.start_vertices, full_stats.start_vertices);
            assert_eq!(full_stats.grid_candidates, 0);
            assert!(stats.grid_candidates >= stats.start_vertices);
            assert!(stats.grid_candidates < o.surface_len());
        }
    }

    /// `n` cubes centred uniformly in `mesh`'s bounding box.
    fn random_cubes(mesh: &Mesh, seed: u64, n: usize) -> Vec<Aabb> {
        let mut rng = SplitMix64::new(seed);
        let bounds = mesh.bounding_box();
        (0..n)
            .map(|_| {
                let c = Point3::new(
                    rng.range_f32(bounds.min.x, bounds.max.x),
                    rng.range_f32(bounds.min.y, bounds.max.y),
                    rng.range_f32(bounds.min.z, bounds.max.z),
                );
                Aabb::cube(c, rng.range_f32(0.05, 0.3))
            })
            .collect()
    }

    /// What Algorithm 1 answers for `q`, with no frontier code: the
    /// full probe's seeds (surface ids inside `q`), one component walk
    /// per component they miss, then a `HashSet` + `VecDeque` BFS.
    /// Returns the sorted result, the seed count and the crawl's visits
    /// (pops plus neighbours marked outside `q`).
    fn reference_bfs(o: &Octopus, mesh: &Mesh, q: &Aabb) -> (Vec<VertexId>, usize, usize) {
        use std::collections::HashSet;
        let positions = mesh.positions();
        let (labels, lists) = o.component_map();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        let mut seeded = HashSet::new();
        for v in o.surface() {
            if q.contains(positions[v as usize]) {
                seeded.insert(labels[v as usize] as usize);
                if seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        for c in (0..lists.len()).filter(|c| !seeded.contains(c)) {
            if let (Some(v), _) = walk_component(&o.components, c, mesh, q) {
                if seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        let start_vertices = queue.len();
        let mut result: Vec<VertexId> = queue.iter().copied().collect();
        let mut visited = 0;
        while let Some(v) = queue.pop_front() {
            visited += 1;
            for &w in mesh.neighbors(v) {
                if !seen.insert(w) {
                    continue;
                }
                if q.contains(positions[w as usize]) {
                    result.push(w);
                    queue.push_back(w);
                } else {
                    visited += 1;
                }
            }
        }
        result.sort_unstable();
        (result, start_vertices, visited)
    }

    /// [`reference_bfs`]'s sorted results for every query.
    fn group_reference(mesh: &Mesh, queries: &[Aabb]) -> Vec<Vec<VertexId>> {
        let o = Octopus::new(mesh).unwrap();
        queries
            .iter()
            .map(|q| reference_bfs(&o, mesh, q).0)
            .collect()
    }

    #[test]
    fn group_query_matches_per_query_baseline() {
        // Walks run and walks pruned, summed per probe over both meshes:
        // both branches of phase 2 must be exercised.
        let (mut walked, mut pruned) = (0, 0);
        for mesh in [box_mesh(7), neuron(NeuroLevel::L1, 0.5).unwrap()] {
            let mut queries = random_cubes(&mesh, 0xBA7C, 12);
            // Include an interior query and a miss.
            queries.push(Aabb::new(Point3::splat(0.4), Point3::splat(0.6)));
            queries.push(Aabb::new(Point3::splat(5.0), Point3::splat(6.0)));
            let o = Octopus::new(&mesh).unwrap();
            let expected: Vec<_> = queries
                .iter()
                .map(|q| reference_bfs(&o, &mesh, q))
                .collect();
            let mut scratch = o.make_scratch(&mesh);
            let grid = o.surface_grid(mesh.positions(), 0.1);
            let reach = grid.reach(mesh.positions());
            let probes = [
                ("surface", Probe::Surface),
                ("grid", Probe::Grid { grid: &grid, reach }),
            ];
            let walks = |t: &PhaseTimings| (t.walks, t.walks_pruned, t.walk_visited);
            for (name, probe) in probes {
                let (results, timings, _) = grouped(&o, &mut scratch, &mesh, &queries, probe);
                for (j, (got, want)) in results.into_iter().zip(&expected).enumerate() {
                    // Results, seeds and crawl visits against the
                    // reference BFS; the walks against the query alone.
                    let t = &timings[j];
                    let (ids, seeds, visited) = want;
                    assert_eq!(&got, ids, "{name}: query {j}");
                    let counts = (t.start_vertices, t.crawl_visited, t.results);
                    assert_eq!(counts, (*seeds, *visited, ids.len()), "{name}: query {j}");
                    let mut out = Vec::new();
                    let alone = o.query_with(&mut scratch, &mesh, &queries[j], probe, &mut out);
                    assert_eq!(walks(t), walks(&alone), "{name}: query {j}");
                    walked += alone.walks;
                    pruned += alone.walks_pruned;
                }
            }
        }
        assert!(walked > 0 && pruned > 0, "walks {walked}, pruned {pruned}");
    }

    #[test]
    fn group_query_shares_work_on_overlapping_queries() {
        let mesh = box_mesh(8);
        // Heavily overlapping boxes sliding along x.
        let queries: Vec<Aabb> = (0..8)
            .map(|i| {
                let lo = 0.1 + 0.02 * i as f32;
                Aabb::new(Point3::new(lo, 0.1, 0.1), Point3::new(lo + 0.5, 0.8, 0.8))
            })
            .collect();
        let o = Octopus::new(&mesh).unwrap();
        let reference: Vec<_> = queries
            .iter()
            .map(|q| reference_bfs(&o, &mesh, q))
            .collect();
        let independent: usize = reference.iter().map(|r| r.2).sum();

        let mut scratch = o.make_scratch(&mesh);
        let (_, timings, shared) = grouped(&o, &mut scratch, &mesh, &queries, Probe::Surface);
        // Per-member attribution reproduces the independent BFS...
        for (j, (got, (_, seeds, visited))) in timings.iter().zip(&reference).enumerate() {
            assert_eq!(got.crawl_visited, *visited, "member {j}");
            assert_eq!(got.start_vertices, *seeds, "member {j}");
            let alone = full_probe(&o, &mesh, &queries[j], &mut Vec::new());
            assert_eq!(got.walk_visited, alone.walk_visited, "member {j}");
        }
        // ...the shared wall times sit on the first member only...
        assert!(timings[0].surface_probe > Duration::ZERO);
        assert!(timings[1..].iter().all(|t| t.total() == Duration::ZERO));
        // ...while the distinct-event counter shows the actual sharing.
        assert!(
            shared < independent,
            "shared {shared} must beat independent {independent}"
        );
    }

    #[test]
    fn group_scratch_reuse_and_epoch_wrap_are_clean() {
        // One scratch hops between meshes of different sizes: the masks
        // the last group touched are zeroed before they are resized, so
        // nothing it left behind shows in the next group.
        let big = neuron(NeuroLevel::L1, 0.5).unwrap();
        let small = box_mesh(5);
        assert!(small.num_vertices() < big.num_vertices());
        let on_big = Octopus::new(&big).unwrap();
        let on_small = Octopus::new(&small).unwrap();
        let mut scratch = on_big.make_scratch(&big);
        let big_queries = random_cubes(&big, 0x5CA7, 12);
        let small_queries = random_cubes(&small, 0x5CA7, 12);
        for (o, mesh, queries) in [
            (&on_big, &big, &big_queries),
            (&on_small, &small, &small_queries),
            (&on_big, &big, &big_queries),
        ] {
            let (got, _, _) = grouped(o, &mut scratch, mesh, queries, Probe::Surface);
            assert_eq!(got, group_reference(mesh, queries));
        }

        // The component masks' epoch wraps cleanly.
        let (o, mesh) = (on_small, small);
        let mut scratch = o.make_scratch(&mesh);
        let queries = [
            Aabb::new(Point3::splat(0.1), Point3::splat(0.6)),
            Aabb::new(Point3::splat(0.3), Point3::splat(0.9)),
        ];
        let (first, _, _) = grouped(&o, &mut scratch, &mesh, &queries, Probe::Surface);
        assert_eq!(first[0], scan(&mesh, &queries[0]));
        assert_eq!(first[1], scan(&mesh, &queries[1]));
        // Reuse across groups — and interleaved single queries on the
        // same scratch — including across the epoch wrap.
        scratch.group.force_epoch(u32::MAX);
        for round in 0..3 {
            let (again, _, _) = grouped(&o, &mut scratch, &mesh, &queries, Probe::Surface);
            assert_eq!(again, first, "round {round} after the wrap");
            let (single, _) = probed(&o, &mut scratch, &mesh, &queries[0], Probe::Surface);
            assert_eq!(single, first[0], "round {round}: group of one");
        }
    }

    #[test]
    fn greedy_walk_reaches_query_on_convex_mesh() {
        let mesh = box_mesh(6);
        let q = Aabb::new(Point3::splat(0.4), Point3::splat(0.6));
        // Start from the far corner (vertex at (0,0,0) exists in lattice).
        let (found, steps, dist) = greedy_walk(&mesh, &q, 0);
        let found = found.expect("walk must reach the query");
        assert!(q.contains(mesh.position(found)));
        assert!(steps > 1);
        assert_eq!(dist, 0.0);
    }

    #[test]
    fn greedy_walk_returns_none_for_disjoint_query() {
        let mesh = box_mesh(4);
        let q = Aabb::new(Point3::splat(5.0), Point3::splat(6.0));
        let (found, _, dist) = greedy_walk(&mesh, &q, 0);
        assert_eq!(found, None);
        assert!(dist > 0.0);
    }

    #[test]
    fn greedy_walk_starting_inside_returns_immediately() {
        let mesh = box_mesh(4);
        let q = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        assert_eq!(greedy_walk(&mesh, &q, 3), (Some(3), 1, 0.0));
    }

    #[test]
    fn non_finite_coordinates_are_never_found_by_the_walk() {
        // A 6³ tet lattice with the interior vertex (⅓, ⅓, ⅓) poisoned
        // after the executor is built (a deformation that went NaN).
        let mut mesh = box_mesh(6);
        let o = Octopus::new(&mesh).unwrap();
        let mut scratch = o.make_scratch(&mesh);
        let grid = o.surface_grid(mesh.positions(), 0.1);
        let nearest = |mesh: &Mesh, p: Point3| {
            (0..mesh.num_vertices() as VertexId)
                .min_by(|&a, &b| {
                    let (da, db) = (mesh.position(a).dist_sq(p), mesh.position(b).dist_sq(p));
                    da.total_cmp(&db)
                })
                .unwrap()
        };
        let poisoned = nearest(&mesh, Point3::splat(1.0 / 3.0));
        let around = mesh.neighbors(poisoned).to_vec();
        assert_eq!(around.len(), 14, "an interior lattice vertex");
        mesh.positions_mut()[poisoned as usize] = Point3::splat(f32::NAN);
        let reach = grid.reach(mesh.positions());
        let probes = [
            ("surface", Probe::Surface),
            ("grid", Probe::Grid { grid: &grid, reach }),
        ];
        // The walk's two ways to read a failed containment as distance
        // 0: a NaN vertex, and a box with a NaN corner.
        let nan_corner = Aabb {
            min: Point3::new(f32::NAN, 0.1, 0.1),
            max: Point3::splat(0.7),
        };
        let interior = mesh.position(nearest(&mesh, Point3::splat(0.5)));
        let slab_z = mesh.position(nearest(&mesh, Point3::splat(2.0 / 3.0))).z;
        let mut queries: Vec<Aabb> = around
            .iter()
            .map(|&w| Aabb::cube(mesh.position(w), 0.01))
            .collect();
        queries.extend([
            nan_corner,
            // Inverted: contains nothing.
            Aabb {
                min: Point3::splat(0.7),
                max: Point3::splat(0.3),
            },
            // Zero volume, on an interior vertex.
            Aabb::new(interior, interior),
            // A flat slab through a lattice plane.
            Aabb::new(Point3::new(0.1, 0.1, slab_z), Point3::new(0.9, 0.9, slab_z)),
        ]);
        for (name, probe) in probes {
            let mut alone = Vec::new();
            for (j, q) in queries.iter().enumerate() {
                let (got, _) = probed(&o, &mut scratch, &mesh, q, probe);
                assert!(!got.contains(&poisoned), "{name}: query {j}");
                assert_eq!(got, scan(&mesh, q), "{name}: query {j}");
                alone.push(got);
            }
            // The neighbour cubes one at a time beside the other cases,
            // as groups, so the group seeder's walk sees each of them.
            for (k, &cube) in queries[..around.len()].iter().enumerate() {
                let mut group = vec![cube];
                group.extend_from_slice(&queries[around.len()..]);
                let (results, _, _) = grouped(&o, &mut scratch, &mesh, &group, probe);
                let want = std::iter::once(&alone[k]).chain(&alone[around.len()..]);
                for (j, (got, want)) in results.iter().zip(want).enumerate() {
                    assert_eq!(got, want, "{name}: cube {k}, member {j}");
                }
            }
        }
    }

    #[test]
    fn memory_gauge_tracks_memory_bytes() {
        // The executor's footprint is a label per vertex and its surface
        // lists; the gauge reads it, and a restructure-derived executor
        // carries the attachment forward and publishes its own.
        use octopus_telemetry::Registry;
        let mut mesh = box_mesh(5);
        let o = Octopus::new(&mesh).unwrap();
        let id_bytes = std::mem::size_of::<VertexId>();
        assert!(o.memory_bytes() >= (mesh.num_vertices() + o.surface_len()) * id_bytes);
        let registry = Registry::new();
        o.attach_metrics(&ExecutorMetrics::register(&registry));
        let gauge = || registry.snapshot().gauge("executor_memory_bytes");
        assert_eq!(o.publish_memory(), o.memory_bytes());
        assert_eq!(gauge(), o.memory_bytes() as f64);
        // Queries grow their scratch, never the executor.
        let mut scratch = o.make_scratch(&mesh);
        let before = o.memory_bytes();
        let q = Aabb::new(Point3::splat(0.1), Point3::splat(0.9));
        o.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut Vec::new());
        assert_eq!(o.memory_bytes(), before);

        mesh.enable_restructuring().unwrap();
        let (_, delta) = mesh.refine_tet(0).unwrap();
        let derived = o.restructured(&mesh, &delta);
        assert_eq!(derived.publish_memory(), derived.memory_bytes());
        assert_eq!(gauge(), derived.memory_bytes() as f64);
        assert!(derived.memory_bytes() > before, "a vertex more to label");
    }

    #[test]
    fn convex_region_query_equals_halfspace_filtered_scan() {
        use octopus_geom::{ConvexRegion, Halfspace, Region, Vec3};
        let mesh = neuron(NeuroLevel::L1, 0.5).unwrap();
        let o = Octopus::new(&mesh).unwrap();
        let mut scratch = o.make_scratch(&mesh);
        let mut rng = SplitMix64::new(0xC0DE);
        let bounds = mesh.bounding_box();
        for i in 0..20 {
            let c = Point3::new(
                rng.range_f32(bounds.min.x, bounds.max.x),
                rng.range_f32(bounds.min.y, bounds.max.y),
                rng.range_f32(bounds.min.z, bounds.max.z),
            );
            let bx = Aabb::cube(c, rng.range_f32(0.05, 0.35));
            let region = ConvexRegion::new(
                bx,
                vec![
                    Halfspace::through(
                        c,
                        Vec3::new(rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0), 1.0),
                    ),
                    Halfspace::through(c, Vec3::new(1.0, rng.range_f32(-1.0, 1.0), 0.0)),
                ],
            );
            let mut out = Vec::new();
            o.query_with(&mut scratch, &mesh, &region, Probe::Surface, &mut out);
            out.sort_unstable();
            let expected: Vec<VertexId> = mesh
                .positions()
                .iter()
                .enumerate()
                .filter(|(_, p)| region.contains(**p))
                .map(|(v, _)| v as VertexId)
                .collect();
            assert_eq!(out, expected, "convex query {i}");
        }
    }

    /// The `k` nearest active vertices to `point` through the shape
    /// dispatch, with the execution's timings.
    fn knn(
        o: &Octopus,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        k: usize,
        point: Point3,
    ) -> (Vec<VertexId>, PhaseTimings) {
        let shape = QueryShape::KNearest { k, point };
        let (result, t) = o.query_shape(scratch, mesh, &shape, Probe::Surface);
        (
            result.vertices().expect("k-NN materialises ids").to_vec(),
            t,
        )
    }

    /// The `kind` summary of `region` through the shape dispatch.
    fn aggregate(
        o: &Octopus,
        scratch: &mut QueryScratch,
        mesh: &Mesh,
        region: Aabb,
        kind: AggregateKind,
    ) -> (AggregateValue, PhaseTimings) {
        let shape = QueryShape::Aggregate { region, kind };
        match o.query_shape(scratch, mesh, &shape, Probe::Surface) {
            (ShapeResult::Aggregate(value), t) => (value, t),
            (other, _) => panic!("an aggregate shape answered {other:?}"),
        }
    }

    #[test]
    fn knn_matches_brute_force_with_deterministic_ties() {
        let mesh = box_mesh(6);
        let o = Octopus::new(&mesh).unwrap();
        let mut scratch = o.make_scratch(&mesh);
        let positions = mesh.positions();
        let mut rng = SplitMix64::new(0x5EED);
        for k in [1usize, 4, 17, 100] {
            // Centre point: lattice symmetry forces genuine distance ties.
            for point in [
                Point3::splat(0.5),
                Point3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                Point3::splat(4.0), // far outside the mesh
            ] {
                let (got, stats) = knn(&o, &mut scratch, &mesh, k, point);
                let mut expected: Vec<(f32, VertexId)> = positions
                    .iter()
                    .enumerate()
                    .filter(|(v, _)| !mesh.neighbors(*v as u32).is_empty())
                    .map(|(v, p)| (point.dist_sq(*p), v as VertexId))
                    .collect();
                expected.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                expected.truncate(k);
                let expected: Vec<VertexId> = expected.into_iter().map(|(_, v)| v).collect();
                assert_eq!(got, expected, "k = {k}, point = {point:?}");
                assert_eq!(stats.results, got.len());
            }
        }
    }

    #[test]
    fn knn_with_k_beyond_mesh_returns_all_active_vertices() {
        let mesh = box_mesh(3);
        let o = Octopus::new(&mesh).unwrap();
        let mut scratch = o.make_scratch(&mesh);
        let k = mesh.num_vertices() * 2;
        let (got, _) = knn(&o, &mut scratch, &mesh, k, Point3::splat(0.5));
        assert_eq!(got.len(), mesh.num_vertices());
        // k = 0 is a no-op.
        let (none, _) = knn(&o, &mut scratch, &mesh, 0, Point3::splat(0.5));
        assert!(none.is_empty());
    }

    #[test]
    fn aggregate_equals_materialised_count_and_centroid() {
        let mesh = neuron(NeuroLevel::L1, 0.5).unwrap();
        let o = Octopus::new(&mesh).unwrap();
        let mut scratch = o.make_scratch(&mesh);
        let mut rng = SplitMix64::new(0xA66);
        let bounds = mesh.bounding_box();
        for i in 0..15 {
            let c = Point3::new(
                rng.range_f32(bounds.min.x, bounds.max.x),
                rng.range_f32(bounds.min.y, bounds.max.y),
                rng.range_f32(bounds.min.z, bounds.max.z),
            );
            let q = Aabb::cube(c, rng.range_f32(0.05, 0.4));
            let mut ids = Vec::new();
            o.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut ids);
            let (count_only, stats) = aggregate(&o, &mut scratch, &mesh, q, AggregateKind::Count);
            assert_eq!(count_only.count, ids.len(), "query {i}: count");
            assert_eq!(count_only.centroid, None);
            assert_eq!(stats.results, ids.len());
            let (with_centroid, _) = aggregate(&o, &mut scratch, &mesh, q, AggregateKind::Centroid);
            assert_eq!(with_centroid.count, ids.len());
            if ids.is_empty() {
                assert_eq!(with_centroid.centroid, None);
            } else {
                let mut sum = [0f64; 3];
                for &v in &ids {
                    let p = mesh.position(v);
                    sum[0] += f64::from(p.x);
                    sum[1] += f64::from(p.y);
                    sum[2] += f64::from(p.z);
                }
                let n = ids.len() as f64;
                let c = with_centroid.centroid.unwrap();
                assert!((f64::from(c.x) - sum[0] / n).abs() < 1e-5, "query {i}: cx");
                assert!((f64::from(c.y) - sum[1] / n).abs() < 1e-5, "query {i}: cy");
                assert!((f64::from(c.z) - sum[2] / n).abs() < 1e-5, "query {i}: cz");
            }
        }
    }

    #[test]
    fn query_shape_results_report_their_size() {
        let mesh = box_mesh(5);
        let o = Octopus::new(&mesh).unwrap();
        let mut scratch = o.make_scratch(&mesh);
        let q = Aabb::cube(Point3::splat(0.4), 0.3);
        let (boxed, _) = o.query_shape(&mut scratch, &mesh, &QueryShape::Box(q), Probe::Surface);
        let ids = boxed.vertices().unwrap();
        assert_eq!(boxed.len(), ids.len());
        assert!(!boxed.is_empty());

        let (count, _) = aggregate(&o, &mut scratch, &mesh, q, AggregateKind::Count);
        assert_eq!(count.count, ids.len(), "aggregate count == box result size");
        let agg = ShapeResult::Aggregate(count);
        assert_eq!(agg.len(), ids.len());
        assert!(agg.vertices().is_none());
    }
}
