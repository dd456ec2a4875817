//! Graph data organisation (§IV-H1): vertex layout for crawl locality.
//!
//! "By rearranging the vertices based on spatial proximity we can reduce
//! the number of random reads required on average and thereby improve
//! the L1 and L2 data cache hit rate. We use the Hilbert space filling
//! curve to sort the vertices and organize spatially close vertices,
//! close together in memory."
//!
//! # What predicts crawl time
//!
//! Mean |v − w| over adjacent vertex ids — the obvious locality score —
//! is the wrong unit: the cache does not fetch ids, it fetches 64-byte
//! lines. Shrinking a neighbour gap from 400 ids to 40 ids improves
//! that score 10× and the cache not at all: both gaps cross a line
//! boundary. Conversely the generator's native order is near-BFS — a
//! vertex's neighbours sit in a handful of *runs*, and runs share lines
//! regardless of their id span. What predicts crawl time is (a) how
//! many **distinct cache lines** a neighbourhood scan touches
//! ([`cache_line_stats`]) and (b) how soon lines are re-touched during
//! a crawl ([`reuse_distance_histogram`]). Both are diagnostics: the
//! fig. 13 bench records them beside the crawl clock.
//!
//! Two layouts are exposed: [`hilbert_layout`] (the paper's choice, the
//! one the service applies) and [`morton_layout`] (cheaper curve, kept
//! for the fig. 13 roster).

use octopus_geom::{hilbert, morton, VertexId};
use octopus_mesh::Mesh;
use std::collections::VecDeque;

/// Curve used to order vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurveKind {
    /// Hilbert curve (the paper's choice; best locality).
    Hilbert,
    /// Morton / Z-order (cheaper to compute, worse locality).
    Morton,
}

/// Bits per axis for curve quantisation: 2^10 = 1024 lattice cells per
/// axis is finer than any mesh here while keeping keys cheap.
const CURVE_BITS: u32 = 10;

/// Computes the permutation `perm[old] = new` that sorts vertices along
/// the chosen curve evaluated at their *current* positions.
pub fn curve_permutation(mesh: &Mesh, curve: CurveKind) -> Vec<VertexId> {
    let bounds = mesh.bounding_box();
    let mut keyed: Vec<(u64, VertexId)> = mesh
        .positions()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let key = match curve {
                CurveKind::Hilbert => hilbert::hilbert_index_for_point(*p, &bounds, CURVE_BITS),
                CurveKind::Morton => morton::morton_index_for_point(*p, &bounds, CURVE_BITS),
            };
            (key, i as VertexId)
        })
        .collect();
    keyed.sort_unstable();
    let mut perm = vec![0 as VertexId; keyed.len()];
    for (new, &(_, old)) in keyed.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    perm
}

/// Returns the mesh re-laid-out in Hilbert order together with the
/// applied permutation (`perm[old] = new`, useful to translate stored
/// vertex ids).
///
/// "This type of optimization can of course only be used if the
/// simulation application allows to reorder the vertex and edge
/// information in memory" — the caller decides; the mesh itself is
/// equivalent under relabelling.
pub fn hilbert_layout(mesh: &Mesh) -> (Mesh, Vec<VertexId>) {
    let perm = curve_permutation(mesh, CurveKind::Hilbert);
    (mesh.permute_vertices(&perm), perm)
}

/// Morton-order variant (ablation).
pub fn morton_layout(mesh: &Mesh) -> (Mesh, Vec<VertexId>) {
    let perm = curve_permutation(mesh, CurveKind::Morton);
    (mesh.permute_vertices(&perm), perm)
}

/// Ids per modelled 64-byte line (see [`cache_line_of`]).
const IDS_PER_LINE: usize = 16;

/// The modelled 64-byte line vertex `v` lands on: 16 consecutive ids
/// share one. That is what the crawl's 4-byte per-vertex array (the
/// CSR offsets) packs. The crawl's member masks are 8 bytes and
/// positions 12 — 8 and 5⅓ per line — and both are id-contiguous, so
/// the order that packs a neighbourhood into few 16-id lines packs
/// them as well; fig. 13 shows the crawl clock following the 16-id
/// count.
#[inline]
pub fn cache_line_of(v: VertexId) -> u32 {
    v / IDS_PER_LINE as VertexId
}

/// The cache-line-aware locality model.
///
/// Two scalars, both pure functions of ids and adjacency (deformation
/// cannot move them):
///
/// * **`crossing_ratio`** — fraction of directed adjacent pairs whose
///   endpoints live on distinct 64-byte lines. Cheap and intuitive,
///   but it *saturates*: on any large mesh almost every edge crosses a
///   line, so two layouts of very different quality can both score
///   ≈ 1.0.
/// * **`extra_lines_per_vertex`** — mean number of *distinct* foreign
///   lines a vertex's neighbour scan touches. This is the quantity the
///   crawl actually pays for (each distinct line is one potential
///   miss; repeats within a scan are near-certain hits), and it does
///   not saturate.
///
/// **Isolated-vertex convention.** Vertices with no adjacency edges
/// (orphaned by aggressive coarsening — see
/// [`octopus_mesh::Mesh::is_vertex_active`]) contribute no terms: the
/// crawl never reaches them over edges, so their memory placement
/// cannot affect its cache behaviour. They are *excluded from both
/// denominators*, not counted as zero-cost neighbourhoods — counting
/// them would deflate the means and mask real locality decay exactly on
/// the coarsening-heavy meshes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheLineStats {
    /// Crossing directed pairs / total directed pairs (0 when none).
    pub crossing_ratio: f64,
    /// Mean distinct non-own cache lines per non-isolated vertex
    /// neighbourhood (0 when every vertex is isolated).
    pub extra_lines_per_vertex: f64,
    /// Directed adjacent pairs on distinct lines.
    pub crossings: u64,
    /// Total directed adjacent pairs.
    pub pairs: u64,
    /// Vertices with zero adjacency edges, excluded from both means.
    pub isolated: usize,
}

/// Computes the [`CacheLineStats`] for `mesh`'s current vertex order.
pub fn cache_line_stats(mesh: &Mesh) -> CacheLineStats {
    let mut crossings = 0u64;
    let mut pairs = 0u64;
    let mut isolated = 0usize;
    let mut extra_total = 0u64;
    let mut counted = 0u64;
    let mut lines: Vec<u32> = Vec::new();
    for v in 0..mesh.num_vertices() as VertexId {
        let neighbors = mesh.neighbors(v);
        if neighbors.is_empty() {
            isolated += 1;
            continue;
        }
        counted += 1;
        let own = cache_line_of(v);
        lines.clear();
        for &w in neighbors {
            pairs += 1;
            let lw = cache_line_of(w);
            if lw != own {
                crossings += 1;
                lines.push(lw);
            }
        }
        lines.sort_unstable();
        lines.dedup();
        extra_total += lines.len() as u64;
    }
    CacheLineStats {
        crossing_ratio: if pairs == 0 {
            0.0
        } else {
            crossings as f64 / pairs as f64
        },
        extra_lines_per_vertex: if counted == 0 {
            0.0
        } else {
            extra_total as f64 / counted as f64
        },
        crossings,
        pairs,
        isolated,
    }
}

/// LRU stack-distance histogram of cache-line touches during a
/// simulated full-mesh crawl (BFS from vertex 0, restarting per
/// component — the access pattern the executor's crawl generates: every
/// pop touches the vertex's own line, then one touch per neighbour).
///
/// `buckets[i]` counts warm accesses whose stack distance `d`
/// (number of *distinct* lines touched since this line's previous
/// touch) satisfies `floor(log2(max(d, 1))) == i`; bucket 0 therefore
/// holds `d ∈ {0, 1}`. `cold` counts first touches. A layout is good
/// exactly when mass concentrates in low buckets: the line was still
/// resident when re-touched.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReuseHistogram {
    /// Log₂-spaced stack-distance buckets (see type docs).
    pub buckets: Vec<u64>,
    /// First-touch (compulsory-miss) accesses.
    pub cold: u64,
    /// Total accesses, warm + cold.
    pub accesses: u64,
}

impl ReuseHistogram {
    fn record(&mut self, d: u64) {
        let bucket = 63 - d.max(1).leading_zeros() as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Fraction of warm accesses with stack distance `< lines` — the
    /// hit rate of an ideal LRU cache holding `lines` lines. Exact
    /// when `lines` is a power of two (bucket boundaries align);
    /// rounded up to the next power of two otherwise. `1.0` when there
    /// are no warm accesses.
    pub fn fraction_within(&self, lines: u64) -> f64 {
        let warm: u64 = self.buckets.iter().sum();
        if warm == 0 {
            return 1.0;
        }
        let k =
            (lines.max(1).next_power_of_two().trailing_zeros() as usize).min(self.buckets.len());
        let within: u64 = self.buckets[..k].iter().sum();
        within as f64 / warm as f64
    }
}

/// Computes the [`ReuseHistogram`] for `mesh`'s current vertex order.
///
/// Stack distances come from the classic Fenwick-over-timestamps
/// algorithm: each line's latest touch is a marked position on the
/// access timeline, and the distance of a re-touch is the count of
/// marks strictly between the two touches — O(log T) per access,
/// O((V + E) log(V + E)) total, so it is a diagnostic (bench/tests),
/// not a hot path.
pub fn reuse_distance_histogram(mesh: &Mesh) -> ReuseHistogram {
    let n = mesh.num_vertices();
    let mut hist = ReuseHistogram::default();
    if n == 0 {
        return hist;
    }
    let num_lines = n.div_ceil(IDS_PER_LINE);
    let total: usize = n
        + (0..n as VertexId)
            .map(|v| mesh.neighbors(v).len())
            .sum::<usize>();
    let mut last = vec![0u32; num_lines]; // 0 = never touched; times are 1-based
    let mut fen = Fenwick::new(total + 1);
    let mut t = 0u32;
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    let mut access = |line: usize, hist: &mut ReuseHistogram, fen: &mut Fenwick| {
        t += 1;
        hist.accesses += 1;
        let t0 = last[line];
        if t0 == 0 {
            hist.cold += 1;
        } else {
            // Marks strictly inside (t0, t): other lines' latest
            // touches since ours — exactly the distinct-line count.
            let d = fen.prefix(t - 1) - fen.prefix(t0);
            hist.record(d as u64);
            fen.add(t0, -1);
        }
        fen.add(t, 1);
        last[line] = t;
    };
    for seed in 0..n as VertexId {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            access(cache_line_of(v) as usize, &mut hist, &mut fen);
            for &w in mesh.neighbors(v) {
                access(cache_line_of(w) as usize, &mut hist, &mut fen);
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    hist
}

/// Minimal Fenwick tree over the access timeline (1-based positions).
struct Fenwick {
    tree: Vec<i32>,
}

impl Fenwick {
    fn new(len: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; len + 1],
        }
    }

    fn add(&mut self, mut i: u32, delta: i32) {
        while (i as usize) < self.tree.len() {
            self.tree[i as usize] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `1..=i`.
    fn prefix(&self, mut i: u32) -> i64 {
        let mut sum = 0i64;
        while i > 0 {
            sum += i64::from(self.tree[i as usize]);
            i -= i & i.wrapping_neg();
        }
        sum
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
        mesh.positions()
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(**p))
            .map(|(i, _)| i as VertexId)
            .collect()
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mesh = box_mesh(5);
        let perm = curve_permutation(&mesh, CurveKind::Hilbert);
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn hilbert_layout_improves_cache_line_locality() {
        // Scramble the mesh first so the input order is genuinely bad.
        let mesh = box_mesh(8);
        let mut scramble: Vec<VertexId> = (0..mesh.num_vertices() as u32).collect();
        octopus_geom::rng::SplitMix64::new(3).shuffle(&mut scramble);
        let scrambled = mesh.permute_vertices(&scramble);
        let before = cache_line_stats(&scrambled).extra_lines_per_vertex;
        let (sorted, _) = hilbert_layout(&scrambled);
        let after = cache_line_stats(&sorted).extra_lines_per_vertex;
        assert!(
            after < before * 0.5,
            "Hilbert layout must at least halve the foreign lines per vertex: {before} -> {after}"
        );
    }

    #[test]
    fn hilbert_beats_or_matches_morton_locality() {
        let mesh = box_mesh(8);
        let (h, _) = hilbert_layout(&mesh);
        let (m, _) = morton_layout(&mesh);
        let (lh, lm) = (
            cache_line_stats(&h).extra_lines_per_vertex,
            cache_line_stats(&m).extra_lines_per_vertex,
        );
        assert!(
            lh <= lm * 1.1,
            "hilbert {lh} should not be much worse than morton {lm}"
        );
    }

    #[test]
    fn queries_on_laid_out_mesh_translate_via_perm() {
        let mesh = box_mesh(5);
        let (sorted, perm) = hilbert_layout(&mesh);
        let q = Aabb::new(Point3::splat(0.2), Point3::splat(0.6));
        let expected_old = scan(&mesh, &q);
        let mut expected_new: Vec<VertexId> =
            expected_old.iter().map(|&v| perm[v as usize]).collect();
        expected_new.sort_unstable();
        let mut got = scan(&sorted, &q);
        got.sort_unstable();
        assert_eq!(got, expected_new);
        // OCTOPUS on the laid-out mesh returns the same geometry.
        let o = crate::Octopus::new(&sorted).unwrap();
        let mut out = Vec::new();
        let probe = crate::Probe::Surface;
        o.query_with(&mut o.make_scratch(&sorted), &sorted, &q, probe, &mut out);
        out.sort_unstable();
        assert_eq!(out, expected_new);
    }

    #[test]
    fn empty_mesh_locality_is_zero() {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let empty =
            octopus_meshgen::tet::tetrahedralize(&VoxelRegion::from_fn(&bounds, 2, 2, 2, |_| {
                false
            }))
            .unwrap();
        assert!(curve_permutation(&empty, CurveKind::Hilbert).is_empty());
        assert_eq!(cache_line_stats(&empty), CacheLineStats::default());
        let hist = reuse_distance_histogram(&empty);
        assert_eq!(hist.accesses, 0);
        assert_eq!(hist.fraction_within(8), 1.0);
    }

    fn scrambled_box(n: usize, seed: u64) -> Mesh {
        let mesh = box_mesh(n);
        let mut perm: Vec<VertexId> = (0..mesh.num_vertices() as u32).collect();
        octopus_geom::rng::SplitMix64::new(seed).shuffle(&mut perm);
        mesh.permute_vertices(&perm)
    }

    #[test]
    fn reuse_histogram_concentrates_low_for_good_layouts() {
        let scrambled = scrambled_box(6, 9);
        let (laid_out, _) = hilbert_layout(&scrambled);
        let bad = reuse_distance_histogram(&scrambled);
        let good = reuse_distance_histogram(&laid_out);
        // Same access count (same mesh, same BFS structure up to
        // relabelling is not guaranteed, but V + E is).
        assert_eq!(bad.accesses, good.accesses);
        assert!(
            good.fraction_within(16) > bad.fraction_within(16),
            "good {} vs bad {}",
            good.fraction_within(16),
            bad.fraction_within(16)
        );
    }

    #[test]
    fn crossing_ratio_saturates_but_extra_lines_does_not() {
        // The documented reason to score layouts by extra-lines: on a
        // scrambled mesh both metrics are bad, but after layout the
        // crossing ratio stays near 1 while extra-lines collapses.
        let scrambled = scrambled_box(7, 5);
        let (laid_out, _) = hilbert_layout(&scrambled);
        let s = cache_line_stats(&scrambled);
        let l = cache_line_stats(&laid_out);
        let crossing_gain = s.crossing_ratio / l.crossing_ratio;
        let lines_gain = s.extra_lines_per_vertex / l.extra_lines_per_vertex;
        assert!(
            lines_gain > crossing_gain,
            "extra-lines must have more dynamic range: {lines_gain} vs {crossing_gain}"
        );
    }
}
