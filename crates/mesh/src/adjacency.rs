//! Compressed sparse row (CSR) adjacency.
//!
//! The crawl phase (§IV-B) is a breadth-first traversal over vertex
//! neighbours; CSR keeps each vertex's neighbour list contiguous so a BFS
//! expansion is one range lookup plus a linear scan — the memory-access
//! pattern the Hilbert layout optimisation (§IV-H1) is designed around.

use octopus_geom::VertexId;

/// Immutable CSR graph over `n` vertices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: Vec<u32>,
    /// Concatenated neighbour lists, each sorted ascending.
    targets: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR from undirected edges. Duplicate and self edges are
    /// removed; each surviving edge appears in both endpoint lists.
    ///
    /// `n` is the vertex count; every edge endpoint must be `< n`.
    pub fn from_undirected_edges(
        n: usize,
        edges: impl Iterator<Item = (VertexId, VertexId)>,
    ) -> Csr {
        // Materialise both directions, then sort + dedup. Sorting a flat
        // Vec<u64> (packed pair) is cache-friendlier than sorting tuples.
        let mut packed: Vec<u64> = Vec::new();
        for (a, b) in edges {
            debug_assert!(
                (a as usize) < n && (b as usize) < n,
                "edge endpoint out of range"
            );
            if a == b {
                continue;
            }
            packed.push((u64::from(a) << 32) | u64::from(b));
            packed.push((u64::from(b) << 32) | u64::from(a));
        }
        packed.sort_unstable();
        packed.dedup();

        let mut offsets = vec![0u32; n + 1];
        for &p in &packed {
            offsets[(p >> 32) as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<VertexId> = packed.iter().map(|&p| p as u32).collect();
        let csr = Csr { offsets, targets };
        csr.debug_assert_sorted();
        csr
    }

    /// Returns the graph over `n ≥ self.num_vertices()` vertices in
    /// which every vertex of `touched` has its neighbour list replaced
    /// by its targets among the `directed` `(source, target)` pairs, and
    /// every other list is kept (vertices beyond the old count start
    /// empty). This is the restructuring patch (§IV-E2): a removed or
    /// added cell changes only its own vertices' lists, so the new CSR
    /// is the old one plus those few lists — one sequential copy, no
    /// global sort.
    ///
    /// Every source in `directed` must be in `touched`; duplicate pairs
    /// are dropped, so the caller may enumerate cell edges as they come
    /// (an edge shared by several cells comes several times). Replacing
    /// a list does *not* touch the reverse entries: the caller replaces
    /// both endpoints' lists of every edge it creates or destroys.
    pub fn with_lists_replaced(
        &self,
        n: usize,
        touched: &[VertexId],
        directed: impl Iterator<Item = (VertexId, VertexId)>,
    ) -> Csr {
        let old_n = self.num_vertices();
        assert!(n >= old_n, "a CSR patch cannot drop vertices");
        let mut touched = touched.to_vec();
        touched.sort_unstable();
        touched.dedup();
        let mut packed: Vec<u64> = directed
            .map(|(a, b)| (u64::from(a) << 32) | u64::from(b))
            .collect();
        packed.sort_unstable();
        packed.dedup();

        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut targets: Vec<VertexId> = Vec::with_capacity(self.targets.len() + packed.len());
        offsets.push(0);
        // Copies the untouched run `from..to` of the old graph: one
        // slice copy of the targets, offsets shifted by the run's new
        // base; vertices the old graph does not have get empty lists.
        let copy_run =
            |offsets: &mut Vec<u32>, targets: &mut Vec<VertexId>, from: usize, to: usize| {
                let kept = to.min(old_n);
                if from < kept {
                    let (lo, hi) = (self.offsets[from], self.offsets[kept]);
                    let base = targets.len() as u32;
                    targets.extend_from_slice(&self.targets[lo as usize..hi as usize]);
                    offsets.extend(self.offsets[from + 1..=kept].iter().map(|o| o - lo + base));
                }
                let end = targets.len() as u32;
                offsets.extend((from.max(kept)..to).map(|_| end));
            };
        let mut next = 0usize;
        let mut cursor = 0usize;
        for &t in &touched {
            assert!((t as usize) < n, "touched vertex out of range");
            copy_run(&mut offsets, &mut targets, next, t as usize);
            while cursor < packed.len() && (packed[cursor] >> 32) as VertexId == t {
                targets.push(packed[cursor] as VertexId);
                cursor += 1;
            }
            offsets.push(targets.len() as u32);
            next = t as usize + 1;
        }
        copy_run(&mut offsets, &mut targets, next, n);
        assert_eq!(
            cursor,
            packed.len(),
            "every replaced entry's source must be a touched vertex"
        );
        let csr = Csr { offsets, targets };
        csr.debug_assert_sorted();
        csr
    }

    /// Debug-build check of the sorted-neighbour-list invariant.
    ///
    /// Each list is sorted (strictly ascending — duplicates were
    /// dedup'ed) as a *by-product* of the packed `(src, dst)` sort in
    /// [`Csr::from_undirected_edges`] and [`Csr::with_lists_replaced`],
    /// and of the per-list sort in [`Csr::permuted`];
    /// [`Csr::has_edge`]'s binary search depends on it, so any
    /// construction path that skips the sort must fail loudly here
    /// rather than silently degrade `has_edge` to garbage answers.
    fn debug_assert_sorted(&self) {
        if cfg!(debug_assertions) {
            for v in 0..self.num_vertices() {
                let list = self.neighbors(v as u32);
                debug_assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "neighbour list of vertex {v} is not strictly sorted: {list:?}"
                );
            }
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of directed neighbour entries (2 × undirected edge count).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Hints the cache line holding `v`'s offsets (a pure hint; an
    /// out-of-range `v` is a no-op). The first half of a BFS
    /// look-ahead: [`Csr::prefetch_neighbors`] on the same vertex a few
    /// pops later then finds its offset already loaded.
    #[inline]
    pub fn prefetch_offsets(&self, v: VertexId) {
        octopus_geom::mem::prefetch_read(&self.offsets, v as usize);
    }

    /// Hints the first cache line of `v`'s neighbour list. Reads `v`'s
    /// offset to find it, so it pays off once
    /// [`Csr::prefetch_offsets`] has brought that in.
    #[inline]
    pub fn prefetch_neighbors(&self, v: VertexId) {
        if let Some(&lo) = self.offsets.get(v as usize) {
            octopus_geom::mem::prefetch_read(&self.targets, lo as usize);
        }
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Average degree over all vertices (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.targets.len() as f64 / n as f64
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as u32))
            .max()
            .unwrap_or(0)
    }

    /// True when `b` is a neighbour of `a` (binary search).
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Heap memory used by the structure, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<VertexId>()
    }

    /// Applies a vertex relabelling: vertex `old` becomes `perm[old]`.
    ///
    /// `perm` must be a bijection over `0..n`. Used by the Hilbert layout
    /// optimisation to co-locate spatially close vertices.
    ///
    /// A relabelling keeps every list's length, so the new offsets are a
    /// prefix sum over the degrees scattered to their new sources, and
    /// each list is mapped through `perm` and sorted on its own:
    /// O(E log d) for list length d, instead of a global sort of every
    /// edge.
    pub fn permuted(&self, perm: &[VertexId]) -> Csr {
        let n = self.num_vertices();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut offsets = vec![0u32; n + 1];
        for (old, &new) in perm.iter().enumerate() {
            offsets[new as usize + 1] = self.degree(old as VertexId) as u32;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        assert_eq!(
            offsets[n] as usize,
            self.targets.len(),
            "perm is not a bijection"
        );
        let mut targets = vec![0 as VertexId; self.targets.len()];
        for (old, &new) in perm.iter().enumerate() {
            let list =
                &mut targets[offsets[new as usize] as usize..offsets[new as usize + 1] as usize];
            for (slot, &t) in list.iter_mut().zip(self.neighbors(old as VertexId)) {
                *slot = perm[t as usize];
            }
            list.sort_unstable();
        }
        let csr = Csr { offsets, targets };
        csr.debug_assert_sorted();
        csr
    }

    /// Connected components; returns `(component_id_per_vertex, count)`.
    pub fn connected_components(&self) -> (Vec<u32>, usize) {
        let n = self.num_vertices();
        let mut comp = vec![u32::MAX; n];
        let mut count = 0u32;
        let mut stack: Vec<VertexId> = Vec::new();
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = count;
            stack.push(start as u32);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        (comp, count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_isolated() -> Csr {
        // 0-1-2 triangle, vertex 3 isolated.
        Csr::from_undirected_edges(4, [(0u32, 1u32), (1, 2), (2, 0)].into_iter())
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = triangle_plus_isolated();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        for v in 0..4u32 {
            for &w in g.neighbors(v) {
                assert!(g.has_edge(w, v), "asymmetric edge {v}->{w}");
            }
        }
    }

    #[test]
    fn duplicates_and_self_loops_are_dropped() {
        let g = Csr::from_undirected_edges(3, [(0u32, 1u32), (1, 0), (0, 1), (2, 2)].into_iter());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.num_directed_edges(), 2);
    }

    #[test]
    fn degree_statistics() {
        let g = triangle_plus_isolated();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 6.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_undirected_edges(0, std::iter::empty());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
        let (_, count) = g.connected_components();
        assert_eq!(count, 0);
    }

    #[test]
    fn connected_components_counts_isolated_vertices() {
        let g = triangle_plus_isolated();
        let (comp, count) = g.connected_components();
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = triangle_plus_isolated();
        // Swap 0 <-> 3: the isolated vertex becomes 0.
        let perm = [3u32, 1, 2, 0];
        let p = g.permuted(&perm);
        assert_eq!(p.degree(0), 0);
        assert_eq!(p.neighbors(3), &[1, 2]);
        assert_eq!(p.neighbors(1), &[2, 3]);
        assert!(p.has_edge(2, 1));
        assert_eq!(p.num_directed_edges(), g.num_directed_edges());
    }

    #[test]
    fn neighbor_lists_are_sorted_after_build_and_permutation() {
        // A deliberately scrambled edge insertion order plus a reversing
        // permutation: both construction paths must still yield strictly
        // ascending lists (the invariant `has_edge`'s binary search and
        // the debug assertion rely on).
        let edges = [(4u32, 0u32), (2, 4), (0, 2), (3, 0), (4, 1), (1, 0)];
        let g = Csr::from_undirected_edges(5, edges.into_iter());
        let p = g.permuted(&[4, 3, 2, 1, 0]);
        for csr in [&g, &p] {
            for v in 0..5u32 {
                let list = csr.neighbors(v);
                assert!(list.windows(2).all(|w| w[0] < w[1]), "vertex {v}: {list:?}");
                for &w in list {
                    assert!(csr.has_edge(v, w), "binary search must find {v}->{w}");
                }
            }
            assert!(!csr.has_edge(0, 0));
        }
    }

    #[test]
    fn replaced_lists_splice_into_the_untouched_runs() {
        // Path 0-1-2-3-4; drop edge (1,2), add edge (1,3), grow by
        // vertex 5 hanging off 3: lists of 1, 2, 3 and 5 are replaced.
        let g = Csr::from_undirected_edges(5, [(0u32, 1u32), (1, 2), (2, 3), (3, 4)].into_iter());
        let directed = [
            (1u32, 0u32),
            (1, 3),
            (2, 3),
            (3, 1),
            (3, 2),
            (3, 4),
            (3, 5),
            (5, 3),
        ];
        // Duplicates are tolerated.
        let noisy = directed.into_iter().chain([(3, 5), (1, 0)]);
        let patched = g.with_lists_replaced(6, &[3, 1, 2, 5, 3], noisy);
        let rebuilt = Csr::from_undirected_edges(
            6,
            [(0u32, 1u32), (1, 3), (2, 3), (3, 4), (3, 5)].into_iter(),
        );
        assert_eq!(patched, rebuilt);
        assert_eq!(patched.neighbors(0), &[1]);
        assert_eq!(patched.neighbors(4), &[3]);
    }

    #[test]
    fn replaced_lists_can_empty_a_vertex_and_keep_the_rest() {
        let g = triangle_plus_isolated();
        // Orphan vertex 2: its list empties, 0 and 1 lose it.
        let patched = g.with_lists_replaced(4, &[0, 1, 2], [(0u32, 1u32), (1, 0)].into_iter());
        assert_eq!(
            patched,
            Csr::from_undirected_edges(4, [(0u32, 1u32)].into_iter())
        );
        // No replacement at all is a plain copy (plus empty growth).
        let grown = g.with_lists_replaced(6, &[], std::iter::empty());
        assert_eq!(grown.num_vertices(), 6);
        assert_eq!(grown.neighbors(1), g.neighbors(1));
        assert_eq!(grown.degree(5), 0);
    }

    #[test]
    #[should_panic(expected = "touched vertex")]
    fn replaced_entries_must_belong_to_touched_vertices() {
        triangle_plus_isolated().with_lists_replaced(4, &[0], [(1u32, 0u32)].into_iter());
    }

    #[test]
    fn memory_accounting_is_positive_for_nonempty() {
        let g = triangle_plus_isolated();
        assert!(g.memory_bytes() >= (5 * 4) + (6 * 4));
    }
}
