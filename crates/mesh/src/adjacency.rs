//! Compressed sparse row (CSR) adjacency.
//!
//! The crawl phase (§IV-B) is a breadth-first traversal over vertex
//! neighbours; CSR keeps each vertex's neighbour list contiguous so a BFS
//! expansion is one range lookup plus a linear scan — the memory-access
//! pattern the Hilbert layout optimisation (§IV-H1) is designed around.
//!
//! The lists are cut into blocks of [`VERTICES_PER_BLOCK`] consecutive
//! vertices, each behind its own handle, so that restructuring
//! (§IV-E2) costs what it touches: a splice rebuilds the few blocks
//! that hold an edited list, and every snapshot keeps sharing the rest.
//! Under the Hilbert layout a cell's corners sit in one or two blocks.

use octopus_geom::VertexId;
use std::sync::Arc;

/// Vertices per block of a [`Csr`]'s neighbour lists: vertex `v`'s list
/// lives in block `v / VERTICES_PER_BLOCK`. A splice
/// ([`Csr::splice`]) rewrites the blocks its vertices live in — ≈ 13 KB
/// each at the benchmark meshes' mean degree of 12.5 — and every CSR
/// sharing the others keeps sharing them.
pub const VERTICES_PER_BLOCK: usize = 1 << BLOCK_SHIFT;
const BLOCK_SHIFT: u32 = 8;

/// CSR graph over `n` vertices, its neighbour lists in copy-on-write
/// blocks of [`VERTICES_PER_BLOCK`] vertices.
///
/// Each block holds exactly its vertices' lists, concatenated without
/// slack, behind its own handle, so a clone copies the starts (4 bytes
/// a vertex) and the block handles, and a restructuring splice copies
/// only the blocks it rewrites. Equality compares the lists, not the
/// handles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Csr {
    /// `n + 1` block-relative starts: `v`'s list begins at `starts[v]`
    /// of `blocks[v / VERTICES_PER_BLOCK]` and ends at `starts[v + 1]`,
    /// or at the block's end for the last vertex of a block. `starts[n]`
    /// is the last block's length, so a partial tail block reads alike.
    starts: Vec<u32>,
    /// The concatenated neighbour lists of each block's vertices, each
    /// list sorted ascending.
    blocks: Vec<Arc<[VertexId]>>,
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

        let mut starts = vec![0u32; n + 1];
        for &p in &packed {
            starts[(p >> 32) as usize + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        Csr::from_global_starts(starts, &packed, |p| p as VertexId)
    }

    /// Builds the CSR whose list `v` holds the targets of the pairs
    /// with source `v`, in the order the pairs come: one counting pass
    /// sizes the lists, a second scatters into them, and nothing is
    /// sorted — so each source's targets must come ascending and
    /// without repeats. A walk over a mesh's live cells, ascending by
    /// id, gives every vertex its cells that way (the vertex→cell
    /// incidence of restructuring mode).
    ///
    /// `n` is the vertex count; every source must be `< n`.
    pub(crate) fn from_ordered_pairs(
        n: usize,
        pairs: impl Iterator<Item = (VertexId, VertexId)> + Clone,
    ) -> Csr {
        // List `v` is `targets[ends[v]..ends[v + 1]]` once filled:
        // counted two slots up, so that the prefix sum leaves its start
        // in `ends[v + 1]` and the scatter, advancing it, leaves its end
        // there.
        let mut ends = vec![0u32; n + 2];
        for (v, _) in pairs.clone() {
            ends[v as usize + 2] += 1;
        }
        for v in 2..ends.len() {
            ends[v] += ends[v - 1];
        }
        let mut targets = vec![0; ends[n + 1] as usize];
        for (v, t) in pairs {
            let end = &mut ends[v as usize + 1];
            targets[*end as usize] = t;
            *end += 1;
        }
        ends.pop();
        Csr::from_global_starts(ends, &targets, |t| t)
    }

    /// Cuts lists laid out one after another into blocks: list `v` is
    /// `flat[starts[v]..starts[v + 1]]` (`n + 1` global starts), and
    /// `target` reads a vertex id off an entry. Each block is its slice
    /// of `flat`, and its starts are made relative to its first.
    fn from_global_starts<T: Copy>(
        mut starts: Vec<u32>,
        flat: &[T],
        target: impl Fn(T) -> VertexId,
    ) -> Csr {
        let n = starts.len() - 1;
        let firsts = (0..n).step_by(VERTICES_PER_BLOCK);
        let blocks = firsts
            .clone()
            .map(|first| {
                let end = (first + VERTICES_PER_BLOCK).min(n);
                let entries = &flat[starts[first] as usize..starts[end] as usize];
                entries.iter().map(|&e| target(e)).collect()
            })
            .collect();
        // Last block first, so that each block's base is still global
        // when it is subtracted; the last block's range takes `starts[n]`.
        for first in firsts.rev() {
            let end = (first + VERTICES_PER_BLOCK).min(n);
            let base = starts[first];
            let upto = if end == n { n + 1 } else { end };
            starts[first..upto]
                .iter_mut()
                .for_each(|start| *start -= base);
        }
        let csr = Csr { starts, blocks };
        csr.debug_assert_sorted();
        csr
    }

    /// Splices the restructuring patch (§IV-E2) into the graph, in
    /// place: it grows to `n ≥ self.num_vertices()` vertices (the new
    /// ones start empty), every vertex of `touched` gets its targets
    /// among the `directed` `(source, target)` pairs as its list, and
    /// every other list is kept. A removed or added cell changes only
    /// its own vertices' lists, so the splice rebuilds only the blocks
    /// those vertices live in (and, when the graph grows, the tail
    /// block and the new ones) and rewrites their starts. Every other
    /// block is left alone — still shared with any clone — and no
    /// global sort runs.
    ///
    /// Every source in `directed` must be in `touched`; duplicate pairs
    /// are dropped, so the caller may enumerate cell edges as they come
    /// (an edge shared by several cells comes several times). Replacing
    /// a list does *not* touch the reverse entries: the caller replaces
    /// both endpoints' lists of every edge it creates or destroys.
    ///
    /// # Panics
    /// When `n` is below the vertex count, a touched vertex is not
    /// below `n`, or a pair's source is not touched.
    pub fn splice(
        &mut self,
        n: usize,
        touched: &[VertexId],
        directed: impl Iterator<Item = (VertexId, VertexId)>,
    ) {
        let old_n = self.num_vertices();
        assert!(n >= old_n, "a CSR splice cannot drop vertices");
        let mut touched = touched.to_vec();
        touched.sort_unstable();
        touched.dedup();
        assert!(
            touched.last().is_none_or(|&t| (t as usize) < n),
            "touched vertex out of range"
        );
        let mut packed: Vec<u64> = directed
            .map(|(a, b)| (u64::from(a) << 32) | u64::from(b))
            .collect();
        packed.sort_unstable();
        packed.dedup();

        let mut rebuild: Vec<usize> = touched.iter().map(|&t| t as usize >> BLOCK_SHIFT).collect();
        if n > old_n {
            // The old tail block gains vertices; `starts[old_n]` keeps
            // its length until that block is rebuilt.
            rebuild.extend(old_n >> BLOCK_SHIFT..n.div_ceil(VERTICES_PER_BLOCK));
            self.starts.resize(n + 1, 0);
        }
        rebuild.sort_unstable();
        rebuild.dedup();
        let (mut starts, mut scratch) = ([0; VERTICES_PER_BLOCK + 1], Vec::new());
        let (mut t, mut next) = (0, 0);
        for b in rebuild {
            let first = b << BLOCK_SHIFT;
            let end = (first + VERTICES_PER_BLOCK).min(n);
            scratch.clear();
            let mut v = first;
            while v < end {
                // The untouched run `v..to` keeps its lists — one copy
                // of the old block's slice, its starts shifted — and any
                // vertex of it the graph did not have starts empty.
                let to = touched.get(t).map_or(end, |&u| (u as usize).min(end));
                let kept = to.min(old_n).max(v);
                if v < kept {
                    let block = &self.blocks[b];
                    let lo = self.starts[v];
                    let hi = self.span(kept - 1, block.len()).end;
                    let shift = (scratch.len() as u32).wrapping_sub(lo);
                    for (start, &old) in starts[v - first..kept - first]
                        .iter_mut()
                        .zip(&self.starts[v..kept])
                    {
                        *start = old.wrapping_add(shift);
                    }
                    scratch.extend_from_slice(&block[lo as usize..hi]);
                }
                starts[kept - first..to - first].fill(scratch.len() as u32);
                if to == end {
                    break;
                }
                // The touched vertex `to` takes its pairs.
                starts[to - first] = scratch.len() as u32;
                while let Some(&p) = packed.get(next).filter(|&&p| (p >> 32) as usize == to) {
                    scratch.push(p as VertexId);
                    next += 1;
                }
                t += 1;
                v = to + 1;
            }
            // `starts[n]` too when this is the last block.
            starts[end - first] = scratch.len() as u32;
            let upto = if end == n { end + 1 } else { end };
            self.starts[first..upto].copy_from_slice(&starts[..upto - first]);
            let block = Arc::from(&scratch[..]);
            if b == self.blocks.len() {
                self.blocks.push(block);
            } else {
                self.blocks[b] = block;
            }
        }
        assert_eq!(
            next,
            packed.len(),
            "every replaced entry's source must be a touched vertex"
        );
        self.debug_assert_sorted();
    }

    /// Debug-build check of the sorted-neighbour-list invariant.
    ///
    /// Each list is sorted (strictly ascending — duplicates were
    /// dedup'ed) as a *by-product* of the packed `(src, dst)` sort in
    /// [`Csr::from_undirected_edges`] and [`Csr::splice`], of the
    /// per-list sort in [`Csr::permuted`], and of the caller's order in
    /// `from_ordered_pairs`; [`Csr::has_edge`]'s binary
    /// search depends on it, so any construction path that skips the
    /// sort must fail loudly here rather than silently degrade
    /// `has_edge` to garbage answers.
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
        self.starts.len().saturating_sub(1)
    }

    /// Number of directed neighbour entries (2 × undirected edge count).
    pub fn num_directed_edges(&self) -> usize {
        self.blocks.iter().map(|block| block.len()).sum()
    }

    /// Sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let block = &self.blocks[v as usize >> BLOCK_SHIFT];
        &block[self.span(v as usize, block.len())]
    }

    /// Where `v`'s list lies in its block, of `block_len` entries: from
    /// its start to the next vertex's, or to the block's end for the
    /// last vertex of a block.
    #[inline]
    fn span(&self, v: usize, block_len: usize) -> std::ops::Range<usize> {
        // Both starts at once, one bounds check: `starts[v + 1]` exists
        // for every vertex, so the end is a select, not a branch.
        let pair = &self.starts[v..v + 2];
        let (lo, next) = (pair[0], pair[1]);
        let hi = if (v + 1).is_multiple_of(VERTICES_PER_BLOCK) {
            block_len
        } else {
            next as usize
        };
        lo as usize..hi
    }

    /// Hints the cache line holding `v`'s start (a pure hint; an
    /// out-of-range `v` is a no-op). The first half of a BFS
    /// look-ahead: [`Csr::prefetch_neighbors`] on the same vertex a few
    /// pops later then finds its start already loaded.
    #[inline]
    pub fn prefetch_offsets(&self, v: VertexId) {
        octopus_geom::mem::prefetch_read(&self.starts, v as usize);
    }

    /// Hints the first cache line of `v`'s neighbour list. Reads `v`'s
    /// start to find it, so it pays off once [`Csr::prefetch_offsets`]
    /// has brought that in.
    #[inline]
    pub fn prefetch_neighbors(&self, v: VertexId) {
        let v = v as usize;
        if let (Some(&lo), Some(block)) = (self.starts.get(v), self.blocks.get(v >> BLOCK_SHIFT)) {
            octopus_geom::mem::prefetch_read(block, lo as usize);
        }
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Average degree over all vertices (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.num_directed_edges() as f64 / n as f64
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

    /// Heap memory used by the structure, in bytes: the starts, the
    /// block handles and the blocks.
    pub fn memory_bytes(&self) -> usize {
        self.starts.capacity() * std::mem::size_of::<u32>()
            + self.blocks.capacity() * std::mem::size_of::<Arc<[VertexId]>>()
            + self.num_directed_edges() * std::mem::size_of::<VertexId>()
    }

    /// Applies a vertex relabelling: vertex `old` becomes `perm[old]`.
    ///
    /// `perm` must be a bijection over `0..n`. Used by the Hilbert layout
    /// optimisation to co-locate spatially close vertices.
    ///
    /// A relabelling keeps every list's length, so the new starts are a
    /// prefix sum, block by block, over the degrees scattered to their
    /// new vertices, and each list is mapped through `perm` into its
    /// place and sorted on its own: O(E log d) for list length d,
    /// instead of a global sort of every edge.
    pub fn permuted(&self, perm: &[VertexId]) -> Csr {
        let n = self.num_vertices();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut starts = vec![0u32; n + 1];
        for (old, &new) in perm.iter().enumerate() {
            starts[new as usize] = self.degree(old as VertexId) as u32;
        }
        let blocks = starts[..n]
            .chunks_mut(VERTICES_PER_BLOCK)
            .map(|degrees| {
                let mut len = 0;
                for start in degrees {
                    (*start, len) = (len, len + *start);
                }
                std::iter::repeat_n(0, len as usize).collect()
            })
            .collect();
        let mut csr = Csr { starts, blocks };
        csr.starts[n] = csr.blocks.last().map_or(0, |block| block.len() as u32);
        assert_eq!(
            csr.num_directed_edges(),
            self.num_directed_edges(),
            "perm is not a bijection"
        );
        for (old, &new) in perm.iter().enumerate() {
            let b = new as usize >> BLOCK_SHIFT;
            let range = csr.span(new as usize, csr.blocks[b].len());
            let block =
                Arc::get_mut(&mut csr.blocks[b]).expect("a block under construction is not shared");
            let list = &mut block[range];
            for (slot, &t) in list.iter_mut().zip(self.neighbors(old as VertexId)) {
                *slot = perm[t as usize];
            }
            list.sort_unstable();
        }
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
    fn a_splice_replaces_the_touched_lists_and_keeps_the_rest() {
        // Path 0-1-2-3-4; drop edge (1,2), add edge (1,3), grow by
        // vertex 5 hanging off 3: lists of 1, 2, 3 and 5 are replaced.
        let mut g =
            Csr::from_undirected_edges(5, [(0u32, 1u32), (1, 2), (2, 3), (3, 4)].into_iter());
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
        g.splice(6, &[3, 1, 2, 5, 3], noisy);
        let rebuilt = Csr::from_undirected_edges(
            6,
            [(0u32, 1u32), (1, 3), (2, 3), (3, 4), (3, 5)].into_iter(),
        );
        assert_eq!(g, rebuilt);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(4), &[3]);
    }

    #[test]
    fn a_splice_can_empty_a_vertex_and_grow_empty_ones() {
        let mut g = triangle_plus_isolated();
        // Orphan vertex 2: its list empties, 0 and 1 lose it.
        g.splice(4, &[0, 1, 2], [(0u32, 1u32), (1, 0)].into_iter());
        assert_eq!(g, Csr::from_undirected_edges(4, [(0u32, 1u32)].into_iter()));
        // No replacement at all only grows (with empty lists).
        g.splice(6, &[], std::iter::empty());
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.degree(5), 0);
        assert_eq!(g, Csr::from_undirected_edges(6, [(0u32, 1u32)].into_iter()));
    }

    #[test]
    #[should_panic(expected = "touched vertex")]
    fn replaced_entries_must_belong_to_touched_vertices() {
        triangle_plus_isolated().splice(4, &[0], [(1u32, 0u32)].into_iter());
    }

    /// A ring over `n` vertices: every list has two entries.
    fn ring(n: usize) -> Csr {
        let n32 = n as VertexId;
        Csr::from_undirected_edges(n, (0..n32).map(|v| (v, (v + 1) % n32)))
    }

    /// The address of block `b`'s neighbour entries.
    fn block_ptr(g: &Csr, b: usize) -> *const VertexId {
        g.neighbors((b * VERTICES_PER_BLOCK) as VertexId).as_ptr()
    }

    #[test]
    fn lists_span_block_boundaries_and_the_partial_tail() {
        for n in [
            VERTICES_PER_BLOCK - 1,
            VERTICES_PER_BLOCK,
            VERTICES_PER_BLOCK + 1,
            3 * VERTICES_PER_BLOCK + 7,
        ] {
            let g = ring(n);
            assert_eq!(g.num_directed_edges(), 2 * n, "{n}");
            for v in 0..n {
                let (prev, next) = ((v + n - 1) % n, (v + 1) % n);
                let mut want = [prev as VertexId, next as VertexId];
                want.sort_unstable();
                assert_eq!(g.neighbors(v as VertexId), &want[..], "{n}: vertex {v}");
            }
            let reversed: Vec<VertexId> = (0..n as VertexId).rev().collect();
            let p = g.permuted(&reversed);
            assert_eq!(p, ring(n).permuted(&reversed));
            assert_eq!(
                p,
                Csr::from_undirected_edges(n, (0..n).map(|v| (reversed[v], reversed[(v + 1) % n]))),
                "{n}"
            );
        }
    }

    #[test]
    fn a_splice_rewrites_only_the_blocks_of_its_vertices() {
        let n = 4 * VERTICES_PER_BLOCK;
        let mut g = ring(n);
        let held = g.clone();
        // Cut the ring between two vertices of block 1 and chord block
        // 1 to block 3.
        let (a, b, c) = (300 as VertexId, 301 as VertexId, 900 as VertexId);
        let mut directed = vec![(a, a - 1), (a, c), (b, b + 1), (c, c - 1), (c, c + 1)];
        directed.push((c, a));
        g.splice(n, &[a, b, c], directed.into_iter());
        let mut edges: Vec<(VertexId, VertexId)> = (0..n as VertexId)
            .map(|v| (v, (v + 1) % n as VertexId))
            .filter(|&e| e != (a, b))
            .collect();
        edges.push((a, c));
        assert_eq!(g, Csr::from_undirected_edges(n, edges.into_iter()));
        for block in 0..4 {
            let shared = block_ptr(&g, block) == block_ptr(&held, block);
            assert_eq!(shared, block == 0 || block == 2, "block {block}");
        }
        // The clone still answers the ring.
        assert_eq!(held, ring(n));
        // Growth past a block boundary rebuilds the tail and adds a
        // block; a full tail block gains a new one beside it.
        let before = g.clone();
        let grown = n as VertexId;
        g.splice(
            n + 3,
            &[grown, 5],
            [(5, 4), (5, 6), (5, grown), (grown, 5)].into_iter(),
        );
        assert_eq!(g.num_vertices(), n + 3);
        assert_eq!(g.neighbors(grown), &[5]);
        assert_eq!(g.neighbors(5), &[4, 6, grown]);
        assert_eq!(g.degree(grown + 2), 0);
        for block in 1..4 {
            assert_eq!(
                block_ptr(&g, block),
                block_ptr(&before, block),
                "block {block}"
            );
        }
    }

    #[test]
    fn memory_accounting_is_positive_for_nonempty() {
        let g = triangle_plus_isolated();
        assert!(g.memory_bytes() >= (5 * 4) + (6 * 4));
    }
}
