//! Incremental graph construction.
//!
//! [`GraphBuilder`] accumulates an edge list, then `build()` sorts it,
//! removes self-loops and duplicates, and produces the CSR [`Graph`]. This is
//! the single entry point every generator and reader funnels through, so the
//! simple-graph invariants of [`Graph`] are established in exactly one place.

use crate::{Graph, VertexId};

/// Accumulates edges and produces a CSR [`Graph`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// New builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids are u32");
        Self {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates room for `m` edges.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Seeds a builder with every edge of an existing graph — the
    /// compaction hook of `mdbgp-stream`: delta edges are added on top and
    /// `build()` merges both into a fresh CSR.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut b = Self::with_edge_capacity(graph.num_vertices(), graph.num_edges());
        b.edges.extend(graph.edges());
        b
    }

    /// Grows the vertex-id space to `n` (ids `0..n`). Existing edges are
    /// unaffected; shrinking is not allowed.
    ///
    /// # Panics
    /// Panics if `n` is smaller than the current vertex count.
    pub fn grow_to(&mut self, n: usize) -> &mut Self {
        assert!(
            n >= self.num_vertices,
            "grow_to({n}) would shrink a {}-vertex builder",
            self.num_vertices
        );
        assert!(n <= u32::MAX as usize, "vertex ids are u32");
        self.num_vertices = n;
        self
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds an undirected edge `{u, v}`. Self-loops and duplicates are
    /// accepted here and dropped by `build()`.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range for {} vertices",
            self.num_vertices
        );
        self.edges.push(if u <= v { (u, v) } else { (v, u) });
        self
    }

    /// Adds all edges from an iterator (builder-style convenience).
    pub fn edges<I: IntoIterator<Item = (VertexId, VertexId)>>(mut self, iter: I) -> Self {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Finalizes the CSR graph: sorts, deduplicates, drops self-loops.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        self.edges.retain(|&(u, v)| u != v);

        let n = self.num_vertices;
        let mut degrees = vec![0usize; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; acc];
        for &(u, v) in &self.edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Edges were inserted in sorted (u, v) order, so each adjacency list
        // is already sorted: for row u the v's arrive ascending, and for row
        // v the u's arrive ascending because (u, v) pairs are lexicographic.
        Graph::from_csr(offsets, targets)
    }
}

/// Convenience: builds a graph straight from an edge slice.
pub fn graph_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
    GraphBuilder::new(n).edges(edges.iter().copied()).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 0), (2, 2), (1, 2), (1, 2), (3, 1)])
            .build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn reversed_insertion_normalized() {
        let g = GraphBuilder::new(3).edges([(2, 0), (1, 0)]).build();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn isolated_vertices_preserved() {
        let g = GraphBuilder::new(10).edges([(0, 9)]).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        GraphBuilder::new(2).edges([(0, 2)]);
    }

    #[test]
    fn graph_from_edges_helper() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn from_graph_round_trips() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let rebuilt = GraphBuilder::from_graph(&g).build();
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn from_graph_plus_delta_edges() {
        let g = graph_from_edges(4, &[(0, 1)]);
        let mut b = GraphBuilder::from_graph(&g);
        b.grow_to(6);
        b.add_edge(4, 5).add_edge(1, 4).add_edge(0, 1); // duplicate dropped
        let g2 = b.build();
        assert_eq!(g2.num_vertices(), 6);
        assert_eq!(g2.num_edges(), 3);
        assert!(g2.has_edge(0, 1) && g2.has_edge(1, 4) && g2.has_edge(4, 5));
    }

    #[test]
    #[should_panic(expected = "shrink")]
    fn grow_to_rejects_shrinking() {
        GraphBuilder::new(5).grow_to(3);
    }
}
