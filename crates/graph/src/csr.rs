//! Compressed sparse row (CSR) graph representation.
//!
//! The graph is undirected and simple: every edge `{u, v}` with `u != v` is
//! stored twice (once in each endpoint's adjacency list), adjacency lists are
//! sorted, and there are no parallel edges or self-loops. All partitioning
//! algorithms in the workspace — the GD core, the baselines and the BSP
//! simulator — iterate over this structure, so it is deliberately minimal:
//! two flat arrays and O(1) neighbour slicing.

use crate::VertexId;

/// An immutable undirected simple graph in CSR form.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists; length `2 * num_edges()`.
    targets: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// # Panics
    /// Panics with the [`Self::try_from_csr`] error if the arrays are
    /// inconsistent. Use [`crate::GraphBuilder`] to construct graphs from
    /// edge lists.
    pub fn from_csr(offsets: Vec<usize>, targets: Vec<VertexId>) -> Self {
        Self::try_from_csr(offsets, targets).unwrap_or_else(|why| panic!("{why}"))
    }

    /// Builds a graph from CSR arrays, or names the first broken
    /// invariant: offsets that do not start at 0, end at the targets'
    /// length and rise monotonically; a target out of range; a self-loop;
    /// an adjacency list that is not strictly sorted (which includes a
    /// duplicate); or an edge stored in one direction only. O(n + m): the
    /// symmetry check walks one cursor per row.
    pub fn try_from_csr(offsets: Vec<usize>, targets: Vec<VertexId>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if offsets.last() != Some(&targets.len()) {
            return Err("last offset must equal targets length".into());
        }
        let n = offsets.len() - 1;
        for v in 0..n {
            // An offset past the targets must fall again before the last
            // one, which frames them: that is a monotonicity break too.
            if offsets[v] > offsets[v + 1] || offsets[v + 1] > targets.len() {
                return Err(format!("offsets must be monotone (at vertex {v})"));
            }
            let adj = &targets[offsets[v]..offsets[v + 1]];
            for (i, &t) in adj.iter().enumerate() {
                if (t as usize) >= n {
                    return Err(format!("target out of range at vertex {v}"));
                }
                if t as usize == v {
                    return Err(format!("self-loop at vertex {v}"));
                }
                if i > 0 && adj[i - 1] >= t {
                    return Err(format!("adjacency of {v} not strictly sorted"));
                }
            }
        }
        // Rows are sorted, so visiting the vertices in ascending order
        // meets the entries below `v` of `v`'s row in ascending order too:
        // `cursor[v]` is the next one an edge `{u, v}` with `u < v` must
        // find. Reaching row `v`, every entry below `v` must be matched.
        let mut cursor = offsets[..n].to_vec();
        for u in 0..n {
            let row = cursor[u]..offsets[u + 1];
            if targets[row.clone()]
                .first()
                .is_some_and(|&t| (t as usize) < u)
            {
                let v = targets[row.start];
                return Err(format!("adjacency is not symmetric at edge ({u}, {v})"));
            }
            for &v in &targets[row] {
                let v = v as usize;
                let at = cursor[v];
                if at == offsets[v + 1] || targets[at] as usize != u {
                    return Err(format!("adjacency is not symmetric at edge ({u}, {v})"));
                }
                cursor[v] += 1;
            }
        }
        Ok(Self { offsets, targets })
    }

    /// [`Self::from_csr`] without the O(n + m) invariant sweep, for
    /// constructors that produce the arrays by a structure-preserving
    /// transformation of an already-valid graph — induced-subgraph
    /// extraction, or the streaming layer's delta-merge compaction, both of
    /// which sit on hot paths where the sweep would dominate.
    /// Invariants are still checked in debug builds; callers outside this
    /// crate must uphold every [`Self::try_from_csr`] invariant themselves.
    pub fn from_csr_unchecked(offsets: Vec<usize>, targets: Vec<VertexId>) -> Self {
        #[cfg(debug_assertions)]
        {
            Self::from_csr(offsets, targets)
        }
        #[cfg(not(debug_assertions))]
        {
            Self { offsets, targets }
        }
    }

    /// Builds a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m` (each `{u, v}` counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Whether edge `{u, v}` is present (binary search, `O(log deg(u))`).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over undirected edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Mean degree `2m / n` (0.0 for an empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.targets.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Raw CSR offsets (for tight loops such as the mat-vec in `mdbgp-core`).
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw CSR targets.
    #[inline]
    pub fn raw_targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Approximate heap footprint in bytes (used by the Table 3 experiment,
    /// which reports memory alongside quality).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn triangle_basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once_ordered() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_csr_rejects_self_loop() {
        Graph::from_csr(vec![0, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    fn from_csr_rejects_duplicates() {
        Graph::from_csr(vec![0, 2, 3, 4], vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn from_csr_rejects_out_of_range() {
        Graph::from_csr(vec![0, 1, 2], vec![1, 5]);
    }

    #[test]
    fn try_from_csr_refuses_an_asymmetric_csr_by_name() {
        // 0 -> 1 and 1 -> 2, with no mirror of either.
        let err = Graph::try_from_csr(vec![0, 1, 2, 2], vec![1, 2]).unwrap_err();
        assert_eq!(err, "adjacency is not symmetric at edge (0, 1)");
        // 1 -> 0 alone: found when row 1 starts below 1, unmatched.
        let err = Graph::try_from_csr(vec![0, 0, 1], vec![0]).unwrap_err();
        assert_eq!(err, "adjacency is not symmetric at edge (1, 0)");
        // An offset past the targets that falls again is refused.
        let err = Graph::try_from_csr(vec![0, 3, 2], vec![1, 0]).unwrap_err();
        assert_eq!(err, "offsets must be monotone (at vertex 0)");
        let g = Graph::try_from_csr(vec![0, 2, 3, 4], vec![1, 2, 0, 0]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn memory_estimate_positive() {
        assert!(triangle().memory_bytes() > 0);
    }
}
