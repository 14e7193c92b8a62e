//! Induced subgraphs with id remapping.
//!
//! Recursive bisection (paper §3.3) repeatedly partitions an induced
//! subgraph of the previous level; [`InducedSubgraph`] keeps the mapping back
//! to the original vertex ids so results can be stitched into a single k-way
//! [`crate::Partition`].

use crate::{Graph, VertexId};

/// A subgraph induced by a vertex subset, plus the id mapping.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph over the renumbered vertices `0..subset.len()`.
    pub graph: Graph,
    /// `original[i]` is the id in the parent graph of subgraph vertex `i`.
    pub original: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Extracts the subgraph of `graph` induced by `subset`.
    ///
    /// `subset` may be in any order; it is deduplicated and sorted so that
    /// subgraph ids are assigned in increasing original-id order (which keeps
    /// the whole pipeline deterministic).
    ///
    /// Runs in `O(n + Σ_{v ∈ subset} deg(v))` with no edge-list sort: the
    /// parent adjacency is sorted and the id remap preserves order, so the
    /// sub-CSR is assembled directly in two linear sweeps.
    pub fn extract(graph: &Graph, subset: &[VertexId]) -> Self {
        let mut original: Vec<VertexId> = subset.to_vec();
        original.sort_unstable();
        original.dedup();
        let n_sub = original.len();

        // Dense reverse map: parent id -> subgraph id (u32::MAX = absent).
        let mut to_sub = vec![u32::MAX; graph.num_vertices()];
        for (i, &v) in original.iter().enumerate() {
            to_sub[v as usize] = i as u32;
        }

        // Remapped adjacency in one sweep: survivors are appended and the
        // running length becomes the next offset. The parent lists are
        // strictly sorted and `to_sub` is monotone on the kept vertices,
        // so each remapped list comes out strictly sorted; the parent
        // graph being simple means no dedup or self-loop filtering is
        // needed either — the CSR invariants hold by construction.
        let mut offsets = Vec::with_capacity(n_sub + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(graph.num_edges().min(1 << 20));
        for &v in &original {
            for &u in graph.neighbors(v) {
                let su = to_sub[u as usize];
                if su != u32::MAX {
                    targets.push(su);
                }
            }
            offsets.push(targets.len());
        }
        Self {
            graph: Graph::from_csr_unchecked(offsets, targets),
            original,
        }
    }

    /// Number of vertices in the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.original.len()
    }

    /// Maps a subgraph vertex id back to the parent graph.
    #[inline]
    pub fn to_original(&self, sub_vertex: VertexId) -> VertexId {
        self.original[sub_vertex as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn path6() -> Graph {
        graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn extract_prefix() {
        let g = path6();
        let s = InducedSubgraph::extract(&g, &[0, 1, 2]);
        assert_eq!(s.num_vertices(), 3);
        assert_eq!(s.graph.num_edges(), 2);
        assert_eq!(s.to_original(2), 2);
    }

    #[test]
    fn extract_with_gap_drops_cross_edges() {
        let g = path6();
        let s = InducedSubgraph::extract(&g, &[0, 1, 4, 5]);
        assert_eq!(s.graph.num_edges(), 2, "edges (0,1) and (4,5) survive");
        assert!(s.graph.has_edge(0, 1));
        assert!(s.graph.has_edge(2, 3), "renumbered 4-5 edge");
        assert_eq!(s.to_original(2), 4);
    }

    #[test]
    fn extract_unsorted_input_normalized() {
        let g = path6();
        let s = InducedSubgraph::extract(&g, &[5, 3, 4, 3]);
        assert_eq!(s.original, vec![3, 4, 5]);
        assert_eq!(s.graph.num_edges(), 2);
    }

    #[test]
    fn extract_empty_subset() {
        let s = InducedSubgraph::extract(&path6(), &[]);
        assert_eq!(s.num_vertices(), 0);
        assert_eq!(s.graph.num_edges(), 0);
    }

    #[test]
    fn extract_whole_graph_is_identity() {
        let g = path6();
        let all: Vec<u32> = (0..6).collect();
        let s = InducedSubgraph::extract(&g, &all);
        assert_eq!(s.graph, g);
    }
}
