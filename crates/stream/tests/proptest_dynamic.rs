//! Property tests for the streaming substrate: applying an arbitrary
//! interleaving of deltas (with compactions at arbitrary points) must be
//! indistinguishable from building the final graph in one shot.

use mdbgp_graph::builder::graph_from_edges;
use mdbgp_graph::{GraphBuilder, VertexWeights};
use mdbgp_stream::DynamicGraph;
use proptest::prelude::*;

/// Base edges plus a scripted delta: edges tagged with "compact before
/// applying this one".
type StreamScript = (Vec<(u32, u32)>, Vec<(u32, u32, bool)>);

fn script_strategy(
    base_n: u32,
    extra_n: u32,
    max_ops: usize,
) -> impl Strategy<Value = StreamScript> {
    let n = base_n + extra_n;
    (
        proptest::collection::vec((0..base_n, 0..base_n), 0..60),
        proptest::collection::vec((0..n, 0..n, proptest::bool::ANY), 0..max_ops),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deltas_plus_compaction_equal_direct_build(
        (base_edges, ops) in script_strategy(30, 10, 80),
    ) {
        let base = graph_from_edges(30, &base_edges);
        let w = VertexWeights::vertex_edge(&base);
        let mut dg = DynamicGraph::new(base.clone(), w);
        // Add the 10 streamed vertices up front so every scripted edge is
        // in range.
        for _ in 0..10 {
            dg.add_vertex(&[1.0, 1.0]);
        }

        let mut all_edges = base_edges.clone();
        for &(u, v, compact_first) in &ops {
            if compact_first {
                prop_assert!(dg.compact().is_none(), "no removals, no remap");
            }
            let inserted = dg.add_edge(u, v);
            // add_edge reports true exactly for novel non-loop edges.
            let novel = u != v && !graph_edges_contain(&all_edges, u, v);
            prop_assert_eq!(inserted, novel, "insert ({}, {})", u, v);
            all_edges.push((u, v));
        }

        let direct = GraphBuilder::new(40).edges(all_edges.iter().copied()).build();
        // Snapshot (no mutation) and compacted CSR must both equal the
        // one-shot build.
        prop_assert_eq!(&dg.snapshot(), &direct);
        prop_assert_eq!(dg.num_edges(), direct.num_edges());
        prop_assert!(dg.compact().is_none());
        prop_assert_eq!(dg.csr(), &direct);
        prop_assert_eq!(dg.delta_edge_count(), 0);
    }

    #[test]
    fn degrees_and_neighbors_match_compacted_view(
        (base_edges, ops) in script_strategy(20, 5, 40),
    ) {
        let base = graph_from_edges(20, &base_edges);
        let w = VertexWeights::unit(20);
        let mut dg = DynamicGraph::new(base, w);
        for _ in 0..5 {
            dg.add_vertex(&[1.0]);
        }
        for &(u, v, _) in &ops {
            dg.add_edge(u, v);
        }
        let csr = dg.snapshot();
        for v in 0..25u32 {
            prop_assert_eq!(dg.degree(v), csr.degree(v));
            let mut dyn_adj: Vec<u32> = dg.neighbors(v).collect();
            dyn_adj.sort_unstable();
            prop_assert_eq!(dyn_adj.as_slice(), csr.neighbors(v));
            for &u in csr.neighbors(v) {
                prop_assert!(dg.has_edge(v, u));
            }
        }
    }
}

/// Whether the undirected edge {u, v} already occurs in `edges`.
fn graph_edges_contain(edges: &[(u32, u32)], u: u32, v: u32) -> bool {
    edges
        .iter()
        .any(|&(a, b)| (a == u && b == v) || (a == v && b == u))
}
