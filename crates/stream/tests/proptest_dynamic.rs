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
        prop_assert_eq!(dg.compacted_csr(), &direct);
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

/// Full-churn script: base edges plus ops over a padded id range. The op
/// selector picks add/remove edge, add/remove vertex, or a compaction
/// checkpoint; out-of-range or dead references are skipped by the driver
/// (identically on both replicas, since their states are identical).
type ChurnScript = (Vec<(u32, u32)>, Vec<(u8, u32, u32)>);

fn churn_strategy(base_n: u32, max_id: u32, max_ops: usize) -> impl Strategy<Value = ChurnScript> {
    (
        proptest::collection::vec((0..base_n, 0..base_n), 0..50),
        proptest::collection::vec((0u8..=255, 0..max_id, 0..max_id), 0..max_ops),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The parallel substrate is bit-identical to the serial one across
    /// arbitrary churn: a threads-4 replica must match a threads-1
    /// replica — every return value, every purge remap, the compacted
    /// CSR, the restricted weights (exact float equality) and the
    /// free-list state.
    #[test]
    fn parallel_deferred_replica_matches_serial_direct(
        (base_edges, ops) in churn_strategy(24, 36, 100),
    ) {
        let base = graph_from_edges(24, &base_edges);
        let w = VertexWeights::unit(24);
        let mut serial = DynamicGraph::new(base.clone(), w.clone());
        let mut par = DynamicGraph::new(base, w);
        par.set_threads(4);

        for &(sel, a, b) in &ops {
            let op = sel % 8;
            if op >= 5 {
                // Compaction checkpoint (possibly purging): identical
                // remaps, then identical renumbered state.
                prop_assert_eq!(serial.compact(), par.compact());
                prop_assert_eq!(serial.compacted_csr(), par.compacted_csr());
                continue;
            }
            let n = serial.num_vertices() as u32;
            match op {
                0 | 1 => {
                    if a < n && b < n && a != b && serial.is_live(a) && serial.is_live(b) {
                        prop_assert_eq!(serial.add_edge(a, b), par.add_edge(a, b));
                    }
                }
                2 => {
                    if a < n && b < n && serial.is_live(a) && serial.is_live(b) {
                        prop_assert_eq!(serial.remove_edge(a, b), par.remove_edge(a, b));
                    }
                }
                3 => {
                    let row = [1.0 + (a % 4) as f64];
                    prop_assert_eq!(serial.add_vertex(&row), par.add_vertex(&row));
                }
                _ => {
                    if a < n && serial.is_live(a) {
                        prop_assert_eq!(serial.remove_vertex(a), par.remove_vertex(a));
                    }
                }
            }
        }

        prop_assert_eq!(serial.num_edges(), par.num_edges());
        prop_assert_eq!(serial.delta_edge_count(), par.delta_edge_count());
        prop_assert_eq!(serial.tombstoned_edge_count(), par.tombstoned_edge_count());
        prop_assert_eq!(serial.free_ids(), par.free_ids());
        prop_assert_eq!(&serial.snapshot(), &par.snapshot());

        // Final compaction: same remap, bit-identical CSR and weights.
        prop_assert_eq!(serial.compact(), par.compact());
        prop_assert_eq!(serial.compacted_csr(), par.compacted_csr());
        prop_assert_eq!(serial.num_tombstoned(), 0);
        let (sw, pw) = (serial.weights(), par.weights());
        prop_assert_eq!(sw.dims(), pw.dims());
        for j in 0..sw.dims() {
            prop_assert_eq!(sw.dim(j), pw.dim(j), "weight column {} diverged", j);
            prop_assert!(
                sw.total(j).to_bits() == pw.total(j).to_bits(),
                "total {} diverged: {} vs {}", j, sw.total(j), pw.total(j)
            );
        }
        prop_assert_eq!(serial.free_ids(), par.free_ids());
    }
}

/// Whether the undirected edge {u, v} already occurs in `edges`.
fn graph_edges_contain(edges: &[(u32, u32)], u: u32, v: u32) -> bool {
    edges
        .iter()
        .any(|&(a, b)| (a == u && b == v) || (a == v && b == u))
}
