//! Property tests for the deletion paths: arbitrary interleavings of
//! arrivals, edge insertions/removals, vertex removals and weight drift
//! must (a) keep the per-dimension ε guarantee and exact intra/cut
//! counters after every batch, (b) be thread-count invariant, and (c)
//! leave `DynamicGraph` indistinguishable from a graph built directly from
//! the surviving edge set — including across a purging compaction and its
//! id remap.

use mdbgp_core::GdConfig;
use mdbgp_graph::{gen, GraphBuilder, VertexWeights};
use mdbgp_stream::{StreamConfig, StreamingPartitioner, UpdateBatch, TOMBSTONE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One scripted mutation over a `DynamicGraph` (vertex ids are taken
/// modulo the current id space so every op lands in range).
#[derive(Clone, Debug)]
enum Op {
    AddVertex,
    AddEdge(u32, u32),
    RemoveEdge(u32, u32),
    RemoveVertex(u32),
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is uniform; repeat AddEdge to skew the mix
    // toward insertions so graphs stay interesting under the removals.
    prop_oneof![
        Just(Op::AddVertex),
        (0u32..64, 0u32..64).prop_map(|(u, v)| Op::AddEdge(u, v)),
        (0u32..64, 0u32..64).prop_map(|(u, v)| Op::AddEdge(u, v)),
        (0u32..64, 0u32..64).prop_map(|(u, v)| Op::AddEdge(u, v)),
        (0u32..64, 0u32..64).prop_map(|(u, v)| Op::RemoveEdge(u, v)),
        (0u32..64).prop_map(Op::RemoveVertex),
        Just(Op::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (c) `compact()` after removals round-trips degrees/neighbours
    /// against a brute-force edge set maintained alongside, with the
    /// old→new map applied to the oracle at every purge.
    #[test]
    fn removals_round_trip_against_brute_force(
        base_edges in proptest::collection::vec((0u32..24, 0u32..24), 0..50),
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        let base = mdbgp_graph::builder::graph_from_edges(24, &base_edges);
        let w = VertexWeights::vertex_edge(&base);
        let mut dg = mdbgp_stream::DynamicGraph::new(base, w);

        // Oracle state in *current* ids: live flags + undirected edge set.
        let mut live: Vec<bool> = vec![true; 24];
        let mut edges: BTreeSet<(u32, u32)> = base_edges
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();

        for op in &ops {
            let n = dg.num_vertices() as u32;
            match *op {
                Op::AddVertex => {
                    // Arrivals recycle tombstoned ids (LIFO) before
                    // extending the id space.
                    let v = dg.add_vertex(&[1.0, 1.0]) as usize;
                    if v == live.len() {
                        live.push(true);
                    } else {
                        prop_assert!(!live[v], "recycled id {} was live", v);
                        live[v] = true;
                    }
                }
                Op::AddEdge(u, v) => {
                    let (u, v) = (u % n, v % n);
                    if !live[u as usize] || !live[v as usize] {
                        continue;
                    }
                    let inserted = dg.add_edge(u, v);
                    let novel = u != v && edges.insert((u.min(v), u.max(v)));
                    prop_assert_eq!(inserted, novel, "add ({}, {})", u, v);
                }
                Op::RemoveEdge(u, v) => {
                    let (u, v) = (u % n, v % n);
                    if !live[u as usize] || !live[v as usize] {
                        continue;
                    }
                    let removed = dg.remove_edge(u, v);
                    let existed = u != v && edges.remove(&(u.min(v), u.max(v)));
                    prop_assert_eq!(removed, existed, "remove ({}, {})", u, v);
                }
                Op::RemoveVertex(v) => {
                    let v = v % n;
                    if !live[v as usize] || live.iter().filter(|&&l| l).count() <= 2 {
                        continue;
                    }
                    let shed = dg.remove_vertex(v);
                    let expected: BTreeSet<u32> = edges
                        .iter()
                        .filter(|&&(a, b)| a == v || b == v)
                        .map(|&(a, b)| if a == v { b } else { a })
                        .collect();
                    prop_assert_eq!(
                        shed.iter().copied().collect::<BTreeSet<u32>>(),
                        expected
                    );
                    edges.retain(|&(a, b)| a != v && b != v);
                    live[v as usize] = false;
                }
                Op::Compact => {
                    if let Some(map) = dg.compact() {
                        // Remap the oracle exactly as instructed.
                        prop_assert!(map
                            .iter()
                            .enumerate()
                            .all(|(old, &new)| (new == TOMBSTONE) != live[old]));
                        edges = edges
                            .iter()
                            .map(|&(a, b)| {
                                let (a, b) = (map[a as usize], map[b as usize]);
                                (a.min(b), a.max(b))
                            })
                            .collect();
                        live = vec![true; live.iter().filter(|&&l| l).count()];
                    }
                }
            }
        }

        // Final check: the dynamic view, its snapshot and a one-shot build
        // of the oracle edge set agree on everything.
        let n = dg.num_vertices();
        prop_assert_eq!(dg.num_live_vertices(), live.iter().filter(|&&l| l).count());
        prop_assert_eq!(dg.num_edges(), edges.len());
        let mut builder = GraphBuilder::new(n);
        for &(a, b) in &edges {
            builder.add_edge(a, b);
        }
        let direct = builder.build();
        prop_assert_eq!(&dg.snapshot(), &direct);
        for v in 0..n as u32 {
            prop_assert_eq!(dg.degree(v), direct.degree(v), "degree of {}", v);
            let mut adj: Vec<u32> = dg.neighbors(v).collect();
            adj.sort_unstable();
            prop_assert_eq!(adj.as_slice(), direct.neighbors(v), "adjacency of {}", v);
        }
        // And a final purge agrees with its own remap.
        let live_before = dg.num_live_vertices();
        if let Some(map) = dg.compact() {
            let kept = map.iter().filter(|&&m| m != TOMBSTONE).count();
            prop_assert_eq!(kept, live_before);
        }
        prop_assert_eq!(dg.num_vertices(), live_before);
        prop_assert_eq!(dg.num_edges(), edges.len());
    }
}

fn engine(threads: usize, seed: u64, eps: f64) -> StreamingPartitioner {
    let cg = gen::community_graph(
        &gen::CommunityGraphConfig::social(300),
        &mut StdRng::seed_from_u64(seed),
    );
    let w = VertexWeights::vertex_edge(&cg.graph);
    let mut cfg = StreamConfig::new(4, eps).with_threads(threads);
    cfg.gd = GdConfig {
        iterations: 30,
        ..GdConfig::with_epsilon(eps)
    };
    cfg.seed = seed;
    StreamingPartitioner::bootstrap(cg.graph, w, cfg).expect("bootstrap")
}

/// Per-dimension imbalance of the live store (the ε guarantee is stated
/// per dimension; `max_imbalance` folds them, so recompute dimension-wise
/// from the live totals).
fn per_dim_imbalance(sp: &StreamingPartitioner) -> Vec<f64> {
    let store = sp.store();
    let k = store.num_parts();
    (0..sp.graph().weights().dims())
        .map(|j| {
            let avg = store.total(j) / k as f64;
            (0..k as u32)
                .map(|p| store.load(p, j) / avg - 1.0)
                .fold(f64::MIN, f64::max)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) + (b): mixed add/remove/drift batches hold per-dimension ε and
    /// exact locality counters after every batch, and the serial and
    /// threaded engines stay bit-identical — including the remaps they
    /// report.
    #[test]
    fn mixed_churn_batches_hold_epsilon_at_any_thread_count(
        seed in 0u64..1000,
        // Crosses SPECULATIVE_CHUNK (128): large draws exercise the
        // multi-chunk speculative placement + conflict repair, small ones
        // the single-chunk path.
        arrivals in 16usize..260,
        removals in 5usize..25,
        drifts in 10usize..60,
        drift_scale in 1.5f64..3.0,
    ) {
        const EPS: f64 = 0.05;
        let mut serial = engine(1, seed, EPS);
        let mut threaded = engine(4, seed, EPS);
        prop_assert_eq!(
            serial.partition().as_slice(),
            threaded.partition().as_slice(),
            "bootstrap must not depend on the thread count"
        );

        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        for _ in 0..3 {
            let n = serial.graph().num_vertices() as u32;
            let mut batch = UpdateBatch::new();
            // Removals first (sampled from live ids), so later updates in
            // the same batch never reference a removed vertex.
            let mut removed: Vec<u32> = Vec::new();
            for _ in 0..removals {
                let v = rng.gen_range(0..n);
                if serial.graph().is_live(v) && !removed.contains(&v) {
                    batch.remove_vertex(v);
                    removed.push(v);
                }
            }
            let alive = |v: u32, removed: &[u32]| {
                serial.graph().is_live(v) && !removed.contains(&v)
            };
            for _ in 0..arrivals {
                let nbrs: Vec<u32> = (0..3)
                    .map(|_| rng.gen_range(0..n))
                    .filter(|&u| alive(u, &removed))
                    .collect();
                batch.add_vertex(vec![1.0, (nbrs.len().max(1)) as f64], nbrs);
            }
            // Edge churn between survivors.
            for _ in 0..removals {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if alive(u, &removed) && alive(v, &removed) {
                    if rng.gen_range(0..2) == 0 {
                        batch.add_edge(u, v);
                    } else {
                        batch.remove_edge(u, v);
                    }
                }
            }
            // Drift concentrated on one shard so the trigger fires.
            let victims: Vec<u32> = (0..n)
                .filter(|&v| alive(v, &removed) && serial.shard_of(v) == 0)
                .collect();
            prop_assume!(!victims.is_empty());
            for _ in 0..drifts {
                let v = victims[rng.gen_range(0..victims.len())];
                batch.set_weight(v, 0, drift_scale);
            }

            let rs = serial.ingest(&batch).expect("serial ingest");
            let rt = threaded.ingest(&batch).expect("threaded ingest");

            // (a) ε holds in every dimension after every batch.
            for (label, sp) in [("serial", &mut serial), ("threads=4", &mut threaded)] {
                for (j, imb) in per_dim_imbalance(sp).iter().enumerate() {
                    prop_assert!(
                        *imb <= EPS + 1e-9,
                        "{} violated eps in dimension {}: {} (refined {}, rebalance {}, gd {}, full_scans {})",
                        label, j, imb, rs.refined, rs.rebalance_moves, rs.refine_moves,
                        sp.metrics().counter("stream.refine.full_scans")
                    );
                }
            }

            // The locality counters are maintained per move and never
            // recounted, so they must equal a rebuild over the live edges
            // after every batch.
            for (label, sp) in [("serial", &serial), ("threads=4", &threaded)] {
                let mut oracle = sp.store().clone();
                oracle.rebuild_edge_stats(sp.graph().snapshot().edges());
                prop_assert_eq!(
                    (sp.store().intra_edges(), sp.store().cut_edges()),
                    (oracle.intra_edges(), oracle.cut_edges()),
                    "{} intra/cut counters drifted from the live edge set", label
                );
            }

            // (b) Thread count is semantically invisible: the entire
            // report must match — counts, refinement outcome, placement
            // conflicts/repair passes, remaps and assigned arrival ids
            // (BatchReport equality ignores only the wall-clock timings).
            prop_assert_eq!(&rs, &rt, "threads 1 vs 4 diverged");
            prop_assert_eq!(
                serial.store().as_slice(),
                threaded.store().as_slice(),
                "thread count changed the assignment"
            );
        }
    }
}
