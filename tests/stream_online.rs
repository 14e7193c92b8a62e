//! End-to-end streaming test: bootstrap on a prefix of a community graph,
//! replay the rest as an online stream, and check the ε-guarantee holds
//! after every batch while locality stays ahead of fresh Hash placement.

use mdbgp::graph::InducedSubgraph;
use mdbgp::prelude::*;
use mdbgp::stream::UpdateBatch;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 0.05;
const K: usize = 4;

#[test]
fn replayed_stream_keeps_epsilon_and_beats_hash_locality() {
    // The "full history" graph; the first `n0` vertices are the bootstrap
    // snapshot, the rest arrive online with their backward edges.
    let n = 3000;
    let n0 = 2400;
    let cg = community_graph(
        &CommunityGraphConfig::social(n),
        &mut StdRng::seed_from_u64(11),
    );
    let full = cg.graph;

    let prefix: Vec<u32> = (0..n0 as u32).collect();
    let boot = InducedSubgraph::extract(&full, &prefix);
    assert_eq!(boot.original, prefix, "prefix extraction keeps ids");
    let boot_weights = VertexWeights::vertex_edge(&boot.graph);

    let mut cfg = mdbgp::stream::StreamConfig::new(K, EPS);
    cfg.gd = GdConfig {
        iterations: 60,
        ..GdConfig::with_epsilon(EPS)
    };
    let mut sp =
        mdbgp::stream::StreamingPartitioner::bootstrap(boot.graph.clone(), boot_weights, cfg)
            .expect("bootstrap");
    assert!(sp.max_imbalance() <= EPS + 1e-9);

    // Replay the remaining vertices in batches; each arrives with its
    // edges to already-present vertices and a degree-at-arrival weight.
    let batch_size = 100;
    let mut arrived = n0 as u32;
    while (arrived as usize) < n {
        let mut batch = UpdateBatch::new();
        let end = ((arrived as usize + batch_size).min(n)) as u32;
        for v in arrived..end {
            let backward: Vec<u32> = full
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| u < v)
                .collect();
            let degree_weight = backward.len().max(1) as f64;
            batch.add_vertex(vec![1.0, degree_weight], backward);
        }
        arrived = end;
        let report = sp.ingest(&batch).expect("ingest");
        assert!(
            report.max_imbalance <= EPS + 1e-9,
            "ε violated after batch ending at {arrived}: {}",
            report.max_imbalance
        );
    }

    assert_eq!(sp.graph().num_vertices(), n);
    assert_eq!(
        sp.metrics().counter("stream.ingest.arrivals"),
        (n - n0) as u64
    );

    // The online graph must equal the full graph minus forward-only
    // artifacts: every full edge was either in the bootstrap prefix or
    // carried by the later endpoint, so the edge sets match exactly.
    assert_eq!(sp.graph().num_edges(), full.num_edges());

    // Quality: no worse than freshly hashing the final graph (the
    // locality bar any placement-aware scheme must clear), under the
    // weights the stream actually balanced.
    let online = sp.partition();
    let stream_weights = sp.graph().weights().clone();
    let hash = HashPartitioner
        .partition(&full, &stream_weights, K, 11)
        .expect("hash");
    let online_loc = online.edge_locality(&full);
    let hash_loc = hash.edge_locality(&full);
    assert!(
        online_loc >= hash_loc,
        "online locality {online_loc} must be >= hash {hash_loc}"
    );

    // Serving-path consistency: O(1) lookups agree with the snapshot.
    for v in [0u32, (n0 / 2) as u32, (n - 1) as u32] {
        assert_eq!(sp.shard_of(v), online.part_of(v));
    }
}

#[test]
fn drift_heavy_stream_stays_within_epsilon() {
    // Edge insertions plus adversarial weight drift concentrated on one
    // shard; the drift trigger must fire refinement and hold ε.
    let n = 1500;
    let cg = community_graph(
        &CommunityGraphConfig::social(n),
        &mut StdRng::seed_from_u64(23),
    );
    let weights = VertexWeights::vertex_edge(&cg.graph);
    let mut cfg = mdbgp::stream::StreamConfig::new(K, EPS);
    cfg.gd = GdConfig {
        iterations: 60,
        ..GdConfig::with_epsilon(EPS)
    };
    let mut sp = mdbgp::stream::StreamingPartitioner::bootstrap(cg.graph.clone(), weights, cfg)
        .expect("bootstrap");

    let mut rng = StdRng::seed_from_u64(5);
    use rand::Rng;
    for round in 0..4 {
        let mut batch = UpdateBatch::new();
        // Random new friendships.
        for _ in 0..50 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            batch.add_edge(u, v);
        }
        // Activity drift: one shard's vertices get hot.
        let hot = round % K as u32;
        for v in (0..n as u32).filter(|&v| sp.shard_of(v) == hot).take(150) {
            batch.set_weight(v, 0, 2.5);
        }
        let report = sp.ingest(&batch).expect("ingest");
        assert!(
            report.max_imbalance <= EPS + 1e-9,
            "round {round}: ε violated, imbalance {}",
            report.max_imbalance
        );
    }
    assert!(
        sp.metrics().counter("stream.refine.passes") >= 1,
        "drift must have triggered refinement"
    );
}
