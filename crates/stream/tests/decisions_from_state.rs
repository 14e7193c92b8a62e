//! Refinement decisions are a function of engine state alone. Neither a
//! snapshot nor a follower's promotion may change what an engine decides
//! later: the rebalance ranks its candidates from the store as it stands,
//! so an engine that saved, and a promoted follower, continue into the
//! same reports as an engine that did neither.
//!
//! The stream leans on the rebalance: a pass runs every batch, and every
//! batch spikes the weight of 40 part-0 vertices, so most passes move
//! vertices by relief rank.

use mdbgp_core::GdConfig;
use mdbgp_graph::{gen, VertexWeights};
use mdbgp_stream::{Follower, Leader, StreamConfig, StreamingPartitioner, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: std::ops::Range<u64> = 0..20;

fn engine(seed: u64) -> StreamingPartitioner {
    const EPS: f64 = 0.05;
    let cg = gen::community_graph(
        &gen::CommunityGraphConfig::social(3000),
        &mut StdRng::seed_from_u64(seed),
    );
    let w = VertexWeights::vertex_edge(&cg.graph);
    let mut cfg = StreamConfig::new(4, EPS);
    cfg.gd = GdConfig {
        iterations: 30,
        ..GdConfig::with_epsilon(EPS)
    };
    cfg.seed = seed;
    cfg.refine_every = 1;
    StreamingPartitioner::bootstrap(cg.graph, w, cfg).expect("bootstrap")
}

/// 30 arrivals with up to 3 random neighbours each, then 40 weight
/// spikes on live part-0 vertices, scripted against `sp`'s state.
fn batch(sp: &StreamingPartitioner, rng: &mut StdRng) -> UpdateBatch {
    let n = sp.graph().num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    for _ in 0..30 {
        let nbrs: Vec<u32> = (0..3)
            .map(|_| rng.gen_range(0..n))
            .filter(|&u| sp.graph().is_live(u))
            .collect();
        batch.add_vertex(vec![1.0, nbrs.len().max(1) as f64], nbrs);
    }
    let part0: Vec<u32> = (0..n)
        .filter(|&v| sp.graph().is_live(v) && sp.store().shard_of(v) == 0)
        .collect();
    for _ in 0..40 {
        let v = part0[rng.gen_range(0..part0.len())];
        batch.set_weight(v, 0, rng.gen_range(1.2..2.5));
    }
    batch
}

/// A follower promoted after 15 batches, with no rotation on the leader,
/// continues into the leader's reports for 10 more batches.
#[test]
fn a_promoted_follower_decides_as_its_leader() {
    let mut rebalance_moves = 0;
    for seed in SEEDS {
        let mut leader = Leader::new(engine(seed)).expect("leader");
        let mut follower = Follower::bootstrap(leader.snapshot_bytes()).expect("bootstrap");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEC1);
        for _ in 0..15 {
            let next = batch(leader.engine(), &mut rng);
            leader.ingest(&next).expect("leader ingest");
            follower.replay(leader.log_bytes()).expect("replay");
        }
        let mut promoted = Leader::new(follower.into_engine()).expect("promote");
        for b in 16..=25 {
            let next = batch(leader.engine(), &mut rng);
            let expected = leader.ingest(&next).expect("leader ingest");
            let got = promoted.ingest(&next).expect("promoted ingest");
            assert_eq!(expected, got, "seed {seed}: batch {b} diverged");
            rebalance_moves += got.rebalance_moves;
        }
    }
    assert!(rebalance_moves > 0, "the stream never rebalanced");
}

/// An engine that saves a snapshot after every 3rd batch reports exactly
/// what an engine that never saves reports, over 25 batches.
#[test]
fn saving_a_snapshot_changes_no_later_decision() {
    let mut rebalance_moves = 0;
    for seed in SEEDS {
        let (mut saver, mut plain) = (engine(seed), engine(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEC1);
        for b in 1..=25 {
            let next = batch(&plain, &mut rng);
            let expected = plain.ingest(&next).expect("ingest");
            let got = saver.ingest(&next).expect("saver ingest");
            assert_eq!(expected, got, "seed {seed}: batch {b} diverged");
            rebalance_moves += got.rebalance_moves;
            if b % 3 == 0 {
                saver.save_snapshot(&mut Vec::new()).expect("save");
            }
        }
    }
    assert!(rebalance_moves > 0, "the stream never rebalanced");
}
