//! Property test for the replication guarantee: a [`Follower`]
//! bootstrapped from a leader snapshot that tails the leader's batch log
//! publishes a [`ReadView`] sequence whose `(id_epoch, batch_seq)`
//! stamps and checksums are **bitwise identical** to the leader's, across
//! purging compactions (the stream is scripted to cross at least two id
//! epochs), mid-stream log rotation, and a follower that joins late from
//! a rotated segment. The whole scenario is run at `threads = 1` and
//! `threads = 4` and the two stamp streams must be identical — the
//! replication tier inherits the engine's thread-count invariance.
//!
//! The follower applies the leader's logged refinement decisions instead
//! of refining, so the scenario ends by proving its whole engine state,
//! not only its view, equals the leader's: the promoted follower and the
//! leader ingest the same batches into equal reports and stamps.

use mdbgp_core::GdConfig;
use mdbgp_graph::{gen, VertexWeights};
use mdbgp_stream::{
    Follower, Leader, MetricsRegistry, StreamConfig, StreamingPartitioner, UpdateBatch,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engine(threads: usize, seed: u64) -> StreamingPartitioner {
    const EPS: f64 = 0.05;
    let cg = gen::community_graph(
        &gen::CommunityGraphConfig::social(300),
        &mut StdRng::seed_from_u64(seed),
    );
    let w = VertexWeights::vertex_edge(&cg.graph);
    let mut cfg = StreamConfig::new(4, EPS).with_threads(threads);
    cfg.gd = GdConfig {
        iterations: 30,
        ..GdConfig::with_epsilon(EPS)
    };
    cfg.seed = seed;
    // A tiny slack forces purging compactions every few churny batches,
    // so the stream crosses id epochs — the hard case for replication
    // (followers must purge at exactly the same batches).
    cfg.compact_slack = 0.02;
    StreamingPartitioner::bootstrap(cg.graph, w, cfg).expect("bootstrap")
}

/// One scripted mixed batch against the leader's *current* state (the
/// follower is bitwise identical, so scripting against the leader is
/// scripting against both).
fn build_batch(
    sp: &StreamingPartitioner,
    rng: &mut StdRng,
    arrivals: usize,
    removals: usize,
    drifts: usize,
) -> UpdateBatch {
    let n = sp.graph().num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    let alive = |v: u32, removed: &[u32]| sp.graph().is_live(v) && !removed.contains(&v);
    // Arrivals first, removals after: tombstones created at the *end* of
    // the batch survive to the refine stage's compaction check instead
    // of being recycled by the same batch's arrivals, so the tiny
    // `compact_slack` actually forces purges.
    for _ in 0..arrivals {
        let nbrs: Vec<u32> = (0..3)
            .map(|_| rng.gen_range(0..n))
            .filter(|&u| alive(u, &[]))
            .collect();
        batch.add_vertex(vec![1.0, (nbrs.len().max(1)) as f64], nbrs);
    }
    let mut removed: Vec<u32> = Vec::new();
    for _ in 0..removals {
        let v = rng.gen_range(0..n);
        if sp.graph().is_live(v) && !removed.contains(&v) {
            batch.remove_vertex(v);
            removed.push(v);
        }
    }
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
    let victims: Vec<u32> = (0..n)
        .filter(|&v| alive(v, &removed) && sp.shard_of(v) == 0)
        .collect();
    if !victims.is_empty() {
        for _ in 0..drifts {
            let v = victims[rng.gen_range(0..victims.len())];
            batch.set_weight(v, 0, rng.gen_range(1.2..2.5));
        }
    }
    batch
}

/// Runs the full leader + tailing-follower scenario at one thread count
/// and returns the leader's per-batch stamp stream as
/// `(id_epoch, batch_seq, view_checksum)` triples.
fn run_scenario(
    threads: usize,
    seed: u64,
    arrivals: usize,
    removals: usize,
    drifts: usize,
) -> Vec<(u64, u64, u64)> {
    let mut leader = Leader::new(engine(threads, seed)).expect("leader");
    let mut follower = Follower::bootstrap(leader.snapshot_bytes()).expect("bootstrap");
    let mut late_follower: Option<Follower> = None;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF0110);
    let mut stamps = Vec::new();

    // Keep ingesting until the stream has crossed at least two id epochs
    // (i.e. two purging compactions replayed through the follower), with
    // a floor of 6 batches and a generous ceiling as a safety valve.
    let mut batch_no = 0usize;
    while batch_no < 6 || (leader.engine().id_epoch() < 2 && batch_no < 40) {
        let batch = build_batch(leader.engine(), &mut rng, arrivals, removals, drifts);
        leader.ingest(&batch).expect("leader ingest");
        batch_no += 1;

        // Tail first: each replay call applies exactly the new record.
        let applied = follower
            .replay(leader.log_bytes())
            .expect("follower replay");
        assert_eq!(applied, 1, "batch {batch_no} applied more than its record");

        // Mid-stream rotation (after the tailer caught up, as a real
        // retention policy would ensure): the tailing follower must
        // adopt the new segment seamlessly, and a second follower joins
        // late from the rotated pair alone.
        if batch_no == 3 {
            leader.rotate().expect("rotate");
            late_follower = Some(Follower::bootstrap(leader.snapshot_bytes()).expect("late"));
        }
        if let Some(lf) = late_follower.as_mut() {
            lf.replay(leader.log_bytes()).expect("late replay");
        }

        // The per-batch published views line up bitwise: stamp, checksum
        // and the assignment vector itself.
        let (lv, fv) = (leader.engine().read_view(), follower.view());
        assert_eq!(lv.epoch(), fv.epoch());
        assert_eq!(lv.checksum(), fv.checksum());
        assert_eq!(lv.as_slice(), fv.as_slice());
        if let Some(lf) = late_follower.as_ref() {
            assert_eq!(lv.epoch(), lf.view().epoch());
            assert_eq!(lv.checksum(), lf.view().checksum());
        }
        stamps.push((lv.epoch().id_epoch, lv.epoch().batch_seq, lv.checksum()));
    }
    assert!(
        leader.engine().id_epoch() >= 2,
        "stream failed to cross two purges (epoch {})",
        leader.engine().id_epoch()
    );

    // The follower applied the leader's refinement moves: the same pass
    // and move counts, without a GD solve or a heap pop.
    let refine_counts = |reg: &MetricsRegistry| -> Vec<u64> {
        ["passes", "rebalance_moves", "gd_moves"]
            .map(|c| reg.counter(&format!("stream.refine.{c}")))
            .to_vec()
    };
    let leader_counts = refine_counts(leader.metrics_mut());
    let fm = follower.metrics_mut();
    assert_eq!(refine_counts(fm), leader_counts);
    let gd: Vec<&str> = fm
        .metric_names()
        .into_iter()
        .filter(|n| n.starts_with("core.gd."))
        .collect();
    assert!(gd.is_empty(), "the follower recorded GD counters {gd:?}");
    assert_eq!(fm.counter("stream.store.heap_pops"), 0);

    // Promotion: the follower holds the leader's state, and rebalance
    // candidates are ranked from that state alone, so from here the two
    // leaders refine on their own and must agree on everything.
    let mut promoted = Leader::new(follower.into_engine()).expect("promote");
    for _ in 0..3 {
        let batch = build_batch(leader.engine(), &mut rng, arrivals, removals, drifts);
        let expected = leader.ingest(&batch).expect("leader ingest");
        let got = promoted.ingest(&batch).expect("promoted ingest");
        assert_eq!(expected, got);
        let (lv, pv) = (leader.engine().read_view(), promoted.engine().read_view());
        assert_eq!((lv.epoch(), lv.checksum()), (pv.epoch(), pv.checksum()));
        stamps.push((lv.epoch().id_epoch, lv.epoch().batch_seq, lv.checksum()));
    }
    stamps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Leader and tailing followers stay bitwise identical across ≥ 2
    /// purges and a mid-stream rotation, and the whole stamp stream is
    /// thread-count invariant (threads 1 ≡ 4).
    #[test]
    fn followers_track_leader_across_purges_and_threads(
        seed in 0u64..500,
        arrivals in 10usize..60,
        removals in 6usize..20,
        drifts in 0usize..30,
    ) {
        let serial = run_scenario(1, seed, arrivals, removals, drifts);
        let parallel = run_scenario(4, seed, arrivals, removals, drifts);
        prop_assert_eq!(serial, parallel);
    }
}
