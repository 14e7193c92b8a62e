//! Property test for the snapshot round-trip guarantee: an engine saved
//! mid-stream and restored in a "fresh process" must continue ingesting
//! with **byte-identical** [`BatchReport`]s — remaps, arrival ids,
//! refinement outcomes and view stamps included — to the
//! uninterrupted saver, across mixed add/remove/drift batches, threads 1
//! and 4, and snapshots taken mid-churn in both pre-purge (tombstones and
//! free list pending) and post-purge (frequent compactions) regimes.
//!
//! The comparison baseline is the engine that *saved*: `save_snapshot`
//! canonicalizes the live rebalance heaps (re-keying every entry at the
//! current totals) so that the saver-that-survived and the
//! restored-from-bytes engine continue from one candidate-queue state —
//! exactly the production kill-and-resume scenario, where the alternative
//! to the restored replica is the original process having kept running
//! after its save.

use mdbgp_core::GdConfig;
use mdbgp_graph::{gen, VertexWeights};
use mdbgp_stream::{BatchReport, StreamConfig, StreamingPartitioner, UpdateBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engine(threads: usize, seed: u64, pre_purge: bool) -> StreamingPartitioner {
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
    // Pre-purge regime: churn accumulates (tombstones + free list pending
    // at snapshot time). Post-purge regime: a tiny slack forces a purging
    // compaction nearly every batch, so snapshots land just after remaps.
    cfg.compact_slack = if pre_purge { 0.9 } else { 0.02 };
    if pre_purge {
        cfg.drift_headroom = 50.0; // refinement stays off
    }
    StreamingPartitioner::bootstrap(cg.graph, w, cfg).expect("bootstrap")
}

/// One scripted mixed batch against the engine's *current* state (both
/// engines are kept bitwise identical, so scripting against either is
/// equivalent).
fn build_batch(
    sp: &StreamingPartitioner,
    rng: &mut StdRng,
    arrivals: usize,
    removals: usize,
    drifts: usize,
) -> UpdateBatch {
    let n = sp.graph().num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    let mut removed: Vec<u32> = Vec::new();
    for _ in 0..removals {
        let v = rng.gen_range(0..n);
        if sp.graph().is_live(v) && !removed.contains(&v) {
            batch.remove_vertex(v);
            removed.push(v);
        }
    }
    let alive = |v: u32, removed: &[u32]| sp.graph().is_live(v) && !removed.contains(&v);
    for _ in 0..arrivals {
        let nbrs: Vec<u32> = (0..3)
            .map(|_| rng.gen_range(0..n))
            .filter(|&u| alive(u, &removed))
            .collect();
        batch.add_vertex(vec![1.0, (nbrs.len().max(1)) as f64], nbrs);
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
    // Drift concentrated on one shard so the refinement path runs on some
    // batches (exercising the post-restore GD/rebalance determinism too).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// save → restore → ingest produces byte-identical reports vs. the
    /// uninterrupted run, at threads 1 and 4, in both churn regimes.
    #[test]
    fn save_restore_ingest_round_trips_byte_identically(
        seed in 0u64..500,
        arrivals in 10usize..160,
        removals in 4usize..20,
        drifts in 0usize..40,
        snapshot_after in 1usize..3,
        pre_purge in proptest::bool::ANY,
    ) {
        for threads in [1usize, 4] {
            // The uninterrupted engine and its eventual replacement run
            // the same stream; `survivor` also saves (to a sink) at the
            // snapshot point, because in the crash scenario the baseline
            // is the very process that produced the snapshot.
            let mut survivor = engine(threads, seed, pre_purge);
            let mut interrupted = engine(threads, seed, pre_purge);

            let mut rng_a = StdRng::seed_from_u64(seed ^ 0xF00D);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0xF00D);
            let mut survivor_reports: Vec<BatchReport> = Vec::new();
            let mut restored_reports: Vec<BatchReport> = Vec::new();

            for batch_no in 0..4usize {
                let ba = build_batch(&survivor, &mut rng_a, arrivals, removals, drifts);
                let bb = build_batch(&interrupted, &mut rng_b, arrivals, removals, drifts);
                prop_assert_eq!(&ba, &bb, "script diverged before the snapshot");
                survivor_reports.push(survivor.ingest(&ba).expect("survivor ingest"));
                restored_reports.push(interrupted.ingest(&bb).expect("interrupted ingest"));

                if batch_no + 1 == snapshot_after {
                    // "Crash": serialize, drop the process, restore fresh.
                    let mut sink = Vec::new();
                    let info_a = survivor.save_snapshot(&mut sink).expect("survivor save");
                    let mut bytes = Vec::new();
                    let info_b = interrupted.save_snapshot(&mut bytes).expect("save");
                    // Identical logical state → identical snapshot bytes:
                    // the payload holds no measurement.
                    prop_assert_eq!(info_a, info_b);
                    prop_assert_eq!(&sink, &bytes, "snapshot bytes diverged");
                    drop(interrupted);
                    interrupted =
                        StreamingPartitioner::restore(&bytes[..]).expect("restore");
                    prop_assert_eq!(
                        survivor.store().as_slice(),
                        interrupted.store().as_slice(),
                        "restored assignment diverged"
                    );
                    // Restore publishes view #0: readers attaching to the
                    // replacement see the same epoch-stamped state the
                    // survivor's readers are pinned to.
                    let sv = survivor.read_view();
                    let rv = interrupted.read_view();
                    prop_assert_eq!(sv.epoch(), rv.epoch(), "restored view epoch");
                    prop_assert_eq!(
                        sv.as_slice(),
                        rv.as_slice(),
                        "restored view assignment diverged"
                    );
                    prop_assert!(rv.verify_checksum());
                    if pre_purge {
                        prop_assert_eq!(
                            survivor.graph().free_ids(),
                            interrupted.graph().free_ids(),
                            "free list not carried verbatim"
                        );
                    }
                }
            }

            // Every post-snapshot report (and the pre-snapshot ones, which
            // ran on bitwise-identical engines) matches byte for byte —
            // including remaps and arrival ids. BatchReport equality spans
            // everything but wall-clock timings; the imbalance/locality
            // floats are compared exactly.
            for (i, (a, b)) in survivor_reports.iter().zip(&restored_reports).enumerate() {
                prop_assert_eq!(a, b, "report {} diverged after restore", i);
                prop_assert_eq!(
                    a.max_imbalance.to_bits(),
                    b.max_imbalance.to_bits(),
                    "imbalance bits diverged at report {}",
                    i
                );
            }
            prop_assert_eq!(
                survivor.store().as_slice(),
                interrupted.store().as_slice(),
                "final assignments diverged"
            );
            // Views stay in lockstep through the post-restore batches too.
            prop_assert_eq!(
                survivor.read_view().epoch(),
                interrupted.read_view().epoch(),
                "final view epochs diverged"
            );
            prop_assert_eq!(
                survivor.read_view().as_slice(),
                interrupted.read_view().as_slice(),
                "final views diverged"
            );
            prop_assert_eq!(survivor.id_epoch(), interrupted.id_epoch());
        }
    }
}
