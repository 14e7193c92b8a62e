//! Online streaming: bootstrap a partition with GD, then keep it valid and
//! local while the graph grows, churns and drifts underneath it — new
//! vertices are placed greedily in O(deg), removals tombstone in O(deg)
//! and release their capacity immediately, and warm-started GD refinement
//! absorbs the churn for a small fraction of a from-scratch solve.
//!
//! Run with: `cargo run --release --example streaming_online [THREADS]`
//!
//! The optional `THREADS` argument (default 1) sizes the worker pool of
//! the incremental path — bootstrap GD mat-vec, parallel pairwise
//! refinement rounds, and the placement sweep — so the speedup is easy to
//! reproduce locally: compare `… streaming_online 1` against
//! `… streaming_online 4` on a multi-core box.
//!
//! Removal demo: each batch also retires a few users and friendships. A
//! purging compaction renumbers vertex ids and reports the old→new map in
//! `BatchReport::remap`; the example keeps an original→current table up to
//! date the same way a real router would.

use mdbgp::graph::InducedSubgraph;
use mdbgp::prelude::*;
use mdbgp::stream::TOMBSTONE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const K: usize = 8;
const EPS: f64 = 0.05;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("THREADS must be a positive integer"))
        .unwrap_or(1)
        .max(1);
    println!("worker threads: {threads}\n");

    // 1. The "full history" graph: the first 16k vertices are today's
    //    snapshot, the remaining 4k arrive over the next hours.
    let mut rng = StdRng::seed_from_u64(7);
    let total = 20_000;
    let bootstrap_n = 16_000;
    let cg = community_graph(&CommunityGraphConfig::social(total), &mut rng);
    let full = cg.graph;

    let prefix: Vec<u32> = (0..bootstrap_n as u32).collect();
    let boot = InducedSubgraph::extract(&full, &prefix);
    let weights = VertexWeights::vertex_edge(&boot.graph);

    // 2. Bootstrap: one offline GD solve on the snapshot.
    let mut cfg = StreamConfig::new(K, EPS).with_threads(threads);
    cfg.gd = GdConfig {
        iterations: 60,
        ..GdConfig::with_epsilon(EPS)
    };
    let start = Instant::now();
    let mut sp =
        StreamingPartitioner::bootstrap(boot.graph.clone(), weights, cfg).expect("bootstrap");
    println!(
        "bootstrap ({bootstrap_n} vertices) in {:.2}s: locality {:.1}%, imbalance {:.2}%\n",
        start.elapsed().as_secs_f64(),
        sp.store().edge_locality() * 100.0,
        sp.max_imbalance() * 100.0
    );

    // Original-id → current-engine-id table; purges remap engine ids, so
    // anything holding vertex ids (here: the replay itself) rewrites its
    // references from `BatchReport::remap`.
    let mut cur_id: Vec<u32> = (0..bootstrap_n as u32).collect();

    // 3. Stream the rest: each batch brings arrivals (with their edges to
    //    already-present vertices), fresh friendships, activity drift —
    //    and churn: some users and friendships leave.
    let mut arrived = bootstrap_n as u32;
    let mut batch_no = 0;
    // Stream totals, tallied from the reports: the engine's own counters
    // restart at the warm restart below.
    let (mut added, mut removed, mut refinements) = (0, 0, 0);
    while (arrived as usize) < total {
        batch_no += 1;
        let end = (arrived + 500).min(total as u32);
        let mut batch = UpdateBatch::new();
        // Under churn the engine recycles tombstoned ids (most recently
        // freed first) before growing the id space. Mirror its free list
        // so edges between same-batch arrivals resolve; the ingest report
        // confirms the actual ids below.
        let mut sim_free: Vec<u32> = sp.graph().free_ids().to_vec();
        let mut next_fresh = sp.graph().num_vertices() as u32;
        for v in arrived..end {
            let backward: Vec<u32> = full
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| u < v)
                .map(|u| cur_id[u as usize])
                .filter(|&u| u != TOMBSTONE)
                .collect();
            let degree_weight = backward.len().max(1) as f64;
            batch.add_vertex(vec![1.0, degree_weight], backward);
            cur_id.push(sim_free.pop().unwrap_or_else(|| {
                let id = next_fresh;
                next_fresh += 1;
                id
            }));
        }
        let live = |cur_id: &[u32], orig: u32| cur_id[orig as usize] != TOMBSTONE;
        for _ in 0..200 {
            let (u, v) = (rng.gen_range(0..arrived), rng.gen_range(0..arrived));
            if live(&cur_id, u) && live(&cur_id, v) {
                batch.add_edge(cur_id[u as usize], cur_id[v as usize]);
            }
        }
        for _ in 0..100 {
            let v = rng.gen_range(0..arrived);
            if live(&cur_id, v) {
                batch.set_weight(cur_id[v as usize], 0, rng.gen_range(1.0..2.5));
            }
        }
        // Churn: ~60 departures and ~60 unfriendings per batch. Vertex
        // removals go last so earlier updates still resolve.
        let mut leavers: Vec<u32> = Vec::new();
        for _ in 0..60 {
            let u = rng.gen_range(0..arrived);
            if !live(&cur_id, u) {
                continue;
            }
            let cu = cur_id[u as usize];
            let deg = sp.graph().degree(cu);
            if deg == 0 {
                continue;
            }
            let cv = sp.graph().neighbors(cu).nth(rng.gen_range(0..deg)).unwrap();
            batch.remove_edge(cu, cv);
        }
        for _ in 0..60 {
            let v = rng.gen_range(0..arrived);
            if live(&cur_id, v) && !leavers.contains(&v) {
                leavers.push(v);
            }
        }
        for &v in &leavers {
            batch.remove_vertex(cur_id[v as usize]);
            cur_id[v as usize] = TOMBSTONE;
        }
        arrived = end;

        let start = Instant::now();
        let report = sp.ingest(&batch).expect("ingest");
        added += report.vertices_added;
        removed += report.vertices_removed;
        refinements += usize::from(report.refined);
        if let Some(remap) = &report.remap {
            for slot in cur_id.iter_mut().filter(|s| **s != TOMBSTONE) {
                *slot = remap[*slot as usize];
            }
        }
        // The report's arrival_ids (already post-remap) are authoritative;
        // they must agree with the free-list prediction above.
        for (i, v) in (end - report.arrival_ids.len() as u32..end).enumerate() {
            assert_eq!(
                cur_id[v as usize], report.arrival_ids[i],
                "arrival id prediction diverged for original {v}"
            );
        }
        println!(
            "batch {batch_no}: {:5.1}ms  +{} -{} vertices  imbalance {:.2}%  locality {:.1}%{}{}",
            start.elapsed().as_secs_f64() * 1e3,
            report.vertices_added,
            report.vertices_removed,
            report.max_imbalance * 100.0,
            report.edge_locality * 100.0,
            if report.refined { "  <- refined" } else { "" },
            if report.remap.is_some() {
                "  <- ids remapped"
            } else {
                ""
            }
        );
        assert!(report.max_imbalance <= EPS + 1e-9, "ε-guarantee violated");

        // Kill-and-resume mid-stream: serialize the engine, "crash" (drop
        // it), restore a fresh instance from the bytes and keep streaming
        // on it. The snapshot preserves the id space — and its epoch — so
        // the original→current table above needs no adjustment, and every
        // later batch behaves exactly as if the process had survived.
        if batch_no == 4 {
            let t = Instant::now();
            let mut bytes = Vec::new();
            sp.save_snapshot(&mut bytes).expect("snapshot save");
            let save_ms = t.elapsed().as_secs_f64() * 1e3;
            drop(sp); // the serving process dies here...
            let t = Instant::now();
            sp = StreamingPartitioner::restore(&bytes[..]).expect("snapshot restore");
            println!(
                "  -- killed and warm-restarted from a {} byte snapshot \
                 (save {save_ms:.1}ms, restore {:.1}ms, id epoch {})",
                bytes.len(),
                t.elapsed().as_secs_f64() * 1e3,
                sp.id_epoch()
            );
        }
    }

    // 4. The serving path stays O(1) throughout; look a surviving original
    //    id up through the table.
    let survivor = (0..total as u32)
        .rev()
        .find(|&v| cur_id[v as usize] != TOMBSTONE)
        .expect("someone survived");
    println!(
        "\n{added} arrived, {removed} removed, {refinements} refinements (id epoch {}); \
         original vertex {} now lives on shard {}",
        sp.id_epoch(),
        survivor,
        sp.shard_of(cur_id[survivor as usize])
    );
}
