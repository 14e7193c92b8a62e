//! Property tests for the threaded incremental path: running the engine
//! with worker threads must be *semantically invisible* — the pairwise
//! refinement rounds are part-disjoint and scheduled deterministically, so
//! threads ≥ 2 and threads = 1 must preserve the per-dimension ε guarantee
//! (and, since every parallel primitive is order-preserving, produce the
//! identical partition).

use mdbgp_core::GdConfig;
use mdbgp_graph::{gen, VertexWeights};
use mdbgp_stream::{StreamConfig, StreamingPartitioner, UpdateBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// from the store's live totals).
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

    #[test]
    fn parallel_and_serial_refinement_preserve_per_dimension_epsilon(
        seed in 0u64..1000,
        arrivals in 10usize..40,
        drifts in 20usize..80,
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

        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        for _ in 0..2 {
            let n = serial.graph().num_vertices() as u32;
            let mut batch = UpdateBatch::new();
            for _ in 0..arrivals {
                let nbrs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..n)).collect();
                batch.add_vertex(vec![1.0, nbrs.len() as f64], nbrs);
            }
            // Concentrate the drift on one shard so it reliably crosses the
            // trigger band and the (parallel) refinement path actually runs.
            let victims: Vec<u32> = (0..n).filter(|&v| serial.shard_of(v) == 0).collect();
            for _ in 0..drifts {
                let v = victims[rng.gen_range(0..victims.len())];
                batch.set_weight(v, 0, drift_scale);
            }
            let rs = serial.ingest(&batch).expect("serial ingest");
            let rt = threaded.ingest(&batch).expect("threaded ingest");

            // Both paths hold ε in *every* dimension after every batch.
            for (label, sp) in [("serial", &serial), ("threads=4", &threaded)] {
                for (j, imb) in per_dim_imbalance(sp).iter().enumerate() {
                    prop_assert!(
                        *imb <= EPS + 1e-9,
                        "{} violated eps in dimension {}: {}", label, j, imb
                    );
                }
            }

            // The threading model is deterministic: same moves, same
            // partition, same reported outcome.
            prop_assert_eq!(rs.refined, rt.refined);
            prop_assert_eq!(rs.refine_moves, rt.refine_moves);
            prop_assert_eq!(
                serial.partition().as_slice(),
                threaded.partition().as_slice(),
                "thread count changed the partition"
            );
        }
    }
}
