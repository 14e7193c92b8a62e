//! Property tests for the observability layer's determinism contract:
//! every metric that measures *work* (counters, the GD iteration
//! histogram, gauges over committed state) must be identical between a
//! serial and a threaded engine fed the same batches — the instrumented
//! quantities are recorded at deterministic barriers, so a divergence is
//! a real scheduling leak, not noise. Time-valued metrics (`_us`/`_ms`/
//! `_secs` suffixes), spans and the journal are measurement rather than
//! outcome; [`mdbgp_stream::MetricsRegistry::deterministic_json`] excludes
//! exactly those, and this suite pins that the remainder matches
//! byte-for-byte.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn deterministic_metrics_match_across_thread_counts(
        seed in 0u64..1000,
        arrivals in 10usize..40,
        removals in 3usize..10,
        drifts in 20usize..80,
        drift_scale in 1.5f64..3.0,
    ) {
        const EPS: f64 = 0.05;
        let mut serial = engine(1, seed, EPS);
        let mut threaded = engine(4, seed, EPS);

        // Mixed churn: arrivals, removals and shard-concentrated drift so
        // placement, tombstoning, conflict repair and the (parallel) GD
        // refinement path all leave traces in the registry.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        for round in 0..2 {
            let n = serial.graph().num_vertices() as u32;
            let mut batch = UpdateBatch::new();
            for _ in 0..arrivals {
                let nbrs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..n)).collect();
                batch.add_vertex(vec![1.0, nbrs.len() as f64], nbrs);
            }
            let mut removed = Vec::new();
            for _ in 0..removals {
                let v = rng.gen_range(0..n);
                if serial.graph().is_live(v) && !removed.contains(&v) {
                    batch.remove_vertex(v);
                    removed.push(v);
                }
            }
            let victims: Vec<u32> = (0..n)
                .filter(|&v| serial.graph().is_live(v) && !removed.contains(&v))
                .filter(|&v| {
                    // `stream.store.lookups` counts serving-path queries,
                    // so the determinism contract is "same query traffic →
                    // same count": mirror every lookup on both engines.
                    let t = threaded.shard_of(v);
                    let s = serial.shard_of(v);
                    debug_assert_eq!(s, t);
                    s == 0
                })
                .collect();
            for _ in 0..drifts {
                let v = victims[rng.gen_range(0..victims.len())];
                batch.set_weight(v, 0, drift_scale);
            }
            serial.ingest(&batch).expect("serial ingest");
            threaded.ingest(&batch).expect("threaded ingest");

            // Byte-for-byte after every batch, not just at the end —
            // divergence should name the round that introduced it.
            prop_assert_eq!(
                serial.metrics().deterministic_json(),
                threaded.metrics().deterministic_json(),
                "deterministic metric subset diverged across thread counts in round {}",
                round
            );
        }

        // Sanity: the comparison above covered real work, and the filter
        // kept the GD iteration histogram (work-valued) while the full
        // dump still carries the time-valued span histograms it excludes.
        let m = serial.metrics();
        prop_assert!(m.counter("stream.ingest.batches") >= 2);
        let det = m.deterministic_json();
        prop_assert!(det.contains("core.gd.refine_iterations") || m.counter("stream.refine.passes") == 0);
        prop_assert!(!det.contains("_us\""), "time-valued metric leaked into the deterministic dump");
    }
}
