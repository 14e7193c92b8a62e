//! Streaming-subsystem micro-benchmarks: batch ingestion (placement only),
//! ingestion with a forced refinement, and the from-scratch GD solve the
//! incremental path replaces.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mdbgp_bench::churn::{queue_arrivals, IdTracker};
use mdbgp_core::{GdConfig, GdPartitioner};
use mdbgp_graph::{gen, InducedSubgraph, Partitioner, VertexWeights};
use mdbgp_stream::{StreamConfig, StreamingPartitioner, UpdateBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const N: usize = 8_000;
const ARRIVALS: usize = 200;
const K: usize = 4;
const EPS: f64 = 0.05;

fn setup() -> (StreamingPartitioner, UpdateBatch) {
    let total = N + ARRIVALS;
    let cg = gen::community_graph(
        &gen::CommunityGraphConfig::social(total),
        &mut StdRng::seed_from_u64(9),
    );
    let prefix: Vec<u32> = (0..N as u32).collect();
    let boot = InducedSubgraph::extract(&cg.graph, &prefix);
    let weights = VertexWeights::vertex_edge(&boot.graph);
    let mut cfg = StreamConfig::new(K, EPS);
    cfg.gd = GdConfig {
        iterations: 60,
        ..GdConfig::with_epsilon(EPS)
    };
    let sp = StreamingPartitioner::bootstrap(boot.graph.clone(), weights, cfg).unwrap();

    let mut batch = UpdateBatch::new();
    let mut tracker = IdTracker::identity(N);
    let (from, to) = (N as u32, total as u32);
    queue_arrivals(&mut batch, &cg.graph, sp.graph(), &mut tracker, from, to);
    (sp, batch)
}

/// `StreamingPartitioner` deliberately does not implement `Clone` (it is a
/// stateful service); rebuild from the same bootstrap state instead.
fn rebuild(sp: &StreamingPartitioner) -> StreamingPartitioner {
    let graph = sp.graph().snapshot();
    let weights = sp.graph().weights().clone();
    let partition = sp.partition();
    let mut cfg = StreamConfig::new(K, EPS);
    cfg.gd = GdConfig {
        iterations: 60,
        ..GdConfig::with_epsilon(EPS)
    };
    StreamingPartitioner::from_partition(graph, weights, &partition, cfg).unwrap()
}

fn bench_stream(c: &mut Criterion) {
    let (sp0, batch) = setup();

    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ARRIVALS as u64));

    group.bench_function("ingest_batch", |b| {
        b.iter_batched(
            || rebuild(&sp0),
            |mut sp| sp.ingest(black_box(&batch)).unwrap(),
            BatchSize::LargeInput,
        )
    });

    group.bench_function("ingest_plus_refine", |b| {
        b.iter_batched(
            || rebuild(&sp0),
            |mut sp| {
                sp.ingest(black_box(&batch)).unwrap();
                sp.refine_now().unwrap()
            },
            BatchSize::LargeInput,
        )
    });

    // The offline alternative the incremental path replaces.
    let mut sp_full = rebuild(&sp0);
    sp_full.ingest(&batch).unwrap();
    let snapshot = sp_full.graph().snapshot();
    let weights = sp_full.graph().weights().clone();
    group.bench_function("scratch_gd_solve", |b| {
        b.iter(|| {
            GdPartitioner::new(GdConfig {
                iterations: 60,
                ..GdConfig::with_epsilon(EPS)
            })
            .partition(black_box(&snapshot), black_box(&weights), K, 3)
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
