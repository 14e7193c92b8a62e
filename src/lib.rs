//! # mdbgp — Multi-Dimensional Balanced Graph Partitioning
//!
//! A from-scratch Rust reproduction of *"Multi-Dimensional Balanced Graph
//! Partitioning via Projected Gradient Descent"* (Avdiukhin, Pupyrev,
//! Yaroslavtsev — VLDB 2019).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`graph`] — CSR graphs, multi-dimensional vertex weights, generators,
//!   partitions and quality metrics ([`mdbgp_graph`]),
//! * [`core`] — the paper's `GD` algorithm: projected gradient descent on
//!   the continuous relaxation, exact/alternating/Dykstra projections,
//!   adaptive steps, vertex fixing, randomized rounding and recursive
//!   k-way partitioning ([`mdbgp_core`]),
//! * [`baselines`] — Hash, Spinner, BLP, SHP and a METIS-like multilevel
//!   multi-constraint partitioner ([`mdbgp_baselines`]),
//! * [`bsp`] — a Giraph-like vertex-centric BSP simulator with a worker
//!   cost model, used to evaluate the impact of partitioning on distributed
//!   graph processing ([`mdbgp_bsp`]),
//! * [`stream`] — online streaming ingestion and incremental partition
//!   maintenance: a delta-buffered [`mdbgp_stream::DynamicGraph`],
//!   multi-dimensional greedy placement of arriving vertices, drift
//!   telemetry, and warm-started GD refinement that absorbs update batches
//!   without a from-scratch solve ([`mdbgp_stream`]),
//! * [`obs`] — the zero-dependency metrics/tracing subsystem behind the
//!   streaming engine's instrumentation: counters, gauges, log2-bucket
//!   latency histograms, RAII span timers and a bounded event journal,
//!   with JSON and Prometheus-text exposition ([`mdbgp_obs`]).
//!
//! ## Documentation
//!
//! Two workspace-level documents complement the per-crate rustdoc:
//!
//! * `docs/ARCHITECTURE.md` — the crate map, the streaming engine's
//!   six-stage batch lifecycle, the warm-start + delta-gradient GD
//!   design, snapshot/id-epoch rules, and a paper-section → module
//!   pointer table;
//! * `docs/BENCHMARKS.md` — the perf-record format, what each CI gate
//!   checks, machine-normalization rules, and the baseline refresh
//!   procedure.
//!
//! ## Quickstart
//!
//! ```
//! use mdbgp::prelude::*;
//! use rand::SeedableRng;
//!
//! // A small community-structured graph standing in for a social network.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = CommunityGraphConfig::social(2000);
//! let cg = community_graph(&cfg, &mut rng);
//!
//! // Balance simultaneously on vertex count and degree (vertex-edge
//! // partitioning), allowing 3% imbalance.
//! let weights = VertexWeights::vertex_edge(&cg.graph);
//! let gd = GdPartitioner::new(GdConfig::with_epsilon(0.03));
//! let partition = gd.partition(&cg.graph, &weights, 2, 7).unwrap();
//!
//! let q = partition.quality(&cg.graph, &weights);
//! assert!(q.max_imbalance <= 0.03 + 1e-6);
//! assert!(q.edge_locality > 0.5);
//! ```

pub use mdbgp_baselines as baselines;
pub use mdbgp_bsp as bsp;
pub use mdbgp_core as core;
pub use mdbgp_graph as graph;
pub use mdbgp_obs as obs;
pub use mdbgp_stream as stream;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use mdbgp_baselines::{
        BlpPartitioner, HashPartitioner, MetisPartitioner, Partitioner, ShpPartitioner,
        SpinnerPartitioner,
    };
    pub use mdbgp_bsp::{
        apps::{ConnectedComponents, HypergraphClustering, MutualFriends, PageRank},
        BspEngine, CostModel, JobStats,
    };
    pub use mdbgp_core::{
        GdConfig, GdPartitioner, KWayGdPartitioner, ProjectionMethod, StepSchedule,
    };
    pub use mdbgp_graph::gen::{community_graph, CommunityGraph, CommunityGraphConfig};
    pub use mdbgp_graph::{
        Graph, GraphBuilder, Partition, PartitionQuality, VertexWeights, WeightKind,
    };
    pub use mdbgp_stream::{StreamConfig, StreamingPartitioner, UpdateBatch};
}
