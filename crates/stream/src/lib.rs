//! # mdbgp-stream — online streaming ingestion + incremental partition
//! maintenance
//!
//! The paper's GD partitioner is offline: it assumes the whole graph up
//! front. The production setting it targets — social-network sharding —
//! sees a continuous stream of new vertices, edges and weight drift. This
//! crate keeps a partition valid and high-quality as the graph evolves,
//! without rerunning GD from scratch:
//!
//! * [`DynamicGraph`] — a base CSR plus delta adjacency, with one
//!   removed bit per base CSR slot and a dead mask for removals, compacted
//!   once the churn outgrows a slack, so reads stay cheap ([`dynamic`]);
//! * [`UpdateBatch`] / [`StreamUpdate`] — the stream language: vertex
//!   arrivals (with adjacency) and removals, edge insertions and
//!   deletions, weight drift ([`delta`]);
//! * [`placement`] — multi-dimensional linear-deterministic-greedy
//!   placement of arriving vertices under per-dimension `(1+ε)` capacity
//!   slabs, scored against the store plus a [`ReservationLedger`];
//! * [`StreamingPartitioner`] — the engine: the staged ingest pipeline
//!   (see *Batch lifecycle* below), the drift trigger, and **incremental
//!   refinement** — greedy multi-constraint rebalancing plus warm-started
//!   pairwise GD (`mdbgp_core::bipartition_warm` /
//!   `GdPartitioner::solve_pair`) over the churned vertices and their
//!   halo only, so a batch of updates is absorbed by a few cheap
//!   iterations whose cost follows the churn, not the graph ([`engine`],
//!   [`pipeline`]);
//! * [`PartitionStore`] — the engine's write side: per-part
//!   multi-dimensional loads, live imbalance / locality telemetry, and the
//!   **relief key** the greedy rebalance ranks its candidates by, in heaps
//!   that live for one rebalance call, so the store keeps no rebalance
//!   state ([`store`]);
//! * [`ReadView`] / [`ReadHandle`] — the serving layer: an immutable,
//!   epoch-stamped view of the assignment published atomically at every
//!   batch boundary, pinned by reader threads with one atomic probe and
//!   served lock-free, concurrently with ingest ([`store`] and the *Read
//!   path* notes below).
//!
//! ## Deletions
//!
//! Real churn workloads shrink as well as grow (the dynamic setting
//! surveyed in Buluç et al., *Recent Advances in Graph Partitioning*),
//! and the subsystem serves them first-class:
//!
//! * **Tombstoning, not rewriting.** [`StreamUpdate::RemoveEdge`] /
//!   [`StreamUpdate::RemoveVertex`] tombstone in O(deg): delta edges are
//!   dropped in place, base-CSR edges set the removed bits of their two
//!   slots, and a removed vertex — after shedding its edges — reads as
//!   isolated while keeping its id. See the [`dynamic`] module docs for
//!   the full lifecycle.
//! * **Capacity releases immediately.** [`PartitionStore::release_vertex`]
//!   subtracts the vertex from its part's loads *and* from the store's
//!   live per-dimension totals, so imbalance/headroom telemetry, the
//!   LDG placement slabs and the refinement trigger all see the departure
//!   at once — `shard_of` answers [`TOMBSTONE`] for the released id. The
//!   drift trigger therefore works in **both directions**: load leaving an
//!   overloaded part relaxes the pressure, while draining one part shrinks
//!   the average and surfaces every other part's relative overload.
//! * **Purges remap ids.** When churn outgrows
//!   [`StreamConfig::compact_slack`] (or on an explicit
//!   [`StreamingPartitioner::purge`]), the compaction drops tombstoned
//!   edges and vertices and renumbers the survivors; the old→new map is surfaced in [`BatchReport::remap`]
//!   ([`TOMBSTONE`] marks dropped ids) and anything holding vertex ids
//!   must rewrite them. Between purges ids are stable.
//!
//! Duplicate-proof edge accounting rides along: stats only move when the
//! graph reports an actual insertion/removal, so re-reported edges and
//! remove/re-add cycles cannot drift the locality counters.
//!
//! ## Batch lifecycle
//!
//! [`StreamingPartitioner::ingest`] runs every batch through six named
//! stages, each timed by an RAII span; the tree lands in
//! [`BatchReport::spans`] and the registry's `spans` section totals it by
//! dotted path (`ingest.place`, `ingest.refine.gd.pairs`, …):
//!
//! 1. **validate** — the whole batch is checked up front, including a
//!    simulation of the vertex ids the batch itself will create or recycle,
//!    so ingestion is all-or-nothing: an `Err` leaves the engine untouched.
//! 2. **split** — updates apply serially to the [`DynamicGraph`] in
//!    order (edges, removals, weight drift; arrivals get their ids and
//!    adjacency), but arrivals are *not* placed yet. Arrival ids come off
//!    the free list of tombstoned slots first (LIFO) — under churn the id
//!    space stays bounded between purges, and callers read the assigned
//!    ids from [`BatchReport::arrival_ids`] instead of predicting them.
//! 3. **speculative placement** — arrivals are placed in fixed-size chunks,
//!    concurrently on [`StreamConfig::threads`] workers, against the
//!    store's per-(part, dimension) loads, which nothing writes until
//!    commit; each chunk reserves capacity locally and sees the affinity
//!    of its own earlier arrivals.
//!    Chunk boundaries never depend on the thread count, so the decisions
//!    don't either.
//! 4. **conflict repair** — chunk reservations merge; any (part, dimension)
//!    slot the chunks oversubscribed is repaired by evicting the losers in
//!    **stable arrival order** (earliest arrivals keep their slots) and
//!    re-placing them sequentially with full knowledge. `threads = 1` and
//!    `threads = N` therefore produce byte-identical partitions *by
//!    construction*. Evictions and passes are surfaced as
//!    [`BatchReport::placement_conflicts`] / [`BatchReport::repair_passes`]
//!    and in the `stream.place.*` counters of the metrics registry.
//! 5. **commit** — assignments land serially in the [`PartitionStore`]
//!    and the edge accounting deferred by the split stage settles against
//!    the final parts.
//! 6. **refine** — compaction (its own `compact` span) only when churn
//!    outgrew the slack, the drift check, and (when triggered) a
//!    rebalance plus warm-started pairwise GD. The refinement pass never
//!    compacts: it reads the graph through the overlay, skips tombstoned
//!    ids, and does work in proportion to
//!    the *active set* — the dirty vertices plus their 1-hop halo. The
//!    active set's adjacency is read once, into a gather
//!    ([`mdbgp_core::ActiveAdjacency`]) that the pairs are ranked from and
//!    every pair problem is built from; each pair solves over its active
//!    members with the rest of the pair eliminated (constant gradient
//!    bias + fixed slab mass), and every move updates the intra/cut
//!    counters as it happens, so no pass sweeps the whole graph.
//!
//! The speculative stage trades a little placement information for
//! parallelism — an arrival cannot see the in-flight decisions of *other*
//! chunks — which is the standard speculate-and-repair design for
//! streaming greedy placement; the ε-guarantee is unaffected (capacity is
//! enforced by repair, and overflow falls back exactly like serial LDG,
//! where the refinement stage restores feasibility).
//!
//! ## Warm restart
//!
//! A serving replica must not replay the whole stream after a restart.
//! [`StreamingPartitioner::save_snapshot`] serializes the engine's full
//! state to any `io::Write` in a versioned, self-describing, checksummed
//! binary format, and [`StreamingPartitioner::restore`] rebuilds an
//! engine that continues ingesting with **byte-identical**
//! [`BatchReport`]s to the process that saved (property-tested across
//! mixed churn batches and thread counts). The format and its guarantees
//! live in [`snapshot`]; the short version:
//!
//! | piece | serialized verbatim | rebuilt on load |
//! |---|---|---|
//! | [`DynamicGraph`] | base CSR, its removed-slot bits, delta, **free list**, weight rows + live totals | edge counts, dead mask |
//! | [`PartitionStore`] | assignments, per-(part, dim) loads, live totals | part sizes, intra/cut edge counters (one recount) |
//! | engine | [`StreamConfig`], dirty set, `batch_seq`, refinement seed/schedule | — |
//!
//! Floats are serialized bit-exactly (the live accounting is maintained
//! incrementally; re-deriving it would diverge from the saver), and saving
//! changes no engine state, so saver and restorer continue alike. The
//! header records an **id epoch** — the number of purging compactions the
//! id space has gone through — so a restorer holding old ids can refuse a
//! snapshot from a different epoch
//! ([`StreamingPartitioner::restore_expecting`], [`SnapshotExpectation`]);
//! truncated, corrupted, version-skewed or shape-mismatched snapshots each
//! fail with a named [`SnapshotError`] variant and construct nothing.
//! Snapshots may be taken mid-churn: tombstoned-but-unpurged vertices,
//! their capacity releases and the pending free list are carried verbatim,
//! so id recycling after restore matches the uninterrupted run exactly.
//!
//! ## Replication
//!
//! Warm restart plus deterministic ingestion compose into a replicated
//! serving tier: a [`Leader`] ships a snapshot and appends one framed,
//! checksummed record per batch to a rotating log ([`wire`]), and any
//! number of [`Follower`]s bootstrap from the snapshot and replay the
//! tail through their *own* ingest pipelines, publishing one
//! [`ReadView`] per applied batch. Refinement is the one stage a follower
//! does not recompute: each record carries the leader's refinement
//! decision ([`RefinePass`]), and the follower applies its moves. Each
//! record also carries the leader's
//! post-batch `(id_epoch, batch_seq)` stamp and view checksum, and the
//! follower compares its own published view against both after every
//! record — a replica cannot drift silently for even one batch
//! ([`replica`] walks the protocol; `stream_online --followers 2` and its
//! CI leg hold a leader + 2 followers bitwise identical across purges).
//!
//! ## Threading model
//!
//! [`StreamConfig::threads`] sizes one logical worker pool; `threads = 1`
//! (the default) is fully serial. Parallelism is **scoped and
//! deterministic** — every parallel section spawns `std::thread::scope`
//! workers over disjoint data (no shared mutable state, no locks on the
//! serving path) via [`mdbgp_core::parallel`], and every reduction is
//! order-preserving, so the partition produced is bitwise identical for
//! any thread count (property-tested in `proptest_refine_parallel`).
//! Three sections engage the pool:
//!
//! 1. **GD mat-vec** — bootstrap gradient iterations split CSR rows into
//!    equal-edge-count chunks ([`mdbgp_core::matvec::matvec_parallel`]);
//! 2. **pairwise refinement rounds** — the gather of the active set's
//!    adjacency (with its cut-edge counts) splits over disjoint ranges of
//!    the active set whose rows concatenate in range order, the ranked
//!    part pairs are scheduled into rounds of part-disjoint pairs
//!    (`GdPartitioner::plan_disjoint_rounds`, a maximal matching per
//!    round), each round's pair problems are built and solved
//!    concurrently from state no other pair of the round writes, and the
//!    accepted moves are applied at the round barrier in round order;
//! 3. **speculative placement** — fixed-size chunks of a batch's arrivals
//!    are placed concurrently against the store's loads with
//!    chunk-local capacity reservations (see *Batch lifecycle*); large
//!    conflict-repair loser sets are re-placed the same way.
//!
//! Split, commit and compaction are serial at every thread count: each
//! update splices a few sorted adjacency lists or adds a weight row to
//! `d` loads, and staging those edits for a parallel flush cost more than
//! it saved; a compaction is a few ms of data movement (3.7–3.9 ms of a
//! 52 ms incremental run on CI's placement leg, on a 2-vCPU host), and
//! splitting it over scoped threads did not make it faster there.
//!
//! The serving path is structurally outside the pool: reader threads hold
//! [`ReadHandle`]s onto immutable published [`ReadView`]s and answer
//! lookups lock-free **while** any of the sections above run — the only
//! synchronization is one atomic sequence probe per lookup loop (and a
//! short re-pin lock once per publish); a lookup itself writes nothing
//! shared. See *Read path & epoch publication* in `docs/ARCHITECTURE.md`.
//!
//! ## Observability
//!
//! Every engine owns an [`mdbgp_obs::MetricsRegistry`]
//! ([`StreamingPartitioner::metrics`]) that the whole stack records into.
//! It is the engine's one counter store: no other lifetime tally of
//! batches, moves or placements exists beside it.
//!
//! * **Naming scheme** — metric names are dotted
//!   `subsystem.stage.metric` paths: `stream.ingest.batches`,
//!   `stream.place.conflicts`, `core.gd.refine_iterations`,
//!   `stream.store.lookups`. The complete set the engine can emit is the
//!   [`engine::METRIC_ALLOWLIST`] — CI schema-validates metric dumps
//!   against it, so a typo'd name fails the build instead of silently
//!   forking a new time series. Latency histograms derived from spans are
//!   auto-named `span.<dotted.path>_us` (e.g. `span.ingest.place_us`).
//! * **Histograms** use fixed log2 buckets — bucket 0 holds the value 0,
//!   bucket *i* the range `[2^(i-1), 2^i − 1]` — with p50/p90/p99
//!   summaries clamped to the exact observed max, so quantiles are
//!   monotone by construction (see the [`mdbgp_obs`] crate docs).
//! * **Spans** — ingest opens a `"ingest"` root span with one child per
//!   pipeline stage; the refinement pass nests `rebalance` and `gd` under
//!   `"refine"`, and `gd` splits into `gather` (marking the active set,
//!   gathering its adjacency and ranking the pairs) and `pairs` (building
//!   and solving the pair problems), whose children are the kernels of
//!   the solves (`build`, `matvec`, `delta`, `project`, `fix`,
//!   `final_project`, `round`, `repair`, `judge`). Per-batch trees roll
//!   up into cumulative per-path totals and latency histograms on
//!   absorption.
//! * **Journal** — structured events (`compact.purge`, `refine.pass`,
//!   `refine.drift_trigger`, `place.repair`, `rebalance.full_scan`,
//!   `snapshot.save` / `snapshot.restore`) in a bounded ring of
//!   [`mdbgp_obs::JOURNAL_CAPACITY`] entries with monotonic sequence
//!   numbers; once full the oldest events drop and the dump reports how
//!   many.
//! * **Determinism** — [`engine::METRIC_ALLOWLIST`] marks each name
//!   deterministic or not. The deterministic ones are data-valued and
//!   identical for `threads = 1` vs `threads = N` and across reruns on the
//!   same stream ([`mdbgp_obs::MetricsRegistry::deterministic_json`]
//!   renders exactly that subset; property-tested in `proptest_metrics`).
//!   Wall-clocks are not, and neither are `stream.store.lookups` and
//!   `stream.store.lookup_ns`, which count and time whatever concurrent
//!   reader threads got in.
//! * **Cost** — recording is a few map updates per batch, never per
//!   vertex on a hot loop; a reader handle writes nothing shared per
//!   lookup (below). The registry is **not** serialized into snapshots:
//!   counters restart from zero at a restore and the restored engine
//!   journals a `snapshot.restore` event, so dumps are self-describing
//!   about the reset.
//!
//! The serving read path reports through the same registry. A reader
//! handle counts its own lookups and times one in
//! [`LOOKUP_SAMPLE_EVERY`] in ns into a histogram of its own; it folds
//! both into the store's `stream.store.lookups` counter and
//! `stream.store.lookup_ns` histogram when a refresh moves its pin and
//! when it drops, and the engine mirrors them into the registry at sync
//! points. `stream.store.stale_epoch_reads` is counted as it happens
//! (only a read across an unadopted epoch pays for it), and
//! `stream.store.view_swaps` counts view publications.
//! `stream_online --readers 4` gates `lookup_p99_us` against a committed
//! baseline in CI (see `docs/BENCHMARKS.md`).
//!
//! ## Further reading
//!
//! `docs/ARCHITECTURE.md` at the workspace root walks the whole stack —
//! the crate map, this engine's six-stage batch lifecycle, the
//! warm-start + delta-gradient GD design behind the refine stage, and
//! the snapshot/id-epoch rules — and `docs/BENCHMARKS.md` specifies the
//! perf-record format and the CI gates that hold the refine hot path to
//! its committed baselines.
//!
//! ## Quickstart
//!
//! ```
//! use mdbgp_stream::{StreamConfig, StreamingPartitioner, UpdateBatch};
//! use mdbgp_graph::gen::{community_graph, CommunityGraphConfig};
//! use mdbgp_graph::VertexWeights;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Bootstrap on the current graph...
//! let cg = community_graph(
//!     &CommunityGraphConfig::social(1000),
//!     &mut StdRng::seed_from_u64(1),
//! );
//! let weights = VertexWeights::vertex_edge(&cg.graph);
//! let mut sp = StreamingPartitioner::bootstrap(
//!     cg.graph,
//!     weights,
//!     StreamConfig::new(4, 0.05),
//! )
//! .unwrap();
//!
//! // ...then absorb updates online — including churn.
//! let mut batch = UpdateBatch::new();
//! batch.add_vertex(vec![1.0, 2.0], vec![3, 17]); // arrives with 2 edges
//! batch.add_edge(5, 900);
//! batch.remove_edge(3, 17); // unfriended (no-op if never friends)
//! batch.remove_vertex(42); // account deleted
//! let report = sp.ingest(&batch).unwrap();
//! assert!(report.max_imbalance <= 0.05 + 1e-9);
//! // Arrival ids are reported, not predicted: under churn the engine
//! // recycles purged slots, and a purge may renumber ids mid-ingest —
//! // `arrival_ids` is already expressed in the final id space.
//! let arrival = report.arrival_ids[0];
//! assert!(sp.shard_of(arrival) < 4); // O(1) lookup for the new vertex
//! // Anything holding older vertex ids rewrites them through the remap a
//! // purging compaction reports (ids are stable when `remap` is None).
//! match &report.remap {
//!     None => assert_eq!(sp.shard_of(42), mdbgp_stream::TOMBSTONE),
//!     Some(m) => assert_eq!(m[42], mdbgp_stream::TOMBSTONE), // purged
//! }
//! ```

pub mod delta;
pub mod dynamic;
pub mod engine;
pub mod pipeline;
pub mod placement;
pub mod replica;
pub mod snapshot;
pub mod store;
pub mod wire;

#[cfg(test)]
mod decoder_fuzz;

/// Sentinel id for a vertex that no longer exists: the shard reported by
/// [`PartitionStore::shard_of`] for a released vertex, and the slot value
/// in the old→new id map returned by [`DynamicGraph::compact`] for a
/// vertex that was dropped. Never a valid part or vertex id.
pub const TOMBSTONE: u32 = u32::MAX;

pub use delta::{RefinePass, StreamUpdate, UpdateBatch};
pub use dynamic::DynamicGraph;
pub use engine::{BatchReport, StreamConfig, StreamingPartitioner, METRIC_ALLOWLIST};
pub use mdbgp_obs::{
    validate_dump, DumpStats, HistogramSummary, JournalEvent, MetricsRegistry, SpanNode,
};
pub use pipeline::SPECULATIVE_CHUNK;
pub use placement::{ReservationLedger, ReservedView};
pub use replica::{Follower, Leader, ReplicaError};
pub use snapshot::{SnapshotError, SnapshotExpectation, SnapshotInfo};
pub use store::{PartitionStore, ReadHandle, ReadView, ViewEpoch, LOOKUP_SAMPLE_EVERY};
pub use wire::{LogHeader, LogRecord, WireError};
