//! [`StreamingPartitioner`]: the staged ingest pipeline
//! `validate → split → speculative placement → conflict repair → commit →
//! refine`.
//!
//! The engine owns the [`DynamicGraph`], the serving-side
//! [`PartitionStore`], and the refinement machinery. Per batch it
//!
//! 1. **validates** the whole batch against the current state (plus a
//!    simulation of the ids the batch itself will create or recycle), so
//!    ingestion is all-or-nothing;
//! 2. **splits** the batch: updates apply to the graph in order —
//!    tombstoning removed edges/vertices, releasing their capacity — but
//!    arrivals are only collected, not placed
//!    (`pipeline::SplitOutcome`); the stage is serial and mutates the
//!    graph directly;
//! 3. **places speculatively**: fixed-size chunks of arrivals are scored
//!    concurrently on the worker pool against the store's loads, which
//!    nothing writes until commit, each chunk holding its own capacity
//!    reservations (`pipeline::speculative_place`);
//! 4. **repairs conflicts**: oversubscribed `(part, dimension)` slots are
//!    detected after merging the chunk reservations, and the losers are
//!    re-placed in stable arrival order (`pipeline::conflict_repair`) —
//!    large loser sets through bounded speculative repair rounds of
//!    concurrent arrival-order chunks, small remainders serially — so
//!    `threads = 1` and `threads = N` produce byte-identical partitions
//!    by construction;
//! 5. **commits** the assignments into the store, serially and in
//!    arrival order, and settles the deferred edge accounting;
//! 6. compacts once the churn outgrows the base CSR (a purge remaps ids;
//!    the map is surfaced in [`BatchReport::remap`]), checks the drift
//!    trigger, and — when ε is threatened or a scheduled interval
//!    elapses — runs **incremental refinement**: a greedy multi-constraint
//!    rebalance (restores ε-feasibility, in the spirit of Maas-style
//!    greedy repartitioning) followed by warm-started pairwise GD
//!    ([`GdPartitioner::solve_pair`]) that re-optimizes locality around
//!    the churn: only the active set — the dirty vertices plus their
//!    1-hop halo — moves, and each pair solves over its active members
//!    alone. The pass never compacts, and costs time in proportion to the
//!    active set and its adjacency. A batch read back from a replication
//!    log carries the leader's pass instead, and its moves are applied
//!    without running one ([`StreamingPartitioner::ingest`]).
//!
//! Per-stage wall-clocks are reported as a span tree in
//! [`BatchReport::spans`] and totalled by dotted path in the engine's
//! [`MetricsRegistry`]; a compaction is its own `compact` span, under
//! `refine` in ingest and a root of its own on
//! [`StreamingPartitioner::purge`]. Placement conflicts and repair passes
//! land in both the report and the registry, the one store of the
//! engine's counters. The
//! registry is not part of a snapshot: a restored engine's counters start
//! from zero.
//!
//! The drift trigger reads the **live** totals of the store, so removals
//! register in both directions: weight leaving an overloaded part relaxes
//! the pressure (no spurious refinement), while draining one part shrinks
//! the per-part average and surfaces every other part's relative overload
//! (refinement fires even though no load was added anywhere).
//!
//! The result is that a batch of updates costs a parallel placement sweep
//! plus a few cheap GD iterations over the affected pairs, instead of a
//! full from-scratch solve.

use crate::delta::{RefinePass, StreamUpdate, UpdateBatch};
use crate::dynamic::DynamicGraph;
use crate::pipeline::{
    conflict_repair, speculative_place, DeferredEffect, PendingArrival, SplitOutcome,
};
use crate::store::PartitionStore;
use crate::TOMBSTONE;
use mdbgp_core::{
    parallel, ActiveAdjacency, GdConfig, GdPartitioner, GdWorkspace, Kernel, KernelTimes,
    PairOutcome, PairProblem, PairRound,
};
use mdbgp_graph::{Graph, Partition, PartitionError, Partitioner, VertexId, VertexWeights};
use mdbgp_obs::{MetricsRegistry, SpanNode, SpanTree};
use std::collections::BinaryHeap;
use std::time::Instant;

/// Every metric name the engine records, each with whether its value is
/// deterministic — a function of the batches alone, identical across
/// thread counts and reruns. It is the registry allowlist that
/// [`mdbgp_obs::validate_dump`] checks dumps against, so a typo'd name
/// fails CI instead of silently forking a new time series, and
/// [`mdbgp_obs::MetricsRegistry::deterministic_json`] keeps exactly the
/// names marked `true`. Wall-clocks are not deterministic, and neither
/// are `stream.store.lookups` and `stream.store.lookup_ns`, which count
/// and time whatever concurrent readers got in. Span-derived
/// `span.<path>_us` histograms are validated structurally (against the
/// dump's own span section) and are not listed here. Keep sorted.
pub const METRIC_ALLOWLIST: &[(&str, bool)] = &[
    ("core.gd.frontier_mean", true),
    ("core.gd.grad_delta_iters", true),
    ("core.gd.grad_full_recomputes", true),
    ("core.gd.grad_norm_decay_pct", true),
    ("core.gd.last_grad_norm_first", true),
    ("core.gd.last_grad_norm_last", true),
    ("core.gd.pairs_applied", true),
    ("core.gd.pairs_degenerate", true),
    ("core.gd.pairs_rejected_balance", true),
    ("core.gd.pairs_rejected_cut", true),
    ("core.gd.pairs_unreachable", true),
    ("core.gd.refine_iterations", true),
    ("core.gd.solve_vertices", true),
    ("stream.balance.edge_locality", true),
    ("stream.balance.max_imbalance", true),
    ("stream.compact.merges", true),
    ("stream.compact.parallel_ms", false),
    ("stream.compact.purges", true),
    ("stream.ingest.arrivals", true),
    ("stream.ingest.batches", true),
    ("stream.ingest.edges_added", true),
    ("stream.ingest.edges_removed", true),
    ("stream.ingest.removals", true),
    ("stream.ingest.weight_updates", true),
    ("stream.log.bytes", true),
    ("stream.log.records", true),
    ("stream.log.rotations", true),
    ("stream.place.conflicts", true),
    ("stream.place.repair_passes", true),
    ("stream.refine.active_edges", true),
    ("stream.refine.active_vertices", true),
    ("stream.refine.drift_triggers", true),
    ("stream.refine.full_scans", true),
    ("stream.refine.gd_moves", true),
    ("stream.refine.passes", true),
    ("stream.refine.rebalance_moves", true),
    ("stream.refine.schedule_triggers", true),
    ("stream.repair.spec_rounds", true),
    ("stream.replica.batches_replayed", true),
    ("stream.snapshot.prefix_reuses", true),
    ("stream.snapshot.restores", true),
    ("stream.snapshot.saves", true),
    ("stream.store.heap_pops", true),
    ("stream.store.live_vertices", true),
    ("stream.store.lookup_ns", false),
    ("stream.store.lookups", false),
    ("stream.store.stale_epoch_reads", true),
    ("stream.store.view_swaps", true),
];

/// GD iterations per warm-started pair refinement — the paper uses 100
/// for a cold solve; a warm start needs far fewer.
const REFINE_ITERATIONS: usize = 15;

/// Maximum part pairs re-bisected per refinement pass.
const MAX_REFINE_PAIRS: usize = 4;

/// Configuration of the streaming subsystem.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Number of shards `k`.
    pub k: usize,
    /// Balance tolerance ε maintained across every weight dimension.
    pub epsilon: f64,
    /// GD configuration template (bootstrap and refinement inherit
    /// everything except `epsilon` and, for refinement, `iterations`).
    pub gd: GdConfig,
    /// Compact the delta once it exceeds this fraction of base edges.
    pub compact_slack: f64,
    /// Refine every this many batches even without drift (0 = drift-only).
    pub refine_every: usize,
    /// Drift trigger: refine when `max_imbalance > drift_headroom · ε`.
    pub drift_headroom: f64,
    /// Seed for bootstrap and refinement (incremented per refinement).
    pub seed: u64,
    /// Worker threads for the parallel paths (1 = fully serial): the
    /// bootstrap/refinement GD mat-vec, speculative placement and its
    /// repair rounds, the refinement gather and the pairwise refinement
    /// rounds (part-disjoint pairs run concurrently). Split, commit and
    /// compaction are serial at every count. Overrides
    /// [`GdConfig::threads`] on the embedded GD configuration, and is
    /// bounded by the same [`GdConfig::MAX_THREADS`].
    pub threads: usize,
}

impl StreamConfig {
    /// Defaults tuned for social-graph streams: drift-triggered refinement
    /// with 15 warm GD iterations over at most 4 pairs.
    pub fn new(k: usize, epsilon: f64) -> Self {
        Self {
            k,
            epsilon,
            gd: GdConfig::with_epsilon(epsilon),
            compact_slack: 0.15,
            refine_every: 0,
            drift_headroom: 0.9,
            seed: 42,
            threads: 1,
        }
    }

    /// Sets the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Checks the ranges every stage relies on, the embedded
    /// [`GdConfig`]'s included ([`GdConfig::validate`]), so a restore
    /// refuses a configuration that would hang a refinement pass or start
    /// an absurd number of threads.
    fn validate(&self) -> Result<(), PartitionError> {
        if self.k == 0 {
            return Err(PartitionError::Config("k must be positive".into()));
        }
        if !(1..=GdConfig::MAX_THREADS).contains(&self.threads) {
            return Err(PartitionError::Config(format!(
                "threads must be in 1..={}, got {}",
                GdConfig::MAX_THREADS,
                self.threads
            )));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(PartitionError::Config(format!(
                "epsilon must be in (0, 1), got {}",
                self.epsilon
            )));
        }
        self.gd
            .validate()
            .map_err(|e| PartitionError::Config(format!("gd: {e}")))
    }
}

/// Per-batch outcome returned by [`StreamingPartitioner::ingest`].
///
/// Equality **intentionally ignores** [`Self::spans`]: wall-clocks are
/// measurement, never reproducible, while everything else is outcome — so
/// tests can assert that two engines — e.g. `threads = 1` vs
/// `threads = 4` — produced semantically identical batches. A unit test
/// (`batch_report_equality_ignores_spans`) pins this contract.
#[derive(Clone, Debug)]
pub struct BatchReport {
    pub vertices_added: usize,
    pub vertices_removed: usize,
    pub edges_added: usize,
    pub edges_removed: usize,
    pub weight_updates: usize,
    /// Whether a refinement pass ran after this batch.
    pub refined: bool,
    pub rebalance_moves: usize,
    pub refine_moves: usize,
    /// Speculative placements the conflict-repair stage evicted and
    /// re-placed this batch.
    pub placement_conflicts: usize,
    /// Repair passes this batch (0 = the speculative placement was
    /// conflict-free).
    pub repair_passes: usize,
    /// How many of those passes re-placed their losers speculatively
    /// (concurrent arrival-order chunks) instead of serially. Determined
    /// entirely by the batch (loser-set sizes against
    /// [`crate::pipeline::REPAIR_SERIAL_THRESHOLD`]), never by the thread
    /// count.
    pub repair_spec_rounds: usize,
    /// Post-batch (post-refinement) imbalance.
    pub max_imbalance: f64,
    /// Post-batch (post-refinement) edge locality.
    pub edge_locality: f64,
    /// The refinement pass that ran after this batch, move by move (`None`
    /// when none ran). A replication leader logs it with the batch, and
    /// its followers apply the moves instead of re-running the pass
    /// ([`crate::replica`]).
    pub refine_pass: Option<RefinePass>,
    /// Old→new vertex-id map if a compaction purged tombstoned vertices
    /// during this batch (`remap[old]` is the new id, [`crate::TOMBSTONE`]
    /// for dropped ids). Callers holding vertex ids **must** rewrite them;
    /// ids are stable whenever this is `None`. Two purges in one batch
    /// arrive pre-composed into a single map.
    pub remap: Option<Vec<VertexId>>,
    /// The engine id of every `AddVertex` in this batch, in batch order,
    /// already expressed in the **final** id space of this report (i.e.
    /// post-[`Self::remap`]); [`crate::TOMBSTONE`] for an arrival the same
    /// batch removed again. Under churn ids are **recycled** from purged
    /// slots, so callers must read the assigned ids from here instead of
    /// predicting `previous id-space size + offset`.
    pub arrival_ids: Vec<VertexId>,
    /// Span tree of this ingest (excluded from equality): the root
    /// `"ingest"` node with one child per pipeline stage and the
    /// refinement sub-spans nested under `"refine"`.
    pub spans: SpanNode,
}

impl PartialEq for BatchReport {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `spans`, which is measurement, not outcome.
        self.vertices_added == other.vertices_added
            && self.vertices_removed == other.vertices_removed
            && self.edges_added == other.edges_added
            && self.edges_removed == other.edges_removed
            && self.weight_updates == other.weight_updates
            && self.refined == other.refined
            && self.rebalance_moves == other.rebalance_moves
            && self.refine_moves == other.refine_moves
            && self.refine_pass == other.refine_pass
            && self.placement_conflicts == other.placement_conflicts
            && self.repair_passes == other.repair_passes
            && self.repair_spec_rounds == other.repair_spec_rounds
            && self.max_imbalance == other.max_imbalance
            && self.edge_locality == other.edge_locality
            && self.remap == other.remap
            && self.arrival_ids == other.arrival_ids
    }
}

impl std::fmt::Debug for StreamingPartitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingPartitioner")
            .field("k", &self.cfg.k)
            .field("dims", &self.graph.weights().dims())
            .field("num_vertices", &self.graph.num_vertices())
            .field("num_edges", &self.graph.num_edges())
            .field("id_epoch", &self.id_epoch)
            .field("batches", &self.batches)
            .finish_non_exhaustive()
    }
}

/// The online partitioning engine.
pub struct StreamingPartitioner {
    cfg: StreamConfig,
    graph: DynamicGraph,
    store: PartitionStore,
    /// Vertices touched since the last refinement — the refinement active
    /// set grows a 1-hop halo around these.
    dirty: DirtySet,
    /// Composed old→new id map of every purging compaction since the
    /// previous published view. [`Self::publish_view`] drains it into the
    /// next view, and `ingest` and `purge` report the map it drained
    /// ([`BatchReport::remap`]). `None` at every batch boundary, so
    /// snapshots do not carry it.
    pending_remap: Option<Vec<VertexId>>,
    /// Batches ingested over the engine's lifetime: the `batch_seq` of
    /// every published view. Snapshots carry it.
    batches: u64,
    batches_since_refine: usize,
    refine_seed: u64,
    /// Number of purging compactions this engine's id space has gone
    /// through — the version external id holders must match (see
    /// [`Self::id_epoch`]).
    id_epoch: u64,
    /// Metrics / span / journal sink, the one store of the engine's
    /// counters. **Not** serialized into snapshots — counters restart from
    /// zero on restore (a restored engine immediately journals a
    /// `snapshot.restore` event, so dumps are self-describing about the
    /// reset).
    obs: MetricsRegistry,
    /// Per-worker GD iterate storage, reused across every pair of every
    /// disjoint refine round and across batches (grown on demand to the
    /// round's worker count). Pure scratch — **not** serialized into
    /// snapshots; a restored engine re-grows an empty pool and produces
    /// byte-identical results because a [`GdWorkspace`] carries no state
    /// between solves.
    workspaces: Vec<GdWorkspace>,
    /// Per-vertex refinement scratch, [`ActiveAdjacency::INACTIVE`]
    /// outside a refinement pass: during one, every active vertex holds its
    /// index in the active set. Grown to the id space on demand and reset
    /// vertex by vertex at the end of each pass, never reallocated per
    /// pass. Not serialized.
    refine_slots: Vec<u32>,
    /// The refinement pass's one read of the active set's adjacency,
    /// gathered after the active set is marked and read by the pair
    /// ranking and every pair problem of the pass. Scratch whose buffers
    /// are reused across passes; not serialized.
    adjacency: ActiveAdjacency,
}

/// Vertices touched since the last refinement (new, re-weighted, moved, or
/// endpoint of an added/removed edge): a mask over the id space for O(1)
/// membership plus a list of the marked ids, so the refinement pass visits
/// the churn without scanning the id space. The mask is the state
/// (snapshots carry it); the list is rebuilt from it on restore and after
/// a purge, and may hold ids unmarked since (or marked twice), which
/// [`Self::sorted`] drops.
#[derive(Debug, Default)]
struct DirtySet {
    mask: Vec<bool>,
    list: Vec<VertexId>,
}

impl DirtySet {
    fn from_mask(mask: Vec<bool>) -> Self {
        let list = (0..mask.len() as VertexId)
            .filter(|&v| mask[v as usize])
            .collect();
        Self { mask, list }
    }

    /// Marks `v`, extending the id space when `v` is a fresh id.
    fn mark(&mut self, v: VertexId) {
        let i = v as usize;
        if i >= self.mask.len() {
            self.mask.resize(i + 1, false);
        }
        if !self.mask[i] {
            self.mask[i] = true;
            self.list.push(v);
            // Unmarked ids stay behind in the list; tidy before they
            // outgrow the id space.
            if self.list.len() > 2 * self.mask.len() {
                self.tidy();
            }
        }
    }

    fn unmark(&mut self, v: VertexId) {
        self.mask[v as usize] = false;
    }

    /// The marked ids, ascending and distinct.
    fn sorted(&mut self) -> &[VertexId] {
        self.tidy();
        &self.list
    }

    fn tidy(&mut self) {
        let mask = &self.mask;
        self.list.retain(|&v| mask[v as usize]);
        self.list.sort_unstable();
        self.list.dedup();
    }

    /// Unmarks everything, in time proportional to the list.
    fn clear(&mut self) {
        for &v in &self.list {
            self.mask[v as usize] = false;
        }
        self.list.clear();
    }

    /// Carries the set across a purge (`map[old]` = new id or
    /// [`TOMBSTONE`]) into an id space of `n_new` vertices.
    fn remap(&mut self, map: &[VertexId], n_new: usize) {
        let mut mask = vec![false; n_new];
        for (old, &new) in map.iter().enumerate() {
            if new != TOMBSTONE {
                mask[new as usize] = self.mask[old];
            }
        }
        *self = Self::from_mask(mask);
    }
}

impl StreamingPartitioner {
    /// Partitions `graph` from scratch with the paper's GD and starts
    /// streaming on top of the result.
    pub fn bootstrap(
        graph: Graph,
        weights: VertexWeights,
        cfg: StreamConfig,
    ) -> Result<Self, PartitionError> {
        cfg.validate()?;
        let mut gd_cfg = cfg.gd.clone();
        gd_cfg.epsilon = cfg.epsilon;
        gd_cfg.threads = cfg.threads;
        let partition = GdPartitioner::new(gd_cfg).partition(&graph, &weights, cfg.k, cfg.seed)?;
        Self::from_partition(graph, weights, &partition, cfg)
    }

    /// Starts streaming on top of an existing partition (e.g. one loaded
    /// from a snapshot).
    pub fn from_partition(
        graph: Graph,
        weights: VertexWeights,
        partition: &Partition,
        cfg: StreamConfig,
    ) -> Result<Self, PartitionError> {
        cfg.validate()?;
        let n = graph.num_vertices();
        if partition.num_vertices() != n || weights.num_vertices() != n {
            return Err(PartitionError::DimensionMismatch {
                weights_n: weights.num_vertices(),
                graph_n: n,
            });
        }
        if partition.num_parts() != cfg.k {
            return Err(PartitionError::Config(format!(
                "partition has {} parts but config wants k = {}",
                partition.num_parts(),
                cfg.k
            )));
        }
        let mut store = PartitionStore::new(partition, &weights);
        store.rebuild_edge_stats(graph.edges());
        let graph = DynamicGraph::new(graph, weights);
        let refine_seed = cfg.seed;
        Ok(Self {
            cfg,
            graph,
            store,
            dirty: DirtySet::from_mask(vec![false; n]),
            pending_remap: None,
            batches: 0,
            batches_since_refine: 0,
            refine_seed,
            id_epoch: 0,
            obs: MetricsRegistry::new(),
            workspaces: Vec::new(),
            refine_slots: Vec::new(),
            adjacency: ActiveAdjacency::default(),
        })
    }

    /// Cold start: no vertices yet, everything arrives on the stream.
    pub fn empty(dims: usize, cfg: StreamConfig) -> Result<Self, PartitionError> {
        cfg.validate()?;
        let refine_seed = cfg.seed;
        let k = cfg.k;
        let graph = DynamicGraph::empty(dims);
        let store = PartitionStore::new(
            &Partition::new(Vec::new(), k),
            &VertexWeights::from_vectors(vec![Vec::new(); dims]),
        );
        Ok(Self {
            cfg,
            graph,
            store,
            dirty: DirtySet::default(),
            pending_remap: None,
            batches: 0,
            batches_since_refine: 0,
            refine_seed,
            id_epoch: 0,
            obs: MetricsRegistry::new(),
            workspaces: Vec::new(),
            refine_slots: Vec::new(),
            adjacency: ActiveAdjacency::default(),
        })
    }

    /// The serving-side store (O(1) `shard_of`, loads, locality).
    pub fn store(&self) -> &PartitionStore {
        &self.store
    }

    /// The evolving graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The metrics registry, with the store-owned mirrors (lookup counts,
    /// live balance gauges) synced to the current moment.
    /// `&mut self` precisely because of that sync; use
    /// [`Self::metrics_mut`] to record from outside the engine.
    pub fn metrics(&mut self) -> &MetricsRegistry {
        self.sync_store_metrics();
        &self.obs
    }

    /// Mutable access to the metrics registry, mirrors synced as in
    /// [`Self::metrics`].
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        self.sync_store_metrics();
        &mut self.obs
    }

    /// Pulls the externally-maintained monotone counters (store), the live
    /// balance gauges and the compaction wall-clock into the registry so
    /// dumps are current.
    fn sync_store_metrics(&mut self) {
        // Lifetime compaction wall-clock, mirrored from the two `compact`
        // spans under the gauge name perf tooling reads although the merge
        // is serial. A `_ms` gauge, so it stays out of the deterministic
        // dump subset the CI thread-count diff compares.
        let compact = ["ingest.refine.compact", "compact"].map(|p| self.obs.span_stat(p));
        if compact.iter().any(Option::is_some) {
            let ms = compact.iter().flatten().map(|s| s.total_ms).sum();
            self.obs.gauge_set("stream.compact.parallel_ms", ms);
        }
        self.obs
            .counter_set("stream.store.lookups", self.store.lookup_count());
        self.obs
            .counter_set("stream.store.view_swaps", self.store.view_swap_count());
        self.obs.counter_set(
            "stream.store.stale_epoch_reads",
            self.store.stale_epoch_read_count(),
        );
        let lookup_ns = self.store.lookup_latency();
        if lookup_ns.count() > 0 {
            self.obs.histogram_set("stream.store.lookup_ns", &lookup_ns);
        }
        // The rebalance counts its pops into the registry; an engine that
        // never rebalanced (a follower) still reports the counter, at 0.
        self.obs.counter_add("stream.store.heap_pops", 0);
        self.obs.counter_set(
            "stream.store.live_vertices",
            self.store.num_assigned() as u64,
        );
        self.obs
            .gauge_set("stream.balance.max_imbalance", self.store.max_imbalance());
        self.obs
            .gauge_set("stream.balance.edge_locality", self.store.edge_locality());
    }

    /// O(1) shard lookup ([`crate::TOMBSTONE`] for a removed vertex), a
    /// plain read of the live store. Serving threads use [`Self::reader`]
    /// handles, whose lookups `stream.store.lookups` counts.
    pub fn shard_of(&self, v: VertexId) -> u32 {
        self.store.shard_of(v)
    }

    /// A [`crate::ReadHandle`] pinned to the latest published view — the
    /// entry point for serving threads: handles answer lock-free lookups
    /// concurrently with `ingest` and stay valid (on their pinned view)
    /// even if the engine drops.
    pub fn reader(&self) -> crate::ReadHandle {
        self.store.reader()
    }

    /// The latest published [`crate::ReadView`] (one `Arc` clone).
    pub fn read_view(&self) -> std::sync::Arc<crate::ReadView> {
        self.store.read_view()
    }

    /// Current partition snapshot (O(n)). Panics while removed-but-unpurged
    /// vertices exist; call [`Self::purge`] first under churn.
    pub fn partition(&self) -> Partition {
        self.store.to_partition()
    }

    /// Current maximum imbalance across dimensions (live totals).
    pub fn max_imbalance(&self) -> f64 {
        self.store.max_imbalance()
    }

    /// Forces a compaction that purges tombstoned vertices, returning the
    /// old→new id map if ids changed. After this, [`Self::partition`] is
    /// safe to call again.
    pub fn purge(&mut self) -> Option<Vec<VertexId>> {
        let spans = SpanTree::new();
        {
            let _root = spans.span("compact");
            self.compact_graph();
        }
        for root in spans.snapshot() {
            self.obs.absorb_spans(&root);
        }
        // The purge renumbered the id space out-of-band of any batch:
        // publish immediately so readers never pin a pre-purge assignment
        // longer than necessary (the view carries the same map).
        self.publish_view()
    }

    /// The engine's **id epoch**: how many purging compactions have
    /// renumbered its vertex ids. Ids are stable within an epoch; an
    /// external id holder (a router, a replay harness) that has applied
    /// `E` remaps is at epoch `E` and can only adopt a snapshot recorded
    /// at the same epoch — pass the expectation to
    /// [`Self::restore_expecting`].
    pub fn id_epoch(&self) -> u64 {
        self.id_epoch
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Re-sizes the worker pool (e.g. after restoring a snapshot recorded
    /// on a machine with a different core count). Thread count never
    /// affects results — every parallel section is deterministic by
    /// construction — so this is safe mid-stream.
    ///
    /// # Panics
    /// Panics if `threads` is zero or above [`GdConfig::MAX_THREADS`].
    pub fn set_threads(&mut self, threads: usize) {
        assert!(
            (1..=GdConfig::MAX_THREADS).contains(&threads),
            "threads must be in 1..={}",
            GdConfig::MAX_THREADS
        );
        self.cfg.threads = threads;
    }

    /// Serializes the engine's full state into `w` in the versioned
    /// snapshot format (see [`crate::snapshot`] for the layout): the
    /// dynamic graph (base CSR, removed-slot bits, delta, free list,
    /// weights), the store's assignment and loads (verbatim floats), the
    /// configuration, and the refinement bookkeeping. Saving changes no
    /// engine state (it only counts itself in the metrics registry, hence
    /// `&mut self`), so a saver and its restorer continue into identical
    /// reports. A snapshot may be taken at any batch boundary, including
    /// mid-churn with tombstoned-but-unpurged vertices pending. The
    /// snapshot is encoded in memory first, then written.
    pub fn save_snapshot<W: std::io::Write>(
        &mut self,
        w: &mut W,
    ) -> Result<crate::SnapshotInfo, crate::SnapshotError> {
        use crate::snapshot::{SnapshotError, SNAPSHOT_HEADER_BYTES};
        let mut framed = Vec::new();
        let info = self.encode_snapshot(&mut framed, &mut None);
        let (header, payload) = framed.split_at(SNAPSHOT_HEADER_BYTES);
        w.write_all(header)
            .map_err(|e| SnapshotError::io("header", e))?;
        w.write_all(payload)
            .and_then(|()| w.flush())
            .map_err(|e| SnapshotError::io("payload", e))?;
        Ok(info)
    }

    /// Encodes the snapshot [`Self::save_snapshot`] writes into `buf`,
    /// replacing its contents and keeping its allocation: a leader
    /// re-encodes each rotation's snapshot into the buffer that held the
    /// last one. Encoding into memory cannot fail.
    ///
    /// `kept` marks the prefix of `buf` that an earlier encode into the
    /// same buffer left: when the head bytes (id-epoch echo, CONFIG, GRAPH
    /// tag) encode the same and no compaction replaced the base CSR since,
    /// the buffer is cut after the base CSR and only the rest is encoded,
    /// its checksum resumed from the kept state (counted in
    /// `stream.snapshot.prefix_reuses`). Otherwise everything is encoded.
    /// Either way `kept` ends up marking this snapshot's prefix, and the
    /// bytes equal a full encode's.
    pub(crate) fn encode_snapshot(
        &mut self,
        buf: &mut Vec<u8>,
        kept: &mut Option<crate::snapshot::KeptPrefix>,
    ) -> crate::SnapshotInfo {
        use crate::snapshot::{self, KeptPrefix, PayloadWriter, SNAPSHOT_HEADER_BYTES as HEADER};
        // The id epoch is echoed as the payload's first bytes: the header
        // copy (used for cheap pre-parse expectation checks) is outside
        // the checksum, so restore cross-validates it against this
        // checksummed copy — a corrupted header epoch cannot slip an
        // engine into the wrong id space.
        let mut head = PayloadWriter::new();
        head.put_u64(self.id_epoch);
        head.put_section(snapshot::SEC_CONFIG);
        snapshot::encode_config(&mut head, &self.cfg);
        head.put_section(snapshot::SEC_GRAPH);
        let generation = self.graph.base_generation();
        let reused = kept.filter(|p| {
            p.generation == generation
                && p.head_len == head.buf.len()
                && buf
                    .get(HEADER..HEADER + p.len)
                    .is_some_and(|bytes| bytes.starts_with(&head.buf))
        });
        let (mut pw, prefix) = match reused {
            Some(prefix) => {
                buf.truncate(HEADER + prefix.len);
                self.obs.counter_add("stream.snapshot.prefix_reuses", 1);
                let pw = PayloadWriter {
                    buf: std::mem::take(buf),
                };
                (pw, prefix)
            }
            None => {
                let mut pw = PayloadWriter::for_snapshot(std::mem::take(buf));
                pw.buf.extend_from_slice(&head.buf);
                self.graph.encode_base(&mut pw);
                let prefix = KeptPrefix::new(generation, head.buf.len(), &pw.buf[HEADER..]);
                (pw, prefix)
            }
        };
        self.graph.encode_overlay(&mut pw);
        pw.put_section(snapshot::SEC_STORE);
        self.store.encode_snapshot(&mut pw);
        pw.put_section(snapshot::SEC_ENGINE);
        pw.put_vec_bool(&self.dirty.mask);
        pw.put_u64(self.batches);
        pw.put_usize(self.batches_since_refine);
        pw.put_u64(self.refine_seed);
        pw.put_section(snapshot::SEC_END);
        *buf = pw.buf;
        let payload_checksum = prefix.checksum(&buf[HEADER..]);
        *kept = Some(prefix);
        let info = snapshot::seal_snapshot(
            buf,
            self.id_epoch,
            self.cfg.k,
            self.graph.weights().dims(),
            payload_checksum,
        );
        self.obs.counter_add("stream.snapshot.saves", 1);
        self.obs.journal_event(
            "snapshot.save",
            &[
                ("epoch", self.id_epoch as f64),
                ("payload_bytes", info.payload_bytes as f64),
            ],
        );
        info
    }

    /// Rebuilds an engine from a [`Self::save_snapshot`] stream with no
    /// expectations beyond internal consistency. Equivalent to
    /// [`Self::restore_expecting`] with a default
    /// [`crate::SnapshotExpectation`].
    pub fn restore<R: std::io::Read>(r: R) -> Result<Self, crate::SnapshotError> {
        Self::restore_expecting(r, &crate::SnapshotExpectation::default())
    }

    /// Rebuilds an engine from a snapshot, first checking the header
    /// against the caller's expectation (`k`, dimension count, id epoch —
    /// each mismatch fails with its named [`crate::SnapshotError`]
    /// variant), then validating checksum and payload. All-or-nothing: an
    /// `Err` constructs no state. The restored engine continues ingesting
    /// with byte-identical [`BatchReport`]s to the engine that saved.
    pub fn restore_expecting<R: std::io::Read>(
        r: R,
        expect: &crate::SnapshotExpectation,
    ) -> Result<Self, crate::SnapshotError> {
        use crate::snapshot::{self, PayloadReader, SnapshotError};
        let (info, payload) = snapshot::read_snapshot(r)?;
        expect.check(&info)?;
        let mut pr = PayloadReader::new(&payload);

        // The header's epoch is unchecksummed; the payload's echo is the
        // authority. A mismatch means the header byte rotted — and the
        // expectation above may have passed against the corrupt value, so
        // this must fail before any state is adopted.
        let payload_epoch = pr.get_u64("payload id epoch")?;
        if payload_epoch != info.id_epoch {
            return Err(SnapshotError::Corrupt(format!(
                "header id epoch {} does not match the checksummed payload epoch {payload_epoch}",
                info.id_epoch
            )));
        }

        pr.expect_section(snapshot::SEC_CONFIG)?;
        let cfg = snapshot::decode_config(&mut pr)?;
        cfg.validate()
            .map_err(|e| SnapshotError::Corrupt(format!("configuration invalid: {e}")))?;
        pr.expect_section(snapshot::SEC_GRAPH)?;
        let graph = DynamicGraph::decode_snapshot(&mut pr)?;
        pr.expect_section(snapshot::SEC_STORE)?;
        let mut store = PartitionStore::decode_snapshot(&mut pr, cfg.k, graph.weights())?;
        pr.expect_section(snapshot::SEC_ENGINE)?;
        let dirty = DirtySet::from_mask(pr.get_vec_bool("engine.dirty")?);
        let batches = pr.get_u64("engine.batch_seq")?;
        let batches_since_refine = pr.get_usize("engine.batches_since_refine")?;
        let refine_seed = pr.get_u64("engine.refine_seed")?;
        pr.expect_section(snapshot::SEC_END)?;
        if !pr.finished() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after the END section".into(),
            ));
        }

        // Cross-section consistency: the header, config, graph and store
        // must all agree on the shape before the engine is assembled.
        let n = graph.num_vertices();
        if cfg.k != info.k {
            return Err(SnapshotError::Corrupt(format!(
                "part counts disagree: header {}, config {}",
                info.k, cfg.k
            )));
        }
        if graph.weights().dims() != info.dims {
            return Err(SnapshotError::Corrupt(format!(
                "dimension counts disagree: header {}, weights {}",
                info.dims,
                graph.weights().dims()
            )));
        }
        if store.num_vertices() != n || dirty.mask.len() != n {
            return Err(SnapshotError::Corrupt(format!(
                "id spaces disagree: graph {n}, store {}, dirty {}",
                store.num_vertices(),
                dirty.mask.len()
            )));
        }
        // A tombstoned graph slot must be released in the store and vice
        // versa — the alignment every ingest stage depends on.
        for v in 0..n as VertexId {
            if graph.is_live(v) != (store.shard_of(v) != TOMBSTONE) {
                return Err(SnapshotError::Corrupt(format!(
                    "graph and store disagree about the liveness of vertex {v}"
                )));
            }
        }
        // Every live edge joins two assigned vertices now, so the edge
        // counters are one exact recount away.
        store.rebuild_edge_stats(graph.live_edges());

        let mut obs = MetricsRegistry::new();
        obs.counter_add("stream.snapshot.restores", 1);
        obs.journal_event(
            "snapshot.restore",
            &[("epoch", info.id_epoch as f64), ("n", n as f64)],
        );
        let mut engine = Self {
            cfg,
            graph,
            store,
            dirty,
            pending_remap: None,
            batches,
            batches_since_refine,
            refine_seed,
            id_epoch: info.id_epoch,
            obs,
            workspaces: Vec::new(),
            refine_slots: Vec::new(),
            adjacency: ActiveAdjacency::default(),
        };
        // Restore publishes view #0 of this process: readers attaching to
        // the restored engine immediately see the restored assignment at
        // the restored `(id_epoch, batch_seq)` stamp.
        engine.publish_view();
        Ok(engine)
    }

    /// Publishes the current store state as an immutable [`crate::ReadView`]
    /// stamped with the engine's id epoch and batch count, carrying the
    /// purge remap composed since the previous published view, and returns
    /// that remap. Called at every batch boundary (end of `ingest`, after
    /// `refine_now`, after `purge`) and once on restore.
    fn publish_view(&mut self) -> Option<Vec<VertexId>> {
        let epoch = crate::ViewEpoch {
            id_epoch: self.id_epoch,
            batch_seq: self.batches,
        };
        let remap = self.pending_remap.take();
        self.store.publish_view(epoch, remap.clone());
        remap
    }

    /// Compacts the dynamic graph and, when the compaction purged
    /// tombstoned vertices, applies the id remap to every structure the
    /// engine owns (store, dirty set) and composes it into
    /// [`Self::pending_remap`] for the next published view. Runs only when
    /// ingest finds the churn outgrew [`StreamConfig::compact_slack`] and
    /// on an explicit [`Self::purge`] — never inside a refinement pass.
    /// Both callers time it as a `compact` span, which
    /// [`Self::sync_store_metrics`] mirrors into
    /// `stream.compact.parallel_ms`.
    fn compact_graph(&mut self) {
        // Count every compaction that actually merges (the slack trigger
        // and `purge` both land here), so `stream.compact.purges` stays a
        // subset of `stream.compact.merges`.
        let will_merge = self.graph.delta_edge_count() > 0
            || self.graph.tombstoned_edge_count() > 0
            || self.graph.num_tombstoned() > 0
            || self.graph.csr().num_vertices() != self.graph.num_vertices();
        if will_merge {
            self.obs.counter_add("stream.compact.merges", 1);
        }
        let Some(map) = self.graph.compact() else {
            return;
        };
        let n_new = self.graph.num_vertices();
        self.dirty.remap(&map, n_new);
        self.store.apply_remap(&map, self.graph.weights());
        self.id_epoch += 1;
        self.obs.counter_add("stream.compact.purges", 1);
        self.obs.journal_event(
            "compact.purge",
            &[("live", n_new as f64), ("epoch", self.id_epoch as f64)],
        );
        // Compose old→mid→new when several purges happened since a publish.
        self.pending_remap = Some(match self.pending_remap.take() {
            None => map,
            Some(prev) => prev
                .iter()
                .map(|&mid| {
                    if mid == TOMBSTONE {
                        TOMBSTONE
                    } else {
                        map[mid as usize]
                    }
                })
                .collect(),
        });
    }

    /// Stage 1 — validates a whole batch against the current state without
    /// applying anything, so `ingest` is all-or-nothing: an `Err` means no
    /// update was applied. Simulates the id assignment the batch will make
    /// — arrivals recycle tombstoned ids off the free list (most recently
    /// freed first, including ids the batch itself frees) before extending
    /// the id space — so updates may reference vertices added earlier in
    /// the batch, but not ones already removed by it.
    fn validate_batch(&self, batch: &UpdateBatch) -> Result<(), PartitionError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Sim {
            /// Created (or revived) by an earlier update in this batch.
            Live,
            /// Removed by an earlier update in this batch.
            RemovedHere,
        }
        let dims = self.graph.weights().dims();
        let positive = |w: f64| w.is_finite() && w > 0.0;
        let n0 = self.graph.num_vertices() as u64;
        let mut n = n0;
        let mut sim_free: Vec<VertexId> = self.graph.free_ids().to_vec();
        let mut sim: std::collections::HashMap<VertexId, Sim> = std::collections::HashMap::new();
        // Why vertex `v` cannot be referenced at this point of the batch,
        // if it cannot: distinguishes "never existed" from "removed" so
        // the error names the actual upstream mistake.
        let rejection = |v: VertexId, n: u64, sim: &std::collections::HashMap<VertexId, Sim>| {
            if v as u64 >= n {
                return Some(format!("is not a known vertex (stream has {n} so far)"));
            }
            match sim.get(&v) {
                Some(Sim::Live) => None,
                Some(Sim::RemovedHere) => Some("was removed earlier in this batch".to_string()),
                None if (v as u64) < n0 && !self.graph.is_live(v) => {
                    Some("was removed by an earlier batch".to_string())
                }
                None => None,
            }
        };
        for (i, update) in batch.updates.iter().enumerate() {
            match update {
                StreamUpdate::AddVertex { weights, .. } => {
                    if weights.len() != dims {
                        return Err(PartitionError::Config(format!(
                            "update {i}: arriving vertex has {} weights, stream has {dims} \
                             dimensions",
                            weights.len()
                        )));
                    }
                    if let Some(&w) = weights.iter().find(|&&w| !positive(w)) {
                        return Err(PartitionError::Config(format!(
                            "update {i}: vertex weight {w} must be positive finite"
                        )));
                    }
                    // Mirror the split stage's id assignment exactly.
                    let id = sim_free.pop().unwrap_or_else(|| {
                        n += 1;
                        (n - 1) as VertexId
                    });
                    sim.insert(id, Sim::Live);
                }
                StreamUpdate::AddEdge { u, v } | StreamUpdate::RemoveEdge { u, v } => {
                    // Name the offending endpoint, not just the pair — in a
                    // 10k-update batch that's the difference between a
                    // one-line fix upstream and a bisection session.
                    let verb = if matches!(update, StreamUpdate::AddEdge { .. }) {
                        "edge"
                    } else {
                        "edge removal"
                    };
                    for endpoint in [u, v] {
                        if let Some(why) = rejection(*endpoint, n, &sim) {
                            return Err(PartitionError::Config(format!(
                                "update {i}: {verb} ({u}, {v}): endpoint {endpoint} {why}"
                            )));
                        }
                    }
                }
                StreamUpdate::RemoveVertex { v } => {
                    if let Some(why) = rejection(*v, n, &sim) {
                        return Err(PartitionError::Config(format!(
                            "update {i}: vertex removal targets {v}, which {why}"
                        )));
                    }
                    sim.insert(*v, Sim::RemovedHere);
                    sim_free.push(*v);
                }
                StreamUpdate::SetWeight { v, dim, value } => {
                    if let Some(why) = rejection(*v, n, &sim) {
                        return Err(PartitionError::Config(format!(
                            "update {i}: weight update targets vertex {v}, which {why}"
                        )));
                    }
                    if *dim >= dims {
                        return Err(PartitionError::Config(format!(
                            "update {i}: weight update on vertex {v} names dimension {dim}, \
                             stream has {dims} dimensions"
                        )));
                    }
                    if !positive(*value) {
                        return Err(PartitionError::Config(format!(
                            "update {i}: weight {value} must be positive finite"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies one batch through the staged pipeline: validate → split →
    /// speculative placement → conflict repair → commit → (compaction,
    /// drift check, refinement). All-or-nothing: the batch is validated up
    /// front, and an `Err` leaves the engine untouched.
    ///
    /// A batch read back from a replication log carries the leader's
    /// refinement decision ([`crate::replica`]). Its stages up to the
    /// compaction run as above; then the decision takes the place of the
    /// drift check and the pass: the logged moves apply through the same
    /// accounting, so no rebalance candidate is ranked and no GD runs. Every
    /// move is checked before the first one applies. A decision that does
    /// not fit the post-batch state (a part ≥ k, an unknown or removed
    /// vertex, a move to the vertex's own part) fails with an error naming
    /// the move, after the batch's updates applied: such an engine has
    /// left the leader's lineage and must be discarded.
    pub fn ingest(&mut self, batch: &UpdateBatch) -> Result<BatchReport, PartitionError> {
        let spans = SpanTree::new();
        let root = spans.span("ingest");

        {
            let _s = spans.span("validate");
            self.validate_batch(batch)?;
        }

        let split = {
            let _s = spans.span("split");
            self.stage_split(batch)
        };

        // Placement and repair read the store; nothing writes it until
        // commit.
        let (mut parts, reservations, caps) = {
            let _s = spans.span("place");
            speculative_place(
                &self.graph,
                &self.store,
                &split,
                self.cfg.epsilon,
                self.cfg.threads,
            )
        };

        let (placement_conflicts, repair_passes, repair_spec_rounds) = {
            let _s = spans.span("repair");
            conflict_repair(
                &self.graph,
                &self.store,
                &split,
                reservations,
                &caps,
                &mut parts,
                self.cfg.threads,
            )
        };

        {
            let _s = spans.span("commit");
            self.stage_commit(&split, &parts);
        }

        self.batches += 1;
        self.batches_since_refine += 1;

        self.obs.counter_add("stream.ingest.batches", 1);
        self.obs
            .counter_add("stream.ingest.arrivals", split.vertices_added as u64);
        self.obs
            .counter_add("stream.ingest.removals", split.vertices_removed as u64);
        self.obs
            .counter_add("stream.ingest.edges_added", split.edges_added as u64);
        self.obs
            .counter_add("stream.ingest.edges_removed", split.edges_removed as u64);
        self.obs
            .counter_add("stream.ingest.weight_updates", split.weight_updates as u64);
        self.obs
            .counter_add("stream.place.conflicts", placement_conflicts as u64);
        self.obs
            .counter_add("stream.place.repair_passes", repair_passes as u64);
        self.obs
            .counter_add("stream.repair.spec_rounds", repair_spec_rounds as u64);
        if placement_conflicts > 0 {
            self.obs.journal_event(
                "place.repair",
                &[
                    ("conflicts", placement_conflicts as f64),
                    ("passes", repair_passes as f64),
                    ("spec_rounds", repair_spec_rounds as f64),
                ],
            );
        }

        // The drift check, any triggered compaction and the refinement all
        // bill to the "refine" stage, matching the pre-span accounting. A
        // batch carrying a logged decision applies it in place of the
        // triggers and the pass, which already ran on the leader.
        let refine_pass = {
            let _s = spans.span("refine");
            if self.graph.needs_compaction(self.cfg.compact_slack) {
                let _s = spans.span("compact");
                self.compact_graph(); // counts itself in stream.compact.merges
            }
            match &batch.decision {
                Some(decision) => {
                    if let Some(pass) = decision {
                        self.apply_pass(pass)?;
                    }
                    decision.clone()
                }
                None if self.refine_triggered() => Some(self.refine_with_spans(&spans)?),
                None => None,
            }
        };

        // Arrival ids, expressed in the final id space of this report: a
        // purge during this ingest renumbered them along with everything
        // else.
        let arrival_ids: Vec<VertexId> = split
            .arrivals
            .iter()
            .map(|a| match (&self.pending_remap, a.dead) {
                (_, true) => TOMBSTONE,
                (Some(map), false) => map[a.id as usize],
                (None, false) => a.id,
            })
            .collect();

        // Commit + refine are done: publish this batch's view. Readers
        // re-pinning from here on see the post-batch assignment (stamped
        // with this batch's sequence number) atomically — never the
        // intermediate states the stages above moved through.
        let remap = self.publish_view();

        drop(root);
        let spans_root = spans.snapshot().into_iter().next().unwrap_or_default();
        self.obs.absorb_spans(&spans_root);
        self.sync_store_metrics();

        Ok(BatchReport {
            vertices_added: split.vertices_added,
            vertices_removed: split.vertices_removed,
            edges_added: split.edges_added,
            edges_removed: split.edges_removed,
            weight_updates: split.weight_updates,
            refined: refine_pass.is_some(),
            rebalance_moves: refine_pass.as_ref().map_or(0, RefinePass::rebalance_moves),
            refine_moves: refine_pass.as_ref().map_or(0, RefinePass::gd_moves),
            refine_pass,
            placement_conflicts,
            repair_passes,
            repair_spec_rounds,
            max_imbalance: self.max_imbalance(),
            edge_locality: self.store.edge_locality(),
            remap,
            arrival_ids,
            spans: spans_root,
        })
    }

    /// Stage 2 — applies the batch's structural mutations to the graph in
    /// update order, deferring everything that needs a placement decision:
    /// arrivals are collected as [`PendingArrival`]s (their adjacency *is*
    /// materialized, so the placement stage can score affinity), and store
    /// effects touching a pending arrival are parked in the deferred
    /// ledger. Effects between already-assigned vertices apply immediately,
    /// exactly as the pre-pipeline engine did. Serial: every update
    /// mutates the graph directly, in batch order.
    fn stage_split(&mut self, batch: &UpdateBatch) -> SplitOutcome {
        let dims = self.graph.weights().dims();
        let mut out = SplitOutcome::default();
        for update in &batch.updates {
            match update {
                StreamUpdate::AddVertex { weights, neighbors } => {
                    // May recycle a tombstoned id (free list, LIFO) — the
                    // report's `arrival_ids` tells callers what it got.
                    let v = self.graph.add_vertex(weights);
                    self.dirty.mark(v);
                    out.vertices_added += 1;
                    // Materialize the adjacency now; placement reads it
                    // through `graph.neighbors`. Removed, out-of-range and
                    // duplicate endpoints are skipped; with recycled ids a
                    // neighbour may legitimately carry a *higher* id.
                    for &u in neighbors {
                        if u != v
                            && (u as usize) < self.graph.num_vertices()
                            && self.graph.is_live(u)
                            && self.graph.add_edge(v, u)
                        {
                            self.dirty.mark(u);
                            out.edges_added += 1;
                            out.ledger.push(DeferredEffect::EdgeAdded(v, u));
                        }
                    }
                    out.arrival_of.insert(v, out.arrivals.len());
                    out.arrivals.push(PendingArrival {
                        id: v,
                        row: weights.clone(),
                        dead: false,
                    });
                }
                StreamUpdate::AddEdge { u, v } => {
                    if self.graph.add_edge(*u, *v) {
                        self.dirty.mark(*u);
                        self.dirty.mark(*v);
                        out.edges_added += 1;
                        if out.arrival_of.contains_key(u) || out.arrival_of.contains_key(v) {
                            out.ledger.push(DeferredEffect::EdgeAdded(*u, *v));
                        } else {
                            self.store.on_edge_added(*u, *v);
                        }
                    }
                }
                StreamUpdate::RemoveEdge { u, v } => {
                    if self.graph.remove_edge(*u, *v) {
                        self.dirty.mark(*u);
                        self.dirty.mark(*v);
                        out.edges_removed += 1;
                        if out.arrival_of.contains_key(u) || out.arrival_of.contains_key(v) {
                            out.ledger.push(DeferredEffect::EdgeRemoved(*u, *v));
                        } else {
                            self.store.on_edge_removed(*u, *v);
                        }
                    }
                }
                StreamUpdate::RemoveVertex { v } => {
                    out.vertices_removed += 1;
                    if let Some(idx) = out.arrival_of.remove(v) {
                        // An arrival leaving inside its own batch is never
                        // placed; every store effect of its edges already
                        // sits in the ledger, where the removals cancel
                        // the adds.
                        for u in self.graph.remove_vertex(*v) {
                            self.dirty.mark(u);
                            out.edges_removed += 1;
                            out.ledger.push(DeferredEffect::EdgeRemoved(*v, u));
                        }
                        out.arrivals[idx].dead = true;
                        self.dirty.unmark(*v);
                        continue;
                    }
                    let row: Vec<f64> = (0..dims)
                        .map(|j| self.graph.weights().weight(j, *v))
                        .collect();
                    // Settle per-edge stats while both endpoints still
                    // resolve, then release the capacity.
                    for u in self.graph.remove_vertex(*v) {
                        self.dirty.mark(u);
                        out.edges_removed += 1;
                        if out.arrival_of.contains_key(&u) {
                            out.ledger.push(DeferredEffect::EdgeRemoved(*v, u));
                        } else {
                            self.store.on_edge_removed(*v, u);
                        }
                    }
                    self.store.release_vertex(*v, &row);
                    // The tombstoned id must never seed the refinement
                    // active set — its (former) neighbours carry the churn.
                    self.dirty.unmark(*v);
                }
                StreamUpdate::SetWeight { v, dim, value } => {
                    let old = self.graph.weights().weight(*dim, *v);
                    self.graph.set_weight(*v, *dim, *value);
                    self.dirty.mark(*v);
                    out.weight_updates += 1;
                    // A pending arrival has no store slot yet; commit
                    // pushes its *final* row, which already folds every
                    // drift of this batch in.
                    if !out.arrival_of.contains_key(v) {
                        let new = self.graph.weights().weight(*dim, *v);
                        self.store.apply_weight_change(*v, *dim, old, new);
                    }
                }
            }
        }
        out
    }

    /// Stage 5 — commits the repaired placements into the store (in
    /// arrival order, which is id-assignment order, so fresh ids append in
    /// sequence) and settles the deferred edge accounting against the
    /// now-final parts. Serial: each arrival's accounting lands in the
    /// store directly.
    fn stage_commit(&mut self, split: &SplitOutcome, parts: &[u32]) {
        let dims = self.graph.weights().dims();
        for (arrival, &part) in split.arrivals.iter().zip(parts) {
            if arrival.dead {
                if (arrival.id as usize) >= self.store.num_vertices() {
                    // A fresh id that died in its own batch still occupies
                    // a graph slot until the next purge; mirror it so
                    // store and graph id spaces stay aligned.
                    self.store.push_tombstone();
                    debug_assert_eq!(self.store.num_vertices(), arrival.id as usize + 1);
                }
                continue;
            }
            // The final row (weight drift later in the batch included).
            let row: Vec<f64> = (0..dims)
                .map(|j| self.graph.weights().weight(j, arrival.id))
                .collect();
            if (arrival.id as usize) < self.store.num_vertices() {
                self.store.assign_slot(arrival.id, part, &row);
            } else {
                self.store.push_assignment(part, &row);
                debug_assert_eq!(self.store.num_vertices(), arrival.id as usize + 1);
            }
        }
        for effect in &split.ledger {
            match *effect {
                DeferredEffect::EdgeAdded(u, v) => self.store.on_edge_added(u, v),
                DeferredEffect::EdgeRemoved(u, v) => self.store.on_edge_removed(u, v),
            }
        }
    }

    /// Runs a refinement pass unconditionally. Returns
    /// `(rebalance_moves, refine_moves)`.
    ///
    /// The pass never compacts, so vertex ids are stable across it:
    /// purges happen only when `ingest` finds the churn outgrew
    /// [`StreamConfig::compact_slack`], or on [`Self::purge`]. The pass
    /// reads the graph through its overlay and skips tombstoned ids.
    pub fn refine_now(&mut self) -> Result<(usize, usize), PartitionError> {
        let spans = SpanTree::new();
        let result = {
            let _root = spans.span("refine");
            self.refine_with_spans(&spans)
        };
        for root in spans.snapshot() {
            self.obs.absorb_spans(&root);
        }
        // A direct refinement is a batch boundary of its own: readers get
        // the refined assignment atomically. The pass never purges, so
        // there is no remap to report.
        self.publish_view();
        result.map(|pass| (pass.rebalance_moves(), pass.gd_moves()))
    }

    /// Evaluates the refinement triggers after a batch and counts the ones
    /// that fire: drift (ε is threatened) and schedule. The live totals
    /// make the drift check sensitive to removals in both directions (see
    /// the module docs).
    fn refine_triggered(&mut self) -> bool {
        let imbalance = self.max_imbalance();
        let drift_trigger = imbalance > self.cfg.drift_headroom * self.cfg.epsilon;
        let schedule_trigger =
            self.cfg.refine_every > 0 && self.batches_since_refine >= self.cfg.refine_every;
        if drift_trigger {
            self.obs.counter_add("stream.refine.drift_triggers", 1);
            self.obs
                .journal_event("refine.drift_trigger", &[("imbalance", imbalance)]);
        }
        if schedule_trigger {
            self.obs.counter_add("stream.refine.schedule_triggers", 1);
        }
        drift_trigger || schedule_trigger
    }

    /// The refinement pass body, with its sub-stages (`rebalance`, and
    /// `gd` with its `gather` and `pairs` children, the latter with the
    /// pair-solve kernels below it) recorded as children of
    /// whatever span is currently open on `spans` — `"ingest.refine"`
    /// when called from [`Self::ingest`], `"refine"` from
    /// [`Self::refine_now`].
    ///
    /// Every loop is bounded by the dirty set, the active set (the dirty
    /// vertices plus their 1-hop halo) or its adjacency, so a pass costs
    /// time in proportion to the churn, not to the graph; the rebalance's
    /// rare full-membership fallback is the one exception, and it is
    /// counted. The active set's adjacency is read once, by the gather
    /// ([`ActiveAdjacency`]) that the pair ranking and every pair problem
    /// are built from. Counting the inactive neighbours there once is
    /// exact: from the gather to the post-GD touch-up only active vertices
    /// change parts (the first rebalance runs before the gather, and GD
    /// moves only active vertices), and the graph does not change.
    ///
    /// Returns the pass's moves in the order they were applied, which is
    /// what [`Self::apply_pass`] replays.
    fn refine_with_spans(&mut self, spans: &SpanTree) -> Result<RefinePass, PartitionError> {
        let started = Instant::now();
        let mut pass = RefinePass::default();
        {
            let _s = spans.span("rebalance");
            self.greedy_rebalance(&mut pass);
        }
        pass.gd_start = pass.vertices.len();

        // Warm-started pairwise GD around the churn: only active vertices
        // (including any the rebalance just moved) may move, and each pair
        // solves over its active members alone.
        if self.graph.num_vertices() > 0 {
            let _s = spans.span("gd");
            let pairs = {
                let _s = spans.span("gather");
                self.gather_active();
                self.adjacency.rank_pairs(MAX_REFINE_PAIRS)
            };
            self.obs.counter_add(
                "stream.refine.active_vertices",
                self.adjacency.vertices().len() as u64,
            );
            self.obs.counter_add(
                "stream.refine.active_edges",
                self.adjacency.entries() as u64,
            );
            let solved = {
                let _s = spans.span("pairs");
                self.refine_pairs(&pairs, &mut pass, spans)
            };
            for &a in self.adjacency.vertices() {
                self.refine_slots[a as usize] = ActiveAdjacency::INACTIVE;
            }
            solved?;
        }
        pass.touchup_start = pass.vertices.len();

        // This pass has consumed the churn; reset the dirty set *before*
        // the touch-up below so vertices the touch-up moves stay marked
        // and the next refinement's GD pass repairs their locality.
        self.dirty.clear();

        // The GD acceptance rule enforces only the global ε, so a pair
        // refinement may legally land back inside the trigger band; touch
        // up so steady state always ends below it (a no-op Φ check when
        // the GD pass behaved).
        {
            let _s = spans.span("rebalance"); // merges with the first pass
            self.greedy_rebalance(&mut pass);
        }

        pass.seed = self.refine_seed;
        self.finish_pass(&pass, started);
        Ok(pass)
    }

    /// Applies a pass another engine ran from the same state (a
    /// replication leader's logged decision) in place of running one: the
    /// moves before the touch-up, then the dirty-set reset, then the
    /// touch-up moves, each marked dirty, exactly as
    /// [`Self::refine_with_spans`] interleaves them. The moves go through
    /// [`Self::move_and_count`], so loads and locality counters end as the
    /// leader's did. Every move is checked ([`Self::check_pass`]) before
    /// the first one applies.
    fn apply_pass(&mut self, pass: &RefinePass) -> Result<(), PartitionError> {
        let started = Instant::now();
        self.check_pass(pass)?;
        let moves = pass.vertices.iter().zip(&pass.parts);
        for (&v, &part) in moves.clone().take(pass.touchup_start) {
            self.move_and_count(v, part);
        }
        self.dirty.clear();
        for (&v, &part) in moves.skip(pass.touchup_start) {
            self.move_and_count(v, part);
            self.dirty.mark(v);
        }
        self.refine_seed = pass.seed;
        self.finish_pass(pass, started);
        Ok(())
    }

    /// Checks every move of a logged pass against the state it applies
    /// to, following the parts the pass's earlier moves leave behind: the
    /// destination part must exist, the vertex must be live, and the move
    /// must change its part. `move_vertex` indexes the accounting by both
    /// parts, and a move to the vertex's own part would corrupt the
    /// locality counters: [`Self::locality_gain`] counts it while
    /// `move_vertex` ignores it.
    fn check_pass(&self, pass: &RefinePass) -> Result<(), PartitionError> {
        let (k, n) = (self.cfg.k, self.store.num_vertices());
        let mut moved: std::collections::HashMap<VertexId, u32> = std::collections::HashMap::new();
        for (i, (&v, &part)) in pass.vertices.iter().zip(&pass.parts).enumerate() {
            let why = if part as usize >= k {
                format!("part {part} does not exist (k = {k})")
            } else if v as usize >= n {
                format!("vertex {v} is not a known vertex (the id space has {n})")
            } else if self.store.shard_of(v) == TOMBSTONE {
                format!("vertex {v} was removed")
            } else if moved.insert(v, part).unwrap_or(self.store.shard_of(v)) == part {
                format!("vertex {v} is already in part {part}")
            } else {
                continue;
            };
            return Err(PartitionError::Config(format!(
                "logged refinement move {i} (vertex {v} to part {part}): {why}"
            )));
        }
        Ok(())
    }

    /// Closes a refinement pass, run or applied: resets the schedule and
    /// records the pass in the counters and the journal.
    fn finish_pass(&mut self, pass: &RefinePass, started: Instant) {
        let (rebalance_moves, gd_moves) = (pass.rebalance_moves(), pass.gd_moves());
        self.batches_since_refine = 0;
        self.obs.counter_add("stream.refine.passes", 1);
        self.obs
            .counter_add("stream.refine.rebalance_moves", rebalance_moves as u64);
        self.obs
            .counter_add("stream.refine.gd_moves", gd_moves as u64);
        self.obs.journal_event(
            "refine.pass",
            &[
                ("rebalance_moves", rebalance_moves as f64),
                ("gd_moves", gd_moves as f64),
                ("wall_secs", started.elapsed().as_secs_f64()),
            ],
        );
    }

    /// Marks the active set — the live dirty vertices plus their 1-hop
    /// halo, the vertices this pass's GD may move — in
    /// [`Self::refine_slots`], each with its index in the set, and returns
    /// it in ascending id order.
    fn mark_active(&mut self) -> Vec<VertexId> {
        let n = self.graph.num_vertices();
        if self.refine_slots.len() < n {
            self.refine_slots.resize(n, ActiveAdjacency::INACTIVE);
        }
        let Self {
            dirty,
            graph,
            refine_slots: slots,
            ..
        } = self;
        let mut active = Vec::new();
        for &d in dirty.sorted() {
            if !graph.is_live(d) {
                continue;
            }
            for u in std::iter::once(d).chain(graph.neighbors(d)) {
                if slots[u as usize] == ActiveAdjacency::INACTIVE {
                    slots[u as usize] = 0;
                    active.push(u);
                }
            }
        }
        active.sort_unstable();
        for (i, &a) in active.iter().enumerate() {
            slots[a as usize] = i as u32;
        }
        active
    }

    /// Marks the active set ([`Self::mark_active`]) and reads its
    /// adjacency through the overlay into [`Self::adjacency`].
    fn gather_active(&mut self) {
        let active = self.mark_active();
        let (graph, store, slots) = (&self.graph, &self.store, &self.refine_slots);
        self.adjacency.gather(
            self.cfg.k,
            &active,
            |u| slots[u as usize],
            |u| store.shard_of(u),
            |u| graph.neighbors(u),
            self.cfg.threads,
        );
    }

    /// Warm-started pairwise GD over the ranked `pairs`, each pair solved
    /// over its members in the pass's gathered active set; every move is
    /// appended to `pass`.
    ///
    /// Pairs are scheduled into rounds of part-disjoint pairs
    /// ([`GdPartitioner::plan_disjoint_rounds`]). Within a round no part is
    /// touched twice, so each pair's problem is built from state no other
    /// pair of the round writes, and the round's solves run concurrently
    /// on the worker pool, each in its worker's workspace; the accepted
    /// moves are applied at the round barrier, in round order, so the
    /// next round sees them and `threads = 1 ≡ threads = N` by
    /// construction.
    ///
    /// Each solve times its kernels ([`KernelTimes`]), and the worker
    /// times the pair's problem build. At the barrier the round's kernel
    /// times are added as children of the open span on `spans`, divided
    /// by the round's workers: every worker's solves lie inside the
    /// round, so the children never add up to more than their parent,
    /// and with one worker the times are exact.
    fn refine_pairs(
        &mut self,
        pairs: &[(u32, u32)],
        pass: &mut RefinePass,
        spans: &SpanTree,
    ) -> Result<(), PartitionError> {
        let mut gd_cfg = self.cfg.gd.clone();
        gd_cfg.epsilon = self.cfg.epsilon;
        gd_cfg.iterations = REFINE_ITERATIONS;
        gd_cfg.track_history = false;
        for round in GdPartitioner::plan_disjoint_rounds(pairs) {
            // Threads left idle by a small round (common when one hot
            // part appears in every ranked pair, making every round a
            // singleton) drop down into the pair's own GD mat-vec — the
            // mat-vec splits rows deterministically, so the result is
            // still thread-count independent.
            gd_cfg.threads = (self.cfg.threads / round.len()).max(1);
            let gd = GdPartitioner::new(gd_cfg.clone());
            let seeds: Vec<u64> = round
                .iter()
                .map(|_| {
                    self.refine_seed = self
                        .refine_seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(1);
                    self.refine_seed
                })
                .collect();

            // The movable vertices of each pair: its active members at the
            // parts the previous rounds left.
            let store = &self.store;
            let split = self.adjacency.round(&round, |a| store.shard_of(a));

            // One reusable GD workspace per worker: pairs of a round are
            // claimed work-stealing style. Which worker serves which pair
            // is scheduling-dependent, but a workspace carries no state
            // between solves, so results stay thread-count independent.
            let workers = self.cfg.threads.min(round.len()).max(1);
            if self.workspaces.len() < workers {
                self.workspaces.resize_with(workers, GdWorkspace::default);
            }
            let (adjacency, weights) = (&self.adjacency, self.graph.weights());
            let outcomes =
                parallel::par_map_with(&round, &mut self.workspaces[..workers], |ws, i, _| {
                    let start = Instant::now();
                    let problem = pair_problem(adjacency, &split, i, weights, store);
                    let mut built = KernelTimes::default();
                    built.record(Kernel::Build, start);
                    let mut refinement = gd.solve_pair(ws, &problem, seeds[i])?;
                    refinement.kernels.merge(&built);
                    Ok(refinement)
                });
            for refinement in outcomes.iter().flatten() {
                for (name, count, ms) in refinement.kernels.ran() {
                    spans.add(name, count, ms / workers as f64);
                }
            }
            for (i, outcome) in outcomes.into_iter().enumerate() {
                let outcome = outcome?;
                // Recorded at the deterministic round barrier (par_map
                // preserves round order), so the GD series are identical
                // for threads = 1 and threads = N.
                self.obs
                    .counter_add("core.gd.solve_vertices", split.members(i).len() as u64);
                self.obs
                    .observe("core.gd.refine_iterations", outcome.gd.iterations as u64);
                self.obs.counter_add(
                    "core.gd.grad_full_recomputes",
                    outcome.gd.full_recomputes as u64,
                );
                self.obs.counter_add(
                    "core.gd.grad_delta_iters",
                    outcome.gd.delta_iterations as u64,
                );
                // Mean frontier size of the run — the histogram of these
                // means shows how much of each pair the delta path
                // actually had to touch.
                if let Some(mean) = outcome.gd.frontier_sum.checked_div(outcome.gd.iterations) {
                    self.obs.observe("core.gd.frontier_mean", mean as u64);
                }
                let outcome_counter = match outcome.outcome {
                    PairOutcome::Applied => "core.gd.pairs_applied",
                    PairOutcome::RejectedCut => "core.gd.pairs_rejected_cut",
                    PairOutcome::RejectedBalance => "core.gd.pairs_rejected_balance",
                    PairOutcome::Degenerate => "core.gd.pairs_degenerate",
                    PairOutcome::Unreachable => "core.gd.pairs_unreachable",
                };
                self.obs.counter_add(outcome_counter, 1);
                if outcome.gd.iterations > 0 {
                    let (first, last) = (outcome.gd.first_grad_norm, outcome.gd.last_grad_norm);
                    self.obs.gauge_set("core.gd.last_grad_norm_first", first);
                    self.obs.gauge_set("core.gd.last_grad_norm_last", last);
                    if first > 0.0 {
                        let decay_pct = (last / first * 100.0).round().clamp(0.0, 1e9);
                        self.obs
                            .observe("core.gd.grad_norm_decay_pct", decay_pct as u64);
                    }
                }
                for &(v, part) in &outcome.moves {
                    self.move_and_count(v, part);
                    pass.push(v, part);
                }
            }
        }
        Ok(())
    }

    /// Moves `v` to `dst`, keeping the store's loads and its intra/cut
    /// counters exact: the move's [`Self::locality_gain`] is counted
    /// before the move, against the parts as they stand.
    fn move_and_count(&mut self, v: VertexId, dst: u32) {
        let gain = self.locality_gain(v, self.store.shard_of(v), dst);
        let weights = self.graph.weights();
        let row: Vec<f64> = (0..weights.dims()).map(|j| weights.weight(j, v)).collect();
        self.store.move_vertex(v, dst, &row);
        self.store.on_vertex_moved(gain);
    }

    /// Greedy multi-constraint rebalance toward the drift-trigger
    /// threshold.
    ///
    /// Minimizes the potential `Φ = Σ_{p,j} max(0, load_ratio(p,j) − t)²`
    /// with `t = drift_headroom · ε` (sum of squared per-part
    /// per-dimension violations of the *trigger* threshold, not ε itself —
    /// repairing only to ε would leave the imbalance inside the trigger
    /// band and re-run refinement on every subsequent batch): each step
    /// applies the single vertex move — or, when every single move is
    /// blocked by a cross-dimension deadlock, the best vertex *swap* —
    /// that decreases Φ the most. Squared violations make the pass handle
    /// ties at the maximum (where a strict max-decrease rule stalls) and
    /// guarantee monotone progress; Φ = 0 restores slack below the
    /// trigger. Locality is repaired afterwards by the pairwise GD pass.
    ///
    /// The pass runs until Φ = 0 or until no single move or swap lowers Φ;
    /// there is no move budget. It terminates because every applied step
    /// lowers Φ by more than [`Self::MIN_PHI_DROP`]: a step is chosen only
    /// if it lowers Φ by more than that, and the Φ recomputed from the
    /// store at the next step must confirm the drop, so rounding cannot
    /// make the pass cycle. Φ ≥ 0, so a pass that starts at Φ₀ applies at
    /// most Φ₀ / [`Self::MIN_PHI_DROP`] steps.
    ///
    /// Candidates come off call-local [`RebalanceCandidates`] heaps (the
    /// Maas-style prioritized per-block move queues): the overloaded
    /// part's binding dimension names a heap whose top entries are the
    /// moves with the largest relief, so a step costs
    /// O(C·k·d + d·log n) with C = [`Self::REBALANCE_CANDIDATES`] instead
    /// of a full O(n·k·d) rescan, plus one O(n) scan the first time a call
    /// asks for a heap. A full rescan survives only as a fallback for the
    /// rare step where every heavy candidate overshoots (counted in
    /// `stream.refine.full_scans`). Appends every move to `pass`.
    fn greedy_rebalance(&mut self, pass: &mut RefinePass) {
        let target = self.cfg.epsilon * self.cfg.drift_headroom.min(1.0);
        let k = self.cfg.k;
        let dims = self.graph.weights().dims();
        let mut queues = RebalanceCandidates::new(k, dims);
        let mut last_phi = f64::INFINITY;
        loop {
            // Live totals: released weight is already gone. A drained
            // dimension (no live weight at all) can never violate the
            // trigger; an infinite average zeroes all its ratios.
            let avgs: Vec<f64> = (0..dims)
                .map(|j| {
                    let total = self.store.total(j);
                    if total > 0.0 {
                        total / k as f64
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            // Per-part potential contribution.
            let part_phi = |store: &PartitionStore, p: u32| -> f64 {
                (0..dims)
                    .map(|j| {
                        let viol = (store.load(p, j) / avgs[j] - 1.0 - target).max(0.0);
                        viol * viol
                    })
                    .sum()
            };
            let phis: Vec<f64> = (0..k as u32).map(|p| part_phi(&self.store, p)).collect();
            let phi_total: f64 = phis.iter().sum();
            if phi_total <= 0.0 {
                break; // below the trigger threshold in every dimension
            }
            if phi_total > last_phi - Self::MIN_PHI_DROP {
                break; // rounding ate the previous step's predicted drop
            }
            last_phi = phi_total;
            // Work on the worst offender; its most violated dimension
            // names the candidate heap (and steers swap pooling below).
            // Unwraps are invariants: Φ sums validated-finite weights so
            // `partial_cmp` never sees NaN, and `k >= 1` keeps the range
            // non-empty.
            let src = (0..k as u32)
                .max_by(|&a, &b| phis[a as usize].partial_cmp(&phis[b as usize]).unwrap())
                .unwrap();
            let dim = self.binding_dimension(src, &avgs);

            // Prioritized move queue: highest-relief-in-`dim` members of
            // `src`.
            let candidates = queues.top(
                &self.store,
                self.graph.weights(),
                src,
                dim,
                Self::REBALANCE_CANDIDATES,
            );
            // Exact membership check — `len == limit` would misread a part
            // of exactly `limit` members as truncated and rescan the same
            // candidate set.
            let truncated = candidates.len() < self.store.part_size(src);
            let mut best_move =
                self.best_single_move(&candidates, src, target, &avgs, &phis, phi_total);
            if best_move.is_none() && truncated {
                // Every heavy candidate overshoots; the improving move (if
                // any) is a light vertex the heap order deprioritizes.
                // Rescan the full membership once — rare, and counted.
                self.obs.counter_add("stream.refine.full_scans", 1);
                self.obs.journal_event(
                    "rebalance.full_scan",
                    &[("kind", 0.0), ("part", src as f64)],
                );
                let members: Vec<VertexId> = (0..self.store.num_vertices() as VertexId)
                    .filter(|&v| self.store.shard_of(v) == src)
                    .collect();
                best_move = self.best_single_move(&members, src, target, &avgs, &phis, phi_total);
            }
            if let Some((v, dst, _, _)) = best_move {
                self.rebalance_move(&mut queues, pass, v, dst);
                continue;
            }

            // Cross-dimension deadlock (e.g. the only part with headroom in
            // `dim` is itself pinned in another dimension): look for swaps
            // that shed `dim` outbound and relieve the partner's own
            // binding dimension inbound. Pools come off the heaps: the
            // src pool is heavy in `dim`, each dst pool heavy in that
            // part's binding dimension.
            let (mut best_swap, pools_truncated) =
                self.best_swap_from_pools(&mut queues, &candidates, src, dim, target, &avgs, &phis);
            if best_swap.is_none() && pools_truncated {
                // Heap pools missed members that exist; full membership
                // fallback (rare). When the pools already covered every
                // member, a rescan provably finds nothing new.
                self.obs.counter_add("stream.refine.full_scans", 1);
                self.obs.journal_event(
                    "rebalance.full_scan",
                    &[("kind", 1.0), ("part", src as f64)],
                );
                best_swap = self.best_swap_full_scan(src, dim, target, &avgs, &phis);
            }
            let Some((v, u, dst, _)) = best_swap else {
                break; // genuinely stuck — the pass is best-effort
            };
            self.rebalance_move(&mut queues, pass, v, dst);
            self.rebalance_move(&mut queues, pass, u, src);
        }
        self.obs.counter_add("stream.store.heap_pops", queues.pops);
    }

    /// One rebalance move: applied, pushed into the call's candidate
    /// heaps of `dst`, appended to `pass` and marked dirty.
    fn rebalance_move(
        &mut self,
        queues: &mut RebalanceCandidates,
        pass: &mut RefinePass,
        v: VertexId,
        dst: u32,
    ) {
        self.move_and_count(v, dst);
        queues.moved(&self.store, self.graph.weights(), v, dst);
        pass.push(v, dst);
        self.dirty.mark(v);
    }

    /// Heap candidates evaluated per rebalance step before falling back to
    /// a full rescan. Large enough that the fallback fires only on
    /// pathological weight distributions (every heavy vertex overshoots).
    const REBALANCE_CANDIDATES: usize = 32;

    /// The least Φ decrease a rebalance step must achieve to be applied
    /// (see [`Self::greedy_rebalance`]).
    const MIN_PHI_DROP: f64 = 1e-18;

    /// The dimension in which part `p` is most loaded relative to average.
    fn binding_dimension(&self, p: u32, avgs: &[f64]) -> usize {
        // Unwraps are invariants: loads sum validated-finite weights and
        // the rebalance loop only calls this with positive per-dimension
        // averages, so the ratios are never NaN; `dims >= 1` keeps the
        // range non-empty.
        (0..avgs.len())
            .max_by(|&a, &b| {
                let ra = self.store.load(p, a) / avgs[a];
                let rb = self.store.load(p, b) / avgs[b];
                ra.partial_cmp(&rb).unwrap()
            })
            .unwrap()
    }

    /// Post-move Φ of the `(src, dst)` pair, given the signed weight delta
    /// `dv[j]` leaving `src` for `dst`.
    fn pair_phi_after(&self, src: u32, dst: u32, dv: &[f64], target: f64, avgs: &[f64]) -> f64 {
        let mut phi = 0.0;
        for (j, &d) in dv.iter().enumerate() {
            let s = ((self.store.load(src, j) - d) / avgs[j] - 1.0 - target).max(0.0);
            let t = ((self.store.load(dst, j) + d) / avgs[j] - 1.0 - target).max(0.0);
            phi += s * s + t * t;
        }
        phi
    }

    /// Best Φ-decreasing single move among `candidates` (all in `src`),
    /// ties broken on locality gain.
    fn best_single_move(
        &self,
        candidates: &[VertexId],
        src: u32,
        target: f64,
        avgs: &[f64],
        phis: &[f64],
        phi_total: f64,
    ) -> Option<(VertexId, u32, f64, i64)> {
        let weights = self.graph.weights();
        let dims = avgs.len();
        let k = self.cfg.k;
        let mut dv = vec![0.0f64; dims];
        let mut best: Option<(VertexId, u32, f64, i64)> = None;
        for &v in candidates {
            for (j, slot) in dv.iter_mut().enumerate() {
                *slot = weights.weight(j, v);
            }
            for dst in (0..k as u32).filter(|&q| q != src) {
                let pair_before = phis[src as usize] + phis[dst as usize];
                let delta = self.pair_phi_after(src, dst, &dv, target, avgs) - pair_before;
                if delta >= -Self::MIN_PHI_DROP {
                    continue;
                }
                let new_phi = phi_total + delta;
                let gain = self.locality_gain(v, src, dst);
                let better = match best {
                    None => true,
                    Some((_, _, bp, bg)) => {
                        new_phi < bp - 1e-15 || (new_phi < bp + 1e-15 && gain > bg)
                    }
                };
                if better {
                    best = Some((v, dst, new_phi, gain));
                }
            }
        }
        best
    }

    /// Best Φ-decreasing swap with candidate pools popped off the
    /// call's rebalance heaps (`src_pool` is the step's already-fetched
    /// heavy-in-`dim` queue of `src`; each dst pool is heavy in that
    /// part's binding dimension), re-ranked by the cross-dimension relief
    /// scores. The second return is whether any pool left members unseen —
    /// only then can the full-membership fallback find anything the pools
    /// could not.
    #[allow(clippy::too_many_arguments)]
    fn best_swap_from_pools(
        &self,
        queues: &mut RebalanceCandidates,
        src_pool: &[VertexId],
        src: u32,
        dim: usize,
        target: f64,
        avgs: &[f64],
        phis: &[f64],
    ) -> (Option<(VertexId, VertexId, u32, f64)>, bool) {
        let k = self.cfg.k;
        let mut truncated = src_pool.len() < self.store.part_size(src);
        let mut best: Option<(VertexId, VertexId, u32, f64)> = None;
        for dst in (0..k as u32).filter(|&q| q != src) {
            let binding = self.binding_dimension(dst, avgs);
            let dst_pool = queues.top(
                &self.store,
                self.graph.weights(),
                dst,
                binding,
                Self::REBALANCE_CANDIDATES,
            );
            truncated |= dst_pool.len() < self.store.part_size(dst);
            self.scan_swap_pairs(
                src, dst, dim, binding, src_pool, &dst_pool, 16, target, avgs, phis, &mut best,
            );
        }
        (best, truncated)
    }

    /// Swap fallback over the full membership lists — exhaustive, no
    /// relief-score pruning. The pruned pools rank candidates by how much
    /// they relieve the two binding dimensions, which misses the swaps
    /// churn makes load-bearing: when every part near its cap differs in
    /// *which* dimension binds (e.g. removals drained one part's degree
    /// load while drift filled its unit load), the improving exchange
    /// pairs a heavy src vertex with a *light* dst vertex that scores at
    /// the bottom of every relief ranking. Rare (counted in
    /// `stream.refine.full_scans`), so the O(|src|·|dst|·d) sweep is
    /// acceptable where leaving ε violated is not.
    fn best_swap_full_scan(
        &self,
        src: u32,
        dim: usize,
        target: f64,
        avgs: &[f64],
        phis: &[f64],
    ) -> Option<(VertexId, VertexId, u32, f64)> {
        let k = self.cfg.k;
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for v in 0..self.store.num_vertices() as VertexId {
            let p = self.store.shard_of(v);
            if p != TOMBSTONE {
                members[p as usize].push(v);
            }
        }
        let mut best: Option<(VertexId, VertexId, u32, f64)> = None;
        for dst in (0..k as u32).filter(|&q| q != src) {
            let binding = self.binding_dimension(dst, avgs);
            self.scan_swap_pairs(
                src,
                dst,
                dim,
                binding,
                &members[src as usize],
                &members[dst as usize],
                usize::MAX,
                target,
                avgs,
                phis,
                &mut best,
            );
        }
        best
    }

    /// Evaluates the top `pool_cap`×`pool_cap` swap pairs of the given
    /// pools (ranked by the cross-dimension relief scores; `usize::MAX`
    /// disables the pruning) against Φ, updating `best`.
    #[allow(clippy::too_many_arguments)]
    fn scan_swap_pairs(
        &self,
        src: u32,
        dst: u32,
        dim: usize,
        binding: usize,
        src_pool: &[VertexId],
        dst_pool: &[VertexId],
        pool_cap: usize,
        target: f64,
        avgs: &[f64],
        phis: &[f64],
        best: &mut Option<(VertexId, VertexId, u32, f64)>,
    ) {
        let weights = self.graph.weights();
        let dims = avgs.len();
        let pair_before = phis[src as usize] + phis[dst as usize];
        let phi_rest: f64 = phis.iter().sum::<f64>() - pair_before;
        let out_score = |v: VertexId| {
            weights.weight(dim, v) / avgs[dim] - weights.weight(binding, v) / avgs[binding]
        };
        let in_score = |u: VertexId| {
            weights.weight(binding, u) / avgs[binding] - weights.weight(dim, u) / avgs[dim]
        };
        let src_out = top_by(src_pool, pool_cap, out_score);
        let dst_in = top_by(dst_pool, pool_cap, in_score);
        let mut dv = vec![0.0f64; dims];
        for &v in &src_out {
            for &u in &dst_in {
                for (j, slot) in dv.iter_mut().enumerate() {
                    *slot = weights.weight(j, v) - weights.weight(j, u);
                }
                let delta = self.pair_phi_after(src, dst, &dv, target, avgs) - pair_before;
                if delta >= -Self::MIN_PHI_DROP {
                    continue;
                }
                let new_phi = phi_rest + pair_before + delta;
                if best.as_ref().is_none_or(|&(_, _, _, bp)| new_phi < bp) {
                    *best = Some((v, u, dst, new_phi));
                }
            }
        }
    }

    /// Net intra-edge change if `v` moved from `src` to `dst`.
    fn locality_gain(&self, v: VertexId, src: u32, dst: u32) -> i64 {
        let mut gain = 0i64;
        for u in self.graph.neighbors(v) {
            let pu = self.store.shard_of(u);
            if pu == dst {
                gain += 1;
            } else if pu == src {
                gain -= 1;
            }
        }
        gain
    }
}

/// The rebalance candidate queues of one
/// [`StreamingPartitioner::greedy_rebalance`] call: a max-heap per
/// `(part, dimension)` of the part's members, keyed by
/// [`PartitionStore::relief_key`] with ties to the larger id. Heap
/// `(p, j)` is built by one scan of the assignment the first time the call
/// asks for it, and all of them drop with the call. Rebalance moves change
/// neither weights nor totals, so keys stay exact for the whole call: a
/// move into `p` pushes the vertex into `p`'s built heaps, and an entry
/// whose vertex has left `p` is dropped when popped. [`Self::top`] thus
/// pops exactly what a heap freshly built from the store as it stands
/// would, and the engine keeps no rebalance state between calls.
pub(crate) struct RebalanceCandidates {
    dims: usize,
    /// `heaps[p * dims + j]`, `None` until the call first asks for it.
    heaps: Vec<Option<BinaryHeap<Candidate>>>,
    /// Entries popped, stale ones included (`stream.store.heap_pops`).
    pops: u64,
}

/// One [`RebalanceCandidates`] heap entry: vertex `v` with relief key `key`.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    key: f64,
    v: VertexId,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.v.cmp(&other.v))
    }
}

impl RebalanceCandidates {
    pub(crate) fn new(k: usize, dims: usize) -> Self {
        Self {
            dims,
            heaps: vec![None; k * dims],
            pops: 0,
        }
    }

    /// The up-to-`limit` members of part `p` with the largest relief key
    /// in dimension `j` at the current totals, largest first, ties to the
    /// larger id. Fewer when the part is smaller.
    pub(crate) fn top(
        &mut self,
        store: &PartitionStore,
        weights: &VertexWeights,
        p: u32,
        j: usize,
        limit: usize,
    ) -> Vec<VertexId> {
        let mut row = vec![0.0; self.dims];
        let heap = self.heaps[p as usize * self.dims + j].get_or_insert_with(|| {
            (0..store.num_vertices() as VertexId)
                .filter(|&v| store.shard_of(v) == p)
                .map(|v| Candidate {
                    key: relief_key(store, weights, &mut row, j, v),
                    v,
                })
                .collect()
        });
        let mut taken: Vec<Candidate> = Vec::with_capacity(limit);
        while taken.len() < limit {
            let Some(c) = heap.pop() else {
                break;
            };
            self.pops += 1;
            // A vertex that left `p` and came back has a second entry.
            if store.shard_of(c.v) == p && taken.iter().all(|t| t.v != c.v) {
                taken.push(c);
            }
        }
        heap.extend(&taken);
        taken.iter().map(|c| c.v).collect()
    }

    /// Pushes `v`, just moved into part `dst`, into every heap of `dst`
    /// built so far (a heap built later finds it in its scan).
    pub(crate) fn moved(
        &mut self,
        store: &PartitionStore,
        weights: &VertexWeights,
        v: VertexId,
        dst: u32,
    ) {
        let mut row = vec![0.0; self.dims];
        for j in 0..self.dims {
            if let Some(heap) = &mut self.heaps[dst as usize * self.dims + j] {
                heap.push(Candidate {
                    key: relief_key(store, weights, &mut row, j, v),
                    v,
                });
            }
        }
    }
}

/// [`PartitionStore::relief_key`] of `v` in dimension `j`, with `row` as
/// scratch for `v`'s weight row.
fn relief_key(
    store: &PartitionStore,
    weights: &VertexWeights,
    row: &mut [f64],
    j: usize,
    v: VertexId,
) -> f64 {
    for (i, w) in row.iter_mut().enumerate() {
        *w = weights.weight(i, v);
    }
    store.relief_key(j, row)
}

/// Builds pair `r` of `round` as its reduced GD problem, from the pass's
/// gathered `adjacency`, the members' weight rows and the store's part
/// loads: edges to other movable vertices stay, and the rest of the pair
/// is eliminated, its mass taken from the part loads. Reads only state
/// that no other pair of the round writes, and visits only the pair's
/// members and their gathered rows.
fn pair_problem(
    adjacency: &ActiveAdjacency,
    round: &PairRound,
    r: usize,
    weights: &VertexWeights,
    store: &PartitionStore,
) -> PairProblem {
    let (p, q) = round.pair(r);
    let dims = weights.dims();
    let loads = |part: u32| -> Vec<f64> { (0..dims).map(|j| store.load(part, j)).collect() };
    let totals: Vec<f64> = (0..dims).map(|j| store.total(j)).collect();
    adjacency.pair_problem(
        round,
        r,
        weights,
        [&loads(p), &loads(q)],
        store.part_size(p) + store.part_size(q),
        &totals,
    )
}

/// The `limit` highest-scoring vertices of `list` (O(p) selection, order
/// within the result unspecified).
fn top_by(list: &[VertexId], limit: usize, score: impl Fn(VertexId) -> f64) -> Vec<VertexId> {
    let mut v = list.to_vec();
    if v.len() > limit {
        // Invariant: every score is a sum/ratio of validated-finite
        // weights, so `partial_cmp` never sees NaN.
        v.select_nth_unstable_by(limit - 1, |&a, &b| score(b).partial_cmp(&score(a)).unwrap());
        v.truncate(limit);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbgp_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn community(n: usize, seed: u64) -> (Graph, VertexWeights) {
        let cg = gen::community_graph(
            &gen::CommunityGraphConfig::social(n),
            &mut StdRng::seed_from_u64(seed),
        );
        let w = VertexWeights::vertex_edge(&cg.graph);
        (cg.graph, w)
    }

    fn fast_cfg(k: usize, eps: f64) -> StreamConfig {
        let mut cfg = StreamConfig::new(k, eps);
        cfg.gd = GdConfig {
            iterations: 40,
            ..GdConfig::with_epsilon(eps)
        };
        cfg
    }

    #[test]
    fn bootstrap_and_serve() {
        let (g, w) = community(800, 1);
        let sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(4, 0.05)).unwrap();
        assert!(sp.max_imbalance() <= 0.05 + 1e-9);
        assert!(sp.store().edge_locality() > 0.25);
        assert!(sp.shard_of(0) < 4);
    }

    #[test]
    fn ingest_places_arrivals_within_epsilon() {
        let (g, w) = community(600, 2);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(4, 0.05)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let mut batch = UpdateBatch::new();
            for _ in 0..30 {
                let n = 600; // conservative: attach to bootstrap vertices
                let nbrs: Vec<u32> = (0..4).map(|_| rng.gen_range(0..n as u32)).collect();
                batch.add_vertex(vec![1.0, nbrs.len() as f64], nbrs);
            }
            let report = sp.ingest(&batch).unwrap();
            assert!(
                report.max_imbalance <= 0.05 + 1e-9,
                "imbalance {} after batch",
                report.max_imbalance
            );
        }
        assert_eq!(sp.graph().num_vertices(), 750);
        assert_eq!(sp.metrics().counter("stream.ingest.arrivals"), 150);
    }

    #[test]
    fn weight_drift_triggers_refinement_and_recovers_epsilon() {
        let (g, w) = community(600, 3);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(4, 0.05)).unwrap();
        // Drift: inflate the unit weight of one shard's vertices 3x.
        let victims: Vec<u32> = (0..600u32).filter(|&v| sp.shard_of(v) == 0).collect();
        let mut batch = UpdateBatch::new();
        for &v in &victims {
            batch.set_weight(v, 0, 3.0);
        }
        let report = sp.ingest(&batch).unwrap();
        assert!(report.refined, "drift must trigger refinement");
        assert!(
            report.max_imbalance <= 0.05 + 1e-9,
            "refinement must restore ε, got {}",
            report.max_imbalance
        );
        assert!(sp.metrics().counter("stream.refine.passes") >= 1);
    }

    /// The rebalance has no move budget: a drift batch that needs more
    /// moves than the former fixed cap of 256 gets them all in one pass,
    /// under the default configuration, and ε holds in every dimension
    /// afterwards.
    #[test]
    fn one_rebalance_pass_moves_as_far_as_epsilon_needs() {
        const EPS: f64 = 0.05;
        let n = 4000u32;
        // Part 0 holds vertices 0..2000. Its first 1500 get a dimension-0
        // spike below; their light dimension-1 weight keeps the spike's
        // natural relief (moving them to part 1) clear of dimension 1's
        // cap.
        let labels: Vec<u32> = (0..n).map(|v| u32::from(v >= n / 2)).collect();
        let dim1: Vec<f64> = (0..n)
            .map(|v| match v {
                0..=1499 => 0.1,
                1500..=1999 => 3.7,
                _ => 1.0,
            })
            .collect();
        let w = VertexWeights::from_vectors(vec![vec![1.0; n as usize], dim1]);
        let part = Partition::new(labels, 2);
        let cfg = StreamConfig::new(2, EPS);
        let mut sp =
            StreamingPartitioner::from_partition(Graph::empty(n as usize), w, &part, cfg).unwrap();
        assert!(sp.max_imbalance() <= 1e-9);
        let mut batch = UpdateBatch::new();
        for v in 0..1500 {
            batch.set_weight(v, 0, 2.0);
        }
        let report = sp.ingest(&batch).unwrap();
        assert!(report.refined, "a 27 % overload triggers refinement");
        assert!(
            report.rebalance_moves > 256,
            "the spike needs more than 256 moves, the pass made {}",
            report.rebalance_moves
        );
        let store = sp.store();
        for j in 0..2 {
            let avg = store.total(j) / 2.0;
            for p in 0..2 {
                let imbalance = store.load(p, j) / avg - 1.0;
                assert!(
                    imbalance <= EPS + 1e-9,
                    "part {p} dimension {j} is {:.2} % over",
                    imbalance * 100.0
                );
            }
        }
    }

    #[test]
    fn edge_stream_between_existing_vertices() {
        let (g, w) = community(400, 4);
        let m0 = g.num_edges();
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(2, 0.05)).unwrap();
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 200).add_edge(1, 300).add_edge(0, 200); // dup ignored
        let report = sp.ingest(&batch).unwrap();
        assert!(report.edges_added <= 2);
        assert!(sp.graph().num_edges() <= m0 + 2);
    }

    #[test]
    fn cold_start_streams_from_nothing() {
        let mut cfg = fast_cfg(2, 0.3);
        cfg.refine_every = 0;
        let mut sp = StreamingPartitioner::empty(1, cfg).unwrap();
        let mut batch = UpdateBatch::new();
        for i in 0..40u32 {
            let nbrs = if i == 0 { vec![] } else { vec![i - 1] };
            batch.add_vertex(vec![1.0], nbrs);
        }
        sp.ingest(&batch).unwrap();
        assert_eq!(sp.graph().num_vertices(), 40);
        assert_eq!(sp.graph().num_edges(), 39);
        assert!(sp.max_imbalance() <= 0.3 + 1e-9, "{}", sp.max_imbalance());
    }

    #[test]
    fn rejects_malformed_updates() {
        let (g, w) = community(100, 5);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(2, 0.1)).unwrap();
        let mut bad_arity = UpdateBatch::new();
        bad_arity.add_vertex(vec![1.0], vec![]);
        assert!(sp.ingest(&bad_arity).is_err(), "dims mismatch");
        let mut bad_edge = UpdateBatch::new();
        bad_edge.add_edge(0, 10_000);
        assert!(sp.ingest(&bad_edge).is_err());
        let mut bad_weight = UpdateBatch::new();
        bad_weight.set_weight(0, 7, 1.0);
        assert!(sp.ingest(&bad_weight).is_err());
        // Non-positive / non-finite weight values are Err, not panics.
        let mut zero_weight = UpdateBatch::new();
        zero_weight.set_weight(0, 0, 0.0);
        assert!(sp.ingest(&zero_weight).is_err());
        let mut nan_vertex = UpdateBatch::new();
        nan_vertex.add_vertex(vec![1.0, f64::NAN], vec![]);
        assert!(sp.ingest(&nan_vertex).is_err());
    }

    #[test]
    fn rejection_names_the_offending_update() {
        // All-or-nothing rejection is only operable if the error says
        // *which* update sank the batch (and, for edges, which endpoint).
        let (g, w) = community(100, 8);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(2, 0.1)).unwrap();
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 1); // fine
        batch.add_edge(2, 3); // fine
        batch.add_edge(4, 50_000); // index 2, endpoint 50000
        let msg = sp.ingest(&batch).unwrap_err().to_string();
        assert!(msg.contains("update 2"), "missing update index: {msg}");
        assert!(msg.contains("50000"), "missing offending endpoint: {msg}");

        let mut batch = UpdateBatch::new();
        batch.set_weight(5, 9, 1.0);
        let msg = sp.ingest(&batch).unwrap_err().to_string();
        assert!(msg.contains("update 0"), "{msg}");
        assert!(msg.contains("dimension 9"), "{msg}");

        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![1.0, 1.0], vec![]);
        batch.add_vertex(vec![1.0], vec![]); // index 1, wrong arity
        let msg = sp.ingest(&batch).unwrap_err().to_string();
        assert!(msg.contains("update 1"), "{msg}");
    }

    #[test]
    fn ingest_is_all_or_nothing() {
        // A bad update anywhere in the batch must leave the engine
        // untouched — callers may retry a corrected batch safely.
        let (g, w) = community(100, 7);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(2, 0.1)).unwrap();
        let before_n = sp.graph().num_vertices();
        let before_m = sp.graph().num_edges();
        let before_metrics = sp.metrics().deterministic_json(METRIC_ALLOWLIST);
        let before_view = sp.read_view().epoch();
        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![1.0, 2.0], vec![0, 1]);
        batch.add_edge(0, 50_000); // invalid mid-batch
        assert!(sp.ingest(&batch).is_err());
        assert_eq!(
            sp.graph().num_vertices(),
            before_n,
            "vertex leaked from failed batch"
        );
        assert_eq!(sp.graph().num_edges(), before_m);
        assert_eq!(
            sp.metrics().deterministic_json(METRIC_ALLOWLIST),
            before_metrics,
            "counters advanced on failed batch"
        );
        assert_eq!(sp.read_view().epoch(), before_view);
        // An edge referencing a vertex added earlier in the same batch is
        // valid.
        let mut ok = UpdateBatch::new();
        ok.add_vertex(vec![1.0, 1.0], vec![0]);
        ok.add_edge(100, 5);
        let report = sp.ingest(&ok).unwrap();
        assert_eq!(report.vertices_added, 1);
        assert_eq!(report.edges_added, 2);
    }

    #[test]
    fn drift_trigger_clears_after_refinement() {
        // Rebalance must repair below the trigger threshold
        // (drift_headroom·ε), not merely to ε, or every subsequent batch
        // re-runs a full refinement pass.
        let (g, w) = community(600, 9);
        let cfg = fast_cfg(4, 0.05);
        let mut sp = StreamingPartitioner::bootstrap(g, w, cfg.clone()).unwrap();
        let victims: Vec<u32> = (0..600u32).filter(|&v| sp.shard_of(v) == 0).collect();
        let mut batch = UpdateBatch::new();
        for &v in &victims {
            batch.set_weight(v, 0, 3.0);
        }
        let report = sp.ingest(&batch).unwrap();
        assert!(report.refined);
        assert!(
            sp.max_imbalance() <= cfg.drift_headroom * cfg.epsilon + 1e-9,
            "rebalance must clear the trigger band, got {}",
            sp.max_imbalance()
        );
        // A benign follow-up batch must not re-trigger refinement.
        let refinements_before = sp.metrics().counter("stream.refine.passes");
        let mut benign = UpdateBatch::new();
        benign.add_edge(0, 1);
        let report = sp.ingest(&benign).unwrap();
        assert!(
            !report.refined,
            "steady state must not re-trigger refinement"
        );
        assert_eq!(
            sp.metrics().counter("stream.refine.passes"),
            refinements_before
        );
    }

    #[test]
    fn removals_release_capacity_and_hold_epsilon() {
        let (g, w) = community(600, 12);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(4, 0.05)).unwrap();
        let before_n = sp.graph().num_live_vertices();
        let before_m = sp.graph().num_edges();
        // Concentrate removals on one shard so the *relative* overload of
        // the others crosses the trigger — no weight is added anywhere.
        let victims: Vec<u32> = (0..600u32)
            .filter(|&v| sp.shard_of(v) == 0)
            .take(80)
            .collect();
        let mut batch = UpdateBatch::new();
        for &v in &victims {
            batch.remove_vertex(v);
        }
        let report = sp.ingest(&batch).unwrap();
        assert_eq!(report.vertices_removed, 80);
        assert!(report.edges_removed > 0, "victims had edges");
        assert!(
            report.refined,
            "draining a shard must register as drift (imbalance {})",
            report.max_imbalance
        );
        assert!(
            report.max_imbalance <= 0.05 + 1e-9,
            "refinement must restore ε after removals, got {}",
            report.max_imbalance
        );
        assert_eq!(sp.graph().num_live_vertices(), before_n - 80);
        assert!(sp.graph().num_edges() < before_m);
        // The victims' edges outgrew the compaction slack, so the batch
        // purged before refining: ids remapped.
        let map = report
            .remap
            .expect("the slack-triggered compaction purges tombstones");
        for &v in &victims {
            assert_eq!(map[v as usize], crate::TOMBSTONE);
        }
        assert_eq!(sp.store().num_vertices(), before_n - 80);
        assert_eq!(sp.store().num_assigned(), before_n - 80);
    }

    #[test]
    fn drift_trigger_sees_removals_in_both_directions() {
        // Deterministic loads: path of 6 unit vertices split 4/2.
        // Initial imbalance 4/3 − 1 = 1/3, below the 0.45 trigger.
        let g = gen::path(6);
        let w = VertexWeights::unit(6);
        let part = Partition::new(vec![0, 0, 0, 0, 1, 1], 2);
        let mut cfg = fast_cfg(2, 0.5);
        cfg.compact_slack = 0.45; // keep the mid-test purge out of the way
        let mut sp = StreamingPartitioner::from_partition(g, w, &part, cfg).unwrap();
        assert!((sp.max_imbalance() - 1.0 / 3.0).abs() < 1e-12);

        // Relax direction: removing from the heavier part lowers the
        // imbalance (3 / 2.5 − 1 = 0.2) — no refinement.
        let mut batch = UpdateBatch::new();
        batch.remove_vertex(0);
        let report = sp.ingest(&batch).unwrap();
        assert!(!report.refined, "relief must not trigger refinement");
        assert!((report.max_imbalance - 0.2).abs() < 1e-12);
        assert_eq!(sp.shard_of(0), crate::TOMBSTONE);

        // Tighten direction: removing from the *lighter* part shrinks the
        // average, so the heavy part's relative overload crosses the
        // trigger (3 / 2 − 1 = 0.5 > 0.45) with no weight added anywhere.
        let mut batch = UpdateBatch::new();
        batch.remove_vertex(5);
        let report = sp.ingest(&batch).unwrap();
        assert!(report.refined, "relative overload must trigger refinement");
        assert!(
            report.max_imbalance <= 0.5 + 1e-9,
            "got {}",
            report.max_imbalance
        );
    }

    #[test]
    fn purge_remap_preserves_assignments() {
        let (g, w) = community(400, 11);
        // Unreachable drift trigger so nothing refines (and no moves
        // muddy the check); low slack so the dead fraction forces a purge
        // at batch end.
        let mut cfg = fast_cfg(4, 0.05);
        cfg.drift_headroom = 50.0;
        cfg.compact_slack = 0.05;
        let mut sp = StreamingPartitioner::bootstrap(g, w, cfg).unwrap();
        let shards_before: Vec<u32> = (0..400u32).map(|v| sp.shard_of(v)).collect();
        let mut batch = UpdateBatch::new();
        for v in 0..30u32 {
            batch.remove_vertex(v * 13);
        }
        let report = sp.ingest(&batch).unwrap();
        assert!(!report.refined, "loose ε keeps refinement off");
        let map = report.remap.expect("dead fraction must force a purge");
        assert_eq!(map.len(), 400);
        let mut live = 0usize;
        for v in 0..400u32 {
            if v % 13 == 0 && v / 13 < 30 {
                assert_eq!(map[v as usize], crate::TOMBSTONE);
            } else {
                let new = map[v as usize];
                assert_ne!(new, crate::TOMBSTONE);
                assert_eq!(
                    sp.shard_of(new),
                    shards_before[v as usize],
                    "remap moved vertex {v} between shards"
                );
                live += 1;
            }
        }
        assert_eq!(sp.graph().num_vertices(), live);
        assert_eq!(sp.graph().num_tombstoned(), 0);
        // The counters must agree exactly with a rebuild from the
        // post-purge edge set.
        let mut oracle = sp.store().clone();
        oracle.rebuild_edge_stats(sp.graph().csr().edges());
        assert_eq!(sp.store().cut_edges(), oracle.cut_edges());
        assert!((sp.store().edge_locality() - oracle.edge_locality()).abs() < 1e-12);
        // Ids are stable again: a follow-up batch reports no remap.
        let mut benign = UpdateBatch::new();
        benign.add_edge(0, 1);
        assert!(sp.ingest(&benign).unwrap().remap.is_none());
        // The slack-triggered purge is timed as a `compact` span under
        // `refine`, an explicit purge as a root `compact` span, and the
        // compaction gauge mirrors the two.
        assert!(sp.purge().is_none());
        let m = sp.metrics();
        let stat = |path| m.span_stat(path).expect("compaction timed");
        let (ingest, explicit) = (stat("ingest.refine.compact"), stat("compact"));
        assert_eq!((ingest.count, explicit.count), (1, 1));
        assert_eq!(
            m.gauge("stream.compact.parallel_ms"),
            Some(ingest.total_ms + explicit.total_ms)
        );
    }

    #[test]
    fn duplicate_heavy_batch_keeps_edge_stats_exact() {
        // Regression: re-reported edges (base duplicates, in-batch
        // duplicates, remove + re-add cycles) must not drift the
        // incremental intra/cut counters away from the graph. The oracle
        // is a wholesale rebuild from the live edge set.
        let (g, w) = community(300, 14);
        let (u0, v0) = g.edges().next().unwrap();
        // A pair guaranteed absent from the base graph.
        let far = (8..300u32).find(|&x| !g.has_edge(7, x)).unwrap();
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(2, 0.1)).unwrap();
        let mut batch = UpdateBatch::new();
        batch.add_edge(u0, v0); // duplicates a base edge
        batch.add_edge(u0, v0); // twice
        batch.add_edge(7, far).add_edge(7, far); // in-batch duplicate
        batch.remove_edge(u0, v0); // tombstone a base edge...
        batch.add_edge(v0, u0); // ...and resurrect it
        batch.remove_edge(7, far); // drop the fresh delta edge
        batch.remove_edge(7, far); // removing it twice is a no-op
        batch.add_vertex(vec![1.0, 3.0], vec![3, 3, 9]); // duplicate nbr
        let report = sp.ingest(&batch).unwrap();
        assert_eq!(report.edges_added, 4, "dup adds must not count");
        assert_eq!(report.edges_removed, 2);
        let live_edges: Vec<(u32, u32)> = sp.graph().snapshot().edges().collect();
        let mut oracle = sp.store().clone();
        oracle.rebuild_edge_stats(live_edges.into_iter());
        assert_eq!(sp.store().cut_edges(), oracle.cut_edges());
        assert!(
            (sp.store().edge_locality() - oracle.edge_locality()).abs() < 1e-12,
            "incremental locality {} drifted from rebuilt {}",
            sp.store().edge_locality(),
            oracle.edge_locality()
        );
    }

    #[test]
    fn removal_validation_names_the_offending_update() {
        let (g, w) = community(100, 15);
        // Unreachable trigger and few removals: no refinement and no
        // slack-triggered purge, so the cross-batch "was removed" case
        // below keeps its id.
        let mut cfg = fast_cfg(2, 0.1);
        cfg.drift_headroom = 50.0;
        let mut sp = StreamingPartitioner::bootstrap(g, w, cfg).unwrap();

        let mut batch = UpdateBatch::new();
        batch.remove_vertex(5);
        batch.remove_vertex(5); // index 1: removed earlier in this batch
        let msg = sp.ingest(&batch).unwrap_err().to_string();
        assert!(msg.contains("update 1"), "{msg}");
        assert!(msg.contains("removed earlier in this batch"), "{msg}");

        let mut batch = UpdateBatch::new();
        batch.remove_vertex(50_000);
        let msg = sp.ingest(&batch).unwrap_err().to_string();
        assert!(msg.contains("update 0") && msg.contains("50000"), "{msg}");

        let mut batch = UpdateBatch::new();
        batch.remove_vertex(7);
        batch.remove_edge(7, 8); // index 1, endpoint 7 just removed
        let msg = sp.ingest(&batch).unwrap_err().to_string();
        assert!(msg.contains("update 1"), "{msg}");
        assert!(msg.contains("endpoint 7"), "{msg}");

        // Failed batches are all-or-nothing: vertex 5 and 7 still live.
        assert!(sp.graph().is_live(5) && sp.graph().is_live(7));
        assert_eq!(sp.metrics().counter("stream.ingest.removals"), 0);

        // Cross-batch: a vertex removed by an earlier batch is named as
        // such, not as unknown.
        let mut ok = UpdateBatch::new();
        ok.remove_vertex(9);
        sp.ingest(&ok).unwrap();
        let mut bad = UpdateBatch::new();
        bad.set_weight(9, 0, 2.0);
        let msg = sp.ingest(&bad).unwrap_err().to_string();
        assert!(msg.contains("removed by an earlier batch"), "{msg}");
    }

    #[test]
    fn capacity_conflicts_are_repaired_within_epsilon() {
        // Tiny slack and every arrival pulled toward the same part: each
        // speculative chunk fits its own arrivals under the slab, but the
        // merged reservations oversubscribe part 0 — the repair stage must
        // evict the losers and land the batch within ε without any help
        // from refinement (disabled via an unreachable trigger).
        const EPS: f64 = 0.05;
        let n = 200;
        let g = gen::path(n);
        let w = VertexWeights::unit(n);
        let labels: Vec<u32> = (0..n as u32)
            .map(|v| (v as usize / (n / 2)) as u32)
            .collect();
        let part = Partition::new(labels, 2);
        let build = |threads: usize| {
            let mut cfg = fast_cfg(2, EPS).with_threads(threads);
            cfg.drift_headroom = 50.0;
            StreamingPartitioner::from_partition(g.clone(), w.clone(), &part, cfg).unwrap()
        };
        let mut batch = UpdateBatch::new();
        let arrivals = 320usize; // > 2 × SPECULATIVE_CHUNK: several chunks
        for i in 0..arrivals as u32 {
            // Three neighbours, all in part 0 (ids 0..100).
            let nbrs = vec![i % 100, (i * 7 + 13) % 100, (i * 3 + 29) % 100];
            batch.add_vertex(vec![1.0], nbrs);
        }
        let mut serial = build(1);
        let report = serial.ingest(&batch).unwrap();
        assert!(!report.refined, "repair alone must absorb the batch");
        assert!(
            report.placement_conflicts > 0,
            "chunks fighting for part 0 must conflict"
        );
        assert!(report.repair_passes >= 1);
        assert!(
            report.max_imbalance <= EPS + 1e-9,
            "repair must restore ε, got {}",
            report.max_imbalance
        );
        let m = serial.metrics();
        assert_eq!(
            m.counter("stream.place.conflicts"),
            report.placement_conflicts as u64
        );
        assert_eq!(
            m.counter("stream.place.repair_passes"),
            report.repair_passes as u64
        );
        // Stable eviction order: the earliest arrivals keep the preferred
        // part; the losers are the latest.
        let first = report.arrival_ids[0];
        let last = *report.arrival_ids.last().unwrap();
        assert_eq!(serial.shard_of(first), 0);
        assert_eq!(serial.shard_of(last), 1);
        // Thread count is invisible: identical report, identical partition.
        let mut threaded = build(4);
        let report4 = threaded.ingest(&batch).unwrap();
        assert_eq!(report, report4);
        assert_eq!(serial.store().as_slice(), threaded.store().as_slice());
    }

    #[test]
    fn speculative_repair_cascades_across_rounds_deterministically() {
        // Affinity ladder: every arrival has two neighbours in part 0 and
        // one in part 1. Stage 3 sends the whole batch to part 0; repair
        // evicts the overflow, whose re-score prefers part 1 — every
        // speculative chunk fills it concurrently, oversubscribing it in
        // turn — so a second speculative round must fire before the
        // remainder settles in part 2.
        const EPS: f64 = 0.05;
        let g = Graph::empty(3);
        let w = VertexWeights::unit(3);
        let part = Partition::new(vec![0, 0, 1], 3);
        let build = |threads: usize| {
            let mut cfg = fast_cfg(3, EPS).with_threads(threads);
            cfg.drift_headroom = 50.0; // repair alone must absorb the batch
            StreamingPartitioner::from_partition(g.clone(), w.clone(), &part, cfg).unwrap()
        };
        let mut batch = UpdateBatch::new();
        for _ in 0..900 {
            batch.add_vertex(vec![1.0], vec![0, 1, 2]);
        }
        let mut serial = build(1);
        let report = serial.ingest(&batch).unwrap();
        assert!(!report.refined);
        assert!(
            report.repair_spec_rounds >= 2,
            "the cascade must take at least two speculative rounds, got {}",
            report.repair_spec_rounds
        );
        assert!(report.repair_passes >= report.repair_spec_rounds);
        assert!(
            report.placement_conflicts > 2 * crate::pipeline::REPAIR_SERIAL_THRESHOLD,
            "both rounds must be above the serial threshold"
        );
        assert!(
            report.max_imbalance <= EPS + 1e-9,
            "repair must restore ε, got {}",
            report.max_imbalance
        );
        assert_eq!(
            serial.metrics().counter("stream.place.repair_passes"),
            report.repair_passes as u64
        );
        // Thread count is invisible: identical report (speculative round
        // count included), identical partition.
        let mut threaded = build(4);
        assert_eq!(report, threaded.ingest(&batch).unwrap());
        assert_eq!(serial.store().as_slice(), threaded.store().as_slice());
    }

    #[test]
    fn arrival_ids_are_recycled_and_reported() {
        let (g, w) = community(100, 21);
        let mut cfg = fast_cfg(4, 0.1);
        cfg.drift_headroom = 50.0; // no refinement moves
        cfg.compact_slack = 0.9;
        let mut sp = StreamingPartitioner::bootstrap(g, w, cfg).unwrap();

        // Free two ids; the next arrivals recycle them LIFO, then extend.
        let mut batch = UpdateBatch::new();
        batch.remove_vertex(10).remove_vertex(20);
        let report = sp.ingest(&batch).unwrap();
        assert!(report.arrival_ids.is_empty());
        assert_eq!(sp.shard_of(10), crate::TOMBSTONE);

        let mut batch = UpdateBatch::new();
        for _ in 0..3 {
            batch.add_vertex(vec![1.0, 1.0], vec![0, 1]);
        }
        let report = sp.ingest(&batch).unwrap();
        assert_eq!(report.arrival_ids, vec![20, 10, 100]);
        assert_eq!(report.vertices_added, 3);
        assert_eq!(report.edges_added, 6);
        assert_eq!(sp.graph().num_vertices(), 101, "id space grew by one");
        for &v in &report.arrival_ids {
            assert!(sp.shard_of(v) < 4, "recycled id {v} must be assigned");
            assert!(sp.graph().is_live(v));
        }

        // An arrival removed inside its own batch: the (fresh) id 101 is
        // reported as TOMBSTONE, and store/graph id spaces stay aligned.
        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![1.0, 1.0], vec![0]);
        batch.remove_vertex(101);
        let report = sp.ingest(&batch).unwrap();
        assert_eq!(report.arrival_ids, vec![crate::TOMBSTONE]);
        assert_eq!(report.vertices_added, 1);
        assert_eq!(report.vertices_removed, 1);
        assert_eq!(sp.store().num_vertices(), sp.graph().num_vertices());
        assert_eq!(sp.shard_of(101), crate::TOMBSTONE);

        // ...and the next arrival recycles that id.
        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![2.0, 3.0], vec![]);
        // Weight drift on a pending arrival commits with the final row.
        batch.set_weight(101, 1, 7.0);
        let report = sp.ingest(&batch).unwrap();
        assert_eq!(report.arrival_ids, vec![101]);
        assert_eq!(sp.graph().weights().weight(1, 101), 7.0);
        let p = sp.shard_of(101);
        let oracle = {
            let mut clone = sp.store().clone();
            clone.rebuild_loads(sp.graph().weights());
            clone.load(p, 1)
        };
        assert!(
            (sp.store().load(p, 1) - oracle).abs() < 1e-9,
            "committed row must match the final weights"
        );
    }

    #[test]
    fn from_partition_validates_shapes() {
        let (g, w) = community(100, 6);
        let p = Partition::new(vec![0; 100], 2);
        let cfg = fast_cfg(4, 0.1);
        assert!(
            StreamingPartitioner::from_partition(g, w, &p, cfg).is_err(),
            "k mismatch must be rejected"
        );
    }

    /// `BatchReport` equality intentionally ignores the span tree: spans
    /// carry wall-clock, and wall-clock differs run-to-run on identical
    /// work. Everything the determinism suites compare must stay inside
    /// `PartialEq`; everything timing-valued must stay out.
    #[test]
    fn batch_report_equality_ignores_spans() {
        let (g, w) = community(400, 11);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(4, 0.05)).unwrap();
        let mut batch = UpdateBatch::new();
        for _ in 0..10 {
            batch.add_vertex(vec![1.0, 2.0], vec![0, 1]);
        }
        let a = sp.ingest(&batch).unwrap();

        // Same report with a perturbed span tree: still equal.
        let mut b = a.clone();
        b.spans.total_ms += 123.456;
        for child in &mut b.spans.children {
            child.total_ms *= 3.0;
        }
        assert_eq!(a, b, "PartialEq must ignore span timings");
        b.spans = SpanNode::default();
        assert_eq!(a, b, "PartialEq must ignore a missing span tree too");

        // But a semantic field difference still breaks equality.
        b.vertices_added += 1;
        assert_ne!(a, b);

        // The tree has one child per stage, in pipeline order.
        assert_eq!(a.spans.name, "ingest");
        let stages: Vec<&str> = a.spans.children.iter().map(|c| c.name).collect();
        assert_eq!(
            stages,
            ["validate", "split", "place", "repair", "commit", "refine"]
        );
        assert!(
            a.spans.child_ms("commit") > 0.0,
            "commit stage must be timed"
        );
    }

    /// What the next refinement pass and the next reports read:
    /// assignment, loads (bitwise), locality counters, dirty set, seed and
    /// schedule.
    type RefineState = (
        Vec<u32>,
        Vec<u64>,
        (usize, usize),
        Vec<VertexId>,
        u64,
        usize,
    );

    fn refine_state(sp: &mut StreamingPartitioner) -> RefineState {
        let dims = sp.graph.weights().dims();
        let loads = (0..sp.cfg.k as u32)
            .flat_map(|p| (0..dims).map(move |j| (p, j)))
            .map(|(p, j)| sp.store.load(p, j).to_bits())
            .collect();
        (
            sp.store.as_slice().to_vec(),
            loads,
            (sp.store.intra_edges(), sp.store.cut_edges()),
            sp.dirty.sorted().to_vec(),
            sp.refine_seed,
            sp.batches_since_refine,
        )
    }

    /// A follower-side engine that applies each batch's logged pass ends
    /// every batch in the state the engine that ran the pass did, without
    /// ranking a rebalance candidate or solving a pair.
    #[test]
    fn an_applied_pass_leaves_the_state_the_run_pass_left() {
        let (g, w) = community(600, 23);
        let mut cfg = fast_cfg(4, 0.05);
        cfg.refine_every = 1;
        let mut leader = StreamingPartitioner::bootstrap(g, w, cfg).unwrap();
        let mut bytes = Vec::new();
        leader.save_snapshot(&mut bytes).unwrap();
        let mut follower = StreamingPartitioner::restore(&bytes[..]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut moves = 0;
        for _ in 0..6 {
            let mut batch = UpdateBatch::new();
            for _ in 0..20 {
                let nbrs = vec![rng.gen_range(0..600), rng.gen_range(0..600)];
                batch.add_vertex(vec![1.0, 2.0], nbrs);
            }
            for _ in 0..15 {
                batch.set_weight(rng.gen_range(0..600), 0, rng.gen_range(1.5..3.0));
            }
            let report = leader.ingest(&batch).unwrap();
            let pass = report.refine_pass.clone().expect("refine_every = 1");
            moves += pass.vertices.len();
            batch.decision = Some(Some(pass));
            assert_eq!(follower.ingest(&batch).unwrap(), report);
            assert_eq!(refine_state(&mut follower), refine_state(&mut leader));
        }
        assert!(moves > 0, "the stream must make refinement moves");
        let m = follower.metrics();
        assert_eq!(m.counter("stream.refine.passes"), 6);
        assert_eq!(m.counter("stream.store.heap_pops"), 0);
        assert_eq!(m.counter("core.gd.solve_vertices"), 0);
    }

    /// The touch-up moves of a logged pass apply after the dirty-set
    /// reset and stay marked, as in a run pass; the seed and schedule come
    /// from the decision, and the locality counters stay exact.
    #[test]
    fn a_logged_touch_up_leaves_only_its_moves_dirty() {
        let (g, w) = community(300, 29);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(4, 0.05)).unwrap();
        let (a, b, c) = (3, 5, 7);
        let other = |v| (sp.shard_of(v) + 1) % 4;
        let parts = vec![other(a), other(b), other(c)];
        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![1.0, 2.0], vec![a, 11]); // marks 300, a and 11
        batch.decision = Some(Some(RefinePass {
            vertices: vec![a, b, c],
            parts,
            gd_start: 1,
            touchup_start: 2,
            seed: 77,
        }));
        let report = sp.ingest(&batch).unwrap();
        assert!(report.refined);
        assert_eq!((report.rebalance_moves, report.refine_moves), (2, 1));
        assert_eq!(sp.dirty.sorted(), &[c]);
        assert_eq!((sp.refine_seed, sp.batches_since_refine), (77, 0));
        let live_edges: Vec<(u32, u32)> = sp.graph().snapshot().edges().collect();
        let mut oracle = sp.store().clone();
        oracle.rebuild_edge_stats(live_edges.into_iter());
        assert_eq!(sp.store().intra_edges(), oracle.intra_edges());
        assert_eq!(sp.store().cut_edges(), oracle.cut_edges());
    }

    /// End-to-end instrumentation check on a churn+drift workload: the
    /// registry's counters must agree with the batches and their reports,
    /// the GD iteration histogram and journal must be populated, and the
    /// full dump must pass the CI validator against [`METRIC_ALLOWLIST`]
    /// — which doubles as the allowlist-coverage test (an instrumentation
    /// site emitting an unlisted name fails here, not in dashboards).
    #[test]
    fn metrics_registry_tracks_engine_activity() {
        let (g, w) = community(600, 12);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(4, 0.05)).unwrap();

        // Arrivals + removals, then a drift batch that forces refinement.
        let mut rng = StdRng::seed_from_u64(21);
        let mut batch = UpdateBatch::new();
        for _ in 0..30 {
            let nbrs: Vec<u32> = (0..4).map(|_| rng.gen_range(0..600u32)).collect();
            batch.add_vertex(vec![1.0, nbrs.len() as f64], nbrs);
        }
        for v in 0..10u32 {
            batch.remove_vertex(v);
        }
        let first = sp.ingest(&batch).unwrap();
        let victims: Vec<u32> = (10..600u32).filter(|&v| sp.shard_of(v) == 0).collect();
        let mut drift = UpdateBatch::new();
        for &v in &victims {
            drift.set_weight(v, 0, 3.0);
        }
        let report = sp.ingest(&drift).unwrap();
        assert!(report.refined, "drift workload must exercise refinement");
        // A plain read is not a served lookup; a handle's lookups count
        // once it drops.
        let _ = sp.shard_of(11);
        let mut h = sp.reader();
        assert_eq!(h.lookup(11), Some(sp.shard_of(11)));
        let _ = h.lookup(12);
        drop(h);

        let reports = [&first, &report];
        let total = |f: fn(&BatchReport) -> usize| reports.iter().map(|r| f(r) as u64).sum::<u64>();
        let m = sp.metrics();
        assert_eq!(m.counter("stream.ingest.batches"), 2);
        assert_eq!(m.counter("stream.ingest.arrivals"), 30);
        assert_eq!(m.counter("stream.ingest.removals"), 10);
        assert_eq!(
            m.counter("stream.refine.passes"),
            total(|r| usize::from(r.refined))
        );
        assert_eq!(
            m.counter("stream.refine.rebalance_moves"),
            total(|r| r.rebalance_moves)
        );
        assert_eq!(
            m.counter("stream.refine.gd_moves"),
            total(|r| r.refine_moves)
        );
        assert_eq!(m.counter("stream.store.lookups"), 2);
        assert!(m.counter("stream.store.heap_pops") >= 1);
        assert_eq!(m.counter("stream.store.view_swaps"), 2);
        assert_eq!(m.counter("stream.store.stale_epoch_reads"), 0);
        let lookup_ns = m.summary("stream.store.lookup_ns").expect("histogram");
        assert_eq!(lookup_ns.count, 1, "the first lookup of a stride is timed");

        // GD convergence trace: refinement ran, so the iteration
        // histogram has observations and the grad-norm gauges are set.
        let iters = m.summary("core.gd.refine_iterations").expect("histogram");
        assert!(iters.count >= 1);
        assert!(iters.p99 >= iters.p50);
        assert!(m.gauge("core.gd.last_grad_norm_first").is_some());

        // Journal carries the refine pass and the drift trigger.
        let kinds: Vec<&str> = m.events().map(|e| e.event).collect();
        assert!(kinds.contains(&"refine.pass"), "{kinds:?}");
        assert!(kinds.contains(&"refine.drift_trigger"), "{kinds:?}");
        let seqs: Vec<u64> = m.events().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs monotone");

        // The rendered dump passes the exact validator CI runs.
        let stats = mdbgp_obs::validate_dump(&m.render_json(), METRIC_ALLOWLIST)
            .expect("dump must satisfy the allowlist + schema validator");
        assert!(stats.histograms >= 1);
        assert!(stats.spans >= 1);
        assert!(stats.journal_events >= 2);

        // Spans from both entry points nest under their own roots.
        assert!(m.span_stat("ingest").is_some());
        assert!(m.span_stat("ingest.place").is_some());
    }

    /// Each pair solve's kernels land under `ingest.refine.gd.pairs` at
    /// any thread count, one `matvec` or `delta` per gradient evaluation,
    /// and never add up to more than the `pairs` span (the dump
    /// validator's child-sum check), while the deterministic metrics stay
    /// thread-count independent.
    #[test]
    fn kernel_spans_nest_under_pairs_at_any_thread_count() {
        let run = |threads: usize| {
            let (g, w) = community(1_000, 17);
            let mut cfg = fast_cfg(4, 0.05).with_threads(threads);
            cfg.refine_every = 1;
            let mut sp = StreamingPartitioner::bootstrap(g, w, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..3 {
                let n = sp.graph().num_vertices() as u32;
                let mut batch = UpdateBatch::new();
                for _ in 0..20 {
                    let nbrs: Vec<u32> = (0..4).map(|_| rng.gen_range(0..n)).collect();
                    batch.add_vertex(vec![1.0, nbrs.len() as f64], nbrs);
                }
                let mut removed = Vec::new();
                while removed.len() < 8 {
                    let v = rng.gen_range(0..n);
                    if sp.graph().is_live(v) && !removed.contains(&v) {
                        batch.remove_vertex(v);
                        removed.push(v);
                    }
                }
                assert!(sp.ingest(&batch).unwrap().refined);
            }
            sp
        };
        let mut dumps = Vec::new();
        for threads in [1, 4] {
            let mut sp = run(threads);
            let m = sp.metrics();
            mdbgp_obs::validate_dump(&m.render_json(), METRIC_ALLOWLIST)
                .expect("kernel spans fit inside their parent");
            let count = |kernel: &str| {
                let path = format!("ingest.refine.gd.pairs.{kernel}");
                m.span_stat(&path).map_or(0, |s| s.count)
            };
            for kernel in ["build", "matvec", "project", "round", "judge"] {
                assert!(count(kernel) > 0, "{kernel} was not recorded");
            }
            assert_eq!(count("matvec"), m.counter("core.gd.grad_full_recomputes"));
            assert_eq!(count("delta"), m.counter("core.gd.grad_delta_iters"));
            dumps.push(m.deterministic_json(METRIC_ALLOWLIST));
        }
        assert_eq!(dumps[0], dumps[1]);
    }

    /// A one-edge batch refines only around that edge: the active set is
    /// the two endpoints plus their neighbours, the gather reads exactly
    /// their adjacency, each pair solves over its active members alone,
    /// and all of it stays far below the graph size.
    #[test]
    fn refinement_work_follows_the_churn_not_the_graph() {
        let (g, w) = community(20_000, 41);
        let n = g.num_vertices();
        // Alternating parts: balanced well inside the trigger band, so the
        // rebalance stays idle and the active set is the edge's halo alone.
        let labels: Vec<u32> = (0..n as u32).map(|v| v % 2).collect();
        let part = Partition::new(labels, 2);
        let mut cfg = fast_cfg(2, 0.2);
        cfg.refine_every = 1;
        let mut sp = StreamingPartitioner::from_partition(g.clone(), w, &part, cfg).unwrap();
        let far = (1..n as u32)
            .step_by(2)
            .find(|&v| !g.has_edge(0, v))
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, far);
        let report = sp.ingest(&batch).unwrap();
        assert!(report.refined, "refine_every = 1 refines every batch");
        assert_eq!(report.rebalance_moves, 0);

        let halo = 2 + sp.graph().degree(0) + sp.graph().degree(far);
        let halo_set: std::collections::BTreeSet<VertexId> = [0, far]
            .into_iter()
            .flat_map(|d| std::iter::once(d).chain(sp.graph().neighbors(d)))
            .collect();
        let halo_degrees: usize = halo_set.iter().map(|&v| sp.graph().degree(v)).sum();
        let two_m = 2 * sp.graph().num_edges();
        let m = sp.metrics();
        let active = m.counter("stream.refine.active_vertices") as usize;
        let active_edges = m.counter("stream.refine.active_edges") as usize;
        let solved = m.counter("core.gd.solve_vertices") as usize;
        assert!(
            (2..=halo).contains(&active),
            "active set {active} must be the edge's halo (at most {halo})"
        );
        assert_eq!(active, halo_set.len(), "the active set is the edge's halo");
        assert_eq!(
            active_edges, halo_degrees,
            "the gather reads the halo's adjacency once"
        );
        assert!(
            active_edges * 20 < two_m,
            "gathered {active_edges} adjacency entries of 2m = {two_m}"
        );
        assert!(
            solved >= 1 && solved <= active,
            "solved {solved} of {active}"
        );
        assert!(
            active * 100 < n,
            "active set {active} is not far below n = {n}"
        );
        assert_eq!(m.counter("core.gd.pairs_degenerate"), 0);
    }

    /// The pass's gather reads the overlay exactly as the id-preserving
    /// live-edge CSR lists it — through tombstoned base edges, delta
    /// edges, a removed vertex and a recycled id — and the pair problems
    /// built from the two gathers are equal.
    #[test]
    fn active_gather_sees_the_overlay_like_the_live_csr() {
        let (g, w) = community(2_000, 43);
        let mut cfg = fast_cfg(4, 0.1);
        cfg.compact_slack = 10.0; // keep the overlay: no purge
        cfg.drift_headroom = 100.0; // no refinement until asked
        let mut sp = StreamingPartitioner::bootstrap(g.clone(), w, cfg).unwrap();
        let (victim, dead) = (7u32, 11u32);
        let clear = |u: u32, v: u32| ![u, v].iter().any(|x| *x == victim || *x == dead);
        let mut batch = UpdateBatch::new();
        for (u, v) in g.edges().step_by(37).filter(|&(u, v)| clear(u, v)).take(60) {
            batch.remove_edge(u, v);
        }
        let mut rng = StdRng::seed_from_u64(44);
        let mut added = std::collections::HashSet::new();
        while added.len() < 80 {
            let (u, v) = (rng.gen_range(0..2_000u32), rng.gen_range(0..2_000u32));
            if u < v && clear(u, v) && !g.has_edge(u, v) && added.insert((u, v)) {
                batch.add_edge(u, v);
            }
        }
        batch.remove_vertex(dead).remove_vertex(victim);
        assert!(!sp.ingest(&batch).unwrap().refined);
        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![1.0, 3.0], vec![1, 2, 3]);
        let report = sp.ingest(&batch).unwrap();
        assert!(!report.refined);
        assert_eq!(
            report.arrival_ids,
            vec![victim],
            "the removed id is recycled"
        );
        let graph = sp.graph();
        assert!(graph.tombstoned_edge_count() > 0 && graph.delta_edge_count() > 0);
        assert!(!graph.is_live(dead));

        sp.gather_active();
        let overlay = &sp.adjacency;
        assert!(overlay.vertices().contains(&victim));
        assert!(!overlay.vertices().contains(&dead));
        let live_csr = sp.graph().snapshot();
        let mut csr = ActiveAdjacency::default();
        csr.gather(
            sp.cfg.k,
            overlay.vertices(),
            |u| sp.refine_slots[u as usize],
            |u| sp.store.shard_of(u),
            |u| live_csr.neighbors(u).iter().copied(),
            1,
        );
        assert_eq!(overlay, &csr);

        let pairs = overlay.rank_pairs(MAX_REFINE_PAIRS);
        assert!(!pairs.is_empty());
        let shard = |a: VertexId| sp.store.shard_of(a);
        let weights = sp.graph().weights();
        for round in GdPartitioner::plan_disjoint_rounds(&pairs) {
            let (split_o, split_c) = (overlay.round(&round, shard), csr.round(&round, shard));
            for (r, pair) in round.iter().enumerate() {
                let from_overlay = pair_problem(overlay, &split_o, r, weights, &sp.store);
                let from_csr = pair_problem(&csr, &split_c, r, weights, &sp.store);
                assert!(!from_overlay.vertices().is_empty());
                assert_eq!(from_overlay, from_csr, "pair {pair:?}");
            }
        }
    }

    /// A snapshot resealed with a count that claims more than its payload
    /// holds fails to restore with a named error, before the count sizes
    /// any allocation: the graph's removed-bit, delta-length and
    /// delta-target prefixes, its weight dimension count, and the
    /// config's part count, which sizes the store's loads.
    #[test]
    fn inflated_snapshot_counts_fail_by_name() {
        use crate::snapshot::{self, PayloadWriter, SnapshotError};
        let (g, w) = community(200, 51);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(2, 0.1)).unwrap();
        let mut bytes = Vec::new();
        sp.save_snapshot(&mut bytes).unwrap();
        let (info, payload) = snapshot::read_snapshot(&bytes[..]).unwrap();

        // Section offsets, from the encoders themselves.
        let encoded = |f: &dyn Fn(&mut PayloadWriter)| {
            let mut w = PayloadWriter::new();
            f(&mut w);
            w.buf.len()
        };
        let config_at = 8 + 1; // id-epoch echo, CONFIG tag
        let graph_at = config_at + encoded(&|w| snapshot::encode_config(w, &sp.cfg)) + 1;
        let removed_at = graph_at + encoded(&|w| sp.graph.encode_base(w));
        let words = sp.graph.csr().raw_targets().len().div_ceil(64);
        let (n, dims) = (sp.graph.num_vertices(), 2);
        let lens_at = removed_at + 8 + 8 * words;
        let delta_targets_at = lens_at + 8 + 4 * n;
        let graph_end = removed_at + encoded(&|w| sp.graph.encode_overlay(w));
        let dims_at = graph_end - (8 + 8 * dims) - dims * (8 + 8 * n) - 8;

        let read = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        assert_eq!(read(removed_at), words as u64);
        assert_eq!(read(lens_at), n as u64);
        assert_eq!(read(delta_targets_at), 0);
        assert_eq!(read(dims_at), dims as u64);
        assert_eq!(read(config_at), 2);

        let huge = 1u64 << 40;
        for at in [removed_at, lens_at, delta_targets_at, dims_at, config_at] {
            let mut forged = payload.clone();
            forged[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            let mut resealed = vec![0; snapshot::SNAPSHOT_HEADER_BYTES];
            resealed.extend_from_slice(&forged);
            let sum = snapshot::checksum(&forged);
            snapshot::seal_snapshot(&mut resealed, info.id_epoch, info.k, info.dims, sum);
            match StreamingPartitioner::restore(&resealed[..]) {
                Err(SnapshotError::Truncated { .. } | SnapshotError::Corrupt(_)) => {}
                Err(other) => panic!("count at {at}: unexpected error {other}"),
                Ok(_) => panic!("count at {at}: the forged snapshot restored"),
            }
        }
    }

    /// A snapshot whose configuration asks for an unbounded GD loop
    /// budget or an absurd thread count is refused by name at restore,
    /// before any state is adopted. The test only restores: it starts no
    /// thread and runs no refinement.
    #[test]
    fn forged_loop_budgets_and_thread_counts_fail_by_name() {
        use crate::snapshot::{self, PayloadWriter, SnapshotError};
        let (g, w) = community(200, 52);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(2, 0.1)).unwrap();
        let mut bytes = Vec::new();
        sp.save_snapshot(&mut bytes).unwrap();
        let (info, payload) = snapshot::read_snapshot(&bytes[..]).unwrap();

        // A field's payload offset: the first byte at which the config's
        // encoding changes when the field grows by one. CONFIG opens after
        // the id-epoch echo and its tag.
        let encode = |cfg: &StreamConfig| {
            let mut w = PayloadWriter::new();
            snapshot::encode_config(&mut w, cfg);
            w.buf
        };
        let offset_of = |bump: fn(&mut StreamConfig)| {
            let mut bumped = sp.cfg.clone();
            bump(&mut bumped);
            let (a, b) = (encode(&sp.cfg), encode(&bumped));
            8 + 1 + a.iter().zip(&b).position(|(x, y)| x != y).unwrap()
        };
        type Case = (fn(&mut StreamConfig), u64, &'static str);
        let cases: [Case; 4] = [
            (
                |c| c.gd.final_projection_passes += 1,
                u64::MAX,
                "gd: final_projection_passes must be at most",
            ),
            (|c| c.threads += 1, 1 << 32, "threads must be in"),
            (|c| c.gd.threads += 1, 1 << 32, "gd: threads must be in"),
            (
                |c| c.gd.rounding_attempts += 1,
                1 << 32,
                "gd: rounding_attempts must be in",
            ),
        ];
        for (bump, value, why) in cases {
            let at = offset_of(bump);
            let mut forged = payload.clone();
            forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let mut resealed = vec![0; snapshot::SNAPSHOT_HEADER_BYTES];
            resealed.extend_from_slice(&forged);
            let sum = snapshot::checksum(&forged);
            snapshot::seal_snapshot(&mut resealed, info.id_epoch, info.k, info.dims, sum);
            match StreamingPartitioner::restore(&resealed[..]) {
                Err(SnapshotError::Corrupt(found)) => assert!(
                    found.starts_with(&format!("configuration invalid: bad configuration: {why}")),
                    "{value} at {at}: {found}"
                ),
                Err(other) => panic!("{value} at {at}: unexpected error {other}"),
                Ok(_) => panic!("{value} at {at}: the forged snapshot restored"),
            }
        }
    }

    #[test]
    fn views_publish_per_batch() {
        let (g, w) = community(400, 30);
        let mut sp = StreamingPartitioner::bootstrap(g, w, fast_cfg(2, 0.05)).unwrap();
        // Bootstrap seeds an uncounted view at (0, 0).
        let seed = sp.read_view();
        assert_eq!(seed.epoch(), crate::ViewEpoch::default());
        assert_eq!(sp.store().view_swap_count(), 0);
        let mut h = sp.reader();

        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![1.0, 2.0], vec![0, 1]);
        let report = sp.ingest(&batch).unwrap();
        assert_eq!(sp.store().view_swap_count(), 1);
        assert!(h.refresh(), "ingest published a new view");
        let v1 = h.view().clone();
        assert_eq!(
            v1.epoch(),
            crate::ViewEpoch {
                id_epoch: 0,
                batch_seq: 1
            }
        );
        // The published view is exactly the post-batch assignment.
        assert_eq!(v1.as_slice(), sp.store().as_slice());
        let arrival = report.arrival_ids[0];
        assert_eq!(h.lookup(arrival), Some(sp.shard_of(arrival)));
        assert!(v1.verify_checksum());

        // An edge-only batch publishes the next view too.
        let mut edges = UpdateBatch::new();
        edges.add_edge(2, 3).add_edge(5, 9);
        sp.ingest(&edges).unwrap();
        assert!(h.refresh());
        assert_eq!(h.view().epoch().batch_seq, 2);
    }

    #[test]
    fn purge_publishes_a_view_carrying_the_composed_remap() {
        let (g, w) = community(300, 31);
        let mut cfg = fast_cfg(2, 0.1);
        cfg.compact_slack = 10.0; // no automatic compaction
        let mut sp = StreamingPartitioner::bootstrap(g, w, cfg).unwrap();
        let mut h = sp.reader();
        let mut batch = UpdateBatch::new();
        for v in 0..20u32 {
            batch.remove_vertex(v);
        }
        sp.ingest(&batch).unwrap();
        h.refresh();
        assert!(!h.needs_adoption(), "no purge yet: same id epoch");
        assert_eq!(h.lookup(5), None, "tombstoned id answers None");

        let remap = sp.purge().expect("tombstones pending, purge must remap");
        h.refresh();
        assert!(h.needs_adoption(), "purge crossed an id epoch");
        assert_eq!(h.view().epoch().id_epoch, 1);
        assert_eq!(
            h.view().remap().expect("purge view carries its remap"),
            remap.as_slice(),
            "view remap and report remap are the same map"
        );
        h.adopt();
        // Translated ids answer the engine's own assignment.
        let old = 25u32;
        let new = remap[old as usize];
        assert_ne!(new, TOMBSTONE);
        assert_eq!(h.lookup(new), Some(sp.shard_of(new)));
        assert_eq!(sp.store().stale_epoch_read_count(), 0);

        // The next plain batch publishes without a remap again.
        let mut b2 = UpdateBatch::new();
        b2.add_edge(1, 2);
        sp.ingest(&b2).unwrap();
        h.refresh();
        assert!(h.view().remap().is_none());
        assert!(!h.needs_adoption());
    }
}
