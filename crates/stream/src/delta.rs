//! The update language of the stream: batched vertex arrivals and
//! departures, edge insertions and deletions, and weight drift.
//!
//! Updates are applied in order within a batch. A vertex arrives *with* its
//! adjacency to already-present vertices (the standard streaming-partitioning
//! model: the placement decision is made once, online, with exactly that
//! information). Edges between already-present vertices, removals and weight
//! updates model the graph evolving — and churning — underneath the
//! partition.

use mdbgp_graph::VertexId;

/// One stream event.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamUpdate {
    /// A new vertex arrives. It receives the most recently removed id
    /// still awaiting a purge (the free list is recycled LIFO) or, when
    /// there is none, the id-space size at application time; the id it got
    /// is reported in [`crate::engine::BatchReport::arrival_ids`]. It
    /// carries one weight per balance dimension and lists its edges to
    /// already-present vertices (out-of-range, duplicate or removed
    /// endpoints are ignored).
    AddVertex {
        weights: Vec<f64>,
        neighbors: Vec<VertexId>,
    },
    /// An edge appears between two already-present vertices. Self-loops and
    /// duplicates are ignored.
    AddEdge { u: VertexId, v: VertexId },
    /// The edge `{u, v}` disappears. Removing a non-existent edge (or a
    /// self-loop) is ignored, mirroring the duplicate policy of
    /// [`Self::AddEdge`]; a *removed endpoint* is an error, like on adds.
    RemoveEdge { u: VertexId, v: VertexId },
    /// Vertex `v` leaves, taking its incident edges with it. Its id stays
    /// addressable (but unassigned) until the next compaction purges it —
    /// see [`crate::engine::BatchReport::remap`]. Removing an unknown or
    /// already-removed vertex is an error.
    RemoveVertex { v: VertexId },
    /// Weight dimension `dim` of vertex `v` drifts to `value` (e.g. an
    /// activity counter used as a balance dimension).
    SetWeight { v: VertexId, dim: usize, value: f64 },
}

/// An ordered batch of stream events, the unit of ingestion (and of
/// refinement triggering) in [`crate::StreamingPartitioner`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateBatch {
    pub updates: Vec<StreamUpdate>,
    /// The leader's refinement decision for this batch, on a batch read
    /// back from a replication log ([`crate::wire`]): `Some(None)` when
    /// no pass ran, `Some(Some(pass))` when one did. `None` on every batch
    /// a caller builds; only the crate sets it. A batch that carries a
    /// decision is ingested with the decision applied in place of the
    /// refinement triggers ([`crate::StreamingPartitioner::ingest`]).
    pub(crate) decision: Option<Option<RefinePass>>,
}

/// One refinement pass as the engine ran it: every vertex move in the
/// order it was applied, and the refinement seed the pass left behind.
/// The moves fall into three runs: the pre-GD rebalance (a swap is two
/// moves), the GD moves in round order from `gd_start`, and the post-GD
/// touch-up rebalance from `touchup_start`. Reported on
/// [`crate::BatchReport::refine_pass`]; a replication leader logs it with
/// the batch so followers apply the moves instead of re-running the pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefinePass {
    /// Moved vertex of each move, in application order.
    pub(crate) vertices: Vec<VertexId>,
    /// Destination part of each move (same length as `vertices`).
    pub(crate) parts: Vec<u32>,
    /// Index of the first GD move.
    pub(crate) gd_start: usize,
    /// Index of the first touch-up move (`gd_start <= touchup_start <= len`).
    pub(crate) touchup_start: usize,
    /// The engine's refinement seed after the pass.
    pub(crate) seed: u64,
}

impl RefinePass {
    /// Moves made by the two rebalance runs (a swap counts two).
    pub(crate) fn rebalance_moves(&self) -> usize {
        self.gd_start + self.vertices.len() - self.touchup_start
    }

    /// Moves made by GD.
    pub(crate) fn gd_moves(&self) -> usize {
        self.touchup_start - self.gd_start
    }

    pub(crate) fn push(&mut self, v: VertexId, part: u32) {
        self.vertices.push(v);
        self.parts.push(part);
    }
}

impl UpdateBatch {
    /// An empty batch, carrying no refinement decision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a vertex arrival; returns `self` for chaining.
    pub fn add_vertex(&mut self, weights: Vec<f64>, neighbors: Vec<VertexId>) -> &mut Self {
        self.updates
            .push(StreamUpdate::AddVertex { weights, neighbors });
        self
    }

    /// Queues an edge insertion.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.updates.push(StreamUpdate::AddEdge { u, v });
        self
    }

    /// Queues an edge removal.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.updates.push(StreamUpdate::RemoveEdge { u, v });
        self
    }

    /// Queues a vertex removal.
    pub fn remove_vertex(&mut self, v: VertexId) -> &mut Self {
        self.updates.push(StreamUpdate::RemoveVertex { v });
        self
    }

    /// Queues a weight update.
    pub fn set_weight(&mut self, v: VertexId, dim: usize, value: f64) -> &mut Self {
        self.updates.push(StreamUpdate::SetWeight { v, dim, value });
        self
    }

    pub fn len(&self) -> usize {
        self.updates.len()
    }

    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}
