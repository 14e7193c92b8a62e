//! [`DynamicGraph`]: a CSR graph plus an in-memory delta, with tombstoned
//! removal and periodic compaction.
//!
//! `mdbgp-graph`'s [`Graph`] is immutable CSR — ideal for the GD mat-vec,
//! hostile to mutation. The streaming layer therefore keeps a **base** CSR
//! plus per-vertex sorted **delta** adjacency lists, and one **removed
//! bit** per base CSR slot. Reads see `(base ∖ removed) ∪ delta`; writes
//! go to the delta (or clear a removed bit); [`DynamicGraph::compact`]
//! merges everything into a fresh CSR once the churn exceeds a configurable
//! fraction of the base. Refinement reads through the overlay
//! ([`DynamicGraph::neighbors`]) and never forces a compaction: it visits
//! only the active vertices' adjacency, and the GD kernels run on the
//! small per-pair CSR it builds from there.
//!
//! ## Tombstone lifecycle and the id-remap contract
//!
//! Removal is two-phase, so the serving path never sees an id shift
//! mid-stream:
//!
//! 1. **Tombstoning** ([`DynamicGraph::remove_edge`] /
//!    [`DynamicGraph::remove_vertex`]) is O(deg): a removed *delta* edge is
//!    dropped in place, a removed *base* edge sets the removed bits of its
//!    two CSR slots (the base CSR is immutable), and a removed vertex —
//!    after shedding its incident edges the same way — is marked dead.
//!    Vertex ids are **stable** through this phase: every accessor
//!    ([`DynamicGraph::degree`], [`DynamicGraph::neighbors`],
//!    [`DynamicGraph::has_edge`], [`DynamicGraph::snapshot`]) filters
//!    through the tombstones, a dead vertex
//!    reads as isolated, and [`DynamicGraph::add_edge`] of a tombstoned base edge
//!    clears the tombstone instead of duplicating the edge in the delta.
//!    Between the two phases, [`DynamicGraph::add_vertex`] **recycles** tombstoned
//!    ids (most recently freed first) before growing the id space, so a
//!    high-churn stream does not inflate the arrival-id space unboundedly
//!    between purges. A recycled id names the *new* vertex from that point
//!    on — callers must drop references to an id once they removed it.
//! 2. **Purging** ([`DynamicGraph::compact`]): the merge drops tombstoned edges
//!    and dead vertices and renumbers the survivors `0..live` in ascending
//!    old-id order. When any vertex was dropped, `compact` returns the
//!    **old→new map** (`map[old] = new`, [`crate::TOMBSTONE`] for dropped
//!    ids); callers own every structure indexed by vertex id and must
//!    remap it before touching the graph again —
//!    [`crate::StreamingPartitioner`] does this for its store/dirty state
//!    and surfaces the map in [`crate::engine::BatchReport::remap`] so
//!    routers can rewrite their own references. Edge-only compactions
//!    return `None` and ids stay put.
//!
//! The weights follow the same contract: a dead vertex keeps its (positive)
//! weight rows until the purge drops them — live-load accounting between
//! the two phases lives in [`crate::PartitionStore`], which releases the
//! vertex's weight at tombstoning time.

use crate::snapshot::{PayloadReader, PayloadWriter, SnapshotError};
use crate::TOMBSTONE;
use mdbgp_graph::{Graph, VertexId, VertexWeights};

/// A growing-and-shrinking graph: base CSR + delta adjacency + removed
/// base slots and dead vertices + multi-dimensional weights.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    base: Graph,
    /// Bumped each time [`Self::compact`] replaces `base`, so a leader can
    /// tell whether the base CSR it encoded last is still the one here
    /// ([`Self::base_generation`]). Not serialized.
    base_generation: u64,
    /// One bit per base CSR slot (`base.raw_targets()` index), set while
    /// the base edge stored there is removed. A base edge occupies two
    /// slots, one per endpoint's row; both bits always move together.
    removed: Vec<u64>,
    /// Undirected removed base edge count: half the set bits.
    removed_base_edges: usize,
    /// Per-vertex delta adjacency, sorted ascending and symmetric, and
    /// disjoint from the base CSR (a removed base edge that comes back
    /// clears its bits instead); indexes `0..n` where
    /// `n >= base.num_vertices()` (vertices past the base have all their
    /// adjacency here).
    delta: Vec<Vec<VertexId>>,
    /// Undirected delta edge count.
    delta_edges: usize,
    /// Vertex tombstones; a dead vertex has no live incident edges.
    dead: Vec<bool>,
    /// Ids of currently dead vertices, most recently tombstoned last —
    /// [`Self::add_vertex`] recycles them LIFO so a high-churn stream does
    /// not grow the id space unboundedly between purges. Invariant:
    /// `free` contains exactly the ids with `dead[v] == true`.
    free: Vec<VertexId>,
    weights: VertexWeights,
}

/// Words of a bit vector with one bit per slot.
fn bit_words(slots: usize) -> usize {
    slots.div_ceil(64)
}

impl DynamicGraph {
    /// Wraps an existing graph and its weights.
    ///
    /// # Panics
    /// Panics if `weights` does not cover the graph.
    pub fn new(base: Graph, weights: VertexWeights) -> Self {
        assert_eq!(
            weights.num_vertices(),
            base.num_vertices(),
            "weights must cover the base graph"
        );
        let n = base.num_vertices();
        Self {
            removed: vec![0; bit_words(base.raw_targets().len())],
            removed_base_edges: 0,
            base,
            base_generation: 0,
            delta: vec![Vec::new(); n],
            delta_edges: 0,
            dead: vec![false; n],
            free: Vec::new(),
            weights,
        }
    }

    /// An empty dynamic graph with `dims` weight dimensions (pure streaming
    /// from nothing).
    pub fn empty(dims: usize) -> Self {
        assert!(dims > 0);
        Self::new(
            Graph::empty(0),
            VertexWeights::from_vectors(vec![Vec::new(); dims]),
        )
    }

    /// Size of the vertex-id space (live + tombstoned). Ids `0..n` are
    /// addressable; use [`Self::is_live`] to tell the two apart and
    /// [`Self::num_live_vertices`] for the live count.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.delta.len()
    }

    /// Number of live (non-tombstoned) vertices.
    #[inline]
    pub fn num_live_vertices(&self) -> usize {
        self.delta.len() - self.free.len()
    }

    /// Number of vertices tombstoned since the last purge.
    #[inline]
    pub fn num_tombstoned(&self) -> usize {
        self.free.len()
    }

    /// Whether `v` is an existing, non-tombstoned vertex.
    #[inline]
    pub fn is_live(&self, v: VertexId) -> bool {
        (v as usize) < self.dead.len() && !self.dead[v as usize]
    }

    /// Number of live undirected edges (base − tombstoned + delta).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() - self.removed_base_edges + self.delta_edges
    }

    /// Edges still sitting in the delta.
    #[inline]
    pub fn delta_edge_count(&self) -> usize {
        self.delta_edges
    }

    /// Base edges tombstoned since the last compaction.
    #[inline]
    pub fn tombstoned_edge_count(&self) -> usize {
        self.removed_base_edges
    }

    /// How many times [`Self::compact`] replaced the base CSR since this
    /// graph was built or restored. Equal generations of one graph mean
    /// the same base CSR bytes.
    #[inline]
    pub(crate) fn base_generation(&self) -> u64 {
        self.base_generation
    }

    /// Whether the base edge at CSR slot `slot` is removed.
    #[inline]
    fn is_removed(&self, slot: usize) -> bool {
        self.removed[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// The base CSR slots of `v`'s row (empty past the base).
    #[inline]
    fn base_slots(&self, v: VertexId) -> std::ops::Range<usize> {
        if (v as usize) < self.base.num_vertices() {
            let offsets = self.base.raw_offsets();
            offsets[v as usize]..offsets[v as usize + 1]
        } else {
            0..0
        }
    }

    /// `v`'s surviving base neighbours, ascending.
    #[inline]
    fn base_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let slots = self.base_slots(v);
        let removed = &self.removed[..];
        self.base.raw_targets()[slots.clone()]
            .iter()
            .zip(slots)
            .filter(move |&(_, slot)| removed[slot / 64] >> (slot % 64) & 1 == 0)
            .map(|(&t, _)| t)
    }

    /// The slot of `v` in `u`'s base row, if `{u, v}` is a base edge
    /// (removed or not).
    fn base_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        if (v as usize) >= self.base.num_vertices() {
            return None;
        }
        let slots = self.base_slots(u);
        let at = self.base.raw_targets()[slots.clone()]
            .binary_search(&v)
            .ok()?;
        Some(slots.start + at)
    }

    /// Flips the removed bits of base edge `{u, v}` at both of its slots;
    /// `slot` is its slot in `u`'s row.
    fn flip_removed(&mut self, slot: usize, u: VertexId, v: VertexId) {
        // A `Graph` stores every edge in both rows (`Graph::try_from_csr`
        // checks it), so the mirror slot exists.
        let mirror = self.base_slot(v, u).expect("base CSR is symmetric");
        for s in [slot, mirror] {
            self.removed[s / 64] ^= 1 << (s % 64);
        }
    }

    /// Live degree of `v` (0 for a tombstoned vertex).
    pub fn degree(&self, v: VertexId) -> usize {
        self.base_neighbors(v).count() + self.delta[v as usize].len()
    }

    /// Live neighbours of `v`: its base row minus the removed slots, in
    /// ascending order, then its delta row, in ascending order (the union
    /// is *not* globally sorted, but is duplicate-free). Empty for a
    /// tombstoned vertex — removal sheds its incident edges.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.base_neighbors(v)
            .chain(self.delta[v as usize].iter().copied())
    }

    /// Whether edge `{u, v}` is live (present and not tombstoned).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self.base_slot(u, v) {
            Some(slot) => !self.is_removed(slot),
            None => self.delta[u as usize].binary_search(&v).is_ok(),
        }
    }

    /// The multi-dimensional vertex weights. Rows of tombstoned vertices
    /// stay in place (and positive) until the next purging compaction.
    #[inline]
    pub fn weights(&self) -> &VertexWeights {
        &self.weights
    }

    /// Adds a vertex with the given per-dimension weights; returns its id.
    /// When tombstoned slots exist their ids are **recycled** (most
    /// recently tombstoned first) instead of growing the id space, so a
    /// high-churn stream's arrival-id space stays bounded between purges;
    /// otherwise the id is the current id-space size. A recycled slot is
    /// indistinguishable from a fresh one: its delta adjacency is empty
    /// (removal shed every live edge), its base row stays fully tombstoned,
    /// and its weight row is overwritten. Callers that released the old
    /// occupant's id must have dropped their references when they removed
    /// it — the id now names the new vertex.
    pub fn add_vertex(&mut self, weight_row: &[f64]) -> VertexId {
        debug_assert_eq!(weight_row.len(), self.weights.dims());
        if let Some(v) = self.free.pop() {
            debug_assert!(self.dead[v as usize], "free list out of sync");
            debug_assert!(self.delta[v as usize].is_empty());
            self.dead[v as usize] = false;
            for (j, &w) in weight_row.iter().enumerate() {
                self.weights.set_weight(j, v, w);
            }
            return v;
        }
        self.weights.push_vertex(weight_row);
        self.delta.push(Vec::new());
        self.dead.push(false);
        (self.delta.len() - 1) as VertexId
    }

    /// Ids currently awaiting recycling (dead, not yet purged), in the
    /// order [`Self::add_vertex`] will consume them **from the back**.
    /// Exposed so batch validation can simulate the id assignment of a
    /// batch without applying it.
    #[inline]
    pub fn free_ids(&self) -> &[VertexId] {
        &self.free
    }

    /// Adds undirected edge `{u, v}`. Re-adding a tombstoned base edge
    /// clears the tombstone instead of duplicating the edge in the delta.
    /// Returns `false` (and does nothing) for self-loops and duplicates.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or tombstoned.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.check_endpoints(u, v);
        if u == v {
            return false;
        }
        if let Some(slot) = self.base_slot(u, v) {
            // A tombstoned base edge is resurrected in place; inserting it
            // into the delta instead would double-count the edge in every
            // read until the next compaction deduplicated it.
            if !self.is_removed(slot) {
                return false;
            }
            self.flip_removed(slot, u, v);
            self.removed_base_edges -= 1;
            return true;
        }
        let du = &mut self.delta[u as usize];
        let Err(pos) = du.binary_search(&v) else {
            return false;
        };
        du.insert(pos, v);
        let dv = &mut self.delta[v as usize];
        let pos = dv
            .binary_search(&u)
            .expect_err("delta adjacency must be symmetric");
        dv.insert(pos, u);
        self.delta_edges += 1;
        true
    }

    /// Removes undirected edge `{u, v}`: a delta edge is dropped in place,
    /// a base edge is tombstoned. Returns `false` (and does nothing) when
    /// the edge does not exist (or `u == v`).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or tombstoned.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.check_endpoints(u, v);
        if u == v {
            return false;
        }
        if let Some(slot) = self.base_slot(u, v) {
            if self.is_removed(slot) {
                return false; // already tombstoned
            }
            self.flip_removed(slot, u, v);
            self.removed_base_edges += 1;
            return true;
        }
        let du = &mut self.delta[u as usize];
        let Ok(pos) = du.binary_search(&v) else {
            return false;
        };
        du.remove(pos);
        // Invariant, not input: delta adjacency is only ever inserted
        // symmetrically (and restore checks it), so the mirror exists.
        let dv = &mut self.delta[v as usize];
        let pos = dv
            .binary_search(&u)
            .expect("delta adjacency must be symmetric");
        dv.remove(pos);
        self.delta_edges -= 1;
        true
    }

    /// Asserts that both endpoints of `{u, v}` are in range and live.
    fn check_endpoints(&self, u: VertexId, v: VertexId) {
        let n = self.num_vertices();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} vertices"
        );
        assert!(
            self.is_live(u) && self.is_live(v),
            "edge ({u}, {v}) touches a tombstoned vertex"
        );
    }

    /// Tombstones vertex `v`: removes every live incident edge, then marks
    /// the vertex dead. Its id stays addressable (reading as an isolated
    /// vertex) until the next purging [`Self::compact`] drops it. Returns
    /// the neighbours it was disconnected from, in [`Self::neighbors`]
    /// order, so callers can settle per-edge accounting.
    ///
    /// Walks `v`'s row once: each surviving base slot sets its own removed
    /// bit and its mirror's, found by one search of the neighbour's row;
    /// the delta row is taken whole, `v` leaves each neighbour's delta row,
    /// and the emptied row goes back with its allocation.
    ///
    /// # Panics
    /// Panics if `v` is out of range or already tombstoned.
    pub fn remove_vertex(&mut self, v: VertexId) -> Vec<VertexId> {
        assert!(
            (v as usize) < self.num_vertices(),
            "vertex {v} out of range"
        );
        assert!(self.is_live(v), "vertex {v} is already tombstoned");
        let slots = self.base_slots(v);
        let mut delta = std::mem::take(&mut self.delta[v as usize]);
        let mut nbrs = Vec::with_capacity(slots.len() + delta.len());
        for slot in slots {
            if self.is_removed(slot) {
                continue;
            }
            let u = self.base.raw_targets()[slot];
            self.flip_removed(slot, v, u);
            self.removed_base_edges += 1;
            nbrs.push(u);
        }
        for &u in &delta {
            // Invariant, not input: delta adjacency is only ever inserted
            // symmetrically (and restore checks it), so the mirror exists.
            let du = &mut self.delta[u as usize];
            let pos = du
                .binary_search(&v)
                .expect("delta adjacency must be symmetric");
            du.remove(pos);
        }
        self.delta_edges -= delta.len();
        nbrs.extend_from_slice(&delta);
        delta.clear();
        self.delta[v as usize] = delta;
        self.dead[v as usize] = true;
        self.free.push(v);
        nbrs
    }

    /// Overwrites weight dimension `dim` of `v`.
    ///
    /// # Panics
    /// Panics if `v` is tombstoned.
    pub fn set_weight(&mut self, v: VertexId, dim: usize, value: f64) {
        assert!(self.is_live(v), "vertex {v} is tombstoned");
        self.weights.set_weight(dim, v, value);
    }

    /// Whether the churn (delta + tombstoned edges as a fraction of base
    /// edges, or tombstoned vertices as a fraction of the id space) has
    /// outgrown `slack`.
    pub fn needs_compaction(&self, slack: f64) -> bool {
        let edge_churn = self.delta_edges + self.removed_base_edges;
        edge_churn as f64 > slack * self.base.num_edges().max(1) as f64
            || self.free.len() as f64 > slack * self.num_vertices().max(1) as f64
    }

    /// Merges the delta into a fresh base CSR, dropping tombstoned edges —
    /// and tombstoned vertices, when any exist. O(n + m) when there is
    /// churn; a no-op otherwise.
    ///
    /// Returns `Some(map)` iff vertices were dropped: `map[old]` is the
    /// new id of old vertex `old`, or [`crate::TOMBSTONE`] if it was
    /// removed (live vertices keep their relative order). The caller must
    /// remap every id-indexed structure it owns before using the graph
    /// again. Edge-only compactions return `None`; ids are unchanged.
    #[must_use = "a returned remap means vertex ids changed; apply it to every id-indexed structure"]
    pub fn compact(&mut self) -> Option<Vec<VertexId>> {
        let remap = if self.free.is_empty() {
            if self.delta_edges == 0
                && self.removed_base_edges == 0
                && self.base.num_vertices() == self.num_vertices()
            {
                return None;
            }
            self.base = self.merged_csr();
            // Emptied rows keep their allocations for the next inserts.
            for adj in &mut self.delta {
                adj.clear();
            }
            None
        } else {
            // Purge: renumber live vertices 0..live in ascending old-id
            // order.
            let (map, live_ids) = self.purge_map();
            self.base = self.live_csr(&map, &live_ids);
            self.weights = self.weights.restrict(&live_ids);
            self.delta = vec![Vec::new(); live_ids.len()];
            self.dead = vec![false; live_ids.len()];
            self.free.clear();
            Some(map)
        };
        self.base_generation += 1;
        self.delta_edges = 0;
        self.removed = vec![0; bit_words(self.base.raw_targets().len())];
        self.removed_base_edges = 0;
        remap
    }

    /// The base CSR *without* compacting: misses delta edges (and still
    /// carries tombstoned ones) unless [`Self::compact`] ran since the
    /// last mutation. Use [`Self::compact`] + this unless a prior
    /// compaction is guaranteed.
    #[inline]
    pub fn csr(&self) -> &Graph {
        &self.base
    }

    /// Builds the full live-edge CSR without mutating, preserving the id
    /// space — tombstoned vertices appear isolated (test oracle; prefer
    /// [`Self::compact`] + [`Self::csr`] in production paths, and
    /// [`Self::live_snapshot`] when dead ids must not appear at all).
    pub fn snapshot(&self) -> Graph {
        self.merged_csr()
    }

    /// Every live edge once, as `(u, v)` with `u < v`.
    pub(crate) fn live_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Builds a CSR + weights over the **live** vertices only, renumbered
    /// exactly as a purging [`Self::compact`] would, without mutating.
    /// Returns `(graph, weights, live_ids)` where `live_ids[new] = old`.
    /// This is the reference input for an offline solve of the current
    /// graph (e.g. the scratch GD leg of `stream_online`).
    pub fn live_snapshot(&self) -> (Graph, VertexWeights, Vec<VertexId>) {
        let (map, live_ids) = self.purge_map();
        let graph = self.live_csr(&map, &live_ids);
        (graph, self.weights.restrict(&live_ids), live_ids)
    }

    /// The purge renumbering: `(old→new map, live old ids in new order)` —
    /// live vertices keep their relative order.
    fn purge_map(&self) -> (Vec<VertexId>, Vec<VertexId>) {
        let mut map = vec![TOMBSTONE; self.num_vertices()];
        let mut live_ids = Vec::with_capacity(self.num_live_vertices());
        for (old, slot) in map.iter_mut().enumerate() {
            if !self.dead[old] {
                *slot = live_ids.len() as VertexId;
                live_ids.push(old as VertexId);
            }
        }
        (map, live_ids)
    }

    /// Every live edge, renumbered through a [`Self::purge_map`] — the one
    /// assembly loop behind both the purging [`Self::compact`] and the
    /// non-mutating [`Self::live_snapshot`], so the two can never diverge.
    fn live_csr(&self, map: &[VertexId], live_ids: &[VertexId]) -> Graph {
        self.assemble_csr(live_ids, |old_v| map[old_v as usize])
    }

    /// Base edges (minus tombstones) + delta edges over the full id space —
    /// dead vertices come out isolated.
    fn merged_csr(&self) -> Graph {
        let all: Vec<VertexId> = (0..self.num_vertices() as VertexId).collect();
        self.assemble_csr(&all, |v| v)
    }

    /// Assembles the live CSR over `order` (old ids, in output order,
    /// neighbour ids translated through `map`) **without an edge sort**:
    /// each vertex's surviving-base and delta rows are individually sorted
    /// and mutually disjoint, so one merge per row emits the adjacency
    /// already sorted — O(n + m). `map` must be monotone on the live
    /// vertices (purge renumbering is), or the output adjacency would come
    /// out unsorted — debug builds re-validate every invariant via
    /// [`Graph::from_csr`] inside [`Graph::from_csr_unchecked`].
    fn assemble_csr(&self, order: &[VertexId], map: impl Fn(VertexId) -> VertexId) -> Graph {
        let mut offsets = Vec::with_capacity(order.len() + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(2 * self.num_edges());
        for &u in order {
            let mut delta = self.delta[u as usize].iter().copied().peekable();
            for b in self.base_neighbors(u) {
                while let Some(d) = delta.next_if(|&d| d < b) {
                    targets.push(map(d));
                }
                targets.push(map(b));
            }
            targets.extend(delta.map(&map));
            offsets.push(targets.len());
        }
        Graph::from_csr_unchecked(offsets, targets)
    }

    /// Serializes the base CSR, the first of the graph's bulk slices:
    /// its offsets and targets. Only [`Self::compact`] changes these bytes
    /// ([`Self::base_generation`]), so a leader's rotation keeps them from
    /// its last snapshot ([`crate::snapshot::KeptPrefix`]).
    pub(crate) fn encode_base(&self, w: &mut PayloadWriter) {
        w.put_vec_usize(self.base.raw_offsets());
        w.put_vec_u32(self.base.raw_targets());
    }

    /// Serializes the rest of the graph after [`Self::encode_base`]: the
    /// removed-slot bits, the delta as row lengths plus one concatenated
    /// targets slice, the free list **verbatim** (a restored graph
    /// recycles the same ids in the same LIFO order as the saver would
    /// have), and the weight rows with their live totals. Counts and the
    /// dead mask are derived from these on restore.
    pub(crate) fn encode_overlay(&self, w: &mut PayloadWriter) {
        w.put_vec_u64(&self.removed);
        w.put_rows_u32(&self.delta);
        w.put_vec_u32(&self.free);
        let dims = self.weights.dims();
        w.put_usize(dims);
        for j in 0..dims {
            w.put_vec_f64(self.weights.dim(j));
        }
        w.put_vec_f64(&(0..dims).map(|j| self.weights.total(j)).collect::<Vec<_>>());
    }

    /// Rebuilds a graph from [`Self::encode_base`] and
    /// [`Self::encode_overlay`] bytes, deriving the
    /// counts and the dead mask, and checks in O(n + m) every structural
    /// fact the other methods rely on: the base CSR is a valid symmetric
    /// graph; the removed bits cover exactly its slots and come in
    /// mirrored pairs; every delta row is sorted, in range, free of
    /// self-loops, mirrored and disjoint from the base row; the free list
    /// holds distinct ids; and no live edge touches a dead vertex. The
    /// payload already passed the snapshot checksum, so a rejection
    /// ([`SnapshotError::Corrupt`]) marks a writer/reader divergence or a
    /// forged payload — but each fact is checked here, once, because the
    /// alternative is a panic deep inside a later batch.
    pub(crate) fn decode_snapshot(r: &mut PayloadReader) -> Result<Self, SnapshotError> {
        let corrupt = |why: String| SnapshotError::Corrupt(why);

        let offsets = r.get_vec_usize("graph.base.offsets")?;
        let targets = r.get_vec_u32("graph.base.targets")?;
        let base = Graph::try_from_csr(offsets, targets)
            .map_err(|why| corrupt(format!("base CSR: {why}")))?;
        let base_n = base.num_vertices();
        let slots = base.raw_targets().len();

        let removed = r.get_vec_u64("graph.base.removed")?;
        let stray = removed
            .last()
            .is_some_and(|&w| slots % 64 != 0 && w >> (slots % 64) != 0);
        if removed.len() != bit_words(slots) || stray {
            return Err(corrupt(format!(
                "removed bits ({} words) do not cover exactly the {slots} base slots",
                removed.len()
            )));
        }

        // The delta is a symmetric CSR over the id space: the base CSR's
        // validator checks its rows.
        let lens = r.get_vec_u32("graph.delta.lens")?;
        let n = lens.len();
        if n < base_n {
            return Err(corrupt(format!(
                "id space {n} smaller than base CSR {base_n}"
            )));
        }
        let flat = r.get_vec_u32("graph.delta.targets")?;
        let mut delta_offsets = Vec::with_capacity(n + 1);
        delta_offsets.push(0usize);
        for &len in &lens {
            // A saturated sum cannot frame the targets: refused below.
            delta_offsets.push(delta_offsets[delta_offsets.len() - 1].saturating_add(len as usize));
        }
        let delta_csr = Graph::try_from_csr(delta_offsets, flat)
            .map_err(|why| corrupt(format!("delta: {why}")))?;
        let delta: Vec<Vec<VertexId>> = (0..n as VertexId)
            .map(|v| delta_csr.neighbors(v).to_vec())
            .collect();

        let free = r.get_vec_u32("graph.free")?;
        let mut dead = vec![false; n];
        for &v in &free {
            if (v as usize) >= n || dead[v as usize] {
                return Err(corrupt(format!(
                    "free-list entry {v} is not a unique id below {n}"
                )));
            }
            dead[v as usize] = true;
        }

        // Each weight column takes at least its 8-byte length prefix.
        let dims = r.get_len(8, "graph.weights.dims")?;
        if dims == 0 {
            return Err(corrupt("weights need at least one dimension".into()));
        }
        let mut data = Vec::with_capacity(dims);
        for j in 0..dims {
            let col = r.get_vec_f64("graph.weights.dim")?;
            if col.len() != n {
                return Err(corrupt(format!(
                    "weight dimension {j} covers {} of {n} vertices",
                    col.len()
                )));
            }
            if let Some(&w) = col.iter().find(|w| !(w.is_finite() && **w > 0.0)) {
                return Err(corrupt(format!(
                    "weight dimension {j} holds non-positive value {w}"
                )));
            }
            data.push(col);
        }
        let totals = r.get_vec_f64("graph.weights.totals")?;
        if totals.len() != dims || totals.iter().any(|t| !t.is_finite()) {
            return Err(corrupt("weight totals are malformed".into()));
        }

        let graph = Self {
            removed_base_edges: removed
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
                / 2,
            removed,
            base,
            base_generation: 0,
            delta_edges: delta_csr.num_edges(),
            delta,
            dead,
            free,
            weights: VertexWeights::from_raw_parts(data, totals),
        };
        graph.check_overlay()?;
        Ok(graph)
    }

    /// The restore checks that relate the overlay to the base CSR, in
    /// O(n + m): removed bits come in mirrored pairs, no delta edge is a
    /// base edge, and a dead vertex has no live edge. Mirrored bits and
    /// mirrored delta rows make the dead vertices' own rows enough for the
    /// last.
    fn check_overlay(&self) -> Result<(), SnapshotError> {
        let corrupt = |why: String| Err(SnapshotError::Corrupt(why));
        let (offsets, targets) = (self.base.raw_offsets(), self.base.raw_targets());
        // The base CSR is sorted and symmetric (checked), so walking the
        // rows in ascending order meets the entries below `v` of `v`'s row
        // in ascending order: `mirror[v]` is the slot of the next one.
        let mut mirror = offsets[..self.base.num_vertices()].to_vec();
        for u in 0..self.base.num_vertices() {
            let row = offsets[u]..offsets[u + 1];
            for (slot, &v) in row.clone().zip(&targets[row]) {
                let v = v as usize;
                if v > u {
                    if self.is_removed(slot) != self.is_removed(mirror[v]) {
                        return corrupt(format!(
                            "removed bit of base edge ({u}, {v}) has no mirror"
                        ));
                    }
                    mirror[v] += 1;
                }
            }
        }
        for (u, row) in self.delta.iter().enumerate() {
            // Both rows are sorted: one merge walk finds a shared entry.
            let mut base = targets[self.base_slots(u as VertexId)].iter().peekable();
            for &v in row {
                while base.next_if(|&&b| b < v).is_some() {}
                if base.peek() == Some(&&v) {
                    return corrupt(format!("delta edge ({u}, {v}) is a base edge"));
                }
            }
        }
        for &v in &self.free {
            if let Some(u) = self.neighbors(v).next() {
                return corrupt(format!("live edge ({v}, {u}) touches dead vertex {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbgp_graph::builder::graph_from_edges;

    fn seeded() -> DynamicGraph {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let w = VertexWeights::vertex_edge(&g);
        DynamicGraph::new(g, w)
    }

    #[test]
    fn reads_union_of_base_and_delta() {
        let mut dg = seeded();
        assert!(dg.add_edge(0, 3));
        assert_eq!(dg.num_edges(), 4);
        assert!(dg.has_edge(0, 3));
        assert!(dg.has_edge(3, 0));
        assert_eq!(dg.degree(0), 2);
        let mut n0: Vec<_> = dg.neighbors(0).collect();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 3]);
    }

    #[test]
    fn rejects_duplicates_and_self_loops() {
        let mut dg = seeded();
        assert!(!dg.add_edge(0, 1), "base duplicate");
        assert!(dg.add_edge(0, 2));
        assert!(!dg.add_edge(2, 0), "delta duplicate");
        assert!(!dg.add_edge(1, 1), "self-loop");
        assert_eq!(dg.num_edges(), 4);
    }

    #[test]
    fn streamed_vertices_get_fresh_ids_and_weights() {
        let mut dg = seeded();
        let v = dg.add_vertex(&[1.0, 2.0]);
        assert_eq!(v, 4);
        assert_eq!(dg.num_vertices(), 5);
        assert_eq!(dg.degree(v), 0);
        assert!(dg.add_edge(v, 0));
        assert_eq!(dg.degree(v), 1);
        assert_eq!(dg.weights().weight(1, v), 2.0);
    }

    #[test]
    fn compaction_preserves_the_graph() {
        let mut dg = seeded();
        let v = dg.add_vertex(&[1.0, 1.0]);
        dg.add_edge(v, 1);
        dg.add_edge(0, 2);
        let before = dg.snapshot();
        assert!(dg.compact().is_none(), "no dead vertices, no remap");
        assert_eq!(dg.delta_edge_count(), 0);
        assert_eq!(dg.csr(), &before);
        assert_eq!(dg.num_edges(), 5);
    }

    #[test]
    fn compaction_trigger_tracks_delta_fraction() {
        let mut dg = seeded();
        assert!(!dg.needs_compaction(0.3));
        dg.add_edge(0, 2);
        assert!(dg.needs_compaction(0.3), "1 delta edge / 3 base > 0.3");
        assert!(dg.compact().is_none());
        assert!(!dg.needs_compaction(0.3));
    }

    #[test]
    fn weight_drift_updates_totals() {
        let mut dg = seeded();
        let before = dg.weights().total(0);
        dg.set_weight(2, 0, 3.0);
        assert!((dg.weights().total(0) - (before + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn remove_edge_from_base_and_delta() {
        let mut dg = seeded();
        // Delta edge: removed in place, not tombstoned.
        assert!(dg.add_edge(0, 3));
        assert!(dg.remove_edge(0, 3));
        assert_eq!(dg.delta_edge_count(), 0);
        assert_eq!(dg.tombstoned_edge_count(), 0);
        assert!(!dg.has_edge(0, 3));
        // Base edge: tombstoned.
        assert!(dg.remove_edge(1, 2));
        assert_eq!(dg.tombstoned_edge_count(), 1);
        assert!(!dg.has_edge(1, 2));
        assert!(!dg.has_edge(2, 1));
        assert_eq!(dg.num_edges(), 2);
        assert_eq!(dg.degree(1), 1);
        let n1: Vec<_> = dg.neighbors(1).collect();
        assert_eq!(n1, vec![0]);
        // Removing a missing / already-removed edge is a no-op.
        assert!(!dg.remove_edge(1, 2), "already tombstoned");
        assert!(!dg.remove_edge(0, 2), "never existed");
        assert!(!dg.remove_edge(1, 1), "self-loop");
        assert_eq!(dg.num_edges(), 2);
    }

    #[test]
    fn re_adding_a_tombstoned_base_edge_resurrects_it() {
        let mut dg = seeded();
        assert!(dg.remove_edge(1, 2));
        assert!(dg.add_edge(2, 1), "re-add clears the tombstone");
        assert_eq!(dg.tombstoned_edge_count(), 0);
        assert_eq!(dg.delta_edge_count(), 0, "must not duplicate into delta");
        assert!(dg.has_edge(1, 2));
        assert_eq!(dg.num_edges(), 3);
        assert!(!dg.add_edge(1, 2), "now a plain duplicate");
    }

    #[test]
    fn remove_vertex_sheds_edges_and_reads_isolated() {
        let mut dg = seeded();
        dg.add_edge(1, 3);
        let mut nbrs = dg.remove_vertex(1);
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![0, 2, 3]);
        assert!(!dg.is_live(1));
        assert_eq!(dg.num_live_vertices(), 3);
        assert_eq!(dg.num_vertices(), 4, "id space is stable until purge");
        assert_eq!(dg.degree(1), 0);
        assert_eq!(dg.neighbors(1).count(), 0);
        assert_eq!(dg.degree(0), 0);
        assert!(!dg.has_edge(0, 1));
        assert_eq!(dg.num_edges(), 1, "only (2, 3) survives");
        // The snapshot keeps the id space and isolates the dead vertex.
        let snap = dg.snapshot();
        assert_eq!(snap.num_vertices(), 4);
        assert_eq!(snap.num_edges(), 1);
        assert_eq!(snap.degree(1), 0);
    }

    #[test]
    fn add_vertex_recycles_tombstoned_ids() {
        let mut dg = seeded();
        dg.remove_vertex(1);
        dg.remove_vertex(3);
        assert_eq!(dg.free_ids(), &[1, 3]);
        // LIFO: the most recently tombstoned id comes back first.
        let a = dg.add_vertex(&[9.0, 8.0]);
        assert_eq!(a, 3);
        assert!(dg.is_live(3));
        assert_eq!(dg.num_tombstoned(), 1);
        assert_eq!(dg.weights().weight(0, 3), 9.0);
        assert_eq!(dg.weights().weight(1, 3), 8.0);
        // The recycled slot reads fresh: no resurrected adjacency.
        assert_eq!(dg.degree(3), 0);
        assert_eq!(dg.neighbors(3).count(), 0);
        assert!(dg.add_edge(3, 0));
        assert_eq!(dg.degree(3), 1);
        // Second arrival takes the next free id; third extends the space.
        assert_eq!(dg.add_vertex(&[1.0, 1.0]), 1);
        assert_eq!(dg.add_vertex(&[1.0, 1.0]), 4);
        assert_eq!(dg.num_vertices(), 5);
        assert_eq!(dg.num_tombstoned(), 0);
        assert!(dg.free_ids().is_empty());
        // With every slot live again, compaction has nothing to purge.
        assert!(dg.compact().is_none(), "no dead vertices, no remap");
    }

    #[test]
    fn purge_clears_the_free_list() {
        let mut dg = seeded();
        dg.remove_vertex(0);
        assert_eq!(dg.free_ids(), &[0]);
        let map = dg.compact().expect("purge remaps");
        assert_eq!(map[0], TOMBSTONE);
        assert!(dg.free_ids().is_empty(), "purged ids are gone, not free");
        // The next arrival extends the (renumbered) id space.
        assert_eq!(dg.add_vertex(&[1.0, 1.0]), 3);
    }

    #[test]
    fn purging_compaction_returns_the_remap() {
        let mut dg = seeded();
        let v = dg.add_vertex(&[1.0, 7.0]); // id 4
        dg.add_edge(v, 0);
        dg.remove_vertex(1);
        let w2 = dg.weights().weight(1, 2);
        let map = dg.compact().expect("dead vertex must force a remap");
        assert_eq!(map, vec![0, TOMBSTONE, 1, 2, 3]);
        assert_eq!(dg.num_vertices(), 4);
        assert_eq!(dg.num_live_vertices(), 4);
        assert_eq!(dg.num_edges(), 2, "(2,3) and (4,0) survive, remapped");
        assert!(dg.has_edge(1, 2), "old (2,3) -> new (1,2)");
        assert!(dg.has_edge(0, 3), "old (0,4) -> new (0,3)");
        assert_eq!(dg.weights().num_vertices(), 4);
        assert_eq!(dg.weights().weight(1, 1), w2, "weights follow the remap");
        assert_eq!(dg.weights().weight(1, 3), 7.0);
        // Once purged, ids are stable again and compact is a no-op.
        assert!(dg.compact().is_none());
    }

    #[test]
    fn live_snapshot_matches_purging_compaction() {
        let mut dg = seeded();
        dg.add_edge(0, 2);
        dg.remove_vertex(3);
        let (live, live_w, live_ids) = dg.live_snapshot();
        assert_eq!(live_ids, vec![0, 1, 2]);
        assert_eq!(dg.num_vertices(), 4, "live_snapshot must not mutate");
        dg.compact().expect("remap");
        assert_eq!(&live, dg.csr());
        assert_eq!(live_w.total(0), dg.weights().total(0));
    }

    #[test]
    fn dead_vertices_trigger_compaction() {
        let mut dg = seeded();
        assert!(!dg.needs_compaction(0.2));
        dg.remove_vertex(0);
        assert!(dg.needs_compaction(0.2), "1 dead / 4 vertices > 0.2");
        let _ = dg.compact().expect("remap");
        assert!(!dg.needs_compaction(0.2));
    }

    #[test]
    fn mixed_edits_match_a_one_shot_build() {
        let mut dg = seeded();
        assert!(dg.add_edge(0, 3)); // delta insert ...
        assert!(dg.remove_edge(1, 2)); // base tombstone ...
        assert!(dg.add_edge(2, 1)); // ... resurrected in place
        assert!(dg.remove_edge(0, 3)); // ... cancelled
        assert!(dg.add_edge(0, 2)); // delta insert that survives
        assert!(!dg.add_edge(2, 0), "delta duplicate");
        assert!(!dg.add_edge(1, 2), "resurrected base duplicate");
        assert!(dg.remove_edge(0, 1)); // base tombstone that survives
        assert_eq!(dg.degree(0), 1, "tombstoned base edge leaves the degree");
        let v = dg.add_vertex(&[1.0, 1.0]);
        assert!(dg.add_edge(v, 2));
        assert_eq!(dg.num_edges(), 4);
        assert_eq!(dg.delta_edge_count(), 2);
        assert_eq!(dg.tombstoned_edge_count(), 1);
        assert_eq!(
            dg.snapshot(),
            graph_from_edges(5, &[(1, 2), (2, 3), (0, 2), (2, 4)])
        );
        // Vertex removal returns only live neighbours: 1's tombstoned base
        // edge to 0 is not among them.
        assert_eq!(dg.remove_vertex(1), vec![2]);
        assert_eq!(dg.degree(2), 3);
        let mut nbrs = dg.remove_vertex(2);
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![0, 3, 4], "base and delta neighbours alike");
        assert_eq!(dg.degree(0), 0);
        assert_eq!(dg.num_edges(), 0);
        assert_eq!(dg.delta_edge_count(), 0);
        assert_eq!(dg.tombstoned_edge_count(), 3);
    }

    #[test]
    fn removed_edges_count_toward_the_compaction_trigger() {
        let mut dg = seeded();
        assert!(!dg.needs_compaction(0.3));
        dg.remove_edge(0, 1);
        assert!(dg.needs_compaction(0.3), "1 tombstone / 3 base > 0.3");
        assert!(dg.compact().is_none(), "edge-only churn keeps ids");
        assert_eq!(dg.num_edges(), 2);
        assert_eq!(dg.tombstoned_edge_count(), 0);
    }

    /// Every accessor of `a` and `b` agrees, weights bitwise.
    fn assert_same(a: &DynamicGraph, b: &DynamicGraph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_live_vertices(), b.num_live_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.delta_edge_count(), b.delta_edge_count());
        assert_eq!(a.tombstoned_edge_count(), b.tombstoned_edge_count());
        assert_eq!(a.free_ids(), b.free_ids());
        assert_eq!(a.snapshot(), b.snapshot());
        for v in 0..a.num_vertices() as VertexId {
            assert_eq!(a.is_live(v), b.is_live(v), "liveness of {v}");
            assert_eq!(a.degree(v), b.degree(v), "degree of {v}");
            let (na, nb): (Vec<_>, Vec<_>) = (a.neighbors(v).collect(), b.neighbors(v).collect());
            assert_eq!(na, nb, "neighbours of {v}");
        }
        for j in 0..a.weights().dims() {
            assert_eq!(a.weights().dim(j), b.weights().dim(j));
            assert_eq!(
                a.weights().total(j).to_bits(),
                b.weights().total(j).to_bits()
            );
        }
    }

    fn round_trip(dg: &DynamicGraph) -> Result<DynamicGraph, SnapshotError> {
        let mut w = PayloadWriter::new();
        dg.encode_base(&mut w);
        dg.encode_overlay(&mut w);
        let mut r = PayloadReader::new(&w.buf);
        let back = DynamicGraph::decode_snapshot(&mut r)?;
        assert!(
            r.finished(),
            "the decoder reads exactly what the encoder wrote"
        );
        Ok(back)
    }

    #[test]
    fn graph_section_round_trips_mid_churn() {
        let mut dg = seeded();
        let v4 = dg.add_vertex(&[1.0, 2.0]);
        assert!(dg.add_edge(v4, 1) && dg.add_edge(0, 2), "delta edges");
        assert!(
            dg.remove_edge(1, 2) && dg.add_edge(2, 1),
            "a resurrected base edge"
        );
        assert!(dg.remove_edge(2, 3), "a removed base edge");
        dg.remove_vertex(3); // stays dead
        dg.remove_vertex(0);
        assert_eq!(dg.add_vertex(&[5.0, 6.0]), 0, "a recycled id");
        assert!(dg.add_edge(0, v4));
        assert_eq!(dg.free_ids(), &[3]);
        assert_eq!((dg.delta_edge_count(), dg.tombstoned_edge_count()), (2, 2));

        let mut back = round_trip(&dg).expect("a saved graph restores");
        assert_same(&dg, &back);
        // Both continue into the same results.
        for g in [&mut dg, &mut back] {
            assert!(g.add_edge(0, 1), "the recycled id resurrects its base slot");
            assert!(g.remove_edge(v4, 1));
            assert_eq!(g.add_vertex(&[1.5, 2.5]), 3);
            assert_eq!(g.remove_vertex(2), vec![1]);
        }
        assert_same(&dg, &back);
        assert_eq!(dg.compact(), back.compact());
        assert_same(&dg, &back);
        assert_same(&dg, &round_trip(&dg).unwrap());
    }

    /// The graph section of `seeded()` — the path 0-1-2-3, base slots
    /// `0→1 | 1→0 1→2 | 2→1 2→3 | 3→2` — as fields to forge one at a time.
    struct Section {
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        removed: Vec<u64>,
        delta: Vec<Vec<VertexId>>,
        free: Vec<VertexId>,
    }

    impl Section {
        fn seeded() -> Self {
            let dg = seeded();
            Section {
                offsets: dg.base.raw_offsets().to_vec(),
                targets: dg.base.raw_targets().to_vec(),
                removed: dg.removed.clone(),
                delta: dg.delta.clone(),
                free: dg.free.clone(),
            }
        }

        /// Decodes the forged section; the weights are the seeded ones,
        /// padded to the delta's id space.
        fn decode(&self) -> Result<DynamicGraph, SnapshotError> {
            let mut w = PayloadWriter::new();
            w.put_vec_usize(&self.offsets);
            w.put_vec_u32(&self.targets);
            w.put_vec_u64(&self.removed);
            w.put_rows_u32(&self.delta);
            w.put_vec_u32(&self.free);
            w.put_usize(1);
            w.put_vec_f64(&vec![1.0; self.delta.len()]);
            w.put_vec_f64(&[self.delta.len() as f64]);
            DynamicGraph::decode_snapshot(&mut PayloadReader::new(&w.buf))
        }

        fn refused(&self, why: &str) {
            match self.decode() {
                Err(SnapshotError::Corrupt(found)) => assert!(
                    found.contains(why),
                    "expected a refusal naming {why:?}, got {found:?}"
                ),
                Err(other) => panic!("expected Corrupt({why:?}), got {other}"),
                Ok(_) => panic!("the forged section restored; expected {why:?}"),
            }
        }
    }

    #[test]
    fn each_restore_check_refuses_a_forged_section_by_name() {
        Section::seeded()
            .decode()
            .expect("the unforged section restores");
        let forge = |f: &dyn Fn(&mut Section)| {
            let mut s = Section::seeded();
            f(&mut s);
            s
        };
        // The base CSR goes through `Graph::try_from_csr`: 3→2 becomes
        // 3→1, which 1's row does not mirror.
        forge(&|s| s.targets[5] = 1).refused("base CSR: adjacency is not symmetric");
        // Removed bits must cover exactly the six base slots.
        forge(&|s| s.removed.push(0)).refused("removed bits (2 words) do not cover exactly");
        forge(&|s| s.removed.clear()).refused("removed bits (0 words) do not cover exactly");
        forge(&|s| s.removed[0] = 1 << 6).refused("do not cover exactly the 6 base slots");
        // ... and come in mirrored pairs: 1→2 removed, 2→1 not.
        forge(&|s| s.removed[0] = 1 << 2).refused("removed bit of base edge (1, 2) has no mirror");
        // The delta goes through the same CSR validator.
        forge(&|s| s.delta[0] = vec![3]).refused("delta: adjacency is not symmetric");
        forge(&|s| s.delta[0] = vec![9]).refused("delta: target out of range");
        forge(&|s| s.delta[2] = vec![2]).refused("delta: self-loop at vertex 2");
        forge(&|s| {
            s.delta[0] = vec![3, 2];
            s.delta[2] = vec![0];
            s.delta[3] = vec![0];
        })
        .refused("delta: adjacency of 0 not strictly sorted");
        // A delta row is disjoint from the base row, removed or not.
        forge(&|s| {
            s.delta[0] = vec![1];
            s.delta[1] = vec![0];
        })
        .refused("delta edge (0, 1) is a base edge");
        forge(&|s| s.delta.truncate(3)).refused("id space 3 smaller than base CSR 4");
        // The free list names distinct ids of the id space ...
        forge(&|s| s.free = vec![4]).refused("free-list entry 4 is not a unique id below 4");
        forge(&|s| {
            s.removed[0] = 0b11_1111;
            s.free = vec![1, 1];
        })
        .refused("free-list entry 1 is not a unique id below 4");
        // ... whose rows hold no live edge, base or delta.
        forge(&|s| s.free = vec![1]).refused("live edge (1, 0) touches dead vertex 1");
        forge(&|s| {
            s.removed[0] = 0b11_1111;
            s.delta[0] = vec![2];
            s.delta[2] = vec![0];
            s.free = vec![2];
        })
        .refused("live edge (2, 0) touches dead vertex 2");
        // With every slot removed, vertex 1 may be dead.
        let dead = forge(&|s| {
            s.removed[0] = 0b00_1111;
            s.free = vec![1];
        });
        let g = dead.decode().expect("a consistent dead vertex restores");
        assert_eq!((g.num_tombstoned(), g.tombstoned_edge_count()), (1, 2));
    }
}
