//! [`DynamicGraph`]: a CSR graph plus an in-memory delta, with tombstoned
//! removal and periodic compaction.
//!
//! `mdbgp-graph`'s [`Graph`] is immutable CSR — ideal for the GD mat-vec,
//! hostile to mutation. The streaming layer therefore keeps a **base** CSR
//! plus per-vertex sorted **delta** adjacency lists, and a **tombstone
//! set** over both for removals. Reads see `(base ∖ tombstones) ∪ delta`;
//! writes go to the delta (or clear a tombstone); [`DynamicGraph::compact`]
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
//!    dropped in place, a removed *base* edge is recorded in a per-vertex
//!    tombstone list (the base CSR is immutable), and a removed vertex —
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

use crate::TOMBSTONE;
use mdbgp_core::parallel::{even_boundaries, for_each_chunk_mut, prefix_boundaries};
use mdbgp_graph::{Graph, VertexId, VertexWeights};

/// A growing-and-shrinking graph: base CSR + delta adjacency + tombstones
/// + multi-dimensional weights.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    base: Graph,
    /// Per-vertex delta adjacency, sorted ascending; indexes `0..n` where
    /// `n >= base.num_vertices()` (vertices past the base have all their
    /// adjacency here).
    delta: Vec<Vec<VertexId>>,
    /// Undirected delta edge count.
    delta_edges: usize,
    /// Per-vertex sorted tombstone lists over the *base* adjacency
    /// (symmetric, like the delta). Delta removals mutate the delta
    /// directly and never land here.
    removed: Vec<Vec<VertexId>>,
    /// Undirected tombstoned base edge count.
    removed_base_edges: usize,
    /// Vertex tombstones; a dead vertex has no live incident edges.
    dead: Vec<bool>,
    dead_count: usize,
    /// Ids of currently dead vertices, most recently tombstoned last —
    /// [`Self::add_vertex`] recycles them LIFO so a high-churn stream does
    /// not grow the id space unboundedly between purges. Invariant:
    /// `free` contains exactly the ids with `dead[v] == true`.
    free: Vec<VertexId>,
    weights: VertexWeights,
    /// Worker count for the parallel compaction merge and the purge's
    /// weight gather. Not serialized: a restored graph starts at 1 and the
    /// engine re-applies its configured count. Never influences results —
    /// every parallel pass here is pure data movement into disjoint
    /// output ranges.
    threads: usize,
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
            base,
            delta: vec![Vec::new(); n],
            delta_edges: 0,
            removed: vec![Vec::new(); n],
            removed_base_edges: 0,
            dead: vec![false; n],
            dead_count: 0,
            free: Vec::new(),
            weights,
            threads: 1,
        }
    }

    /// Sets the worker count for the parallel compaction merge and the
    /// purge's weight gather. Results are identical for every count —
    /// only wall-clock changes. Mutations ([`Self::add_edge`],
    /// [`Self::remove_edge`], [`Self::remove_vertex`]) are always serial.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// An empty dynamic graph with `dims` weight dimensions (pure streaming
    /// from nothing).
    pub fn empty(dims: usize) -> Self {
        assert!(dims > 0);
        Self {
            base: Graph::empty(0),
            delta: Vec::new(),
            delta_edges: 0,
            removed: Vec::new(),
            removed_base_edges: 0,
            dead: Vec::new(),
            dead_count: 0,
            free: Vec::new(),
            weights: VertexWeights::from_vectors(vec![Vec::new(); dims]),
            threads: 1,
        }
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
        self.delta.len() - self.dead_count
    }

    /// Number of vertices tombstoned since the last purge.
    #[inline]
    pub fn num_tombstoned(&self) -> usize {
        self.dead_count
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

    /// Live degree of `v` (0 for a tombstoned vertex).
    pub fn degree(&self, v: VertexId) -> usize {
        let base_deg = if (v as usize) < self.base.num_vertices() {
            self.base.degree(v) - self.removed[v as usize].len()
        } else {
            0
        };
        base_deg + self.delta[v as usize].len()
    }

    /// Live neighbours of `v`: base slice filtered through the edge
    /// tombstones, chained with the delta (each sorted; the union is *not*
    /// globally sorted, but is duplicate-free). Empty for a tombstoned
    /// vertex — removal sheds its incident edges.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let base: &[VertexId] = if (v as usize) < self.base.num_vertices() {
            self.base.neighbors(v)
        } else {
            &[]
        };
        let gone: &[VertexId] = &self.removed[v as usize];
        base.iter()
            .copied()
            .filter(move |u| gone.binary_search(u).is_err())
            .chain(self.delta[v as usize].iter().copied())
    }

    /// Whether edge `{u, v}` is live (present and not tombstoned).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if self.in_base(u, v) {
            return self.removed[u as usize].binary_search(&v).is_err();
        }
        self.delta[u as usize].binary_search(&v).is_ok()
    }

    /// Whether `{u, v}` is an edge of the base CSR, tombstoned or not.
    fn in_base(&self, u: VertexId, v: VertexId) -> bool {
        (u as usize) < self.base.num_vertices()
            && (v as usize) < self.base.num_vertices()
            && self.base.has_edge(u, v)
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
            self.dead_count -= 1;
            for (j, &w) in weight_row.iter().enumerate() {
                self.weights.set_weight(j, v, w);
            }
            return v;
        }
        self.weights.push_vertex(weight_row);
        self.delta.push(Vec::new());
        self.removed.push(Vec::new());
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
        let n = self.num_vertices();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} vertices"
        );
        assert!(
            self.is_live(u) && self.is_live(v),
            "edge ({u}, {v}) touches a tombstoned vertex"
        );
        if u == v || self.has_edge(u, v) {
            return false;
        }
        // A tombstoned base edge is resurrected in place; inserting it into
        // the delta instead would double-count the edge in every read until
        // the next compaction deduplicated it.
        if let Ok(pos) = self.removed[u as usize].binary_search(&v) {
            self.removed[u as usize].remove(pos);
            // Invariant, not input: tombstones are only ever inserted
            // symmetrically, so the mirror entry must exist.
            let pos = self.removed[v as usize]
                .binary_search(&u)
                .expect("edge tombstones must be symmetric");
            self.removed[v as usize].remove(pos);
            self.removed_base_edges -= 1;
            return true;
        }
        self.delta_edges += 1;
        let du = &mut self.delta[u as usize];
        let pos = du
            .binary_search(&v)
            .expect_err("has_edge ruled out a delta entry");
        du.insert(pos, v);
        let dv = &mut self.delta[v as usize];
        let pos = dv
            .binary_search(&u)
            .expect_err("delta adjacency must be symmetric");
        dv.insert(pos, u);
        true
    }

    /// Removes undirected edge `{u, v}`: a delta edge is dropped in place,
    /// a base edge is tombstoned. Returns `false` (and does nothing) when
    /// the edge does not exist (or `u == v`).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or tombstoned.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let n = self.num_vertices();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} vertices"
        );
        assert!(
            self.is_live(u) && self.is_live(v),
            "edge ({u}, {v}) touches a tombstoned vertex"
        );
        if u == v {
            return false;
        }
        if let Ok(pos) = self.delta[u as usize].binary_search(&v) {
            self.delta[u as usize].remove(pos);
            // Invariant, not input: delta adjacency is only ever inserted
            // symmetrically, so the mirror entry must exist.
            let pos = self.delta[v as usize]
                .binary_search(&u)
                .expect("delta adjacency must be symmetric");
            self.delta[v as usize].remove(pos);
            self.delta_edges -= 1;
            return true;
        }
        if !self.in_base(u, v) {
            return false;
        }
        let Err(pos) = self.removed[u as usize].binary_search(&v) else {
            return false; // already tombstoned
        };
        self.removed[u as usize].insert(pos, v);
        let pos = self.removed[v as usize]
            .binary_search(&u)
            .expect_err("edge tombstones must be symmetric");
        self.removed[v as usize].insert(pos, u);
        self.removed_base_edges += 1;
        true
    }

    /// Tombstones vertex `v`: removes every live incident edge, then marks
    /// the vertex dead. Its id stays addressable (reading as an isolated
    /// vertex) until the next purging [`Self::compact`] drops it. Returns
    /// the neighbours it was disconnected from, so callers can settle
    /// per-edge accounting.
    ///
    /// # Panics
    /// Panics if `v` is out of range or already tombstoned.
    pub fn remove_vertex(&mut self, v: VertexId) -> Vec<VertexId> {
        assert!(
            (v as usize) < self.num_vertices(),
            "vertex {v} out of range"
        );
        assert!(self.is_live(v), "vertex {v} is already tombstoned");
        let nbrs: Vec<VertexId> = self.neighbors(v).collect();
        for &u in &nbrs {
            let removed = self.remove_edge(v, u);
            debug_assert!(removed, "neighbour list out of sync with edges");
        }
        self.dead[v as usize] = true;
        self.dead_count += 1;
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
            || self.dead_count as f64 > slack * self.num_vertices().max(1) as f64
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
        if self.dead_count == 0 {
            if self.delta_edges == 0
                && self.removed_base_edges == 0
                && self.base.num_vertices() == self.num_vertices()
            {
                return None;
            }
            self.base = self.merged_csr();
            for adj in &mut self.delta {
                adj.clear();
            }
            for gone in &mut self.removed {
                gone.clear();
            }
            self.delta_edges = 0;
            self.removed_base_edges = 0;
            return None;
        }

        // Purge: renumber live vertices 0..live in ascending old-id order.
        let (map, live_ids) = self.purge_map();
        self.base = self.live_csr(&map, &live_ids);
        self.weights = self.restrict_weights(&live_ids);
        let live = live_ids.len();
        self.delta = vec![Vec::new(); live];
        self.removed = vec![Vec::new(); live];
        self.dead = vec![false; live];
        self.delta_edges = 0;
        self.removed_base_edges = 0;
        self.dead_count = 0;
        self.free.clear();
        Some(map)
    }

    /// Compacts if needed and returns the full CSR view — the entry point
    /// for refinement, which runs the GD kernels on plain CSR.
    ///
    /// # Panics
    /// Panics if tombstoned vertices are pending: the compaction would
    /// remap ids and this accessor has no way to hand the map back. Call
    /// [`Self::compact`] and apply the remap instead.
    pub fn compacted_csr(&mut self) -> &Graph {
        assert!(
            self.dead_count == 0,
            "tombstoned vertices pending: call compact() and apply the returned id remap"
        );
        let remap = self.compact();
        debug_assert!(remap.is_none());
        &self.base
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

    /// Weight rows of `live_ids`, gathered in parallel over disjoint
    /// ranges of the output columns. Bitwise identical to
    /// [`VertexWeights::restrict`] for every thread count: the gather is
    /// pure data movement, and [`VertexWeights::from_vectors`] re-sums
    /// each total with the same serial left-to-right reduction `restrict`
    /// uses.
    fn restrict_weights(&self, live_ids: &[VertexId]) -> VertexWeights {
        let dims = self.weights.dims();
        let bounds = even_boundaries(live_ids.len(), self.threads);
        let mut data = Vec::with_capacity(dims);
        for j in 0..dims {
            let col = self.weights.dim(j);
            let mut out = vec![0.0f64; live_ids.len()];
            for_each_chunk_mut(&mut out, &bounds, |range, chunk| {
                for (slot, &v) in chunk.iter_mut().zip(&live_ids[range]) {
                    *slot = col[v as usize];
                }
            });
            data.push(out);
        }
        VertexWeights::from_vectors(data)
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
        self.assemble_csr(live_ids, |old_v| {
            debug_assert!(!self.dead[old_v as usize], "live edge to a dead vertex");
            map[old_v as usize]
        })
    }

    /// Base edges (minus tombstones) + delta edges over the full id space —
    /// dead vertices come out isolated.
    fn merged_csr(&self) -> Graph {
        let all: Vec<VertexId> = (0..self.num_vertices() as VertexId).collect();
        self.assemble_csr(&all, |v| v)
    }

    /// Assembles the live CSR over `order` (old ids, in output order,
    /// neighbour ids translated through `map`) **without an edge sort**:
    /// each vertex's surviving-base and delta lists are individually sorted
    /// and mutually disjoint, so a per-vertex two-pointer merge emits the
    /// adjacency already sorted — O(n + m) total where the former
    /// edge-list builder paid O(m log m).
    ///
    /// The merge parallelizes over vertex ranges: a serial O(n) pass over
    /// [`Self::degree`] fixes every output offset up front, then
    /// [`prefix_boundaries`] splits the rows into near-equal *edge-count*
    /// chunks and each scoped worker merges its rows into the disjoint
    /// `targets` region those offsets pin down. Every write lands at an
    /// offset-determined position, so the output is bitwise identical for
    /// every thread count. `map` must be monotone on the live vertices
    /// (purge renumbering is), or the output adjacency would come out
    /// unsorted — debug builds re-validate every invariant via
    /// [`Graph::from_csr`] inside [`Graph::from_csr_unchecked`].
    fn assemble_csr(&self, order: &[VertexId], map: impl Fn(VertexId) -> VertexId + Sync) -> Graph {
        let mut offsets = Vec::with_capacity(order.len() + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for &u in order {
            total += self.degree(u);
            offsets.push(total);
        }
        let mut targets = vec![0 as VertexId; total];
        let rows = prefix_boundaries(&offsets, self.threads);
        if rows.len() <= 2 {
            self.merge_rows(order, &map, &offsets, 0..order.len(), &mut targets);
        } else {
            let mut chunks: Vec<(std::ops::Range<usize>, &mut [VertexId])> =
                Vec::with_capacity(rows.len() - 1);
            let mut rest: &mut [VertexId] = &mut targets;
            for w in rows.windows(2) {
                let (head, tail) = rest.split_at_mut(offsets[w[1]] - offsets[w[0]]);
                chunks.push((w[0]..w[1], head));
                rest = tail;
            }
            std::thread::scope(|scope| {
                for (range, chunk) in chunks {
                    let (map, offsets) = (&map, &offsets);
                    scope.spawn(move || self.merge_rows(order, map, offsets, range, chunk));
                }
            });
        }
        Graph::from_csr_unchecked(offsets, targets)
    }

    /// The per-vertex three-way merge behind [`Self::assemble_csr`], over
    /// rows `range` of `order`, writing into the `targets` region that
    /// `offsets` assigns to those rows.
    fn merge_rows(
        &self,
        order: &[VertexId],
        map: &(impl Fn(VertexId) -> VertexId + Sync),
        offsets: &[usize],
        range: std::ops::Range<usize>,
        out: &mut [VertexId],
    ) {
        let elem_base = offsets[range.start];
        let mut cursor = 0usize;
        for r in range {
            let u = order[r];
            debug_assert_eq!(cursor, offsets[r] - elem_base);
            let base: &[VertexId] = if (u as usize) < self.base.num_vertices() {
                self.base.neighbors(u)
            } else {
                &[]
            };
            let gone = &self.removed[u as usize];
            let delta = &self.delta[u as usize];
            let (mut bi, mut ri, mut di) = (0, 0, 0);
            loop {
                // Next surviving base neighbour; the tombstone cursor only
                // ever advances because both lists are sorted.
                let bnext = loop {
                    if bi >= base.len() {
                        break None;
                    }
                    let v = base[bi];
                    while ri < gone.len() && gone[ri] < v {
                        ri += 1;
                    }
                    if ri < gone.len() && gone[ri] == v {
                        bi += 1;
                        ri += 1;
                    } else {
                        break Some(v);
                    }
                };
                let next = match (bnext, delta.get(di).copied()) {
                    (None, None) => break,
                    (Some(b), None) => {
                        bi += 1;
                        b
                    }
                    (None, Some(d)) => {
                        di += 1;
                        d
                    }
                    (Some(b), Some(d)) => {
                        if b < d {
                            bi += 1;
                            b
                        } else {
                            di += 1;
                            d
                        }
                    }
                };
                out[cursor] = map(next);
                cursor += 1;
            }
        }
        debug_assert_eq!(cursor, out.len());
    }

    /// Serializes the full dynamic state — base CSR, delta adjacency, edge
    /// tombstones, vertex tombstones, the free list **verbatim** (a
    /// restored graph recycles the same ids in the same LIFO order as the
    /// saver would have), and the weight rows with their live totals —
    /// into a snapshot payload.
    pub(crate) fn encode_snapshot(&self, w: &mut crate::snapshot::PayloadWriter) {
        w.put_vec_usize(self.base.raw_offsets());
        w.put_vec_u32(self.base.raw_targets());
        w.put_usize(self.delta.len());
        for adj in &self.delta {
            w.put_vec_u32(adj);
        }
        w.put_usize(self.delta_edges);
        w.put_usize(self.removed.len());
        for gone in &self.removed {
            w.put_vec_u32(gone);
        }
        w.put_usize(self.removed_base_edges);
        w.put_vec_bool(&self.dead);
        w.put_vec_u32(&self.free);
        let dims = self.weights.dims();
        w.put_usize(dims);
        for j in 0..dims {
            w.put_vec_f64(self.weights.dim(j));
        }
        w.put_vec_f64(&(0..dims).map(|j| self.weights.total(j)).collect::<Vec<_>>());
    }

    /// Rebuilds a graph from [`Self::encode_snapshot`] bytes. The payload
    /// already passed the snapshot checksum, so every rejection here
    /// ([`crate::SnapshotError::Corrupt`]) marks a writer/reader format
    /// divergence rather than bit rot — but each invariant is still
    /// checked, because the alternative is an index panic deep inside the
    /// serving path.
    pub(crate) fn decode_snapshot(
        r: &mut crate::snapshot::PayloadReader,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let corrupt = |why: String| SnapshotError::Corrupt(why);

        let offsets = r.get_vec_usize("graph.base.offsets")?;
        let targets = r.get_vec_u32("graph.base.targets")?;
        // `||` short-circuits: `last()` only runs after `is_empty()` held.
        if offsets.is_empty() || offsets[0] != 0 || *offsets.last().unwrap() != targets.len() {
            return Err(corrupt("base CSR offsets do not frame the targets".into()));
        }
        let base_n = offsets.len() - 1;
        for v in 0..base_n {
            if offsets[v] > offsets[v + 1] {
                return Err(corrupt(format!("base CSR offsets not monotone at {v}")));
            }
            let adj = &targets[offsets[v]..offsets[v + 1]];
            for (i, &t) in adj.iter().enumerate() {
                if (t as usize) >= base_n || t as usize == v || (i > 0 && adj[i - 1] >= t) {
                    return Err(corrupt(format!("base CSR adjacency of {v} is invalid")));
                }
            }
        }
        if targets.len() % 2 != 0 {
            return Err(corrupt(
                "base CSR stores an odd number of directed edges".into(),
            ));
        }
        let base = Graph::from_csr(offsets, targets);

        // Every delta and edge-tombstone list takes at least its 8-byte
        // length prefix, which bounds the id space by the payload.
        let n = r.get_len(8, "graph.delta.len")?;
        if n < base_n {
            return Err(corrupt(format!(
                "id space {n} smaller than base CSR {base_n}"
            )));
        }
        let mut delta = Vec::with_capacity(n);
        for _ in 0..n {
            delta.push(r.get_vec_u32("graph.delta.adj")?);
        }
        let delta_edges = r.get_usize("graph.delta_edges")?;
        let removed_n = r.get_len(8, "graph.removed.len")?;
        if removed_n != n {
            return Err(corrupt(
                "edge-tombstone table does not cover the id space".into(),
            ));
        }
        let mut removed = Vec::with_capacity(n);
        for _ in 0..n {
            removed.push(r.get_vec_u32("graph.removed.adj")?);
        }
        let removed_base_edges = r.get_usize("graph.removed_base_edges")?;
        let dead = r.get_vec_bool("graph.dead")?;
        if dead.len() != n {
            return Err(corrupt(
                "vertex-tombstone table does not cover the id space".into(),
            ));
        }
        let dead_count = dead.iter().filter(|&&d| d).count();
        let free = r.get_vec_u32("graph.free")?;
        // The free list must contain exactly the dead ids, each once — the
        // recycling invariant `add_vertex` relies on.
        if free.len() != dead_count {
            return Err(corrupt(format!(
                "free list has {} entries for {dead_count} tombstoned vertices",
                free.len()
            )));
        }
        let mut on_free = vec![false; n];
        for &v in &free {
            if (v as usize) >= n || !dead[v as usize] || on_free[v as usize] {
                return Err(corrupt(format!(
                    "free-list entry {v} is not a unique dead id"
                )));
            }
            on_free[v as usize] = true;
        }
        for (v, adj) in delta.iter().enumerate() {
            for &u in adj {
                if (u as usize) >= n {
                    return Err(corrupt(format!("delta edge ({v}, {u}) is out of range")));
                }
            }
        }
        for (v, gone) in removed.iter().enumerate() {
            for &u in gone {
                if (u as usize) >= n {
                    return Err(corrupt(format!(
                        "edge tombstone ({v}, {u}) is out of range"
                    )));
                }
            }
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
        let weights = VertexWeights::from_raw_parts(data, totals);

        Ok(Self {
            base,
            delta,
            delta_edges,
            removed,
            removed_base_edges,
            dead,
            dead_count,
            free,
            weights,
            threads: 1,
        })
    }

    /// Approximate heap footprint of the adjacency structures in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.base.memory_bytes()
            + self
                .delta
                .iter()
                .chain(self.removed.iter())
                .map(|a| a.capacity() * std::mem::size_of::<VertexId>())
                .sum::<usize>()
            + self.dead.len()
            + self.weights.memory_bytes()
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
        assert_eq!(dg.compacted_csr(), &before);
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
    #[should_panic(expected = "tombstoned")]
    fn compacted_csr_rejects_pending_dead_vertices() {
        let mut dg = seeded();
        dg.remove_vertex(0);
        dg.compacted_csr();
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
    fn parallel_compaction_is_bit_identical_to_serial() {
        let churn = |dg: &mut DynamicGraph| {
            let v = dg.add_vertex(&[2.0, 3.0]); // id 4
            dg.add_edge(v, 0);
            dg.add_edge(0, 2);
            dg.remove_edge(1, 2);
            dg.remove_vertex(1); // stays dead -> purging compaction
        };
        let mut serial = seeded();
        churn(&mut serial);
        let mut parallel = seeded();
        parallel.set_threads(4);
        churn(&mut parallel);
        assert_eq!(serial.compact(), parallel.compact());
        assert_eq!(serial.csr(), parallel.csr());
        let dims = serial.weights().dims();
        for j in 0..dims {
            assert_eq!(serial.weights().dim(j), parallel.weights().dim(j));
            assert!(serial.weights().total(j) == parallel.weights().total(j));
        }
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
}
