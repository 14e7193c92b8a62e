//! Shared machinery for scripting update streams against a
//! [`mdbgp_stream::StreamingPartitioner`] from replay-style harnesses.
//!
//! The harnesses (the `stream_online` bench in every mode, `mdbgp_cli
//! stream`) address vertices by their ids in some *original* history
//! graph, but under churn the engine's ids shift: a purging compaction
//! drops tombstoned vertices and reports an old→new map in
//! [`mdbgp_stream::engine::BatchReport::remap`]. [`IdTracker`] maintains
//! the original→current translation so a harness can keep scripting in
//! original ids; [`queue_arrivals`] appends the next originals of the
//! history graph as arrivals, and [`queue_removals`] appends a
//! deterministic mix of edge and vertex removals to a batch, sampled from
//! the live graph.

use mdbgp_graph::{Graph, VertexId};
use mdbgp_stream::{DynamicGraph, UpdateBatch, TOMBSTONE};
use rand::rngs::StdRng;
use rand::Rng;

/// Original-id → current-engine-id map that survives purges.
#[derive(Clone, Debug)]
pub struct IdTracker {
    map: Vec<VertexId>,
}

impl IdTracker {
    /// Identity over the first `n` original ids (the bootstrap prefix).
    pub fn identity(n: usize) -> Self {
        Self {
            map: (0..n as VertexId).collect(),
        }
    }

    /// Registers the next original id as currently living at `cur`
    /// (callers track arrival order: the engine assigns ids sequentially).
    pub fn push(&mut self, cur: VertexId) {
        self.map.push(cur);
    }

    /// Current engine id of original vertex `orig`, or `None` once removed.
    pub fn current(&self, orig: VertexId) -> Option<VertexId> {
        match self.map[orig as usize] {
            TOMBSTONE => None,
            cur => Some(cur),
        }
    }

    /// Marks an original id as removed.
    pub fn remove(&mut self, orig: VertexId) {
        self.map[orig as usize] = TOMBSTONE;
    }

    /// Number of original ids tracked so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no ids are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rewrites every live translation through a purge's old→new map
    /// (apply once per `BatchReport::remap`).
    pub fn apply_remap(&mut self, remap: &[VertexId]) {
        for slot in &mut self.map {
            if *slot != TOMBSTONE {
                *slot = remap[*slot as usize];
            }
        }
    }
}

/// Predicts the engine ids the next `count` arrivals of one batch will be
/// assigned, mirroring [`DynamicGraph::add_vertex`]'s free-list recycling:
/// tombstoned ids come back most-recently-freed first, then fresh ids
/// extend the id space. Valid for a batch whose removals are queued
/// *after* its arrivals (the [`queue_removals`] convention) — earlier
/// same-batch removals would grow the free list mid-batch. Harnesses push
/// these predictions into their [`IdTracker`] so same-batch backward edges
/// between co-arrivals resolve, then verify them against the report's
/// authoritative `arrival_ids`.
pub fn predict_arrival_ids(graph: &DynamicGraph, count: usize) -> Vec<VertexId> {
    let mut free = graph.free_ids().to_vec();
    let mut next = graph.num_vertices() as VertexId;
    (0..count)
        .map(|_| {
            free.pop().unwrap_or_else(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect()
}

/// Checks a batch's predicted arrival ids (pushed into `tracker` at
/// assembly time) against the authoritative post-remap
/// `BatchReport::arrival_ids`. `end` is the exclusive original-id bound of
/// the batch's arrivals, which occupy `end - arrival_ids.len()..end` in
/// the tracker. A tracker entry removed by the batch's own churn must be
/// reported as `TOMBSTONE`; anything else is a prediction divergence —
/// same-batch co-arrival edges attached to the wrong vertices.
pub fn verify_arrival_ids(
    tracker: &IdTracker,
    end: VertexId,
    arrival_ids: &[VertexId],
) -> Result<(), String> {
    for (i, v) in (end - arrival_ids.len() as VertexId..end).enumerate() {
        match tracker.current(v) {
            Some(cur) if cur == arrival_ids[i] => {}
            Some(cur) => {
                return Err(format!(
                    "arrival id prediction diverged for original {v}: predicted {cur}, engine \
                     assigned {}",
                    arrival_ids[i]
                ))
            }
            None if arrival_ids[i] == TOMBSTONE => {}
            None => {
                return Err(format!(
                    "original {v} was removed in its own batch but the engine reports arrival \
                     id {}",
                    arrival_ids[i]
                ))
            }
        }
    }
    Ok(())
}

/// Appends original vertices `from..to` of the history graph `full` to
/// `batch` as arrivals: each carries its backward edges (to earlier
/// originals still live, translated through `tracker`) and the weights
/// `[1, max(1, backward degree)]`. Each arrival's engine id is predicted
/// against `graph` with [`predict_arrival_ids`] and pushed into `tracker`,
/// so edges between co-arrivals resolve; check the predictions against
/// the batch's report with [`verify_arrival_ids`].
pub fn queue_arrivals(
    batch: &mut UpdateBatch,
    full: &Graph,
    graph: &DynamicGraph,
    tracker: &mut IdTracker,
    from: VertexId,
    to: VertexId,
) {
    let predicted = predict_arrival_ids(graph, (to - from) as usize);
    for (v, id) in (from..to).zip(predicted) {
        let backward: Vec<VertexId> = full
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| u < v)
            .filter_map(|u| tracker.current(u))
            .collect();
        let degree_weight = backward.len().max(1) as f64;
        batch.add_vertex(vec![1.0, degree_weight], backward);
        tracker.push(id);
    }
}

/// Appends `edge_removals` random live-edge removals and `vertex_removals`
/// random live-vertex removals to `batch`, addressing the engine in
/// current ids via `tracker`. Vertex victims are drawn first and marked
/// removed in the tracker, edge removals steer clear of them (the engine
/// rejects references to vertices a batch already removed), and the vertex
/// removals are queued last so every earlier update still resolves.
/// Returns the victims as original ids. Sampling is deterministic in
/// `rng`; a floor of live vertices is kept so a long run never drains the
/// graph entirely.
pub fn queue_removals(
    batch: &mut UpdateBatch,
    graph: &DynamicGraph,
    tracker: &mut IdTracker,
    rng: &mut StdRng,
    edge_removals: usize,
    vertex_removals: usize,
) -> Vec<VertexId> {
    if tracker.is_empty() {
        return Vec::new();
    }
    let origs = tracker.len() as u32;
    // The tracker may already map originals that arrive later in the batch
    // being assembled (predicted ids past the current id space); those
    // cannot be sampled against the graph yet.
    let in_graph = |cur: VertexId| (cur as usize) < graph.num_vertices();
    let live_floor = 16.max(graph.num_live_vertices() / 2);
    let mut victims: Vec<VertexId> = Vec::with_capacity(vertex_removals);
    let mut victim_cur: Vec<VertexId> = Vec::with_capacity(vertex_removals);
    for _ in 0..vertex_removals {
        if graph.num_live_vertices() - victims.len() <= live_floor {
            break;
        }
        // Bounded rejection sampling: a miss is cheap, and bailing after a
        // fixed number of tries keeps pathological (mostly-removed) id
        // spaces from hanging the harness.
        for _ in 0..64 {
            let orig = rng.gen_range(0..origs);
            let Some(cur) = tracker.current(orig) else {
                continue;
            };
            if in_graph(cur) && !victims.contains(&orig) {
                victims.push(orig);
                victim_cur.push(cur);
                break;
            }
        }
    }
    for _ in 0..edge_removals {
        for _ in 0..64 {
            let Some(u) = tracker.current(rng.gen_range(0..origs)) else {
                continue;
            };
            if !in_graph(u) || victim_cur.contains(&u) {
                continue;
            }
            let deg = graph.degree(u);
            if deg == 0 {
                continue;
            }
            let v = graph
                .neighbors(u)
                .nth(rng.gen_range(0..deg))
                .expect("degree counted live neighbours");
            if victim_cur.contains(&v) {
                continue;
            }
            batch.remove_edge(u, v);
            break;
        }
    }
    for (&orig, &cur) in victims.iter().zip(&victim_cur) {
        batch.remove_vertex(cur);
        tracker.remove(orig);
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbgp_graph::builder::graph_from_edges;
    use mdbgp_graph::VertexWeights;
    use rand::SeedableRng;

    #[test]
    fn id_tracker_survives_a_remap() {
        let mut t = IdTracker::identity(4);
        t.push(4); // original 4 arrives at engine id 4
        t.remove(1);
        // Purge drops old id 1: [0, _, 2, 3, 4] -> [0, _, 1, 2, 3].
        t.apply_remap(&[0, TOMBSTONE, 1, 2, 3]);
        assert_eq!(t.current(0), Some(0));
        assert_eq!(t.current(1), None);
        assert_eq!(t.current(2), Some(1));
        assert_eq!(t.current(4), Some(3));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn queued_removals_reference_only_live_state() {
        let g = graph_from_edges(64, &(0..63u32).map(|v| (v, v + 1)).collect::<Vec<_>>());
        let w = VertexWeights::vertex_edge(&g);
        let mut dg = DynamicGraph::new(g, w);
        let mut tracker = IdTracker::identity(64);
        dg.remove_vertex(5);
        tracker.remove(5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut batch = UpdateBatch::new();
        let victims = queue_removals(&mut batch, &dg, &mut tracker, &mut rng, 6, 4);
        assert!(!victims.is_empty());
        assert!(victims.iter().all(|&orig| tracker.current(orig).is_none()));
        // Every queued removal must target a live, non-victim vertex at
        // queueing time (vertex removals come last, so earlier edge
        // removals still resolve when applied in order).
        let mut seen_vertex_removal = false;
        for update in &batch.updates {
            match update {
                mdbgp_stream::StreamUpdate::RemoveEdge { u, v } => {
                    assert!(!seen_vertex_removal, "edge removals precede vertex ones");
                    assert!(dg.is_live(*u) && dg.is_live(*v));
                }
                mdbgp_stream::StreamUpdate::RemoveVertex { v } => {
                    seen_vertex_removal = true;
                    assert!(dg.is_live(*v));
                }
                other => panic!("unexpected update {other:?}"),
            }
        }
        // And the whole batch must actually apply against a matching graph.
        for update in &batch.updates {
            match update {
                mdbgp_stream::StreamUpdate::RemoveEdge { u, v } => {
                    dg.remove_edge(*u, *v);
                }
                mdbgp_stream::StreamUpdate::RemoveVertex { v } => {
                    dg.remove_vertex(*v);
                }
                _ => unreachable!(),
            }
        }
    }
}
