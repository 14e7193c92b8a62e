//! Online vertex placement: linear deterministic greedy (LDG) generalized
//! to multi-dimensional balance.
//!
//! When a vertex arrives it is assigned once, using only its adjacency to
//! already-placed vertices and the current shard loads (Stanton & Kliot's
//! streaming model). Classic LDG scores a part by
//! `|N(v) ∩ P| · (1 − |P|/C)`; here the single capacity fraction becomes
//! the **worst** fraction across the `d` weight dimensions — the same
//! "every slab simultaneously" semantics as `mdbgp-core`'s
//! `FeasibleRegion`, with each slab's upper bound `(1 + ε) · w^{(j)}(V)/k`.
//! A part with no room in *any* dimension is infeasible; if every part is
//! infeasible (possible under adversarial drift) the least-overloaded part
//! takes the vertex and the refinement pass repairs balance afterwards.
//!
//! ## Speculative placement
//!
//! The staged ingest pipeline places a whole batch of arrivals at once:
//! fixed-size chunks of arrivals are scored concurrently against the
//! [`PartitionStore`]'s loads plus a chunk-local [`ReservationLedger`]
//! (`place` over a [`ReservedView`]). Nothing writes the store until
//! commit, and no worker observes another worker's in-flight decisions,
//! so placements are a pure function of the store and the
//! (thread-count-independent) chunk boundaries. Cross-chunk capacity
//! conflicts are detected and repaired afterwards by the engine's
//! deterministic repair stage, which scores through the same function.

use crate::store::PartitionStore;

/// Weight a placement stage has promised to parts but not yet committed:
/// a dense per-`(part, dimension)` accumulator layered over the
/// [`PartitionStore`]'s loads. Chunk workers keep one each (disjoint, no
/// synchronization); the repair stage keeps a global one.
#[derive(Clone, Debug)]
pub struct ReservationLedger {
    dims: usize,
    reserved: Vec<f64>,
}

impl ReservationLedger {
    /// An empty ledger for `k` parts × `dims` dimensions.
    pub fn new(k: usize, dims: usize) -> Self {
        Self {
            dims,
            reserved: vec![0.0; k * dims],
        }
    }

    /// Reserves `row` on part `p`.
    pub fn reserve(&mut self, p: u32, row: &[f64]) {
        debug_assert_eq!(row.len(), self.dims);
        for (j, &w) in row.iter().enumerate() {
            self.reserved[p as usize * self.dims + j] += w;
        }
    }

    /// Returns a reservation (an evicted speculative placement).
    pub fn release(&mut self, p: u32, row: &[f64]) {
        debug_assert_eq!(row.len(), self.dims);
        for (j, &w) in row.iter().enumerate() {
            self.reserved[p as usize * self.dims + j] -= w;
        }
    }

    /// Weight currently reserved on `(p, j)`.
    #[inline]
    pub fn reserved(&self, p: u32, j: usize) -> f64 {
        self.reserved[p as usize * self.dims + j]
    }

    /// Folds another ledger into this one (merging per-chunk reservations
    /// into the repair stage's global view).
    pub fn merge(&mut self, other: &ReservationLedger) {
        debug_assert_eq!(self.reserved.len(), other.reserved.len());
        for (slot, &r) in self.reserved.iter_mut().zip(&other.reserved) {
            *slot += r;
        }
    }
}

/// [`PartitionStore`] + [`ReservationLedger`]: what a speculative placement
/// decision actually scores against.
pub struct ReservedView<'a> {
    pub store: &'a PartitionStore,
    pub ledger: &'a ReservationLedger,
}

impl ReservedView<'_> {
    /// Load of part `p` in dimension `j`, committed plus reserved.
    #[inline]
    fn load(&self, p: u32, j: usize) -> f64 {
        self.store.load(p, j) + self.ledger.reserved(p, j)
    }
}

/// Chooses a part for an arrival with weight row `weight_row` whose placed
/// neighbours are distributed as `neighbor_counts` (one count per part),
/// against `view`'s loads and the per-dimension capacities `caps`. Parts
/// are ranked by score, then headroom, then the lowest id; when no part
/// has room in every dimension, the least-full part takes the arrival.
pub(crate) fn place(
    view: &ReservedView<'_>,
    caps: &[f64],
    neighbor_counts: &[usize],
    weight_row: &[f64],
) -> u32 {
    let mut best: Option<(u32, f64, f64)> = None; // feasible: argmax score
    let mut fallback: (u32, f64) = (0, f64::INFINITY); // argmin fullness
    for (p, &count) in neighbor_counts.iter().enumerate() {
        let p = p as u32;
        // Worst capacity fraction across dimensions if v lands on p.
        let mut fullness: f64 = 0.0;
        for (j, &w) in weight_row.iter().enumerate() {
            fullness = fullness.max((view.load(p, j) + w) / caps[j]);
        }
        if fullness < fallback.1 {
            fallback = (p, fullness);
        }
        if fullness > 1.0 {
            continue; // would break a slab
        }
        // Higher score, then more headroom; on an exact tie the incumbent
        // (the lower part id) stays.
        let score = count as f64 * (1.0 - fullness);
        if best.is_none_or(|(_, bs, bf)| score > bs || (score == bs && fullness < bf)) {
            best = Some((p, score, fullness));
        }
    }
    best.map_or(fallback.0, |(p, _, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbgp_graph::{Partition, VertexWeights};

    /// Store with k=2 over 4 unit-weight vertices split 2/2.
    fn unit_store() -> PartitionStore {
        let w = VertexWeights::unit(4);
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        PartitionStore::new(&p, &w)
    }

    /// One arrival scored against the store alone (an empty ledger), with
    /// capacities `(1 + ε) · (live total + row) / k`.
    fn place_alone(store: &PartitionStore, epsilon: f64, counts: &[usize], row: &[f64]) -> u32 {
        let k = store.num_parts();
        let ledger = ReservationLedger::new(k, row.len());
        let caps: Vec<f64> = (0..row.len())
            .map(|j| (1.0 + epsilon) * (store.total(j) + row[j]) / k as f64)
            .collect();
        let view = ReservedView {
            store,
            ledger: &ledger,
        };
        place(&view, &caps, counts, row)
    }

    #[test]
    fn prefers_the_part_with_more_neighbors() {
        let store = unit_store();
        assert_eq!(place_alone(&store, 0.5, &[3, 1], &[1.0]), 0);
        assert_eq!(place_alone(&store, 0.5, &[0, 2], &[1.0]), 1);
    }

    #[test]
    fn respects_capacity_over_affinity() {
        // Part 0 has all the neighbours but no room: cap = 1.05 * 5/2 =
        // 2.625 and part 0 already holds 3.
        let w = VertexWeights::unit(4);
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        let store = PartitionStore::new(&p, &w);
        let chosen = place_alone(&store, 0.05, &[4, 0], &[1.0]);
        assert_eq!(chosen, 1, "full part must be skipped despite affinity");
    }

    #[test]
    fn no_neighbors_balances_load() {
        let w = VertexWeights::unit(3);
        let p = Partition::new(vec![0, 0, 1], 2);
        let store = PartitionStore::new(&p, &w);
        assert_eq!(place_alone(&store, 0.5, &[0, 0], &[1.0]), 1);
    }

    #[test]
    fn overflow_picks_least_loaded() {
        // Every part over cap (ε = 0): fall back to least-full.
        let w = VertexWeights::unit(4);
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        let store = PartitionStore::new(&p, &w);
        assert_eq!(place_alone(&store, 0.0, &[2, 2], &[1.0]), 1);
    }

    #[test]
    fn released_capacity_counts_immediately() {
        // As `respects_capacity_over_affinity`, but part 0 sheds a vertex
        // first. The live totals shrink with it (cap = 1.6·(3+1)/2 = 3.2
        // after one release, at ε = 0.6), so part 0 — at live load 2 —
        // admits the arrival on affinity without waiting for a purge.
        let w = VertexWeights::unit(4);
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        let mut store = PartitionStore::new(&p, &w);
        store.release_vertex(0, &[1.0]);
        assert_eq!(store.total(0), 3.0);
        assert_eq!(place_alone(&store, 0.6, &[4, 0], &[1.0]), 0);
        // At a tight ε the same part is still infeasible (cap = 2.1 < 3):
        // releases free capacity, they do not suspend the slabs.
        assert_eq!(place_alone(&store, 0.05, &[4, 0], &[1.0]), 1);
    }

    #[test]
    fn multi_dim_capacity_is_the_worst_dimension() {
        // Two dims; part 0 has room in dim 0 but not dim 1.
        let w =
            VertexWeights::from_vectors(vec![vec![1.0, 1.0, 1.0, 1.0], vec![5.0, 5.0, 1.0, 1.0]]);
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        let store = PartitionStore::new(&p, &w);
        // dim-0 cap = 1.25·5/2 = 3.125: part 0 fits (2+1). dim-1 cap =
        // 1.25·13/2 = 8.125: part 0 at 10+1 overflows -> infeasible even
        // though dim 0 has room.
        let chosen = place_alone(&store, 0.25, &[5, 0], &[1.0, 1.0]);
        assert_eq!(chosen, 1);
    }

    #[test]
    fn reservations_count_against_capacity() {
        // Speculative scoring: a chunk's own reservations must eat into
        // the store's headroom exactly like committed load.
        let store = unit_store();
        let mut ledger = ReservationLedger::new(2, 1);
        // Batch of two unit arrivals: caps = 1.05 · (4 + 2) / 2 = 3.15.
        let caps = [1.05 * 6.0 / 2.0];
        let view = ReservedView {
            store: &store,
            ledger: &ledger,
        };
        assert_eq!(
            place(&view, &caps, &[5, 0], &[1.0]),
            0,
            "affinity wins while part 0 has room"
        );
        ledger.reserve(0, &[1.0]);
        let view = ReservedView {
            store: &store,
            ledger: &ledger,
        };
        assert_eq!(
            place(&view, &caps, &[5, 0], &[1.0]),
            1,
            "a reservation fills part 0 past the slab"
        );
        // Releasing the reservation restores the headroom; merge folds a
        // second chunk's ledger in.
        ledger.release(0, &[1.0]);
        let mut other = ReservationLedger::new(2, 1);
        other.reserve(0, &[1.0]);
        ledger.merge(&other);
        assert_eq!(ledger.reserved(0, 0), 1.0);
        let view = ReservedView {
            store: &store,
            ledger: &ledger,
        };
        assert_eq!(place(&view, &caps, &[5, 0], &[1.0]), 1);
    }
}
