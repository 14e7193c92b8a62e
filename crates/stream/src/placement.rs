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
//! The scoring sweep over the `k` parts is embarrassingly parallel: with
//! [`LdgPlacer::threads`] > 1 and a part count large enough to amortize a
//! spawn, disjoint part ranges are scored concurrently
//! ([`mdbgp_core::parallel::fold_ranges`]) and the per-range winners
//! reduced — bitwise identical to the serial sweep, because the reduction
//! applies the same (score, fullness, lowest part id) ordering.
//!
//! ## Speculative placement
//!
//! The staged ingest pipeline places a whole batch of arrivals at once:
//! fixed-size chunks of arrivals are scored concurrently against the
//! [`PartitionStore`]'s loads plus a chunk-local [`ReservationLedger`]
//! ([`LdgPlacer::place_with`] over a [`ReservedView`]). Nothing writes the
//! store until commit, and no worker observes another worker's in-flight
//! decisions, so placements are a pure function of the store and the
//! (thread-count-independent) chunk boundaries. Cross-chunk capacity
//! conflicts are detected and repaired afterwards by the engine's
//! deterministic repair stage.

use crate::store::PartitionStore;
use mdbgp_core::parallel;

/// Part count below which the scoring sweep stays serial — a scoped spawn
/// costs more than scoring a few hundred parts.
const MIN_PARALLEL_PARTS: usize = 256;

/// Per-range sweep result: the best feasible candidate
/// `(part, score, fullness)` if any, and the least-full part
/// `(part, fullness)` as the overflow fallback.
type RangeScan = (Option<(u32, f64, f64)>, (u32, f64));

/// Read-only per-`(part, dimension)` loads a placement decision scores
/// against. The serving path scores the [`PartitionStore`] alone; the
/// speculative pipeline scores it plus pending [`ReservationLedger`]
/// reservations.
pub trait LoadView {
    /// Load of part `p` in dimension `j` as this view sees it.
    fn load(&self, p: u32, j: usize) -> f64;
}

impl LoadView for PartitionStore {
    #[inline]
    fn load(&self, p: u32, j: usize) -> f64 {
        PartitionStore::load(self, p, j)
    }
}

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

impl LoadView for ReservedView<'_> {
    #[inline]
    fn load(&self, p: u32, j: usize) -> f64 {
        self.store.load(p, j) + self.ledger.reserved(p, j)
    }
}

/// Multi-dimensional LDG configuration.
#[derive(Clone, Copy, Debug)]
pub struct LdgPlacer {
    /// Balance tolerance ε: per-dimension capacity is `(1+ε)·w^{(j)}(V)/k`.
    pub epsilon: f64,
    /// Worker threads for the scoring sweep (1 = serial; only engaged for
    /// part counts where the spawn amortizes).
    pub threads: usize,
}

impl LdgPlacer {
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0);
        Self {
            epsilon,
            threads: 1,
        }
    }

    /// Sets the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0);
        self.threads = threads;
        self
    }

    /// Chooses a part for a vertex with weight row `weight_row` whose
    /// placed neighbours are distributed as `neighbor_counts` (length `k`).
    /// Capacities come from the store's **live** per-dimension totals plus
    /// the arriving row — so removed weight stops propping up the slabs
    /// the moment it is released, not at the next purge.
    pub fn place(
        &self,
        store: &PartitionStore,
        neighbor_counts: &[usize],
        weight_row: &[f64],
    ) -> u32 {
        let k = store.num_parts();
        // Per-dimension capacity, from live totals that include the
        // arriving vertex (it is not pushed into the store yet).
        let caps: Vec<f64> = (0..weight_row.len())
            .map(|j| (1.0 + self.epsilon) * (store.total(j) + weight_row[j]) / k as f64)
            .collect();
        self.place_with(k, store, &caps, neighbor_counts, weight_row)
    }

    /// The chunked scoring core: chooses a part against an arbitrary
    /// [`LoadView`] and precomputed per-dimension capacities. The serving
    /// path calls it through [`Self::place`]; the speculative placement
    /// and conflict-repair stages call it directly with the store plus
    /// reservations and batch-wide capacities, so every stage ranks
    /// candidates with the identical (score, fullness, lowest part id)
    /// order.
    pub fn place_with(
        &self,
        k: usize,
        loads: &(impl LoadView + Sync),
        caps: &[f64],
        neighbor_counts: &[usize],
        weight_row: &[f64],
    ) -> u32 {
        debug_assert_eq!(neighbor_counts.len(), k);
        // fold_ranges itself stays sequential below MIN_PARALLEL_PARTS.
        let partials = parallel::fold_ranges(k, self.threads, MIN_PARALLEL_PARTS, |range| {
            scan_parts(range, loads, caps, neighbor_counts, weight_row)
        });
        // Reduce per-range winners left to right: ranges are in ascending
        // part order, and the comparators prefer the incumbent on exact
        // ties, so the result matches the serial sweep exactly.
        let mut best: Option<(u32, f64, f64)> = None;
        let mut fallback: (u32, f64) = (0, f64::INFINITY);
        for (range_best, range_fallback) in partials {
            if let Some((p, score, fullness)) = range_best {
                if best.is_none_or(|(_, bs, bf)| better_candidate(score, fullness, bs, bf)) {
                    best = Some((p, score, fullness));
                }
            }
            if range_fallback.1 < fallback.1 {
                fallback = range_fallback;
            }
        }
        best.map(|(p, _, _)| p).unwrap_or(fallback.0)
    }
}

/// Scores the parts in `range`, returning the range's best feasible
/// candidate and its overflow fallback.
fn scan_parts(
    range: std::ops::Range<usize>,
    loads: &impl LoadView,
    caps: &[f64],
    neighbor_counts: &[usize],
    weight_row: &[f64],
) -> RangeScan {
    let mut best: Option<(u32, f64, f64)> = None; // feasible: argmax score
    let mut fallback: (u32, f64) = (range.start as u32, f64::INFINITY); // argmin fullness
    for p in range {
        let p = p as u32;
        // Worst capacity fraction across dimensions if v lands on p.
        let mut fullness: f64 = 0.0;
        for (j, &w) in weight_row.iter().enumerate() {
            fullness = fullness.max((loads.load(p, j) + w) / caps[j]);
        }
        if fullness < fallback.1 {
            fallback = (p, fullness);
        }
        if fullness > 1.0 {
            continue; // would break a slab
        }
        let score = neighbor_counts[p as usize] as f64 * (1.0 - fullness);
        if best.is_none_or(|(_, bs, bf)| better_candidate(score, fullness, bs, bf)) {
            best = Some((p, score, fullness));
        }
    }
    (best, fallback)
}

/// Strict total order on candidates: higher score, then more headroom,
/// then the incumbent (= lowest part id, since parts are scanned in
/// ascending order). Exact comparisons only — a tolerance band here is
/// not transitive, so chunked reduction could disagree with the serial
/// scan and the partition would depend on the thread count.
fn better_candidate(score: f64, fullness: f64, best_score: f64, best_fullness: f64) -> bool {
    score > best_score || (score == best_score && fullness < best_fullness)
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

    #[test]
    fn prefers_the_part_with_more_neighbors() {
        let store = unit_store();
        let placer = LdgPlacer::new(0.5);
        let p = placer.place(&store, &[3, 1], &[1.0]);
        assert_eq!(p, 0);
        let p = placer.place(&store, &[0, 2], &[1.0]);
        assert_eq!(p, 1);
    }

    #[test]
    fn respects_capacity_over_affinity() {
        // Part 0 has all the neighbours but no room: cap = 1.05 * 5/2 =
        // 2.625 and part 0 already holds 3.
        let w = VertexWeights::unit(4);
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        let store = PartitionStore::new(&p, &w);
        let placer = LdgPlacer::new(0.05);
        let chosen = placer.place(&store, &[4, 0], &[1.0]);
        assert_eq!(chosen, 1, "full part must be skipped despite affinity");
    }

    #[test]
    fn no_neighbors_balances_load() {
        let w = VertexWeights::unit(3);
        let p = Partition::new(vec![0, 0, 1], 2);
        let store = PartitionStore::new(&p, &w);
        let placer = LdgPlacer::new(0.5);
        assert_eq!(placer.place(&store, &[0, 0], &[1.0]), 1);
    }

    #[test]
    fn overflow_picks_least_loaded() {
        // Every part over cap (ε = 0): fall back to least-full.
        let w = VertexWeights::unit(4);
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        let store = PartitionStore::new(&p, &w);
        let placer = LdgPlacer::new(0.0);
        assert_eq!(placer.place(&store, &[2, 2], &[1.0]), 1);
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
        let placer = LdgPlacer::new(0.6);
        assert_eq!(placer.place(&store, &[4, 0], &[1.0]), 0);
        // At a tight ε the same part is still infeasible (cap = 2.1 < 3):
        // releases free capacity, they do not suspend the slabs.
        let placer = LdgPlacer::new(0.05);
        assert_eq!(placer.place(&store, &[4, 0], &[1.0]), 1);
    }

    #[test]
    fn multi_dim_capacity_is_the_worst_dimension() {
        // Two dims; part 0 has room in dim 0 but not dim 1.
        let w =
            VertexWeights::from_vectors(vec![vec![1.0, 1.0, 1.0, 1.0], vec![5.0, 5.0, 1.0, 1.0]]);
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        let store = PartitionStore::new(&p, &w);
        let placer = LdgPlacer::new(0.25);
        // dim-0 cap = 1.25·5/2 = 3.125: part 0 fits (2+1). dim-1 cap =
        // 1.25·13/2 = 8.125: part 0 at 10+1 overflows -> infeasible even
        // though dim 0 has room.
        let chosen = placer.place(&store, &[5, 0], &[1.0, 1.0]);
        assert_eq!(chosen, 1);
    }

    #[test]
    fn reservations_count_against_capacity() {
        // Speculative scoring: a chunk's own reservations must eat into
        // the store's headroom exactly like committed load.
        let store = unit_store();
        let mut ledger = ReservationLedger::new(2, 1);
        let placer = LdgPlacer::new(0.05);
        // Batch of two unit arrivals: caps = 1.05 · (4 + 2) / 2 = 3.15.
        let caps = [1.05 * 6.0 / 2.0];
        let view = ReservedView {
            store: &store,
            ledger: &ledger,
        };
        assert_eq!(
            placer.place_with(2, &view, &caps, &[5, 0], &[1.0]),
            0,
            "affinity wins while part 0 has room"
        );
        ledger.reserve(0, &[1.0]);
        let view = ReservedView {
            store: &store,
            ledger: &ledger,
        };
        assert_eq!(
            placer.place_with(2, &view, &caps, &[5, 0], &[1.0]),
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
        assert_eq!(placer.place_with(2, &view, &caps, &[5, 0], &[1.0]), 1);
    }

    #[test]
    fn parallel_sweep_matches_serial_at_large_k() {
        // 512 parts with deterministic pseudo-random loads and neighbour
        // counts: the threaded sweep must pick exactly the serial winner.
        let k = 512;
        let n = 4 * k;
        let labels: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
        let w = VertexWeights::from_vectors(vec![(0..n)
            .map(|v| 1.0 + (v * 2654435761 % 97) as f64 / 10.0)
            .collect()]);
        let store = PartitionStore::new(&Partition::new(labels, k), &w);
        let counts: Vec<usize> = (0..k).map(|p| p * 48271 % 7).collect();
        let serial = LdgPlacer::new(0.2).place(&store, &counts, &[1.0]);
        for threads in [2, 3, 8] {
            let par = LdgPlacer::new(0.2)
                .with_threads(threads)
                .place(&store, &counts, &[1.0]);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }
}
