//! Incremental (pairwise, warm-started) refinement of an existing k-way
//! partition.
//!
//! The paper's GD is an offline algorithm; `mdbgp-stream` keeps a partition
//! alive under a stream of updates by re-running GD *warm-started* on small
//! slices of the problem. The unit of work is a **part pair** `(p, q)`, and
//! only the pair's *movable* vertices `M` — in the streaming engine, the
//! churned vertices plus their 1-hop halo — are variables of the solve:
//! the paper's vertex fixing (§3.2) applied before the first iteration.
//! The rest of `V_p ∪ V_q` is eliminated at its current side
//! ([`Eliminated`]): it enters the gradient as a constant bias, the balance
//! slab as fixed mass and the step schedule as a count, so a
//! [`PairProblem`] costs time in proportion to `M` and its adjacency, not
//! to the pair. The balance target of the pair is derived from the
//! *global* ε so that any accepted refinement keeps every part within
//! `(1 + ε) · w(V)/k` in every dimension (a
//! [`FeasibleRegion`](crate::FeasibleRegion)-style slab recentred on the
//! pair).
//!
//! A pass reads the adjacency of its movable vertices once: an
//! [`ActiveAdjacency`] gathers each one's movable neighbours and its other
//! neighbours counted per part, and the pair ranking, every pair's problem
//! and the incumbent cut all come from that gather.
//!
//! A refinement is accepted only if it does not increase the pair cut and
//! does not worsen the pair's balance headroom ([`PairProblem::judge`],
//! which counts the cut change from the flipped vertices alone) — callers
//! can therefore apply [`PairRefinement::moves`] unconditionally.

use crate::gd::{
    bipartition_warm_with, Eliminated, GdRunStats, GdWorkspace, SplitTarget, WarmStart,
};
use crate::parallel;
use crate::recursive::GdPartitioner;
use crate::timing::{Kernel, KernelTimes};
use mdbgp_graph::{Graph, Partition, PartitionError, VertexId, VertexWeights};
use std::time::Instant;

/// How one pair solve ([`GdPartitioner::solve_pair`]) resolved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PairOutcome {
    /// Fewer than two members in the pair, or none of them movable — GD
    /// never ran.
    #[default]
    Degenerate,
    /// GD's result was accepted; `moves` holds the changes.
    Applied,
    /// Rejected: the refined cut was worse than the incumbent.
    RejectedCut,
    /// Rejected: a balance dimension's headroom regressed.
    RejectedBalance,
    /// No assignment of the movable vertices reaches the pair's balance
    /// slab while the eliminated vertices keep their sides — GD never ran.
    Unreachable,
}

/// Outcome of one pairwise warm-started refinement pass.
#[derive(Clone, Debug, Default)]
pub struct PairRefinement {
    /// Vertices whose part changed, with their new part. Empty when the
    /// refinement was rejected (no improvement) or there was nothing to do.
    pub moves: Vec<(VertexId, u32)>,
    /// Cut pair edges incident to a movable vertex before refinement —
    /// every pair edge the solve could change.
    pub cut_before: usize,
    /// The same count after refinement (equals `cut_before` when the pass
    /// was rejected), so `cut_after − cut_before` is the change of the
    /// whole pair cut.
    pub cut_after: usize,
    /// GD convergence trace of the run (default when GD never ran).
    pub gd: GdRunStats,
    /// How the pass resolved — lets the observability layer distinguish
    /// applied refinements from the rejection reasons.
    pub outcome: PairOutcome,
    /// Wall-clock per kernel: GD's kernels and the `judge` (empty when GD
    /// never ran). The caller adds the problem build it timed.
    pub kernels: KernelTimes,
}

/// One pair's reduced refinement problem: the movable vertices `M` of
/// pair `(p, q)` as GD variables, warm-started at their current sides,
/// with the rest of the pair eliminated ([`Eliminated`]). Built from an
/// [`ActiveAdjacency`] ([`ActiveAdjacency::pair_problem`]) and solved by
/// [`GdPartitioner::solve_pair`].
#[derive(Debug, PartialEq)]
pub struct PairProblem {
    /// The part pair `(p, q)`; sign `+1` is `p`, `−1` is `q`.
    pair: (u32, u32),
    vertices: Vec<VertexId>,
    signs: Vec<i8>,
    graph: Graph,
    /// The weight rows of `M`.
    weights: VertexWeights,
    warm: WarmStart,
    /// The incumbent's cut pair edges incident to `M`, counted at
    /// construction: local edges once each, plus each movable vertex's
    /// eliminated neighbours on the other side.
    cut: usize,
    /// Combined pair weight `w_j(V_p ∪ V_q)` per dimension.
    pair_total: Vec<f64>,
    /// The global weight totals `w_j(V)` the ε budget is relative to.
    global_total: Vec<f64>,
    /// Number of parts `k`.
    k: usize,
}

impl PairProblem {
    /// Builds pair `(p, q)`'s problem from whole-graph inputs, with every
    /// pair member not marked in `frozen` movable. Pair loads and global
    /// totals come from `weights`. O(n): a convenience for callers that
    /// hold a [`Partition`] and a mask (and the test oracle's input);
    /// the streaming engine builds from its pass's [`ActiveAdjacency`]
    /// instead — both through [`ActiveAdjacency::pair_problem`]. Panics on
    /// masks or weights that do not cover the graph
    /// ([`GdPartitioner::refine_pair`] validates first).
    pub fn from_mask(
        graph: &Graph,
        weights: &VertexWeights,
        partition: &Partition,
        (p, q): (u32, u32),
        frozen: &[bool],
    ) -> Self {
        let d = weights.dims();
        let mut loads = [vec![0.0f64; d], vec![0.0f64; d]];
        let mut pair_size = 0usize;
        let mut movable = Vec::new();
        for v in 0..graph.num_vertices() as VertexId {
            let part = partition.part_of(v);
            if part != p && part != q {
                continue;
            }
            pair_size += 1;
            let side = usize::from(part != p);
            for (j, load) in loads[side].iter_mut().enumerate() {
                *load += weights.weight(j, v);
            }
            if !frozen[v as usize] {
                movable.push(v);
            }
        }
        let adjacency = ActiveAdjacency::of_graph(graph, partition, &movable);
        let round = adjacency.round(&[(p, q)], |v| partition.part_of(v));
        let global: Vec<f64> = (0..d).map(|j| weights.total(j)).collect();
        adjacency.pair_problem(
            &round,
            0,
            weights,
            [&loads[0], &loads[1]],
            pair_size,
            &global,
        )
    }

    /// `M` in ascending id order, in the caller's id space: local vertex
    /// `i` of [`Self::graph`] is `vertices()[i]`.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Current side of each movable vertex (`+1` → `p`, `−1` → `q`).
    pub fn signs(&self) -> &[i8] {
        &self.signs
    }

    /// The pair edges among `M`, in local ids.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The warm start GD runs from: `x0` is [`Self::signs`], nothing is
    /// frozen, and the rest of the pair is [`Eliminated`].
    pub fn warm(&self) -> &WarmStart {
        &self.warm
    }

    /// `|V_p ∪ V_q|`: the movable vertices plus the eliminated ones.
    pub fn pair_size(&self) -> usize {
        self.vertices.len() + self.warm.eliminated.count
    }

    /// Headroom of dimension `j`: with `hi_j = (1 + ε)·w_j(V)/k` the
    /// global per-part cap, both parts stay under it iff the pair's
    /// `⟨w_j, x⟩` lies within `±(2·hi_j − W_j)`, `W_j` the pair weight.
    fn headroom(&self, epsilon: f64, j: usize) -> f64 {
        let hi = (1.0 + epsilon) * self.global_total[j] / self.k as f64;
        2.0 * hi - self.pair_total[j]
    }

    /// The relative width of the pair's GD slab. [`SplitTarget`] carries a
    /// single width, so take the tightest dimension (conservative:
    /// accepted moves can only under-use slack, never violate it). An
    /// overweight pair (negative headroom) cannot be made globally
    /// feasible by an internal swap; it still runs with a tiny slab so the
    /// pair at least splits evenly.
    fn slab_epsilon(&self, epsilon: f64) -> f64 {
        (0..self.pair_total.len())
            .map(|j| self.headroom(epsilon, j) / self.pair_total[j])
            .fold(f64::INFINITY, f64::min)
            .clamp(1e-3, 0.999)
    }

    /// Cut pair edges incident to `M` under `signs`, from the incumbent's
    /// count and the vertices whose side changed: an edge from a flipped
    /// vertex to an unflipped member changes state, one between two
    /// flipped members does not, and a flipped vertex with `e` eliminated
    /// pair neighbours and bias `b` (those in `p` minus those in `q`)
    /// trades `(e + s·b)/2` cut eliminated edges for `(e − s·b)/2`, `s`
    /// its new sign — a change of `−s·b`.
    fn cut_after(&self, signs: &[i8]) -> usize {
        debug_assert_eq!(signs.len(), self.signs.len());
        let bias = &self.warm.eliminated.bias;
        let mut cut = self.cut as i64;
        for (v, (&s, &s0)) in signs.iter().zip(&self.signs).enumerate() {
            if s == s0 {
                continue;
            }
            cut -= i64::from(s) * bias.get(v).map_or(0, |&b| b as i64);
            for &u in self.graph.neighbors(v as VertexId) {
                let su = signs[u as usize];
                if su == self.signs[u as usize] {
                    cut += if su == s { -1 } else { 1 };
                }
            }
        }
        cut as usize
    }

    /// The acceptance rule, applied to a candidate assignment `signs` of
    /// `M`: returns `(cut_before, cut_after, outcome)`, the cut counts
    /// over the pair edges incident to `M` and one of
    /// [`PairOutcome::Applied`], [`PairOutcome::RejectedCut`] or
    /// [`PairOutcome::RejectedBalance`]. Accepts only strict
    /// non-regressions in cut and, per dimension, in balance headroom (the
    /// pair may already be over budget after weight drift; "no worse in
    /// any dimension" keeps the pass safe to apply blindly — a
    /// max-over-dims guard would let one dimension degrade while another
    /// improves). The cut before is the incumbent's, counted at
    /// construction; the cut after follows from the flipped vertices
    /// alone. Balance is evaluated from `M`'s weights plus the eliminated
    /// signed mass, so the verdict equals the whole pair's.
    pub fn judge(&self, epsilon: f64, signs: &[i8]) -> (usize, usize, PairOutcome) {
        let (cut_before, cut_after) = (self.cut, self.cut_after(signs));
        let fixed_dot = &self.warm.eliminated.dot;
        let excess = |signs: &[i8], j: usize| -> f64 {
            let movable: f64 = self
                .weights
                .dim(j)
                .iter()
                .zip(signs)
                .map(|(w, &s)| w * s as f64)
                .sum();
            let dot = fixed_dot.get(j).map_or(movable, |&f| f + movable);
            (dot.abs() - self.headroom(epsilon, j)) / self.pair_total[j]
        };
        let balance_regressed = (0..self.pair_total.len())
            .any(|j| excess(signs, j) > excess(&self.signs, j).max(0.0) + 1e-12);
        let outcome = if cut_after > cut_before {
            PairOutcome::RejectedCut
        } else if balance_regressed {
            PairOutcome::RejectedBalance
        } else {
            PairOutcome::Applied
        };
        (cut_before, cut_after, outcome)
    }
}

/// One refinement pass's read of the active set's adjacency: every active
/// vertex's neighbours, classified once, so ranking the pairs, building
/// every pair's [`PairProblem`] and judging its result never read the
/// graph or the assignment per adjacency entry again.
///
/// Per active vertex, in ascending id order, it holds the vertex's active
/// neighbours as ascending active-set indices (one CSR row) and the number
/// of its inactive neighbours in each part that occurs; for the whole pass
/// it holds the `k × k` counts of cut edges with an active endpoint, each
/// edge counted once — the ranking input.
///
/// Counting the inactive neighbours once is exact for a whole pass as long
/// as only active vertices change parts between the gather and the last
/// pair solve, and the graph does not change: an inactive neighbour then
/// keeps its part throughout, while the active neighbours' parts are read
/// afresh per round of pairs ([`Self::round`]).
#[derive(Debug, Default)]
pub struct ActiveAdjacency {
    /// Number of parts `k`.
    k: usize,
    /// The active vertices, ascending.
    vertices: Vec<VertexId>,
    rows: Rows,
    /// A threaded gather's per-range rows, kept for the next pass.
    ranges: Vec<Rows>,
}

/// Two gathers are equal when they hold the same rows over the same active
/// set; the threaded gather's range scratch is not part of the result.
impl PartialEq for ActiveAdjacency {
    fn eq(&self, other: &Self) -> bool {
        (self.k, &self.vertices, &self.rows) == (other.k, &other.vertices, &other.rows)
    }
}

impl Eq for ActiveAdjacency {}

/// The gathered rows of a contiguous range of the active set.
#[derive(Debug, PartialEq, Eq)]
struct Rows {
    /// Row `i`'s active neighbours are `targets[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// Row `i`'s inactive-neighbour counts are
    /// `inactive[inactive_offsets[i]..inactive_offsets[i + 1]]`, as
    /// `(part, count)` in ascending part order.
    inactive_offsets: Vec<usize>,
    inactive: Vec<(u32, u32)>,
    /// Cut edges with an active endpoint between parts `lo < hi`, at
    /// `lo·k + hi`.
    cut: Vec<usize>,
    /// Adjacency entries read.
    entries: usize,
}

impl Default for Rows {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            targets: Vec::new(),
            inactive_offsets: vec![0],
            inactive: Vec::new(),
            cut: Vec::new(),
            entries: 0,
        }
    }
}

impl Rows {
    /// Empties the rows for a `k`-part gather, keeping the allocations.
    fn reset(&mut self, k: usize) {
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
        self.inactive_offsets.clear();
        self.inactive_offsets.push(0);
        self.inactive.clear();
        self.cut.clear();
        self.cut.resize(k * k, 0);
        self.entries = 0;
    }

    /// Appends the rows of the next range.
    fn append(&mut self, next: &Rows) {
        let base = self.targets.len();
        self.offsets
            .extend(next.offsets[1..].iter().map(|&o| base + o));
        self.targets.extend_from_slice(&next.targets);
        let base = self.inactive.len();
        self.inactive_offsets
            .extend(next.inactive_offsets[1..].iter().map(|&o| base + o));
        self.inactive.extend_from_slice(&next.inactive);
        for (total, c) in self.cut.iter_mut().zip(&next.cut) {
            *total += c;
        }
        self.entries += next.entries;
    }
}

/// Below this many active vertices the gather runs on the calling thread.
const GATHER_MIN_RANGE: usize = 4096;

impl ActiveAdjacency {
    /// Index lookup value of a vertex outside the active set.
    pub const INACTIVE: u32 = u32::MAX;

    /// Reads the adjacency of `active` (distinct vertices, ascending) into
    /// `self`, reusing its buffers. `index_of(u)` is `u`'s position in
    /// `active`, or [`Self::INACTIVE`]; `part_of` is the current
    /// assignment over `k` parts; `neighbors(v)` yields `v`'s neighbours,
    /// each once, in any order, and must be symmetric. With `threads > 1`
    /// the active list splits into contiguous ranges whose rows
    /// concatenate in range order; every count is an integer, so no result
    /// depends on the thread count.
    pub fn gather<I>(
        &mut self,
        k: usize,
        active: &[VertexId],
        index_of: impl Fn(VertexId) -> u32 + Sync,
        part_of: impl Fn(VertexId) -> u32 + Sync,
        neighbors: impl Fn(VertexId) -> I + Sync,
        threads: usize,
    ) where
        I: IntoIterator<Item = VertexId>,
    {
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]));
        self.k = k;
        self.vertices.clear();
        self.vertices.extend_from_slice(active);
        let fill = |rows: &mut Rows, range: std::ops::Range<usize>| {
            // Per-part tallies of one vertex's neighbours and a bitset of
            // the parts seen. Each entry is classified without a branch,
            // so the random reads of `index_of` and `part_of` overlap.
            let mut inactive = vec![0u32; k];
            let mut later_active = vec![0u32; k];
            let mut seen = vec![0u64; k.div_ceil(64)];
            let mut ids = Vec::new();
            for i in range {
                let pa = part_of(active[i]);
                ids.clear();
                neighbors(active[i]).into_iter().for_each(|u| ids.push(u));
                rows.entries += ids.len();
                let row = rows.targets.len();
                rows.targets.resize(row + ids.len(), 0);
                let mut end = row;
                for &u in &ids {
                    let (j, pu) = (index_of(u), part_of(u) as usize);
                    let is_active = j != Self::INACTIVE;
                    rows.targets[end] = j;
                    end += usize::from(is_active);
                    inactive[pu] += u32::from(!is_active);
                    later_active[pu] += u32::from(is_active & (j as usize > i));
                    seen[pu / 64] |= 1 << (pu % 64);
                }
                rows.targets.truncate(end);
                // Overlay adjacency is two sorted runs (base and delta).
                let row = &mut rows.targets[row..];
                if !row.is_sorted() {
                    row.sort_unstable();
                }
                rows.offsets.push(end);
                // An edge is counted at its active endpoint, or at the
                // lower one when both are active.
                for (w, word) in seen.iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        let pu = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let c = std::mem::take(&mut inactive[pu]);
                        let later = std::mem::take(&mut later_active[pu]);
                        if c > 0 {
                            rows.inactive.push((pu as u32, c));
                        }
                        if pu as u32 != pa {
                            rows.cut[cut_index(k, pa, pu as u32)] += (c + later) as usize;
                        }
                    }
                }
                rows.inactive_offsets.push(rows.inactive.len());
            }
        };
        self.rows.reset(k);
        if threads <= 1 || active.len() < GATHER_MIN_RANGE {
            fill(&mut self.rows, 0..active.len());
        } else {
            // One range per thread, each filling its own reused rows.
            let bounds = parallel::even_boundaries(active.len(), threads);
            self.ranges.resize_with(bounds.len() - 1, Rows::default);
            let each: Vec<usize> = (0..bounds.len()).collect();
            parallel::for_each_chunk_mut(&mut self.ranges, &each, |r, rows| {
                rows[0].reset(k);
                fill(&mut rows[0], bounds[r.start]..bounds[r.end]);
            });
            for rows in &self.ranges {
                self.rows.append(rows);
            }
        }
    }

    /// [`Self::gather`] over a whole [`Graph`] and [`Partition`], for
    /// `active` listed ascending.
    pub fn of_graph(graph: &Graph, partition: &Partition, active: &[VertexId]) -> Self {
        let mut index = vec![Self::INACTIVE; graph.num_vertices()];
        for (i, &a) in active.iter().enumerate() {
            index[a as usize] = i as u32;
        }
        let mut adjacency = Self::default();
        adjacency.gather(
            partition.num_parts(),
            active,
            |u| index[u as usize],
            |u| partition.part_of(u),
            |u| graph.neighbors(u).iter().copied(),
            1,
        );
        adjacency
    }

    /// The active vertices, ascending.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The active neighbours of active vertex `i` (its index in
    /// [`Self::vertices`]), as ascending active-set indices.
    pub fn active_row(&self, i: usize) -> &[u32] {
        &self.rows.targets[self.rows.offsets[i]..self.rows.offsets[i + 1]]
    }

    /// The inactive neighbours of active vertex `i`, counted per part, as
    /// `(part, count)` in ascending part order (parts with none left out).
    pub fn inactive_row(&self, i: usize) -> &[(u32, u32)] {
        &self.rows.inactive[self.rows.inactive_offsets[i]..self.rows.inactive_offsets[i + 1]]
    }

    /// Adjacency entries the gather read: the active vertices' degrees,
    /// summed.
    pub fn entries(&self) -> usize {
        self.rows.entries
    }

    /// Ranks part pairs by cut edges with at least one active endpoint —
    /// the refinement schedule of `mdbgp-stream`. Returns at most
    /// `max_pairs` pairs `(p, q)` with `p < q`, most-cut first, ties in
    /// pair order. A part with no cut edges at the active set (e.g. one
    /// drained empty by removals) never appears in a pair.
    pub fn rank_pairs(&self, max_pairs: usize) -> Vec<(u32, u32)> {
        let k = self.k;
        let mut pairs: Vec<((u32, u32), usize)> = self
            .rows
            .cut
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(idx, &c)| (((idx / k) as u32, (idx % k) as u32), c))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(max_pairs);
        pairs.into_iter().map(|(pq, _)| pq).collect()
    }

    /// Splits the active set over one round of part-disjoint `pairs`
    /// ([`GdPartitioner::plan_disjoint_rounds`]), reading each active
    /// vertex's current part once through `part_of`: a pair's movable
    /// vertices are its active members, ascending.
    pub fn round(&self, pairs: &[(u32, u32)], part_of: impl Fn(VertexId) -> u32) -> PairRound {
        let mut pair_of_part = vec![usize::MAX; self.k];
        for (r, &(p, q)) in pairs.iter().enumerate() {
            debug_assert!(
                pair_of_part[p as usize] == usize::MAX,
                "pairs share part {p}"
            );
            debug_assert!(
                pair_of_part[q as usize] == usize::MAX,
                "pairs share part {q}"
            );
            pair_of_part[p as usize] = r;
            pair_of_part[q as usize] = r;
        }
        let parts: Vec<u32> = self.vertices.iter().map(|&a| part_of(a)).collect();
        let mut members = vec![Vec::new(); pairs.len()];
        let mut position = vec![0u32; parts.len()];
        for (i, &part) in parts.iter().enumerate() {
            if let Some(&r) = pair_of_part
                .get(part as usize)
                .filter(|&&r| r != usize::MAX)
            {
                position[i] = members[r].len() as u32;
                members[r].push(i as u32);
            }
        }
        PairRound {
            pairs: pairs.to_vec(),
            parts,
            position,
            members,
        }
    }

    /// Builds pair `r` of `round` as a [`PairProblem`] over its movable
    /// vertices: each one's local edges are its active-neighbour row
    /// filtered to the pair, its gradient bias and eliminated degree come
    /// from its inactive-neighbour counts in `p` and `q`, and its weight
    /// row from `weights`. `loads` are the current per-dimension loads of
    /// `p` and `q`, `pair_size` is `|V_p ∪ V_q|`, and `global_total` sets
    /// the ε budget; the eliminated mass is the pair loads minus the
    /// movable vertices' weights, so building never visits an eliminated
    /// vertex. The build also counts the incumbent cut that
    /// [`PairProblem::judge`] starts from.
    pub fn pair_problem(
        &self,
        round: &PairRound,
        r: usize,
        weights: &VertexWeights,
        loads: [&[f64]; 2],
        pair_size: usize,
        global_total: &[f64],
    ) -> PairProblem {
        let (p, q) = round.pairs[r];
        let members = &round.members[r];
        let m = members.len();
        debug_assert!(pair_size >= m, "more movable vertices than pair members");
        let d = weights.dims();
        let mut vertices = Vec::with_capacity(m);
        let mut signs = Vec::with_capacity(m);
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        let mut columns = vec![Vec::with_capacity(m); d];
        let mut bias = Vec::with_capacity(m);
        let mut movable_load = [vec![0.0; d], vec![0.0; d]];
        let mut cut = 0usize;
        for &i in members {
            let i = i as usize;
            let v = self.vertices[i];
            let part = round.parts[i];
            let side = usize::from(part != p);
            for (j, column) in columns.iter_mut().enumerate() {
                let w = weights.weight(j, v);
                column.push(w);
                movable_load[side][j] += w;
            }
            // Members are ascending in active index, so positions map a
            // sorted row to a sorted row. Neighbours outside the pair are
            // dropped without a branch.
            let row = self.active_row(i);
            let mut end = targets.len();
            targets.resize(end + row.len(), 0);
            for &a in row {
                let part_a = round.parts[a as usize];
                let in_pair = (part_a == p) | (part_a == q);
                targets[end] = round.position[a as usize];
                end += usize::from(in_pair);
                cut += usize::from(in_pair & (a as usize > i) & (part_a != part));
            }
            targets.truncate(end);
            offsets.push(end);
            let (mut in_p, mut in_q) = (0u32, 0u32);
            for &(part_u, c) in self.inactive_row(i) {
                if part_u == p {
                    in_p = c;
                } else if part_u == q {
                    in_q = c;
                }
            }
            cut += (if side == 0 { in_q } else { in_p }) as usize;
            bias.push(f64::from(in_p) - f64::from(in_q));
            vertices.push(v);
            signs.push(if side == 0 { 1 } else { -1 });
        }

        let count = pair_size.saturating_sub(m);
        // With nothing eliminated the loads-minus-movable differences are
        // float residue, not mass: solve the whole pair as it stands.
        let eliminated = if count == 0 {
            Eliminated::default()
        } else {
            // Clamped: a side with nothing eliminated reads ~0 after the
            // subtraction, never a negative mass.
            let rest = |side: usize, j: usize| (loads[side][j] - movable_load[side][j]).max(0.0);
            Eliminated {
                bias,
                dot: (0..d).map(|j| rest(0, j) - rest(1, j)).collect(),
                weight: (0..d).map(|j| rest(0, j) + rest(1, j)).collect(),
                count,
            }
        };
        PairProblem {
            pair: (p, q),
            warm: WarmStart {
                x0: signs.iter().map(|&s| f64::from(s)).collect(),
                frozen: vec![false; m],
                eliminated,
            },
            vertices,
            signs,
            graph: Graph::from_csr_unchecked(offsets, targets),
            weights: VertexWeights::from_vectors(columns),
            cut,
            pair_total: (0..d).map(|j| loads[0][j] + loads[1][j]).collect(),
            global_total: global_total.to_vec(),
            k: self.k,
        }
    }
}

/// `(lo, hi)`'s slot in a `k × k` cut-count matrix.
#[inline]
fn cut_index(k: usize, p: u32, q: u32) -> usize {
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    lo as usize * k + hi as usize
}

/// The active set of an [`ActiveAdjacency`] split over one round of
/// part-disjoint pairs ([`ActiveAdjacency::round`]): each active vertex's
/// part at the start of the round, and each pair's movable vertices.
#[derive(Debug)]
pub struct PairRound {
    pairs: Vec<(u32, u32)>,
    /// Part of each active vertex, by active index.
    parts: Vec<u32>,
    /// Position of each active vertex among its pair's members (unused
    /// for vertices outside every pair of the round).
    position: Vec<u32>,
    /// Each pair's members, as ascending active indices.
    members: Vec<Vec<u32>>,
}

impl PairRound {
    /// Pair `r` of the round.
    pub fn pair(&self, r: usize) -> (u32, u32) {
        self.pairs[r]
    }

    /// Pair `r`'s movable vertices, as ascending active-set indices.
    pub fn members(&self, r: usize) -> &[u32] {
        &self.members[r]
    }
}

impl GdPartitioner {
    /// Re-bisects parts `p` and `q` of `partition` with GD warm-started
    /// from the current assignment, holding `frozen` vertices fixed.
    ///
    /// Builds the reduced problem with [`PairProblem::from_mask`] — every
    /// pair member not in `frozen` is movable, the rest is eliminated —
    /// and solves it with [`Self::solve_pair`]. `weights`, `partition`
    /// and `frozen` cover the whole graph **as it currently stands**; a
    /// stale (longer or shorter) `frozen` mask is rejected with
    /// [`PartitionError::DimensionMismatch`] rather than silently freezing
    /// the wrong vertices. A pair drained to fewer than two members
    /// (removals can empty a part outright) is a clean no-op, not an
    /// error. The pair's balance slab is derived from the configured ε and
    /// the **global** per-part target `w^{(j)}(V)/k`, so accepted moves
    /// never push either part past `(1 + ε)` of its share. Returns the
    /// (possibly empty) list of vertex moves; the partition itself is not
    /// mutated.
    ///
    /// # Example
    ///
    /// ```
    /// use mdbgp_core::{GdConfig, GdPartitioner, PairOutcome};
    /// use mdbgp_graph::{gen, Partition, VertexWeights};
    ///
    /// // A planted two-clique graph whose current partition has one
    /// // vertex of each clique assigned to the wrong part.
    /// let g = gen::two_cliques(20, 2);
    /// let w = VertexWeights::vertex_edge(&g);
    /// let mut parts: Vec<u32> = (0..40).map(|v| u32::from(v >= 20)).collect();
    /// parts.swap(3, 23); // cross-assign a stray pair
    /// let partition = Partition::new(parts, 2);
    ///
    /// let gd = GdPartitioner::new(GdConfig::with_epsilon(0.05));
    /// let r = gd
    ///     .refine_pair(&g, &w, &partition, (0, 1), &[false; 40], 7)
    ///     .unwrap();
    /// assert_eq!(r.outcome, PairOutcome::Applied);
    /// assert!(r.cut_after < r.cut_before, "healing the strays uncuts clique edges");
    /// assert!(r.moves.contains(&(3, 0)) && r.moves.contains(&(23, 1)));
    /// assert_eq!(partition.part_of(3), 1, "the input partition is untouched");
    /// ```
    pub fn refine_pair(
        &self,
        graph: &Graph,
        weights: &VertexWeights,
        partition: &Partition,
        pair: (u32, u32),
        frozen: &[bool],
        seed: u64,
    ) -> Result<PairRefinement, PartitionError> {
        self.refine_pair_with(
            &mut GdWorkspace::default(),
            graph,
            weights,
            partition,
            pair,
            frozen,
            seed,
        )
    }

    /// [`Self::refine_pair`] with caller-provided GD iterate storage:
    /// identical output, but the inner solve reuses `ws` instead of
    /// allocating fresh working vectors (see [`GdWorkspace`]).
    #[allow(clippy::too_many_arguments)]
    pub fn refine_pair_with(
        &self,
        ws: &mut GdWorkspace,
        graph: &Graph,
        weights: &VertexWeights,
        partition: &Partition,
        (p, q): (u32, u32),
        frozen: &[bool],
        seed: u64,
    ) -> Result<PairRefinement, PartitionError> {
        let k = partition.num_parts();
        if p == q || (p as usize) >= k || (q as usize) >= k {
            return Err(PartitionError::Config(format!(
                "refine_pair: invalid pair ({p}, {q}) for k = {k}"
            )));
        }
        let n = graph.num_vertices();
        if partition.num_vertices() != n || weights.num_vertices() != n || frozen.len() != n {
            return Err(PartitionError::DimensionMismatch {
                weights_n: weights.num_vertices(),
                graph_n: n,
            });
        }
        let problem = PairProblem::from_mask(graph, weights, partition, (p, q), frozen);
        self.solve_pair(ws, &problem, seed)
    }

    /// Solves one pair's reduced problem — the single pair-solve path of
    /// both [`Self::refine_pair`] and the streaming engine. Runs
    /// [`bipartition_warm_with`] over the movable vertices only, on the
    /// pair slab derived from the configured ε, then applies
    /// [`PairProblem::judge`]. A pair with fewer than two members or no
    /// movable vertex is [`PairOutcome::Degenerate`]; one whose shifted
    /// slab no assignment of `M` can reach is [`PairOutcome::Unreachable`]
    /// — both clean no-ops. The streaming engine keeps one workspace per
    /// worker thread and threads it through every pair of every disjoint
    /// round; a workspace carries no state between calls, so reuse never
    /// changes results.
    pub fn solve_pair(
        &self,
        ws: &mut GdWorkspace,
        problem: &PairProblem,
        seed: u64,
    ) -> Result<PairRefinement, PartitionError> {
        if problem.vertices.is_empty() || problem.pair_size() < 2 {
            return Ok(PairRefinement::default());
        }
        let eps = self.config().epsilon;
        let eps_pair = problem.slab_epsilon(eps);
        let target = SplitTarget::half(eps_pair);
        let reachable = target
            .region_around(&problem.weights, &problem.warm.eliminated)
            .per_dim_feasible();
        if !reachable {
            return Ok(PairRefinement {
                cut_before: problem.cut,
                cut_after: problem.cut,
                outcome: PairOutcome::Unreachable,
                ..PairRefinement::default()
            });
        }

        let mut cfg = self.config().clone();
        cfg.epsilon = eps_pair;
        cfg.track_history = false;
        let res = bipartition_warm_with(
            ws,
            &problem.graph,
            &problem.weights,
            &cfg,
            &target,
            &problem.warm,
            seed,
        )?;
        let judge_start = Instant::now();
        let (cut_before, cut_after, outcome) = problem.judge(eps, &res.signs);
        let mut kernels = res.kernels;
        kernels.record(Kernel::Judge, judge_start);
        if outcome != PairOutcome::Applied {
            return Ok(PairRefinement {
                moves: Vec::new(),
                cut_before,
                cut_after: cut_before,
                gd: res.stats,
                outcome,
                kernels,
            });
        }
        let (p, q) = problem.pair;
        let moves = problem
            .vertices
            .iter()
            .zip(res.signs.iter().zip(&problem.signs))
            .filter(|(_, (s1, s0))| s1 != s0)
            .map(|(&v, (&s, _))| (v, if s == 1 { p } else { q }))
            .collect();
        Ok(PairRefinement {
            moves,
            cut_before,
            cut_after,
            gd: res.stats,
            outcome,
            kernels,
        })
    }

    /// Ranks part pairs by cut edges incident to `active` vertices (a
    /// mask over the whole graph): [`ActiveAdjacency::rank_pairs`] over
    /// the gather of the marked vertices.
    ///
    /// # Panics
    /// Panics if `active` does not cover the graph — after a purging
    /// compaction shrinks the vertex set, the mask must be rebuilt at the
    /// new size.
    pub fn rank_pairs_by_active_cut(
        graph: &Graph,
        partition: &Partition,
        active: &[bool],
        max_pairs: usize,
    ) -> Vec<(u32, u32)> {
        assert_eq!(
            active.len(),
            graph.num_vertices(),
            "active mask must cover the current graph (rebuild it after a purge)"
        );
        let list: Vec<VertexId> = (0..graph.num_vertices() as VertexId)
            .filter(|&v| active[v as usize])
            .collect();
        ActiveAdjacency::of_graph(graph, partition, &list).rank_pairs(max_pairs)
    }

    /// Greedily schedules `pairs` into rounds of **part-disjoint** pairs —
    /// a maximal matching per round, preserving the input priority order.
    /// Pairs inside one round touch disjoint part sets, so their solves
    /// read disjoint vertex sets and can run concurrently against one
    /// partition state; rounds are barriers at which the accepted moves
    /// are applied. Every input pair appears in exactly one round.
    pub fn plan_disjoint_rounds(pairs: &[(u32, u32)]) -> Vec<Vec<(u32, u32)>> {
        type Round = (Vec<(u32, u32)>, std::collections::HashSet<u32>);
        let mut rounds: Vec<Round> = Vec::new();
        for &(p, q) in pairs {
            let slot = rounds
                .iter_mut()
                .find(|(_, used)| !used.contains(&p) && !used.contains(&q));
            match slot {
                Some((round, used)) => {
                    round.push((p, q));
                    used.insert(p);
                    used.insert(q);
                }
                None => {
                    rounds.push((vec![(p, q)], [p, q].into_iter().collect()));
                }
            }
        }
        rounds.into_iter().map(|(round, _)| round).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GdConfig;
    use mdbgp_graph::{gen, GraphBuilder};

    /// Two cliques of `s` joined by `bridges` edges, plus the partition
    /// that mixes `swap` vertices across the planted split.
    fn perturbed_cliques(s: usize, swap: usize) -> (Graph, VertexWeights, Partition) {
        let g = gen::two_cliques(s, 2);
        let w = VertexWeights::vertex_edge(&g);
        let mut labels: Vec<u32> = (0..2 * s).map(|v| if v < s { 0 } else { 1 }).collect();
        for i in 0..swap {
            labels.swap(i, s + i);
        }
        (g, w, Partition::new(labels, 2))
    }

    fn refiner(iterations: usize) -> GdPartitioner {
        GdPartitioner::new(GdConfig {
            iterations,
            ..GdConfig::with_epsilon(0.05)
        })
    }

    #[test]
    fn heals_a_perturbed_bisection() {
        let (g, w, part) = perturbed_cliques(30, 3);
        let frozen = vec![false; 60];
        let r = refiner(15)
            .refine_pair(&g, &w, &part, (0, 1), &frozen, 7)
            .unwrap();
        assert!(
            r.cut_after < r.cut_before,
            "cut {} -> {}",
            r.cut_before,
            r.cut_after
        );
        assert!(!r.moves.is_empty());
        let mut healed = part.clone();
        for &(v, p) in &r.moves {
            healed.assign(v, p);
        }
        assert!(healed.max_imbalance(&w) <= 0.05 + 1e-9);
        assert_eq!(healed.cut_edges(&g), 2, "only the bridges remain cut");
    }

    #[test]
    fn kernel_counts_follow_the_solve() {
        // A short recompute period makes the healing solve run both
        // gradient paths; each evaluation is billed to the one it ran.
        let (g, w, part) = perturbed_cliques(30, 3);
        let gd = GdPartitioner::new(GdConfig {
            iterations: 15,
            grad_recompute_period: 4,
            ..GdConfig::with_epsilon(0.05)
        });
        let r = gd
            .refine_pair(&g, &w, &part, (0, 1), &[false; 60], 7)
            .unwrap();
        let (s, k) = (&r.gd, &r.kernels);
        assert!(s.full_recomputes > 0 && s.delta_iterations > 0, "{s:?}");
        assert_eq!(k.count(Kernel::Matvec), s.full_recomputes as u64);
        assert_eq!(k.count(Kernel::Delta), s.delta_iterations as u64);
        assert_eq!(k.count(Kernel::Project), s.iterations as u64);
        assert_eq!((k.count(Kernel::Round), k.count(Kernel::Judge)), (1, 1));
        assert_eq!(k.count(Kernel::Build), 0, "the caller times the build");
    }

    #[test]
    fn frozen_vertices_never_move() {
        let (g, w, part) = perturbed_cliques(25, 2);
        // Freeze everything except the swapped vertices.
        let mut frozen = vec![true; 50];
        for i in 0..2 {
            frozen[i] = false;
            frozen[25 + i] = false;
        }
        let r = refiner(15)
            .refine_pair(&g, &w, &part, (0, 1), &frozen, 3)
            .unwrap();
        for &(v, _) in &r.moves {
            assert!(!frozen[v as usize], "frozen vertex {v} moved");
        }
        assert!(r.cut_after <= r.cut_before);
    }

    #[test]
    fn never_worsens_the_cut() {
        // Already-optimal partition: refinement must be a no-op or neutral.
        let (g, w, part) = perturbed_cliques(20, 0);
        let frozen = vec![false; 40];
        let r = refiner(10)
            .refine_pair(&g, &w, &part, (0, 1), &frozen, 11)
            .unwrap();
        assert!(r.cut_after <= r.cut_before);
        let mut refined = part.clone();
        for &(v, p) in &r.moves {
            refined.assign(v, p);
        }
        assert_eq!(refined.cut_edges(&g), 2);
    }

    #[test]
    fn respects_global_balance_for_k_greater_than_two() {
        // Four equal parts; refining pair (0, 1) must keep parts 0 and 1
        // within the global (1+ε)/k budget even though the pair alone
        // could tolerate a 2:0 split of its own weight.
        let s = 20;
        let mut b = GraphBuilder::new(4 * s);
        for c in 0..4u32 {
            let base = c * s as u32;
            for u in 0..s as u32 {
                for v in (u + 1)..s as u32 {
                    b.add_edge(base + u, base + v);
                }
            }
        }
        for c in 0..4u32 {
            b.add_edge(c * s as u32, ((c + 1) % 4) * s as u32);
        }
        let g = b.build();
        let w = VertexWeights::vertex_edge(&g);
        let labels: Vec<u32> = (0..4 * s).map(|v| (v / s) as u32).collect();
        let part = Partition::new(labels, 4);
        let frozen = vec![false; 4 * s];
        let r = refiner(15)
            .refine_pair(&g, &w, &part, (0, 1), &frozen, 5)
            .unwrap();
        let mut refined = part.clone();
        for &(v, p) in &r.moves {
            refined.assign(v, p);
        }
        assert!(
            refined.max_imbalance(&w) <= 0.05 + 1e-9,
            "{}",
            refined.max_imbalance(&w)
        );
    }

    #[test]
    fn tolerates_a_pair_drained_by_removals() {
        // Churn can empty a part between refinements; refining such a pair
        // must be a clean no-op (or a pure balance improvement), never an
        // error — and a singleton pair subgraph must not panic either.
        let g = gen::two_cliques(10, 1);
        let w = VertexWeights::vertex_edge(&g);
        // Part 1 drained to a single member, part 2 empty.
        let mut labels = vec![0u32; 20];
        labels[19] = 1;
        let part = Partition::new(labels, 3);
        let frozen = vec![false; 20];
        let gd = refiner(5);
        let r = gd.refine_pair(&g, &w, &part, (1, 2), &frozen, 1).unwrap();
        assert!(r.moves.is_empty(), "sub-2-member pair is a no-op");
        assert_eq!(r.cut_before, 0);
        // A drained-but-nonempty pair still runs and never worsens ε.
        let r = gd.refine_pair(&g, &w, &part, (0, 1), &frozen, 2).unwrap();
        let mut refined = part.clone();
        for &(v, p) in &r.moves {
            refined.assign(v, p);
        }
        assert!(refined.max_imbalance(&w) <= part.max_imbalance(&w) + 1e-9);
    }

    #[test]
    fn stale_masks_after_a_shrink_are_rejected() {
        // The streaming layer purges removed vertices, shrinking the
        // graph; a frozen/active mask built before the purge must be
        // rejected loudly, not applied to the wrong vertices.
        let (g, w, part) = perturbed_cliques(10, 0);
        let gd = refiner(5);
        let stale = vec![false; 23]; // pre-purge size
        assert!(matches!(
            gd.refine_pair(&g, &w, &part, (0, 1), &stale, 0),
            Err(PartitionError::DimensionMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "rebuild it after a purge")]
    fn pair_ranking_rejects_stale_active_mask() {
        let g = gen::path(10);
        let part = Partition::new(vec![0; 10], 1);
        GdPartitioner::rank_pairs_by_active_cut(&g, &part, &[true; 12], 4);
    }

    #[test]
    fn rejects_invalid_pairs() {
        let (g, w, part) = perturbed_cliques(10, 0);
        let frozen = vec![false; 20];
        let gd = refiner(5);
        assert!(gd.refine_pair(&g, &w, &part, (0, 0), &frozen, 0).is_err());
        assert!(gd.refine_pair(&g, &w, &part, (0, 7), &frozen, 0).is_err());
        assert!(gd
            .refine_pair(&g, &w, &part, (0, 1), &[false; 19], 0)
            .is_err());
    }

    #[test]
    fn disjoint_rounds_form_a_maximal_matching_in_order() {
        // (0,1) and (2,3) are disjoint -> round 0; (1,2) conflicts with
        // both -> round 1; (4,5) still fits round 0.
        let pairs = [(0, 1), (2, 3), (1, 2), (4, 5)];
        let rounds = GdPartitioner::plan_disjoint_rounds(&pairs);
        assert_eq!(rounds, vec![vec![(0, 1), (2, 3), (4, 5)], vec![(1, 2)]]);
        // Every round is internally part-disjoint and all pairs survive.
        let total: usize = rounds.iter().map(Vec::len).sum();
        assert_eq!(total, pairs.len());
        for round in &rounds {
            let mut seen = std::collections::HashSet::new();
            for &(p, q) in round {
                assert!(seen.insert(p) && seen.insert(q), "part reused in round");
            }
        }
        assert!(GdPartitioner::plan_disjoint_rounds(&[]).is_empty());
    }

    #[test]
    fn pair_ranking_prefers_active_cut_edges() {
        // Path across three parts: edges (9,10) cuts parts 0-1, (19,20)
        // cuts parts 1-2. Only the first is incident to an active vertex.
        let g = gen::path(30);
        let labels: Vec<u32> = (0..30).map(|v| (v / 10) as u32).collect();
        let part = Partition::new(labels, 3);
        let mut active = vec![false; 30];
        active[9] = true;
        let pairs = GdPartitioner::rank_pairs_by_active_cut(&g, &part, &active, 4);
        assert_eq!(pairs, vec![(0, 1)]);
        let all = GdPartitioner::rank_pairs_by_active_cut(&g, &part, &[true; 30], 4);
        assert_eq!(all.len(), 2);
    }
}
