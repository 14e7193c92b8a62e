//! The GD main loop (paper Algorithm 1 + the §3.2 implementation details).
//!
//! Per iteration: Gaussian noise (first iteration only by default), a
//! gradient ascent step `y = z + γ_t A z`, and a projection back onto the
//! feasible region. On top of the bare algorithm this module implements:
//!
//! * **adaptive step size** — γ_t chosen so the *realized* step
//!   `‖x(t+1) − x(t)‖₂` stays close to a constant target (`2·√n/I` by
//!   default), with bounded retries when the projection eats the step;
//! * **vertex fixing** — near-integral coordinates are frozen at ±1,
//!   removed from the active variable set and folded into the balance
//!   targets of the reduced region, keeping the gradient from being
//!   dominated by already-decided vertices;
//! * **delta-maintained gradients** — instead of recomputing `∇f = A z`
//!   with a full mat-vec every iteration, the gradient is kept current by
//!   propagating sparse `z[u] − z_prev[u]` diffs to neighbors
//!   ([`crate::matvec::matvec_delta`]), with a full recompute every
//!   [`GdConfig::grad_recompute_period`] iterations (and after any
//!   step-size retry) to bound floating-point drift. Warm-started iterates
//!   move little by design, so the diff sweep is far below `O(m)`;
//! * an **active frontier** — a free vertex that neither moved more than
//!   [`FRONTIER_TOL`] last iteration nor has a neighbor that did is
//!   *dormant*: it sits out the diff sweep, the gradient step and the
//!   projection (its weight mass is folded into the slab shift like a
//!   temporarily fixed vertex), and re-enters when a neighbor moves or at
//!   the next full recompute. An empty frontier ends the run early with
//!   [`GdExit::FrontierConverged`];
//! * a final run of alternating projections to convergence, followed by
//!   balanced randomized rounding.
//!
//! See `docs/ARCHITECTURE.md` for how the streaming engine drives this
//! loop through [`crate::recursive::GdPartitioner::solve_pair`], with the
//! vertices it cannot move [`Eliminated`] from the problem.

use crate::config::{GdConfig, StepSchedule};
use crate::feasible::FeasibleRegion;
use crate::matvec::{delta_degree, expected_locality, matvec_delta, matvec_parallel};
use crate::noise::add_gaussian_noise;
use crate::projection::{alternating, project};
use crate::rounding::round_balanced;
use crate::timing::{Kernel, KernelTimes};
use mdbgp_graph::{Graph, PartitionError, VertexWeights};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The bipartition target: part `V_1` (sign +1) should receive `fraction`
/// of every weight dimension, within relative tolerance `epsilon`.
///
/// In the ±1 formulation `⟨w, x⟩ = w(V_1) − w(V_2)`, so the slab for
/// dimension `j` has centre `(2·fraction − 1)·w(V)` and half-width
/// `2·min(fraction, 1 − fraction)·ε·w(V)` (both parts must stay within
/// `(1 ± ε)` of their share — the tighter of the two constraints wins).
#[derive(Clone, Copy, Debug)]
pub struct SplitTarget {
    pub fraction: f64,
    pub epsilon: f64,
}

impl SplitTarget {
    /// Even split, the paper's standard setting.
    pub fn half(epsilon: f64) -> Self {
        Self {
            fraction: 0.5,
            epsilon,
        }
    }

    /// Uneven split for recursive partitioning into non-power-of-two `k`.
    pub fn new(fraction: f64, epsilon: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        assert!(epsilon >= 0.0);
        Self { fraction, epsilon }
    }

    /// Slab centre for a dimension with total weight `total`.
    pub fn center(&self, total: f64) -> f64 {
        (2.0 * self.fraction - 1.0) * total
    }

    /// Slab half-width for a dimension with total weight `total`.
    pub fn halfwidth(&self, total: f64) -> f64 {
        2.0 * self.fraction.min(1.0 - self.fraction) * self.epsilon * total
    }

    /// Builds the feasible region for `weights` under this target.
    pub fn region(&self, weights: &VertexWeights) -> FeasibleRegion {
        self.region_around(weights, &Eliminated::default())
    }

    /// The region of a problem whose `eliminated` vertices were taken out
    /// at fixed sides: the slabs are sized by the combined weight of the
    /// variables and the eliminated vertices, and shifted by the
    /// eliminated signed mass — exactly how vertex fixing re-centres the
    /// reduced problem ([`FeasibleRegion::restrict`]). With nothing
    /// eliminated this is [`Self::region`].
    pub fn region_around(
        &self,
        weights: &VertexWeights,
        eliminated: &Eliminated,
    ) -> FeasibleRegion {
        let d = weights.dims();
        let w: Vec<Vec<f64>> = (0..d).map(|j| weights.dim(j).to_vec()).collect();
        // Empty masses read as zero; totals are positive sums, so adding a
        // zero leaves the plain region bit for bit.
        let total = |j: usize| weights.total(j) + eliminated.weight.get(j).unwrap_or(&0.0);
        let centers = (0..d)
            .map(|j| self.center(total(j)) - eliminated.dot.get(j).unwrap_or(&0.0))
            .collect();
        let halfwidths = (0..d).map(|j| self.halfwidth(total(j))).collect();
        FeasibleRegion::new(w, centers, halfwidths)
    }
}

/// Per-iteration telemetry (Figures 8–10 plot these curves).
#[derive(Clone, Debug)]
pub struct IterationRecord {
    pub iteration: usize,
    /// Expected edge locality of the current fractional iterate.
    pub expected_locality: f64,
    /// `max_j |⟨w_j, x⟩ − c_j| / w_j(V)` — the fractional analogue of the
    /// partition imbalance.
    pub fractional_imbalance: f64,
    /// Realized step `‖x(t+1) − x(t)‖₂`.
    pub step_length: f64,
    /// Gradient multiplier γ_t used this iteration.
    pub gamma: f64,
    /// Number of vertices fixed at ±1 so far.
    pub fixed_vertices: usize,
}

/// Why a GD run stopped iterating.
///
/// # Example
///
/// A warm start that freezes every vertex leaves nothing to optimize —
/// the run exits immediately and returns the input assignment:
///
/// ```
/// use mdbgp_core::{bipartition_warm, GdConfig, GdExit, SplitTarget, WarmStart};
/// use mdbgp_graph::{gen, VertexWeights};
///
/// let g = gen::two_cliques(10, 1);
/// let w = VertexWeights::vertex_edge(&g);
/// let signs: Vec<i8> = (0..20).map(|v| if v < 10 { 1 } else { -1 }).collect();
/// let warm = WarmStart::from_signs(&signs, vec![true; 20]); // all frozen
///
/// let res = bipartition_warm(
///     &g, &w, &GdConfig::with_epsilon(0.05), &SplitTarget::half(0.05), &warm, 1,
/// ).unwrap();
/// assert_eq!(res.stats.exit, GdExit::FullyFrozen);
/// assert_eq!(res.signs, signs);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GdExit {
    /// The configured iteration budget ran out.
    #[default]
    IterationBudget,
    /// The warm start froze every vertex — there was nothing to optimize.
    FullyFrozen,
    /// Vertex fixing drove the whole iterate integral before the budget.
    FullyIntegral,
    /// The active frontier drained: no free vertex moved more than
    /// [`FRONTIER_TOL`] last iteration (and none saw a neighbor move), so
    /// further iterations would be no-ops. The common exit for a
    /// warm-started refinement of an already-settled region.
    FrontierConverged,
}

/// Movement threshold for frontier membership: a free vertex whose
/// realized step stays at or below this (and whose neighbors all do too)
/// is dormant next iteration. Sub-tolerance moves are still propagated
/// into the maintained gradient bit-exactly — the tolerance governs only
/// who gets *stepped*, never gradient correctness.
pub const FRONTIER_TOL: f64 = 1e-6;

/// Convergence statistics of one GD run — always collected (cheap: one
/// norm per iteration, already computed for the step schedule), so the
/// observability layer can report iteration-count histograms and
/// gradient-norm decay without `track_history`'s per-iteration locality
/// scans.
///
/// # Example
///
/// Every executed gradient evaluation is either a full mat-vec or a
/// sparse diff sweep, iteration 0 is always full, and a run that stepped
/// reports the gradient norm it started from:
///
/// ```
/// use mdbgp_core::{bipartition_warm, GdConfig, SplitTarget, WarmStart};
/// use mdbgp_graph::{gen, VertexWeights};
///
/// let g = gen::two_cliques(20, 2);
/// let w = VertexWeights::vertex_edge(&g);
/// let mut signs: Vec<i8> = (0..40).map(|v| if v < 20 { 1 } else { -1 }).collect();
/// (signs[3], signs[23]) = (-1, 1); // two strays to heal
/// let warm = WarmStart::from_signs(&signs, vec![false; 40]);
///
/// let res = bipartition_warm(
///     &g, &w, &GdConfig::with_epsilon(0.05), &SplitTarget::half(0.05), &warm, 2,
/// ).unwrap();
/// let s = &res.stats;
/// assert!(s.full_recomputes >= 1, "iteration 0 always pays a full mat-vec");
/// assert!(s.full_recomputes + s.delta_iterations >= s.iterations);
/// assert!(s.iterations > 0 && s.first_grad_norm > 0.0);
/// assert!(s.frontier_peak * s.iterations >= s.frontier_sum);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GdRunStats {
    /// Gradient iterations actually executed.
    pub iterations: usize,
    /// `‖∇f‖₂` over the active frontier at the first executed iteration
    /// (0 when [`Self::iterations`] is 0).
    pub first_grad_norm: f64,
    /// `‖∇f‖₂` over the active frontier at the last executed iteration
    /// (0 when [`Self::iterations`] is 0).
    pub last_grad_norm: f64,
    /// Why the run stopped.
    pub exit: GdExit,
    /// Full `A·z` mat-vec evaluations (iteration 0, every
    /// [`GdConfig::grad_recompute_period`]-th iteration, after a step
    /// retry, and whenever the pending diffs are too dense for the delta
    /// path to win).
    pub full_recomputes: usize,
    /// Iterations served by the sparse diff sweep instead of a full
    /// mat-vec. `full_recomputes + delta_iterations` counts every executed
    /// gradient evaluation.
    pub delta_iterations: usize,
    /// Sum of per-iteration frontier sizes (`frontier_sum / iterations` is
    /// the mean active-vertex count — the observability layer's
    /// frontier-size histogram feed).
    pub frontier_sum: usize,
    /// Largest per-iteration frontier.
    pub frontier_peak: usize,
    /// Worst absolute deviation between the delta-maintained gradient and
    /// a full recompute, measured only when [`GdConfig::grad_check`] is on
    /// (0.0 otherwise). The equivalence harness pins this below `1e-9`.
    pub grad_drift_max: f64,
}

/// Reusable iterate storage for the GD loop — a flat SoA layout (one
/// `Vec` per quantity, indexed by vertex) that callers running many
/// warm-started solves can allocate once and pass to
/// [`bipartition_warm_with`] /
/// [`GdPartitioner::refine_pair_with`](crate::recursive::GdPartitioner::refine_pair_with),
/// instead of paying a fresh set of `O(n)` allocations per pair per
/// round. The streaming engine keeps one workspace per worker thread and
/// reuses them across disjoint refine rounds and batches.
///
/// A workspace carries no results between calls — every buffer is
/// (re)initialized at the start of a run, so reusing one is behaviorally
/// identical to passing a fresh `GdWorkspace::default()`.
#[derive(Debug, Default)]
pub struct GdWorkspace {
    /// Current iterate `x`.
    x: Vec<f64>,
    /// Step input `z = x (+ noise)`.
    z: Vec<f64>,
    /// The point the maintained gradient was last evaluated at.
    z_prev: Vec<f64>,
    /// Maintained gradient `A·z_prev`.
    grad: Vec<f64>,
    /// Scratch for [`GdConfig::grad_check`] full recomputes.
    check_grad: Vec<f64>,
    /// Per-free-vertex Gaussian noise scratch.
    noise: Vec<f64>,
    /// Active frontier of this iteration (subset of the free list).
    frontier: Vec<u32>,
    /// Vertices fixed since the last gradient evaluation — their snap to
    /// ±1 still needs diff propagation even though they left the free
    /// list.
    recently_fixed: Vec<u32>,
    /// Per-vertex iteration stamp: `touched[v] == stamp` marks frontier
    /// membership without clearing an array per iteration.
    touched: Vec<u32>,
    /// `Σ_{v free} w_j(v)·x[v]` per dimension, maintained incrementally
    /// (recomputed exactly at every full gradient recompute).
    free_dot: Vec<f64>,
    /// Slab-shift scratch for frontier-restricted projection.
    shift: Vec<f64>,
}

impl GdWorkspace {
    /// An empty workspace; buffers grow to the problem size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize, dims: usize) {
        self.x.clear();
        self.x.resize(n, 0.0);
        self.z.clear();
        self.z.resize(n, 0.0);
        self.z_prev.clear();
        self.z_prev.resize(n, 0.0);
        self.grad.clear();
        self.grad.resize(n, 0.0);
        self.frontier.clear();
        self.recently_fixed.clear();
        self.touched.clear();
        self.touched.resize(n, 0);
        self.free_dot.clear();
        self.free_dot.resize(dims, 0.0);
        self.shift.clear();
        self.shift.resize(dims, 0.0);
    }
}

/// Output of one GD bipartition run.
///
/// # Example
///
/// ```
/// use mdbgp_core::{bipartition, GdConfig, SplitTarget};
/// use mdbgp_graph::{gen, VertexWeights};
///
/// let g = gen::two_cliques(15, 1);
/// let w = VertexWeights::vertex_edge(&g);
/// let res = bipartition(
///     &g, &w, &GdConfig::with_epsilon(0.05), &SplitTarget::half(0.05), 42,
/// ).unwrap();
///
/// assert!(res.signs.iter().all(|&s| s == 1 || s == -1));
/// assert_eq!(res.x.len(), res.signs.len()); // fractional iterate, pre-rounding
/// assert!(res.violation < 1e-9, "ε-balanced");
/// assert!(res.history.is_empty(), "per-iteration records need track_history");
/// ```
#[derive(Clone, Debug)]
pub struct BipartitionResult {
    /// ±1 assignment (`+1 → V_1`).
    pub signs: Vec<i8>,
    /// Final fractional iterate (before rounding).
    pub x: Vec<f64>,
    /// Per-iteration records (empty unless `config.track_history`).
    pub history: Vec<IterationRecord>,
    /// Normalized balance violation of `signs` (0.0 = ε-balanced).
    pub violation: f64,
    /// Convergence trace (iteration count, gradient norms, exit reason).
    pub stats: GdRunStats,
    /// Wall-clock per kernel: every gradient evaluation is one `matvec`
    /// or `delta`, every step one `project`, and every run ends with one
    /// `round`.
    pub kernels: KernelTimes,
}

/// State of the active-variable bookkeeping for vertex fixing.
struct ActiveSet {
    /// `free[i]` — original index of reduced variable `i`.
    free: Vec<u32>,
    /// Fixed flag per original vertex.
    fixed: Vec<bool>,
    /// `Σ_{fixed i} w_j(i)·x_i` per dimension.
    fixed_dot: Vec<f64>,
    /// `Σ_{free i} w_j(i)` per dimension.
    free_total: Vec<f64>,
}

impl ActiveSet {
    fn new(n: usize, region: &FeasibleRegion) -> Self {
        Self {
            free: (0..n as u32).collect(),
            fixed: vec![false; n],
            fixed_dot: vec![0.0; region.dims()],
            free_total: (0..region.dims()).map(|j| region.total(j)).collect(),
        }
    }

    fn num_fixed(&self) -> usize {
        self.fixed.len() - self.free.len()
    }

    /// Attempts to fix vertex `v` at `sign`, keeping every reduced slab
    /// reachable. Returns whether the vertex was fixed.
    fn try_fix(&mut self, v: u32, sign: f64, region: &FeasibleRegion) -> bool {
        debug_assert!(!self.fixed[v as usize]);
        let d = region.dims();
        for j in 0..d {
            let w = region.weight(j)[v as usize];
            let new_dot = self.fixed_dot[j] + w * sign;
            let new_total = self.free_total[j] - w;
            let lo = region.lower(j) - new_dot;
            let hi = region.upper(j) - new_dot;
            // The free variables can realize any value in [−new_total,
            // new_total]; the shifted slab must intersect it.
            if lo > new_total + 1e-12 || hi < -new_total - 1e-12 {
                return false;
            }
        }
        self.fixed[v as usize] = true;
        for j in 0..d {
            let w = region.weight(j)[v as usize];
            self.fixed_dot[j] += w * sign;
            self.free_total[j] -= w;
        }
        true
    }

    /// Rebuilds the free-index list after fixing.
    fn rebuild_free(&mut self) {
        self.free = (0..self.fixed.len() as u32)
            .filter(|&v| !self.fixed[v as usize])
            .collect();
    }
}

/// Warm-start specification for incremental refinement (see
/// [`bipartition_warm`] and `mdbgp-stream`).
///
/// # Example
///
/// Heal a planted bipartition that a stream of updates has perturbed:
/// start from the current ±1 assignment with nothing frozen, and GD
/// pulls the strays back in a handful of cheap delta iterations:
///
/// ```
/// use mdbgp_core::{bipartition_warm, GdConfig, SplitTarget, WarmStart};
/// use mdbgp_graph::{gen, VertexWeights};
///
/// let g = gen::two_cliques(20, 2);
/// let w = VertexWeights::vertex_edge(&g);
/// let planted: Vec<i8> = (0..40).map(|v| if v < 20 { 1 } else { -1 }).collect();
/// let mut drifted = planted.clone();
/// (drifted[3], drifted[23]) = (-1, 1); // one stray on each side
/// let warm = WarmStart::from_signs(&drifted, vec![false; 40]);
///
/// let res = bipartition_warm(
///     &g, &w, &GdConfig::with_epsilon(0.05), &SplitTarget::half(0.05), &warm, 3,
/// ).unwrap();
/// assert_eq!(res.signs, planted, "both strays pulled home");
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarmStart {
    /// Initial fractional iterate, length `n`, entries clamped to `[-1, 1]`.
    /// For refinement of an existing bipartition, pass the ±1 encoding of
    /// the current assignment.
    pub x0: Vec<f64>,
    /// Vertices frozen at `sign(x0[v])`: they are fixed before the first
    /// iteration and leave the active variable set, so gradient work scales
    /// with the *free* vertices only. A frozen vertex whose fixation would
    /// make the balance slabs unreachable is silently left free (same rule
    /// as in-loop vertex fixing).
    pub frozen: Vec<bool>,
    /// Vertices of the underlying problem that are not variables at all
    /// (default: none) — see [`Eliminated`].
    pub eliminated: Eliminated,
}

/// Vertices eliminated from a GD problem at fixed ±1 sides — the
/// generalization of vertex fixing to vertices that never become
/// variables. Pairwise refinement (`GdPartitioner::solve_pair`) keeps only
/// a pair's movable vertices as variables; everything else of the pair is
/// eliminated, and enters the solve in exactly the places a fixed vertex
/// would:
///
/// * the gradient, as a constant per-variable bias `b = A_{M,E}·x_E` added
///   at every full recompute (the delta path needs nothing — a constant
///   has no diffs to propagate);
/// * the balance slabs, sized by the combined weight and shifted by the
///   eliminated signed mass ([`SplitTarget::region_around`]);
/// * the step schedule, sized by variables plus eliminated vertices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Eliminated {
    /// Constant gradient bias per variable, `Σ x_u` over the variable's
    /// eliminated neighbours `u`. Empty means zero.
    pub bias: Vec<f64>,
    /// `Σ w_j(u)·x_u` over the eliminated vertices, per dimension. Empty
    /// means zero.
    pub dot: Vec<f64>,
    /// `Σ w_j(u)` over the eliminated vertices, per dimension. Empty means
    /// zero.
    pub weight: Vec<f64>,
    /// How many vertices were eliminated.
    pub count: usize,
}

impl WarmStart {
    /// Warm start from a ±1 assignment with an explicit frozen mask.
    pub fn from_signs(signs: &[i8], frozen: Vec<bool>) -> Self {
        assert_eq!(signs.len(), frozen.len());
        Self {
            x0: signs.iter().map(|&s| s as f64).collect(),
            frozen,
            eliminated: Eliminated::default(),
        }
    }
}

/// Runs GD on `graph` with the given split target, producing a ±1
/// assignment. This is the inner engine; use
/// [`crate::recursive::GdPartitioner`] for the full k-way API.
pub fn bipartition(
    graph: &Graph,
    weights: &VertexWeights,
    config: &GdConfig,
    target: &SplitTarget,
    seed: u64,
) -> Result<BipartitionResult, PartitionError> {
    bipartition_impl(
        graph,
        weights,
        config,
        target,
        seed,
        None,
        &mut GdWorkspace::default(),
    )
}

/// [`bipartition`] warm-started from an existing (partial) solution: the
/// iterate starts at `warm.x0` instead of the origin and `warm.frozen`
/// vertices are fixed up front. This is the core primitive behind
/// incremental repartitioning — a small batch of graph updates is absorbed
/// by a few cheap iterations over the unfrozen vertices instead of a full
/// solve (no iteration-0 noise is added: a non-zero warm start is already
/// away from the saddle at the origin).
pub fn bipartition_warm(
    graph: &Graph,
    weights: &VertexWeights,
    config: &GdConfig,
    target: &SplitTarget,
    warm: &WarmStart,
    seed: u64,
) -> Result<BipartitionResult, PartitionError> {
    bipartition_impl(
        graph,
        weights,
        config,
        target,
        seed,
        Some(warm),
        &mut GdWorkspace::default(),
    )
}

/// [`bipartition_warm`] with caller-provided iterate storage: identical
/// output, but the `O(n)` working vectors live in `ws` and are reused
/// across calls instead of being reallocated. The streaming engine's
/// refine stage calls this once per pair per round (through
/// [`GdPartitioner::solve_pair`](crate::recursive::GdPartitioner::solve_pair))
/// with a per-worker workspace.
pub fn bipartition_warm_with(
    ws: &mut GdWorkspace,
    graph: &Graph,
    weights: &VertexWeights,
    config: &GdConfig,
    target: &SplitTarget,
    warm: &WarmStart,
    seed: u64,
) -> Result<BipartitionResult, PartitionError> {
    bipartition_impl(graph, weights, config, target, seed, Some(warm), ws)
}

fn bipartition_impl(
    graph: &Graph,
    weights: &VertexWeights,
    config: &GdConfig,
    target: &SplitTarget,
    seed: u64,
    warm: Option<&WarmStart>,
    ws: &mut GdWorkspace,
) -> Result<BipartitionResult, PartitionError> {
    config.validate().map_err(PartitionError::Config)?;
    let n = graph.num_vertices();
    if weights.num_vertices() != n {
        return Err(PartitionError::DimensionMismatch {
            weights_n: weights.num_vertices(),
            graph_n: n,
        });
    }
    if n == 0 {
        return Ok(BipartitionResult {
            signs: Vec::new(),
            x: Vec::new(),
            history: Vec::new(),
            violation: 0.0,
            stats: GdRunStats {
                exit: GdExit::FullyFrozen,
                ..GdRunStats::default()
            },
            kernels: KernelTimes::default(),
        });
    }

    let no_elimination = Eliminated::default();
    let eliminated = warm.map_or(&no_elimination, |w| &w.eliminated);
    let dims = weights.dims();
    let bias_ok = eliminated.bias.is_empty() || eliminated.bias.len() == n;
    let mass_ok = [&eliminated.dot, &eliminated.weight]
        .iter()
        .all(|m| m.is_empty() || m.len() == dims);
    if !bias_ok || !mass_ok {
        return Err(PartitionError::DimensionMismatch {
            weights_n: eliminated.bias.len(),
            graph_n: n,
        });
    }
    // The slab shift by the eliminated mass is already in the region, so
    // this also rejects an elimination no assignment can balance.
    let region = target.region_around(weights, eliminated);
    if !region.per_dim_feasible() {
        return Err(PartitionError::Infeasible(
            "balance slab unreachable for some weight dimension".into(),
        ));
    }
    ws.reset(n, dims);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active = ActiveSet::new(n, &region);
    let mut warm_started = false;
    if let Some(w) = warm {
        if w.x0.len() != n || w.frozen.len() != n {
            return Err(PartitionError::DimensionMismatch {
                weights_n: w.x0.len(),
                graph_n: n,
            });
        }
        for (xi, &x0i) in ws.x.iter_mut().zip(&w.x0) {
            *xi = x0i.clamp(-1.0, 1.0);
        }
        warm_started = ws.x.iter().any(|&v| v != 0.0);
        // Freeze the most decided vertices first so marginal ones are the
        // ones left free when fixing everything would be infeasible.
        let mut to_freeze: Vec<u32> = (0..n as u32).filter(|&v| w.frozen[v as usize]).collect();
        to_freeze.sort_by(|&a, &b| {
            ws.x[b as usize]
                .abs()
                .partial_cmp(&ws.x[a as usize].abs())
                .unwrap()
        });
        for v in to_freeze {
            let sign = if ws.x[v as usize] >= 0.0 { 1.0 } else { -1.0 };
            if active.try_fix(v, sign, &region) {
                ws.x[v as usize] = sign;
            }
        }
        active.rebuild_free();
    }
    let mut reduced = region.restrict(&active.free, &active.fixed_dot);
    let mut history = Vec::new();
    let mut stats = GdRunStats::default();
    let mut kernels = KernelTimes::default();

    // The schedule is sized by the whole problem, eliminated vertices
    // included, so a reduced solve steps like the problem it stands for.
    let target_len_full = config
        .step
        .target_length(n + eliminated.count, config.iterations);
    let entries = graph.raw_offsets()[n];
    // Delta-gradient state: `ws.grad` mirrors `A·ws.z_prev` once
    // `grad_ready`; `force_full` re-syncs after a step retry perturbed the
    // iterate harder than the schedule expected.
    let mut grad_ready = false;
    let mut force_full = false;
    let mut since_full = 0usize;
    let mut stamp: u32 = 0;

    for t in 0..config.iterations {
        if active.free.is_empty() {
            stats.exit = GdExit::FullyFrozen; // fully frozen warm start
            break;
        }
        // --- Step 1: noise (escapes the saddle at x = 0; a warm start is
        // already away from the origin, so it gets none). ---
        let std = if t == 0 && warm_started {
            0.0
        } else {
            config.noise.std_at(t)
        };
        ws.z.copy_from_slice(&ws.x);
        if std > 0.0 {
            // Perturb only free coordinates so fixed vertices stay integral.
            ws.noise.clear();
            ws.noise.resize(active.free.len(), 0.0);
            add_gaussian_noise(&mut ws.noise, std, &mut rng);
            for (slot, &v) in ws.noise.iter().zip(&active.free) {
                ws.z[v as usize] += slot;
            }
        }

        // --- Step 2: gradient ∇f(z) = A z, delta-maintained. A full
        // mat-vec runs on the first iteration, on the recompute cadence,
        // after a step retry, and whenever the pending diffs touch enough
        // edges that the sparse sweep would not beat the dense kernel
        // (scatter writes cost more per edge than row-major reads).
        // Otherwise the gradient advances by propagating `z − z_prev`
        // diffs from free movers and from vertices fixed since the last
        // evaluation (their snap to ±1 moved `z` too). ---
        stamp = stamp.wrapping_add(1);
        let gradient_start = Instant::now();
        let full = !grad_ready || force_full || since_full + 1 >= config.grad_recompute_period || {
            let pending = delta_degree(graph, &ws.z, &ws.z_prev, &active.free)
                + delta_degree(graph, &ws.z, &ws.z_prev, &ws.recently_fixed);
            2 * pending >= entries
        };
        if full {
            matvec_parallel(graph, &ws.z, &mut ws.grad, config.threads);
            add_bias(&mut ws.grad, &eliminated.bias);
            ws.z_prev.copy_from_slice(&ws.z);
            // Re-anchor the incrementally maintained free-mass dots so
            // their floating-point drift resets along with the gradient's.
            for j in 0..dims {
                let w = region.weight(j);
                ws.free_dot[j] = active
                    .free
                    .iter()
                    .map(|&v| w[v as usize] * ws.x[v as usize])
                    .sum();
            }
            grad_ready = true;
            since_full = 0;
            stats.full_recomputes += 1;
        } else {
            matvec_delta(
                graph,
                &ws.z,
                &mut ws.z_prev,
                &active.free,
                &mut ws.grad,
                FRONTIER_TOL,
                stamp,
                &mut ws.touched,
            );
            matvec_delta(
                graph,
                &ws.z,
                &mut ws.z_prev,
                &ws.recently_fixed,
                &mut ws.grad,
                FRONTIER_TOL,
                stamp,
                &mut ws.touched,
            );
            since_full += 1;
            stats.delta_iterations += 1;
        }
        let gradient = if full { Kernel::Matvec } else { Kernel::Delta };
        kernels.record(gradient, gradient_start);
        ws.recently_fixed.clear();
        if config.grad_check {
            ws.check_grad.clear();
            ws.check_grad.resize(n, 0.0);
            matvec_parallel(graph, &ws.z, &mut ws.check_grad, config.threads);
            add_bias(&mut ws.check_grad, &eliminated.bias);
            let drift = ws
                .grad
                .iter()
                .zip(&ws.check_grad)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            stats.grad_drift_max = stats.grad_drift_max.max(drift);
        }

        // --- Active frontier: a full recompute wakes every free vertex;
        // a delta iteration steps only last step's movers and their
        // neighbors (everyone else's gradient coordinate and iterate are
        // both unchanged, so stepping them would be a no-op). ---
        ws.frontier.clear();
        if full {
            ws.frontier.extend_from_slice(&active.free);
        } else {
            let (frontier, touched) = (&mut ws.frontier, &ws.touched);
            frontier.extend(
                active
                    .free
                    .iter()
                    .copied()
                    .filter(|&v| touched[v as usize] == stamp),
            );
        }
        if ws.frontier.is_empty() {
            stats.exit = GdExit::FrontierConverged;
            break;
        }
        stats.frontier_sum += ws.frontier.len();
        stats.frontier_peak = stats.frontier_peak.max(ws.frontier.len());

        let grad_front_norm: f64 = ws
            .frontier
            .iter()
            .map(|&v| ws.grad[v as usize] * ws.grad[v as usize])
            .sum::<f64>()
            .sqrt();
        if stats.iterations == 0 {
            stats.first_grad_norm = grad_front_norm;
        }
        stats.iterations = t + 1;
        stats.last_grad_norm = grad_front_norm;

        // Frontier-restricted region: dormant free vertices hold their
        // position, so their weight mass folds into the slab shift exactly
        // like fixed vertices — global balance stays exact.
        let project_start = Instant::now();
        let front_restricted;
        let front_region = if ws.frontier.len() == active.free.len() {
            &reduced
        } else {
            for j in 0..dims {
                let w = region.weight(j);
                let front_dot: f64 = ws
                    .frontier
                    .iter()
                    .map(|&v| w[v as usize] * ws.x[v as usize])
                    .sum();
                ws.shift[j] = active.fixed_dot[j] + (ws.free_dot[j] - front_dot);
            }
            front_restricted = region.restrict(&ws.frontier, &ws.shift);
            &front_restricted
        };

        // Active-subspace step-length target: can't move farther than the
        // diameter of the remaining cube.
        let cap = 2.0 * (ws.frontier.len() as f64).sqrt();
        let step_target = target_len_full.map(|l| l.min(cap));

        let mut gamma = match config.step {
            StepSchedule::Constant { gamma } => gamma,
            StepSchedule::FixedLength { .. } => {
                let t_len = step_target.unwrap();
                if grad_front_norm > 1e-30 {
                    t_len / grad_front_norm
                } else {
                    1.0
                }
            }
        };

        // --- Step 3: projection, with adaptive retries (§3.2): if the
        // projection swallowed the step, enlarge γ and retry. ---
        let mut x_new_front: Vec<f64>;
        let mut step_len: f64;
        let mut retries = 0;
        loop {
            let y_front: Vec<f64> = ws
                .frontier
                .iter()
                .map(|&v| ws.z[v as usize] + gamma * ws.grad[v as usize])
                .collect();
            x_new_front = project(config.projection, &y_front, front_region);
            step_len = ws
                .frontier
                .iter()
                .zip(&x_new_front)
                .map(|(&v, &nv)| {
                    let dv = nv - ws.x[v as usize];
                    dv * dv
                })
                .sum::<f64>()
                .sqrt();
            match step_target {
                Some(t_len) if step_len < 0.5 * t_len && retries < 3 && grad_front_norm > 1e-30 => {
                    gamma *= (t_len / step_len.max(t_len / 16.0)).min(8.0);
                    retries += 1;
                }
                _ => break,
            }
        }
        // A retry means the realized step disagreed with the schedule —
        // re-sync the gradient next iteration rather than trusting drift.
        // A literally zero step needs no re-sync (z is unchanged), and
        // skipping it lets a settled iterate drain its frontier instead of
        // being re-woken by its own no-op retries.
        force_full = retries > 0 && step_len > 0.0;
        for (&v, &nv) in ws.frontier.iter().zip(&x_new_front) {
            let old = ws.x[v as usize];
            if nv != old {
                for j in 0..dims {
                    ws.free_dot[j] += region.weight(j)[v as usize] * (nv - old);
                }
                ws.x[v as usize] = nv;
            }
        }
        kernels.record(Kernel::Project, project_start);

        // --- Vertex fixing (§3.2). Only frontier vertices can have moved
        // across the threshold this iteration. ---
        if let Some(threshold) = config.fixing_threshold {
            let fix_start = Instant::now();
            let mut fixed_any = false;
            // Walk candidates in decreasing |x| so the most decided
            // vertices are locked first.
            let mut candidates: Vec<u32> = ws
                .frontier
                .iter()
                .copied()
                .filter(|&v| ws.x[v as usize].abs() >= threshold)
                .collect();
            candidates.sort_by(|&a, &b| {
                ws.x[b as usize]
                    .abs()
                    .partial_cmp(&ws.x[a as usize].abs())
                    .unwrap()
            });
            for v in candidates {
                let sign = if ws.x[v as usize] >= 0.0 { 1.0 } else { -1.0 };
                if active.try_fix(v, sign, &region) {
                    for j in 0..dims {
                        ws.free_dot[j] -= region.weight(j)[v as usize] * ws.x[v as usize];
                    }
                    ws.x[v as usize] = sign;
                    // The snap from x to ±1 changes z next iteration; keep
                    // the vertex in the diff sweep once more even though it
                    // left the free list.
                    ws.recently_fixed.push(v);
                    fixed_any = true;
                }
            }
            if fixed_any {
                active.rebuild_free();
                reduced = region.restrict(&active.free, &active.fixed_dot);
            }
            kernels.record(Kernel::Fix, fix_start);
        }

        if config.track_history {
            let frac_imb = (0..region.dims())
                .map(|j| (region.dot(j, &ws.x) - region.center(j)).abs() / region.total(j))
                .fold(0.0, f64::max);
            history.push(IterationRecord {
                iteration: t,
                expected_locality: expected_locality(graph, &ws.x),
                fractional_imbalance: frac_imb,
                step_length: step_len,
                gamma,
                fixed_vertices: active.num_fixed(),
            });
        }

        if active.free.is_empty() {
            stats.exit = GdExit::FullyIntegral;
            break;
        }
    }

    // Final feasibility clean-up on the free variables (paper §3.1: "in the
    // last iterations we run the alternating projections method until
    // convergence").
    if !active.free.is_empty() {
        let start = Instant::now();
        let x_free: Vec<f64> = active.free.iter().map(|&v| ws.x[v as usize]).collect();
        let cleaned = alternating::project_converged(
            &x_free,
            &reduced,
            config.final_projection_passes,
            crate::projection::FEASIBILITY_TOL,
        );
        for (&v, &nv) in active.free.iter().zip(&cleaned) {
            ws.x[v as usize] = nv;
        }
        kernels.record(Kernel::FinalProject, start);
    }

    // Randomized rounding + balance repair.
    let (signs, violation) = round_balanced(
        &ws.x,
        &region,
        config.rounding_attempts,
        &mut rng,
        &mut kernels,
    );
    Ok(BipartitionResult {
        signs,
        x: ws.x.clone(),
        history,
        violation,
        stats,
        kernels,
    })
}

/// Adds the eliminated vertices' constant gradient bias (empty = none).
fn add_bias(grad: &mut [f64], bias: &[f64]) {
    for (g, b) in grad.iter_mut().zip(bias) {
        *g += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbgp_graph::gen;
    use mdbgp_graph::Partition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quality(graph: &Graph, weights: &VertexWeights, res: &BipartitionResult) -> (f64, f64) {
        let p = Partition::from_signs(&res.signs);
        (p.edge_locality(graph), p.max_imbalance(weights))
    }

    #[test]
    fn splits_two_cliques_perfectly() {
        let g = gen::two_cliques(40, 2);
        let w = VertexWeights::vertex_edge(&g);
        let cfg = GdConfig {
            iterations: 60,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition(&g, &w, &cfg, &SplitTarget::half(0.05), 1).unwrap();
        let (loc, imb) = quality(&g, &w, &res);
        let m = g.num_edges() as f64;
        assert!(
            loc >= (m - 2.0) / m - 1e-9,
            "only the bridges may be cut, locality {loc}"
        );
        assert!(imb <= 0.05 + 1e-9, "imbalance {imb}");
    }

    #[test]
    fn respects_two_dimensional_balance_on_skewed_graph() {
        // A hub-heavy graph: unit balance alone would allow degree skew.
        let mut rng = StdRng::seed_from_u64(3);
        let degrees = gen::power_law_sequence(600, 2.2, 2.0, 120.0, &mut rng);
        let g = gen::chung_lu(&degrees, &mut rng);
        let w = VertexWeights::vertex_edge(&g);
        let cfg = GdConfig {
            iterations: 80,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition(&g, &w, &cfg, &SplitTarget::half(0.05), 9).unwrap();
        let p = Partition::from_signs(&res.signs);
        let imb = p.imbalance(&w);
        assert!(imb[0] <= 0.06, "vertex imbalance {}", imb[0]);
        assert!(imb[1] <= 0.06, "degree imbalance {}", imb[1]);
    }

    #[test]
    fn beats_random_split_on_community_graph() {
        let cfg_g = gen::CommunityGraphConfig::social(1200);
        let cg = gen::community_graph(&cfg_g, &mut StdRng::seed_from_u64(4));
        let w = VertexWeights::vertex_edge(&cg.graph);
        let cfg = GdConfig {
            iterations: 80,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition(&cg.graph, &w, &cfg, &SplitTarget::half(0.05), 11).unwrap();
        let (loc, imb) = quality(&cg.graph, &w, &res);
        assert!(
            loc > 0.62,
            "expected well above the 50% of a random split, got {loc}"
        );
        assert!(imb <= 0.06, "imbalance {imb}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::two_cliques(20, 3);
        let w = VertexWeights::unit(40);
        let cfg = GdConfig {
            iterations: 30,
            ..GdConfig::with_epsilon(0.1)
        };
        let a = bipartition(&g, &w, &cfg, &SplitTarget::half(0.1), 5).unwrap();
        let b = bipartition(&g, &w, &cfg, &SplitTarget::half(0.1), 5).unwrap();
        assert_eq!(a.signs, b.signs);
    }

    #[test]
    fn history_is_recorded_and_improves() {
        let g = gen::two_cliques(30, 1);
        let w = VertexWeights::unit(60);
        let cfg = GdConfig {
            iterations: 50,
            track_history: true,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition(&g, &w, &cfg, &SplitTarget::half(0.05), 2).unwrap();
        assert!(!res.history.is_empty());
        let first = res.history.first().unwrap().expected_locality;
        let last = res.history.last().unwrap().expected_locality;
        assert!(last > first, "locality should improve: {first} -> {last}");
        assert!(last > 0.9);
    }

    #[test]
    fn uneven_split_target_honored() {
        // 2:1 split of a cycle.
        let g = gen::cycle(300);
        let w = VertexWeights::unit(300);
        let cfg = GdConfig {
            iterations: 60,
            ..GdConfig::with_epsilon(0.04)
        };
        let t = SplitTarget::new(2.0 / 3.0, 0.04);
        let res = bipartition(&g, &w, &cfg, &t, 8).unwrap();
        let plus = res.signs.iter().filter(|&&s| s == 1).count() as f64;
        assert!(
            (plus / 300.0 - 2.0 / 3.0).abs() < 0.04 + 0.01,
            "share {}",
            plus / 300.0
        );
    }

    #[test]
    fn vertex_fixing_freezes_monotonically() {
        let g = gen::two_cliques(25, 1);
        let w = VertexWeights::unit(50);
        let cfg = GdConfig {
            iterations: 60,
            track_history: true,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition(&g, &w, &cfg, &SplitTarget::half(0.05), 3).unwrap();
        let mut prev = 0usize;
        for rec in &res.history {
            assert!(rec.fixed_vertices >= prev, "fixing must be monotone");
            prev = rec.fixed_vertices;
        }
        assert!(
            prev > 0,
            "some vertices should be fixed on an easy instance"
        );
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::empty(0);
        let w = VertexWeights::from_vectors(vec![Vec::new()]);
        // from_vectors rejects empty? unit weights of zero length:
        let res = bipartition(&g, &w, &GdConfig::default(), &SplitTarget::half(0.1), 0);
        assert!(res.is_ok());
        assert!(res.unwrap().signs.is_empty());
    }

    #[test]
    fn warm_start_preserves_frozen_vertices() {
        let g = gen::two_cliques(30, 2);
        let w = VertexWeights::vertex_edge(&g);
        let cfg = GdConfig {
            iterations: 15,
            ..GdConfig::with_epsilon(0.05)
        };
        // Start from the planted split and freeze the first clique entirely.
        let signs: Vec<i8> = (0..60).map(|v| if v < 30 { 1 } else { -1 }).collect();
        let frozen: Vec<bool> = (0..60).map(|v| v < 30).collect();
        let warm = WarmStart::from_signs(&signs, frozen);
        let res = bipartition_warm(&g, &w, &cfg, &SplitTarget::half(0.05), &warm, 1).unwrap();
        for v in 0..30 {
            assert_eq!(res.signs[v], 1, "frozen vertex {v} moved");
        }
        let (loc, imb) = quality(&g, &w, &res);
        assert!(
            loc > 0.9,
            "warm start should keep the planted split, locality {loc}"
        );
        assert!(imb <= 0.05 + 1e-9, "imbalance {imb}");
    }

    #[test]
    fn warm_start_fixes_a_perturbed_solution_in_few_iterations() {
        // Plant the optimum, flip a handful of vertices, and check that a
        // handful of warm iterations recovers it — the incremental-
        // refinement workload of mdbgp-stream.
        let g = gen::two_cliques(40, 2);
        let w = VertexWeights::vertex_edge(&g);
        let mut signs: Vec<i8> = (0..80).map(|v| if v < 40 { 1 } else { -1 }).collect();
        for v in [3usize, 17, 44, 61] {
            signs[v] = -signs[v];
        }
        let frozen = vec![false; 80];
        let warm = WarmStart::from_signs(&signs, frozen);
        let cfg = GdConfig {
            iterations: 10,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition_warm(&g, &w, &cfg, &SplitTarget::half(0.05), &warm, 2).unwrap();
        let (loc, imb) = quality(&g, &w, &res);
        let m = g.num_edges() as f64;
        assert!(
            loc >= (m - 2.0) / m - 1e-9,
            "warm GD should heal the flips, locality {loc}"
        );
        assert!(imb <= 0.05 + 1e-9);
    }

    #[test]
    fn fully_frozen_warm_start_is_identity() {
        let g = gen::two_cliques(10, 1);
        let w = VertexWeights::unit(20);
        let signs: Vec<i8> = (0..20).map(|v| if v < 10 { 1 } else { -1 }).collect();
        let warm = WarmStart::from_signs(&signs, vec![true; 20]);
        let cfg = GdConfig {
            iterations: 5,
            ..GdConfig::with_epsilon(0.1)
        };
        let res = bipartition_warm(&g, &w, &cfg, &SplitTarget::half(0.1), &warm, 3).unwrap();
        assert_eq!(res.signs, signs);
    }

    #[test]
    fn warm_start_rejects_wrong_length() {
        let g = gen::path(5);
        let w = VertexWeights::unit(5);
        let warm = WarmStart {
            x0: vec![0.0; 4],
            frozen: vec![false; 4],
            ..WarmStart::default()
        };
        let err = bipartition_warm(
            &g,
            &w,
            &GdConfig::default(),
            &SplitTarget::half(0.1),
            &warm,
            0,
        );
        assert!(matches!(err, Err(PartitionError::DimensionMismatch { .. })));
    }

    #[test]
    fn infeasible_freeze_is_released_not_fatal() {
        // Freezing everything on one side would make the balance slab
        // unreachable; those freezes must be dropped, not crash.
        let g = gen::path(10);
        let w = VertexWeights::unit(10);
        let warm = WarmStart {
            x0: vec![1.0; 10],
            frozen: vec![true; 10],
            ..WarmStart::default()
        };
        let cfg = GdConfig {
            iterations: 20,
            ..GdConfig::with_epsilon(0.1)
        };
        let res = bipartition_warm(&g, &w, &cfg, &SplitTarget::half(0.1), &warm, 4).unwrap();
        let plus = res.signs.iter().filter(|&&s| s == 1).count();
        assert!(
            (4..=6).contains(&plus),
            "balance restored, got {plus} on +1 side"
        );
    }

    #[test]
    fn recompute_cadence_is_pinned() {
        // A warm-started healing run engages the delta path; every delta
        // stretch must sit between full recomputes no more than
        // `grad_recompute_period − 1` long.
        let g = gen::two_cliques(40, 2);
        let w = VertexWeights::vertex_edge(&g);
        let mut signs: Vec<i8> = (0..80).map(|v| if v < 40 { 1 } else { -1 }).collect();
        for v in [3usize, 17, 44, 61] {
            signs[v] = -signs[v];
        }
        let warm = WarmStart::from_signs(&signs, vec![false; 80]);
        let period = 5;
        let cfg = GdConfig {
            iterations: 12,
            grad_recompute_period: period,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition_warm(&g, &w, &cfg, &SplitTarget::half(0.05), &warm, 2).unwrap();
        let s = &res.stats;
        assert!(s.full_recomputes >= 1, "iteration 0 is always full");
        assert!(
            s.delta_iterations <= s.full_recomputes * (period - 1),
            "cadence violated: {} delta evals for {} full recomputes",
            s.delta_iterations,
            s.full_recomputes
        );

        // period = 1 disables the delta path outright.
        let cfg_full = GdConfig {
            grad_recompute_period: 1,
            ..cfg.clone()
        };
        let res = bipartition_warm(&g, &w, &cfg_full, &SplitTarget::half(0.05), &warm, 2).unwrap();
        assert_eq!(res.stats.delta_iterations, 0);
        assert!(res.stats.full_recomputes >= res.stats.iterations);
    }

    #[test]
    fn settled_warm_start_drains_the_frontier() {
        // Planted optimum, nothing frozen, fixing disabled: every step is
        // clamped to a no-op, so the frontier must drain after the first
        // full evaluation instead of burning the whole budget on O(m)
        // mat-vecs (the pre-delta behaviour).
        let g = gen::two_cliques(40, 2);
        let w = VertexWeights::vertex_edge(&g);
        let signs: Vec<i8> = (0..80).map(|v| if v < 40 { 1 } else { -1 }).collect();
        let warm = WarmStart::from_signs(&signs, vec![false; 80]);
        let cfg = GdConfig {
            iterations: 50,
            fixing_threshold: None,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition_warm(&g, &w, &cfg, &SplitTarget::half(0.05), &warm, 4).unwrap();
        assert_eq!(res.stats.exit, GdExit::FrontierConverged);
        assert!(
            res.stats.iterations <= 2,
            "settled pair should exit almost immediately, ran {}",
            res.stats.iterations
        );
        assert_eq!(res.signs, signs, "the optimum must be preserved");
    }

    #[test]
    fn delta_gradient_drift_is_negligible() {
        let g = gen::two_cliques(50, 3);
        let w = VertexWeights::vertex_edge(&g);
        let mut signs: Vec<i8> = (0..100).map(|v| if v < 50 { 1 } else { -1 }).collect();
        for v in [1usize, 8, 23, 57, 72, 99] {
            signs[v] = -signs[v];
        }
        let warm = WarmStart::from_signs(&signs, vec![false; 100]);
        let cfg = GdConfig {
            iterations: 30,
            grad_check: true,
            ..GdConfig::with_epsilon(0.05)
        };
        let res = bipartition_warm(&g, &w, &cfg, &SplitTarget::half(0.05), &warm, 6).unwrap();
        assert!(
            res.stats.grad_drift_max < 1e-9,
            "delta-maintained gradient drifted by {}",
            res.stats.grad_drift_max
        );
    }

    #[test]
    fn workspace_reuse_is_behaviorally_invisible() {
        // One workspace across three different problems must reproduce
        // what fresh workspaces produce, bit for bit.
        let mut ws = GdWorkspace::new();
        let cfg = GdConfig {
            iterations: 20,
            ..GdConfig::with_epsilon(0.05)
        };
        for (size, seed) in [(30usize, 1u64), (45, 2), (25, 3)] {
            let g = gen::two_cliques(size, 2);
            let n = 2 * size;
            let w = VertexWeights::vertex_edge(&g);
            let mut signs: Vec<i8> = (0..n).map(|v| if v < size { 1 } else { -1 }).collect();
            signs[0] = -signs[0];
            signs[n - 1] = -signs[n - 1];
            let warm = WarmStart::from_signs(&signs, vec![false; n]);
            let reused =
                bipartition_warm_with(&mut ws, &g, &w, &cfg, &SplitTarget::half(0.05), &warm, seed)
                    .unwrap();
            let fresh =
                bipartition_warm(&g, &w, &cfg, &SplitTarget::half(0.05), &warm, seed).unwrap();
            assert_eq!(reused.signs, fresh.signs);
            assert_eq!(reused.x, fresh.x);
            assert_eq!(reused.stats, fresh.stats);
        }
    }

    #[test]
    fn rejects_mismatched_weights() {
        let g = gen::path(5);
        let w = VertexWeights::unit(4);
        let err = bipartition(&g, &w, &GdConfig::default(), &SplitTarget::half(0.1), 0);
        assert!(matches!(err, Err(PartitionError::DimensionMismatch { .. })));
    }

    #[test]
    fn all_projection_methods_work_end_to_end() {
        use crate::config::ProjectionMethod::*;
        let g = gen::two_cliques(20, 2);
        let w = VertexWeights::vertex_edge(&g);
        for method in [OneShotAlternating, AlternatingConverged, Dykstra, Exact] {
            let cfg = GdConfig {
                iterations: 40,
                projection: method,
                ..GdConfig::with_epsilon(0.1)
            };
            let res = bipartition(&g, &w, &cfg, &SplitTarget::half(0.1), 6).unwrap();
            let (loc, imb) = quality(&g, &w, &res);
            assert!(loc > 0.8, "{method:?}: locality {loc}");
            assert!(imb < 0.12, "{method:?}: imbalance {imb}");
        }
    }
}
