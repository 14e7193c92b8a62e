// Tight numeric loops in this crate frequently index several parallel
// arrays at once; rewriting them with zipped iterators obscures the
// kernels, so this pedantic lint is disabled crate-wide (perf lints stay).
#![allow(clippy::needless_range_loop)]

//! # mdbgp-core — the paper's `GD` algorithm
//!
//! Projected gradient descent for Multi-Dimensional Balanced Graph
//! Partitioning (Avdiukhin, Pupyrev, Yaroslavtsev — VLDB 2019, §2–3).
//!
//! For `k = 2` the problem is relaxed to maximizing `f(x) = ½ xᵀAx` over
//! `x ∈ K = B∞ ∩ ⋂_j S_j^ε`, where `A` is the adjacency matrix, `B∞` the
//! unit cube and `S_j^ε` the balance slab of weight dimension `j`. Each GD
//! iteration is
//!
//! 1. **noise** `z = x + N(0, η_t)` (only at `t = 0` in practice — the only
//!    saddle encountered is the origin, §3.2),
//! 2. **gradient ascent** `y = z + γ_t A z` (a sparse mat-vec, [`matvec`]),
//! 3. **projection** `x = argmin_{p ∈ K} ‖y − p‖₂` ([`projection`]).
//!
//! The iterate is finally rounded to ±1 by randomized rounding
//! ([`rounding`]) and `k`-way partitions are produced by recursive bisection
//! ([`recursive::GdPartitioner`], §3.3).
//!
//! The projection step — the paper's main technical contribution — comes in
//! the variants of Table 1: exact KKT-based projection (one-shot for d ≤ 2,
//! nested binary search for higher d, §2.2/App. A), one-shot and
//! fully-converged alternating projections, and Dykstra's algorithm (§3.1).

pub mod config;
pub mod feasible;
pub mod gd;
pub mod incremental;
pub mod kway;
pub mod matvec;
pub mod noise;
pub mod parallel;
pub mod projection;
pub mod recursive;
pub mod rounding;
pub mod timing;

pub use config::{GdConfig, NoiseSchedule, ProjectionMethod, StepSchedule};
pub use feasible::FeasibleRegion;
pub use gd::{
    bipartition, bipartition_warm, bipartition_warm_with, BipartitionResult, Eliminated, GdExit,
    GdRunStats, GdWorkspace, IterationRecord, SplitTarget, WarmStart, FRONTIER_TOL,
};
pub use incremental::{ActiveAdjacency, PairOutcome, PairProblem, PairRefinement, PairRound};
pub use kway::KWayGdPartitioner;
pub use recursive::GdPartitioner;
pub use timing::{Kernel, KernelTimes};
