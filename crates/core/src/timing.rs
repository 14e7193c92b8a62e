//! Wall-clock per kernel of a pair solve.
//!
//! Each GD step is a sparse mat-vec (or its delta sweep) followed by a
//! projection onto the balance slabs, and a solve ends with a final
//! projection and randomized rounding (paper §2–3). [`KernelTimes`] is
//! the `(count, ms)` table a solve fills as it runs those kernels; the
//! streaming engine adds the problem build and records the table as
//! children of its `pairs` span. Times never feed back into a decision,
//! so a solve's result does not depend on them.

use std::time::Instant;

/// One timed kernel of a pair solve. Its span name is the variant's name
/// in snake case (`final_project`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Building the pair's reduced problem (timed by the caller).
    Build,
    /// A gradient evaluation by full mat-vec, with the test that chose it.
    Matvec,
    /// A gradient evaluation by delta sweep, with the test that chose it.
    Delta,
    /// The gradient step, its projection and any step-size retries.
    Project,
    /// Vertex fixing after a step.
    Fix,
    /// The alternating projections to convergence after the last step.
    FinalProject,
    /// The randomized rounding attempts.
    Round,
    /// Greedy balance repair of the best rounding.
    Repair,
    /// The acceptance test against the incumbent.
    Judge,
}

/// The span name of each [`Kernel`], in declaration (and solve) order.
const NAMES: [&str; 9] = [
    "build",
    "matvec",
    "delta",
    "project",
    "fix",
    "final_project",
    "round",
    "repair",
    "judge",
];

/// How often each [`Kernel`] ran and its total wall-clock in ms, over one
/// solve or the merge of several.
///
/// # Example
///
/// Every gradient evaluation of a run is billed to the kernel that
/// served it:
///
/// ```
/// use mdbgp_core::{bipartition, GdConfig, Kernel, SplitTarget};
/// use mdbgp_graph::{gen, VertexWeights};
///
/// let g = gen::two_cliques(15, 1);
/// let w = VertexWeights::vertex_edge(&g);
/// let res = bipartition(
///     &g, &w, &GdConfig::with_epsilon(0.05), &SplitTarget::half(0.05), 42,
/// ).unwrap();
/// assert_eq!(res.kernels.count(Kernel::Matvec), res.stats.full_recomputes as u64);
/// assert_eq!(res.kernels.count(Kernel::Round), 1);
/// assert_eq!(res.kernels.count(Kernel::Build), 0, "the caller times the build");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTimes([(u64, f64); NAMES.len()]);

impl KernelTimes {
    /// Bills the time since `start` to one run of `kernel`.
    pub fn record(&mut self, kernel: Kernel, start: Instant) {
        let (count, ms) = &mut self.0[kernel as usize];
        *count += 1;
        *ms += start.elapsed().as_secs_f64() * 1e3;
    }

    /// How often `kernel` ran.
    pub fn count(&self, kernel: Kernel) -> u64 {
        self.0[kernel as usize].0
    }

    /// Adds every count and time of `other`.
    pub fn merge(&mut self, other: &KernelTimes) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    /// The kernels that ran, in solve order, with their span name, count
    /// and total ms.
    pub fn ran(&self) -> impl Iterator<Item = (&'static str, u64, f64)> + '_ {
        NAMES
            .into_iter()
            .zip(self.0)
            .filter(|&(_, (count, _))| count > 0)
            .map(|(name, (count, ms))| (name, count, ms))
    }
}
