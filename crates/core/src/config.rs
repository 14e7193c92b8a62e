//! Configuration of the GD algorithm (paper §3, §4.3).

/// Which projection algorithm implements step 3 of each GD iteration
/// (paper §3.1, Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProjectionMethod {
    /// One pass of alternating projections per iteration: project onto each
    /// balance *hyperplane* `S_j^0` (not the slab — the paper found this
    /// gives better balance) and then onto the cube. The default: cheapest,
    /// and §4.3 shows it is competitive with exact projection.
    OneShotAlternating,
    /// Alternating projections run until convergence every iteration.
    /// Guaranteed to land in `K`, but not necessarily at the projection.
    AlternatingConverged,
    /// Dykstra's algorithm: converges to the exact projection.
    Dykstra,
    /// Exact KKT projection (§2.2): enumerate constraint sign patterns and
    /// solve each equality-constrained subproblem by nested binary search
    /// (one-shot breakpoint search for the innermost dimension).
    Exact,
}

/// Step-size policy `{γ_t}` (paper §3.2, §4.3 / Figure 8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StepSchedule {
    /// Constant γ. The paper's "nonadaptive" baseline in Figure 9.
    Constant {
        /// The fixed gradient multiplier.
        gamma: f64,
    },
    /// Adaptive γ targeting a constant per-iteration progress
    /// `‖x(t+1) − x(t)‖₂ ≈ factor · √n / iterations` — `√n` is the distance
    /// from the origin to any integral solution, so `factor = 2` with 100
    /// iterations reproduces the paper's recommended `2·√n/100` step
    /// (Figure 8).
    FixedLength {
        /// Step length in units of `√n / iterations`.
        factor: f64,
    },
}

impl StepSchedule {
    /// Target Euclidean step length, or `None` for constant schedules.
    pub fn target_length(&self, n: usize, iterations: usize) -> Option<f64> {
        match *self {
            StepSchedule::Constant { .. } => None,
            StepSchedule::FixedLength { factor } => {
                Some(factor * (n as f64).sqrt() / iterations.max(1) as f64)
            }
        }
    }
}

/// Noise policy `{η_t}` (paper §2.1 step 1 and §3.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseSchedule {
    /// Standard deviation of the Gaussian added at iteration 0. The paper
    /// observes the origin is the only saddle in practice, so `η_t = 0` for
    /// `t > 0`.
    pub initial_std: f64,
    /// Std-dev for later iterations (0 reproduces the paper's setting).
    pub later_std: f64,
}

impl NoiseSchedule {
    /// Noise std-dev at iteration `t`.
    pub fn std_at(&self, t: usize) -> f64 {
        if t == 0 {
            self.initial_std
        } else {
            self.later_std
        }
    }
}

impl Default for NoiseSchedule {
    fn default() -> Self {
        // Small symmetric kick; anything non-zero escapes x = 0. Scaled
        // per-coordinate so the noise vector has length ≈ 0.01·√n, well
        // below one adaptive step.
        Self {
            initial_std: 0.01,
            later_std: 0.0,
        }
    }
}

/// Full configuration of GD.
#[derive(Clone, Debug)]
pub struct GdConfig {
    /// Allowed relative imbalance ε of Definition 2.1.
    pub epsilon: f64,
    /// Number of gradient iterations `I` (the paper fixes 100).
    pub iterations: usize,
    pub step: StepSchedule,
    pub projection: ProjectionMethod,
    pub noise: NoiseSchedule,
    /// Vertex-fixing threshold (paper §3.2): coordinates with
    /// `|x_i| ≥ threshold` are frozen to ±1 and leave the active set.
    /// `None` disables fixing (the Figure 9 ablation).
    pub fixing_threshold: Option<f64>,
    /// Randomized-rounding attempts; the most balanced rounding wins.
    /// At most [`Self::MAX_ROUNDING_ATTEMPTS`].
    pub rounding_attempts: usize,
    /// Upper bound on alternating-projection passes in the final
    /// feasibility clean-up after the gradient loop. At most
    /// [`Self::MAX_FINAL_PROJECTION_PASSES`].
    pub final_projection_passes: usize,
    /// Worker threads for the gradient mat-vec (1 = sequential). At most
    /// [`Self::MAX_THREADS`].
    pub threads: usize,
    /// Record per-iteration locality/imbalance (Figures 8–10); costs one
    /// extra O(m) scan per iteration.
    pub track_history: bool,
    /// Full mat-vec recompute cadence of the delta-maintained gradient
    /// (see [`crate::gd::bipartition_warm`]): between full recomputes the
    /// gradient is updated by propagating sparse `z[u] − z_prev[u]` diffs
    /// to neighbors, and every `grad_recompute_period` iterations (plus
    /// after any step-size retry) a full `A·z` bounds the floating-point
    /// drift. `1` disables the delta path entirely (a full mat-vec every
    /// iteration — the pre-incremental behaviour).
    pub grad_recompute_period: usize,
    /// Diagnostic: after every gradient update, recompute the full mat-vec
    /// into scratch and record the worst absolute deviation of the
    /// delta-maintained gradient in
    /// [`GdRunStats::grad_drift_max`](crate::gd::GdRunStats::grad_drift_max).
    /// Costs one extra O(m) pass per iteration — test harnesses only.
    pub grad_check: bool,
}

impl GdConfig {
    /// The largest [`Self::threads`] [`Self::validate`] accepts. Parallel
    /// sections start one scoped thread per worker chunk, so the bound
    /// keeps a corrupt configuration (say, one restored from a forged
    /// snapshot) from asking the OS for millions of threads. Far above
    /// any count this crate's benches and tests use (at most 8).
    pub const MAX_THREADS: usize = 256;

    /// The largest [`Self::rounding_attempts`] [`Self::validate`]
    /// accepts: 64× the default of 16, and above the 32 the ablation
    /// sweeps.
    pub const MAX_ROUNDING_ATTEMPTS: usize = 1024;

    /// The largest [`Self::final_projection_passes`] [`Self::validate`]
    /// accepts: 20× the default of 500. A pass costs O(n · d), so the
    /// bound keeps a corrupt budget from running for hours.
    pub const MAX_FINAL_PROJECTION_PASSES: usize = 10_000;

    /// Paper defaults: 100 iterations, step `2·√n/100`, one-shot alternating
    /// projection, noise only at `t = 0`, vertex fixing on.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.epsilon >= 0.0 && self.epsilon < 1.0) {
            return Err(format!("epsilon must be in [0, 1), got {}", self.epsilon));
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if let Some(t) = self.fixing_threshold {
            if !(0.0 < t && t <= 1.0) {
                return Err(format!("fixing threshold must be in (0, 1], got {t}"));
            }
        }
        if !(1..=Self::MAX_ROUNDING_ATTEMPTS).contains(&self.rounding_attempts) {
            return Err(format!(
                "rounding_attempts must be in 1..={}, got {}",
                Self::MAX_ROUNDING_ATTEMPTS,
                self.rounding_attempts
            ));
        }
        if self.final_projection_passes > Self::MAX_FINAL_PROJECTION_PASSES {
            return Err(format!(
                "final_projection_passes must be at most {}, got {}",
                Self::MAX_FINAL_PROJECTION_PASSES,
                self.final_projection_passes
            ));
        }
        if !(1..=Self::MAX_THREADS).contains(&self.threads) {
            return Err(format!(
                "threads must be in 1..={}, got {}",
                Self::MAX_THREADS,
                self.threads
            ));
        }
        if self.grad_recompute_period == 0 {
            return Err("grad_recompute_period must be positive".into());
        }
        if let StepSchedule::Constant { gamma } = self.step {
            if gamma <= 0.0 {
                return Err(format!("constant step gamma must be positive, got {gamma}"));
            }
        }
        Ok(())
    }
}

impl Default for GdConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.03,
            iterations: 100,
            step: StepSchedule::FixedLength { factor: 2.0 },
            projection: ProjectionMethod::OneShotAlternating,
            noise: NoiseSchedule::default(),
            fixing_threshold: Some(0.99),
            rounding_attempts: 16,
            final_projection_passes: 500,
            threads: 1,
            track_history: false,
            grad_recompute_period: 20,
            grad_check: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(GdConfig::default().validate().is_ok());
    }

    #[test]
    fn target_length_matches_paper_formula() {
        let s = StepSchedule::FixedLength { factor: 2.0 };
        let len = s.target_length(10_000, 100).unwrap();
        assert!((len - 2.0).abs() < 1e-12, "2·√10000/100 = 2, got {len}");
        assert_eq!(
            StepSchedule::Constant { gamma: 0.1 }.target_length(100, 10),
            None
        );
    }

    #[test]
    fn noise_only_at_first_iteration_by_default() {
        let n = NoiseSchedule::default();
        assert!(n.std_at(0) > 0.0);
        assert_eq!(n.std_at(1), 0.0);
        assert_eq!(n.std_at(99), 0.0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_rejects_bad_values() {
        let mut c = GdConfig::default();
        c.epsilon = 1.5;
        assert!(c.validate().is_err());
        c = GdConfig::default();
        c.iterations = 0;
        assert!(c.validate().is_err());
        c = GdConfig::default();
        c.fixing_threshold = Some(0.0);
        assert!(c.validate().is_err());
        c = GdConfig::default();
        c.step = StepSchedule::Constant { gamma: -1.0 };
        assert!(c.validate().is_err());
        c = GdConfig::default();
        c.threads = 0;
        assert!(c.validate().is_err());
        c = GdConfig::default();
        c.grad_recompute_period = 0;
        assert!(c.validate().is_err());
        // The loop budgets and the thread count are bounded above, and
        // the bounds themselves are valid.
        c = GdConfig::default();
        (c.threads, c.rounding_attempts, c.final_projection_passes) = (
            GdConfig::MAX_THREADS,
            GdConfig::MAX_ROUNDING_ATTEMPTS,
            GdConfig::MAX_FINAL_PROJECTION_PASSES,
        );
        assert!(c.validate().is_ok());
        c.threads += 1;
        assert!(c.validate().unwrap_err().contains("threads"));
        c.threads = 1;
        c.rounding_attempts += 1;
        assert!(c.validate().unwrap_err().contains("rounding_attempts"));
        c.rounding_attempts = 1;
        c.final_projection_passes = usize::MAX;
        assert!(c
            .validate()
            .unwrap_err()
            .contains("final_projection_passes"));
    }

    #[test]
    fn delta_gradient_defaults() {
        let c = GdConfig::default();
        assert_eq!(
            c.grad_recompute_period, 20,
            "the exemplar recomputes fully every 20 iterations"
        );
        assert!(!c.grad_check);
    }
}
