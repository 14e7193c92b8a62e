//! Equivalence harness for the delta-maintained gradient.
//!
//! The GD hot path keeps `∇f = A·z` current by propagating sparse
//! `z − z_prev` diffs instead of recomputing the full mat-vec every
//! iteration (see `docs/ARCHITECTURE.md`). [`GdConfig::grad_check`] runs
//! the full mat-vec *alongside* every evaluation and records the worst
//! absolute deviation in [`GdRunStats::grad_drift_max`] — these
//! properties pin that deviation below `1e-9` across warm-started
//! `refine_pair` runs on randomized mixed-churn states (drifted weights,
//! cross-assigned vertices, random frozen masks), and pin workspace reuse
//! as behaviorally invisible. The recompute cadence itself is unit-tested
//! next to the loop (`gd::tests::recompute_cadence_is_pinned`).
//!
//! A pair solve keeps only the movable vertices as variables and
//! eliminates the rest of the pair (a constant gradient bias plus fixed
//! slab mass); the last property checks that reduced problem against the
//! whole pair — gradient rows, fixed mass, cut delta and accept decision.

use mdbgp_core::matvec::matvec;
use mdbgp_core::{GdConfig, GdPartitioner, GdWorkspace, PairOutcome, PairProblem};
use mdbgp_graph::{gen, Graph, Partition, VertexWeights};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A randomized "post-batch" refinement state: a planted two-community
/// graph whose assignment has been churned (`flips` vertices on the wrong
/// side), with jittered weights standing in for weight drift and a random
/// subset of vertices frozen (as the streaming engine freezes everything
/// far from the update).
struct ChurnedPair {
    graph: mdbgp_graph::Graph,
    weights: VertexWeights,
    partition: Partition,
    frozen: Vec<bool>,
}

fn churned_pair(seed: u64, half: usize, flips: usize, frozen_frac: f64) -> ChurnedPair {
    let graph = gen::two_cliques(half, 3);
    let n = 2 * half;
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = VertexWeights::from_vectors(vec![
        vec![1.0; n],
        (0..n).map(|_| rng.gen_range(0.5..1.5)).collect(),
    ]);
    let mut parts: Vec<u32> = (0..n).map(|v| u32::from(v >= half)).collect();
    for _ in 0..flips {
        let v = rng.gen_range(0..n);
        parts[v] ^= 1;
    }
    let frozen = (0..n).map(|_| rng.gen_bool(frozen_frac)).collect();
    ChurnedPair {
        graph,
        weights,
        partition: Partition::new(parts, 2),
        frozen,
    }
}

/// Cut edges of a ±1 assignment of the whole pair (both parts of these
/// two-part states, so the whole graph).
fn pair_cut(graph: &Graph, signs: &[i8]) -> usize {
    graph
        .edges()
        .filter(|&(u, v)| signs[u as usize] != signs[v as usize])
        .count()
}

/// The acceptance rule evaluated on the whole pair, the way a solve over
/// every pair vertex would: `(cut delta, outcome)` of moving from
/// `before` to `after`.
fn whole_pair_verdict(
    s: &ChurnedPair,
    epsilon: f64,
    before: &[i8],
    after: &[i8],
) -> (i64, PairOutcome) {
    let (cut_before, cut_after) = (pair_cut(&s.graph, before), pair_cut(&s.graph, after));
    let k = s.partition.num_parts() as f64;
    let excess = |signs: &[i8], j: usize| {
        let total = s.weights.total(j);
        let headroom = 2.0 * ((1.0 + epsilon) * total / k) - total;
        let dot: f64 = s
            .weights
            .dim(j)
            .iter()
            .zip(signs)
            .map(|(w, &x)| w * x as f64)
            .sum();
        (dot.abs() - headroom) / total
    };
    let regressed =
        (0..s.weights.dims()).any(|j| excess(after, j) > excess(before, j).max(0.0) + 1e-12);
    let outcome = if cut_after > cut_before {
        PairOutcome::RejectedCut
    } else if regressed {
        PairOutcome::RejectedBalance
    } else {
        PairOutcome::Applied
    };
    (cut_after as i64 - cut_before as i64, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The maintained gradient never drifts measurably from a full
    /// recompute, whatever mix of churn, drift and freezing the stream
    /// throws at a pair.
    #[test]
    fn delta_gradient_matches_full_matvec(
        seed in 0u64..10_000,
        half in 30usize..70,
        flips in 1usize..10,
        frozen_frac in 0.0f64..0.8,
    ) {
        let s = churned_pair(seed, half, flips, frozen_frac);
        let cfg = GdConfig {
            iterations: 30,
            grad_check: true,
            ..GdConfig::with_epsilon(0.05)
        };
        let gd = GdPartitioner::new(cfg);
        let r = gd
            .refine_pair(&s.graph, &s.weights, &s.partition, (0, 1), &s.frozen, seed)
            .unwrap();
        prop_assert!(
            r.gd.grad_drift_max <= 1e-9,
            "delta gradient drifted {} from the full mat-vec",
            r.gd.grad_drift_max
        );
        if r.gd.iterations > 0 {
            prop_assert!(r.gd.full_recomputes >= 1, "iteration 0 must be full");
        }
        prop_assert!(r.cut_after <= r.cut_before, "refine_pair never regresses the cut");
    }

    /// Reusing a dirty [`GdWorkspace`] across solves is invisible: the
    /// second run over the same state reproduces the first bit-for-bit.
    #[test]
    fn workspace_reuse_is_invisible(
        seed in 0u64..10_000,
        half in 30usize..60,
        flips in 1usize..8,
    ) {
        let s = churned_pair(seed, half, flips, 0.3);
        let cfg = GdConfig {
            iterations: 25,
            grad_check: true,
            ..GdConfig::with_epsilon(0.05)
        };
        let gd = GdPartitioner::new(cfg);
        let mut ws = GdWorkspace::new();
        let first = gd
            .refine_pair_with(&mut ws, &s.graph, &s.weights, &s.partition, (0, 1), &s.frozen, seed)
            .unwrap();
        // Same inputs through the now-dirty workspace.
        let second = gd
            .refine_pair_with(&mut ws, &s.graph, &s.weights, &s.partition, (0, 1), &s.frozen, seed)
            .unwrap();
        prop_assert_eq!(&first.moves, &second.moves);
        prop_assert_eq!(first.cut_after, second.cut_after);
        prop_assert_eq!(first.outcome, second.outcome);
        prop_assert_eq!(first.gd, second.gd);
        prop_assert!(second.gd.grad_drift_max <= 1e-9);
    }

    /// The reduced pair problem — frozen vertices read as "not movable"
    /// and eliminated — stands for the whole pair exactly: its first full
    /// gradient on the movable vertices equals the whole-pair `A·z` rows,
    /// its fixed mass is the eliminated vertices' sum, and its accept
    /// decision and cut delta equal the whole pair's `pair_cut` before and
    /// after, for the solve's own result and for random candidates.
    #[test]
    fn reduced_pair_matches_the_whole_pair(
        seed in 0u64..10_000,
        half in 30usize..70,
        flips in 1usize..10,
        frozen_frac in 0.0f64..0.8,
    ) {
        const EPS: f64 = 0.05;
        let s = churned_pair(seed, half, flips, frozen_frac);
        let n = s.graph.num_vertices();
        let signs: Vec<i8> = (0..n as u32)
            .map(|v| if s.partition.part_of(v) == 0 { 1 } else { -1 })
            .collect();
        let problem = PairProblem::from_mask(&s.graph, &s.weights, &s.partition, (0, 1), &s.frozen);
        let movable: Vec<u32> = (0..n as u32).filter(|&v| !s.frozen[v as usize]).collect();
        prop_assert_eq!(problem.vertices(), movable.as_slice());
        let elim = &problem.warm().eliminated;
        prop_assert_eq!(elim.count, n - movable.len());

        // First full gradient: local mat-vec at the warm start plus bias,
        // against the whole-pair rows of A·z.
        let z: Vec<f64> = signs.iter().map(|&x| x as f64).collect();
        let mut whole = vec![0.0; n];
        matvec(&s.graph, &z, &mut whole);
        let mut reduced = vec![0.0; movable.len()];
        matvec(problem.graph(), &problem.warm().x0, &mut reduced);
        for (i, &v) in movable.iter().enumerate() {
            let bias = elim.bias.get(i).copied().unwrap_or(0.0);
            prop_assert!(
                (reduced[i] + bias - whole[v as usize]).abs() <= 1e-9,
                "gradient row of {} differs: {} + {} vs {}", v, reduced[i], bias, whole[v as usize]
            );
        }

        // Fixed mass: the eliminated vertices' signed and total weight.
        for j in 0..s.weights.dims() {
            let (mut dot, mut mass) = (0.0, 0.0);
            for v in (0..n).filter(|&v| s.frozen[v]) {
                dot += s.weights.weight(j, v as u32) * signs[v] as f64;
                mass += s.weights.weight(j, v as u32);
            }
            let tol = 1e-9 * s.weights.total(j);
            prop_assert!((elim.dot.get(j).copied().unwrap_or(0.0) - dot).abs() <= tol);
            prop_assert!((elim.weight.get(j).copied().unwrap_or(0.0) - mass).abs() <= tol);
        }

        // The solve: its recorded first gradient norm is the whole-pair
        // rows' norm, and an applied result is one the whole pair accepts.
        let cfg = GdConfig { iterations: 30, grad_check: true, ..GdConfig::with_epsilon(EPS) };
        let r = GdPartitioner::new(cfg)
            .solve_pair(&mut GdWorkspace::new(), &problem, seed)
            .unwrap();
        if let Some(&first) = r.gd.grad_norms.first() {
            let norm = movable.iter().map(|&v| whole[v as usize].powi(2)).sum::<f64>().sqrt();
            prop_assert!((first - norm).abs() <= 1e-9 * norm.max(1.0), "{} vs {}", first, norm);
        }
        prop_assert!(r.gd.grad_drift_max <= 1e-9);
        let mut after = signs.clone();
        for &(v, part) in &r.moves {
            prop_assert!(!s.frozen[v as usize], "eliminated vertex {} moved", v);
            after[v as usize] = if part == 0 { 1 } else { -1 };
        }
        if r.outcome == PairOutcome::Applied {
            let (delta, outcome) = whole_pair_verdict(&s, EPS, &signs, &after);
            prop_assert_eq!(outcome, PairOutcome::Applied);
            prop_assert_eq!(r.cut_after as i64 - r.cut_before as i64, delta);
        }

        // Candidates through the acceptance rule on both sides: random
        // flips (mostly cut regressions) alternate with healing subsets
        // that send misplaced vertices back to their planted side (cut
        // improvements, so the balance verdict decides).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for round in 0..8 {
            let mut candidate = problem.signs().to_vec();
            let mut whole_after = signs.clone();
            for (i, &v) in movable.iter().enumerate() {
                let planted = if (v as usize) < half { 1 } else { -1 };
                let flip = if round % 2 == 0 {
                    rng.gen_bool(0.1)
                } else {
                    candidate[i] != planted && rng.gen_bool(0.7)
                };
                if flip {
                    candidate[i] = -candidate[i];
                    whole_after[v as usize] = candidate[i];
                }
            }
            let (before, after, outcome) = problem.judge(EPS, &candidate);
            let (delta, whole_outcome) = whole_pair_verdict(&s, EPS, &signs, &whole_after);
            prop_assert_eq!(outcome, whole_outcome);
            prop_assert_eq!(after as i64 - before as i64, delta);
        }
    }
}
