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
//! slab mass); a property checks that reduced problem against the whole
//! pair — gradient rows, fixed mass, absolute cuts, cut delta and accept
//! decision. Both the problem and the pair ranking come from one gather
//! of the movable vertices' adjacency ([`ActiveAdjacency`]); the last two
//! properties check that gather and its ranking against brute force, on
//! one thread and on three.

use mdbgp_core::matvec::matvec;
use mdbgp_core::{ActiveAdjacency, GdConfig, GdPartitioner, GdWorkspace, PairOutcome, PairProblem};
use mdbgp_graph::{gen, Graph, Partition, VertexId, VertexWeights};
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

/// Cut edges of a ±1 assignment of the whole pair with at least one
/// movable endpoint — every edge a pair solve can change.
fn movable_cut(s: &ChurnedPair, signs: &[i8]) -> usize {
    s.graph
        .edges()
        .filter(|&(u, v)| !s.frozen[u as usize] || !s.frozen[v as usize])
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

/// A random graph with a random `k`-part partition and a random active
/// set (ascending), each vertex active with probability `active_frac`.
fn random_active_state(
    seed: u64,
    n: usize,
    avg_degree: usize,
    k: usize,
    active_frac: f64,
) -> (Graph, Partition, Vec<VertexId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = gen::erdos_renyi(n, n * avg_degree / 2, &mut rng);
    let partition = Partition::new((0..n).map(|_| rng.gen_range(0..k as u32)).collect(), k);
    let active = (0..n as VertexId)
        .filter(|_| rng.gen_bool(active_frac))
        .collect();
    (graph, partition, active)
}

/// Checks a gather of `active` against brute force: each row against a
/// classification of the vertex's neighbours (active ones as ascending
/// active indices, inactive ones counted per part), the entry count
/// against the summed degrees, and the whole ranking against an O(m)
/// count of the cut edges with an active endpoint.
fn check_gather(
    graph: &Graph,
    partition: &Partition,
    active: &[VertexId],
    adjacency: &ActiveAdjacency,
) {
    let k = partition.num_parts();
    let mut index = vec![ActiveAdjacency::INACTIVE; graph.num_vertices()];
    for (i, &a) in active.iter().enumerate() {
        index[a as usize] = i as u32;
    }
    assert_eq!(adjacency.vertices(), active);
    let mut entries = 0usize;
    for (i, &a) in active.iter().enumerate() {
        let mut row = Vec::new();
        let mut counts = vec![0u32; k];
        for &u in graph.neighbors(a) {
            match index[u as usize] {
                ActiveAdjacency::INACTIVE => counts[partition.part_of(u) as usize] += 1,
                j => row.push(j),
            }
        }
        row.sort_unstable();
        let inactive: Vec<(u32, u32)> = (0..k as u32)
            .map(|p| (p, counts[p as usize]))
            .filter(|&(_, c)| c > 0)
            .collect();
        assert_eq!(adjacency.active_row(i), row, "active row of {a}");
        assert_eq!(adjacency.inactive_row(i), inactive, "inactive row of {a}");
        entries += graph.degree(a);
    }
    assert_eq!(adjacency.entries(), entries);

    let mut cut = std::collections::BTreeMap::new();
    for (u, v) in graph.edges() {
        let (pu, pv) = (partition.part_of(u), partition.part_of(v));
        let touches = index[u as usize] != ActiveAdjacency::INACTIVE
            || index[v as usize] != ActiveAdjacency::INACTIVE;
        if touches && pu != pv {
            *cut.entry((pu.min(pv), pu.max(pv))).or_insert(0usize) += 1;
        }
    }
    let mut ranked: Vec<((u32, u32), usize)> = cut.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let expected: Vec<(u32, u32)> = ranked.into_iter().map(|(pq, _)| pq).collect();
    assert_eq!(adjacency.rank_pairs(usize::MAX), expected.clone());
    for max_pairs in 0..expected.len() {
        assert_eq!(adjacency.rank_pairs(max_pairs), &expected[..max_pairs]);
    }
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
    /// its fixed mass is the eliminated vertices' sum, its cuts before and
    /// after are the cut pair edges with a movable endpoint, and its
    /// accept decision and cut delta equal the whole pair's `pair_cut`
    /// before and after — for the solve's own result and for candidates
    /// that flip random vertices, misplaced vertices, a vertex with all its
    /// movable neighbours (so both ends of those edges flip), or every
    /// movable vertex.
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
        if r.gd.iterations > 0 {
            let first = r.gd.first_grad_norm;
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
        // improvements, so the balance verdict decides); then a vertex
        // flipped with all its movable neighbours, and every movable
        // vertex flipped.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let position = |v: u32| movable.binary_search(&v).ok();
        for round in 0..12 {
            let mut flip = vec![false; movable.len()];
            match round {
                0..=7 => {
                    for (i, &v) in movable.iter().enumerate() {
                        let planted = if (v as usize) < half { 1 } else { -1 };
                        flip[i] = if round % 2 == 0 {
                            rng.gen_bool(0.1)
                        } else {
                            problem.signs()[i] != planted && rng.gen_bool(0.7)
                        };
                    }
                }
                8..=10 if !movable.is_empty() => {
                    let v = movable[rng.gen_range(0..movable.len())];
                    for u in std::iter::once(v).chain(s.graph.neighbors(v).iter().copied()) {
                        if let Some(i) = position(u) {
                            flip[i] = true;
                        }
                    }
                }
                _ => flip.fill(true),
            }
            let mut candidate = problem.signs().to_vec();
            let mut whole_after = signs.clone();
            for (i, &v) in movable.iter().enumerate() {
                if flip[i] {
                    candidate[i] = -candidate[i];
                    whole_after[v as usize] = candidate[i];
                }
            }
            let (before, after, outcome) = problem.judge(EPS, &candidate);
            prop_assert_eq!(before, movable_cut(&s, &signs), "incumbent cut");
            prop_assert_eq!(after, movable_cut(&s, &whole_after), "candidate cut");
            let (delta, whole_outcome) = whole_pair_verdict(&s, EPS, &signs, &whole_after);
            prop_assert_eq!(outcome, whole_outcome);
            prop_assert_eq!(after as i64 - before as i64, delta);
        }
    }

    /// One gather of the active set's adjacency holds exactly what brute
    /// force finds ([`check_gather`]), and every ranked pair's problem
    /// built from it has the whole graph's local edges, biases and
    /// incumbent cut.
    #[test]
    fn active_adjacency_matches_brute_force(
        seed in 0u64..10_000,
        n in 50usize..3_000,
        avg_degree in 1usize..12,
        k in 2usize..7,
        active_frac in 0.05f64..1.0,
        max_pairs in 1usize..10,
    ) {
        let (graph, partition, active) = random_active_state(seed, n, avg_degree, k, active_frac);
        let adjacency = ActiveAdjacency::of_graph(&graph, &partition, &active);
        check_gather(&graph, &partition, &active, &adjacency);
        let mut mask = vec![false; n];
        active.iter().for_each(|&a| mask[a as usize] = true);
        prop_assert_eq!(
            GdPartitioner::rank_pairs_by_active_cut(&graph, &partition, &mask, max_pairs),
            adjacency.rank_pairs(max_pairs)
        );

        // Each ranked pair's problem, round by round, against the graph.
        let weights = VertexWeights::unit(n);
        let size = |p: u32| (0..n as VertexId).filter(|&v| partition.part_of(v) == p).count();
        let pairs = adjacency.rank_pairs(max_pairs);
        for round in GdPartitioner::plan_disjoint_rounds(&pairs) {
            let split = adjacency.round(&round, |v| partition.part_of(v));
            for (r, &(p, q)) in round.iter().enumerate() {
                let in_pair = |v: VertexId| [p, q].contains(&partition.part_of(v));
                let members: Vec<VertexId> =
                    active.iter().copied().filter(|&v| in_pair(v)).collect();
                let (size_p, size_q) = (size(p), size(q));
                let problem = adjacency.pair_problem(
                    &split,
                    r,
                    &weights,
                    [&[size_p as f64], &[size_q as f64]],
                    size_p + size_q,
                    &[n as f64],
                );
                prop_assert_eq!(problem.vertices(), members.as_slice());
                let bias = &problem.warm().eliminated.bias;
                for (i, &v) in members.iter().enumerate() {
                    let local: Vec<u32> = graph
                        .neighbors(v)
                        .iter()
                        .filter_map(|u| members.binary_search(u).ok().map(|x| x as u32))
                        .collect();
                    prop_assert_eq!(problem.graph().neighbors(i as u32), local.as_slice());
                    let eliminated: f64 = graph
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| in_pair(u) && members.binary_search(&u).is_err())
                        .map(|&u| if partition.part_of(u) == p { 1.0 } else { -1.0 })
                        .sum();
                    prop_assert_eq!(bias.get(i).copied().unwrap_or(0.0), eliminated);
                }
                let is_member = |v: VertexId| members.binary_search(&v).is_ok();
                let incumbent = graph
                    .edges()
                    .filter(|&(u, v)| in_pair(u) && in_pair(v) && (is_member(u) || is_member(v)))
                    .filter(|&(u, v)| partition.part_of(u) != partition.part_of(v))
                    .count();
                prop_assert_eq!(problem.judge(0.05, problem.signs()).0, incumbent);
            }
        }
    }

    /// With threads the gather splits active sets of 4096 vertices or more
    /// into ranges; over neighbour lists reversed (so every row needs its
    /// sort) it still matches brute force, and equals the serial gather.
    #[test]
    fn threaded_active_adjacency_matches_brute_force(
        seed in 0u64..10_000,
        n in 5_000usize..10_000,
        avg_degree in 1usize..12,
        k in 2usize..7,
        active_frac in 0.9f64..1.0,
    ) {
        let (graph, partition, active) = random_active_state(seed, n, avg_degree, k, active_frac);
        prop_assert!(active.len() >= 4096);
        let mut index = vec![ActiveAdjacency::INACTIVE; n];
        for (i, &a) in active.iter().enumerate() {
            index[a as usize] = i as u32;
        }
        let mut threaded = ActiveAdjacency::default();
        threaded.gather(
            k,
            &active,
            |u| index[u as usize],
            |u| partition.part_of(u),
            |u| graph.neighbors(u).iter().rev().copied(),
            3,
        );
        check_gather(&graph, &partition, &active, &threaded);
        prop_assert_eq!(&threaded, &ActiveAdjacency::of_graph(&graph, &partition, &active));
    }
}
