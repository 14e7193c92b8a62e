//! Property-based tests over the core invariants of the reproduction:
//! projections land in the feasible region and are optimal for d = 1,
//! rounding preserves balance, partitions are well-formed for arbitrary
//! random graphs, and the relaxation's objective equals the cut count on
//! integral points.

use mdbgp::core::feasible::FeasibleRegion;
use mdbgp::core::projection::{exact1d, project};
use mdbgp::core::rounding;
use mdbgp::core::{GdConfig, GdPartitioner, KernelTimes, ProjectionMethod};
use mdbgp::graph::{gen, Partition, Partitioner, VertexWeights};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn region_strategy(n: usize, d: usize) -> impl Strategy<Value = (Vec<f64>, FeasibleRegion)> {
    (
        proptest::collection::vec(-3.0..3.0f64, n),
        proptest::collection::vec(proptest::collection::vec(0.3..4.0f64, n), d),
        0.005..0.2f64,
    )
        .prop_map(|(y, weights, eps)| (y, FeasibleRegion::symmetric(weights, eps)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_1d_projection_hits_targets((y, region) in region_strategy(40, 1)) {
        let w = region.weight(0).to_vec();
        let total: f64 = w.iter().sum();
        let c = 0.07 * total;
        let (x, _) = exact1d::project_equality_1d(&y, &w, c).expect("feasible");
        let s: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
        prop_assert!((s - c).abs() < 1e-6 * (1.0 + total));
        prop_assert!(x.iter().all(|&v| v.abs() <= 1.0 + 1e-12));
    }

    #[test]
    fn breakpoint_and_bisection_solvers_agree((y, region) in region_strategy(30, 1)) {
        let w = region.weight(0).to_vec();
        let total: f64 = w.iter().sum();
        for &frac in &[0.0, 0.25, -0.6] {
            let c = frac * total;
            let (xa, _) = exact1d::project_equality_1d(&y, &w, c).unwrap();
            let (xb, _) = exact1d::project_equality_1d_bisect(&y, &w, c, 200).unwrap();
            for (a, b) in xa.iter().zip(&xb) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn every_projection_method_lands_in_the_cube((y, region) in region_strategy(50, 2)) {
        for method in [
            ProjectionMethod::OneShotAlternating,
            ProjectionMethod::AlternatingConverged,
            ProjectionMethod::Dykstra,
            ProjectionMethod::Exact,
        ] {
            let x = project(method, &y, &region);
            prop_assert_eq!(x.len(), y.len());
            prop_assert!(x.iter().all(|&v| v.abs() <= 1.0 + 1e-9), "{:?}", method);
        }
    }

    #[test]
    fn convergent_methods_land_in_the_region((y, region) in region_strategy(50, 2)) {
        for method in [
            ProjectionMethod::AlternatingConverged,
            ProjectionMethod::Dykstra,
            ProjectionMethod::Exact,
        ] {
            let x = project(method, &y, &region);
            prop_assert!(
                region.max_violation(&x) < 1e-6,
                "{:?} violated by {}", method, region.max_violation(&x)
            );
        }
    }

    #[test]
    fn exact_is_weakly_closer_than_dykstra((y, region) in region_strategy(40, 2)) {
        let xe = project(ProjectionMethod::Exact, &y, &region);
        let xd = project(ProjectionMethod::Dykstra, &y, &region);
        let de: f64 = xe.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        let dd: f64 = xd.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        prop_assert!(de.sqrt() <= dd.sqrt() + 1e-5, "exact {de} vs dykstra {dd}");
    }

    #[test]
    fn rounding_repair_reaches_balance(seed in 0u64..500) {
        // Fractional zero vector, unit weights: repair must always succeed.
        let n = 400;
        let x = vec![0.0; n];
        let region = FeasibleRegion::symmetric(vec![vec![1.0; n]], 0.03);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernels = KernelTimes::default();
        let (signs, violation) = rounding::round_balanced(&x, &region, 4, &mut rng, &mut kernels);
        prop_assert_eq!(violation, 0.0);
        prop_assert_eq!(signs.len(), n);
    }

    #[test]
    fn objective_equals_uncut_minus_cut_on_integral_points(
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..120),
        signs in proptest::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], 40),
    ) {
        let g = mdbgp::graph::builder::graph_from_edges(40, &edges);
        let x: Vec<f64> = signs.iter().map(|&s| s as f64).collect();
        let f = mdbgp::core::matvec::quadratic_form(&g, &x);
        let p = Partition::from_signs(&signs);
        let cut = p.cut_edges(&g) as f64;
        let uncut = g.num_edges() as f64 - cut;
        prop_assert!((f - (uncut - cut)).abs() < 1e-9, "f={f} uncut={uncut} cut={cut}");
    }

    #[test]
    fn gd_partitions_arbitrary_er_graphs(
        n in 24usize..120,
        edge_factor in 1usize..6,
        seed in 0u64..50,
    ) {
        let m = (n * edge_factor).min(n * (n - 1) / 2);
        let g = gen::erdos_renyi(n, m, &mut StdRng::seed_from_u64(seed));
        let w = VertexWeights::vertex_edge(&g);
        let gd = GdPartitioner::new(GdConfig { iterations: 25, ..GdConfig::with_epsilon(0.2) });
        let p = gd.partition(&g, &w, 2, seed).expect("gd on ER");
        prop_assert_eq!(p.num_vertices(), n);
        prop_assert_eq!(p.num_parts(), 2);
        // ε-balance on the unit dimension, with slack for odd n and integer
        // granularity: |V1| within (1 ± ε)·n/2 ± 1 vertex.
        let sizes = p.sizes();
        let half = n as f64 / 2.0;
        prop_assert!(
            (sizes[0] as f64 - half).abs() <= 0.2 * half + 1.0,
            "sizes {:?}", sizes
        );
    }
}
