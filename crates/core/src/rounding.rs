//! Randomized rounding of the fractional solution (paper §2, §2.1 step 7–9).
//!
//! Each vertex goes to part `V_1` independently with probability
//! `(x_i + 1)/2`; the expected objective equals the fractional objective and
//! the balance constraints hold with high probability by concentration. We
//! harden the "with high probability" part for small instances by taking the
//! most balanced of several attempts and then running a greedy repair pass
//! that flips the most-fractional vertices toward feasibility (this never
//! changes the expectation argument — it only tightens balance).

use crate::feasible::FeasibleRegion;
use crate::timing::{Kernel, KernelTimes};
use rand::Rng;
use std::time::Instant;

/// Randomized rounding: `P[sign_i = +1] = (x_i + 1)/2`.
pub fn round_once<R: Rng>(x: &[f64], rng: &mut R) -> Vec<i8> {
    x.iter()
        .map(|&xi| {
            let p = (xi + 1.0) * 0.5;
            if rng.gen::<f64>() < p {
                1
            } else {
                -1
            }
        })
        .collect()
}

/// Maximum normalized slab violation of an integral assignment.
pub fn violation_of(signs: &[i8], region: &FeasibleRegion) -> f64 {
    let x: Vec<f64> = signs.iter().map(|&s| s as f64).collect();
    region.max_violation(&x)
}

/// Full rounding pipeline: the first feasible of at most `attempts`
/// randomized roundings, else the least violating one followed by greedy
/// repair. Returns the signs and their final violation (0.0 means every
/// balance constraint holds). The attempts are billed to
/// [`Kernel::Round`] in `kernels`, a repair to [`Kernel::Repair`].
pub fn round_balanced<R: Rng>(
    x: &[f64],
    region: &FeasibleRegion,
    attempts: usize,
    rng: &mut R,
    kernels: &mut KernelTimes,
) -> (Vec<i8>, f64) {
    assert!(attempts > 0);
    let start = Instant::now();
    let mut best: Option<(f64, Vec<i8>)> = None;
    for _ in 0..attempts {
        let signs = round_once(x, rng);
        let v = violation_of(&signs, region);
        if best.as_ref().is_none_or(|(bv, _)| v < *bv) {
            best = Some((v, signs));
        }
        if v == 0.0 {
            break;
        }
    }
    kernels.record(Kernel::Round, start);
    let (v, mut signs) = best.unwrap();
    if v == 0.0 {
        return (signs, 0.0);
    }
    let start = Instant::now();
    let v = repair(&mut signs, x, region);
    kernels.record(Kernel::Repair, start);
    (signs, v)
}

/// Greedy repair: while some slab is violated, flip the vertex that (a) has
/// the sign that reduces the worst violation, (b) is as fractional as
/// possible (small `|x_i|`, so flipping it costs the least objective), and
/// (c) strictly reduces the worst normalized violation. Returns the final
/// violation.
pub fn repair(signs: &mut [i8], x: &[f64], region: &FeasibleRegion) -> f64 {
    let n = signs.len();
    let d = region.dims();
    // Current slab sums.
    let mut dots: Vec<f64> = (0..d)
        .map(|j| {
            region
                .weight(j)
                .iter()
                .zip(signs.iter())
                .map(|(w, &s)| w * s as f64)
                .sum()
        })
        .collect();
    // Vertices ordered by fractionality (most fractional first).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        x[a as usize]
            .abs()
            .partial_cmp(&x[b as usize].abs())
            .unwrap()
    });

    let worst = |dots: &[f64]| -> (f64, usize) {
        let mut w = (0.0f64, 0usize);
        for j in 0..d {
            let excess = if dots[j] > region.upper(j) {
                dots[j] - region.upper(j)
            } else if dots[j] < region.lower(j) {
                dots[j] - region.lower(j)
            } else {
                0.0
            };
            let norm = excess.abs() / region.total(j).max(1.0);
            if norm > w.0 {
                w = (norm, j);
            }
        }
        w
    };

    let max_flips = 4 * n + 16;
    for _ in 0..max_flips {
        let (violation, j_star) = worst(&dots);
        if violation == 0.0 {
            return 0.0;
        }
        // Push dots[j_star] back toward its slab: flipping a vertex with
        // sign s changes dot_j by −2·w_j(i)·s.
        let excess = if dots[j_star] > region.upper(j_star) {
            dots[j_star] - region.upper(j_star)
        } else {
            dots[j_star] - region.lower(j_star)
        };
        let needed_sign: i8 = if excess > 0.0 { 1 } else { -1 };
        // First candidate (most fractional) that strictly improves.
        let mut flipped = false;
        for &i in &order {
            let i = i as usize;
            if signs[i] != needed_sign {
                continue;
            }
            let mut new_dots = dots.clone();
            for (j, nd) in new_dots.iter_mut().enumerate() {
                *nd -= 2.0 * region.weight(j)[i] * signs[i] as f64;
            }
            if worst(&new_dots).0 < violation - 1e-15 {
                signs[i] = -signs[i];
                dots = new_dots;
                flipped = true;
                break;
            }
        }
        if !flipped {
            return violation; // no single flip helps; give up
        }
    }
    worst(&dots).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit_region(n: usize, eps: f64) -> FeasibleRegion {
        FeasibleRegion::symmetric(vec![vec![1.0; n]], eps)
    }

    #[test]
    fn integral_input_rounds_to_itself() {
        let x = vec![1.0, -1.0, 1.0, -1.0];
        let mut rng = StdRng::seed_from_u64(0);
        let signs = round_once(&x, &mut rng);
        assert_eq!(signs, vec![1, -1, 1, -1]);
    }

    #[test]
    fn probabilities_match_fractional_values() {
        let x = vec![0.5; 40_000];
        let mut rng = StdRng::seed_from_u64(3);
        let signs = round_once(&x, &mut rng);
        let plus = signs.iter().filter(|&&s| s == 1).count() as f64 / 40_000.0;
        assert!(
            (plus - 0.75).abs() < 0.01,
            "P[+1] = (0.5+1)/2 = 0.75, got {plus}"
        );
    }

    #[test]
    fn round_balanced_achieves_feasibility_on_balanced_fraction() {
        let n = 2000;
        let x = vec![0.0; n];
        let region = unit_region(n, 0.05);
        let mut rng = StdRng::seed_from_u64(5);
        let (signs, v) = round_balanced(&x, &region, 8, &mut rng, &mut KernelTimes::default());
        assert_eq!(v, 0.0, "ε = 5% over 2000 vertices must be satisfiable");
        assert_eq!(signs.len(), n);
    }

    #[test]
    fn repair_fixes_adversarial_rounding() {
        // All +1 start, region demands near-perfect balance.
        let n = 100;
        let x = vec![0.0; n];
        let region = unit_region(n, 0.02);
        let mut signs = vec![1i8; n];
        let v = repair(&mut signs, &x, &region);
        assert_eq!(v, 0.0, "repair must reach balance");
        let plus = signs.iter().filter(|&&s| s == 1).count();
        assert!((49..=51).contains(&plus), "plus = {plus}");
    }

    #[test]
    fn repair_prefers_fractional_vertices() {
        // Vertices 0..4 are fractional, the rest integral; the region
        // forces one flip, which must come from the fractional set.
        let mut x = vec![0.0; 10];
        for i in 5..10 {
            x[i] = 1.0;
        }
        let region = unit_region(10, 0.21); // slab [-2.1, 2.1]
        let mut signs = vec![1i8, 1, 1, 1, -1, 1, 1, 1, 1, 1]; // sum 8
        repair(&mut signs, &x, &region);
        for i in 5..10 {
            assert_eq!(
                signs[i], 1,
                "integral vertex {i} must not flip before fractional ones"
            );
        }
    }

    #[test]
    fn multi_dim_repair() {
        let n = 200;
        let w1 = vec![1.0; n];
        let w2: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let region = FeasibleRegion::symmetric(vec![w1, w2], 0.05);
        let x = vec![0.0; n];
        let mut rng = StdRng::seed_from_u64(11);
        let (_, v) = round_balanced(&x, &region, 4, &mut rng, &mut KernelTimes::default());
        assert!(v < 0.01, "violation {v}");
    }

    #[test]
    fn violation_of_detects_imbalance() {
        let region = unit_region(4, 0.0);
        assert!(violation_of(&[1, 1, 1, 1], &region) > 0.9);
        assert_eq!(violation_of(&[1, 1, -1, -1], &region), 0.0);
    }
}
