//! Property-based tests for the optimization substrate.

use proptest::prelude::*;
use qdn_solve::brute::brute_force_best;
use qdn_solve::greedy::greedy_allocate;
use qdn_solve::relaxed::{repair_feasibility, solve_relaxed, solve_relaxed_warm, RelaxedOptions};
use qdn_solve::rounding::{round_down_and_fill, satisfies_rounding_relation};
use qdn_solve::{AllocationInstance, PackingConstraint, Variable};

/// Strategy: a feasible random instance with 1..5 variables and 1..4
/// overlapping packing constraints.
fn arb_instance() -> impl Strategy<Value = AllocationInstance> {
    (1usize..5).prop_flat_map(|nv| {
        let vars = proptest::collection::vec(0.05f64..0.95, nv);
        let cons = proptest::collection::vec(
            (
                proptest::collection::btree_set(0..nv, 1..=nv),
                0u32..8, // extra capacity above the member count
            ),
            1..4,
        );
        let v_weight = 1.0f64..5000.0;
        let price = 0.0f64..100.0;
        (vars, cons, v_weight, price).prop_map(|(ps, cons, v, price)| {
            let constraints = cons
                .into_iter()
                .map(|(members, extra)| {
                    let members: Vec<usize> = members.into_iter().collect();
                    PackingConstraint::new(members.len() as u32 + extra, members)
                })
                .collect();
            AllocationInstance::new(
                ps.into_iter().map(Variable::new).collect(),
                constraints,
                v,
                price,
            )
            .expect("constructed feasible at all-ones")
        })
    })
}

/// Strategy: a 1–2-variable instance in which every variable has its own
/// capacity constraint (so its feasible range is bounded and a grid can
/// cover it), optionally coupled by one shared constraint.
fn arb_tiny_instance() -> impl Strategy<Value = AllocationInstance> {
    (1usize..=2).prop_flat_map(|nv| {
        let vars = proptest::collection::vec(0.05f64..0.95, nv);
        let own = proptest::collection::vec(0u32..8, nv);
        let shared = proptest::collection::vec(0u32..8, 0..=1);
        let v_weight = 1.0f64..5000.0;
        let price = 0.0f64..100.0;
        (vars, own, shared, v_weight, price).prop_map(move |(ps, own, shared, v, price)| {
            let mut constraints: Vec<PackingConstraint> = own
                .iter()
                .enumerate()
                .map(|(j, &extra)| PackingConstraint::new(1 + extra, vec![j]))
                .collect();
            for extra in shared {
                constraints.push(PackingConstraint::new(nv as u32 + extra, (0..nv).collect()));
            }
            AllocationInstance::new(
                ps.into_iter().map(Variable::new).collect(),
                constraints,
                v,
                price,
            )
            .expect("constructed feasible at all-ones")
        })
    })
}

/// Largest feasible value of variable `j` when every other variable sits
/// at `x[k]`.
fn max_feasible(inst: &AllocationInstance, x: &[f64], j: usize) -> f64 {
    let mut hi = f64::from(inst.upper_bound(j));
    for c in 0..inst.num_constraints() {
        let members = inst.members(c);
        if members.contains(&(j as u32)) {
            let others: f64 = members
                .iter()
                .filter(|&&k| k as usize != j)
                .map(|&k| x[k as usize])
                .sum();
            hi = hi.min(f64::from(inst.capacity(c)) - others);
        }
    }
    hi
}

/// The best objective over an exhaustive grid of feasible points:
/// `steps + 1` evenly spaced values of the first variable, and for each
/// of them `steps + 1` values of the second spanning its feasible range
/// (both endpoints included, so the binding boundary is sampled too).
fn fine_grid_optimum(inst: &AllocationInstance, steps: usize) -> f64 {
    let lerp = |hi: f64, k: usize| 1.0 + (hi - 1.0) * k as f64 / steps as f64;
    let n = inst.num_vars();
    let hi0 = max_feasible(inst, &[1.0, 1.0][..n], 0);
    let mut best = f64::NEG_INFINITY;
    for a in 0..=steps {
        let mut x = vec![lerp(hi0, a); n];
        if n == 1 {
            best = best.max(inst.objective(&x));
            continue;
        }
        let hi1 = max_feasible(inst, &x, 1);
        for b in 0..=steps {
            x[1] = lerp(hi1, b);
            best = best.max(inst.objective(&x));
        }
    }
    best
}

proptest! {
    /// The relaxed solver always returns a feasible point whose value is
    /// at most the dual bound.
    #[test]
    fn relaxed_feasible_and_bounded(inst in arb_instance()) {
        let s = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
        prop_assert!(inst.is_feasible_real(&s.x, 1e-6));
        prop_assert!(s.primal_value <= s.dual_bound + 1e-6 * (1.0 + s.dual_bound.abs()));
    }

    /// Rounding preserves feasibility and the Eq. 8 relation, and the
    /// integer solution is no better than the relaxed one.
    #[test]
    fn rounding_sound(inst in arb_instance()) {
        let s = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
        let n = round_down_and_fill(&inst, &s.x).unwrap();
        prop_assert!(inst.is_feasible_int(&n));
        prop_assert!(satisfies_rounding_relation(&s.x, &n));
        // Relaxation dominates any integer point.
        prop_assert!(inst.objective_int(&n) <= s.dual_bound + 1e-4 * (1.0 + s.dual_bound.abs()));
    }

    /// Greedy always returns a feasible point at least as good as
    /// all-ones.
    #[test]
    fn greedy_feasible_and_improving(inst in arb_instance()) {
        let n = greedy_allocate(&inst).unwrap();
        prop_assert!(inst.is_feasible_int(&n));
        let base = inst.objective_int(&inst.lower_bound_point());
        prop_assert!(inst.objective_int(&n) >= base - 1e-9);
    }

    /// Both integer allocators stay within the Prop. 2 gap
    /// Δ = V · (#vars) · ln(2 − p_min) of the exact optimum on small
    /// instances.
    #[test]
    fn integer_allocators_within_delta(inst in arb_instance()) {
        let (_, opt) = brute_force_best(&inst, 6);
        let p_min = inst.vars().iter().map(|v| v.p).fold(1.0, f64::min);
        let delta = inst.v_weight() * inst.num_vars() as f64 * (2.0 - p_min).ln();

        let s = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
        let rounded = round_down_and_fill(&inst, &s.x).unwrap();
        prop_assert!(opt - inst.objective_int(&rounded) <= delta + 1e-6,
            "relax+round gap {} > delta {delta}", opt - inst.objective_int(&rounded));

        let greedy = greedy_allocate(&inst).unwrap();
        prop_assert!(opt - inst.objective_int(&greedy) <= delta + 1e-6,
            "greedy gap {} > delta {delta}", opt - inst.objective_int(&greedy));
    }

    /// Feasibility repair maps arbitrary points above the lower bound into
    /// the feasible region without dropping below 1.
    #[test]
    fn repair_always_feasible(inst in arb_instance(), scale in 1.0f64..20.0) {
        let wild: Vec<f64> = (0..inst.num_vars()).map(|j| 1.0 + scale * (j as f64 + 1.0)).collect();
        let fixed = repair_feasibility(&inst, &wild);
        prop_assert!(inst.is_feasible_real(&fixed, 1e-9));
        prop_assert!(fixed.iter().all(|&v| v >= 1.0 - 1e-12));
    }

    /// `converged == true` is a *certificate*: the reported relative
    /// duality gap is at most `gap_tolerance`.
    #[test]
    fn converged_implies_certified_gap(inst in arb_instance()) {
        let opts = RelaxedOptions::default();
        let s = solve_relaxed(&inst, &opts).unwrap();
        if s.converged {
            prop_assert!(
                s.relative_gap() <= opts.gap_tolerance + 1e-12,
                "claims convergence at relative gap {} > tolerance {}",
                s.relative_gap(), opts.gap_tolerance
            );
        }
        // Either way the bounds must bracket: primal ≤ dual (+ fp slack).
        prop_assert!(s.primal_value <= s.dual_bound + 1e-6 * (1.0 + s.dual_bound.abs()));
    }

    /// An independent check on the solver: on 1–2-variable instances the
    /// certified bounds must bracket an exhaustive fine-grid optimum.
    /// Every grid point is feasible, so `dual_bound` is at least the grid
    /// optimum; and the solver's primal point lies within its certified
    /// gap of it (up to the grid's resolution).
    #[test]
    fn beats_fine_grid_on_two_var_instance(inst in arb_tiny_instance()) {
        let opts = RelaxedOptions::default();
        let s = solve_relaxed(&inst, &opts).unwrap();
        let grid = fine_grid_optimum(&inst, 400);
        let fp = 1e-9 * (1.0 + grid.abs());
        let resolution = 1e-3 * (1.0 + grid.abs());
        prop_assert!(
            s.converged && s.relative_gap() <= opts.gap_tolerance,
            "gap {} after {}", s.relative_gap(), s.iterations
        );
        prop_assert!(inst.is_feasible_real(&s.x, 1e-9));
        prop_assert!(
            s.dual_bound >= grid - fp,
            "dual bound {} below grid optimum {grid}", s.dual_bound
        );
        prop_assert!(
            s.primal_value >= grid - s.gap() - fp && s.primal_value <= grid + resolution,
            "primal {} not within gap {} of grid optimum {grid}", s.primal_value, s.gap()
        );
    }

    /// Warm-started solves agree with the cold solve within the solver
    /// tolerance: both primal values lie within their duality gaps of the
    /// common relaxed optimum, so they differ by at most the larger gap.
    /// The warm seed is a perturbed copy of the cold λ — the "neighboring
    /// profile" shape the profile evaluator's store produces.
    #[test]
    fn warm_vs_cold_objective_agreement(
        inst in arb_instance(),
        perturb in 0.5f64..2.0,
        offset in 0.0f64..5.0,
    ) {
        let opts = RelaxedOptions::default();
        let cold = solve_relaxed(&inst, &opts).unwrap();
        let seed: Vec<f64> = cold.lambda.iter().map(|&l| l * perturb + offset).collect();
        let warm = solve_relaxed_warm(&inst, &opts, Some(&seed)).unwrap();

        // Same guarantees as the cold solve.
        prop_assert!(inst.is_feasible_real(&warm.x, 1e-6));
        prop_assert!(warm.primal_value <= warm.dual_bound + 1e-6 * (1.0 + warm.dual_bound.abs()));

        // Objective agreement within solver tolerance. The gap itself is
        // bounded by the relative tolerance when the solve converged; use
        // the measured gaps (plus slack) as the yardstick either way.
        let tol = cold.gap().abs().max(warm.gap().abs()) + 1e-9 * (1.0 + cold.primal_value.abs());
        prop_assert!(
            (warm.primal_value - cold.primal_value).abs() <= tol,
            "warm {} vs cold {} (tol {tol}, converged warm={} cold={})",
            warm.primal_value, cold.primal_value, warm.converged, cold.converged
        );
    }
}
