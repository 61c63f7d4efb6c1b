//! Property-based tests for the optimization substrate.

use proptest::prelude::*;
use qdn_solve::brute::brute_force_best;
use qdn_solve::greedy::greedy_allocate;
use qdn_solve::relaxed::{
    bench_hooks, repair_feasibility, slack_fits, slack_point, solve_relaxed, solve_relaxed_until,
    RelaxedOptions, SlackPoint,
};
use qdn_solve::rounding::{
    relax_and_round_until, round_down_and_fill, satisfies_rounding_relation, IntegerAllocation,
};
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

/// Strategy: a 2–8-variable instance that is one coupling component: a
/// shared row over every variable with little room above the member
/// count, plus 0–3 random rows, at prices up to the tail queue values of
/// the uniform workload, so the dual loop runs many iterations.
fn arb_coupled_instance() -> impl Strategy<Value = AllocationInstance> {
    (2usize..=8).prop_flat_map(|nv| {
        let vars = proptest::collection::vec(0.05f64..0.95, nv);
        let shared = 0u32..(2 * nv as u32);
        let rows = proptest::collection::vec(
            (proptest::collection::btree_set(0..nv, 1..=nv), 0u32..6),
            0..=3,
        );
        let v_weight = 100.0f64..5000.0;
        let price = 0.0f64..400.0;
        (vars, shared, rows, v_weight, price).prop_map(move |(ps, shared, rows, v, price)| {
            let mut constraints = vec![PackingConstraint::new(
                nv as u32 + shared,
                (0..nv).collect(),
            )];
            constraints.extend(rows.into_iter().map(|(members, extra)| {
                let members: Vec<usize> = members.into_iter().collect();
                PackingConstraint::new(members.len() as u32 + extra, members)
            }));
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

/// Per-variable bound for the slack points of [`arb_slack_instance`]:
/// large enough never to bind at these prices.
const SLACK_CAP: u32 = 1 << 20;

/// Strategy: a 1–6-variable instance with route-like structure and
/// capacities placed around the slack boundary. Every variable has an
/// edge-like constraint (alone, or shared with its successor as two
/// routes sharing a link would be) and 1–3 node-like constraints cover
/// random member sets. Each capacity is `⌈Σ x⌉ + d` over its members'
/// slack points, with `d ∈ [−1, 3]` (never below the member count), so
/// cases land on both sides of [`slack_fits`].
fn arb_slack_instance() -> impl Strategy<Value = (AllocationInstance, Vec<SlackPoint>)> {
    (1usize..=6).prop_flat_map(|nv| {
        let vars = proptest::collection::vec(0.05f64..0.95, nv);
        let edges = proptest::collection::vec((proptest::bool::ANY, -1i64..=3), nv);
        let nodes = proptest::collection::vec(
            (proptest::collection::btree_set(0..nv, 1..=nv), -1i64..=3),
            1..=3,
        );
        let v_weight = 10.0f64..3000.0;
        // κ ∈ (0, 40].
        let kappa = (0.0f64..40.0).prop_map(|k| 40.0 - k);
        (vars, edges, nodes, v_weight, kappa).prop_map(move |(ps, edges, nodes, v, kappa)| {
            let points: Vec<SlackPoint> = ps
                .iter()
                .map(|&p| slack_point(p, v, kappa, SLACK_CAP).expect("κ > 0, p ∈ (0, 1)"))
                .collect();
            let around = |members: Vec<usize>, d: i64| {
                let sum: f64 = members.iter().map(|&j| points[j].x).sum();
                let cap = (sum.ceil() as i64 + d).max(members.len() as i64);
                PackingConstraint::new(cap as u32, members)
            };
            let mut constraints: Vec<PackingConstraint> = edges
                .iter()
                .enumerate()
                .map(|(j, &(shared, d))| {
                    let members = if shared && j + 1 < nv {
                        vec![j, j + 1]
                    } else {
                        vec![j]
                    };
                    around(members, d)
                })
                .collect();
            constraints.extend(
                nodes
                    .into_iter()
                    .map(|(members, d)| around(members.into_iter().collect(), d)),
            );
            let inst = AllocationInstance::new(
                ps.into_iter().map(Variable::new).collect(),
                constraints,
                v,
                kappa,
            )
            .expect("capacities at least the member count");
            (inst, points)
        })
    })
}

/// Success probabilities the one-bindable strategy draws from in its
/// tied cases: variables that share a `p` have equal marginal gains.
const TIED_P: [f64; 4] = [0.3, 0.45, 0.55, 0.7];

/// Strategy: a 1–4-variable instance shaped for the one-binding rule of
/// [`relax_and_round_until`]. In half the cases every `p` comes from
/// [`TIED_P`], to force near-ties. Each variable has its own capacity,
/// 0–2 above the larger of its slack point's `⌈x⌉` and `n`; one shared
/// constraint over every variable has a capacity between the member
/// count and `Σ n + 1`. Prices run from 2% to 30% of `V`, which keeps
/// every slack point small enough for [`brute_force_best`].
fn arb_one_bindable_instance() -> impl Strategy<Value = AllocationInstance> {
    (1usize..=4).prop_flat_map(|nv| {
        let tied = proptest::bool::ANY;
        let ps = proptest::collection::vec((0usize..TIED_P.len(), 0.2f64..0.9), nv);
        let own = proptest::collection::vec(0u32..3, nv);
        let v_weight = 100.0f64..3000.0;
        let ratio = 0.02f64..0.3;
        let shared = 0.0f64..1.0;
        (tied, ps, own, v_weight, ratio, shared).prop_map(
            move |(tied, ps, own, v, ratio, shared)| {
                let ps: Vec<f64> = ps
                    .into_iter()
                    .map(|(k, p)| if tied { TIED_P[k] } else { p })
                    .collect();
                let kappa = ratio * v;
                let points: Vec<SlackPoint> = ps
                    .iter()
                    .map(|&p| slack_point(p, v, kappa, SLACK_CAP).expect("κ > 0, p ∈ (0, 1)"))
                    .collect();
                let mut constraints: Vec<PackingConstraint> = points
                    .iter()
                    .zip(&own)
                    .enumerate()
                    .map(|(j, (sp, &extra))| {
                        PackingConstraint::new((sp.x.ceil() as u32).max(sp.n) + extra, vec![j])
                    })
                    .collect();
                let sum_n: u32 = points.iter().map(|sp| sp.n).sum();
                let lo = nv as u32;
                let cap = lo + ((f64::from(sum_n + 2 - lo)) * shared) as u32;
                constraints.push(PackingConstraint::new(cap, (0..nv).collect()));
                AllocationInstance::new(
                    ps.into_iter().map(Variable::new).collect(),
                    constraints,
                    v,
                    kappa,
                )
                .expect("capacities at least the member count")
            },
        )
    })
}

/// Strategy: 2–5 variables under 2–4 constraints of random members at
/// most 2 above their member count — small enough that two or more of
/// them usually bind. Returns the success probabilities and the
/// constraints, so a test can price the group like another instance.
fn arb_tight_group() -> impl Strategy<Value = (Vec<f64>, Vec<PackingConstraint>)> {
    (2usize..=5).prop_flat_map(|nv| {
        let ps = proptest::collection::vec(0.2f64..0.9, nv);
        let rows = proptest::collection::vec(
            (proptest::collection::btree_set(0..nv, 1..=nv), 0u32..3),
            2..=4,
        );
        (ps, rows).prop_map(|(ps, rows)| {
            let constraints = rows
                .into_iter()
                .map(|(members, extra)| {
                    let members: Vec<usize> = members.into_iter().collect();
                    PackingConstraint::new(members.len() as u32 + extra, members)
                })
                .collect();
            (ps, constraints)
        })
    })
}

/// Every constraint of `inst`, as a [`PackingConstraint`] whose members
/// are shifted by `offset`.
fn shifted_constraints(inst: &AllocationInstance, offset: usize) -> Vec<PackingConstraint> {
    (0..inst.num_constraints())
        .map(|c| {
            let members = inst.members(c).iter().map(|&j| j as usize + offset);
            PackingConstraint::new(inst.capacity(c), members.collect())
        })
        .collect()
}

/// Per coupling component of `inst`: how many of its constraints fail
/// [`slack_fits`] at their members' slack points, each variable's `cap`
/// being the smallest capacity among its constraints; `None` when some
/// variable has no slack point.
fn failing_per_component(inst: &AllocationInstance) -> Vec<Option<usize>> {
    let partition = inst.components();
    let (v, kappa) = (inst.v_weight(), inst.unit_price());
    partition
        .vars
        .iter()
        .zip(&partition.constraints)
        .map(|(vars, constraints)| {
            let mut points = vec![SlackPoint { x: 0.0, n: 0 }; inst.num_vars()];
            for &j in vars {
                let cap = inst
                    .membership(j)
                    .iter()
                    .map(|&c| inst.capacity(c as usize))
                    .min()
                    .unwrap_or(u32::MAX);
                points[j] = slack_point(inst.vars()[j].p, v, kappa, cap)?;
            }
            let fails = |&c: &usize| {
                let members = inst.members(c);
                let sum_x: f64 = members.iter().map(|&j| points[j as usize].x).sum();
                let sum_n: u64 = members
                    .iter()
                    .map(|&j| u64::from(points[j as usize].n))
                    .sum();
                !slack_fits(sum_x, sum_n, inst.capacity(c))
            };
            Some(constraints.iter().filter(|c| fails(c)).count())
        })
        .collect()
}

/// [`relax_and_round_until`] with a hook that never fires.
fn relax_and_round(inst: &AllocationInstance) -> IntegerAllocation {
    relax_and_round_until(inst, &RelaxedOptions::default(), |_| false)
        .unwrap()
        .expect("a stop hook that never fires never abandons")
}

/// FISTA plus rounding on the whole instance, with no one-binding rule.
fn fista_and_round(inst: &AllocationInstance) -> Vec<u32> {
    let relaxed = solve_relaxed(inst, &RelaxedOptions::default()).unwrap();
    round_down_and_fill(inst, &relaxed.x).unwrap()
}

/// Checks [`relax_and_round_until`] component by component against its
/// two paths: [`greedy_allocate`] on each component with exactly one
/// failing constraint, FISTA plus rounding's bits on every other one.
fn assert_paths_per_component(inst: &AllocationInstance) -> Result<(), TestCaseError> {
    let got = relax_and_round(inst);
    let reference = fista_and_round(inst);
    let partition = inst.components();
    let failing = failing_per_component(inst);
    let mut one_binding = 0;
    for ((vars, constraints), fails) in partition
        .vars
        .iter()
        .zip(&partition.constraints)
        .zip(failing)
    {
        let n: Vec<u32> = vars.iter().map(|&j| got.n[j]).collect();
        if fails == Some(1) {
            one_binding += 1;
            let sub = inst.sub_instance(vars, constraints).unwrap();
            prop_assert_eq!(n, greedy_allocate(&sub).unwrap());
        } else {
            let want: Vec<u32> = vars.iter().map(|&j| reference[j]).collect();
            prop_assert_eq!(n, want, "{:?} failing constraints", fails);
        }
    }
    prop_assert_eq!(got.one_binding, one_binding);
    Ok(())
}

/// Greedy from all ones, step by step: raise the variable with the
/// largest [`AllocationInstance::marginal_gain`] (lowest index on ties)
/// while that gain is positive, dropping a variable for good once
/// [`AllocationInstance::can_increment`] refuses it. The reference
/// `greedy_allocate`'s heap must reproduce.
fn reference_greedy(inst: &AllocationInstance) -> Vec<u32> {
    let mut n = inst.lower_bound_point();
    let mut dropped = vec![false; n.len()];
    loop {
        let mut best: Option<(f64, usize)> = None;
        for j in (0..n.len()).filter(|&j| !dropped[j]) {
            let gain = inst.marginal_gain(j, n[j]);
            if best.is_none_or(|(top, _)| gain > top) {
                best = Some((gain, j));
            }
        }
        match best {
            Some((gain, j)) if gain > 0.0 => {
                if inst.can_increment(j, &n) {
                    n[j] += 1;
                } else {
                    dropped[j] = true;
                }
            }
            _ => return n,
        }
    }
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

    /// The heap-based greedy makes the reference loop's choices, bit for
    /// bit, on random and on tightly coupled instances.
    #[test]
    fn greedy_matches_reference_loop(inst in arb_instance(), coupled in arb_coupled_instance()) {
        prop_assert_eq!(greedy_allocate(&inst).unwrap(), reference_greedy(&inst));
        prop_assert_eq!(greedy_allocate(&coupled).unwrap(), reference_greedy(&coupled));
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
}

proptest! {
    // About a third of the cases land on the slack side of the check.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On instances where every constraint passes the slack check, the
    /// relaxed solver and its rounding reproduce the per-variable slack
    /// points bit for bit, certified at the first dual iteration.
    #[test]
    fn slack_closed_form_is_exact((inst, points) in arb_slack_instance()) {
        let slack = (0..inst.num_constraints()).all(|c| {
            let members = inst.members(c);
            let sum_x: f64 = members.iter().map(|&j| points[j as usize].x).sum();
            let sum_n: u64 = members.iter().map(|&j| u64::from(points[j as usize].n)).sum();
            slack_fits(sum_x, sum_n, inst.capacity(c))
        });
        prop_assume!(slack);
        let s = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
        let x_bits: Vec<u64> = s.x.iter().map(|x| x.to_bits()).collect();
        let want_bits: Vec<u64> = points.iter().map(|sp| sp.x.to_bits()).collect();
        prop_assert_eq!(x_bits, want_bits);
        prop_assert_eq!(s.iterations, 1);
        let n = round_down_and_fill(&inst, &s.x).unwrap();
        let want_n: Vec<u32> = points.iter().map(|sp| sp.n).collect();
        prop_assert_eq!(n, want_n);
    }
}

proptest! {
    /// The running dual bound is an anytime certificate. On coupled
    /// instances every bound `D(0) − drop` handed to the stop hook is at
    /// least the objective of the rounded full solve and the relaxed
    /// incumbent (weak duality, up to the screen's `1e-9` margin), the
    /// bounds never increase, and the
    /// last one is the solve's `dual_bound`. A hook that never fires
    /// leaves `solve_relaxed`'s bits unchanged, and a hook that fires
    /// abandons the solve at that call.
    #[test]
    fn stop_hook_sees_certified_non_increasing_bounds(inst in arb_coupled_instance()) {
        let opts = RelaxedOptions::default();
        let full = solve_relaxed(&inst, &opts).unwrap();
        let rounded = inst.objective_int(&round_down_and_fill(&inst, &full.x).unwrap());
        let (n, m) = (inst.num_vars(), inst.num_constraints());
        let d0 = bench_hooks::dual_value_at(
            &inst,
            &bench_hooks::cache(&inst),
            &vec![0.0; m],
            &mut vec![0.0; n],
            &mut vec![0.0; n],
        );

        let mut drops = Vec::new();
        let watched = solve_relaxed_until(&inst, &opts, |drop| {
            drops.push(drop);
            false
        })
        .unwrap();
        // `Debug` prints each f64 exactly, so equal strings are equal bits.
        prop_assert_eq!(format!("{:?}", Some(&full)), format!("{:?}", watched.as_ref()));
        for pair in drops.windows(2) {
            prop_assert!(pair[0] <= pair[1], "bound rose: drops {:?}", pair);
        }
        for &drop in &drops {
            prop_assert!(drop >= 0.0);
            let bound = d0 - drop;
            prop_assert!(
                bound + 1e-9 * (1.0 + bound.abs()) >= rounded,
                "bound {bound} below the rounded objective {rounded}"
            );
            // Sharper: the relaxed incumbent, a feasible point of the
            // relaxation, is within the solve's certified gap of its
            // optimum, so a bound from an infeasible λ shows up here.
            prop_assert!(
                bound + 1e-9 * (1.0 + bound.abs()) >= full.primal_value,
                "bound {bound} below the relaxed incumbent {}",
                full.primal_value
            );
        }
        if let Some(&last) = drops.last() {
            let bound = d0 - last;
            prop_assert!((bound - full.dual_bound).abs() <= 1e-9 * (1.0 + bound.abs()));

            let fire_at = drops.len() / 2;
            let mut calls = 0;
            let stopped = solve_relaxed_until(&inst, &opts, |_| {
                calls += 1;
                calls > fire_at
            })
            .unwrap();
            prop_assert!(stopped.is_none());
            prop_assert_eq!(calls, fire_at + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On a one-bindable instance the one-binding rule reaches the exact
    /// integer optimum, so it scores at least what FISTA plus rounding
    /// scores.
    #[test]
    fn one_binding_rule_is_exact(inst in arb_one_bindable_instance()) {
        prop_assume!(failing_per_component(&inst) == [Some(1)]);
        let got = relax_and_round(&inst);
        prop_assert_eq!(got.one_binding, 1);
        prop_assert!(inst.is_feasible_int(&got.n));
        let value = inst.objective_int(&got.n);
        let (best, opt) = brute_force_best(&inst, u32::MAX);
        let tol = 1e-9 * (1.0 + opt.abs());
        prop_assert!(
            (value - opt).abs() <= tol,
            "rule {value} ({:?}) against the optimum {opt} ({best:?})", got.n
        );
        let rounded = inst.objective_int(&fista_and_round(&inst));
        prop_assert!(
            value >= rounded - 1e-9 * (1.0 + rounded.abs()),
            "rule {value} below FISTA plus rounding {rounded}"
        );
    }

    /// A one-bindable group and an unrelated group in which two or more
    /// constraints bind, solved as one instance, get bit for bit the
    /// allocations each gets alone.
    #[test]
    fn joint_instance_matches_groups_solved_alone(
        one in arb_one_bindable_instance(),
        (ps, constraints) in arb_tight_group(),
    ) {
        let (v, kappa) = (one.v_weight(), one.unit_price());
        let tight = AllocationInstance::new(
            ps.iter().copied().map(Variable::new).collect(),
            constraints,
            v,
            kappa,
        )
        .unwrap();
        prop_assume!(failing_per_component(&one) == [Some(1)]);
        prop_assume!(failing_per_component(&tight).iter().all(|f| f.is_none_or(|k| k >= 2)));
        let offset = one.num_vars();
        let joint = AllocationInstance::new(
            one.vars().iter().chain(tight.vars()).copied().collect(),
            shifted_constraints(&one, 0)
                .into_iter()
                .chain(shifted_constraints(&tight, offset))
                .collect(),
            v,
            kappa,
        )
        .unwrap();
        let (alone_one, alone_tight) = (relax_and_round(&one), relax_and_round(&tight));
        let got = relax_and_round(&joint);
        prop_assert_eq!(&got.n[..offset], &alone_one.n[..]);
        prop_assert_eq!(&got.n[offset..], &alone_tight.n[..]);
        prop_assert_eq!(got.one_binding, 1);
        prop_assert_eq!(alone_tight.one_binding, 0);
    }
}

proptest! {
    // Components land on every side of the rule: slack, one failing
    // constraint, several.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Component by component, the rule's entry point is greedy where
    /// exactly one constraint fails the slack check and FISTA plus
    /// rounding, bit for bit, everywhere else.
    #[test]
    fn other_components_keep_fista_and_round_bits(
        (slack, _) in arb_slack_instance(),
        random in arb_instance(),
    ) {
        assert_paths_per_component(&slack)?;
        assert_paths_per_component(&random)?;
    }
}
