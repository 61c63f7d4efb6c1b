//! Greedy marginal-gain integer allocation.
//!
//! Starting from the all-ones point, repeatedly add one channel to the
//! variable with the largest positive marginal gain
//! `V·(ln P(n+1) − ln P(n)) − κ` that still fits its constraints. Because
//! each variable's marginal is decreasing (concavity) and capacity slack
//! only shrinks, a max-heap with one entry per variable gives an
//! `O(K log n)` implementation. Each entry carries its upper term
//! `ln P(n+1)`, which is the next gain's lower term, so a push needs one
//! new success logarithm rather than [`crate::instance::marginal_gain`]'s
//! two, with the same bits. That logarithm comes from the per-thread
//! table behind [`crate::instance::ln_success`]: a network has few
//! distinct channel probabilities and a fill climbs through small counts,
//! so most pushes are a table hit and a miss costs one `exp_m1`/`ln`
//! pair.
//!
//! Uses:
//! * the MF/MA baselines' per-slot problem (`κ = 0`, per-slot budget as an
//!   extra packing constraint): greedy is the natural myopic allocator,
//! * the surplus phase of the paper's down-rounding (Algorithm 2 step 4),
//! * relax-and-round's one-binding rule
//!   ([`crate::rounding::relax_and_round_until`]): a coupling component
//!   in which exactly one constraint can bind is a separable concave
//!   objective under one capacity, for which greedy from the lower
//!   bounds is the exact integer optimum, so it replaces FISTA plus
//!   rounding there,
//! * an ablation against relax-and-round for OSCAR itself.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::instance::{gain_from, ln_success, ln_success_from, AllocationInstance};
use crate::SolveError;

/// Max-heap entry ordered by marginal gain. The heap holds at most one
/// entry per variable, pushed at its current allocation `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    gain: f64,
    var: usize,
    /// `ln P(n + 1)`: the upper term of this gain and the lower term of
    /// the variable's next one.
    ln_next: f64,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.var.cmp(&self.var))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs greedy increments from the feasible point `start`
/// ([`greedy_allocate`] starts from all ones).
///
/// Each step adds one channel to the variable with the largest marginal
/// gain that still fits all its constraints, ties going to the lower
/// index. A variable that no longer fits drops out for good, since
/// capacity only shrinks. The fill stops when the largest remaining
/// gain is at most `gain_threshold`: `0.0` takes only strict
/// improvements, and `f64::NEG_INFINITY` fills until every variable is
/// blocked by a constraint.
///
/// # Errors
///
/// Returns [`SolveError::DimensionMismatch`] if `start` has the wrong
/// arity, and fails with the instance's own error if `start` is
/// infeasible.
pub fn greedy_fill(
    instance: &AllocationInstance,
    start: &[u32],
    gain_threshold: f64,
) -> Result<Vec<u32>, SolveError> {
    if start.len() != instance.num_vars() {
        return Err(SolveError::DimensionMismatch {
            expected: instance.num_vars(),
            got: start.len(),
        });
    }
    let mut n = start.to_vec();
    debug_assert!(
        instance.is_feasible_int(&n),
        "greedy_fill requires a feasible starting point"
    );

    let (v, kappa) = (instance.v_weight(), instance.unit_price());
    let ln_beta: Vec<f64> = instance
        .vars()
        .iter()
        .map(|var| f64::ln_1p(-var.p))
        .collect();
    // The entry for raising `j` from `nj`, given `ln P(nj)`: the terms
    // `marginal_gain` evaluates, one new transcendental pair per push.
    let entry = |j: usize, nj: u32, ln_at: f64| {
        let ln_next = ln_success_from(ln_beta[j], (nj + 1) as f64);
        HeapEntry {
            gain: gain_from(v, kappa, ln_at, ln_next),
            var: j,
            ln_next,
        }
    };
    let mut heap = BinaryHeap::with_capacity(instance.num_vars());
    for (j, (var, &nj)) in instance.vars().iter().zip(&n).enumerate() {
        heap.push(entry(j, nj, ln_success(var.p, nj as f64)));
    }

    while let Some(top) = heap.pop() {
        if top.gain <= gain_threshold {
            break; // heap max is non-improving -> done
        }
        if !instance.can_increment(top.var, &n) {
            // Capacity only shrinks; this variable is done for good.
            continue;
        }
        n[top.var] += 1;
        heap.push(entry(top.var, n[top.var], top.ln_next));
    }
    Ok(n)
}

/// Greedy allocation from the all-ones starting point, incrementing while
/// the marginal gain is strictly positive.
///
/// # Errors
///
/// Never fails for instances built through [`AllocationInstance::new`]
/// (they are feasible at all-ones by construction).
///
/// # Example
///
/// ```
/// use qdn_solve::{AllocationInstance, PackingConstraint, Variable};
/// use qdn_solve::greedy::greedy_allocate;
///
/// let inst = AllocationInstance::new(
///     vec![Variable::new(0.55); 2],
///     vec![PackingConstraint::new(6, vec![0, 1])],
///     1000.0,
///     5.0,
/// ).unwrap();
/// let n = greedy_allocate(&inst).unwrap();
/// assert!(inst.is_feasible_int(&n));
/// assert!(n.iter().all(|&v| v >= 1));
/// ```
pub fn greedy_allocate(instance: &AllocationInstance) -> Result<Vec<u32>, SolveError> {
    greedy_fill(instance, &instance.lower_bound_point(), 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_best;
    use crate::instance::{PackingConstraint, Variable};

    fn inst(ps: &[f64], cons: &[(u32, &[usize])], v: f64, price: f64) -> AllocationInstance {
        AllocationInstance::new(
            ps.iter().map(|&p| Variable::new(p)).collect(),
            cons.iter()
                .map(|&(cap, mem)| PackingConstraint::new(cap, mem.to_vec()))
                .collect(),
            v,
            price,
        )
        .unwrap()
    }

    #[test]
    fn respects_capacity() {
        let i = inst(&[0.55, 0.55], &[(4, &[0, 1])], 1000.0, 0.1);
        let n = greedy_allocate(&i).unwrap();
        assert!(i.is_feasible_int(&n));
        assert_eq!(n.iter().sum::<u32>(), 4); // tiny price: exhaust capacity
    }

    #[test]
    fn stops_at_negative_marginals() {
        // Price so large only the mandatory single channel stays.
        let i = inst(&[0.55, 0.55], &[(20, &[0, 1])], 1.0, 100.0);
        let n = greedy_allocate(&i).unwrap();
        assert_eq!(n, vec![1, 1]);
    }

    #[test]
    fn prefers_weaker_edges() {
        // Lower p has larger marginal log-gain; with symmetric capacity the
        // weaker edge should get at least as many channels.
        let i = inst(&[0.3, 0.8], &[(6, &[0, 1])], 1000.0, 1.0);
        let n = greedy_allocate(&i).unwrap();
        assert!(n[0] >= n[1], "weaker edge should get more: {n:?}");
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut optimal_hits = 0;
        const TRIALS: usize = 30;
        for trial in 0..TRIALS {
            let nv = rng.random_range(2..4usize);
            let ps: Vec<f64> = (0..nv).map(|_| rng.random_range(0.2..0.9)).collect();
            let cap = rng.random_range(nv as u32..=nv as u32 + 4);
            let i = AllocationInstance::new(
                ps.iter().map(|&p| Variable::new(p)).collect(),
                vec![PackingConstraint::new(cap, (0..nv).collect())],
                rng.random_range(50.0..500.0),
                rng.random_range(0.0..20.0),
            )
            .unwrap();
            let greedy = greedy_allocate(&i).unwrap();
            let (best, best_val) = brute_force_best(&i, 8);
            let greedy_val = i.objective_int(&greedy);
            // Greedy on a single budget-style constraint with separable
            // concave objective is optimal (matroid structure).
            assert!(
                greedy_val >= best_val - 1e-9,
                "trial {trial}: greedy {greedy_val} < brute {best_val} ({greedy:?} vs {best:?})"
            );
            if (greedy_val - best_val).abs() < 1e-9 {
                optimal_hits += 1;
            }
        }
        assert_eq!(optimal_hits, TRIALS);
    }

    #[test]
    fn greedy_fill_from_custom_start() {
        let i = inst(&[0.55, 0.55], &[(6, &[0, 1])], 1000.0, 0.1);
        let n = greedy_fill(&i, &[2, 2], 0.0).unwrap();
        assert!(i.is_feasible_int(&n));
        assert!(n[0] >= 2 && n[1] >= 2, "never decrements: {n:?}");
    }

    #[test]
    fn dimension_mismatch_detected() {
        let i = inst(&[0.5], &[], 1.0, 0.0);
        assert!(matches!(
            greedy_fill(&i, &[1, 1], 0.0),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_price_exhausts_binding_constraint() {
        let i = inst(&[0.5, 0.5, 0.5], &[(9, &[0, 1, 2])], 10.0, 0.0);
        let n = greedy_allocate(&i).unwrap();
        assert_eq!(n.iter().sum::<u32>(), 9);
    }

    #[test]
    fn multi_constraint_feasibility() {
        // Node-style overlapping constraints.
        let i = inst(
            &[0.4, 0.5, 0.6],
            &[(4, &[0, 1]), (4, &[1, 2]), (5, &[0, 2])],
            500.0,
            0.5,
        );
        let n = greedy_allocate(&i).unwrap();
        assert!(i.is_feasible_int(&n), "{n:?}");
    }
}
