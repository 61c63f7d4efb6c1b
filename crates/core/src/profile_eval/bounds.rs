//! Objective bounds: brackets on the objective a profile would evaluate
//! to, with nothing assembled or solved, so Gibbs selection can reject a
//! proposal before paying for its solve (see "Early rejection" in
//! [`crate::route_selection::gibbs`]).
//!
//! Each variable's term is `g(x) = V·ln P(x) − κ·x` at an integer `x` in
//! `[1, cap]`, with `cap` the smallest capacity of the edge and its
//! endpoints; with `V > 0`, `g` is concave, so:
//!
//! * **upper** sums each edge's largest relaxed term, at the clamped
//!   stationary point ([`argmax_edge_utility`]): the `λ = 0` dual value,
//!   which no allocation can beat;
//! * **lower** sums `min(g(1), g(cap))`, which no feasible allocation can
//!   fall below.
//!
//! Both add the profile's swap term, then a margin of
//! `1e-9·(1 + |sum|)`. With `κ ≥ 0` every term is `≤ 0`, so the rounding
//! of any summation order is relative to `|sum|` and the margin covers
//! the evaluator adding the same terms in another order. Each edge's
//! `(min, max)` is computed once per slot, on first use, and kept in the
//! recycled scratch. The bounds are `None` exactly when the evaluation
//! is: some node, edge or the slot budget cannot hold one channel per
//! route edge, or some `p ∉ (0, 1)` — the checks of
//! `RouteAssembler::finish` and `AllocationInstance::finalize`, over the
//! whole profile. The `objective_bounds_bracket_the_objective` proptest
//! checks both claims.
//!
//! **In-solve bounds.** `ProfileEvaluator::evaluate_objective_unless`
//! tightens `upper` while the evaluation's dual solves run. Each solve's
//! running dual bound is an anytime certificate (see
//! [`qdn_solve::relaxed::solve_relaxed_until`]): the work item's
//! objective is at most `D(0) − drop`. Its variables' ranges `[1, ub]`
//! lie inside the `[1, cap]` that `upper` maximises over, so `D(0)` is
//! at most the item's share of `upper`, and every other item contributes
//! at most its own share. So `f ≤ upper − drop`, and [`Screen`] hands
//! `upper − drop` plus a margin of `1e-9·(1 + |bound|)` to the caller's
//! rejection test after every decrease of the bound. Each item is
//! screened on its own drop only, so whether it is abandoned depends on
//! the item alone, not on which items were solved before it. A solve the
//! test stops is neither rounded nor memoized (`EvalStats::abandoned`
//! counts it), so the memos stay exact. Items the slack closed form or
//! the one-binding rule (invariants 4 and 2) allocate run no dual solve,
//! so the test is never called for them.

use qdn_solve::scalar::{argmax_edge_utility, edge_utility};

use super::slack::Sums;
use super::RouteData;
use crate::problem::PerSlotContext;

/// Per edge index: the `(min, max)` of one variable's objective term on
/// that edge this slot (`None` = not yet computed).
#[derive(Debug, Default)]
pub(super) struct TermRanges(Vec<Option<(f64, f64)>>);

impl TermRanges {
    /// Forgets every range: the next slot's price and capacities differ.
    pub(super) fn reset(&mut self, edges: usize) {
        self.0.clear();
        self.0.resize(edges, None);
    }
}

/// Certified `(lower, upper)` bounds on the objective of the profile
/// whose chosen routes are `routes`, by one pass over their edges:
/// `None` exactly when the evaluation is infeasible, or outside the
/// bounds' preconditions `V > 0` and `κ ≥ 0`. `budget` is the slot
/// budget and `ln_q` the log swap success when swaps are lossy.
pub(super) fn objective_bounds<'r>(
    ranges: &mut TermRanges,
    sums: &mut Sums,
    ctx: &PerSlotContext<'_>,
    budget: Option<u32>,
    ln_q: Option<f64>,
    routes: impl Iterator<Item = &'r RouteData>,
) -> Option<(f64, f64)> {
    let (v, kappa) = (ctx.v_weight, ctx.unit_price);
    if !(v > 0.0 && kappa >= 0.0) {
        return None;
    }
    sums.begin();
    let (mut lower, mut upper) = (0.0, 0.0);
    let (mut vars, mut swaps) = (0u64, 0u64);
    for route in routes {
        for ev in &route.edges {
            if !(ev.p > 0.0 && ev.p < 1.0) {
                return None;
            }
            // One channel per route edge on both endpoints and the edge.
            sums.add(ev, 0.0, 1);
            let (lo, hi) = match ranges.0[ev.edge.index()] {
                Some(b) => b,
                None => {
                    let cap = ev.cap(ctx.snapshot);
                    if cap == 0 {
                        return None;
                    }
                    let b = term_range(ev.p, v, kappa, cap);
                    ranges.0[ev.edge.index()] = Some(b);
                    b
                }
            };
            lower += lo;
            upper += hi;
        }
        vars += route.hops as u64;
        swaps += route.swaps;
    }
    let fits = budget.is_none_or(|b| vars <= u64::from(b))
        && sums.all_fit(ctx.snapshot, |sum, cap| sum.n <= u64::from(cap));
    if !fits {
        return None;
    }
    if let Some(ln_q) = ln_q {
        let swap_term = v * (swaps as f64 * ln_q);
        lower += swap_term;
        upper += swap_term;
    }
    Some((
        lower - 1e-9 * (1.0 + lower.abs()),
        upper + 1e-9 * (1.0 + upper.abs()),
    ))
}

/// The `(min, max)` of one variable's objective term
/// `g(x) = V·ln P(x) − κ·x` over `x ∈ [1, cap]`: `g` is concave, so its
/// minimum is at an end point and its maximum at the clamped stationary
/// point (the variable's `λ = 0` dual term). Needs `p ∈ (0, 1)`, `V > 0`
/// and `cap ≥ 1`.
fn term_range(p: f64, v: f64, kappa: f64, cap: u32) -> (f64, f64) {
    let cap = f64::from(cap);
    let g = |x| edge_utility(p, v, kappa, x);
    (
        g(1.0).min(g(cap)),
        g(argmax_edge_utility(p, v, kappa, 1.0, cap)),
    )
}

/// The rejection test of one screened evaluation: `reject` applied to
/// certified upper bounds on the profile's objective.
#[derive(Clone, Copy)]
pub(super) struct Screen<'r> {
    /// The profile's `λ = 0` bound, from [`objective_bounds`].
    pub(super) upper: f64,
    pub(super) reject: &'r (dyn Fn(f64) -> bool + Sync),
}

impl Screen<'_> {
    /// Whether one work item's dual bound, `drop` below its `λ = 0`
    /// value, rejects the profile: the objective is at most
    /// `upper − drop`, plus a margin of `1e-9·(1 + |bound|)` for the
    /// different summation orders.
    pub(super) fn rejects(&self, drop: f64) -> bool {
        let bound = self.upper - drop;
        (self.reject)(bound + 1e-9 * (1.0 + bound.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bound a screen hands to its rejection test errs upward: it is
    /// never below `upper − drop`, whatever order the evaluator summed
    /// the terms in.
    #[test]
    fn screen_bound_errs_upward() {
        let seen = std::sync::Mutex::new(Vec::new());
        let record = |bound: f64| {
            seen.lock().unwrap().push(bound);
            false
        };
        for (upper, drop) in [(0.0, 0.0), (-1.0, 0.5), (-5e3, 120.0), (-7.25e4, 0.0)] {
            let screen = Screen {
                upper,
                reject: &record,
            };
            assert!(!screen.rejects(drop));
            let bound = seen.lock().unwrap().pop().unwrap();
            let raw = upper - drop;
            assert!(
                bound - raw >= 0.5e-9 * (1.0 + raw.abs()),
                "{bound} vs {raw}"
            );
        }
    }
}
