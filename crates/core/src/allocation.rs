//! Qubit allocation — the paper's Algorithm 2 and ablations.
//!
//! The primary method, [`AllocationMethod::RelaxAndRound`], is
//! Algorithm 2 per coupling component: solve the continuous relaxation
//! of P2 (convex, Prop. 1) with the Lagrangian dual solver, then
//! down-round and fill surplus capacity. Prop. 2 bounds its
//! sub-optimality by `Δ = V·F·L·log(2 − p_min)`. One declared rule
//! applies: a component in which exactly one capacity can bind is
//! allocated greedily, which is its exact integer optimum, instead of by
//! FISTA plus rounding
//! ([`qdn_solve::rounding::relax_and_round_until`]). The rule lives only
//! there, so the full-rebuild path ([`crate::problem::PerSlotContext`])
//! and the incremental evaluator's groups apply it identically.
//!
//! [`AllocationMethod::Greedy`] (pure marginal-gain increments) and
//! [`AllocationMethod::Minimal`] (one channel per edge) serve as
//! ablations; the myopic baselines use `Greedy` because their per-slot
//! budget makes greedy the natural choice.

use qdn_solve::greedy::greedy_allocate;
use qdn_solve::relaxed::RelaxedOptions;
use qdn_solve::rounding::{relax_and_round_until, IntegerAllocation};
use qdn_solve::AllocationInstance;
use serde::{Deserialize, Serialize};

/// How the per-slot allocation sub-problem is solved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AllocationMethod {
    /// Algorithm 2: continuous relaxation + down-round + surplus fill,
    /// per coupling component, with one-binding components allocated
    /// greedily (see the module docs). The relaxation is solved from
    /// λ = 0 by accelerated FISTA, which certifies the strict gap
    /// tolerance and stops early (see `qdn_solve::accel`).
    RelaxAndRound(RelaxedOptions),
    /// Greedy marginal-gain increments from the all-ones point.
    Greedy,
    /// The bare minimum: one channel per route edge.
    Minimal,
}

impl AllocationMethod {
    /// Algorithm 2 with default solver options.
    pub fn relax_and_round() -> Self {
        AllocationMethod::RelaxAndRound(RelaxedOptions::default())
    }

    /// Solves the instance, returning the flat integer allocation, or
    /// `None` if the instance itself could not be solved (never happens
    /// for instances validated by [`AllocationInstance::new`]).
    pub fn allocate(&self, instance: &AllocationInstance) -> Option<Vec<u32>> {
        self.allocate_unless(instance, |_| false)
            .unwrap_or(None)
            .map(|allocation| allocation.n)
    }

    /// [`AllocationMethod::allocate`] that gives up once `reject` fires,
    /// and reports which path ran: the result's `one_binding` counts the
    /// coupling components relax-and-round allocated greedily (always 0
    /// for `Greedy` and `Minimal`). A relax-and-round solve calls
    /// `reject(drop)` after every decrease of its certified dual bound
    /// (see [`qdn_solve::relaxed::solve_relaxed_until`] for what `drop`
    /// certifies) and returns `Err(Abandoned)`, unrounded, when it
    /// returns `true`. One-binding components run no dual iterations and
    /// never call it, nor do `Greedy` and `Minimal`.
    pub fn allocate_unless(
        &self,
        instance: &AllocationInstance,
        reject: impl FnMut(f64) -> bool,
    ) -> Result<Option<IntegerAllocation>, Abandoned> {
        let plain = |n| IntegerAllocation { n, one_binding: 0 };
        Ok(match self {
            AllocationMethod::RelaxAndRound(options) => {
                match relax_and_round_until(instance, options, reject) {
                    Ok(Some(allocation)) => Some(allocation),
                    Ok(None) => return Err(Abandoned),
                    Err(_) => None,
                }
            }
            AllocationMethod::Greedy => greedy_allocate(instance).ok().map(plain),
            AllocationMethod::Minimal => Some(plain(instance.lower_bound_point())),
        })
    }

    /// Short label for experiment outputs.
    pub fn label(&self) -> &'static str {
        match self {
            AllocationMethod::RelaxAndRound(_) => "relax+round",
            AllocationMethod::Greedy => "greedy",
            AllocationMethod::Minimal => "minimal",
        }
    }
}

/// A solve stopped by its rejection test before it finished: nothing
/// was rounded, and nothing about the instance is known beyond the
/// bound that rejected it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abandoned;

impl Default for AllocationMethod {
    fn default() -> Self {
        Self::relax_and_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdn_solve::{PackingConstraint, Variable};

    fn instance(v: f64, price: f64, cap: u32) -> AllocationInstance {
        AllocationInstance::new(
            vec![Variable::new(0.55), Variable::new(0.55)],
            vec![PackingConstraint::new(cap, vec![0, 1])],
            v,
            price,
        )
        .unwrap()
    }

    #[test]
    fn all_methods_feasible() {
        let inst = instance(1000.0, 2.0, 6);
        for method in [
            AllocationMethod::relax_and_round(),
            AllocationMethod::Greedy,
            AllocationMethod::Minimal,
        ] {
            let n = method.allocate(&inst).unwrap();
            assert!(inst.is_feasible_int(&n), "{}", method.label());
        }
    }

    #[test]
    fn minimal_is_all_ones() {
        let inst = instance(1000.0, 2.0, 6);
        assert_eq!(
            AllocationMethod::Minimal.allocate(&inst).unwrap(),
            vec![1, 1]
        );
    }

    #[test]
    fn relax_and_round_close_to_greedy_on_symmetric_instance() {
        let inst = instance(2000.0, 1.0, 8);
        let rr = AllocationMethod::relax_and_round().allocate(&inst).unwrap();
        let gr = AllocationMethod::Greedy.allocate(&inst).unwrap();
        let v_rr = inst.objective_int(&rr);
        let v_gr = inst.objective_int(&gr);
        assert!(
            (v_rr - v_gr).abs() < 1.0 + 0.01 * v_gr.abs(),
            "{v_rr} vs {v_gr}"
        );
    }

    #[test]
    fn labels_distinct() {
        let labels = [
            AllocationMethod::relax_and_round().label(),
            AllocationMethod::Greedy.label(),
            AllocationMethod::Minimal.label(),
        ];
        assert_eq!(
            labels
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    fn default_is_relax_and_round() {
        assert_eq!(AllocationMethod::default().label(), "relax+round");
    }
}
