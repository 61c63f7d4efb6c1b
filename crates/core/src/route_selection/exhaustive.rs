//! Exact route selection by product-space enumeration (paper Eq. 13).
//!
//! "We perform an exhaustive search on all possible route combinations
//! for the SD pairs in Φ and select the combination with the highest
//! per-slot objective value by applying the qubit allocation algorithm."
//! Effective when `R^F` is small; the general case uses Gibbs sampling.
//!
//! Enumeration runs on the incremental
//! [`ProfileEvaluator`], which suits the odometer
//! walk perfectly: each increment changes a single pair, so only that
//! pair's coupling component is re-solved, and every component's
//! combination is solved at most once over the whole product space.

use crate::allocation::AllocationMethod;
use crate::problem::PerSlotContext;
use crate::profile_eval::{EvalOptions, ProfileEvaluator};
use crate::route_selection::{Candidates, Selection};

/// Enumerates every route combination and returns the best feasible one.
///
/// Returns `None` when *no* combination is feasible under this slot's
/// capacities (the caller then drops requests).
pub fn search(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    options: EvalOptions,
) -> Option<Selection> {
    let mut evaluator = ProfileEvaluator::new(ctx, candidates, method, options);
    search_with(&mut evaluator, candidates)
}

/// [`search`] over a caller-provided evaluator — the session-threaded
/// entry point ([`crate::route_selection::RouteSelector::select_in`]
/// builds the evaluator from its [`crate::profile_eval::SelectorSession`]
/// so the arena persists across slots).
pub fn search_with(
    evaluator: &mut ProfileEvaluator<'_>,
    candidates: &[Candidates<'_>],
) -> Option<Selection> {
    let mut indices = vec![0usize; candidates.len()];
    let mut best: Option<(Vec<usize>, f64)> = None;
    loop {
        if let Some(objective) = evaluator.evaluate_objective(&indices) {
            if best.as_ref().is_none_or(|(_, b)| objective > *b) {
                best = Some((indices.clone(), objective));
            }
        }
        // Odometer increment over the mixed-radix index vector.
        let mut pos = 0;
        loop {
            if pos == candidates.len() {
                let (indices, _) = best?;
                let evaluation = evaluator
                    .evaluate(&indices)
                    .expect("best profile was feasible when recorded");
                return Some(Selection {
                    indices,
                    evaluation,
                });
            }
            indices[pos] += 1;
            if indices[pos] < candidates[pos].routes.len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_selection::evaluate_indices;
    use qdn_graph::{NodeId, Path};
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_net::routes::{CandidateRoutes, RouteLimits};
    use qdn_net::{CapacitySnapshot, QdnNetwork, SdPair};
    use qdn_physics::link::LinkModel;

    /// 6-cycle: two disjoint routes between opposite corners.
    fn cycle6() -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.add_node(8)).collect();
        let l = LinkModel::new(0.5).unwrap();
        for i in 0..6 {
            b.add_edge(n[i], n[(i + 1) % 6], 4, l).unwrap();
        }
        b.build()
    }

    fn candidates_of(net: &QdnNetwork, pairs: &[SdPair]) -> Vec<(SdPair, Vec<Path>)> {
        let mut cr = CandidateRoutes::new(RouteLimits {
            max_routes: 3,
            max_hops: 6,
        });
        pairs
            .iter()
            .map(|&p| (p, cr.routes(net, p).to_vec()))
            .collect()
    }

    #[test]
    fn enumerates_full_space() {
        let net = cycle6();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 300.0, 0.5);
        let pairs = vec![
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(1), NodeId(4)).unwrap(),
        ];
        let owned = candidates_of(&net, &pairs);
        let cands: Vec<Candidates> = owned
            .iter()
            .map(|(pair, routes)| Candidates {
                pair: *pair,
                routes,
            })
            .collect();
        let best = search(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default(),
        )
        .unwrap();

        // Verify optimality against a manual scan.
        let mut manual_best = f64::NEG_INFINITY;
        for i in 0..cands[0].routes.len() {
            for j in 0..cands[1].routes.len() {
                if let Some(ev) =
                    evaluate_indices(&ctx, &cands, &[i, j], &AllocationMethod::default())
                {
                    manual_best = manual_best.max(ev.objective);
                }
            }
        }
        assert!((best.evaluation.objective - manual_best).abs() < 1e-9);
    }

    #[test]
    fn infeasible_everywhere_returns_none() {
        let net = cycle6();
        // Zero out all channel capacity.
        let snap = CapacitySnapshot::clamped(&net, vec![8; 6], vec![0; 6]);
        let ctx = PerSlotContext::oscar(&net, &snap, 300.0, 0.5);
        let pairs = vec![SdPair::new(NodeId(0), NodeId(3)).unwrap()];
        let owned = candidates_of(&net, &pairs);
        let cands: Vec<Candidates> = owned
            .iter()
            .map(|(pair, routes)| Candidates {
                pair: *pair,
                routes,
            })
            .collect();
        assert!(search(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default()
        )
        .is_none());
    }
}
