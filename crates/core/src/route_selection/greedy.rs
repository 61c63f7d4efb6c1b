//! Coordinate best-response route selection (the γ→0 limit of Gibbs).
//!
//! Rounds of "for each pair, switch to its best route holding the others
//! fixed" until a full round changes nothing. The paper's remark 1 notes
//! that this pure greedy can get stuck in local optima — which is exactly
//! why Algorithm 3 keeps a positive temperature; this implementation
//! exists as the natural ablation.
//!
//! Coordinate steps evaluate through the incremental
//! [`ProfileEvaluator`]: sweeping pair `i`'s alternatives re-solves only
//! `i`'s coupling component, and the sweep's return to the incumbent
//! profile is a memo hit.

use rand::RngExt;

use crate::allocation::AllocationMethod;
use crate::problem::PerSlotContext;
use crate::profile_eval::{EvalOptions, ProfileEvaluator, SelectorSession};
use crate::route_selection::{Candidates, Selection};

/// Local search over route profiles.
///
/// Starts from a random feasible profile (falling back to all-shortest),
/// then iterates best-response rounds. Returns `None` if no feasible
/// starting profile exists.
pub fn local_search(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    max_rounds: usize,
    options: EvalOptions,
    rng: &mut dyn rand::Rng,
) -> Option<Selection> {
    let mut evaluator = ProfileEvaluator::new(ctx, candidates, method, options);
    local_search_with(&mut evaluator, candidates, max_rounds, rng, None)
}

/// [`local_search`] backed by a [`SelectorSession`]: the evaluator
/// recycles the session state, and with
/// [`EvalOptions::warm_profile_seed`] set the search starts from the
/// previous slot's selection when the session remembers one (falling
/// back to the standard random/all-shortest initialisation). With warm
/// seeding off this is bit-identical to [`local_search`].
pub fn local_search_in(
    session: &mut SelectorSession,
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    max_rounds: usize,
    options: EvalOptions,
    rng: &mut dyn rand::Rng,
) -> Option<Selection> {
    let seed = options
        .warm_profile_seed
        .then(|| session.seed_indices(candidates))
        .flatten();
    let mut evaluator = ProfileEvaluator::new_in(session, ctx, candidates, method, options);
    let selection = local_search_with(&mut evaluator, candidates, max_rounds, rng, seed.as_deref());
    evaluator.retire(session);
    selection
}

/// The coordinate best-response loop over a caller-provided evaluator
/// and optional warm starting profile.
fn local_search_with(
    evaluator: &mut ProfileEvaluator<'_>,
    candidates: &[Candidates<'_>],
    max_rounds: usize,
    rng: &mut dyn rand::Rng,
    seed: Option<&[usize]>,
) -> Option<Selection> {
    let k = candidates.len();
    if k == 0 {
        return evaluator.evaluate(&[]).map(|evaluation| Selection {
            indices: Vec::new(),
            evaluation,
        });
    }

    // Initial profile: the warm seed when given and feasible, then
    // random, then shortest fallback.
    let mut current: Option<(Vec<usize>, f64)> = None;
    if let Some(seed) = seed {
        debug_assert_eq!(seed.len(), k);
        if let Some(objective) = evaluator.evaluate_objective(seed) {
            current = Some((seed.to_vec(), objective));
        }
    }
    if current.is_none() {
        let indices: Vec<usize> = candidates
            .iter()
            .map(|c| rng.random_range(0..c.routes.len()))
            .collect();
        match evaluator.evaluate_objective(&indices) {
            Some(objective) => current = Some((indices, objective)),
            None => {
                let shortest = vec![0; k];
                if let Some(objective) = evaluator.evaluate_objective(&shortest) {
                    current = Some((shortest, objective));
                }
            }
        }
    }
    let (mut indices, mut f_cur) = current?;

    for _ in 0..max_rounds {
        let mut improved = false;
        for i in 0..k {
            let original = indices[i];
            let mut best_idx = original;
            let mut best_f = f_cur;
            for alt in 0..candidates[i].routes.len() {
                if alt == original {
                    continue;
                }
                indices[i] = alt;
                if let Some(objective) = evaluator.evaluate_objective(&indices) {
                    if objective > best_f {
                        best_f = objective;
                        best_idx = alt;
                    }
                }
            }
            indices[i] = best_idx;
            if best_idx != original {
                f_cur = best_f;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    let evaluation = evaluator
        .evaluate(&indices)
        .expect("final profile evaluated feasible during search");
    Some(Selection {
        indices,
        evaluation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_selection::exhaustive;
    use qdn_graph::{NodeId, Path};
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_net::routes::{CandidateRoutes, RouteLimits};
    use qdn_net::{CapacitySnapshot, QdnNetwork, SdPair};
    use qdn_physics::link::LinkModel;
    use rand::SeedableRng;

    fn diamond() -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(10)).collect();
        let good = LinkModel::new(0.9).unwrap();
        let bad = LinkModel::new(0.2).unwrap();
        b.add_edge(n[0], n[1], 6, good).unwrap();
        b.add_edge(n[1], n[3], 6, good).unwrap();
        b.add_edge(n[0], n[2], 6, bad).unwrap();
        b.add_edge(n[2], n[3], 6, bad).unwrap();
        b.build()
    }

    #[test]
    fn converges_to_exhaustive_on_single_pair() {
        let net = diamond();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 500.0, 1.0);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let routes: Vec<Path> = cr.routes(&net, pair).to_vec();
        let cands = vec![Candidates {
            pair,
            routes: &routes,
        }];
        let method = AllocationMethod::default();
        let exact = exhaustive::search(&ctx, &cands, &method, EvalOptions::default()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let local =
            local_search(&ctx, &cands, &method, 10, EvalOptions::default(), &mut rng).unwrap();
        assert!((local.evaluation.objective - exact.evaluation.objective).abs() < 1e-9);
    }

    #[test]
    fn stops_after_stable_round() {
        // max_rounds much larger than needed; should terminate early and
        // still produce a feasible profile.
        let net = diamond();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 500.0, 1.0);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let routes: Vec<Path> = cr.routes(&net, pair).to_vec();
        let cands = vec![Candidates {
            pair,
            routes: &routes,
        }];
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sel = local_search(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            1000,
            EvalOptions::default(),
            &mut rng,
        )
        .unwrap();
        assert!(sel.evaluation.objective.is_finite());
    }

    #[test]
    fn infeasible_returns_none() {
        let net = diamond();
        let snap = CapacitySnapshot::clamped(&net, vec![10; 4], vec![0; 4]);
        let ctx = PerSlotContext::oscar(&net, &snap, 500.0, 1.0);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let routes: Vec<Path> = cr.routes(&net, pair).to_vec();
        let cands = vec![Candidates {
            pair,
            routes: &routes,
        }];
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        assert!(local_search(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            5,
            EvalOptions::default(),
            &mut rng
        )
        .is_none());
    }
}
