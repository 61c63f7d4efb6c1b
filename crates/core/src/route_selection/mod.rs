//! Route selection for the per-slot problem (paper §IV-B-2).
//!
//! Given candidate sets `R(φ)` and the qubit-allocation oracle
//! (Algorithm 2), route selection picks one route per SD pair to maximize
//! the per-slot objective `f(r, N*(r))`:
//!
//! * [`exhaustive`] — Eq. 13: enumerate the product space (exact, only for
//!   small `F`/`R`),
//! * [`gibbs`] — Algorithm 3: one Gibbs chain of single-pair moves with
//!   the Eq. 15 acceptance probability, started by default from the
//!   previous slot's routes,
//! * [`greedy`] — γ→0 limit: coordinate-wise best-response local search
//!   (an ablation; the paper's remark warns it can stick in local optima).

pub mod exhaustive;
pub mod gibbs;
pub mod greedy;

use qdn_graph::Path;
use qdn_net::SdPair;
use serde::{Deserialize, Serialize};

use crate::allocation::AllocationMethod;
use crate::problem::{PerSlotContext, ProfileEvaluation};
use crate::profile_eval::{EvalOptions, ProfileEvaluator, SelectorSession};

pub use gibbs::GibbsConfig;

/// The candidate routes of one SD pair (non-empty).
#[derive(Debug, Clone)]
pub struct Candidates<'a> {
    /// The SD pair.
    pub pair: SdPair,
    /// Its candidate routes `R(φ)`, ordered by hops.
    pub routes: &'a [Path],
}

/// Route selection outcome: per-pair route indices (into each pair's
/// candidate list) plus the allocation evaluation of that profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// `indices[i]` selects `candidates[i].routes[indices[i]]`.
    pub indices: Vec<usize>,
    /// Allocations and objective for the selected profile.
    pub evaluation: ProfileEvaluation,
}

/// Builds the `(pair, route)` profile described by `indices`.
pub fn profile_of<'a>(candidates: &[Candidates<'a>], indices: &[usize]) -> Vec<(SdPair, &'a Path)> {
    candidates
        .iter()
        .zip(indices)
        .map(|(c, &i)| (c.pair, &c.routes[i]))
        .collect()
}

/// Evaluates the profile described by `indices`; `None` when infeasible.
pub fn evaluate_indices(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    indices: &[usize],
    method: &AllocationMethod,
) -> Option<ProfileEvaluation> {
    let profile = profile_of(candidates, indices);
    ctx.evaluate(&profile, method)
}

/// The route-selection strategy used by a policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RouteSelector {
    /// Exact product-space search (Eq. 13), capped at `max_combinations`
    /// profiles; falls back to Gibbs with the given configuration when
    /// the space is larger.
    Exhaustive {
        /// Upper bound on the number of evaluated combinations.
        max_combinations: usize,
        /// Gibbs configuration used when the product space exceeds
        /// `max_combinations` (previously an implicit
        /// `GibbsConfig::default()`).
        fallback: GibbsConfig,
        /// Profile-evaluator options for the enumeration itself (the
        /// Gibbs fallback carries its own). **Required since PR 4** —
        /// see MIGRATION.md.
        evaluator: EvalOptions,
    },
    /// Algorithm 3 (Gibbs sampling).
    Gibbs(GibbsConfig),
    /// Coordinate best-response until stable.
    GreedyLocal {
        /// Maximum full rounds over the pairs.
        max_rounds: usize,
        /// Profile-evaluator options. **Required since PR 4** — see
        /// MIGRATION.md.
        evaluator: EvalOptions,
    },
    /// Always the first (fewest-hops) candidate.
    First,
    /// A uniformly random candidate per pair (ablation).
    Random,
}

impl RouteSelector {
    /// Exhaustive search capped at `max_combinations`, falling back to
    /// the default Gibbs configuration on larger spaces.
    pub fn exhaustive(max_combinations: usize) -> Self {
        RouteSelector::Exhaustive {
            max_combinations,
            fallback: GibbsConfig::default(),
            evaluator: EvalOptions::default(),
        }
    }

    /// Selects routes for every candidate set, or `None` if no feasible
    /// profile was found.
    ///
    /// Builds a throwaway [`SelectorSession`] per call — the
    /// fresh-per-slot path. Online drivers that select every slot should
    /// hold one session for the run and call
    /// [`RouteSelector::select_in`] instead.
    pub fn select(
        &self,
        ctx: &PerSlotContext<'_>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        rng: &mut dyn rand::Rng,
    ) -> Option<Selection> {
        let mut session = SelectorSession::new();
        self.select_in(&mut session, ctx, candidates, method, rng)
    }

    /// [`RouteSelector::select`] threaded through a slot-spanning
    /// [`SelectorSession`]: the profile evaluator recycles the session's
    /// arena, and the session records this slot's selected routes as the
    /// next slot's seed (used when `warm_profile_seed` is on, as in
    /// every default config). With `warm_profile_seed` off, results are
    /// bit-identical to a fresh [`RouteSelector::select`] per slot (the
    /// `session_matches_fresh_per_slot` proptest enforces it); see
    /// [`crate::profile_eval`]'s "Selection sessions" docs
    /// for the invariants.
    pub fn select_in(
        &self,
        session: &mut SelectorSession,
        ctx: &PerSlotContext<'_>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        rng: &mut dyn rand::Rng,
    ) -> Option<Selection> {
        if candidates.is_empty() {
            // An empty slot serves nothing: the previous profile must
            // not survive it as a "previous slot" seed.
            session.record_selection(&[], &[]);
            return Some(Selection {
                indices: Vec::new(),
                evaluation: ProfileEvaluation {
                    allocations: Vec::new(),
                    objective: 0.0,
                },
            });
        }
        let result = match self {
            RouteSelector::Exhaustive {
                max_combinations,
                fallback,
                evaluator,
            } => {
                let combos: usize = candidates
                    .iter()
                    .map(|c| c.routes.len())
                    .try_fold(1usize, |acc, n| acc.checked_mul(n))
                    .unwrap_or(usize::MAX);
                if combos <= *max_combinations {
                    let mut eval =
                        ProfileEvaluator::new_in(session, ctx, candidates, method, *evaluator);
                    let selection = exhaustive::search_with(&mut eval, candidates);
                    eval.retire(session);
                    selection
                } else {
                    gibbs::run_in(session, ctx, candidates, method, fallback, rng)
                }
            }
            RouteSelector::Gibbs(config) => {
                gibbs::run_in(session, ctx, candidates, method, config, rng)
            }
            RouteSelector::GreedyLocal {
                max_rounds,
                evaluator,
            } => greedy::local_search_in(
                session,
                ctx,
                candidates,
                method,
                *max_rounds,
                *evaluator,
                rng,
            ),
            // First/Random evaluate exactly one profile, so the
            // memoizing evaluator has nothing to amortize — the direct
            // build is cheaper (and bit-identical by construction).
            RouteSelector::First => {
                let indices = vec![0; candidates.len()];
                evaluate_indices(ctx, candidates, &indices, method).map(|evaluation| Selection {
                    indices,
                    evaluation,
                })
            }
            RouteSelector::Random => {
                use rand::RngExt;
                let indices: Vec<usize> = candidates
                    .iter()
                    .map(|c| rng.random_range(0..c.routes.len()))
                    .collect();
                evaluate_indices(ctx, candidates, &indices, method).map(|evaluation| Selection {
                    indices,
                    evaluation,
                })
            }
        };
        // Record what this slot actually selected — including "nothing"
        // on failure, so a later slot can never warm-seed from a
        // profile that is not the immediately preceding selection.
        match &result {
            Some(selection) => session.record_selection(candidates, &selection.indices),
            None => session.record_selection(&[], &[]),
        }
        result
    }

    /// Short label for experiment outputs.
    pub fn label(&self) -> &'static str {
        match self {
            RouteSelector::Exhaustive { .. } => "exhaustive",
            RouteSelector::Gibbs(_) => "gibbs",
            RouteSelector::GreedyLocal { .. } => "greedy-local",
            RouteSelector::First => "first-route",
            RouteSelector::Random => "random",
        }
    }
}

impl Default for RouteSelector {
    fn default() -> Self {
        RouteSelector::Gibbs(GibbsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdn_graph::NodeId;
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_net::routes::{CandidateRoutes, RouteLimits};
    use qdn_net::{CapacitySnapshot, QdnNetwork};
    use qdn_physics::link::LinkModel;
    use rand::SeedableRng;

    /// Diamond 0-1-3 / 0-2-3 where the top path has much better links, so
    /// the optimal route choice is unambiguous.
    fn asymmetric_diamond() -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(12)).collect();
        let good = LinkModel::new(0.9).unwrap();
        let bad = LinkModel::new(0.2).unwrap();
        b.add_edge(n[0], n[1], 6, good).unwrap();
        b.add_edge(n[1], n[3], 6, good).unwrap();
        b.add_edge(n[0], n[2], 6, bad).unwrap();
        b.add_edge(n[2], n[3], 6, bad).unwrap();
        b.build()
    }

    fn routes_for(net: &QdnNetwork, pair: SdPair) -> Vec<Path> {
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        cr.routes(net, pair).to_vec()
    }

    #[test]
    fn all_selectors_pick_feasible_profiles() {
        let net = asymmetric_diamond();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 500.0, 1.0);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let routes = routes_for(&net, pair);
        let cands = vec![Candidates {
            pair,
            routes: &routes,
        }];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for selector in [
            RouteSelector::exhaustive(100),
            RouteSelector::Gibbs(GibbsConfig::default()),
            RouteSelector::GreedyLocal {
                max_rounds: 5,
                evaluator: EvalOptions::default(),
            },
            RouteSelector::First,
            RouteSelector::Random,
        ] {
            let sel = selector
                .select(&ctx, &cands, &AllocationMethod::default(), &mut rng)
                .unwrap_or_else(|| panic!("{} failed", selector.label()));
            assert_eq!(sel.indices.len(), 1);
            assert!(sel.evaluation.objective.is_finite());
        }
    }

    #[test]
    fn optimizing_selectors_find_the_good_route() {
        let net = asymmetric_diamond();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 500.0, 1.0);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let routes = routes_for(&net, pair);
        // Identify which candidate index is the good (0-1-3) route.
        let good_idx = routes
            .iter()
            .position(|r| r.contains_node(NodeId(1)))
            .unwrap();
        let cands = vec![Candidates {
            pair,
            routes: &routes,
        }];
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for selector in [
            RouteSelector::exhaustive(100),
            RouteSelector::Gibbs(GibbsConfig {
                iterations: 60,
                ..GibbsConfig::default()
            }),
            RouteSelector::GreedyLocal {
                max_rounds: 5,
                evaluator: EvalOptions::default(),
            },
        ] {
            let sel = selector
                .select(&ctx, &cands, &AllocationMethod::default(), &mut rng)
                .unwrap();
            assert_eq!(
                sel.indices[0],
                good_idx,
                "{} should pick the high-probability route",
                selector.label()
            );
        }
    }

    #[test]
    fn empty_candidates_trivial_selection() {
        let net = asymmetric_diamond();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 500.0, 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sel = RouteSelector::default()
            .select(&ctx, &[], &AllocationMethod::default(), &mut rng)
            .unwrap();
        assert!(sel.indices.is_empty());
        assert_eq!(sel.evaluation.objective, 0.0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            RouteSelector::exhaustive(1).label(),
            RouteSelector::default().label(),
            RouteSelector::GreedyLocal {
                max_rounds: 1,
                evaluator: EvalOptions::default(),
            }
            .label(),
            RouteSelector::First.label(),
            RouteSelector::Random.label(),
        ]
        .into_iter()
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
