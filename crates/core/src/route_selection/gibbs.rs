//! Gibbs-sampling route selection — the paper's Algorithm 3.
//!
//! The paper's Algorithm 3 starts each slot from a random route profile.
//! Each iteration then virtually
//! modifies one randomly chosen SD pair's route, evaluates the per-slot
//! objective via the allocation oracle, and accepts the modification with
//! the logit probability of Eq. 15:
//!
//! ```text
//! P(accept) = 1 / (1 + exp((f_old − f_new)/γ)) = σ((f_new − f_old)/γ)
//! ```
//!
//! (Note: the paper's Algorithm-3 listing and its body text disagree on
//! which branch keeps the old selection; as listed, a *better* proposal
//! would be *less* likely to be accepted. We implement the body text /
//! standard Glauber dynamics, which is also what makes the γ→0 limit
//! converge to the greedy optimum.)
//!
//! # Warm starts
//!
//! By default ([`EvalOptions::warm_seeded`]) the chain starts from the
//! previous slot's selection: a pair served in the previous slot starts
//! on last slot's route, a new pair on its shortest candidate (see
//! [`SelectorSession::seed_indices`]). On sticky workloads the
//! previous optimum is nearly this slot's optimum, so a seeded chain
//! only has to repair it for the drifted queue price and runs
//! [`GibbsConfig::warm_iterations`] instead of `iterations`. Seeding
//! changes only where the chain starts: every step still proposes a
//! single-pair move and accepts it with Eq. 15's rule on the same
//! objective. Slots where no strict majority of pairs is remembered,
//! and seeds that turn out infeasible, take the paper's random start and
//! the full budget. `EvalOptions::default()` turns seeding off and
//! restores the random start on every slot.
//!
//! # One chain
//!
//! The chain is one chain with one update rule: each iteration proposes
//! a new route for a single pair. All evaluations run through the
//! incremental [`ProfileEvaluator`], and profiles revisited by the chain
//! are served from its memo. The paper's remark 2 observes that
//! spatially disjoint pairs can evolve independently. That disjointness
//! pays off inside the evaluator: pairs whose candidate routes share no
//! node fall into different coupling components, so a single-pair
//! proposal re-solves only its own component, and every other
//! component's contribution is a memo hit.
//!
//! # Early rejection
//!
//! Most proposals are rejected, and evaluating one can mean a dual
//! solve. The single-pair update therefore screens each proposal in two
//! stages (early rejection in the sense of Solonen et al., 2012). The
//! chain's decisions and RNG stream stay bit-identical to evaluating
//! every proposal and then calling `random_bool(P(accept))`.
//!
//! **Stage 1: the `λ = 0` pre-screen.**
//! [`ProfileEvaluator::objective_bounds`] brackets the exact objective
//! `f` as `lower ≤ f ≤ upper` in one pass over the profile's route
//! edges, solving nothing.
//!
//! * **Draw order.** `random_bool(p)` draws one uniform `u` exactly when
//!   `0 < p < 1` and accepts iff `u < p`; at `p ≤ 0` or `p ≥ 1` it draws
//!   nothing. [`acceptance_probability`] is monotone in `f_new`, so
//!   `P(lower) > 0` and `P(upper) < 1 − 1e-12` certify `0 < P(f) < 1`:
//!   the reference would draw exactly one uniform. The screen draws it
//!   up front with `rng.random::<f64>()`, the same single word.
//! * **Rejection.** If `u ≥ P(upper) + 1e-12`, then `u ≥ P(f)` and the
//!   reference rejects too, so the proposal is rejected unevaluated.
//!   The `1e-12` margin covers the few ulps by which the rounded sigmoid
//!   can break monotonicity.
//!
//! **Stage 2: the in-solve screen.** A proposal that survives stage 1 is
//! evaluated with [`ProfileEvaluator::evaluate_objective_unless`], which
//! hands the same test, `P(B) + 1e-12 ≤ u`, to every dual solve the
//! evaluation runs. `B` tightens as the solve runs, by weak duality:
//!
//! * every iterate the FISTA loop accepts is a projected `λ ≥ 0`, so its
//!   running best `D(λ)` bounds the group's relaxed optimum from above;
//! * the relaxed optimum bounds the objective of the integer allocation
//!   that `round_down_and_fill` returns, which is feasible for the
//!   relaxation;
//! * the group's `λ = 0` value `D(0)` is at most its share of `upper`
//!   (its variables' ranges are no wider than the edge capacities
//!   `upper` maximises over), and every other group contributes at most
//!   its share;
//! * so `f ≤ B = upper − (D(0) − best D(λ))`. The evaluator adds a
//!   margin of `1e-9·(1 + |B|)` for the different summation orders and
//!   calls the test after each decrease of the solve's bound;
//! * with `f ≤ B`, `P(B) + 1e-12 ≤ u` gives `u ≥ P(f)` as in stage 1, so
//!   the reference rejects too.
//!
//! Each solve is screened on its own improvement only, so whether it is
//! abandoned does not depend on the other solves of the evaluation.
//! A group in which exactly one capacity can bind runs no dual
//! iterations at all: relax-and-round allocates it greedily (see
//! [`crate::allocation`]). The screen therefore never abandons such a
//! group, which is evaluated in full.
//! When the test fires the solve stops, the proposal is rejected, and
//! the RNG has drawn exactly the reference's one uniform.
//! A solve the test never stops returns the bits it always did: the test
//! reads the dual bound and never steers the iteration.
//!
//! **Everything else** takes the reference path unchanged: no bounds (an
//! infeasible profile, `V ≤ 0` or `κ < 0`), a probability that is not
//! certified inside `(0, 1)` (including every γ = 0 step), and the
//! initialisation. Infeasible profiles are never screened, because
//! `objective_bounds` returns `None` exactly when the evaluation would:
//! a screened proposal always has an objective, and an infeasible one
//! consumes no uniform on either path.
//!
//! **Memos.** The evaluator's memos are exact caches. A skipped
//! evaluation changes which entries exist but no value any later
//! evaluation returns. An abandoned solve writes no level-1 or level-2
//! entry, so a later evaluation of the same group solves it afresh and
//! gets the exact allocation.
//!
//! The reference is the chain in the repository's `tests/reference/gibbs.rs`,
//! which evaluates every proposal in full and then calls `random_bool`.
//! `crates/core/tests/proptests.rs` checks this chain against it:
//! `early_rejection_matches_reference_chain` on random instances, and
//! `in_solve_screen_engages_and_matches_reference_chain` on a
//! capacity-bound instance where stage 2 abandons solves.

use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::allocation::AllocationMethod;
use crate::problem::PerSlotContext;
use crate::profile_eval::{EvalOptions, ProfileEvaluator, SelectorSession};
use crate::route_selection::{Candidates, Selection};

/// Parameters of the Gibbs sampler. Unknown keys are rejected, so a
/// config that still carries a deleted field fails loudly (see
/// MIGRATION.md).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GibbsConfig {
    /// Number of iterations (the paper loops "until stable"; a fixed
    /// budget with best-profile tracking is the standard finite-time
    /// variant).
    pub iterations: usize,
    /// Exploration temperature γ of Eq. 15 (paper default: 500).
    pub gamma: f64,
    /// Multiplicative per-iteration temperature decay (1.0 = constant γ;
    /// values < 1 anneal toward greedy, improving convergence as the
    /// paper's remark 1 suggests).
    pub gamma_decay: f64,
    /// How many random initial profiles the chain draws, each tried in
    /// turn until one is feasible, before it falls back to the
    /// all-shortest profile.
    pub max_init_attempts: usize,
    /// Iteration budget used instead of `iterations` when the chain was
    /// initialised from a *warm seed profile* (the previous slot's
    /// selection, via [`EvalOptions::warm_profile_seed`], on by default,
    /// and a [`SelectorSession`]): a chain that starts at last slot's
    /// optimum only has to repair locally for the drifted price, not mix
    /// from a random profile, so it earns a smaller budget — the
    /// adaptive reconfiguration idea (cf. QuARC) that makes cross-slot
    /// seeding a throughput win and not just a quality hedge. Set equal
    /// to `iterations` to keep the full budget on seeded slots. Ignored
    /// (full `iterations`) whenever no seed engaged — slot 0, a slot
    /// where most pairs are new, or an infeasible seed. **Required** —
    /// see MIGRATION.md.
    pub warm_iterations: usize,
    /// Profile-evaluator options (warm profile seeding, on by default).
    /// **Required** — see MIGRATION.md.
    pub evaluator: EvalOptions,
}

impl GibbsConfig {
    /// Floor for the decayed temperature. Long chains with
    /// `gamma_decay < 1` would otherwise drive γ into the subnormal
    /// range and finally to exactly 0, silently flipping
    /// [`acceptance_probability`] into its degenerate hard-0/1 γ = 0
    /// branch mid-run (most visibly: equal-objective proposals go from
    /// 50% acceptance to never accepted). At the floor the sampler is
    /// still effectively greedy for any practical objective difference
    /// — the overflow-guarded sigmoid saturates — but the arithmetic
    /// stays well defined and ties keep their 50% acceptance. Deliberate
    /// greedy configurations are respected: a configured γ ≤ the floor
    /// (including γ = 0) and the degenerate `gamma_decay = 0` both
    /// bypass the clamp — it only guards against gradual multiplicative
    /// underflow.
    pub const GAMMA_FLOOR: f64 = 1e-9;

    /// One γ-decay step, clamped at [`GibbsConfig::GAMMA_FLOOR`]. The
    /// floor never overrides a *deliberate* route to the greedy γ = 0
    /// branch: a configured starting temperature at or below the floor
    /// (including γ = 0) and the degenerate `gamma_decay = 0` (hot start,
    /// then instant greedy) both keep their exact semantics — the clamp
    /// only guards against gradual multiplicative underflow over long
    /// chains.
    pub fn decayed_gamma(&self, gamma: f64) -> f64 {
        if self.gamma_decay <= 0.0 {
            return gamma * self.gamma_decay;
        }
        (gamma * self.gamma_decay).max(Self::GAMMA_FLOOR.min(self.gamma))
    }

    /// The paper's configuration: γ = 500 and 48 iterations, with
    /// chains warm-seeded from the previous slot's routes. Seeded slots
    /// get a quarter of the budget — local repair from last slot's
    /// optimum instead of a full mix.
    pub fn paper_default() -> Self {
        GibbsConfig {
            iterations: 48,
            gamma: 500.0,
            gamma_decay: 1.0,
            max_init_attempts: 8,
            warm_iterations: 12,
            evaluator: EvalOptions::warm_seeded(),
        }
    }
}

impl Default for GibbsConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Eq. 15 acceptance probability: `σ((f_new − f_old)/γ)`.
pub fn acceptance_probability(f_new: f64, f_old: f64, gamma: f64) -> f64 {
    if gamma <= 0.0 {
        // γ→0 limit: strictly greedy.
        return if f_new > f_old { 1.0 } else { 0.0 };
    }
    let z = (f_old - f_new) / gamma;
    // Guard against overflow for extreme objective differences.
    if z > 700.0 {
        0.0
    } else if z < -700.0 {
        1.0
    } else {
        1.0 / (1.0 + z.exp())
    }
}

/// Runs the configured Gibbs selection backed by a [`SelectorSession`]:
/// the evaluator recycles the session's arena, and — when
/// [`EvalOptions::warm_profile_seed`] is set and the session remembers a
/// previous slot's selection — the chain starts from that profile
/// instead of a random draw (new pairs start on their shortest
/// candidate). With warm seeding off this is bit-identical to [`sample`].
///
/// This is the policy-layer entry point (`RouteSelector` dispatches
/// here). Returns `None` when no feasible profile could be found at all.
pub fn run_in(
    session: &mut SelectorSession,
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    config: &GibbsConfig,
    rng: &mut dyn rand::Rng,
) -> Option<Selection> {
    let seed = config
        .evaluator
        .warm_profile_seed
        .then(|| session.seed_indices(candidates))
        .flatten();
    let mut evaluator =
        ProfileEvaluator::new_in(session, ctx, candidates, method, config.evaluator);
    let selection = sample_seeded(&mut evaluator, candidates, config, rng, seed.as_deref());
    evaluator.retire(session);
    selection
}

/// Runs Algorithm 3 and returns the best profile visited.
///
/// Returns `None` when no feasible profile could be found at all (every
/// random initialisation plus the all-shortest profile are infeasible).
pub fn sample(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    config: &GibbsConfig,
    rng: &mut dyn rand::Rng,
) -> Option<Selection> {
    let mut evaluator = ProfileEvaluator::new(ctx, candidates, method, config.evaluator);
    sample_seeded(&mut evaluator, candidates, config, rng, None)
}

/// [`sample`] over a caller-provided evaluator, with an optional warm
/// starting profile (the previous slot's selection, resolved by
/// [`SelectorSession::seed_indices`]): when given and feasible, the
/// chain starts there instead of drawing random initial profiles. An
/// infeasible seed falls back to the standard initialisation.
pub fn sample_seeded(
    evaluator: &mut ProfileEvaluator<'_>,
    candidates: &[Candidates<'_>],
    config: &GibbsConfig,
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

    // --- Initialisation: the warm seed when given and feasible, then
    // random profiles, then the all-shortest fallback.
    let mut current: Option<(Vec<usize>, f64)> = None;
    let mut seeded = false;
    if let Some(seed) = seed {
        debug_assert_eq!(seed.len(), k);
        if let Some(objective) = evaluator.evaluate_objective(seed) {
            current = Some((seed.to_vec(), objective));
            seeded = true;
        }
    }
    if current.is_none() {
        for _ in 0..config.max_init_attempts.max(1) {
            let indices: Vec<usize> = candidates
                .iter()
                .map(|c| rng.random_range(0..c.routes.len()))
                .collect();
            if let Some(objective) = evaluator.evaluate_objective(&indices) {
                current = Some((indices, objective));
                break;
            }
        }
    }
    if current.is_none() {
        let shortest = vec![0usize; k];
        if let Some(objective) = evaluator.evaluate_objective(&shortest) {
            current = Some((shortest, objective));
        }
    }
    let (mut indices, mut f_cur) = current?;
    let mut best_indices = indices.clone();
    let mut best_f = f_cur;

    let mut gamma = config.gamma;
    // A chain that starts at the previous slot's optimum only repairs
    // locally; a randomly-initialised chain gets the full mixing budget.
    let budget = if seeded {
        config.warm_iterations
    } else {
        config.iterations
    };
    for _ in 0..budget {
        let i = rng.random_range(0..k);
        if candidates[i].routes.len() >= 2 {
            let old = indices[i];
            indices[i] = propose_different(rng, old, candidates[i].routes.len());
            match accept_proposal(evaluator, &indices, f_cur, gamma, rng) {
                Some(objective) => f_cur = objective,
                None => indices[i] = old,
            }
        }

        // Track the best profile seen.
        if f_cur > best_f {
            best_f = f_cur;
            best_indices = indices.clone();
        }
        gamma = config.decayed_gamma(gamma);
    }

    let evaluation = evaluator
        .evaluate(&best_indices)
        .expect("best profile was feasible when recorded");
    Some(Selection {
        indices: best_indices,
        evaluation,
    })
}

/// Margin on acceptance probabilities for the early-rejection screen: it
/// covers the rounding of [`acceptance_probability`], which is monotone
/// in `f_new` only up to a few ulps.
const SCREEN_MARGIN: f64 = 1e-12;

/// Eq. 15's accept/reject step for the proposal `indices` against the
/// current objective `f_cur`: `Some(f_new)` when the chain moves,
/// `None` when it stays (rejected or infeasible). Bit-identical to
/// evaluating and then calling `random_bool` — same decision, same RNG
/// words — but skips the evaluation when the objective bounds already
/// reject. See "Early rejection" in the module docs.
fn accept_proposal(
    evaluator: &mut ProfileEvaluator<'_>,
    indices: &[usize],
    f_cur: f64,
    gamma: f64,
    rng: &mut dyn rand::Rng,
) -> Option<f64> {
    if let Some((lower, upper)) = evaluator.objective_bounds(indices) {
        let p_upper = acceptance_probability(upper, f_cur, gamma);
        if acceptance_probability(lower, f_cur, gamma) > 0.0 && p_upper < 1.0 - SCREEN_MARGIN {
            // `random_bool` would draw exactly this one uniform.
            let u: f64 = rng.random();
            if u >= p_upper + SCREEN_MARGIN {
                return None;
            }
            // The same test on the tighter bounds of the solves in flight.
            let reject =
                |bound: f64| acceptance_probability(bound, f_cur, gamma) + SCREEN_MARGIN <= u;
            // Bounds exist only for feasible profiles, so this evaluates
            // unless the in-solve screen abandons it.
            let objective = evaluator
                .evaluate_objective_unless(indices, upper, &reject)
                .ok()
                .flatten()?;
            return (u < acceptance_probability(objective, f_cur, gamma)).then_some(objective);
        }
    }
    let objective = evaluator.evaluate_objective(indices)?;
    rng.random_bool(acceptance_probability(objective, f_cur, gamma))
        .then_some(objective)
}

/// Uniformly proposes a route index different from `current`.
fn propose_different(rng: &mut dyn rand::Rng, current: usize, len: usize) -> usize {
    debug_assert!(len >= 2);
    let mut idx = rng.random_range(0..len - 1);
    if idx >= current {
        idx += 1;
    }
    idx
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

    #[test]
    fn acceptance_probability_properties() {
        // Better proposals are more likely to be accepted.
        assert!(acceptance_probability(0.0, -10.0, 500.0) > 0.5);
        assert!(acceptance_probability(-10.0, 0.0, 500.0) < 0.5);
        // Equal objectives: 50/50.
        assert!((acceptance_probability(5.0, 5.0, 500.0) - 0.5).abs() < 1e-12);
        // γ→0: greedy.
        assert_eq!(acceptance_probability(1.0, 0.0, 0.0), 1.0);
        assert_eq!(acceptance_probability(0.0, 1.0, 0.0), 0.0);
        // Extreme differences don't overflow.
        assert_eq!(acceptance_probability(1e9, 0.0, 1.0), 1.0);
        assert_eq!(acceptance_probability(0.0, 1e9, 1.0), 0.0);
    }

    #[test]
    fn gamma_decay_clamps_at_documented_floor() {
        // Without the clamp, 500 × 0.5^k underflows to subnormals around
        // k ≈ 1080 and to exactly 0 shortly after; a long chain must
        // instead settle at the floor.
        let config = GibbsConfig {
            gamma: 500.0,
            gamma_decay: 0.5,
            ..GibbsConfig::paper_default()
        };
        let mut gamma = config.gamma;
        for _ in 0..100_000 {
            gamma = config.decayed_gamma(gamma);
            assert!(gamma >= GibbsConfig::GAMMA_FLOOR, "underflowed: {gamma:e}");
            assert!(gamma.is_normal());
        }
        assert_eq!(gamma, GibbsConfig::GAMMA_FLOOR);
        // At the floor, ties keep their 50% acceptance — the behavior
        // the degenerate γ = 0 branch would silently change mid-run.
        assert_eq!(acceptance_probability(5.0, 5.0, gamma), 0.5);
        assert_eq!(acceptance_probability(5.0, 5.0, 0.0), 0.0);

        // Deliberate tiny-γ (and γ = 0 greedy) configurations are
        // respected: the clamp never raises γ above the configured start.
        let greedy = GibbsConfig {
            gamma: 0.0,
            gamma_decay: 0.5,
            ..GibbsConfig::paper_default()
        };
        assert_eq!(greedy.decayed_gamma(0.0), 0.0);
        let tiny = GibbsConfig {
            gamma: 1e-12,
            gamma_decay: 0.5,
            ..GibbsConfig::paper_default()
        };
        let mut g = tiny.gamma;
        for _ in 0..200 {
            g = tiny.decayed_gamma(g);
        }
        assert_eq!(g, 1e-12);

        // gamma_decay = 0 is the deliberate hot-start-then-instant-greedy
        // configuration: the floor must not resurrect a temperature.
        let instant_greedy = GibbsConfig {
            gamma: 500.0,
            gamma_decay: 0.0,
            ..GibbsConfig::paper_default()
        };
        assert_eq!(instant_greedy.decayed_gamma(500.0), 0.0);
        assert_eq!(instant_greedy.decayed_gamma(0.0), 0.0);
    }

    #[test]
    fn long_annealed_chain_stays_well_defined() {
        // A long aggressively-annealed chain: every acceptance draw must
        // see a valid probability (rng.random_bool panics outside
        // [0, 1]) and the result must dominate the plain greedy limit.
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let config = GibbsConfig {
            iterations: 5_000,
            gamma: 500.0,
            gamma_decay: 0.5, // γ hits the floor within ~40 iterations
            max_init_attempts: 8,
            warm_iterations: 12,
            evaluator: EvalOptions::default(),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sel = sample(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(sel.evaluation.objective.is_finite());
    }

    #[test]
    fn propose_different_never_repeats() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for len in 2..6usize {
            for cur in 0..len {
                for _ in 0..50 {
                    let p = propose_different(&mut rng, cur, len);
                    assert_ne!(p, cur);
                    assert!(p < len);
                }
            }
        }
    }

    /// Two separate diamonds: pairs are isolated from each other.
    fn two_diamonds() -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..8).map(|_| b.add_node(10)).collect();
        let good = LinkModel::new(0.85).unwrap();
        let bad = LinkModel::new(0.25).unwrap();
        // Diamond A over nodes 0..4.
        b.add_edge(n[0], n[1], 5, good).unwrap();
        b.add_edge(n[1], n[3], 5, good).unwrap();
        b.add_edge(n[0], n[2], 5, bad).unwrap();
        b.add_edge(n[2], n[3], 5, bad).unwrap();
        // Diamond B over nodes 4..8.
        b.add_edge(n[4], n[5], 5, good).unwrap();
        b.add_edge(n[5], n[7], 5, good).unwrap();
        b.add_edge(n[4], n[6], 5, bad).unwrap();
        b.add_edge(n[6], n[7], 5, bad).unwrap();
        b.build()
    }

    fn owned_candidates(net: &QdnNetwork, pairs: &[SdPair]) -> Vec<(SdPair, Vec<Path>)> {
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        pairs
            .iter()
            .map(|&p| (p, cr.routes(net, p).to_vec()))
            .collect()
    }

    fn to_cands(owned: &[(SdPair, Vec<Path>)]) -> Vec<Candidates<'_>> {
        owned
            .iter()
            .map(|(pair, routes)| Candidates {
                pair: *pair,
                routes,
            })
            .collect()
    }

    #[test]
    fn gibbs_matches_exhaustive_on_small_instance() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let method = AllocationMethod::default();
        let exact = exhaustive::search(&ctx, &cands, &method, EvalOptions::default()).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let config = GibbsConfig {
            iterations: 80,
            gamma: 100.0,
            gamma_decay: 0.95,
            max_init_attempts: 8,
            warm_iterations: 12,
            evaluator: EvalOptions::default(),
        };
        let gibbs = sample(&ctx, &cands, &method, &config, &mut rng).unwrap();
        assert!(
            gibbs.evaluation.objective >= exact.evaluation.objective - 1e-6,
            "gibbs {} vs exhaustive {}",
            gibbs.evaluation.objective,
            exact.evaluation.objective
        );
    }

    #[test]
    fn infeasible_everywhere_returns_none() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::clamped(&net, vec![10; 8], vec![0; 8]);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [SdPair::new(NodeId(0), NodeId(3)).unwrap()];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        assert!(sample(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            &GibbsConfig::default(),
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn single_route_pairs_are_stable() {
        // With one candidate per pair, Gibbs has nothing to flip and must
        // return that unique profile.
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pair = SdPair::new(NodeId(0), NodeId(1)).unwrap(); // adjacent: 1 direct route first
        let mut cr = CandidateRoutes::new(RouteLimits {
            max_routes: 1,
            max_hops: 4,
        });
        let routes = cr.routes(&net, pair).to_vec();
        assert_eq!(routes.len(), 1);
        let cands = vec![Candidates {
            pair,
            routes: &routes,
        }];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sel = sample(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            &GibbsConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(sel.indices, vec![0]);
    }

    #[test]
    fn gibbs_config_serde_round_trip() {
        let cfg = GibbsConfig {
            iterations: 12,
            gamma: 77.5,
            gamma_decay: 0.9,
            max_init_attempts: 3,
            warm_iterations: 12,
            evaluator: EvalOptions::warm_seeded(),
        };
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("\"max_init_attempts\":3"), "{json}");
        assert!(json.contains("\"warm_iterations\":12"), "{json}");
        let back: GibbsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // Loud compat break (PR 5): `warm_iterations` is required.
        let missing = json.replace("\"warm_iterations\":12,", "");
        assert!(serde_json::from_str::<GibbsConfig>(&missing).is_err());
    }

    /// The deleted multi-chain and isolated-pair fields are rejected by
    /// name rather than silently ignored, so a stale config cannot run
    /// with semantics it did not ask for.
    #[test]
    fn removed_fields_fail_with_unknown_field_error() {
        let json = serde_json::to_string(&GibbsConfig::paper_default()).unwrap();
        for (removed, value) in [("restarts", "1"), ("parallel_isolated", "false")] {
            let stale = json.replacen('{', &format!("{{\"{removed}\":{value},"), 1);
            let err = serde_json::from_str::<GibbsConfig>(&stale)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("unknown field `{removed}`")),
                "{removed}: {err}"
            );
        }
    }

    #[test]
    fn warm_profile_seed_starts_from_previous_selection() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let method = AllocationMethod::default();
        let config = GibbsConfig {
            iterations: 60,
            evaluator: EvalOptions::warm_seeded(),
            ..GibbsConfig::paper_default()
        };
        let mut session = SelectorSession::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Slot 1: a long chain settles on a profile; the session must
        // remember it per pair.
        let mut evaluator =
            ProfileEvaluator::new_in(&mut session, &ctx, &cands, &method, config.evaluator);
        let first = sample_seeded(&mut evaluator, &cands, &config, &mut rng, None).unwrap();
        evaluator.retire(&mut session);
        session.record_selection(&cands, &first.indices);
        assert_eq!(session.remembered_pairs(), 2);
        let seed = session.seed_indices(&cands).unwrap();
        assert_eq!(seed, first.indices);

        // Slot 2, zero-iteration budgets on BOTH paths (a seeded chain
        // runs `warm_iterations`, not `iterations`): the chain can only
        // return its start, which with warm seeding is exactly the
        // previous selection.
        let frozen = GibbsConfig {
            iterations: 0,
            warm_iterations: 0,
            ..config
        };
        let second = run_in(&mut session, &ctx, &cands, &method, &frozen, &mut rng).unwrap();
        assert_eq!(second.indices, first.indices);

        // A pair the session has never seen seeds at its shortest
        // candidate (index 0); remembered pairs keep their route. Two
        // of three pairs remembered = a strict majority, so the seed
        // engages.
        let more_pairs = [
            pairs[0],
            pairs[1],
            SdPair::new(NodeId(1), NodeId(2)).unwrap(), // never selected
        ];
        let more_owned = owned_candidates(&net, &more_pairs);
        let more_cands = to_cands(&more_owned);
        let seed = session.seed_indices(&more_cands).unwrap();
        assert_eq!(seed[0], second.indices[0]);
        assert_eq!(seed[1], second.indices[1]);
        assert_eq!(seed[2], 0);

        // At exactly half coverage (1 of 2 pairs remembered) there is
        // no strict majority and no seed.
        let half_pairs = [pairs[0], more_pairs[2]];
        let half_owned = owned_candidates(&net, &half_pairs);
        let half_cands = to_cands(&half_owned);
        assert!(session.seed_indices(&half_cands).is_none());

        // An empty session (or one whose routes no longer fit) yields no
        // seed at all.
        assert!(SelectorSession::new().seed_indices(&cands).is_none());

        // A slot that selects nothing clears the profile memory: the
        // slot after it must start cold, never from a two-slot-old
        // profile.
        let selector = crate::route_selection::RouteSelector::Gibbs(frozen);
        let starved = CapacitySnapshot::clamped(&net, vec![10; 8], vec![0; 8]);
        let starved_ctx = PerSlotContext::oscar(&net, &starved, 800.0, 1.0);
        assert!(selector
            .select_in(&mut session, &starved_ctx, &cands, &method, &mut rng)
            .is_none());
        assert_eq!(session.remembered_pairs(), 0);
        assert!(session.seed_indices(&cands).is_none());
    }
}
