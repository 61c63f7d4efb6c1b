//! Gibbs-sampling route selection — the paper's Algorithm 3.
//!
//! Starting from a random route profile, each iteration virtually
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
//! converge to the greedy optimum — see DESIGN.md.)
//!
//! All evaluations run through the incremental
//! [`ProfileEvaluator`]: a single-pair proposal
//! re-solves only the coupling component that pair belongs to, and
//! profiles revisited by the chain are served from the memo. The paper's
//! remark 2 observes that spatially disjoint pairs can evolve
//! simultaneously; [`GibbsConfig::parallel_isolated`] enables exactly
//! that — isolated pairs (singleton components) are updated every
//! iteration via memoized local evaluations, while the coupled pairs
//! take turns through the joint evaluation.
//!
//! [`sample_restarts`] runs several independent chains (different seeds)
//! on the shared work-stealing pool and keeps the best profile.

use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::allocation::AllocationMethod;
use crate::problem::PerSlotContext;
use crate::profile_eval::{EvalOptions, ProfileEvaluator, SelectorSession};
use crate::route_selection::{Candidates, Selection};

/// Parameters of the Gibbs sampler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Evolve provably independent pairs in parallel (paper remark 2).
    pub parallel_isolated: bool,
    /// Random restarts when the initial profile is infeasible.
    pub max_init_attempts: usize,
    /// Independent chains to run (1 = a single chain). With more than
    /// one, [`run`] derives one seed per chain from the caller's RNG and
    /// keeps the best profile across chains via [`sample_restarts`]
    /// (chains run on the shared work-stealing pool).
    pub restarts: usize,
    /// Iteration budget used instead of `iterations` when the chain was
    /// initialised from a *warm seed profile* (the previous slot's
    /// selection, via [`EvalOptions::warm_profile_seed`] and a
    /// [`SelectorSession`]): a chain that starts at last slot's optimum
    /// only has to repair locally for the drifted price, not mix from a
    /// random profile, so it earns a smaller budget — the adaptive
    /// reconfiguration idea (cf. QuARC) that makes cross-slot seeding a
    /// throughput win and not just a quality hedge. Set equal to
    /// `iterations` to keep the full budget on seeded slots. Ignored
    /// (full `iterations`) whenever no seed engaged — slot 0, fresh
    /// pairs only, or an infeasible seed. **Required since PR 5** — see
    /// MIGRATION.md.
    pub warm_iterations: usize,
    /// Profile-evaluator options (coupling-partition mode and warm
    /// profile seeding). **Required since PR 4/5** — see MIGRATION.md.
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

    /// The paper's configuration: γ = 500, single-pair updates, one
    /// chain. Warm-seeded slots (opt-in via
    /// [`EvalOptions::warm_profile_seed`]) get a quarter of the budget —
    /// local repair from last slot's optimum instead of a full mix.
    pub fn paper_default() -> Self {
        GibbsConfig {
            iterations: 48,
            gamma: 500.0,
            gamma_decay: 1.0,
            parallel_isolated: false,
            max_init_attempts: 8,
            restarts: 1,
            warm_iterations: 12,
            evaluator: EvalOptions::default(),
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

/// Runs the configured Gibbs selection: a single chain via [`sample`]
/// when `config.restarts <= 1`, otherwise `config.restarts` independent
/// chains via [`sample_restarts`] with per-chain seeds drawn from `rng`.
///
/// This is the policy-layer entry point (`RouteSelector` dispatches
/// here), so configs can enable multi-chain Gibbs with a single field.
///
/// Returns `None` when no feasible profile could be found at all.
pub fn run(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    config: &GibbsConfig,
    rng: &mut dyn rand::Rng,
) -> Option<Selection> {
    if config.restarts <= 1 {
        return sample(ctx, candidates, method, config, rng);
    }
    let seeds: Vec<u64> = (0..config.restarts).map(|_| rng.random()).collect();
    sample_restarts(ctx, candidates, method, config, &seeds)
}

/// [`run`] backed by a [`SelectorSession`]: the evaluator recycles the
/// session's arena/memos/λ stores, and — when
/// [`EvalOptions::warm_profile_seed`] is set and the session remembers a
/// previous slot's selection — every chain starts from that profile
/// instead of a random draw (new pairs start on their shortest
/// candidate). With warm seeding off this is bit-identical to [`run`].
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
    if config.restarts <= 1 {
        let mut evaluator =
            ProfileEvaluator::new_in(session, ctx, candidates, method, config.evaluator);
        let selection = sample_seeded(&mut evaluator, candidates, config, rng, seed.as_deref());
        evaluator.retire(session);
        return selection;
    }
    let chain_seeds: Vec<u64> = (0..config.restarts).map(|_| rng.random()).collect();
    // Chains run on the shared pool with per-chain evaluators (the
    // session buffers cannot be shared mutably across threads), so the
    // session contributes only the starting profile here.
    sample_restarts_seeded(
        ctx,
        candidates,
        method,
        config,
        &chain_seeds,
        seed.as_deref(),
    )
}

/// Keeps the better of two chain outcomes (ties keep the earlier one).
fn best_selection(best: Selection, cand: Selection) -> Selection {
    if cand.evaluation.objective > best.evaluation.objective {
        cand
    } else {
        best
    }
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
    sample_with(&mut evaluator, candidates, config, rng)
}

/// [`sample`] over a caller-provided evaluator, so several chains (or a
/// surrounding search) can share one memo.
pub fn sample_with(
    evaluator: &mut ProfileEvaluator<'_>,
    candidates: &[Candidates<'_>],
    config: &GibbsConfig,
    rng: &mut dyn rand::Rng,
) -> Option<Selection> {
    sample_seeded(evaluator, candidates, config, rng, None)
}

/// [`sample_with`] with an optional warm starting profile (the previous
/// slot's selection, resolved by
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

    // --- Isolated-pair detection for the parallel variant.
    let isolated = if config.parallel_isolated {
        isolated_pairs(candidates)
    } else {
        vec![false; k]
    };
    let coupled: Vec<usize> = (0..k).filter(|&i| !isolated[i]).collect();

    let mut gamma = config.gamma;
    // A chain that starts at the previous slot's optimum only repairs
    // locally; a randomly-initialised chain gets the full mixing budget.
    let budget = if seeded {
        config.warm_iterations
    } else {
        config.iterations
    };
    for _ in 0..budget {
        if config.parallel_isolated {
            // Isolated pairs evolve simultaneously with exact local
            // deltas: their allocation sub-problem is independent of every
            // other pair, so a single-pair evaluation is the true
            // objective contribution. These are memoized per (pair, route)
            // — after one sweep of the chain they are all free.
            for i in 0..k {
                if !isolated[i] {
                    continue;
                }
                if candidates[i].routes.len() < 2 {
                    continue;
                }
                let proposal = propose_different(rng, indices[i], candidates[i].routes.len());
                let (Some(f_old_local), Some(f_new_local)) = (
                    evaluator.evaluate_pair_objective(i, indices[i]),
                    evaluator.evaluate_pair_objective(i, proposal),
                ) else {
                    continue;
                };
                if rng.random_bool(acceptance_probability(f_new_local, f_old_local, gamma)) {
                    f_cur += f_new_local - f_old_local;
                    indices[i] = proposal;
                }
            }
        }

        // One coupled pair evolves via the joint evaluation (all pairs, if
        // the parallel variant is off).
        let chosen = if config.parallel_isolated {
            if coupled.is_empty() {
                None // everything isolated: parallel loop above did the work
            } else {
                Some(coupled[rng.random_range(0..coupled.len())])
            }
        } else {
            Some(rng.random_range(0..k))
        };
        if let Some(i) = chosen {
            if candidates[i].routes.len() >= 2 {
                let old = indices[i];
                let proposal = propose_different(rng, old, candidates[i].routes.len());
                indices[i] = proposal;
                match evaluator.evaluate_objective(&indices) {
                    Some(objective) => {
                        if rng.random_bool(acceptance_probability(objective, f_cur, gamma)) {
                            f_cur = objective;
                        } else {
                            indices[i] = old;
                        }
                    }
                    None => indices[i] = old, // infeasible proposal: reject
                }
            }
        }

        // Track the best profile seen.
        if f_cur > best_f {
            best_f = f_cur;
            best_indices = indices.clone();
        }
        gamma = decayed_gamma(gamma, config);
    }

    let evaluation = evaluator
        .evaluate(&best_indices)
        .expect("best profile was feasible when recorded");
    Some(Selection {
        indices: best_indices,
        evaluation,
    })
}

/// Runs one independent chain per seed and returns the best selection
/// (ties keep the earliest seed). The chains run on the shared
/// work-stealing pool ([`threadpool::current`]); results are
/// **bit-identical** to [`sample_restarts_serial`] at every pool width,
/// because each chain is deterministic in its seed and chain outcomes
/// are gathered in chain-index order before the fixed left-to-right
/// [`best_selection`] reduction.
///
/// Returns `None` when every chain fails to find a feasible profile.
pub fn sample_restarts(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    config: &GibbsConfig,
    seeds: &[u64],
) -> Option<Selection> {
    sample_restarts_seeded(ctx, candidates, method, config, seeds, None)
}

/// [`sample_restarts`] with an optional shared warm starting profile
/// (every chain starts from it; their RNG streams still differ).
pub fn sample_restarts_seeded(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    config: &GibbsConfig,
    seeds: &[u64],
    profile_seed: Option<&[usize]>,
) -> Option<Selection> {
    use rand::SeedableRng;
    // One pool task per chain, each with a fresh per-chain evaluator
    // (memo sharing needs `&mut`; fresh memos change hit rates, not
    // results — a memo is an exact cache). `map_indexed` returns the
    // chain outcomes in chain-index order regardless of execution
    // interleaving, so the reduction below sees the serial order.
    let chains: Vec<Option<Selection>> = threadpool::current().map_indexed(seeds.len(), |i| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seeds[i]);
        let mut evaluator = ProfileEvaluator::new(ctx, candidates, method, config.evaluator);
        sample_seeded(&mut evaluator, candidates, config, &mut rng, profile_seed)
    });
    chains.into_iter().flatten().reduce(best_selection)
}

/// The serial multi-chain path: chains run in seed order sharing one
/// evaluator (every profile any chain has visited is a memo hit for the
/// others). This is the reference trajectory the pooled path must
/// reproduce bit-for-bit; the equivalence proptest and the
/// `parallel_gibbs_restarts/serial` bench row call it directly.
#[doc(hidden)]
pub fn sample_restarts_serial(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    config: &GibbsConfig,
    seeds: &[u64],
    profile_seed: Option<&[usize]>,
) -> Option<Selection> {
    use rand::SeedableRng;
    let mut evaluator = ProfileEvaluator::new(ctx, candidates, method, config.evaluator);
    seeds
        .iter()
        .filter_map(|&seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            sample_seeded(&mut evaluator, candidates, config, &mut rng, profile_seed)
        })
        .reduce(best_selection)
}

/// One γ-decay step, clamped at [`GibbsConfig::GAMMA_FLOOR`]. The floor
/// never overrides a *deliberate* route to the greedy γ = 0 branch: a
/// configured starting temperature at or below the floor (including
/// γ = 0) and the degenerate `gamma_decay = 0` (hot start, then instant
/// greedy) both keep their exact semantics — the clamp only guards
/// against gradual multiplicative underflow over long chains.
fn decayed_gamma(gamma: f64, config: &GibbsConfig) -> f64 {
    if config.gamma_decay <= 0.0 {
        return gamma * config.gamma_decay;
    }
    (gamma * config.gamma_decay).max(GibbsConfig::GAMMA_FLOOR.min(config.gamma))
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

/// Marks pairs whose candidate routes share no node with any other pair's
/// candidate routes (edge disjointness follows from node disjointness).
///
/// Such pairs' allocation sub-problems decouple exactly, so their Gibbs
/// updates can run concurrently with local evaluations — the paper's
/// remark 2. (The [`ProfileEvaluator`] generalizes the same test into a
/// full partition: a pair is isolated iff its component is a singleton —
/// but this standalone check is kept because it deliberately ignores the
/// slot budget, matching the sampler's historical semantics.)
fn isolated_pairs(candidates: &[Candidates<'_>]) -> Vec<bool> {
    use std::collections::HashSet;
    let unions: Vec<HashSet<qdn_graph::NodeId>> = candidates
        .iter()
        .map(|c| {
            c.routes
                .iter()
                .flat_map(|r| r.nodes().iter().copied())
                .collect()
        })
        .collect();
    (0..candidates.len())
        .map(|i| {
            unions
                .iter()
                .enumerate()
                .all(|(j, other)| j == i || unions[i].is_disjoint(other))
        })
        .collect()
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
            gamma = decayed_gamma(gamma, &config);
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
        assert_eq!(decayed_gamma(0.0, &greedy), 0.0);
        let tiny = GibbsConfig {
            gamma: 1e-12,
            gamma_decay: 0.5,
            ..GibbsConfig::paper_default()
        };
        let mut g = tiny.gamma;
        for _ in 0..200 {
            g = decayed_gamma(g, &tiny);
        }
        assert_eq!(g, 1e-12);

        // gamma_decay = 0 is the deliberate hot-start-then-instant-greedy
        // configuration: the floor must not resurrect a temperature.
        let instant_greedy = GibbsConfig {
            gamma: 500.0,
            gamma_decay: 0.0,
            ..GibbsConfig::paper_default()
        };
        assert_eq!(decayed_gamma(500.0, &instant_greedy), 0.0);
        assert_eq!(decayed_gamma(0.0, &instant_greedy), 0.0);
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
            parallel_isolated: false,
            max_init_attempts: 8,
            restarts: 1,
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
    fn isolated_pairs_detected() {
        let net = two_diamonds();
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        assert_eq!(isolated_pairs(&cands), vec![true, true]);

        // Same diamond: overlapping -> not isolated.
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(1), NodeId(2)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        assert_eq!(isolated_pairs(&cands), vec![false, false]);
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
            parallel_isolated: false,
            max_init_attempts: 8,
            restarts: 1,
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
    fn parallel_variant_matches_serial_quality() {
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

        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let config = GibbsConfig {
            iterations: 40,
            gamma: 100.0,
            gamma_decay: 0.9,
            parallel_isolated: true,
            max_init_attempts: 8,
            restarts: 1,
            warm_iterations: 12,
            evaluator: EvalOptions::default(),
        };
        let gibbs = sample(&ctx, &cands, &method, &config, &mut rng).unwrap();
        assert!(
            gibbs.evaluation.objective >= exact.evaluation.objective - 1e-6,
            "parallel gibbs {} vs exhaustive {}",
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
    fn restarts_return_best_chain() {
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
            iterations: 30,
            gamma: 100.0,
            gamma_decay: 0.9,
            parallel_isolated: false,
            max_init_attempts: 8,
            restarts: 1,
            warm_iterations: 12,
            evaluator: EvalOptions::default(),
        };
        let multi = sample_restarts(&ctx, &cands, &method, &config, &[1, 2, 3, 4]).unwrap();
        // Each individual chain is dominated by the multi-chain best.
        for seed in [1u64, 2, 3, 4] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            if let Some(single) = sample(&ctx, &cands, &method, &config, &mut rng) {
                assert!(multi.evaluation.objective >= single.evaluation.objective - 1e-12);
            }
        }
    }

    #[test]
    fn gibbs_config_serde_round_trip() {
        let cfg = GibbsConfig {
            iterations: 12,
            gamma: 77.5,
            gamma_decay: 0.9,
            parallel_isolated: true,
            max_init_attempts: 3,
            restarts: 4,
            warm_iterations: 12,
            evaluator: EvalOptions::static_partition(),
        };
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("\"restarts\":4"), "{json}");
        assert!(json.contains("\"warm_iterations\":12"), "{json}");
        let back: GibbsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // The paper default stays a single chain.
        assert_eq!(GibbsConfig::paper_default().restarts, 1);
        // Loud compat break (PR 5): `warm_iterations` is required.
        let missing = json.replace("\"warm_iterations\":12,", "");
        assert!(serde_json::from_str::<GibbsConfig>(&missing).is_err());
    }

    #[test]
    fn run_dispatches_to_multi_chain() {
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
            iterations: 30,
            gamma: 100.0,
            gamma_decay: 0.9,
            parallel_isolated: false,
            max_init_attempts: 8,
            restarts: 3,
            warm_iterations: 12,
            evaluator: EvalOptions::default(),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let multi = run(&ctx, &cands, &method, &config, &mut rng).unwrap();
        // Multi-chain keeps the best chain: it must dominate a single
        // chain run with each of the seeds the same RNG stream yields.
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..config.restarts {
            let seed: u64 = seed_rng.random();
            let mut chain_rng = rand::rngs::StdRng::seed_from_u64(seed);
            if let Some(single) = sample(&ctx, &cands, &method, &config, &mut chain_rng) {
                assert!(multi.evaluation.objective >= single.evaluation.objective - 1e-12);
            }
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

    #[test]
    fn restarts_handle_infeasible() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::clamped(&net, vec![10; 8], vec![0; 8]);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [SdPair::new(NodeId(0), NodeId(3)).unwrap()];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        assert!(sample_restarts(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            &GibbsConfig::default(),
            &[1, 2]
        )
        .is_none());
    }
}
