//! `decide_reference`: one slot of Algorithm 1 built from scratch.
//!
//! A slot's decision is a function of the network, the request set
//! `Φ_t`, the per-slot context (capacities `Q^t, W^t` and the queue
//! price `q_t`, or a myopic budget), the policy configuration, the
//! previous slot's decision (the warm seed) and the slot's RNG stream.
//! This module computes it with none of production's slot-spanning state
//! or caches:
//!
//! * a fresh `CandidateRoutes` under the slot's dead-edge set;
//! * the fidelity filter applied to each fresh list;
//! * the degrade loop: on an infeasible slot, drop the pair whose
//!   shortest route is longest, and retry with no seed;
//! * the warm seed resolved from the previous decision by route identity,
//!   engaged only when a strict majority of pairs is remembered;
//! * the reference Gibbs chain ([`gibbs::sample`]) or greedy local search,
//!   with every profile evaluated by `PerSlotContext::evaluate_objective`.
//!
//! `tests/differential.rs` checks every production path against it, and
//! `tests/decision_fingerprint.rs` replays the goldens through it.

pub mod gibbs;

use qdn_core::oscar::OscarConfig;
use qdn_core::problem::PerSlotContext;
use qdn_core::route_selection::RouteSelector;
use qdn_core::types::{Decision, RouteAssignment};
use qdn_graph::Path;
use qdn_net::routes::CandidateRoutes;
use qdn_net::SdPair;

/// What the reference saw across the slots it decided.
#[derive(Debug, Default)]
pub struct Tally {
    /// Slots whose selection succeeded with at least one served pair.
    pub decided: u64,
    /// Selections that started from a feasible warm seed.
    pub seeded: u64,
    /// Candidate routes the fidelity target removed.
    pub filtered: u64,
}

/// Decides one slot on `ctx.network`; `prev` is the previous slot's
/// decision. Only the Gibbs and greedy-local selectors are modelled.
pub fn decide_reference(
    requests: &[SdPair],
    ctx: &PerSlotContext<'_>,
    oscar: &OscarConfig,
    prev: &Decision,
    rng: &mut dyn rand::Rng,
    tally: &mut Tally,
) -> Decision {
    let network = ctx.network;
    let mut fresh = CandidateRoutes::new(oscar.route_limits);
    fresh.sync_dead_edges(network, ctx.snapshot);
    let (mut served, mut unserved) = (Vec::new(), Vec::new());
    for &pair in requests {
        let mut routes = fresh.routes(network, pair).to_vec();
        if let Some(target) = oscar.fidelity_target {
            let before = routes.len();
            routes.retain(|r| network.route_fidelity(r).value() >= target);
            tally.filtered += (before - routes.len()) as u64;
        }
        match routes.is_empty() {
            true => unserved.push(pair),
            false => served.push((pair, routes)),
        }
    }
    let warm = match &oscar.selector {
        RouteSelector::Gibbs(config) => config.evaluator.warm_profile_seed,
        RouteSelector::GreedyLocal { evaluator, .. } => evaluator.warm_profile_seed,
        other => panic!("the reference models Gibbs and greedy-local, not {other:?}"),
    };
    let mut prev = prev.assignments();
    while !served.is_empty() {
        let profile = |picks: &[usize]| -> Vec<(SdPair, &Path)> {
            let pairs = served.iter().zip(picks);
            pairs.map(|((p, routes), &i)| (*p, &routes[i])).collect()
        };
        let mut f = |picks: &[usize]| ctx.evaluate_objective(&profile(picks), &oscar.allocation);
        let lens: Vec<usize> = served.iter().map(|(_, routes)| routes.len()).collect();
        let seed = warm.then(|| seed_indices(prev, &served)).flatten();
        let seed = seed.as_deref();
        tally.seeded += u64::from(seed.is_some_and(|s| f(s).is_some()));
        let picked = match &oscar.selector {
            RouteSelector::Gibbs(config) => gibbs::sample(&lens, config, seed, rng, &mut f),
            RouteSelector::GreedyLocal { max_rounds, .. } => {
                greedy_local(&lens, *max_rounds, seed, rng, &mut f)
            }
            _ => unreachable!(),
        };
        if let Some(indices) = picked {
            let evaluation = ctx.evaluate(&profile(&indices), &oscar.allocation).unwrap();
            let routes = profile(&indices).into_iter().zip(evaluation.allocations);
            let assignments = routes.map(|((p, r), a)| RouteAssignment::new(p, r.clone(), a));
            tally.decided += 1;
            return Decision::new(assignments.collect(), unserved);
        }
        // A failed selection leaves no previous profile to seed from.
        prev = &[];
        let shortest = |i: &usize| served[*i].1[0].hops();
        let victim = (0..served.len()).max_by_key(shortest).unwrap();
        unserved.push(served.remove(victim).0);
    }
    Decision::new(Vec::new(), unserved)
}

/// The previous decision's route per pair (the last assignment of a
/// repeated pair wins), located by edge list; pairs not remembered start
/// on their shortest route. `None` unless more than half are remembered.
fn seed_indices(prev: &[RouteAssignment], served: &[(SdPair, Vec<Path>)]) -> Option<Vec<usize>> {
    let locate = |(pair, routes): &(SdPair, Vec<Path>)| {
        let last = prev.iter().rev().find(|a| a.pair == *pair)?;
        routes.iter().position(|r| r.edges() == last.route.edges())
    };
    let found: Vec<Option<usize>> = served.iter().map(locate).collect();
    let remembered = found.iter().flatten().count();
    (remembered * 2 > served.len()).then(|| found.iter().map(|i| i.unwrap_or(0)).collect())
}

/// Coordinate best response from [`gibbs::start`] with one random draw:
/// sweep each pair's alternatives, keeping strict improvements, until a
/// round changes nothing.
fn greedy_local(
    lens: &[usize],
    max_rounds: usize,
    seed: Option<&[usize]>,
    rng: &mut dyn rand::Rng,
    f: &mut gibbs::Objective<'_>,
) -> Option<Vec<usize>> {
    let (mut indices, mut f_cur, _) = gibbs::start(lens, 1, seed, rng, f)?;
    for _ in 0..max_rounds {
        let mut improved = false;
        for (i, &len) in lens.iter().enumerate() {
            let original = indices[i];
            let mut best = (original, f_cur);
            for alt in (0..len).filter(|&alt| alt != original) {
                indices[i] = alt;
                if let Some(v) = f(&indices).filter(|&v| v > best.1) {
                    best = (alt, v);
                }
            }
            (indices[i], f_cur) = best;
            improved |= best.0 != original;
        }
        if !improved {
            break;
        }
    }
    Some(indices)
}
