//! Algorithm 3 as the paper states it: the one reference Gibbs chain.
//!
//! Every proposal is evaluated in full and then accepted through
//! `random_bool` with Eq. 15's probability; there is no bound screen, no
//! in-solve rejection and no memo. The objective is a closure over route
//! indices, so callers decide what "evaluated in full" means (a fresh
//! `PerSlotContext::evaluate_objective` everywhere in this repository).
//!
//! `decide_reference` runs it for every Gibbs slot, and the production
//! chain (`qdn_core::route_selection::gibbs::sample_seeded`) must match it
//! bit for bit: `crates/core/tests/proptests.rs` includes this file for
//! `early_rejection_matches_reference_chain` and the in-solve screen
//! check, and `tests/differential.rs` samples Eq. 15's stationary law
//! with [`step`].

use qdn_core::route_selection::gibbs::acceptance_probability;
use qdn_core::route_selection::GibbsConfig;
use rand::RngExt;

/// A profile objective over route indices: `None` when infeasible.
pub type Objective<'a> = dyn FnMut(&[usize]) -> Option<f64> + 'a;

/// Runs the chain over the profiles of `lens` (each pair's candidate
/// count) and returns the best profile visited, or `None` when no start
/// is feasible. A feasible `seed` starts a chain of `warm_iterations`.
pub fn sample(
    lens: &[usize],
    config: &GibbsConfig,
    seed: Option<&[usize]>,
    rng: &mut dyn rand::Rng,
    f: &mut Objective<'_>,
) -> Option<Vec<usize>> {
    let (mut indices, mut f_cur, seeded) = start(lens, config.max_init_attempts, seed, rng, f)?;
    let (mut best, mut best_f) = (indices.clone(), f_cur);
    let mut gamma = config.gamma;
    let budget = match seeded {
        true => config.warm_iterations,
        false => config.iterations,
    };
    for _ in 0..budget {
        step(&mut indices, &mut f_cur, lens, gamma, rng, f);
        if f_cur > best_f {
            best_f = f_cur;
            best.clone_from(&indices);
        }
        gamma = config.decayed_gamma(gamma);
    }
    Some(best)
}

/// A search's start and its objective: `seed` when given and feasible
/// (flagged `true`), else the first feasible of `attempts` (at least one)
/// random profiles, else all-shortest, else `None`.
pub fn start(
    lens: &[usize],
    attempts: usize,
    seed: Option<&[usize]>,
    rng: &mut dyn rand::Rng,
    f: &mut Objective<'_>,
) -> Option<(Vec<usize>, f64, bool)> {
    if let Some(v) = seed.and_then(&mut *f) {
        return Some((seed?.to_vec(), v, true));
    }
    for _ in 0..attempts.max(1) {
        let draw: Vec<usize> = lens.iter().map(|&n| rng.random_range(0..n)).collect();
        if let Some(v) = f(&draw) {
            return Some((draw, v, false));
        }
    }
    let shortest = vec![0; lens.len()];
    Some((shortest.clone(), f(&shortest)?, false))
}

/// One iteration: a uniformly chosen pair proposes a uniformly chosen
/// other route, which is evaluated and accepted with probability
/// `σ((f_new − f_cur)/γ)`; an infeasible proposal is rejected without a
/// draw.
pub fn step(
    indices: &mut [usize],
    f_cur: &mut f64,
    lens: &[usize],
    gamma: f64,
    rng: &mut dyn rand::Rng,
    f: &mut Objective<'_>,
) {
    let i = rng.random_range(0..lens.len());
    if lens[i] < 2 {
        return;
    }
    let old = indices[i];
    let proposal = rng.random_range(0..lens[i] - 1);
    indices[i] = proposal + usize::from(proposal >= old);
    match f(indices) {
        Some(f_new) if rng.random_bool(acceptance_probability(f_new, *f_cur, gamma)) => {
            *f_cur = f_new;
        }
        _ => indices[i] = old,
    }
}
