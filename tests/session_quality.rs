//! End-to-end quality contract of persistent selection sessions.
//!
//! The session path with warm seeding enabled trades the Gibbs chain's
//! full mixing budget for a warm start at the previous slot's selection
//! (`GibbsConfig::warm_iterations`). That trade
//! is only admissible if it does not buy speed with solution quality:
//! this test runs the 200-slot OSCAR loop on the temporally-correlated
//! `PersistentWorkload` (the regime warm seeding targets) and on the
//! paper's uniform workload, and asserts the warm session's aggregate
//! utility and spend stay within a tight band of the cold
//! fresh-per-slot path. (Bit-identity with seeding *off* is enforced
//! separately by the `session_matches_fresh_per_slot` proptest.)

use qdn_core::oscar::{OscarConfig, OscarPolicy};
use qdn_core::profile_eval::EvalOptions;
use qdn_core::route_selection::{GibbsConfig, RouteSelector};
use qdn_net::dynamics::StaticDynamics;
use qdn_net::workload::{PersistentWorkload, UniformWorkload, Workload};
use qdn_net::NetworkConfig;
use qdn_sim::engine::{run, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn warm_config() -> OscarConfig {
    OscarConfig {
        selector: RouteSelector::Gibbs(GibbsConfig {
            evaluator: EvalOptions::warm_seeded(),
            ..GibbsConfig::paper_default()
        }),
        ..OscarConfig::paper_default()
    }
}

fn run_oscar(cfg: OscarConfig, workload: &mut dyn Workload, seed: u64) -> (f64, u64) {
    let mut env_rng = StdRng::seed_from_u64(seed);
    let mut policy_rng = StdRng::seed_from_u64(seed ^ 0x5e55_10f5);
    let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
    let mut policy = OscarPolicy::new(cfg);
    let mut dynamics = StaticDynamics;
    let metrics = run(
        &net,
        workload,
        &mut dynamics,
        &mut policy,
        &SimConfig {
            horizon: 200,
            realize_outcomes: false,
        },
        &mut env_rng,
        &mut policy_rng,
    );
    let utility: f64 = metrics.slots().iter().map(|s| s.utility).sum();
    let cost: u64 = metrics.slots().iter().map(|s| s.cost).sum();
    (utility, cost)
}

/// On the sticky workload — where warm seeding engages nearly every
/// slot and the chain budget drops to `warm_iterations` — the session
/// path must match the cold path's utility within 3% and must not
/// overspend. This is the quality side of the `session_vs_fresh`
/// bench's ≥2× speedup claim.
#[test]
fn warm_session_matches_cold_quality_on_persistent_workload() {
    for seed in [11u64, 47] {
        let mut wl_cold = PersistentWorkload::paper_scale();
        let (cold_utility, cold_cost) = run_oscar(OscarConfig::paper_default(), &mut wl_cold, seed);
        let mut wl_warm = PersistentWorkload::paper_scale();
        let (warm_utility, warm_cost) = run_oscar(warm_config(), &mut wl_warm, seed);

        // Utilities are sums of log-probabilities (negative; closer to
        // zero is better).
        let tol = 0.03 * cold_utility.abs();
        assert!(
            warm_utility >= cold_utility - tol,
            "seed {seed}: warm utility {warm_utility} vs cold {cold_utility} (tol {tol})"
        );
        assert!(
            (warm_cost as f64) <= 1.05 * cold_cost as f64,
            "seed {seed}: warm cost {warm_cost} vs cold {cold_cost}"
        );
    }
}

/// On the paper's uniform workload pairs rarely repeat across slots, so
/// the majority-coverage rule keeps warm seeding disengaged almost
/// everywhere and the session path stays a full-budget search: quality
/// must be indistinguishable from cold there too.
#[test]
fn warm_session_matches_cold_quality_on_uniform_workload() {
    let mut wl_cold = UniformWorkload::paper_default();
    let (cold_utility, cold_cost) = run_oscar(OscarConfig::paper_default(), &mut wl_cold, 23);
    let mut wl_warm = UniformWorkload::paper_default();
    let (warm_utility, warm_cost) = run_oscar(warm_config(), &mut wl_warm, 23);
    let tol = 0.03 * cold_utility.abs();
    assert!(
        warm_utility >= cold_utility - tol,
        "warm utility {warm_utility} vs cold {cold_utility} (tol {tol})"
    );
    assert!((warm_cost as f64) <= 1.05 * cold_cost as f64);
}
