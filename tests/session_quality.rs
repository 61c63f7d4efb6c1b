//! End-to-end quality contract of persistent selection sessions.
//!
//! The default configuration warm-seeds each slot's Gibbs chain from the
//! previous slot's selection and trades the chain's full mixing budget
//! for that warm start (`GibbsConfig::warm_iterations`). That trade
//! is only admissible if it does not buy speed with solution quality:
//! these tests run the 200-slot OSCAR loop on the temporally-correlated
//! `PersistentWorkload` (the regime warm seeding targets) and on the
//! paper's uniform workload, and assert the default (warm) session's
//! aggregate utility and spend stay within a tight band of the cold path
//! (`EvalOptions::default()`, seeding off). A last test checks that the
//! default configuration really seeds. (Bit-identity of the cold session
//! path with a fresh selection per slot is enforced separately by the
//! `session_matches_fresh_per_slot` proptest.)

use qdn_core::oscar::{OscarConfig, OscarPolicy};
use qdn_core::policy::RoutingPolicy;
use qdn_core::profile_eval::EvalOptions;
use qdn_core::route_selection::{Candidates, GibbsConfig, RouteSelector};
use qdn_core::types::SlotState;
use qdn_net::dynamics::StaticDynamics;
use qdn_net::routes::CandidateRoutes;
use qdn_net::workload::{PersistentWorkload, UniformWorkload, Workload};
use qdn_net::CapacitySnapshot;
use qdn_net::NetworkConfig;
use qdn_sim::engine::{run, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// OSCAR's paper defaults with the Gibbs selector's evaluator options
/// replaced by `evaluator`.
fn oscar_with(evaluator: EvalOptions) -> OscarConfig {
    OscarConfig {
        selector: RouteSelector::Gibbs(GibbsConfig {
            evaluator,
            ..GibbsConfig::paper_default()
        }),
        ..OscarConfig::paper_default()
    }
}

/// The cold arm: a random chain start every slot.
fn cold_config() -> OscarConfig {
    oscar_with(EvalOptions::default())
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
/// slot and the chain budget drops to `warm_iterations` — the default
/// session path must match the cold path's utility within 3% and must
/// not overspend. This is the quality side of the `session_vs_fresh`
/// bench's ≥2× speedup claim.
#[test]
fn warm_session_matches_cold_quality_on_persistent_workload() {
    for seed in [11u64, 47] {
        let mut wl_cold = PersistentWorkload::paper_scale();
        let (cold_utility, cold_cost) = run_oscar(cold_config(), &mut wl_cold, seed);
        let mut wl_warm = PersistentWorkload::paper_scale();
        let (warm_utility, warm_cost) = run_oscar(OscarConfig::paper_default(), &mut wl_warm, seed);

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
    let (cold_utility, cold_cost) = run_oscar(cold_config(), &mut wl_cold, 23);
    let mut wl_warm = UniformWorkload::paper_default();
    let (warm_utility, warm_cost) = run_oscar(OscarConfig::paper_default(), &mut wl_warm, 23);
    let tol = 0.03 * cold_utility.abs();
    assert!(
        warm_utility >= cold_utility - tol,
        "warm utility {warm_utility} vs cold {cold_utility} (tol {tol})"
    );
    assert!((warm_cost as f64) <= 1.05 * cold_cost as f64);
}

/// The default configuration seeds. On the sticky workload the default
/// policy's session offers a warm start (`seed_indices` is `Some`) on
/// most slots after the first, and the default policy decides exactly
/// as one configured with `EvalOptions::warm_seeded()` spelled out, and
/// not as the cold one.
#[test]
fn default_config_seeds_most_slots_on_persistent_workload() {
    const SLOTS: u64 = 40;
    let mut env_rng = StdRng::seed_from_u64(5);
    let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
    let default = OscarConfig::paper_default();
    let mut routes = CandidateRoutes::new(default.route_limits);
    let mut workload = PersistentWorkload::paper_scale();
    let mut policies = [
        OscarPolicy::new(default),
        OscarPolicy::new(oscar_with(EvalOptions::warm_seeded())),
        OscarPolicy::new(cold_config()),
    ];

    let mut seeded = 0;
    let mut differs_from_cold = false;
    for t in 0..SLOTS {
        let requests = workload.requests(t, &net, &mut env_rng);
        let owned: Vec<_> = requests
            .iter()
            .map(|&pair| (pair, routes.routes(&net, pair).to_vec()))
            .collect();
        let candidates: Vec<_> = owned
            .iter()
            .map(|(pair, routes)| Candidates {
                pair: *pair,
                routes,
            })
            .collect();
        if t > 0 && policies[0].session().seed_indices(&candidates).is_some() {
            seeded += 1;
        }

        let slot = SlotState::new(t, requests, CapacitySnapshot::full(&net));
        let [default, warm, cold] = policies
            .each_mut()
            .map(|policy| policy.decide(&net, &slot, &mut StdRng::seed_from_u64(1_000 + t)));
        assert_eq!(default, warm, "slot {t}: default differs from warm-seeded");
        differs_from_cold |= default != cold;
    }
    assert!(
        2 * seeded > SLOTS - 1,
        "only {seeded} of {} slots after slot 0 offered a seed",
        SLOTS - 1
    );
    assert!(
        differs_from_cold,
        "default decided as the cold chain on every slot"
    );
}
