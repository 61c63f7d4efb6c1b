//! Empirical validation of the paper's theoretical results on real
//! topologies: Prop. 2's Δ-optimality of Algorithm 2, Theorem 1's budget
//! violation bound, and the Gibbs-vs-exhaustive comparison behind
//! Algorithm 3.

use qdn::core::allocation::AllocationMethod;
use qdn::core::oscar::{OscarConfig, OscarPolicy};
use qdn::core::problem::PerSlotContext;
use qdn::core::profile_eval::EvalOptions;
use qdn::core::route_selection::{exhaustive, Candidates, GibbsConfig, RouteSelector};
use qdn::core::theory::{delta_bound, theorem1_violation_bound, BoundParams};
use qdn::net::dynamics::{ChurnDynamics, ChurnEventKind, ResourceDynamics, StaticDynamics};
use qdn::net::routes::{CandidateRoutes, RouteLimits};
use qdn::net::workload::{random_sd_pair, PersistentWorkload, UniformWorkload, Workload};
use qdn::net::{CapacitySnapshot, NetworkConfig};
use qdn::sim::engine::{run, SimConfig};
use qdn_solve::brute::brute_force_best;
use rand::SeedableRng;

/// Prop. 2 on real per-slot instances: relax-and-round is within
/// Δ = V·F·L·ln(2 − p_min) of the exact integer optimum.
#[test]
fn prop2_delta_optimality_on_real_slots() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(88);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let mut routes = CandidateRoutes::new(RouteLimits::paper_default());
    let v = 500.0;

    for trial in 0..10 {
        // One or two pairs so brute force stays tractable.
        let pairs: Vec<_> = (0..1 + trial % 2)
            .map(|_| random_sd_pair(&mut rng, &net))
            .collect();
        let profile: Vec<_> = pairs
            .iter()
            .map(|&p| (p, routes.routes(&net, p)[0].clone()))
            .collect();
        let profile_refs: Vec<_> = profile.iter().map(|(p, r)| (*p, r)).collect();
        let ctx = PerSlotContext::oscar(&net, &snap, v, 5.0);
        let Ok(instance) = ctx.build_instance(&profile_refs) else {
            continue;
        };
        let rounded = AllocationMethod::relax_and_round()
            .allocate(&instance)
            .expect("feasible instance");
        let (_, opt) = brute_force_best(&instance, 6);
        let got = instance.objective_int(&rounded);
        let l = profile.iter().map(|(_, r)| r.hops()).max().unwrap_or(1);
        let delta = delta_bound(v, profile.len(), l, net.p_min());
        assert!(
            opt - got <= delta + 1e-6,
            "trial {trial}: gap {} exceeds Δ = {delta}",
            opt - got
        );
    }
}

/// Runs OSCAR for 50 slots on the paper network (built from `seed`) and
/// asserts that the time-averaged budget violation is below Theorem 1's
/// bound, with `f` the most SD pairs `workload` puts in one slot.
fn assert_theorem1_bound(
    seed: u64,
    f: usize,
    workload: &mut dyn Workload,
    dynamics: &mut dyn ResourceDynamics,
) {
    let horizon = 50u64;
    let budget = 1250.0;
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut policy_rng = rand::rngs::StdRng::seed_from_u64(seed + 1000);
    let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
    let cfg = OscarConfig {
        total_budget: budget,
        horizon,
        ..OscarConfig::paper_default()
    };
    let mut policy = OscarPolicy::new(cfg.clone());
    let metrics = run(
        &net,
        workload,
        dynamics,
        &mut policy,
        &SimConfig {
            horizon,
            realize_outcomes: false,
        },
        &mut env_rng,
        &mut policy_rng,
    );
    let avg_violation = (metrics.total_cost() as f64 - budget) / horizon as f64;
    let max_w = net
        .graph()
        .edge_ids()
        .map(|e| net.channel_capacity(e))
        .max()
        .unwrap() as f64;
    let bound = theorem1_violation_bound(&BoundParams {
        v: cfg.v,
        f,
        l: 8,
        p_min: net.p_min(),
        budget,
        horizon,
        q0: cfg.q0,
        c_max: (f * 8) as f64 * max_w,
    });
    assert!(
        avg_violation <= bound,
        "seed {seed}: violation {avg_violation:.2} exceeds Theorem 1 bound {bound:.2}"
    );
}

/// Theorem 1 on a full OSCAR run: the time-averaged budget violation is
/// below the analytic bound, on static capacities with the paper's
/// `U[1,5]` pairs and on the churn benchmark's shape (10 sticky pairs
/// under Poisson link failures at rate 0.5, MTTR 5, over static
/// capacities).
#[test]
fn theorem1_violation_bound_holds_empirically() {
    for seed in [1u64, 2, 3] {
        assert_theorem1_bound(
            seed,
            5,
            &mut UniformWorkload::paper_default(),
            &mut StaticDynamics,
        );
        let mut churn = ChurnDynamics::new(0.5, 5.0, seed, Box::new(StaticDynamics));
        assert_theorem1_bound(seed, 10, &mut PersistentWorkload::new(10, 0.8), &mut churn);
        assert!(
            churn
                .churn_events()
                .iter()
                .any(|e| e.kind == ChurnEventKind::Fail),
            "seed {seed}: no link failed"
        );
    }
}

/// The virtual queue series is consistent with Eq. 7 replayed from the
/// recorded costs.
#[test]
fn virtual_queue_matches_recursion() {
    let horizon = 30u64;
    let budget = 750.0;
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut policy_rng = rand::rngs::StdRng::seed_from_u64(10);
    let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
    let cfg = OscarConfig {
        total_budget: budget,
        horizon,
        ..OscarConfig::paper_default()
    };
    let q0 = cfg.q0;
    let allowance = budget / horizon as f64;
    let mut policy = OscarPolicy::new(cfg);
    let metrics = run(
        &net,
        &mut UniformWorkload::paper_default(),
        &mut StaticDynamics,
        &mut policy,
        &SimConfig {
            horizon,
            realize_outcomes: false,
        },
        &mut env_rng,
        &mut policy_rng,
    );
    let mut q = q0;
    for slot in metrics.slots() {
        q = (q + slot.cost as f64 - allowance).max(0.0);
        let recorded = slot.virtual_queue.expect("OSCAR reports its queue");
        assert!(
            (q - recorded).abs() < 1e-9,
            "slot {}: replayed queue {q} vs recorded {recorded}",
            slot.t
        );
    }
}

/// Algorithm 3 (Gibbs) reaches the exhaustive optimum on small real
/// instances with annealing.
#[test]
fn gibbs_matches_exhaustive_on_real_topology() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let mut routes = CandidateRoutes::new(RouteLimits::paper_default());
    let ctx = PerSlotContext::oscar(&net, &snap, 1000.0, 10.0);
    let method = AllocationMethod::default();

    let mut wins = 0usize;
    const TRIALS: usize = 5;
    for _ in 0..TRIALS {
        let pairs: Vec<_> = (0..2).map(|_| random_sd_pair(&mut rng, &net)).collect();
        let owned: Vec<_> = pairs
            .iter()
            .map(|&p| (p, routes.routes(&net, p).to_vec()))
            .collect();
        let cands: Vec<Candidates> = owned
            .iter()
            .map(|(pair, routes)| Candidates {
                pair: *pair,
                routes,
            })
            .collect();
        let Some(exact) = exhaustive::search(&ctx, &cands, &method, EvalOptions::default()) else {
            continue;
        };
        let gibbs = RouteSelector::Gibbs(GibbsConfig {
            iterations: 100,
            gamma: 50.0,
            gamma_decay: 0.93,
            max_init_attempts: 8,
            warm_iterations: 100,
            evaluator: EvalOptions::default(),
        })
        .select(&ctx, &cands, &method, &mut rng)
        .expect("feasible");
        // Within 1% of the exhaustive optimum counts as matching.
        let tol = 0.01 * (1.0 + exact.evaluation.objective.abs());
        if gibbs.evaluation.objective >= exact.evaluation.objective - tol {
            wins += 1;
        }
    }
    assert!(
        wins >= TRIALS - 1,
        "Gibbs matched exhaustive on only {wins}/{TRIALS} instances"
    );
}
