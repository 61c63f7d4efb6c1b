//! The per-slot simulation loop.

use qdn_core::policy::RoutingPolicy;
use qdn_core::types::SlotState;
use qdn_net::dynamics::ResourceDynamics;
use qdn_net::workload::Workload;
use qdn_net::QdnNetwork;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::audit::audit_decision;
use crate::metrics::{RunMetrics, SlotRecord};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of slots `T`.
    pub horizon: u64,
    /// Additionally draw Bernoulli outcomes per request (the
    /// physical-layer realization; the analytic probabilities are always
    /// recorded).
    pub realize_outcomes: bool,
}

impl SimConfig {
    /// The paper's default horizon `T = 200` with outcome realization.
    pub fn paper_default() -> Self {
        SimConfig {
            horizon: 200,
            realize_outcomes: true,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Runs one policy over one request/capacity sample path.
///
/// Per slot: sample `Φ_t` from the workload and `(Q^t, W^t)` from the
/// dynamics, let the policy decide, audit the decision against the
/// capacity constraints (debug builds only, panicking on a violation — a
/// policy bug; release builds skip the audit), optionally realize
/// Bernoulli outcomes, and record metrics.
///
/// Randomness is split into two independent streams so experiments can
/// compare policies on *identical* sample paths: `env_rng` drives the
/// workload, the resource dynamics, and outcome realization (exactly one
/// uniform draw per request, regardless of how many requests a policy
/// serves); `policy_rng` drives the policy's internal randomization
/// (Gibbs proposals, tie breaking).
///
/// # Selection-session lifecycle
///
/// Policies own their cross-slot selection state (a
/// `qdn_core::SelectorSession`: the recycled evaluator arena and the
/// previous slot's selected profile) and carry it across the `decide`
/// calls of one run — that is the whole point of the session. Trial isolation is the caller's contract: either build
/// a fresh policy per trial (what [`crate::trial::run_trials`] does) or
/// call [`RoutingPolicy::reset`] between runs, which clears the session
/// along with queues and spend.
///
/// # Panics
///
/// Panics (debug builds) when a policy violates the capacity constraints.
pub fn run(
    network: &QdnNetwork,
    workload: &mut dyn Workload,
    dynamics: &mut dyn ResourceDynamics,
    policy: &mut dyn RoutingPolicy,
    config: &SimConfig,
    env_rng: &mut dyn rand::Rng,
    policy_rng: &mut dyn rand::Rng,
) -> RunMetrics {
    let mut metrics = RunMetrics::new(policy.name());
    for t in 0..config.horizon {
        let requests = workload.requests(t, network, env_rng);
        let snapshot = dynamics.snapshot(t, network, env_rng);
        let slot = SlotState::new(t, requests.clone(), snapshot.clone());
        let decision = policy.decide(network, &slot, policy_rng);

        if cfg!(debug_assertions) {
            let violations = audit_decision(network, &snapshot, &decision);
            assert!(
                violations.is_empty(),
                "policy {} violated constraints at slot {t}: {violations:?}",
                policy.name()
            );
        }

        let success_probs = decision.success_probabilities(network);
        let realized_successes = if config.realize_outcomes {
            // One uniform per request keeps env_rng in sync across
            // policies that serve different subsets.
            let mut successes = 0usize;
            for &p in &success_probs {
                let u: f64 = env_rng.random();
                if u < p {
                    successes += 1;
                }
            }
            Some(successes)
        } else {
            None
        };

        let diagnostics = policy.diagnostics();
        metrics.push(SlotRecord {
            t,
            requests: requests.len(),
            served: decision.assignments().len(),
            utility: decision.utility(network),
            cost: decision.total_cost(),
            success_probs,
            realized_successes,
            virtual_queue: diagnostics.virtual_queue,
            churn: diagnostics.churn,
        });
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdn_core::baselines::MyopicPolicy;
    use qdn_core::oscar::{OscarConfig, OscarPolicy};
    use qdn_net::dynamics::StaticDynamics;
    use qdn_net::workload::UniformWorkload;
    use qdn_net::NetworkConfig;
    use rand::SeedableRng;

    fn quick_sim(policy: &mut dyn RoutingPolicy, horizon: u64, seed: u64) -> RunMetrics {
        let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut policy_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed_f00d);
        let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
        let mut wl = UniformWorkload::paper_default();
        let mut dyn_ = StaticDynamics;
        run(
            &net,
            &mut wl,
            &mut dyn_,
            policy,
            &SimConfig {
                horizon,
                realize_outcomes: true,
            },
            &mut env_rng,
            &mut policy_rng,
        )
    }

    /// Serves every request on its shortest path with 1,000 channels
    /// per edge, far past any capacity.
    #[derive(Debug)]
    struct Overallocating;

    impl RoutingPolicy for Overallocating {
        fn name(&self) -> String {
            "over".into()
        }

        fn decide(
            &mut self,
            network: &QdnNetwork,
            slot: &SlotState,
            _rng: &mut dyn rand::Rng,
        ) -> qdn_core::types::Decision {
            let assignments = slot
                .requests()
                .iter()
                .filter_map(|&pair| {
                    let route = qdn_graph::dijkstra::shortest_path(
                        network.graph(),
                        pair.source(),
                        pair.destination(),
                    )?;
                    let alloc = vec![1_000; route.hops()];
                    Some(qdn_core::types::RouteAssignment::new(pair, route, alloc))
                })
                .collect();
            qdn_core::types::Decision::new(assignments, Vec::new())
        }

        fn reset(&mut self) {}
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "violated constraints")]
    fn debug_builds_panic_on_a_violating_decision() {
        quick_sim(&mut Overallocating, 5, 3);
    }

    #[test]
    fn records_every_slot() {
        let mut policy = OscarPolicy::new(OscarConfig::paper_default());
        let m = quick_sim(&mut policy, 15, 3);
        assert_eq!(m.slots().len(), 15);
        assert_eq!(m.policy(), "OSCAR");
        for s in m.slots() {
            assert_eq!(s.success_probs.len(), s.requests);
            assert!(s.served <= s.requests);
            assert!(s.realized_successes.unwrap() <= s.requests);
            assert!(s.virtual_queue.is_some());
        }
    }

    #[test]
    fn identical_sample_paths_across_policies() {
        // With the two-stream design, the request counts per slot must be
        // identical for different policies under the same seed.
        let mut oscar = OscarPolicy::new(OscarConfig::paper_default());
        let m1 = quick_sim(&mut oscar, 20, 11);
        let mut mf = MyopicPolicy::fixed();
        let m2 = quick_sim(&mut mf, 20, 11);
        let r1: Vec<usize> = m1.slots().iter().map(|s| s.requests).collect();
        let r2: Vec<usize> = m2.slots().iter().map(|s| s.requests).collect();
        assert_eq!(r1, r2);
    }

    #[test]
    fn oscar_beats_random_utility_on_same_seed() {
        let mut oscar = OscarPolicy::new(OscarConfig::paper_default());
        let m_oscar = quick_sim(&mut oscar, 30, 9);
        let mut random = qdn_core::baselines::MinimalRandomPolicy::default();
        let m_random = quick_sim(&mut random, 30, 9);
        assert!(
            m_oscar.avg_success() > m_random.avg_success(),
            "OSCAR {} should beat Random-Min {}",
            m_oscar.avg_success(),
            m_random.avg_success()
        );
    }

    #[test]
    fn myopic_policies_run_clean() {
        for mut policy in [MyopicPolicy::fixed(), MyopicPolicy::adaptive()] {
            let m = quick_sim(&mut policy, 20, 5);
            assert_eq!(m.slots().len(), 20);
            // Some requests must have been served.
            assert!(m.total_requests() > m.total_unserved());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut p1 = OscarPolicy::new(OscarConfig::paper_default());
        let m1 = quick_sim(&mut p1, 10, 77);
        let mut p2 = OscarPolicy::new(OscarConfig::paper_default());
        let m2 = quick_sim(&mut p2, 10, 77);
        assert_eq!(m1, m2);
    }

    #[test]
    fn warm_session_on_persistent_workload_is_deterministic() {
        use qdn_net::workload::PersistentWorkload;

        // The temporally-correlated scenario with the default config,
        // whose profile seeding carries state across slots: repeated
        // runs on the same seeds must agree exactly, and the reset path
        // must restore a replayable policy.
        let run_once = || {
            let mut env_rng = rand::rngs::StdRng::seed_from_u64(31);
            let mut policy_rng = rand::rngs::StdRng::seed_from_u64(32);
            let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
            let mut wl = PersistentWorkload::paper_scale();
            let mut dyn_ = StaticDynamics;
            let mut policy = OscarPolicy::new(OscarConfig::paper_default());
            run(
                &net,
                &mut wl,
                &mut dyn_,
                &mut policy,
                &SimConfig {
                    horizon: 12,
                    realize_outcomes: false,
                },
                &mut env_rng,
                &mut policy_rng,
            )
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        // The sticky workload really is sticky: consecutive slots share
        // pairs, so the per-slot request count is constant at F.
        assert!(a.slots().iter().all(|s| s.requests == 5));
    }

    #[test]
    fn no_realization_mode() {
        let mut env_rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut policy_rng = rand::rngs::StdRng::seed_from_u64(4);
        let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
        let mut wl = UniformWorkload::paper_default();
        let mut dyn_ = StaticDynamics;
        let mut policy = OscarPolicy::new(OscarConfig::paper_default());
        let m = run(
            &net,
            &mut wl,
            &mut dyn_,
            &mut policy,
            &SimConfig {
                horizon: 5,
                realize_outcomes: false,
            },
            &mut env_rng,
            &mut policy_rng,
        );
        assert!(m.slots().iter().all(|s| s.realized_successes.is_none()));
        assert_eq!(m.realized_success_rate(), None);
    }
}
