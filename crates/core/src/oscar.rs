//! OSCAR — Algorithm 1: the online user-centric entanglement routing
//! controller.
//!
//! Each slot: observe `Φ_t, Q^t, W^t`; solve P2 (route selection via
//! Algorithm 3 + qubit allocation via Algorithm 2) with the current
//! virtual-queue price `q_t`; then update the queue with the realized
//! cost (Eq. 7). No future statistics are used anywhere.

use qdn_net::routes::RouteLimits;
use qdn_net::QdnNetwork;
use serde::{Deserialize, Serialize};

use crate::allocation::AllocationMethod;
use crate::engine::{self, EngineState, SlotDecisionRequest};
use crate::lyapunov::VirtualQueue;
use crate::policy::{PolicyDiagnostics, RoutingPolicy};
use crate::problem::PerSlotContext;
use crate::profile_eval::SelectorSession;
use crate::route_selection::RouteSelector;
use crate::types::{Decision, SlotState};

/// Configuration of the OSCAR policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OscarConfig {
    /// The drift-plus-penalty weight `V` (paper default 2500).
    pub v: f64,
    /// Initial virtual queue `q0` (paper default 10).
    pub q0: f64,
    /// Total budget `C` over the horizon (paper default 5000).
    pub total_budget: f64,
    /// Horizon `T` in slots (paper default 200).
    pub horizon: u64,
    /// Candidate route limits (`R`, `L`).
    pub route_limits: RouteLimits,
    /// Route-selection strategy (Algorithm 3 by default).
    pub selector: RouteSelector,
    /// Qubit-allocation method (Algorithm 2 by default).
    pub allocation: AllocationMethod,
    /// Optional end-to-end fidelity target (the paper's §III-C
    /// extension): candidate routes whose post-swapping Werner fidelity
    /// falls below this value are excluded from `R(φ)` for the slot.
    pub fidelity_target: Option<f64>,
}

impl OscarConfig {
    /// The paper's §V-A defaults: `V = 2500`, `q0 = 10`, `C = 5000`,
    /// `T = 200`, Gibbs route selection with `γ = 500`.
    pub fn paper_default() -> Self {
        OscarConfig {
            v: 2500.0,
            q0: 10.0,
            total_budget: 5000.0,
            horizon: 200,
            route_limits: RouteLimits::paper_default(),
            selector: RouteSelector::default(),
            allocation: AllocationMethod::default(),
            fidelity_target: None,
        }
    }

    /// Returns a copy with a different `V` (Fig. 7 sweep).
    pub fn with_v(mut self, v: f64) -> Self {
        self.v = v;
        self
    }

    /// Returns a copy with a different `q0` (Fig. 8 sweep).
    pub fn with_q0(mut self, q0: f64) -> Self {
        self.q0 = q0;
        self
    }

    /// Returns a copy with a different budget (Fig. 5 sweep).
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.total_budget = budget;
        self
    }

    /// Returns a copy requiring every chosen route to meet the given
    /// end-to-end fidelity (the paper's fidelity-constraint extension).
    pub fn with_fidelity_target(mut self, target: f64) -> Self {
        self.fidelity_target = Some(target);
        self
    }
}

impl Default for OscarConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The OSCAR routing policy (paper Algorithm 1).
#[derive(Debug)]
pub struct OscarPolicy {
    config: OscarConfig,
    queue: VirtualQueue,
    /// Slot-spanning decision state (candidate cache, selection session,
    /// fidelity-filter cache) owned for the lifetime of a run; cleared
    /// by [`RoutingPolicy::reset`].
    state: EngineState,
    spent: u64,
}

impl OscarPolicy {
    /// Creates the policy from a configuration.
    pub fn new(config: OscarConfig) -> Self {
        let queue = VirtualQueue::new(config.q0, config.total_budget, config.horizon);
        let state = EngineState::new(config.route_limits);
        OscarPolicy {
            config,
            queue,
            state,
            spent: 0,
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &OscarConfig {
        &self.config
    }

    /// Current virtual-queue length `q_t`.
    pub fn queue_value(&self) -> f64 {
        self.queue.value()
    }

    /// The slot-spanning selection session (test/diagnostic access).
    pub fn session(&self) -> &SelectorSession {
        self.state.session()
    }

    /// The slot-spanning decision state (test/diagnostic access).
    pub fn engine_state(&self) -> &EngineState {
        &self.state
    }
}

impl RoutingPolicy for OscarPolicy {
    fn name(&self) -> String {
        "OSCAR".into()
    }

    fn decide(
        &mut self,
        network: &QdnNetwork,
        slot: &SlotState,
        rng: &mut dyn rand::Rng,
    ) -> Decision {
        let ctx =
            PerSlotContext::oscar(network, slot.snapshot(), self.config.v, self.queue.value());
        let decision = engine::decide(
            &mut self.state,
            SlotDecisionRequest {
                network,
                requests: slot.requests(),
                ctx: &ctx,
                selector: &self.config.selector,
                allocation: &self.config.allocation,
                fidelity_target: self.config.fidelity_target,
                rng,
            },
        );
        let cost = decision.total_cost();
        self.spent += cost;
        self.queue.update(cost);
        decision
    }

    fn reset(&mut self) {
        self.queue.reset();
        self.spent = 0;
        // Cross-slot decision state (previous profile, candidate
        // cache) must not leak between trials; see
        // [`EngineState::reset`] for why the route cache is dropped too.
        self.state.reset();
    }

    fn diagnostics(&self) -> PolicyDiagnostics {
        PolicyDiagnostics {
            virtual_queue: Some(self.queue.value()),
            budget_spent: Some(self.spent),
            churn: Some(self.state.churn_diagnostics()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdn_net::workload::{UniformWorkload, Workload};
    use qdn_net::{CapacitySnapshot, NetworkConfig};
    use rand::SeedableRng;

    fn setup() -> (QdnNetwork, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
        (net, rng)
    }

    #[test]
    fn serves_requests_and_updates_queue() {
        let (net, mut rng) = setup();
        let mut policy = OscarPolicy::new(OscarConfig::paper_default());
        let mut wl = UniformWorkload::paper_default();
        let q_before = policy.queue_value();
        let requests = wl.requests(0, &net, &mut rng);
        let n_requests = requests.len();
        let slot = SlotState::new(0, requests, CapacitySnapshot::full(&net));
        let d = policy.decide(&net, &slot, &mut rng);
        assert_eq!(d.request_count(), n_requests);
        assert!(
            d.assignments().len() == n_requests,
            "default config serves all"
        );
        assert!(d.total_cost() >= 2 * d.assignments().len() as u64); // >= 1/edge, >= 2 edges... at least hops
                                                                     // Queue moved according to Eq. 7.
        let expected = (q_before + d.total_cost() as f64 - 25.0).max(0.0);
        assert!((policy.queue_value() - expected).abs() < 1e-9);
    }

    #[test]
    fn every_allocation_positive_and_capacities_respected() {
        let (net, mut rng) = setup();
        let mut policy = OscarPolicy::new(OscarConfig::paper_default());
        let mut wl = UniformWorkload::paper_default();
        for t in 0..20 {
            let requests = wl.requests(t, &net, &mut rng);
            let snap = CapacitySnapshot::full(&net);
            let slot = SlotState::new(t, requests, snap.clone());
            let d = policy.decide(&net, &slot, &mut rng);
            // Audit capacity constraints manually.
            let mut node_usage = vec![0u64; net.node_count()];
            let mut edge_usage = vec![0u64; net.edge_count()];
            for a in d.assignments() {
                for (e, &n) in a.route.edges().iter().zip(&a.allocation) {
                    assert!(n >= 1);
                    let (u, v) = net.graph().endpoints(*e);
                    node_usage[u.index()] += n as u64;
                    node_usage[v.index()] += n as u64;
                    edge_usage[e.index()] += n as u64;
                }
            }
            for v in net.graph().node_ids() {
                assert!(
                    node_usage[v.index()] <= snap.qubits(v) as u64,
                    "slot {t}: node {v} over capacity"
                );
            }
            for e in net.graph().edge_ids() {
                assert!(
                    edge_usage[e.index()] <= snap.channels(e) as u64,
                    "slot {t}: edge {e} over capacity"
                );
            }
        }
    }

    #[test]
    fn queue_price_suppresses_spending() {
        let (net, mut rng) = setup();
        // Force a huge queue by a tiny budget: after a few slots the
        // price dominates and allocations pin to the minimum.
        let cfg = OscarConfig::paper_default().with_budget(10.0);
        let mut policy = OscarPolicy::new(cfg);
        let mut wl = UniformWorkload::paper_default();
        let mut costs = Vec::new();
        // The queue must climb past V·(ln P(2) − ln P(1)) ≈ 927 before the
        // price pins allocations to the minimum; with ~8 units/slot of
        // overspend that takes on the order of 120 slots.
        for t in 0..160 {
            let requests = wl.requests(t, &net, &mut rng);
            let slot = SlotState::new(t, requests, CapacitySnapshot::full(&net));
            let d = policy.decide(&net, &slot, &mut rng);
            let min_cost: u64 = d.assignments().iter().map(|a| a.route.hops() as u64).sum();
            costs.push((d.total_cost(), min_cost));
        }
        // In the last slots the queue is large: spending equals the
        // mandatory minimum.
        for &(cost, min_cost) in &costs[155..] {
            assert_eq!(cost, min_cost, "queue price should pin to minimum");
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let (net, mut rng) = setup();
        let mut policy = OscarPolicy::new(OscarConfig::paper_default());
        let mut wl = UniformWorkload::paper_default();
        let requests = wl.requests(0, &net, &mut rng);
        let slot = SlotState::new(0, requests, CapacitySnapshot::full(&net));
        let _ = policy.decide(&net, &slot, &mut rng);
        policy.reset();
        assert_eq!(policy.queue_value(), 10.0);
        assert_eq!(policy.diagnostics().budget_spent, Some(0));
    }

    #[test]
    fn reset_fully_clears_session_state() {
        // Cross-slot state accumulates under the default config: profile
        // seeding is on.
        let cfg = OscarConfig::paper_default();
        let (net, mut rng) = setup();
        let mut wl = UniformWorkload::paper_default();
        let slots: Vec<_> = (0..3)
            .map(|t| {
                let requests = wl.requests(t, &net, &mut rng);
                SlotState::new(t, requests, CapacitySnapshot::full(&net))
            })
            .collect();

        let mut policy = OscarPolicy::new(cfg.clone());
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(99);
        let first_run: Vec<_> = slots
            .iter()
            .map(|slot| policy.decide(&net, slot, &mut rng_a))
            .collect();
        assert!(policy.session().remembered_pairs() > 0, "profile memory");

        // Reset must clear every cross-slot store ...
        policy.reset();
        assert_eq!(policy.session().remembered_pairs(), 0);

        // ... so a replay after reset is indistinguishable from a fresh
        // policy: no profile leakage between trials.
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(99);
        let second_run: Vec<_> = slots
            .iter()
            .map(|slot| policy.decide(&net, slot, &mut rng_b))
            .collect();
        assert_eq!(first_run, second_run);
    }

    #[test]
    fn diagnostics_expose_queue() {
        let policy = OscarPolicy::new(OscarConfig::paper_default());
        let d = policy.diagnostics();
        assert_eq!(d.virtual_queue, Some(10.0));
        assert_eq!(d.budget_spent, Some(0));
    }

    #[test]
    fn zero_capacity_slot_serves_nothing() {
        let (net, mut rng) = setup();
        let mut policy = OscarPolicy::new(OscarConfig::paper_default());
        let snap =
            CapacitySnapshot::clamped(&net, vec![0; net.node_count()], vec![0; net.edge_count()]);
        let mut wl = UniformWorkload::paper_default();
        let requests = wl.requests(0, &net, &mut rng);
        let n = requests.len();
        let slot = SlotState::new(0, requests, snap);
        let d = policy.decide(&net, &slot, &mut rng);
        assert!(d.assignments().is_empty());
        assert_eq!(d.unserved().len(), n);
    }
}
