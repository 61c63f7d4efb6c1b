//! The policy interface the simulator drives.

use qdn_net::routes::CandidateRoutes;
use qdn_net::QdnNetwork;
use serde::{Deserialize, Serialize};

use crate::types::{Decision, SlotState};

/// Observable internals of a policy, recorded by the simulator each slot
/// (used by the Fig. 3/7/8 time series).
///
/// **Loud compat break (PR 6):** the `churn` field is required when
/// deserializing recorded diagnostics — see MIGRATION.md.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PolicyDiagnostics {
    /// Virtual queue length, for Lyapunov policies.
    pub virtual_queue: Option<f64>,
    /// Budget units spent so far (policies that track spending).
    pub budget_spent: Option<u64>,
    /// Topology-churn handling of the most recent slot, for policies
    /// that run the session pipeline (`None` for policies that don't
    /// track churn).
    pub churn: Option<ChurnDiagnostics>,
}

/// What the last slot's topology churn cost a session policy: how many
/// candidate lists the route cache recomputed. The recovery-time metrics
/// in `qdn-sim` aggregate these per failure event.
///
/// Results files from older versions also carry the keys of the
/// removed cross-slot memo ledger (`regions`, `regions_fresh` and
/// friends) and of the removed repair ledger (`routes_recomputed`,
/// `prewarm_hits`); they still load, and the keys are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChurnDiagnostics {
    /// Links newly failed (capacity dropped to zero) this slot.
    pub failed_edges: u32,
    /// Links newly restored this slot.
    pub restored_edges: u32,
    /// Requested pairs whose recomputed candidate list differs from
    /// the list the cache held under an earlier dead-edge set.
    pub affected_pairs: u32,
    /// Yen searches this slot ran: one per requested pair with no list
    /// for the current dead-edge set.
    pub repair_yen_runs: u32,
}

impl ChurnDiagnostics {
    /// Collects the ledger from a policy's route cache after a slot
    /// decided through [`crate::engine::decide`] (or
    /// [`crate::engine::EngineState::churn_diagnostics`], which wraps
    /// this).
    pub fn collect(routes: &CandidateRoutes) -> Self {
        let churn = routes.last_churn();
        ChurnDiagnostics {
            failed_edges: churn.failed.len() as u32,
            restored_edges: churn.restored.len() as u32,
            affected_pairs: churn.changed_pairs.len() as u32,
            repair_yen_runs: churn.yen_runs as u32,
        }
    }
}

/// An online entanglement-routing policy: observes one slot, returns the
/// routes and allocations for that slot.
///
/// Implementations must be deterministic given the `rng` stream so
/// experiments are reproducible.
pub trait RoutingPolicy: std::fmt::Debug + Send {
    /// Human-readable name for experiment outputs (e.g. `"OSCAR"`).
    fn name(&self) -> String;

    /// Decides routes and qubit allocations for slot `slot`.
    fn decide(
        &mut self,
        network: &QdnNetwork,
        slot: &SlotState,
        rng: &mut dyn rand::Rng,
    ) -> Decision;

    /// Clears all internal state (virtual queues, spent budget, caches)
    /// for a fresh trial.
    fn reset(&mut self);

    /// Internal state snapshot for metric collection.
    fn diagnostics(&self) -> PolicyDiagnostics {
        PolicyDiagnostics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial policy for trait-object sanity checks.
    #[derive(Debug)]
    struct Noop;

    impl RoutingPolicy for Noop {
        fn name(&self) -> String {
            "noop".into()
        }

        fn decide(
            &mut self,
            _network: &QdnNetwork,
            slot: &SlotState,
            _rng: &mut dyn rand::Rng,
        ) -> Decision {
            Decision::new(Vec::new(), slot.requests().to_vec())
        }

        fn reset(&mut self) {}
    }

    #[test]
    fn trait_object_usable() {
        use qdn_net::network::QdnNetworkBuilder;
        use qdn_net::CapacitySnapshot;
        use rand::SeedableRng;

        let mut b = QdnNetworkBuilder::new();
        let a = b.add_node(4);
        let c = b.add_node(4);
        b.add_edge(a, c, 2, qdn_physics::link::LinkModel::new(0.5).unwrap())
            .unwrap();
        let net = b.build();
        let mut policy: Box<dyn RoutingPolicy> = Box::new(Noop);
        let slot = SlotState::new(0, vec![], CapacitySnapshot::full(&net));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let d = policy.decide(&net, &slot, &mut rng);
        assert_eq!(d.total_cost(), 0);
        assert_eq!(policy.name(), "noop");
        assert_eq!(policy.diagnostics(), PolicyDiagnostics::default());
    }

    /// Diagnostics recorded by older versions carry the removed memo
    /// and repair ledger keys; they load with those keys ignored.
    #[test]
    fn old_churn_diagnostics_load_ignoring_memo_keys() {
        let old = r#"{"failed_edges":1,"restored_edges":0,"affected_pairs":2,
            "routes_recomputed":2,"repair_yen_runs":2,"prewarm_hits":0,
            "regions":3,"regions_fresh":0}"#;
        let d: ChurnDiagnostics = serde_json::from_str(old).unwrap();
        assert_eq!(
            d,
            ChurnDiagnostics {
                failed_edges: 1,
                affected_pairs: 2,
                repair_yen_runs: 2,
                ..ChurnDiagnostics::default()
            }
        );
    }
}
